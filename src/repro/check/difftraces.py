"""Seeded synthetic traces for the differential-testing harness.

The ``tests/diff`` harness replays every trace here through the two
simulator loops (the reference loop and the fast kernel, tiers 0 and
1) and asserts bit-identical results.  Each generator stresses a
different part of the kernels:

``phased``
    Long distinct-page phases with periodic revisits — long hit runs
    and capacity eviction chains.
``strided``
    Interleaved strided sweeps (the paper's type II thrashing shape) —
    TLB-set collisions and shootdowns of TLB-resident victims.
``pointer_chase``
    A permutation walk over a hot core plus cold excursions —
    irregular residency mixes.
``adversarial``
    Division-heavy worst case: near-period-one repeats, tiny distinct
    prefixes, and same-L2-set bursts — HPE page-set divisions and
    repeated shootdowns of one L2 set.

Everything is a pure function of ``(seed, length)`` over the stdlib
``random.Random``, so corpus entries and golden snapshots reproduce on
any machine.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.workloads.base import PatternType, Trace

#: Default episode count — big enough for eviction chains, HIR
#: transfers (every 16th fault) and HPE interval boundaries (every
#: 64th), small enough that the full differential matrix stays fast.
DEFAULT_LENGTH = 4096


def phased(seed: int, length: int = DEFAULT_LENGTH) -> Trace:
    """Distinct-page phases with revisits (long segments, hit runs)."""
    rng = random.Random(f"{seed}:phased")
    pages: list[int] = []
    base = 0
    while len(pages) < length:
        span = rng.randrange(192, 640)
        phase = [base + offset for offset in range(span)]
        pages.extend(phase)
        # Revisit a prefix of the phase (resident → hit-class events),
        # sometimes shuffled so the LRU order is exercised too.
        revisit = phase[: rng.randrange(0, span)]
        if revisit and rng.random() < 0.5:
            rng.shuffle(revisit)
        pages.extend(revisit)
        # Phases overlap partially: some pages stay hot across phases.
        base += rng.randrange(span // 2, span + 1)
    return Trace(name=f"diff-phased-{seed}", pages=pages[:length],
                 pattern_type=PatternType.PART_REPETITIVE)


def strided(seed: int, length: int = DEFAULT_LENGTH) -> Trace:
    """Interleaved strided sweeps (set collisions, thrashing)."""
    rng = random.Random(f"{seed}:strided")
    pages: list[int] = []
    footprint = rng.randrange(900, 1400)
    while len(pages) < length:
        stride = rng.choice([1, 2, 4, 8, 16, 32])
        start = rng.randrange(0, footprint)
        count = rng.randrange(64, 512)
        pages.extend(
            (start + index * stride) % footprint for index in range(count)
        )
    return Trace(name=f"diff-strided-{seed}", pages=pages[:length],
                 pattern_type=PatternType.THRASHING)


def pointer_chase(seed: int, length: int = DEFAULT_LENGTH) -> Trace:
    """Permutation walk over a hot core with cold excursions."""
    rng = random.Random(f"{seed}:chase")
    hot = rng.randrange(256, 768)
    successor = list(range(hot))
    rng.shuffle(successor)
    cold_base = hot
    pages: list[int] = []
    node = 0
    while len(pages) < length:
        pages.append(node)
        if rng.random() < 0.08:
            # Cold excursion: a short run of fresh pages, then return.
            span = rng.randrange(4, 48)
            pages.extend(range(cold_base, cold_base + span))
            cold_base += span
        node = successor[node]
    return Trace(name=f"diff-chase-{seed}", pages=pages[:length],
                 pattern_type=PatternType.REGION_MOVING)


def adversarial(seed: int, length: int = DEFAULT_LENGTH) -> Trace:
    """Division-heavy worst case: repeats, one-set bursts, tiny runs."""
    rng = random.Random(f"{seed}:adversarial")
    pages: list[int] = []
    l2_sets = 32  # the default L2 TLB geometry (512 entries, 16-way)
    while len(pages) < length:
        shape = rng.random()
        if shape < 0.35:
            # Near-period-one repeats of one page.
            page = rng.randrange(0, 2048)
            repeat = rng.randrange(2, 24)
            for _ in range(repeat):
                pages.append(page)
                if rng.random() < 0.3:
                    pages.append(rng.randrange(0, 2048))
        elif shape < 0.65:
            # Same-L2-set burst: distinct pages all mapping to one set,
            # forcing set pressure and repeated shootdowns there.
            target_set = rng.randrange(0, l2_sets)
            burst = rng.randrange(16, 64)
            start = rng.randrange(0, 64)
            pages.extend(
                target_set + (start + index) * l2_sets
                for index in range(burst)
            )
        else:
            # Tiny distinct prefixes separated by duplicates.
            span = rng.randrange(2, 32)
            start = rng.randrange(0, 2048)
            pages.extend(start + index for index in range(span))
            pages.append(pages[-1])
    return Trace(name=f"diff-adversarial-{seed}", pages=pages[:length],
                 pattern_type=PatternType.REPETITIVE_THRASHING)


#: Name → generator, in report order.
GENERATORS: "dict[str, Callable[..., Trace]]" = {
    "phased": phased,
    "strided": strided,
    "pointer-chase": pointer_chase,
    "adversarial": adversarial,
}


def build(kind: str, seed: int, length: int = DEFAULT_LENGTH) -> Trace:
    """Build the ``kind`` generator's trace for ``seed``."""
    try:
        generator = GENERATORS[kind]
    except KeyError:
        raise ValueError(
            f"unknown diff-trace generator {kind!r}; "
            f"known: {', '.join(GENERATORS)}"
        ) from None
    return generator(seed, length)
