"""Declarative, hashable experiment identity — the one canonical form.

Before this module existed, the identity of an experiment was computed in
three subtly different places, and they disagreed: the matrix run id
hashed ``config=None`` and an explicit default ``GPUConfig()`` to
*different* run ids while the result-cache key normalised them to the
same digest, and the journal's ``run_start`` record carried only a
``custom_config: bool`` that could not tell a default-config resume from
a genuinely different one.  DESIGN.md §10 tells the full story.

:class:`ScenarioSpec` (one simulation cell) and :class:`MatrixSpec` (a
grid of cells) are now the single source of truth.  Every hash-derived
identity in the repo — the persistent result-cache fingerprint, the
matrix run id, the journal ``run_start`` spec hash, the golden-snapshot
spec digest, and the registry manifest — is a SHA-256 of the one
normalised string :meth:`ScenarioSpec.canonical` /
:meth:`MatrixSpec.canonical` produce.  Hand-rolling a canonical spec
string anywhere else is a lint error (REP008).

Normalisation rules (applied identically everywhere):

* ``config=None`` ≡ the explicit default ``GPUConfig()``;
* ``hpe_config`` participates only when the policy is (or the matrix
  includes) ``hpe`` — it cannot affect any other policy — and ``None``
  ≡ the default ``HPEConfig()`` when it does;
* policy names are lower-cased, paper-suite workload names upper-cased;
* generator ``params`` are sorted by key.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from repro.core.hpe import HPEConfig
from repro.sim.config import GPUConfig

#: Default RNG seed for trace generation (fixed for reproducibility;
#: re-exported by :mod:`repro.experiments.runner`).
DEFAULT_SEED = 7

#: The workload family of the paper's Table II application suite.
PAPER_FAMILY = "paper"

#: The synthetic differential-trace generators of the golden harness.
GOLDEN_FAMILY = "golden"

#: Families a spec may declare today.  New families (ML-training chunks,
#: imported real traces, multi-page-size memory — ROADMAP item 3) are
#: added here and immediately participate in every identity hash.
KNOWN_FAMILIES = (PAPER_FAMILY, GOLDEN_FAMILY)


class ScenarioError(ValueError):
    """A scenario spec or registry lookup is invalid."""


def stable_config_repr(config: object) -> str:
    """Deterministic text form of a (possibly nested) config dataclass."""
    if config is None:
        return "None"
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        fields = ", ".join(
            f"{f.name}={stable_config_repr(getattr(config, f.name))}"
            for f in dataclasses.fields(config)
        )
        return f"{type(config).__name__}({fields})"
    return repr(config)


def _cache_schema_version() -> int:
    # Late import: repro.sim.cache imports this module at load time.
    from repro.sim.cache import CACHE_SCHEMA_VERSION

    return CACHE_SCHEMA_VERSION


def _journal_schema_version() -> int:
    from repro.resil.journal import JOURNAL_SCHEMA_VERSION

    return JOURNAL_SCHEMA_VERSION


def _normalise_params(
    params: object,
) -> tuple[tuple[str, object], ...]:
    """Sorted, validated ``params`` tuple from a mapping or pair sequence."""
    if isinstance(params, Mapping):
        items = list(params.items())
    else:
        items = [tuple(pair) for pair in params]  # type: ignore[union-attr]
    out: list[tuple[str, object]] = []
    for item in items:
        if len(item) != 2 or not isinstance(item[0], str):
            raise ScenarioError(
                f"params entries must be (name, value) pairs, got {item!r}"
            )
        name, value = item
        if not isinstance(value, (str, int, float, bool, type(None))):
            raise ScenarioError(
                f"param {name!r} must be a scalar, "
                f"got {type(value).__name__}"
            )
        out.append((name, value))
    out.sort(key=lambda pair: pair[0])
    names = [name for name, _ in out]
    if len(set(names)) != len(names):
        raise ScenarioError(f"duplicate param names in {names}")
    return tuple(out)


def _coerce_config(value: object, kind: str) -> object:
    """Build a GPUConfig/HPEConfig from a mapping, validating fields."""
    cls = GPUConfig if kind == "config" else HPEConfig
    if value is None or isinstance(value, cls):
        return value
    if isinstance(value, Mapping):
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(value) - known)
        if unknown:
            raise ScenarioError(
                f"unknown {cls.__name__} field(s): {', '.join(unknown)}"
            )
        try:
            return cls(**value)
        except (TypeError, ValueError) as error:
            raise ScenarioError(f"invalid {cls.__name__}: {error}") from error
    raise ScenarioError(
        f"{kind} must be a {cls.__name__}, a mapping, or None, "
        f"got {type(value).__name__}"
    )


def _check_family(family: str) -> None:
    if family not in KNOWN_FAMILIES:
        raise ScenarioError(
            f"unknown workload family {family!r}; "
            f"known: {', '.join(KNOWN_FAMILIES)}"
        )


def _params_canonical(params: tuple[tuple[str, object], ...]) -> str:
    return ",".join(f"{name}={value!r}" for name, value in params)


@dataclass(frozen=True)
class ScenarioSpec:
    """Identity of one simulation run — everything that can change it.

    Frozen, hashable, and picklable: matrix workers receive the cell
    spec itself across the process boundary, so the digest a worker
    computes is the digest the parent journals.
    """

    workload: str
    policy: str
    rate: float
    seed: int = DEFAULT_SEED
    scale: float = 1.0
    family: str = PAPER_FAMILY
    config: Optional[GPUConfig] = None
    hpe_config: Optional[HPEConfig] = None
    prefetch_degree: int = 0
    #: Requested simulator tier.  ``None`` ≡ the engine default; tiers
    #: 0–2 are bit-identical, so the field is a speed knob and stays
    #: out of :meth:`canonical`.
    fastpath: Optional[int] = None
    #: Extra generator parameters for non-paper families (sorted pairs).
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        _check_family(self.family)
        object.__setattr__(self, "policy", self.policy.lower())
        if self.family == PAPER_FAMILY:
            object.__setattr__(self, "workload", self.workload.upper())
        object.__setattr__(self, "params", _normalise_params(self.params))
        if self.prefetch_degree < 0:
            raise ScenarioError("prefetch_degree must be non-negative")
        if self.fastpath is not None and self.fastpath not in (0, 1, 2):
            raise ScenarioError(
                f"fastpath must be None or 0..2, got {self.fastpath!r}"
            )

    @property
    def effective_config(self) -> GPUConfig:
        """The GPU configuration with ``None`` ≡ the default instance."""
        return self.config or GPUConfig()

    @property
    def effective_hpe_config(self) -> Optional[HPEConfig]:
        """The HPE configuration as it participates in the identity.

        ``None`` for every non-HPE policy (it cannot affect them, and
        normalising keeps sweeps sharing cache entries for their
        baselines); the default instance when HPE runs unconfigured.
        """
        if self.policy != "hpe":
            return None
        return self.hpe_config or HPEConfig()

    def canonical(self) -> str:
        """The one normalised identity string every hash derives from.

        The ``fastpath`` field never participates: the tiers are proven
        bit-identical by the differential harness, so pinning one is a
        performance knob, not an identity change.
        """
        parts = [
            f"schema={_cache_schema_version()}",
            f"family={self.family}",
            f"workload={self.workload}",
            f"policy={self.policy}",
            f"rate={self.rate!r}",
            f"seed={self.seed}",
            f"scale={self.scale!r}",
            f"prefetch={self.prefetch_degree}",
            f"config={stable_config_repr(self.effective_config)}",
            f"hpe={stable_config_repr(self.effective_hpe_config)}",
            f"params={_params_canonical(self.params)}",
        ]
        return "|".join(parts)

    def digest(self) -> str:
        """SHA-256 of :meth:`canonical` — the result-cache fingerprint."""
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioSpec":
        """Build a spec from plain data, rejecting unknown fields."""
        return cls(**_validated_fields(cls, data))

    def describe(self) -> dict[str, object]:
        """JSON-able view (CLI ``scenarios show``, the service layer)."""
        return {
            "family": self.family,
            "workload": self.workload,
            "policy": self.policy,
            "rate": self.rate,
            "seed": self.seed,
            "scale": self.scale,
            "prefetch_degree": self.prefetch_degree,
            "fastpath": self.fastpath,
            "config": stable_config_repr(self.config),
            "hpe_config": stable_config_repr(self.hpe_config),
            "params": dict(self.params),
            "digest": self.digest(),
        }


@dataclass(frozen=True)
class MatrixSpec:
    """Identity of one (policies × rates × workloads) experiment grid."""

    policies: tuple[str, ...]
    rates: tuple[float, ...]
    apps: tuple[str, ...]
    seed: int = DEFAULT_SEED
    scale: float = 1.0
    family: str = PAPER_FAMILY
    config: Optional[GPUConfig] = None
    hpe_config: Optional[HPEConfig] = None
    prefetch_degree: int = 0

    def __post_init__(self) -> None:
        _check_family(self.family)
        object.__setattr__(
            self, "policies", tuple(p.lower() for p in self.policies)
        )
        object.__setattr__(self, "rates", tuple(self.rates))
        apps = tuple(self.apps)
        if self.family == PAPER_FAMILY:
            apps = tuple(a.upper() for a in apps)
        object.__setattr__(self, "apps", apps)
        if self.prefetch_degree < 0:
            raise ScenarioError("prefetch_degree must be non-negative")

    @property
    def effective_config(self) -> GPUConfig:
        """The GPU configuration with ``None`` ≡ the default instance."""
        return self.config or GPUConfig()

    @property
    def effective_hpe_config(self) -> Optional[HPEConfig]:
        """HPE config as it participates: only when the grid runs HPE."""
        if "hpe" not in self.policies:
            return None
        return self.hpe_config or HPEConfig()

    def cell(self, app: str, policy: str, rate: float) -> ScenarioSpec:
        """The :class:`ScenarioSpec` of one grid cell."""
        return ScenarioSpec(
            workload=app,
            policy=policy,
            rate=rate,
            seed=self.seed,
            scale=self.scale,
            family=self.family,
            config=self.config,
            hpe_config=self.hpe_config,
            prefetch_degree=self.prefetch_degree,
        )

    def cells(self) -> list[ScenarioSpec]:
        """Every cell spec in fold order (rate → app → policy)."""
        return [
            self.cell(app, policy, rate)
            for rate in self.rates
            for app in self.apps
            for policy in self.policies
        ]

    def canonical(self) -> str:
        """The one normalised identity string the run id derives from."""
        return "|".join([
            f"journal-schema={_journal_schema_version()}",
            f"cache-schema={_cache_schema_version()}",
            f"family={self.family}",
            f"policies={','.join(self.policies)}",
            f"rates={','.join(repr(r) for r in self.rates)}",
            f"apps={','.join(self.apps)}",
            f"seed={self.seed}",
            f"scale={self.scale!r}",
            f"prefetch={self.prefetch_degree}",
            f"config={stable_config_repr(self.effective_config)}",
            f"hpe={stable_config_repr(self.effective_hpe_config)}",
        ])

    def spec_hash(self) -> str:
        """SHA-256 of :meth:`canonical` — the journal ``spec_hash``."""
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()

    def run_id(self) -> str:
        """The journal run id (a readable prefix of :meth:`spec_hash`)."""
        return f"run-{self.spec_hash()[:12]}"

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MatrixSpec":
        """Build a spec from plain data, rejecting unknown fields."""
        fields = _validated_fields(cls, data)
        for name in ("policies", "rates", "apps"):
            if name in fields:
                value = fields[name]
                if isinstance(value, (str, bytes)) or not isinstance(
                    value, Sequence
                ):
                    raise ScenarioError(
                        f"{name} must be a sequence, "
                        f"got {type(value).__name__}"
                    )
                fields[name] = tuple(value)
        return cls(**fields)

    def describe(self) -> dict[str, object]:
        """JSON-able view (CLI ``scenarios show``, the service layer)."""
        return {
            "family": self.family,
            "policies": list(self.policies),
            "rates": list(self.rates),
            "apps": list(self.apps),
            "seed": self.seed,
            "scale": self.scale,
            "prefetch_degree": self.prefetch_degree,
            "config": stable_config_repr(self.config),
            "hpe_config": stable_config_repr(self.hpe_config),
            "cells": len(self.cells()),
            "run_id": self.run_id(),
            "spec_hash": self.spec_hash(),
        }


def _validated_fields(
    cls: type, data: Mapping[str, object]
) -> dict[str, Any]:
    """Filter ``data`` against ``cls``'s fields, rejecting unknowns."""
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ScenarioError(
            f"unknown {cls.__name__} field(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known))}"
        )
    fields = dict(data)
    if "config" in fields:
        fields["config"] = _coerce_config(fields["config"], "config")
    if "hpe_config" in fields:
        fields["hpe_config"] = _coerce_config(fields["hpe_config"], "hpe")
    return fields
