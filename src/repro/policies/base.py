"""Eviction-policy interface shared by every replacement policy.

The GPU driver (:mod:`repro.uvm.driver`) is policy-agnostic: it feeds each
policy the events the paper says the driver can observe and asks for one
victim page whenever GPU memory is full.

Observable events
-----------------
* **page-in** — a page fault was serviced and the page migrated to the
  GPU.  Every policy sees faults: the driver is invoked on each one.
* **page-walk hit** — the page-table walker found a valid translation.
  The paper's "ideal model" lets LRU / RRIP / CLOCK-Pro update their
  chains on these in exact reference order; HPE instead receives batched
  counts via the HIR cache.  References that hit in the L1/L2 TLBs never
  reach the driver under any policy.
* **trace position** — only the offline Ideal (Belady MIN) policy uses
  this: it is primed with the full future reference trace.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence


class EvictionPolicy(abc.ABC):
    """Abstract replacement policy over resident GPU pages.

    Subclasses must keep their own view of the resident set, updated via
    :meth:`on_page_in` and the page returned from :meth:`select_victim`
    (the driver evicts exactly the returned page).
    """

    #: Human-readable policy name used in experiment reports.
    name: str = "base"

    #: ``True`` when the policy consumes page-walk hit notifications.
    uses_walk_hits: bool = False

    #: ``True`` when the policy must be primed with the future trace.
    requires_future: bool = False

    def on_fault_pending(self, page: int) -> None:
        """A fault for ``page`` is about to be serviced.

        Called before :meth:`select_victim`, so adaptive policies (ARC,
        CAR) can see which page is incoming — their replacement decision
        depends on which ghost list, if any, holds it.
        """

    @abc.abstractmethod
    def on_page_in(self, page: int, fault_number: int) -> None:
        """A fault for ``page`` was serviced; the page is now resident."""

    def on_walk_hit(self, page: int) -> None:
        """The walker hit ``page``'s PTE (page is resident)."""

    def on_trace_position(self, position: int) -> None:
        """Advance the global reference index (offline policies only)."""

    def prime_future(self, trace: Sequence[int]) -> None:
        """Provide the full future reference trace (offline policies only)."""

    @abc.abstractmethod
    def select_victim(self) -> int:
        """Return the resident page to evict next.

        Called only when GPU memory is full; the driver immediately evicts
        the returned page, so the policy must also forget it.
        """

    def resident_count(self) -> Optional[int]:
        """Number of pages the policy believes are resident, if tracked."""
        return None


class PolicyError(RuntimeError):
    """Raised when a policy is asked for a victim but tracks no pages."""
