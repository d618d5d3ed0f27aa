"""Per-bank row-buffer state machine and the refresh schedule.

Each bank is one on-chip DRAM macro of the §2.1 model: a grid of rows,
one of which may be latched in the row buffer.  An access to the open
row costs one page access (2 ns with paper timings); opening a closed
bank costs a row activation (20 ns) first; switching rows additionally
pays an explicit precharge, which defaults to 0 because the paper's
conservative 20 ns row-access figure already subsumes it (keeping the
simulated streaming bandwidth exactly equal to
:func:`repro.arch.dram.macro_bandwidth_bits_per_sec`).

Refresh (tREFI / tRFC)
----------------------
DRAM cells leak: every ``tREFI`` ns (the refresh interval) a refresh
command must be issued, and the refreshed resource is unavailable for
``tRFC`` ns (the refresh cycle time).  :class:`RefreshSchedule` models
this as a *deterministic recurring fence* rather than an event source,
so both replay tiers — the exact incremental replay and the vectorized
closed form — derive identical blackout windows from pure arithmetic on
the clock:

* ``per-rank`` granularity (all-bank refresh, the HBM/Ramulator
  default): at every boundary ``k * tREFI`` (k >= 1) *all* banks of
  every channel refresh together; no service may *start* inside the
  blackout ``[k*tREFI, k*tREFI + tRFC)``, and the refresh precharges
  every row buffer (the next access to each bank pays a fresh
  activation).
* ``per-bank`` granularity (staggered/rolling refresh): bank ``b``
  refreshes in its own slice ``[k*tREFI + b*tRFC, k*tREFI +
  (b+1)*tRFC)``, so the channel keeps serving *other* banks while one
  refreshes — only a request targeting the refreshing bank (or an
  all-bank PIM/AB operation, which needs every bank) stalls.

Fences gate service *starts* only: an access in flight when a boundary
arrives completes normally (real controllers defer refresh behind an
open transaction), and its bank's row buffer is invalidated before the
next scheduling decision.  The sustained-bandwidth cost of per-rank
refresh is therefore ~``tRFC/tREFI``, the classic refresh-overhead
ratio, which ``exp_memsys`` checks against simulation.
"""

from __future__ import annotations

import dataclasses
import math
import typing as _t

from ..arch.dram import DramMacroTiming

__all__ = [
    "BankAccess",
    "Bank",
    "latency_table",
    "ROW_POLICIES",
    "REFRESH_GRANULARITIES",
    "RefreshSchedule",
]

#: Row-buffer outcomes.
HIT = "hit"
MISS = "miss"
CONFLICT = "conflict"

#: Outcomes in the packed-code order of the recorder arrays.
OUTCOMES = (HIT, MISS, CONFLICT)

#: Row-buffer management policies.
OPEN = "open"
CLOSED = "closed"
ROW_POLICIES = (OPEN, CLOSED)

#: Refresh granularities.
PER_RANK = "per-rank"
PER_BANK = "per-bank"
REFRESH_GRANULARITIES = (PER_RANK, PER_BANK)


@dataclasses.dataclass(frozen=True)
class RefreshSchedule:
    """Deterministic tREFI/tRFC blackout windows for one channel.

    Both replay tiers compute refresh from this one schedule, with the
    same float expressions, so blackout fences land bit-identically:

    * ``epoch(now)`` counts elapsed refresh boundaries (``k`` such that
      ``k * tREFI <= now``); crossing a boundary closes row buffers —
      all banks at once (per-rank), or bank ``b`` at its staggered
      slice start ``k*tREFI + b*tRFC`` (per-bank);
    * the ``*_fence`` methods return the earliest instant a service may
      begin: ``now`` outside a blackout, the blackout's end inside one.

    Parameters
    ----------
    trefi_ns, trfc_ns:
        Refresh interval and refresh cycle time (ns); ``trefi_ns > 0``.
    granularity:
        ``"per-rank"`` or ``"per-bank"``.
    n_banks:
        Banks per channel (sizes the per-bank stagger and the all-bank
        sweep window).
    """

    trefi_ns: float
    trfc_ns: float
    granularity: str
    n_banks: int

    def __post_init__(self) -> None:
        if not self.trefi_ns > 0:
            raise ValueError(
                f"trefi_ns must be > 0, got {self.trefi_ns}"
            )
        if not 0 <= self.trfc_ns < self.trefi_ns:
            raise ValueError(
                f"trfc_ns must satisfy 0 <= trfc_ns < trefi_ns, got "
                f"trfc_ns={self.trfc_ns} trefi_ns={self.trefi_ns}"
            )
        if self.granularity not in REFRESH_GRANULARITIES:
            raise ValueError(
                f"unknown refresh granularity {self.granularity!r}; "
                f"available: {REFRESH_GRANULARITIES}"
            )
        if self.n_banks < 1:
            raise ValueError("n_banks must be >= 1")
        if (
            self.granularity == PER_BANK
            and not self.n_banks * self.trfc_ns < self.trefi_ns
        ):
            raise ValueError(
                "per-bank refresh needs n_banks * trfc_ns < trefi_ns "
                f"(the rolling sweep must fit one interval), got "
                f"{self.n_banks} * {self.trfc_ns} vs {self.trefi_ns}"
            )
        span = self.trfc_ns
        if self.granularity == PER_BANK:
            span *= self.n_banks  # the all-bank sweep
        if not span <= self.trefi_ns * (1 - 2.0**-18):
            # A fence k*tREFI + span rounds by less than 2**-20 * tREFI
            # over the first 2**32 intervals; a blackout ending closer
            # to the next boundary could round onto it and black it out
            # again, a gate that never opens.
            raise ValueError(
                f"a {self.granularity} blackout of {span!r} ns leaves no "
                f"float-safe gap before the next boundary at trefi_ns="
                f"{self.trefi_ns!r} (needs <= trefi_ns * (1 - 2**-18))"
            )

    # ------------------------------------------------------------------
    def epoch(self, now: float) -> int:
        """Refresh boundaries elapsed by ``now`` (0 before the first)."""
        return int(math.floor(now / self.trefi_ns))

    def bank_epoch(self, now: float, bank: int) -> int:
        """Refreshes *started* for ``bank`` by ``now`` (per-bank)."""
        return int(
            math.floor((now - bank * self.trfc_ns) / self.trefi_ns)
        )

    # ------------------------------------------------------------------
    def rank_fence(self, now: float) -> float:
        """Earliest service start at ``now`` under per-rank refresh."""
        epoch = self.epoch(now)
        if epoch >= 1:
            end = epoch * self.trefi_ns + self.trfc_ns
            if now < end:
                return end
        return now

    def bank_fence(self, now: float, bank: int) -> float:
        """Earliest service start for ``bank`` under per-bank refresh."""
        epoch = self.bank_epoch(now, bank)
        if epoch >= 1:
            begin = epoch * self.trefi_ns + bank * self.trfc_ns
            if begin <= now < begin + self.trfc_ns:
                return begin + self.trfc_ns
        return now

    def blackouts(
        self, until: float
    ) -> _t.Iterator[_t.Tuple[float, float, _t.Optional[int]]]:
        """Blackout windows ``(begin, end, bank)`` through ``until``.

        Enumerates the deterministic refresh windows whose start falls
        in ``(0, until]`` — the timeline exporter's refresh track.
        Per-rank windows cover every bank at once (``bank is None``);
        per-bank windows carry the refreshing bank's index.
        """
        if not until > 0 or math.isnan(until):
            return
        epochs = int(math.floor(until / self.trefi_ns))
        for k in range(1, epochs + 1):
            boundary = k * self.trefi_ns
            if self.granularity == PER_RANK:
                yield boundary, boundary + self.trfc_ns, None
                continue
            for bank in range(self.n_banks):
                begin = boundary + bank * self.trfc_ns
                if begin > until:
                    break
                yield begin, begin + self.trfc_ns, bank

    def all_bank_fence(self, now: float) -> float:
        """Earliest all-bank (PIM/AB) start under per-bank refresh.

        The staggered per-bank slices tile ``[k*tREFI, k*tREFI +
        n_banks*tRFC)`` contiguously, so an all-bank operation — which
        needs every bank simultaneously — waits out the whole sweep.
        """
        epoch = self.epoch(now)
        if epoch >= 1:
            end = (
                epoch * self.trefi_ns + self.n_banks * self.trfc_ns
            )
            if now < end:
                return end
        return now


def latency_table(
    timing: DramMacroTiming, precharge_ns: float = 0.0
) -> _t.Dict[str, float]:
    """Outcome -> access latency (ns) for one bank.

    The single source of the per-outcome service times: the
    :meth:`Bank.access` state machine of the exact tier and the
    vectorized closed form read from this table, so both tiers charge
    bit-identical latencies.
    """
    return {
        HIT: timing.page_access_ns,
        MISS: timing.row_access_ns + timing.page_access_ns,
        CONFLICT: (
            precharge_ns + timing.row_access_ns + timing.page_access_ns
        ),
    }


@dataclasses.dataclass(frozen=True)
class BankAccess:
    """Result of one bank access: latency and row-buffer outcome."""

    latency_ns: float
    outcome: str


class Bank:
    """Row-buffer state machine over :class:`DramMacroTiming`.

    Parameters
    ----------
    timing:
        Macro timing (paper defaults if omitted).
    precharge_ns:
        Explicit precharge cost charged on a row conflict before the new
        activation; 0 by default (folded into ``row_access_ns``).
    name:
        Label used in stats and repr.
    row_policy:
        ``"open"`` (default) keeps the accessed row latched until a
        conflict evicts it; ``"closed"`` auto-precharges after every
        access, so each access pays a fresh activation (counted as a
        miss) but never a conflict — the precharge itself overlaps the
        idle bus (the paper's conservative 20 ns row access already
        subsumes it, matching the open-policy convention).
    """

    __slots__ = (
        "timing", "precharge_ns", "name", "row_policy",
        "open_row", "hits", "misses", "conflicts", "_latency_ns",
        "_hit", "_miss", "_conflict",
    )

    def __init__(
        self,
        timing: _t.Optional[DramMacroTiming] = None,
        precharge_ns: float = 0.0,
        name: str = "bank",
        row_policy: str = OPEN,
    ) -> None:
        if precharge_ns < 0:
            raise ValueError("precharge_ns must be >= 0")
        if row_policy not in ROW_POLICIES:
            raise ValueError(
                f"unknown row_policy {row_policy!r}; available: "
                f"{ROW_POLICIES}"
            )
        self.timing = timing or DramMacroTiming()
        self.precharge_ns = float(precharge_ns)
        self.name = name
        self.row_policy = row_policy
        #: Outcome -> access latency, fixed by the timing parameters.
        #: Shared with the vectorized tier so both tiers charge
        #: bit-identical service times.
        self._latency_ns = latency_table(self.timing, self.precharge_ns)
        #: One shared (frozen) result per outcome, so an access
        #: allocates nothing.
        self._hit = BankAccess(self._latency_ns[HIT], HIT)
        self._miss = BankAccess(self._latency_ns[MISS], MISS)
        self._conflict = BankAccess(self._latency_ns[CONFLICT], CONFLICT)
        #: Currently latched row, or ``None`` when the bank is closed.
        self.open_row: _t.Optional[int] = None
        self.hits = 0
        self.misses = 0
        self.conflicts = 0

    # ------------------------------------------------------------------
    def is_hit(self, row: int) -> bool:
        """Would accessing ``row`` hit the open row buffer?"""
        return self.open_row == row

    def access(self, row: int) -> BankAccess:
        """Access one page of ``row``, updating state and counters."""
        if self.row_policy == CLOSED:
            # Auto-precharge: the bank is always closed when the next
            # access arrives, so every access is a fresh activation.
            self.misses += 1
            return self._miss
        if self.open_row == row:
            self.hits += 1
            return self._hit
        if self.open_row is None:
            self.misses += 1
            self.open_row = row
            return self._miss
        self.conflicts += 1
        self.open_row = row
        return self._conflict

    def precharge(self) -> None:
        """Close the row buffer (e.g. between PIM kernels or refresh)."""
        self.open_row = None

    # ------------------------------------------------------------------
    @property
    def accesses(self) -> int:
        return self.hits + self.misses + self.conflicts

    @property
    def row_hit_rate(self) -> float:
        """Fraction of accesses served from the open row buffer."""
        n = self.accesses
        return self.hits / n if n else float("nan")

    def __repr__(self) -> str:
        row = "closed" if self.open_row is None else f"row={self.open_row}"
        return (
            f"<Bank {self.name!r} {row} "
            f"h/m/c={self.hits}/{self.misses}/{self.conflicts}>"
        )
