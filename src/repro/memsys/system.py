"""The top-level trace-driven memory system.

:class:`MemorySystem` ties an :class:`~repro.memsys.addrmap.AddressMap`
to a set of per-channel controllers (each with its banks) and replays
request streams with bounded-queue backpressure.  Every replay path —
both fast-path tiers and the replay farm's merge — ends in the same
pure reduction, :func:`reduce_stats`, from the per-request arrival / start /
finish arrays and the banks' outcome counters to a :class:`MemSysStats`
summary: sustained bandwidth, row-hit rate, and queue latency — the
simulated counterparts of the §2.1 closed forms in
:mod:`repro.arch.dram`.  Equal arrays give equal statistics, whichever
tier produced them, and :func:`~repro.memsys.laws.check_laws` checks
the arrays themselves against the timing laws.
"""

from __future__ import annotations

import dataclasses
import math
import typing as _t
from operator import attrgetter

import numpy as np

from ..arch.dram import DramMacroTiming
from ..telemetry.latency import OUTCOME_NAMES
from ..telemetry.profile import null_phase
from .addrmap import AddressMap, SCHEMES
from .bank import (
    Bank,
    OPEN,
    PER_RANK,
    REFRESH_GRANULARITIES,
    ROW_POLICIES,
    RefreshSchedule,
)
from .controller import FRFCFS, POLICIES, ChannelController
from .request import MemRequest, Op
from .trace import PackedTrace

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..telemetry import ReplayTelemetry

__all__ = [
    "ENGINES",
    "MemSysConfig",
    "MemSysStats",
    "MemorySystem",
    "reduce_stats",
]

#: Replay engine names accepted by :meth:`MemorySystem.replay`; both
#: select the one replay path.
ENGINES = ("fast", "auto")


def _log2(value: int, what: str) -> int:
    if value < 1 or value & (value - 1):
        raise ValueError(f"{what} must be a power of two, got {value}")
    return value.bit_length() - 1


@dataclasses.dataclass(frozen=True)
class MemSysConfig:
    """Geometry, timing, and policy of one simulated memory system.

    Attributes
    ----------
    n_channels, bankgroups, banks_per_group:
        Resource counts (powers of two); total banks per channel is
        ``bankgroups * banks_per_group``.
    rows_per_bank:
        Rows per bank (power of two); sets the row field width.
    timing:
        Per-bank macro timing (paper defaults if omitted); the column
        field width and transaction size derive from ``page_bits``.
    precharge_ns:
        Explicit row-conflict precharge (0 matches the analytic model).
    scheme:
        Address-interleaving scheme name (see
        :data:`repro.memsys.addrmap.SCHEMES`).
    policy:
        Controller scheduling policy (``"fcfs"`` / ``"frfcfs"``).
    queue_depth:
        Per-channel request-queue depth.
    row_policy:
        Row-buffer management: ``"open"`` (default) keeps rows latched
        between accesses, ``"closed"`` auto-precharges after every
        access (each access pays a fresh activation, none a conflict).
    trefi_ns, trfc_ns:
        Refresh interval and refresh cycle time in ns.  The default
        ``trefi_ns=0`` disables refresh modeling; with ``trefi_ns > 0``
        every ``trefi_ns`` a refresh precharges row buffers and blacks
        out its resource for ``trfc_ns`` (see
        :class:`~repro.memsys.bank.RefreshSchedule`).  HBM2-class
        numbers are ``trefi_ns=3900, trfc_ns=350``.
    refresh_granularity:
        ``"per-rank"`` (default: all banks of a channel refresh
        together, the channel stalls) or ``"per-bank"`` (staggered:
        only the refreshing bank is blocked).
    """

    n_channels: int = 2
    bankgroups: int = 2
    banks_per_group: int = 2
    rows_per_bank: int = 16384
    timing: DramMacroTiming = dataclasses.field(
        default_factory=DramMacroTiming
    )
    precharge_ns: float = 0.0
    scheme: str = "row-major"
    policy: str = FRFCFS
    queue_depth: int = 16
    row_policy: str = OPEN
    trefi_ns: float = 0.0
    trfc_ns: float = 0.0
    refresh_granularity: str = PER_RANK

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; available: "
                f"{sorted(SCHEMES)}"
            )
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; available: {POLICIES}"
            )
        if self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.row_policy not in ROW_POLICIES:
            raise ValueError(
                f"unknown row_policy {self.row_policy!r}; available: "
                f"{ROW_POLICIES}"
            )
        if self.precharge_ns < 0:
            raise ValueError(
                f"precharge_ns must be >= 0, got {self.precharge_ns}"
            )
        if self.trefi_ns < 0 or self.trfc_ns < 0:
            raise ValueError(
                f"trefi_ns and trfc_ns must be >= 0, got "
                f"trefi_ns={self.trefi_ns} trfc_ns={self.trfc_ns}"
            )
        if self.trefi_ns == 0 and self.trfc_ns > 0:
            raise ValueError(
                "trfc_ns > 0 needs trefi_ns > 0 (refresh is enabled "
                "by a positive refresh interval)"
            )
        if self.refresh_granularity not in REFRESH_GRANULARITIES:
            raise ValueError(
                f"unknown refresh_granularity "
                f"{self.refresh_granularity!r}; available: "
                f"{REFRESH_GRANULARITIES}"
            )
        self.refresh_schedule()  # validates tRFC against tREFI
        self.address_map()  # validates the power-of-two geometry

    @property
    def banks_per_channel(self) -> int:
        return self.bankgroups * self.banks_per_group

    @property
    def refresh_enabled(self) -> bool:
        return self.trefi_ns > 0

    def refresh_schedule(self) -> _t.Optional[RefreshSchedule]:
        """The per-channel refresh schedule (``None`` when disabled)."""
        if not self.refresh_enabled:
            return None
        return RefreshSchedule(
            trefi_ns=self.trefi_ns,
            trfc_ns=self.trfc_ns,
            granularity=self.refresh_granularity,
            n_banks=self.banks_per_channel,
        )

    @property
    def transaction_bytes(self) -> int:
        """Bytes per transaction: one page of the row buffer."""
        return self.timing.page_bits // 8

    def address_map(self) -> AddressMap:
        """The bit-field map implied by this geometry."""
        return AddressMap.from_scheme(
            self.scheme,
            channel_bits=_log2(self.n_channels, "n_channels"),
            bankgroup_bits=_log2(self.bankgroups, "bankgroups"),
            bank_bits=_log2(self.banks_per_group, "banks_per_group"),
            row_bits=_log2(self.rows_per_bank, "rows_per_bank"),
            column_bits=_log2(
                self.timing.pages_per_row, "pages_per_row"
            ),
            offset_bits=_log2(
                max(1, self.transaction_bytes), "transaction bytes"
            ),
        )


@dataclasses.dataclass
class MemSysStats:
    """Replay summary, reduced from the per-request arrays by
    :func:`reduce_stats`."""

    n_requests: int
    total_bits: int
    makespan_ns: float
    sustained_bits_per_sec: float
    row_hit_rate: float
    row_hits: int
    row_misses: int
    row_conflicts: int
    mean_queue_latency_ns: float
    #: Time-averaged queue length per channel (averaged over channels,
    #: like :attr:`channel_utilization`).
    mean_queue_length: float
    channel_utilization: float
    per_channel: _t.List[dict]

    def to_rows(self) -> _t.List[dict]:
        """Per-channel table rows for CSV/report export."""
        return self.per_channel

    def summary(self) -> dict:
        """Flat system-level row for CSV/report export."""
        return {
            "requests": self.n_requests,
            "sustained_gbit_per_s": self.sustained_bits_per_sec / 1e9,
            "row_hit_rate": self.row_hit_rate,
            "mean_latency_ns": self.mean_queue_latency_ns,
            "mean_queue_length": self.mean_queue_length,
            "utilization": self.channel_utilization,
            "makespan_ns": self.makespan_ns,
        }


class MemorySystem:
    """Banked, multi-channel memory system.

    Parameters
    ----------
    config:
        Geometry/timing/policy; defaults to :class:`MemSysConfig`.
    """

    def __init__(self, config: _t.Optional[MemSysConfig] = None) -> None:
        self.config = config or MemSysConfig()
        self.addr_map = self.config.address_map()
        self._replayed = False
        #: Which tier the last :meth:`replay` ran: ``"fast-vectorized"``
        #: or ``"fast-exact"`` (``None`` before any replay).
        self.last_replay_engine: _t.Optional[str] = None
        self.controllers: _t.List[ChannelController] = []
        for channel in range(self.config.n_channels):
            banks = [
                Bank(
                    self.config.timing,
                    self.config.precharge_ns,
                    name=f"ch{channel}.b{index}",
                    row_policy=self.config.row_policy,
                )
                for index in range(self.config.banks_per_channel)
            ]
            self.controllers.append(
                ChannelController(
                    channel,
                    banks,
                    policy=self.config.policy,
                    queue_depth=self.config.queue_depth,
                    refresh=self.config.refresh_schedule(),
                )
            )

    # ------------------------------------------------------------------
    # trace replay
    # ------------------------------------------------------------------
    def replay(
        self,
        requests: _t.Union[_t.Sequence[MemRequest], PackedTrace],
        engine: str = "auto",
        telemetry: _t.Optional["ReplayTelemetry"] = None,
    ) -> MemSysStats:
        """Replay ``requests``; run to completion.

        Untimestamped requests are injected in order as queue slots
        free up (bounded by ``config.queue_depth`` per channel),
        modeling an open queue fed at line rate — the
        sustained-bandwidth regime of §2.1.  A uniformly *timestamped*
        trace is additionally held to its recorded arrival times: each
        request enters its queue no earlier than its timestamp (and no
        earlier than its predecessors), replaying the trace's actual
        traffic intensity.

        The replay runs on :mod:`repro.memsys.fastpath`: the
        vectorized closed form where its certificates hold, the exact
        incremental replay otherwise.  Per-request runtime fields are
        filled in for object traces, never for :class:`PackedTrace`
        inputs.

        Parameters
        ----------
        requests:
            A sequence of :class:`MemRequest` objects or a
            :class:`~repro.memsys.trace.PackedTrace`.
        engine:
            ``"fast"`` or ``"auto"`` (default); both name the one
            replay path.
        telemetry:
            Optional :class:`~repro.telemetry.ReplayTelemetry`.  When
            attached, its latency recorder adopts the per-request
            arrival/start/finish times and its profiler times the
            replay phases; afterwards the telemetry holds the stats,
            tier, and config needed for metrics/timeline export.  Off
            by default and free when off.
        """
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; available: {ENGINES}"
            )
        if not isinstance(requests, PackedTrace):
            requests = list(requests)
            self._validate_timestamps(requests)
        if len(requests) == 0:
            raise ValueError("cannot replay an empty request stream")
        if self._replayed:
            raise RuntimeError(
                "this MemorySystem has already replayed a trace; its "
                "counters are cumulative — build a fresh MemorySystem "
                "per trace"
            )
        from .fastpath import replay_fast

        self._replayed = True
        return replay_fast(self, requests, telemetry)

    @staticmethod
    def _validate_timestamps(requests: _t.Sequence[MemRequest]) -> None:
        """Reject mixed or decreasing timestamps before any replay.

        (:class:`PackedTrace` inputs validate at construction; this is
        the object-trace counterpart.)
        """
        timed = sum(1 for r in requests if r.timestamp is not None)
        if timed and timed != len(requests):
            raise ValueError(
                "trace mixes timestamped and untimestamped requests; "
                "timestamp every request or none"
            )
        if timed:
            last = 0.0
            for index, request in enumerate(requests):
                when = _t.cast(float, request.timestamp)
                if when < last:
                    raise ValueError(
                        f"request {index}: timestamp {when!r} decreases "
                        f"(previous was {last!r})"
                    )
                last = when

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def row_counts(self) -> np.ndarray:
        """Every bank's ``(hits, misses, conflicts)`` counters.

        Shaped ``(n_channels, banks_per_channel, 3)``; the
        :func:`reduce_stats` input the per-request arrays cannot
        replace, since an all-bank PIM request records only its
        slowest bank's outcome.
        """
        return np.array(
            [
                [(b.hits, b.misses, b.conflicts) for b in c.banks]
                for c in self.controllers
            ],
            dtype=np.int64,
        )

    def __repr__(self) -> str:
        c = self.config
        return (
            f"<MemorySystem {c.n_channels}ch x "
            f"{c.banks_per_channel}banks {c.scheme} {c.policy}>"
        )


# ----------------------------------------------------------------------
# statistics: one reduction over the per-request arrays
# ----------------------------------------------------------------------
_OUTCOME_CODE = {name: code for code, name in enumerate(OUTCOME_NAMES)}


def group_channels(
    channel: np.ndarray, n_channels: int
) -> _t.List[np.ndarray]:
    """Trace-ordered indices of each channel's requests."""
    return [np.flatnonzero(channel == ch) for ch in range(n_channels)]


def request_bits(config: MemSysConfig, op: np.ndarray) -> np.ndarray:
    """Bits each request moves: one page per host access or AB register
    broadcast, one page per bank for an all-bank PIM operation."""
    page_bits = config.timing.page_bits
    return np.where(
        op == Op.PIM.code, page_bits * config.banks_per_channel, page_bits
    )


def busy_ns(
    start: np.ndarray, finish: np.ndarray, opens_busy: np.ndarray
) -> float:
    """Busy time of one channel, from its requests in trace order.

    A busy period opens at a service start that finds the channel idle
    (``opens_busy``, stamped by the tier that ran the replay) and
    closes at the completion that leaves its queue empty — the last
    service before the next opening one.  A refresh stall with work
    queued stays inside the period; a stall right after an idle wakeup
    is idle time, because a period opens only when its first service
    starts.  Whether a completion coincident with an admission left the
    queue empty depends on which of the two the calendar ran first,
    which the times alone cannot tell: hence the tier's mark.
    """
    if start.shape[0] == 0:
        return 0.0
    if bool(np.any(start[1:] < start[:-1])):
        # the scheduler reordered: walk the services in start order
        order = np.argsort(start, kind="stable")
        start, finish, opens_busy = (
            start[order], finish[order], opens_busy[order]
        )
    first = np.flatnonzero(opens_busy)
    last = np.r_[first[1:] - 1, start.shape[0] - 1]
    return float((finish[last] - start[first]).sum())


def reduce_stats(
    config: MemSysConfig,
    arrays: _t.Mapping[str, np.ndarray],
    row_counts: np.ndarray,
    channel_rows: _t.Optional[_t.Sequence[np.ndarray]] = None,
) -> MemSysStats:
    """Reduce one replay into its :class:`MemSysStats`.

    Parameters
    ----------
    config:
        The replayed configuration.
    arrays:
        The trace-ordered per-request arrays a
        :class:`~repro.telemetry.LatencyRecorder` adopts; this reads
        ``arrival``, ``start_service``, ``finish``, ``opens_busy``,
        ``channel`` and ``op``.
    row_counts:
        Every bank's hit/miss/conflict counters
        (:meth:`MemorySystem.row_counts`).
    channel_rows:
        :func:`group_channels` of ``arrays["channel"]``, when the
        caller already has it.

    The summary means:

    * makespan — the last finish;
    * latency — arrival to finish, averaged over requests;
    * mean queue length — per channel, the time average of its queued
      requests, ``sum(start - arrival) / makespan``, averaged over
      channels;
    * utilization — per channel, :func:`busy_ns` over the makespan,
      averaged over channels.
    """
    arrival = arrays["arrival"]
    start = arrays["start_service"]
    finish = arrays["finish"]
    opens_busy = arrays["opens_busy"]
    op = arrays["op"]
    if channel_rows is None:
        channel_rows = group_channels(arrays["channel"], config.n_channels)
    n_requests = int(finish.shape[0])
    makespan = float(finish.max()) if n_requests else 0.0
    per_channel = []
    latency_sum = queue_sum = busy_sum = 0.0
    total_bits = 0
    for ch, rows in enumerate(channel_rows):
        a, s, f = arrival[rows], start[rows], finish[rows]
        n_c = int(rows.shape[0])
        latency = float((f - a).sum())
        bits = int(request_bits(config, op[rows]).sum())
        latency_sum += latency
        total_bits += bits
        if makespan > 0:
            queue_sum += float((s - a).sum()) / makespan
            busy_sum += busy_ns(s, f, opens_busy[rows]) / makespan
        hits = int(row_counts[ch, :, 0].sum())
        accesses = int(row_counts[ch].sum())
        per_channel.append(
            {
                "channel": ch,
                "requests": n_c,
                "row_hit_rate": hits / accesses if accesses else math.nan,
                "mean_latency_ns": latency / n_c if n_c else math.nan,
                "gbit_delivered": bits / 1e9,
            }
        )
    hits, misses, conflicts = (
        int(count) for count in row_counts.sum(axis=(0, 1))
    )
    accesses = hits + misses + conflicts
    n_channels = len(channel_rows)
    return MemSysStats(
        n_requests=n_requests,
        total_bits=total_bits,
        makespan_ns=makespan,
        sustained_bits_per_sec=(
            total_bits / (makespan * 1e-9) if makespan > 0 else math.nan
        ),
        row_hit_rate=hits / accesses if accesses else math.nan,
        row_hits=hits,
        row_misses=misses,
        row_conflicts=conflicts,
        mean_queue_latency_ns=(
            latency_sum / n_requests if n_requests else math.nan
        ),
        mean_queue_length=(
            queue_sum / n_channels if n_channels else math.nan
        ),
        channel_utilization=(
            busy_sum / n_channels if n_channels else math.nan
        ),
        per_channel=per_channel,
    )


def _gather(records: _t.Sequence[_t.Any]) -> _t.Dict[str, np.ndarray]:
    """Trace-ordered stamps of finished requests: their times, outcome
    codes, admission occupancy and busy-period marks, read off the fast
    path's exact-tier records."""
    n = len(records)

    def column(
        name: str, dtype: type, code: _t.Optional[_t.Callable] = None
    ) -> np.ndarray:
        values = map(attrgetter(name), records)
        if code is not None:
            values = map(code, values)
        return np.fromiter(values, dtype=dtype, count=n)

    return {
        "arrival": column("arrival", np.float64),
        "start_service": column("start_service", np.float64),
        "finish": column("finish", np.float64),
        "outcome": column("outcome", np.int64, _OUTCOME_CODE.__getitem__),
        "occupancy": column("occupancy", np.int32),
        "opens_busy": column("opens_busy", np.bool_),
    }


def _finish_replay(
    config: MemSysConfig,
    engine: str,
    arrays: _t.Dict[str, np.ndarray],
    row_counts: np.ndarray,
    telemetry: _t.Optional["ReplayTelemetry"],
) -> MemSysStats:
    """Reduce a finished replay; hand its arrays and stats to
    ``telemetry``.  Every replay path ends here."""
    profiler = telemetry.profiler if telemetry is not None else None
    phase = profiler.phase if profiler is not None else null_phase
    with phase("stats-gather"):
        channel_rows = group_channels(arrays["channel"], config.n_channels)
        stats = reduce_stats(config, arrays, row_counts, channel_rows)
    if telemetry is not None:
        if telemetry.recorder is not None:
            telemetry.recorder._capture_arrays(arrays, channel_rows)
        telemetry._finish(config, engine, stats)
    return stats
