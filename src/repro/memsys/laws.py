"""Timing laws over a replay's per-request arrays.

An oracle for :meth:`MemorySystem.replay <repro.memsys.MemorySystem.replay>`
that shares no code with it: :func:`check_laws` reads only the
trace-ordered arrays a :class:`~repro.telemetry.LatencyRecorder` adopts
and the configuration, and re-derives what any correct schedule must
satisfy — the protocol-checker idea of Ramulator-family simulators.  It
never calls controller or bank code, so a wrong answer both replay
tiers agree on still shows here.  The laws, each a vectorized pass:

* ``arrival_order`` — arrivals never decrease in trace order;
* ``early_start`` — no service starts before its request arrived;
* ``service_time`` — ``finish == start + table[outcome]`` as one float
  addition (:func:`~repro.memsys.bank.latency_table`, plus one page
  access for an AB broadcast);
* ``channel_overlap`` — in start order, no service on a channel starts
  before the previous one finishes;
* ``occupancy`` — an admission leaves ``1 <= occupancy <= queue_depth``;
* ``refresh_blackout`` — no service starts inside its blackout: the
  channel's (per-rank), its bank's or, for an all-bank command, the
  whole sweep's (per-bank);
* ``row_outcome`` — outcomes replayed per bank in start order: a bank's
  first access, an access after a refresh boundary, and every access
  under the closed-row policy miss; then the same row hits and another
  conflicts.  An all-bank PIM command touches every bank and records
  the slowest; an AB broadcast touches none;
* ``fcfs_order`` — under FCFS a channel starts requests in trace order;
* ``frfcfs_hoist`` — under FR-FCFS a request starts before an older
  queued one only as a single-bank row hit, or (per-bank refresh) while
  the older one's bank is blacked out;
* ``ab_barrier`` — nothing starts before an older queued AB broadcast.

The ordering laws skip an older request whose arrival equals the
younger one's start: the calendar's tie order decides those.
"""

from __future__ import annotations

import math
import typing as _t

import numpy as np

from .bank import CLOSED, PER_RANK, latency_table
from .controller import FCFS
from .request import Op

if _t.TYPE_CHECKING:  # pragma: no cover
    from .system import MemSysConfig

__all__ = ["LAWS", "LawViolation", "check_laws"]

LAWS = (
    "arrival_order",
    "early_start",
    "service_time",
    "channel_overlap",
    "occupancy",
    "refresh_blackout",
    "row_outcome",
    "fcfs_order",
    "frfcfs_hoist",
    "ab_barrier",
)

_HIT, _MISS, _CONFLICT, _BROADCAST = 0, 1, 2, 3


class LawViolation(_t.NamedTuple):
    """One broken law: which, where (channel, trace index), and how."""

    law: str
    channel: int
    index: int
    detail: str


def check_laws(
    config: "MemSysConfig", arrays: _t.Mapping[str, np.ndarray]
) -> _t.List[LawViolation]:
    """Every law ``arrays`` (one replay of ``config``) breaks; an empty
    list means the replay obeys all of :data:`LAWS`."""
    checker = _Checker(config, arrays)
    checker.per_request()
    checker.row_outcomes()
    for ch in range(config.n_channels):
        checker.per_channel(np.flatnonzero(checker.channel == ch))
    return checker.violations


class _Checker:
    def __init__(
        self, config: "MemSysConfig", arrays: _t.Mapping[str, np.ndarray]
    ) -> None:
        self.config = config
        self.refresh = config.refresh_schedule()
        self.arrival = arrays["arrival"]
        self.start = arrays["start_service"]
        self.finish = arrays["finish"]
        self.outcome = arrays["outcome"]
        self.occupancy = arrays["occupancy"]
        self.channel = arrays["channel"]
        self.bank = arrays["bank"]
        self.row = arrays["row"]
        self.op = arrays["op"]
        table = latency_table(config.timing, config.precharge_ns)
        self.table = np.array(
            [
                table["hit"],
                table["miss"],
                table["conflict"],
                config.timing.page_access_ns,
            ]
        )
        self.violations: _t.List[LawViolation] = []

    def flag(
        self,
        law: str,
        where: np.ndarray,
        detail: _t.Callable[[int], str],
        index: _t.Optional[np.ndarray] = None,
    ) -> None:
        """Record ``law`` at the requests ``where`` selects (positions
        into ``index`` when given, else trace indices)."""
        for i in np.flatnonzero(where):
            i = int(i if index is None else index[i])
            self.violations.append(
                LawViolation(law, int(self.channel[i]), i, detail(i))
            )

    def ns(self, name: str, i: int) -> str:
        return f"{name} {float(getattr(self, name)[i])!r}"

    # ------------------------------------------------------------------
    def per_request(self) -> None:
        arrival, start, outcome = self.arrival, self.start, self.outcome
        self.flag(
            "arrival_order",
            np.r_[False, arrival[1:] < arrival[:-1]],
            lambda i: self.ns("arrival", i) + " below the previous one",
        )
        self.flag(
            "early_start",
            start < arrival,
            lambda i: f"{self.ns('start', i)} < {self.ns('arrival', i)}",
        )
        known = (outcome >= 0) & (outcome < self.table.shape[0])
        expected = start + self.table[np.where(known, outcome, 0)]
        self.flag(
            "service_time",
            ~known | (self.finish != expected),
            lambda i: f"{self.ns('finish', i)} for outcome {outcome[i]}",
        )
        depth = self.config.queue_depth
        self.flag(
            "occupancy",
            (self.occupancy < 1) | (self.occupancy > depth),
            lambda i: f"{self.occupancy[i]} queued, depth {depth}",
        )
        if self.refresh is not None:
            self.flag(
                "refresh_blackout",
                self.fence(start, self.bank) > start,
                lambda i: self.ns("start", i) + " inside a blackout",
            )

    def fence(self, at: np.ndarray, bank: np.ndarray) -> np.ndarray:
        """Earliest service start at ``at`` for requests on ``bank``
        (-1: all banks), ``at`` itself outside a blackout; the float
        expressions of :class:`~repro.memsys.bank.RefreshSchedule`."""
        refresh = self.refresh
        trefi, trfc = refresh.trefi_ns, refresh.trfc_ns
        per_rank = refresh.granularity == PER_RANK
        epoch = np.floor(at / trefi)
        end = epoch * trefi + (trfc if per_rank else refresh.n_banks * trfc)
        whole = np.where((epoch >= 1) & (at < end), end, at)
        if per_rank:
            return whole
        offset = np.maximum(bank, 0) * trfc
        bank_epoch = np.floor((at - offset) / trefi)
        begin = bank_epoch * trefi + offset
        inside = (bank_epoch >= 1) & (begin <= at) & (at < begin + trfc)
        return np.where(bank < 0, whole, np.where(inside, begin + trfc, at))

    # ------------------------------------------------------------------
    def row_outcomes(self) -> None:
        """Replay every bank's row-buffer history in start order."""
        op, outcome = self.op, self.outcome
        self.flag(
            "row_outcome",
            (op == Op.AB.code) != (outcome == _BROADCAST),
            lambda i: f"op {op[i]} recorded outcome {outcome[i]}",
        )
        # one access per single-bank request, one per bank per PIM
        n_banks = self.config.banks_per_channel
        single = np.flatnonzero(self.bank >= 0)
        pim = np.flatnonzero(op == Op.PIM.code)
        request = np.concatenate([single, np.repeat(pim, n_banks)])
        bank = np.concatenate(
            [self.bank[single], np.tile(np.arange(n_banks), pim.shape[0])]
        )
        channel = self.channel[request]
        order = np.lexsort((self.start[request], bank, channel))
        request, bank, channel = request[order], bank[order], channel[order]
        start, row = self.start[request], self.row[request]
        closed = np.r_[
            True, (bank[1:] != bank[:-1]) | (channel[1:] != channel[:-1])
        ]
        refresh = self.refresh
        if self.config.row_policy == CLOSED:
            closed[:] = True
        elif refresh is not None:
            if refresh.granularity != PER_RANK:
                start = start - bank * refresh.trfc_ns
            epoch = np.maximum(np.floor(start / refresh.trefi_ns), 0.0)
            closed[1:] |= epoch[1:] > epoch[:-1]
        same_row = row == np.r_[-1, row[:-1]]
        derived = np.where(
            closed, _MISS, np.where(same_row, _HIT, _CONFLICT)
        )
        is_pim = op[request] == Op.PIM.code
        self.flag(
            "row_outcome",
            ~is_pim & (derived != outcome[request]),
            lambda i: f"outcome {outcome[i]} against the bank's history",
            index=request,
        )
        # an all-bank command records its slowest bank: compare
        # latencies, since miss and conflict may cost the same
        worst = np.full(op.shape[0], -math.inf)
        np.maximum.at(worst, request[is_pim], self.table[derived[is_pim]])
        recorded = self.table[np.clip(outcome[pim], 0, _BROADCAST)]
        self.flag(
            "row_outcome",
            recorded != worst[pim],
            lambda i: f"all-bank outcome {outcome[i]}, slowest bank "
            f"costs {worst[i]!r} ns",
            index=pim,
        )

    # ------------------------------------------------------------------
    def per_channel(self, rows: np.ndarray) -> None:
        """The overlap and ordering laws of one channel's requests."""
        start = self.start[rows]
        by_start = rows[np.argsort(start, kind="stable")]
        self.flag(
            "channel_overlap",
            np.r_[
                False, self.start[by_start[1:]] < self.finish[by_start[:-1]]
            ],
            lambda i: self.ns("start", i) + " inside the last service",
            index=by_start,
        )
        if self.config.policy == FCFS:
            self.flag(
                "fcfs_order",
                np.r_[False, start[1:] < start[:-1]],
                lambda i: self.ns("start", i) + " before an older one",
                index=rows,
            )
            return
        # older requests queued at each start: arrival strictly before
        # it (arrivals follow trace order, so a prefix of the channel)
        queued = np.minimum(
            np.searchsorted(self.arrival[rows], start, side="left"),
            np.arange(rows.shape[0]),
        )
        ab_start = np.where(self.op[rows] == Op.AB.code, start, -math.inf)
        latest_ab = np.r_[-math.inf, np.maximum.accumulate(ab_start)]
        self.flag(
            "ab_barrier",
            latest_ab[queued] > start,
            lambda i: self.ns("start", i) + " before an older AB",
            index=rows,
        )
        latest = np.r_[-math.inf, np.maximum.accumulate(start)]
        hit = (self.bank[rows] >= 0) & (self.outcome[rows] == _HIT)
        per_bank = self.refresh is not None and (
            self.refresh.granularity != PER_RANK
        )
        passed = np.zeros(rows.shape[0], dtype=bool)
        for k in np.flatnonzero((latest[queued] > start) & ~hit):
            older = rows[:queued[k]]
            older = older[self.start[older] > start[k]]
            if per_bank:
                # the refresh gate serves around blacked-out banks
                at = np.full(older.shape[0], start[k])
                older = older[self.fence(at, self.bank[older]) <= start[k]]
            passed[k] = older.shape[0] > 0
        self.flag(
            "frfcfs_hoist",
            passed,
            lambda i: self.ns("start", i) + " passes an older request",
            index=rows,
        )
