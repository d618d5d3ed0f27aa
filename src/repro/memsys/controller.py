"""Per-channel memory controllers: queue, scheduler, and banks.

Each channel owns a request queue and a set of banks.  The replay loop
(:func:`repro.memsys.fastpath.replay_fast`'s exact tier) admits requests
into the queue, and at each service start the controller picks a queued
request under its scheduling policy and drives the target bank's
row-buffer state machine; the loop holds the channel for the returned
access latency and completes the request:

* **FCFS** serves strictly in arrival order — the baseline that pays a
  row activation whenever consecutive requests touch different rows.
* **FR-FCFS** (first-ready, first-come-first-served) serves the oldest
  request that *hits* an open row buffer, falling back to the oldest
  request overall — the standard policy that harvests row locality from
  an interleaved stream (Rixner et al.), and the one real PIM memory
  controllers such as HBM-PIM's use.

PIM requests are all-bank operations: every bank of the channel executes
the access in lockstep (latency is the slowest bank's), so one command
moves ``n_banks`` pages — the bandwidth-reclaiming broadcast mode.
AB requests are all-bank *register* broadcasts (CRF microcode, SRF/GRF
register writes for the per-bank PIM execution units of
:mod:`repro.pimexec`): they hold the channel for one column access and
move one page of command payload, but never touch the row buffers.

With a :class:`~repro.memsys.bank.RefreshSchedule` attached, every
scheduling decision is gated by :meth:`ChannelController._service_delay`
first: due refresh boundaries precharge their row buffers, and a
selection that would start inside a blackout window stalls until the
window ends (the whole channel under per-rank refresh; only requests
touching the refreshing bank under per-bank refresh).  The gate is pure
arithmetic on the clock the replay loop passes in.

The controller keeps no statistics of its own: it stamps each request's
arrival, service start, finish, and outcome, plus the two facts the
times cannot tell when an admission and a completion share an instant
(the queue occupancy the admission left, and whether the service start
found the channel idle), and :func:`~repro.memsys.system.reduce_stats`
derives every summary from those per-request stamps after the replay;
:func:`~repro.memsys.laws.check_laws` checks them against the timing
laws without calling this code.
"""

from __future__ import annotations

import math
import typing as _t

from .bank import Bank, PER_RANK, RefreshSchedule
from .request import MemRequest, Op

__all__ = ["FCFS", "FRFCFS", "POLICIES", "ChannelController"]

#: Scheduling policy names.
FCFS = "fcfs"
FRFCFS = "frfcfs"
POLICIES = (FCFS, FRFCFS)


class ChannelController:
    """Request queue + scheduler + banks for one channel.

    Parameters
    ----------
    channel_id:
        Index of this channel in the system.
    banks:
        The channel's banks, flattened across bankgroups.
    policy:
        ``"fcfs"`` or ``"frfcfs"``.
    queue_depth:
        Maximum queued requests; the replay loop holds admissions back
        while the queue is full (backpressure).
    refresh:
        Optional :class:`~repro.memsys.bank.RefreshSchedule`; ``None``
        disables refresh modeling.
    """

    def __init__(
        self,
        channel_id: int,
        banks: _t.Sequence[Bank],
        policy: str = FRFCFS,
        queue_depth: int = 16,
        refresh: _t.Optional[RefreshSchedule] = None,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; available: {POLICIES}"
            )
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if not banks:
            raise ValueError("a channel needs at least one bank")
        self.channel_id = channel_id
        self.banks = list(banks)
        self.policy = policy
        self.queue_depth = queue_depth
        if refresh is not None and refresh.n_banks != len(self.banks):
            raise ValueError(
                f"refresh schedule sized for {refresh.n_banks} banks "
                f"but the channel has {len(self.banks)}"
            )
        self.refresh = refresh
        #: Per-bank count of refresh boundaries already applied (row
        #: closures are lazy: folded in before the next selection).
        self._refresh_applied = [0] * len(self.banks)
        #: Serviceable request staged by the per-bank refresh gate for
        #: the selection that immediately follows it.
        self._refresh_candidate: _t.Optional[MemRequest] = None

        #: Per-bank open-row table bookkeeping (FR-FCFS only): queued
        #: single-bank requests per bank, plus the count of queued
        #: requests currently hitting their bank's open row.  When the
        #: count is zero, :meth:`_select` skips the queue scan entirely
        #: — the dominant case on random traffic, where the scan was
        #: the exact replay tier's hot path.
        self._track_hits = policy == FRFCFS
        self._bank_queue: _t.List[_t.List[MemRequest]] = [
            [] for _ in self.banks
        ]
        self._queued_hits = 0

        self.pending: _t.List[MemRequest] = []
        #: No busy period is open: the channel idled since its last
        #: service (or never served), so the next service start opens
        #: one.  Cleared at a service start, set by a completion that
        #: leaves the queue empty.
        self._idle = True

    # ------------------------------------------------------------------
    # queue admission
    # ------------------------------------------------------------------
    def _admit(self, request: MemRequest, now: float) -> None:
        """Timestamp and queue a routed ``request`` at ``now``.

        The request must carry its routing values: ``row`` and the flat
        bank index ``bank_index`` (``None`` for all-bank PIM/AB
        requests), resolved once from the decoded address arrays so the
        FR-FCFS selection scan (the replay hot path) never re-derives
        them.  Stamps the queue occupancy the admission leaves on
        ``request.occupancy``.
        """
        request.arrival = now
        index = request.bank_index
        if self._track_hits and index is not None:
            self._bank_queue[index].append(request)
            hit = self.banks[index].open_row == request.row
            request.queued_hit = hit
            if hit:
                self._queued_hits += 1
        self.pending.append(request)
        request.occupancy = len(self.pending)

    # ------------------------------------------------------------------
    # refresh gate
    # ------------------------------------------------------------------
    def _service_delay(self, now: float) -> float:
        """Refresh gate: apply due row closures, return the stall (ns).

        Called before every scheduling decision.  Crossing a refresh
        boundary precharges the refreshed banks' row buffers.  Under
        *per-rank* refresh a decision inside the blackout window stalls
        the whole channel to the window's end.  Under *per-bank*
        (staggered) refresh the gate is refresh-aware the way real
        controllers are: FR-FCFS masks out requests whose bank is
        mid-refresh and serves the oldest serviceable row hit (else the
        oldest serviceable request), so the channel keeps working around
        the refreshing bank; the channel stalls only when nothing is
        serviceable — FCFS keeps strict order and stalls on a blocked
        head, and the AB barrier still lets nothing younger pass a
        register broadcast.  A serviceable pick is staged for
        :meth:`_select` via ``_refresh_candidate`` so the gate and the
        selection agree.
        """
        refresh = self.refresh
        if refresh is None:
            return 0.0
        applied = self._refresh_applied
        if refresh.granularity == PER_RANK:
            epoch = refresh.epoch(now)
            if epoch > applied[0]:
                for index, bank in enumerate(self.banks):
                    bank.precharge()
                    self._rescan_bank(index)
                for index in range(len(applied)):
                    applied[index] = epoch
            fence = refresh.rank_fence(now)
            return fence - now if fence > now else 0.0
        for index, bank in enumerate(self.banks):
            epoch = refresh.bank_epoch(now, index)
            if epoch >= 1 and epoch > applied[index]:
                bank.precharge()
                applied[index] = epoch
                self._rescan_bank(index)
        frfcfs = self.policy == FRFCFS
        banks = self.banks
        fallback: _t.Optional[MemRequest] = None
        earliest = math.inf
        head = self.pending[0]
        for request in self.pending:
            op = request.op
            if op is Op.AB and request is not head:
                # register-broadcast barrier cuts both ways: nothing
                # younger passes it, and it passes nothing older
                break
            index = request.bank_index
            if index is None:  # all-bank PIM/AB
                fence = refresh.all_bank_fence(now)
            else:
                fence = refresh.bank_fence(now, index)
            if fence <= now:  # serviceable now
                if fallback is None:
                    fallback = request
                if (
                    frfcfs
                    and index is not None
                    and banks[index].open_row == request.row
                ):
                    # oldest serviceable row hit wins outright
                    self._refresh_candidate = request
                    return 0.0
            else:
                earliest = min(earliest, fence)
            if op is Op.AB or not frfcfs:
                # register-broadcast barrier; FCFS never looks past
                # its head
                break
        if fallback is not None:
            self._refresh_candidate = fallback
            return 0.0
        return earliest - now

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _rescan_bank(self, index: int) -> None:
        """Refresh the open-row table entries of one bank's queue.

        Called whenever ``banks[index].open_row`` may have changed (a
        service on that bank, or a refresh precharge), so
        ``_queued_hits`` stays exact and the scan-skip in
        :meth:`_select` never misses a hit.
        """
        if not self._track_hits:
            return
        open_row = self.banks[index].open_row
        delta = 0
        for request in self._bank_queue[index]:
            hit = open_row == request.row
            if hit != request.queued_hit:
                request.queued_hit = hit
                delta += 1 if hit else -1
        self._queued_hits += delta

    def _select(self) -> MemRequest:
        """Pick the next request under the configured policy."""
        candidate = self._refresh_candidate
        if candidate is not None:
            # the per-bank refresh gate already made this decision
            self._refresh_candidate = None
            return candidate
        # the open-row table says no queued request hits: FR-FCFS has
        # nothing to hoist, so the scan below would fall through to the
        # head anyway — skip it (the dominant case on random traffic)
        if self.policy == FRFCFS and self._queued_hits:
            ab = Op.AB
            banks = self.banks
            for request in self.pending:  # oldest row hit first
                if request.op is ab:
                    # register broadcasts change PIM execution state:
                    # never reorder a younger row hit across one
                    break
                index = request.bank_index
                if index is None:  # all-bank PIM
                    continue
                # inlined Bank.is_hit: this scan is the replay hot path
                if banks[index].open_row == request.row:
                    return request
        return self.pending[0]

    # ------------------------------------------------------------------
    # service
    # ------------------------------------------------------------------
    def _serve(self, request: MemRequest) -> float:
        """Drive the bank state machine(s); returns the access latency."""
        page_bits = self.banks[0].timing.page_bits
        op = request.op
        if op is Op.AB:
            # All-bank register broadcast: one column access on the
            # command/data bus, no row-buffer interaction in any bank.
            request.outcome = "broadcast"
            request.bits = page_bits
            return self.banks[0].timing.page_access_ns
        row = request.row
        if op is Op.PIM:
            # All-bank broadcast: every bank accesses the row in
            # lockstep; the channel is held for the slowest bank.
            latency = 0.0
            worst = "hit"
            for bank in self.banks:
                access = bank.access(row)
                if access.latency_ns > latency:
                    latency = access.latency_ns
                    worst = access.outcome
            request.outcome = worst
            request.bits = page_bits * len(self.banks)
            return latency
        access = self.banks[request.bank_index].access(row)
        request.outcome = access.outcome
        request.bits = page_bits
        return access.latency_ns

    def _begin_service(self, now: float) -> _t.Tuple[MemRequest, float]:
        """Dequeue the next request at ``now`` and drive its banks.

        The service-start sequence: policy selection, dequeue, the
        busy-period mark (``request.opens_busy``), and the bank
        state-machine access.  Returns ``(request, latency_ns)``; the
        caller owns the passage of time.
        """
        request = self._select()
        self.pending.remove(request)
        request.start_service = now
        request.opens_busy = self._idle
        self._idle = False
        if not self._track_hits:
            return request, self._serve(request)
        index = request.bank_index
        if index is not None:
            queue = self._bank_queue[index]
            for position, queued in enumerate(queue):
                if queued is request:  # identity: eq is field-wise
                    del queue[position]
                    break
            if request.queued_hit:
                self._queued_hits -= 1
        latency = self._serve(request)
        # the service may have moved open rows: refresh the table
        if index is not None:
            self._rescan_bank(index)
        elif request.op is Op.PIM:
            for bank in range(len(self.banks)):
                self._rescan_bank(bank)
        # AB broadcasts never touch row buffers: nothing to rescan
        return request, latency

    def __repr__(self) -> str:
        return (
            f"<ChannelController ch{self.channel_id} {self.policy} "
            f"banks={len(self.banks)} pending={len(self.pending)}>"
        )
