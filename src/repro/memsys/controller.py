"""Per-channel memory controllers as desim processes.

Each channel owns a request queue and a set of banks.  The controller
process repeatedly picks a queued request under its scheduling policy,
drives the target bank's row-buffer state machine, holds the channel for
the access latency, and completes the request:

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
arithmetic on the clock, shared verbatim with the exact fast-path tier
so both engines stall at bit-identical instants.

Statistics flow through :mod:`repro.desim.stats`: a :class:`Tally` of
request latencies, a :class:`TimeWeighted` queue length, a
:class:`StateTimer` for busy/idle utilization, and :class:`Counter`\\ s
of completed requests and delivered bits.
"""

from __future__ import annotations

import math
import typing as _t

from ..desim import Counter, StateTimer, Tally, TimeWeighted
from ..desim.events import Event
from .bank import Bank, PER_RANK, RefreshSchedule
from .request import MemRequest, Op

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..desim.core import Simulator

__all__ = ["FCFS", "FRFCFS", "POLICIES", "ChannelController"]

#: Scheduling policy names.
FCFS = "fcfs"
FRFCFS = "frfcfs"
POLICIES = (FCFS, FRFCFS)


class ChannelController:
    """Request queue + scheduler + banks for one channel.

    Parameters
    ----------
    sim:
        The simulator whose clock (ns) the controller runs on.
    channel_id:
        Index of this channel in the system.
    banks:
        The channel's banks, flattened across bankgroups.
    policy:
        ``"fcfs"`` or ``"frfcfs"``.
    queue_depth:
        Maximum queued requests; injectors wait on
        :meth:`space_event` when the queue is full (backpressure).
    banks_per_group:
        Banks per bankgroup, for flattening decoded coordinates into
        the ``banks`` list; defaults to ``len(banks)`` (one group).
    refresh:
        Optional :class:`~repro.memsys.bank.RefreshSchedule`; ``None``
        disables refresh modeling.
    """

    def __init__(
        self,
        sim: "Simulator",
        channel_id: int,
        banks: _t.Sequence[Bank],
        policy: str = FRFCFS,
        queue_depth: int = 16,
        banks_per_group: _t.Optional[int] = None,
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
        self.sim = sim
        self.channel_id = channel_id
        self.banks = list(banks)
        self.policy = policy
        self.queue_depth = queue_depth
        self.banks_per_group = (
            len(self.banks) if banks_per_group is None else banks_per_group
        )
        if not 1 <= self.banks_per_group <= len(self.banks):
            raise ValueError(
                f"banks_per_group={self.banks_per_group} must be in "
                f"[1, {len(self.banks)}]"
            )

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
        self._wakeup: _t.Optional[Event] = None
        self._space_waiters: _t.List[Event] = []

        name = f"ch{channel_id}"
        self.latency = Tally(f"{name}.latency")
        self.queue_len = TimeWeighted(f"{name}.queue", 0.0, sim.now)
        self.utilization = StateTimer("idle", sim.now, f"{name}.state")
        self.completed = Counter(f"{name}.requests", sim.now)
        self.bits_delivered = Counter(f"{name}.bits", sim.now)

        self.process = sim.process(self._run(), name=f"memctrl.{name}")

    # ------------------------------------------------------------------
    # queue admission
    # ------------------------------------------------------------------
    @property
    def has_space(self) -> bool:
        return len(self.pending) < self.queue_depth

    def space_event(self) -> Event:
        """Event that succeeds the next time a queue slot frees up."""
        event = self.sim.event()
        self._space_waiters.append(event)
        return event

    def _route(self, request: MemRequest) -> None:
        """Set the routing values the scheduler reads from ``coords``.

        ``request.row`` and the flat bank index (``None`` for all-bank
        PIM/AB requests), resolved once so the FR-FCFS selection scan
        (the replay hot path) does not re-derive them per candidate per
        selection.  The fast path's exact tier builds its records with
        the same two values straight from the decoded address arrays.
        """
        coords = request.coords
        request.row = coords.row
        op = request.op
        request.bank_index = (
            None if op is Op.PIM or op is Op.AB else self._bank_index(coords)
        )

    def _admit(self, request: MemRequest, now: float) -> None:
        """Timestamp and queue a routed ``request`` at ``now``.

        The admission bookkeeping shared by the event engine (via
        :meth:`enqueue`) and the fast-path replay engine (which drives
        the controller with an incremental ready-time scan instead of a
        simulator clock).  The request must carry its routing values
        (``row``, ``bank_index``; see :meth:`_route`).
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
        self.queue_len.update(len(self.pending), now)

    def enqueue(self, request: MemRequest) -> Event:
        """Admit ``request``; returns its completion event.

        Raises
        ------
        OverflowError
            If the queue is full — callers must respect
            :attr:`has_space` / :meth:`space_event`.
        """
        if not self.has_space:
            raise OverflowError(
                f"channel {self.channel_id} queue full "
                f"(depth {self.queue_depth})"
            )
        request.done = self.sim.event()
        self._route(request)
        self._admit(request, self.sim.now)
        self.sim.trace(
            "memsys.enqueue", channel=self.channel_id, addr=request.addr,
            op=request.op.value,
        )
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()
        return request.done

    # ------------------------------------------------------------------
    # refresh gate
    # ------------------------------------------------------------------
    def _service_delay(self, now: float) -> float:
        """Refresh gate: apply due row closures, return the stall (ns).

        Called before every scheduling decision, by the event engine and
        the exact fast-path tier alike (same floats in, same floats
        out).  Crossing a refresh boundary precharges the refreshed
        banks' row buffers.  Under *per-rank* refresh a decision inside
        the blackout window stalls the whole channel to the window's
        end.  Under *per-bank* (staggered) refresh the gate is
        refresh-aware the way real controllers are: FR-FCFS masks out
        requests whose bank is mid-refresh and serves the oldest
        serviceable row hit (else the oldest serviceable request), so
        the channel keeps working around the refreshing bank; the
        channel stalls only when nothing is serviceable — FCFS keeps
        strict order and stalls on a blocked head, and the AB barrier
        still lets nothing younger pass a register broadcast.  A
        serviceable pick is staged for :meth:`_select` via
        ``_refresh_candidate`` so the gate and the selection agree.
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

    def _bank_index(self, coords) -> int:
        return coords.flat_bank(self.banks_per_group) % len(self.banks)

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

        The service-start sequence shared by both engines: busy
        transition, policy selection, queue-length update, and the bank
        state-machine access.  Returns ``(request, latency_ns)``; the
        caller owns the passage of time (a desim timeout for the event
        engine, ready-time arithmetic for the fast path).
        """
        self.utilization.transition("busy", now)
        request = self._select()
        self.pending.remove(request)
        self.queue_len.update(len(self.pending), now)
        request.start_service = now
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

    def _finish_service(self, request: MemRequest, now: float) -> None:
        """Record the completion of ``request`` at ``now``."""
        request.finish = now
        self.latency.record(now - request.arrival)
        self.completed.increment()
        self.bits_delivered.increment(request.bits)

    def _run(self):
        """Controller main loop (a desim process)."""
        sim = self.sim
        while True:
            if not self.pending:
                self.utilization.transition("idle", sim.now)
                self._wakeup = sim.event()
                yield self._wakeup
                self._wakeup = None
            delay = self._service_delay(sim.now)
            if delay > 0.0:
                # refresh blackout: stall, then re-evaluate (the queue
                # may have grown and row buffers were precharged)
                yield sim.timeout(delay)
                continue
            request, latency = self._begin_service(sim.now)
            waiters, self._space_waiters = self._space_waiters, []
            for waiter in waiters:
                if not waiter.triggered:
                    waiter.succeed()
            yield sim.timeout(latency)
            self._finish_service(request, sim.now)
            sim.trace(
                "memsys.complete", channel=self.channel_id,
                addr=request.addr, outcome=request.outcome,
                latency=request.latency,
            )
            done = request.done
            assert done is not None
            done.succeed(request)

    # ------------------------------------------------------------------
    # collector state export/load (the replay farm's merge hooks)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Exact post-replay collector + bank state of this channel.

        Captures the raw internals of every statistics collector and
        every bank's row-buffer state machine, so a shard worker can
        ship its channel's evolution across a process boundary and the
        farm supervisor can :meth:`load_state` it into a fresh
        controller — after which every stats reduction
        (:meth:`~repro.memsys.MemorySystem.gather_stats`,
        :meth:`metrics`) computes **bit-identical** floats, because the
        same reduction code runs on identical collector states.

        Only valid between replays (an empty queue); the transient
        scheduling structures (pending queue, open-row table) are
        deliberately not part of the contract.
        """
        if self.pending:
            raise RuntimeError(
                f"channel {self.channel_id} still has "
                f"{len(self.pending)} pending request(s); export_state "
                "is a post-replay hook"
            )
        return {
            "channel_id": self.channel_id,
            "latency": self.latency.state_dict(),
            "queue_len": self.queue_len.state_dict(),
            "utilization": self.utilization.state_dict(),
            "completed": self.completed.state_dict(),
            "bits_delivered": self.bits_delivered.state_dict(),
            "refresh_applied": list(self._refresh_applied),
            "banks": [bank.export_state() for bank in self.banks],
        }

    def load_state(self, state: _t.Mapping[str, _t.Any]) -> None:
        """Restore the exact state captured by :meth:`export_state`."""
        banks = state["banks"]
        if len(banks) != len(self.banks):
            raise ValueError(
                f"state carries {len(banks)} banks but channel "
                f"{self.channel_id} has {len(self.banks)}"
            )
        self.latency.load_state(state["latency"])
        self.queue_len.load_state(state["queue_len"])
        self.utilization.load_state(state["utilization"])
        self.completed.load_state(state["completed"])
        self.bits_delivered.load_state(state["bits_delivered"])
        self._refresh_applied = [
            int(epoch) for epoch in state["refresh_applied"]
        ]
        for bank, bank_state in zip(self.banks, banks):
            bank.load_state(bank_state)

    # ------------------------------------------------------------------
    @property
    def row_hit_rate(self) -> float:
        """Aggregate row-hit rate over the channel's banks."""
        hits = sum(b.hits for b in self.banks)
        total = sum(b.accesses for b in self.banks)
        return hits / total if total else float("nan")

    def metrics(self, now: float) -> _t.Dict[str, float]:
        """Collector snapshot for the telemetry registry.

        Exposes the per-channel extremes the flat
        :class:`~repro.memsys.system.MemSysStats` summary reduces away
        — latency min/max, peak queue occupancy, busy fraction — so a
        metrics export preserves them.  Both replay engines leave the
        underlying collectors in the same state, so the snapshot is
        engine-independent.
        """
        return {
            "requests": float(self.completed.count),
            "bits_delivered": float(self.bits_delivered.count),
            "latency_min_ns": self.latency.minimum,
            "latency_max_ns": self.latency.maximum,
            "queue_mean": self.queue_len.time_average(now),
            "queue_max": self.queue_len.maximum,
            "busy_fraction": self.utilization.fraction("busy", now),
            "row_hit_rate": self.row_hit_rate,
        }

    def __repr__(self) -> str:
        return (
            f"<ChannelController ch{self.channel_id} {self.policy} "
            f"banks={len(self.banks)} pending={len(self.pending)}>"
        )
