"""The desim event calendar as a tests-only replay reference.

:func:`replay_event` replays a trace on a :class:`~repro.desim.Simulator`
through the oracle's own per-channel controllers
(:class:`tests.memsys.controller.ChannelController`, one per channel,
driving the system's banks): one injector process admits requests in
trace order (held to their timestamps, blocked on full queues), and
one process per channel runs the gated service loop.  The replay
path's exact tier is a separate flat loop that shares no scheduling
code with these controllers — only the bank state machine, the latency
table and the refresh-schedule arithmetic — so the two replays
agreeing bit for bit checks one implementation against another; the
timing laws of :mod:`repro.memsys.laws` check both without either.
:func:`event_replays` routes callers that build their own traces
(``PimExecMachine.replay``, ``LoweredKernel.run``) through the oracle.
"""

from __future__ import annotations

import contextlib
import math
import typing as _t
from unittest import mock

import numpy as np

from repro.desim import Simulator
from repro.memsys import MemorySystem, MemRequest, Op, PackedTrace
from repro.memsys.system import _finish_replay
from repro.telemetry import ALL_BANKS, OUTCOME_NAMES
from repro.telemetry.profile import null_phase

from .controller import ChannelController, ReplayRecord

__all__ = ["event_replays", "oracle_controllers", "replay_event"]

_OUTCOME_CODE = {name: code for code, name in enumerate(OUTCOME_NAMES)}


class _Record(ReplayRecord):
    """A controller record that also knows its trace address and
    channel (the calendar's routing and trace records need both)."""

    __slots__ = ("addr", "channel")


class _Channel:
    """The calendar side of one controller: wakeup and queue-slot
    events around the shared service-loop methods."""

    def __init__(self, sim: Simulator, controller) -> None:
        self.sim = sim
        self.controller = controller
        self.wakeup = None
        self.space_waiters: _t.List[_t.Any] = []

    def space_event(self):
        """Event that succeeds the next time a queue slot frees up."""
        event = self.sim.event()
        self.space_waiters.append(event)
        return event

    def enqueue(self, record: _Record) -> None:
        controller = self.controller
        controller._admit(record, self.sim.now)
        self.sim.trace(
            "memsys.enqueue", channel=controller.channel_id,
            addr=record.addr, op=record.op.value,
        )
        if self.wakeup is not None and not self.wakeup.triggered:
            self.wakeup.succeed()

    def run(self):
        sim, controller = self.sim, self.controller
        while True:
            if not controller.pending:
                self.wakeup = sim.event()
                yield self.wakeup
                self.wakeup = None
            delay = controller._service_delay(sim.now)
            if delay > 0.0:
                # refresh blackout: stall, then re-evaluate
                yield sim.timeout(delay)
                continue
            record, latency = controller._begin_service(sim.now)
            waiters, self.space_waiters = self.space_waiters, []
            for waiter in waiters:
                if not waiter.triggered:
                    waiter.succeed()
            yield sim.timeout(latency)
            record.finish = sim.now
            sim.trace(
                "memsys.complete", channel=controller.channel_id,
                addr=record.addr, outcome=record.outcome,
                latency=record.finish - record.arrival,
            )


def _route(system: MemorySystem, request: MemRequest) -> _Record:
    """Decode ``request`` one address at a time into the record the
    controllers read: its row, and the flat bank index (``None`` for
    all-bank PIM/AB)."""
    coords = system.addr_map.decode(request.addr)
    config = system.config
    all_bank = request.op is Op.PIM or request.op is Op.AB
    record = _Record(
        request.op,
        request.timestamp,
        coords.row,
        None
        if all_bank
        else coords.flat_bank(config.banks_per_group)
        % config.banks_per_channel,
    )
    record.addr = request.addr
    record.channel = coords.channel
    return record


def _injector(sim, system, channels, records):
    for record in records:
        when = record.timestamp
        if when is not None and when > sim.now:
            # sim.at fires at exactly `when`: arrivals keep the trace's
            # timestamps bit for bit
            yield sim.at(when)
        channel = channels[record.channel]
        while len(channel.controller.pending) >= system.config.queue_depth:
            yield channel.space_event()
        channel.enqueue(record)


def _record_arrays(
    records: _t.Sequence[_Record],
) -> _t.Dict[str, np.ndarray]:
    """The trace-ordered recorder arrays of replayed records."""
    n = len(records)

    def column(values: _t.Iterable, dtype: type = np.int64) -> np.ndarray:
        return np.fromiter(values, dtype=dtype, count=n)

    arrays = dict(
        arrival=column((r.arrival for r in records), np.float64),
        start_service=column((r.start_service for r in records), np.float64),
        finish=column((r.finish for r in records), np.float64),
        outcome=column(_OUTCOME_CODE[r.outcome] for r in records),
        channel=column(r.channel for r in records),
        bank=column(
            ALL_BANKS if r.bank_index is None else r.bank_index
            for r in records
        ),
        row=column(r.row for r in records),
        op=column(r.op.code for r in records),
    )
    return arrays


def oracle_controllers(system: MemorySystem) -> _t.List[ChannelController]:
    """One oracle controller per channel of ``system``, over its banks."""
    config = system.config
    return [
        ChannelController(
            channel,
            banks,
            policy=config.policy,
            queue_depth=config.queue_depth,
            refresh=config.refresh_schedule(),
        )
        for channel, banks in enumerate(system.banks)
    ]


def replay_event(
    system: MemorySystem,
    trace: _t.Union[_t.Iterable[MemRequest], PackedTrace],
    telemetry=None,
    tracer=None,
    controllers: _t.Optional[_t.List[ChannelController]] = None,
):
    """Replay ``trace`` on the desim calendar through ``system``.

    Returns the :class:`~repro.memsys.MemSysStats`, with ``telemetry``
    (if given) holding the recorder arrays under engine ``"event"``,
    like :meth:`MemorySystem.replay` does for its own tiers.  A
    ``tracer`` receives one ``memsys.enqueue`` and one
    ``memsys.complete`` record per request, in calendar order.  Like
    the replay path, the oracle never writes to ``trace``.  Pass
    ``controllers`` (:func:`oracle_controllers` of ``system``) to
    inspect their state after the replay.
    """
    profiler = telemetry.profiler if telemetry is not None else None
    phase = profiler.phase if profiler is not None else null_phase
    if not isinstance(trace, PackedTrace):
        trace = PackedTrace.from_requests(trace)
    if len(trace) == 0:
        raise ValueError("cannot replay an empty request stream")
    if system._replayed:
        raise RuntimeError("build a fresh MemorySystem per trace")
    system._replayed = True
    with phase("decode"):
        records = [_route(system, request) for request in trace]
    sim = Simulator(tracer=tracer)
    if controllers is None:
        controllers = oracle_controllers(system)
    channels = [_Channel(sim, c) for c in controllers]
    for channel in channels:
        name = f"memctrl.ch{channel.controller.channel_id}"
        sim.process(channel.run(), name=name)
    sim.process(
        _injector(sim, system, channels, records), name="memsys.injector"
    )
    with phase("tier-execute"):
        sim.run()
        assert not any(math.isnan(r.finish) for r in records)
        arrays = _record_arrays(records)
    system.last_replay_engine = "event"
    return _finish_replay(
        system.config, "event", arrays, system.row_counts(), telemetry
    )


@contextlib.contextmanager
def event_replays() -> _t.Iterator[None]:
    """Run every :meth:`MemorySystem.replay` inside the block on
    :func:`replay_event`."""

    def replay(system, requests, engine="auto", telemetry=None):
        return replay_event(system, requests, telemetry)

    with mock.patch.object(MemorySystem, "replay", replay):
        yield
