"""The desim event calendar as a tests-only replay reference.

:func:`replay_event` replays a trace through a :class:`MemorySystem`'s
controllers on a :class:`~repro.desim.Simulator`: one injector process
admits requests in trace order (held to their timestamps, blocked on
full queues), and one process per channel runs the gated service loop.
Both drive the same controller methods the fast path's exact tier
drives (``_admit``, ``_service_delay``, ``_begin_service``), so the two
replays must agree bit for bit; the timing laws of
:mod:`repro.memsys.laws` check both independently of that shared code.
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
from repro.memsys.system import _finish_replay, _gather
from repro.telemetry import ALL_BANKS
from repro.telemetry.profile import null_phase

__all__ = ["event_replays", "replay_event"]


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

    def enqueue(self, request: MemRequest) -> None:
        controller = self.controller
        controller._admit(request, self.sim.now)
        self.sim.trace(
            "memsys.enqueue", channel=controller.channel_id,
            addr=request.addr, op=request.op.value,
        )
        if self.wakeup is not None and not self.wakeup.triggered:
            self.wakeup.succeed()

    def run(self):
        sim, controller = self.sim, self.controller
        while True:
            if not controller.pending:
                controller._idle = True
                self.wakeup = sim.event()
                yield self.wakeup
                self.wakeup = None
            delay = controller._service_delay(sim.now)
            if delay > 0.0:
                # refresh blackout: stall, then re-evaluate
                yield sim.timeout(delay)
                continue
            request, latency = controller._begin_service(sim.now)
            waiters, self.space_waiters = self.space_waiters, []
            for waiter in waiters:
                if not waiter.triggered:
                    waiter.succeed()
            yield sim.timeout(latency)
            request.finish = sim.now
            sim.trace(
                "memsys.complete", channel=controller.channel_id,
                addr=request.addr, outcome=request.outcome,
                latency=request.latency,
            )


def _route(system: MemorySystem, request: MemRequest) -> int:
    """Decode ``request``; set the routing values the controller reads
    (``row``, and the flat bank index, ``None`` for all-bank PIM/AB);
    return its channel."""
    coords = request.coords = system.addr_map.decode(request.addr)
    request.row = coords.row
    config = system.config
    request.bank_index = (
        None
        if request.op is Op.PIM or request.op is Op.AB
        else coords.flat_bank(config.banks_per_group)
        % config.banks_per_channel
    )
    return coords.channel


def _injector(sim, system, channels, requests):
    for request in requests:
        when = request.timestamp
        if when is not None and when > sim.now:
            # sim.at fires at exactly `when`: arrivals keep the trace's
            # timestamps bit for bit
            yield sim.at(when)
        channel = channels[_route(system, request)]
        while len(channel.controller.pending) >= system.config.queue_depth:
            yield channel.space_event()
        channel.enqueue(request)


def _request_arrays(
    requests: _t.Sequence[MemRequest],
) -> _t.Dict[str, np.ndarray]:
    """The trace-ordered recorder arrays of replayed request objects."""
    n = len(requests)

    def column(values: _t.Iterable) -> np.ndarray:
        return np.fromiter(values, dtype=np.int64, count=n)

    arrays = _gather(requests)
    arrays.update(
        channel=column(r.coords.channel for r in requests),
        bank=column(
            ALL_BANKS if r.bank_index is None else r.bank_index
            for r in requests
        ),
        row=column(r.row for r in requests),
        op=column(r.op.code for r in requests),
    )
    return arrays


def replay_event(
    system: MemorySystem,
    trace: _t.Union[_t.Sequence[MemRequest], PackedTrace],
    telemetry=None,
    tracer=None,
):
    """Replay ``trace`` on the desim calendar through ``system``.

    Returns the :class:`~repro.memsys.MemSysStats`, with ``telemetry``
    (if given) holding the recorder arrays under engine ``"event"``,
    like :meth:`MemorySystem.replay` does for its own tiers.  A
    ``tracer`` receives one ``memsys.enqueue`` and one
    ``memsys.complete`` record per request, in calendar order.
    """
    profiler = telemetry.profiler if telemetry is not None else None
    phase = profiler.phase if profiler is not None else null_phase
    if isinstance(trace, PackedTrace):
        with phase("decode"):
            requests = trace.to_requests()
    else:
        requests = list(trace)
        system._validate_timestamps(requests)
    if not requests:
        raise ValueError("cannot replay an empty request stream")
    if system._replayed:
        raise RuntimeError("build a fresh MemorySystem per trace")
    system._replayed = True
    sim = Simulator(tracer=tracer)
    channels = [_Channel(sim, c) for c in system.controllers]
    for channel in channels:
        name = f"memctrl.ch{channel.controller.channel_id}"
        sim.process(channel.run(), name=name)
    sim.process(
        _injector(sim, system, channels, requests), name="memsys.injector"
    )
    with phase("tier-execute"):
        sim.run()
        assert not any(math.isnan(r.finish) for r in requests)
        arrays = _request_arrays(requests)
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
