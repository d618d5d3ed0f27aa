"""``reduce_stats`` against naive references.

The per-channel reference walks each channel's services one by one and
applies the definitions directly — a busy period opens at a service
start the engine marked as finding the channel idle and runs to the
completion just before the next such start — so it shares no code with
the vectorized reduction.  It also checks each mark against the times
wherever they decide it (a later-served request admitted strictly before
a completion keeps the period open; none admitted by then closes it).
Hand-built arrays pin the corner cases; real replays check the marks
where the scheduler reorders and stalls, and where admissions coincide
with completions, against the calendar's own record order.
"""

import math

import numpy as np
import pytest

from repro.desim.trace import Tracer
from repro.memsys import (
    MemRequest,
    MemSysConfig,
    MemorySystem,
    Op,
    synthesize_trace,
)
from repro.memsys.bank import latency_table
from repro.memsys.system import reduce_stats
from repro.telemetry import ALL_BANKS, ReplayTelemetry
from repro.telemetry.latency import channel_gauges

from .event_oracle import replay_event
from .test_fastpath import assert_laws_hold, replay_exact_tier

CONFIG = MemSysConfig(n_channels=2, bankgroups=2, banks_per_group=2)
PAGE_BITS = CONFIG.timing.page_bits
MISS, HIT = 1, 0


def reference(config, arrays, row_counts):
    """The summary fields, one request at a time."""
    n = len(arrays["finish"])
    makespan = max(arrays["finish"], default=0.0)
    queue_sum = busy_sum = latency_sum = 0.0
    total_bits = 0
    per_channel = []
    for ch in range(config.n_channels):
        mine = [i for i in range(n) if arrays["channel"][i] == ch]
        by_start = sorted(mine, key=lambda i: arrays["start_service"][i])
        busy = 0.0
        opened = None
        for k, i in enumerate(by_start):
            if arrays["opens_busy"][i]:
                if opened is not None:
                    busy += arrays["finish"][by_start[k - 1]] - opened
                opened = arrays["start_service"][i]
            if k:
                check_mark(arrays, by_start[k - 1], by_start[k:])
            else:
                assert arrays["opens_busy"][i]
        if opened is not None:
            busy += arrays["finish"][by_start[-1]] - opened
        latency = sum(
            arrays["finish"][i] - arrays["arrival"][i] for i in mine
        )
        wait = sum(
            arrays["start_service"][i] - arrays["arrival"][i] for i in mine
        )
        bits = sum(
            PAGE_BITS * config.banks_per_channel
            if arrays["op"][i] == Op.PIM.code
            else PAGE_BITS
            for i in mine
        )
        hits = sum(int(counts[0]) for counts in row_counts[ch])
        accesses = sum(int(sum(counts)) for counts in row_counts[ch])
        per_channel.append(
            {
                "channel": ch,
                "requests": len(mine),
                "row_hit_rate": hits / accesses if accesses else math.nan,
                "mean_latency_ns": latency / len(mine) if mine else math.nan,
                "gbit_delivered": bits / 1e9,
                "busy_ns": busy,
            }
        )
        latency_sum += latency
        queue_sum += wait / makespan
        busy_sum += busy / makespan
        total_bits += bits
    return {
        "n_requests": n,
        "total_bits": total_bits,
        "makespan_ns": makespan,
        "mean_queue_latency_ns": latency_sum / n,
        "mean_queue_length": queue_sum / config.n_channels,
        "channel_utilization": busy_sum / config.n_channels,
        "per_channel": per_channel,
    }


def check_mark(arrays, previous, rest):
    """The idle mark of ``rest[0]``'s service start agrees with the
    times wherever they decide it: the completion of ``previous`` left
    work queued if a later-served request arrived strictly before it,
    and left the queue empty if none arrived by then.  A tie is the
    calendar's call."""
    finish = arrays["finish"][previous]
    arrivals = [arrays["arrival"][j] for j in rest]
    if any(a < finish for a in arrivals):
        assert not arrays["opens_busy"][rest[0]]
    elif all(a > finish for a in arrivals):
        assert arrays["opens_busy"][rest[0]]


def build(requests, row_counts=None):
    """Arrays from ``(channel, op, arrival, start, finish, opens_busy)``
    rows."""
    columns = list(zip(*requests))
    channel, op, arrival, start, finish, opens_busy = columns
    n = len(requests)
    arrays = {
        "arrival": np.array(arrival, dtype=np.float64),
        "start_service": np.array(start, dtype=np.float64),
        "finish": np.array(finish, dtype=np.float64),
        "opens_busy": np.array(opens_busy, dtype=np.bool_),
        "outcome": np.full(n, MISS, dtype=np.int64),
        "channel": np.array(channel, dtype=np.int64),
        "bank": np.array(
            [ALL_BANKS if o == Op.PIM.code else 0 for o in op],
            dtype=np.int64,
        ),
        "row": np.zeros(n, dtype=np.int64),
        "op": np.array(op, dtype=np.int64),
    }
    if row_counts is None:
        row_counts = np.zeros(
            (CONFIG.n_channels, CONFIG.banks_per_channel, 3), dtype=np.int64
        )
        row_counts[:, 0, MISS] = np.bincount(
            arrays["channel"], minlength=CONFIG.n_channels
        )
    return arrays, row_counts


def assert_matches_reference(arrays, row_counts, config=CONFIG):
    stats = reduce_stats(config, arrays, row_counts)
    ref = reference(
        config, {k: v.tolist() for k, v in arrays.items()}, row_counts
    )
    for name in (
        "n_requests",
        "total_bits",
        "makespan_ns",
        "mean_queue_latency_ns",
        "mean_queue_length",
        "channel_utilization",
    ):
        assert getattr(stats, name) == pytest.approx(
            ref[name], rel=1e-12, nan_ok=True
        ), name
    for row, expected in zip(stats.per_channel, ref["per_channel"]):
        expected = {k: v for k, v in expected.items() if k != "busy_ns"}
        assert row == pytest.approx(expected, rel=1e-12, nan_ok=True)
    return stats, ref


READ = Op.READ.code


class TestBusyPeriods:
    def test_refresh_stall_with_work_queued_counts_busy(self):
        # the second request is queued when the first completes at 10;
        # a refresh blackout holds its service until 20
        arrays, counts = build(
            [
                (0, READ, 0, 0, 10, True),
                (0, READ, 5, 20, 30, False),
                (1, READ, 0, 0, 30, True),
            ]
        )
        stats, ref = assert_matches_reference(arrays, counts)
        assert ref["per_channel"][0]["busy_ns"] == 30.0
        assert stats.channel_utilization == 1.0

    def test_refresh_stall_after_idle_wakeup_counts_idle(self):
        # the channel idles from 10; the request arriving at 15 waits
        # out a blackout until 25 — idle time, not busy time
        arrays, counts = build(
            [
                (0, READ, 0, 0, 10, True),
                (0, READ, 15, 25, 35, True),
                (1, READ, 0, 0, 35, True),
            ]
        )
        stats, ref = assert_matches_reference(arrays, counts)
        assert ref["per_channel"][0]["busy_ns"] == 20.0
        assert stats.channel_utilization == (20 / 35 + 1.0) / 2

    @pytest.mark.parametrize(
        "admitted_first, busy", ((True, 25.0), (False, 20.0))
    )
    def test_completion_coincident_with_admission(self, admitted_first, busy):
        # the second request arrives exactly when the first completes,
        # then waits out a blackout until 15: an admission the calendar
        # ran first keeps the period open through the stall, one it
        # ran after the completion finds the channel idle
        arrays, counts = build(
            [
                (0, READ, 0, 0, 10, True),
                (0, READ, 10, 15, 25, not admitted_first),
                (1, READ, 0, 0, 25, True),
            ]
        )
        stats, ref = assert_matches_reference(arrays, counts)
        assert ref["per_channel"][0]["busy_ns"] == busy
        assert stats.channel_utilization == (busy / 25 + 1.0) / 2
        assert stats.mean_queue_length == 5 / 25 / 2

    def test_coincidence_without_stall_is_order_free(self):
        for opens in (True, False):
            arrays, counts = build(
                [
                    (0, READ, 0, 0, 10, True),
                    (0, READ, 10, 10, 20, opens),
                    (1, READ, 0, 0, 20, True),
                ]
            )
            stats, ref = assert_matches_reference(arrays, counts)
            assert ref["per_channel"][0]["busy_ns"] == 20.0
            assert stats.channel_utilization == 1.0
            assert stats.mean_queue_length == 0.0

    def test_reordered_service_keeps_the_period_open(self):
        # FR-FCFS hoists the third request (a row hit) over the second;
        # the second still waits, so the channel never idles
        arrays, counts = build(
            [
                (0, READ, 0, 0, 10, True),
                (0, READ, 1, 20, 30, False),
                (0, READ, 2, 10, 20, False),
            ]
        )
        stats, ref = assert_matches_reference(arrays, counts)
        assert ref["per_channel"][0]["busy_ns"] == 30.0
        assert stats.per_channel[0]["mean_latency_ns"] == (10 + 29 + 18) / 3


class TestChannelsAndCounters:
    def test_empty_channel(self):
        arrays, counts = build(
            [(0, READ, 0, 0, 10, True), (0, READ, 0, 10, 20, False)]
        )
        stats, _ = assert_matches_reference(arrays, counts)
        idle = stats.per_channel[1]
        assert idle["requests"] == 0
        assert math.isnan(idle["mean_latency_ns"])
        assert math.isnan(idle["row_hit_rate"])
        assert idle["gbit_delivered"] == 0.0
        # the idle channel halves the averages
        assert stats.channel_utilization == 0.5
        assert stats.mean_queue_length == 10 / 20 / 2

    def test_mixed_host_and_pim_channel_uses_bank_counters(self):
        # a host read opens row 5 in bank 0 (miss); the all-bank PIM
        # access of row 5 then hits bank 0 and misses banks 1-3, so
        # its recorded (worst) outcome is a miss while the banks count
        # one hit and four misses
        arrays, _ = build(
            [
                (0, READ, 0, 0, 10, True),
                (0, Op.PIM.code, 0, 10, 20, False),
            ]
        )
        counts = np.zeros((2, CONFIG.banks_per_channel, 3), dtype=np.int64)
        counts[0, 0] = (1, 1, 0)
        counts[0, 1:, MISS] = 1
        stats, _ = assert_matches_reference(arrays, counts)
        assert (stats.row_hits, stats.row_misses) == (1, 4)
        assert stats.row_hit_rate == 1 / 5
        assert stats.per_channel[0]["row_hit_rate"] == 1 / 5
        assert stats.total_bits == PAGE_BITS * (1 + CONFIG.banks_per_channel)


@pytest.mark.parametrize("engine", ("event", "fast"))
def test_reordering_replay_matches_reference(engine):
    """FR-FCFS on random traffic with per-bank refresh: services are
    reordered and stalled, and every channel shares its bank counters
    with the recorded outcomes."""
    config = MemSysConfig(
        n_channels=2,
        scheme="channel-interleaved",
        trefi_ns=500.0,
        trfc_ns=60.0,
        refresh_granularity="per-bank",
    )
    trace = synthesize_trace("random", 400, config, seed=3)
    telemetry = ReplayTelemetry(profile=False)
    system = MemorySystem(config)
    replay = replay_event if engine == "event" else MemorySystem.replay
    stats = replay(system, trace, telemetry=telemetry)
    assert_laws_hold(config, telemetry)
    recorder = telemetry.recorder
    arrays = {key: value for key, value in recorder._assemble().items()}
    order_differs = any(
        np.any(np.diff(recorder.start_service[recorder.rows(ch)]) < 0)
        for ch in range(config.n_channels)
    )
    assert order_differs
    again, _ = assert_matches_reference(arrays, system.row_counts(), config)
    assert repr(again) == repr(stats)


def calendar_busy_ns(records, requests, recorder):
    """Busy time per channel from the event calendar's own record order:
    a completion that leaves nothing admitted and unfinished idles its
    channel, and the next completion on that channel belongs to the
    service that reopened it.  Each request's times are read off the
    ``recorder`` arrays, by its (unique) address."""
    position = {request.addr: i for i, request in enumerate(requests)}
    outstanding = {}
    opened = {}
    busy = {}
    for record in records:
        ch = record.fields["channel"]
        if record.kind == "memsys.enqueue":
            outstanding[ch] = outstanding.get(ch, 0) + 1
            continue
        i = position[record.fields["addr"]]
        opened.setdefault(ch, recorder.start_service[i])
        outstanding[ch] -= 1
        if outstanding[ch] == 0:
            busy[ch] = (
                busy.get(ch, 0.0) + recorder.finish[i] - opened.pop(ch)
            )
    return busy


class TestCoincidentAdmissions:
    """Admissions that land on a completion's instant, on real replays:
    the calendar decides whether the completion idled the channel."""

    def config(self):
        # closed-page rows give every access the same latency, so a
        # trace can land each arrival on the previous completion
        return MemSysConfig(
            n_channels=1,
            row_policy="closed",
            trefi_ns=500.0,
            trfc_ns=60.0,
            refresh_granularity="per-rank",
        )

    def trace(self, config):
        """Bursts of ten requests spaced exactly one service latency
        apart, so each arrival coincides with the previous completion;
        refresh blackouts stall some of the coincident starts."""
        latency = latency_table(config.timing, config.precharge_ns)["miss"]
        base = synthesize_trace("sequential", 400, config)
        times = np.cumsum(
            [0.0] + [200.0 if i % 10 == 9 else latency for i in range(399)]
        )
        return [
            MemRequest(request.op, request.addr, timestamp=float(when))
            for request, when in zip(base, times)
        ]

    def test_event_engine_matches_calendar_order(self):
        config = self.config()
        trace = self.trace(config)
        tracer = Tracer(kinds={"memsys.enqueue", "memsys.complete"})
        system = MemorySystem(config)
        telemetry = ReplayTelemetry(profile=False)
        stats = replay_event(system, trace, telemetry, tracer=tracer)
        assert_laws_hold(config, telemetry)
        recorder = telemetry.recorder
        coincident = np.isin(recorder.arrival, recorder.finish)
        stalled = coincident & (recorder.start_service > recorder.arrival)
        # the case this pins: a coincident admission that the calendar
        # ran before the completion, then a refresh stall
        assert np.any(stalled & ~recorder.opens_busy)
        busy = calendar_busy_ns(tracer, trace, recorder)[0]
        assert stats.channel_utilization == busy / stats.makespan_ns
        arrays = dict(recorder._assemble())
        assert_matches_reference(arrays, system.row_counts(), config)

    def test_exact_tier_matches_event_engine(self):
        config = self.config()
        event = ReplayTelemetry(profile=False)
        exact = ReplayTelemetry(profile=False)
        event_stats = replay_event(
            MemorySystem(config), self.trace(config), event
        )
        exact_stats = replay_exact_tier(config, self.trace(config), exact)
        assert repr(exact_stats) == repr(event_stats)
        for key in ("occupancy", "opens_busy"):
            assert np.array_equal(
                getattr(exact.recorder, key), getattr(event.recorder, key)
            ), key

    def test_queue_peak_follows_the_calendar(self):
        """Timestamps 0, 1 and T, the first request's finish: the
        completion at T was scheduled before the injector's wait for T,
        so the second request is dequeued before the third is admitted
        and the queue never holds two."""
        config = MemSysConfig(n_channels=1)
        base = synthesize_trace("sequential", 3, config)
        first = ReplayTelemetry(profile=False)
        replay_event(MemorySystem(config), base[:1], first)
        finish = float(first.recorder.finish[0])

        def trace():
            return [
                MemRequest(request.op, request.addr, timestamp=when)
                for request, when in zip(base, (0.0, 1.0, finish))
            ]

        peaks = {}
        for name in ("event", "exact", "vectorized"):
            telemetry = ReplayTelemetry(profile=False)
            if name == "event":
                replay_event(MemorySystem(config), trace(), telemetry)
            elif name == "exact":
                replay_exact_tier(config, trace(), telemetry)
            else:
                system = MemorySystem(config)
                system.replay(trace(), engine="fast", telemetry=telemetry)
                assert system.last_replay_engine == "fast-vectorized"
            peaks[name] = channel_gauges(telemetry)[0]["max_queue_length"]
        assert peaks["event"] == peaks["exact"] == 1.0
        # the closed form counts the dequeue at T as still queued: one
        # transient slot over the calendar, as documented
        assert peaks["vectorized"] == 2.0
