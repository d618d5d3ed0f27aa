"""``reduce_stats`` against naive references.

The per-channel reference walks each channel's services one by one and
applies the definitions directly — a busy period opens at the first
service and closes after a service by whose completion every request
that had arrived has started; an arrival at the completion's very
instant joins the period — so it shares no code with the vectorized
reduction.  Hand-built arrays pin the corner cases; real replays check
the rule where the scheduler reorders and stalls, and where admissions
coincide with completions, against the calendar's own records.
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
from .test_fastpath import (
    assert_arrays_identical,
    assert_laws_hold,
    replay_exact_tier,
)

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
            if opened is None:
                opened = arrays["start_service"][i]
            started = set(by_start[: k + 1])
            finish = arrays["finish"][i]
            if not any(
                arrays["arrival"][j] <= finish
                for j in mine
                if j not in started
            ):
                busy += finish - opened
                opened = None
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


def build(requests, row_counts=None):
    """Arrays from ``(channel, op, arrival, start, finish)`` rows."""
    columns = list(zip(*requests))
    channel, op, arrival, start, finish = columns
    n = len(requests)
    arrays = {
        "arrival": np.array(arrival, dtype=np.float64),
        "start_service": np.array(start, dtype=np.float64),
        "finish": np.array(finish, dtype=np.float64),
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
                (0, READ, 0, 0, 10),
                (0, READ, 5, 20, 30),
                (1, READ, 0, 0, 30),
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
                (0, READ, 0, 0, 10),
                (0, READ, 15, 25, 35),
                (1, READ, 0, 0, 35),
            ]
        )
        stats, ref = assert_matches_reference(arrays, counts)
        assert ref["per_channel"][0]["busy_ns"] == 20.0
        assert stats.channel_utilization == (20 / 35 + 1.0) / 2

    @pytest.mark.parametrize(
        "arrival, busy", ((9.0, 25.0), (10.0, 25.0), (11.0, 20.0))
    )
    def test_completion_coincident_with_admission(self, arrival, busy):
        # the second request waits out a blackout until 15: arriving by
        # the first completion at 10 — at its very instant included —
        # it joins the busy period and the stall is busy time; arriving
        # after it, it wakes an idle channel
        arrays, counts = build(
            [
                (0, READ, 0, 0, 10),
                (0, READ, arrival, 15, 25),
                (1, READ, 0, 0, 25),
            ]
        )
        stats, ref = assert_matches_reference(arrays, counts)
        assert ref["per_channel"][0]["busy_ns"] == busy
        assert stats.channel_utilization == (busy / 25 + 1.0) / 2
        assert stats.mean_queue_length == (15 - arrival) / 25 / 2

    def test_coincidence_without_stall_is_busy(self):
        arrays, counts = build(
            [
                (0, READ, 0, 0, 10),
                (0, READ, 10, 10, 20),
                (1, READ, 0, 0, 20),
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
                (0, READ, 0, 0, 10),
                (0, READ, 1, 20, 30),
                (0, READ, 2, 10, 20),
            ]
        )
        stats, ref = assert_matches_reference(arrays, counts)
        assert ref["per_channel"][0]["busy_ns"] == 30.0
        assert stats.per_channel[0]["mean_latency_ns"] == (10 + 29 + 18) / 3


class TestChannelsAndCounters:
    def test_empty_channel(self):
        arrays, counts = build(
            [(0, READ, 0, 0, 10), (0, READ, 0, 10, 20)]
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
                (0, READ, 0, 0, 10),
                (0, Op.PIM.code, 0, 10, 20),
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


def calendar_busy_ns(records, requests, recorder, admissions_first):
    """Busy time per channel from the event calendar's records: a
    completion that leaves nothing admitted and unfinished idles its
    channel, and the next completion on that channel belongs to the
    service that reopened it.  With ``admissions_first`` the records of
    one instant are taken admissions first (the rule: an arrival at a
    completion joins its period), else in the calendar's own order.
    Each request's times are read off the ``recorder`` arrays, by its
    (unique) address."""
    position = {request.addr: i for i, request in enumerate(requests)}
    if admissions_first:
        records = sorted(
            records,
            key=lambda r: (r.time, r.kind != "memsys.enqueue"),
        )
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
    whichever order the calendar runs the two, the arrival joins the
    completion's busy period."""

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
        # the case this pins: a coincident admission, then a refresh
        # stall, which the rule counts busy
        assert np.any(stalled)
        busy = calendar_busy_ns(tracer, trace, recorder, True)[0]
        assert stats.channel_utilization == busy / stats.makespan_ns
        # here the calendar itself runs those admissions first
        assert calendar_busy_ns(tracer, trace, recorder, False)[0] == busy
        arrays = dict(recorder._assemble())
        assert_matches_reference(arrays, system.row_counts(), config)

    def test_exact_tier_matches_event_engine(self):
        config = self.config()
        event = ReplayTelemetry(profile=False)
        event_stats = replay_event(
            MemorySystem(config), self.trace(config), event
        )
        exact = ReplayTelemetry(profile=False)
        exact_stats = replay_exact_tier(config, self.trace(config), exact)
        closed_form = ReplayTelemetry(profile=False)
        system = MemorySystem(config)
        closed_form_stats = system.replay(
            self.trace(config), telemetry=closed_form
        )
        assert system.last_replay_engine == "fast-vectorized"
        for stats, telemetry in (
            (exact_stats, exact),
            (closed_form_stats, closed_form),
        ):
            assert repr(stats) == repr(event_stats)
            assert_arrays_identical(event.recorder, telemetry.recorder)
            assert channel_gauges(telemetry) == channel_gauges(event)

    def test_queue_peak_is_the_settled_depth(self):
        """Timestamps 0, 1 and T, the first request's finish: at T the
        second request starts and the third is admitted, so the depth
        settled after every event at T is one — whichever order the
        calendar ran them — and no tier records a transient two."""
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
        assert peaks == {"event": 1.0, "exact": 1.0, "vectorized": 1.0}
