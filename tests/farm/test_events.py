"""The farm supervisor's typed event log (``repro.farm/events-v1``).

Two contracts:

* **unit** — :class:`~repro.farm.events.FarmEventLog` rejects unknown
  kinds, clamps reversed spans, counts and filters correctly, and
  renders a Chrome trace-event track set (one process, supervisor +
  per-shard threads, wall-clock microseconds);
* **causal completeness** — every chaos injection a
  :class:`~repro.farm.chaos.FaultPlan` delivers appears in the run's
  log as a typed ``chaos-*`` event with the *matching* shard id and
  attempt, alongside the supervisor spans (plan / dispatch / verify /
  shard-done / attempt-failed / retry-backoff / degrade / fallback /
  merge) that narrate how the fault was absorbed — and the merged
  Chrome timeline carries those spans on the farm's worker/shard
  tracks and still validates.
"""

import dataclasses

import pytest

from repro.farm import (
    CORRUPT,
    HANG,
    KILL,
    SLOW,
    FarmConfig,
    FarmEventLog,
    FaultPlan,
    replay_farm,
)
from repro.farm.events import (
    EVENT_KINDS,
    FARM_EVENTS_SCHEMA,
    SUPERVISOR,
)
from repro.memsys import MemSysConfig, MemorySystem
from repro.memsys.trace import synthesize_trace
from repro.telemetry import (
    ReplayTelemetry,
    build_timeline,
    validate_timeline,
)

#: Tight supervisor policy: instant retries, ~1s hang detection.
CHAOS_FARM = dict(
    backoff_base_s=0.0,
    backoff_cap_s=0.0,
    heartbeat_interval_s=0.05,
    heartbeat_timeout_s=1.0,
)


def _setup(n=600, n_channels=4, seed=0):
    config = MemSysConfig(
        n_channels=n_channels, scheme="channel-interleaved"
    )
    trace = synthesize_trace(
        "random",
        n,
        config,
        seed=seed,
        packed=True,
        interarrival_ns=40.0,
        interarrival="poisson",
    )
    single = MemorySystem(config).replay(trace, engine="fast")
    return config, trace, single


def _exact(single, stats):
    return repr(dataclasses.asdict(single)) == repr(
        dataclasses.asdict(stats)
    )


def _run(fault_plan=None, telemetry=None, **farm_kwargs):
    config, trace, single = _setup()
    kwargs = dict(CHAOS_FARM, mode="inprocess", engine="fast")
    kwargs.update(farm_kwargs)
    result = replay_farm(
        trace,
        config,
        FarmConfig(**kwargs),
        telemetry=telemetry,
        fault_plan=fault_plan,
    )
    assert _exact(single, result.stats)
    return config, result


class TestFarmEventLog:
    def test_unknown_kind_rejected(self):
        log = FarmEventLog()
        with pytest.raises(ValueError, match="unknown farm event"):
            log.point("meteor")
        with pytest.raises(ValueError, match="available"):
            log.record("chaos-meteor", 0.0, 1.0)

    def test_reversed_span_clamps_to_instant(self):
        log = FarmEventLog()
        event = log.record("merge", 5.0, 1.0)
        assert event.start_s == 5.0
        assert event.end_s == 5.0

    def test_point_is_an_instant_supervisor_event(self):
        log = FarmEventLog()
        event = log.point("plan", detail="4 shard(s)")
        assert event.start_s == event.end_s
        assert event.shard_id == SUPERVISOR
        assert event.attempt == -1
        assert event.detail == "4 shard(s)"

    def test_span_context_manager_covers_the_body(self):
        log = FarmEventLog()
        with log.span("verify", shard_id=2, attempt=1):
            pass
        (event,) = log.events
        assert event.kind == "verify"
        assert event.shard_id == 2
        assert event.attempt == 1
        assert event.end_s >= event.start_s >= 0.0

    def test_counts_for_shard_and_len(self):
        log = FarmEventLog()
        log.point("dispatch", shard_id=0, attempt=0)
        log.point("dispatch", shard_id=1, attempt=0)
        log.point("shard-done", shard_id=0, attempt=0)
        log.point("merge")
        assert len(log) == 4
        assert log.counts() == {
            "dispatch": 2, "shard-done": 1, "merge": 1
        }
        assert [e.kind for e in log.for_shard(0)] == [
            "dispatch", "shard-done"
        ]
        assert log.for_shard(9) == []

    def test_to_dict_schema(self):
        log = FarmEventLog()
        log.record("dispatch", 0.5, 1.5, shard_id=3, attempt=2)
        document = log.to_dict()
        assert document["schema"] == FARM_EVENTS_SCHEMA
        assert document["n_events"] == 1
        assert document["counts"] == {"dispatch": 1}
        assert document["events"] == [
            {
                "kind": "dispatch",
                "start_s": 0.5,
                "end_s": 1.5,
                "shard_id": 3,
                "attempt": 2,
                "detail": "",
            }
        ]

    def test_chaos_kinds_are_in_the_vocabulary(self):
        for kind in (KILL, HANG, CORRUPT, SLOW):
            assert f"chaos-{kind}" in EVENT_KINDS

    def test_timeline_events_render_tracks_in_microseconds(self):
        log = FarmEventLog()
        log.record("plan", 0.0, 0.25)
        log.record(
            "dispatch", 1.0, 2.5, shard_id=3, attempt=1,
            detail="engine=fast",
        )
        rendered = log.timeline_events(pid=7)
        metadata = [e for e in rendered if e["ph"] == "M"]
        assert {e["pid"] for e in rendered} == {7}
        names = {
            (e["name"], e["args"]["name"]) for e in metadata
        }
        assert ("process_name", "farm (wall clock)") in names
        assert ("thread_name", "supervisor") in names
        assert ("thread_name", "shard 3") in names
        spans = [e for e in rendered if e["ph"] == "X"]
        assert [e["name"] for e in spans] == ["plan", "dispatch"]
        plan, dispatch = spans
        assert plan["tid"] == 0  # supervisor thread
        assert plan["cat"] == "farm"
        assert dispatch["tid"] == 1  # first (only) shard thread
        assert dispatch["ts"] == 1.0 * 1e6
        assert dispatch["dur"] == 1.5 * 1e6
        assert dispatch["args"] == {
            "shard_id": 3, "attempt": 1, "detail": "engine=fast",
        }


class TestSupervisorLifecycleEvents:
    def test_clean_run_narrates_every_shard(self):
        config, result = _run()
        counts = result.events.counts()
        n_shards = result.report.n_shards
        assert n_shards == config.n_channels
        assert counts["plan"] == 1
        assert counts["merge"] == 1
        assert counts["dispatch"] == n_shards
        assert counts["verify"] == n_shards
        assert counts["shard-done"] == n_shards
        assert "attempt-failed" not in counts
        assert "degrade" not in counts
        # the log brackets the run: plan first, merge last
        assert result.events.events[0].kind == "plan"
        assert result.events.events[-1].kind == "merge"

    def test_shard_done_records_the_serving_engine(self):
        _, result = _run()
        done = [
            e for e in result.events.events if e.kind == "shard-done"
        ]
        assert done
        assert all(e.detail.startswith("fast-") for e in done)

    def test_fallback_event_on_unshardable_trace(self):
        config = MemSysConfig(n_channels=2)
        # line-rate (no timestamps): not shardable by construction
        trace = synthesize_trace(
            "random", 400, config, seed=0, packed=True
        )
        result = replay_farm(
            trace, config, FarmConfig(mode="inprocess", engine="fast")
        )
        assert result.report.fell_back_to_single
        counts = result.events.counts()
        assert counts["plan"] == 1
        assert counts["fallback"] == 1
        assert "merge" not in counts
        (fallback,) = [
            e for e in result.events.events if e.kind == "fallback"
        ]
        assert fallback.detail == result.report.fallback_reason


class TestChaosInjectionSpans:
    """Every injected fault appears as a typed span with matching
    shard/attempt context."""

    @pytest.mark.parametrize("kind", (KILL, HANG, CORRUPT))
    def test_every_injection_is_logged_with_its_context(self, kind):
        injected = [(0, 0), (0, 1), (2, 0), (2, 1)]
        _, result = _run(
            FaultPlan.always(kind, [0, 2], attempts=2)
        )
        events = result.events
        chaos = [
            e for e in events.events if e.kind == f"chaos-{kind}"
        ]
        assert [
            (e.shard_id, e.attempt) for e in chaos
        ] == injected
        assert all(e.detail == "injected fault" for e in chaos)
        # each faulted attempt also failed, in the same context
        failed = {
            (e.shard_id, e.attempt)
            for e in events.events
            if e.kind == "attempt-failed"
        }
        assert failed == set(injected)
        # the faulted shards eventually completed on a later attempt
        done = {
            e.shard_id: e.attempt
            for e in events.events
            if e.kind == "shard-done"
        }
        assert done[0] == 2 and done[2] == 2

    def test_slow_fault_is_logged_but_does_not_fail(self):
        _, result = _run(
            FaultPlan.always(SLOW, [1], attempts=1, delay_s=0.02)
        )
        counts = result.events.counts()
        assert counts["chaos-slow"] == 1
        assert "attempt-failed" not in counts
        (dispatch,) = [
            e
            for e in result.events.events
            if e.kind == "dispatch" and e.shard_id == 1
        ]
        assert dispatch.end_s - dispatch.start_s >= 0.02

    def test_retry_backoff_span_covers_the_sleep(self):
        _, result = _run(
            FaultPlan.always(CORRUPT, [0], attempts=1),
            backoff_base_s=0.02,
            backoff_cap_s=0.02,
            jitter=0.0,
        )
        (backoff,) = [
            e
            for e in result.events.events
            if e.kind == "retry-backoff"
        ]
        assert backoff.shard_id == 0
        assert backoff.attempt == 0
        assert backoff.end_s - backoff.start_s >= 0.015

    def test_degrade_event_when_budget_exhausted(self):
        _, result = _run(
            FaultPlan.always(KILL, [1], attempts=3), max_retries=2
        )
        assert result.report.degraded_shards == 1
        kills = [
            (e.shard_id, e.attempt)
            for e in result.events.events
            if e.kind == "chaos-kill"
        ]
        assert kills == [(1, 0), (1, 1), (1, 2)]
        (degrade,) = [
            e for e in result.events.events if e.kind == "degrade"
        ]
        assert degrade.shard_id == 1
        assert "retry budget exhausted" in degrade.detail

    def test_process_mode_kill_is_logged_identically(self):
        _, result = _run(
            FaultPlan.always(KILL, [0], attempts=1),
            mode="process",
            workers=2,
        )
        events = result.events
        chaos = [
            (e.shard_id, e.attempt)
            for e in events.events
            if e.kind == "chaos-kill"
        ]
        assert chaos == [(0, 0)]
        counts = events.counts()
        assert counts["attempt-failed"] == 1
        assert counts["shard-done"] == result.report.n_shards
        assert counts["merge"] == 1


class TestChaosTimelineIntegration:
    def test_chaos_run_renders_farm_tracks_that_validate(self):
        telemetry = ReplayTelemetry()
        config, result = _run(
            FaultPlan.always(KILL, [0], attempts=1),
            telemetry=telemetry,
        )
        assert telemetry.farm_events is result.events
        document = build_timeline(telemetry)
        assert validate_timeline(document) == []
        farm_spans = [
            e
            for e in document["traceEvents"]
            if e["ph"] == "X" and e["cat"] == "farm"
        ]
        assert len(farm_spans) == len(result.events) > 0
        # the farm process sits just past the channel tracks
        assert {e["pid"] for e in farm_spans} == {config.n_channels}
        kills = [
            e for e in farm_spans if e["name"] == "chaos-kill"
        ]
        assert len(kills) == 1
        assert kills[0]["args"]["shard_id"] == 0
        assert kills[0]["args"]["attempt"] == 0
