"""The per-request latency recorder and the ReplayTelemetry handle."""

import numpy as np
import pytest

from repro.memsys import (
    Coordinates,
    MemRequest,
    MemSysConfig,
    MemorySystem,
    Op,
    synthesize_trace,
)
from repro.telemetry import (
    ALL_BANKS,
    OUTCOME_NAMES,
    LatencyRecorder,
    ReplayTelemetry,
)

from tests.memsys.event_oracle import replay_event


def replay(config, trace, engine="auto", **kwargs):
    telemetry = ReplayTelemetry(**kwargs)
    system = MemorySystem(config)
    if engine == "event":
        stats = replay_event(system, trace, telemetry)
    else:
        stats = system.replay(trace, engine=engine, telemetry=telemetry)
    return stats, telemetry


class TestLatencyRecorder:
    def test_uncaptured_recorder_raises(self):
        recorder = LatencyRecorder()
        assert not recorder.captured
        with pytest.raises(RuntimeError, match="no replay captured"):
            recorder.n
        with pytest.raises(RuntimeError):
            recorder.percentiles()

    def test_single_shot_capture_guard(self):
        config = MemSysConfig()
        trace = synthesize_trace("sequential", 64, config)
        _, telemetry = replay(config, trace)
        with pytest.raises(RuntimeError, match="already captured"):
            MemorySystem(config).replay(
                synthesize_trace("sequential", 64, config),
                telemetry=telemetry,
            )

    @pytest.mark.parametrize("engine", ("event", "fast"))
    def test_durations_are_consistent(self, engine):
        config = MemSysConfig()
        trace = synthesize_trace("random", 500, config, seed=1)
        stats, telemetry = replay(config, trace, engine=engine)
        recorder = telemetry.recorder
        assert recorder.n == 500
        np.testing.assert_array_equal(
            recorder.queue_wait,
            recorder.start_service - recorder.arrival,
        )
        np.testing.assert_array_equal(
            recorder.total_latency,
            recorder.queue_wait + recorder.service_time,
        )
        assert (recorder.queue_wait >= 0).all()
        assert (recorder.service_time > 0).all()
        assert recorder.finish.max() <= stats.makespan_ns

    def test_routing_context_matches_the_config(self):
        config = MemSysConfig()
        trace = synthesize_trace("random", 300, config, seed=2)
        _, telemetry = replay(config, trace)
        recorder = telemetry.recorder
        assert set(np.unique(recorder.channel)) <= set(
            range(config.n_channels)
        )
        assert recorder.bank.min() >= 0  # no all-bank ops in this trace
        assert recorder.bank.max() < config.banks_per_channel
        assert recorder.row.max() < config.rows_per_bank
        assert set(np.unique(recorder.outcome_code)) <= {0, 1, 2}

    def test_all_bank_ops_record_the_pseudo_bank(self):
        config = MemSysConfig()
        amap = config.address_map()
        trace = [
            MemRequest(
                Op.PIM,
                amap.encode(
                    Coordinates(channel=i % config.n_channels, row=i)
                ),
            )
            for i in range(32)
        ]
        _, telemetry = replay(config, trace)
        assert (telemetry.recorder.bank == ALL_BANKS).all()

    def test_percentile_values_are_observed_samples(self):
        config = MemSysConfig()
        trace = synthesize_trace("random", 400, config, seed=3)
        _, telemetry = replay(config, trace)
        recorder = telemetry.recorder
        percentiles = recorder.percentiles()
        assert set(percentiles) == {
            "queue_wait_ns", "service_time_ns", "total_latency_ns"
        }
        waits = recorder.queue_wait
        for key in ("p50", "p95", "p99", "max"):
            assert percentiles["queue_wait_ns"][key] in waits

    def test_outcome_vocabulary(self):
        assert OUTCOME_NAMES == ("hit", "miss", "conflict", "broadcast")


class TestReplayTelemetry:
    def test_finish_records_engine_and_config(self):
        config = MemSysConfig()
        telemetry = ReplayTelemetry()
        assert not telemetry.finished
        stats, telemetry = replay(
            config, synthesize_trace("sequential", 64, config),
            engine="fast",
        )
        assert telemetry.finished
        assert telemetry.engine.startswith("fast-")
        assert telemetry.config is config or telemetry.config == config
        assert telemetry.makespan_ns == stats.makespan_ns

    def test_latency_disabled_still_profiles(self):
        config = MemSysConfig()
        _, telemetry = replay(
            config,
            synthesize_trace("sequential", 64, config),
            latency=False,
        )
        assert telemetry.recorder is None
        assert telemetry.profiler is not None
        with pytest.raises(RuntimeError, match="disabled"):
            telemetry.percentiles()

    def test_metrics_into_emits_latency_histograms(self):
        from repro.telemetry import MetricsRegistry

        config = MemSysConfig()
        _, telemetry = replay(
            config, synthesize_trace("random", 200, config, seed=4)
        )
        registry = telemetry.metrics_into(
            MetricsRegistry(), run="unit"
        )
        names = {e["name"] for e in registry.histograms}
        assert names == {
            "telemetry.queue_wait_ns",
            "telemetry.service_time_ns",
            "telemetry.total_latency_ns",
        }
        counter = registry.counters[0]
        assert counter["name"] == "telemetry.requests_recorded"
        assert counter["value"] == 200
        assert counter["tags"]["engine"] == telemetry.engine
        assert counter["tags"]["run"] == "unit"
        phases = {
            e["tags"]["phase"]
            for e in registry.gauges
            if e["name"] == "profile.phase_seconds"
        }
        assert "tier-execute" in phases
