"""The phase profiler and the engines' self-profiling hooks."""

import time

import pytest

from repro.memsys import MemSysConfig, MemorySystem, synthesize_trace
from repro.telemetry import MetricsRegistry, PhaseProfiler, ReplayTelemetry

from tests.memsys.event_oracle import replay_event


class TestPhaseProfiler:
    def test_phase_context_manager_times_and_accumulates(self):
        profiler = PhaseProfiler()
        with profiler.phase("work"):
            time.sleep(0.002)
        with profiler.phase("work"):
            time.sleep(0.002)
        assert profiler.phases.keys() == {"work"}
        assert profiler.phases["work"] >= 0.004
        assert profiler.total_seconds == profiler.phases["work"]

    def test_phase_charges_even_on_exception(self):
        profiler = PhaseProfiler()
        with pytest.raises(ValueError):
            with profiler.phase("boom"):
                raise ValueError("x")
        assert "boom" in profiler.phases

    def test_add_rejects_negative(self):
        profiler = PhaseProfiler()
        with pytest.raises(ValueError):
            profiler.add("p", -1.0)

    def test_insertion_order_preserved(self):
        profiler = PhaseProfiler()
        for name in ("decode", "certificate", "tier-execute"):
            profiler.add(name, 0.001)
        assert list(profiler.phases) == [
            "decode", "certificate", "tier-execute"
        ]

    def test_metrics_into(self):
        profiler = PhaseProfiler()
        profiler.add("decode", 0.25)
        registry = profiler.metrics_into(
            MetricsRegistry(), engine="fast-vectorized"
        )
        entry = registry.gauges[0]
        assert entry["name"] == "profile.phase_seconds"
        assert entry["value"] == 0.25
        assert entry["tags"] == {
            "engine": "fast-vectorized", "phase": "decode"
        }


class TestEngineSelfProfiling:
    def phases_of(self, config, trace, engine):
        telemetry = ReplayTelemetry(latency=False)
        replay = replay_event if engine == "event" else MemorySystem.replay
        replay(MemorySystem(config), trace, telemetry=telemetry)
        return telemetry.profiler.phases

    def test_fast_path_phases(self):
        config = MemSysConfig(n_channels=2, scheme="channel-interleaved")
        phases = self.phases_of(
            config,
            synthesize_trace("sequential", 2000, config, packed=True),
            "fast",
        )
        assert {"decode", "certificate", "tier-execute", "stats-gather"} <= (
            phases.keys()
        )
        assert all(seconds >= 0 for seconds in phases.values())

    def test_event_engine_phases(self):
        config = MemSysConfig()
        phases = self.phases_of(
            config,
            # packed input: the event oracle charges unpacking to decode
            synthesize_trace("sequential", 500, config, packed=True),
            "event",
        )
        assert {"decode", "tier-execute", "stats-gather"} <= phases.keys()
        # the event oracle runs no certificates
        assert "certificate" not in phases

    def test_profiling_is_coarse_not_per_request(self):
        """A handful of timer pairs per replay: the phase dict stays
        tiny no matter the trace length."""
        config = MemSysConfig()
        phases = self.phases_of(
            config,
            synthesize_trace("random", 3000, config, seed=0),
            "fast",
        )
        assert len(phases) <= 8
