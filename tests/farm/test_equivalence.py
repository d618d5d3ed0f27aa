"""Bit-identity of the sharded farm against single-process replay.

The farm's headline guarantee: for every shardable trace,
``replay_farm(trace, config)`` produces statistics and telemetry
arrays **bit-identical** to ``MemorySystem(config).replay(trace)`` —
every float compared by ``repr`` (no tolerances), across schemes,
policies, refresh settings, arrival processes, worker modes, and shard
foldings — and the merged arrays obey the timing laws.  Unshardable
traces degrade to a single-process replay that is exact by
construction.
"""

import dataclasses

import numpy as np
import pytest

from repro.farm import FarmConfig, replay_farm
from repro.memsys import MemSysConfig, MemorySystem
from repro.memsys.trace import synthesize_trace
from repro.telemetry import ReplayTelemetry

from tests.memsys.event_oracle import replay_event
from tests.memsys.test_fastpath import assert_laws_hold

ARRAY_PROPS = (
    "arrival",
    "start_service",
    "finish",
    "outcome_code",
    "channel",
    "bank",
    "row",
    "op_code",
)


def bitwise_equal(a, b):
    """repr-level equality: nan==nan, and every float to the last bit."""
    return repr(dataclasses.asdict(a)) == repr(dataclasses.asdict(b))


def assert_farm_exact(config, trace, farm, replay=MemorySystem.replay):
    """The farm against a single-process ``replay`` of ``trace``."""
    single_tel = ReplayTelemetry(profile=False)
    single = replay(MemorySystem(config), trace, telemetry=single_tel)
    farm_tel = ReplayTelemetry(profile=False)
    result = replay_farm(trace, config, farm, telemetry=farm_tel)
    assert_laws_hold(config, farm_tel)
    assert bitwise_equal(single, result.stats), (
        f"farm stats diverged: {single} != {result.stats}"
    )
    for prop in ARRAY_PROPS:
        assert np.array_equal(
            getattr(single_tel.recorder, prop),
            getattr(farm_tel.recorder, prop),
        ), f"telemetry array {prop} diverged"
    return result


def poisson_trace(config, n=1500, seed=11, interarrival_ns=60.0):
    return synthesize_trace(
        "random",
        n,
        config,
        seed=seed,
        packed=True,
        interarrival_ns=interarrival_ns,
        interarrival="poisson",
    )


class TestBitIdentity:
    @pytest.mark.parametrize("scheme", ["channel-interleaved", "row-major"])
    @pytest.mark.parametrize("policy", ["fcfs", "frfcfs"])
    def test_scheme_policy_matrix(self, scheme, policy):
        config = MemSysConfig(
            n_channels=4, scheme=scheme, policy=policy, queue_depth=8
        )
        trace = poisson_trace(config)
        assert_farm_exact(
            config,
            trace,
            FarmConfig(mode="inprocess", engine="fast"),
        )

    def test_refresh_enabled(self):
        config = MemSysConfig(
            n_channels=4,
            scheme="channel-interleaved",
            trefi_ns=3900.0,
            trfc_ns=350.0,
        )
        trace = poisson_trace(config, n=1200)
        result = assert_farm_exact(
            config,
            trace,
            FarmConfig(mode="inprocess", engine="fast"),
        )
        assert not result.report.fell_back_to_single

    def test_fixed_interarrival(self):
        config = MemSysConfig(
            n_channels=2, scheme="channel-interleaved"
        )
        trace = synthesize_trace(
            "sequential",
            1000,
            config,
            seed=2,
            packed=True,
            interarrival_ns=30.0,
        )
        assert_farm_exact(
            config, trace, FarmConfig(mode="inprocess", engine="fast")
        )

    def test_farm_matches_event_oracle(self):
        config = MemSysConfig(
            n_channels=4, scheme="channel-interleaved"
        )
        trace = poisson_trace(config, n=600)
        result = assert_farm_exact(
            config,
            trace,
            FarmConfig(mode="inprocess"),
            replay=replay_event,
        )
        assert not result.report.fell_back_to_single

    def test_real_worker_processes(self):
        config = MemSysConfig(
            n_channels=4, scheme="channel-interleaved", queue_depth=8
        )
        trace = poisson_trace(config)
        result = assert_farm_exact(
            config,
            trace,
            FarmConfig(mode="process", engine="fast", workers=2),
        )
        assert result.report.mode == "process"
        assert result.report.n_shards == 4

    def test_max_shards_folding(self):
        config = MemSysConfig(
            n_channels=8, scheme="channel-interleaved"
        )
        trace = poisson_trace(config, n=1600)
        result = assert_farm_exact(
            config,
            trace,
            FarmConfig(
                mode="inprocess", engine="fast", max_shards=3
            ),
        )
        assert result.report.n_shards == 3

    def test_single_active_channel(self):
        # row-major puts the channel in the top bits: a small footprint
        # lands every request on channel 0 and the farm gets one shard
        config = MemSysConfig(n_channels=4, scheme="row-major")
        trace = synthesize_trace(
            "random",
            400,
            config,
            seed=5,
            packed=True,
            footprint_bytes=1 << 16,
            interarrival_ns=50.0,
            interarrival="poisson",
        )
        result = assert_farm_exact(
            config, trace, FarmConfig(mode="inprocess", engine="fast")
        )
        assert result.report.n_shards == 1


class TestMixedTiers:
    def test_mixed_tiers_merge_without_redispatch(self):
        # 50 ns Poisson over 4 channels: some channels pass the
        # vectorized certificates and some do not, so the shards come
        # back on both tiers while the single-process replay runs the
        # exact tier everywhere; the merge is still bit-identical, and
        # no shard is replayed twice
        config = MemSysConfig(
            n_channels=4, scheme="channel-interleaved", queue_depth=8
        )
        trace = synthesize_trace(
            "random",
            2000,
            config,
            seed=7,
            packed=True,
            interarrival_ns=50.0,
            interarrival="poisson",
        )
        single_system = MemorySystem(config)
        single_system.replay(trace, engine="fast")
        assert single_system.last_replay_engine == "fast-exact"
        result = assert_farm_exact(
            config, trace, FarmConfig(mode="inprocess", engine="fast")
        )
        assert {s.engine for s in result.report.shards} == {
            "fast-exact",
            "fast-vectorized",
        }
        assert result.report.attempts == result.report.n_shards
        assert all(s.attempts == 1 for s in result.report.shards)
        assert result.report.harmonized_shards == 0

    def test_homogeneous_vectorized(self):
        config = MemSysConfig(
            n_channels=2, scheme="channel-interleaved"
        )
        trace = synthesize_trace(
            "sequential",
            800,
            config,
            seed=1,
            packed=True,
            interarrival_ns=40.0,
        )
        single_system = MemorySystem(config)
        single_system.replay(trace, engine="fast")
        assert single_system.last_replay_engine == "fast-vectorized"
        result = assert_farm_exact(
            config, trace, FarmConfig(mode="inprocess", engine="fast")
        )
        assert {s.engine for s in result.report.shards} == {
            "fast-vectorized"
        }


class TestGracefulDegradation:
    def test_line_rate_trace_falls_back_exactly(self):
        config = MemSysConfig(
            n_channels=4, scheme="channel-interleaved"
        )
        trace = synthesize_trace(
            "random", 600, config, seed=3, packed=True
        )
        single = MemorySystem(config).replay(trace, engine="fast")
        result = replay_farm(
            trace, config, FarmConfig(mode="inprocess")
        )
        assert result.report.fell_back_to_single
        assert "line-rate" in result.report.fallback_reason
        assert bitwise_equal(single, result.stats)

    def test_backpressured_trace_falls_back_exactly(self):
        # 1 ns mean interarrival floods the queues: the shard replay
        # cannot admit requests at their timestamps, the certificate
        # fails, and the farm must fall back — still bit-exact
        config = MemSysConfig(
            n_channels=2,
            scheme="channel-interleaved",
            queue_depth=2,
        )
        trace = synthesize_trace(
            "random",
            800,
            config,
            seed=9,
            packed=True,
            interarrival_ns=1.0,
            interarrival="poisson",
        )
        single = MemorySystem(config).replay(trace, engine="fast")
        result = replay_farm(
            trace, config, FarmConfig(mode="inprocess", engine="fast")
        )
        assert result.report.fell_back_to_single
        assert "certificate" in result.report.fallback_reason
        assert bitwise_equal(single, result.stats)

    def test_fallback_serves_caller_telemetry(self):
        config = MemSysConfig(
            n_channels=2, scheme="channel-interleaved"
        )
        trace = synthesize_trace(
            "random", 300, config, seed=4, packed=True
        )
        telemetry = ReplayTelemetry(profile=False)
        result = replay_farm(
            trace,
            config,
            FarmConfig(mode="inprocess"),
            telemetry=telemetry,
        )
        assert result.report.fell_back_to_single
        assert telemetry.recorder.n == 300
        assert telemetry.finished
