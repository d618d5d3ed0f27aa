"""Tests for the supervisor machinery: config, retries, integrity.

These exercise :class:`~repro.farm.WorkerPool`'s moving parts in
isolation — validation, mode resolution, backoff determinism, result
verification, and the fault ledger — without requiring real worker
processes (the chaos and equivalence suites cover those end to end).
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import (
    ConfigError,
    FarmError,
    ResultIntegrityError,
    ShardTimeout,
    WorkerCrash,
)
from repro.farm import (
    FarmConfig,
    FarmReport,
    ShardOutcome,
    ShardPlanner,
    WorkerPool,
    canonical_checksum,
    replay_farm,
)
from repro.memsys import MemSysConfig
from repro.memsys.trace import synthesize_trace
from repro.telemetry import LatencyRecorder, MetricsRegistry, farm_metrics


def _plan(n=200, n_channels=4, seed=0):
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
    return ShardPlanner(config).plan(trace)


class TestFarmConfigValidation:
    def test_defaults_are_valid(self):
        FarmConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": -1},
            {"mode": "threads"},
            {"engine": "warp"},
            {"max_shards": 0},
            {"max_retries": -1},
            {"deadline_s": 0.0},
            {"heartbeat_interval_s": -1.0},
            {"heartbeat_timeout_s": 0.0},
            {"backoff_base_s": -0.1},
            {"backoff_base_s": 1.0, "backoff_cap_s": 0.5},
            {"jitter": 1.5},
            {"jitter": -0.1},
        ],
    )
    def test_bad_fields_raise_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            FarmConfig(**kwargs)

    def test_config_error_is_a_value_error(self):
        # CLI bad-input handling catches ValueError; the farm's
        # misconfigurations must land in the same net
        with pytest.raises(ValueError):
            FarmConfig(mode="nope")

    def test_frozen(self):
        farm = FarmConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            farm.workers = 3


class TestErrorTaxonomy:
    def test_farm_errors_carry_shard_context(self):
        error = ShardTimeout("slow", shard_id=3, attempt=1)
        assert isinstance(error, FarmError)
        assert isinstance(error, RuntimeError)
        assert error.shard_id == 3
        assert error.attempt == 1

    def test_error_codes(self):
        assert ShardTimeout("x").code == "FARM_TIMEOUT"
        assert WorkerCrash("x").code == "FARM_CRASH"
        assert ResultIntegrityError("x").code == "FARM_INTEGRITY"


class TestResolveMode:
    def test_inprocess_is_honored(self):
        mode, workers, why = WorkerPool(
            FarmConfig(mode="inprocess")
        ).resolve_mode(4)
        assert mode == "inprocess"
        assert why == ""

    def test_auto_single_shard_stays_inprocess(self):
        mode, workers, _ = WorkerPool(
            FarmConfig(mode="auto")
        ).resolve_mode(1)
        assert mode == "inprocess"
        assert workers == 1

    def test_auto_single_worker_stays_inprocess(self):
        mode, workers, _ = WorkerPool(
            FarmConfig(mode="auto", workers=1)
        ).resolve_mode(4)
        assert mode == "inprocess"

    def test_workers_never_exceed_shards(self):
        _, workers, _ = WorkerPool(
            FarmConfig(mode="process", workers=16)
        ).resolve_mode(3)
        assert workers == 3

    def test_process_mode_uses_processes(self):
        mode, workers, why = WorkerPool(
            FarmConfig(mode="process", workers=2)
        ).resolve_mode(4)
        assert mode == "process"
        assert workers == 2
        assert why == ""


def _single_process_stats(plan_config, trace):
    from repro.memsys import MemorySystem

    return MemorySystem(plan_config).replay(trace, engine="fast")


def _exact(a, b):
    return repr(dataclasses.asdict(a)) == repr(dataclasses.asdict(b))


class TestProcessSupervision:
    """Real worker processes under the supervisor's launch loop."""

    def _trace(self, n=400):
        config = MemSysConfig(n_channels=4, scheme="channel-interleaved")
        trace = synthesize_trace(
            "random", n, config, seed=1, packed=True,
            interarrival_ns=40.0, interarrival="poisson",
        )
        return config, trace

    def test_default_workers_launch_in_process_mode(self):
        # workers=0 means "auto": the launch gate must use the resolved
        # count, or no worker ever starts and the supervisor spins
        config, trace = self._trace()
        result = replay_farm(
            trace, config, FarmConfig(mode="process", workers=0)
        )
        assert result.report.workers >= 1
        assert result.report.degraded_shards == 0
        assert _exact(result.stats, _single_process_stats(config, trace))

    def test_heartbeats_never_corrupt_a_result(self):
        # a heartbeat every 0.1 ms keeps the pipe busy while the result
        # goes out; the worker's send lock keeps the two apart
        config, trace = self._trace(n=8000)
        result = replay_farm(
            trace,
            config,
            FarmConfig(
                mode="process", workers=2, heartbeat_interval_s=1e-4
            ),
        )
        report = result.report
        assert report.integrity_failures == 0
        assert report.crashes == 0
        assert report.retries == 0
        assert _exact(result.stats, _single_process_stats(config, trace))

    def test_degraded_shards_do_not_end_supervision_early(self):
        # shards 0 and 1 exhaust their retries while 2 and 3 still wait
        # out a backoff: the supervisor must keep going for them
        from repro.farm.chaos import KILL, Fault, FaultPlan

        config, trace = self._trace()
        faults = {
            (0, 0): Fault(KILL), (0, 1): Fault(KILL),
            (1, 0): Fault(KILL), (1, 1): Fault(KILL),
            (2, 0): Fault(KILL), (3, 0): Fault(KILL),
        }
        result = replay_farm(
            trace,
            config,
            FarmConfig(
                mode="process", workers=1, max_retries=1,
                backoff_base_s=0.3, backoff_cap_s=0.3, jitter=0.0,
            ),
            fault_plan=FaultPlan(faults),
        )
        assert result.report.degraded_shards == 2
        assert _exact(result.stats, _single_process_stats(config, trace))

    def test_stalled_supervisor_raises_a_typed_error(self):
        plan = _plan()
        pool = WorkerPool(FarmConfig(mode="process"))
        report = FarmReport(mode="process", workers=0, n_shards=plan.n_shards)
        with pytest.raises(FarmError, match="stalled"):
            pool._supervise(plan, None, report, workers=0)


class TestBackoff:
    def test_deterministic_per_shard_and_attempt(self):
        pool = WorkerPool(FarmConfig(seed=42))
        assert pool._backoff_delay(1, 0) == pool._backoff_delay(1, 0)

    def test_decorrelated_across_shards(self):
        pool = WorkerPool(FarmConfig(seed=42, jitter=0.5))
        assert pool._backoff_delay(0, 0) != pool._backoff_delay(1, 0)

    def test_exponential_growth_capped(self):
        pool = WorkerPool(
            FarmConfig(
                backoff_base_s=0.1, backoff_cap_s=0.4, jitter=0.0
            )
        )
        assert pool._backoff_delay(0, 0) == pytest.approx(0.1)
        assert pool._backoff_delay(0, 1) == pytest.approx(0.2)
        assert pool._backoff_delay(0, 2) == pytest.approx(0.4)
        assert pool._backoff_delay(0, 5) == pytest.approx(0.4)

    def test_jitter_bounds(self):
        pool = WorkerPool(
            FarmConfig(
                backoff_base_s=1.0,
                backoff_cap_s=1.0,
                jitter=0.5,
                seed=7,
            )
        )
        for shard_id in range(20):
            delay = pool._backoff_delay(shard_id, 0)
            assert 0.5 <= delay <= 1.5


class TestVerifyResult:
    def _good_result(self, shard):
        n = len(shard)
        arrays = {
            key: np.zeros(n, dtype=dtype)
            for key, dtype in LatencyRecorder.DTYPES.items()
        }
        result = {
            "engine": "fast-exact",
            "backpressure": False,
            "row_counts": np.zeros(
                (len(shard.channels), 4, 3), dtype=np.int64
            ),
            "arrays": arrays,
        }
        result["checksum"] = canonical_checksum(result)
        return result

    def test_accepts_sealed_result(self):
        plan = _plan()
        shard = plan.shards[0]
        WorkerPool()._verify_result(shard, 0, self._good_result(shard))

    def test_rejects_missing_checksum(self):
        plan = _plan()
        shard = plan.shards[0]
        result = self._good_result(shard)
        del result["checksum"]
        with pytest.raises(ResultIntegrityError):
            WorkerPool()._verify_result(shard, 0, result)

    def test_rejects_single_bit_tamper(self):
        plan = _plan()
        shard = plan.shards[0]
        result = self._good_result(shard)
        result["arrays"]["finish"][0] = np.nextafter(
            result["arrays"]["finish"][0], np.inf
        )
        with pytest.raises(ResultIntegrityError) as excinfo:
            WorkerPool()._verify_result(shard, 1, result)
        assert excinfo.value.shard_id == shard.shard_id
        assert excinfo.value.attempt == 1

    def test_rejects_wrong_array_shapes(self):
        plan = _plan()
        shard = plan.shards[0]
        result = self._good_result(shard)
        result["arrays"]["finish"] = np.zeros(len(shard) + 1)
        payload = {
            key: value
            for key, value in result.items()
            if key != "checksum"
        }
        result["checksum"] = canonical_checksum(payload)
        with pytest.raises(ResultIntegrityError):
            WorkerPool()._verify_result(shard, 0, result)

    def test_rejects_row_counts_for_other_channels(self):
        plan = _plan()
        shard = plan.shards[0]
        result = self._good_result(shard)
        result["row_counts"] = np.zeros(
            (len(shard.channels) + 1, 4, 3), dtype=np.int64
        )
        del result["checksum"]
        result["checksum"] = canonical_checksum(result)
        with pytest.raises(ResultIntegrityError):
            WorkerPool()._verify_result(shard, 0, result)

    def test_rejects_non_dict_payload(self):
        plan = _plan()
        with pytest.raises(ResultIntegrityError):
            WorkerPool()._verify_result(plan.shards[0], 0, None)


class TestReportSerialization:
    def test_shard_outcome_round_trip(self):
        outcome = ShardOutcome(
            shard_id=2,
            channels=(2, 6),
            n_requests=50,
            attempts=3,
            engine="fast-exact",
            degraded=True,
            errors=["WorkerCrash: boom"],
        )
        data = outcome.to_dict()
        assert data["channels"] == [2, 6]
        assert data["degraded"] is True
        assert data["errors"] == ["WorkerCrash: boom"]

    def test_farm_report_to_dict_is_json_ready(self):
        import json

        report = FarmReport(mode="process", workers=4, n_shards=4)
        report.shards = [
            ShardOutcome(shard_id=0, channels=(0,), n_requests=10)
        ]
        report.retries = 2
        document = report.to_dict()
        json.dumps(document)  # must not raise
        assert document["retries"] == 2
        assert document["shards"][0]["shard_id"] == 0


class TestFarmMetrics:
    def test_ledger_counters_are_emitted(self):
        plan = _plan()
        result = replay_farm(
            plan.trace,
            plan.config,
            FarmConfig(mode="inprocess", engine="fast"),
        )
        registry = farm_metrics(result.report, MetricsRegistry())
        counters = {
            entry["name"]: entry["value"]
            for entry in registry.counters
        }
        assert counters["farm.shards"] == plan.n_shards
        assert counters["farm.attempts"] >= plan.n_shards
        assert counters["farm.retries"] == 0
        assert counters["farm.crashes"] == 0
        assert counters["farm.single_process_fallbacks"] == 0
        assert (
            counters["farm.harmonized_shards"]
            == result.report.harmonized_shards
        )

    def test_fallback_reason_becomes_degraded_gauge(self):
        report = FarmReport(mode="single", workers=1, n_shards=0)
        report.fell_back_to_single = True
        report.fallback_reason = "line-rate trace"
        registry = farm_metrics(report, MetricsRegistry())
        degraded = [
            entry
            for entry in registry.gauges
            if entry["name"] == "farm.degraded"
        ]
        assert len(degraded) == 1
        assert degraded[0]["tags"]["reason"] == "line-rate trace"
