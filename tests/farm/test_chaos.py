"""Chaos suite: every injected failure ends exact or typed — never wrong.

The farm's robustness contract under fault injection:

* ``kill`` / ``hang`` / ``corrupt`` / ``slow`` faults are absorbed by
  retries (counted in the ledger) and the final statistics are still
  **bit-identical** to a single-process replay;
* a shard faulted past its retry budget degrades to a fault-free
  in-process replay — still exact;
* seeded random fault storms across many seeds never produce a wrong
  answer: every run either matches the single-process replay bit for
  bit or raises a typed :class:`~repro.errors.FarmError`.
"""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.farm import (
    CORRUPT,
    HANG,
    KILL,
    SLOW,
    Fault,
    FaultPlan,
    FarmConfig,
    replay_farm,
)
from repro.memsys import MemSysConfig, MemorySystem
from repro.memsys.trace import synthesize_trace

#: Tight supervisor policy for chaos runs: retries are instant and
#: process-mode hangs are caught in ~1s instead of the default 10s.
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


class TestFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            Fault("meteor")

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigError):
            Fault(SLOW, delay_s=-1.0)

    def test_seeded_rate_validated(self):
        with pytest.raises(ConfigError):
            FaultPlan.seeded(0, 4, rate=1.5)

    def test_seeded_kinds_validated(self):
        with pytest.raises(ConfigError):
            FaultPlan.seeded(0, 4, kinds=("kill", "meteor"))


class TestFaultPlan:
    def test_always_covers_shards_and_attempts(self):
        plan = FaultPlan.always(KILL, [0, 2], attempts=2)
        assert plan.fault_for(0, 0).kind == KILL
        assert plan.fault_for(0, 1).kind == KILL
        assert plan.fault_for(0, 2) is None
        assert plan.fault_for(1, 0) is None
        assert plan.fault_for(2, 0).kind == KILL
        assert len(plan) == 4

    def test_seeded_is_deterministic(self):
        a = FaultPlan.seeded(7, 8, attempts=3, rate=0.5)
        b = FaultPlan.seeded(7, 8, attempts=3, rate=0.5)
        assert repr(a) == repr(b)

    def test_seeded_seeds_differ(self):
        a = FaultPlan.seeded(1, 8, attempts=3, rate=0.5)
        b = FaultPlan.seeded(2, 8, attempts=3, rate=0.5)
        assert repr(a) != repr(b)

    def test_seeded_rate_zero_is_empty(self):
        assert len(FaultPlan.seeded(0, 16, rate=0.0)) == 0


class TestInProcessChaos:
    """Each fault kind surfaces as its typed error, gets retried, and
    the final answer is still bit-exact."""

    def _run(self, fault_plan, **farm_kwargs):
        config, trace, single = _setup()
        kwargs = dict(CHAOS_FARM, mode="inprocess", engine="fast")
        kwargs.update(farm_kwargs)
        result = replay_farm(
            trace,
            config,
            FarmConfig(**kwargs),
            fault_plan=fault_plan,
        )
        assert _exact(single, result.stats), "chaos produced a wrong answer"
        return result.report

    def test_kill_counts_as_crash_and_retries(self):
        report = self._run(FaultPlan.always(KILL, [0]))
        assert report.crashes == 1
        assert report.retries == 1
        assert report.degraded_shards == 0
        assert any("WorkerCrash" in e for e in report.errors)
        assert report.shards[0].attempts >= 2
        assert report.shards[1].attempts == 1

    def test_hang_counts_as_timeout(self):
        report = self._run(FaultPlan.always(HANG, [1]))
        assert report.timeouts == 1
        assert report.retries == 1
        assert any("ShardTimeout" in e for e in report.errors)

    def test_corrupt_counts_as_integrity_failure(self):
        report = self._run(FaultPlan.always(CORRUPT, [2]))
        assert report.integrity_failures == 1
        assert report.retries == 1
        assert any(
            "ResultIntegrityError" in e for e in report.errors
        )

    def test_slow_succeeds_without_retry(self):
        report = self._run(
            FaultPlan.always(SLOW, [0], delay_s=0.001)
        )
        assert report.retries == 0
        assert report.crashes == 0
        assert report.errors == []

    def test_fault_every_attempt_degrades_exactly(self):
        # 1 try + 2 retries all faulted -> the shard must degrade to
        # the supervisor's fault-free in-process replay
        report = self._run(
            FaultPlan.always(KILL, [0], attempts=3), max_retries=2
        )
        assert report.degraded_shards == 1
        assert report.shards[0].degraded
        # 3 faulted + 1 degraded
        assert report.shards[0].attempts == 4
        assert report.crashes == 3
        assert report.retries == 2

    def test_mixed_storm_is_absorbed(self):
        plan = FaultPlan(
            {
                (0, 0): Fault(KILL),
                (1, 0): Fault(CORRUPT),
                (2, 0): Fault(HANG),
                (3, 0): Fault(SLOW, delay_s=0.001),
            }
        )
        report = self._run(plan)
        assert report.crashes == 1
        assert report.integrity_failures == 1
        assert report.timeouts == 1
        assert report.retries == 3
        assert report.degraded_shards == 0


class TestProcessChaos:
    """Real worker processes: kills and hangs detected by the
    supervisor's pipe/heartbeat machinery, not by exceptions."""

    def _run(self, fault_plan):
        config, trace, single = _setup(n=400)
        result = replay_farm(
            trace,
            config,
            FarmConfig(
                mode="process",
                engine="fast",
                workers=2,
                **CHAOS_FARM,
            ),
            fault_plan=fault_plan,
        )
        assert _exact(single, result.stats), "chaos produced a wrong answer"
        return result.report

    def test_killed_worker_is_detected_and_retried(self):
        report = self._run(FaultPlan.always(KILL, [0]))
        assert report.mode == "process"
        assert report.crashes == 1
        assert report.retries == 1
        assert report.degraded_shards == 0

    def test_hung_worker_trips_heartbeat_timeout(self):
        report = self._run(FaultPlan.always(HANG, [1]))
        assert report.timeouts == 1
        assert report.retries == 1
        assert any("silent" in e for e in report.errors)

    def test_corrupted_payload_is_rejected(self):
        report = self._run(FaultPlan.always(CORRUPT, [0]))
        assert report.integrity_failures == 1
        assert report.retries == 1


class TestSeededStorms:
    """The headline chaos property: random fault storms never produce
    a wrong answer — exact results or typed errors, nothing else."""

    @pytest.mark.parametrize("seed", range(6))
    def test_storm_always_exact(self, seed):
        config, trace, single = _setup(seed=seed)
        plan = FaultPlan.seeded(
            seed,
            n_shards=4,
            attempts=3,
            rate=0.4,
            slow_delay_s=0.001,
        )
        result = replay_farm(
            trace,
            config,
            FarmConfig(
                mode="inprocess", engine="fast", **CHAOS_FARM
            ),
            fault_plan=plan,
        )
        report = result.report
        assert _exact(single, result.stats), (
            f"seed {seed}: chaos produced a wrong answer "
            f"(ledger: {report.to_dict()})"
        )
        # the ledger must account for every absorbed fault
        absorbed = (
            report.crashes
            + report.timeouts
            + report.integrity_failures
        )
        assert len(report.errors) == absorbed
