"""Bursty (Poisson) arrival synthesis and its replay semantics."""

import numpy as np
import pytest

from repro.memsys import (
    INTERARRIVALS,
    MemorySystem,
    MemSysConfig,
    arrival_times,
    synthesize_trace,
)

from .event_oracle import replay_event


class TestArrivalTimes:
    def test_fixed_cadence(self):
        times = arrival_times(4, 2.5, start_ns=1.0)
        assert times.tolist() == [1.0, 3.5, 6.0, 8.5]

    def test_poisson_is_seeded(self):
        a = arrival_times(100, 3.0, mode="poisson", seed=9)
        b = arrival_times(100, 3.0, mode="poisson", seed=9)
        c = arrival_times(100, 3.0, mode="poisson", seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_poisson_gaps_have_the_requested_mean(self):
        times = arrival_times(20_000, 5.0, mode="poisson", seed=1)
        gaps = np.diff(times)
        assert abs(gaps.mean() - 5.0) < 0.2
        # exponential: std ~= mean (far from the fixed cadence's 0)
        assert abs(gaps.std() - 5.0) < 0.3

    def test_non_decreasing_and_offset(self):
        times = arrival_times(
            500, 2.0, mode="poisson", seed=3, start_ns=100.0
        )
        assert float(times.min()) >= 100.0
        assert bool(np.all(np.diff(times) >= 0))

    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            arrival_times(5, 1.0, mode="uniform")
        with pytest.raises(ValueError, match="n must"):
            arrival_times(0, 1.0)
        with pytest.raises(ValueError, match="interarrival_ns"):
            arrival_times(5, -1.0)
        assert INTERARRIVALS == ("fixed", "poisson")


class TestSynthesis:
    def test_packed_and_object_traces_agree(self):
        config = MemSysConfig()
        packed = synthesize_trace(
            "random", 64, config, seed=2,
            interarrival_ns=3.0, interarrival="poisson", packed=True,
        )
        objects = synthesize_trace(
            "random", 64, config, seed=2,
            interarrival_ns=3.0, interarrival="poisson",
        )
        assert [r.timestamp for r in objects] == packed.times.tolist()
        assert [r.addr for r in objects] == packed.addrs.tolist()

    def test_poisson_differs_from_fixed_but_addresses_match(self):
        config = MemSysConfig()
        fixed = synthesize_trace(
            "sequential", 32, config, interarrival_ns=2.0, packed=True
        )
        poisson = synthesize_trace(
            "sequential", 32, config,
            interarrival_ns=2.0, interarrival="poisson", packed=True,
        )
        assert np.array_equal(fixed.addrs, poisson.addrs)
        assert not np.array_equal(fixed.times, poisson.times)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="interarrival"):
            synthesize_trace(
                "random", 8, interarrival_ns=1.0, interarrival="pareto"
            )

    def test_mode_without_a_rate_is_rejected(self):
        """Asking for bursty arrivals but omitting the rate would
        silently emit a line-rate trace — reject the combination."""
        with pytest.raises(ValueError, match="interarrival_ns"):
            synthesize_trace("random", 8, interarrival="poisson")


class TestReplay:
    @pytest.mark.parametrize(
        "pattern", ["sequential", "random", "strided"]
    )
    def test_both_engines_honor_poisson_timestamps(self, pattern):
        config = MemSysConfig()
        trace = synthesize_trace(
            pattern, 1_500, config, seed=6,
            write_fraction=0.2,
            interarrival_ns=6.0, interarrival="poisson",
        )
        event = replay_event(
            MemorySystem(config),
            [type(r)(r.op, r.addr, r.timestamp) for r in trace],
        )
        fast = MemorySystem(config).replay(trace)
        # makespan and integer counters are bit-exact in every tier;
        # the vectorized tier's Tally means may differ by an ulp
        # (numpy pairwise sums vs sequential accumulation)
        assert event.makespan_ns == fast.makespan_ns
        assert event.n_requests == fast.n_requests
        assert (event.row_hits, event.row_misses, event.row_conflicts) == (
            fast.row_hits, fast.row_misses, fast.row_conflicts
        )
        for key, expected in event.summary().items():
            assert fast.summary()[key] == pytest.approx(
                expected, rel=1e-12
            ), key

    def test_bursty_arrivals_stretch_the_makespan(self):
        """Slower offered load dominates the makespan: the trace ends
        no earlier than its last arrival."""
        config = MemSysConfig()
        trace = synthesize_trace(
            "sequential", 400, config, seed=0,
            interarrival_ns=50.0, interarrival="poisson",
        )
        stats = MemorySystem(config).replay(trace)
        last_arrival = trace[-1].timestamp
        assert stats.makespan_ns >= last_arrival
