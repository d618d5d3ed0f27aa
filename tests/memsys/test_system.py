"""Integration tests: controllers, scheduling, and the analytic cross-check."""

import copy

import numpy as np
import pytest

from repro.arch.dram import (
    DramMacroTiming,
    effective_access_time_ns,
    macro_bandwidth_bits_per_sec,
)
from repro.memsys import (
    Coordinates,
    MemRequest,
    MemSysConfig,
    MemorySystem,
    Op,
    synthesize_trace,
)
from repro.telemetry import OUTCOME_NAMES, ReplayTelemetry

from .controller import ChannelController


def single_macro(**kw) -> MemSysConfig:
    return MemSysConfig(
        n_channels=1, bankgroups=1, banks_per_group=1, **kw
    )


def interleaved_two_row_trace(config: MemSysConfig, n: int):
    """Pages of rows 1 and 2 of one bank, strictly alternating."""
    amap = config.address_map()
    pages = [
        amap.encode(Coordinates(row=row, column=col))
        for col in range(config.timing.pages_per_row)
        for row in (1, 2)
    ]
    return [MemRequest(Op.READ, pages[i % len(pages)]) for i in range(n)]


def recorded(config, trace):
    """The latency recorder of one replay of ``trace``."""
    telemetry = ReplayTelemetry(profile=False)
    MemorySystem(config).replay(trace, telemetry=telemetry)
    return telemetry.recorder


def outcomes(recorder):
    """Recorded row-buffer outcomes, by name, in trace order."""
    return [OUTCOME_NAMES[code] for code in recorder.outcome_code]


class TestConfigValidation:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            MemSysConfig(n_channels=3)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            MemSysConfig(policy="lifo")

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            MemSysConfig(scheme="diagonal")

    def test_rejects_bad_queue_depth(self):
        with pytest.raises(ValueError, match="queue_depth"):
            MemSysConfig(queue_depth=0)
        with pytest.raises(ValueError, match="queue_depth"):
            MemSysConfig(queue_depth=-3)

    def test_rejects_negative_precharge(self):
        with pytest.raises(ValueError, match="precharge_ns"):
            MemSysConfig(precharge_ns=-1.0)

    def test_rejects_unknown_row_policy(self):
        with pytest.raises(ValueError, match="row_policy"):
            MemSysConfig(row_policy="adaptive")

    def test_controller_rejects_bad_depth(self):
        from repro.memsys import Bank

        with pytest.raises(ValueError):
            ChannelController(0, [Bank()], queue_depth=0)

    def test_replay_separates_bankgroups(self):
        """Flat bank indices must not alias bankgroups."""
        config = MemSysConfig(n_channels=1, bankgroups=2, banks_per_group=2)
        amap = config.address_map()
        system = MemorySystem(config)
        system.replay(
            [
                MemRequest(Op.READ, amap.encode(Coordinates(row=1))),
                MemRequest(
                    Op.READ,
                    amap.encode(Coordinates(bankgroup=1, row=2)),
                ),
            ]
        )
        banks = system.banks[0]
        assert banks[0].open_row == 1
        assert banks[2].open_row == 2  # group 1 starts at flat index 2

    def test_empty_replay_rejected(self):
        with pytest.raises(ValueError):
            MemorySystem(single_macro()).replay([])

    def test_second_replay_rejected(self):
        """Counters are cumulative, so reuse must fail loudly."""
        config = single_macro()
        system = MemorySystem(config)
        system.replay(synthesize_trace("sequential", 16, config))
        with pytest.raises(RuntimeError, match="fresh MemorySystem"):
            system.replay(synthesize_trace("sequential", 16, config))


class TestAnalyticCrossCheck:
    def test_streaming_frfcfs_matches_macro_bandwidth(self):
        """The headline check: simulated sustained bandwidth of a
        streaming trace lands within 5% of the closed form."""
        config = single_macro()
        stats = MemorySystem(config).replay(
            synthesize_trace("sequential", 2048, config)
        )
        analytic = macro_bandwidth_bits_per_sec(config.timing)
        assert stats.sustained_bits_per_sec == pytest.approx(
            analytic, rel=0.05
        )

    def test_random_trace_matches_hit_ratio_model(self):
        config = single_macro()
        stats = MemorySystem(config).replay(
            synthesize_trace("random", 2048, config, seed=5)
        )
        predicted = config.timing.page_bits / (
            effective_access_time_ns(
                config.timing, stats.row_hit_rate
            )
            * 1e-9
        )
        assert stats.sustained_bits_per_sec == pytest.approx(
            predicted, rel=0.10
        )

    def test_custom_timing_tracks_analytic(self):
        timing = DramMacroTiming(
            row_bits=4096, page_bits=512,
            row_access_ns=30.0, page_access_ns=3.0,
        )
        config = single_macro(timing=timing, rows_per_bank=1024)
        stats = MemorySystem(config).replay(
            synthesize_trace("sequential", 1024, config)
        )
        analytic = macro_bandwidth_bits_per_sec(timing)
        assert stats.sustained_bits_per_sec == pytest.approx(
            analytic, rel=0.05
        )


class TestScheduling:
    def test_frfcfs_beats_fcfs_row_hit_rate(self):
        trace = interleaved_two_row_trace(single_macro(), 512)
        rates = {}
        for policy in ("fcfs", "frfcfs"):
            config = single_macro(policy=policy)
            stats = MemorySystem(config).replay(trace)
            rates[policy] = stats.row_hit_rate
        assert rates["fcfs"] == pytest.approx(0.0)
        assert rates["frfcfs"] > 0.8
        assert rates["frfcfs"] > rates["fcfs"]

    def test_fcfs_preserves_arrival_order(self):
        config = single_macro(policy="fcfs", queue_depth=8)
        trace = interleaved_two_row_trace(config, 64)
        finishes = recorded(config, trace).finish.tolist()
        assert finishes == sorted(finishes)


class TestSystemBehavior:
    def test_channel_interleaving_scales_bandwidth(self):
        flat = MemSysConfig(n_channels=2, scheme="row-major")
        spread = MemSysConfig(n_channels=2, scheme="channel-interleaved")
        bw = {}
        for name, config in (("flat", flat), ("spread", spread)):
            stats = MemorySystem(config).replay(
                synthesize_trace("sequential", 1024, config)
            )
            bw[name] = stats.sustained_bits_per_sec
        assert bw["spread"] > 1.5 * bw["flat"]

    def test_pim_all_bank_moves_all_banks_data(self):
        config = MemSysConfig(
            n_channels=1, bankgroups=2, banks_per_group=2
        )
        amap = config.address_map()
        system = MemorySystem(config)
        trace = [
            MemRequest(
                Op.PIM,
                amap.encode(Coordinates(row=i // 8, column=i % 8)),
            )
            for i in range(256)
        ]
        stats = system.replay(trace)
        per_request = config.banks_per_channel * config.timing.page_bits
        assert stats.total_bits == 256 * per_request
        # lockstep all-bank streaming reclaims ~n_banks x one macro
        analytic = macro_bandwidth_bits_per_sec(config.timing)
        assert stats.sustained_bits_per_sec == pytest.approx(
            config.banks_per_channel * analytic, rel=0.05
        )

    def test_closed_page_policy_flattens_every_access_to_a_miss(self):
        config = single_macro(row_policy="closed")
        stats = MemorySystem(config).replay(
            synthesize_trace("sequential", 128, config)
        )
        assert stats.row_hits == 0
        assert stats.row_conflicts == 0
        assert stats.row_misses == 128
        # every access pays a fresh activation: 22 ns per request
        assert stats.makespan_ns == pytest.approx(128 * 22.0)

    def test_closed_page_equals_open_on_no_reuse_traffic(self):
        """With one access per row, the two policies cost the same."""
        config_open = single_macro()
        config_closed = single_macro(row_policy="closed")
        amap = config_open.address_map()
        trace = [
            MemRequest(Op.READ, amap.encode(Coordinates(row=i)))
            for i in range(64)
        ]
        open_stats = MemorySystem(config_open).replay(trace)
        closed_stats = MemorySystem(config_closed).replay(trace)
        assert (
            closed_stats.makespan_ns == open_stats.makespan_ns
        )

    def test_ab_broadcast_served_at_page_rate_without_bank_state(self):
        config = single_macro()
        system = MemorySystem(config)
        requests = [
            MemRequest(Op.AB, 0),
            MemRequest(Op.AB, 0),
            MemRequest(Op.AB, 0),
        ]
        telemetry = ReplayTelemetry(profile=False)
        stats = system.replay(requests, telemetry=telemetry)
        # one column access each, no activations anywhere
        assert stats.makespan_ns == pytest.approx(
            3 * config.timing.page_access_ns
        )
        assert stats.row_hits + stats.row_misses == 0
        assert outcomes(telemetry.recorder) == ["broadcast"] * 3
        assert stats.total_bits == 3 * config.timing.page_bits
        bank = system.banks[0][0]
        assert bank.open_row is None and bank.accesses == 0

    def test_frfcfs_does_not_reorder_across_ab_broadcast(self):
        """A younger row hit must not overtake a register broadcast."""
        config = single_macro(queue_depth=8)
        amap = config.address_map()
        trace = [
            MemRequest(Op.READ, amap.encode(Coordinates(row=1))),
            MemRequest(Op.AB, 0),
            MemRequest(Op.READ, amap.encode(Coordinates(row=1))),
        ]
        recorder = recorded(config, trace)
        # service order is arrival order: the hit waits for the AB
        assert recorder.finish[1] <= recorder.start_service[2]
        assert outcomes(recorder)[2] == "hit"

    def test_request_timestamps_and_outcomes(self):
        config = single_macro(queue_depth=4)
        trace = synthesize_trace("sequential", 32, config)
        telemetry = ReplayTelemetry(profile=False)
        stats = MemorySystem(config).replay(trace, telemetry=telemetry)
        recorder = telemetry.recorder
        assert np.all(recorder.arrival <= recorder.start_service)
        assert np.all(recorder.start_service <= recorder.finish)
        assert set(outcomes(recorder)) <= {"hit", "miss", "conflict"}
        assert stats.total_bits == 32 * config.timing.page_bits

    def test_replay_leaves_its_input_untouched(self):
        """A replay reads its request objects and never writes them:
        the same list replays twice to identical statistics."""
        config = MemSysConfig()
        trace = synthesize_trace(
            "random", 512, config, seed=4, interarrival_ns=3.0
        )
        before = copy.deepcopy(trace)
        first = MemorySystem(config).replay(trace)
        second = MemorySystem(config).replay(trace)
        assert repr(second) == repr(first)
        assert trace == before

    def test_replay_accepts_iterators(self):
        config = single_macro()
        stats = MemorySystem(config).replay(
            iter(synthesize_trace("sequential", 32, config))
        )
        assert stats.n_requests == 32

    def test_stats_reduction_shapes(self):
        config = MemSysConfig()
        stats = MemorySystem(config).replay(
            synthesize_trace("random", 256, config, seed=2)
        )
        assert stats.n_requests == 256
        assert (
            stats.row_hits + stats.row_misses + stats.row_conflicts
            == 256
        )
        assert 0.0 <= stats.row_hit_rate <= 1.0
        assert stats.mean_queue_latency_ns > 0
        assert 0.0 < stats.channel_utilization <= 1.0
        # a per-channel average can never exceed the queue depth
        assert 0.0 < stats.mean_queue_length <= config.queue_depth
        assert len(stats.per_channel) == config.n_channels
        assert len(stats.to_rows()) == config.n_channels
        assert stats.summary()["requests"] == 256

    def test_single_read_latency(self):
        config = single_macro()
        stats = MemorySystem(config).replay([MemRequest(Op.READ, 0)])
        assert stats.makespan_ns == pytest.approx(22.0)  # activate + page
