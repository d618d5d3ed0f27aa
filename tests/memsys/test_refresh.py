"""Refresh (tREFI/tRFC) and timestamped-arrival modeling.

Covers the :class:`RefreshSchedule` fence arithmetic, the config
surface, the physical effects (bandwidth overhead ~ tRFC/tREFI, row
closures, per-bank masking), and — most importantly — the
equivalence grid over (refresh on/off x granularity) x
(timestamped/line-rate) x policy x pattern: every combination must
produce identical statistics from the event oracle and the replay path,
whichever tier serves it, and obey the timing laws.
"""

import pytest

from repro.memsys import (
    Coordinates,
    MemRequest,
    MemSysConfig,
    MemorySystem,
    Op,
    RefreshSchedule,
    synthesize_trace,
)

from .event_oracle import replay_event
from .test_fastpath import assert_stats_equivalent, replay_both as _both

#: HBM2-class refresh timings (ns).
TREFI, TRFC = 3900.0, 350.0


def fresh(trace):
    return [MemRequest(r.op, r.addr, r.timestamp) for r in trace]


def replay_both(config, trace):
    return _both(config, trace, copy=fresh)


def pim_all_bank_trace(config, n):
    amap = config.address_map()
    pages = config.timing.pages_per_row
    requests = []
    for i in range(n):
        k = i // config.n_channels
        coords = Coordinates(
            channel=i % config.n_channels,
            row=(k // pages) % config.rows_per_bank,
            column=k % pages,
        )
        requests.append(MemRequest(Op.PIM, amap.encode(coords)))
    return requests


class TestRefreshSchedule:
    def test_epoch_counts_boundaries(self):
        schedule = RefreshSchedule(100.0, 30.0, "per-rank", 4)
        assert schedule.epoch(0.0) == 0
        assert schedule.epoch(99.9) == 0
        assert schedule.epoch(100.0) == 1
        assert schedule.epoch(250.0) == 2

    def test_rank_fence_inside_and_outside_blackout(self):
        schedule = RefreshSchedule(100.0, 30.0, "per-rank", 4)
        assert schedule.rank_fence(50.0) == 50.0  # before first boundary
        assert schedule.rank_fence(100.0) == 130.0
        assert schedule.rank_fence(129.0) == 130.0
        assert schedule.rank_fence(130.0) == 130.0  # blackout end open
        assert schedule.rank_fence(131.0) == 131.0

    def test_bank_fence_staggers_slices(self):
        schedule = RefreshSchedule(200.0, 30.0, "per-bank", 4)
        # bank 0: [200, 230); bank 1: [230, 260); bank 2: [260, 290)
        assert schedule.bank_fence(210.0, 0) == 230.0
        assert schedule.bank_fence(210.0, 1) == 210.0
        assert schedule.bank_fence(240.0, 1) == 260.0
        assert schedule.bank_fence(240.0, 0) == 240.0

    def test_all_bank_fence_waits_out_the_sweep(self):
        schedule = RefreshSchedule(200.0, 30.0, "per-bank", 4)
        assert schedule.all_bank_fence(205.0) == 200.0 + 4 * 30.0
        assert schedule.all_bank_fence(321.0) == 321.0

    def test_validation(self):
        with pytest.raises(ValueError, match="trefi_ns"):
            RefreshSchedule(0.0, 0.0, "per-rank", 4)
        with pytest.raises(ValueError, match="trfc_ns"):
            RefreshSchedule(100.0, 100.0, "per-rank", 4)
        with pytest.raises(ValueError, match="granularity"):
            RefreshSchedule(100.0, 10.0, "per-chip", 4)
        with pytest.raises(ValueError, match="rolling sweep"):
            RefreshSchedule(100.0, 30.0, "per-bank", 4)


class TestConfigSurface:
    def test_defaults_disable_refresh(self):
        config = MemSysConfig()
        assert not config.refresh_enabled
        assert config.refresh_schedule() is None

    def test_enabled_schedule_matches_geometry(self):
        config = MemSysConfig(trefi_ns=TREFI, trfc_ns=TRFC)
        schedule = config.refresh_schedule()
        assert schedule is not None
        assert schedule.n_banks == config.banks_per_channel

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError, match="trefi_ns"):
            MemSysConfig(trefi_ns=-1.0)
        with pytest.raises(ValueError, match="trfc_ns > 0"):
            MemSysConfig(trfc_ns=10.0)
        with pytest.raises(ValueError, match="refresh_granularity"):
            MemSysConfig(
                trefi_ns=TREFI, trfc_ns=TRFC,
                refresh_granularity="per-chip",
            )
        with pytest.raises(ValueError, match="trfc_ns"):
            MemSysConfig(trefi_ns=100.0, trfc_ns=100.0)
        with pytest.raises(ValueError, match="rolling sweep"):
            MemSysConfig(
                trefi_ns=1000.0, trfc_ns=300.0,
                refresh_granularity="per-bank",
            )


class TestRefreshPhysics:
    def test_per_rank_overhead_tracks_blackout_fraction(self):
        base = MemSysConfig(n_channels=1)
        ideal = MemorySystem(base).replay(
            synthesize_trace("sequential", 8000, base)
        )
        refreshed = MemSysConfig(
            n_channels=1, trefi_ns=TREFI, trfc_ns=TRFC
        )
        stats = MemorySystem(refreshed).replay(
            synthesize_trace("sequential", 8000, refreshed)
        )
        overhead = (
            1 - stats.sustained_bits_per_sec / ideal.sustained_bits_per_sec
        )
        blackout = TRFC / TREFI
        assert 0.5 * blackout < overhead < 2.0 * blackout

    def test_refresh_closes_rows(self):
        """A row re-accessed across a boundary pays a fresh activation."""
        config = MemSysConfig(
            n_channels=1, bankgroups=1, banks_per_group=1,
            trefi_ns=100.0, trfc_ns=10.0,
        )
        amap = config.address_map()
        addr = amap.encode(Coordinates(row=3, column=0))
        # same page over and over: without refresh one miss, then hits
        trace = [MemRequest(Op.READ, addr, 60.0 * i) for i in range(4)]
        stats = replay_event(MemorySystem(config), trace)
        # arrivals at 0, 60, 120, 180: boundaries at 100 (before the
        # 120 access) and nothing else in range -> 2 misses total
        assert stats.row_misses == 2
        assert stats.row_hits == 2

    def test_per_bank_masking_beats_per_rank_on_spread_traffic(self):
        base = MemSysConfig(n_channels=1, scheme="bank-interleaved")
        ideal = MemorySystem(base).replay(
            synthesize_trace("random", 8000, base, seed=0)
        )
        rates = {}
        for granularity in ("per-rank", "per-bank"):
            config = MemSysConfig(
                n_channels=1,
                scheme="bank-interleaved",
                trefi_ns=TREFI,
                trfc_ns=TRFC,
                refresh_granularity=granularity,
            )
            stats = MemorySystem(config).replay(
                synthesize_trace("random", 8000, config, seed=0)
            )
            rates[granularity] = stats.sustained_bits_per_sec
        assert rates["per-bank"] > rates["per-rank"]
        # per-bank hides nearly the whole blackout on spread traffic
        assert (
            rates["per-bank"] > 0.97 * ideal.sustained_bits_per_sec
        )

    def test_timestamped_trace_sustains_offered_load(self):
        config = MemSysConfig(n_channels=1)
        spacing = 4 * config.timing.page_access_ns
        trace = synthesize_trace(
            "sequential", 4000, config, interarrival_ns=spacing
        )
        stats = MemorySystem(config).replay(trace)
        offered = config.timing.page_bits / (spacing * 1e-9)
        assert stats.sustained_bits_per_sec == pytest.approx(
            offered, rel=0.05
        )

    def test_leading_idle_counts_in_makespan(self):
        config = MemSysConfig(n_channels=1)
        trace = synthesize_trace(
            "sequential", 16, config,
            interarrival_ns=5.0, start_ns=1000.0,
        )
        event_stats, fast_stats, _ = replay_both(config, trace)
        assert event_stats.makespan_ns > 1000.0
        assert_stats_equivalent(event_stats, fast_stats)


class TestEngineEquivalenceGrid:
    """(refresh x granularity) x (timestamped/line-rate) x policy x
    pattern: both engines must agree on every combination."""

    @pytest.mark.parametrize("granularity", ("per-rank", "per-bank"))
    @pytest.mark.parametrize("policy", ("fcfs", "frfcfs"))
    @pytest.mark.parametrize(
        "pattern", ("sequential", "strided", "random")
    )
    def test_refresh_line_rate(self, granularity, policy, pattern):
        config = MemSysConfig(
            policy=policy,
            trefi_ns=TREFI,
            trfc_ns=TRFC,
            refresh_granularity=granularity,
        )
        trace = synthesize_trace(
            pattern, 1500, config, seed=11, write_fraction=0.25
        )
        event_stats, fast_stats, _ = replay_both(config, trace)
        assert_stats_equivalent(event_stats, fast_stats)

    @pytest.mark.parametrize("policy", ("fcfs", "frfcfs"))
    @pytest.mark.parametrize(
        "pattern", ("sequential", "strided", "random")
    )
    @pytest.mark.parametrize("interarrival", (1.0, 6.0, 30.0))
    def test_timestamped(self, policy, pattern, interarrival):
        config = MemSysConfig(policy=policy)
        trace = synthesize_trace(
            pattern, 1200, config, seed=5,
            write_fraction=0.25, interarrival_ns=interarrival,
        )
        event_stats, fast_stats, _ = replay_both(config, trace)
        assert_stats_equivalent(event_stats, fast_stats)

    @pytest.mark.parametrize("granularity", ("per-rank", "per-bank"))
    @pytest.mark.parametrize("interarrival", (2.0, 20.0))
    def test_timestamped_with_refresh(self, granularity, interarrival):
        config = MemSysConfig(
            trefi_ns=TREFI,
            trfc_ns=TRFC,
            refresh_granularity=granularity,
        )
        trace = synthesize_trace(
            "random", 1000, config, seed=9,
            interarrival_ns=interarrival,
        )
        event_stats, fast_stats, fast_system = replay_both(config, trace)
        assert fast_system.last_replay_engine == "fast-exact"
        assert_stats_equivalent(event_stats, fast_stats, rel=None)

    @pytest.mark.parametrize(
        "scheme", ("bank-interleaved", "channel-interleaved")
    )
    def test_refresh_scheme_spot_checks(self, scheme):
        config = MemSysConfig(
            scheme=scheme, trefi_ns=TREFI, trfc_ns=TRFC
        )
        trace = synthesize_trace("random", 1200, config, seed=3)
        event_stats, fast_stats, _ = replay_both(config, trace)
        assert_stats_equivalent(event_stats, fast_stats)

    @pytest.mark.parametrize("granularity", ("per-rank", "per-bank"))
    def test_refresh_pim_all_bank(self, granularity):
        config = MemSysConfig(
            n_channels=2,
            trefi_ns=TREFI,
            trfc_ns=TRFC,
            refresh_granularity=granularity,
        )
        trace = pim_all_bank_trace(config, 600)
        event_stats, fast_stats, _ = replay_both(config, trace)
        assert_stats_equivalent(event_stats, fast_stats)

    @pytest.mark.parametrize("granularity", ("per-rank", "per-bank"))
    def test_refresh_closed_page(self, granularity):
        config = MemSysConfig(
            row_policy="closed",
            trefi_ns=TREFI,
            trfc_ns=TRFC,
            refresh_granularity=granularity,
        )
        trace = synthesize_trace("strided", 1000, config, seed=2)
        event_stats, fast_stats, _ = replay_both(config, trace)
        assert_stats_equivalent(event_stats, fast_stats)

    def test_faster_epoch_widens_the_scan_window(self, monkeypatch):
        """A conflict-bound epoch followed by row-hit epochs: the next
        epoch's scan window (sized from the previous epoch) holds no
        boundary, so the scan widens — and stays bit-exact."""
        from repro.memsys import fastpath
        from repro.telemetry import ReplayTelemetry

        scans = []
        scan = fastpath._chunk_outcomes

        def counted(*args):
            scans.append(args[0].shape[0])
            return scan(*args)

        monkeypatch.setattr(fastpath, "_chunk_outcomes", counted)
        config = MemSysConfig(n_channels=1, trefi_ns=TREFI, trfc_ns=TRFC)
        trace = synthesize_trace(
            "random", 600, config, seed=5
        ) + synthesize_trace("sequential", 2400, config)
        recorded = {}
        for engine, replay in (
            ("event", replay_event), ("fast", MemorySystem.replay)
        ):
            telemetry = ReplayTelemetry()
            system = MemorySystem(config)
            replay(system, fresh(trace), telemetry=telemetry)
            recorded[engine] = telemetry.recorder
        assert system.last_replay_engine == "fast-vectorized"
        epochs = len(
            set((recorded["fast"].start_service // TREFI).tolist())
        )
        assert len(scans) > epochs  # at least one widened re-scan
        for name in ("arrival", "start_service", "finish", "outcome_code"):
            assert (
                getattr(recorded["event"], name).tolist()
                == getattr(recorded["fast"], name).tolist()
            ), name

    def test_refresh_ab_broadcast_stream(self):
        config = MemSysConfig(
            n_channels=2,
            trefi_ns=TREFI,
            trfc_ns=TRFC,
            refresh_granularity="per-bank",
        )
        host = synthesize_trace("sequential", 300, config)
        trace = []
        for i, request in enumerate(host):
            trace.append(request)
            if i % 3 == 0:
                trace.append(MemRequest(Op.AB, request.addr))
        event_stats, fast_stats, fast_system = replay_both(config, trace)
        assert fast_system.last_replay_engine == "fast-exact"
        assert_stats_equivalent(event_stats, fast_stats, rel=None)

    def test_tight_refresh_interval(self):
        """Fences that bind on almost every epoch stay equivalent."""
        config = MemSysConfig(n_channels=1, trefi_ns=100.0, trfc_ns=30.0)
        trace = synthesize_trace("sequential", 900, config)
        event_stats, fast_stats, _ = replay_both(config, trace)
        assert_stats_equivalent(event_stats, fast_stats)

    def test_timestamped_pim_stream(self):
        config = MemSysConfig(n_channels=2)
        trace = pim_all_bank_trace(config, 400)
        for index, request in enumerate(trace):
            request.timestamp = 3.0 * index
        event_stats, fast_stats, _ = replay_both(config, trace)
        assert_stats_equivalent(event_stats, fast_stats)


class TestTierSelection:
    def test_refresh_streaming_vectorizes(self):
        config = MemSysConfig(
            n_channels=2, scheme="channel-interleaved",
            trefi_ns=TREFI, trfc_ns=TRFC,
        )
        system = MemorySystem(config)
        system.replay(
            synthesize_trace("sequential", 4096, config), engine="fast"
        )
        assert system.last_replay_engine == "fast-vectorized"

    def test_per_bank_refresh_takes_exact_tier(self):
        config = MemSysConfig(
            trefi_ns=TREFI, trfc_ns=TRFC,
            refresh_granularity="per-bank",
        )
        system = MemorySystem(config)
        system.replay(
            synthesize_trace("sequential", 512, config), engine="fast"
        )
        assert system.last_replay_engine == "fast-exact"

    def test_fcfs_random_vectorizes_via_arrival_fixed_point(self):
        config = MemSysConfig(policy="fcfs")
        system = MemorySystem(config)
        system.replay(
            synthesize_trace("random", 2048, config, seed=1),
            engine="fast",
        )
        assert system.last_replay_engine == "fast-vectorized"

    def test_sparse_timestamped_fcfs_random_vectorizes(self):
        """Timestamped arrivals subsume the line-rate certificate:
        backpressure-free random traffic stays in the closed form."""
        config = MemSysConfig(policy="fcfs")
        system = MemorySystem(config)
        system.replay(
            synthesize_trace(
                "random", 2048, config, seed=1, interarrival_ns=40.0
            ),
            engine="fast",
        )
        assert system.last_replay_engine == "fast-vectorized"

    def test_backpressured_timestamps_fall_back(self):
        """Arrivals faster than service overflow the queue: the
        backpressure certificate fails and the exact tier serves."""
        config = MemSysConfig(n_channels=1, policy="fcfs")
        system = MemorySystem(config)
        system.replay(
            synthesize_trace(
                "random", 1024, config, seed=1, interarrival_ns=0.5
            ),
            engine="fast",
        )
        assert system.last_replay_engine == "fast-exact"


class TestMixedTimestampValidation:
    def test_mixed_presence_rejected_at_replay(self):
        config = MemSysConfig()
        trace = [
            MemRequest(Op.READ, 0, 1.0),
            MemRequest(Op.READ, 64),
        ]
        with pytest.raises(ValueError, match="mixes"):
            MemorySystem(config).replay(trace)

    def test_decreasing_timestamps_rejected_at_replay(self):
        config = MemSysConfig()
        trace = [
            MemRequest(Op.READ, 0, 5.0),
            MemRequest(Op.READ, 64, 1.0),
        ]
        with pytest.raises(ValueError, match="decreases"):
            MemorySystem(config).replay(trace)

    def test_write_back_matches_between_engines(self):
        """Per-request runtime fields agree for timestamped traces."""
        config = MemSysConfig()
        trace = synthesize_trace(
            "sequential", 512, config, interarrival_ns=6.0
        )
        event_trace = fresh(trace)
        replay_event(MemorySystem(config), event_trace)
        fast_trace = fresh(trace)
        MemorySystem(config).replay(fast_trace)
        for event_req, fast_req in zip(event_trace, fast_trace):
            assert fast_req.arrival == event_req.arrival
            assert fast_req.start_service == event_req.start_service
            assert fast_req.finish == event_req.finish
            assert fast_req.outcome == event_req.outcome
