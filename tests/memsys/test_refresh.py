"""Refresh (tREFI/tRFC) and timestamped-arrival modeling.

Covers the :class:`RefreshSchedule` fence arithmetic, the config
surface, the physical effects (bandwidth overhead ~ tRFC/tREFI, row
closures, per-bank masking), and — most importantly — the
equivalence grid over (refresh on/off x granularity) x
(timestamped/line-rate) x policy x pattern: every combination must
produce identical statistics from the event oracle and the replay path,
whichever tier serves it, and obey the timing laws.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsys import (
    Coordinates,
    MemRequest,
    MemSysConfig,
    MemorySystem,
    Op,
    RefreshSchedule,
    synthesize_trace,
)
from repro.telemetry import ReplayTelemetry

from .event_oracle import replay_event
from .test_fastpath import (
    assert_stats_equivalent,
    replay_against_oracle,
    replay_both,
)
from .test_timestamped_closed_form import fifo_unstalled

#: HBM2-class refresh timings (ns).
TREFI, TRFC = 3900.0, 350.0


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

    @pytest.mark.parametrize(
        "granularity, trfc",
        (
            # 3.0 + trfc rounds to 6.0: the first blackout would end
            # on the second boundary, and every later one on the next
            ("per-rank", math.nextafter(3.0, 0.0)),
            ("per-rank", 3.0 - 1e-9),
            ("per-bank", 0.75 - 1e-9),
        ),
    )
    def test_blackout_ending_on_the_next_boundary_rejected(
        self, granularity, trfc
    ):
        with pytest.raises(ValueError, match="float-safe gap"):
            RefreshSchedule(3.0, trfc, granularity, 4)
        with pytest.raises(ValueError, match="float-safe gap"):
            MemSysConfig(
                n_channels=1, bankgroups=2, banks_per_group=2,
                trefi_ns=3.0, trfc_ns=trfc,
                refresh_granularity=granularity,
            )
        # a gap of a few parts per million still refreshes
        RefreshSchedule(3.0, 3.0 * (1 - 2.0**-18), "per-rank", 4)


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
        assert_stats_equivalent(event_stats, fast_stats, rel=None)
        if granularity == "per-bank":
            # per-bank blackouts depend on the selected request: the
            # closed form never takes them
            expected = "fast-exact"
        else:
            # per-rank refresh takes the closed form wherever the
            # oracle serves FIFO without backpressure (both rates here
            # overload the one channel)
            telemetry = ReplayTelemetry(profile=False)
            replay_event(MemorySystem(config), trace, telemetry)
            times = np.array([r.timestamp for r in trace])
            expected = (
                "fast-vectorized"
                if fifo_unstalled(telemetry.recorder, times)
                else "fast-exact"
            )
        assert fast_system.last_replay_engine == expected

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


def epoch_edges(recorder, refresh):
    """Per-epoch request counts of a one-channel line-rate replay, and
    at each boundary the previous finish ``F``, the blackout end and
    the first start of the new epoch."""
    start, finish = recorder.start_service, recorder.finish
    epoch = np.floor(start / refresh.trefi_ns)
    first = np.flatnonzero(epoch[1:] > epoch[:-1]) + 1
    fence = epoch[first] * refresh.trefi_ns + refresh.trfc_ns
    counts = np.diff(np.r_[0, first, start.shape[0]])
    return counts, finish[first - 1], fence, start[first]


def lockstep_trace(config, n, ab_every, run=8):
    """All-bank PIM commands on channel 0, ``run`` per row, with an AB
    register broadcast after every ``ab_every``-th one (0: none)."""
    amap = config.address_map()
    trace = []
    for i in range(n):
        addr = amap.encode(
            Coordinates(row=(i // run) % config.rows_per_bank, column=i % 8)
        )
        trace.append(MemRequest(Op.PIM, addr))
        if ab_every and i % ab_every == ab_every - 1:
            trace.append(MemRequest(Op.AB, addr))
    return trace


class TestEpochResolve:
    """Line-rate streams under per-rank refresh whose epochs the closed
    form cannot all solve as one batch: each is byte-identical to the
    event oracle (stats, every recorded array, row counts, open rows)
    and obeys the timing laws."""

    def resolve(self, config, trace):
        engine, recorder, _ = replay_against_oracle(config, trace)
        assert engine == "fast-vectorized"
        return epoch_edges(recorder, config.refresh_schedule())

    def test_epoch_count_changes(self):
        """A conflict-bound block, then row-hit epochs."""
        config = MemSysConfig(n_channels=1, trefi_ns=TREFI, trfc_ns=TRFC)
        trace = synthesize_trace(
            "random", 600, config, seed=5
        ) + synthesize_trace("sequential", 2400, config)
        counts, *_ = self.resolve(config, trace)
        assert len(set(counts[1:-1].tolist())) > 1

    def test_finish_after_the_fence(self):
        """tRFC shorter than a row conflict: one conflict ends an epoch
        of the usual count after the next blackout ended, so the next
        epoch starts at that finish, not at its fence."""
        config = MemSysConfig(
            n_channels=1, policy="fcfs", trefi_ns=100.0, trfc_ns=5.0
        )
        amap = config.address_map()
        # 38 requests per epoch after the first 40; the last request of
        # epoch 7 (index 40 + 7 * 38 - 1) conflicts
        trace = [
            MemRequest(
                Op.READ,
                amap.encode(Coordinates(row=int(j == 305), column=j % 8)),
            )
            for j in range(600)
        ]
        counts, finish, fence, first = self.resolve(config, trace)
        late = np.flatnonzero(finish > fence)
        assert late.tolist() == [7]  # the boundary into epoch 8
        assert counts[1:8].tolist() == [38] * 7
        assert first[7] == finish[7]

    def test_fractional_fences(self):
        """Fences and services off the integer grid: the stall
        ``F + (fence - F)`` still lands exactly on every fence (``F`` is
        within a factor of two of it, so the difference is exact)."""
        config = MemSysConfig(
            n_channels=1, trefi_ns=97.7, trfc_ns=12.3, precharge_ns=0.3
        )
        trace = synthesize_trace("sequential", 3000, config)
        counts, finish, fence, first = self.resolve(config, trace)
        stalled = finish < fence
        assert stalled.all()
        assert np.array_equal(first, fence)
        assert np.any(fence % 1.0 != 0.0)

    def test_one_request_per_epoch(self):
        config = MemSysConfig(
            n_channels=1,
            scheme="bank-interleaved",
            policy="fcfs",
            trefi_ns=25.0,
            trfc_ns=10.0,
        )
        # one bank per epoch: only the last one ends open
        trace = synthesize_trace("sequential", 400, config)
        counts, *_ = self.resolve(config, trace)
        assert np.all(counts[1:] == 1)

    @pytest.mark.parametrize("ab_every", (0, 3))
    def test_pim_lockstep(self, ab_every):
        config = MemSysConfig(n_channels=1, trefi_ns=500.0, trfc_ns=60.0)
        self.resolve(config, lockstep_trace(config, 2000, ab_every))

    def test_closed_row_policy(self):
        config = MemSysConfig(
            n_channels=1, row_policy="closed", trefi_ns=500.0, trfc_ns=60.0
        )
        trace = synthesize_trace("sequential", 2000, config)
        counts, *_ = self.resolve(config, trace)
        assert len(counts) > 50


#: (tREFI, tRFC) pairs spanning one to ~100 requests per epoch, with
#: blackouts longer and shorter than a row conflict (22 ns) and fences
#: off the integer grid.
REFRESH_PAIRS = (
    (25.0, 10.0),
    (40.0, 3.5),
    (97.7, 12.3),
    (150.0, 30.0),
    (300.0, 10.0),
    (500.0, 60.0),
    (611.1, 7.7),
)


#: Mean gaps of timestamped arrivals: above and below a row hit
#: (4 ns) and a conflict (22 ns), so queues both drain and fill; whole
#: numbers, so fixed arrivals tie finishes.
ARRIVAL_GAPS = (2.0, 4.0, 8.0, 22.0)


#: One host block: access pattern, request count, synthesis seed.
HOST_BLOCK = st.tuples(
    st.sampled_from(("sequential", "strided", "random")),
    st.integers(1, 200),
    st.integers(0, 9),
)


@st.composite
def replay_cells(draw):
    """A configuration and trace: 1, 2 or 4 channels; host blocks under
    the open or closed row policy, or a PIM+AB lockstep stream on
    channel 0; FCFS or FR-FCFS; queue depth 1, 2 or 16; refresh off or
    per-rank; line-rate, fixed-interval or Poisson arrivals.

    Every cell draws the same choices in the same order, whichever
    branch uses them.  Hypothesis mutates an example by copying one
    span's choices over another of the same strategy; when the draws
    depended on ``kind`` or ``arrivals``, a copy that flipped the
    branch left the rest of the sequence too short, and the example
    was discarded as an overrun."""
    kind = draw(st.sampled_from(("open", "closed", "lockstep")))
    refresh = draw(st.sampled_from((None,) + REFRESH_PAIRS))
    knobs = {} if refresh is None else dict(
        trefi_ns=refresh[0], trfc_ns=refresh[1]
    )
    config = MemSysConfig(
        n_channels=draw(st.sampled_from((1, 2, 4))),
        scheme="channel-interleaved",
        rows_per_bank=64,
        policy=draw(st.sampled_from(("fcfs", "frfcfs"))),
        queue_depth=draw(st.sampled_from((1, 2, 16))),
        row_policy="closed" if kind == "closed" else "open",
        **knobs,
    )
    steps = draw(st.integers(1, 400))
    ab_every = draw(st.sampled_from((0, 2, 5)))
    run = draw(st.integers(1, 12))
    blocks = draw(st.tuples(HOST_BLOCK, HOST_BLOCK, HOST_BLOCK, HOST_BLOCK))
    n_blocks = draw(st.integers(1, 4))
    arrivals = draw(st.sampled_from(("line-rate", "fixed", "poisson")))
    gap = draw(st.sampled_from(ARRIVAL_GAPS))
    poisson_seed = draw(st.integers(0, 9))
    if kind == "lockstep":
        trace = lockstep_trace(config, steps, ab_every, run=run)
    else:
        trace = [
            request
            for pattern, n, seed in blocks[:n_blocks]
            for request in synthesize_trace(
                pattern, n, config, seed=seed, write_fraction=0.25
            )
        ]
    if arrivals != "line-rate":
        if arrivals == "fixed":
            times = gap * np.arange(len(trace))
        else:
            rng = np.random.default_rng(poisson_seed)
            times = np.cumsum(rng.exponential(gap, len(trace)))
        trace = [
            MemRequest(request.op, request.addr, float(when))
            for request, when in zip(trace, times)
        ]
    return config, trace


def property_settings(max_examples):
    """Derandomized settings for a generated property: ``max_examples``
    examples in tier-1, the ``properties`` profile's budget when pytest
    runs with ``--hypothesis-profile=properties`` (tests/conftest.py)."""
    if settings.get_current_profile_name() == "properties":
        return settings(deadline=None, derandomize=True)
    return settings(
        max_examples=max_examples, deadline=None, derandomize=True
    )


@property_settings(300)
@given(replay_cells())
def test_generated_replays_match_oracle(cell):
    """Whichever tier serves it, a generated replay is byte-identical to
    the event oracle — stats, every recorded array, row counts and open
    rows — and both obey the timing laws."""
    replay_against_oracle(*cell)


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
        """Recorded per-request times and outcomes agree for
        timestamped traces."""
        config = MemSysConfig()
        trace = synthesize_trace(
            "sequential", 512, config, interarrival_ns=6.0
        )
        event = ReplayTelemetry(profile=False)
        replay_event(MemorySystem(config), trace, event)
        fast = ReplayTelemetry(profile=False)
        MemorySystem(config).replay(trace, telemetry=fast)
        for name in ("arrival", "start_service", "finish", "outcome_code"):
            assert (
                getattr(fast.recorder, name).tolist()
                == getattr(event.recorder, name).tolist()
            ), name
