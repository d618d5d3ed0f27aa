"""The reductions the telemetry documents share through the recorder.

The time-series, energy, and timeline builders read one set of derived
reductions per recorder (busy unions, the channel/bank grouping, window
indices, per-event energies).  These tests pin the queue-depth step
function — the production form and the sort-based oracle of
``step_oracle.py`` — against naive references, and check that the cache
can never leak between coefficient tables or make a document depend on
which builder ran first.
"""

import numpy as np
import pytest

from repro.memsys import MemSysConfig, MemorySystem, synthesize_trace
from repro.pimexec import build_kernel, compare_host_pim
from repro.telemetry import (
    ALL_BANKS,
    EnergyCoefficients,
    ReplayTelemetry,
    build_energy,
    build_timeline,
    build_timeseries,
)
from repro.telemetry.timeseries import _depth_step, _max_per_window
from tests.telemetry.step_oracle import step_function

REFRESH = dict(trefi_ns=3900.0, trfc_ns=350.0)


def naive_step(plus, minus):
    """Value after all events at each distinct instant, by counting."""
    times = sorted(set(plus.tolist()) | set(minus.tolist()))
    values = [
        sum(p <= t for p in plus.tolist())
        - sum(m <= t for m in minus.tolist())
        for t in times
    ]
    return np.array(times, dtype=np.float64), np.array(values, dtype=float)


def both_steps(plus, minus):
    """``(times, values)`` of the production depth step and of the
    oracle, for the same events."""
    step = _depth_step(plus, minus)
    return [(step.times, step.values), step_function(plus, minus)]


class TestStepFunction:
    def test_empty_input(self):
        for times, values in both_steps(np.empty(0), np.empty(0)):
            assert times.shape == (0,) and values.shape == (0,)
            assert values.dtype == np.float64

    def test_coincident_plus_and_minus_cancel(self):
        plus = np.array([1.0, 2.0, 2.0, 5.0])
        minus = np.array([2.0, 2.0, 5.0, 7.0])
        ref_times, ref_values = naive_step(plus, minus)
        assert ref_times.tolist() == [1.0, 2.0, 5.0, 7.0]
        assert ref_values.tolist() == [1.0, 1.0, 1.0, 0.0]
        for times, values in both_steps(plus, minus):
            assert times.tolist() == ref_times.tolist()
            assert values.tolist() == ref_values.tolist()

    @pytest.mark.parametrize("seed", range(5))
    def test_unsorted_input_with_ties_matches_naive(self, seed):
        rng = np.random.default_rng(seed)
        plus = rng.integers(0, 40, size=120).astype(np.float64)
        minus = plus + rng.integers(0, 6, size=120)
        order = rng.permutation(120)
        ref_times, ref_values = naive_step(plus, minus)
        for times, values in both_steps(
            plus[order], minus[rng.permutation(120)]
        ):
            assert times.tolist() == ref_times.tolist()
            assert values.tolist() == ref_values.tolist()

    @pytest.mark.parametrize("seed", range(3))
    def test_max_per_window_matches_naive(self, seed):
        rng = np.random.default_rng(seed)
        plus = rng.uniform(0.0, 90.0, size=80)
        minus = plus + rng.uniform(0.0, 12.0, size=80)
        step = _depth_step(plus, minus)
        count, window_ns = 7, 100.0 / 7
        edges = np.arange(count + 1) * window_ns
        maxes = _max_per_window(step, edges, window_ns, count)
        times, values = step.times.tolist(), step.values.tolist()
        for w in range(count):
            carried = [v for t, v in zip(times, values) if t <= edges[w]]
            # events past the last edge fold into the last window
            inside = [
                v
                for t, v in zip(times, values)
                if min(int(t // window_ns), count - 1) == w
            ]
            expected = max(carried[-1:] + inside, default=0.0)
            assert maxes[w] == expected, w


def host_replay(refresh=True):
    config = MemSysConfig(
        n_channels=2, scheme="channel-interleaved", **(REFRESH if refresh else {})
    )
    trace = synthesize_trace(
        "random", 600, config, seed=4, write_fraction=0.3, packed=True
    )
    telemetry = ReplayTelemetry()
    MemorySystem(config).replay(trace, telemetry=telemetry)
    return telemetry


def pim_replay():
    kernel = build_kernel("gemv", config=MemSysConfig(**REFRESH))
    telemetry = ReplayTelemetry()
    compare_host_pim(kernel, telemetry=telemetry)
    return telemetry


REPLAYS = {"host": host_replay, "pim": pim_replay}


class TestRowGrouping:
    @pytest.mark.parametrize("kind", sorted(REPLAYS))
    def test_rows_match_masks_in_trace_order(self, kind):
        recorder = REPLAYS[kind]().recorder
        channel, bank = recorder.channel, recorder.bank
        seen = 0
        for ch in range(int(channel.max()) + 1):
            expected = np.flatnonzero(channel == ch)
            assert np.array_equal(recorder.rows(ch), expected)
            for b in [ALL_BANKS] + sorted(set(bank.tolist()) - {ALL_BANKS}):
                rows = recorder.rows(ch, b)
                assert np.array_equal(
                    rows, np.flatnonzero((channel == ch) & (bank == b))
                )
                seen += rows.shape[0]
        assert seen == recorder.n

    def test_unknown_group_is_empty(self):
        recorder = host_replay().recorder
        assert recorder.rows(99).shape == (0,)
        assert recorder.rows(0, 10_000).shape == (0,)


class TestSharedCache:
    @pytest.mark.parametrize("kind", sorted(REPLAYS))
    def test_builder_order_does_not_matter(self, kind):
        make = REPLAYS[kind]
        energy_first = make()
        a_energy = repr(build_energy(energy_first))
        a_series = repr(build_timeseries(energy_first))
        series_first = make()
        b_series = repr(build_timeseries(series_first))
        b_energy = repr(build_energy(series_first))
        fresh_energy = repr(build_energy(make()))
        fresh_series = repr(build_timeseries(make()))
        assert a_energy == b_energy == fresh_energy
        assert a_series == b_series == fresh_series

    def test_timeline_after_documents_matches_a_fresh_one(self):
        used = pim_replay()
        build_timeseries(used)
        build_energy(used, coefficients=EnergyCoefficients(act_pj=1.0))
        assert repr(build_timeline(used)) == repr(build_timeline(pim_replay()))

    def test_coefficient_tables_never_share_an_entry(self):
        first = EnergyCoefficients()
        second = EnergyCoefficients(act_pj=17.0, pim_lane_pj=9.5)
        shared = pim_replay()
        one = repr(build_energy(shared, coefficients=first))
        two = repr(build_energy(shared, coefficients=second))
        assert one == repr(build_energy(pim_replay(), coefficients=first))
        assert two == repr(build_energy(pim_replay(), coefficients=second))
        assert one != two

    def test_grids_never_share_an_entry(self):
        shared = host_replay()
        coarse = repr(build_timeseries(shared, n_windows=5))
        fine = repr(build_timeseries(shared, n_windows=9))
        assert coarse == repr(build_timeseries(host_replay(), n_windows=5))
        assert fine == repr(build_timeseries(host_replay(), n_windows=9))

    def test_cache_belongs_to_one_recorder(self):
        first, second = host_replay(), host_replay(refresh=False)
        build_energy(first)
        assert first.recorder._derived
        assert not second.recorder._derived
