"""The windowed derivations against golden digests and the sort-based
oracle.

The time-series, energy and timeline builders derive busy unions from
the channels' disjoint service spans, window indices from sorted cuts,
and refresh coverage in blocks of edges.  These tests pin them three
ways:

* whole documents of four replays (``derivation_replays.py``) hash to
  digests recorded with the sort-based derivation, so no form changed
  a bit of any document;
* each form matches the oracle of ``step_oracle.py`` bit for bit on
  generated inputs: back-to-back and out-of-order spans, empty and
  single-span inputs, instants exactly on window edges and past the
  last one, and a one-window grid;
* a span that overlaps the next on its channel stops the derivation
  with :class:`~repro.errors.ServiceOverlapError`.
"""

import types

import numpy as np
import pytest

from repro.errors import ReproError, ServiceOverlapError
from repro.memsys import check_laws
from repro.telemetry import build_energy, build_timeseries
from repro.telemetry import timeseries
from repro.telemetry.timeseries import (
    _busy_at,
    _busy_per_window,
    _coverage_per_window,
    _depth_step,
    _finish_sums,
    _Finishes,
    _integral_at,
    _max_per_window,
    _spans,
    _window_bounds,
    _window_counts,
    _window_index,
)
from tests.telemetry import step_oracle as oracle
from tests.telemetry.derivation_replays import REPLAYS, digests

#: ``digests()`` of every replay, recorded with the sort-based
#: derivation this module's forms replaced.
GOLDEN = {
    "stream-refresh": {
        "timeseries": "8e53bb6d587fbae3",
        "timeseries-window-ns": "2bf0d96324d461f6",
        "energy": "4bbcb90712f1ab48",
        "timeline": "903e153af5bee33c",
    },
    "frfcfs-hoist": {
        "timeseries": "5800e5defcdffc88",
        "timeseries-window-ns": "addc0ff5daca2da8",
        "energy": "0640b18175919c58",
        "timeline": "023956bd7c659aec",
    },
    "per-bank-refresh": {
        "timeseries": "9aaf598114a5ac54",
        "timeseries-window-ns": "7bdf4ea78825cb97",
        "energy": "410949376b846cab",
        "timeline": "d61ff4dd7eefbdc3",
    },
    "pim-ab": {
        "timeseries": "a230963143d9c3e2",
        "timeseries-window-ns": "599096ac5b9c26eb",
        "energy": "77cdf7ec6ca1763b",
        "timeline": "c4d01b8aa273fd69",
    },
}


@pytest.mark.parametrize("name", sorted(REPLAYS))
def test_documents_match_golden_digests(name):
    assert digests(REPLAYS[name]()) == GOLDEN[name]


def test_golden_replays_cover_unsorted_starts_and_all_bank_rows():
    """The replays reach the argsort and merge branches of the span
    ordering, not only trace-ordered channels."""
    hoisted = 0
    for name in ("frfcfs-hoist", "per-bank-refresh", "pim-ab"):
        recorder = REPLAYS[name]().recorder
        for ch in range(2):
            start = recorder.start_service[recorder.rows(ch)]
            hoisted += int(np.sum(start[1:] < start[:-1]))
    assert hoisted > 0
    pim = REPLAYS["pim-ab"]().recorder
    assert pim.rows(0, -1).shape[0] and pim.rows(0, 0).shape[0]


# ----------------------------------------------------------------------
# generated inputs
# ----------------------------------------------------------------------
def grids(makespan, widths=(1.0, 5.0)):
    """``(edges, window_ns)`` grids over ``makespan``: equal windows,
    one window, and explicit widths whose edges overhang the last
    instant or fall on whole nanoseconds."""
    out = []
    for count in (1, 3, 7, 64):
        window_ns = makespan / count
        out.append(
            (np.arange(count + 1, dtype=np.float64) * window_ns, window_ns)
        )
    for window_ns in widths + (makespan * 0.37,):
        count = max(1, int(np.ceil(makespan / window_ns)))
        out.append(
            (np.arange(count + 1, dtype=np.float64) * window_ns, window_ns)
        )
    return out


def disjoint_spans(rng, n, whole):
    """``n`` disjoint spans in start order; about a third run back to
    back (zero gap)."""
    if whole:
        lengths = rng.integers(1, 6, size=n).astype(np.float64)
        gaps = rng.integers(0, 4, size=n).astype(np.float64)
    else:
        lengths = rng.uniform(0.25, 5.0, size=n)
        gaps = rng.uniform(0.0, 3.0, size=n)
    gaps[rng.random(n) < 0.35] = 0.0
    start = np.cumsum(gaps + np.r_[0.0, lengths[:-1]])
    return start, start + lengths


def on_recorder(start, finish):
    return types.SimpleNamespace(start_service=start, finish=finish)


def span_cases():
    cases = [
        ("empty", np.empty(0), np.empty(0)),
        ("single", np.array([3.0]), np.array([7.5])),
        ("back-to-back", np.array([0.0, 2.0, 4.0]), np.array([2.0, 4.0, 9.0])),
    ]
    for seed in range(6):
        rng = np.random.default_rng(seed)
        start, finish = disjoint_spans(rng, 200, whole=seed % 2 == 0)
        cases.append((f"sorted-{seed}", start, finish))
        # hoists: trace order is not start order
        order = rng.permutation(200)
        cases.append((f"shuffled-{seed}", start[order], finish[order]))
    return cases


SPAN_CASES = span_cases()


class TestBusySpans:
    @pytest.mark.parametrize(
        "name,start,finish", SPAN_CASES, ids=[c[0] for c in SPAN_CASES]
    )
    def test_busy_per_window_matches_the_union(self, name, start, finish):
        spans = _spans(
            on_recorder(start, finish), np.arange(start.shape[0]), 0
        )
        union = oracle.occupancy_step(start, finish)
        makespan = float(finish.max()) if finish.shape[0] else 10.0
        for edges, window_ns in grids(makespan):
            ours = _busy_per_window(spans, edges, window_ns)
            theirs = oracle.mean_per_window(union, edges, window_ns)
            assert ours.tobytes() == theirs.tobytes(), (name, window_ns)

    @pytest.mark.parametrize(
        "name,start,finish", SPAN_CASES, ids=[c[0] for c in SPAN_CASES]
    )
    def test_integral_at_every_boundary(self, name, start, finish):
        """Instants on, just inside and between span boundaries, and
        before the first and past the last span."""
        spans = _spans(
            on_recorder(start, finish), np.arange(start.shape[0]), 0
        )
        union = oracle.occupancy_step(start, finish)
        probes = np.unique(
            np.r_[start, finish, (start + finish) / 2, -1.0, 0.0, 1e9]
        )
        assert (
            _busy_at(probes, spans).tobytes()
            == oracle.integral_at(probes, union).tobytes()
        )

    def test_spans_are_ordered_by_start(self):
        start = np.array([10.0, 0.0, 5.0])
        finish = np.array([12.0, 5.0, 7.0])
        spans = _spans(on_recorder(start, finish), np.arange(3), 0)
        assert spans.start.tolist() == [0.0, 5.0, 10.0]
        assert spans.busy.tolist() == [0.0, 5.0, 7.0, 9.0]

    @pytest.mark.parametrize("shuffle", (False, True))
    def test_overlap_names_channel_and_trace_indices(self, shuffle):
        start = np.array([0.0, 4.0, 9.0, 12.0])
        finish = np.array([4.0, 9.5, 11.0, 15.0])
        rows = np.array([10, 20, 30, 40])
        order = np.array([3, 1, 0, 2]) if shuffle else np.arange(4)
        with pytest.raises(ServiceOverlapError) as caught:
            _spans(
                on_recorder(
                    _scatter(start[order], rows[order]),
                    _scatter(finish[order], rows[order]),
                ),
                rows[order],
                3,
            )
        error = caught.value
        assert (error.channel, error.index, error.previous) == (3, 30, 20)
        assert "channel 3" in str(error) and "request 30" in str(error)
        assert "request 20" in str(error)


def _scatter(values, rows):
    """A trace-length array holding ``values`` at ``rows``."""
    out = np.zeros(int(rows.max()) + 1)
    out[rows] = values
    return out


# ----------------------------------------------------------------------
# window indices
# ----------------------------------------------------------------------
def instant_cases():
    makespan = 100.0
    rng = np.random.default_rng(7)
    cases = [
        ("empty", np.empty(0), makespan),
        ("single", np.array([42.0]), makespan),
        ("uniform", np.sort(rng.uniform(0.0, makespan, 500)), makespan),
        (
            "whole-ns-ties",
            np.sort(rng.integers(0, 101, 500).astype(np.float64)),
            makespan,
        ),
        # 0.5 // 0.1 == 4.0 although 0.1 * 5 == 0.5
        ("tenths", np.round(np.arange(0, 1001) * 0.1, 12), makespan),
    ]
    for count in (3, 7, 64):
        edges = np.arange(count + 1, dtype=np.float64) * (makespan / count)
        near = np.sort(
            np.r_[
                edges,
                np.nextafter(edges, -np.inf),
                np.nextafter(edges, np.inf),
            ]
        )
        cases.append((f"on-edges-{count}", near, makespan))
    return cases


INSTANT_CASES = instant_cases()


class TestWindowIndex:
    @pytest.mark.parametrize(
        "name,t,makespan", INSTANT_CASES, ids=[c[0] for c in INSTANT_CASES]
    )
    @pytest.mark.parametrize("shuffle", (False, True))
    def test_matches_floor_division(self, name, t, makespan, shuffle):
        if shuffle:
            t = t[np.random.default_rng(1).permutation(t.shape[0])]
        for edges, window_ns in grids(makespan, widths=(0.1, 1.0, 5.0)):
            count = edges.shape[0] - 1
            expected = oracle.window_index(t, window_ns, count)
            ours = _window_index(t, window_ns, count)
            assert ours.dtype == expected.dtype
            assert np.array_equal(ours, expected), (name, window_ns)
            assert np.array_equal(
                _window_counts(t, window_ns, count),
                np.bincount(expected, minlength=count),
            )

    def test_sorted_instants_take_cuts(self):
        t = np.sort(np.random.default_rng(3).uniform(0.0, 100.0, 300))
        assert _window_bounds(t, 100.0 / 7, 7) is not None
        assert _window_bounds(t[::-1], 100.0 / 7, 7) is None

    def test_a_cut_that_disagrees_falls_back(self):
        # 0.1 * 5 == 0.5, so searchsorted puts 0.5 in window 5; floor
        # division says 4
        t = np.array([0.0, 0.25, 0.5])
        assert _window_bounds(t, 0.1, 10) is None
        assert _window_index(t, 0.1, 10).tolist() == [0, 2, 4]

    def test_instants_past_the_last_edge_fold_into_it(self):
        t = np.array([0.0, 9.0, 10.0, 25.0])
        assert _window_index(t, 5.0, 2).tolist() == [0, 1, 1, 1]
        assert _window_counts(t, 5.0, 2).tolist() == [1, 3]

    @pytest.mark.parametrize("sort", (False, True))
    def test_finish_sums_match_bincount(self, sort):
        rng = np.random.default_rng(5)
        finish = rng.uniform(0.0, 50.0, 400)
        if sort:
            finish.sort()
        count, window_ns = 9, 50.0 / 9
        index = oracle.window_index(finish, window_ns, count)
        bounds = _window_bounds(finish, window_ns, count)
        assert (bounds is not None) == sort
        finishes = _Finishes(index, bounds)
        assert np.array_equal(
            _finish_sums(finishes, count), np.bincount(index, minlength=count)
        )
        for values in (rng.random(400) < 0.3, rng.integers(0, 4097, 400)):
            ours = _finish_sums(finishes, count, values)
            assert ours.dtype == np.float64
            assert ours.tobytes() == np.bincount(
                index, weights=values, minlength=count
            ).tobytes()


# ----------------------------------------------------------------------
# queue depth and refresh coverage
# ----------------------------------------------------------------------
def depth_cases():
    cases = [("empty", np.empty(0), np.empty(0))]
    for seed in range(4):
        rng = np.random.default_rng(seed)
        arrival = np.sort(rng.integers(0, 60, 150).astype(np.float64))
        start = arrival + rng.integers(0, 8, 150)
        cases.append((f"whole-{seed}", arrival, start[rng.permutation(150)]))
        arrival = np.sort(rng.uniform(0.0, 60.0, 150))
        start = np.sort(arrival + rng.uniform(0.0, 8.0, 150))
        cases.append((f"sorted-{seed}", arrival, start))
    return cases


DEPTH_CASES = depth_cases()


class TestQueueDepth:
    @pytest.mark.parametrize(
        "name,arrival,start", DEPTH_CASES, ids=[c[0] for c in DEPTH_CASES]
    )
    def test_step_mean_and_max_match_the_oracle(self, name, arrival, start):
        ours = _depth_step(arrival, start)
        theirs = oracle.step(*oracle.step_function(arrival, start))
        for mine, ref in zip(ours, theirs):
            assert mine.tobytes() == ref.tobytes()
        makespan = float(start.max()) if start.shape[0] else 10.0
        for edges, window_ns in grids(makespan):
            count = edges.shape[0] - 1
            assert (
                np.diff(_integral_at(edges, ours)).tobytes()
                == np.diff(oracle.integral_at(edges, theirs)).tobytes()
            )
            assert (
                _max_per_window(ours, edges, window_ns, count).tobytes()
                == oracle.max_per_window(
                    theirs, edges, window_ns, count
                ).tobytes()
            )


class TestRefreshCoverage:
    @pytest.mark.parametrize("block", (1, 5, 64, 1 << 16))
    def test_block_size_changes_nothing(self, monkeypatch, block):
        rng = np.random.default_rng(9)
        begins = np.arange(40) * 97.5 + rng.uniform(0.0, 10.0, 40)
        ends = begins + rng.uniform(5.0, 60.0, 40)
        weights = np.where(rng.random(40) < 0.5, 1.0, 1.0 / 16)
        monkeypatch.setattr(timeseries, "_COVERAGE_BLOCK", block)
        for edges, window_ns in grids(4000.0):
            ours = _coverage_per_window(
                begins, ends, weights, edges, window_ns
            )
            theirs = oracle.coverage_per_window(
                begins, ends, weights, edges, window_ns
            )
            assert ours.tobytes() == theirs.tobytes()

    def test_document_is_the_same_in_one_row_blocks(self, monkeypatch):
        telemetry = REPLAYS["per-bank-refresh"]()
        whole = repr(build_timeseries(telemetry, n_windows=300))
        monkeypatch.setattr(timeseries, "_COVERAGE_BLOCK", 1)
        assert repr(build_timeseries(telemetry, n_windows=300)) == whole


# ----------------------------------------------------------------------
# a recorder that breaks channel_overlap
# ----------------------------------------------------------------------
class TestOverlapError:
    @pytest.mark.parametrize("name", ("stream-refresh", "frfcfs-hoist"))
    def test_derivation_stops_and_names_the_overlap(self, name):
        telemetry = REPLAYS[name]()
        recorder = telemetry.recorder
        rows = recorder.rows(0)
        start, finish = recorder.start_service, recorder.finish
        by_start = rows[np.argsort(start[rows], kind="stable")]
        # the first service followed by an idle gap: stretch it past
        # the next service's start
        k = int(
            np.flatnonzero(start[by_start[1:]] > finish[by_start[:-1]])[0]
        )
        previous, index = int(by_start[k]), int(by_start[k + 1])
        finish[previous] = start[index] + 0.5
        violations = [
            v for v in check_laws(telemetry.config, recorder.arrays)
            if v.law == "channel_overlap"
        ]
        assert [(v.channel, v.index) for v in violations] == [(0, index)]
        for build in (build_timeseries, build_energy):
            with pytest.raises(ServiceOverlapError) as caught:
                build(telemetry)
            error = caught.value
            assert isinstance(error, (ReproError, ValueError))
            assert error.code == "SERVICE_OVERLAP"
            assert (error.channel, error.index, error.previous) == (
                0, index, previous,
            )
            assert f"channel 0: request {index} " in str(error)
            assert "channel_overlap" in str(error)
