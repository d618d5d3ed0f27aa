"""Windowed time-series derived from one recorded replay.

The PR-6 telemetry layer answers *what did each request experience*;
this module answers *where did the time go* — the question the paper's
tradeoff analysis (and the ROADMAP serving study) actually asks.  A
single end-of-run p99 cannot show refresh-induced latency waves,
per-channel load imbalance, or AB-barrier stall regimes; a windowed
series can.

Every series is computed **purely from the
:class:`~repro.telemetry.latency.LatencyRecorder` arrays**
(arrival/start/finish/outcome/channel/bank/op) plus the replay's
configuration.  Those arrays are bit-identical across both replay
tiers, the farm's merged shards, and the tests' event-calendar oracle,
and every derivation here is a deterministic numpy reduction over them
— so the series are **bit-identical across replay paths by
construction**
(``tests/telemetry/test_timeseries.py`` checks ``repr`` equality of
whole documents over the scheme x policy x refresh x arrival matrix).

Per window the document carries:

* ``offered_per_s`` / ``served_per_s`` — arrival and completion rates;
* ``achieved_gbit_per_s`` — delivered bandwidth (host/AB accesses move
  one page, PIM all-bank operations move one page per bank);
* ``row_hit_rate`` — among row-touching completions (NaN when none);
* ``queue_depth_mean`` / ``queue_depth_max`` — **exact**, from the
  arrival/start crossing step function, not sampled;
* ``refresh_overhead_fraction`` — deterministic tREFI/tRFC blackout
  coverage (per-bank slices weighted by the refreshing-bank fraction);
* ``ab_stall_fraction`` — AB register-broadcast barrier occupancy,
  averaged over channels — the FR-FCFS serialization the ROADMAP
  names as the pimexec bottleneck, now visible over time;
* ``power_w`` / ``energy_pj_to_date`` — windowed power draw and the
  cumulative energy of the run, from the command-level accounting of
  :mod:`repro.telemetry.energy` on this document's own window grid
  (schema ``v2`` adds these two series);
* per-channel and per-bank ``busy_fraction`` — service-span
  occupancy (all-bank PIM operations occupy every bank of their
  channel).

No series sorts the trace or unions intervals.  Under the
``channel_overlap`` law of :mod:`repro.memsys.laws` a channel's service
spans, and so any subset of them (one bank plus the all-bank rows, the
AB broadcasts), are already disjoint: ordered by start, a busy time up
to an instant is the running sum of the span lengths before it plus
the elapsed part of the span in progress.  A span that starts before
the previous one on its channel finishes raises
:class:`~repro.errors.ServiceOverlapError` naming the channel and both
trace indices.  Window indices of sorted instants come from one
``searchsorted`` cut per edge, checked against the floor division that
bins unsorted instants.  These forms add the same terms in the same
order as the sort-based derivation they replaced
(``tests/telemetry/step_oracle.py``), so the documents are unchanged to
the last bit.

Derivation happens **post-replay, off the hot path**: nothing here
runs while the simulated clock advances, so the <5% telemetry-overhead
floor of ``benchmarks/bench_*.py`` is untouched (the benchmarks derive
a series after the timed region to prove it).

``validate_timeseries`` is the schema check
(``repro.telemetry/timeseries-v2``) mirroring
:func:`~repro.telemetry.timeline.validate_timeline`.
"""

from __future__ import annotations

import json
import math
import pathlib
import typing as _t

import numpy as np

from ..errors import ServiceOverlapError
from .latency import ALL_BANKS, OUTCOME_NAMES, _depth_step, _Step

if _t.TYPE_CHECKING:  # pragma: no cover
    from .latency import ReplayTelemetry

__all__ = [
    "TIMESERIES_SCHEMA",
    "DEFAULT_WINDOWS",
    "build_timeseries",
    "validate_timeseries",
    "write_timeseries",
]

#: Schema identifier carried in every document (v2 added the
#: ``power_w`` / ``energy_pj_to_date`` series of the energy layer).
TIMESERIES_SCHEMA = "repro.telemetry/timeseries-v2"

#: Default window count when no ``window_ns`` is given: fine enough to
#: resolve refresh waves at HBM2-class tREFI on realistic makespans,
#: coarse enough that every window holds a meaningful sample.
DEFAULT_WINDOWS = 64

#: The series every document must carry, in emission order.
SERIES_KEYS = (
    "offered_per_s",
    "served_per_s",
    "achieved_gbit_per_s",
    "row_hit_rate",
    "queue_depth_mean",
    "queue_depth_max",
    "refresh_overhead_fraction",
    "ab_stall_fraction",
    "power_w",
    "energy_pj_to_date",
)

_BROADCAST = OUTCOME_NAMES.index("broadcast")
_HIT = OUTCOME_NAMES.index("hit")


# ----------------------------------------------------------------------
# busy unions: the channels' disjoint service spans
# ----------------------------------------------------------------------
class _Spans(_t.NamedTuple):
    """Disjoint service spans ordered by start.

    ``busy[k]`` is the busy time of the spans before span ``k`` (one
    more entry than spans: ``busy[-1]`` is the total).
    """

    start: np.ndarray
    finish: np.ndarray
    busy: np.ndarray


def _spans(recorder: _t.Any, rows: np.ndarray, channel: int) -> _Spans:
    """The service spans of ``rows`` (trace-ordered requests of one
    channel) as a busy union.

    Under ``channel_overlap`` a channel's services never overlap, so
    any subset of them already is its own union: ordered by start (the
    trace order on FIFO channels; one stable argsort after FR-FCFS
    hoists or a merge with the all-bank rows), the integral up to
    span ``k`` is the exclusive cumulative sum of the span lengths.
    A span starting before the previous one finishes raises
    :class:`~repro.errors.ServiceOverlapError`.
    """
    start = recorder.start_service[rows]
    finish = recorder.finish[rows]
    # no service ends before it starts (the service_time law), so
    # spans disjoint in trace order are also in start order
    if not (start[1:] >= finish[:-1]).all():
        order = np.argsort(start, kind="stable")
        rows, start, finish = rows[order], start[order], finish[order]
        overlap = np.flatnonzero(start[1:] < finish[:-1])
        if overlap.shape[0]:
            k = int(overlap[0])
            raise ServiceOverlapError(
                f"channel {channel}: request {int(rows[k + 1])} starts "
                f"service at {start[k + 1]!r} ns, before request "
                f"{int(rows[k])} finishes at {finish[k]!r} ns "
                "(channel_overlap)",
                channel=channel,
                index=int(rows[k + 1]),
                previous=int(rows[k]),
            )
    busy = np.zeros(start.shape[0] + 1)
    np.cumsum(finish - start, out=busy[1:])
    return _Spans(start, finish, busy)


def _busy_at(t: np.ndarray, spans: _Spans) -> np.ndarray:
    """Busy time on ``[0, t]``: the spans started by ``t`` minus what
    is left of the last one."""
    if spans.start.shape[0] == 0:
        return np.zeros(t.shape[0])
    started = np.searchsorted(spans.start, t, side="right")
    last = np.maximum(started - 1, 0)
    inside = spans.busy[last] + (t - spans.start[last])
    out = np.where(t < spans.finish[last], inside, spans.busy[started])
    return np.where(started > 0, out, 0.0)


def _busy_per_window(
    spans: _Spans, edges: np.ndarray, window_ns: float
) -> np.ndarray:
    return np.diff(_busy_at(edges, spans)) / window_ns


# ----------------------------------------------------------------------
# window indices from sorted cuts
# ----------------------------------------------------------------------
def _window_bounds(
    t: np.ndarray, window_ns: float, n_windows: int
) -> _t.Optional[np.ndarray]:
    """``bounds`` with window ``w`` owning ``t[bounds[w]:bounds[w+1]]``,
    for nondecreasing instants; ``None`` when ``t`` is unsorted.

    Each cut is found with ``searchsorted`` on the edges and checked
    with the floor division :func:`_window_index` bins by, at the
    instants on both sides of it; a cut that disagrees (an instant
    within rounding of an edge) also gives ``None``.
    """
    if t.shape[0] > 1 and not (t[1:] >= t[:-1]).all():
        return None
    window = np.arange(1, n_windows)
    cuts = np.searchsorted(t, window * window_ns, side="left")
    first = cuts < t.shape[0]
    after = cuts > 0
    if not (
        (np.floor_divide(t[cuts[first]], window_ns) >= window[first]).all()
        and (
            np.floor_divide(t[cuts[after] - 1], window_ns) < window[after]
        ).all()
    ):
        return None
    return np.r_[0, cuts, t.shape[0]]


def _window_index(
    t: np.ndarray, window_ns: float, n_windows: int
) -> np.ndarray:
    """Window owning each instant (the final edge folds into the last
    window so ``finish == makespan`` is never dropped)."""
    bounds = _window_bounds(t, window_ns, n_windows)
    if bounds is not None:
        return np.repeat(np.arange(n_windows), np.diff(bounds))
    idx = np.floor_divide(t, window_ns).astype(np.int64)
    return np.clip(idx, 0, n_windows - 1)


def _window_counts(
    t: np.ndarray, window_ns: float, n_windows: int
) -> np.ndarray:
    """Instants per window, as ``bincount`` of :func:`_window_index`."""
    bounds = _window_bounds(t, window_ns, n_windows)
    if bounds is not None:
        return np.diff(bounds)
    return np.bincount(
        _window_index(t, window_ns, n_windows), minlength=n_windows
    )


# ----------------------------------------------------------------------
# exact queue depth (the step function is latency._depth_step)
# ----------------------------------------------------------------------
def _integral_at(t: np.ndarray, step: _Step) -> np.ndarray:
    """``I(t) = integral_0^t f`` (``f == 0`` before the first event)."""
    times = step.times
    if times.shape[0] == 0:
        return np.zeros(t.shape[0])
    pos = np.searchsorted(times, t, side="right") - 1
    safe = np.maximum(pos, 0)
    out = step.integral[safe] + step.values[safe] * (t - times[safe])
    return np.where(pos >= 0, out, 0.0)


def _max_per_window(
    step: _Step, edges: np.ndarray, window_ns: float, n_windows: int
) -> np.ndarray:
    """Exact per-window maximum of the step function: the value
    carried in at each window start joined with every in-window
    event value."""
    times, values = step.times, step.values
    if times.shape[0] == 0:
        return np.zeros(n_windows)
    pos = np.searchsorted(times, edges[:-1], side="right") - 1
    maxes = np.where(pos >= 0, values[np.maximum(pos, 0)], 0.0)
    bounds = _window_bounds(times, window_ns, n_windows)
    if bounds is None:
        np.maximum.at(
            maxes, _window_index(times, window_ns, n_windows), values
        )
        return maxes
    # reduceat over the first event of each non-empty window: each
    # slice runs to the next non-empty window's first event
    occupied = np.flatnonzero(bounds[1:] > bounds[:-1])
    maxes[occupied] = np.maximum(
        maxes[occupied], np.maximum.reduceat(values, bounds[occupied])
    )
    return maxes


#: Matrix entries per block of the refresh-coverage integral: bounds
#: its temporaries whatever the window count.
_COVERAGE_BLOCK = 1 << 16


def _coverage_per_window(
    begins: np.ndarray,
    ends: np.ndarray,
    weights: np.ndarray,
    edges: np.ndarray,
    window_ns: float,
) -> np.ndarray:
    """Per-window weighted coverage of non-overlapping intervals.

    The ``(edges, intervals)`` matrix is summed a block of edge rows
    at a time; each row's sum is the same whatever the block.
    """
    if begins.shape[0] == 0:
        return np.zeros(edges.shape[0] - 1)
    lengths = ends - begins
    rows = max(1, _COVERAGE_BLOCK // begins.shape[0])
    integral = np.empty(edges.shape[0])
    for first in range(0, edges.shape[0], rows):
        block = edges[first : first + rows, None]
        clipped = np.clip(block - begins, 0.0, lengths)
        integral[first : first + rows] = (clipped * weights).sum(axis=1)
    return np.diff(integral) / window_ns


# ----------------------------------------------------------------------
# reductions shared across documents (cached on the recorder)
# ----------------------------------------------------------------------
def _channel_busy(recorder: _t.Any, channel: int) -> _Spans:
    """Busy union of one channel's service spans."""
    return recorder._memo(
        ("busy", channel),
        lambda: _spans(recorder, recorder.rows(channel), channel),
    )


class _Finishes(_t.NamedTuple):
    """Every request's finish binned on one grid: ``index`` is each
    one's window (trace order), ``bounds`` the cuts of
    :func:`_window_bounds` when the finishes are sorted, else
    ``None``."""

    index: np.ndarray
    bounds: _t.Optional[np.ndarray]


def _finish_windows(
    recorder: _t.Any, window_ns: float, n_windows: int
) -> _Finishes:
    """Every request's finish binned on one grid, cached per grid."""
    finish = recorder.finish
    return recorder._memo(
        ("finish-window", window_ns, n_windows),
        lambda: _Finishes(
            _window_index(finish, window_ns, n_windows),
            _window_bounds(finish, window_ns, n_windows),
        ),
    )


def _finish_sums(
    finishes: _Finishes,
    n_windows: int,
    values: _t.Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-window request counts (``values`` None, int64), or sums of
    integer or boolean per-request ``values`` (float64), binned by
    finish.

    Integers add exactly in any order, so sorted finishes sum each
    window's slice instead of scattering every request.
    """
    if finishes.bounds is None:
        return np.bincount(
            finishes.index, weights=values, minlength=n_windows
        )
    if values is None:
        return np.diff(finishes.bounds)
    occupied = np.flatnonzero(np.diff(finishes.bounds))
    sums = np.zeros(n_windows)
    sums[occupied] = np.add.reduceat(
        values, finishes.bounds[occupied], dtype=np.int64
    )
    return sums


def _recorded(
    telemetry: "ReplayTelemetry", what: str
) -> _t.Tuple[_t.Any, _t.Any]:
    """``(recorder, config)`` of a finished, recorded replay."""
    recorder = telemetry.recorder
    if recorder is None or not recorder.captured:
        raise RuntimeError(
            f"{what} needs a captured replay: pass "
            "ReplayTelemetry(latency=True) to replay(..., telemetry=...)"
        )
    if telemetry.config is None:
        raise RuntimeError(
            f"{what} needs a finished replay (no config recorded yet)"
        )
    return recorder, telemetry.config


def _window_grid(
    makespan: float,
    window_ns: _t.Optional[float],
    n_windows: _t.Optional[int],
) -> _t.Tuple[float, int, np.ndarray]:
    """``(window_ns, count, edges)`` of the windowing contract: an
    explicit ``window_ns``, or ``n_windows`` (default
    :data:`DEFAULT_WINDOWS`) equal windows over the makespan."""
    if window_ns is not None:
        if not window_ns > 0:
            raise ValueError(f"window_ns must be > 0, got {window_ns}")
        window_ns = float(window_ns)
        count = max(1, int(math.ceil(makespan / window_ns)))
    else:
        count = int(n_windows if n_windows is not None else DEFAULT_WINDOWS)
        if count < 1:
            raise ValueError(f"n_windows must be >= 1, got {count}")
        window_ns = makespan / count
    edges = np.arange(count + 1, dtype=np.float64) * window_ns
    return window_ns, count, edges


# ----------------------------------------------------------------------
# the builder
# ----------------------------------------------------------------------
def build_timeseries(
    telemetry: "ReplayTelemetry",
    window_ns: _t.Optional[float] = None,
    n_windows: _t.Optional[int] = None,
) -> dict:
    """Derive the ``timeseries-v2`` document from one recorded replay.

    ``window_ns`` fixes the window width explicitly; otherwise the
    makespan is divided into ``n_windows`` (default
    :data:`DEFAULT_WINDOWS`) equal windows.  Both choices are
    deterministic functions of bit-identical inputs, so either way the
    document is bit-identical across replay paths.
    """
    recorder, config = _recorded(telemetry, "time-series derivation")
    makespan = float(telemetry.makespan_ns)
    window_ns, count, edges = _window_grid(makespan, window_ns, n_windows)
    from ..memsys.request import Op
    from ..memsys.system import request_bits

    arrival = recorder.arrival
    start = recorder.start_service
    finish = recorder.finish
    outcome = recorder.outcome_code
    op = recorder.op_code
    n = arrival.shape[0]
    window_s = window_ns * 1e-9

    finishes = _finish_windows(recorder, window_ns, count)
    offered = _window_counts(arrival, window_ns, count) / window_s
    served = _finish_sums(finishes, count) / window_s
    # bits per request are integers
    gbit = (
        _finish_sums(finishes, count, request_bits(config, op))
        / window_s
        / 1e9
    )

    touched = _finish_sums(finishes, count, outcome != _BROADCAST)
    hits = _finish_sums(finishes, count, outcome == _HIT)
    hit_rate = np.divide(
        hits,
        touched,
        out=np.full(count, math.nan),
        where=touched > 0,
    )

    # exact queue depth: +1 at each arrival, -1 at each service start
    depth = _depth_step(arrival, start)
    depth_mean = np.diff(_integral_at(edges, depth)) / window_ns
    depth_max = _max_per_window(depth, edges, window_ns, count)

    # refresh blackout coverage (per-bank slices refresh one bank, so
    # they weigh 1/n_banks of a full-channel blackout)
    schedule = config.refresh_schedule()
    if schedule is None:
        refresh = np.zeros(count)
    else:
        blackouts = list(schedule.blackouts(makespan))
        begins = np.array([b for b, _, _ in blackouts], dtype=np.float64)
        ends = np.array([e for _, e, _ in blackouts], dtype=np.float64)
        weights = np.array(
            [
                1.0 if which is None else 1.0 / config.banks_per_channel
                for _, _, which in blackouts
            ],
            dtype=np.float64,
        )
        refresh = _coverage_per_window(
            begins, ends, weights, edges, window_ns
        )

    # AB barrier stall + per-channel/per-bank busy fractions; all-bank
    # PIM operations occupy every bank of their channel, AB broadcasts
    # only the barrier
    ab_stall = np.zeros(count)
    channels: _t.List[dict] = []
    for ch in range(config.n_channels):
        all_bank = recorder.rows(ch, ALL_BANKS)
        ab = all_bank[op[all_bank] == Op.AB.code]
        pim = all_bank[op[all_bank] == Op.PIM.code]
        ab_stall += _busy_per_window(
            _spans(recorder, ab, ch), edges, window_ns
        )
        banks = []
        for b in range(config.banks_per_channel):
            mine = recorder.rows(ch, b)
            if pim.shape[0]:
                mine = np.sort(np.concatenate([mine, pim]))
            banks.append(
                {
                    "bank": b,
                    "busy_fraction": _busy_per_window(
                        _spans(recorder, mine, ch), edges, window_ns
                    ).tolist(),
                }
            )
        # disjoint spans in start order finish in order too
        busy = _channel_busy(recorder, ch)
        channels.append(
            {
                "channel": ch,
                "busy_fraction": _busy_per_window(
                    busy, edges, window_ns
                ).tolist(),
                "served_per_s": (
                    _window_counts(busy.finish, window_ns, count)
                    / window_s
                ).tolist(),
                "banks": banks,
            }
        )
    ab_stall /= config.n_channels

    # windowed power + cumulative energy from the command-level
    # accounting, on this document's own grid (1 pJ/ns == 1 mW)
    from .energy import window_energy_pj

    energy_per_window = window_energy_pj(telemetry, edges, window_ns)
    power_w = energy_per_window / window_ns * 1e-3
    energy_to_date = np.cumsum(energy_per_window)

    return {
        "schema": TIMESERIES_SCHEMA,
        "engine": telemetry.engine,
        "window_ns": window_ns,
        "n_windows": count,
        "makespan_ns": makespan,
        "n_requests": int(n),
        "t_start_ns": edges[:-1].tolist(),
        "series": {
            "offered_per_s": offered.tolist(),
            "served_per_s": served.tolist(),
            "achieved_gbit_per_s": gbit.tolist(),
            "row_hit_rate": hit_rate.tolist(),
            "queue_depth_mean": depth_mean.tolist(),
            "queue_depth_max": depth_max.tolist(),
            "refresh_overhead_fraction": refresh.tolist(),
            "ab_stall_fraction": ab_stall.tolist(),
            "power_w": power_w.tolist(),
            "energy_pj_to_date": energy_to_date.tolist(),
        },
        "channels": channels,
    }


def write_timeseries(
    telemetry: "ReplayTelemetry",
    path: _t.Union[str, pathlib.Path],
    window_ns: _t.Optional[float] = None,
    n_windows: _t.Optional[int] = None,
) -> pathlib.Path:
    """Build and write the time-series JSON; returns the path."""
    document = build_timeseries(
        telemetry, window_ns=window_ns, n_windows=n_windows
    )
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document) + "\n")
    return path


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def _check_series(
    name: str,
    values: _t.Any,
    count: int,
    problems: _t.List[str],
    nan_ok: bool = False,
) -> None:
    if not isinstance(values, list):
        problems.append(f"{name}: must be an array")
        return
    if len(values) != count:
        problems.append(
            f"{name}: length {len(values)} != n_windows {count}"
        )
        return
    for index, value in enumerate(values):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{name}[{index}]: not a number")
            return
        if math.isinf(value):
            problems.append(f"{name}[{index}]: must be finite")
            return
        if math.isnan(value):
            if not nan_ok:
                problems.append(f"{name}[{index}]: NaN not allowed")
                return
        elif value < 0:
            problems.append(f"{name}[{index}]: must be >= 0")
            return


def validate_timeseries(document: _t.Any) -> _t.List[str]:
    """Schema-check one time-series document; returns problem strings.

    Mirrors :func:`~repro.telemetry.timeline.validate_timeline`: an
    empty list means a well-formed ``timeseries-v2`` document — the
    test suite asserts exactly that on every export path.
    """
    problems: _t.List[str] = []
    if not isinstance(document, dict):
        return [f"document must be an object, got {type(document).__name__}"]
    if document.get("schema") != TIMESERIES_SCHEMA:
        problems.append(
            f"schema must be {TIMESERIES_SCHEMA!r}, "
            f"got {document.get('schema')!r}"
        )
    window_ns = document.get("window_ns")
    if (
        not isinstance(window_ns, (int, float))
        or isinstance(window_ns, bool)
        or not window_ns > 0
        or math.isinf(window_ns)
    ):
        problems.append("window_ns must be a finite number > 0")
    count = document.get("n_windows")
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        problems.append("n_windows must be an integer >= 1")
        return problems
    t_start = document.get("t_start_ns")
    _check_series("t_start_ns", t_start, count, problems)
    if isinstance(t_start, list) and len(t_start) == count:
        numeric = [
            v for v in t_start if isinstance(v, (int, float))
        ]
        if len(numeric) == count and any(
            b <= a for a, b in zip(numeric, numeric[1:])
        ):
            problems.append("t_start_ns must be strictly increasing")
    series = document.get("series")
    if not isinstance(series, dict):
        problems.append("series must be an object")
        return problems
    for key in SERIES_KEYS:
        if key not in series:
            problems.append(f"series missing {key!r}")
            continue
        _check_series(
            f"series.{key}",
            series[key],
            count,
            problems,
            nan_ok=(key == "row_hit_rate"),
        )
    channels = document.get("channels")
    if not isinstance(channels, list) or not channels:
        problems.append("channels must be a non-empty array")
        return problems
    for entry in channels:
        if not isinstance(entry, dict) or "channel" not in entry:
            problems.append("channels[]: each entry needs a channel id")
            continue
        where = f"channels[{entry['channel']}]"
        _check_series(
            f"{where}.busy_fraction",
            entry.get("busy_fraction"),
            count,
            problems,
        )
        _check_series(
            f"{where}.served_per_s",
            entry.get("served_per_s"),
            count,
            problems,
        )
        banks = entry.get("banks")
        if not isinstance(banks, list):
            problems.append(f"{where}.banks must be an array")
            continue
        for bank_entry in banks:
            if not isinstance(bank_entry, dict) or "bank" not in bank_entry:
                problems.append(
                    f"{where}.banks[]: each entry needs a bank id"
                )
                continue
            _check_series(
                f"{where}.banks[{bank_entry['bank']}].busy_fraction",
                bank_entry.get("busy_fraction"),
                count,
                problems,
            )
    return problems
