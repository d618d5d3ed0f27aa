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
configuration.  Those arrays are bit-identical across the event
engine, both fast-path tiers, and the farm's merged shards, and every
derivation here is a deterministic numpy reduction over them — so the
series are **bit-identical across engines by construction**
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
* per-channel and per-bank ``busy_fraction`` — service-span union
  occupancy (all-bank PIM operations occupy every bank of their
  channel).

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

from .latency import ALL_BANKS, OUTCOME_NAMES

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
# exact step-function machinery
# ----------------------------------------------------------------------
class _Step(_t.NamedTuple):
    """A step function ``(times, values)`` with its running integral.

    ``values[k]`` holds on ``[times[k], times[k+1])``; ``integral[k]``
    is the integral from the first event up to ``times[k]``.
    """

    times: np.ndarray
    values: np.ndarray
    integral: np.ndarray


def _step_function(
    plus: np.ndarray, minus: np.ndarray
) -> _t.Tuple[np.ndarray, np.ndarray]:
    """Collapse +1/-1 events into ``(times, values)``.

    ``values[k]`` is the step function's value on
    ``[times[k], times[k+1])`` after *all* events at ``times[k]`` have
    been applied — coincident events collapse through
    ``np.add.reduceat``, so the result is independent of any sort
    tie-breaking (the property the bit-identity guarantee needs).
    """
    times = np.concatenate([plus, minus])
    if times.shape[0] == 0:
        return times, np.empty(0)
    order = np.argsort(times, kind="stable")
    times = times[order]
    deltas = np.where(order < plus.shape[0], 1, -1)
    # each run of equal sorted times is one step
    starts = np.flatnonzero(np.r_[True, times[1:] != times[:-1]])
    sums = np.add.reduceat(deltas, starts)
    return times[starts], np.cumsum(sums).astype(np.float64)


def _step(times: np.ndarray, values: np.ndarray) -> _Step:
    integral = np.zeros(times.shape[0])
    if times.shape[0] > 1:
        integral[1:] = np.cumsum(values[:-1] * np.diff(times))
    return _Step(times, values, integral)


def _occupancy_step(starts: np.ndarray, finishes: np.ndarray) -> _Step:
    """1 while the union of ``[start, finish)`` intervals covers the
    instant (overlaps counted once), else 0."""
    times, values = _step_function(starts, finishes)
    return _step(times, (values > 0).astype(np.float64))


def _integral_at(t: np.ndarray, step: _Step) -> np.ndarray:
    """``I(t) = integral_0^t f`` (``f == 0`` before the first event)."""
    times = step.times
    if times.shape[0] == 0:
        return np.zeros(t.shape[0])
    pos = np.searchsorted(times, t, side="right") - 1
    safe = np.maximum(pos, 0)
    out = step.integral[safe] + step.values[safe] * (t - times[safe])
    return np.where(pos >= 0, out, 0.0)


def _window_index(
    t: np.ndarray, window_ns: float, n_windows: int
) -> np.ndarray:
    """Window owning each instant (the final edge folds into the last
    window so ``finish == makespan`` is never dropped)."""
    idx = np.floor_divide(t, window_ns).astype(np.int64)
    return np.clip(idx, 0, n_windows - 1)


def _mean_per_window(
    step: _Step, edges: np.ndarray, window_ns: float
) -> np.ndarray:
    return np.diff(_integral_at(edges, step)) / window_ns


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
    widx = _window_index(times, window_ns, n_windows)
    np.maximum.at(maxes, widx, values)
    return maxes


def _coverage_per_window(
    begins: np.ndarray,
    ends: np.ndarray,
    weights: np.ndarray,
    edges: np.ndarray,
    window_ns: float,
) -> np.ndarray:
    """Per-window weighted coverage of non-overlapping intervals."""
    if begins.shape[0] == 0:
        return np.zeros(edges.shape[0] - 1)
    clipped = np.clip(
        edges[:, None] - begins[None, :], 0.0, (ends - begins)[None, :]
    )
    integral = (clipped * weights[None, :]).sum(axis=1)
    return np.diff(integral) / window_ns


# ----------------------------------------------------------------------
# reductions shared across documents (cached on the recorder)
# ----------------------------------------------------------------------
def _channel_busy(recorder: _t.Any, channel: int) -> _Step:
    """Busy union of one channel's service spans."""

    def build() -> _Step:
        rows = recorder.rows(channel)
        return _occupancy_step(
            recorder.start_service[rows], recorder.finish[rows]
        )

    return recorder._memo(("busy", channel), build)


def _finish_window(
    recorder: _t.Any, window_ns: float, n_windows: int
) -> np.ndarray:
    """Window index of every request's finish on one grid."""
    return recorder._memo(
        ("finish-window", window_ns, n_windows),
        lambda: _window_index(recorder.finish, window_ns, n_windows),
    )


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
    document is bit-identical across engines.
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

    arrive_idx = _window_index(arrival, window_ns, count)
    finish_idx = _finish_window(recorder, window_ns, count)
    offered = np.bincount(arrive_idx, minlength=count) / window_s
    served = np.bincount(finish_idx, minlength=count) / window_s

    gbit = (
        np.bincount(
            finish_idx, weights=request_bits(config, op), minlength=count
        )
        / window_s
        / 1e9
    )

    touches = outcome != _BROADCAST
    touched = np.bincount(finish_idx[touches], minlength=count)
    hits = np.bincount(
        finish_idx[touches & (outcome == _HIT)], minlength=count
    )
    hit_rate = np.divide(
        hits,
        touched,
        out=np.full(count, math.nan),
        where=touched > 0,
    )

    # exact queue depth: +1 at each arrival, -1 at each service start
    depth = _step(*_step_function(arrival, start))
    depth_mean = _mean_per_window(depth, edges, window_ns)
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
        ab_stall += _mean_per_window(
            _occupancy_step(start[ab], finish[ab]), edges, window_ns
        )
        banks = []
        for b in range(config.banks_per_channel):
            mine = np.concatenate([recorder.rows(ch, b), pim])
            busy = _occupancy_step(start[mine], finish[mine])
            banks.append(
                {
                    "bank": b,
                    "busy_fraction": _mean_per_window(
                        busy, edges, window_ns
                    ).tolist(),
                }
            )
        channels.append(
            {
                "channel": ch,
                "busy_fraction": _mean_per_window(
                    _channel_busy(recorder, ch), edges, window_ns
                ).tolist(),
                "served_per_s": (
                    np.bincount(
                        finish_idx[recorder.rows(ch)], minlength=count
                    )
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
