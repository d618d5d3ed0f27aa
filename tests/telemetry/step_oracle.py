"""Sort-based reference for the windowed derivations (tests only).

The time-series layer used to derive every busy union and the queue
depth the general way: merge all ``+1``/``-1`` events with a stable
argsort, collapse coincident instants with ``np.add.reduceat``, and
integrate the resulting step function with ``cumsum(values[:-1] *
diff(times))``; window indices came from one ``floor_divide`` pass.
That machinery is kept here, unchanged, as the oracle the production
forms are checked against: it sorts, unions overlaps, and bins every
instant independently, so agreement is evidence about the span,
sorted-cut and blocked forms rather than a copy comparing against
itself.

:func:`occupancy_step` is the busy union of any span set (overlaps
counted once); :func:`step_function` collapses arbitrary ``+1``/``-1``
events; :func:`mean_per_window`, :func:`max_per_window`,
:func:`window_index` and :func:`coverage_per_window` are the per-window
reductions over them.
"""

from __future__ import annotations

import typing as _t

import numpy as np

__all__ = [
    "Step",
    "coverage_per_window",
    "integral_at",
    "max_per_window",
    "mean_per_window",
    "occupancy_step",
    "step",
    "step_function",
    "window_index",
]


class Step(_t.NamedTuple):
    """A step function ``(times, values)`` with its running integral.

    ``values[k]`` holds on ``[times[k], times[k+1])``; ``integral[k]``
    is the integral from the first event up to ``times[k]``.
    """

    times: np.ndarray
    values: np.ndarray
    integral: np.ndarray


def step_function(
    plus: np.ndarray, minus: np.ndarray
) -> _t.Tuple[np.ndarray, np.ndarray]:
    """Collapse +1/-1 events into ``(times, values)``, the value after
    all events at each distinct instant."""
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


def step(times: np.ndarray, values: np.ndarray) -> Step:
    integral = np.zeros(times.shape[0])
    if times.shape[0] > 1:
        integral[1:] = np.cumsum(values[:-1] * np.diff(times))
    return Step(times, values, integral)


def occupancy_step(starts: np.ndarray, finishes: np.ndarray) -> Step:
    """1 while the union of ``[start, finish)`` intervals covers the
    instant (overlaps counted once), else 0."""
    times, values = step_function(starts, finishes)
    return step(times, (values > 0).astype(np.float64))


def integral_at(t: np.ndarray, of: Step) -> np.ndarray:
    """``I(t) = integral_0^t f`` (``f == 0`` before the first event)."""
    times = of.times
    if times.shape[0] == 0:
        return np.zeros(t.shape[0])
    pos = np.searchsorted(times, t, side="right") - 1
    safe = np.maximum(pos, 0)
    out = of.integral[safe] + of.values[safe] * (t - times[safe])
    return np.where(pos >= 0, out, 0.0)


def window_index(
    t: np.ndarray, window_ns: float, n_windows: int
) -> np.ndarray:
    """Window owning each instant (the final edge folds into the last
    window)."""
    idx = np.floor_divide(t, window_ns).astype(np.int64)
    return np.clip(idx, 0, n_windows - 1)


def mean_per_window(
    of: Step, edges: np.ndarray, window_ns: float
) -> np.ndarray:
    return np.diff(integral_at(edges, of)) / window_ns


def max_per_window(
    of: Step, edges: np.ndarray, window_ns: float, n_windows: int
) -> np.ndarray:
    """Per-window maximum: the value carried in at each window start
    joined with every in-window event value."""
    times, values = of.times, of.values
    if times.shape[0] == 0:
        return np.zeros(n_windows)
    pos = np.searchsorted(times, edges[:-1], side="right") - 1
    maxes = np.where(pos >= 0, values[np.maximum(pos, 0)], 0.0)
    widx = window_index(times, window_ns, n_windows)
    np.maximum.at(maxes, widx, values)
    return maxes


def coverage_per_window(
    begins: np.ndarray,
    ends: np.ndarray,
    weights: np.ndarray,
    edges: np.ndarray,
    window_ns: float,
) -> np.ndarray:
    """Per-window weighted coverage of non-overlapping intervals, as
    one ``(edges, intervals)`` matrix."""
    if begins.shape[0] == 0:
        return np.zeros(edges.shape[0] - 1)
    clipped = np.clip(
        edges[:, None] - begins[None, :], 0.0, (ends - begins)[None, :]
    )
    integral = (clipped * weights[None, :]).sum(axis=1)
    return np.diff(integral) / window_ns
