"""Statistics collectors for simulation output analysis.

Mirrors the statistics SES/workbench models relied on:

* :class:`Tally` — observation-based statistics (service times, response
  times) with numerically stable streaming moments (Welford) and Student-t
  confidence intervals.
* :class:`TimeWeighted` — time-persistent statistics (queue length,
  busy/idle state) integrating a piecewise-constant signal over time.
* :class:`Counter` — monotone event counts and rates.
* :class:`BatchMeans` — batch-means variance estimation for steady-state
  outputs of a single long run.
* :class:`StateTimer` — time-in-state bookkeeping for multi-state entities
  (the three processor states of the parcel study: busy / memory / idle).
"""

from __future__ import annotations

import math
import typing as _t

__all__ = [
    "Tally",
    "TimeWeighted",
    "Counter",
    "BatchMeans",
    "StateTimer",
    "t_quantile",
]


def t_quantile(confidence: float, dof: int) -> float:
    """Two-sided Student-t quantile, e.g. ``t_quantile(0.95, 9)``.

    Uses :mod:`scipy.stats` when available; falls back to the normal
    quantile for large ``dof``.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    from scipy import stats as _st

    return float(_st.t.ppf(0.5 + confidence / 2.0, dof))


class Tally:
    """Streaming observation statistics (count/mean/variance/min/max).

    Uses Welford's algorithm so variance is stable for long runs with
    values of any magnitude.

    Examples
    --------
    >>> t = Tally("service")
    >>> for x in (1.0, 2.0, 3.0):
    ...     t.record(x)
    >>> t.mean
    2.0
    """

    __slots__ = ("name", "_n", "_mean", "_m2", "_min", "_max", "_sum")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._sum = 0.0

    def record(self, value: float) -> None:
        """Add one observation."""
        value = float(value)
        self._n += 1
        delta = value - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (value - self._mean)
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def record_many(self, values: _t.Iterable[float]) -> None:
        """Add a batch of observations."""
        for value in values:
            self.record(value)

    # -- accessors -----------------------------------------------------
    @property
    def count(self) -> int:
        return self._n

    @property
    def total(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        """Sample mean; ``nan`` with no observations."""
        return self._mean if self._n else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance (``ddof=1``); ``nan`` for n < 2."""
        return self._m2 / (self._n - 1) if self._n >= 2 else math.nan

    @property
    def std(self) -> float:
        var = self.variance
        return math.sqrt(var) if var == var else math.nan

    @property
    def sem(self) -> float:
        """Standard error of the mean."""
        return self.std / math.sqrt(self._n) if self._n >= 2 else math.nan

    @property
    def minimum(self) -> float:
        return self._min if self._n else math.nan

    @property
    def maximum(self) -> float:
        return self._max if self._n else math.nan

    def confidence_interval(
        self, confidence: float = 0.95
    ) -> _t.Tuple[float, float]:
        """Two-sided Student-t confidence interval for the mean."""
        if self._n < 2:
            return (math.nan, math.nan)
        half = t_quantile(confidence, self._n - 1) * self.sem
        return (self._mean - half, self._mean + half)

    def merge(self, other: "Tally") -> "Tally":
        """Combine with another tally (parallel-run reduction).

        Uses Chan et al.'s pairwise update so moments remain exact.
        """
        merged = Tally(self.name or other.name)
        n = self._n + other._n
        if n == 0:
            return merged
        delta = other._mean - self._mean
        merged._n = n
        merged._mean = self._mean + delta * (other._n / n) if n else 0.0
        merged._m2 = (
            self._m2 + other._m2 + delta * delta * self._n * other._n / n
        )
        merged._sum = self._sum + other._sum
        merged._min = min(self._min, other._min)
        merged._max = max(self._max, other._max)
        return merged

    def to_dict(self) -> dict:
        """Serializable summary of the tally."""
        return {
            "name": self.name,
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
            "total": self.total,
        }

    def __repr__(self) -> str:
        return (
            f"<Tally {self.name!r} n={self._n} mean={self.mean:.6g} "
            f"min={self.minimum:.6g} max={self.maximum:.6g}>"
            if self._n
            else f"<Tally {self.name!r} empty>"
        )


class TimeWeighted:
    """Time-persistent statistic for a piecewise-constant signal.

    Tracks the integral of the signal over time, enabling time averages
    such as mean queue length and utilization.

    Parameters
    ----------
    initial:
        Signal value at ``start_time``.
    start_time:
        When observation begins.
    """

    __slots__ = ("name", "_value", "_last", "_start", "_integral",
                 "_min", "_max")

    def __init__(
        self, name: str = "", initial: float = 0.0, start_time: float = 0.0
    ) -> None:
        self.name = name
        self._value = float(initial)
        self._last = float(start_time)
        self._start = float(start_time)
        self._integral = 0.0
        self._min = float(initial)
        self._max = float(initial)

    @property
    def value(self) -> float:
        """Current signal value."""
        return self._value

    def update(self, value: float, now: float) -> None:
        """Set the signal to ``value`` at time ``now``."""
        if now < self._last:
            raise ValueError(
                f"time went backwards: {now} < {self._last} "
                f"in TimeWeighted {self.name!r}"
            )
        self._integral += self._value * (now - self._last)
        self._last = now
        self._value = float(value)
        if self._value < self._min:
            self._min = self._value
        if self._value > self._max:
            self._max = self._value

    def add(self, delta: float, now: float) -> None:
        """Increment the signal by ``delta`` at time ``now``."""
        self.update(self._value + delta, now)

    def integral(self, now: _t.Optional[float] = None) -> float:
        """Integral of the signal from start to ``now`` (default: last)."""
        if now is None:
            return self._integral
        if now < self._last:
            raise ValueError(f"time went backwards: {now} < {self._last}")
        return self._integral + self._value * (now - self._last)

    def time_average(self, now: _t.Optional[float] = None) -> float:
        """Time-averaged value of the signal over the observation window."""
        end = self._last if now is None else now
        span = end - self._start
        if span <= 0:
            return math.nan
        return self.integral(now) / span

    @property
    def minimum(self) -> float:
        return self._min

    @property
    def maximum(self) -> float:
        return self._max

    def to_dict(self, now: _t.Optional[float] = None) -> dict:
        return {
            "name": self.name,
            "value": self._value,
            "time_average": self.time_average(now),
            "min": self._min,
            "max": self._max,
        }

    def __repr__(self) -> str:
        return (
            f"<TimeWeighted {self.name!r} value={self._value:.6g} "
            f"avg={self.time_average():.6g}>"
        )


class Counter:
    """Monotone event counter with rate helpers."""

    __slots__ = ("name", "_count", "_start")

    def __init__(self, name: str = "", start_time: float = 0.0) -> None:
        self.name = name
        self._count = 0
        self._start = float(start_time)

    def increment(self, by: int = 1) -> None:
        if by < 0:
            raise ValueError("Counter cannot decrease")
        self._count += by

    @property
    def count(self) -> int:
        return self._count

    def rate(self, now: float) -> float:
        """Events per unit time since observation started."""
        span = now - self._start
        return self._count / span if span > 0 else math.nan

    def __repr__(self) -> str:
        return f"<Counter {self.name!r} count={self._count}>"


class BatchMeans:
    """Batch-means estimator for steady-state simulation output.

    Splits a stream of observations into fixed-size batches; the batch
    means behave approximately i.i.d. for large batches, giving valid
    confidence intervals from a single long run (the standard technique
    for steady-state queuing studies like the paper's).
    """

    __slots__ = ("batch_size", "_current", "_in_batch", "batches")

    def __init__(self, batch_size: int) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self._current = 0.0
        self._in_batch = 0
        self.batches = Tally("batch-means")

    def record(self, value: float) -> None:
        self._current += float(value)
        self._in_batch += 1
        if self._in_batch == self.batch_size:
            self.batches.record(self._current / self.batch_size)
            self._current = 0.0
            self._in_batch = 0

    @property
    def complete_batches(self) -> int:
        return self.batches.count

    @property
    def mean(self) -> float:
        return self.batches.mean

    def confidence_interval(
        self, confidence: float = 0.95
    ) -> _t.Tuple[float, float]:
        return self.batches.confidence_interval(confidence)


class StateTimer:
    """Tracks time spent in each of a set of named states.

    The parcel study classifies every processor as *busy* (useful ops),
    *memory* (local access) or *idle* (waiting); idle-time comparisons are
    the dependent variable of Fig. 12.  This collector generalizes that
    bookkeeping.
    """

    __slots__ = ("name", "_state", "_since", "_totals", "_start")

    def __init__(
        self, initial: str, now: float = 0.0, name: str = ""
    ) -> None:
        self.name = name
        self._state = initial
        self._since = float(now)
        self._start = float(now)
        self._totals: _t.Dict[str, float] = {}

    @property
    def state(self) -> str:
        return self._state

    def transition(self, state: str, now: float) -> None:
        """Enter ``state`` at time ``now``."""
        if now < self._since:
            raise ValueError(f"time went backwards: {now} < {self._since}")
        self._totals[self._state] = (
            self._totals.get(self._state, 0.0) + (now - self._since)
        )
        self._state = state
        self._since = now

    def total(self, state: str, now: _t.Optional[float] = None) -> float:
        """Cumulative time in ``state`` (including an open interval)."""
        base = self._totals.get(state, 0.0)
        if now is not None and state == self._state:
            if now < self._since:
                raise ValueError("time went backwards")
            base += now - self._since
        return base

    def fraction(self, state: str, now: float) -> float:
        """Share of the observation window spent in ``state``."""
        span = now - self._start
        if span <= 0:
            return math.nan
        return self.total(state, now) / span

    def totals(self, now: float) -> _t.Dict[str, float]:
        """All state totals, closing the open interval at ``now``."""
        out = dict(self._totals)
        out[self._state] = out.get(self._state, 0.0) + (now - self._since)
        return out

    def __repr__(self) -> str:
        return f"<StateTimer {self.name!r} state={self._state!r}>"
