"""Per-request latency recording across both replay tiers.

Both tiers already *know* every request's arrival, service start, and
finish: the exact tier writes them into its per-request lists as its
calendar advances, and the vectorized tier solves them in closed form
as per-channel arrays.  Every replay gathers those times into
trace-ordered numpy arrays once, after its clock stops, and reduces its
:class:`~repro.memsys.MemSysStats` from them
(:func:`~repro.memsys.system.reduce_stats`); :class:`LatencyRecorder`
adopts the same arrays, so recording costs nothing measurable while the
clock is hot (the <5% overhead floor of ``bench_memsys``).

Because the vectorized tier is certified bit-exact against the exact
tier, the recorded ``arrival`` / ``start_service`` / ``finish`` arrays
are **bit-identical** between tiers for the same trace and
configuration — a guarantee the equivalence suite
(``tests/telemetry/test_equivalence.py``) checks with
``np.array_equal`` against a tests-only event-calendar oracle over the
full refresh × arrival × scheme × policy matrix, while
:func:`~repro.memsys.laws.check_laws` checks the arrays themselves.

:class:`ReplayTelemetry` is the handle callers pass to
:meth:`MemorySystem.replay(..., telemetry=...)
<repro.memsys.MemorySystem.replay>`: it bundles the recorder with a
:class:`~repro.telemetry.profile.PhaseProfiler`, remembers which engine
ran, and fans out to the metrics registry and the Chrome-trace timeline
exporter.
"""

from __future__ import annotations

import math
import typing as _t

import numpy as np

from .profile import PhaseProfiler
from .registry import MetricsRegistry, latency_summary

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..memsys.system import MemSysConfig, MemSysStats

__all__ = [
    "OUTCOME_NAMES",
    "LatencyRecorder",
    "ReplayTelemetry",
    "channel_gauges",
]

#: Outcome vocabulary: codes 0-2 align with
#: :data:`repro.memsys.bank.OUTCOMES`; 3 is the AB register broadcast
#: (which never touches a row buffer, so the bank module doesn't know
#: it).
OUTCOME_NAMES = ("hit", "miss", "conflict", "broadcast")

#: Pseudo bank index for all-bank operations (PIM row ops, AB
#: broadcasts), which occupy every bank of their channel at once.
ALL_BANKS = -1


class LatencyRecorder:
    """Trace-ordered per-request times adopted from one replay.

    Populated by the replay engines through :meth:`_capture_arrays`;
    everything public is derived from the adopted arrays:

    * :attr:`arrival`, :attr:`start_service`, :attr:`finish` — the
      engine's exact per-request instants (ns, trace order);
    * :attr:`queue_wait`, :attr:`service_time`, :attr:`total_latency` —
      the derived durations;
    * :attr:`channel`, :attr:`bank`, :attr:`row`, :attr:`op_code`,
      :attr:`outcome_code` — routing and outcome context
      (``bank == ALL_BANKS`` for all-bank PIM/AB operations).

    Queue depths and busy periods are functions of the times
    (:func:`_depth_step`, :func:`~repro.memsys.system.busy_ns`), so
    they are derived, not recorded.

    The time-series, energy, and timeline builders share the
    reductions they derive from these arrays (per-channel busy unions,
    the grouping by channel and bank, window indices, per-event
    energies) through :meth:`_memo`, so each is computed once per
    recorder.  A recorder refuses a second capture, so the cache can
    never go stale; it lives exactly as long as the recorder.
    """

    #: The arrays every capture carries, with their dtypes.
    DTYPES = {
        "arrival": np.float64,
        "start_service": np.float64,
        "finish": np.float64,
        "outcome": np.int64,
        "channel": np.int64,
        "bank": np.int64,
        "row": np.int64,
        "op": np.int64,
    }
    KEYS = tuple(DTYPES)

    def __init__(self) -> None:
        self._arrays: _t.Optional[_t.Dict[str, np.ndarray]] = None
        self._channel_rows: _t.Optional[_t.List[np.ndarray]] = None
        self._derived: _t.Dict[_t.Hashable, _t.Any] = {}

    def _capture_arrays(
        self,
        arrays: _t.Mapping[str, np.ndarray],
        channel_rows: _t.List[np.ndarray],
    ) -> None:
        """Adopt one replay's trace-ordered arrays (the :data:`KEYS`).

        ``channel_rows`` is the replay's grouping by channel
        (:func:`~repro.memsys.system.group_channels`), seeding
        :meth:`rows` so the grouping is computed once per replay.
        """
        if self._arrays is not None:
            raise RuntimeError(
                "this LatencyRecorder already captured a replay; use a "
                "fresh ReplayTelemetry per replay"
            )
        if set(arrays) != set(self.KEYS):
            raise ValueError(
                f"a capture needs keys {sorted(self.KEYS)}, got "
                f"{sorted(arrays)}"
            )
        self._arrays = dict(arrays)
        self._channel_rows = channel_rows

    @property
    def captured(self) -> bool:
        return self._arrays is not None

    def _assemble(self) -> _t.Dict[str, np.ndarray]:
        if self._arrays is None:
            raise RuntimeError(
                "no replay captured; pass this telemetry to "
                "MemorySystem.replay(..., telemetry=...) first"
            )
        return self._arrays

    # ------------------------------------------------------------------
    # recorded arrays (trace order)
    # ------------------------------------------------------------------
    @property
    def arrays(self) -> _t.Mapping[str, np.ndarray]:
        """The adopted arrays, keyed by :data:`KEYS` — the input of
        :func:`~repro.memsys.laws.check_laws`."""
        return self._assemble()

    @property
    def n(self) -> int:
        return int(self._assemble()["arrival"].shape[0])

    @property
    def arrival(self) -> np.ndarray:
        return self._assemble()["arrival"]

    @property
    def start_service(self) -> np.ndarray:
        return self._assemble()["start_service"]

    @property
    def finish(self) -> np.ndarray:
        return self._assemble()["finish"]

    @property
    def outcome_code(self) -> np.ndarray:
        return self._assemble()["outcome"]

    @property
    def channel(self) -> np.ndarray:
        return self._assemble()["channel"]

    @property
    def bank(self) -> np.ndarray:
        """Flat bank index per request; :data:`ALL_BANKS` for PIM/AB."""
        return self._assemble()["bank"]

    @property
    def row(self) -> np.ndarray:
        return self._assemble()["row"]

    @property
    def op_code(self) -> np.ndarray:
        return self._assemble()["op"]

    # ------------------------------------------------------------------
    # derived durations
    # ------------------------------------------------------------------
    @property
    def queue_wait(self) -> np.ndarray:
        """Admission-to-service wait per request (ns)."""
        arrays = self._assemble()
        return arrays["start_service"] - arrays["arrival"]

    @property
    def service_time(self) -> np.ndarray:
        """Service duration per request (ns)."""
        arrays = self._assemble()
        return arrays["finish"] - arrays["start_service"]

    @property
    def total_latency(self) -> np.ndarray:
        """Arrival-to-finish latency per request (ns)."""
        arrays = self._assemble()
        return arrays["finish"] - arrays["arrival"]

    # ------------------------------------------------------------------
    # shared derivations
    # ------------------------------------------------------------------
    def _memo(self, key: _t.Hashable, build: _t.Callable[[], _t.Any]):
        """``build()``, computed once per ``key`` for this recorder.

        ``key`` must name everything the value depends on beyond the
        recorded arrays (a coefficient table, a window grid).
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build()
            return value

    def rows(
        self, channel: int, bank: _t.Optional[int] = None
    ) -> np.ndarray:
        """Trace-ordered indices of the requests on ``channel`` (and,
        when given, on ``bank`` — :data:`ALL_BANKS` for all-bank
        operations); one grouping per channel serves every lookup."""
        if self._channel_rows is None:
            self._assemble()  # no replay captured: raises
        empty = np.empty(0, dtype=np.int64)
        if not 0 <= channel < len(self._channel_rows):
            return empty
        on_channel = self._channel_rows[channel]
        if bank is None:
            return on_channel
        by_bank = self._memo(
            ("bank-rows", channel),
            lambda: dict(_split_by(self.bank[on_channel], on_channel)),
        )
        return by_bank.get(bank, empty)

    def percentiles(self) -> _t.Dict[str, _t.Dict[str, float]]:
        """Exact p50/p95/p99/max summaries of the three durations."""
        return {
            "queue_wait_ns": latency_summary(self.queue_wait),
            "service_time_ns": latency_summary(self.service_time),
            "total_latency_ns": latency_summary(self.total_latency),
        }

    def __repr__(self) -> str:
        if not self.captured:
            return "<LatencyRecorder (no replay captured)>"
        return f"<LatencyRecorder n={self.n}>"


def _split_by(
    keys: np.ndarray, items: np.ndarray
) -> _t.Iterator[_t.Tuple[int, np.ndarray]]:
    """``(key, items with that key)`` per distinct key, ascending; a
    stable sort keeps each group's items in their original order."""
    if keys.shape[0] == 0:
        return
    # channel and bank ids fit int16, which numpy radix-sorts in O(n)
    bounds16 = np.iinfo(np.int16)
    if bounds16.min <= keys.min() and keys.max() <= bounds16.max:
        order = np.argsort(keys.astype(np.int16), kind="stable")
    else:
        order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    bounds = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    for group in np.split(order, bounds):
        yield int(keys[group[0]]), items[group]


# ----------------------------------------------------------------------
# derived per-channel quantities
# ----------------------------------------------------------------------
class _Step(_t.NamedTuple):
    """A step function ``(times, values)`` with its running integral.

    ``values[k]`` holds on ``[times[k], times[k+1])``; ``integral[k]``
    is the integral from the first event up to ``times[k]``.
    """

    times: np.ndarray
    values: np.ndarray
    integral: np.ndarray


def _depth_step(arrival: np.ndarray, start: np.ndarray) -> _Step:
    """Queue depth: +1 at each arrival, -1 at each service start.

    ``values[k]`` is the depth after *all* events at ``times[k]``: the
    running sum of the merged ±1.0 events (whole numbers, so exact) at
    the last event of each run of equal instants, independent of how
    the merge orders ties.
    """
    merged = np.concatenate([arrival, start])
    if merged.shape[0] == 0:
        return _Step(merged, merged, merged)
    order = np.argsort(merged, kind="stable")
    times = merged[order]
    # the merge buffer takes the ±1.0 steps, then their running sum
    depth = merged
    np.multiply(order < arrival.shape[0], 2.0, out=depth)
    depth -= 1.0
    np.cumsum(depth, out=depth)
    last = np.flatnonzero(np.r_[times[1:] != times[:-1], True])
    times, values = times[last], depth[last]
    integral = np.zeros(times.shape[0])
    widths = np.diff(times)
    widths *= values[:-1]
    np.cumsum(widths, out=integral[1:])
    return _Step(times, values, integral)


def channel_gauges(
    telemetry: "ReplayTelemetry",
) -> _t.List[_t.Dict[str, float]]:
    """Per-channel extremes the flat ``MemSysStats`` reduces away.

    Derived from the recorder arrays of a finished replay, one entry per
    configured channel, so a farm run and a single-process run of the
    same trace on the same tier give the same values:

    * ``max_queue_length`` — peak queued (admitted, not yet started)
      requests: the maximum of the channel's settled queue depth
      (:func:`_depth_step`), the quantity the time series' per-window
      ``queue_depth_max`` takes over all channels;
    * ``min_latency_ns`` / ``max_latency_ns`` — arrival-to-finish
      extremes (NaN on an idle channel);
    * ``busy_fraction`` — the channel's
      :func:`~repro.memsys.system.busy_ns` over the makespan, the
      share :attr:`MemSysStats.channel_utilization` averages.
    """
    from ..memsys.system import busy_ns

    recorder = telemetry.recorder
    config = telemetry.config
    if recorder is None or not recorder.captured or config is None:
        raise RuntimeError(
            "channel gauges need a finished replay recorded with "
            "ReplayTelemetry(latency=True)"
        )
    makespan = telemetry.makespan_ns
    gauges = []
    for ch in range(config.n_channels):
        rows = recorder.rows(ch)
        arrival = recorder.arrival[rows]
        start = recorder.start_service[rows]
        finish = recorder.finish[rows]
        latency = finish - arrival
        gauges.append(
            {
                "max_queue_length": float(
                    _depth_step(arrival, start).values.max(initial=0.0)
                ),
                "min_latency_ns": (
                    float(latency.min()) if rows.shape[0] else math.nan
                ),
                "max_latency_ns": (
                    float(latency.max()) if rows.shape[0] else math.nan
                ),
                "busy_fraction": (
                    busy_ns(arrival, start, finish) / makespan
                    if makespan > 0
                    else math.nan
                ),
            }
        )
    return gauges


class ReplayTelemetry:
    """One replay's worth of observability: recorder + profiler.

    Pass an instance to :meth:`MemorySystem.replay(..., telemetry=...)
    <repro.memsys.MemorySystem.replay>` (or through
    ``PimExecMachine.replay`` / ``compare_host_pim``, which runs both
    kernel families); afterwards it holds the per-request latency
    arrays, the per-phase wall-clock profile, and enough context
    (engine, config, makespan) to export the command timeline.

    Parameters
    ----------
    latency:
        Record per-request times (default on).
    profile:
        Record per-phase wall-clock timers (default on).
    """

    def __init__(self, latency: bool = True, profile: bool = True) -> None:
        self.recorder = LatencyRecorder() if latency else None
        self.profiler = PhaseProfiler() if profile else None
        #: Tier that served the replay (``"fast-vectorized"`` /
        #: ``"fast-exact"``, or ``"farm"``).
        self.engine: _t.Optional[str] = None
        self.config: _t.Optional["MemSysConfig"] = None
        self.stats: _t.Optional["MemSysStats"] = None
        self.makespan_ns: float = math.nan
        #: Set by :func:`repro.farm.replay_farm`: the supervisor's
        #: span log, merged into the timeline as worker/shard tracks.
        self.farm_events: _t.Optional[_t.Any] = None

    # ------------------------------------------------------------------
    def _finish(
        self, config: "MemSysConfig", engine: str, stats: "MemSysStats"
    ) -> None:
        """Called by every replay path once its stats exist."""
        self.engine = engine
        self.config = config
        self.stats = stats
        self.makespan_ns = stats.makespan_ns

    @property
    def finished(self) -> bool:
        return self.stats is not None

    # ------------------------------------------------------------------
    def percentiles(self) -> _t.Dict[str, _t.Dict[str, float]]:
        if self.recorder is None:
            raise RuntimeError(
                "latency recording was disabled for this telemetry"
            )
        return self.recorder.percentiles()

    def metrics_into(
        self, registry: MetricsRegistry, **tags: _t.Any
    ) -> MetricsRegistry:
        """Emit this replay's telemetry into a metrics registry."""
        if self.engine is not None:
            tags = dict(tags, engine=self.engine)
        if self.recorder is not None and self.recorder.captured:
            recorder = self.recorder
            registry.counter(
                "telemetry.requests_recorded", recorder.n, **tags
            )
            registry.histogram(
                "telemetry.queue_wait_ns", recorder.queue_wait, **tags
            )
            registry.histogram(
                "telemetry.service_time_ns",
                recorder.service_time,
                **tags,
            )
            registry.histogram(
                "telemetry.total_latency_ns",
                recorder.total_latency,
                **tags,
            )
        if self.profiler is not None:
            self.profiler.metrics_into(registry, **tags)
        return registry

    def __repr__(self) -> str:
        return (
            f"<ReplayTelemetry engine={self.engine!r} "
            f"latency={self.recorder is not None} "
            f"profile={self.profiler is not None}>"
        )
