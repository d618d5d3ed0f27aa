"""The unified metrics registry: one snapshot schema for every layer.

Every subsystem that reports numbers — :class:`~repro.memsys.MemSysStats`
replays, :class:`~repro.pimexec.PimExecResult` kernel runs, the
:mod:`repro.nn` comparisons, the replay engines' self-profiling phase
timers, and the ``benchmarks/bench_*.py`` records — emits through the
same three primitives:

* **counters** — monotone totals (requests completed, bits delivered,
  dynamic PIM instructions executed);
* **gauges** — point-in-time values (sustained bandwidth, row-hit rate,
  channel utilization, makespan);
* **histograms** — distribution summaries with *exact* order-statistic
  percentiles (queue-wait and service latency p50/p95/p99/max).

Each entry carries a name plus free-form string ``tags`` (channel,
scheme, policy, phase, kernel, ...), so one snapshot can hold the whole
cross product of an experiment without inventing ad-hoc dict shapes per
call site.  :meth:`MetricsRegistry.snapshot` serializes to the
``repro.telemetry/v1`` JSON document described in
``docs/observability.md``, which is what ``repro-pim ... --metrics
out.json`` writes and what CI uploads as a build artifact.

Percentiles are *exact* in the order-statistic sense: ``pXX`` is the
nearest-rank element of the sorted sample (``sorted[ceil(q/100 * n) -
1]``), always an actually-observed value — never an interpolation — so
two bit-identical latency arrays produce bit-identical percentile
fields (the property the cross-engine equivalence suite leans on).
"""

from __future__ import annotations

import json
import math
import pathlib
import typing as _t

import numpy as np

__all__ = [
    "SCHEMA",
    "MetricsRegistry",
    "exact_percentile",
    "latency_summary",
    "farm_metrics",
    "memsys_metrics",
    "pimexec_metrics",
]

#: Snapshot schema identifier (bump on breaking changes).
SCHEMA = "repro.telemetry/v1"

#: The percentile grid every latency histogram reports.
PERCENTILES = (50, 95, 99)


def exact_percentile(values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile: an actually-observed order statistic.

    ``q`` is in percent.  For a sorted sample ``x[0..n-1]`` the
    nearest-rank definition returns ``x[ceil(q/100 * n) - 1]`` (clamped
    to the sample), so the result is always an element of ``values`` —
    bit-identical inputs give bit-identical percentiles.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    if n == 0:
        return math.nan
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    rank = max(0, min(n - 1, math.ceil(q / 100.0 * n) - 1))
    return float(np.partition(values, rank)[rank])


def latency_summary(values: np.ndarray) -> _t.Dict[str, float]:
    """Exact distribution summary of one latency array (ns).

    Returns ``count`` / ``mean`` / ``min`` / ``p50`` / ``p95`` /
    ``p99`` / ``max`` — the shape every histogram entry of the metrics
    snapshot carries.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    if n == 0:
        nan = math.nan
        return {
            "count": 0, "mean": nan, "min": nan,
            "p50": nan, "p95": nan, "p99": nan, "max": nan,
        }
    ordered = np.sort(values)
    summary: _t.Dict[str, float] = {
        "count": int(n),
        "mean": float(ordered.mean()),
        "min": float(ordered[0]),
    }
    for q in PERCENTILES:
        rank = max(0, min(n - 1, math.ceil(q / 100.0 * n) - 1))
        summary[f"p{q}"] = float(ordered[rank])
    summary["max"] = float(ordered[-1])
    return summary


def _entry(name: str, tags: _t.Mapping[str, _t.Any]) -> dict:
    return {
        "name": str(name),
        "tags": {key: str(value) for key, value in sorted(tags.items())},
    }


class MetricsRegistry:
    """Counters + gauges + histograms behind one snapshot schema.

    Parameters
    ----------
    source:
        Free-form provenance string recorded in the snapshot (e.g.
        ``"repro-pim replay app.trace"`` or ``"bench_memsys"``).
    """

    def __init__(self, source: str = "") -> None:
        self.source = source
        self._counters: _t.List[dict] = []
        self._gauges: _t.List[dict] = []
        self._histograms: _t.List[dict] = []

    # ------------------------------------------------------------------
    def counter(self, name: str, value: float, **tags: _t.Any) -> None:
        """Record one monotone total."""
        entry = _entry(name, tags)
        entry["value"] = value
        self._counters.append(entry)

    def gauge(self, name: str, value: float, **tags: _t.Any) -> None:
        """Record one point-in-time value."""
        entry = _entry(name, tags)
        entry["value"] = float(value)
        self._gauges.append(entry)

    def histogram(
        self,
        name: str,
        values: _t.Union[np.ndarray, _t.Sequence[float]],
        **tags: _t.Any,
    ) -> _t.Dict[str, float]:
        """Record one distribution; returns its exact summary."""
        summary = latency_summary(np.asarray(values, dtype=np.float64))
        entry = _entry(name, tags)
        entry.update(summary)
        self._histograms.append(entry)
        return summary

    def summary_histogram(
        self, name: str, summary: _t.Mapping[str, float], **tags: _t.Any
    ) -> None:
        """Record an already-summarized distribution verbatim."""
        entry = _entry(name, tags)
        entry.update(
            {key: summary[key] for key in latency_summary(np.empty(0))}
        )
        self._histograms.append(entry)

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Append ``other``'s entries to this registry (returns self)."""
        self._counters.extend(other._counters)
        self._gauges.extend(other._gauges)
        self._histograms.extend(other._histograms)
        return self

    # ------------------------------------------------------------------
    @property
    def counters(self) -> _t.List[dict]:
        return list(self._counters)

    @property
    def gauges(self) -> _t.List[dict]:
        return list(self._gauges)

    @property
    def histograms(self) -> _t.List[dict]:
        return list(self._histograms)

    def snapshot(self) -> dict:
        """The serializable ``repro.telemetry/v1`` document."""
        return {
            "schema": SCHEMA,
            "source": self.source,
            "counters": self.counters,
            "gauges": self.gauges,
            "histograms": self.histograms,
        }

    def write(self, path: _t.Union[str, pathlib.Path]) -> pathlib.Path:
        """Write the snapshot as JSON; returns the path."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.snapshot(), indent=2) + "\n")
        return path

    def __len__(self) -> int:
        return (
            len(self._counters)
            + len(self._gauges)
            + len(self._histograms)
        )

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry {self.source!r} "
            f"counters={len(self._counters)} gauges={len(self._gauges)} "
            f"histograms={len(self._histograms)}>"
        )


# ----------------------------------------------------------------------
# adapters: existing result records -> the unified schema
# ----------------------------------------------------------------------
def memsys_metrics(
    stats: _t.Any,
    registry: _t.Optional[MetricsRegistry] = None,
    telemetry: _t.Optional[_t.Any] = None,
    **tags: _t.Any,
) -> MetricsRegistry:
    """Emit one :class:`~repro.memsys.MemSysStats` into a registry.

    ``telemetry`` (the replay's recorded
    :class:`~repro.telemetry.ReplayTelemetry`) adds the per-channel
    gauges of :func:`~repro.telemetry.latency.channel_gauges` —
    latency extremes, queue-depth peaks and busy fractions that the
    flat summary reduces away — for single-process and farm replays
    alike.
    """
    # explicit None test: an empty registry is falsy (it has __len__)
    if registry is None:
        registry = MetricsRegistry(source="memsys")
    registry.counter("memsys.requests", stats.n_requests, **tags)
    registry.counter("memsys.bits_delivered", stats.total_bits, **tags)
    registry.counter("memsys.row_hits", stats.row_hits, **tags)
    registry.counter("memsys.row_misses", stats.row_misses, **tags)
    registry.counter("memsys.row_conflicts", stats.row_conflicts, **tags)
    registry.gauge("memsys.makespan_ns", stats.makespan_ns, **tags)
    registry.gauge(
        "memsys.sustained_gbit_per_s",
        stats.sustained_bits_per_sec / 1e9,
        **tags,
    )
    registry.gauge("memsys.row_hit_rate", stats.row_hit_rate, **tags)
    registry.gauge(
        "memsys.mean_latency_ns", stats.mean_queue_latency_ns, **tags
    )
    registry.gauge(
        "memsys.mean_queue_length", stats.mean_queue_length, **tags
    )
    registry.gauge(
        "memsys.channel_utilization", stats.channel_utilization, **tags
    )
    for row in stats.per_channel:
        channel_tags = dict(tags, channel=row["channel"])
        registry.counter(
            "memsys.channel.requests", row["requests"], **channel_tags
        )
        registry.gauge(
            "memsys.channel.row_hit_rate",
            row["row_hit_rate"],
            **channel_tags,
        )
        registry.gauge(
            "memsys.channel.gbit_delivered",
            row["gbit_delivered"],
            **channel_tags,
        )
    if telemetry is not None:
        from .latency import channel_gauges

        for channel, gauges in enumerate(channel_gauges(telemetry)):
            channel_tags = dict(tags, channel=channel)
            for name, value in gauges.items():
                registry.gauge(
                    f"memsys.channel.{name}", value, **channel_tags
                )
    return registry


def pimexec_metrics(
    result: _t.Any,
    registry: _t.Optional[MetricsRegistry] = None,
    machine: _t.Optional[_t.Any] = None,
    **tags: _t.Any,
) -> MetricsRegistry:
    """Emit one :class:`~repro.pimexec.PimExecResult` into a registry.

    ``machine`` (the generating :class:`~repro.pimexec.PimExecMachine`)
    adds its per-channel sequencer statistics — dynamic instructions,
    control steps, kernels loaded — plus the ``pimexec.unit_commands``
    counter, the commands executed summed over every unit.
    """
    # explicit None test: an empty registry is falsy (it has __len__)
    if registry is None:
        registry = MetricsRegistry(source="pimexec")
    engine = result.engine or "unknown"
    registry.counter(
        "pimexec.requests", result.n_requests, engine=engine, **tags
    )
    registry.counter("pimexec.pim_commands", result.n_pim, **tags)
    registry.counter("pimexec.broadcasts", result.n_broadcast, **tags)
    registry.counter("pimexec.host_requests", result.n_host, **tags)
    memsys_metrics(result.stats, registry, **tags)
    if machine is not None:
        registry.counter(
            "pimexec.unit_commands",
            int(machine.array.commands_executed.sum()),
            **tags,
        )
        for channel, stats in enumerate(machine.sequencer_stats()):
            channel_tags = dict(tags, channel=channel)
            registry.counter(
                "pimexec.sequencer.instructions",
                stats["instructions"],
                **channel_tags,
            )
            registry.counter(
                "pimexec.sequencer.control_steps",
                stats["control_steps"],
                **channel_tags,
            )
            registry.counter(
                "pimexec.sequencer.kernels_loaded",
                stats["kernels_loaded"],
                **channel_tags,
            )
    return registry


def farm_metrics(
    report: _t.Any,
    registry: _t.Optional[MetricsRegistry] = None,
    **tags: _t.Any,
) -> MetricsRegistry:
    """Emit one :class:`~repro.farm.FarmReport` into a registry.

    Surfaces the robustness ledger of a sharded replay — retries,
    timeouts, crashes, integrity failures, and degradations — as
    counters, so fleet dashboards can alert on silent degradation (a
    farm that keeps falling back to in-process replay still returns
    exact results, but has stopped being a farm).
    """
    # explicit None test: an empty registry is falsy (it has __len__)
    if registry is None:
        registry = MetricsRegistry(source="farm")
    tags = dict(tags, mode=report.mode)
    registry.gauge("farm.workers", report.workers, **tags)
    registry.counter("farm.shards", report.n_shards, **tags)
    registry.counter("farm.attempts", report.attempts, **tags)
    registry.counter("farm.retries", report.retries, **tags)
    registry.counter("farm.timeouts", report.timeouts, **tags)
    registry.counter("farm.crashes", report.crashes, **tags)
    registry.counter(
        "farm.integrity_failures", report.integrity_failures, **tags
    )
    registry.counter(
        "farm.degraded_shards", report.degraded_shards, **tags
    )
    registry.counter(
        "farm.harmonized_shards", report.harmonized_shards, **tags
    )
    registry.counter(
        "farm.single_process_fallbacks",
        int(report.fell_back_to_single),
        **tags,
    )
    if report.fallback_reason:
        registry.gauge(
            "farm.degraded",
            1.0,
            reason=report.fallback_reason,
            **tags,
        )
    return registry
