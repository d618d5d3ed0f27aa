"""One unified run report: metrics + percentiles + time series + farm.

``repro-pim report TRACE`` replays a trace once and renders everything
the observability layer knows about the run — the
``repro.telemetry/v1`` metrics snapshot, the exact latency
percentiles, the ``timeseries-v2`` windowed series, the ``energy-v1``
command-level energy accounting (pJ/bit, mean power, perf-per-watt),
and (for farm runs) the fault ledger and supervisor event counts — as
one text table on stdout and one JSON document
(``repro.telemetry/report-v2``) on disk.  The JSON is a pure
composition of the existing schemas: every section is exactly what
the dedicated exporter would have written, so a report is
bit-identical across replay paths wherever its inputs are.

:func:`render_report` is a pure function of the JSON document, so a
stored report re-renders identically anywhere.
"""

from __future__ import annotations

import json
import math
import pathlib
import typing as _t

from .registry import MetricsRegistry

if _t.TYPE_CHECKING:  # pragma: no cover
    from .latency import ReplayTelemetry

__all__ = [
    "REPORT_SCHEMA",
    "build_report",
    "render_report",
    "replay_tier",
    "write_report",
]

#: Schema identifier carried in every report document (v2 added the
#: ``energy`` section).
REPORT_SCHEMA = "repro.telemetry/report-v2"


def replay_tier(engine: _t.Optional[str]) -> _t.Optional[str]:
    """Map a replay-engine label onto the execution-tier taxonomy.

    The memory system picks between two tiers per stream (see
    ``docs/architecture.md``): the closed-form **fastpath** tier
    (``fast-vectorized``, admitted by the certificate) and the
    sequential **exact** tier (``fast-exact``).  Farm runs and other
    composite labels pass through unchanged; ``None`` (no replay
    recorded) stays ``None``.
    """
    if engine is None:
        return None
    label = str(engine)
    if label.startswith("fast-vectorized"):
        return "fastpath"
    if label.startswith("fast"):
        return "exact"
    return label


def build_report(
    telemetry: "ReplayTelemetry",
    registry: _t.Optional[MetricsRegistry] = None,
    timeseries: _t.Optional[dict] = None,
    farm_report: _t.Optional[_t.Any] = None,
    source: str = "",
    energy: _t.Optional[dict] = None,
) -> dict:
    """Compose the report document from one recorded replay.

    ``registry`` defaults to the telemetry's own emission;
    ``timeseries`` defaults to a fresh :func:`build_timeseries` over
    the default window grid; ``energy`` defaults to a fresh
    :func:`~repro.telemetry.energy.build_energy` with the default
    coefficients; ``farm_report`` (a :class:`~repro.farm.FarmReport`)
    adds the fault ledger.
    """
    if not telemetry.finished:
        raise RuntimeError(
            "report needs a finished replay: pass this telemetry to a "
            "replay first"
        )
    if registry is None:
        registry = MetricsRegistry(source=source or "report")
        telemetry.metrics_into(registry)
    if timeseries is None:
        from .timeseries import build_timeseries

        timeseries = build_timeseries(telemetry)
    if energy is None and (
        telemetry.recorder is not None and telemetry.recorder.captured
    ):
        from .energy import build_energy

        energy = build_energy(telemetry)
    percentiles = (
        telemetry.percentiles()
        if telemetry.recorder is not None and telemetry.recorder.captured
        else None
    )
    stats = telemetry.stats
    farm_events = telemetry.farm_events
    return {
        "schema": REPORT_SCHEMA,
        "source": source,
        "engine": telemetry.engine,
        "replay_tier": replay_tier(telemetry.engine),
        "n_requests": None if stats is None else stats.n_requests,
        "makespan_ns": telemetry.makespan_ns,
        "stats": None if stats is None else stats.summary(),
        "metrics": registry.snapshot(),
        "percentiles": percentiles,
        "timeseries": timeseries,
        "energy": energy,
        "farm": (
            None if farm_report is None else farm_report.to_dict()
        ),
        "farm_event_counts": (
            None if farm_events is None else farm_events.counts()
        ),
    }


def _fmt(value: _t.Any) -> str:
    if value is None or (
        isinstance(value, float) and math.isnan(value)
    ):
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _series_rows(timeseries: dict) -> _t.List[_t.Tuple[str, str, str, str]]:
    rows = []
    for name, values in timeseries.get("series", {}).items():
        finite = [
            v
            for v in values
            if isinstance(v, (int, float)) and not math.isnan(v)
        ]
        if finite:
            rows.append(
                (
                    name,
                    _fmt(min(finite)),
                    _fmt(sum(finite) / len(finite)),
                    _fmt(max(finite)),
                )
            )
        else:
            rows.append((name, "-", "-", "-"))
    return rows


def render_report(document: dict) -> str:
    """Render one report document as the CLI's text tables."""
    lines: _t.List[str] = []
    lines.append(f"run report — {document.get('source') or 'replay'}")
    tier = document.get("replay_tier")
    lines.append(
        f"engine: {document.get('engine')}   "
        + (f"tier: {tier}   " if tier is not None else "")
        + f"requests: {_fmt(document.get('n_requests'))}   "
        f"makespan: {_fmt(document.get('makespan_ns'))} ns"
    )
    stats = document.get("stats")
    if stats:
        lines.append("")
        lines.append("replay statistics")
        for key, value in stats.items():
            lines.append(f"  {key:24s} {_fmt(value)}")
    percentiles = document.get("percentiles")
    if percentiles:
        lines.append("")
        lines.append("latency percentiles (ns, exact)")
        header = ("metric", "count", "mean", "p50", "p95", "p99", "max")
        lines.append(
            f"  {header[0]:18s}"
            + "".join(f"{h:>12s}" for h in header[1:])
        )
        for name, summary in percentiles.items():
            lines.append(
                f"  {name:18s}"
                + "".join(
                    f"{_fmt(summary.get(key)):>12s}"
                    for key in ("count", "mean", "p50", "p95", "p99", "max")
                )
            )
    timeseries = document.get("timeseries")
    if timeseries:
        lines.append("")
        lines.append(
            f"time series ({timeseries.get('n_windows')} windows x "
            f"{_fmt(timeseries.get('window_ns'))} ns)"
        )
        lines.append(
            f"  {'series':28s}{'min':>12s}{'mean':>12s}{'max':>12s}"
        )
        for name, lo, mean, hi in _series_rows(timeseries):
            lines.append(
                f"  {name:28s}{lo:>12s}{mean:>12s}{hi:>12s}"
            )
    energy = document.get("energy")
    if energy:
        lines.append("")
        lines.append(
            f"energy ({_fmt(energy.get('total_pj'))} pJ total, "
            f"{_fmt(energy.get('pj_per_bit'))} pJ/bit, "
            f"{_fmt(energy.get('mean_power_w'))} W mean, "
            f"{_fmt(energy.get('requests_per_s_per_w'))} requests/s/W)"
        )
        breakdown = energy.get("breakdown_pj") or {}
        total = energy.get("total_pj") or math.nan
        for name, value in breakdown.items():
            share = (
                value / total
                if isinstance(value, (int, float)) and total
                else math.nan
            )
            lines.append(
                f"  {name:24s} {_fmt(value):>14s} pJ "
                f"({_fmt(100 * share)}%)"
            )
    farm = document.get("farm")
    if farm:
        lines.append("")
        lines.append(
            f"farm ledger: mode={farm.get('mode')} "
            f"workers={farm.get('workers')} "
            f"shards={farm.get('n_shards')} "
            f"attempts={farm.get('attempts')} "
            f"retries={farm.get('retries')} "
            f"timeouts={farm.get('timeouts')} "
            f"crashes={farm.get('crashes')} "
            f"degraded={farm.get('degraded_shards')}"
        )
        if farm.get("fell_back_to_single"):
            lines.append(
                f"  fallback: {farm.get('fallback_reason')}"
            )
    counts = document.get("farm_event_counts")
    if counts:
        rendered = " ".join(
            f"{kind}={count}" for kind, count in sorted(counts.items())
        )
        lines.append(f"farm events: {rendered}")
    return "\n".join(lines)


def write_report(
    document: dict, path: _t.Union[str, pathlib.Path]
) -> pathlib.Path:
    """Write one report document as JSON; returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document) + "\n")
    return path
