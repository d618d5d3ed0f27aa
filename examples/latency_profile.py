"""Per-request latency profiling with ``repro.telemetry``.

Replays one random trace with a
:class:`~repro.telemetry.ReplayTelemetry` attached, checks the recorded
per-request arrays against the timing laws
(:func:`repro.memsys.check_laws`), prints the exact queue-wait/service
percentile table and the replay's self-profiling phase timers, and
writes a Chrome-trace command timeline that https://ui.perfetto.dev opens directly.  See
``docs/observability.md`` for the schemas.

Run: ``PYTHONPATH=src python examples/latency_profile.py``
"""

import json
import tempfile
import pathlib

from repro.memsys import (
    MemSysConfig,
    MemorySystem,
    check_laws,
    synthesize_trace,
)
from repro.telemetry import (
    MetricsRegistry,
    ReplayTelemetry,
    memsys_metrics,
    validate_timeline,
    write_timeline,
)

N = 20_000


def main() -> None:
    config = MemSysConfig()
    trace = synthesize_trace("random", N, config, seed=0)

    # ------------------------------------------------------------------
    # 1. one instrumented replay, checked against the timing laws
    # ------------------------------------------------------------------
    fast = ReplayTelemetry()
    stats = MemorySystem(config).replay(trace, telemetry=fast)
    print(f"replayed {N} random requests")
    print(f"  served by: {fast.engine}")
    violations = check_laws(config, fast.recorder.arrays)
    print(f"timing laws hold: {not violations}")
    assert not violations, violations[:5]

    # ------------------------------------------------------------------
    # 2. exact latency percentiles (nearest-rank order statistics)
    # ------------------------------------------------------------------
    print("\nlatency percentiles (ns, exact):")
    header = f"  {'duration':18s}{'p50':>8s}{'p95':>8s}{'p99':>8s}{'max':>8s}"
    print(header)
    for name, summary in fast.percentiles().items():
        print(
            f"  {name:18s}"
            f"{summary['p50']:8.1f}{summary['p95']:8.1f}"
            f"{summary['p99']:8.1f}{summary['max']:8.1f}"
        )

    # ------------------------------------------------------------------
    # 3. where the simulator itself spent wall-clock time
    # ------------------------------------------------------------------
    print("\nreplay phase profile (wall-clock):")
    for phase, seconds in fast.profiler.phases.items():
        print(f"  {phase:14s} {1e3 * seconds:8.3f} ms")

    # ------------------------------------------------------------------
    # 4. one metrics snapshot holding everything
    # ------------------------------------------------------------------
    registry = MetricsRegistry(source="examples/latency_profile.py")
    memsys_metrics(stats, registry, scheme=config.scheme)
    fast.metrics_into(registry, scheme=config.scheme)
    snapshot = registry.snapshot()
    print(
        f"\nmetrics snapshot ({snapshot['schema']}): "
        f"{len(registry)} entries "
        f"({len(snapshot['counters'])} counters, "
        f"{len(snapshot['gauges'])} gauges, "
        f"{len(snapshot['histograms'])} histograms)"
    )

    # ------------------------------------------------------------------
    # 5. the command timeline (open in Perfetto / chrome://tracing)
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = write_timeline(fast, pathlib.Path(tmp) / "timeline.json")
        document = json.loads(path.read_text())
        problems = validate_timeline(document)
        spans = sum(
            1 for e in document["traceEvents"] if e["ph"] == "X"
        )
        print(
            f"command timeline: {spans} spans across "
            f"{config.n_channels} channel processes "
            f"(schema valid: {not problems})"
        )
        assert not problems, problems


if __name__ == "__main__":
    main()
