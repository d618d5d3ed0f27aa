"""``repro-pim`` — command-line interface to the reproduction harness.

Commands
--------
``repro-pim list``
    Show all registered experiments with their paper references.
``repro-pim run NAME [NAME ...]``
    Run experiments and print their reports.
``repro-pim all``
    Run every experiment.
``repro-pim replay TRACE``
    Replay a text trace file through the banked memory system and print
    its summary statistics (optional timestamped arrivals from the
    trace's third column, refresh modeling via ``--trefi``/``--trfc``/
    ``--refresh-granularity``).
``repro-pim farm TRACE [--workers N] [--mode ...] [--report FILE]``
    Replay a timestamped trace on the fault-tolerant sharded farm
    (multi-process channel sharding with retries, deadlines, and
    graceful degradation — statistics bit-identical to a
    single-process replay) and print the per-shard fault ledger; the
    plain ``replay`` verb's ``--workers N`` uses the same farm with
    default fault-tolerance policy.  See ``docs/robustness.md``.
``repro-pim report TRACE [--workers N] [--json FILE]``
    Replay a trace once and render one unified run report — metrics
    snapshot, exact latency percentiles, windowed time series, and
    (with ``--workers``) the farm fault ledger and supervisor event
    counts — as text tables plus a ``repro.telemetry/report-v2`` JSON
    document.
``repro-pim pimexec [--kernel NAME | --trace FILE]``
    Execute built-in PIM kernels on the per-bank execution units and
    compare against host-only twins, or replay an HBM-PIMulator-style
    program trace (``R/W GPR|CFR|MEM``, ``AB W``, ``PIM …``).
``repro-pim nn [--kernel NAME] [--dtype fp16|fp64] [--bank-groups]``
    Run the transformer kernel library (GEMM/softmax/LayerNorm/
    attention/FFN) on the PIM machine — IEEE-binary16 by default, with
    bit-exact reference checks — or emit a transformer-layer workload
    trace (``--emit-trace FILE``, fixed or Poisson arrivals) in the
    program dialect.

Options: ``--full`` (paper-size grids instead of quick ones), ``--seed``,
``--out DIR`` (write CSV tables + reports per experiment).  The replay
verbs (``replay``/``farm``/``pimexec``/``nn``) accept ``--metrics FILE``
(a ``repro.telemetry/v1`` metrics snapshot with exact latency
percentiles), ``--timeline FILE`` (a Chrome-trace-event command timeline
viewable in Perfetto), ``--timeseries FILE`` (a
``repro.telemetry/timeseries-v2`` windowed-metrics document,
bit-identical across replay tiers), and ``--energy FILE`` (a
``repro.telemetry/energy-v1`` command-level energy accounting with
pJ/bit and perf-per-watt); see ``docs/observability.md``.

Examples
--------
``repro-pim run table1``
    Regenerate the paper's Table 1 parameters.
``repro-pim run memsys_bandwidth``
    Replay synthetic traces through the banked :mod:`repro.memsys`
    simulator and cross-validate against the analytic DRAM model.
``repro-pim replay app.trace --scheme channel-interleaved``
    Replay a million-request trace in well under a second through the
    vectorized tier.
``repro-pim pimexec --kernel gemv --n 128``
    Run the GEMV microkernel on the per-bank execution units and report
    the host-vs-PIM execution times.
``repro-pim all --full --out results/``
    Full-size grids for every artifact, with CSV + report export.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import typing as _t

from .experiments import (
    ExperimentConfig,
    all_experiments,
    experiment_names,
    run_experiment,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-pim",
        description=(
            "Reproduction of 'Analysis and Modeling of Advanced PIM "
            "Architecture Design Tradeoffs' (SC 2004): regenerate every "
            "table and figure."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_p = sub.add_parser("run", help="run one or more experiments")
    run_p.add_argument(
        "names",
        nargs="+",
        metavar="NAME",
        help="experiment name(s); see 'repro-pim list'",
    )
    all_p = sub.add_parser("all", help="run every experiment")

    for p in (run_p, all_p):
        p.add_argument(
            "--full",
            action="store_true",
            help="use the full paper-size parameter grids (slower)",
        )
        p.add_argument(
            "--seed", type=int, default=0, help="root RNG seed"
        )
        p.add_argument(
            "--out",
            type=pathlib.Path,
            default=None,
            metavar="DIR",
            help="write CSV tables and reports under DIR/<experiment>/",
        )

    replay_p = sub.add_parser(
        "replay",
        help="replay a text trace file through the memory system",
    )
    _add_memsys_flags(replay_p)
    replay_p.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="replay on the sharded farm with N worker processes "
        "(default: 0 — plain single-process replay); the farm's "
        "statistics are bit-identical to a single-process replay",
    )
    _add_telemetry_flags(replay_p)

    farm_p = sub.add_parser(
        "farm",
        help="replay a trace on the fault-tolerant sharded farm "
        "and print the per-shard fault ledger",
    )
    _add_memsys_flags(farm_p)
    farm_p.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="worker-process cap (default: 0 — one per shard, up to "
        "the CPU count)",
    )
    farm_p.add_argument(
        "--mode", choices=("auto", "process", "inprocess"),
        default="auto",
        help="worker isolation: real processes, in-process (the "
        "degraded path), or auto (default)",
    )
    farm_p.add_argument(
        "--max-shards", type=int, default=None, metavar="N",
        help="cap on shard count (channels fold round-robin)",
    )
    farm_p.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="failed-attempt budget per shard before degrading to an "
        "in-process replay (default: 2)",
    )
    farm_p.add_argument(
        "--deadline", type=float, default=120.0, metavar="S",
        help="hard wall-clock ceiling per shard attempt in seconds "
        "(default: 120)",
    )
    farm_p.add_argument(
        "--heartbeat-timeout", type=float, default=10.0, metavar="S",
        help="heartbeat silence that marks a worker hung (default: 10)",
    )
    farm_p.add_argument(
        "--farm-seed", type=int, default=0, metavar="N",
        help="seed for the deterministic retry-backoff jitter",
    )
    farm_p.add_argument(
        "--report", type=pathlib.Path, default=None, metavar="FILE",
        help="write the farm report (attempts, retries, timeouts, "
        "per-shard outcomes) to FILE as JSON",
    )
    _add_telemetry_flags(farm_p)

    report_p = sub.add_parser(
        "report",
        help="replay a trace once and render one unified run report "
        "(metrics + exact percentiles + time series + farm ledger)",
    )
    _add_memsys_flags(report_p)
    report_p.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="replay on the sharded farm with N worker processes and "
        "include the fault ledger + supervisor event counts "
        "(default: 0 — plain single-process replay)",
    )
    report_p.add_argument(
        "--windows", type=int, default=None, metavar="N",
        help="number of time-series windows (default: 64)",
    )
    report_p.add_argument(
        "--json", type=pathlib.Path, default=None, metavar="FILE",
        help="write the repro.telemetry/report-v2 document to FILE",
    )
    report_p.add_argument(
        "--timeseries", type=pathlib.Path, default=None, metavar="FILE",
        help="also write the embedded repro.telemetry/timeseries-v2 "
        "document on its own to FILE",
    )
    report_p.add_argument(
        "--energy", type=pathlib.Path, default=None, metavar="FILE",
        help="also write the embedded repro.telemetry/energy-v1 "
        "document on its own to FILE",
    )

    pimexec_p = sub.add_parser(
        "pimexec",
        help=(
            "run PIM kernels on the per-bank execution units, or "
            "replay an HBM-PIMulator program trace"
        ),
    )
    pimexec_p.add_argument(
        "--kernel", default="all", metavar="NAME",
        help="kernel to run: vector-sum, axpy, gemv, or all (default)",
    )
    pimexec_p.add_argument(
        "--n", type=int, default=4096, metavar="N",
        help="problem size: vector length (vector-sum/axpy) or matrix "
        "columns for gemv scaled as N/32 (default: 4096)",
    )
    pimexec_p.add_argument(
        "--trace", type=pathlib.Path, default=None, metavar="FILE",
        help="replay an HBM-PIMulator-style program trace instead of "
        "running built-in kernels",
    )
    pimexec_p.add_argument(
        "--seed", type=int, default=0, help="kernel data RNG seed"
    )
    _add_telemetry_flags(pimexec_p)

    nn_p = sub.add_parser(
        "nn",
        help=(
            "run transformer kernels (GEMM/softmax/LayerNorm/"
            "attention/FFN) on the PIM machine, or emit a "
            "transformer-layer workload trace"
        ),
    )
    nn_p.add_argument(
        "--kernel", default="all", metavar="NAME",
        help="kernel to run: gemm, softmax, layernorm, attention, "
        "ffn, or all (default)",
    )
    nn_p.add_argument(
        "--dtype", choices=("fp16", "fp64"), default="fp16",
        help="arithmetic dtype: IEEE binary16 (default) or the "
        "idealized float64 model",
    )
    nn_p.add_argument(
        "--bank-groups", action="store_true",
        help="half-bank execution: one unit per even/odd bank pair",
    )
    nn_p.add_argument(
        "--seed", type=int, default=0, help="kernel data RNG seed"
    )
    nn_p.add_argument(
        "--emit-trace", type=pathlib.Path, default=None,
        metavar="FILE",
        help="write a transformer-layer program trace to FILE "
        "instead of running kernels",
    )
    nn_p.add_argument(
        "--d-model", type=int, default=32, metavar="N",
        help="trace model width (default: 32)",
    )
    nn_p.add_argument(
        "--heads", type=int, default=2, metavar="N",
        help="trace attention heads (default: 2)",
    )
    nn_p.add_argument(
        "--seq-len", type=int, default=32, metavar="N",
        help="trace sequence length (default: 32)",
    )
    nn_p.add_argument(
        "--d-ff", type=int, default=None, metavar="N",
        help="trace feed-forward width (default: 4 * d_model)",
    )
    nn_p.add_argument(
        "--interarrival", choices=("fixed", "poisson"),
        default="fixed",
        help="trace arrival process (default: fixed cadence)",
    )
    nn_p.add_argument(
        "--interarrival-ns", type=float, default=4.0, metavar="NS",
        help="mean issue interarrival of the trace (default: 4)",
    )
    _add_telemetry_flags(nn_p)
    return parser


def _add_memsys_flags(parser: argparse.ArgumentParser) -> None:
    """Trace + memory-system geometry flags shared by replay/farm."""
    parser.add_argument(
        "trace", type=pathlib.Path, metavar="TRACE",
        help="trace file (OP ADDRESS [TIMESTAMP_NS] per line; see "
        "docs/trace-formats.md)",
    )
    parser.add_argument(
        "--scheme", default="row-major",
        help="address-interleaving scheme (default: row-major)",
    )
    parser.add_argument(
        "--policy", choices=("fcfs", "frfcfs"), default="frfcfs",
        help="controller scheduling policy (default: frfcfs)",
    )
    parser.add_argument(
        "--channels", type=int, default=2, metavar="N",
        help="number of channels (default: 2)",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=16, metavar="N",
        help="per-channel request-queue depth (default: 16)",
    )
    parser.add_argument(
        "--trefi", type=float, default=0.0, metavar="NS",
        help="refresh interval tREFI in ns (0 disables refresh "
        "modeling; HBM2-class: 3900)",
    )
    parser.add_argument(
        "--trfc", type=float, default=0.0, metavar="NS",
        help="refresh cycle time tRFC in ns (HBM2-class: 350)",
    )
    parser.add_argument(
        "--refresh-granularity",
        choices=("per-rank", "per-bank"),
        default="per-rank",
        help="all-bank refresh stalling the channel (per-rank, "
        "default) or staggered per-bank refresh the scheduler works "
        "around (per-bank)",
    )


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    """``--metrics``/``--timeline``/``--timeseries``/``--energy``
    shared by the replay verbs."""
    parser.add_argument(
        "--metrics", type=pathlib.Path, default=None, metavar="FILE",
        help="write a repro.telemetry/v1 metrics snapshot (counters, "
        "gauges, exact latency percentiles) to FILE as JSON",
    )
    parser.add_argument(
        "--timeline", type=pathlib.Path, default=None, metavar="FILE",
        help="write a Chrome-trace-event command timeline (per-bank "
        "busy spans, row open/close, refresh blackouts) to FILE — "
        "open it in Perfetto / chrome://tracing",
    )
    parser.add_argument(
        "--timeseries", type=pathlib.Path, default=None, metavar="FILE",
        help="write a repro.telemetry/timeseries-v2 windowed-metrics "
        "document (offered/served load, bandwidth, queue depth, busy "
        "and refresh fractions, power over time) to FILE as JSON",
    )
    parser.add_argument(
        "--energy", type=pathlib.Path, default=None, metavar="FILE",
        help="write a repro.telemetry/energy-v1 command-level energy "
        "accounting (per-class breakdown, pJ/bit, mean power, "
        "perf-per-watt, windowed power series) to FILE as JSON",
    )


def _make_telemetry(args: argparse.Namespace) -> _t.Optional[_t.Any]:
    """A :class:`~repro.telemetry.ReplayTelemetry` if any flag asks."""
    if (
        args.metrics is None
        and args.timeline is None
        and getattr(args, "timeseries", None) is None
        and getattr(args, "energy", None) is None
    ):
        return None
    from .telemetry import ReplayTelemetry

    return ReplayTelemetry()


def _write_telemetry(
    args: argparse.Namespace,
    telemetry: _t.Optional[_t.Any],
    registry: _t.Optional[_t.Any] = None,
    **tags: _t.Any,
) -> None:
    """Write the requested ``--metrics``/``--timeline``/``--timeseries``
    files."""
    if telemetry is None:
        return
    if args.metrics is not None:
        from .telemetry import MetricsRegistry

        if registry is None:
            registry = MetricsRegistry(source="repro-pim")
        telemetry.metrics_into(registry, **tags)
        registry.write(args.metrics)
        print(f"metrics:  wrote {args.metrics} ({len(registry)} entries)")
    if args.timeline is not None:
        from .telemetry import build_timeline

        document = build_timeline(telemetry)
        args.timeline.parent.mkdir(parents=True, exist_ok=True)
        args.timeline.write_text(json.dumps(document) + "\n")
        print(
            f"timeline: wrote {args.timeline} "
            f"({len(document['traceEvents'])} events)"
        )
    _write_documents(args, telemetry)


def _write_documents(
    args: argparse.Namespace,
    telemetry: _t.Any,
    timeseries: _t.Optional[dict] = None,
    energy: _t.Optional[dict] = None,
) -> None:
    """Write the ``--timeseries``/``--energy`` files, building each
    document from ``telemetry`` unless the caller already has it."""
    if getattr(args, "timeseries", None) is not None:
        if timeseries is None:
            from .telemetry import build_timeseries

            timeseries = build_timeseries(telemetry)
        args.timeseries.parent.mkdir(parents=True, exist_ok=True)
        args.timeseries.write_text(json.dumps(timeseries) + "\n")
        print(
            f"timeseries: wrote {args.timeseries} "
            f"({timeseries['n_windows']} windows)"
        )
    if getattr(args, "energy", None) is not None:
        if energy is None:
            from .telemetry import build_energy

            energy = build_energy(telemetry)
        args.energy.parent.mkdir(parents=True, exist_ok=True)
        args.energy.write_text(json.dumps(energy) + "\n")
        print(
            f"energy:   wrote {args.energy} "
            f"({energy['total_pj']:.6g} pJ, "
            f"{energy['pj_per_bit']:.6g} pJ/bit)"
        )


def _config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        quick=not args.full, seed=args.seed, out_dir=args.out
    )


def _memsys_config_and_trace(
    args: argparse.Namespace,
) -> _t.Tuple[_t.Any, _t.Any]:
    """Build (MemSysConfig, PackedTrace) from shared CLI flags."""
    from .memsys import MemSysConfig, parse_trace

    config = MemSysConfig(
        n_channels=args.channels,
        scheme=args.scheme,
        policy=args.policy,
        queue_depth=args.queue_depth,
        trefi_ns=args.trefi,
        trfc_ns=args.trfc,
        refresh_granularity=args.refresh_granularity,
    )
    return config, parse_trace(args.trace, packed=True)


#: Every bad-input failure a replay verb can hit: config/trace
#: validation (ValueError subclasses), replay/farm state errors
#: (RuntimeError subclasses), unreadable files, and binary garbage
#: where text was expected.  One line on stderr, exit code 2 — never
#: a traceback.
_BAD_INPUT = (ValueError, RuntimeError, OSError, UnicodeDecodeError)


class _Replayed(_t.NamedTuple):
    """One trace replay of the ``replay``/``farm``/``report`` verbs."""

    config: _t.Any
    stats: _t.Any
    farm_report: _t.Optional[_t.Any]
    tier: str
    elapsed_s: float


#: Each trace verb's bad-input message prefix.
_FAILED = {"replay": "replay", "farm": "farm replay", "report": "report"}


def _farm_config(args: argparse.Namespace) -> _t.Optional[_t.Any]:
    """The farm a trace verb replays on: the ``farm`` verb's full
    policy, the default policy for ``--workers N``, else ``None``."""
    from .farm import FarmConfig

    if args.command == "farm":
        return FarmConfig(
            workers=args.workers,
            mode=args.mode,
            max_shards=args.max_shards,
            max_retries=args.max_retries,
            deadline_s=args.deadline,
            heartbeat_timeout_s=args.heartbeat_timeout,
            seed=args.farm_seed,
        )
    if args.workers:
        return FarmConfig(workers=args.workers)
    return None


def _replay_trace(
    args: argparse.Namespace, telemetry: _t.Optional[_t.Any]
) -> _t.Optional[_Replayed]:
    """Load ``args.trace`` and replay it once: on the farm when the verb
    asks for one (:func:`_farm_config`), in one process otherwise.
    Returns ``None`` after printing why the input was bad."""
    import time

    from .farm import replay_farm
    from .memsys import MemorySystem

    if not args.trace.exists():
        print(f"no such trace file: {args.trace}", file=sys.stderr)
        return None
    try:
        config, trace = _memsys_config_and_trace(args)
        if len(trace) == 0:
            print(f"empty trace: {args.trace}", file=sys.stderr)
            return None
        farm = _farm_config(args)
        started = time.perf_counter()
        if farm is None:
            system = MemorySystem(config)
            stats = system.replay(trace, telemetry=telemetry)
            farm_report, tier = None, str(system.last_replay_engine)
        else:
            result = replay_farm(trace, config, farm, telemetry=telemetry)
            stats, farm_report = result.stats, result.report
            tier = (
                "farm (single-process fallback)"
                if farm_report.fell_back_to_single
                else "farm"
            )
        elapsed = time.perf_counter() - started
    except _BAD_INPUT as error:
        print(f"{_FAILED[args.command]} failed: {error}", file=sys.stderr)
        return None
    return _Replayed(config, stats, farm_report, tier, elapsed)


def _replay_metrics(
    args: argparse.Namespace, replayed: _Replayed, telemetry: _t.Any
) -> _t.Any:
    """The memsys (and farm) metrics registry of one trace replay."""
    from .telemetry import MetricsRegistry, farm_metrics, memsys_metrics

    registry = MetricsRegistry(
        source=f"repro-pim {args.command} {args.trace}"
    )
    memsys_metrics(
        registry=registry,
        stats=replayed.stats,
        telemetry=telemetry,
        scheme=args.scheme,
        policy=args.policy,
    )
    if replayed.farm_report is not None:
        farm_metrics(replayed.farm_report, registry)
    return registry


def _replay_command(args: argparse.Namespace) -> int:
    """Replay a trace file and print the summary statistics."""
    from .memsys import MemorySystem

    telemetry = _make_telemetry(args)
    replayed = _replay_trace(args, telemetry)
    if replayed is None:
        return 2
    stats = replayed.stats
    print(f"trace:    {args.trace} ({stats.n_requests} requests)")
    print(f"system:   {MemorySystem(replayed.config)!r}")
    print(
        f"engine:   {replayed.tier} "
        f"({stats.n_requests / replayed.elapsed_s:,.0f} requests/s "
        "wall-clock)"
    )
    report = replayed.farm_report
    if report is not None:
        print(
            f"farm:     {report.n_shards} shard(s), "
            f"{report.workers} worker(s), {report.attempts} "
            f"attempt(s), {report.retries} retrie(s)"
        )
    for key, value in stats.summary().items():
        print(f"{key:22s} {value:.6g}")
    registry = (
        _replay_metrics(args, replayed, telemetry) if args.metrics else None
    )
    _write_telemetry(
        args, telemetry, registry, scheme=args.scheme, policy=args.policy
    )
    return 0


def _farm_command(args: argparse.Namespace) -> int:
    """Replay on the sharded farm; print the fault ledger."""
    from .telemetry import replay_tier

    telemetry = _make_telemetry(args)
    replayed = _replay_trace(args, telemetry)
    if replayed is None:
        return 2
    stats, report = replayed.stats, replayed.farm_report
    print(f"trace:    {args.trace} ({stats.n_requests} requests)")
    print(
        f"farm:     mode={report.mode} workers={report.workers} "
        f"shards={report.n_shards} "
        f"({stats.n_requests / replayed.elapsed_s:,.0f} requests/s "
        "wall-clock)"
    )
    print(
        f"ledger:   attempts={report.attempts} "
        f"retries={report.retries} timeouts={report.timeouts} "
        f"crashes={report.crashes} "
        f"integrity={report.integrity_failures} "
        f"degraded={report.degraded_shards}"
    )
    if report.fell_back_to_single:
        print(f"fallback: {report.fallback_reason}")
    tiers = sorted(
        {replay_tier(shard.engine) or "unknown" for shard in report.shards}
    )
    if tiers:
        print(f"tiers:    {', '.join(tiers)}")
    for shard in report.shards:
        flags = " degraded" if shard.degraded else ""
        print(
            f"shard {shard.shard_id}: channels={list(shard.channels)} "
            f"requests={shard.n_requests} attempts={shard.attempts} "
            f"engine={shard.engine} "
            f"tier={replay_tier(shard.engine)}{flags}"
        )
    for key, value in stats.summary().items():
        print(f"{key:22s} {value:.6g}")
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(
            json.dumps(report.to_dict(), indent=2) + "\n"
        )
        print(f"report:   wrote {args.report}")
    registry = (
        _replay_metrics(args, replayed, telemetry) if args.metrics else None
    )
    _write_telemetry(
        args, telemetry, registry, scheme=args.scheme, policy=args.policy
    )
    return 0


def _report_command(args: argparse.Namespace) -> int:
    """Replay once; render the unified run report."""
    from .telemetry import (
        ReplayTelemetry,
        build_energy,
        build_report,
        build_timeseries,
        render_report,
        write_report,
    )

    telemetry = ReplayTelemetry()
    replayed = _replay_trace(args, telemetry)
    if replayed is None:
        return 2
    try:
        registry = _replay_metrics(args, replayed, telemetry)
        telemetry.metrics_into(
            registry, scheme=args.scheme, policy=args.policy
        )
        timeseries = build_timeseries(telemetry, n_windows=args.windows)
        energy = build_energy(telemetry)
        document = build_report(
            telemetry,
            registry=registry,
            timeseries=timeseries,
            farm_report=replayed.farm_report,
            source=registry.source,
            energy=energy,
        )
    except _BAD_INPUT as error:
        print(f"report failed: {error}", file=sys.stderr)
        return 2
    print(render_report(document))
    if args.json is not None:
        write_report(document, args.json)
        print(f"report:   wrote {args.json}")
    _write_documents(args, telemetry, timeseries, energy)
    return 0


def _pimexec_command(args: argparse.Namespace) -> int:
    """Run PIM kernels (or replay a program trace); print a report."""
    from .pimexec import (
        KERNEL_NAMES,
        PimExecMachine,
        build_kernel,
        parse_pim_program,
    )

    if args.trace is not None:
        if not args.trace.exists():
            print(f"no such trace file: {args.trace}", file=sys.stderr)
            return 2
        try:
            program = parse_pim_program(args.trace)
            machine = PimExecMachine()
            program.execute(machine)
            telemetry = _make_telemetry(args)
            result = machine.replay(telemetry=telemetry)
        except _BAD_INPUT as error:
            print(f"pimexec replay failed: {error}", file=sys.stderr)
            return 2
        print(f"trace:    {args.trace} ({len(program)} records)")
        print(f"records:  {program.counts()}")
        print(
            f"requests: {result.n_requests} "
            f"(pim={result.n_pim} broadcast={result.n_broadcast} "
            f"host={result.n_host})"
        )
        print(f"engine:   {result.engine}")
        print(f"makespan: {result.makespan_ns:.1f} ns")
        if telemetry is not None:
            registry = None
            if args.metrics is not None:
                from .telemetry import MetricsRegistry, pimexec_metrics

                registry = MetricsRegistry(
                    source=f"repro-pim pimexec --trace {args.trace}"
                )
                pimexec_metrics(result, registry, machine=machine)
            _write_telemetry(args, telemetry, registry)
        return 0

    def build(name: str) -> _t.Any:
        kwargs = (
            {"n_cols": max(1, args.n // 32)}
            if name == "gemv"
            else {"n": args.n}
        )
        return build_kernel(name, seed=args.seed, **kwargs)

    return _kernel_loop(args, "pimexec", KERNEL_NAMES, build)


def _nn_command(args: argparse.Namespace) -> int:
    """Run transformer kernels (or emit a workload trace)."""
    from .nn import (
        NN_KERNEL_NAMES,
        TransformerLayerSpec,
        build_nn_kernel,
        transformer_layer_trace,
    )

    if args.emit_trace is not None:
        if (
            args.metrics is not None
            or args.timeline is not None
            or args.timeseries is not None
            or args.energy is not None
        ):
            print(
                "--metrics/--timeline/--timeseries/--energy instrument "
                "a replay; they do not apply to --emit-trace",
                file=sys.stderr,
            )
            return 2
        try:
            spec = TransformerLayerSpec(
                d_model=args.d_model,
                n_heads=args.heads,
                seq_len=args.seq_len,
                d_ff=args.d_ff,
            )
            text = transformer_layer_trace(
                spec,
                interarrival_ns=args.interarrival_ns,
                interarrival=args.interarrival,
                seed=args.seed,
            )
        except ValueError as error:
            print(f"nn trace generation failed: {error}", file=sys.stderr)
            return 2
        try:
            args.emit_trace.parent.mkdir(parents=True, exist_ok=True)
            args.emit_trace.write_text(text)
        except OSError as error:
            print(
                f"cannot write {args.emit_trace}: {error}",
                file=sys.stderr,
            )
            return 2
        lines = sum(
            1
            for line in text.splitlines()
            if line and not line.startswith("#")
        )
        print(
            f"wrote {args.emit_trace}: {lines} records "
            f"(d_model={spec.d_model} heads={spec.n_heads} "
            f"seq={spec.seq_len} d_ff={spec.ff_width}, "
            f"{args.interarrival} arrivals @ "
            f"{args.interarrival_ns} ns)"
        )
        return 0

    def build(name: str) -> _t.Any:
        return build_nn_kernel(
            name,
            dtype=args.dtype,
            bank_groups=args.bank_groups,
            seed=args.seed,
        )

    return _kernel_loop(
        args, "nn", NN_KERNEL_NAMES, build,
        dtype=args.dtype,
        mode="bank-group" if args.bank_groups else "per-bank",
    )


def _kernel_loop(
    args: argparse.Namespace,
    verb: str,
    available: _t.Sequence[str],
    build: _t.Callable[[str], _t.Any],
    **tags: str,
) -> int:
    """Run ``--kernel`` (one name or ``all``) host-vs-PIM; print a table.

    ``build`` maps a kernel name to a
    :class:`~repro.pimexec.kernels.PimKernel`; ``tags`` (the ``nn``
    verb's dtype and mode) head the table and label the metrics.
    Exit 2 on an unknown name, an instrumented multi-kernel run, or a
    kernel that fails to build or run; exit 1 naming every kernel
    whose bank state diverged from its reference.
    """
    from .pimexec import compare_host_pim

    names = list(available) if args.kernel == "all" else [args.kernel]
    unknown = [n for n in names if n not in available]
    if unknown:
        print(
            f"unknown kernel(s): {', '.join(unknown)}\n"
            f"available: {', '.join(available)}",
            file=sys.stderr,
        )
        return 2
    if (
        args.metrics or args.timeline or args.timeseries or args.energy
    ) and len(names) != 1:
        print(
            "--metrics/--timeline/--timeseries/--energy instrument one "
            "replay: pick a single kernel with --kernel NAME",
            file=sys.stderr,
        )
        return 2
    if tags:
        print(" ".join(f"{key}={value}" for key, value in tags.items()))
    print(
        f"{'kernel':12s} {'host_ns':>10s} {'pim_ns':>10s} "
        f"{'speedup':>8s} {'correct':>8s}"
    )
    failures = []
    for name in names:
        try:
            kernel = build(name)
            telemetry = _make_telemetry(args)
            comparison = compare_host_pim(kernel, telemetry=telemetry)
        except (ValueError, RuntimeError) as error:
            print(f"{verb} {name} failed: {error}", file=sys.stderr)
            return 2
        print(
            f"{name:12s} {comparison.host.makespan_ns:10.0f} "
            f"{comparison.pim.makespan_ns:10.0f} "
            f"{comparison.speedup:8.2f} "
            f"{'yes' if comparison.correct else 'NO':>8s}"
        )
        if telemetry is not None:
            registry = None
            if args.metrics is not None:
                from .telemetry import MetricsRegistry, pimexec_metrics

                registry = MetricsRegistry(
                    source=f"repro-pim {verb} --kernel {name}"
                )
                pimexec_metrics(
                    comparison.pim,
                    registry,
                    machine=comparison.machine,
                    kernel=name,
                    **tags,
                )
            _write_telemetry(
                args, telemetry, registry, kernel=name, **tags
            )
        if not comparison.correct:
            failures.append(comparison)
    if failures:
        print(
            f"bank state diverged from the {failures[0].dtype} "
            f"reference for: {', '.join(c.kernel for c in failures)}",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: _t.Optional[_t.Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "replay":
        return _replay_command(args)

    if args.command == "farm":
        return _farm_command(args)

    if args.command == "report":
        return _report_command(args)

    if args.command == "pimexec":
        return _pimexec_command(args)

    if args.command == "nn":
        return _nn_command(args)

    if args.command == "list":
        for exp in all_experiments():
            print(f"{exp.name:20s} {exp.paper_reference:32s} {exp.title}")
        return 0

    names = (
        experiment_names() if args.command == "all" else list(args.names)
    )
    unknown = [n for n in names if n not in experiment_names()]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)}\n"
            f"available: {', '.join(experiment_names())}",
            file=sys.stderr,
        )
        return 2

    config = _config(args)
    failures: _t.List[str] = []
    for name in names:
        result = run_experiment(name, config, echo=print)
        if not result.passed:
            failures.append(
                f"{name}: {', '.join(result.failed_checks())}"
            )
    if failures:
        print("FAILED shape checks:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"all shape checks passed for: {', '.join(names)}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
