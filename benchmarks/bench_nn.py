"""Benchmark: transformer-kernel and workload-trace throughput.

Times the two :mod:`repro.nn` pipelines, layer by layer:

* **GEMM pipeline** — functional fp16 execution of a tiled
  ``(256 x 32) @ (32 x 32)`` GEMM on the per-bank units (every dynamic
  CRF instruction runs in every bank under IEEE binary16), then the
  replay of the generated mixed host+PIM request stream, asserting
  bit-exactness against the binary16 NumPy reference before timing
  counts;
* **trace pipeline** — building a full transformer-layer program
  (Poisson arrivals), lowering it to requests, and fast-path replay.

Each layer (``gemm.execute_s``, ``gemm.replay_s``, ``trace.build_s``,
``trace.lower_s``, ``trace.replay_s``) is reported under ``"layers"``
as the median and interquartile range of :data:`REPEATS` runs; the two
pipeline rates are the median of the same runs, with their
interquartile range as ``*_spread_pct`` of the median.

It also records the simulated host-vs-PIM speedup of every nn kernel
(plus the GEMV-shaped GEMM, the PIM-favored family).

Run directly (``PYTHONPATH=src python benchmarks/bench_nn.py --json
BENCH_nn.json``) to emit a machine-readable record; CI does this every
push, next to ``BENCH_memsys.json`` and ``BENCH_pimexec.json``.
"""

import argparse
import json
import pathlib
import statistics
import time

from repro.memsys import MemorySystem, MemSysConfig
from repro.nn import (
    NN_KERNEL_NAMES,
    TransformerLayerSpec,
    build_nn_kernel,
    transformer_layer_program,
)
from repro.pimexec import compare_host_pim

#: GEMM shape for the timed pipeline run.
GEMM_SHAPE = dict(m=256, k=32, n=32)
#: Transformer-layer spec for the timed trace run.
TRACE_SPEC = dict(d_model=32, n_heads=2, seq_len=32, d_ff=64)
#: Acceptance floors.  The commands/s floor assumes the vectorized
#: execution-unit tier; the GEMM stream itself interleaves per-column
#: host writes with the PIM commands, so its replay stays on the exact
#: fast engine (the AB-lockstep certificate correctly declines it).
MIN_COMMANDS_PER_SEC = 10_000
MIN_TRACE_RECORDS_PER_SEC = 3_000
MIN_GEMV_SPEEDUP = 1.5
MAX_TELEMETRY_OVERHEAD_PCT = 5.0
#: Timed runs per pipeline; each layer reports median + IQR over them.
REPEATS = 7


def run_gemm_pipeline(shape=None, telemetry=None):
    """Time execute, then replay, of the fp16 GEMM pipeline.

    Returns ``(commands_per_sec, result, machine, seconds)`` with
    ``seconds = {"execute_s": ..., "replay_s": ...}``; asserts the bank
    state is bit-exact against the binary16 reference before timing
    counts.  An optional :class:`repro.telemetry.ReplayTelemetry`
    instruments the replay half of the pipeline.
    """
    kernel = build_nn_kernel("gemm", dtype="fp16", **(shape or GEMM_SHAPE))
    machine = kernel.machine()
    kernel.setup(machine)  # data staging is untimed
    machine.reset_requests()
    started = time.perf_counter()
    kernel.execute(machine)
    executed = time.perf_counter()
    result = machine.replay(telemetry=telemetry)
    replayed = time.perf_counter()
    assert kernel.check(machine), "bank state diverged from binary16"
    seconds = {
        "execute_s": executed - started,
        "replay_s": replayed - executed,
    }
    return result.n_pim / (replayed - started), result, machine, seconds


def run_trace_pipeline(spec=None):
    """Time build, lower, and replay of a transformer-layer program.

    Returns ``(records_per_sec, n_records, seconds)`` with ``seconds``
    keyed ``build_s``/``lower_s``/``replay_s``.
    """
    config = MemSysConfig()
    started = time.perf_counter()
    program = transformer_layer_program(
        TransformerLayerSpec(**(spec or TRACE_SPEC)),
        config,
        interarrival_ns=4.0,
        interarrival="poisson",
    )
    built = time.perf_counter()
    requests = program.to_requests(config)
    lowered = time.perf_counter()
    stats = MemorySystem(config).replay(requests, engine="fast")
    replayed = time.perf_counter()
    assert stats.n_requests == len(requests)
    seconds = {
        "build_s": built - started,
        "lower_s": lowered - built,
        "replay_s": replayed - lowered,
    }
    return len(program) / (replayed - started), len(program), seconds


def layer_spread(samples):
    """Median and interquartile range of one layer's timed runs."""
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {
        "median": round(median, 6),
        "iqr": round(q3 - q1, 6),
        "repeats": len(samples),
    }


def rate_spread(rates):
    """Median of ``rates`` and their interquartile range as a
    percentage of it: the run's own noise estimate."""
    spread = layer_spread(rates)
    return spread["median"], 100 * spread["iqr"] / spread["median"]


def replay_overhead(shape=None, pairs=5):
    """Replay-only telemetry overhead on one accumulated GEMM stream.

    Executes the kernel once, then alternates uninstrumented and
    instrumented replays of the identical request stream so the
    overhead ratio isolates the recorder cost from the (much larger,
    telemetry-free) functional-execution half of the pipeline.
    Returns ``(on_rate, overhead_pct, spread_pct, telemetry)``.
    """
    from repro.telemetry import ReplayTelemetry

    kernel = build_nn_kernel("gemm", dtype="fp16", **(shape or GEMM_SHAPE))
    machine = kernel.machine()
    kernel.setup(machine)
    machine.reset_requests()
    kernel.execute(machine)
    # warm-up pair: the first replay of each flavor pays cold-start
    # costs (allocator pools, recorder imports) that would skew pair 0
    machine.replay()
    machine.replay(telemetry=ReplayTelemetry())
    off, on = [], []
    for _ in range(pairs):
        started = time.perf_counter()
        result = machine.replay()
        off.append(result.n_pim / (time.perf_counter() - started))
        telemetry = ReplayTelemetry()
        started = time.perf_counter()
        result = machine.replay(telemetry=telemetry)
        on.append(
            (result.n_pim / (time.perf_counter() - started), telemetry)
        )
    on_rate, telemetry = max(on, key=lambda r: r[0])
    # median of the per-pair ratios: each pair shares its moment's
    # machine conditions, and the median rejects GC/scheduler outliers;
    # the spread (max - min ratio) is the run's own noise estimate
    ratios = sorted(o / r for o, (r, _) in zip(off, on))
    overhead_pct = 100 * (ratios[len(ratios) // 2] - 1)
    spread_pct = 100 * (ratios[-1] - ratios[0])
    return on_rate, overhead_pct, spread_pct, telemetry


def kernel_speedups():
    """Simulated host-vs-PIM speedup of every nn kernel."""
    rows = []
    for name in NN_KERNEL_NAMES:
        comparison = compare_host_pim(build_nn_kernel(name, dtype="fp16"))
        assert comparison.correct, name
        rows.append(
            {
                "kernel": name,
                "host_ns": comparison.host.makespan_ns,
                "pim_ns": comparison.pim.makespan_ns,
                "speedup": round(comparison.speedup, 3),
            }
        )
    gemv = compare_host_pim(
        build_nn_kernel("gemm", dtype="fp16", m=128, k=32, n=1)
    )
    assert gemv.correct
    rows.append(
        {
            "kernel": "gemm (gemv-shaped)",
            "host_ns": gemv.host.makespan_ns,
            "pim_ns": gemv.pim.makespan_ns,
            "speedup": round(gemv.speedup, 3),
        }
    )
    return rows


def test_bench_gemm_pipeline(benchmark):
    rate, result, _, seconds = benchmark.pedantic(
        run_gemm_pipeline, rounds=1, iterations=1
    )
    assert result.n_pim > 0
    assert rate >= MIN_COMMANDS_PER_SEC
    assert set(seconds) == {"execute_s", "replay_s"}


def test_bench_trace_pipeline(benchmark):
    rate, records, seconds = benchmark.pedantic(
        run_trace_pipeline,
        args=(dict(d_model=16, n_heads=2, seq_len=16, d_ff=32),),
        rounds=1,
        iterations=1,
    )
    assert records > 1_000
    assert rate >= MIN_TRACE_RECORDS_PER_SEC
    assert set(seconds) == {"build_s", "lower_s", "replay_s"}


def test_bench_kernel_speedups(benchmark):
    rows = benchmark.pedantic(kernel_speedups, rounds=1, iterations=1)
    by_name = {row["kernel"]: row["speedup"] for row in rows}
    assert by_name["gemm (gemv-shaped)"] >= MIN_GEMV_SPEEDUP
    # the crossover story: at least one family on each side
    assert any(s > 1.0 for s in by_name.values())
    assert any(s < 1.0 for s in by_name.values())


def main(argv=None) -> int:
    """Measure both pipelines and optionally write a JSON record."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="write the throughput record to FILE",
    )
    args = parser.parse_args(argv)

    run_gemm_pipeline(dict(m=128, k=8, n=8))  # warm-up
    gemm_runs = [run_gemm_pipeline() for _ in range(REPEATS)]
    commands_rate, commands_spread_pct = rate_spread(
        [run[0] for run in gemm_runs]
    )
    result = gemm_runs[-1][1]
    telemetry_rate, telemetry_overhead_pct, spread_pct, telemetry = (
        replay_overhead()
    )
    # percentile + time-series + energy assembly is deliberately
    # outside the timed region — derivation must never ride the hot
    # path
    percentiles = telemetry.percentiles()
    from repro.telemetry import (
        build_energy,
        build_timeseries,
        validate_energy,
        validate_timeseries,
    )

    timeseries = build_timeseries(telemetry)
    assert validate_timeseries(timeseries) == []
    energy = build_energy(telemetry)
    assert validate_energy(energy) == []
    # tokens-equivalent perf-per-watt: the instrumented GEMM stream
    # processes GEMM_SHAPE["m"] token positions per simulated makespan
    tokens_per_s_per_w = (
        GEMM_SHAPE["m"]
        / (energy["makespan_ns"] * 1e-9)
        / energy["mean_power_w"]
    )
    trace_runs = [run_trace_pipeline() for _ in range(REPEATS)]
    trace_rate, trace_spread_pct = rate_spread([run[0] for run in trace_runs])
    trace_records = trace_runs[-1][1]
    layers = {
        f"{pipeline}.{layer}": layer_spread(
            [run[-1][layer] for run in runs]
        )
        for pipeline, runs in (("gemm", gemm_runs), ("trace", trace_runs))
        for layer in runs[0][-1]
    }
    speedups = kernel_speedups()
    by_name = {row["kernel"]: row["speedup"] for row in speedups}
    record = {
        "benchmark": "nn_transformer_throughput",
        "gemm_shape": GEMM_SHAPE,
        "replay_engine": result.engine,
        "fp16_commands_per_sec": round(commands_rate),
        "fp16_commands_spread_pct": round(commands_spread_pct, 2),
        "telemetry_commands_per_sec": round(telemetry_rate),
        "telemetry_overhead_pct": round(telemetry_overhead_pct, 2),
        "telemetry_overhead_spread_pct": round(spread_pct, 2),
        "timeseries_windows": timeseries["n_windows"],
        "energy_total_pj": round(energy["total_pj"], 3),
        "energy_pj_per_bit": round(energy["pj_per_bit"], 6),
        "energy_mean_power_w": round(energy["mean_power_w"], 6),
        "energy_tokens_per_s_per_w": round(tokens_per_s_per_w),
        "latency_percentiles": percentiles,
        "gemm_requests": result.n_requests,
        "trace_records": trace_records,
        "trace_records_per_sec": round(trace_rate),
        "trace_records_spread_pct": round(trace_spread_pct, 2),
        "layers": layers,
        "kernel_speedups": speedups,
        "floor_commands_per_sec": MIN_COMMANDS_PER_SEC,
        "floor_trace_records_per_sec": MIN_TRACE_RECORDS_PER_SEC,
        "floor_telemetry_overhead_pct": MAX_TELEMETRY_OVERHEAD_PCT,
        "passed": bool(
            commands_rate >= MIN_COMMANDS_PER_SEC
            and trace_rate >= MIN_TRACE_RECORDS_PER_SEC
            and by_name["gemm (gemv-shaped)"] >= MIN_GEMV_SPEEDUP
            and any(s > 1.0 for s in by_name.values())
            and any(s < 1.0 for s in by_name.values())
            # a median overhead inside the run's own noise spread is
            # not a verdict — compare_bench re-measures it instead
            and telemetry_overhead_pct - spread_pct
            < MAX_TELEMETRY_OVERHEAD_PCT
        ),
    }
    print(json.dumps(record, indent=2))
    if args.json is not None:
        args.json.write_text(json.dumps(record, indent=2) + "\n")
    return 0 if record["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
