"""Benchmark: PIM kernel execution-pipeline throughput.

Times the full :mod:`repro.pimexec` pipeline — functional all-bank
execution (every dynamic CRF instruction runs in every bank) plus the
replay of the generated mixed host+PIM request stream through the
banked memory system — on a large ``vector-sum`` kernel, and records
the simulated host-vs-PIM speedup of every built-in kernel.

The pipeline rates are the median of :data:`PIPELINE_RUNS` runs, with
their interquartile range as ``*_spread_pct`` of the median
(``benchmarks/benchstats.py``); each layer of a run — ``stage_s`` (data
staging, outside the rates), ``execute_s`` and ``replay_s`` — is
reported under ``"layers"`` as the median and IQR of the same runs.

Each run asserts bit-exact correctness of the per-bank register state
against the NumPy reference before timing counts, so the benchmark
doubles as an at-scale end-to-end check.

Run directly (``PYTHONPATH=src python benchmarks/bench_pimexec.py
--json BENCH_pimexec.json``) to emit a machine-readable record; CI does
this every push, next to ``BENCH_memsys.json``.
"""

import argparse
import json
import pathlib
import time

from benchstats import spread
from repro.memsys import MemSysConfig
from repro.pimexec import KERNEL_NAMES, PimExecMachine, build_kernel

#: Vector length for the timed pipeline run (16384 all-bank commands).
N_VALUES = 1_048_576
#: Timed-run geometry: a full HBM2 stack exposes 16 pseudo-channels
#: (the Aquabolt shape), which spreads the same command count over
#: more banks so the vectorized tier is exercised at its widest.
N_CHANNELS = 16
#: Acceptance floors.  The commands/s floor pins the lockstep
#: execution path: stepping the units one channel (or one unit) at a
#: time sits far below it, so a kernel that silently leaves the
#: lockstep path fails the bench.
MIN_COMMANDS_PER_SEC = 1_000_000
#: Timed runs behind the commands/s gate and the per-layer record: a
#: single ~20 ms run cannot resolve its floor from scheduler noise.
PIPELINE_RUNS = 7
MIN_VECTOR_SUM_SPEEDUP = 1.5
MAX_TELEMETRY_OVERHEAD_PCT = 5.0


def bench_config(n_channels=N_CHANNELS):
    """Memory-system geometry for the timed runs."""
    return MemSysConfig(n_channels=n_channels)


def run_pipeline(n=N_VALUES, telemetry=None):
    """Time stage, execute, and replay of a ``vector-sum`` kernel of
    ``n`` values.

    Returns ``(commands_per_sec, values_per_sec, result, seconds)`` with
    ``seconds`` keyed ``stage_s``/``execute_s``/``replay_s``; the rates
    cover execute + replay (data staging is untimed there).  An
    optional :class:`repro.telemetry.ReplayTelemetry` instruments the
    replay.
    """
    kernel = build_kernel("vector-sum", n=n, config=bench_config())
    machine = PimExecMachine(kernel.config)
    started = time.perf_counter()
    kernel.setup(machine)
    machine.reset_requests()
    staged = time.perf_counter()
    kernel.execute(machine)
    executed = time.perf_counter()
    result = machine.replay(telemetry=telemetry)
    replayed = time.perf_counter()
    assert kernel.check(machine), "bank state diverged from NumPy"
    seconds = {
        "stage_s": staged - started,
        "execute_s": executed - staged,
        "replay_s": replayed - executed,
    }
    elapsed = replayed - staged
    return result.n_pim / elapsed, n / elapsed, result, seconds


def pipeline_median(runs=PIPELINE_RUNS):
    """``runs`` timed pipeline runs, summarized by :func:`spread`.

    Returns ``(commands, values, layers, result)``: the spreads of the
    commands/s and values/s rates, one spread per layer keyed
    ``stage_s``/``execute_s``/``replay_s``, and the last run's replay
    result.
    """
    samples = [run_pipeline() for _ in range(runs)]
    layers = {
        layer: spread([run[3][layer] for run in samples])
        for layer in samples[0][3]
    }
    return (
        spread([run[0] for run in samples]),
        spread([run[1] for run in samples]),
        layers,
        samples[-1][2],
    )


def replay_overhead(n=N_VALUES, pairs=5):
    """Replay-only telemetry overhead on one accumulated stream.

    Executes the kernel once, then alternates uninstrumented and
    instrumented replays of the identical request stream so the
    overhead ratio isolates the recorder cost from the (much larger,
    telemetry-free) functional-execution half of the pipeline.
    Returns ``(on_rate, overhead_pct, spread_pct, telemetry)``.
    """
    from repro.telemetry import ReplayTelemetry

    kernel = build_kernel("vector-sum", n=n, config=bench_config())
    machine = PimExecMachine(kernel.config)
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


def kernel_speedups(n=8_192):
    """Simulated host-vs-PIM speedup of every built-in kernel."""
    from repro.pimexec import compare_host_pim

    rows = []
    for name in KERNEL_NAMES:
        kwargs = {"n_cols": n // 64} if name == "gemv" else {"n": n}
        comparison = compare_host_pim(build_kernel(name, **kwargs))
        assert comparison.correct, name
        rows.append(
            {
                "kernel": name,
                "host_ns": comparison.host.makespan_ns,
                "pim_ns": comparison.pim.makespan_ns,
                "speedup": round(comparison.speedup, 2),
            }
        )
    return rows


def test_bench_pipeline(benchmark):
    commands, _values, _layers, result = benchmark.pedantic(
        pipeline_median, rounds=1, iterations=1
    )
    commands_rate = commands["median"]
    print(
        f"pipeline: median {commands_rate:,.0f} commands/s over "
        f"{PIPELINE_RUNS} runs, spread {commands['spread_pct']:.1f}%"
    )
    # one all-bank command per slot per channel: each of the
    # 16 lanes * 4 units * N_CHANNELS banks holds N/(16*4*N_CHANNELS)
    # slots, so n_pim = slots * N_CHANNELS = N / 64 for any channel count
    assert result.n_pim == N_VALUES // 64
    assert result.engine == "fast-vectorized"
    assert commands_rate >= MIN_COMMANDS_PER_SEC


def test_bench_kernel_speedups(benchmark):
    rows = benchmark.pedantic(kernel_speedups, rounds=1, iterations=1)
    by_name = {row["kernel"]: row["speedup"] for row in rows}
    assert by_name["vector-sum"] >= MIN_VECTOR_SUM_SPEEDUP
    assert sum(s > 1.0 for s in by_name.values()) >= 2


def main(argv=None) -> int:
    """Measure the pipeline and optionally write a JSON record."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="write the throughput record to FILE",
    )
    args = parser.parse_args(argv)

    run_pipeline(n=32_768)  # warm-up
    commands, values, layers, result = pipeline_median()
    commands_rate = commands["median"]
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
    speedups = kernel_speedups()
    record = {
        "benchmark": "pimexec_pipeline_throughput",
        "vector_sum_values": N_VALUES,
        "n_channels": N_CHANNELS,
        "all_bank_commands_per_sec": round(commands_rate),
        "all_bank_commands_spread_pct": commands["spread_pct"],
        "telemetry_commands_per_sec": round(telemetry_rate),
        "telemetry_overhead_pct": round(telemetry_overhead_pct, 2),
        "telemetry_overhead_spread_pct": round(spread_pct, 2),
        "timeseries_windows": timeseries["n_windows"],
        "energy_total_pj": round(energy["total_pj"], 3),
        "energy_pj_per_bit": round(energy["pj_per_bit"], 6),
        "energy_mean_power_w": round(energy["mean_power_w"], 6),
        # every request in the instrumented pimexec stream is one
        # command, so perf-per-watt is commands/s per simulated watt
        "energy_commands_per_s_per_w": round(
            energy["requests_per_s_per_w"]
        ),
        "latency_percentiles": percentiles,
        "values_per_sec": round(values["median"]),
        "layers": layers,
        "replay_engine": result.engine,
        "kernel_speedups": speedups,
        "floor_commands_per_sec": MIN_COMMANDS_PER_SEC,
        "floor_telemetry_overhead_pct": MAX_TELEMETRY_OVERHEAD_PCT,
        "passed": bool(
            commands_rate >= MIN_COMMANDS_PER_SEC
            and result.engine == "fast-vectorized"
            and sum(r["speedup"] > 1.0 for r in speedups) >= 2
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
