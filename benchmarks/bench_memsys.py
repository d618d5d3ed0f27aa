"""Benchmark: trace replay throughput of the memory-system model.

Regimes timed:

* the **vectorized tier** on a 1M-request packed streaming replay,
  which must sustain at least 1,000,000 requests/s (in practice it
  clears that by a wide margin);
* the same 1M streaming replay with **per-rank refresh enabled**
  (HBM2-class tREFI=3900/tRFC=350): the epoch-batched closed form must
  hold the same >= 1M requests/s floor (median and spread of
  :data:`N_REFRESH_RUNS` runs), and the record carries the replay's
  ``certificate`` phase (the epoch solve plus the FIFO certificate) as
  a per-layer median and spread with no floor;
* **FR-FCFS random traffic** through the batched-heap exact tier, and
  **FCFS random traffic** through the arrival-fixed-point vectorized
  tier;
* **timestamped random traffic under per-rank refresh** — the
  ``random-farm`` input (200k requests, 30 ns Poisson arrivals, 4
  channels, seed 1) replayed in one process on the fenced-Lindley
  closed form, which must hold at least twice the exact tier's
  recorded random-traffic rate (median and spread of 3 runs);
* the 1M streaming replay with **telemetry enabled** (per-request
  latency recording + phase profiling via :mod:`repro.telemetry`): the
  zero-copy recorder must cost < 5% of the telemetry-off rate,
  and the record carries the exact queue-wait/service percentiles;
* the **post-replay derivation** of that stream (percentiles, the
  windowed time series and the energy document), timed on
  :data:`N_DERIVATIONS` fresh recorders and recorded as a median and
  its spread — a per-layer record with no floor.

Every rate in the record is the median of its runs, with their
interquartile range as ``*_spread_pct`` of the median
(``benchmarks/benchstats.py``).

Each benchmark asserts the §2.1 analytic cross-check before timing, so
the suite doubles as an end-to-end correctness smoke test at scale.

Run directly (``PYTHONPATH=src python benchmarks/bench_memsys.py --json
BENCH_memsys.json``) to emit a machine-readable throughput record; CI
does this every push so the perf trajectory is tracked PR-over-PR.
"""

import argparse
import json
import pathlib
import time

import pytest
from benchstats import spread

from repro.arch.dram import macro_bandwidth_bits_per_sec
from repro.memsys import MemSysConfig, MemorySystem, synthesize_trace

N_FAST = 1_000_000
N_RANDOM = 200_000
#: Acceptance floor for the vectorized tier.
MIN_FAST_REQUESTS_PER_SEC = 1_000_000
#: Telemetry must stay within noise of the telemetry-off rate.
MAX_TELEMETRY_OVERHEAD_PCT = 5.0
#: Timed post-replay derivations, each on a fresh recorder (a recorder
#: caches what it derives).
N_DERIVATIONS = 5
#: Timed replays of the 1M refresh stream.
N_REFRESH_RUNS = 5
#: Timestamped traffic under per-rank refresh on the closed form: twice
#: the exact tier's recorded random-traffic rate (207k requests/s), so
#: a silent decline to the exact tier misses it.
MIN_TIMESTAMPED_REFRESH_REQUESTS_PER_SEC = 420_000


def streaming_config() -> MemSysConfig:
    return MemSysConfig(n_channels=2, scheme="channel-interleaved")


def check_streaming(config, stats, n):
    assert stats.n_requests == n
    # two channels of interleaved streaming: ~2x one macro's bandwidth
    analytic = 2 * macro_bandwidth_bits_per_sec(config.timing)
    assert stats.sustained_bits_per_sec == pytest.approx(
        analytic, rel=0.05
    )


def run_fast(n=N_FAST):
    """Replay ``n`` packed streaming requests through the fast path."""
    config = streaming_config()
    trace = synthesize_trace("sequential", n, config, packed=True)
    system = MemorySystem(config)
    started = time.perf_counter()
    stats = system.replay(trace, engine="fast")
    elapsed = time.perf_counter() - started
    assert system.last_replay_engine == "fast-vectorized"
    check_streaming(config, stats, n)
    return n / elapsed


def run_fast_telemetry(n=N_FAST):
    """Replay ``n`` streaming requests with telemetry recording on.

    Times only the instrumented replay (the recorder stores references
    during the run; percentile assembly happens after the clock stops).
    Returns ``(requests_per_sec, telemetry)``.
    """
    from repro.telemetry import ReplayTelemetry

    config = streaming_config()
    trace = synthesize_trace("sequential", n, config, packed=True)
    system = MemorySystem(config)
    telemetry = ReplayTelemetry()
    started = time.perf_counter()
    stats = system.replay(trace, engine="fast", telemetry=telemetry)
    elapsed = time.perf_counter() - started
    assert system.last_replay_engine == "fast-vectorized"
    check_streaming(config, stats, n)
    return n / elapsed, telemetry


def run_derivation(telemetry):
    """Derive percentiles, time series and energy from one recorded
    replay; returns ``(seconds, percentiles, timeseries, energy)``."""
    from repro.telemetry import build_energy, build_timeseries

    started = time.perf_counter()
    percentiles = telemetry.percentiles()
    timeseries = build_timeseries(telemetry)
    energy = build_energy(telemetry)
    elapsed = time.perf_counter() - started
    return elapsed, percentiles, timeseries, energy


#: HBM2-class refresh timings (ns) used by the refresh benchmark.
TREFI_NS, TRFC_NS = 3900.0, 350.0


def run_fast_refresh(n=N_FAST):
    """Replay ``n`` streaming requests with per-rank refresh enabled.

    The epoch-batched vectorized tier must absorb the tREFI/tRFC
    fences without dropping below the 1M requests/s floor, and the
    sustained bandwidth must show the ~tRFC/tREFI refresh overhead.
    Returns ``(requests_per_sec, certificate_s)``, the latter the
    replay profiler's ``certificate`` phase (latency recording off).
    """
    from repro.telemetry import ReplayTelemetry

    config = MemSysConfig(
        n_channels=2,
        scheme="channel-interleaved",
        trefi_ns=TREFI_NS,
        trfc_ns=TRFC_NS,
    )
    trace = synthesize_trace("sequential", n, config, packed=True)
    system = MemorySystem(config)
    telemetry = ReplayTelemetry(latency=False)
    started = time.perf_counter()
    stats = system.replay(trace, engine="fast", telemetry=telemetry)
    elapsed = time.perf_counter() - started
    assert system.last_replay_engine == "fast-vectorized"
    # ideal streaming minus roughly the blackout fraction
    analytic = 2 * macro_bandwidth_bits_per_sec(config.timing)
    overhead = 1 - stats.sustained_bits_per_sec / analytic
    blackout = TRFC_NS / TREFI_NS
    assert 0.5 * blackout < overhead < 2.0 * blackout
    return n / elapsed, telemetry.profiler.phases["certificate"]


def test_bench_1m_fastpath_replay(benchmark):
    """>= 1M requests/s sustained on a 1M-request streaming replay."""
    run_fast()  # steady state: pre-fault the allocator's large pools
    fast_rate = benchmark.pedantic(run_fast, rounds=1, iterations=1)
    assert fast_rate >= MIN_FAST_REQUESTS_PER_SEC


def run_random(n=N_RANDOM):
    """Replay ``n`` random-traffic requests through the exact tier.

    Random traffic fails the fast path's closed-form certificates, so
    this times the batched-heap exact tier.
    """
    config = MemSysConfig()
    trace = synthesize_trace("random", n, config, seed=0, packed=True)
    system = MemorySystem(config)
    started = time.perf_counter()
    stats = system.replay(trace, engine="fast")
    elapsed = time.perf_counter() - started
    assert system.last_replay_engine == "fast-exact"
    assert stats.n_requests == n
    assert stats.row_hit_rate < 0.2
    return n / elapsed


def run_fcfs_random(n=N_RANDOM):
    """Replay ``n`` FCFS random-traffic requests, vectorized.

    FCFS is FIFO by construction, so only the line-rate certificate
    used to block random traffic from the closed form; the arrival
    fixed point lifts it into the vectorized tier.
    """
    config = MemSysConfig(policy="fcfs")
    trace = synthesize_trace("random", n, config, seed=0, packed=True)
    system = MemorySystem(config)
    started = time.perf_counter()
    stats = system.replay(trace, engine="fast")
    elapsed = time.perf_counter() - started
    assert system.last_replay_engine == "fast-vectorized"
    assert stats.n_requests == n
    return n / elapsed


def run_timestamped_refresh(n=N_RANDOM):
    """Replay the ``random-farm`` input in one process, vectorized.

    200k random requests at 30 ns Poisson arrivals over 4 channels with
    per-rank refresh: every channel serves FIFO without backpressure,
    so the fenced Lindley solve replays it in closed form.
    """
    config = MemSysConfig(
        n_channels=4,
        scheme="channel-interleaved",
        trefi_ns=TREFI_NS,
        trfc_ns=TRFC_NS,
    )
    trace = synthesize_trace(
        "random",
        n,
        config,
        seed=1,
        packed=True,
        interarrival_ns=30.0,
        interarrival="poisson",
    )
    system = MemorySystem(config)
    started = time.perf_counter()
    stats = system.replay(trace, engine="fast")
    elapsed = time.perf_counter() - started
    assert system.last_replay_engine == "fast-vectorized"
    assert stats.n_requests == n
    return n / elapsed


def test_bench_random_replay_20k(benchmark):
    def run():
        config = MemSysConfig()
        trace = synthesize_trace("random", 20_000, config, seed=0)
        return MemorySystem(config).replay(trace)

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    assert stats.n_requests == 20_000
    assert stats.row_hit_rate < 0.2  # random traffic defeats the row buffer


def test_bench_1m_refresh_replay(benchmark):
    """The vectorized tier holds >= 1M requests/s with per-rank
    refresh enabled on a 1M-request replay."""
    run_fast_refresh()  # steady state
    rate, _ = benchmark.pedantic(run_fast_refresh, rounds=1, iterations=1)
    assert rate >= MIN_FAST_REQUESTS_PER_SEC


def main(argv=None) -> int:
    """Measure every regime and optionally write a JSON record."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="write the throughput record to FILE",
    )
    args = parser.parse_args(argv)

    # steady state: one untimed warm-up pair of each flavor pre-faults
    # the allocator's large pools and the recorder's import cost
    run_fast()
    run_fast_telemetry()
    # alternate off/on runs so machine drift cancels out of the
    # overhead ratio instead of masquerading as recorder cost
    off_rates, on_runs = [], []
    for _ in range(3):
        off_rates.append(run_fast())
        on_runs.append(run_fast_telemetry())
    fast = spread(off_rates)
    fast_rate = fast["median"]
    telemetry_on = spread([rate for rate, _ in on_runs])
    # percentile + time-series + energy assembly is deliberately
    # outside the replay's timed region — derivation must never ride
    # the hot path — and timed on its own, one fresh recorder each
    from repro.telemetry import validate_energy, validate_timeseries

    derivation_times = []
    for _ in range(N_DERIVATIONS):
        _, telemetry = run_fast_telemetry()
        elapsed, percentiles, timeseries, energy = run_derivation(telemetry)
        derivation_times.append(elapsed)
    assert validate_timeseries(timeseries) == []
    assert validate_energy(energy) == []
    derivation = spread(derivation_times)
    # median of the per-pair ratios: each pair shares its moment's
    # machine conditions, and the median rejects GC/scheduler outliers;
    # the spread (max - min ratio) is the run's own noise estimate
    ratios = sorted(
        o / r for o, (r, _) in zip(off_rates, on_runs)
    )
    telemetry_overhead_pct = 100 * (ratios[len(ratios) // 2] - 1)
    spread_pct = 100 * (ratios[-1] - ratios[0])
    refresh_runs = [run_fast_refresh() for _ in range(N_REFRESH_RUNS)]
    refresh = spread([rate for rate, _ in refresh_runs])
    refresh_rate = refresh["median"]
    certificate = spread([seconds for _, seconds in refresh_runs])
    random_traffic = spread([run_random() for _ in range(3)])
    fcfs_traffic = spread([run_fcfs_random() for _ in range(3)])
    timestamped = spread([run_timestamped_refresh() for _ in range(3)])
    timestamped_rate = timestamped["median"]
    record = {
        "benchmark": "memsys_replay_throughput",
        "fast_requests": N_FAST,
        "fast_requests_per_sec": round(fast_rate),
        "fast_spread_pct": fast["spread_pct"],
        "telemetry_requests_per_sec": round(telemetry_on["median"]),
        "telemetry_requests_spread_pct": telemetry_on["spread_pct"],
        "telemetry_overhead_pct": round(telemetry_overhead_pct, 2),
        "telemetry_overhead_spread_pct": round(spread_pct, 2),
        "timeseries_windows": timeseries["n_windows"],
        "energy_total_pj": round(energy["total_pj"], 3),
        "energy_pj_per_bit": round(energy["pj_per_bit"], 6),
        "energy_mean_power_w": round(energy["mean_power_w"], 6),
        "energy_requests_per_s_per_w": round(
            energy["requests_per_s_per_w"]
        ),
        "latency_percentiles": percentiles,
        "derivation_s": round(derivation["median"], 4),
        "derivation_spread_pct": derivation["spread_pct"],
        "refresh_requests_per_sec": round(refresh_rate),
        "refresh_spread_pct": refresh["spread_pct"],
        "refresh_certificate_s": round(certificate["median"], 4),
        "refresh_certificate_spread_pct": certificate["spread_pct"],
        "random_requests": N_RANDOM,
        "random_requests_per_sec": round(random_traffic["median"]),
        "random_spread_pct": random_traffic["spread_pct"],
        "fcfs_random_requests_per_sec": round(fcfs_traffic["median"]),
        "fcfs_random_spread_pct": fcfs_traffic["spread_pct"],
        "timestamped_refresh_requests_per_sec": round(timestamped_rate),
        "timestamped_refresh_spread_pct": timestamped["spread_pct"],
        "floor_requests_per_sec": MIN_FAST_REQUESTS_PER_SEC,
        "floor_timestamped_refresh_requests_per_sec": (
            MIN_TIMESTAMPED_REFRESH_REQUESTS_PER_SEC
        ),
        "floor_telemetry_overhead_pct": MAX_TELEMETRY_OVERHEAD_PCT,
        "passed": bool(
            fast_rate >= MIN_FAST_REQUESTS_PER_SEC
            and refresh_rate >= MIN_FAST_REQUESTS_PER_SEC
            and timestamped_rate >= MIN_TIMESTAMPED_REFRESH_REQUESTS_PER_SEC
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
