"""Host-time benchmark of the PIM simulator: one workload per process.

Usage (from the repository root)::

    python3 pimbench/run.py --workload stream-report --seed 1 \\
        --seconds 20 --trace 0

Runs one workload of :mod:`workloads` for ``--seconds`` seconds of
back-to-back iterations (one closed-loop client) and prints, as the
last line of standard output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones:

* ``iter_ref_ratio`` — host time of one timed iteration as a multiple
  of the host time of the reference computation timed around it (see
  below), the median over the timed iterations;
* ``sim_requests_per_ref`` — simulated memory requests (host, AB and
  PIM) replayed in the host time of one reference computation, the
  median over the timed iterations;
* ``setup_s`` — seconds from process start to the end of one untimed
  warm-up iteration (imports, input generation, staging, the warm-up's
  work; not its output check), the median of this process and two
  set-up-only copies of it;
* ``peak_rss_mb`` — high-water resident memory (MiB) over set-up and
  the warm-up iteration, the larger of this process and its farm
  workers, read before the reference computation below allocates.

The iteration timings are ratios to a reference computation because a
shared host's speed swings by a fifth or more over tens of seconds as
other tenants' load comes and goes, slowing every iteration such a
stretch covers, so that runs of the same code minutes apart disagree by
more than a regression worth catching.  The reference — a fixed
pure-Python loop and NumPy passes over 32 MB, the two kinds of work
the simulator does — is timed before and after every iteration and
slows down with the host, so the ratio cancels the host's speed and
keeps every change to the program's own cost.  Each run prints the
reference's own median seconds and the iterations' median seconds and
requests per second, the bases of the two ratios.

With ``--trace 1`` iterations alternate untraced and traced, and the
metrics are per layer, from the traced iterations' spans (see
``spans.py``): summed host seconds per public call (``<layer>.<op>_s``,
median over traced iterations; calls made only during set-up or after
the timed loop report that one total), per-layer self time
(``<layer>.self_s``; ``bench.remainder_s`` is the iteration time no
layer span covers), the simulated statistics the iterations produced,
``bench.trace_overhead_pct`` — the traced iterations' median time
against the untraced ones' — and the ratios' bases, ``bench.ref_s`` and
``bench.sim_requests_per_s`` (untraced iterations).  A metric of a
layer a workload does not use reads 0.  The spans are written to
``.pimbench-out/spans-<workload>-seed<seed>.json``.

Failures are counted, never fatal: an iteration fails if it raises,
overruns its deadline, fails an output check, or produces simulated
statistics that differ from the warm-up iteration's.  Each run prints
a digest of its simulated statistics, so a change that alters the
model shows even when it passes every check.
"""

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".pimbench-out"
#: Host seconds one iteration may take before it counts as failed
#: (about ten times the slowest workload's iteration).
ITERATION_DEADLINE_S = 20.0
#: Set-up-only copies of the process run per measurement, for setup_s.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 40.0
LAYER_SELF = ("memsys", "telemetry", "farm", "pimexec", "nn")
NN_KERNELS = ("gemm", "attention", "ffn", "softmax", "layernorm")

#: Per-layer metric -> the span whose summed duration it reports.
SPAN_METRICS = {
    "memsys.synth_s": "memsys.synth",
    "memsys.replay_s": "memsys.replay",
    "memsys.decode_s": "memsys.decode",
    "memsys.certificate_s": "memsys.certificate",
    "memsys.tier_execute_s": "memsys.tier_execute",
    "memsys.stats_gather_s": "memsys.stats_gather",
    "memsys.exact_replay_s": "memsys.exact_replay",
    "telemetry.percentiles_s": "telemetry.percentiles",
    "telemetry.timeseries_s": "telemetry.timeseries",
    "telemetry.energy_s": "telemetry.energy",
    "farm.replay_s": "farm.replay",
    "farm.plan_s": "farm.plan",
    "farm.dispatch_s": "farm.dispatch",
    "farm.verify_s": "farm.verify",
    "farm.merge_s": "farm.merge",
    "pimexec.stage_s": "pimexec.stage",
    "pimexec.execute_s": "pimexec.execute",
    "pimexec.replay_s": "pimexec.replay",
    "pimexec.lower_s": "pimexec.lower",
    "nn.trace_gen_s": "nn.trace_gen",
}
for _kernel in NN_KERNELS:
    for _op in ("execute", "replay"):
        SPAN_METRICS[f"nn.{_kernel}.{_op}_s"] = f"nn.{_kernel}/pimexec.{_op}"

#: Simulated per-layer values every workload reports (0 where unused),
#: with their units.
SIMULATED = {
    "memsys.vectorized_share": "ratio",
    "memsys.requests": "count",
    "memsys.sim_makespan_ns": "ns",
    "memsys.row_hit_rate": "ratio",
    "memsys.sustained_gbps": "Gbit/s",
    "memsys.bw_error_pct": "%",
    "telemetry.queue_wait_p99_ns": "ns",
    "telemetry.energy_pj_per_bit": "pJ/bit",
    "farm.shards": "count",
    "farm.retries": "count",
    "farm.degraded_shards": "count",
    "farm.harmonized_shards": "count",
    "pimexec.commands": "count",
    "pimexec.requests": "count",
}


class DeadlineExceeded(Exception):
    pass


@contextlib.contextmanager
def deadline(seconds):
    """Raise :class:`DeadlineExceeded` in the body after ``seconds``."""

    def expire(signum, frame):
        raise DeadlineExceeded(f"iteration overran its {seconds:g}s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Iteration:
    """One checked iteration: host seconds, outcome, failures."""

    def __init__(self, index, traced):
        self.index = index
        self.traced = traced
        self.seconds = math.nan
        #: Host seconds of the reference computation around the iteration.
        self.ref_s = math.nan
        self.end = math.nan
        self.checked = None
        self.failures = []

    @property
    def ok(self):
        return not self.failures and self.checked is not None

    @property
    def requests(self):
        return sum(r.submitted for r in self.checked.replays)

    @property
    def ref_ratio(self):
        return self.seconds / self.ref_s

    @property
    def digest(self):
        return hashlib.sha256(self.checked.digest_text.encode()).hexdigest()[:16]


def run_iteration(workload, tracer, index, traced, reference, check=True):
    """Run, time and check one iteration; never raises."""
    it = Iteration(index, traced)
    tracer.iteration = index
    tracer.enabled = traced
    try:
        with deadline(ITERATION_DEADLINE_S):
            begin = time.monotonic()
            with tracer.span("bench.iteration"):
                raw = workload.iterate(tracer)
            it.end = time.monotonic()
            it.seconds = it.end - begin
            if check:
                it.checked = workload.check(raw)
                it.failures += it.checked.failures
    except Exception as error:  # a failed iteration is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        it.failures.append(f"{type(error).__name__}: {error}")
    finally:
        tracer.enabled = False
        tracer.iteration = None
    if it.checked is not None and reference is not None and it.digest != reference:
        it.failures.append("simulated statistics differ from the warm-up iteration")
    return it


class Reference:
    """The fixed computation every iteration's host time is divided by.

    A pure-Python loop, then a NumPy sort over 8 MB and a scaled sum
    over 32 MB of float64 whose temporary is allocated afresh each time,
    as the simulator's array temporaries are: interpreter work and array
    work, which between them make up the simulator's iterations.  About
    40 ms together.
    """

    loop_steps = 150_000
    n_values = 4_000_000

    def __init__(self):
        self.values = np.random.default_rng(0).random(self.n_values)

    def seconds(self):
        begin = time.perf_counter()
        total = 0
        for step in range(self.loop_steps):
            total += step * step
        np.sort(self.values[: self.n_values // 4])
        float((self.values * 2.0).sum())
        return time.perf_counter() - begin


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def probe_setup(args):
    """Median-ready set-up samples from set-up-only copies of this run."""
    samples, failures = [], []
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ]
    for _ in range(SETUP_PROBES):
        try:
            done = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True,
                timeout=PROBE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            failures.append("set-up probe timed out")
            continue
        if done.returncode != 0:
            failures.append(f"set-up probe exited {done.returncode}")
            continue
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples, failures


def simulated_values(checked):
    """Simulated per-layer values of one checked iteration."""
    values = dict.fromkeys(SIMULATED, 0.0)
    if checked is None:
        return values
    replays = checked.replays
    submitted = sum(r.submitted for r in replays)
    makespan = sum(r.stats.makespan_ns for r in replays)
    hits = sum(r.stats.row_hits for r in replays)
    accesses = hits + sum(
        r.stats.row_misses + r.stats.row_conflicts for r in replays
    )
    values.update(
        {
            "memsys.vectorized_share": sum(r.vectorized for r in replays) / submitted,
            "memsys.requests": submitted,
            "memsys.sim_makespan_ns": makespan,
            "memsys.row_hit_rate": hits / accesses if accesses else 0.0,
            # bits per simulated ns is Gbit/s
            "memsys.sustained_gbps": sum(r.stats.total_bits for r in replays)
            / makespan,
        }
    )
    values.update(checked.values)
    return values


def layer_metrics(tracer, iterations, last):
    """Every per-layer metric but ``bench.failed_frac``."""
    traced = [it for it in iterations if it.traced and it.ok]
    untraced = [it for it in iterations if not it.traced and it.ok]
    per_iteration = [spans.totals(tracer.spans, it.index) for it in traced]
    nested = [spans.nested_totals(tracer.spans, it.index) for it in traced]
    outside = spans.totals(tracer.spans, None)
    metrics = {}
    for metric, name in SPAN_METRICS.items():
        table = nested if "/" in name else per_iteration
        if any(name in row for row in table):
            value = spans.median_or_zero([row.get(name, 0.0) for row in table])
        else:
            value = outside.get(name, 0.0)
        metrics[metric] = (value, "s")
    wait = []
    selfs = {layer: [] for layer in spans.LAYERS}
    for it in traced:
        own = spans.self_times(tracer.spans, it.index)
        for layer in spans.LAYERS:
            selfs[layer].append(own[layer])
        # supervisor time outside the farm's own event spans
        wait.append(spans.own_time(tracer.spans, "farm.replay", it.index))
    metrics["farm.wait_s"] = (spans.median_or_zero(wait), "s")
    for layer in LAYER_SELF:
        metrics[f"{layer}.self_s"] = (spans.median_or_zero(selfs[layer]), "s")
    metrics["bench.remainder_s"] = (spans.median_or_zero(selfs["bench"]), "s")
    traced_s = spans.median_or_zero([it.seconds for it in traced])
    untraced_s = spans.median_or_zero([it.seconds for it in untraced])
    metrics["bench.iter_s"] = (traced_s, "s")
    metrics["bench.trace_overhead_pct"] = (
        100.0 * (traced_s / untraced_s - 1.0) if untraced_s else 0.0,
        "%",
    )
    metrics["bench.ref_s"] = (
        spans.median_or_zero([it.ref_s for it in traced + untraced]),
        "s",
    )
    metrics["bench.sim_requests_per_s"] = (
        spans.median_or_zero([it.requests / it.seconds for it in untraced]),
        "requests/s",
    )
    exact = metrics["memsys.exact_replay_s"][0]
    farm = metrics["farm.replay_s"][0]
    metrics["farm.speedup"] = (exact / farm if farm else 0.0, "ratio")
    for name, value in simulated_values(last).items():
        metrics[name] = (value, SIMULATED[name])
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"pimbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"pimbench: unknown workload {args.workload!r}; "
            f"available: {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]()
    tracer = spans.Tracer()
    tracer.enabled = bool(args.trace)
    workload.prepare(args.seed, tracer)
    tracer.enabled = False
    # the warm-up's output check is the benchmark's work, not set-up
    warmup = run_iteration(
        workload, tracer, -1, False, None, check=not args.setup_only
    )
    setup_s = (time.monotonic() if math.isnan(warmup.end) else warmup.end) - STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 1 if warmup.failures else 0
    reference = warmup.digest if warmup.checked is not None else None
    # read before the reference computation's own arrays exist
    rss_mb = peak_rss_mb()

    yardstick = Reference()
    ref_s = [yardstick.seconds()]
    iterations = []
    loop_start = time.monotonic()
    while not iterations or time.monotonic() - loop_start < args.seconds:
        traced = bool(args.trace) and len(iterations) % 2 == 1
        iterations.append(
            run_iteration(workload, tracer, len(iterations), traced, reference)
        )
        ref_s.append(yardstick.seconds())
    # each iteration against the reference timed just before and after it
    for it, before, after in zip(iterations, ref_s, ref_s[1:]):
        it.ref_s = (before + after) / 2
    tracer.enabled = bool(args.trace)
    last = next((it.checked for it in reversed(iterations) if it.ok), None)
    try:
        finish_failures = workload.finish(tracer, last)
    except Exception as error:  # counted like a failed iteration
        traceback.print_exc(file=sys.stderr)
        finish_failures = [f"{type(error).__name__}: {error}"]
    tracer.enabled = False

    failures = [f"warm-up: {f}" for f in warmup.failures]
    failures += [f"iteration {it.index}: {f}" for it in iterations for f in it.failures]
    failures += [f"post-run: {f}" for f in finish_failures]
    failed = sum(1 for it in iterations if it.failures)
    failed += (1 if warmup.failures else 0) + (1 if finish_failures else 0)
    # the warm-up and the post-run check are checked operations too
    attempted = len(iterations) + 2

    good = [it for it in iterations if it.ok]
    untraced = [it for it in good if not it.traced]
    if args.trace:
        metrics = layer_metrics(tracer, iterations, last)
        metrics["bench.failed_frac"] = (failed / attempted, "ratio")
        tracer.write(
            OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json", STARTED
        )
    else:
        samples, probe_failures = probe_setup(args)
        failures += [f"setup: {f}" for f in probe_failures]
        failed += len(probe_failures)
        attempted += SETUP_PROBES
        metrics = {
            "iter_ref_ratio": (
                spans.median_or_zero([it.ref_ratio for it in untraced]),
                "ratio",
            ),
            "sim_requests_per_ref": (
                spans.median_or_zero(
                    [it.requests / it.ref_ratio for it in untraced]
                ),
                "requests/ref",
            ),
            "setup_s": (statistics.median([setup_s] + samples), "s"),
            "peak_rss_mb": (rss_mb, "MiB"),
        }
    for child in multiprocessing.active_children():
        child.kill()
        child.join()

    times = sorted(it.seconds for it in good)
    quartiles = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    print(f"workload: {args.workload} seed={args.seed} trace={args.trace}")
    print(f"digest: {reference}")
    if last is not None:
        print("tiers: " + ", ".join(f"{r.label}={r.engine}" for r in last.replays))
    print(
        f"iterations: {len(iterations)} timed, {len(good)} ok; "
        f"iteration s q1/q2/q3 = "
        + "/".join(f"{q:.4f}" for q in quartiles[:3])
    )
    print(
        "ratio bases (medians over untraced iterations): "
        f"reference s = {spans.median_or_zero([it.ref_s for it in untraced]):.5f}, "
        f"iteration s = {spans.median_or_zero([it.seconds for it in untraced]):.4f}, "
        "requests/s = "
        f"{spans.median_or_zero([it.requests / it.seconds for it in untraced]):.0f}"
    )
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
