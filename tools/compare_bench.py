#!/usr/bin/env python3
"""Compare fresh benchmark records against committed baselines.

Each ``benchmarks/bench_*.py`` writes a ``BENCH_*.json`` throughput
record; the copies committed at the repository root are the *baselines*
the perf trajectory is tracked against.  CI snapshots those baselines
(before the bench jobs overwrite the files), re-measures, and then runs
this tool, which fails when

* a fresh record says ``"passed": false`` (its own floors failed on the
  runner),
* a floored metric misses the floor carried in the fresh record, or
* a floor was *weakened* relative to the committed baseline — e.g. a
  throughput floor lowered, or the telemetry-overhead ceiling raised —
  which would let a perf regression land silently.

Floors are matched through the explicit :data:`FLOORS` table (metric
name, floor key, direction, and an optional *gate key*) per benchmark;
suffix-matching heuristics would false-fail on pairs like
``random_requests_per_sec`` vs ``floor_requests_per_sec``.  A gated
floor is only enforced when the record's gate field is true — e.g. the
farm speedup floor is gated on ``floor_enforced`` (the benchmark sets
it false on runners with too few cores to parallelize at all).
Weakening detection stays active even when the gate is off: a lowered
floor value is suspicious regardless of the runner.

``--remeasure`` grants every record with a *floor miss* (including
``passed=false``) exactly one re-measure: the matching
``benchmarks/bench_<stem>.py`` is re-run with ``--json`` onto the same
record file and the comparison repeats on the fresh numbers.  Perf
floors are noisy on shared runners; one bounded retry absorbs a
scheduling hiccup without letting a real regression pass (a second
miss still fails, and weakened floors are never retried).

Records that carry their own noise estimate (the
``telemetry_overhead_spread_pct`` field written by the benches' paired
off/on overhead measurement) get a gentler verdict: an overhead miss
smaller than the spread is a **NOISY MISS** — a re-measure signal, and
after the bounded retry a persistent within-spread miss is tolerated
with a warning rather than failing the run.  A miss beyond the spread
fails as before.

``--history FILE`` appends every compared run's floored metrics to a
JSONL trajectory file and prints PR-over-PR deltas against the
previous entry, so the perf record is tracked across PRs, not just
against the committed baseline.

Usage::

    python tools/compare_bench.py [RECORD.json ...] --baseline DIR

With no positional records, compares every ``BENCH_*.json`` in the
repository root.  Exits non-zero listing every problem.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import typing as _t

#: (metric, floor key, direction[, gate key]) per benchmark record
#: ``"benchmark"`` name.  ``"min"``: metric must be >= floor; ``"max"``:
#: metric must be < floor (a ceiling, e.g. the telemetry overhead
#: percentage).  A 4th element names a boolean record field gating
#: enforcement: when the record carries it false, a miss of this floor
#: is reported but not fatal (weakening detection still applies).
FLOORS: _t.Dict[str, _t.List[_t.Tuple[str, ...]]] = {
    "memsys_replay_throughput": [
        ("fast_requests_per_sec", "floor_requests_per_sec", "min"),
        ("refresh_requests_per_sec", "floor_requests_per_sec", "min"),
        (
            "timestamped_refresh_requests_per_sec",
            "floor_timestamped_refresh_requests_per_sec",
            "min",
        ),
        (
            "telemetry_overhead_pct",
            "floor_telemetry_overhead_pct",
            "max",
        ),
    ],
    "pimexec_pipeline_throughput": [
        ("all_bank_commands_per_sec", "floor_commands_per_sec", "min"),
        (
            "telemetry_overhead_pct",
            "floor_telemetry_overhead_pct",
            "max",
        ),
    ],
    "nn_transformer_throughput": [
        ("fp16_commands_per_sec", "floor_commands_per_sec", "min"),
        (
            "trace_records_per_sec",
            "floor_trace_records_per_sec",
            "min",
        ),
        (
            "telemetry_overhead_pct",
            "floor_telemetry_overhead_pct",
            "max",
        ),
    ],
    "farm_replay_speedup": [
        # only enforced on runners with enough cores to parallelize
        ("speedup", "floor_speedup", "min", "floor_enforced"),
    ],
}

#: Metrics whose record carries its own run-to-run noise estimate.
#: When such a metric misses its floor by less than the spread, the
#: miss is a *noisy miss*: the run's own pairwise variation swamps the
#: margin, so the verdict is "re-measure", and a noisy miss that
#: persists after the bounded ``--remeasure`` retry is downgraded to a
#: warning instead of failing the run.  A miss beyond the spread is a
#: real regression and fails as before.  A percentage metric's spread
#: is in percentage points; any other metric's (``*_spread_pct``) is a
#: percentage of the metric's own value.
SPREAD_KEYS: _t.Dict[str, str] = {
    "telemetry_overhead_pct": "telemetry_overhead_spread_pct",
    "refresh_requests_per_sec": "refresh_spread_pct",
    "fp16_commands_per_sec": "fp16_commands_spread_pct",
    "trace_records_per_sec": "trace_records_spread_pct",
}

#: Non-numeric provenance fields carried into the JSONL history next to
#: the floored metrics: which replay engine produced each run's
#: numbers.  A throughput trajectory is only comparable across PRs when
#: the engine that produced it is on record — the AB-lockstep fast
#: replay engine is worth orders of magnitude on the pimexec pipeline.
TIER_KEYS: _t.Tuple[str, ...] = ("replay_engine",)

#: Energy-efficiency fields carried into the JSONL history next to the
#: floored metrics, so pJ/bit and perf-per-watt regressions show up as
#: PR-over-PR deltas even though they have no floor (energy totals are
#: derived, deterministic quantities — a delta here means the model or
#: the command stream changed, not the runner).
ENERGY_KEYS: _t.Tuple[str, ...] = (
    "energy_pj_per_bit",
    "energy_total_pj",
    "energy_mean_power_w",
    "energy_requests_per_s_per_w",
    "energy_commands_per_s_per_w",
    "energy_tokens_per_s_per_w",
)


def compare_record(
    fresh: _t.Mapping[str, _t.Any],
    baseline: _t.Optional[_t.Mapping[str, _t.Any]],
    label: str = "",
) -> _t.Tuple[_t.List[str], _t.List[str]]:
    """Check one record; returns ``(problems, report_lines)``."""
    problems: _t.List[str] = []
    report: _t.List[str] = []
    name = fresh.get("benchmark", "<unnamed>")
    label = label or name
    if not fresh.get("passed", False):
        problems.append(f"{label}: fresh record reports passed=false")
    floors = FLOORS.get(name)
    if floors is None:
        problems.append(
            f"{label}: unknown benchmark {name!r} — add it to "
            "tools/compare_bench.py FLOORS"
        )
        return problems, report
    for entry in floors:
        metric, floor_key, direction = entry[:3]
        gate_key = entry[3] if len(entry) > 3 else None
        if metric not in fresh:
            problems.append(f"{label}: record lacks metric {metric!r}")
            continue
        if floor_key not in fresh:
            problems.append(
                f"{label}: record lacks floor {floor_key!r}"
            )
            continue
        enforced = gate_key is None or bool(fresh.get(gate_key))
        value = float(fresh[metric])
        floor = float(fresh[floor_key])
        if direction == "min":
            ok = value >= floor
            relation = ">="
        else:
            ok = value < floor
            relation = "<"
        spread = 0.0
        spread_key = SPREAD_KEYS.get(metric)
        if spread_key is not None and spread_key in fresh:
            spread = abs(float(fresh[spread_key]))
            if not metric.endswith("_pct"):
                spread *= abs(value) / 100
        noisy = not ok and spread > 0 and (
            value - spread < floor
            if direction == "max"
            else value + spread >= floor
        )
        if ok:
            verdict = "ok"
        elif not enforced:
            verdict = f"floor not enforced ({gate_key}=false)"
        elif noisy:
            verdict = "NOISY MISS (within spread; re-measure)"
        else:
            verdict = "FLOOR MISS"
        line = (
            f"{label}: {metric} = {value:g} ({relation} {floor:g}) "
            f"{verdict}"
        )
        if baseline is not None and metric in baseline:
            base_value = float(baseline[metric])
            delta = value - base_value
            line += f" [baseline {base_value:g}, {delta:+g}]"
        report.append(line)
        if not ok and enforced:
            problem = (
                f"{label}: {metric} = {value:g} misses floor "
                f"{floor_key} = {floor:g}"
            )
            if noisy:
                problem += f" (within spread {spread:g} — re-measure)"
            problems.append(problem)
        if baseline is not None and floor_key in baseline:
            base_floor = float(baseline[floor_key])
            weakened = (
                floor < base_floor
                if direction == "min"
                else floor > base_floor
            )
            if weakened:
                problems.append(
                    f"{label}: floor {floor_key} weakened from "
                    f"{base_floor:g} to {floor:g}"
                )
    return problems, report


def _load(path: pathlib.Path) -> _t.Optional[dict]:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def _floor_misses(problems: _t.Sequence[str]) -> _t.List[str]:
    """The subset of problems one re-measure could plausibly clear.

    Floor misses and a self-reported ``passed=false`` are measurement
    outcomes — rerunning the benchmark can change them.  Weakened
    floors and structural problems (missing metrics, unknown
    benchmarks, unreadable records) are properties of the committed
    files; a retry cannot fix those and must not mask them.
    """
    return [
        p
        for p in problems
        if "misses floor" in p or "passed=false" in p
    ]


def _remeasure(record_path: pathlib.Path) -> bool:
    """Re-run the benchmark behind ``BENCH_<stem>.json`` once.

    Maps the record back to ``benchmarks/bench_<stem>.py`` and invokes
    it with ``--json`` onto the same record file.  Returns ``True`` if
    the script ran (regardless of its own exit code — the caller
    re-compares the fresh record either way).
    """
    import subprocess

    stem = record_path.stem
    if stem.startswith("BENCH_"):
        stem = stem[len("BENCH_"):]
    root = pathlib.Path(__file__).resolve().parent.parent
    script = root / "benchmarks" / f"bench_{stem}.py"
    if not script.exists():
        print(
            f"{record_path.name}: cannot re-measure, no {script.name}",
            file=sys.stderr,
        )
        return False
    print(f"{record_path.name}: floor miss — re-measuring once...")
    subprocess.run(
        [sys.executable, str(script), "--json", str(record_path)],
        cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        check=False,
    )
    return True


def _history_entry(
    records: _t.Mapping[str, _t.Mapping[str, _t.Any]],
) -> dict:
    """One JSONL history line: the floored keys of every record."""
    import time

    kept: _t.Dict[str, _t.Dict[str, _t.Any]] = {}
    for name, record in records.items():
        keys = {"passed"}
        keys.update(TIER_KEYS)
        keys.update(ENERGY_KEYS)
        for entry in FLOORS.get(name, []):
            keys.update(entry[:2])
            spread_key = SPREAD_KEYS.get(entry[0])
            if spread_key is not None:
                keys.add(spread_key)
        kept[name] = {
            key: record[key] for key in sorted(keys) if key in record
        }
    return {"t": int(time.time()), "records": kept}


def _update_history(
    path: pathlib.Path,
    records: _t.Mapping[str, _t.Mapping[str, _t.Any]],
) -> _t.List[str]:
    """Append this run to the JSONL history; return PR-over-PR deltas.

    Reads the last entry already in ``path`` (the previous PR's run),
    prints a delta line for every floored metric and floor key, then
    appends the current run.  A missing or empty history file just
    means "first recorded run".  Re-running the comparison on the same
    commit produces identical kept metrics; such a run updates nothing
    — the entry is only appended when its ``records`` differ from the
    previous line, so the trajectory has one line per measured change
    rather than one per CI invocation.
    """
    previous: _t.Optional[dict] = None
    if path.exists():
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                previous = json.loads(line)
            except json.JSONDecodeError:
                continue
    entry = _history_entry(records)
    lines: _t.List[str] = []
    prior = (previous or {}).get("records", {})
    for name, kept in sorted(entry["records"].items()):
        before = prior.get(name)
        for key, value in kept.items():
            if key == "passed" or not isinstance(
                value, (int, float)
            ):
                continue
            if not isinstance(before, dict) or not isinstance(
                before.get(key), (int, float)
            ):
                lines.append(f"history: {name}.{key} = {value:g} (new)")
                continue
            prev = float(before[key])
            lines.append(
                f"history: {name}.{key} = {value:g} "
                f"[previous {prev:g}, {float(value) - prev:+g}]"
            )
    if entry["records"] == prior and previous is not None:
        lines.append(
            "history: unchanged from previous entry — not re-appended"
        )
        return lines
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as handle:
        handle.write(json.dumps(entry) + "\n")
    return lines


def main(argv: _t.Optional[_t.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "records",
        nargs="*",
        type=pathlib.Path,
        metavar="RECORD",
        help="fresh BENCH_*.json records (default: repository root)",
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="directory holding the baseline copies (same filenames); "
        "without it only the fresh records' own floors are checked",
    )
    parser.add_argument(
        "--remeasure",
        action="store_true",
        help="on a floor miss, re-run the matching benchmarks/"
        "bench_*.py once and re-compare (weakened floors and "
        "structural problems are never retried)",
    )
    parser.add_argument(
        "--history",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="append this run's floored metrics to FILE (JSONL) and "
        "print PR-over-PR deltas against the previous entry",
    )
    args = parser.parse_args(argv)

    records = list(args.records)
    if not records:
        root = pathlib.Path(__file__).resolve().parent.parent
        records = sorted(root.glob("BENCH_*.json"))
    if not records:
        print("no BENCH_*.json records found", file=sys.stderr)
        return 2

    problems: _t.List[str] = []
    compared: _t.Dict[str, dict] = {}
    for path in records:
        fresh = _load(path)
        if fresh is None:
            problems.append(f"{path}: unreadable record")
            continue
        baseline = None
        if args.baseline is not None:
            baseline_path = args.baseline / path.name
            baseline = _load(baseline_path)
            if baseline is None:
                problems.append(
                    f"{path.name}: no baseline at {baseline_path}"
                )
        file_problems, report = compare_record(
            fresh, baseline, label=path.name
        )
        if (
            args.remeasure
            and _floor_misses(file_problems)
            and _remeasure(path)
        ):
            fresh = _load(path)
            if fresh is None:
                file_problems = [
                    f"{path}: unreadable record after re-measure"
                ]
                report = []
            else:
                retried, report = compare_record(
                    fresh, baseline, label=path.name
                )
                # a retry only clears measurement outcomes; keep any
                # structural/weakening problems from either pass
                structural = [
                    p
                    for p in file_problems
                    if p not in _floor_misses(file_problems)
                ]
                file_problems = retried + [
                    p for p in structural if p not in retried
                ]
            # the bounded retry already ran: a miss still inside the
            # record's own noise spread is noise, not a regression —
            # tolerate it with a warning instead of failing the run
            tolerated = [
                p for p in file_problems if "within spread" in p
            ]
            for warning in tolerated:
                print(
                    f"warning (noisy, tolerated after re-measure): "
                    f"{warning}",
                    file=sys.stderr,
                )
            file_problems = [
                p for p in file_problems if "within spread" not in p
            ]
        problems.extend(file_problems)
        if fresh is not None:
            compared[fresh.get("benchmark", path.name)] = fresh
        for line in report:
            print(line)
    if args.history is not None:
        for line in _update_history(args.history, compared):
            print(line)
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        print(f"bench records OK: {len(records)} compared")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
