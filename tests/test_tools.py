"""The bench-record comparison tool (``tools/compare_bench.py``).

CI snapshots the committed ``BENCH_*.json`` baselines, re-measures,
then runs this tool; these tests pin its failure modes — floor misses,
weakened floors, malformed/unknown records, missing baselines — so a
perf regression can't land through a tooling gap.
"""

import json
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import compare_bench  # noqa: E402


def memsys_record(**overrides):
    record = {
        "benchmark": "memsys_replay_throughput",
        "fast_requests_per_sec": 5_000_000,
        "refresh_requests_per_sec": 3_000_000,
        "timestamped_refresh_requests_per_sec": 800_000,
        "telemetry_overhead_pct": 1.0,
        "floor_requests_per_sec": 1_000_000,
        "floor_timestamped_refresh_requests_per_sec": 420_000,
        "floor_telemetry_overhead_pct": 5.0,
        "passed": True,
    }
    record.update(overrides)
    return record


def nn_record(**overrides):
    record = {
        "benchmark": "nn_transformer_throughput",
        "fp16_commands_per_sec": 80_000,
        "trace_records_per_sec": 30_000,
        "telemetry_overhead_pct": 1.0,
        "floor_commands_per_sec": 10_000,
        "floor_trace_records_per_sec": 3_000,
        "floor_telemetry_overhead_pct": 5.0,
        "passed": True,
    }
    record.update(overrides)
    return record


def pimexec_record(**overrides):
    record = {
        "benchmark": "pimexec_pipeline_throughput",
        "all_bank_commands_per_sec": 1_200_000,
        "telemetry_overhead_pct": 1.0,
        "floor_commands_per_sec": 1_000_000,
        "floor_telemetry_overhead_pct": 5.0,
        "passed": True,
    }
    record.update(overrides)
    return record


def farm_record(**overrides):
    record = {
        "benchmark": "farm_replay_speedup",
        "speedup": 2.5,
        "floor_speedup": 2.0,
        "floor_enforced": True,
        "passed": True,
    }
    record.update(overrides)
    return record


class TestCompareRecord:
    def test_clean_record_reports_and_passes(self):
        problems, report = compare_bench.compare_record(
            memsys_record(), memsys_record()
        )
        assert problems == []
        # one report line per floored metric, with baseline deltas
        assert len(report) == 4
        assert all("ok" in line for line in report)
        assert all("baseline" in line for line in report)

    def test_no_baseline_still_checks_own_floors(self):
        problems, report = compare_bench.compare_record(
            memsys_record(), None
        )
        assert problems == []
        assert all("baseline" not in line for line in report)

    def test_passed_false_is_a_problem(self):
        problems, _ = compare_bench.compare_record(
            memsys_record(passed=False), None
        )
        assert any("passed=false" in p for p in problems)

    def test_min_floor_miss(self):
        problems, report = compare_bench.compare_record(
            memsys_record(fast_requests_per_sec=999_999), None
        )
        assert any(
            "fast_requests_per_sec" in p and "misses floor" in p
            for p in problems
        )
        assert any("FLOOR MISS" in line for line in report)

    def test_max_ceiling_miss(self):
        problems, _ = compare_bench.compare_record(
            memsys_record(telemetry_overhead_pct=5.0), None
        )
        assert any("telemetry_overhead_pct" in p for p in problems)

    def test_weakened_min_floor_vs_baseline(self):
        problems, _ = compare_bench.compare_record(
            memsys_record(floor_requests_per_sec=500_000),
            memsys_record(),
        )
        assert any("weakened" in p for p in problems)

    def test_weakened_max_ceiling_vs_baseline(self):
        problems, _ = compare_bench.compare_record(
            memsys_record(floor_telemetry_overhead_pct=50.0),
            memsys_record(),
        )
        assert any("weakened" in p for p in problems)

    def test_tightened_floor_is_fine(self):
        problems, _ = compare_bench.compare_record(
            memsys_record(floor_requests_per_sec=2_000_000),
            memsys_record(),
        )
        assert problems == []

    def test_unknown_benchmark_name(self):
        problems, _ = compare_bench.compare_record(
            memsys_record(benchmark="mystery_bench"), None
        )
        assert any("unknown benchmark" in p for p in problems)

    def test_missing_metric_and_floor_keys(self):
        record = memsys_record()
        del record["fast_requests_per_sec"]
        del record["floor_telemetry_overhead_pct"]
        problems, _ = compare_bench.compare_record(record, None)
        assert any("lacks metric" in p for p in problems)
        assert any("lacks floor" in p for p in problems)

    def test_floors_table_covers_all_committed_records(self):
        """Every committed BENCH_*.json is comparable as-is."""
        records = sorted(REPO_ROOT.glob("BENCH_*.json"))
        assert len(records) == 4
        for path in records:
            fresh = json.loads(path.read_text())
            problems, report = compare_bench.compare_record(fresh, fresh)
            assert problems == [], path.name
            assert report, path.name


class TestGatedFloors:
    def test_enforced_gate_misses_like_any_floor(self):
        problems, report = compare_bench.compare_record(
            farm_record(speedup=1.1), None
        )
        assert any("misses floor" in p for p in problems)
        assert any("FLOOR MISS" in line for line in report)

    def test_open_gate_reports_but_does_not_fail(self):
        problems, report = compare_bench.compare_record(
            farm_record(speedup=1.1, floor_enforced=False), None
        )
        assert problems == []
        assert any("not enforced" in line for line in report)

    def test_open_gate_still_catches_weakened_floor(self):
        # a 1-core runner must not be a loophole for lowering the
        # committed speedup floor
        problems, _ = compare_bench.compare_record(
            farm_record(
                speedup=1.1, floor_speedup=1.0, floor_enforced=False
            ),
            farm_record(),
        )
        assert any("weakened" in p for p in problems)

    def test_passing_gated_record_is_clean(self):
        problems, _ = compare_bench.compare_record(
            farm_record(), farm_record()
        )
        assert problems == []


class TestRemeasure:
    def write(self, directory, record, name="BENCH_memsys.json"):
        path = directory / name
        path.write_text(json.dumps(record) + "\n")
        return path

    def test_floor_miss_gets_one_retry(
        self, tmp_path, capsys, monkeypatch
    ):
        fresh = self.write(
            tmp_path, memsys_record(fast_requests_per_sec=10)
        )
        calls = []

        def fake_remeasure(path):
            calls.append(path)
            # the "re-run" produces a healthy record
            self.write(tmp_path, memsys_record())
            return True

        monkeypatch.setattr(
            compare_bench, "_remeasure", fake_remeasure
        )
        assert compare_bench.main([str(fresh), "--remeasure"]) == 0
        assert calls == [fresh]

    def test_second_miss_still_fails(
        self, tmp_path, capsys, monkeypatch
    ):
        fresh = self.write(
            tmp_path, memsys_record(fast_requests_per_sec=10)
        )
        calls = []

        def fake_remeasure(path):
            calls.append(path)
            return True  # record unchanged: the miss persists

        monkeypatch.setattr(
            compare_bench, "_remeasure", fake_remeasure
        )
        assert compare_bench.main([str(fresh), "--remeasure"]) == 1
        assert len(calls) == 1  # one bounded retry, not a loop
        assert "misses floor" in capsys.readouterr().err

    def test_weakened_floor_is_never_retried(
        self, tmp_path, capsys, monkeypatch
    ):
        fresh_dir = tmp_path / "fresh"
        base_dir = tmp_path / "base"
        fresh_dir.mkdir(), base_dir.mkdir()
        fresh = self.write(
            fresh_dir, memsys_record(floor_requests_per_sec=500_000)
        )
        self.write(base_dir, memsys_record())
        calls = []
        monkeypatch.setattr(
            compare_bench,
            "_remeasure",
            lambda path: calls.append(path) or True,
        )
        assert (
            compare_bench.main(
                [
                    str(fresh),
                    "--baseline", str(base_dir),
                    "--remeasure",
                ]
            )
            == 1
        )
        assert calls == []  # weakening is not a measurement outcome

    def test_without_flag_no_retry(self, tmp_path, monkeypatch):
        fresh = self.write(
            tmp_path, memsys_record(fast_requests_per_sec=10)
        )
        calls = []
        monkeypatch.setattr(
            compare_bench,
            "_remeasure",
            lambda path: calls.append(path) or True,
        )
        assert compare_bench.main([str(fresh)]) == 1
        assert calls == []

    def test_unknown_record_stem_cannot_remeasure(
        self, tmp_path, capsys
    ):
        fresh = self.write(
            tmp_path,
            memsys_record(fast_requests_per_sec=10),
            name="BENCH_noscript.json",
        )
        assert compare_bench.main([str(fresh), "--remeasure"]) == 1
        assert "cannot re-measure" in capsys.readouterr().err


class TestSpreadAwareNoise:
    """Records carrying their own noise estimate get the NOISY MISS
    verdict when the miss is smaller than the measured spread."""

    def test_miss_within_spread_is_noisy(self):
        problems, report = compare_bench.compare_record(
            memsys_record(
                telemetry_overhead_pct=6.0,
                telemetry_overhead_spread_pct=2.0,
            ),
            None,
        )
        assert any("NOISY MISS" in line for line in report)
        # still a problem (exit 1 without --remeasure), but marked as
        # a re-measure signal the retry path can downgrade
        assert any(
            "misses floor" in p and "within spread" in p
            for p in problems
        )

    def test_miss_beyond_spread_is_a_plain_floor_miss(self):
        problems, report = compare_bench.compare_record(
            memsys_record(
                telemetry_overhead_pct=6.0,
                telemetry_overhead_spread_pct=0.5,
            ),
            None,
        )
        assert any("FLOOR MISS" in line for line in report)
        assert not any("within spread" in p for p in problems)

    def test_rate_spread_is_relative(self):
        # 950k misses the 1M floor by 5%: inside a 10% spread, outside 2%
        for spread_pct, verdict in (
            (10.0, "NOISY MISS"),
            (2.0, "FLOOR MISS"),
        ):
            _, report = compare_bench.compare_record(
                memsys_record(
                    refresh_requests_per_sec=950_000,
                    refresh_spread_pct=spread_pct,
                ),
                None,
            )
            line = next(
                line
                for line in report
                if ": refresh_requests_per_sec = " in line
            )
            assert verdict in line

    @pytest.mark.parametrize(
        "record, metric, spread_key, value",
        [
            (
                nn_record,
                "fp16_commands_per_sec",
                "fp16_commands_spread_pct",
                9_500,
            ),
            (
                nn_record,
                "trace_records_per_sec",
                "trace_records_spread_pct",
                2_850,
            ),
            (
                pimexec_record,
                "all_bank_commands_per_sec",
                "all_bank_commands_spread_pct",
                950_000,
            ),
        ],
    )
    def test_rates_carry_their_spread(
        self, record, metric, spread_key, value
    ):
        # each misses its floor by 5%: inside a 10% spread, outside 2%
        for spread_pct, verdict in (
            (10.0, "NOISY MISS"),
            (2.0, "FLOOR MISS"),
        ):
            _, report = compare_bench.compare_record(
                record(**{metric: value, spread_key: spread_pct}),
                None,
            )
            line = next(
                line for line in report if f": {metric} = " in line
            )
            assert verdict in line

    def test_spread_without_a_miss_changes_nothing(self):
        problems, report = compare_bench.compare_record(
            memsys_record(telemetry_overhead_spread_pct=90.0),
            memsys_record(),
        )
        assert problems == []
        assert all("NOISY" not in line for line in report)

    def test_missing_spread_key_means_strict_floor(self):
        # committed records predating the spread field keep the old
        # strict behavior
        problems, report = compare_bench.compare_record(
            memsys_record(telemetry_overhead_pct=6.0), None
        )
        assert any("FLOOR MISS" in line for line in report)
        assert not any("within spread" in p for p in problems)

    def write(self, directory, record, name="BENCH_memsys.json"):
        path = directory / name
        path.write_text(json.dumps(record) + "\n")
        return path

    def test_persistent_noisy_miss_tolerated_after_remeasure(
        self, tmp_path, capsys, monkeypatch
    ):
        noisy = memsys_record(
            telemetry_overhead_pct=6.0,
            telemetry_overhead_spread_pct=2.0,
        )
        fresh = self.write(tmp_path, noisy)
        calls = []
        monkeypatch.setattr(
            compare_bench,
            "_remeasure",
            lambda path: calls.append(path) or True,
        )
        # the record is unchanged by the "re-run": the miss persists,
        # but inside the spread it is noise, not a regression
        assert compare_bench.main([str(fresh), "--remeasure"]) == 0
        assert calls == [fresh]
        err = capsys.readouterr().err
        assert "tolerated after re-measure" in err
        assert "within spread" in err

    def test_noisy_miss_without_remeasure_still_fails(
        self, tmp_path, capsys
    ):
        fresh = self.write(
            tmp_path,
            memsys_record(
                telemetry_overhead_pct=6.0,
                telemetry_overhead_spread_pct=2.0,
            ),
        )
        assert compare_bench.main([str(fresh)]) == 1
        assert "within spread" in capsys.readouterr().err

    def test_persistent_miss_beyond_spread_still_fails(
        self, tmp_path, capsys, monkeypatch
    ):
        fresh = self.write(
            tmp_path,
            memsys_record(
                telemetry_overhead_pct=6.0,
                telemetry_overhead_spread_pct=0.25,
            ),
        )
        monkeypatch.setattr(
            compare_bench, "_remeasure", lambda path: True
        )
        assert compare_bench.main([str(fresh), "--remeasure"]) == 1
        assert "misses floor" in capsys.readouterr().err


class TestHistory:
    def write(self, directory, record, name="BENCH_memsys.json"):
        path = directory / name
        path.write_text(json.dumps(record) + "\n")
        return path

    def test_first_run_creates_the_trajectory(self, tmp_path, capsys):
        fresh = self.write(
            tmp_path,
            memsys_record(telemetry_overhead_spread_pct=1.5),
        )
        history = tmp_path / "BENCH_HISTORY.jsonl"
        assert compare_bench.main(
            [str(fresh), "--history", str(history)]
        ) == 0
        out = capsys.readouterr().out
        assert (
            "history: memsys_replay_throughput"
            ".fast_requests_per_sec = 5e+06 (new)" in out
        )
        lines = history.read_text().splitlines()
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert isinstance(entry["t"], int)
        kept = entry["records"]["memsys_replay_throughput"]
        # every floored metric + floor + spread + the pass verdict
        assert set(kept) == {
            "fast_requests_per_sec",
            "refresh_requests_per_sec",
            "timestamped_refresh_requests_per_sec",
            "telemetry_overhead_pct",
            "telemetry_overhead_spread_pct",
            "floor_requests_per_sec",
            "floor_timestamped_refresh_requests_per_sec",
            "floor_telemetry_overhead_pct",
            "passed",
        }

    def test_second_run_appends_and_prints_deltas(
        self, tmp_path, capsys
    ):
        history = tmp_path / "BENCH_HISTORY.jsonl"
        fresh = self.write(tmp_path, memsys_record())
        assert compare_bench.main(
            [str(fresh), "--history", str(history)]
        ) == 0
        capsys.readouterr()
        self.write(
            tmp_path, memsys_record(fast_requests_per_sec=6_000_000)
        )
        assert compare_bench.main(
            [str(fresh), "--history", str(history)]
        ) == 0
        out = capsys.readouterr().out
        assert (
            "history: memsys_replay_throughput"
            ".fast_requests_per_sec = 6e+06 "
            "[previous 5e+06, +1e+06]" in out
        )
        assert len(history.read_text().splitlines()) == 2

    def test_failing_run_is_still_recorded(self, tmp_path, capsys):
        fresh = self.write(
            tmp_path, memsys_record(fast_requests_per_sec=10)
        )
        history = tmp_path / "hist.jsonl"
        assert compare_bench.main(
            [str(fresh), "--history", str(history)]
        ) == 1
        entry = json.loads(history.read_text())
        assert (
            entry["records"]["memsys_replay_throughput"][
                "fast_requests_per_sec"
            ]
            == 10
        )

    def test_corrupt_history_lines_are_skipped(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        history.write_text(
            "not json at all\n"
            + json.dumps(
                {
                    "t": 1,
                    "records": {
                        "memsys_replay_throughput": {
                            "fast_requests_per_sec": 4_000_000
                        }
                    },
                }
            )
            + "\n"
        )
        fresh = self.write(tmp_path, memsys_record())
        assert compare_bench.main(
            [str(fresh), "--history", str(history)]
        ) == 0
        out = capsys.readouterr().out
        # the last parseable entry is the comparison point
        assert "[previous 4e+06, +1e+06]" in out
        assert len(history.read_text().splitlines()) == 3


class TestMain:
    def write(self, directory, record, name="BENCH_memsys.json"):
        path = directory / name
        path.write_text(json.dumps(record) + "\n")
        return path

    def test_pass_exit_0(self, tmp_path, capsys):
        fresh_dir = tmp_path / "fresh"
        base_dir = tmp_path / "base"
        fresh_dir.mkdir(), base_dir.mkdir()
        fresh = self.write(fresh_dir, memsys_record())
        self.write(base_dir, memsys_record())
        assert compare_bench.main(
            [str(fresh), "--baseline", str(base_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "bench records OK" in out

    def test_floor_miss_exit_1(self, tmp_path, capsys):
        fresh = self.write(
            tmp_path,
            memsys_record(refresh_requests_per_sec=10, passed=False),
        )
        assert compare_bench.main([str(fresh)]) == 1
        err = capsys.readouterr().err
        assert "misses floor" in err

    def test_missing_baseline_exit_1(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        fresh = self.write(tmp_path, memsys_record())
        assert compare_bench.main(
            [str(fresh), "--baseline", str(empty)]
        ) == 1
        assert "no baseline" in capsys.readouterr().err

    def test_unreadable_record_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{not json")
        assert compare_bench.main([str(bad)]) == 1
        assert "unreadable" in capsys.readouterr().err

    def test_no_records_exit_2(self, tmp_path, capsys, monkeypatch):
        missing = tmp_path / "BENCH_none.json"
        assert compare_bench.main([str(missing)]) == 1

    def test_committed_records_pass_as_their_own_baseline(self, capsys):
        """The CI invocation shape, against the repository's own
        committed records."""
        records = [
            str(path) for path in sorted(REPO_ROOT.glob("BENCH_*.json"))
        ]
        assert compare_bench.main(
            records + ["--baseline", str(REPO_ROOT)]
        ) == 0
