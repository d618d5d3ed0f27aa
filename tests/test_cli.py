"""Tests for the repro-pim command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_args(self):
        args = build_parser().parse_args(
            ["run", "table1", "figure7", "--seed", "3", "--full"]
        )
        assert args.names == ["table1", "figure7"]
        assert args.seed == 3
        assert args.full

    def test_out_dir(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "table1", "--out", str(tmp_path)]
        )
        assert args.out == tmp_path

    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_replay_command_args(self, tmp_path):
        args = build_parser().parse_args(
            [
                "replay", str(tmp_path / "a.trace"),
                "--scheme", "channel-interleaved",
                "--policy", "fcfs",
                "--channels", "4",
                "--queue-depth", "8",
            ]
        )
        assert args.command == "replay"
        assert args.scheme == "channel-interleaved"
        assert args.policy == "fcfs"
        assert args.channels == 4
        assert args.queue_depth == 8

    def test_replay_has_no_engine_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["replay", "a.trace", "--engine", "fast"]
            )

    def test_pimexec_command_args(self, tmp_path):
        args = build_parser().parse_args(
            [
                "pimexec", "--kernel", "gemv", "--n", "256",
                "--seed", "7",
            ]
        )
        assert args.command == "pimexec"
        assert args.kernel == "gemv"
        assert args.n == 256
        assert args.seed == 7
        assert args.trace is None
        trace_args = build_parser().parse_args(
            ["pimexec", "--trace", str(tmp_path / "p.trace")]
        )
        assert trace_args.trace == tmp_path / "p.trace"


class TestMain:
    def test_list_exit_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure7" in out
        assert "Fig. 7" in out

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "all shape checks passed" in out

    def test_unknown_experiment_exit_2(self, capsys):
        assert main(["run", "figure99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "figure7" in err  # lists available

    def test_run_with_artifacts(self, tmp_path, capsys):
        assert (
            main(["run", "bandwidth", "--out", str(tmp_path)]) == 0
        )
        assert (tmp_path / "bandwidth" / "report.txt").exists()

    def test_replay_trace_file(self, tmp_path, capsys):
        from repro.memsys import MemSysConfig, synthesize_trace, write_trace

        config = MemSysConfig(n_channels=2)
        path = write_trace(
            tmp_path / "demo.trace",
            synthesize_trace("sequential", 128, config),
        )
        assert main(["replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "128 requests" in out
        assert "fast-" in out
        assert "sustained_gbit_per_s" in out

    def test_replay_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path / "nope.trace")]) == 2
        assert "no such trace file" in capsys.readouterr().err

    def test_replay_bad_config_exit_2(self, tmp_path, capsys):
        from repro.memsys import MemRequest, Op, write_trace

        path = write_trace(
            tmp_path / "one.trace", [MemRequest(Op.READ, 0)]
        )
        assert (
            main(["replay", str(path), "--channels", "3"]) == 2
        )
        assert "replay failed" in capsys.readouterr().err

    def test_pimexec_kernel_run(self, capsys):
        assert main(["pimexec", "--kernel", "vector-sum", "--n", "512"]) == 0
        out = capsys.readouterr().out
        assert "vector-sum" in out
        assert "yes" in out  # the bit-exactness column

    def test_pimexec_unknown_kernel_exit_2(self, capsys):
        assert main(["pimexec", "--kernel", "fft"]) == 2
        err = capsys.readouterr().err
        assert "unknown kernel" in err
        assert "gemv" in err

    def test_pimexec_trace_replay(self, tmp_path, capsys):
        path = tmp_path / "program.trace"
        path.write_text(
            "W MEM 0 0 3\nAB W\n"
            "PIM MAC GRF,8 BANK,0,3,0 SRF,0\nPIM EXIT\n"
        )
        assert main(["pimexec", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "4 records" in out
        assert "pim=1" in out

    def test_pimexec_missing_trace_exit_2(self, tmp_path, capsys):
        assert (
            main(["pimexec", "--trace", str(tmp_path / "nope.trace")])
            == 2
        )
        assert "no such trace file" in capsys.readouterr().err

    def test_pimexec_malformed_trace_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.trace"
        path.write_text("PIM FMA GRF,0 BANK SRF,0\n")
        assert main(["pimexec", "--trace", str(path)]) == 2
        assert "pimexec replay failed" in capsys.readouterr().err


class TestReplayRefreshAndTimestamps:
    def test_replay_with_refresh_knobs(self, tmp_path, capsys):
        from repro.memsys import MemSysConfig, synthesize_trace, write_trace

        config = MemSysConfig(n_channels=2)
        path = write_trace(
            tmp_path / "refresh.trace",
            # long enough to cross several 3900 ns refresh boundaries
            synthesize_trace("sequential", 8192, config),
        )
        assert main([
            "replay", str(path),
            "--trefi", "3900", "--trfc", "350",
        ]) == 0
        refreshed = capsys.readouterr().out
        assert main(["replay", str(path)]) == 0
        ideal = capsys.readouterr().out

        def gbit(out):
            for line in out.splitlines():
                if line.startswith("sustained_gbit_per_s"):
                    return float(line.split()[-1])
            raise AssertionError(out)

        assert gbit(refreshed) < gbit(ideal)

    def test_replay_per_bank_granularity(self, tmp_path, capsys):
        from repro.memsys import MemSysConfig, synthesize_trace, write_trace

        config = MemSysConfig(n_channels=2)
        path = write_trace(
            tmp_path / "perbank.trace",
            synthesize_trace("sequential", 128, config),
        )
        assert main([
            "replay", str(path),
            "--trefi", "3900", "--trfc", "350",
            "--refresh-granularity", "per-bank",
        ]) == 0
        assert "fast-exact" in capsys.readouterr().out

    def test_replay_invalid_refresh_exit_2(self, tmp_path, capsys):
        from repro.memsys import MemRequest, Op, write_trace

        path = write_trace(
            tmp_path / "one.trace", [MemRequest(Op.READ, 0)]
        )
        assert main([
            "replay", str(path), "--trefi", "100", "--trfc", "100",
        ]) == 2
        assert "trfc_ns" in capsys.readouterr().err

    def test_replay_timestamped_trace(self, tmp_path, capsys):
        from repro.memsys import MemSysConfig, synthesize_trace, write_trace

        config = MemSysConfig(n_channels=2)
        path = write_trace(
            tmp_path / "timed.trace",
            synthesize_trace(
                "sequential", 128, config, interarrival_ns=50.0
            ),
        )
        assert main(["replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "128 requests" in out
        # 128 requests at 50 ns spacing stretch the makespan past 6350
        makespan = [
            line for line in out.splitlines()
            if line.startswith("makespan_ns")
        ][0]
        assert float(makespan.split()[-1]) >= 127 * 50.0


class TestTelemetryFlags:
    """``--metrics`` / ``--timeline`` on the replaying verbs."""

    @staticmethod
    def write_demo_trace(tmp_path, n=256):
        from repro.memsys import MemSysConfig, synthesize_trace, write_trace

        config = MemSysConfig(n_channels=2)
        return write_trace(
            tmp_path / "demo.trace",
            synthesize_trace("random", n, config, seed=0),
        )

    @staticmethod
    def load_metrics(path):
        import json

        document = json.loads(path.read_text())
        assert document["schema"] == "repro.telemetry/v1"
        return document

    @staticmethod
    def load_timeline(path):
        import json

        from repro.telemetry import validate_timeline

        document = json.loads(path.read_text())
        assert validate_timeline(document) == []
        return document

    def test_replay_writes_both_artifacts(self, tmp_path, capsys):
        trace = self.write_demo_trace(tmp_path)
        metrics = tmp_path / "m.json"
        timeline = tmp_path / "t.json"
        assert main([
            "replay", str(trace),
            "--metrics", str(metrics),
            "--timeline", str(timeline),
        ]) == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "timeline:" in out
        snapshot = self.load_metrics(metrics)
        names = {e["name"] for e in snapshot["counters"]}
        assert "memsys.requests" in names
        assert "telemetry.requests_recorded" in names
        histograms = {e["name"] for e in snapshot["histograms"]}
        assert "telemetry.queue_wait_ns" in histograms
        document = self.load_timeline(timeline)
        assert document["otherData"]["n_requests"] == 256

    def test_replay_without_flags_writes_nothing(self, tmp_path, capsys):
        trace = self.write_demo_trace(tmp_path)
        assert main(["replay", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "metrics:" not in out
        assert "timeline:" not in out

    def test_pimexec_trace_artifacts(self, tmp_path, capsys):
        program = tmp_path / "program.trace"
        program.write_text(
            "W MEM 0 0 3\nAB W\n"
            "PIM MAC GRF,8 BANK,0,3,0 SRF,0\nPIM EXIT\n"
        )
        metrics = tmp_path / "m.json"
        timeline = tmp_path / "t.json"
        assert main([
            "pimexec", "--trace", str(program),
            "--metrics", str(metrics),
            "--timeline", str(timeline),
        ]) == 0
        snapshot = self.load_metrics(metrics)
        names = {e["name"] for e in snapshot["counters"]}
        assert "pimexec.requests" in names
        self.load_timeline(timeline)

    def test_pimexec_single_kernel_metrics(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        assert main([
            "pimexec", "--kernel", "vector-sum", "--n", "512",
            "--metrics", str(metrics),
        ]) == 0
        snapshot = self.load_metrics(metrics)
        counters = {e["name"]: e for e in snapshot["counters"]}
        assert counters["pimexec.pim_commands"]["value"] > 0
        # the sequencer counters ride along, tagged by kernel
        seq = [
            e for e in snapshot["counters"]
            if e["name"] == "pimexec.sequencer.instructions"
        ]
        assert seq
        assert seq[0]["tags"]["kernel"] == "vector-sum"

    def test_pimexec_multi_kernel_with_flags_exit_2(self, tmp_path, capsys):
        assert main([
            "pimexec", "--metrics", str(tmp_path / "m.json"),
        ]) == 2
        assert "--kernel" in capsys.readouterr().err

    def test_nn_single_kernel_artifacts(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        timeline = tmp_path / "t.json"
        assert main([
            "nn", "--kernel", "softmax",
            "--metrics", str(metrics),
            "--timeline", str(timeline),
        ]) == 0
        snapshot = self.load_metrics(metrics)
        seq = [
            e for e in snapshot["counters"]
            if e["name"] == "pimexec.sequencer.instructions"
        ]
        # softmax runs a CRF microkernel, so dynamic instructions > 0
        assert sum(int(e["value"]) for e in seq) > 0
        self.load_timeline(timeline)

    def test_nn_multi_kernel_with_flags_exit_2(self, tmp_path, capsys):
        assert main([
            "nn", "--timeline", str(tmp_path / "t.json"),
        ]) == 2
        assert "--kernel" in capsys.readouterr().err

    def test_nn_emit_trace_with_flags_exit_2(self, tmp_path, capsys):
        assert main([
            "nn", "--emit-trace", str(tmp_path / "layer.trace"),
            "--d-model", "8", "--heads", "2", "--seq-len", "8",
            "--metrics", str(tmp_path / "m.json"),
        ]) == 2
        assert "--emit-trace" in capsys.readouterr().err


class TestTimeseriesFlag:
    """``--timeseries`` on every replaying verb."""

    @staticmethod
    def write_timed_trace(tmp_path, n=600):
        from repro.memsys import MemSysConfig, synthesize_trace, write_trace

        config = MemSysConfig(
            n_channels=2, scheme="channel-interleaved"
        )
        return write_trace(
            tmp_path / "timed.trace",
            synthesize_trace(
                "random", n, config, seed=0,
                interarrival_ns=40.0, interarrival="poisson",
            ),
        )

    @staticmethod
    def load_timeseries(path):
        import json

        from repro.telemetry import validate_timeseries

        document = json.loads(path.read_text())
        assert document["schema"] == "repro.telemetry/timeseries-v2"
        assert validate_timeseries(document) == []
        return document

    def test_replay_writes_a_valid_document(self, tmp_path, capsys):
        trace = TestTelemetryFlags.write_demo_trace(tmp_path)
        series = tmp_path / "s.json"
        assert main([
            "replay", str(trace), "--timeseries", str(series),
        ]) == 0
        out = capsys.readouterr().out
        assert f"timeseries: wrote {series} (64 windows)" in out
        document = self.load_timeseries(series)
        assert document["n_requests"] == 256

    def test_farm_writes_series_and_worker_tracks(
        self, tmp_path, capsys
    ):
        import json

        trace = self.write_timed_trace(tmp_path)
        series = tmp_path / "s.json"
        timeline = tmp_path / "t.json"
        assert main([
            "farm", str(trace),
            "--scheme", "channel-interleaved", "--channels", "2",
            "--mode", "inprocess",
            "--timeseries", str(series),
            "--timeline", str(timeline),
        ]) == 0
        self.load_timeseries(series)
        from repro.telemetry import validate_timeline

        document = json.loads(timeline.read_text())
        assert validate_timeline(document) == []
        farm_spans = [
            e
            for e in document["traceEvents"]
            if e["ph"] == "X" and e["cat"] == "farm"
        ]
        assert farm_spans
        processes = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "farm (wall clock)" in processes

    def test_pimexec_single_kernel_series(self, tmp_path, capsys):
        series = tmp_path / "s.json"
        assert main([
            "pimexec", "--kernel", "vector-sum", "--n", "512",
            "--timeseries", str(series),
        ]) == 0
        document = self.load_timeseries(series)
        # the stream is AB broadcasts + all-bank PIM commands, so the
        # barrier-occupancy series must light up somewhere
        assert any(
            f > 0 for f in document["series"]["ab_stall_fraction"]
        )

    def test_pimexec_multi_kernel_with_series_exit_2(
        self, tmp_path, capsys
    ):
        assert main([
            "pimexec", "--timeseries", str(tmp_path / "s.json"),
        ]) == 2
        assert "--kernel" in capsys.readouterr().err

    def test_nn_single_kernel_series(self, tmp_path, capsys):
        series = tmp_path / "s.json"
        assert main([
            "nn", "--kernel", "softmax", "--timeseries", str(series),
        ]) == 0
        self.load_timeseries(series)

    def test_nn_emit_trace_with_series_exit_2(self, tmp_path, capsys):
        assert main([
            "nn", "--emit-trace", str(tmp_path / "layer.trace"),
            "--d-model", "8", "--heads", "2", "--seq-len", "8",
            "--timeseries", str(tmp_path / "s.json"),
        ]) == 2
        assert "--emit-trace" in capsys.readouterr().err


class TestReportVerb:
    def test_report_command_args(self, tmp_path):
        args = build_parser().parse_args(
            [
                "report", str(tmp_path / "a.trace"),
                "--workers", "2", "--windows", "8",
                "--json", str(tmp_path / "r.json"),
                "--timeseries", str(tmp_path / "s.json"),
            ]
        )
        assert args.command == "report"
        assert args.workers == 2
        assert args.windows == 8
        assert args.json == tmp_path / "r.json"
        assert args.timeseries == tmp_path / "s.json"

    def test_single_process_report(self, tmp_path, capsys):
        import json

        from repro.telemetry import validate_timeseries

        trace = TestTelemetryFlags.write_demo_trace(tmp_path)
        report = tmp_path / "r.json"
        series = tmp_path / "s.json"
        assert main([
            "report", str(trace), "--windows", "8",
            "--json", str(report),
            "--timeseries", str(series),
        ]) == 0
        out = capsys.readouterr().out
        assert "run report —" in out
        assert "replay statistics" in out
        assert "latency percentiles (ns, exact)" in out
        assert "time series (8 windows" in out
        assert f"report:   wrote {report}" in out
        assert f"timeseries: wrote {series} (8 windows)" in out
        document = json.loads(report.read_text())
        assert document["schema"] == "repro.telemetry/report-v2"
        assert {"metrics", "percentiles", "timeseries"} <= set(
            document
        )
        assert document["timeseries"]["n_windows"] == 8
        assert validate_timeseries(document["timeseries"]) == []
        assert document["farm"] is None
        # the standalone series file is the embedded document
        assert (
            json.loads(series.read_text()) == document["timeseries"]
        )

    def test_farm_report_includes_the_ledger(self, tmp_path, capsys):
        import json

        trace = TestTimeseriesFlag.write_timed_trace(tmp_path)
        report = tmp_path / "r.json"
        assert main([
            "report", str(trace),
            "--scheme", "channel-interleaved", "--channels", "2",
            "--workers", "2",
            "--json", str(report),
        ]) == 0
        out = capsys.readouterr().out
        assert "farm ledger:" in out
        assert "farm events:" in out
        document = json.loads(report.read_text())
        assert document["farm"] is not None
        assert document["farm"]["n_shards"] == 2
        assert document["farm_event_counts"]["shard-done"] >= 2

    def test_report_missing_trace_exit_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.trace")]) == 2
        assert "no such trace file" in capsys.readouterr().err

    def test_report_empty_trace_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.trace"
        empty.write_text("")
        assert main(["report", str(empty)]) == 2
        assert "empty trace" in capsys.readouterr().err

    def test_report_bad_config_exit_2(self, tmp_path, capsys):
        trace = TestTelemetryFlags.write_demo_trace(tmp_path)
        assert main([
            "report", str(trace), "--channels", "3",
        ]) == 2
        assert "report failed" in capsys.readouterr().err


class TestFarmChannelGauges:
    """Farm runs emit the per-channel gauges a single process emits."""

    GAUGES = (
        "memsys.channel.max_queue_length",
        "memsys.channel.min_latency_ns",
        "memsys.channel.max_latency_ns",
        "memsys.channel.busy_fraction",
    )
    FLAGS = ("--scheme", "channel-interleaved", "--channels", "2")

    @classmethod
    def gauges(cls, snapshot):
        return {
            (entry["name"], entry["tags"]["channel"]): entry["value"]
            for entry in snapshot["gauges"]
            if entry["name"] in cls.GAUGES
        }

    def test_replay_workers_match_single_process(self, tmp_path, capsys):
        import json

        trace = TestTimeseriesFlag.write_timed_trace(tmp_path)
        single, farm = tmp_path / "single.json", tmp_path / "farm.json"
        assert main(
            ["replay", str(trace), *self.FLAGS, "--metrics", str(single)]
        ) == 0
        assert main([
            "replay", str(trace), *self.FLAGS,
            "--workers", "2", "--metrics", str(farm),
        ]) == 0
        assert "engine:   farm (" in capsys.readouterr().out
        expected = self.gauges(json.loads(single.read_text()))
        assert len(expected) == len(self.GAUGES) * 2
        assert self.gauges(json.loads(farm.read_text())) == expected

    def test_report_workers_match_single_process(self, tmp_path, capsys):
        import json

        trace = TestTimeseriesFlag.write_timed_trace(tmp_path)
        single, farm = tmp_path / "single.json", tmp_path / "farm.json"
        assert main(
            ["report", str(trace), *self.FLAGS, "--json", str(single)]
        ) == 0
        assert main([
            "report", str(trace), *self.FLAGS,
            "--workers", "2", "--json", str(farm),
        ]) == 0
        expected = self.gauges(json.loads(single.read_text())["metrics"])
        assert len(expected) == len(self.GAUGES) * 2
        document = json.loads(farm.read_text())
        assert not document["farm"]["fell_back_to_single"]
        assert self.gauges(document["metrics"]) == expected


class TestNnCommand:
    def test_nn_command_args(self, tmp_path):
        args = build_parser().parse_args(
            [
                "nn", "--kernel", "gemm", "--dtype", "fp64",
                "--bank-groups", "--seed", "3",
            ]
        )
        assert args.command == "nn"
        assert args.kernel == "gemm"
        assert args.dtype == "fp64"
        assert args.bank_groups is True
        assert args.emit_trace is None
        trace_args = build_parser().parse_args(
            [
                "nn", "--emit-trace", str(tmp_path / "layer.trace"),
                "--d-model", "16", "--heads", "2", "--seq-len", "16",
                "--interarrival", "poisson",
            ]
        )
        assert trace_args.emit_trace == tmp_path / "layer.trace"
        assert trace_args.interarrival == "poisson"

    def test_nn_kernel_run(self, capsys):
        assert main(["nn", "--kernel", "softmax"]) == 0
        out = capsys.readouterr().out
        assert "dtype=fp16" in out
        assert "softmax" in out
        assert "yes" in out  # the bit-exactness column

    def test_nn_bank_groups_run(self, capsys):
        assert main(["nn", "--kernel", "gemm", "--bank-groups"]) == 0
        assert "mode=bank-group" in capsys.readouterr().out

    def test_nn_unknown_kernel_exit_2(self, capsys):
        assert main(["nn", "--kernel", "conv2d"]) == 2
        err = capsys.readouterr().err
        assert "unknown kernel" in err
        assert "layernorm" in err

    def test_nn_emit_trace_round_trips(self, tmp_path, capsys):
        path = tmp_path / "layer.trace"
        assert main(
            [
                "nn", "--emit-trace", str(path), "--d-model", "8",
                "--heads", "2", "--seq-len", "8", "--d-ff", "16",
                "--interarrival", "poisson",
            ]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        # the emitted trace replays through the pimexec verb
        assert main(["pimexec", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out

    def test_nn_bad_spec_exit_2(self, tmp_path, capsys):
        assert main(
            [
                "nn", "--emit-trace", str(tmp_path / "t.trace"),
                "--d-model", "10", "--heads", "3",
            ]
        ) == 2
        assert "divisible" in capsys.readouterr().err


class TestTierReporting:
    """The verbs surface which execution tier actually ran."""

    def test_report_document_carries_replay_tier(self, tmp_path, capsys):
        import json

        trace = TestTelemetryFlags.write_demo_trace(tmp_path)
        report = tmp_path / "r.json"
        assert main([
            "report", str(trace), "--json", str(report),
        ]) == 0
        out = capsys.readouterr().out
        assert "tier: " in out
        document = json.loads(report.read_text())
        assert document["replay_tier"] in {"fastpath", "exact"}
        from repro.telemetry import replay_tier

        assert document["replay_tier"] == replay_tier(
            document["engine"]
        )

    def test_farm_verb_prints_shard_tiers(self, tmp_path, capsys):
        trace = TestTimeseriesFlag.write_timed_trace(tmp_path)
        assert main([
            "farm", str(trace),
            "--scheme", "channel-interleaved", "--channels", "2",
            "--mode", "inprocess",
        ]) == 0
        out = capsys.readouterr().out
        assert "tiers:    " in out
        assert "tier=" in out

    def test_pimexec_trace_prints_the_replay_summary(
        self, tmp_path, capsys
    ):
        program = tmp_path / "program.trace"
        program.write_text(
            "W MEM 0 0 3\nAB W\n"
            "PIM MAC GRF,8 BANK,0,3,0 SRF,0\nPIM EXIT\n"
        )
        assert main(["pimexec", "--trace", str(program)]) == 0
        out = capsys.readouterr().out
        assert "engine:   " in out and "makespan: " in out
        assert "units:" not in out

    def test_pimexec_metrics_count_unit_commands(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        assert main([
            "pimexec", "--kernel", "vector-sum", "--n", "512",
            "--metrics", str(metrics),
        ]) == 0
        snapshot = TestTelemetryFlags.load_metrics(metrics)
        unit = [
            e for e in snapshot["counters"]
            if e["name"] == "pimexec.unit_commands"
        ]
        assert unit
        assert "unit_mode" not in unit[0]["tags"]
        assert unit[0]["value"] > 0

    def test_replay_tier_taxonomy(self):
        from repro.telemetry import replay_tier

        assert replay_tier("fast-vectorized") == "fastpath"
        assert replay_tier("fast-exact") == "exact"
        assert replay_tier("fast") == "exact"
        assert replay_tier("mixed") == "mixed"
        assert replay_tier("farm") == "farm"
        assert replay_tier(None) is None
