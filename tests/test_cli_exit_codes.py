"""CLI exit-code audit: every bad-input path exits 2, one line, no trace.

The contract for operator-facing robustness: whatever garbage a verb
is fed — a missing file, an empty or binary trace, a malformed
program, an invalid geometry or farm policy — ``repro-pim`` exits with
code 2 and a single explanatory line on stderr.  A Python traceback
on bad input is a bug.  (Exit 1 is reserved for genuine check
failures, exit 0 for success.)
"""

import pytest

import repro.nn
import repro.pimexec
from repro.cli import main
from repro.memsys import MemSysConfig
from repro.memsys.trace import format_trace, synthesize_trace


@pytest.fixture
def good_trace(tmp_path):
    """A small valid timestamped trace file (2 channels active)."""
    config = MemSysConfig(n_channels=2, scheme="channel-interleaved")
    requests = synthesize_trace(
        "random", 200, config, seed=0,
        interarrival_ns=40.0, interarrival="poisson",
    )
    path = tmp_path / "good.trace"
    path.write_text(format_trace(requests))
    return path


def run_cli(argv, capsys):
    """Invoke main(); return (exit_code, stdout, stderr) after
    asserting the no-traceback / one-line-stderr contract."""
    code = main(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if code == 2:
        lines = [l for l in captured.err.splitlines() if l.strip()]
        assert len(lines) >= 1, "exit 2 must explain itself on stderr"
    return code, captured.out, captured.err


class TestReplayBadInput:
    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["replay", str(tmp_path / "nope.trace")], capsys
        )
        assert code == 2
        assert "no such trace file" in err

    def test_empty_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.trace"
        path.write_text("")
        code, _, err = run_cli(["replay", str(path)], capsys)
        assert code == 2
        assert "empty trace" in err

    def test_garbage_text(self, tmp_path, capsys):
        path = tmp_path / "garbage.trace"
        path.write_text("this is not\na trace at all\n")
        code, _, err = run_cli(["replay", str(path)], capsys)
        assert code == 2
        assert "replay failed" in err

    def test_binary_garbage(self, tmp_path, capsys):
        path = tmp_path / "binary.trace"
        path.write_bytes(bytes([0, 159, 146, 150, 255, 0, 128]))
        code, _, err = run_cli(["replay", str(path)], capsys)
        assert code == 2

    def test_unknown_scheme(self, good_trace, capsys):
        code, _, err = run_cli(
            ["replay", str(good_trace), "--scheme", "warp"], capsys
        )
        assert code == 2
        assert "scheme" in err

    def test_bad_channel_count(self, good_trace, capsys):
        code, _, _ = run_cli(
            ["replay", str(good_trace), "--channels", "0"], capsys
        )
        assert code == 2

    def test_refresh_needs_trefi(self, good_trace, capsys):
        code, _, _ = run_cli(
            ["replay", str(good_trace), "--trfc", "350"], capsys
        )
        assert code == 2

    def test_negative_workers(self, good_trace, capsys):
        code, _, err = run_cli(
            ["replay", str(good_trace), "--workers", "-1"], capsys
        )
        assert code == 2
        assert "workers" in err

    def test_workers_on_good_trace_succeeds(self, good_trace, capsys):
        code, out, _ = run_cli(
            [
                "replay", str(good_trace),
                "--scheme", "channel-interleaved",
                "--workers", "2",
            ],
            capsys,
        )
        assert code == 0
        assert "farm:" in out


class TestFarmBadInput:
    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["farm", str(tmp_path / "nope.trace")], capsys
        )
        assert code == 2
        assert "no such trace file" in err

    def test_empty_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.trace"
        path.write_text("# only comments\n")
        code, _, err = run_cli(["farm", str(path)], capsys)
        assert code == 2
        assert "empty trace" in err

    def test_bad_max_shards(self, good_trace, capsys):
        code, _, err = run_cli(
            ["farm", str(good_trace), "--max-shards", "0"], capsys
        )
        assert code == 2
        assert "max_shards" in err

    def test_bad_max_retries(self, good_trace, capsys):
        code, _, _ = run_cli(
            ["farm", str(good_trace), "--max-retries", "-1"], capsys
        )
        assert code == 2

    def test_bad_deadline(self, good_trace, capsys):
        code, _, _ = run_cli(
            ["farm", str(good_trace), "--deadline", "0"], capsys
        )
        assert code == 2

    def test_good_trace_prints_ledger(
        self, good_trace, tmp_path, capsys
    ):
        report = tmp_path / "report.json"
        code, out, _ = run_cli(
            [
                "farm", str(good_trace),
                "--scheme", "channel-interleaved",
                "--mode", "inprocess",
                "--report", str(report),
            ],
            capsys,
        )
        assert code == 0
        assert "ledger:" in out
        assert report.exists()
        import json

        document = json.loads(report.read_text())
        assert document["n_shards"] >= 1


class TestPimexecBadInput:
    def test_missing_trace(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["pimexec", "--trace", str(tmp_path / "nope.trace")],
            capsys,
        )
        assert code == 2
        assert "no such trace file" in err

    def test_malformed_program(self, tmp_path, capsys):
        path = tmp_path / "bad.pim"
        path.write_text("GLORP 1 2 3\n")
        code, _, err = run_cli(
            ["pimexec", "--trace", str(path)], capsys
        )
        assert code == 2
        assert "pimexec replay failed" in err

    def test_binary_program(self, tmp_path, capsys):
        path = tmp_path / "binary.pim"
        path.write_bytes(bytes([0, 159, 146, 150, 255]))
        code, _, _ = run_cli(
            ["pimexec", "--trace", str(path)], capsys
        )
        assert code == 2

    def test_unknown_kernel(self, capsys):
        code, _, err = run_cli(
            ["pimexec", "--kernel", "bogus"], capsys
        )
        assert code == 2
        assert "unknown kernel" in err

    def test_metrics_needs_single_kernel(self, tmp_path, capsys):
        code, _, err = run_cli(
            [
                "pimexec", "--kernel", "all",
                "--metrics", str(tmp_path / "m.json"),
            ],
            capsys,
        )
        assert code == 2
        assert "single kernel" in err

    def test_energy_needs_single_kernel(self, tmp_path, capsys):
        code, _, err = run_cli(
            [
                "pimexec", "--kernel", "all",
                "--energy", str(tmp_path / "e.json"),
            ],
            capsys,
        )
        assert code == 2
        assert "--energy" in err
        assert "single kernel" in err


class TestNnBadInput:
    def test_unknown_kernel(self, capsys):
        code, _, err = run_cli(["nn", "--kernel", "bogus"], capsys)
        assert code == 2
        assert "unknown kernel" in err

    def test_emit_trace_unwritable_path(self, tmp_path, capsys):
        # a path *under a file* cannot be created: OSError, not a
        # traceback
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file")
        code, _, err = run_cli(
            ["nn", "--emit-trace", str(blocker / "out.trace")],
            capsys,
        )
        assert code == 2
        assert "cannot write" in err

    def test_emit_trace_rejects_metrics(self, tmp_path, capsys):
        code, _, err = run_cli(
            [
                "nn",
                "--emit-trace", str(tmp_path / "out.trace"),
                "--metrics", str(tmp_path / "m.json"),
            ],
            capsys,
        )
        assert code == 2
        assert "--metrics" in err

    def test_emit_trace_rejects_energy(self, tmp_path, capsys):
        # --energy accounts a replay; --emit-trace never replays
        code, _, err = run_cli(
            [
                "nn",
                "--emit-trace", str(tmp_path / "out.trace"),
                "--energy", str(tmp_path / "e.json"),
            ],
            capsys,
        )
        assert code == 2
        assert "--energy" in err
        assert "--emit-trace" in err

    def test_energy_needs_single_kernel(self, tmp_path, capsys):
        code, _, err = run_cli(
            [
                "nn", "--kernel", "all",
                "--energy", str(tmp_path / "e.json"),
            ],
            capsys,
        )
        assert code == 2
        assert "single kernel" in err


class TestKernelDivergence:
    """Exit 1 is the kernel verbs' check failure: every kernel still
    runs, and the divergent one is named on stderr."""

    @pytest.mark.parametrize(
        "verb, module, builder, names, broken, dtype",
        [
            (
                "pimexec", repro.pimexec, "build_kernel",
                repro.pimexec.KERNEL_NAMES, "axpy", "fp64",
            ),
            (
                "nn", repro.nn, "build_nn_kernel",
                repro.nn.NN_KERNEL_NAMES, "softmax", "fp16",
            ),
        ],
    )
    def test_all_kernels_exit_1_naming_the_divergent_one(
        self, monkeypatch, capsys, verb, module, builder, names, broken,
        dtype,
    ):
        original = getattr(module, builder)

        def build(name, **kwargs):
            kernel = original(name, **kwargs)
            if name == broken:
                kernel.check = lambda machine: False
            return kernel

        monkeypatch.setattr(module, builder, build)
        code, out, err = run_cli([verb, "--kernel", "all"], capsys)
        assert code == 1
        assert err.strip().endswith(f"{dtype} reference for: {broken}")
        rows = [line.split() for line in out.splitlines()[-len(names):]]
        assert {row[0]: row[-1] for row in rows} == {
            name: "NO" if name == broken else "yes" for name in names
        }


class TestExperimentVerbs:
    def test_unknown_experiment(self, capsys):
        code, _, err = run_cli(["run", "not-an-experiment"], capsys)
        assert code == 2
        assert "unknown experiment" in err


class TestArgparseErrors:
    """argparse's own rejections also exit 2 (via SystemExit)."""

    def test_unknown_verb(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_bad_choice_flag(self, good_trace, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", str(good_trace), "--policy", "warp"])
        assert excinfo.value.code == 2
