"""Smoke tests: every example script runs to completion.

Examples are executed in-process (runpy) with stdout captured, and key
output markers are asserted so regressions in the public API surface
show up here before a user hits them.
"""

import pathlib
import runpy

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

EXPECTED_MARKERS = {
    "quickstart.py": ["Break-even node count NB = 3.125", "work ratio"],
    "design_space_exploration.py": [
        "break-even node count vs host cache miss rate",
        "PIM nodes",
    ],
    "latency_hiding_parcels.py": ["saturation parallelism", "P_sat"],
    "irregular_kernels_on_pim.py": ["pointer_chase", "parallel_sum"],
    "calibrated_design_point.py": [
        "calibrated break-even node count",
        "recommendation",
    ],
    "pim_kernel_execution.py": [
        "bank GRF contents bit-exact vs NumPy: True",
        "speedup",
    ],
    "timestamped_replay.py": [
        "timestamped trace lines:",
        "per-bank",
        "overhead",
    ],
    "latency_profile.py": [
        "timing laws hold: True",
        "latency percentiles (ns, exact):",
        "phase profile",
        "schema valid: True",
    ],
    "transformer_layer.py": [
        "fp16 bank state bit-exact vs NumPy binary16: True",
        "bank-group GEMM: bit-identical output",
        "timing laws hold: True",
    ],
    "energy_profile.py": [
        "timing laws hold: True",
        "host energy breakdown:",
        "host power profile:",
        "pim moves bits cheaper than the host stream: True",
        "perf-per-watt",
    ],
    "run_report.py": [
        "time series identical across single-process and farm: True",
        "chaos-kill events on shard 0: 1 (attempt 0)",
        "farm ledger:",
        "farm events:",
    ],
    "farm_replay.py": [
        "farm stats bit-identical to single-process: True",
        "stats under chaos bit-identical to single-process: True",
        "fault ledger:",
        "fell back to single-process = True",
    ],
}


def test_every_example_has_a_smoke_test():
    scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert scripts == set(EXPECTED_MARKERS)


@pytest.mark.parametrize("script", sorted(EXPECTED_MARKERS))
def test_example_runs(script, capsys, monkeypatch):
    # examples must be deterministic and self-contained
    runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    out = capsys.readouterr().out
    for marker in EXPECTED_MARKERS[script]:
        assert marker in out, f"{script} output missing {marker!r}"
