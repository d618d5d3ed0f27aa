"""Experiment ``nn``: transformer-layer kernels on the PIM machine.

The paper's question — when does moving compute into the memory win —
is only answered at scale by application workloads, and related
large-scale benchmarking (see PAPERS.md) shows the host-vs-PIM
crossover *flips between kernel families*.  This experiment runs the
:mod:`repro.nn` transformer kernel library through the executable PIM
machine and closes four loops:

* **fp16-faithful execution** — every kernel (GEMM, softmax,
  LayerNorm, attention layer, FFN) runs under ``dtype="fp16"`` and
  must match its IEEE-binary16 NumPy reference *bit-exactly*;
* **precision** — the same kernels under ``dtype="fp64"`` quantify the
  binary16 rounding error (it must be present, and bounded);
* **bank-group granularity** — the half-bank execution mode must
  produce bit-identical results while costing measurably more all-bank
  column accesses (the modeled timing difference);
* **workload traces** — a generated transformer-layer program trace
  (fixed-cadence and Poisson arrivals) must replay obeying the timing
  laws of :mod:`repro.memsys.laws`;
* **energy crossover** — command-level
  :mod:`repro.telemetry.energy` accounting of every kernel and its
  host-only twin must flip host-vs-PIM *energy* advantage exactly
  where the *time* advantage flips (the kernel family decides both
  axes), cross-validating the coefficients against the analytic
  :mod:`repro.arch.energy` argument at application scale.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from ..memsys import MemorySystem, MemSysConfig, check_laws
from ..nn import (
    NN_KERNEL_NAMES,
    TransformerLayerSpec,
    build_nn_kernel,
    transformer_layer_program,
)
from ..pimexec import PimKernel, compare_host_pim
from ..telemetry import ReplayTelemetry, build_energy
from .registry import ExperimentConfig, ExperimentResult, register

#: Per-kernel shape arguments: (quick, full).
_SHAPES: _t.Dict[str, _t.Tuple[dict, dict]] = {
    "gemm": (dict(m=128, k=8, n=8), dict(m=256, k=32, n=32)),
    "softmax": (dict(m=128, c=8), dict(m=256, c=32)),
    "layernorm": (dict(m=128, c=8), dict(m=256, c=32)),
    "attention": (
        dict(seq_len=128, d_head=4, n_heads=2),
        dict(seq_len=128, d_head=16, n_heads=2),
    ),
    "ffn": (
        dict(seq_len=128, d_model=8, d_ff=16),
        dict(seq_len=128, d_model=16, d_ff=64),
    ),
}


def _shape(name: str, quick: bool) -> dict:
    quick_shape, full_shape = _SHAPES[name]
    return dict(quick_shape if quick else full_shape)


def _functional_output(kernel: PimKernel) -> np.ndarray:
    """Run a kernel functionally (no replay) and return its output."""
    machine = kernel.machine()
    kernel.setup(machine)
    kernel.execute(machine)
    assert kernel.check(machine)
    return kernel.output(machine)


@register(
    name="nn",
    title="Transformer Kernels: fp16 PIM Execution at Layer Scale",
    paper_reference="§2.1-2.2 at application scale",
    description=(
        "Runs the repro.nn transformer kernel library (tiled GEMM, "
        "softmax, LayerNorm, attention, FFN) on the per-bank PIM "
        "machine under IEEE-binary16 arithmetic with bit-exact NumPy "
        "references, quantifies fp16-vs-fp64 rounding error and the "
        "bank-group timing difference, and replays a generated "
        "transformer-layer trace identically through both memory-"
        "system engines."
    ),
)
def run(config: ExperimentConfig) -> ExperimentResult:
    sys_config = MemSysConfig()

    # ------------------------------------------------------------------
    # 1. host vs PIM per kernel, fp16, bit-exact
    # ------------------------------------------------------------------
    telemetries = {
        name: (ReplayTelemetry(), ReplayTelemetry())
        for name in NN_KERNEL_NAMES
    }
    comparisons = {
        name: compare_host_pim(
            build_nn_kernel(
                name,
                config=sys_config,
                dtype="fp16",
                seed=config.seed,
                **_shape(name, config.quick),
            ),
            telemetry=telemetries[name][0],
            host_telemetry=telemetries[name][1],
        )
        for name in NN_KERNEL_NAMES
    }
    # the GEMV-shaped GEMM (one output column): the regime where the
    # scalar broadcasts amortize over every row in the banks — the
    # kernel family that favors PIM, per the large-scale benchmarking
    # papers whose crossover conclusions flip between families
    gemv_telemetry = (ReplayTelemetry(), ReplayTelemetry())
    gemv_shaped = compare_host_pim(
        build_nn_kernel(
            "gemm",
            config=sys_config,
            dtype="fp16",
            seed=config.seed,
            m=128 if config.quick else 256,
            k=32 if config.quick else 64,
            n=1,
        ),
        telemetry=gemv_telemetry[0],
        host_telemetry=gemv_telemetry[1],
    )
    kernel_rows = [c.row() for c in comparisons.values()]
    gemv_row = gemv_shaped.row()
    gemv_row["kernel"] = "gemm (gemv-shaped)"
    kernel_rows.append(gemv_row)
    all_exact = (
        all(c.correct for c in comparisons.values())
        and gemv_shaped.correct
    )
    speedups = [c.speedup for c in comparisons.values()]
    speedups.append(gemv_shaped.speedup)

    # ------------------------------------------------------------------
    # 2. fp16 vs fp64 rounding error
    # ------------------------------------------------------------------
    precision_rows = []
    errors_present = True
    errors_bounded = True
    for name, comparison in comparisons.items():
        f64 = _functional_output(
            build_nn_kernel(
                name,
                config=sys_config,
                dtype="fp64",
                seed=config.seed,
                **_shape(name, config.quick),
            )
        )
        f16 = comparison.output.astype(np.float64)
        err = np.abs(f16 - f64)
        scale = max(float(np.abs(f64).max()), 1e-12)
        max_rel = float(err.max()) / scale
        precision_rows.append(
            {
                "kernel": name,
                "max_abs_err": float(err.max()),
                "max_err_rel_to_peak": max_rel,
                "fp64_peak": float(np.abs(f64).max()),
            }
        )
        errors_present = errors_present and float(err.max()) > 0.0
        errors_bounded = errors_bounded and max_rel < 0.05

    # ------------------------------------------------------------------
    # 3. bank-group (half-bank) execution mode
    # ------------------------------------------------------------------
    group_rows = []
    group_exact = True
    group_slower = True
    for name in ("gemm", "ffn"):
        shape = _shape(name, config.quick)
        per_bank = comparisons[name]
        grouped = compare_host_pim(
            build_nn_kernel(
                name,
                config=sys_config,
                dtype="fp16",
                bank_groups=True,
                seed=config.seed,
                **shape,
            )
        )
        group_exact = group_exact and grouped.correct and bool(
            np.array_equal(
                grouped.output, per_bank.output, equal_nan=True
            )
        )
        group_slower = group_slower and (
            grouped.pim.makespan_ns > per_bank.pim.makespan_ns
            and grouped.pim.n_pim > per_bank.pim.n_pim
        )
        group_rows.append(
            {
                "kernel": name,
                "per_bank_ns": per_bank.pim.makespan_ns,
                "bank_group_ns": grouped.pim.makespan_ns,
                "slowdown": (
                    grouped.pim.makespan_ns
                    / per_bank.pim.makespan_ns
                ),
                "per_bank_pim_cmds": per_bank.pim.n_pim,
                "bank_group_pim_cmds": grouped.pim.n_pim,
                "outputs_bit_equal": bool(
                    np.array_equal(
                        grouped.output,
                        per_bank.output,
                        equal_nan=True,
                    )
                ),
            }
        )

    # ------------------------------------------------------------------
    # 4. transformer-layer trace, checked against the timing laws
    # ------------------------------------------------------------------
    spec = (
        TransformerLayerSpec(
            d_model=16, n_heads=2, seq_len=16, d_ff=32
        )
        if config.quick
        else TransformerLayerSpec(
            d_model=32, n_heads=2, seq_len=32, d_ff=64
        )
    )
    trace_rows = []
    laws_hold = True
    for mode in ("fixed", "poisson"):
        program = transformer_layer_program(
            spec,
            sys_config,
            interarrival_ns=4.0,
            interarrival=mode,
            seed=config.seed,
        )
        requests = program.to_requests(sys_config)
        telemetry = ReplayTelemetry(profile=False)
        stats = MemorySystem(sys_config).replay(
            requests, telemetry=telemetry
        )
        violations = check_laws(sys_config, telemetry.recorder.arrays)
        laws_hold = laws_hold and not violations
        trace_rows.append(
            {
                "arrivals": mode,
                "records": len(program),
                "requests": len(requests),
                "makespan_ns": stats.makespan_ns,
                "row_hit_rate": stats.row_hit_rate,
                "laws_hold": not violations,
            }
        )

    # ------------------------------------------------------------------
    # 5. energy crossover: energy advantage flips with time advantage
    # ------------------------------------------------------------------
    energy_rows = []
    energy_tracks_time = True
    named = [
        (name, comparisons[name], telemetries[name])
        for name in NN_KERNEL_NAMES
    ]
    named.append(("gemm (gemv-shaped)", gemv_shaped, gemv_telemetry))
    for label, comparison, (pim_t, host_t) in named:
        pim_energy = build_energy(pim_t)
        host_energy = build_energy(host_t)
        ratio = host_energy["total_pj"] / pim_energy["total_pj"]
        energy_tracks_time = energy_tracks_time and (
            (ratio > 1.0) == (comparison.speedup > 1.0)
        )
        energy_rows.append(
            {
                "kernel": label,
                "time_speedup": comparison.speedup,
                "energy_ratio": ratio,
                "pim_pj_per_bit": pim_energy["pj_per_bit"],
                "host_pj_per_bit": host_energy["pj_per_bit"],
                "pim_mean_power_w": pim_energy["mean_power_w"],
            }
        )

    checks = {
        "every fp16 kernel matches its binary16 reference bit-"
        "exactly": all_exact,
        "binary16 rounding is visible in every kernel "
        "(fp16 != fp64)": errors_present,
        "binary16 error stays below 5% of the output peak":
            errors_bounded,
        "bank-group mode is bit-identical but measurably slower":
            group_exact and group_slower,
        "host-vs-PIM crossover flips between kernel families": (
            any(s > 1.0 for s in speedups)
            and any(s < 1.0 for s in speedups)
        ),
        "transformer trace replays obey the timing laws": laws_hold,
        "the energy crossover flips with the time crossover on "
        "every kernel": energy_tracks_time,
    }
    contenders = list(comparisons.values()) + [gemv_shaped]
    best = max(contenders, key=lambda c: c.speedup)
    worst = min(contenders, key=lambda c: c.speedup)
    return ExperimentResult(
        name="nn",
        title="Transformer Kernels: fp16 PIM Execution at Layer Scale",
        paper_reference="§2.1-2.2 at application scale",
        tables={
            "kernel_comparison": kernel_rows,
            "fp16_precision": precision_rows,
            "bank_group": group_rows,
            "transformer_trace": trace_rows,
            "energy_crossover": energy_rows,
        },
        plots={},
        summary=[
            f"{len(comparisons)} transformer kernels executed "
            "in-bank under IEEE binary16, "
            + ("all bit-exact" if all_exact else "WITH MISMATCHES"),
            f"crossover: {best.kernel} favors PIM "
            f"({best.speedup:.2f}x) while {worst.kernel} favors the "
            f"host ({worst.speedup:.2f}x) — kernel family decides",
            "bank-group mode: same results, "
            f"{group_rows[0]['slowdown']:.2f}x the GEMM makespan "
            "(half the units need twice the column accesses)",
            f"transformer trace ({trace_rows[0]['records']} records) "
            + ("obeys" if laws_hold else "BREAKS")
            + " the timing laws",
            "energy crossover tracks the time crossover: "
            f"gemv-shaped GEMM saves "
            f"{energy_rows[-1]['energy_ratio']:.2f}x energy in-bank",
        ],
        checks=checks,
    )
