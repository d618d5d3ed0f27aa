"""A transformer layer on the PIM machine, in IEEE binary16.

This walkthrough exercises the :mod:`repro.nn` stack end to end:

1. run an attention layer (``softmax(QK^T/sqrt(d)) @ V`` per head) on
   the per-bank execution units under ``dtype="fp16"`` and verify the
   bank state *bit-exactly* against a NumPy binary16 reference;
2. quantify what binary16 rounding cost: the same layer under the
   idealized ``fp64`` model differs by a small — but nonzero — error;
3. re-run in *bank-group* mode (one execution unit per even/odd bank
   pair): identical results, measurably more all-bank column accesses
   — the modeled timing cost of half-bank execution;
4. generate a full transformer-layer workload trace (LayerNorm, QKV,
   attention, FFN) with bursty Poisson arrivals in the HBM-PIMulator
   program dialect, replay it, and check the replay against the
   memory system's timing laws.

Run with ``PYTHONPATH=src python examples/transformer_layer.py``.
"""

import numpy as np

from repro.memsys import MemorySystem, MemSysConfig, check_laws
from repro.nn import (
    TransformerLayerSpec,
    build_nn_kernel,
    run_nn_kernel,
    transformer_layer_program,
)
from repro.telemetry import ReplayTelemetry

# ----------------------------------------------------------------------
# 1. an attention layer in binary16, bit-exact
# ----------------------------------------------------------------------
kernel = build_nn_kernel(
    "attention", dtype="fp16", d_head=4, n_heads=2, seed=7
)
comparison = run_nn_kernel(kernel)
print(f"kernel:   {kernel.description}")
print(
    f"output:   {comparison.output.shape} in "
    f"{comparison.output.dtype}"
)
print(f"fp16 bank state bit-exact vs NumPy binary16: {comparison.correct}")
assert comparison.correct

# ----------------------------------------------------------------------
# 2. what did binary16 cost? compare against the fp64 model
# ----------------------------------------------------------------------
ideal = run_nn_kernel(
    build_nn_kernel("attention", dtype="fp64", d_head=4, n_heads=2, seed=7)
)
error = np.abs(
    comparison.output.astype(np.float64) - ideal.output
).max()
print(f"max fp16-vs-fp64 error: {error:.3e} (nonzero: rounding is real)")
assert 0.0 < error < 0.05

# ----------------------------------------------------------------------
# 3. bank-group (half-bank) execution: same answer, more accesses
# ----------------------------------------------------------------------
per_bank = run_nn_kernel(
    build_nn_kernel("gemm", dtype="fp16", m=128, k=8, n=8, seed=7)
)
grouped = run_nn_kernel(
    build_nn_kernel(
        "gemm", dtype="fp16", m=128, k=8, n=8, seed=7, bank_groups=True
    )
)
assert np.array_equal(per_bank.output, grouped.output)
print(
    f"bank-group GEMM: bit-identical output, "
    f"{per_bank.pim.n_pim} -> {grouped.pim.n_pim} all-bank commands, "
    f"{per_bank.pim.makespan_ns:.0f} -> "
    f"{grouped.pim.makespan_ns:.0f} ns"
)

# ----------------------------------------------------------------------
# 4. a full-layer workload trace, replayed and checked against the laws
# ----------------------------------------------------------------------
spec = TransformerLayerSpec(d_model=16, n_heads=2, seq_len=16, d_ff=32)
config = MemSysConfig()
program = transformer_layer_program(
    spec, config, interarrival_ns=4.0, interarrival="poisson", seed=7
)
print(
    f"trace:    {len(program)} records for d_model={spec.d_model} "
    f"heads={spec.n_heads} seq={spec.seq_len} d_ff={spec.ff_width} "
    f"(poisson arrivals)"
)
telemetry = ReplayTelemetry(profile=False)
stats = MemorySystem(config).replay(
    program.to_requests(config), telemetry=telemetry
)
violations = check_laws(config, telemetry.recorder.arrays)
assert not violations, violations[:5]
print(
    f"replay:   timing laws hold: {not violations} "
    f"(makespan {stats.makespan_ns:.1f} ns, "
    f"row-hit rate {stats.row_hit_rate:.3f})"
)
