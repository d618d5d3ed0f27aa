"""repro.nn — transformer-layer workloads on the PIM machine.

PR 3 made the memory system an *executable* PIM machine; PR 5 makes it
run model layers.  The package supplies the three pieces the paper's
"when does in-memory compute win" question needs at application scale:

* :mod:`~repro.nn.kernels` — a kernel library built from the pimexec
  primitives: tiled GEMM (from the GEMV recipe), row-wise softmax and
  LayerNorm (reductions and elementwise passes split between PIM and
  host, as HBM-PIMulator's transformer traces do), and composed
  ``attention``/``ffn`` layers that chain through bank state.  Every
  kernel is a :class:`~repro.pimexec.kernels.PimKernel` carrying a
  *dtype-exact* NumPy reference — ``"fp16"`` kernels are checked
  bit-for-bit against an IEEE binary16 reference — and a host-only
  twin trace, so :func:`~repro.pimexec.kernels.compare_host_pim` runs
  the host-vs-PIM comparison for both kernel families;
* :mod:`~repro.nn.models` — a workload generator emitting timestamped
  host+PIM traces for a parameterized transformer layer (``d_model``,
  ``n_heads``, ``seq_len``, ``d_ff``) in the HBM-PIMulator program
  dialect of :mod:`repro.pimexec.program`, with fixed-cadence or
  seeded-Poisson arrivals, replayable identically through both
  :mod:`repro.memsys` engines.

Example
-------
>>> from repro.nn import build_nn_kernel
>>> from repro.pimexec import compare_host_pim
>>> comparison = compare_host_pim(build_nn_kernel("gemm", k=4, n=4))
>>> comparison.correct, comparison.dtype, comparison.output.dtype
(True, 'fp16', dtype('float16'))
"""

from .kernels import (
    NN_KERNEL_NAMES,
    Layout,
    attention_kernel,
    build_nn_kernel,
    ffn_kernel,
    gemm_kernel,
    layernorm_kernel,
    softmax_kernel,
)
from .models import (
    TransformerLayerSpec,
    transformer_layer_program,
    transformer_layer_trace,
)

__all__ = [
    "NN_KERNEL_NAMES",
    "Layout",
    "attention_kernel",
    "build_nn_kernel",
    "ffn_kernel",
    "gemm_kernel",
    "layernorm_kernel",
    "softmax_kernel",
    "TransformerLayerSpec",
    "transformer_layer_program",
    "transformer_layer_trace",
]
