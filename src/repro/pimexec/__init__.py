"""repro.pimexec — per-bank PIM execution units over the memory system.

PR 1/2 gave the reproduction a banked, trace-driven memory system whose
PIM support was a single opaque primitive: the all-bank row operation.
This package turns that memory system into an *executable* PIM machine
in the HBM-PIM mold, so "does PIM pay off on workload X" is answered by
running the kernel instead of evaluating a closed form:

* :mod:`~repro.pimexec.commands` — the CRF command vocabulary
  (``ADD``/``MUL``/``MAC``/``MAD``/``MOV``/``FILL``/``NOP``/``JUMP``/
  ``EXIT``) over ``BANK``/``GRF_A``/``GRF_B``/``SRF`` operands;
* :mod:`~repro.pimexec.regfile` — :class:`VectorUnitArray`, every
  unit's register files plus functional bank data array as stacked
  arrays, and :class:`UnitView`, a one-unit window onto it;
* :mod:`~repro.pimexec.sequencer` — :class:`CommandSequencer`, the
  lockstep CRF program counter driven by the host's column walk;
* :mod:`~repro.pimexec.machine` — :class:`PimExecMachine`, which pairs
  every bank of a :class:`~repro.memsys.MemSysConfig` geometry with an
  execution unit and charges every host action (bank writes, register
  broadcasts, CRF downloads, kernel steps) as a memory request, so
  kernel time is measured by the real controllers and row-buffer state
  machines of :mod:`repro.memsys`;
* :mod:`~repro.pimexec.layout` — :class:`Layout`, the one page layout
  (lane, unit, slot, ``(row, col)``, tiles, capacity) every kernel
  stages its data in, and the builder of host-only twin streams;
* :mod:`~repro.pimexec.kernels` — :class:`PimKernel`, the one kernel
  container (the :mod:`repro.nn` builders return it too), the
  built-in kernels (``vector-sum``, ``axpy``, ``gemv``) with
  bit-exact NumPy references and host-only twin traces, and
  :func:`compare_host_pim`, the one host-vs-PIM runner returning a
  :class:`KernelComparison`;
* :mod:`~repro.pimexec.program` — the HBM-PIMulator program-trace
  frontend (``R/W GPR|CFR|MEM``, ``AB W``, ``PIM …`` records with
  per-record dependencies);
* :mod:`~repro.pimexec.compiler` — the bridge lowering
  :mod:`repro.isa` reduction kernels onto pimexec microkernels.

Example
-------
>>> from repro.pimexec import build_kernel, compare_host_pim
>>> comparison = compare_host_pim(build_kernel("vector-sum", n=512))
>>> comparison.correct and comparison.speedup > 1.0
True
>>> comparison.dtype, sorted(comparison.row())[:3]
('fp64', ['bank_groups', 'correct', 'dtype'])
"""

from .commands import (
    ARITH_OPCODES,
    CONTROL_OPCODES,
    CRF_SIZE,
    GRF_REGS,
    Operand,
    PimCommand,
    PimExecError,
    PimOpcode,
    SRF_REGS,
    parse_command,
)
from .compiler import CompileError, LoweredKernel, lower_kernel_binary
from .kernels import (
    KERNEL_NAMES,
    KernelComparison,
    PimKernel,
    axpy_kernel,
    build_kernel,
    compare_host_pim,
    gemv_kernel,
    vector_sum_kernel,
)
from .layout import Layout
from .machine import PimExecMachine, PimExecResult
from .program import PimProgram, ProgramRecord, parse_pim_program
from .regfile import DTYPES, UnitView, VectorUnitArray
from .sequencer import CommandSequencer

__all__ = [
    "ARITH_OPCODES",
    "CONTROL_OPCODES",
    "CRF_SIZE",
    "GRF_REGS",
    "SRF_REGS",
    "Operand",
    "PimCommand",
    "PimExecError",
    "PimOpcode",
    "parse_command",
    "CompileError",
    "LoweredKernel",
    "lower_kernel_binary",
    "KERNEL_NAMES",
    "KernelComparison",
    "Layout",
    "PimKernel",
    "axpy_kernel",
    "build_kernel",
    "compare_host_pim",
    "gemv_kernel",
    "vector_sum_kernel",
    "PimExecMachine",
    "PimExecResult",
    "UnitView",
    "VectorUnitArray",
    "DTYPES",
    "CommandSequencer",
    "PimProgram",
    "ProgramRecord",
    "parse_pim_program",
]
