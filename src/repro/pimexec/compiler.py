"""Compiler bridge: lowering :mod:`repro.isa` vector kernels onto PIM.

The functional ISA simulator runs PIM-Lite-style *programs*; this
module closes the loop the ROADMAP asks for — "ISA programs from
``repro.isa`` can compile onto the memory system" — by lowering the
reduction-loop vector kernels
(:func:`repro.isa.programs.vector_sum_program` /
:func:`~repro.isa.programs.simd_vector_sum_program`) onto
:mod:`repro.pimexec` microkernels:

1. the kernel's assembled instruction stream is checked against the
   supported idiom (a ``ld``/``vld`` + ``add``/``vadd`` reduction loop
   closed by ``bne``, storing one result word);
2. its :attr:`~repro.isa.programs.KernelBinary.setup` function runs
   against a capture shim, recovering the exact input vector the
   kernel would deposit into :class:`~repro.isa.multinode.PimSystem`
   global memory;
3. the captured values become a :func:`~repro.pimexec.kernels.
   vector_sum_kernel` data layout, executed by the per-bank units.

The lowered kernel must reproduce the ISA kernel's expected result
exactly (the inputs are small integers, so float64 accumulation is
exact) — the "banks actually compute the numbers" check.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np

from ..isa.programs import KernelBinary
from ..memsys import MemSysConfig
from .commands import PimExecError
from .kernels import PimKernel, compare_host_pim, vector_sum_kernel
from .machine import PimExecResult

__all__ = ["CompileError", "LoweredKernel", "lower_kernel_binary"]


class CompileError(PimExecError):
    """The ISA kernel does not match a lowerable idiom."""


#: (load mnemonics, accumulate mnemonics) of the reduction idiom.
_LOADS = {"ld", "vld"}
_ACCUMULATES = {"add", "vadd"}


class _CaptureSystem:
    """Duck-typed :class:`PimSystem` shim that records memory writes."""

    def __init__(self) -> None:
        self.blocks: _t.List[_t.Tuple[int, _t.List[int]]] = []
        self.words: _t.Dict[int, int] = {}

    def write_block(
        self, base: int, values: _t.Sequence[int]
    ) -> None:
        self.blocks.append((int(base), [int(v) for v in values]))

    def write_word(self, addr: int, value: int) -> None:
        self.words[int(addr)] = int(value)


@dataclasses.dataclass
class LoweredKernel:
    """An ISA kernel lowered onto the PIM execution units."""

    source_name: str
    values: np.ndarray
    expected_sum: int
    kernel: PimKernel

    def run(self) -> _t.Tuple[float, bool, PimExecResult]:
        """Execute on a fresh machine.

        Returns ``(output, exact, timing)``: the computed sum, whether
        every bank's register state matched the NumPy reference
        bit-exactly *and* the sum equals the ISA kernel's expected
        result, and the PIM replay timing.
        """
        comparison = compare_host_pim(self.kernel)
        exact = comparison.correct and comparison.output == float(
            self.expected_sum
        )
        return comparison.output, exact, comparison.pim


def _loop_mnemonics(binary: KernelBinary) -> _t.Set[str]:
    return {inst.op for inst in binary.program.instructions}


def lower_kernel_binary(
    binary: KernelBinary, config: _t.Optional[MemSysConfig] = None
) -> LoweredKernel:
    """Lower a reduction-loop ISA kernel onto the per-bank units.

    Parameters
    ----------
    binary:
        A :class:`~repro.isa.programs.KernelBinary` whose program is a
        sum-reduction loop (``vector_sum`` / ``simd_vector_sum``).
    config:
        Target memory-system geometry (paper defaults if omitted).

    Raises
    ------
    CompileError
        If the program is not a recognizable reduction loop, or its
        setup does not stage exactly one input block.
    """
    mnemonics = _loop_mnemonics(binary)
    if not (_LOADS & mnemonics):
        raise CompileError(
            f"{binary.name}: no ld/vld — nothing streams from memory"
        )
    if not (_ACCUMULATES & mnemonics):
        raise CompileError(
            f"{binary.name}: no add/vadd accumulation to lower to the "
            "bank ADD units"
        )
    if "bne" not in mnemonics:
        raise CompileError(
            f"{binary.name}: no bne reduction loop to unroll into a "
            "CRF JUMP"
        )
    if "sum" not in binary.expected:
        raise CompileError(
            f"{binary.name}: kernel does not produce a scalar sum"
        )
    if "amo" in mnemonics or "invoke" in mnemonics:
        raise CompileError(
            f"{binary.name}: parcel/atomic kernels need host "
            "orchestration the all-bank lockstep model cannot express"
        )
    capture = _CaptureSystem()
    binary.setup(capture)  # type: ignore[arg-type]
    if len(capture.blocks) != 1:
        raise CompileError(
            f"{binary.name}: expected exactly one staged input block, "
            f"setup wrote {len(capture.blocks)}"
        )
    _base, values = capture.blocks[0]
    vector = np.asarray(values, dtype=np.float64)
    kernel = vector_sum_kernel(config=config, values=vector)
    return LoweredKernel(
        source_name=binary.name,
        values=vector,
        expected_sum=int(binary.expected["sum"]),
        kernel=kernel,
    )
