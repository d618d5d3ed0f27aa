"""Transformer-layer kernel library over the PIM machine.

Every builder returns a :class:`~repro.pimexec.kernels.PimKernel` in
its own dtype and execution mode: closures that stage input data into
the banks, execute the kernel on a
:class:`~repro.pimexec.machine.PimExecMachine`, verify the machine's
bank/register state **bit-exactly** against a NumPy reference that
performs the same operations in the same order *and the same dtype*
(``"fp16"`` = IEEE binary16 per-operation rounding, ``"fp64"`` = the
idealized model), and produce the host-only twin request stream that
:func:`~repro.pimexec.kernels.compare_host_pim` times against the PIM
stream in ``exp_nn``.

Kernels
-------
``gemm``
    ``C = A @ B``, tiled from the GEMV primitive: ``A`` row-striped
    across the execution units (one output row per lane), ``B``
    broadcast scalar-by-scalar into the SRF, output columns tiled
    ``GRF_REGS`` at a time into the GRF_B accumulators and ``MOV``-ed
    back to the banks.
``softmax``
    Row-wise softmax, split between host and PIM the way
    HBM-PIMulator's transformer traces are: the host performs the max
    reduction and the exponentials (PIM has no ``exp``), PIM performs
    the sum reduction (``ADD`` loop into GRF_B0) and the normalization
    pass (``MUL`` by the broadcast per-row reciprocal page).
``layernorm``
    Row-wise LayerNorm: PIM reduces the sum (``ADD`` loop) and the sum
    of squares (``MAC BANK*BANK`` loop); the host turns them into
    ``-mean`` and ``1/std`` pages; PIM then applies the elementwise
    affine pass (``ADD``/``MUL``/``MAD`` with per-column gamma/beta in
    the SRF).
``attention``
    One attention layer per head: ``scores = (Q/sqrt(d)) @ K^T``
    (GEMM), row-wise softmax, ``P @ V`` (GEMM) — all chained through
    bank state: the softmax normalizes the score pages in place and
    the second GEMM reads them back as its ``A`` operand.
``ffn``
    The transformer feed-forward block: ``relu(X @ W1) @ W2`` with a
    host ReLU pass between the two GEMMs (exact in fp16 — a sign
    test).

Data layout
-----------
See :class:`~repro.pimexec.layout.Layout` (re-exported as
:class:`repro.nn.Layout`), the one description of where every page
sits: row-striped tiles, slots, and the host-only twins' banks.

Host-only twins move every *logical* operand one page at a time over
the host interface (inputs read once, outputs written once —
intermediates of composed kernels stay host-side), spread round-robin
over all banks.
"""

from __future__ import annotations

import math
import typing as _t

import numpy as np

from ..memsys import MemSysConfig, Op, PackedTrace
from ..pimexec import (
    DTYPES,
    Operand,
    PimCommand,
    PimKernel,
    PimOpcode,
    parse_command,
)
from ..pimexec.commands import GRF_REGS
from ..pimexec.layout import Layout
from ..pimexec.machine import PimExecMachine

__all__ = [
    "NN_KERNEL_NAMES",
    "Layout",
    "build_nn_kernel",
    "gemm_kernel",
    "softmax_kernel",
    "layernorm_kernel",
    "attention_kernel",
    "ffn_kernel",
]


# ----------------------------------------------------------------------
# shared machine-side phases (each has a dtype-exact reference twin)
# ----------------------------------------------------------------------
def _stage_tiles(
    machine: PimExecMachine,
    layout: Layout,
    base: int,
    tiles: np.ndarray,
) -> None:
    """Write ``(T, K, units, lanes)`` pages into the banks."""
    count = tiles.shape[0] * tiles.shape[1]
    machine.write_unit_pages(
        layout.addrs(base, count),
        tiles.reshape(count, layout.units, layout.lanes),
    )


def _read_tile_pages(
    machine: PimExecMachine,
    layout: Layout,
    base: int,
    t: int,
    k_count: int,
) -> np.ndarray:
    """Host READ of one tile's pages -> ``(k_count, units, lanes)``."""
    return machine.read_unit_pages(layout.addrs(base + t * k_count, k_count))


def _write_tile_pages(
    machine: PimExecMachine,
    layout: Layout,
    base: int,
    t: int,
    pages: np.ndarray,
) -> None:
    """Host WRITE of one tile's pages from ``(k_count, units, lanes)``."""
    k_count = pages.shape[0]
    machine.write_unit_pages(layout.addrs(base + t * k_count, k_count), pages)


def _result(
    layout: Layout,
    bases: _t.Sequence[int],
    t_count: int,
    k_count: int,
    expected_pages: _t.Sequence[np.ndarray],
    m: int,
) -> _t.Tuple[
    _t.Callable[..., bool], _t.Callable[..., np.ndarray], np.ndarray
]:
    """``(check, output, expected)`` of a kernel whose result is the
    ``(t_count, k_count)`` page regions at ``bases``: ``check`` compares
    each region bit-exactly with its ``expected_pages``, ``output`` and
    ``expected`` untile the regions to ``m`` rows, side by side."""

    def regions(machine: PimExecMachine) -> _t.List[np.ndarray]:
        return [
            layout.pages(machine, base, t_count * k_count).reshape(
                t_count, k_count, layout.units, layout.lanes
            )
            for base in bases
        ]

    def untile(pages: _t.Sequence[np.ndarray]) -> np.ndarray:
        return np.concatenate(
            [layout.untile(region, m) for region in pages], axis=1
        )

    def check(machine: PimExecMachine) -> bool:
        return all(
            np.array_equal(got, want, equal_nan=True)
            for got, want in zip(regions(machine), expected_pages)
        )

    def output(machine: PimExecMachine) -> np.ndarray:
        return untile(regions(machine))

    return check, output, untile(expected_pages)


def _reduce_kernel(
    accumulator: Operand, n_slots: int, square: bool = False
) -> _t.List[PimCommand]:
    """CRF microkernel: FILL-zero then ADD (or MAC x*x) over n slots."""
    if square:
        step = PimCommand(
            PimOpcode.MAC,
            dst=accumulator,
            src0=Operand.bank(),
            src1=Operand.bank(),
        )
    else:
        step = PimCommand(
            PimOpcode.ADD,
            dst=accumulator,
            src0=Operand.bank(),
            src1=accumulator,
        )
    return [
        PimCommand(PimOpcode.FILL, dst=accumulator, src0=Operand.bank()),
        step,
        PimCommand(PimOpcode.JUMP, target=1, count=n_slots - 1),
        PimCommand(PimOpcode.EXIT),
    ]


#: The GEMM's per-output-column microcode (column ``c`` accumulates in
#: GRF_B ``c``): zero the accumulator, multiply-accumulate a bank page
#: by the broadcast SRF scalar, write the accumulator back to the bank.
_GEMM_FILL = [parse_command(f"FILL GRF_B,{c} BANK") for c in range(GRF_REGS)]
_GEMM_MAC = [
    parse_command(f"MAC GRF_B,{c} BANK SRF,{c}") for c in range(GRF_REGS)
]
_GEMM_MOV = [parse_command(f"MOV BANK GRF_B,{c}") for c in range(GRF_REGS)]


def _run_gemm(
    machine: PimExecMachine,
    layout: Layout,
    a_base: int,
    t_count: int,
    b: np.ndarray,
    result_base: int,
    zero_slot: int,
) -> None:
    """Emit the host+PIM stream for ``C_pages = A_tiles @ b``.

    ``b`` is host-resident ``(K, N)`` in the machine dtype; its values
    enter the banks as SRF scalar broadcasts, ``GRF_REGS`` output
    columns at a time, exactly like the reference
    :func:`_ref_gemm` accumulates them.
    """
    k_count, n = b.shape
    zrow, zcol = layout.slot_addr(zero_slot)
    with machine.lockstep() as step:
        for t in range(t_count):
            a_addrs = layout.addrs(a_base + t * k_count, k_count)
            for j0 in range(0, n, GRF_REGS):
                width = min(GRF_REGS, n - j0)
                for c in range(width):
                    step(_GEMM_FILL[c], zrow, zcol)
                for k, (arow, acol) in enumerate(a_addrs):
                    machine.broadcast_scalars(
                        b[k, j0:j0 + width], arow, acol
                    )
                    for c in range(width):
                        step(_GEMM_MAC[c], arow, acol)
                for c in range(width):
                    rrow, rcol = layout.slot_addr(
                        result_base + t * n + j0 + c
                    )
                    step(_GEMM_MOV[c], rrow, rcol)


def _ref_gemm(
    a_tiles: np.ndarray, b: np.ndarray, np_dtype: np.dtype
) -> np.ndarray:
    """Reference of :func:`_run_gemm`: pages ``(T, N, units, lanes)``.

    Performs exactly the MAC's expression ``acc + page * scalar_lanes``
    in slot order, in ``np_dtype``.
    """
    t_count, k_count, units, lanes = a_tiles.shape
    n = b.shape[1]
    out = np.zeros((t_count, n, units, lanes), dtype=np_dtype)
    for t in range(t_count):
        for j in range(n):
            acc = np.zeros((units, lanes), dtype=np_dtype)
            for k in range(k_count):
                acc = acc + a_tiles[t, k] * np.full(
                    lanes, b[k, j], dtype=np_dtype
                )
            out[t, j] = acc
    return out


def _softmax_exp(pages: np.ndarray) -> np.ndarray:
    """Host pass of the softmax: ``exp(x - rowmax)`` in the input dtype.

    ``pages`` is ``(C, units, lanes)``; the max reduction is exact in
    any dtype, the subtraction and exponential round per element.
    """
    m = pages.max(axis=0)
    return np.exp(pages - m[None])


def _recip(values: np.ndarray) -> np.ndarray:
    """Elementwise reciprocal in the input dtype."""
    return np.ones_like(values) / values


def _run_softmax(
    machine: PimExecMachine,
    layout: Layout,
    x_base: int,
    t_count: int,
    c_count: int,
    zero_slot: int,
    scratch_base: int,
) -> None:
    """Row-wise softmax of the pages at ``x_base``, in place.

    Host: max + exp pass (READ/WRITE every page).  PIM: sum reduction
    (``ADD`` loop into GRF_B0) and normalization (``MUL`` by the
    reciprocal page FILLed into GRF_A0 from ``scratch_base + t``).
    """
    zero_addr = layout.slot_addr(zero_slot)
    for t in range(t_count):
        pages = _read_tile_pages(machine, layout, x_base, t, c_count)
        _write_tile_pages(
            machine, layout, x_base, t, _softmax_exp(pages)
        )
        machine.load_kernel(
            _reduce_kernel(Operand.grf_b(0), c_count)
        )
        walk = [zero_addr] + layout.addrs(x_base + t * c_count, c_count)
        machine.run_kernel(walk)
        sums = machine.read_grfs("grf_b", 0)
        machine.write_unit_pages(
            [layout.slot_addr(scratch_base + t)], _recip(sums)[None]
        )
        machine.load_kernel(
            [
                PimCommand(
                    PimOpcode.FILL,
                    dst=Operand.grf_a(0),
                    src0=Operand.bank(),
                ),
                PimCommand(
                    PimOpcode.MUL,
                    dst=Operand.bank(),
                    src0=Operand.bank(),
                    src1=Operand.grf_a(0),
                ),
                PimCommand(PimOpcode.JUMP, target=1, count=c_count - 1),
                PimCommand(PimOpcode.EXIT),
            ]
        )
        machine.run_kernel(
            [layout.slot_addr(scratch_base + t)] + walk[1:]
        )


def _ref_softmax(x_pages: np.ndarray) -> np.ndarray:
    """Reference of :func:`_run_softmax` on ``(T, C, units, lanes)``."""
    out = np.empty_like(x_pages)
    for t in range(x_pages.shape[0]):
        e = _softmax_exp(x_pages[t])
        acc = np.zeros_like(e[0])
        for s in range(e.shape[0]):
            acc = e[s] + acc  # the ADD's operand order: page + GRF
        inv = _recip(acc)
        for s in range(e.shape[0]):
            out[t, s] = e[s] * inv  # the MUL's order: page * GRF
        # note: FILLing the accumulator from the zero slot reproduces
        # np.zeros_like exactly — unwritten pages read as zeros
    return out


def _run_layernorm(
    machine: PimExecMachine,
    layout: Layout,
    x_base: int,
    t_count: int,
    c_count: int,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float,
    zero_slot: int,
    scratch_base: int,
) -> None:
    """Row-wise LayerNorm of the pages at ``x_base``, in place.

    PIM reduces sum and sum-of-squares; the host computes ``-mean``
    and ``1/std`` pages (written to ``scratch_base + 2t`` and
    ``+ 2t + 1``); PIM applies ``(x - mean) * invstd * gamma + beta``
    with gamma/beta broadcast per column into SRF0/SRF1.
    """
    np_dtype = machine.np_dtype
    inv_c = np_dtype.type(1.0) / np_dtype.type(c_count)
    eps_d = np_dtype.type(eps)
    zero_addr = layout.slot_addr(zero_slot)
    affine = [
        PimCommand(
            PimOpcode.FILL, dst=Operand.grf_b(0), src0=Operand.bank()
        ),
        PimCommand(
            PimOpcode.ADD,
            dst=Operand.grf_b(0),
            src0=Operand.grf_b(0),
            src1=Operand.grf_a(0),
        ),
        PimCommand(
            PimOpcode.MUL,
            dst=Operand.grf_b(0),
            src0=Operand.grf_b(0),
            src1=Operand.grf_a(1),
        ),
        # MAD's implicit third operand is SRF1 (HBM-PIM's SRF_M)
        PimCommand(
            PimOpcode.MAD,
            dst=Operand.grf_b(0),
            src0=Operand.grf_b(0),
            src1=Operand.srf(0),
        ),
        PimCommand(
            PimOpcode.MOV, dst=Operand.bank(), src0=Operand.grf_b(0)
        ),
    ]
    for t in range(t_count):
        walk = [zero_addr] + layout.addrs(x_base + t * c_count, c_count)
        machine.load_kernel(_reduce_kernel(Operand.grf_b(0), c_count))
        machine.run_kernel(walk)
        sums = machine.read_grfs("grf_b", 0)
        machine.load_kernel(
            _reduce_kernel(Operand.grf_b(1), c_count, square=True)
        )
        machine.run_kernel(walk)
        sumsq = machine.read_grfs("grf_b", 1)
        mean = sums * inv_c
        var = sumsq * inv_c - mean * mean
        invstd = _recip(np.sqrt(var + eps_d))
        machine.write_unit_pages(
            layout.addrs(scratch_base + 2 * t, 2), np.stack([-mean, invstd])
        )
        machine.load_kernel(
            [
                PimCommand(
                    PimOpcode.FILL,
                    dst=Operand.grf_a(0),
                    src0=Operand.bank(),
                ),
                PimCommand(
                    PimOpcode.FILL,
                    dst=Operand.grf_a(1),
                    src0=Operand.bank(),
                ),
                PimCommand(PimOpcode.EXIT),
            ]
        )
        machine.run_kernel(layout.addrs(scratch_base + 2 * t, 2))
        with machine.lockstep() as step:
            for s, (row, col) in enumerate(walk[1:]):
                machine.broadcast_scalars((gamma[s], beta[s]), row, col)
                for command in affine:
                    step(command, row, col)


def _ref_layernorm(
    x_pages: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float,
    np_dtype: np.dtype,
) -> np.ndarray:
    """Reference of :func:`_run_layernorm` on ``(T, C, units, lanes)``."""
    t_count, c_count, units, lanes = x_pages.shape
    inv_c = np_dtype.type(1.0) / np_dtype.type(c_count)
    eps_d = np_dtype.type(eps)
    out = np.empty_like(x_pages)
    for t in range(t_count):
        acc = np.zeros((units, lanes), dtype=np_dtype)
        for s in range(c_count):
            acc = x_pages[t, s] + acc  # ADD: page + GRF
        sums = acc
        acc = np.zeros((units, lanes), dtype=np_dtype)
        for s in range(c_count):
            # MAC: GRF + page * page
            acc = acc + x_pages[t, s] * x_pages[t, s]
        mean = sums * inv_c
        var = acc * inv_c - mean * mean
        invstd = _recip(np.sqrt(var + eps_d))
        negmean = -mean
        for s in range(c_count):
            g = np.full(lanes, gamma[s], dtype=np_dtype)
            b = np.full(lanes, beta[s], dtype=np_dtype)
            t1 = x_pages[t, s] + negmean  # ADD: GRF + negmean page
            t2 = t1 * invstd  # MUL
            out[t, s] = t2 * g + b  # MAD: product, then addend
    return out


def _relu_pass(
    machine: PimExecMachine,
    layout: Layout,
    base: int,
    t_count: int,
    c_count: int,
) -> None:
    """Host ReLU over the pages at ``base`` (READ + WRITE per page)."""
    zero = machine.np_dtype.type(0.0)
    for t in range(t_count):
        pages = _read_tile_pages(machine, layout, base, t, c_count)
        _write_tile_pages(
            machine, layout, base, t, np.maximum(pages, zero)
        )


# ----------------------------------------------------------------------
# host-only twins
# ----------------------------------------------------------------------
def _host_twin(
    layout: Layout,
    read_values: _t.Sequence[int],
    write_values: _t.Sequence[int],
) -> PackedTrace:
    """Host-only request stream: operands one page at a time.

    Each entry of ``read_values``/``write_values`` is one operand's
    value count; its pages spread round-robin over all banks at
    sequential slots (streaming row locality, like the built-in twins).
    """
    steps = []
    slot = 0
    for op, operands in ((Op.READ, read_values), (Op.WRITE, write_values)):
        for values in operands:
            n_pages = -(-values // layout.lanes)
            for first in range(0, n_pages, layout.banks):
                steps.append((op, slot, min(layout.banks, n_pages - first)))
                slot += 1
    return layout.host_twin(steps)


# ----------------------------------------------------------------------
# kernel builders
# ----------------------------------------------------------------------
def _cast(
    values: _t.Optional[np.ndarray],
    shape: _t.Tuple[int, ...],
    np_dtype: np.dtype,
    rng: np.random.Generator,
    scale: float = 0.5,
) -> np.ndarray:
    """Draw (or cast) an operand and round it to the kernel dtype."""
    if values is None:
        values = scale * rng.standard_normal(shape)
    values = np.asarray(values, dtype=np.float64)
    if values.shape != shape:
        raise ValueError(
            f"operand shape {values.shape} != expected {shape}"
        )
    return values.astype(np_dtype)


def _resolve(
    config: _t.Optional[MemSysConfig], dtype: str, bank_groups: bool
) -> _t.Tuple[MemSysConfig, np.dtype, Layout]:
    config = config or MemSysConfig()
    if dtype not in DTYPES:
        raise ValueError(
            f"unknown dtype {dtype!r}; available: {tuple(DTYPES)}"
        )
    return config, DTYPES[dtype], Layout(config, bank_groups)


def gemm_kernel(
    m: _t.Optional[int] = None,
    k: int = 8,
    n: int = 8,
    config: _t.Optional[MemSysConfig] = None,
    dtype: str = "fp16",
    bank_groups: bool = False,
    seed: int = 0,
    a: _t.Optional[np.ndarray] = None,
    b: _t.Optional[np.ndarray] = None,
) -> PimKernel:
    """``C = A @ B`` for ``A (m, k)``, ``B (k, n)``, tiled from GEMV."""
    config, np_dtype, layout = _resolve(config, dtype, bank_groups)
    if m is None:
        m = layout.rows_per_tile
    if m < 1 or k < 1 or n < 1:
        raise ValueError("m, k, and n must all be >= 1")
    rng = np.random.default_rng(seed)
    a_mat = _cast(a, (m, k), np_dtype, rng)
    b_mat = _cast(b, (k, n), np_dtype, rng)
    a_tiles = layout.tiles(a_mat)
    t_count = a_tiles.shape[0]
    a_base, result_base = 0, t_count * k
    zero_slot = result_base + t_count * n
    layout.check_capacity(zero_slot + 1)
    check, output, expected = _result(
        layout, [result_base], t_count, n,
        [_ref_gemm(a_tiles, b_mat, np_dtype)], m,
    )

    def setup(machine: PimExecMachine) -> None:
        _stage_tiles(machine, layout, a_base, a_tiles)

    def execute(machine: PimExecMachine) -> None:
        _run_gemm(
            machine, layout, a_base, t_count, b_mat, result_base,
            zero_slot,
        )
        for t in range(t_count):
            _read_tile_pages(machine, layout, result_base, t, n)

    return PimKernel(
        name="gemm",
        description=f"C = A @ B for ({m}x{k}) @ ({k}x{n}), {dtype}",
        config=config,
        dtype=dtype,
        bank_groups=bank_groups,
        n_values=m * k + k * n,
        flops=2 * m * k * n,
        setup=setup,
        execute=execute,
        check=check,
        output=output,
        expected=expected,
        host_trace=lambda: _host_twin(layout, [m * k, k * n], [m * n]),
    )


def softmax_kernel(
    m: _t.Optional[int] = None,
    c: int = 16,
    config: _t.Optional[MemSysConfig] = None,
    dtype: str = "fp16",
    bank_groups: bool = False,
    seed: int = 0,
    x: _t.Optional[np.ndarray] = None,
) -> PimKernel:
    """Row-wise softmax of ``X (m, c)`` (host max/exp, PIM sum/scale)."""
    config, np_dtype, layout = _resolve(config, dtype, bank_groups)
    if m is None:
        m = layout.rows_per_tile
    if m < 1 or c < 1:
        raise ValueError("m and c must be >= 1")
    rng = np.random.default_rng(seed)
    x_mat = _cast(x, (m, c), np_dtype, rng, scale=1.0)
    x_tiles = layout.tiles(x_mat)
    t_count = x_tiles.shape[0]
    x_base = 0
    scratch_base = t_count * c
    zero_slot = scratch_base + t_count
    layout.check_capacity(zero_slot + 1)
    check, output, expected = _result(
        layout, [x_base], t_count, c, [_ref_softmax(x_tiles)], m
    )

    def setup(machine: PimExecMachine) -> None:
        _stage_tiles(machine, layout, x_base, x_tiles)

    def execute(machine: PimExecMachine) -> None:
        _run_softmax(
            machine, layout, x_base, t_count, c, zero_slot,
            scratch_base,
        )
        for t in range(t_count):
            _read_tile_pages(machine, layout, x_base, t, c)

    return PimKernel(
        name="softmax",
        description=f"row-wise softmax of ({m}x{c}), {dtype}",
        config=config,
        dtype=dtype,
        bank_groups=bank_groups,
        n_values=m * c,
        flops=4 * m * c,
        setup=setup,
        execute=execute,
        check=check,
        output=output,
        expected=expected,
        host_trace=lambda: _host_twin(layout, [m * c], [m * c]),
    )


def layernorm_kernel(
    m: _t.Optional[int] = None,
    c: int = 16,
    config: _t.Optional[MemSysConfig] = None,
    dtype: str = "fp16",
    bank_groups: bool = False,
    seed: int = 0,
    x: _t.Optional[np.ndarray] = None,
    eps: float = 1e-3,
) -> PimKernel:
    """Row-wise LayerNorm of ``X (m, c)`` with learned gamma/beta."""
    config, np_dtype, layout = _resolve(config, dtype, bank_groups)
    if m is None:
        m = layout.rows_per_tile
    if m < 1 or c < 1:
        raise ValueError("m and c must be >= 1")
    rng = np.random.default_rng(seed)
    x_mat = _cast(x, (m, c), np_dtype, rng, scale=1.0)
    gamma = _cast(None, (c,), np_dtype, rng, scale=0.5)
    gamma = gamma + np_dtype.type(1.0)
    beta = _cast(None, (c,), np_dtype, rng, scale=0.25)
    x_tiles = layout.tiles(x_mat)
    t_count = x_tiles.shape[0]
    x_base = 0
    scratch_base = t_count * c
    zero_slot = scratch_base + 2 * t_count
    layout.check_capacity(zero_slot + 1)
    check, output, expected = _result(
        layout, [x_base], t_count, c,
        [_ref_layernorm(x_tiles, gamma, beta, eps, np_dtype)], m,
    )

    def setup(machine: PimExecMachine) -> None:
        _stage_tiles(machine, layout, x_base, x_tiles)

    def execute(machine: PimExecMachine) -> None:
        _run_layernorm(
            machine, layout, x_base, t_count, c, gamma, beta, eps,
            zero_slot, scratch_base,
        )
        for t in range(t_count):
            _read_tile_pages(machine, layout, x_base, t, c)

    return PimKernel(
        name="layernorm",
        description=f"row-wise LayerNorm of ({m}x{c}), {dtype}",
        config=config,
        dtype=dtype,
        bank_groups=bank_groups,
        n_values=m * c + 2 * c,
        flops=8 * m * c,
        setup=setup,
        execute=execute,
        check=check,
        output=output,
        expected=expected,
        host_trace=lambda: _host_twin(layout, [m * c, 2 * c], [m * c]),
    )


def attention_kernel(
    seq_len: _t.Optional[int] = None,
    d_head: int = 4,
    n_heads: int = 2,
    config: _t.Optional[MemSysConfig] = None,
    dtype: str = "fp16",
    bank_groups: bool = False,
    seed: int = 0,
) -> PimKernel:
    """One attention layer: per head ``softmax(QK^T / sqrt(d)) @ V``.

    The three stages chain through bank state: the score pages the
    first GEMM ``MOV``\\ s back are normalized in place by the softmax
    and read back as the second GEMM's ``A`` operand.  ``1/sqrt(d)``
    is folded into ``Q`` at staging (one dtype multiply per element).
    """
    config, np_dtype, layout = _resolve(config, dtype, bank_groups)
    if seq_len is None:
        seq_len = layout.rows_per_tile
    if seq_len < 1 or d_head < 1 or n_heads < 1:
        raise ValueError("seq_len, d_head, and n_heads must be >= 1")
    rng = np.random.default_rng(seed)
    scale = np_dtype.type(1.0 / math.sqrt(d_head))
    q = _cast(None, (n_heads, seq_len, d_head), np_dtype, rng)
    k_mat = _cast(None, (n_heads, seq_len, d_head), np_dtype, rng)
    v = _cast(None, (n_heads, seq_len, d_head), np_dtype, rng)
    q_scaled = q * scale
    q_tiles = [layout.tiles(q_scaled[h]) for h in range(n_heads)]
    t_count = q_tiles[0].shape[0]
    # slot map: per head [q | scores | out | softmax scratch], then zero
    per_head = t_count * (2 * d_head + seq_len) + t_count
    bases = []
    cursor = 0
    for _ in range(n_heads):
        q_base = cursor
        scores_base = q_base + t_count * d_head
        out_base = scores_base + t_count * seq_len
        scratch_base = out_base + t_count * d_head
        bases.append((q_base, scores_base, out_base, scratch_base))
        cursor += per_head
    zero_slot = cursor
    layout.check_capacity(zero_slot + 1)

    expected_pages = []
    for h in range(n_heads):
        scores = _ref_gemm(q_tiles[h], k_mat[h].T, np_dtype)
        # _ref_gemm pages are (T, N, units, lanes): slot-major, the
        # same layout _ref_softmax and the next GEMM's tiles consume
        probs = _ref_softmax(scores)
        expected_pages.append(_ref_gemm(probs, v[h], np_dtype))
    check, output, expected = _result(
        layout, [base[2] for base in bases], t_count, d_head,
        expected_pages, seq_len,
    )

    def setup(machine: PimExecMachine) -> None:
        for h in range(n_heads):
            _stage_tiles(machine, layout, bases[h][0], q_tiles[h])

    def execute(machine: PimExecMachine) -> None:
        for h in range(n_heads):
            q_base, scores_base, out_base, scratch_base = bases[h]
            _run_gemm(
                machine, layout, q_base, t_count, k_mat[h].T,
                scores_base, zero_slot,
            )
            _run_softmax(
                machine, layout, scores_base, t_count, seq_len,
                zero_slot, scratch_base,
            )
            _run_gemm(
                machine, layout, scores_base, t_count, v[h],
                out_base, zero_slot,
            )
            for t in range(t_count):
                _read_tile_pages(machine, layout, out_base, t, d_head)

    d_model = n_heads * d_head
    return PimKernel(
        name="attention",
        description=(
            f"attention layer: seq={seq_len} heads={n_heads} "
            f"d_head={d_head}, {dtype}"
        ),
        config=config,
        dtype=dtype,
        bank_groups=bank_groups,
        n_values=3 * n_heads * seq_len * d_head,
        flops=n_heads * (4 * seq_len * seq_len * d_head
                         + 4 * seq_len * seq_len),
        setup=setup,
        execute=execute,
        check=check,
        output=output,
        expected=expected,
        host_trace=lambda: _host_twin(
            layout,
            [n_heads * seq_len * d_head] * 3,
            [seq_len * d_model],
        ),
    )


def ffn_kernel(
    seq_len: _t.Optional[int] = None,
    d_model: int = 8,
    d_ff: int = 16,
    config: _t.Optional[MemSysConfig] = None,
    dtype: str = "fp16",
    bank_groups: bool = False,
    seed: int = 0,
) -> PimKernel:
    """Feed-forward block ``relu(X @ W1) @ W2`` with a host ReLU pass."""
    config, np_dtype, layout = _resolve(config, dtype, bank_groups)
    if seq_len is None:
        seq_len = layout.rows_per_tile
    if seq_len < 1 or d_model < 1 or d_ff < 1:
        raise ValueError("seq_len, d_model, and d_ff must be >= 1")
    rng = np.random.default_rng(seed)
    x = _cast(None, (seq_len, d_model), np_dtype, rng)
    w1 = _cast(None, (d_model, d_ff), np_dtype, rng)
    w2 = _cast(None, (d_ff, d_model), np_dtype, rng)
    x_tiles = layout.tiles(x)
    t_count = x_tiles.shape[0]
    x_base = 0
    h_base = t_count * d_model
    out_base = h_base + t_count * d_ff
    zero_slot = out_base + t_count * d_model
    layout.check_capacity(zero_slot + 1)

    h_pages = _ref_gemm(x_tiles, w1, np_dtype)
    relu_pages = np.maximum(h_pages, np_dtype.type(0.0))
    check, output, expected = _result(
        layout, [out_base], t_count, d_model,
        [_ref_gemm(relu_pages, w2, np_dtype)], seq_len,
    )

    def setup(machine: PimExecMachine) -> None:
        _stage_tiles(machine, layout, x_base, x_tiles)

    def execute(machine: PimExecMachine) -> None:
        _run_gemm(
            machine, layout, x_base, t_count, w1, h_base, zero_slot
        )
        _relu_pass(machine, layout, h_base, t_count, d_ff)
        _run_gemm(
            machine, layout, h_base, t_count, w2, out_base, zero_slot
        )
        for t in range(t_count):
            _read_tile_pages(machine, layout, out_base, t, d_model)

    return PimKernel(
        name="ffn",
        description=(
            f"FFN relu(X @ W1) @ W2: seq={seq_len} d={d_model} "
            f"d_ff={d_ff}, {dtype}"
        ),
        config=config,
        dtype=dtype,
        bank_groups=bank_groups,
        n_values=seq_len * d_model + 2 * d_model * d_ff,
        flops=4 * seq_len * d_model * d_ff,
        setup=setup,
        execute=execute,
        check=check,
        output=output,
        expected=expected,
        host_trace=lambda: _host_twin(
            layout,
            [seq_len * d_model, 2 * d_model * d_ff],
            [seq_len * d_model],
        ),
    )


#: Kernel registry for the CLI / experiment / benchmark.
NN_KERNEL_NAMES = ("gemm", "softmax", "layernorm", "attention", "ffn")

_BUILDERS: _t.Dict[str, _t.Callable[..., PimKernel]] = {
    "gemm": gemm_kernel,
    "softmax": softmax_kernel,
    "layernorm": layernorm_kernel,
    "attention": attention_kernel,
    "ffn": ffn_kernel,
}


def build_nn_kernel(name: str, **kwargs: _t.Any) -> PimKernel:
    """Build a named transformer kernel (see :data:`NN_KERNEL_NAMES`)."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown nn kernel {name!r}; available: {NN_KERNEL_NAMES}"
        ) from None
    return builder(**kwargs)
