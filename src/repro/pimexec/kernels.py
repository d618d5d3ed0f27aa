"""Built-in PIM kernels: data layout, microkernel, and references.

Each builder returns a :class:`PimKernel` — the PIM analogue of
:class:`repro.isa.programs.KernelBinary`: closures that stage input
data into the banks, execute the kernel on a
:class:`~repro.pimexec.machine.PimExecMachine`, verify the machine's
register/bank state **bit-exactly** against a NumPy reference that
performs the same float64 operations in the same order, and produce
the equivalent *host-only* request stream (every operand moved one
page at a time over the host interface) for the host-vs-PIM timing
comparison of ``exp_pimexec``.

Data layout
-----------
Vectors are paged: ``lanes`` values per page, page ``p`` assigned
round-robin to execution unit ``p % units`` at *slot* ``p // units``,
and slot ``s`` lives at ``(row, col) = (s // pages_per_row,
s % pages_per_row)``.  All banks of a channel therefore hold their
slot-``s`` page at the same address — exactly what all-bank lockstep
execution requires.

Kernels
-------
``vector-sum``
    ``sum(x)``: each bank streams its pages into a GRF accumulator
    (``ADD GRF_B0, BANK, GRF_B0`` under a ``JUMP`` loop), the host
    reads back and reduces the per-bank partials.
``axpy``
    ``y = a*x + y``: ``FILL`` x and y pages into GRFs, ``MAC`` with the
    broadcast scalar ``a`` in SRF0, ``MOV`` the result back to the
    bank — the read-modify-write streaming kernel.
``gemv``
    ``y = A @ x``: matrix rows striped across banks (one output row
    per lane), the host broadcasts ``x[j]`` into SRF0 and triggers one
    all-bank ``MAC`` per column — the HBM-PIM GEMV recipe, a *mixed*
    host+PIM command stream.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np

from ..memsys import MemRequest, MemSysConfig, MemorySystem, MemSysStats, Op
from .commands import Operand, PimCommand, PimOpcode
from .machine import PimExecMachine, PimExecResult, page_encoder as _encoder

__all__ = [
    "PimKernel",
    "KernelComparison",
    "KERNEL_NAMES",
    "build_kernel",
    "vector_sum_kernel",
    "axpy_kernel",
    "gemv_kernel",
    "compare_host_pim",
]


@dataclasses.dataclass
class PimKernel:
    """A runnable PIM kernel with references and a host-only twin."""

    name: str
    description: str
    config: MemSysConfig
    n_values: int
    flops: int
    setup: _t.Callable[[PimExecMachine], None]
    execute: _t.Callable[[PimExecMachine], None]
    check: _t.Callable[[PimExecMachine], bool]
    result: _t.Callable[[PimExecMachine], float]
    expected: float
    host_trace: _t.Callable[[], _t.List[MemRequest]]


@dataclasses.dataclass
class KernelComparison:
    """Host-only vs PIM-mode execution of one kernel."""

    kernel: str
    correct: bool
    result: float
    expected: float
    pim: PimExecResult
    host: MemSysStats
    #: The machine that executed the PIM stream (sequencer counters
    #: for telemetry); ``None`` only for hand-built comparisons.
    machine: _t.Optional[PimExecMachine] = None

    @property
    def speedup(self) -> float:
        """Host-only over PIM-mode execution time."""
        return self.host.makespan_ns / self.pim.makespan_ns

    def row(self) -> dict:
        """Flat table row for reports."""
        return {
            "kernel": self.kernel,
            "host_ns": self.host.makespan_ns,
            "pim_ns": self.pim.makespan_ns,
            "speedup": self.speedup,
            "pim_requests": self.pim.n_requests,
            "host_requests": self.host.n_requests,
            "correct": self.correct,
        }


# ----------------------------------------------------------------------
# layout helpers
# ----------------------------------------------------------------------
def _geometry(config: MemSysConfig) -> _t.Tuple[int, int, int]:
    """(lanes, units, pages_per_row) of a geometry."""
    from .machine import LANE_BITS

    lanes = config.timing.page_bits // LANE_BITS
    units = config.n_channels * config.banks_per_channel
    return lanes, units, config.timing.pages_per_row


def _slot_addr(slot: int, pages_per_row: int) -> _t.Tuple[int, int]:
    return slot // pages_per_row, slot % pages_per_row


def _check_capacity(slots: int, config: MemSysConfig) -> None:
    capacity = config.rows_per_bank * config.timing.pages_per_row
    if slots > capacity:
        raise ValueError(
            f"kernel needs {slots} slots per bank; geometry holds "
            f"{capacity}"
        )


def _paged(
    values: np.ndarray, lanes: int, units: int
) -> _t.Tuple[np.ndarray, int]:
    """Zero-pad and reshape to (slots, units, lanes)."""
    granule = lanes * units
    padded = int(-(-values.shape[0] // granule)) * granule
    data = np.zeros(padded)
    data[: values.shape[0]] = values
    slots = padded // granule
    return data.reshape(slots, units, lanes), slots


def _unit_coords(
    unit: int, config: MemSysConfig
) -> _t.Tuple[int, int]:
    """(channel, flat_bank) of global unit index ``unit``."""
    per_channel = config.banks_per_channel
    return unit // per_channel, unit % per_channel


# ----------------------------------------------------------------------
# vector sum
# ----------------------------------------------------------------------
def vector_sum_kernel(
    n: int = 4096,
    config: _t.Optional[MemSysConfig] = None,
    seed: int = 0,
    values: _t.Optional[np.ndarray] = None,
) -> PimKernel:
    """``sum(x)`` over ``n`` values (or an explicit ``values`` array)."""
    config = config or MemSysConfig()
    lanes, units, ppr = _geometry(config)
    if values is None:
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
    else:
        x = np.asarray(values, dtype=np.float64).ravel()
        n = x.shape[0]
    if n < 1:
        raise ValueError("n must be >= 1")
    pages, slots = _paged(x, lanes, units)
    _check_capacity(slots, config)

    # per-unit reference: the same float64 adds in the same order as
    # ADD GRF_B0 <- BANK + GRF_B0 (result = page + accumulator)
    reference = np.zeros((units, lanes))
    for s in range(slots):
        reference = pages[s] + reference
    expected = float(reference.sum())

    def setup(machine: PimExecMachine) -> None:
        for s in range(slots):
            row, col = _slot_addr(s, ppr)
            for u in range(units):
                ch, bank = _unit_coords(u, config)
                machine.write_bank(ch, bank, row, col, pages[s, u])

    def execute(machine: PimExecMachine) -> None:
        machine.load_kernel(
            [
                PimCommand(
                    PimOpcode.ADD,
                    dst=Operand.grf_b(0),
                    src0=Operand.bank(),
                    src1=Operand.grf_b(0),
                ),
                PimCommand(PimOpcode.JUMP, target=0, count=slots - 1),
                PimCommand(PimOpcode.EXIT),
            ]
        )
        machine.run_kernel(
            [_slot_addr(s, ppr) for s in range(slots)]
        )
        for u in range(units):
            ch, bank = _unit_coords(u, config)
            machine.read_grf(ch, bank, "grf_b", 0)

    def check(machine: PimExecMachine) -> bool:
        return all(
            np.array_equal(
                machine.unit(*_unit_coords(u, config)).grf_b[0],
                reference[u],
            )
            for u in range(units)
        )

    def result(machine: PimExecMachine) -> float:
        partials = np.stack(
            [
                machine.unit(*_unit_coords(u, config)).grf_b[0]
                for u in range(units)
            ]
        )
        return float(partials.sum())

    def host_trace() -> _t.List[MemRequest]:
        encode = _encoder(config)
        requests = []
        for s in range(slots):
            row, col = _slot_addr(s, ppr)
            for u in range(units):
                ch, bank = _unit_coords(u, config)
                requests.append(
                    MemRequest(Op.READ, encode(ch, bank, row, col))
                )
        return requests

    return PimKernel(
        name="vector-sum",
        description=f"sum of a {n}-element vector",
        config=config,
        n_values=n,
        flops=n,
        setup=setup,
        execute=execute,
        check=check,
        result=result,
        expected=expected,
        host_trace=host_trace,
    )




# ----------------------------------------------------------------------
# AXPY
# ----------------------------------------------------------------------
def axpy_kernel(
    n: int = 4096,
    a: float = 1.5,
    config: _t.Optional[MemSysConfig] = None,
    seed: int = 0,
) -> PimKernel:
    """``y = a*x + y`` over ``n``-element vectors."""
    config = config or MemSysConfig()
    lanes, units, ppr = _geometry(config)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    x_pages, slots = _paged(x, lanes, units)
    y_pages, _ = _paged(y, lanes, units)
    _check_capacity(2 * slots, config)
    a_lanes = np.full(lanes, float(a))

    # reference matches MAC exactly: dst + src0*src1 with dst = y page
    # (FILLed into GRF_B0), src0 = x page (GRF_A0), src1 = SRF0 lanes
    reference = np.empty_like(y_pages)
    for s in range(slots):
        reference[s] = y_pages[s] + x_pages[s] * a_lanes

    def x_addr(s: int) -> _t.Tuple[int, int]:
        return _slot_addr(s, ppr)

    def y_addr(s: int) -> _t.Tuple[int, int]:
        return _slot_addr(slots + s, ppr)

    def setup(machine: PimExecMachine) -> None:
        for s in range(slots):
            for u in range(units):
                ch, bank = _unit_coords(u, config)
                machine.write_bank(ch, bank, *x_addr(s), x_pages[s, u])
                machine.write_bank(ch, bank, *y_addr(s), y_pages[s, u])

    def execute(machine: PimExecMachine) -> None:
        for ch in range(config.n_channels):
            machine.broadcast_scalar(ch, 0, a, *x_addr(0))
        machine.load_kernel(
            [
                PimCommand(
                    PimOpcode.FILL,
                    dst=Operand.grf_a(0),
                    src0=Operand.bank(),
                ),
                PimCommand(
                    PimOpcode.FILL,
                    dst=Operand.grf_b(0),
                    src0=Operand.bank(),
                ),
                PimCommand(
                    PimOpcode.MAC,
                    dst=Operand.grf_b(0),
                    src0=Operand.grf_a(0),
                    src1=Operand.srf(0),
                ),
                PimCommand(
                    PimOpcode.MOV,
                    dst=Operand.bank(),
                    src0=Operand.grf_b(0),
                ),
                PimCommand(PimOpcode.JUMP, target=0, count=slots - 1),
                PimCommand(PimOpcode.EXIT),
            ]
        )
        walk = []
        for s in range(slots):
            walk.extend([x_addr(s), y_addr(s), y_addr(s)])
        machine.run_kernel(walk)

    def check(machine: PimExecMachine) -> bool:
        return all(
            np.array_equal(
                machine.unit(*_unit_coords(u, config)).load_page(
                    *y_addr(s)
                ),
                reference[s, u],
            )
            for s in range(slots)
            for u in range(units)
        )

    def result(machine: PimExecMachine) -> float:
        total = 0.0
        for s in range(slots):
            for u in range(units):
                ch, bank = _unit_coords(u, config)
                total += float(
                    machine.unit(ch, bank).load_page(*y_addr(s)).sum()
                )
        return total

    def host_trace() -> _t.List[MemRequest]:
        encode = _encoder(config)
        requests = []
        for s in range(slots):
            for u in range(units):
                ch, bank = _unit_coords(u, config)
                requests.append(
                    MemRequest(Op.READ, encode(ch, bank, *x_addr(s)))
                )
            for u in range(units):
                ch, bank = _unit_coords(u, config)
                requests.append(
                    MemRequest(Op.READ, encode(ch, bank, *y_addr(s)))
                )
            for u in range(units):
                ch, bank = _unit_coords(u, config)
                requests.append(
                    MemRequest(Op.WRITE, encode(ch, bank, *y_addr(s)))
                )
        return requests

    return PimKernel(
        name="axpy",
        description=f"y = {a}*x + y over {n}-element vectors",
        config=config,
        n_values=2 * n,
        flops=2 * n,
        setup=setup,
        execute=execute,
        check=check,
        result=result,
        expected=float(reference.sum()),
        host_trace=host_trace,
    )


# ----------------------------------------------------------------------
# GEMV
# ----------------------------------------------------------------------
def gemv_kernel(
    n_cols: int = 64,
    config: _t.Optional[MemSysConfig] = None,
    seed: int = 0,
) -> PimKernel:
    """``y = A @ x`` with one output row per lane per bank.

    ``A`` is ``(lanes * units) x n_cols``: unit ``u`` stores rows
    ``[u*lanes, (u+1)*lanes)``, column ``j`` at slot ``j``.  The host
    broadcasts ``x[j]`` into SRF0 and triggers one all-bank ``MAC``
    per column — a mixed host+PIM command stream.
    """
    config = config or MemSysConfig()
    lanes, units, ppr = _geometry(config)
    if n_cols < 1:
        raise ValueError("n_cols must be >= 1")
    # the host-only twin also stages x (ceil(n_cols/lanes) pages) and
    # the y result page beyond the matrix slots
    _check_capacity(n_cols + -(-n_cols // lanes) + 1, config)
    m = lanes * units
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((m, n_cols))
    x = rng.standard_normal(n_cols)
    # pages[j][u] = A[u*lanes:(u+1)*lanes, j]
    pages = matrix.reshape(units, lanes, n_cols)

    reference = np.zeros((units, lanes))
    for j in range(n_cols):
        reference = reference + pages[:, :, j] * np.full(lanes, x[j])
    expected = float(reference.sum())

    mac = PimCommand(
        PimOpcode.MAC,
        dst=Operand.grf_b(0),
        src0=Operand.bank(),
        src1=Operand.srf(0),
    )

    def setup(machine: PimExecMachine) -> None:
        for j in range(n_cols):
            row, col = _slot_addr(j, ppr)
            for u in range(units):
                ch, bank = _unit_coords(u, config)
                machine.write_bank(ch, bank, row, col, pages[u, :, j])

    def execute(machine: PimExecMachine) -> None:
        # host-sequenced: the CRF holds the MAC microkernel; the host
        # interleaves SRF broadcasts of x[j] with the column walk
        machine.load_kernel(
            [mac, PimCommand(PimOpcode.EXIT)]
        )
        for j in range(n_cols):
            row, col = _slot_addr(j, ppr)
            for ch in range(config.n_channels):
                machine.broadcast_scalar(ch, 0, x[j], row, col)
            for ch in range(config.n_channels):
                machine.pim_step(ch, mac, row, col)
        for u in range(units):
            ch, bank = _unit_coords(u, config)
            machine.read_grf(ch, bank, "grf_b", 0)

    def check(machine: PimExecMachine) -> bool:
        return all(
            np.array_equal(
                machine.unit(*_unit_coords(u, config)).grf_b[0],
                reference[u],
            )
            for u in range(units)
        )

    def result(machine: PimExecMachine) -> float:
        return float(
            np.stack(
                [
                    machine.unit(*_unit_coords(u, config)).grf_b[0]
                    for u in range(units)
                ]
            ).sum()
        )

    def host_trace() -> _t.List[MemRequest]:
        encode = _encoder(config)
        requests = []
        # x pages live beyond the matrix slots
        x_slots = -(-n_cols // lanes)
        for p in range(x_slots):
            requests.append(
                MemRequest(
                    Op.READ,
                    encode(0, 0, *_slot_addr(n_cols + p, ppr)),
                )
            )
        for j in range(n_cols):
            row, col = _slot_addr(j, ppr)
            for u in range(units):
                ch, bank = _unit_coords(u, config)
                requests.append(
                    MemRequest(Op.READ, encode(ch, bank, row, col))
                )
        # y: one result page per unit
        for u in range(units):
            ch, bank = _unit_coords(u, config)
            requests.append(
                MemRequest(
                    Op.WRITE,
                    encode(ch, bank, *_slot_addr(n_cols + x_slots, ppr)),
                )
            )
        return requests

    return PimKernel(
        name="gemv",
        description=f"y = A @ x for a {m}x{n_cols} matrix",
        config=config,
        n_values=m * n_cols + n_cols,
        flops=2 * m * n_cols,
        setup=setup,
        execute=execute,
        check=check,
        result=result,
        expected=expected,
        host_trace=host_trace,
    )


#: Kernel registry for the CLI / experiment / benchmark.
KERNEL_NAMES = ("vector-sum", "axpy", "gemv")

_BUILDERS: _t.Dict[str, _t.Callable[..., PimKernel]] = {
    "vector-sum": vector_sum_kernel,
    "axpy": axpy_kernel,
    "gemv": gemv_kernel,
}


def build_kernel(
    name: str,
    config: _t.Optional[MemSysConfig] = None,
    seed: int = 0,
    **kwargs: _t.Any,
) -> PimKernel:
    """Build a named kernel (see :data:`KERNEL_NAMES`)."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; available: {KERNEL_NAMES}"
        ) from None
    return builder(config=config, seed=seed, **kwargs)


def compare_host_pim(
    kernel: PimKernel,
    telemetry: _t.Optional[_t.Any] = None,
    host_telemetry: _t.Optional[_t.Any] = None,
) -> KernelComparison:
    """Execute ``kernel`` in PIM mode and replay its host-only twin.

    The data-staging phase is untimed (both systems start with data
    resident); the timed PIM stream covers kernel download, broadcasts,
    all-bank execution, and result readback.  ``telemetry`` (a
    :class:`~repro.telemetry.ReplayTelemetry`) instruments the **PIM**
    replay — the stream whose AB barriers and queueing the timeline
    renders; ``host_telemetry`` instruments the host-only twin (for
    side-by-side energy accounting), which otherwise replays
    uninstrumented.
    """
    machine = PimExecMachine(kernel.config)
    kernel.setup(machine)
    machine.reset_requests()
    kernel.execute(machine)
    pim = machine.replay(telemetry=telemetry)
    host = MemorySystem(kernel.config).replay(
        kernel.host_trace(), telemetry=host_telemetry
    )
    return KernelComparison(
        kernel=kernel.name,
        correct=kernel.check(machine),
        result=kernel.result(machine),
        expected=kernel.expected,
        pim=pim,
        host=host,
        machine=machine,
    )
