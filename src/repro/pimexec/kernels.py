"""Built-in PIM kernels: microkernels, references, and host twins.

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
See :class:`~repro.pimexec.layout.Layout`, the one description of
where every page sits (a vector is a one-column row-striped matrix).

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

from ..memsys import MemSysConfig, MemorySystem, MemSysStats, Op, PackedTrace
from .commands import Operand, PimCommand, PimOpcode
from .layout import Layout
from .machine import PimExecMachine, PimExecResult

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
    """A runnable PIM kernel with references and a host-only twin.

    One container for both kernel families: the builders here output
    a float64 scalar, the :mod:`repro.nn` builders a matrix in the
    kernel's own dtype and execution mode.
    """

    name: str
    description: str
    config: MemSysConfig
    n_values: int
    flops: int
    setup: _t.Callable[[PimExecMachine], None]
    execute: _t.Callable[[PimExecMachine], None]
    check: _t.Callable[[PimExecMachine], bool]
    output: _t.Callable[[PimExecMachine], _t.Any]
    #: The dtype-exact NumPy reference of :attr:`output`.
    expected: _t.Any
    #: The host-only twin, built by :meth:`Layout.host_twin`.
    host_trace: _t.Callable[[], PackedTrace]
    dtype: str = "fp64"
    bank_groups: bool = False

    def machine(self) -> PimExecMachine:
        """A fresh machine in this kernel's dtype and execution mode."""
        return PimExecMachine(
            self.config, dtype=self.dtype, bank_groups=self.bank_groups
        )


@dataclasses.dataclass
class KernelComparison:
    """Host-only vs PIM-mode execution of one kernel."""

    kernel: str
    dtype: str
    bank_groups: bool
    correct: bool
    output: _t.Any
    expected: _t.Any
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
            "dtype": self.dtype,
            "bank_groups": self.bank_groups,
            "host_ns": self.host.makespan_ns,
            "pim_ns": self.pim.makespan_ns,
            "speedup": self.speedup,
            "pim_requests": self.pim.n_requests,
            "host_requests": self.host.n_requests,
            "correct": self.correct,
        }


# ----------------------------------------------------------------------
# vector sum
# ----------------------------------------------------------------------
def _grf_partials(machine: PimExecMachine) -> np.ndarray:
    """Request-free peek at every unit's GRF_B0 -> ``(units, lanes)``."""
    return machine.array.grf_b[:, :, 0].reshape(-1, machine.lanes)


def vector_sum_kernel(
    n: int = 4096,
    config: _t.Optional[MemSysConfig] = None,
    seed: int = 0,
    values: _t.Optional[np.ndarray] = None,
) -> PimKernel:
    """``sum(x)`` over ``n`` values (or an explicit ``values`` array)."""
    config = config or MemSysConfig()
    layout = Layout(config)
    if values is None:
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
    else:
        x = np.asarray(values, dtype=np.float64).ravel()
        n = x.shape[0]
    if n < 1:
        raise ValueError("n must be >= 1")
    pages = layout.tiles(x[:, None])[:, 0]
    slots = pages.shape[0]
    layout.check_capacity(slots)
    walk = layout.addrs(0, slots)

    # per-unit reference: the same float64 adds in the same order as
    # ADD GRF_B0 <- BANK + GRF_B0 (result = page + accumulator)
    reference = np.zeros((layout.units, layout.lanes))
    for s in range(slots):
        reference = pages[s] + reference

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
        machine.run_kernel(walk)
        machine.read_grfs("grf_b", 0)

    return PimKernel(
        name="vector-sum",
        description=f"sum of a {n}-element vector",
        config=config,
        n_values=n,
        flops=n,
        setup=lambda machine: machine.write_unit_pages(walk, pages),
        execute=execute,
        check=lambda machine: np.array_equal(
            _grf_partials(machine), reference
        ),
        output=lambda machine: float(_grf_partials(machine).sum()),
        expected=float(reference.sum()),
        host_trace=lambda: layout.host_twin(
            (Op.READ, s, layout.banks) for s in range(slots)
        ),
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
    layout = Layout(config)
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    x_pages = layout.tiles(x[:, None])[:, 0]
    y_pages = layout.tiles(y[:, None])[:, 0]
    slots = x_pages.shape[0]
    layout.check_capacity(2 * slots)
    a_lanes = np.full(layout.lanes, float(a))

    # reference matches MAC exactly: dst + src0*src1 with dst = y page
    # (FILLed into GRF_B0), src0 = x page (GRF_A0), src1 = SRF0 lanes
    reference = y_pages + x_pages * a_lanes

    def setup(machine: PimExecMachine) -> None:
        # x and y pages alternate per unit: no whole-machine write
        # keeps this staging order
        for s in range(slots):
            for u in range(layout.units):
                ch, bank = layout.unit_bank(u)
                machine.write_bank(
                    ch, bank, *layout.slot_addr(s), x_pages[s, u]
                )
                machine.write_bank(
                    ch, bank, *layout.slot_addr(slots + s), y_pages[s, u]
                )

    def execute(machine: PimExecMachine) -> None:
        machine.broadcast_scalars([a], *layout.slot_addr(0))
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
            y_addr = layout.slot_addr(slots + s)
            walk.extend([layout.slot_addr(s), y_addr, y_addr])
        machine.run_kernel(walk)

    def output(machine: PimExecMachine) -> float:
        pages = layout.pages(machine, slots, slots)
        return sum(float(p.sum()) for p in pages.reshape(-1, layout.lanes))

    return PimKernel(
        name="axpy",
        description=f"y = {a}*x + y over {n}-element vectors",
        config=config,
        n_values=2 * n,
        flops=2 * n,
        setup=setup,
        execute=execute,
        check=lambda machine: np.array_equal(
            layout.pages(machine, slots, slots), reference
        ),
        output=output,
        expected=float(reference.sum()),
        host_trace=lambda: layout.host_twin(
            (op, slot, layout.banks)
            for s in range(slots)
            for op, slot in (
                (Op.READ, s), (Op.READ, slots + s), (Op.WRITE, slots + s)
            )
        ),
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

    ``A`` is one ``(lanes * units) x n_cols`` tile: unit ``u`` stores
    rows ``[u*lanes, (u+1)*lanes)``, column ``j`` at slot ``j``.  The
    host broadcasts ``x[j]`` into SRF0 and triggers one all-bank
    ``MAC`` per column — a mixed host+PIM command stream.
    """
    config = config or MemSysConfig()
    layout = Layout(config)
    if n_cols < 1:
        raise ValueError("n_cols must be >= 1")
    # the host-only twin also stages x (ceil(n_cols/lanes) pages) and
    # the y result page beyond the matrix slots
    x_slots = -(-n_cols // layout.lanes)
    layout.check_capacity(n_cols + x_slots + 1)
    m = layout.rows_per_tile
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((m, n_cols))
    x = rng.standard_normal(n_cols)
    # pages[j][u] = A[u*lanes:(u+1)*lanes, j]
    pages = layout.tiles(matrix)[0]
    walk = layout.addrs(0, n_cols)

    reference = np.zeros((layout.units, layout.lanes))
    for j in range(n_cols):
        reference = reference + pages[j] * np.full(layout.lanes, x[j])

    mac = PimCommand(
        PimOpcode.MAC,
        dst=Operand.grf_b(0),
        src0=Operand.bank(),
        src1=Operand.srf(0),
    )

    def execute(machine: PimExecMachine) -> None:
        # host-sequenced: the CRF holds the MAC microkernel; the host
        # interleaves SRF broadcasts of x[j] with the column walk
        machine.load_kernel([mac, PimCommand(PimOpcode.EXIT)])
        with machine.lockstep() as step:
            for value, (row, col) in zip(x, walk):
                machine.broadcast_scalars([value], row, col)
                step(mac, row, col)
        machine.read_grfs("grf_b", 0)

    return PimKernel(
        name="gemv",
        description=f"y = A @ x for a {m}x{n_cols} matrix",
        config=config,
        n_values=m * n_cols + n_cols,
        flops=2 * m * n_cols,
        setup=lambda machine: machine.write_unit_pages(walk, pages),
        execute=execute,
        check=lambda machine: np.array_equal(
            _grf_partials(machine), reference
        ),
        output=lambda machine: float(_grf_partials(machine).sum()),
        expected=float(reference.sum()),
        # x pages on the first bank beyond the matrix, the matrix, then
        # one y result page per bank
        host_trace=lambda: layout.host_twin(
            [(Op.READ, n_cols + p, 1) for p in range(x_slots)]
            + [(Op.READ, j, layout.banks) for j in range(n_cols)]
            + [(Op.WRITE, n_cols + x_slots, layout.banks)]
        ),
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
    all-bank execution, host passes over intermediates, and result
    readback.  ``telemetry`` (a
    :class:`~repro.telemetry.ReplayTelemetry`) instruments the **PIM**
    replay — the stream whose AB barriers and queueing the timeline
    renders; ``host_telemetry`` instruments the host-only twin (for
    side-by-side energy accounting), which otherwise replays
    uninstrumented.
    """
    machine = kernel.machine()
    kernel.setup(machine)
    machine.reset_requests()
    kernel.execute(machine)
    pim = machine.replay(telemetry=telemetry)
    host = MemorySystem(kernel.config).replay(
        kernel.host_trace(), telemetry=host_telemetry
    )
    return KernelComparison(
        kernel=kernel.name,
        dtype=kernel.dtype,
        bank_groups=kernel.bank_groups,
        correct=kernel.check(machine),
        output=kernel.output(machine),
        expected=kernel.expected,
        pim=pim,
        host=host,
        machine=machine,
    )
