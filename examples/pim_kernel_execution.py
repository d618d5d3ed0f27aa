"""Executing a PIM kernel inside the banks, step by step.

This walkthrough builds the machinery of :mod:`repro.pimexec` by hand —
no prebuilt kernel — so every moving part is visible:

1. lay a vector out across the banks with a :class:`~repro.pimexec.Layout`,
   one page per bank per *slot*, and stage it in one whole-machine write;
2. download a three-command microkernel into each channel's CRF;
3. run it: every dynamic instruction is one all-bank column access
   through the banked memory system, so the kernel's execution time
   pays real activations and page transfers;
4. read back the per-bank GRF accumulators and compare, bit for bit,
   against NumPy;
5. replay the host-only twin of the same computation and compare
   execution times — the paper's "compute where the data lives"
   argument, measured rather than derived.

Run with ``PYTHONPATH=src python examples/pim_kernel_execution.py``.
"""

import numpy as np

from repro.memsys import MemSysConfig, MemorySystem, Op
from repro.pimexec import (
    Layout,
    Operand,
    PimCommand,
    PimExecMachine,
    PimOpcode,
)

# ----------------------------------------------------------------------
# 1. a machine and a data layout
# ----------------------------------------------------------------------
config = MemSysConfig()  # 2 channels x 4 banks, paper timing
machine = PimExecMachine(config)
layout = Layout(config)  # where every value sits: lane, unit, slot

N = 2048
rng = np.random.default_rng(42)
x = rng.standard_normal(N)
# a vector is a one-column matrix: pages[slot][unit][lane]
pages = layout.tiles(x[:, None])[:, 0]
slots = pages.shape[0]
walk = layout.addrs(0, slots)  # (row, col) of every slot

print(f"machine: {machine!r}")
print(
    f"layout:  {N} values -> {slots} slots x {layout.units} banks x "
    f"{layout.lanes} lanes"
)

machine.write_unit_pages(walk, pages)  # one page per unit per slot
machine.reset_requests()  # data staging is not part of kernel time

# ----------------------------------------------------------------------
# 2. the microkernel: GRF_B0 += page, looped over all slots
# ----------------------------------------------------------------------
kernel = [
    PimCommand(
        PimOpcode.ADD,
        dst=Operand.grf_b(0),
        src0=Operand.bank(),      # the page of the triggering access
        src1=Operand.grf_b(0),
    ),
    PimCommand(PimOpcode.JUMP, target=0, count=slots - 1),
    PimCommand(PimOpcode.EXIT),
]
machine.load_kernel(kernel)  # broadcast into every channel's CRF

# ----------------------------------------------------------------------
# 3. run: one all-bank column access per dynamic instruction
# ----------------------------------------------------------------------
executed = machine.run_kernel(walk)
partials = machine.read_grfs("grf_b", 0)  # one AB read per unit
pim = machine.replay()
print(
    f"kernel:  {executed} all-bank instructions -> "
    f"{pim.n_requests} requests "
    f"(pim={pim.n_pim} broadcast={pim.n_broadcast})"
)

# ----------------------------------------------------------------------
# 4. bit-exact check against NumPy
# ----------------------------------------------------------------------
reference = np.zeros((layout.units, layout.lanes))
for s in range(slots):
    reference = pages[s] + reference  # the ADD's operand order
bit_exact = np.array_equal(partials, reference)
total = float(reference.sum())
print(f"result:  sum = {total:.6f}, numpy says {x.sum():.6f}")
print(f"bank GRF contents bit-exact vs NumPy: {bit_exact}")
assert bit_exact

# ----------------------------------------------------------------------
# 5. the host-only twin: one page per request over the host interface
# ----------------------------------------------------------------------
host_trace = layout.host_twin((Op.READ, s, layout.banks) for s in range(slots))
host = MemorySystem(config).replay(host_trace)
print(
    f"timing:  host-only {host.makespan_ns:.0f} ns vs "
    f"PIM {pim.makespan_ns:.0f} ns -> "
    f"speedup {host.makespan_ns / pim.makespan_ns:.2f}x"
)
