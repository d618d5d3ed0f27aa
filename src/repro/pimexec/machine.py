"""The executable PIM machine: execution units over the memory system.

:class:`PimExecMachine` backs every execution unit with one
:class:`~repro.pimexec.regfile.VectorUnitArray` over a
:class:`~repro.memsys.MemSysConfig` geometry and one
:class:`~repro.pimexec.sequencer.CommandSequencer` per channel, and
plays host: every host-side action (bank writes, register broadcasts,
CRF loads, kernel column walks) both mutates the functional state and
appends the memory request the action costs to one packed log.
:meth:`replay` then runs the accumulated request stream through a fresh
:class:`~repro.memsys.MemorySystem`, so kernel time is measured by the
same banked controllers, address map, and row-buffer state machines as
any other trace — PIM kernel cycles pay real activation, page-access,
and queueing costs.

Execution modes
---------------
* ``bank_groups=False`` (default): one execution unit per bank — the
  full-width all-bank mode of PR 3.
* ``bank_groups=True``: *half-bank lockstep groups* in the HBM-PIM
  mold — one execution unit per even/odd bank **pair**, so a channel
  has ``banks_per_channel // 2`` units and each all-bank column access
  drives half as many vector lanes.  ``Operand.unit`` (the ``BANK,u``
  selector of the trace dialect) picks the even (0) or odd (1) bank of
  a pair.  The *timing difference is surfaced by construction*: the
  same kernel needs twice the dynamic instructions (and therefore twice
  the all-bank column accesses) to touch the same data, which the
  replayed request stream prices through the normal controllers.

Arithmetic dtype
----------------
``dtype="fp64"`` (default) keeps the idealized float64 model;
``dtype="fp16"`` computes in IEEE binary16 (NumPy ``float16``) with
per-operation round-to-nearest-even — see
:mod:`repro.pimexec.regfile` and ``docs/nn.md``.

Request vocabulary (see :class:`repro.memsys.request.Op`):

* ``READ``/``WRITE`` — host single-bank transactions (data staging,
  result collection);
* ``AB`` — all-bank register/command accesses (CRF microcode words,
  SRF/GRF broadcasts, GRF readback): one column access on the channel,
  no row-buffer interaction;
* ``PIM`` — one all-bank column access per dynamic kernel instruction,
  executing one CRF slot in every unit of the channel in lockstep.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import typing as _t

import numpy as np

from ..errors import TraceFormatError
from ..memsys import (
    MemSysConfig,
    MemorySystem,
    MemSysStats,
    Op,
    PackedTrace,
)
from ..memsys.request import OPS_BY_CODE
from .commands import GRF_REGS, PimCommand, PimExecError, SRF_REGS
from .regfile import DTYPES, UnitView, VectorUnitArray
from .sequencer import CommandSequencer

if _t.TYPE_CHECKING:  # pragma: no cover
    from .. import telemetry as _te

__all__ = [
    "PimExecMachine",
    "PimExecResult",
    "page_encoder",
]

#: Packed request-log columns: op code, channel, flat bank, row, col.
LogColumns = _t.Tuple[
    _t.List[int], _t.List[int], _t.List[int], _t.List[int], _t.List[int]
]


def _empty_log() -> LogColumns:
    return ([], [], [], [], [])


#: Chunk kinds of the request log, by their code in the packing mask.
_CHUNK_KINDS = ("flat", "block", "trace")

#: Hardware lane width in bits: HBM-PIM computes on 16-bit words.
LANE_BITS = 16


def page_encoder(
    config: MemSysConfig,
) -> _t.Callable[[int, int, int, int], int]:
    """``(channel, flat_bank, row, col) -> byte address`` for a geometry.

    The single flat-bank-to-coordinates convention shared by the
    machine and the kernel host-trace builders (one cached
    :class:`~repro.memsys.AddressMap`, so per-request encoding costs no
    map construction).
    """
    encode_fields = config.address_map().scalar_encoder()
    per_group = config.banks_per_group

    def encode(channel: int, flat_bank: int, row: int, col: int) -> int:
        return encode_fields(
            channel, flat_bank // per_group, flat_bank % per_group, row, col
        )

    return encode


@dataclasses.dataclass
class PimExecResult:
    """Outcome of replaying a machine's request stream.

    Attributes
    ----------
    stats:
        The full :class:`~repro.memsys.MemSysStats` of the replay.
    engine:
        Which replay engine/tier served it.
    n_requests, n_pim, n_broadcast, n_host:
        Request mix of the replayed stream.
    """

    stats: MemSysStats
    engine: _t.Optional[str]
    n_requests: int
    n_pim: int
    n_broadcast: int
    n_host: int

    @property
    def makespan_ns(self) -> float:
        return self.stats.makespan_ns


class PimExecMachine:
    """PIM execution units over a banked memory system.

    Parameters
    ----------
    config:
        Memory-system geometry/timing/policy (paper defaults if
        omitted).  The page width fixes the vector lane count:
        ``page_bits // 16`` 16-bit hardware lanes.
    dtype:
        Arithmetic dtype: ``"fp64"`` (default, idealized) or
        ``"fp16"`` (IEEE binary16 rounding per operation).
    bank_groups:
        ``False`` (default): one execution unit per bank.  ``True``:
        half-bank lockstep groups — one unit per even/odd bank pair
        (requires an even ``banks_per_channel``), with ``Operand.unit``
        selecting the pair's even or odd bank.

    Every unit lives in one :attr:`array`
    (:class:`~repro.pimexec.regfile.VectorUnitArray`), which executes a
    lockstep command across all selected units in single NumPy ops;
    :attr:`units` are per-unit :class:`~repro.pimexec.regfile.UnitView`
    windows onto it.

    Every host action appends its requests to one packed log, never to
    request objects: flat columns for host actions, lockstep blocks
    for PIM steps, and already-encoded streams from
    :meth:`append_trace`.  :meth:`trace` returns the log as one
    :class:`~repro.memsys.PackedTrace`; :meth:`replay` times it;
    :meth:`reset_requests` clears it.
    """

    def __init__(
        self,
        config: _t.Optional[MemSysConfig] = None,
        dtype: str = "fp64",
        bank_groups: bool = False,
    ) -> None:
        self.config = config or MemSysConfig()
        if dtype not in DTYPES:
            raise PimExecError(
                f"unknown dtype {dtype!r}; available: {tuple(DTYPES)}"
            )
        self.dtype = dtype
        self.np_dtype = DTYPES[dtype]
        self.bank_groups = bool(bank_groups)
        self.ports = 2 if self.bank_groups else 1
        if self.config.banks_per_channel % self.ports:
            raise PimExecError(
                "bank-group mode pairs even/odd banks; "
                f"banks_per_channel={self.config.banks_per_channel} "
                "is not even"
            )
        self.lanes = self.config.timing.page_bits // LANE_BITS
        if self.lanes < 1:
            raise ValueError(
                f"page_bits={self.config.timing.page_bits} too narrow "
                f"for {LANE_BITS}-bit lanes"
            )
        self.addr_map = self.config.address_map()
        self.array = VectorUnitArray(
            self.config.n_channels,
            self.units_per_channel,
            self.lanes,
            dtype=self.dtype,
            ports=self.ports,
        )
        self.units: _t.List[_t.List[UnitView]] = [
            [
                UnitView(self.array, ch, index)
                for index in range(self.units_per_channel)
            ]
            for ch in range(self.config.n_channels)
        ]
        self.sequencers = [
            CommandSequencer()
            for _ in range(self.config.n_channels)
        ]
        #: (channel, flat bank) of each unit's port-0 bank, unit order:
        #: the request targets of whole-machine host actions.
        self._unit_channels = [ch for ch, _, _ in self.iter_units()]
        self._unit_banks = [i * self.ports for _, i, _ in self.iter_units()]
        self._encode = page_encoder(self.config)
        # The accumulated request stream (see :meth:`trace`): closed
        # chunks — ("flat", op, ch, bank, row, col columns),
        # ("block", targets, rows, cols) lockstep blocks with one entry
        # per dynamic instruction, or ("trace", PackedTrace) streams
        # appended already encoded — plus the open flat tail ``_log``.
        self._chunks: _t.List[tuple] = []
        self._log = _empty_log()
        self._count = 0

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    @property
    def n_channels(self) -> int:
        return self.config.n_channels

    @property
    def banks_per_channel(self) -> int:
        return self.config.banks_per_channel

    @property
    def units_per_channel(self) -> int:
        """Execution units per channel (half the banks in group mode)."""
        return self.config.banks_per_channel // self.ports

    @property
    def total_units(self) -> int:
        return self.n_channels * self.units_per_channel

    def unit(self, channel: int, index: int) -> UnitView:
        """The ``index``-th execution unit of ``channel``.

        With ``bank_groups=False`` unit indices coincide with flat bank
        indices; in group mode unit ``k`` serves banks ``2k`` (even
        port 0) and ``2k + 1`` (odd port 1).
        """
        return self.units[channel][index]

    def unit_for_bank(
        self, channel: int, flat_bank: int
    ) -> _t.Tuple[UnitView, int]:
        """``(unit, port)`` serving ``flat_bank`` of ``channel``."""
        return (
            self.units[channel][flat_bank // self.ports],
            flat_bank % self.ports,
        )

    def iter_units(
        self,
    ) -> _t.Iterator[_t.Tuple[int, int, UnitView]]:
        """Yield ``(channel, unit_index, unit)`` in address order."""
        for ch, row in enumerate(self.units):
            for index, unit in enumerate(row):
                yield ch, index, unit

    def encode(
        self, channel: int, flat_bank: int, row: int, col: int
    ) -> int:
        """Byte address of a page, from flat in-channel bank index."""
        return self._encode(channel, flat_bank, row, col)

    # ------------------------------------------------------------------
    # the request log
    # ------------------------------------------------------------------
    @property
    def n_requests(self) -> int:
        """Accumulated request count."""
        return self._count

    def _iter_chunks(self) -> _t.Iterator[tuple]:
        """Closed chunks plus the open flat tail, in stream order."""
        yield from self._chunks
        if self._log[0]:
            yield ("flat",) + self._log

    def _close_log(self) -> None:
        """Close the open flat tail into a chunk, if it holds any."""
        if self._log[0]:
            self._chunks.append(("flat",) + self._log)
            self._log = _empty_log()

    def append_trace(self, trace: PackedTrace) -> None:
        """Append an already-encoded request stream to the log.

        The requests keep ``trace``'s addresses and, if it has them,
        its timestamps.  A log whose requests all come from timed
        traces replays timestamped; see :meth:`trace`.
        """
        self._close_log()
        self._chunks.append(("trace", trace))
        self._count += len(trace)

    def _push_step(
        self, targets: _t.Tuple[int, ...], row: int, col: int
    ) -> None:
        """Append one lockstep step: a PIM request per target channel.

        Extends the last chunk when it is a block over the same
        targets with no other request after it; otherwise opens one.
        """
        self._close_log()
        chunks = self._chunks
        if not (
            chunks and chunks[-1][0] == "block" and chunks[-1][1] == targets
        ):
            chunks.append(("block", targets, [], []))
        chunks[-1][2].append(row)
        chunks[-1][3].append(col)
        self._count += len(targets)

    def _emit_many(
        self,
        op: Op,
        channels: _t.Sequence[int],
        banks: _t.Sequence[int],
        addrs: _t.Sequence[_t.Tuple[int, int]],
    ) -> None:
        """One ``op`` request per ``(channel, bank)`` pair, per address.

        Address-major, pair-minor: the order of a per-address loop over
        the pairs.
        """
        n = len(channels)
        ops_l, ch_l, bank_l, row_l, col_l = self._log
        ops_l.extend([op.code] * (n * len(addrs)))
        for row, col in addrs:
            ch_l.extend(channels)
            bank_l.extend(banks)
            row_l.extend([row] * n)
            col_l.extend([col] * n)
        self._count += n * len(addrs)

    def _emit(
        self, op: Op, channel: int, flat_bank: int, row: int, col: int
    ) -> None:
        ops_l, ch_l, bank_l, row_l, col_l = self._log
        ops_l.append(op.code)
        ch_l.append(channel)
        bank_l.append(flat_bank)
        row_l.append(row)
        col_l.append(col)
        self._count += 1

    def _channels(
        self, channels: _t.Optional[_t.Sequence[int]]
    ) -> _t.List[int]:
        return (
            list(range(self.n_channels))
            if channels is None
            else list(channels)
        )

    # ------------------------------------------------------------------
    # host-side actions (functional effect + request cost)
    # ------------------------------------------------------------------
    def write_bank(
        self,
        channel: int,
        flat_bank: int,
        row: int,
        col: int,
        values: _t.Sequence[float],
    ) -> None:
        """Host write of one page into one bank."""
        unit, port = self.unit_for_bank(channel, flat_bank)
        unit.store_page(row, col, values, port)
        self._emit(Op.WRITE, channel, flat_bank, row, col)

    def read_bank(
        self, channel: int, flat_bank: int, row: int, col: int
    ) -> np.ndarray:
        """Host read of one page from one bank."""
        self._emit(Op.READ, channel, flat_bank, row, col)
        unit, port = self.unit_for_bank(channel, flat_bank)
        return unit.load_page(row, col, port)

    def broadcast_scalar(
        self,
        channel: int,
        index: int,
        value: float,
        row: int = 0,
        col: int = 0,
    ) -> None:
        """AB-mode write of ``SRF[index]`` in every unit of a channel.

        ``row``/``col`` only shape the broadcast's address (useful to
        keep it adjacent to the kernel's next data access); AB requests
        never touch row buffers.  The value rounds to the machine's
        dtype on assignment (saturating to ``inf``).
        """
        if not 0 <= index < SRF_REGS:
            raise PimExecError(
                f"SRF index {index} out of range [0, {SRF_REGS})"
            )
        with np.errstate(over="ignore"):  # saturates to inf
            self.array.srf[channel, :, index] = float(value)
        self._emit(Op.AB, channel, 0, row, col)

    def broadcast_page(
        self,
        channel: int,
        space: str,
        index: int,
        values: _t.Sequence[float],
        row: int = 0,
        col: int = 0,
    ) -> None:
        """AB-mode write of one GRF register in every unit of a channel."""
        if not 0 <= index < GRF_REGS:
            raise PimExecError(
                f"GRF index {index} out of range [0, {GRF_REGS})"
            )
        with np.errstate(over="ignore"):  # saturates to inf
            page = np.asarray(values, dtype=self.np_dtype)
        if page.shape != (self.lanes,):
            raise PimExecError(
                f"broadcast page must have {self.lanes} lanes, got "
                f"shape {page.shape}"
            )
        if space not in ("grf_a", "grf_b"):
            raise PimExecError(
                f"broadcast space must be grf_a/grf_b, got {space!r}"
            )
        getattr(self.array, space)[channel, :, index] = page
        self._emit(Op.AB, channel, 0, row, col)

    def read_grf(
        self, channel: int, unit_index: int, space: str, index: int
    ) -> np.ndarray:
        """Read back one GRF register (an AB-mode column access)."""
        if not 0 <= index < GRF_REGS:
            raise PimExecError(
                f"GRF index {index} out of range [0, {GRF_REGS})"
            )
        unit = self.unit(channel, unit_index)
        if space == "grf_a":
            value = unit.grf_a[index]
        elif space == "grf_b":
            value = unit.grf_b[index]
        else:
            raise PimExecError(
                f"read_grf space must be grf_a/grf_b, got {space!r}"
            )
        self._emit(Op.AB, channel, unit_index * self.ports, 0, 0)
        return value.copy()

    # ------------------------------------------------------------------
    # whole-machine host actions (every unit of every channel)
    # ------------------------------------------------------------------
    def write_unit_pages(
        self,
        addrs: _t.Sequence[_t.Tuple[int, int]],
        pages: np.ndarray,
    ) -> None:
        """Host writes of one page into every unit at each address.

        ``pages`` is ``(len(addrs), total_units, lanes)``, units in
        address order; each page goes to its unit's port-0 bank (the
        even bank of a pair in bank-group mode).  Same state and the
        same requests, in the same order, as :meth:`write_bank` per
        address, per unit.
        """
        pages = np.asarray(pages)
        shape = (len(addrs), self.total_units, self.lanes)
        if pages.shape != shape:
            raise PimExecError(
                f"unit pages must have shape {shape}, got {pages.shape}"
            )
        for (row, col), unit_pages in zip(addrs, pages):
            self.array.store_pages(
                row,
                col,
                unit_pages.reshape(
                    self.n_channels, self.units_per_channel, self.lanes
                ),
            )
        self._emit_many(
            Op.WRITE, self._unit_channels, self._unit_banks, addrs
        )

    def read_unit_pages(
        self, addrs: _t.Sequence[_t.Tuple[int, int]]
    ) -> np.ndarray:
        """Host reads of every unit's page at each address.

        Returns ``(len(addrs), total_units, lanes)``; the batched
        :meth:`read_bank` of :meth:`write_unit_pages`.
        """
        self._emit_many(
            Op.READ, self._unit_channels, self._unit_banks, addrs
        )
        pages = [self.array.load_pages(row, col) for row, col in addrs]
        return np.array(pages, dtype=self.np_dtype).reshape(
            len(addrs), self.total_units, self.lanes
        )

    def read_grfs(self, space: str, index: int) -> np.ndarray:
        """Read back one GRF register of every unit -> (units, lanes).

        The batched :meth:`read_grf`, one AB request per unit.
        """
        if space not in ("grf_a", "grf_b") or not 0 <= index < GRF_REGS:
            raise PimExecError(
                f"read_grfs needs grf_a/grf_b and an index in "
                f"[0, {GRF_REGS}), got {space!r}, {index}"
            )
        self._emit_many(
            Op.AB, self._unit_channels, self._unit_banks, [(0, 0)]
        )
        return np.array(getattr(self.array, space)[:, :, index]).reshape(
            self.total_units, self.lanes
        )

    def broadcast_scalars(
        self, values: _t.Sequence[float], row: int = 0, col: int = 0
    ) -> None:
        """AB writes of ``SRF[i] = values[i]`` in every unit.

        The batched :meth:`broadcast_scalar`: for each register in
        turn, one AB request per channel, in channel order.
        """
        values = np.asarray(values)
        n = len(values)
        if n > SRF_REGS:
            raise PimExecError(
                f"{n} SRF values exceed the {SRF_REGS} registers"
            )
        if values.dtype != self.np_dtype:
            with np.errstate(over="ignore"):  # saturates to inf
                values = values.astype(self.np_dtype)
        self.array.srf[:, :, :n] = values
        self._emit_many(
            Op.AB,
            list(range(self.n_channels)) * n,
            [0] * (self.n_channels * n),
            [(row, col)],
        )

    @contextlib.contextmanager
    def lockstep(
        self, channels: _t.Optional[_t.Sequence[int]] = None
    ) -> _t.Iterator[_t.Callable[[PimCommand, int, int], None]]:
        """Host-sequenced PIM steps across channels in lockstep.

        Yields ``step(command, row, col)``: execute ``command`` in every
        unit of each channel (default: all, each listed once) at
        ``(row, col)`` and append one PIM request per channel, in
        channel order — what :meth:`pim_step` per channel does.  A step
        is one cached :meth:`VectorUnitArray.compiled` closure per
        selection (one for the whole machine), the block runs under one
        ``np.errstate``, ``commands_executed`` is added once on exit,
        and the requests go to a lockstep block chunk.
        """
        targets = tuple(self._channels(channels))
        array = self.array
        whole = sorted(targets) == list(range(self.n_channels))
        sels = ((),) if whole else tuple((ch,) for ch in targets)
        compiled = array.compiled
        push = self._push_step
        n_steps = 0

        def step(command: PimCommand, row: int, col: int) -> None:
            nonlocal n_steps
            for sel in sels:
                compiled(command, sel)(row, col)
            push(targets, row, col)
            n_steps += 1

        try:
            with np.errstate(over="ignore", invalid="ignore"):
                yield step
        finally:
            for sel in sels:
                array.commands_executed[sel] += n_steps

    def load_kernel(
        self,
        commands: _t.Sequence[PimCommand],
        channels: _t.Optional[_t.Sequence[int]] = None,
    ) -> None:
        """Broadcast a microkernel into the CRF of each channel.

        Costs one AB register write per CRF slot per channel (the
        microcode download HBM-PIM performs before every kernel).
        """
        commands = list(commands)
        for channel in self._channels(channels):
            self.sequencers[channel].load(commands)
            for _ in commands:
                self._emit(Op.AB, channel, 0, 0, 0)

    # ------------------------------------------------------------------
    # kernel execution
    # ------------------------------------------------------------------
    def _step(
        self, channel: int, command: PimCommand, row: int, col: int
    ) -> None:
        self.array.execute(command, row, col, (channel,))
        self._emit(Op.PIM, channel, 0, row, col)

    def pim_step(
        self, channel: int, command: PimCommand, row: int, col: int
    ) -> None:
        """Execute one command in every unit of ``channel`` at (row, col).

        The single-step escape hatch for host-sequenced kernels (e.g.
        GEMV, which re-broadcasts an SRF scalar between steps); looped
        kernels go through :meth:`load_kernel` + :meth:`run_kernel`.
        """
        if command.is_control:
            raise PimExecError(
                f"{command.opcode.value} is sequencer control, not a "
                "bank operation"
            )
        self._step(channel, command, row, col)

    def run_kernel(
        self,
        walk: _t.Union[
            _t.Sequence[_t.Tuple[int, int]],
            _t.Mapping[int, _t.Sequence[_t.Tuple[int, int]]],
        ],
        channels: _t.Optional[_t.Sequence[int]] = None,
    ) -> int:
        """Run the loaded CRF kernel to ``EXIT`` on each channel.

        ``walk`` is the column-access schedule: one ``(row, col)``
        sequence shared by every channel, or a per-channel mapping.
        Channels advance round-robin, one dynamic instruction each, so
        their all-bank request streams interleave and the memory system
        serves them concurrently.  Returns the total number of dynamic
        instructions executed (all channels).

        When every target channel holds the same CRF program and walks
        the same column schedule (the lockstep case every built-in
        looped kernel hits), the machine drives *one*
        sequencer and executes each dynamic instruction across all
        target channels in a single array op — the round-robin request
        interleaving and all sequencer counters are reproduced exactly.
        """
        targets = self._channels(channels)
        if (
            len(targets) > 1
            and len(set(targets)) == len(targets)
            and not isinstance(walk, _t.Mapping)
            and self._lockstep_programs(targets)
        ):
            return self._run_kernel_lockstep(walk, targets)
        if isinstance(walk, _t.Mapping):
            walks = {ch: walk[ch] for ch in targets}
        else:
            walks = {ch: walk for ch in targets}
        steppers = {
            ch: self.sequencers[ch].run(walks[ch]) for ch in targets
        }
        executed = 0
        active = list(targets)
        while active:
            still_running = []
            for channel in active:
                step = next(steppers[channel], None)
                if step is None:
                    continue
                command, row, col = step
                self._step(channel, command, row, col)
                executed += 1
                still_running.append(channel)
            active = still_running
        return executed

    def _lockstep_programs(self, targets: _t.Sequence[int]) -> bool:
        """Do all target channels hold the same loaded CRF program?"""
        first = self.sequencers[targets[0]].crf
        if not first:
            return False
        return all(
            self.sequencers[ch].crf == first for ch in targets[1:]
        )

    def _run_kernel_lockstep(
        self,
        walk: _t.Sequence[_t.Tuple[int, int]],
        targets: _t.List[int],
    ) -> int:
        """Drive one sequencer; execute each step across all targets.

        Every channel would yield the identical dynamic-instruction
        sequence (same CRF, same walk), so one generator stands in for
        all of them, feeding :meth:`lockstep`, which appends the same
        round-robin request pattern (channel-major within each step)
        the generic loop produces.  Sequencer counters of the
        non-driven channels are mirrored from the driver's, even on
        error.
        """
        driver = self.sequencers[targets[0]]
        before_instr = driver.instructions
        before_ctl = driver.control_steps
        executed = 0
        try:
            with self.lockstep(targets) as step:
                for command, row, col in driver.run(walk):
                    step(command, row, col)
                    executed += len(targets)
        finally:
            for channel in targets[1:]:
                sequencer = self.sequencers[channel]
                sequencer.instructions += driver.instructions - before_instr
                sequencer.control_steps += (
                    driver.control_steps - before_ctl
                )
        return executed

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------
    def _encode_columns(
        self,
        channels: np.ndarray,
        banks: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
    ) -> np.ndarray:
        """Byte addresses of (channel, flat bank, row, col) columns, in
        one vectorized pass."""
        per_group = self.config.banks_per_group
        return self.addr_map.encode_fields(
            {
                "channel": channels,
                "bankgroup": banks // per_group,
                "bank": banks % per_group,
                "row": rows,
                "column": cols,
            }
        )

    def _pack_columns(
        self,
    ) -> _t.Tuple[np.ndarray, np.ndarray, _t.Optional[np.ndarray]]:
        """The log as (op code, address, timestamp) arrays.

        Each chunk kind packs in one pass: flat chunks concatenate and
        encode their columns; lockstep blocks expand vectorized, each
        recorded step fanning out to one PIM request per target
        channel, channel-major within the step (exactly the round-robin
        order the generic execution loop appends); appended traces are
        already encoded.  One kind mask per request then interleaves
        the three back into stream order, so the cost does not grow
        with the number of chunks.  Timestamps exist only when every
        request comes from a timed trace.
        """
        flat: _t.Tuple[list, list, list, list, list] = ([], [], [], [], [])
        blocks, traces = [], []
        kinds, sizes = [], []
        for chunk in self._iter_chunks():
            kind = chunk[0]
            if kind == "flat":
                for column, values in zip(flat, chunk[1:]):
                    column.extend(values)
                sizes.append(len(chunk[1]))
            elif kind == "block":
                blocks.append(chunk)
                sizes.append(len(chunk[1]) * len(chunk[2]))
            else:
                traces.append(chunk[1])
                sizes.append(len(chunk[1]))
            kinds.append(_CHUNK_KINDS.index(kind))
        parts = {}
        if flat[0]:
            parts[0] = (
                np.array(flat[0], dtype=np.uint8),
                self._encode_columns(
                    *(np.array(column, dtype=np.int64) for column in flat[1:])
                ),
            )
        if blocks:
            addrs = self._block_addrs(blocks)
            parts[1] = (np.full(addrs.shape, Op.PIM.code, np.uint8), addrs)
        times = None
        if traces:
            parts[2] = (
                np.concatenate([t.op_codes for t in traces]),
                np.concatenate([t.addrs for t in traces]),
            )
            timed = [t.times for t in traces if t.times is not None]
            n_timed = sum(len(t) for t in timed)
            if n_timed and n_timed != self._count:
                raise TraceFormatError(
                    f"the request log mixes {self._count - n_timed} "
                    f"untimestamped requests with {n_timed} timestamped "
                    "ones; call reset_requests() after untimed staging "
                    "and before appending a timestamped stream"
                )
            if n_timed:
                times = np.concatenate(timed)
        if len(parts) == 1:
            op_codes, addrs = next(iter(parts.values()))
            return op_codes, addrs, times
        request_kind = np.repeat(np.array(kinds, dtype=np.int8), sizes)
        op_codes = np.empty(request_kind.shape[0], dtype=np.uint8)
        addrs = np.empty(request_kind.shape[0], dtype=np.int64)
        for code, (part_ops, part_addrs) in parts.items():
            mask = request_kind == code
            op_codes[mask] = part_ops
            addrs[mask] = part_addrs
        return op_codes, addrs, times

    def _block_addrs(self, blocks: _t.List[tuple]) -> np.ndarray:
        """Addresses of the PIM requests of lockstep ``blocks``, in
        stream order."""
        # per step: its target count and the offset of its block's
        # targets in one concatenated table; per request: its lane
        # (position among the step's targets)
        n_targets = [len(chunk[1]) for chunk in blocks]
        n_steps = [len(chunk[2]) for chunk in blocks]
        step_nt = np.repeat(n_targets, n_steps)
        step_first = np.repeat(np.cumsum(n_targets) - n_targets, n_steps)
        lane = np.arange(step_nt.sum()) - np.repeat(
            np.cumsum(step_nt) - step_nt, step_nt
        )
        table = np.array(
            list(itertools.chain.from_iterable(c[1] for c in blocks)),
            dtype=np.int64,
        )
        rows, cols = (
            np.repeat(
                np.array(
                    list(itertools.chain.from_iterable(c[i] for c in blocks)),
                    dtype=np.int64,
                ),
                step_nt,
            )
            for i in (2, 3)
        )
        channels = table[np.repeat(step_first, step_nt) + lane]
        return self._encode_columns(
            channels, np.zeros_like(channels), rows, cols
        )

    def trace(self) -> PackedTrace:
        """The accumulated request stream as one
        :class:`~repro.memsys.PackedTrace`.

        Timestamped only when every request came from a timed
        :meth:`append_trace` stream (e.g. a timestamped
        :class:`~repro.pimexec.program.PimProgram`).

        Raises
        ------
        TraceFormatError
            If timed and untimed requests mix in the log, naming the
            untimed count: clear untimed staging requests with
            :meth:`reset_requests` first.
        """
        return PackedTrace(*self._pack_columns())

    def reset_requests(self) -> None:
        """Drop the accumulated request stream (e.g. after data load)."""
        self._chunks = []
        self._log = _empty_log()
        self._count = 0

    def replay(
        self, telemetry: _t.Optional["_te.ReplayTelemetry"] = None
    ) -> PimExecResult:
        """Replay the accumulated stream through a fresh MemorySystem.

        The stream goes out as one :meth:`trace` (addresses encoded in
        one vectorized pass, no request objects).  ``telemetry`` is
        threaded through to :meth:`~repro.memsys.MemorySystem.replay`,
        so per-request latency recording and phase profiling cover the
        AB-barrier stream exactly as they cover plain traces.
        """
        if self._count == 0:
            raise PimExecError("no requests accumulated to replay")
        trace = self.trace()
        counts = np.bincount(trace.op_codes, minlength=len(OPS_BY_CODE))
        system = MemorySystem(self.config)
        stats = system.replay(trace, telemetry=telemetry)
        return PimExecResult(
            stats=stats,
            engine=system.last_replay_engine,
            n_requests=len(trace),
            n_pim=int(counts[Op.PIM.code]),
            n_broadcast=int(counts[Op.AB.code]),
            n_host=int(counts[Op.READ.code] + counts[Op.WRITE.code]),
        )

    def sequencer_stats(self) -> _t.List[_t.Dict[str, int]]:
        """Per-channel sequencer counters (see
        :meth:`CommandSequencer.stats`), in channel order."""
        return [sequencer.stats() for sequencer in self.sequencers]

    def __repr__(self) -> str:
        mode = "bank-group" if self.bank_groups else "per-bank"
        return (
            f"<PimExecMachine {self.n_channels}ch x "
            f"{self.units_per_channel}units ({mode}, {self.dtype}) "
            f"lanes={self.lanes} requests={self.n_requests}>"
        )
