"""The executable PIM machine: execution units over the memory system.

:class:`PimExecMachine` backs every execution unit with one
:class:`~repro.pimexec.regfile.VectorUnitArray` over a
:class:`~repro.memsys.MemSysConfig` geometry and one
:class:`~repro.pimexec.sequencer.CommandSequencer` per channel, and
plays host: every host-side action (bank writes, register broadcasts,
CRF loads, kernel column walks) both mutates the functional state and
appends the memory requests the action costs to one request log.
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

Request log
-----------
The log is one list of *fan-out steps* ``(op code, fan-out, row,
col)``.  A fan-out is an interned tuple of ``(channel, flat bank)``
targets, and a step stands for one request per target, in target
order, all at ``(row, col)``: a single-bank host action is a
one-target step, a whole-machine host action one step per address over
every unit, and a lockstep PIM step one step over ``(channel, 0)`` per
target channel.  A step costs four list appends whatever its width.
:meth:`~PimExecMachine.append_trace` and :meth:`~PimExecMachine.trace`
encode the open steps in one vectorized pass (expand each step by its
width, gather its targets, encode the addresses), so closed chunks are
always encoded ``(op codes, addresses, timestamps)`` triples.
"""

from __future__ import annotations

import contextlib
import dataclasses
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

#: A fan-out: the ``(channel, flat bank)`` targets of one log step.
FanOut = _t.Tuple[_t.Tuple[int, int], ...]

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

    Every host action and every PIM step appends fan-out steps to one
    request log, never request objects (see the module docstring);
    :meth:`append_trace` adds already-encoded streams.  :meth:`trace`
    returns the log as one :class:`~repro.memsys.PackedTrace`;
    :meth:`replay` times it; :meth:`reset_requests` clears it.
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
        #: the fan-out of whole-machine host actions.
        self._unit_targets: FanOut = tuple(
            (ch, index * self.ports) for ch, index, _ in self.iter_units()
        )
        #: The fan-out of one request per channel, in channel order.
        self._channel_targets: FanOut = tuple(
            (ch, 0) for ch in range(self.n_channels)
        )
        self._encode = page_encoder(self.config)
        # The request log (see the module docstring): interned fan-outs
        # by id, with their widths and their concatenated targets as a
        # channel row over a bank row; the open steps as op code /
        # fan-out id / row / col columns (cleared in place, never
        # rebound, so a running lockstep block keeps appending to
        # them); and the closed (op codes, addrs, times) chunks.
        self._fanouts: _t.Dict[FanOut, int] = {}
        self._fan_widths: _t.List[int] = []
        self._fan_table: _t.Tuple[_t.List[int], _t.List[int]] = ([], [])
        self._steps: _t.Tuple[_t.List[int], ...] = ([], [], [], [])
        self._chunks: _t.List[
            _t.Tuple[np.ndarray, np.ndarray, _t.Optional[np.ndarray]]
        ] = []
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

    def _fanout(self, targets: FanOut) -> int:
        """The id of fan-out ``targets``, interning it on first use."""
        fan = self._fanouts.get(targets)
        if fan is None:
            fan = self._fanouts[targets] = len(self._fanouts)
            self._fan_widths.append(len(targets))
            for column, values in zip(self._fan_table, zip(*targets)):
                column.extend(values)
        return fan

    def _emit(
        self, op: Op, channel: int, flat_bank: int, row: int, col: int
    ) -> None:
        """One ``op`` request: a one-target step."""
        ops, fans, rows, cols = self._steps
        ops.append(op.code)
        fans.append(self._fanout(((channel, flat_bank),)))
        rows.append(row)
        cols.append(col)
        self._count += 1

    def _emit_many(
        self,
        op: Op,
        targets: FanOut,
        addrs: _t.Sequence[_t.Tuple[int, int]],
    ) -> None:
        """One step over ``targets`` per address: one ``op`` request
        per target per address, address-major."""
        fan = self._fanout(targets)
        ops, fans, rows, cols = self._steps
        for row, col in addrs:
            ops.append(op.code)
            fans.append(fan)
            rows.append(row)
            cols.append(col)
        self._count += len(targets) * len(addrs)

    def _close_steps(self) -> None:
        """Encode the open steps into one closed chunk, in one
        vectorized pass: each step repeats by its fan-out's width and
        gathers its targets from the concatenated fan-out table."""
        ops, fans, rows, cols = self._steps
        if not ops:
            return
        widths = np.array(self._fan_widths)
        table = np.array(self._fan_table)
        fan = np.array(fans)
        width = widths[fan]
        # each request's column in the table: its fan-out's first
        # target plus its position within its step
        first = (np.cumsum(widths) - widths)[fan] - (np.cumsum(width) - width)
        channels, banks = np.take(
            table, np.repeat(first, width) + np.arange(width.sum()), axis=1
        )
        per_group = self.config.banks_per_group
        addrs = self.addr_map.encode_fields(
            {
                "channel": channels,
                "bankgroup": banks // per_group,
                "bank": banks % per_group,
                "row": np.repeat(rows, width),
                "column": np.repeat(cols, width),
            }
        )
        op_codes = np.repeat(np.array(ops, dtype=np.uint8), width)
        self._chunks.append((op_codes, addrs, None))
        for column in self._steps:
            column.clear()

    def append_trace(self, trace: PackedTrace) -> None:
        """Append an already-encoded request stream to the log.

        The requests keep ``trace``'s addresses and, if it has them,
        its timestamps.  A log whose requests all come from timed
        traces replays timestamped; see :meth:`trace`.
        """
        self._close_steps()
        self._chunks.append((trace.op_codes, trace.addrs, trace.times))
        self._count += len(trace)

    def _channels(
        self, channels: _t.Optional[_t.Sequence[int]]
    ) -> _t.Tuple[int, ...]:
        """The selected channels (default: all), each checked once."""
        if channels is None:
            return tuple(range(self.n_channels))
        targets = tuple(channels)
        if not targets:
            raise PimExecError("no channels selected")
        for channel in targets:
            if not 0 <= channel < self.n_channels:
                raise PimExecError(
                    f"channel {channel} out of range "
                    f"[0, {self.n_channels})"
                )
        if len(set(targets)) != len(targets):
            twice = next(ch for ch in targets if targets.count(ch) > 1)
            raise PimExecError(
                f"channel {twice} selected more than once in "
                f"{list(targets)}"
            )
        return targets

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
        self._emit_many(Op.WRITE, self._unit_targets, addrs)

    def read_unit_pages(
        self, addrs: _t.Sequence[_t.Tuple[int, int]]
    ) -> np.ndarray:
        """Host reads of every unit's page at each address.

        Returns ``(len(addrs), total_units, lanes)``; the batched
        :meth:`read_bank` of :meth:`write_unit_pages`.
        """
        self._emit_many(Op.READ, self._unit_targets, addrs)
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
        self._emit_many(Op.AB, self._unit_targets, [(0, 0)])
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
        self._emit_many(Op.AB, self._channel_targets, [(row, col)] * n)

    @contextlib.contextmanager
    def lockstep(
        self, channels: _t.Optional[_t.Sequence[int]] = None
    ) -> _t.Iterator[_t.Callable[[PimCommand, int, int], None]]:
        """Host-sequenced PIM steps across channels in lockstep.

        Yields ``step(command, row, col)``: execute ``command`` in every
        unit of each selected channel (default: all; each at most once,
        and in range) at ``(row, col)`` and append one log step over
        ``(channel, 0)`` per selected channel — one PIM request per
        channel, in selection order.  A step is one cached
        :meth:`VectorUnitArray.compiled` closure per selection (one for
        the whole machine), the block runs under one ``np.errstate``,
        and ``commands_executed`` is added once on exit.
        """
        targets = self._channels(channels)
        array = self.array
        sels = (
            ((),)
            if len(targets) == self.n_channels
            else tuple((ch,) for ch in targets)
        )
        compiled = array.compiled
        fan = self._fanout(tuple((ch, 0) for ch in targets))
        ops, fans, rows, cols = (column.append for column in self._steps)
        pim, width = Op.PIM.code, len(targets)
        n_steps = 0

        def step(command: PimCommand, row: int, col: int) -> None:
            nonlocal n_steps
            for sel in sels:
                compiled(command, sel)(row, col)
            ops(pim)
            fans(fan)
            rows(row)
            cols(col)
            n_steps += 1
            self._count += width

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
            self._emit_many(
                Op.AB, ((channel, 0),), [(0, 0)] * len(commands)
            )

    # ------------------------------------------------------------------
    # kernel execution
    # ------------------------------------------------------------------
    def pim_step(
        self, channel: int, command: PimCommand, row: int, col: int
    ) -> None:
        """Execute one command in every unit of ``channel`` at (row, col).

        One :meth:`lockstep` step on ``channel``: the single-step escape
        hatch for host-sequenced kernels (e.g. GEMV, which
        re-broadcasts an SRF scalar between steps); looped kernels go
        through :meth:`load_kernel` + :meth:`run_kernel`.
        """
        with self.lockstep((channel,)) as step:
            step(command, row, col)

    def run_kernel(
        self,
        walk: _t.Iterable[_t.Tuple[int, int]],
        channels: _t.Optional[_t.Sequence[int]] = None,
    ) -> int:
        """Run the loaded CRF kernel to ``EXIT`` on each channel, in
        lockstep.

        ``walk`` is the column-access schedule, one ``(row, col)``
        sequence every target channel walks.  The first target's
        sequencer drives the kernel and each dynamic instruction runs
        as one :meth:`lockstep` step across all targets, so the
        channels' all-bank requests interleave round-robin, one per
        channel per instruction, and the memory system serves them
        concurrently.  The other targets' sequencer counters mirror the
        driver's, even on error.  Returns the total number of dynamic
        instructions executed (all channels).

        Raises
        ------
        PimExecError
            If the target channels hold different CRF programs (naming
            them), or from the driving sequencer (no kernel loaded, the
            walk exhausted, ...).
        """
        targets = self._channels(channels)
        driver = self.sequencers[targets[0]]
        differ = [
            ch for ch in targets[1:] if self.sequencers[ch].crf != driver.crf
        ]
        if differ:
            raise PimExecError(
                f"run_kernel runs one CRF program in lockstep; channels "
                f"{differ} hold a different one than channel {targets[0]}"
            )
        instructions = driver.instructions
        control_steps = driver.control_steps
        n_steps = 0
        try:
            with self.lockstep(targets) as step:
                for command, row, col in driver.run(walk):
                    step(command, row, col)
                    n_steps += 1
        finally:
            for channel in targets[1:]:
                sequencer = self.sequencers[channel]
                sequencer.instructions += driver.instructions - instructions
                sequencer.control_steps += (
                    driver.control_steps - control_steps
                )
        return n_steps * len(targets)

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------
    def trace(self) -> PackedTrace:
        """The accumulated request stream as one
        :class:`~repro.memsys.PackedTrace`.

        Encodes the open steps (see the module docstring) and
        concatenates the chunks.  Timestamped only when every request
        came from a timed :meth:`append_trace` stream (e.g. a
        timestamped :class:`~repro.pimexec.program.PimProgram`).

        Raises
        ------
        TraceFormatError
            If timed and untimed requests mix in the log, naming the
            untimed count: clear untimed staging requests with
            :meth:`reset_requests` first.
        """
        self._close_steps()
        chunks = self._chunks or [
            (np.empty(0, np.uint8), np.empty(0, np.int64), None)
        ]
        timed = [times for _, _, times in chunks if times is not None]
        n_timed = sum(len(times) for times in timed)
        if n_timed and n_timed != self._count:
            raise TraceFormatError(
                f"the request log mixes {self._count - n_timed} "
                f"untimestamped requests with {n_timed} timestamped "
                "ones; call reset_requests() after untimed staging "
                "and before appending a timestamped stream"
            )
        return PackedTrace(
            np.concatenate([op_codes for op_codes, _, _ in chunks]),
            np.concatenate([addrs for _, addrs, _ in chunks]),
            np.concatenate(timed) if n_timed else None,
        )

    def reset_requests(self) -> None:
        """Drop the accumulated request stream (e.g. after data load)."""
        for column in self._steps:
            column.clear()
        self._chunks = []
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
