"""Independent reference for the PIM execution units (tests only).

:class:`BankExecUnit` is one execution unit as a plain object with its
own operand dispatch and its own arithmetic, one command at a time.
It shares nothing with :class:`~repro.pimexec.VectorUnitArray` or its
``compile_step`` closures, so agreement between the two is evidence
about the production grid rather than a copy comparing against itself.

:class:`OracleGrid` lays a machine's geometry out as a grid of
:class:`BankExecUnit` objects and drives it like the machine's host
actions: ``write_bank``, ``broadcast_scalar``, ``broadcast_page``, and
``run`` — the generic round-robin kernel loop over one
:class:`~repro.pimexec.CommandSequencer` per channel.  It emits no
requests; streams are checked against the machine's own two kernel
paths instead (see ``test_program_fuzz.py``).
"""

from __future__ import annotations

import typing as _t

import numpy as np

from repro.pimexec import DTYPES, CommandSequencer
from repro.pimexec.commands import (
    BANK,
    GRF_A,
    GRF_B,
    GRF_REGS,
    Operand,
    PimCommand,
    PimExecError,
    PimOpcode,
    SRF,
    SRF_REGS,
)

__all__ = ["BankExecUnit", "OracleGrid"]


class BankExecUnit:
    """Execution unit and functional data store of one or two banks.

    Parameters
    ----------
    lanes:
        Values per page (page width over the 16-bit hardware word).
    name:
        Label for error messages and repr.
    dtype:
        Arithmetic dtype name (see :data:`DTYPES`): ``"fp64"``
        (default) or ``"fp16"`` for IEEE binary16 rounding per
        operation.
    ports:
        Attached bank data arrays: 1 (per-bank unit, default) or 2
        (bank-group mode — the unit is shared by an even/odd bank pair
        and ``Operand.unit`` selects the port).
    """

    __slots__ = (
        "lanes", "name", "dtype", "np_dtype", "ports",
        "grf_a", "grf_b", "srf", "memory", "commands_executed",
    )

    def __init__(
        self,
        lanes: int,
        name: str = "unit",
        dtype: str = "fp64",
        ports: int = 1,
    ) -> None:
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        if dtype not in DTYPES:
            raise PimExecError(
                f"unknown dtype {dtype!r}; available: "
                f"{tuple(DTYPES)}"
            )
        if ports not in (1, 2):
            raise ValueError(f"ports must be 1 or 2, got {ports}")
        self.lanes = int(lanes)
        self.name = name
        self.dtype = dtype
        self.np_dtype = DTYPES[dtype]
        self.ports = int(ports)
        self.grf_a = np.zeros((GRF_REGS, self.lanes), dtype=self.np_dtype)
        self.grf_b = np.zeros((GRF_REGS, self.lanes), dtype=self.np_dtype)
        self.srf = np.zeros(SRF_REGS, dtype=self.np_dtype)
        #: Functional bank contents: ``(port, row, col) -> page``
        #: (sparse; unwritten pages read as zeros).
        self.memory: _t.Dict[
            _t.Tuple[int, int, int], np.ndarray
        ] = {}
        self.commands_executed = 0

    # ------------------------------------------------------------------
    # bank data array
    # ------------------------------------------------------------------
    def _port(self, port: int) -> int:
        if not 0 <= port < self.ports:
            raise PimExecError(
                f"{self.name}: bank port {port} out of range "
                f"[0, {self.ports})"
            )
        return int(port)

    def load_page(self, row: int, col: int, port: int = 0) -> np.ndarray:
        """One page of a bank array (zeros if never written)."""
        page = self.memory.get((self._port(port), int(row), int(col)))
        if page is None:
            return np.zeros(self.lanes, dtype=self.np_dtype)
        return page.copy()

    def store_page(
        self,
        row: int,
        col: int,
        values: _t.Sequence[float],
        port: int = 0,
    ) -> None:
        """Store one page, rounding ``values`` to the unit's dtype.

        Out-of-range values saturate to ``inf`` (IEEE rounding, as in
        :meth:`execute`), without numpy's advisory overflow warning.
        """
        with np.errstate(over="ignore"):
            page = np.asarray(values, dtype=self.np_dtype)
        if page.shape != (self.lanes,):
            raise PimExecError(
                f"{self.name}: page must have {self.lanes} lanes, got "
                f"shape {page.shape}"
            )
        self.memory[(self._port(port), int(row), int(col))] = page.copy()

    # ------------------------------------------------------------------
    # operand access
    # ------------------------------------------------------------------
    def _coords(
        self, operand: Operand, row: int, col: int
    ) -> _t.Tuple[int, int, int]:
        port = (
            operand.unit
            if operand.unit is not None and self.ports > 1
            else 0
        )
        if operand.row is not None:
            return operand.row, _t.cast(int, operand.col), port
        return row, col, port

    def read_operand(
        self, operand: Operand, row: int, col: int
    ) -> np.ndarray:
        if operand.space == BANK:
            r, c, port = self._coords(operand, row, col)
            return self.load_page(r, c, port)
        if operand.space == GRF_A:
            return self.grf_a[operand.index]
        if operand.space == GRF_B:
            return self.grf_b[operand.index]
        assert operand.space == SRF
        return np.full(
            self.lanes, self.srf[operand.index], dtype=self.np_dtype
        )

    def write_operand(
        self, operand: Operand, value: np.ndarray, row: int, col: int
    ) -> None:
        if operand.space == BANK:
            r, c, port = self._coords(operand, row, col)
            self.store_page(r, c, value, port)
        elif operand.space == GRF_A:
            self.grf_a[operand.index] = value
        elif operand.space == GRF_B:
            self.grf_b[operand.index] = value
        else:  # pragma: no cover - guarded by PimCommand validation
            raise PimExecError("SRF cannot be a command destination")

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    _MAD_DEFAULT_ADDEND = Operand(SRF, 1)  # HBM-PIM's SRF_M

    def execute(self, command: PimCommand, row: int = 0, col: int = 0) -> None:
        """Execute one non-control command at column access (row, col).

        Every arithmetic step evaluates in the unit's dtype: with
        ``"fp16"``, each product and each sum rounds to binary16
        (``MAC``/``MAD`` round the product first, then the addition —
        no fused multiply-add), matching a NumPy float16 reference
        performing the same expressions.
        """
        opcode = command.opcode
        if command.is_control:
            raise PimExecError(
                f"{opcode.value} is sequencer control, not a bank "
                "operation"
            )
        self.commands_executed += 1
        if opcode is PimOpcode.NOP:
            return
        dst = _t.cast(Operand, command.dst)
        src0 = self.read_operand(_t.cast(Operand, command.src0), row, col)
        if opcode in (PimOpcode.MOV, PimOpcode.FILL):
            self.write_operand(dst, src0.copy(), row, col)
            return
        src1 = self.read_operand(_t.cast(Operand, command.src1), row, col)
        # IEEE semantics by design: overflow saturates to inf and
        # 0 * inf produces NaN — silence numpy's advisory warnings
        with np.errstate(over="ignore", invalid="ignore"):
            if opcode is PimOpcode.ADD:
                result = src0 + src1
            elif opcode is PimOpcode.MUL:
                result = src0 * src1
            elif opcode is PimOpcode.MAC:
                result = self.read_operand(dst, row, col) + src0 * src1
            else:  # MAD
                addend = self.read_operand(
                    command.src2 or self._MAD_DEFAULT_ADDEND, row, col
                )
                result = src0 * src1 + addend
        self.write_operand(dst, result, row, col)

    def __repr__(self) -> str:
        return (
            f"<BankExecUnit {self.name!r} lanes={self.lanes} "
            f"dtype={self.dtype} ports={self.ports} "
            f"pages={len(self.memory)} "
            f"executed={self.commands_executed}>"
        )



class OracleGrid:
    """A machine-shaped grid of :class:`BankExecUnit` objects.

    ``units[channel][index]`` mirrors
    :meth:`~repro.pimexec.PimExecMachine.unit`: in bank-group mode
    (``ports=2``) unit ``k`` serves banks ``2k`` and ``2k + 1``.
    """

    def __init__(
        self,
        n_channels: int,
        units_per_channel: int,
        lanes: int,
        dtype: str = "fp64",
        ports: int = 1,
    ) -> None:
        self.n_channels = n_channels
        self.units_per_channel = units_per_channel
        self.lanes = lanes
        self.np_dtype = DTYPES[dtype]
        self.ports = ports
        self.units = [
            [
                BankExecUnit(
                    lanes, name=f"ch{ch}.u{index}", dtype=dtype, ports=ports
                )
                for index in range(units_per_channel)
            ]
            for ch in range(n_channels)
        ]
        self.sequencers = [CommandSequencer() for _ in range(n_channels)]

    @classmethod
    def like(cls, machine: _t.Any) -> "OracleGrid":
        """An empty grid with ``machine``'s geometry, dtype and ports."""
        return cls(
            machine.n_channels,
            machine.units_per_channel,
            machine.lanes,
            dtype=machine.dtype,
            ports=machine.ports,
        )

    def iter_units(self) -> _t.Iterator[_t.Tuple[int, int, BankExecUnit]]:
        """Yield ``(channel, unit_index, unit)`` in address order."""
        for ch, row in enumerate(self.units):
            for index, unit in enumerate(row):
                yield ch, index, unit

    def write_bank(
        self,
        channel: int,
        flat_bank: int,
        row: int,
        col: int,
        values: _t.Sequence[float],
    ) -> None:
        unit = self.units[channel][flat_bank // self.ports]
        unit.store_page(row, col, values, flat_bank % self.ports)

    def broadcast_scalar(
        self, channel: int, index: int, value: float
    ) -> None:
        for unit in self.units[channel]:
            with np.errstate(over="ignore"):  # saturates to inf
                unit.srf[index] = float(value)

    def broadcast_page(
        self,
        channel: int,
        space: str,
        index: int,
        values: _t.Sequence[float],
    ) -> None:
        with np.errstate(over="ignore"):  # saturates to inf
            page = np.asarray(values, dtype=self.np_dtype)
        for unit in self.units[channel]:
            getattr(unit, space)[index] = page

    def run(
        self,
        program: _t.Sequence[PimCommand],
        walk: _t.Sequence[_t.Tuple[int, int]],
        channels: _t.Optional[_t.Sequence[int]] = None,
    ) -> int:
        """Load ``program`` and run it to ``EXIT`` on each channel.

        Channels advance round-robin, one dynamic instruction each,
        and every instruction executes unit by unit.  Returns the
        dynamic instructions executed (all channels).
        """
        targets = (
            list(range(self.n_channels)) if channels is None else channels
        )
        for channel in targets:
            self.sequencers[channel].load(program)
        steppers = [
            (channel, self.sequencers[channel].run(walk))
            for channel in targets
        ]
        executed = 0
        while steppers:
            running = []
            for channel, stepper in steppers:
                step = next(stepper, None)
                if step is None:
                    continue
                command, row, col = step
                for unit in self.units[channel]:
                    unit.execute(command, row, col)
                executed += 1
                running.append((channel, stepper))
            steppers = running
        return executed

    def sequencer_stats(self) -> _t.List[_t.Dict[str, int]]:
        return [sequencer.stats() for sequencer in self.sequencers]
