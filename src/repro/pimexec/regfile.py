"""The PIM execution units: register files + bank data arrays.

Each execution unit is the compute logic HBM-PIM places beside one
DRAM bank (or, in bank-group mode, beside one even/odd *pair* of
banks): two vector register files (GRF_A/GRF_B, 8 registers of one page
each), a scalar register file (SRF, 8 entries, broadcast over lanes
when read), and functional access to the attached bank data array(s).
A page is ``lanes`` values — the 256-bit row-buffer page of the §2.1
macro carries 16 16-bit words in hardware.

:class:`VectorUnitArray` holds every unit of a machine as stacked NumPy
arrays and executes a lockstep command across the selected units in
one vectorized op; :class:`UnitView` is a one-unit window onto it.

Arithmetic dtype
----------------
The units compute in one of two selectable dtypes (:data:`DTYPES`):

* ``"fp64"`` (default) — the idealized model of PRs 1-4: values are
  ``float64``, so results compare bit-exactly against a float64 NumPy
  reference performing the same operations in the same order;
* ``"fp16"`` — *hardware-faithful* IEEE binary16: every register,
  bank page, and intermediate is NumPy ``float16``, so each ADD/MUL/
  MAC/MAD step rounds to nearest-even at 11 significand bits exactly
  like HBM-PIM's 16-bit FPUs.  Overflow saturates to ``inf``,
  subnormals underflow gradually (no flush-to-zero), and NaNs
  propagate — the semantics ``docs/nn.md`` documents and
  ``tests/nn/test_fp16.py`` pins.

Both dtypes keep the bit-exactness contract: a NumPy reference using
the same dtype and the same operation order reproduces the units'
state bit for bit.

Bank ports
----------
In HBM-PIM's bank-group (half-bank) mode one execution unit is shared
by an even/odd pair of banks; the ``BANK,u`` operand selector picks
which of the pair a command touches.  ``ports=2`` models that sharing:
the data store is keyed by ``(port, row, col)`` and ``Operand.unit``
selects the port.  With the default ``ports=1`` (one unit per bank)
the selector is recorded but ignored, as in PR 3.

The units are purely *functional*: they execute commands and mutate
state, but know nothing about time.  Timing comes from the
:class:`~repro.pimexec.machine.PimExecMachine`, which logs the memory
request every executed command costs and replays the log through the
banked memory system.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from .commands import (
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

__all__ = ["DTYPES", "VectorUnitArray", "UnitView"]

#: Selectable arithmetic dtypes: name -> NumPy dtype.
DTYPES: _t.Dict[str, np.dtype] = {
    "fp64": np.dtype(np.float64),
    "fp16": np.dtype(np.float16),
}


#: Unit-selection tuple into a :class:`VectorUnitArray`: ``()`` (every
#: unit), ``(channel,)`` (every unit of one channel), or
#: ``(channel, unit)``.
UnitSel = _t.Tuple[int, ...]

#: Compiled steps one :class:`VectorUnitArray` keeps per
#: ``(command, sel)`` (a layer's kernels use a few hundred).
COMPILED_STEPS_MAXSIZE = 4096


class VectorUnitArray:
    """Every execution unit of one machine, as stacked NumPy arrays.

    Register files are ``(n_channels, units_per_channel, ...)`` arrays
    and the sparse bank store keys ``(port, row, col)`` to one
    ``(n_channels, units_per_channel, lanes)`` page plane, so one
    lockstep command executes across every unit of a channel (or the
    whole machine) in a handful of vectorized NumPy operations instead
    of a Python loop over units.

    Every arithmetic step is one NumPy elementwise expression in the
    array's dtype: with ``"fp16"``, each product and each sum rounds to
    binary16 per operation (``MAC``/``MAD`` round the product first; no
    fused multiply-add), and IEEE semantics (inf saturation, NaN
    propagation, gradual underflow) hold lane by lane regardless of
    array shape.  The tests check every command against an independent
    one-unit-at-a-time reference.

    Every method takes a selection tuple ``sel`` — ``()`` for all
    units, ``(channel,)`` for one channel's units in lockstep,
    ``(channel, unit)`` for a single unit (the granularity of
    :class:`UnitView`).
    """

    __slots__ = (
        "n_channels", "units_per_channel", "lanes", "name",
        "dtype", "np_dtype", "ports",
        "grf_a", "grf_b", "srf", "memory", "commands_executed",
        "_compiled",
    )

    def __init__(
        self,
        n_channels: int,
        units_per_channel: int,
        lanes: int,
        dtype: str = "fp64",
        ports: int = 1,
    ) -> None:
        if n_channels < 1 or units_per_channel < 1:
            raise ValueError(
                f"need >= 1 channel and unit, got "
                f"{n_channels} x {units_per_channel}"
            )
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        if dtype not in DTYPES:
            raise PimExecError(
                f"unknown dtype {dtype!r}; available: "
                f"{tuple(DTYPES)}"
            )
        if ports not in (1, 2):
            raise ValueError(f"ports must be 1 or 2, got {ports}")
        self.n_channels = int(n_channels)
        self.units_per_channel = int(units_per_channel)
        self.lanes = int(lanes)
        self.name = "vector-units"
        self.dtype = dtype
        self.np_dtype = DTYPES[dtype]
        self.ports = int(ports)
        grid = (self.n_channels, self.units_per_channel)
        self.grf_a = np.zeros(
            grid + (GRF_REGS, self.lanes), dtype=self.np_dtype
        )
        self.grf_b = np.zeros(
            grid + (GRF_REGS, self.lanes), dtype=self.np_dtype
        )
        self.srf = np.zeros(grid + (SRF_REGS,), dtype=self.np_dtype)
        #: Functional bank contents: ``(port, row, col) -> page plane``
        #: of shape ``(n_channels, units_per_channel, lanes)`` (sparse;
        #: unwritten pages read as zeros).
        self.memory: _t.Dict[
            _t.Tuple[int, int, int], np.ndarray
        ] = {}
        self.commands_executed = np.zeros(grid, dtype=np.int64)
        self._compiled: _t.Dict[
            _t.Tuple[PimCommand, UnitSel], _t.Callable[[int, int], None]
        ] = {}

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

    def _sel_shape(self, sel: UnitSel) -> _t.Tuple[int, ...]:
        return (self.n_channels, self.units_per_channel)[len(sel):]

    def load_pages(
        self, row: int, col: int, port: int = 0, sel: UnitSel = ()
    ) -> np.ndarray:
        """The selected units' view of one page (zeros if unwritten)."""
        page = self.memory.get((self._port(port), int(row), int(col)))
        if page is None:
            return np.zeros(
                self._sel_shape(sel) + (self.lanes,),
                dtype=self.np_dtype,
            )
        return page[sel].copy()

    def store_pages(
        self,
        row: int,
        col: int,
        values: np.ndarray,
        port: int = 0,
        sel: UnitSel = (),
    ) -> None:
        """Store the selected units' slice of one page plane.

        ``values`` round to the array's dtype; out-of-range values
        saturate to ``inf`` without numpy's advisory overflow warning.
        """
        key = (self._port(port), int(row), int(col))
        page = self.memory.get(key)
        if page is None:
            page = np.zeros(
                (self.n_channels, self.units_per_channel, self.lanes),
                dtype=self.np_dtype,
            )
            self.memory[key] = page
        with np.errstate(over="ignore"):
            page[sel] = values

    # ------------------------------------------------------------------
    # operand access
    # ------------------------------------------------------------------
    def _reg_index(
        self, index: int, sel: UnitSel
    ) -> _t.Tuple[_t.Any, ...]:
        return sel + (slice(None),) * (2 - len(sel)) + (index,)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    _MAD_DEFAULT_ADDEND = Operand(SRF, 1)  # HBM-PIM's SRF_M

    def execute(
        self,
        command: PimCommand,
        row: int = 0,
        col: int = 0,
        sel: UnitSel = (),
    ) -> None:
        """Execute one non-control command across the selected units.

        One vectorized op — the cached :meth:`compile_step` closure of
        ``(command, sel)`` — under IEEE semantics: overflow saturates
        to ``inf`` and ``0 * inf`` gives NaN, without numpy's advisory
        warnings.
        """
        step = self.compiled(command, sel)
        self.commands_executed[sel] += 1
        with np.errstate(over="ignore", invalid="ignore"):
            step(row, col)

    # ------------------------------------------------------------------
    # compiled steps (the lockstep hot path)
    # ------------------------------------------------------------------
    def _compile_reader(
        self, operand: Operand, sel: UnitSel
    ) -> _t.Callable[[int, int], np.ndarray]:
        """A ``(row, col) -> value`` closure for one source operand.

        Operand dispatch, port resolution, and index tuples are
        resolved once here instead of on every dynamic instruction.
        Bank reads return *views* (plus a shared read-only zero page
        for unwritten pages) — safe because every opcode computes its
        result into a fresh temporary before any write.
        """
        space = operand.space
        if space == BANK:
            port = self._port(
                operand.unit
                if operand.unit is not None and self.ports > 1
                else 0
            )
            memory = self.memory
            zeros = np.zeros(
                self._sel_shape(sel) + (self.lanes,), dtype=self.np_dtype
            )
            zeros.setflags(write=False)
            if operand.row is not None:
                key = (port, int(operand.row), int(_t.cast(int, operand.col)))

                def read(row: int, col: int) -> np.ndarray:
                    page = memory.get(key)
                    return zeros if page is None else page[sel]

            else:

                def read(row: int, col: int) -> np.ndarray:
                    page = memory.get((port, row, col))
                    return zeros if page is None else page[sel]

            return read
        if space == SRF:
            srf = self.srf
            index = self._reg_index(operand.index, sel)
            return lambda row, col: srf[index][..., None]
        arr = self.grf_a if space == GRF_A else self.grf_b
        index = self._reg_index(operand.index, sel)
        return lambda row, col: arr[index]

    def _compile_writer(
        self, operand: Operand, sel: UnitSel
    ) -> _t.Callable[[np.ndarray, int, int], None]:
        """A ``(value, row, col) -> None`` closure for the destination."""
        space = operand.space
        if space == BANK:
            port = self._port(
                operand.unit
                if operand.unit is not None and self.ports > 1
                else 0
            )
            memory = self.memory
            grid = (
                self.n_channels, self.units_per_channel, self.lanes,
            )
            np_dtype = self.np_dtype
            fixed = (
                (port, int(operand.row), int(_t.cast(int, operand.col)))
                if operand.row is not None
                else None
            )

            def write(value: np.ndarray, row: int, col: int) -> None:
                key = fixed if fixed is not None else (port, row, col)
                page = memory.get(key)
                if page is None:
                    page = np.zeros(grid, dtype=np_dtype)
                    memory[key] = page
                page[sel] = value

            return write
        if space == GRF_A:
            arr = self.grf_a
        elif space == GRF_B:
            arr = self.grf_b
        else:  # pragma: no cover - guarded by PimCommand validation
            raise PimExecError("SRF cannot be a command destination")
        index = self._reg_index(operand.index, sel)

        def write_reg(value: np.ndarray, row: int, col: int) -> None:
            arr[index] = value

        return write_reg

    def compiled(
        self, command: PimCommand, sel: UnitSel = ()
    ) -> _t.Callable[[int, int], None]:
        """The :meth:`compile_step` closure of ``(command, sel)``, cached.

        The cache is bounded like :func:`~repro.pimexec.commands.
        parse_command`'s: when full, the oldest entry goes.  Closures
        bind this array's register and page stores, which are mutated
        in place and never rebound, so a cached step stays valid.
        """
        key = (command, sel)
        step = self._compiled.get(key)
        if step is None:
            step = self.compile_step(command, sel)
            if len(self._compiled) >= COMPILED_STEPS_MAXSIZE:
                del self._compiled[next(iter(self._compiled))]
            self._compiled[key] = step
        return step

    def compile_step(
        self, command: PimCommand, sel: UnitSel = ()
    ) -> _t.Callable[[int, int], None]:
        """A ``(row, col)`` closure executing ``command`` over ``sel``.

        The units' only arithmetic implementation: operand dispatch
        happens once here, the caller provides the surrounding
        ``np.errstate`` block and counts ``commands_executed`` (one
        array add per kernel on the lockstep paths).  Each opcode
        evaluates in the array's dtype, rounding after every product
        and every sum.
        """
        opcode = command.opcode
        if command.is_control:
            raise PimExecError(
                f"{opcode.value} is sequencer control, not a bank "
                "operation"
            )
        if opcode is PimOpcode.NOP:
            return lambda row, col: None
        dst = _t.cast(Operand, command.dst)
        read0 = self._compile_reader(
            _t.cast(Operand, command.src0), sel
        )
        # a GRF destination is one fixed array view, so the ufunc can
        # write straight into it (``out=``) — the same elementwise loop
        # as ``dst[...] = a + b``, minus one temporary per step; bank
        # destinations keep the page-allocating writer
        out: _t.Optional[np.ndarray] = None
        if dst.space in (GRF_A, GRF_B):
            arr = self.grf_a if dst.space == GRF_A else self.grf_b
            out = arr[self._reg_index(dst.index, sel)]
        write = None if out is not None else self._compile_writer(dst, sel)
        if opcode in (PimOpcode.MOV, PimOpcode.FILL):
            if out is not None:
                return lambda row, col: np.copyto(out, read0(row, col))
            return lambda row, col: write(read0(row, col), row, col)
        read1 = self._compile_reader(
            _t.cast(Operand, command.src1), sel
        )
        if opcode is PimOpcode.ADD:
            if out is not None:
                return lambda row, col: np.add(
                    read0(row, col), read1(row, col), out=out
                )
            return lambda row, col: write(
                read0(row, col) + read1(row, col), row, col
            )
        if opcode is PimOpcode.MUL:
            if out is not None:
                return lambda row, col: np.multiply(
                    read0(row, col), read1(row, col), out=out
                )
            return lambda row, col: write(
                read0(row, col) * read1(row, col), row, col
            )
        if opcode is PimOpcode.MAC:
            read_dst = self._compile_reader(dst, sel)
            if out is not None:
                return lambda row, col: np.add(
                    read_dst(row, col),
                    read0(row, col) * read1(row, col),
                    out=out,
                )
            return lambda row, col: write(
                read_dst(row, col) + read0(row, col) * read1(row, col),
                row,
                col,
            )
        # MAD
        read2 = self._compile_reader(
            command.src2 or self._MAD_DEFAULT_ADDEND, sel
        )
        if out is not None:
            return lambda row, col: np.add(
                read0(row, col) * read1(row, col),
                read2(row, col),
                out=out,
            )
        return lambda row, col: write(
            read0(row, col) * read1(row, col) + read2(row, col),
            row,
            col,
        )

    def __repr__(self) -> str:
        return (
            f"<VectorUnitArray {self.n_channels}x"
            f"{self.units_per_channel} lanes={self.lanes} "
            f"dtype={self.dtype} ports={self.ports} "
            f"pages={len(self.memory)}>"
        )


class UnitView:
    """One ``(channel, unit)`` window onto a :class:`VectorUnitArray`.

    ``grf_a``/``grf_b``/``srf`` are mutable array views,
    ``load_page``/``store_page`` move one page of the unit's bank
    array, and ``commands_executed`` counts the unit's executed
    commands.
    """

    __slots__ = ("_array", "_channel", "_index", "name")

    def __init__(
        self,
        array: VectorUnitArray,
        channel: int,
        index: int,
        name: _t.Optional[str] = None,
    ) -> None:
        self._array = array
        self._channel = int(channel)
        self._index = int(index)
        self.name = name or f"ch{channel}.u{index}"

    # -- geometry / dtype passthrough ----------------------------------
    @property
    def lanes(self) -> int:
        return self._array.lanes

    @property
    def dtype(self) -> str:
        return self._array.dtype

    @property
    def np_dtype(self) -> np.dtype:
        return self._array.np_dtype

    @property
    def ports(self) -> int:
        return self._array.ports

    # -- register files (mutable views) --------------------------------
    @property
    def grf_a(self) -> np.ndarray:
        return self._array.grf_a[self._channel, self._index]

    @property
    def grf_b(self) -> np.ndarray:
        return self._array.grf_b[self._channel, self._index]

    @property
    def srf(self) -> np.ndarray:
        return self._array.srf[self._channel, self._index]

    @property
    def commands_executed(self) -> int:
        return int(
            self._array.commands_executed[self._channel, self._index]
        )

    @property
    def _sel(self) -> UnitSel:
        return (self._channel, self._index)

    # -- bank data array -----------------------------------------------
    def load_page(self, row: int, col: int, port: int = 0) -> np.ndarray:
        """One page of the unit's bank array (zeros if never written)."""
        if not 0 <= port < self.ports:
            raise PimExecError(
                f"{self.name}: bank port {port} out of range "
                f"[0, {self.ports})"
            )
        return self._array.load_pages(row, col, port, self._sel)

    def store_page(
        self,
        row: int,
        col: int,
        values: _t.Sequence[float],
        port: int = 0,
    ) -> None:
        """Store one page, rounding ``values`` to the unit's dtype."""
        if not 0 <= port < self.ports:
            raise PimExecError(
                f"{self.name}: bank port {port} out of range "
                f"[0, {self.ports})"
            )
        with np.errstate(over="ignore"):  # saturates to inf
            page = np.asarray(values, dtype=self.np_dtype)
        if page.shape != (self.lanes,):
            raise PimExecError(
                f"{self.name}: page must have {self.lanes} lanes, got "
                f"shape {page.shape}"
            )
        self._array.store_pages(row, col, page, port, self._sel)

    def __repr__(self) -> str:
        return (
            f"<UnitView {self.name!r} lanes={self.lanes} "
            f"dtype={self.dtype} ports={self.ports} "
            f"executed={self.commands_executed}>"
        )
