"""HBM-PIM-style command set for per-bank PIM execution units.

One :class:`PimCommand` is one slot of the Command Register File (CRF)
microkernel that every bank of a channel executes in lockstep.  The
vocabulary follows the HBM-PIM / HBM-PIMulator instruction set:

=======  =========================================================
opcode   semantics (elementwise over the ``lanes`` of one page)
=======  =========================================================
``ADD``  ``dst = src0 + src1``
``MUL``  ``dst = src0 * src1``
``MAC``  ``dst = dst + src0 * src1`` (multiply-accumulate)
``MAD``  ``dst = src0 * src1 + src2`` (``src2`` defaults to ``SRF,1``,
         HBM-PIM's dedicated addend scalar ``SRF_M``)
``MOV``  ``dst = src0`` (conventionally GRF → BANK write-back)
``FILL`` ``dst = src0`` (conventionally BANK → GRF load)
``NOP``  no state change (still consumes one column access)
``JUMP`` sequencer control: jump to ``target``, ``count`` times
``EXIT`` sequencer control: kernel complete
=======  =========================================================

Operands name one of four spaces: the bank's DRAM array at the row and
column of the triggering column access (``BANK``), the two vector
register files (``GRF_A``/``GRF_B``, 8 registers of one page each), or
the scalar register file (``SRF``, 8 scalars, broadcast over lanes when
read).  The text syntax matches the HBM-PIMulator trace operands:
``GRF,k`` addresses the combined GRF with ``GRF_A`` as registers 0-7
and ``GRF_B`` as 8-15 (the HBM-PIM encoding), ``BANK`` may carry an
even/odd unit selector and/or an explicit ``row,col`` (``BANK``,
``BANK,u``, ``BANK,row,col``, ``BANK,u,row,col``).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import typing as _t

from ..errors import ReproError

__all__ = [
    "PimExecError",
    "PimOpcode",
    "ARITH_OPCODES",
    "CONTROL_OPCODES",
    "BANK",
    "GRF_A",
    "GRF_B",
    "SRF",
    "SPACES",
    "GRF_REGS",
    "SRF_REGS",
    "CRF_SIZE",
    "Operand",
    "PimCommand",
    "parse_command",
]


class PimExecError(ReproError, RuntimeError):
    """Raised on malformed PIM commands/programs or execution faults.

    Part of the shared :mod:`repro.errors` taxonomy (still a
    ``RuntimeError`` for backward compatibility).
    """

    code = "PIMEXEC"


class PimOpcode(enum.Enum):
    """CRF command opcodes, valued by their trace mnemonic."""

    ADD = "ADD"
    MUL = "MUL"
    MAC = "MAC"
    MAD = "MAD"
    MOV = "MOV"
    FILL = "FILL"
    NOP = "NOP"
    JUMP = "JUMP"
    EXIT = "EXIT"

    @classmethod
    def from_mnemonic(cls, token: str) -> "PimOpcode":
        try:
            return cls(token.upper())
        except ValueError:
            raise PimExecError(
                f"unknown PIM opcode {token!r}; expected one of "
                f"{[op.value for op in cls]}"
            ) from None


#: Three-operand arithmetic opcodes.
ARITH_OPCODES = frozenset(
    {PimOpcode.ADD, PimOpcode.MUL, PimOpcode.MAC, PimOpcode.MAD}
)
#: Sequencer-internal opcodes (no bank/register dataflow).
CONTROL_OPCODES = frozenset({PimOpcode.JUMP, PimOpcode.EXIT})

#: Operand spaces.
BANK = "bank"
GRF_A = "grf_a"
GRF_B = "grf_b"
SRF = "srf"
SPACES = (BANK, GRF_A, GRF_B, SRF)

#: Register-file geometry (HBM-PIM values).
GRF_REGS = 8
SRF_REGS = 8
CRF_SIZE = 32


@dataclasses.dataclass(frozen=True)
class Operand:
    """One command operand.

    Attributes
    ----------
    space:
        ``"bank"``, ``"grf_a"``, ``"grf_b"``, or ``"srf"``.
    index:
        Register index (``grf_*``/``srf`` spaces only).
    row, col:
        Explicit bank coordinates for ``bank`` operands; ``None`` means
        the operand reads/writes the page addressed by the triggering
        column access (the sequencer's column walk supplies it).
    unit:
        Optional even/odd bank selector (0 = even, 1 = odd) from
        HBM-PIMulator ``BANK,u,…`` operands.  On a per-bank machine
        (every bank its own execution unit) it is recorded but ignored;
        in *bank-group* mode (:class:`~repro.pimexec.machine.
        PimExecMachine` with ``bank_groups=True``) each unit is shared
        by an even/odd bank pair and the selector picks which bank of
        the pair the operand touches.
    """

    space: str
    index: int = 0
    row: _t.Optional[int] = None
    col: _t.Optional[int] = None
    unit: _t.Optional[int] = None

    def __post_init__(self) -> None:
        if self.space not in SPACES:
            raise PimExecError(
                f"unknown operand space {self.space!r}; available: "
                f"{SPACES}"
            )
        if self.space in (GRF_A, GRF_B) and not 0 <= self.index < GRF_REGS:
            raise PimExecError(
                f"GRF index {self.index} out of range [0, {GRF_REGS})"
            )
        if self.space == SRF and not 0 <= self.index < SRF_REGS:
            raise PimExecError(
                f"SRF index {self.index} out of range [0, {SRF_REGS})"
            )
        if self.space != BANK and (
            self.row is not None or self.col is not None
        ):
            raise PimExecError(
                "row/col coordinates are only valid on BANK operands"
            )
        if self.space != BANK and self.unit is not None:
            raise PimExecError(
                "unit selectors are only valid on BANK operands"
            )
        if self.unit is not None and self.unit not in (0, 1):
            raise PimExecError(
                f"BANK unit selector must be 0 (even) or 1 (odd), got "
                f"{self.unit}"
            )
        if (self.row is None) != (self.col is None):
            raise PimExecError(
                "BANK operands need both row and col, or neither"
            )

    # ------------------------------------------------------------------
    @classmethod
    def bank(
        cls,
        row: _t.Optional[int] = None,
        col: _t.Optional[int] = None,
        unit: _t.Optional[int] = None,
    ) -> "Operand":
        return cls(BANK, 0, row, col, unit)

    @classmethod
    def grf_a(cls, index: int) -> "Operand":
        return cls(GRF_A, index)

    @classmethod
    def grf_b(cls, index: int) -> "Operand":
        return cls(GRF_B, index)

    @classmethod
    def srf(cls, index: int) -> "Operand":
        return cls(SRF, index)

    # ------------------------------------------------------------------
    @property
    def is_bank(self) -> bool:
        return self.space == BANK

    @property
    def is_implicit_bank(self) -> bool:
        """BANK operand addressed by the triggering column access."""
        return self.space == BANK and self.row is None

    @classmethod
    def parse(cls, token: str) -> "Operand":
        """Parse an HBM-PIMulator operand token (``LOC[,n[,n[,n]]]``)."""
        parts = token.split(",")
        name = parts[0].upper()
        try:
            numbers = [int(p, 0) for p in parts[1:]]
        except ValueError:
            raise PimExecError(
                f"bad operand {token!r}: non-integer field"
            ) from None
        if name == "BANK":
            if len(numbers) == 0:
                return cls.bank()
            if len(numbers) == 1:
                return cls.bank(unit=numbers[0])
            if len(numbers) == 2:
                return cls.bank(row=numbers[0], col=numbers[1])
            if len(numbers) == 3:
                return cls.bank(
                    unit=numbers[0], row=numbers[1], col=numbers[2]
                )
            raise PimExecError(
                f"bad BANK operand {token!r}: too many fields"
            )
        if len(numbers) != 1:
            raise PimExecError(
                f"bad operand {token!r}: expected {name},INDEX"
            )
        index = numbers[0]
        if name == "GRF":
            # the HBM-PIM encoding: GRF_A is 0-7, GRF_B is 8-15
            if not 0 <= index < 2 * GRF_REGS:
                raise PimExecError(
                    f"GRF index {index} out of range [0, {2 * GRF_REGS})"
                )
            if index < GRF_REGS:
                return cls.grf_a(index)
            return cls.grf_b(index - GRF_REGS)
        if name == "GRF_A":
            return cls.grf_a(index)
        if name == "GRF_B":
            return cls.grf_b(index)
        if name == "SRF":
            return cls.srf(index)
        raise PimExecError(
            f"unknown operand space {parts[0]!r}; expected "
            "BANK/GRF/GRF_A/GRF_B/SRF"
        )

    def __str__(self) -> str:
        if self.space == BANK:
            fields = [
                str(f)
                for f in (self.unit, self.row, self.col)
                if f is not None
            ]
            return ",".join(["BANK"] + fields)
        return f"{self.space.upper()},{self.index}"


#: Operand arity per opcode: (needs dst, number of sources).
_ARITY: _t.Dict[PimOpcode, _t.Tuple[bool, int]] = {
    PimOpcode.ADD: (True, 2),
    PimOpcode.MUL: (True, 2),
    PimOpcode.MAC: (True, 2),
    PimOpcode.MAD: (True, 2),  # src2 optional (defaults to SRF,1)
    PimOpcode.MOV: (True, 1),
    PimOpcode.FILL: (True, 1),
    PimOpcode.NOP: (False, 0),
    PimOpcode.JUMP: (False, 0),
    PimOpcode.EXIT: (False, 0),
}


@dataclasses.dataclass(frozen=True)
class PimCommand:
    """One CRF slot: opcode plus operands or jump control fields."""

    opcode: PimOpcode
    dst: _t.Optional[Operand] = None
    src0: _t.Optional[Operand] = None
    src1: _t.Optional[Operand] = None
    src2: _t.Optional[Operand] = None
    target: int = 0
    count: int = 0

    def __post_init__(self) -> None:
        needs_dst, n_src = _ARITY[self.opcode]
        present = [self.src0, self.src1]
        if needs_dst and self.dst is None:
            raise PimExecError(f"{self.opcode.value} needs a destination")
        if not needs_dst and self.dst is not None:
            raise PimExecError(
                f"{self.opcode.value} takes no destination"
            )
        if sum(s is not None for s in present) != n_src:
            raise PimExecError(
                f"{self.opcode.value} takes {n_src} source operand(s)"
            )
        if self.src2 is not None and self.opcode is not PimOpcode.MAD:
            raise PimExecError("only MAD takes a third source operand")
        if self.dst is not None and self.dst.space == SRF:
            raise PimExecError(
                "SRF is host-written (AB broadcast) — it cannot be a "
                "PIM command destination"
            )
        if self.opcode is PimOpcode.JUMP:
            if self.target < 0:
                raise PimExecError("JUMP target must be >= 0")
            if self.count < 0:
                raise PimExecError("JUMP count must be >= 0")
        elif self.target or self.count:
            raise PimExecError(
                f"{self.opcode.value} takes no jump target/count"
            )

    # ------------------------------------------------------------------
    def operands(self) -> _t.Iterator[Operand]:
        for operand in (self.dst, self.src0, self.src1, self.src2):
            if operand is not None:
                yield operand

    @property
    def is_control(self) -> bool:
        return self.opcode in CONTROL_OPCODES

    @functools.cached_property
    def uses_implicit_bank(self) -> bool:
        """Does any operand read/write the walked column address?

        Cached per (immutable) command: the sequencer asks once per
        dynamic instruction, which a looped kernel repeats millions of
        times.
        """
        return any(op.is_implicit_bank for op in self.operands())

    @property
    def explicit_bank(self) -> _t.Optional[Operand]:
        """The first BANK operand carrying explicit row/col, if any."""
        for operand in self.operands():
            if operand.is_bank and operand.row is not None:
                return operand
        return None

    def __str__(self) -> str:
        if self.opcode is PimOpcode.JUMP:
            return f"JUMP {self.target} {self.count}"
        parts = [self.opcode.value]
        parts.extend(str(op) for op in self.operands())
        return " ".join(parts)


@functools.lru_cache(maxsize=8192)
def parse_command(text: str) -> PimCommand:
    """Parse one command from its trace text (``MAC GRF,8 BANK SRF,0``).

    Memoized on the text: commands and operands are frozen, so equal
    text shares one :class:`PimCommand` (a layer trace repeats a few
    thousand distinct commands over and over).  A malformed text raises
    on every call; exceptions are never cached.

    Raises
    ------
    PimExecError
        On unknown mnemonics, malformed operands, or wrong arity.
    """
    tokens = text.split()
    if not tokens:
        raise PimExecError("empty PIM command")
    opcode = PimOpcode.from_mnemonic(tokens[0])
    rest = tokens[1:]
    if opcode is PimOpcode.JUMP:
        if len(rest) not in (0, 2):
            raise PimExecError(
                "JUMP takes either no fields or 'TARGET COUNT'"
            )
        try:
            target, count = (
                (int(rest[0], 0), int(rest[1], 0)) if rest else (0, 0)
            )
        except ValueError:
            raise PimExecError(
                f"bad JUMP fields {rest!r}: expected integers"
            ) from None
        return PimCommand(opcode, target=target, count=count)
    if opcode in (PimOpcode.NOP, PimOpcode.EXIT):
        if rest:
            raise PimExecError(f"{opcode.value} takes no operands")
        return PimCommand(opcode)
    operands = [Operand.parse(token) for token in rest]
    needs_dst, n_src = _ARITY[opcode]
    expected = int(needs_dst) + n_src
    if len(operands) not in (
        (expected, expected + 1) if opcode is PimOpcode.MAD else (expected,)
    ):
        raise PimExecError(
            f"{opcode.value} takes {expected} operand(s), got "
            f"{len(operands)}"
        )
    dst = operands[0]
    sources = operands[1:]
    return PimCommand(
        opcode,
        dst=dst,
        src0=sources[0] if len(sources) > 0 else None,
        src1=sources[1] if len(sources) > 1 else None,
        src2=sources[2] if len(sources) > 2 else None,
    )
