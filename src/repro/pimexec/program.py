"""HBM-PIMulator program-trace frontend.

Parses the program-trace dialect of HBM-PIMulator (see
``example.trace`` / ``all_inst.trace`` in that project) into structured
records, annotates per-record dependencies, and lowers the program to
the mixed host+PIM request stream the banked memory system replays::

    # comments and blank lines are ignored
    W MEM 0 2 8          # host write: channel 0, bank 2, row 8
    R MEM 0 2 8          # host read of the same location
    W GPR 0              # host fills a staging register page
    W CFR 0 1            # host writes config register 0 := 1
    AB W                 # all-bank broadcast of the staged page
    PIM MAC GRF,8 BANK,0,3,1 SRF,0   # one all-bank MAC at row 3 col 1
    PIM NOP
    PIM EXIT

Record vocabulary
-----------------
* ``R|W MEM ch bank row`` — a host transaction to an explicit bank
  location;
* ``R|W <address>`` and ``SB R|W <address>`` — single-bank host
  transactions by raw physical address;
* ``R|W GPR i`` — staging-register traffic, mapped to a reserved
  *GPR aperture* row (the highest row of bank 0).  The aperture is one
  row wide, so indices wrap onto its ``pages_per_row`` columns
  (``col = i % pages_per_row``): register *identity* — used by the
  dependency annotations — is always the raw index, while the lowered
  address only shapes timing (wrapped registers share a page and hit
  the open aperture row, like consecutive staging writes in hardware);
* ``R|W CFR i [data]`` — configuration-register traffic (reserved
  aperture row below the GPR row, same wrap rule);
* ``AB W`` — an all-bank register broadcast (:attr:`Op.AB`);
* ``PIM <opcode> [operands]`` — one dynamic PIM instruction per line
  (the trace is the *unrolled* instruction stream, so ``JUMP``/``EXIT``
  are control markers that cost no column access).

Any record may carry a trailing ``@<ns>`` issue timestamp (e.g.
``R MEM 0 2 8 @120.5``): the lowered request then arrives at the
memory system no earlier than that instant, replaying the program
under its recorded issue cadence instead of line-rate injection.
Timestamps must be non-decreasing and uniform — every record or none
(control markers, which lower to no request, may omit theirs).
Untimestamped programs can still be lowered at a fixed cadence via
``to_requests(..., interarrival_ns=...)``.

Dependencies
------------
Each record may name the index of the latest earlier record it must
follow: PIM instructions depend on the most recent kernel/config write
(``AB W`` or ``W CFR``), ``AB W`` depends on the ``W GPR`` that staged
its payload, and reads depend on the matching earlier write (same MEM
location / GPR index / CFR index).  Replay *injects* requests in
program order, but that does not enforce the annotations: under
FR-FCFS the channel controller may serve a host row hit before an older
queued all-bank PIM command (see the ROADMAP "Order hazards" item).
The annotations record what must not move past what.
"""

from __future__ import annotations

import dataclasses
import io
import math
import pathlib
import typing as _t

from ..errors import ConfigError, ProgramFormatError
from ..memsys import MemRequest, MemSysConfig, Op, PackedTrace
from .commands import PimCommand, PimExecError, PimOpcode, parse_command
from .machine import PimExecMachine

__all__ = [
    "ProgramRecord",
    "PimProgram",
    "annotate_dependencies",
    "parse_pim_program",
]

#: Record kinds.
MEM = "mem"
GPR = "gpr"
CFR = "cfr"
AB = "ab"
SB = "sb"
PIM = "pim"


@dataclasses.dataclass(slots=True)
class ProgramRecord:
    """One parsed trace line."""

    lineno: int
    kind: str
    write: bool = False
    channel: int = 0
    bank: int = 0
    row: int = 0
    index: int = 0
    data: _t.Optional[int] = None
    addr: _t.Optional[int] = None
    command: _t.Optional[PimCommand] = None
    #: Index (into the record list) of the latest earlier record this
    #: one must follow, or ``None`` if unconstrained.
    depends_on: _t.Optional[int] = None
    #: Issue timestamp (ns) from a trailing ``@<ns>`` token, or
    #: ``None`` for line-rate issue.
    timestamp: _t.Optional[float] = None


class PimProgram:
    """A parsed HBM-PIMulator program trace."""

    def __init__(self, records: _t.Sequence[ProgramRecord]) -> None:
        self.records = list(records)

    def __len__(self) -> int:
        return len(self.records)

    def counts(self) -> _t.Dict[str, int]:
        """Record-kind histogram (for reports and tests)."""
        out: _t.Dict[str, int] = {}
        for record in self.records:
            out[record.kind] = out.get(record.kind, 0) + 1
        return out

    # ------------------------------------------------------------------
    # lowering
    # ------------------------------------------------------------------
    def _apertures(self, config: MemSysConfig) -> _t.Tuple[int, int]:
        """(gpr_row, cfr_row): reserved register-aperture rows."""
        return config.rows_per_bank - 1, config.rows_per_bank - 2

    def _lowered(
        self, config: MemSysConfig, channel: int = 0
    ) -> _t.Iterator[
        _t.Tuple[ProgramRecord, _t.Optional[Op], int, int, int]
    ]:
        """Yield ``(record, op, addr, row, col)`` per record.

        ``op`` is ``None`` for control markers that cost no request
        (``PIM JUMP`` / ``PIM EXIT``).

        Raises
        ------
        ValueError
            On out-of-range coordinates/addresses, with the trace line
            number in the message.
        """
        amap = config.address_map()
        encode = amap.scalar_encoder()
        ppr = config.timing.pages_per_row
        gpr_row, cfr_row = self._apertures(config)
        per_group = config.banks_per_group
        row, col = 0, 0  # last PIM column access
        for record in self.records:
            lineno = record.lineno
            if record.kind == MEM:
                if not 0 <= record.channel < config.n_channels:
                    raise ProgramFormatError(
                        f"trace line {lineno}: channel {record.channel} "
                        f"out of range [0, {config.n_channels})"
                    )
                if not 0 <= record.bank < config.banks_per_channel:
                    raise ProgramFormatError(
                        f"trace line {lineno}: bank {record.bank} out "
                        f"of range [0, {config.banks_per_channel})"
                    )
                if not 0 <= record.row < config.rows_per_bank:
                    raise ProgramFormatError(
                        f"trace line {lineno}: row {record.row} out of "
                        f"range [0, {config.rows_per_bank})"
                    )
                addr = encode(
                    record.channel,
                    record.bank // per_group,
                    record.bank % per_group,
                    record.row,
                    0,
                )
                yield record, (
                    Op.WRITE if record.write else Op.READ
                ), addr, record.row, 0
            elif record.kind in (GPR, CFR):
                # one-row apertures: the index wraps onto the row's
                # columns (address/timing only — dependency tracking
                # keys on the raw index, never the wrapped address)
                aperture = gpr_row if record.kind == GPR else cfr_row
                addr = encode(channel, 0, 0, aperture, record.index % ppr)
                yield record, (
                    Op.WRITE if record.write else Op.READ
                ), addr, aperture, record.index % ppr
            elif record.kind == SB:
                assert record.addr is not None
                if record.addr >= amap.capacity_bytes:
                    raise ProgramFormatError(
                        f"trace line {lineno}: address "
                        f"{record.addr:#x} beyond the "
                        f"{amap.capacity_bytes:#x}-byte address map"
                    )
                yield record, (
                    Op.WRITE if record.write else Op.READ
                ), record.addr, 0, 0
            elif record.kind == AB:
                addr = encode(channel, 0, 0, row, col)
                yield record, Op.AB, addr, row, col
            else:  # PIM
                command = _t.cast(PimCommand, record.command)
                if command.is_control:
                    yield record, None, 0, row, col
                    continue
                explicit = command.explicit_bank
                if explicit is not None:
                    row = explicit.row  # type: ignore[assignment]
                    col = explicit.col  # type: ignore[assignment]
                if not 0 <= row < config.rows_per_bank:
                    raise ProgramFormatError(
                        f"trace line {lineno}: PIM row {row} out of "
                        f"range [0, {config.rows_per_bank})"
                    )
                if not 0 <= col < ppr:
                    raise ProgramFormatError(
                        f"trace line {lineno}: PIM column {col} out of "
                        f"range [0, {ppr})"
                    )
                addr = encode(channel, 0, 0, row, col)
                yield record, Op.PIM, addr, row, col

    @property
    def timestamped(self) -> bool:
        """Whether the program's request-lowering records carry ``@<ns>``.

        Control markers (``PIM JUMP``/``EXIT``) lower to no request, so
        — exactly like the parser's uniformity rule — a stamp on one of
        them alone does not make the request stream timestamped.
        """
        return any(
            record.timestamp is not None
            for record in self.records
            if record.kind != PIM
            or not _t.cast(PimCommand, record.command).is_control
        )

    def to_requests(
        self,
        config: _t.Optional[MemSysConfig] = None,
        channel: int = 0,
        *,
        interarrival_ns: _t.Optional[float] = None,
        start_ns: float = 0.0,
    ) -> _t.List[MemRequest]:
        """Lower the program to its memory-request stream.

        PIM/AB records target ``channel`` (HBM-PIMulator traces record
        the lockstep command stream of one representative channel).
        Record ``@<ns>`` timestamps travel onto the lowered requests;
        for untimestamped programs, ``interarrival_ns`` stamps the
        ``i``-th emitted request at ``start_ns + i * interarrival_ns``
        (a fixed issue cadence) instead.
        """
        config = config or MemSysConfig()
        if interarrival_ns is not None:
            if self.timestamped:
                raise ConfigError(
                    "program records carry '@<ns>' timestamps; "
                    "interarrival_ns only applies to untimestamped "
                    "programs"
                )
            if not interarrival_ns >= 0.0:
                raise ConfigError(
                    f"interarrival_ns must be >= 0, got "
                    f"{interarrival_ns}"
                )
        requests = []
        for record, op, addr, _row, _col in self._lowered(
            config, channel
        ):
            if op is None:
                continue
            when = record.timestamp
            if interarrival_ns is not None:
                when = start_ns + len(requests) * interarrival_ns
            requests.append(MemRequest(op, addr, when))
        return requests

    def execute(
        self, machine: PimExecMachine, channel: int = 0
    ) -> _t.Dict[int, int]:
        """Run the program on ``machine`` (functional + request stream).

        The whole program is lowered first, so a lowering error leaves
        the machine's units and request log untouched.  PIM
        instructions then execute on every bank of ``channel`` in
        lockstep (mutating GRF/SRF/bank state); host records have no
        functional effect (the text format carries no data payloads —
        stage bank contents through :meth:`PimExecMachine.write_bank`
        first).  Finally the lowered stream, with any record ``@<ns>``
        timestamps, joins the machine's log as one
        :meth:`PimExecMachine.append_trace`.  A timestamped program
        replays timestamped only on its own: clear untimed staging
        requests with :meth:`PimExecMachine.reset_requests` first.
        Returns the ``{cfr_index: data}`` writes seen, for
        config-register checks.
        """
        lowered = [
            item
            for item in self._lowered(machine.config, channel)
            if item[1] is not None
        ]
        trace = PackedTrace.from_requests(
            MemRequest(op, addr, record.timestamp)
            for record, op, addr, _row, _col in lowered
        )
        cfr: _t.Dict[int, int] = {}
        for record, op, _addr, row, col in lowered:
            if op is Op.PIM:
                machine.array.execute(
                    _t.cast(PimCommand, record.command), row, col, (channel,)
                )
            elif record.kind == CFR and record.write:
                cfr[record.index] = (
                    record.data if record.data is not None else 0
                )
        machine.append_trace(trace)
        return cfr

    def __repr__(self) -> str:
        return f"<PimProgram records={len(self.records)} {self.counts()}>"


def annotate_dependencies(records: _t.Sequence[ProgramRecord]) -> None:
    """Set every record's :attr:`~ProgramRecord.depends_on`, in one pass.

    PIM instructions follow the latest ``AB W`` / ``W CFR``; ``AB W``
    follows the latest ``W GPR``; a read follows the latest write of
    the same GPR index, CFR index, or MEM location.  Host ``MEM``
    records also order against PIM instructions touching their row
    (the row :meth:`PimProgram._lowered` gives a ``BANK`` operand: its
    explicit ``row``, else the last explicit one; keyed on the row
    alone, since all-bank PIM spans every channel and bank): a write
    follows the latest PIM instruction reading or writing that row, a
    read the later of its matching ``MEM`` write and the latest PIM
    instruction writing that row.  Other writes and raw single-bank
    (``SB``) records are unconstrained.
    """
    last_config: _t.Optional[int] = None  # latest AB W / W CFR
    last_gpr_any: _t.Optional[int] = None
    last_write: _t.Dict[tuple, int] = {}
    pim_row = 0  # row of the latest explicit PIM BANK operand
    pim_touch: _t.Dict[int, int] = {}  # row -> latest PIM access
    pim_write: _t.Dict[int, int] = {}  # row -> latest PIM bank write
    # only MEM records read the PIM row state; the generated layer
    # traces carry none (their host traffic is SB), so skip it there
    track_rows = any(record.kind == MEM for record in records)
    for index, record in enumerate(records):
        kind = record.kind
        if kind == PIM:
            record.depends_on = last_config
            if not track_rows:
                continue
            command = _t.cast(PimCommand, record.command)
            explicit = command.explicit_bank
            if explicit is not None:
                pim_row = _t.cast(int, explicit.row)
            if any(operand.is_bank for operand in command.operands()):
                pim_touch[pim_row] = index
            if command.dst is not None and command.dst.is_bank:
                pim_write[pim_row] = index
        elif kind == AB:
            record.depends_on = last_gpr_any
            last_config = index
        elif kind == SB:
            record.depends_on = None
        else:
            key = (
                (kind, record.channel, record.bank, record.row)
                if kind == MEM
                else (kind, record.index)
            )
            if record.write:
                record.depends_on = (
                    pim_touch.get(record.row) if kind == MEM else None
                )
                last_write[key] = index
                if kind == GPR:
                    last_gpr_any = index
                elif kind == CFR:
                    last_config = index
            else:
                depends = last_write.get(key, -1)
                if kind == MEM:
                    depends = max(depends, pim_write.get(record.row, -1))
                record.depends_on = depends if depends >= 0 else None


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------
def _source_lines(
    source: _t.Union[str, pathlib.Path, _t.Iterable[str]]
) -> _t.Iterator[str]:
    if isinstance(source, pathlib.Path):
        with source.open("r") as handle:
            yield from handle
    elif isinstance(source, str):
        yield from io.StringIO(source)
    else:
        yield from source


def _int_field(token: str, lineno: int, what: str) -> int:
    try:
        value = int(token.strip('"'), 0)
    except ValueError:
        raise ProgramFormatError(
            f"trace line {lineno}: bad {what} {token!r}"
        ) from None
    if value < 0:
        raise ProgramFormatError(
            f"trace line {lineno}: negative {what} {token!r}"
        )
    return value


def parse_pim_program(
    source: _t.Union[str, pathlib.Path, _t.Iterable[str]]
) -> PimProgram:
    """Parse an HBM-PIMulator program trace.

    Accepts a :class:`~pathlib.Path` (streamed), a ``str`` of trace
    *content*, or any iterable of lines; ``#`` comments and blank lines
    are ignored.

    Raises
    ------
    ValueError
        On malformed lines (unknown record forms, bad integers, wrong
        arity, malformed PIM commands), with the 1-based line number.
    """
    records: _t.List[ProgramRecord] = []
    last_time = 0.0

    for lineno, raw in enumerate(_source_lines(source), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        when: _t.Optional[float] = None
        if len(tokens) > 1 and tokens[-1].startswith("@"):
            stamp = tokens.pop()
            try:
                when = float(stamp[1:])
            except ValueError:
                raise ProgramFormatError(
                    f"trace line {lineno}: bad timestamp {stamp!r}"
                ) from None
            if not (when >= 0.0 and math.isfinite(when)):
                raise ProgramFormatError(
                    f"trace line {lineno}: timestamp {stamp!r} must "
                    "be a non-negative finite value"
                )
            if when < last_time:
                raise ProgramFormatError(
                    f"trace line {lineno}: timestamp {stamp!r} "
                    f"decreases (previous was {last_time!r})"
                )
            last_time = when
        head = tokens[0].upper()
        if head == "PIM":
            try:
                command = parse_command(" ".join(tokens[1:]))
            except PimExecError as error:
                raise ProgramFormatError(
                    f"trace line {lineno}: {error}"
                ) from None
            record = ProgramRecord(lineno, PIM, command=command)
        elif head == "AB":
            if len(tokens) != 2 or tokens[1].upper() != "W":
                raise ProgramFormatError(
                    f"trace line {lineno}: expected 'AB W', got {raw!r}"
                )
            record = ProgramRecord(lineno, AB, write=True)
        elif head in ("R", "W", "SB"):
            if head == "SB":
                if len(tokens) != 3 or tokens[1].upper() not in ("R", "W"):
                    raise ProgramFormatError(
                        f"trace line {lineno}: expected "
                        f"'SB R|W ADDRESS', got {raw!r}"
                    )
                write = tokens[1].upper() == "W"
                rest = tokens[2:]
            else:
                write = head == "W"
                rest = tokens[1:]
            if not rest:
                raise ProgramFormatError(
                    f"trace line {lineno}: truncated record {raw!r}"
                )
            target = rest[0].upper()
            if target == "GPR":
                if len(rest) != 2:
                    raise ProgramFormatError(
                        f"trace line {lineno}: expected "
                        f"'{head} GPR INDEX', got {raw!r}"
                    )
                idx = _int_field(rest[1], lineno, "GPR index")
                record = ProgramRecord(lineno, GPR, write=write, index=idx)
            elif target == "CFR":
                if len(rest) not in (2, 3):
                    raise ProgramFormatError(
                        f"trace line {lineno}: expected "
                        f"'{head} CFR INDEX [DATA]', got {raw!r}"
                    )
                idx = _int_field(rest[1], lineno, "CFR index")
                data = (
                    _int_field(rest[2], lineno, "CFR data")
                    if len(rest) == 3
                    else None
                )
                record = ProgramRecord(
                    lineno, CFR, write=write, index=idx, data=data
                )
            elif target == "MEM":
                if len(rest) != 4:
                    raise ProgramFormatError(
                        f"trace line {lineno}: expected "
                        f"'{head} MEM CHANNEL BANK ROW', got {raw!r}"
                    )
                record = ProgramRecord(
                    lineno, MEM, write=write,
                    channel=_int_field(rest[1], lineno, "channel"),
                    bank=_int_field(rest[2], lineno, "bank"),
                    row=_int_field(rest[3], lineno, "row"),
                )
            elif len(rest) == 1:
                addr = _int_field(rest[0], lineno, "address")
                record = ProgramRecord(
                    lineno, SB, write=write, addr=addr
                )
            else:
                raise ProgramFormatError(
                    f"trace line {lineno}: unknown record form {raw!r}"
                )
        else:
            raise ProgramFormatError(
                f"trace line {lineno}: unknown record {tokens[0]!r} "
                "(expected R/W/SB/AB/PIM)"
            )
        record.timestamp = when
        records.append(record)

    # a lowered request stream must be uniformly timestamped or
    # uniformly line-rate; control markers lower to no request, so
    # their (missing) timestamps don't count
    lowered = [
        record
        for record in records
        if record.kind != PIM
        or not _t.cast(PimCommand, record.command).is_control
    ]
    timed = sum(1 for record in lowered if record.timestamp is not None)
    if timed and timed != len(lowered):
        offender = next(
            record for record in lowered if record.timestamp is None
        )
        raise ProgramFormatError(
            f"trace line {offender.lineno}: record lacks the '@<ns>' "
            "timestamp carried by other records (timestamp every "
            "request-lowering record or none)"
        )
    annotate_dependencies(records)
    return PimProgram(records)
