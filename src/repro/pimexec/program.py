"""HBM-PIMulator program-trace frontend.

Parses the program-trace dialect of HBM-PIMulator (see
``example.trace`` / ``all_inst.trace`` in that project) into structured
records, annotates per-record dependencies, and lowers the program to
the mixed host+PIM request stream the banked memory system replays — a
:class:`~repro.memsys.PackedTrace` built in one pass over whole
columns, no request objects in between::

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
import math
import pathlib
import typing as _t

import numpy as np

from ..errors import ConfigError, ProgramFormatError, TraceFormatError
from ..memsys import Coordinates, MemSysConfig, Op, PackedTrace
from ..memsys.trace import _source_lines, arrival_times
from .commands import PimCommand, PimExecError, parse_command
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

#: Column codes of the record kinds.  The order matters: GPR and up
#: are addressed through the lowering's ``channel``, AB and PIM access
#: the last explicit ``BANK`` operand's row/col.
_KIND_CODES = {k: c for c, k in enumerate((MEM, SB, GPR, CFR, AB, PIM))}


def _ints(values: _t.Sequence[_t.Any]) -> np.ndarray:
    """``values`` as ``int64``, or as objects if one overflows ``int64``
    (the range checks then reject it with its exact value)."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _pim_facts(command: PimCommand) -> _t.Tuple[bool, bool, int, int]:
    """``(live, explicit, row, col)``: control markers are not live;
    ``row``/``col`` are the explicit ``BANK`` operand's, else 0."""
    bank = None if command.is_control else command.explicit_bank
    if bank is None:
        return not command.is_control, False, 0, 0
    return True, True, _t.cast(int, bank.row), _t.cast(int, bank.col)


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


def _lowers(record: ProgramRecord) -> bool:
    """Whether ``record`` lowers to a request (control markers do not)."""
    command = _t.cast(PimCommand, record.command)
    return record.kind != PIM or not command.is_control


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
    def _columns(
        self, config: MemSysConfig, channel: int
    ) -> _t.Tuple[_t.Any, ...]:
        """Lower every record at once: ``(op_codes, addrs, times, keep,
        rows, cols)``, one entry per request-lowering record (``keep``
        indexes them); ``times`` are the records' stamps (``None``
        without), ``rows``/``cols`` the column access each executes at.
        """
        records = self.records
        n, n_rows = len(records), config.rows_per_bank
        ppr = config.timing.pages_per_row
        amap = config.address_map()
        kinds = np.array([_KIND_CODES[r.kind] for r in records], np.int8)
        mem, sb, gpr, cfr, ab, pim = (
            np.flatnonzero(kinds == code) for code in range(6)
        )
        mem_channels, mem_banks, mem_rows = _ints(
            [(records[i].channel, records[i].bank, records[i].row)
             for i in mem.tolist()]
        ).reshape(-1, 3).T
        sb_addrs = _ints([records[i].addr for i in sb.tolist()])
        # (live, explicit, row, col), once per distinct PIM command
        distinct: _t.Dict[PimCommand, int] = {}
        ids = [distinct.setdefault(records[i].command, len(distinct))
               for i in pim.tolist()]
        facts = _ints([_pim_facts(c) for c in distinct]).reshape(-1, 4)[ids]
        live = np.ones(n, dtype=bool)
        live[pim] = facts[:, 0] != 0
        explicit_rows, explicit_cols = facts[facts[:, 1] != 0, 2:].T
        explicit = pim[facts[:, 1] != 0]
        # records addressed through ``channel``: GPR, CFR, AB, live PIM
        routed = np.flatnonzero(live & (kinds >= _KIND_CODES[GPR]))

        # the first offending record in program order wins; one record
        # fails the first of its checks, the lowering channel's last
        failures: _t.List[_t.Tuple[int, int, _t.Optional[str]]] = []
        for rank, (at, values, bound, what) in enumerate((
            (mem, mem_channels, config.n_channels, "channel"),
            (mem, mem_banks, config.banks_per_channel, "bank"),
            (mem, mem_rows, n_rows, "row"),
            (explicit, explicit_rows, n_rows, "PIM row"),
            (explicit, explicit_cols, ppr, "PIM column"),
        )):
            bad = (values < 0) | (values >= bound)
            if bad.any():
                k = int(np.argmax(bad))
                failures.append((int(at[k]), rank, (
                    f"{what} {values[k]} out of range [0, {bound})"
                )))
        beyond = sb_addrs >= amap.capacity_bytes
        if beyond.any():
            k = int(np.argmax(beyond))
            failures.append((int(sb[k]), 0, (
                f"address {sb_addrs[k]:#x} beyond the "
                f"{amap.capacity_bytes:#x}-byte address map"
            )))
        if routed.size and not 0 <= channel < config.n_channels:
            failures.append((int(routed[0]), 5, None))
        if failures:
            index, _, message = min(failures)
            if message is None:  # the encoder's error for the channel
                amap.encode(Coordinates(channel=channel))
            raise _line_error(records[index].lineno, _t.cast(str, message))

        channels, banks, rows, cols = np.zeros((4, n), dtype=np.int64)
        channels[mem], banks[mem] = mem_channels, mem_banks
        rows[mem] = mem_rows
        channels[routed] = channel
        # one-row register apertures: the index wraps onto the row's
        # columns (address/timing only — dependency tracking keys on
        # the raw index, never the wrapped address)
        rows[gpr], rows[cfr] = n_rows - 1, n_rows - 2
        regs = np.union1d(gpr, cfr)
        cols[regs] = _ints([records[i].index for i in regs.tolist()]) % ppr
        # AB and PIM records access the last explicit BANK operand's
        # row/col, (0, 0) before the first one: a forward fill
        slot = np.zeros(n, dtype=np.int64)
        slot[explicit] = np.arange(1, explicit.size + 1)
        slot = np.maximum.accumulate(slot)[kinds >= _KIND_CODES[AB]]
        rows[kinds >= _KIND_CODES[AB]] = np.append(0, explicit_rows)[slot]
        cols[kinds >= _KIND_CODES[AB]] = np.append(0, explicit_cols)[slot]
        per_group = config.banks_per_group
        addrs = amap.encode_fields(dict(
            channel=channels, bankgroup=banks // per_group,
            bank=banks % per_group, row=rows, column=cols,
        ))
        addrs[sb] = sb_addrs

        writes = np.array([r.write for r in records], dtype=bool)
        op_codes = np.where(writes, Op.WRITE.code, Op.READ.code)
        op_codes[ab], op_codes[pim] = Op.AB.code, Op.PIM.code
        keep = np.flatnonzero(live)
        stamps = np.array([r.timestamp for r in records], dtype=object)
        untimed = np.equal(stamps[keep], None)
        times = None
        if not untimed.all():
            if untimed.any():
                raise TraceFormatError(
                    "trace mixes timestamped and untimestamped requests; "
                    "timestamp every request or none"
                )
            times = stamps[keep].astype(np.float64)
        return op_codes[keep], addrs[keep], times, keep, rows[keep], cols[keep]

    @property
    def timestamped(self) -> bool:
        """Whether the program's request-lowering records carry ``@<ns>``.

        Control markers (``PIM JUMP``/``EXIT``) lower to no request, so
        — exactly like the parser's uniformity rule — a stamp on one of
        them alone does not make the request stream timestamped.
        """
        return any(r.timestamp is not None for r in self.records if _lowers(r))

    def to_requests(
        self,
        config: _t.Optional[MemSysConfig] = None,
        channel: int = 0,
        *,
        interarrival_ns: _t.Optional[float] = None,
        start_ns: float = 0.0,
    ) -> PackedTrace:
        """Lower the program to its packed memory-request stream.

        One request per record, control markers excepted, in program
        order; :meth:`MemorySystem.replay` takes the trace as it is,
        and iterating it yields :class:`~repro.memsys.MemRequest`
        objects.  PIM/AB records target ``channel`` (HBM-PIMulator
        traces record the lockstep command stream of one
        representative channel).  Record ``@<ns>`` timestamps travel
        onto the requests; for untimestamped programs,
        ``interarrival_ns`` stamps the ``i``-th request at ``start_ns +
        i * interarrival_ns`` (a fixed issue cadence, see
        :func:`~repro.memsys.trace.arrival_times`; a negative or
        non-finite ``interarrival_ns`` or ``start_ns`` raises a
        :class:`~repro.errors.ConfigError` naming it) instead.  The first
        out-of-range record in program order raises a
        :class:`~repro.errors.ProgramFormatError` naming its trace line.
        """
        config = config or MemSysConfig()
        if interarrival_ns is not None and self.timestamped:
            raise ConfigError(
                "program records carry '@<ns>' timestamps; "
                "interarrival_ns only applies to untimestamped programs"
            )
        op_codes, addrs, times = self._columns(config, channel)[:3]
        if interarrival_ns is not None and op_codes.size:
            times = arrival_times(
                op_codes.size, interarrival_ns, start_ns=start_ns
            )
        return PackedTrace(op_codes, addrs, times)

    def execute(
        self, machine: PimExecMachine, channel: int = 0
    ) -> _t.Dict[int, int]:
        """Run the program on ``machine`` (functional + request stream).

        The whole program is lowered first, into the same columns
        :meth:`to_requests` packs, so a lowering error leaves the
        machine's units and request log untouched.  PIM instructions
        then execute on every bank of ``channel`` in lockstep
        (mutating GRF/SRF/bank state); host records have no functional
        effect (the text format carries no data payloads — stage bank
        contents through :meth:`PimExecMachine.write_bank` first).
        Finally the lowered stream, with any record ``@<ns>``
        timestamps, joins the machine's log as one
        :meth:`PimExecMachine.append_trace`.  A timestamped program
        replays timestamped only on its own: clear untimed staging
        requests with :meth:`PimExecMachine.reset_requests` first.
        Returns the ``{cfr_index: data}`` writes seen, for
        config-register checks.
        """
        op_codes, addrs, times, keep, rows, cols = self._columns(
            machine.config, channel
        )
        trace = PackedTrace(op_codes, addrs, times)
        pim = op_codes == Op.PIM.code
        for index, row, col in zip(
            keep[pim].tolist(), rows[pim].tolist(), cols[pim].tolist()
        ):
            command = _t.cast(PimCommand, self.records[index].command)
            machine.array.execute(command, row, col, (channel,))
        machine.append_trace(trace)
        return {
            r.index: r.data if r.data is not None else 0
            for r in self.records if r.kind == CFR and r.write
        }

    def __repr__(self) -> str:
        return f"<PimProgram records={len(self.records)} {self.counts()}>"


def annotate_dependencies(records: _t.Sequence[ProgramRecord]) -> None:
    """Set every record's :attr:`~ProgramRecord.depends_on`, in one pass.

    PIM instructions follow the latest ``AB W`` / ``W CFR``; ``AB W``
    follows the latest ``W GPR``; a read follows the latest write of
    the same GPR index, CFR index, or MEM location.  Host ``MEM``
    records also order against PIM instructions touching their row
    (the row the lowering gives a ``BANK`` operand: its explicit
    ``row``, else the last explicit one; keyed on the row
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
def _line_error(lineno: int, message: str) -> ProgramFormatError:
    return ProgramFormatError(f"trace line {lineno}: {message}", lineno=lineno)


def _int_field(token: str, lineno: int, what: str) -> int:
    try:
        value = int(token.strip('"'), 0)
    except ValueError:
        raise _line_error(lineno, f"bad {what} {token!r}") from None
    if value < 0:
        raise _line_error(lineno, f"negative {what} {token!r}")
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
                raise _line_error(
                    lineno, f"bad timestamp {stamp!r}"
                ) from None
            if not (when >= 0.0 and math.isfinite(when)):
                raise _line_error(
                    lineno,
                    f"timestamp {stamp!r} must be a non-negative finite "
                    "value",
                )
            if when < last_time:
                raise _line_error(
                    lineno,
                    f"timestamp {stamp!r} decreases (previous was "
                    f"{last_time!r})",
                )
            last_time = when
        head = tokens[0].upper()
        if head == "PIM":
            try:
                command = parse_command(" ".join(tokens[1:]))
            except PimExecError as error:
                raise _line_error(lineno, str(error)) from None
            record = ProgramRecord(lineno, PIM, command=command)
        elif head == "AB":
            if len(tokens) != 2 or tokens[1].upper() != "W":
                raise _line_error(lineno, f"expected 'AB W', got {raw!r}")
            record = ProgramRecord(lineno, AB, write=True)
        elif head in ("R", "W", "SB"):
            if head == "SB":
                if len(tokens) != 3 or tokens[1].upper() not in ("R", "W"):
                    raise _line_error(
                        lineno, f"expected 'SB R|W ADDRESS', got {raw!r}"
                    )
                write = tokens[1].upper() == "W"
                rest = tokens[2:]
            else:
                write = head == "W"
                rest = tokens[1:]
            if not rest:
                raise _line_error(lineno, f"truncated record {raw!r}")
            target = rest[0].upper()
            if target == "GPR":
                if len(rest) != 2:
                    raise _line_error(
                        lineno, f"expected '{head} GPR INDEX', got {raw!r}"
                    )
                idx = _int_field(rest[1], lineno, "GPR index")
                record = ProgramRecord(lineno, GPR, write=write, index=idx)
            elif target == "CFR":
                if len(rest) not in (2, 3):
                    raise _line_error(
                        lineno,
                        f"expected '{head} CFR INDEX [DATA]', got {raw!r}",
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
                    raise _line_error(
                        lineno,
                        f"expected '{head} MEM CHANNEL BANK ROW', got "
                        f"{raw!r}",
                    )
                record = ProgramRecord(
                    lineno, MEM, write=write,
                    channel=_int_field(rest[1], lineno, "channel"),
                    bank=_int_field(rest[2], lineno, "bank"),
                    row=_int_field(rest[3], lineno, "row"),
                )
            elif len(rest) == 1:
                addr = _int_field(rest[0], lineno, "address")
                record = ProgramRecord(lineno, SB, write=write, addr=addr)
            else:
                raise _line_error(lineno, f"unknown record form {raw!r}")
        else:
            raise _line_error(
                lineno,
                f"unknown record {tokens[0]!r} (expected R/W/SB/AB/PIM)",
            )
        record.timestamp = when
        records.append(record)

    # a lowered request stream must be uniformly timestamped or
    # uniformly line-rate; control markers lower to no request, so
    # their (missing) timestamps don't count
    lowered = [record for record in records if _lowers(record)]
    untimed = [record for record in lowered if record.timestamp is None]
    if untimed and len(untimed) != len(lowered):
        raise _line_error(
            untimed[0].lineno,
            "record lacks the '@<ns>' timestamp carried by other records "
            "(timestamp every request-lowering record or none)",
        )
    annotate_dependencies(records)
    return PimProgram(records)
