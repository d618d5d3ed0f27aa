"""Reference lowering of program traces (tests only).

:func:`lowered` is the per-record lowering loop
:meth:`~repro.pimexec.PimProgram.to_requests` used before it lowered
whole columns at once: it walks the records in program order, keeps
the last explicit ``BANK`` operand's row/col in two locals, encodes
one address per record with the scalar encoder, and raises at the
first out-of-range record.  :func:`requests` and :func:`execute` are
the request-stream and machine paths built on it.  They share no code
with the columnar lowering beyond the address map, so agreement
between the two is evidence about the production path rather than a
copy comparing against itself.
"""

from __future__ import annotations

import typing as _t

from repro.errors import ConfigError, ProgramFormatError
from repro.memsys import MemRequest, MemSysConfig, Op, PackedTrace
from repro.pimexec import PimExecMachine
from repro.pimexec.commands import PimCommand
from repro.pimexec.program import AB, CFR, GPR, MEM, SB, PimProgram


def lowered(
    program: PimProgram, config: MemSysConfig, channel: int = 0
) -> _t.Iterator[_t.Tuple[_t.Any, _t.Optional[Op], int, int, int]]:
    """Yield ``(record, op, addr, row, col)`` per record.

    ``op`` is ``None`` for control markers that cost no request
    (``PIM JUMP`` / ``PIM EXIT``).  Out-of-range coordinates raise
    :class:`~repro.errors.ProgramFormatError` with the trace line.
    """
    amap = config.address_map()
    encode = amap.scalar_encoder()
    ppr = config.timing.pages_per_row
    gpr_row, cfr_row = config.rows_per_bank - 1, config.rows_per_bank - 2
    per_group = config.banks_per_group
    row, col = 0, 0  # last PIM column access
    for record in program.records:
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


def requests(
    program: PimProgram,
    config: MemSysConfig,
    channel: int = 0,
    *,
    interarrival_ns: _t.Optional[float] = None,
    start_ns: float = 0.0,
) -> PackedTrace:
    """The program's request stream, one :class:`MemRequest` per
    lowering record, packed the way a replay packs an object trace."""
    if interarrival_ns is not None:
        if program.timestamped:
            raise ConfigError(
                "program records carry '@<ns>' timestamps; "
                "interarrival_ns only applies to untimestamped "
                "programs"
            )
        if not interarrival_ns >= 0.0:
            raise ConfigError(
                f"interarrival_ns must be >= 0, got {interarrival_ns}"
            )
    stream = []
    for record, op, addr, _row, _col in lowered(program, config, channel):
        if op is None:
            continue
        when = record.timestamp
        if interarrival_ns is not None:
            when = start_ns + len(stream) * interarrival_ns
        stream.append(MemRequest(op, addr, when))
    return PackedTrace.from_requests(stream)


def execute(
    program: PimProgram, machine: PimExecMachine, channel: int = 0
) -> _t.Dict[int, int]:
    """Run ``program`` on ``machine`` record by record: lower it whole,
    execute each PIM record at its row/col, append the stream."""
    items = [
        item
        for item in lowered(program, machine.config, channel)
        if item[1] is not None
    ]
    trace = PackedTrace.from_requests(
        MemRequest(op, addr, record.timestamp)
        for record, op, addr, _row, _col in items
    )
    cfr: _t.Dict[int, int] = {}
    for record, op, _addr, row, col in items:
        if op is Op.PIM:
            machine.array.execute(record.command, row, col, (channel,))
        elif record.kind == CFR and record.write:
            cfr[record.index] = record.data if record.data is not None else 0
    machine.append_trace(trace)
    return cfr
