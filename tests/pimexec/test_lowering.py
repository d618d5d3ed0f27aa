"""The columnar program lowering against the per-record reference.

:meth:`PimProgram.to_requests` and :meth:`PimProgram.execute` lower a
whole program in one column pass.  The generated properties here draw
programs mixing all six record kinds and hold both to the per-record
loop in ``tests/pimexec/lowering_oracle.py``: the same packed stream
byte for byte, or the same exception with the same message; and after
``execute``, the same unit state and the same request log.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arch.dram import DramMacroTiming
from repro.memsys import SCHEMES, MemSysConfig
from repro.pimexec import PimExecMachine, parse_command, parse_pim_program
from repro.pimexec.program import (
    AB,
    CFR,
    GPR,
    MEM,
    PIM,
    SB,
    PimProgram,
    ProgramRecord,
)

from tests.memsys.test_refresh import property_settings
from tests.pimexec import lowering_oracle

#: PIM instructions: explicit ``BANK,row,col`` operands, implicit
#: ``BANK`` operands (the last explicit row/col, ``(0, 0)`` before
#: the first), and the control markers that lower to no request.
PIM_TEMPLATES = (
    "MAC GRF,8 BANK,{row},{col} SRF,0",
    "FILL GRF,1 BANK,{row},{col}",
    "MOV BANK,{row},{col} GRF,9",
    "ADD GRF,9 BANK GRF,8",
    "MOV BANK GRF,1",
    "NOP",
    "JUMP 0 2",
    "EXIT",
)

#: Out-of-range records, each replacing the record at a drawn position.
FAULTS = ("mem channel", "mem bank", "mem row", "sb address", "pim row",
          "pim column")

#: How far past its range a faulty field lies: just past, or past
#: ``int64`` (the reference formats the exact value).
EXCESS = (0, 3, 2**64)

#: One record's draws.  Every record draws every field, so that every
#: example draws the same choices in the same order; kinds share the
#: integer fields.
RECORD = st.tuples(
    st.sampled_from((MEM, GPR, CFR, AB, SB, PIM, PIM, PIM)),
    st.booleans(),  # write
    st.integers(0, 63),  # MEM channel, PIM column, CFR data
    st.integers(0, 63),  # MEM bank; GPR/CFR index, wrapping past a row
    st.integers(0, 63),  # MEM row, PIM row
    st.integers(0, 2**40),  # SB address, reduced mod the capacity
    st.sampled_from(PIM_TEMPLATES),
    st.sampled_from((0.0, 0.5, 4.0, 7.25)),  # gap to the stamp
    st.booleans(),  # a control marker carries its stamp
    st.integers(1, 3),  # trace-line gap
)

FAULT = st.tuples(
    st.sampled_from(FAULTS), st.integers(0, 15), st.sampled_from(EXCESS)
)


def _record(config, lineno, stamp, draw_tuple):
    (kind, write, small, index, row, addr, template, _gap,
     control_stamped, _step) = draw_tuple
    if kind == MEM:
        record = ProgramRecord(
            lineno, MEM, write=write,
            channel=small % config.n_channels,
            bank=index % config.banks_per_channel,
            row=row % config.rows_per_bank,
        )
    elif kind in (GPR, CFR):
        data = small % 11 - 1
        record = ProgramRecord(
            lineno, kind, write=write, index=index,
            data=None if data < 0 or kind == GPR else data,
        )
    elif kind == AB:
        record = ProgramRecord(lineno, AB, write=True)
    elif kind == SB:
        capacity = config.address_map().capacity_bytes
        record = ProgramRecord(lineno, SB, write=write, addr=addr % capacity)
    else:
        command = parse_command(
            template.format(
                row=row % config.rows_per_bank,
                col=small % config.timing.pages_per_row,
            )
        )
        record = ProgramRecord(lineno, PIM, command=command)
        if command.is_control and not control_stamped:
            stamp = None
    record.timestamp = stamp
    return record


def _fault(config, record, fault, excess):
    """``record``'s line and stamp on an out-of-range record."""
    lineno, stamp = record.lineno, record.timestamp
    if fault.startswith("mem"):
        fields = dict(channel=0, bank=0, row=0)
        field, bound = {
            "mem channel": ("channel", config.n_channels),
            "mem bank": ("bank", config.banks_per_channel),
            "mem row": ("row", config.rows_per_bank),
        }[fault]
        fields[field] = bound + excess
        bad = ProgramRecord(lineno, MEM, **fields)
    elif fault == "sb address":
        capacity = config.address_map().capacity_bytes
        bad = ProgramRecord(lineno, SB, addr=capacity + excess)
    else:
        row, col = 0, 0
        if fault == "pim row":
            row = config.rows_per_bank + excess
        else:
            col = config.timing.pages_per_row + excess
        bad = ProgramRecord(
            lineno, PIM,
            command=parse_command(f"MAC GRF,8 BANK,{row},{col} SRF,0"),
        )
    bad.timestamp = stamp
    return bad


@st.composite
def lowering_cases(draw):
    """A configuration, a program and how to lower it.

    1, 2 or 4 channels and a lowering ``channel`` among them (one draw
    in eight is out of range); programs of 1 to 16 records of every
    kind, with zero, one or two out-of-range records; records stamped,
    unstamped, stamped all but one, or unstamped and lowered at an
    ``interarrival_ns`` cadence.
    """
    config = MemSysConfig(
        n_channels=draw(st.sampled_from((1, 2, 4))),
        rows_per_bank=draw(st.sampled_from((16, 64))),
        timing=DramMacroTiming(row_bits=draw(st.sampled_from((1024, 2048)))),
        scheme=draw(st.sampled_from(sorted(SCHEMES))),
    )
    choice = draw(st.integers(0, 7))
    channel = config.n_channels if choice == 7 else choice % config.n_channels
    draws = draw(st.lists(RECORD, min_size=16, max_size=16))
    n_records = draw(st.integers(1, 16))
    stamps = draw(st.sampled_from(("none", "stamped", "partial", "cadence")))
    unstamped_at = draw(st.integers(0, 15))
    faults = draw(st.tuples(FAULT, FAULT))
    n_faults = draw(st.sampled_from((0, 0, 0, 1, 2)))
    interarrival_ns = draw(st.sampled_from((0.0, 2.5, 4.0)))
    start_ns = draw(st.sampled_from((0.0, 3.0)))

    records = []
    lineno, when = 0, 0.0
    for draw_tuple in draws[:n_records]:
        lineno += draw_tuple[-1]
        when += draw_tuple[-3]
        stamp = when if stamps in ("stamped", "partial") else None
        records.append(_record(config, lineno, stamp, draw_tuple))
    for fault, at, excess in faults[:n_faults]:
        at %= n_records
        records[at] = _fault(config, records[at], fault, excess)
    if stamps == "partial":
        records[unstamped_at % n_records].timestamp = None
    if stamps != "cadence":
        interarrival_ns = None
    return config, channel, PimProgram(records), interarrival_ns, start_ns


def _outcome(lower):
    """``lower()``'s packed columns, or its exception type and text."""
    try:
        trace = lower()
    except ValueError as error:
        return type(error), str(error)
    return (
        trace.op_codes.tobytes(),
        trace.addrs.tobytes(),
        None if trace.times is None else trace.times.tobytes(),
    )


@property_settings(300)
@given(lowering_cases())
def test_to_requests_matches_reference(case):
    """The column lowering packs the reference's stream byte for byte,
    or raises its exception with its message."""
    config, channel, program, interarrival_ns, start_ns = case
    knobs = dict(interarrival_ns=interarrival_ns, start_ns=start_ns)
    assert _outcome(
        lambda: program.to_requests(config, channel, **knobs)
    ) == _outcome(
        lambda: lowering_oracle.requests(program, config, channel, **knobs)
    )


def _staged(config):
    """A machine with seeded bank pages and registers, empty log."""
    machine = PimExecMachine(config)
    rng = np.random.default_rng(5)
    for channel in range(config.n_channels):
        for bank in range(config.banks_per_channel):
            for row in range(2):
                for col in range(config.timing.pages_per_row):
                    machine.write_bank(
                        channel, bank, row, col,
                        rng.uniform(-4.0, 4.0, machine.lanes),
                    )
    for registers in (machine.array.grf_a, machine.array.grf_b,
                      machine.array.srf):
        registers[...] = rng.uniform(-2.0, 2.0, registers.shape)
    machine.reset_requests()
    return machine


def _state(machine, outcome):
    array = machine.array
    pages = sorted(
        (key, page.tobytes()) for key, page in array.memory.items()
    )
    log = _outcome(machine.trace) if machine.n_requests else None
    return (
        outcome, array.grf_a.tobytes(), array.grf_b.tobytes(),
        array.srf.tobytes(), array.commands_executed.tobytes(), pages, log,
    )


def _run(execute, machine):
    try:
        outcome = execute(machine)
    except ValueError as error:
        outcome = type(error), str(error)
    return _state(machine, outcome)


@property_settings(150)
@given(lowering_cases())
def test_execute_matches_reference(case):
    """``execute`` leaves the units, the CFR writes and the request log
    exactly as the per-record reference does, errors included."""
    config, channel, program, _interarrival, _start = case
    assert _run(
        lambda machine: program.execute(machine, channel), _staged(config)
    ) == _run(
        lambda machine: lowering_oracle.execute(program, machine, channel),
        _staged(config),
    )


class TestFirstOffenderWins:
    """Two bad records of different kinds: the earlier line's error."""

    MEM_BAD = "W MEM 9 0 0"
    PIM_BAD = "PIM FILL GRF,0 BANK,0,999999,0"
    SB_BAD = "W 0xffffffffff"

    @pytest.mark.parametrize(
        "first, second, message",
        [
            (MEM_BAD, PIM_BAD, "trace line 2: channel 9"),
            (PIM_BAD, MEM_BAD, "trace line 2: PIM row 999999"),
            (SB_BAD, PIM_BAD, "trace line 2: address 0xffffffffff"),
            (PIM_BAD, SB_BAD, "trace line 2: PIM row 999999"),
        ],
    )
    def test_earlier_line_wins(self, first, second, message):
        program = parse_pim_program(
            f"W GPR 0\n{first}\nPIM NOP\n{second}\n"
        )
        with pytest.raises(ValueError, match=message):
            program.to_requests(MemSysConfig())

    def test_bad_lowering_channel_reports_its_first_record(self):
        """An out-of-range ``channel`` is the error of the first record
        addressed through it, unless an earlier record is bad."""
        config = MemSysConfig()
        program = parse_pim_program("W MEM 0 0 0\nPIM EXIT\nAB W\n")
        with pytest.raises(ValueError, match="channel=2 does not fit"):
            program.to_requests(config, channel=2)
        bad_first = parse_pim_program("W MEM 0 0 999999\nAB W\n")
        with pytest.raises(ValueError, match="line 1: row 999999"):
            bad_first.to_requests(config, channel=2)
        only_host = parse_pim_program("W MEM 0 0 0\nPIM EXIT\n")
        assert len(only_host.to_requests(config, channel=2)) == 1
