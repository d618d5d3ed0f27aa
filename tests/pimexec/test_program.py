"""Tests for the HBM-PIMulator program-trace frontend."""

import pathlib

import numpy as np
import pytest

from repro.memsys import MemSysConfig, MemorySystem, Op
from repro.pimexec import PimExecMachine, parse_pim_program

EXAMPLE = """\
# Physical layout header, as in HBM-PIMulator example traces
# R/W GPR [GPR_id]
W MEM 0 2 8
W MEM 1 2 9

W GPR 0
W GPR 1
W CFR 0 1
AB W

PIM MAC GRF,8 BANK,0,3,0 SRF,0
PIM ADD GRF,8 BANK,0,3,1 GRF,8
PIM MUL GRF,9 BANK,0,3,2 GRF,8
PIM NOP
PIM JUMP
PIM EXIT

R MEM 0 2 8
R GPR 0
R CFR 0 1
"""


class TestParsing:
    def test_counts_and_comment_blank_handling(self):
        program = parse_pim_program(EXAMPLE)
        assert program.counts() == {
            "mem": 3, "gpr": 3, "cfr": 2, "ab": 1, "pim": 6,
        }

    def test_accepts_paths(self, tmp_path):
        path = tmp_path / "program.trace"
        path.write_text(EXAMPLE)
        assert len(parse_pim_program(path)) == len(
            parse_pim_program(EXAMPLE)
        )

    def test_raw_address_and_sb_records(self):
        program = parse_pim_program("W 4096\nSB R 0x40\n")
        assert [r.kind for r in program.records] == ["sb", "sb"]
        assert program.records[0].write
        assert not program.records[1].write

    def test_cfr_quoted_index(self):
        # the HBM-PIMulator docs quote the CFR id: R/W CFR "0" data
        program = parse_pim_program('W CFR "0" 5\n')
        record = program.records[0]
        assert (record.index, record.data) == (0, 5)


class TestDependencies:
    def test_pim_depends_on_latest_kernel_write(self):
        program = parse_pim_program(EXAMPLE)
        records = program.records
        ab_index = next(
            i for i, r in enumerate(records) if r.kind == "ab"
        )
        for record in records:
            if record.kind == "pim":
                assert record.depends_on == ab_index

    def test_reads_depend_on_matching_writes(self):
        program = parse_pim_program(EXAMPLE)
        records = program.records
        mem_read = next(
            r for r in records if r.kind == "mem" and not r.write
        )
        assert records[mem_read.depends_on].kind == "mem"
        assert records[mem_read.depends_on].write
        assert records[mem_read.depends_on].row == 8
        gpr_read = next(
            r for r in records if r.kind == "gpr" and not r.write
        )
        assert records[gpr_read.depends_on].write

    def test_ab_depends_on_staging_gpr_write(self):
        program = parse_pim_program(EXAMPLE)
        records = program.records
        ab = next(r for r in records if r.kind == "ab")
        assert records[ab.depends_on].kind == "gpr"

    def test_unmatched_read_has_no_dependency(self):
        program = parse_pim_program("R MEM 0 0 5\n")
        assert program.records[0].depends_on is None

    #: Host MEM records around PIM instructions; each line's comment
    #: names the record index it must depend on.
    HOST_PIM = """\
W MEM 0 0 3
AB W
PIM FILL GRF,8 BANK,0,3,0
PIM MOV BANK,0,5,0 GRF,8
PIM MAC GRF,8 BANK SRF,0
W MEM 1 2 3
W MEM 0 0 5
R MEM 0 0 3
R MEM 1 1 5
R MEM 0 0 5
PIM MOV BANK,0,3,1 GRF,8
R MEM 0 0 3
W MEM 2 3 7
PIM NOP
W MEM 0 1 5
"""

    def test_host_mem_orders_against_same_row_pim(self):
        records = parse_pim_program(self.HOST_PIM).records
        assert [r.depends_on for r in records] == [
            None,  # W MEM row 3: no PIM yet
            None,  # AB W: no GPR write
            1, 1, 1,  # PIM follow the AB
            2,  # W MEM row 3 after a PIM read of row 3 (WAR), any bank
            4,  # W MEM row 5: the implicit BANK walks the last explicit
            #     row (5), so the MAC read is the latest touch
            0,  # R MEM row 3: no PIM wrote row 3 yet -> its MEM write
            3,  # R MEM row 5 on an unwritten bank: the PIM MOV (RAW)
            6,  # R MEM row 5: its MEM write is later than the PIM MOV
            1,  # PIM MOV row 3
            10,  # R MEM row 3: the PIM write is later than the MEM one
            None,  # W MEM row 7: no PIM touched it
            1,  # PIM NOP
            4,  # W MEM row 5: the NOP touches no bank, and the MOV
            #     at 10 moved the last explicit row to 3
        ]


class TestErrors:
    def test_unknown_record_with_line_number(self):
        with pytest.raises(ValueError, match="trace line 2"):
            parse_pim_program("W MEM 0 0 0\nFOO BAR\n")

    def test_truncated_records(self):
        with pytest.raises(ValueError, match="truncated"):
            parse_pim_program("W\n")
        with pytest.raises(ValueError, match="GPR INDEX"):
            parse_pim_program("W GPR\n")
        with pytest.raises(ValueError, match="CHANNEL BANK ROW"):
            parse_pim_program("R MEM 0 1\n")

    def test_bad_integers(self):
        with pytest.raises(ValueError, match="bad channel"):
            parse_pim_program("W MEM x 0 0\n")
        with pytest.raises(ValueError, match="negative"):
            parse_pim_program("W MEM -1 0 0\n")
        with pytest.raises(ValueError, match="bad address"):
            parse_pim_program("SB W zz\n")

    def test_malformed_pim_commands_carry_line_numbers(self):
        with pytest.raises(ValueError, match="trace line 1.*opcode"):
            parse_pim_program("PIM FMA GRF,0 BANK SRF,0\n")
        with pytest.raises(ValueError, match="trace line 2"):
            parse_pim_program("PIM NOP\nPIM MAC GRF,0\n")

    def test_malformed_ab(self):
        with pytest.raises(ValueError, match="AB W"):
            parse_pim_program("AB R\n")

    def test_out_of_range_coordinates_at_lowering(self):
        config = MemSysConfig()
        with pytest.raises(ValueError, match="channel 9"):
            parse_pim_program("W MEM 9 0 0\n").to_requests(config)
        with pytest.raises(ValueError, match="bank 64"):
            parse_pim_program("W MEM 0 64 0\n").to_requests(config)
        with pytest.raises(ValueError, match="row"):
            parse_pim_program("W MEM 0 0 999999\n").to_requests(config)
        with pytest.raises(ValueError, match="PIM row"):
            parse_pim_program(
                "PIM FILL GRF,0 BANK,0,999999,0\n"
            ).to_requests(config)
        with pytest.raises(ValueError, match="beyond"):
            parse_pim_program("W 0xffffffffff\n").to_requests(config)


class TestLowering:
    def test_request_mix_and_ops(self):
        config = MemSysConfig()
        program = parse_pim_program(EXAMPLE)
        requests = parse_pim_program(EXAMPLE).to_requests(config)
        # JUMP and EXIT cost no column access
        assert len(requests) == len(program) - 2
        ops = [r.op for r in requests]
        assert ops.count(Op.PIM) == 4  # MAC, ADD, MUL, NOP
        assert ops.count(Op.AB) == 1
        assert ops.count(Op.WRITE) == 5
        assert ops.count(Op.READ) == 3

    def test_stream_replays_through_memory_system(self):
        config = MemSysConfig()
        requests = parse_pim_program(EXAMPLE).to_requests(config)
        stats = MemorySystem(config).replay(requests)
        assert stats.n_requests == len(requests)
        assert stats.makespan_ns > 0


class TestExecution:
    def test_grf_state_matches_numpy_reference_bit_exactly(self):
        machine = PimExecMachine(MemSysConfig())
        lanes = machine.lanes
        rng = np.random.default_rng(8)
        pages = rng.standard_normal((3, lanes))
        scalar = 1.5
        for bank in range(machine.banks_per_channel):
            unit = machine.unit(0, bank)
            unit.srf[0] = scalar
            for col in range(3):
                unit.store_page(3, col, pages[col])
        machine.reset_requests()
        cfr = parse_pim_program(EXAMPLE).execute(machine)
        assert cfr == {0: 1}
        result = machine.replay()
        assert result.n_pim == 4
        # reference, in executed order:
        grf_b0 = pages[0] * np.full(lanes, scalar)       # MAC into 0
        grf_b0 = pages[1] + grf_b0                       # ADD
        grf_b1 = pages[2] * grf_b0                       # MUL
        for bank in range(machine.banks_per_channel):
            unit = machine.unit(0, bank)
            assert np.array_equal(unit.grf_b[0], grf_b0)
            assert np.array_equal(unit.grf_b[1], grf_b1)

    def test_lowering_error_leaves_machine_untouched(self):
        """The program lowers whole before anything runs: a bad record
        after a PIM instruction changes neither the units nor the log."""
        machine = PimExecMachine(MemSysConfig())
        machine.write_bank(0, 0, 3, 0, np.arange(machine.lanes, dtype=float))
        program = parse_pim_program(
            "PIM ADD GRF,8 BANK,0,3,0 GRF,8\nR MEM 9 0 0\n"
        )
        before = (machine.array.grf_b.tobytes(), machine.trace())
        executed = machine.array.commands_executed.copy()
        with pytest.raises(ValueError, match="line 2: channel 9"):
            program.execute(machine)
        assert (machine.array.grf_b.tobytes(), machine.trace()) == before
        assert np.array_equal(machine.array.commands_executed, executed)


class TestTimestamps:
    """The trailing ``@<ns>`` issue-timestamp column."""

    PROGRAM = (
        "W GPR 0 @0\n"
        "AB W @8\n"
        "W CFR 0 1 @16\n"
        "PIM MAC GRF,8 BANK,0,3,1 SRF,0 @24\n"
        "PIM EXIT\n"          # control marker: no request, no stamp
        "R MEM 0 2 8 @40\n"
    )

    def test_records_carry_timestamps(self):
        program = parse_pim_program(self.PROGRAM)
        assert program.timestamped
        stamps = [
            r.timestamp for r in program.records if r.kind != "pim"
        ]
        assert stamps == [0.0, 8.0, 16.0, 40.0]

    def test_lowered_requests_carry_timestamps(self):
        program = parse_pim_program(self.PROGRAM)
        requests = program.to_requests()
        assert [r.timestamp for r in requests] == [
            0.0, 8.0, 16.0, 24.0, 40.0,
        ]

    def test_execute_stamps_machine_requests(self):
        from repro.pimexec import PimExecMachine

        program = parse_pim_program(self.PROGRAM)
        machine = PimExecMachine()
        program.execute(machine)
        assert [r.timestamp for r in machine.trace()] == [
            0.0, 8.0, 16.0, 24.0, 40.0,
        ]
        result = machine.replay()
        assert result.n_requests == 5
        assert result.makespan_ns >= 40.0

    def test_untimed_staging_left_in_the_log_is_named(self):
        """Staging writes left in the log cannot replay beside a
        timestamped program: the error counts them and names the fix."""
        machine = PimExecMachine()
        machine.write_bank(0, 0, 3, 1, np.zeros(machine.lanes))
        machine.write_bank(0, 1, 3, 1, np.zeros(machine.lanes))
        parse_pim_program(self.PROGRAM).execute(machine)
        with pytest.raises(
            ValueError, match=r"2 untimestamped.*reset_requests\(\)"
        ):
            machine.replay()
        machine.reset_requests()
        parse_pim_program(self.PROGRAM).execute(machine)
        assert machine.replay().n_requests == 5

    def test_mixed_timestamps_rejected_with_line_number(self):
        with pytest.raises(ValueError, match="line 2.*timestamp"):
            parse_pim_program("W GPR 0 @0\nAB W\n")

    def test_control_markers_may_omit_timestamps(self):
        program = parse_pim_program(
            "W GPR 0 @0\nAB W @4\nPIM NOP @8\nPIM EXIT\n"
        )
        assert program.timestamped

    def test_bad_timestamp_rejected(self):
        with pytest.raises(ValueError, match="bad timestamp"):
            parse_pim_program("W GPR 0 @zzz\n")

    def test_decreasing_timestamp_rejected(self):
        with pytest.raises(ValueError, match="line 2.*decreases"):
            parse_pim_program("W GPR 0 @9\nR GPR 0 @3\n")

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError, match="non-negative finite"):
            parse_pim_program("W GPR 0 @-4\n")

    def test_infinite_timestamp_rejected(self):
        with pytest.raises(ValueError, match="non-negative finite"):
            parse_pim_program("W GPR 0 @inf\n")

    def test_stamp_on_control_marker_alone_is_not_timestamped(self):
        """Control markers lower to no request: a stamp on one alone
        leaves the request stream line-rate, and interarrival_ns still
        applies."""
        program = parse_pim_program("W GPR 0\nPIM EXIT @5\n")
        assert not program.timestamped
        requests = program.to_requests(interarrival_ns=4.0)
        assert [r.timestamp for r in requests] == [0.0]

    def test_interarrival_stamps_untimestamped_programs(self):
        program = parse_pim_program("W GPR 0\nAB W\nPIM NOP\nPIM EXIT\n")
        requests = program.to_requests(interarrival_ns=5.0, start_ns=2.0)
        assert [r.timestamp for r in requests] == [2.0, 7.0, 12.0]

    def test_interarrival_conflicts_with_record_stamps(self):
        program = parse_pim_program("W GPR 0 @0\nAB W @4\n")
        with pytest.raises(ValueError, match="interarrival_ns"):
            program.to_requests(interarrival_ns=5.0)

    def test_negative_interarrival_rejected(self):
        program = parse_pim_program("W GPR 0\n")
        with pytest.raises(ValueError, match="interarrival_ns"):
            program.to_requests(interarrival_ns=-1.0)
