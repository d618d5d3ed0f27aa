"""Tests for the execution unit and the command sequencer.

Every unit case runs twice (the ``make_unit`` fixture): on the
tests-only oracle :class:`BankExecUnit` and on the production grid's
one-unit case, ``VectorUnitArray(1, 1, lanes).execute(cmd, row, col,
(0, 0))``.
"""

import numpy as np
import pytest

from repro.pimexec import (
    CommandSequencer,
    Operand,
    PimCommand,
    PimExecError,
    PimOpcode,
    parse_command,
)

LANES = 16


@pytest.fixture
def unit(make_unit):
    return make_unit(LANES)


def cmd(text):
    return parse_command(text)


class TestExecUnit:
    def test_unwritten_pages_read_as_zero(self, unit):
        assert np.array_equal(unit.load_page(3, 1), np.zeros(LANES))

    def test_store_and_load_page_copies(self, unit):
        page = np.arange(LANES, dtype=float)
        unit.store_page(2, 0, page)
        page[0] = 99.0
        assert unit.load_page(2, 0)[0] == 0.0

    def test_store_rejects_wrong_width(self, unit):
        with pytest.raises(PimExecError, match="lanes"):
            unit.store_page(0, 0, [1.0, 2.0])

    def test_add_mul(self, unit):
        unit.grf_a[0] = np.full(LANES, 3.0)
        unit.grf_a[1] = np.full(LANES, 4.0)
        unit.execute(cmd("ADD GRF_B,0 GRF_A,0 GRF_A,1"))
        assert np.array_equal(unit.grf_b[0], np.full(LANES, 7.0))
        unit.execute(cmd("MUL GRF_B,1 GRF_A,0 GRF_A,1"))
        assert np.array_equal(unit.grf_b[1], np.full(LANES, 12.0))

    def test_mac_accumulates(self, unit):
        unit.grf_b[0] = np.full(LANES, 1.0)
        unit.store_page(0, 0, np.arange(LANES, dtype=float))
        unit.srf[0] = 2.0
        unit.execute(cmd("MAC GRF_B,0 BANK SRF,0"), row=0, col=0)
        assert np.array_equal(
            unit.grf_b[0], 1.0 + np.arange(LANES) * 2.0
        )

    def test_mad_uses_srf1_addend_by_default(self, unit):
        unit.srf[1] = 5.0  # HBM-PIM's SRF_M
        unit.grf_a[0] = np.full(LANES, 3.0)
        unit.grf_a[1] = np.full(LANES, 4.0)
        unit.execute(cmd("MAD GRF_B,0 GRF_A,0 GRF_A,1"))
        assert np.array_equal(unit.grf_b[0], np.full(LANES, 17.0))

    def test_mov_and_fill_between_bank_and_grf(self, unit):
        page = np.arange(LANES, dtype=float)
        unit.store_page(4, 2, page)
        unit.execute(cmd("FILL GRF_A,0 BANK"), row=4, col=2)
        assert np.array_equal(unit.grf_a[0], page)
        unit.execute(cmd("MOV BANK GRF_A,0"), row=4, col=3)
        assert np.array_equal(unit.load_page(4, 3), page)

    def test_explicit_bank_coordinates_override_access(self, unit):
        unit.store_page(7, 1, np.full(LANES, 9.0))
        unit.execute(cmd("FILL GRF_A,0 BANK,0,7,1"), row=0, col=0)
        assert np.array_equal(unit.grf_a[0], np.full(LANES, 9.0))

    def test_srf_reads_broadcast_over_lanes(self, unit):
        unit.srf[3] = 2.5
        unit.execute(cmd("MOV GRF_A,0 SRF,3"))
        assert np.array_equal(unit.grf_a[0], np.full(LANES, 2.5))

    def test_nop_counts_but_mutates_nothing(self, unit):
        before = unit.grf_a.copy()
        unit.execute(cmd("NOP"))
        assert unit.commands_executed == 1
        assert np.array_equal(unit.grf_a, before)

    def test_control_commands_rejected(self, unit):
        with pytest.raises(PimExecError, match="sequencer control"):
            unit.execute(cmd("EXIT"))


class TestCommandSequencer:
    def _sum_kernel(self, count):
        return [
            cmd("ADD GRF_B,0 BANK GRF_B,0"),
            PimCommand(PimOpcode.JUMP, target=0, count=count),
            cmd("EXIT"),
        ]

    def test_jump_loops_exactly_count_plus_one_times(self):
        seq = CommandSequencer()
        seq.load(self._sum_kernel(count=4))
        walk = [(0, c) for c in range(8)]
        steps = list(seq.run(walk))
        assert len(steps) == 5
        assert [col for _c, _r, col in steps] == [0, 1, 2, 3, 4]

    def test_jump_rearms_for_reentry(self):
        # two loops in one kernel: the first JUMP must re-arm
        seq = CommandSequencer()
        seq.load(
            [
                cmd("ADD GRF_B,0 BANK GRF_B,0"),
                PimCommand(PimOpcode.JUMP, target=0, count=1),
                cmd("ADD GRF_B,1 BANK GRF_B,1"),
                PimCommand(PimOpcode.JUMP, target=2, count=1),
                cmd("EXIT"),
            ]
        )
        steps = list(seq.run([(0, c) for c in range(4)]))
        assert len(steps) == 4

    def test_register_only_steps_repeat_the_address(self):
        seq = CommandSequencer()
        seq.load(
            [
                cmd("FILL GRF_A,0 BANK"),
                cmd("MAC GRF_B,0 GRF_A,0 SRF,0"),
                cmd("EXIT"),
            ]
        )
        steps = list(seq.run([(5, 2)]))
        assert [(r, c) for _cmd, r, c in steps] == [(5, 2), (5, 2)]

    def test_walk_exhaustion_raises(self):
        seq = CommandSequencer()
        seq.load(self._sum_kernel(count=3))
        with pytest.raises(PimExecError, match="walk exhausted"):
            list(seq.run([(0, 0)]))

    def test_missing_exit_rejected_at_load(self):
        seq = CommandSequencer()
        with pytest.raises(PimExecError, match="EXIT"):
            seq.load([cmd("NOP")])

    def test_crf_capacity_enforced(self):
        seq = CommandSequencer(crf_size=2)
        with pytest.raises(PimExecError, match="CRF holds 2"):
            seq.load(self._sum_kernel(count=1))

    def test_jump_target_bounds_checked(self):
        seq = CommandSequencer()
        with pytest.raises(PimExecError, match="JUMP target"):
            seq.load(
                [
                    PimCommand(PimOpcode.JUMP, target=9, count=1),
                    cmd("EXIT"),
                ]
            )

    def test_max_steps_guard(self):
        seq = CommandSequencer(max_steps=10)
        seq.load(self._sum_kernel(count=100))
        with pytest.raises(PimExecError, match="max_steps"):
            list(seq.run([(0, c % 8) for c in range(200)]))

    def test_run_requires_loaded_kernel(self):
        with pytest.raises(PimExecError, match="no kernel"):
            list(CommandSequencer().run([(0, 0)]))
