"""Bank-group (half-bank) execution mode and dtype plumbing.

Unit-level cases run on the tests-only oracle unit and on the
production grid's one-unit case (the ``make_unit`` fixture).
"""

import numpy as np
import pytest

from repro.memsys import MemSysConfig, Op
from repro.pimexec import (
    DTYPES,
    Operand,
    PimCommand,
    PimExecError,
    PimExecMachine,
    PimOpcode,
)


class TestOperandUnitSelector:
    def test_even_odd_selectors_parse(self):
        assert Operand.parse("BANK,0").unit == 0
        assert Operand.parse("BANK,1").unit == 1
        assert Operand.parse("BANK,1,3,2").unit == 1

    def test_selector_out_of_range_rejected(self):
        with pytest.raises(PimExecError, match="even.*odd|0.*1"):
            Operand.parse("BANK,2")

    def test_selector_only_on_bank_operands(self):
        with pytest.raises(PimExecError, match="BANK"):
            Operand("grf_a", 0, unit=1)


class TestUnitPorts:
    def test_ports_partition_the_data_array(self, make_unit):
        unit = make_unit(4, ports=2)
        unit.store_page(0, 0, [1.0] * 4, port=0)
        unit.store_page(0, 0, [2.0] * 4, port=1)
        assert np.all(unit.load_page(0, 0, 0) == 1.0)
        assert np.all(unit.load_page(0, 0, 1) == 2.0)

    def test_port_out_of_range(self, make_unit):
        unit = make_unit(4)
        with pytest.raises(PimExecError, match="port"):
            unit.load_page(0, 0, port=1)

    def test_operand_unit_selects_the_port(self, make_unit):
        unit = make_unit(4, ports=2)
        unit.store_page(0, 0, [3.0] * 4, port=0)
        unit.store_page(0, 0, [5.0] * 4, port=1)
        unit.execute(
            PimCommand(
                PimOpcode.ADD,
                dst=Operand.grf_b(0),
                src0=Operand.bank(unit=0),
                src1=Operand.bank(unit=1),
            ),
            0,
            0,
        )
        assert np.all(unit.grf_b[0] == 8.0)

    def test_single_port_units_ignore_the_selector(self, make_unit):
        """Per-bank machines keep the PR-3 behavior: recorded, ignored."""
        unit = make_unit(4)
        unit.store_page(0, 0, [7.0] * 4)
        unit.execute(
            PimCommand(
                PimOpcode.FILL, dst=Operand.grf_a(0),
                src0=Operand.bank(unit=1),
            )
        )
        assert np.all(unit.grf_a[0] == 7.0)


class TestMachineMode:
    def test_group_mode_halves_the_units(self):
        config = MemSysConfig()
        per_bank = PimExecMachine(config)
        grouped = PimExecMachine(config, bank_groups=True)
        assert grouped.units_per_channel == per_bank.units_per_channel // 2
        assert grouped.total_units == per_bank.total_units // 2
        assert grouped.ports == 2

    def test_group_mode_requires_even_banks(self):
        config = MemSysConfig(bankgroups=1, banks_per_group=1)
        with pytest.raises(PimExecError, match="even"):
            PimExecMachine(config, bank_groups=True)

    def test_write_bank_routes_even_odd_to_ports(self):
        machine = PimExecMachine(bank_groups=True)
        machine.write_bank(0, 0, 0, 0, [1.0] * machine.lanes)  # even
        machine.write_bank(0, 1, 0, 0, [2.0] * machine.lanes)  # odd
        unit = machine.unit(0, 0)
        assert np.all(unit.load_page(0, 0, 0) == 1.0)
        assert np.all(unit.load_page(0, 0, 1) == 2.0)
        assert np.all(machine.read_bank(0, 1, 0, 0) == 2.0)

    def test_step_emits_one_all_bank_request_in_both_modes(self):
        for bank_groups in (False, True):
            machine = PimExecMachine(bank_groups=bank_groups)
            machine.pim_step(
                0,
                PimCommand(
                    PimOpcode.FILL,
                    dst=Operand.grf_a(0),
                    src0=Operand.bank(),
                ),
                0,
                0,
            )
            assert [r.op for r in machine.trace()] == [Op.PIM]

    def test_even_odd_dataflow_through_a_shared_unit(self):
        """x in even banks, y in odd banks: one ADD combines them
        without any host transfer — the bank-group dataflow win."""
        machine = PimExecMachine(bank_groups=True)
        lanes = machine.lanes
        for k in range(machine.units_per_channel):
            machine.write_bank(0, 2 * k, 0, 0, [4.0] * lanes)
            machine.write_bank(0, 2 * k + 1, 0, 0, [6.0] * lanes)
        machine.pim_step(
            0,
            PimCommand(
                PimOpcode.ADD,
                dst=Operand.grf_b(0),
                src0=Operand.bank(unit=0),
                src1=Operand.bank(unit=1),
            ),
            0,
            0,
        )
        for k in range(machine.units_per_channel):
            assert np.all(machine.unit(0, k).grf_b[0] == 10.0)


class TestDtype:
    def test_dtypes_registry(self):
        assert DTYPES["fp16"] == np.dtype(np.float16)
        assert DTYPES["fp64"] == np.dtype(np.float64)

    def test_unknown_dtype_rejected(self, make_unit):
        with pytest.raises(PimExecError, match="dtype"):
            PimExecMachine(dtype="fp32")
        with pytest.raises(PimExecError, match="dtype"):
            make_unit(4, dtype="int8")

    def test_fp16_machine_rounds_everywhere(self):
        machine = PimExecMachine(dtype="fp16")
        value = 1.0 + 2.0 ** -13  # rounds to 1.0 in binary16
        machine.write_bank(0, 0, 0, 0, [value] * machine.lanes)
        assert np.all(machine.read_bank(0, 0, 0, 0) == np.float16(1.0))
        machine.broadcast_scalar(0, 0, value)
        assert machine.unit(0, 0).srf[0] == np.float16(1.0)
        machine.broadcast_page(0, "grf_a", 0, [value] * machine.lanes)
        assert np.all(machine.unit(0, 0).grf_a[0] == np.float16(1.0))

    def test_fp64_default_keeps_the_idealized_model(self):
        machine = PimExecMachine()
        assert machine.dtype == "fp64"
        assert machine.unit(0, 0).grf_a.dtype == np.float64

    def test_srf_broadcast_reads_in_dtype(self, make_unit):
        unit = make_unit(4, dtype="fp16")
        unit.srf[0] = 0.1  # rounds to binary16 0.1
        unit.execute(
            PimCommand(
                PimOpcode.MOV, dst=Operand.grf_a(0), src0=Operand.srf(0)
            )
        )
        page = unit.grf_a[0]
        assert page.dtype == np.float16
        assert np.all(page == np.float16(0.1))
