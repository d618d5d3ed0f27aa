"""Tests for the PIM command vocabulary and its trace syntax."""

import pytest

from repro.pimexec import (
    Operand,
    PimCommand,
    PimExecError,
    PimOpcode,
    parse_command,
)


class TestOperandParsing:
    def test_grf_alias_splits_at_eight(self):
        # the HBM-PIM encoding: GRF_A is 0-7, GRF_B is 8-15
        a = Operand.parse("GRF,3")
        b = Operand.parse("GRF,11")
        assert (a.space, a.index) == ("grf_a", 3)
        assert (b.space, b.index) == ("grf_b", 3)

    def test_explicit_spaces(self):
        assert Operand.parse("GRF_A,7").space == "grf_a"
        assert Operand.parse("GRF_B,0").space == "grf_b"
        assert Operand.parse("SRF,5").index == 5

    def test_bank_forms(self):
        plain = Operand.parse("BANK")
        assert plain.is_bank and plain.is_implicit_bank
        unit = Operand.parse("BANK,1")
        assert unit.unit == 1 and unit.is_implicit_bank
        rowcol = Operand.parse("BANK,12,3")
        assert (rowcol.row, rowcol.col) == (12, 3)
        assert not rowcol.is_implicit_bank
        full = Operand.parse("BANK,0,12,3")
        assert (full.unit, full.row, full.col) == (0, 12, 3)

    def test_rejects_bad_operands(self):
        with pytest.raises(PimExecError, match="unknown operand space"):
            Operand.parse("CRF,0")
        with pytest.raises(PimExecError, match="non-integer"):
            Operand.parse("GRF,x")
        with pytest.raises(PimExecError, match="out of range"):
            Operand.parse("GRF,16")
        with pytest.raises(PimExecError, match="out of range"):
            Operand.parse("SRF,9")
        with pytest.raises(PimExecError, match="too many fields"):
            Operand.parse("BANK,1,2,3,4")

    def test_register_operands_refuse_coordinates(self):
        with pytest.raises(PimExecError, match="only valid on BANK"):
            Operand("srf", 0, row=1, col=1)
        with pytest.raises(PimExecError, match="both row and col"):
            Operand("bank", 0, row=1)

    def test_round_trip_text(self):
        for text in ("BANK,0,12,3", "GRF_B,2", "SRF,0"):
            assert str(Operand.parse(text)) == text


class TestCommandValidation:
    def test_arity_enforced(self):
        with pytest.raises(PimExecError, match="destination"):
            PimCommand(PimOpcode.ADD)
        with pytest.raises(PimExecError, match="source"):
            PimCommand(
                PimOpcode.MOV,
                dst=Operand.grf_a(0),
                src0=Operand.bank(),
                src1=Operand.bank(),
            )
        with pytest.raises(PimExecError, match="no destination"):
            PimCommand(PimOpcode.NOP, dst=Operand.grf_a(0))

    def test_srf_cannot_be_destination(self):
        with pytest.raises(PimExecError, match="SRF is host-written"):
            PimCommand(
                PimOpcode.ADD,
                dst=Operand.srf(0),
                src0=Operand.bank(),
                src1=Operand.srf(1),
            )

    def test_only_mad_takes_third_source(self):
        with pytest.raises(PimExecError, match="only MAD"):
            PimCommand(
                PimOpcode.ADD,
                dst=Operand.grf_a(0),
                src0=Operand.bank(),
                src1=Operand.srf(0),
                src2=Operand.srf(1),
            )

    def test_jump_fields_validated(self):
        with pytest.raises(PimExecError, match="target"):
            PimCommand(PimOpcode.JUMP, target=-1)
        with pytest.raises(PimExecError, match="no jump"):
            PimCommand(
                PimOpcode.MOV,
                dst=Operand.grf_a(0),
                src0=Operand.bank(),
                count=3,
            )


class TestCommandParsing:
    def test_trace_style_mac(self):
        command = parse_command("PIM MAC GRF,8 BANK,0 SRF,0".replace("PIM ", ""))
        assert command.opcode is PimOpcode.MAC
        assert command.dst.space == "grf_b"
        assert command.src0.is_bank
        assert command.src1.space == "srf"

    def test_uses_implicit_bank(self):
        implicit = parse_command("ADD GRF,0 BANK GRF,0")
        explicit = parse_command("ADD GRF,0 BANK,0,3,1 GRF,0")
        assert implicit.uses_implicit_bank
        assert not explicit.uses_implicit_bank
        assert explicit.explicit_bank.row == 3

    def test_jump_and_controls(self):
        jump = parse_command("JUMP 0 7")
        assert (jump.target, jump.count) == (0, 7)
        assert parse_command("JUMP").count == 0
        assert parse_command("EXIT").is_control
        assert not parse_command("NOP").is_control

    def test_errors(self):
        with pytest.raises(PimExecError, match="unknown PIM opcode"):
            parse_command("FMA GRF,0 BANK SRF,0")
        with pytest.raises(PimExecError, match="takes 3 operand"):
            parse_command("MAC GRF,0 BANK")
        with pytest.raises(PimExecError, match="takes no operands"):
            parse_command("EXIT GRF,0")
        with pytest.raises(PimExecError, match="JUMP"):
            parse_command("JUMP 3")
        with pytest.raises(PimExecError, match="empty"):
            parse_command("   ")


class TestParseCache:
    """``parse_command`` memoizes on the text, never on a failure."""

    def test_equal_text_shares_one_command(self):
        text = "MAC GRF,8 BANK SRF,0"
        first = parse_command(text)
        rebuilt = " ".join(text.split())  # equal, not the same str
        assert rebuilt is not text
        assert parse_command(rebuilt) is first
        assert parse_command("MAC GRF,9 BANK SRF,0") is not first
        assert parse_command("MAC GRF,9 BANK SRF,0") == parse_command(
            "MAC  GRF,9 BANK SRF,0"
        )

    @pytest.mark.parametrize(
        "text", ["FMA GRF,0 BANK SRF,0", "MAC GRF,0 BANK", "JUMP 3", ""]
    )
    def test_malformed_text_raises_every_call(self, text):
        for _ in range(3):
            with pytest.raises(PimExecError):
                parse_command(text)
