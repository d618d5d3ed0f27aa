"""IEEE-binary16 edge cases of the fp16-faithful execution units.

These tests *pin* the fp16 semantics ``docs/nn.md`` documents: numpy
``float16`` is the reference implementation, so every claim here is
checked both against the machine and against the binary16 facts it
relies on (saturation threshold, subnormal range, NaN rules, and the
non-associativity of rounded addition).  Unit-level cases run on the
tests-only oracle unit and on the production grid's one-unit case (the
``make_unit`` fixture).
"""

import warnings

import numpy as np
import pytest

from repro.pimexec import Operand, PimCommand, PimExecMachine, PimOpcode

F16 = np.float16
#: Largest finite binary16 value.
F16_MAX = 65504.0
#: Smallest positive *normal* binary16 value (2^-14).
F16_TINY = 2.0 ** -14
#: Smallest positive subnormal binary16 value (2^-24).
F16_DENORM_MIN = 2.0 ** -24


@pytest.fixture
def fp16_unit(make_unit):
    """``fp16_unit(lanes=4)``: an fp16 unit of either implementation."""
    return lambda lanes=4: make_unit(lanes, dtype="fp16")


def _add(dst, src0, src1):
    return PimCommand(PimOpcode.ADD, dst=dst, src0=src0, src1=src1)


class TestOverflow:
    def test_store_page_saturates_to_inf_without_warning(self, fp16_unit):
        unit = fp16_unit()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unit.store_page(0, 0, [1e6, -1e6, 1.0, F16_MAX])
        assert unit.load_page(0, 0).tolist() == [
            np.inf, -np.inf, 1.0, F16_MAX,
        ]

    def test_machine_host_stores_saturate_without_warning(self):
        machine = PimExecMachine(dtype="fp16")
        big = np.full(machine.lanes, 1e6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            machine.unit(0, 0).store_page(0, 0, big)
            machine.write_bank(1, 2, 0, 1, big)
            machine.write_unit_pages(
                [(0, 2)], np.full((1, machine.total_units, machine.lanes), 1e6)
            )
            machine.broadcast_scalars([1e6, -1e6])
            machine.broadcast_scalar(0, 2, 1e6)
            machine.broadcast_page(0, "grf_a", 0, [1e6] * machine.lanes)
        pages = [
            machine.unit(0, 0).load_page(0, 0),
            machine.unit(1, 2).load_page(0, 1),
            machine.read_unit_pages([(0, 2)]),
            machine.unit(0, 1).grf_a[0],
        ]
        assert all(np.all(page == np.inf) for page in pages)
        assert machine.unit(1, 3).srf[:2].tolist() == [np.inf, -np.inf]
        assert machine.unit(0, 3).srf[2] == np.inf

    def test_add_overflows_to_inf(self, fp16_unit):
        unit = fp16_unit()
        unit.store_page(0, 0, [60000.0, -60000.0, 1.0, F16_MAX])
        unit.store_page(0, 1, [60000.0, -60000.0, 1.0, F16_MAX / 2])
        unit.grf_a[0] = unit.load_page(0, 0)
        unit.grf_a[1] = unit.load_page(0, 1)
        unit.execute(
            _add(Operand.grf_b(0), Operand.grf_a(0), Operand.grf_a(1))
        )
        with np.errstate(over="ignore"):
            reference = F16(
                [60000.0, -60000.0, 1.0, F16_MAX]
            ) + F16([60000.0, -60000.0, 1.0, F16_MAX / 2])
        assert np.array_equal(unit.grf_b[0], reference)
        assert unit.grf_b[0][0] == np.inf
        assert unit.grf_b[0][1] == -np.inf
        assert np.isfinite(unit.grf_b[0][2])

    def test_mac_chain_saturates_and_stays_inf(self, fp16_unit):
        """Once an accumulator overflows, further MACs keep it inf."""
        unit = fp16_unit(lanes=2)
        unit.store_page(0, 0, [30000.0, 1.0])
        unit.srf[0] = 4.0
        mac = PimCommand(
            PimOpcode.MAC,
            dst=Operand.grf_b(0),
            src0=Operand.bank(),
            src1=Operand.srf(0),
        )
        reference = np.zeros(2, dtype=F16)
        page = F16([30000.0, 1.0])
        with np.errstate(over="ignore"):
            for _ in range(3):
                unit.execute(mac, 0, 0)
                reference = reference + page * np.full(2, F16(4.0))
        assert np.array_equal(unit.grf_b[0], reference)
        assert unit.grf_b[0][0] == np.inf  # 30000*4 > 65504
        assert unit.grf_b[0][1] == F16(12.0)


class TestSubnormals:
    def test_gradual_underflow_preserves_subnormals(self, fp16_unit):
        """numpy float16 does NOT flush subnormals to zero — a MUL
        whose exact result is below the smallest normal (2^-14) keeps
        its subnormal value, down to 2^-24."""
        unit = fp16_unit()
        unit.store_page(0, 0, [F16_TINY, F16_DENORM_MIN * 2, 1.0, 0.0])
        unit.grf_a[0] = unit.load_page(0, 0)
        unit.srf[0] = 0.5
        unit.execute(
            PimCommand(
                PimOpcode.MUL,
                dst=Operand.grf_b(0),
                src0=Operand.grf_a(0),
                src1=Operand.srf(0),
            )
        )
        result = unit.grf_b[0]
        assert result[0] == F16(F16_TINY / 2)  # subnormal, not 0
        assert 0.0 < float(result[0]) < F16_TINY
        assert result[1] == F16(F16_DENORM_MIN)  # smallest subnormal
        assert result[2] == F16(0.5)

    def test_underflow_below_denorm_min_rounds_to_zero(self, fp16_unit):
        unit = fp16_unit(lanes=1)
        unit.grf_a[0] = np.array([F16_DENORM_MIN], dtype=F16)
        unit.srf[0] = 0.25
        unit.execute(
            PimCommand(
                PimOpcode.MUL,
                dst=Operand.grf_b(0),
                src0=Operand.grf_a(0),
                src1=Operand.srf(0),
            )
        )
        assert unit.grf_b[0][0] == F16(0.0)

    def test_store_page_rounds_float64_to_binary16(self, fp16_unit):
        unit = fp16_unit(lanes=2)
        unit.store_page(0, 0, [1.0 + 2.0 ** -12, 1e-9])
        page = unit.load_page(0, 0)
        # 1 + 2^-12 is below half an ulp at 1.0 (2^-11): rounds to 1
        assert page[0] == F16(1.0)
        assert page[1] == F16(0.0) or 0 < page[1] < F16_TINY

class TestNanPropagation:
    def test_nan_propagates_through_a_mac_chain(self, fp16_unit):
        unit = fp16_unit(lanes=3)
        unit.store_page(0, 0, [1.0, np.nan, 2.0])
        unit.srf[0] = 3.0
        mac = PimCommand(
            PimOpcode.MAC,
            dst=Operand.grf_b(0),
            src0=Operand.bank(),
            src1=Operand.srf(0),
        )
        for _ in range(4):
            unit.execute(mac, 0, 0)
        result = unit.grf_b[0]
        assert not np.isnan(result[0]) and not np.isnan(result[2])
        assert np.isnan(result[1])  # poisoned lane stays poisoned

    def test_inf_minus_inf_is_nan(self, fp16_unit):
        unit = fp16_unit(lanes=1)
        unit.grf_a[0] = np.array([np.inf], dtype=F16)
        unit.grf_a[1] = np.array([-np.inf], dtype=F16)
        unit.execute(
            _add(Operand.grf_b(0), Operand.grf_a(0), Operand.grf_a(1))
        )
        assert np.isnan(unit.grf_b[0][0])

    def test_zero_times_inf_is_nan_under_mad(self, fp16_unit):
        unit = fp16_unit(lanes=1)
        unit.grf_a[0] = np.array([0.0], dtype=F16)
        unit.grf_a[1] = np.array([np.inf], dtype=F16)
        unit.srf[1] = 1.0  # MAD's implicit addend (SRF_M)
        unit.execute(
            PimCommand(
                PimOpcode.MAD,
                dst=Operand.grf_b(0),
                src0=Operand.grf_a(0),
                src1=Operand.grf_a(1),
            )
        )
        assert np.isnan(unit.grf_b[0][0])


    @pytest.mark.parametrize(
        "opcode,reference",
        [
            (PimOpcode.ADD, lambda dst, a, b, m: a + b),
            (PimOpcode.MUL, lambda dst, a, b, m: a * b),
            (PimOpcode.MAC, lambda dst, a, b, m: dst + a * b),
            (PimOpcode.MAD, lambda dst, a, b, m: a * b + m),
        ],
    )
    def test_nan_payloads_follow_the_operand_order(
        self, fp16_unit, opcode, reference
    ):
        """Two NaN operands with different payloads: which one survives
        depends on the order of each rounded step, so raw bytes pin the
        documented expression order (``MAC`` is ``dst + a*b``, ``MAD``
        is ``a*b + SRF_M``)."""
        lanes = 4
        nan = lambda bits: np.full(lanes, bits, np.uint16).view(F16)
        unit = fp16_unit(lanes)
        unit.grf_b[0] = nan(0x7E01)  # MAC's accumulator
        unit.grf_a[0] = nan(0xFE02)
        unit.grf_a[1] = np.full(lanes, 3.0, dtype=F16)
        unit.srf[1] = np.nan  # MAD's implicit addend (SRF_M)
        dst, a, b = unit.grf_b[0].copy(), unit.grf_a[0], unit.grf_a[1]
        unit.execute(
            PimCommand(
                opcode,
                dst=Operand.grf_b(0),
                src0=Operand.grf_a(0),
                src1=Operand.grf_a(1),
            )
        )
        with np.errstate(invalid="ignore"):
            want = reference(dst, a, b, np.full(lanes, unit.srf[1]))
        assert unit.grf_b[0].tobytes() == want.tobytes()


class TestAccumulationOrder:
    """Binary16 addition is not associative; the reference ordering is
    *slot order* (the column walk), which these tests pin.

    ``2048 + 1 + 1`` in binary16: the ulp at 2048 is 2, so each
    ``+ 1`` rounds away (ties-to-even) and the left-to-right sum stays
    2048.0 — while ``1 + 1 + 2048`` gives 2050.0.  A kernel that
    reorders the walk would produce the second value and fail the
    bit-exact check.
    """

    VALUES = [2048.0, 1.0, 1.0]

    def test_binary16_addition_is_order_sensitive(self):
        forward = F16(0.0)
        for value in self.VALUES:
            forward = F16(value) + forward
        backward = F16(0.0)
        for value in reversed(self.VALUES):
            backward = F16(value) + backward
        assert forward == F16(2048.0)
        assert backward == F16(2050.0)
        assert forward != backward

    @pytest.mark.parametrize("order", ["slot", "reversed"])
    def test_machine_reduction_follows_the_walk_order(self, order):
        machine = PimExecMachine(dtype="fp16")
        values = (
            self.VALUES if order == "slot" else self.VALUES[::-1]
        )
        for slot, value in enumerate(values):
            for ch in range(machine.n_channels):
                for bank in range(machine.banks_per_channel):
                    machine.write_bank(
                        ch, bank, 0, slot, [value] * machine.lanes
                    )
        machine.load_kernel(
            [
                PimCommand(
                    PimOpcode.ADD,
                    dst=Operand.grf_b(0),
                    src0=Operand.bank(),
                    src1=Operand.grf_b(0),
                ),
                PimCommand(
                    PimOpcode.JUMP, target=0, count=len(values) - 1
                ),
                PimCommand(PimOpcode.EXIT),
            ]
        )
        machine.run_kernel([(0, slot) for slot in range(len(values))])
        expected = F16(2048.0 if order == "slot" else 2050.0)
        for ch, index, unit in machine.iter_units():
            assert np.all(unit.grf_b[0] == expected)

    def test_fp64_hides_the_order_sensitivity(self):
        """The same sum in the idealized fp64 mode is order-blind —
        which is exactly why fp16-faithful mode exists."""
        total_forward = np.float64(0.0)
        total_backward = np.float64(0.0)
        for value in self.VALUES:
            total_forward += np.float64(value)
        for value in reversed(self.VALUES):
            total_backward += np.float64(value)
        assert total_forward == total_backward == 2050.0
