"""Tests for the built-in kernels: bit-exactness and host-vs-PIM timing."""

import numpy as np
import pytest

from repro.memsys import MemSysConfig
from repro.nn import NN_KERNEL_NAMES, build_nn_kernel
from repro.pimexec import (
    KERNEL_NAMES,
    PimExecMachine,
    axpy_kernel,
    build_kernel,
    compare_host_pim,
    gemv_kernel,
    vector_sum_kernel,
)

from tests.nn.test_kernels import SMALL

#: The one key set of :meth:`KernelComparison.row`, for both families.
ROW_KEYS = {
    "kernel", "dtype", "bank_groups", "host_ns", "pim_ns", "speedup",
    "pim_requests", "host_requests", "correct",
}


def small_kernel(name, **kwargs):
    """A small kernel of either family, by registry name."""
    if name in NN_KERNEL_NAMES:
        return build_nn_kernel(name, **SMALL[name], **kwargs)
    return build_kernel(
        name, **({"n_cols": 16} if name == "gemv" else {"n": 1024})
    )


class TestVectorSum:
    def test_bank_state_bit_exact_and_sum_correct(self):
        kernel = vector_sum_kernel(n=512, seed=3)
        machine = PimExecMachine(kernel.config)
        kernel.setup(machine)
        kernel.execute(machine)
        assert kernel.check(machine)
        x = np.random.default_rng(3).standard_normal(512)
        assert kernel.output(machine) == pytest.approx(float(x.sum()))

    def test_explicit_values_accepted(self):
        values = np.arange(100, dtype=float)
        kernel = vector_sum_kernel(values=values)
        machine = PimExecMachine(kernel.config)
        kernel.setup(machine)
        kernel.execute(machine)
        assert kernel.check(machine)
        assert kernel.output(machine) == float(values.sum())

    def test_non_granule_sizes_are_padded(self):
        kernel = vector_sum_kernel(n=131, seed=1)  # not a page multiple
        machine = PimExecMachine(kernel.config)
        kernel.setup(machine)
        kernel.execute(machine)
        assert kernel.check(machine)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="n must be"):
            vector_sum_kernel(n=0)


class TestAxpy:
    def test_writeback_pages_bit_exact(self):
        kernel = axpy_kernel(n=512, a=2.5, seed=7)
        machine = PimExecMachine(kernel.config)
        kernel.setup(machine)
        kernel.execute(machine)
        assert kernel.check(machine)

    @pytest.mark.parametrize("n", [0, -5])
    def test_rejects_empty(self, n):
        with pytest.raises(ValueError, match="n must be"):
            axpy_kernel(n=n)


class TestGemv:
    def test_grf_accumulators_bit_exact(self):
        kernel = gemv_kernel(n_cols=24, seed=5)
        machine = PimExecMachine(kernel.config)
        kernel.setup(machine)
        kernel.execute(machine)
        assert kernel.check(machine)

    def test_matches_numpy_matvec(self):
        kernel = gemv_kernel(n_cols=16, seed=2)
        machine = PimExecMachine(kernel.config)
        kernel.setup(machine)
        kernel.execute(machine)
        rng = np.random.default_rng(2)
        lanes, units = machine.lanes, machine.total_units
        m = lanes * units
        matrix = rng.standard_normal((m, 16))
        x = rng.standard_normal(16)
        y = np.concatenate(
            [
                machine.unit(u // 4, u % 4).grf_b[0]
                for u in range(units)
            ]
        )
        assert np.allclose(y, matrix.reshape(units, lanes, 16).reshape(m, 16) @ x)


class TestComparison:
    @pytest.mark.parametrize("name", KERNEL_NAMES + NN_KERNEL_NAMES)
    def test_every_kernel_correct_through_one_runner(self, name):
        comparison = compare_host_pim(small_kernel(name))
        assert comparison.correct
        assert comparison.pim.makespan_ns > 0
        assert comparison.host.makespan_ns > 0
        row = comparison.row()
        assert set(row) == ROW_KEYS
        assert row["kernel"] == name
        assert row["speedup"] == comparison.speedup
        assert row["correct"] is True
        if name in KERNEL_NAMES:
            assert (row["dtype"], row["bank_groups"]) == ("fp64", False)
            assert isinstance(comparison.output, float)
            assert comparison.output == pytest.approx(comparison.expected)
        else:
            assert np.array_equal(
                comparison.output, comparison.expected, equal_nan=True
            )

    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_pimexec_kernels_default_to_fp64_per_bank(self, name):
        kernel = small_kernel(name)
        assert (kernel.dtype, kernel.bank_groups) == ("fp64", False)
        machine = kernel.machine()
        assert (machine.dtype, machine.bank_groups) == ("fp64", False)

    @pytest.mark.parametrize("name", NN_KERNEL_NAMES)
    def test_nn_kernel_machine_keeps_dtype_and_mode(self, name):
        kernel = small_kernel(name, dtype="fp16", bank_groups=True)
        machine = kernel.machine()
        assert (machine.dtype, machine.bank_groups) == ("fp16", True)

    def test_vector_sum_pim_beats_host(self):
        comparison = compare_host_pim(build_kernel("vector-sum", n=4096))
        # all-bank requests move banks_per_channel pages per command
        assert comparison.speedup > 1.5

    def test_unknown_kernel_name(self):
        with pytest.raises(KeyError, match="vector-sum"):
            build_kernel("fft")

    def test_custom_geometry(self):
        config = MemSysConfig(n_channels=1, bankgroups=1, banks_per_group=2)
        comparison = compare_host_pim(
            build_kernel("vector-sum", config=config, n=256)
        )
        assert comparison.correct

    def test_capacity_guard(self):
        tiny = MemSysConfig(rows_per_bank=2)
        with pytest.raises(ValueError, match="slots"):
            vector_sum_kernel(n=1 << 16, config=tiny)

    def test_gemv_capacity_guard_covers_the_host_twin(self):
        # the host-only twin stages x and y beyond the matrix slots;
        # a matrix that exactly fills the banks must fail up front,
        # not crash deep inside the host-trace encoder
        tiny = MemSysConfig(rows_per_bank=4)  # 32 slots per bank
        with pytest.raises(ValueError, match="slots"):
            gemv_kernel(n_cols=32, config=tiny)
        comparison = compare_host_pim(gemv_kernel(n_cols=28, config=tiny))
        assert comparison.correct
