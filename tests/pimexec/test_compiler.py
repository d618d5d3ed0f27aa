"""Tests for the repro.isa -> pimexec compiler bridge."""

import pytest

from repro.isa import (
    gups_program,
    parallel_sum_program,
    pointer_chase_program,
    simd_vector_sum_program,
    vector_sum_program,
)
from repro.memsys import MemSysConfig
from repro.pimexec import CompileError, lower_kernel_binary

from tests.memsys.event_oracle import event_replays


class TestLowering:
    @pytest.mark.parametrize(
        "builder", (vector_sum_program, simd_vector_sum_program)
    )
    def test_reduction_kernels_reproduce_expected_sum(self, builder):
        binary = builder(count=64, seed=9)
        lowered = lower_kernel_binary(binary)
        result, exact, timing = lowered.run()
        assert exact
        assert result == float(binary.expected["sum"])
        assert timing.makespan_ns > 0
        assert lowered.values.shape == (64,)
        assert lowered.source_name == binary.name

    def test_custom_geometry(self):
        config = MemSysConfig(
            n_channels=1, bankgroups=1, banks_per_group=2
        )
        lowered = lower_kernel_binary(
            simd_vector_sum_program(count=32), config
        )
        _result, exact, _timing = lowered.run()
        assert exact

    def test_both_engines_agree(self):
        lowered = lower_kernel_binary(vector_sum_program(count=32))
        fast = lowered.run()
        with event_replays():
            event = lowered.run()
        assert fast[1] and event[1]
        assert (
            fast[2].stats.makespan_ns == event[2].stats.makespan_ns
        )


class TestRejections:
    def test_parcel_kernels_rejected(self):
        with pytest.raises(CompileError, match="parcel/atomic"):
            lower_kernel_binary(parallel_sum_program())

    def test_gups_rejected_without_streaming_loads(self):
        with pytest.raises(CompileError, match="no ld/vld"):
            lower_kernel_binary(gups_program())

    def test_pointer_chase_rejected_on_data_staging(self):
        # has the loop shape, but stages scattered words, not a block
        with pytest.raises(CompileError, match="input block"):
            lower_kernel_binary(pointer_chase_program())
