"""Transformer kernel library: bit-exactness, modes, and twins."""

import numpy as np
import pytest

from repro.memsys import MemSysConfig, Op
from repro.nn import (
    NN_KERNEL_NAMES,
    Layout,
    build_nn_kernel,
    gemm_kernel,
    softmax_kernel,
)
from repro.pimexec import compare_host_pim

from tests.pimexec.test_tier_equivalence import (
    host_twin_digest,
    stream_digests,
    unit_state_digest,
)

#: Small shapes so the whole matrix runs in seconds.
SMALL = {
    "gemm": dict(k=4, n=4),
    "softmax": dict(c=5),
    "layernorm": dict(c=5),
    "attention": dict(d_head=2, n_heads=2),
    "ffn": dict(d_model=4, d_ff=8),
}


class TestBitExactness:
    @pytest.mark.parametrize("name", NN_KERNEL_NAMES)
    @pytest.mark.parametrize("dtype", ["fp16", "fp64"])
    def test_kernel_matches_reference(self, name, dtype):
        comparison = compare_host_pim(
            build_nn_kernel(name, dtype=dtype, **SMALL[name])
        )
        assert comparison.correct
        assert np.array_equal(
            comparison.output, comparison.expected, equal_nan=True
        )
        assert comparison.output.dtype == (
            np.float16 if dtype == "fp16" else np.float64
        )

    def test_gemm_matches_plain_numpy_in_fp64(self):
        """In fp64 the tiled recipe reproduces A @ B to float64
        round-off (the paged accumulation order differs from BLAS)."""
        rng = np.random.default_rng(5)
        a = rng.standard_normal((128, 6))
        b = rng.standard_normal((6, 3))
        kernel = gemm_kernel(m=128, k=6, n=3, dtype="fp64", a=a, b=b)
        comparison = compare_host_pim(kernel)
        assert comparison.correct
        np.testing.assert_allclose(
            comparison.output, a @ b, rtol=1e-12, atol=1e-12
        )

    def test_softmax_rows_sum_to_about_one(self):
        comparison = compare_host_pim(softmax_kernel(c=7, dtype="fp16"))
        sums = comparison.output.astype(np.float64).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=2e-2)

    def test_fp16_and_fp64_outputs_differ(self):
        outputs = {
            dtype: compare_host_pim(
                build_nn_kernel("gemm", dtype=dtype, k=8, n=4)
            ).output.astype(np.float64)
            for dtype in ("fp16", "fp64")
        }
        err = np.abs(outputs["fp16"] - outputs["fp64"]).max()
        assert 0.0 < err < 0.05


class TestBankGroups:
    @pytest.mark.parametrize("name", ["gemm", "softmax", "ffn"])
    def test_bank_group_mode_is_bit_identical_but_slower(self, name):
        shape = dict(SMALL[name])
        # pin the row count so both modes solve the same problem
        shape["m" if name in ("gemm", "softmax") else "seq_len"] = 128
        per_bank = compare_host_pim(
            build_nn_kernel(name, dtype="fp16", **shape)
        )
        grouped = compare_host_pim(
            build_nn_kernel(
                name, dtype="fp16", bank_groups=True, **shape
            )
        )
        assert per_bank.correct and grouped.correct
        assert np.array_equal(
            per_bank.output, grouped.output, equal_nan=True
        )
        assert grouped.pim.n_pim > per_bank.pim.n_pim
        assert grouped.pim.makespan_ns > per_bank.pim.makespan_ns

    def test_layout_halves_units_in_group_mode(self):
        config = MemSysConfig()
        per_bank = Layout(config)
        grouped = Layout(config, bank_groups=True)
        assert grouped.units == per_bank.units // 2
        assert grouped.rows_per_tile == per_bank.rows_per_tile // 2
        assert grouped.data_bank(1) == 2  # unit 1 -> even bank 2


class TestLayout:
    def test_tiles_untile_round_trip_with_padding(self):
        layout = Layout(MemSysConfig())
        matrix = np.arange(150.0 * 3).reshape(150, 3)
        tiles = layout.tiles(matrix)
        assert tiles.shape[0] == 2  # 150 rows pad to 2 x 128
        assert np.array_equal(layout.untile(tiles, 150), matrix)
        # padding is zeros
        assert float(np.abs(tiles[1, :, :, :]).sum()) == float(
            np.abs(matrix[128:]).sum()
        )

    def test_capacity_guard(self):
        layout = Layout(MemSysConfig())
        with pytest.raises(ValueError, match="slots per bank"):
            layout.check_capacity(layout.capacity_slots + 1)


class TestTwinsAndValidation:
    def test_host_twin_moves_every_logical_operand(self):
        kernel = gemm_kernel(m=128, k=4, n=4, dtype="fp16")
        twin = kernel.host_trace()
        lanes = Layout(kernel.config).lanes
        reads = sum(1 for r in twin if r.op is Op.READ)
        writes = sum(1 for r in twin if r.op is Op.WRITE)
        assert reads == (128 * 4) // lanes + -(-(4 * 4) // lanes)
        assert writes == (128 * 4) // lanes

    def test_unknown_kernel_name(self):
        with pytest.raises(KeyError, match="available"):
            build_nn_kernel("conv2d")

    def test_bad_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            gemm_kernel(dtype="bf16")

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            gemm_kernel(k=0)
        with pytest.raises(ValueError):
            softmax_kernel(c=0)

    def test_explicit_operands_must_match_shape(self):
        with pytest.raises(ValueError, match="shape"):
            gemm_kernel(m=8, k=2, n=2, a=np.zeros((3, 3)))

    def test_composed_attention_chains_through_bank_state(self):
        """The second GEMM must consume the softmax-normalized score
        pages, not stale ones: corrupting a score page after softmax
        would break bit-exactness, so exactness here proves the
        chain."""
        comparison = compare_host_pim(
            build_nn_kernel("attention", dtype="fp16", **SMALL["attention"])
        )
        assert comparison.correct
        assert comparison.output.shape == (128, 4)  # seq x d_model


#: Shapes for the golden request streams: two row tiles per kernel in
#: per-bank mode (four in bank-group mode) and a GEMM output width
#: that is not a multiple of ``GRF_REGS``.
GOLDEN_SHAPES = {
    "gemm": dict(m=200, k=4, n=12),
    "softmax": dict(m=200, c=5),
    "layernorm": dict(m=200, c=5),
    "attention": dict(seq_len=40, d_head=2, n_heads=2),
    "ffn": dict(seq_len=200, d_model=4, d_ff=10),
}

#: ``(kernel, dtype, bank_groups) -> (sha256 of the packed request
#: columns, sha256 of the sequencer counters, sha256 of the full unit
#: state)`` after staging and execution.  The streams were recorded
#: from the per-instruction execution path, so a batched host operation
#: that reorders a single request fails here; the unit-state digests
#: (``tests.pimexec.test_tier_equivalence.unit_state_digest``) were
#: recorded on the per-unit reference grid of
#: ``tests/pimexec/unit_oracle.py``.
GOLDEN_STREAMS = {
    ("gemm", "fp16", False): ("49f03b4ae0fb44b0939cd53ee37731d750cf8661b5f62fbb980e0c4d67786907", "afd04e40551ed2bf59ddcb412a630421cf0540a2e8cc03146c09c9ed0120f583", "ab9eddd27618d83ea022d8447d69b0e3339ad61da55eb110d98ab50e78183702"),
    ("gemm", "fp16", True): ("002df5ea31786f81e3bb48fa0aebd3f750eeb91eccd3c9134dc463a51707b65e", "afd04e40551ed2bf59ddcb412a630421cf0540a2e8cc03146c09c9ed0120f583", "a4b1111a6d9c7f2f9b9c00bb4b398bcedf76262ff1f1c542a19181efc9271bf0"),
    ("gemm", "fp64", False): ("49f03b4ae0fb44b0939cd53ee37731d750cf8661b5f62fbb980e0c4d67786907", "afd04e40551ed2bf59ddcb412a630421cf0540a2e8cc03146c09c9ed0120f583", "a6fbc9daa4da3702fa433d9de3edc3f517fcdf8530a87e434ee54cdf0038e8cb"),
    ("gemm", "fp64", True): ("002df5ea31786f81e3bb48fa0aebd3f750eeb91eccd3c9134dc463a51707b65e", "afd04e40551ed2bf59ddcb412a630421cf0540a2e8cc03146c09c9ed0120f583", "57aceef7385230ad9a8179851046e1574a3d95db623f2f39ec9e0ce37e2fb716"),
    ("softmax", "fp16", False): ("a61de3c5f6f0a789d0f35b778e9545d00481cd6aae4f6894e1689cd46361dde1", "327d2d18ffbf4c24df49fcde92be250e9025626115d537f1a7a10b2549fc769e", "edb6c4005c5001249b857b29c0f37222b5f9ea93e32bc360e9e3c011058caee4"),
    ("softmax", "fp16", True): ("f83fed20cf2bb958bdf5763c3acdff640d6dfdf6914e82009051afd2b78b04a0", "ae3597e982736be73e515e4d14f091fddb7b15a92b0bd121be07654fa94b5efc", "f6ee2c93826e90ffb405bbc2965f612eaeb952fa01a4b53ba586718bf619fbf5"),
    ("softmax", "fp64", False): ("a61de3c5f6f0a789d0f35b778e9545d00481cd6aae4f6894e1689cd46361dde1", "327d2d18ffbf4c24df49fcde92be250e9025626115d537f1a7a10b2549fc769e", "8b583853c490dcc379568dcef20e7d6d55f143fdd0b842c39dfe1c11ea1f0889"),
    ("softmax", "fp64", True): ("f83fed20cf2bb958bdf5763c3acdff640d6dfdf6914e82009051afd2b78b04a0", "ae3597e982736be73e515e4d14f091fddb7b15a92b0bd121be07654fa94b5efc", "98117cff16ae13bb1530c8d2eef032e2df13c07bb1cd97f7f395334c852f916b"),
    ("layernorm", "fp16", False): ("ea27926aeea9cefb1905b058bc310b699f30fe3fa5bfca0e9be9e1a2655d9fce", "c009da4295417edb10f3476e5fe991903fcff9eb1b3e59e079113f5a63060019", "a7ec9add7ab8a9422179dc660b67552492ce7b4b5c61de96394450e0aeec22c4"),
    ("layernorm", "fp16", True): ("2b8cc43fea134b3468b40db6bcfe1f4a7fc0a4bcc8668d99f31b979736a1cd34", "62c9167a93de0fcd2f64ace85a7d13885afb533f3ff34c9cc4132f03933404ff", "cdbbc640f15ea569ac340355ad478f4f537ea1e1adcfce3a17b4606c1f714eda"),
    ("layernorm", "fp64", False): ("ea27926aeea9cefb1905b058bc310b699f30fe3fa5bfca0e9be9e1a2655d9fce", "c009da4295417edb10f3476e5fe991903fcff9eb1b3e59e079113f5a63060019", "6d7cf7234046d14c03f188b5f6cf6c3cff13d0b7992b2bf69036ba04afcb3562"),
    ("layernorm", "fp64", True): ("2b8cc43fea134b3468b40db6bcfe1f4a7fc0a4bcc8668d99f31b979736a1cd34", "62c9167a93de0fcd2f64ace85a7d13885afb533f3ff34c9cc4132f03933404ff", "584e9a9fadbee78d4f9cb2d9c5e1fba952fb8214c39246a6117c43e21fc99eb9"),
    ("attention", "fp16", False): ("cb71df07b8770b375a59f41b32574a56554fbffdbd10aad8040b3d4f8cd5d778", "4c0d74fc11da375ab60f7cead693443c9529358d6a516c4d88cf4efcfb0565e4", "49501d2e8c27434178f88bfc6cbaebd333501251f2cfcb027848de93ebf4b486"),
    ("attention", "fp16", True): ("e3ff5d99004a23ba050903c7957c34851657c40cf63e90f99f09b5f8c79181d2", "4c0d74fc11da375ab60f7cead693443c9529358d6a516c4d88cf4efcfb0565e4", "736c57c023c5f33c28f0906a3175ebc0370247a60d6d5d87d36ef1908ffe9f3b"),
    ("attention", "fp64", False): ("cb71df07b8770b375a59f41b32574a56554fbffdbd10aad8040b3d4f8cd5d778", "4c0d74fc11da375ab60f7cead693443c9529358d6a516c4d88cf4efcfb0565e4", "67d55f8f85b48b5ab9f8c5806aa0804012959b2752a04a0e88c7ef3dea43fd2c"),
    ("attention", "fp64", True): ("e3ff5d99004a23ba050903c7957c34851657c40cf63e90f99f09b5f8c79181d2", "4c0d74fc11da375ab60f7cead693443c9529358d6a516c4d88cf4efcfb0565e4", "e8fa997f166ef30e1efa84a24b31f1ade51de4568067cd7c7b9342204ed343aa"),
    ("ffn", "fp16", False): ("4ba45d50bb10e196f396221cdb5847b85699cf87b82e5da5c4c6f39441b041fc", "afd04e40551ed2bf59ddcb412a630421cf0540a2e8cc03146c09c9ed0120f583", "9d237b928ca02ba09d9b6c0b102e1e21a546a5a9e3f076f76ccadc830d767bc4"),
    ("ffn", "fp16", True): ("bbd3337e000853456e2f518e0fa62bdaafd192fa5870390497c2c8dd27e4d149", "afd04e40551ed2bf59ddcb412a630421cf0540a2e8cc03146c09c9ed0120f583", "3ba08dcdb92c76867c22b560e84fa53097ba8fc9fbd1e6a461b1ee04fb794c61"),
    ("ffn", "fp64", False): ("4ba45d50bb10e196f396221cdb5847b85699cf87b82e5da5c4c6f39441b041fc", "afd04e40551ed2bf59ddcb412a630421cf0540a2e8cc03146c09c9ed0120f583", "f097b2ce33a1ef676fb9580236449139d25d19a2a45e8c7d4489d66a33f5fa95"),
    ("ffn", "fp64", True): ("bbd3337e000853456e2f518e0fa62bdaafd192fa5870390497c2c8dd27e4d149", "afd04e40551ed2bf59ddcb412a630421cf0540a2e8cc03146c09c9ed0120f583", "d2513592ffd5a971e0cd7ce78a8307f78415b983177050a9e2d378e6d8d564fb"),
}

#: ``kernel -> sha256`` of the host-only twin
#: (``tests.pimexec.test_tier_equivalence.host_twin_digest``) at
#: ``GOLDEN_SHAPES``: the same in every dtype and execution mode.
GOLDEN_HOST_TWINS = {
    "gemm": "496173e08ddaebdb0f97a73ddf06b86ca4029355383b2d9c801797a937d0fe21",
    "softmax": "9a2b6fb70df48d7905c0a34561f29ec0e7a06ca16ef0d004f28cb0c74ad72800",
    "layernorm": "9544fcec752e9ce00be55ed715b085b76913d23034c38d6a16fbfdae242e03d1",
    "attention": "88a52794dc876285789761acc047d20de79166df8940e0cc001a43f40c8d00e1",
    "ffn": "54135f3a79f970d5181cc2445acf387958a01824fdbddfff67a42370549f4d66",
}


class TestGoldenStreams:
    @pytest.mark.parametrize("bank_groups", [False, True])
    @pytest.mark.parametrize("dtype", ["fp16", "fp64"])
    @pytest.mark.parametrize("name", NN_KERNEL_NAMES)
    def test_request_stream_matches_golden(
        self, name, dtype, bank_groups
    ):
        kernel = build_nn_kernel(
            name,
            dtype=dtype,
            bank_groups=bank_groups,
            seed=3,
            **GOLDEN_SHAPES[name],
        )
        machine = kernel.machine()
        kernel.setup(machine)
        kernel.execute(machine)
        assert kernel.check(machine)
        assert stream_digests(machine) + (
            unit_state_digest(machine),
        ) == GOLDEN_STREAMS[name, dtype, bank_groups]

    @pytest.mark.parametrize("bank_groups", [False, True])
    @pytest.mark.parametrize("dtype", ["fp16", "fp64"])
    @pytest.mark.parametrize("name", NN_KERNEL_NAMES)
    def test_host_twin_matches_golden(self, name, dtype, bank_groups):
        kernel = build_nn_kernel(
            name,
            dtype=dtype,
            bank_groups=bank_groups,
            seed=3,
            **GOLDEN_SHAPES[name],
        )
        assert host_twin_digest(kernel) == GOLDEN_HOST_TWINS[name]
