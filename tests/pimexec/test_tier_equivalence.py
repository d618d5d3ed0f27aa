"""Cross-tier equivalence suite pinning the vectorized PIM tiers.

Two independent optimization tiers ride under every PIM kernel run:

* the **execution-unit tier** — ``unit_mode="vectorized"`` executes
  each dynamic CRF instruction across every bank of the machine in one
  array op instead of looping :class:`BankExecUnit` objects;
* the **replay-timing tier** — the memory system's AB-lockstep
  fastpath certificate admits pure all-bank streams to the closed-form
  ``fast-vectorized`` engine, falling back to the exact tier
  otherwise.

Both are pure optimizations: this suite replays every built-in kernel
and every ``repro.nn`` kernel through scalar *and* vectorized units,
and through exact *and* fastpath timing, across dtype x bank-group x
refresh configurations, and pins the request streams, bank-page
contents (NaN and last-ULP included, via raw-byte comparison),
per-request latency arrays, and replay statistics identical.
"""

import dataclasses

import numpy as np
import pytest

from repro.memsys import MemSysConfig
from repro.nn import NN_KERNEL_NAMES, build_nn_kernel
from repro.pimexec import KERNEL_NAMES, PimExecMachine, build_kernel
from repro.telemetry import ReplayTelemetry

from tests.memsys.event_oracle import event_replays
from tests.memsys.test_fastpath import (
    assert_laws_hold,
    assert_stats_equivalent,
)

DTYPES = ("fp64", "fp16")

#: Refresh knobs for the replay-timing dimension (HBM2-flavored
#: numbers; ``off`` disables refresh modeling entirely).
REFRESH = {
    "off": {},
    "per-rank": dict(
        trefi_ns=3900.0, trfc_ns=350.0, refresh_granularity="per-rank"
    ),
    "per-bank": dict(
        trefi_ns=3900.0, trfc_ns=350.0, refresh_granularity="per-bank"
    ),
}


def builtin_kwargs(name):
    """Small-but-nontrivial shapes so the suite stays fast."""
    return {"n_cols": 16} if name == "gemv" else {"n": 512}


def run_builtin(name, unit_mode, dtype="fp64", config=None):
    """Build + setup + execute one built-in kernel on one unit tier."""
    kernel = build_kernel(name, config=config, **builtin_kwargs(name))
    machine = PimExecMachine(
        kernel.config, dtype=dtype, unit_mode=unit_mode
    )
    kernel.setup(machine)
    kernel.execute(machine)
    return kernel, machine


def assert_unit_state_identical(a, b):
    """Register files, counters, and bank pages bit-for-bit equal.

    Raw-byte comparison: NaN payloads and last-ULP differences both
    count, which plain ``==`` would miss (``NaN != NaN``).
    """
    for (ch, i, ua), (ch2, i2, ub) in zip(
        a.iter_units(), b.iter_units()
    ):
        assert (ch, i) == (ch2, i2)
        where = f"ch{ch}.u{i}"
        assert ua.grf_a.tobytes() == ub.grf_a.tobytes(), where
        assert ua.grf_b.tobytes() == ub.grf_b.tobytes(), where
        assert ua.srf.tobytes() == ub.srf.tobytes(), where
        assert ua.commands_executed == ub.commands_executed, where
        for key in sorted(set(ua.memory) | set(ub.memory)):
            port, row, col = key
            page_a = ua.load_page(row, col, port)
            page_b = ub.load_page(row, col, port)
            assert page_a.tobytes() == page_b.tobytes(), (where, key)


def assert_streams_identical(a, b):
    """The emitted request streams agree op-for-op, address-for-address."""
    assert a.n_requests == b.n_requests
    assert [
        (r.op, r.addr, r.timestamp) for r in a.requests
    ] == [(r.op, r.addr, r.timestamp) for r in b.requests]


class TestUnitTierEquivalence:
    """scalar vs vectorized units: same requests, same bank state."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_builtin_kernels(self, name, dtype):
        kernel, scalar = run_builtin(name, "scalar", dtype=dtype)
        _, vectorized = run_builtin(name, "vectorized", dtype=dtype)
        assert scalar.unit_mode == "scalar"
        assert vectorized.unit_mode == "vectorized"
        assert_unit_state_identical(scalar, vectorized)
        assert_streams_identical(scalar, vectorized)
        assert (
            scalar.sequencer_stats() == vectorized.sequencer_stats()
        )
        if dtype == "fp64":  # the references are fp64-exact
            assert kernel.check(scalar)
            assert kernel.check(vectorized)

    @pytest.mark.parametrize("bank_groups", (False, True))
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("name", NN_KERNEL_NAMES)
    def test_nn_kernels(self, name, dtype, bank_groups):
        kernel = build_nn_kernel(
            name, dtype=dtype, bank_groups=bank_groups, seed=3
        )
        scalar = kernel.machine(unit_mode="scalar")
        vectorized = kernel.machine()
        for machine in (scalar, vectorized):
            kernel.setup(machine)
            kernel.execute(machine)
            assert kernel.check(machine), machine.unit_mode
        assert_unit_state_identical(scalar, vectorized)
        assert_streams_identical(scalar, vectorized)
        out_s = kernel.output(scalar)
        out_v = kernel.output(vectorized)
        assert out_s.tobytes() == out_v.tobytes()
        assert out_v.tobytes() == np.asarray(
            kernel.expected, dtype=out_v.dtype
        ).tobytes()

    def test_fp16_special_values_cross_tier(self):
        """Inf/NaN-producing fp16 streams stay bit-identical."""
        machines = []
        for unit_mode in ("scalar", "vectorized"):
            machine = PimExecMachine(dtype="fp16", unit_mode=unit_mode)
            big = np.full(machine.lanes, 60000.0)
            for unit_index in range(machine.units_per_channel):
                flat = unit_index * machine.ports
                machine.write_bank(0, flat, 0, 0, big)
            machine.broadcast_scalar(0, 0, 65504.0)
            from repro.pimexec import parse_command

            mac = parse_command("MAC GRF,8 BANK,0,0,0 SRF,0")
            add = parse_command("ADD GRF,0 BANK,0,0,0 BANK,0,0,0")
            machine.pim_step(0, mac, 0, 0)  # overflows to inf
            machine.pim_step(0, add, 0, 0)
            machine.pim_step(0, mac, 0, 0)  # inf + finite, inf * big
            machines.append(machine)
        assert_unit_state_identical(machines[0], machines[1])
        assert_streams_identical(machines[0], machines[1])

    def test_unknown_unit_mode_rejected(self):
        from repro.pimexec import PimExecError

        with pytest.raises(PimExecError, match="unit_mode"):
            PimExecMachine(unit_mode="simd")


class TestReplayTierEquivalence:
    """exact vs AB-fastpath timing over the same kernel streams."""

    @pytest.mark.parametrize("refresh", sorted(REFRESH))
    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_fast_matches_event_under_refresh(self, name, refresh):
        config = MemSysConfig(n_channels=2, **REFRESH[refresh])
        kernel, machine = run_builtin(name, "vectorized", config=config)
        telemetry = ReplayTelemetry(profile=False)
        fast = machine.replay(telemetry=telemetry)
        assert_laws_hold(config, telemetry)
        with event_replays():
            event = machine.replay()
        assert fast.engine.startswith("fast")
        assert event.engine == "event"
        assert_stats_equivalent(event.stats, fast.stats)
        assert (fast.n_pim, fast.n_broadcast, fast.n_host) == (
            event.n_pim,
            event.n_broadcast,
            event.n_host,
        )

    def test_vector_sum_stream_admits_the_fastpath(self):
        """With data staging untimed (the benchmark's shape), the pure
        AB+PIM vector-sum stream takes the closed-form tier."""
        kernel = build_kernel(
            "vector-sum",
            config=MemSysConfig(n_channels=2),
            **builtin_kwargs("vector-sum"),
        )
        machine = PimExecMachine(kernel.config)
        kernel.setup(machine)
        machine.reset_requests()  # drop the host staging writes
        kernel.execute(machine)
        result = machine.replay()
        assert result.engine == "fast-vectorized"

    @pytest.mark.parametrize("name", ("gemm", "attention"))
    def test_nn_streams_fall_back_to_exact_tier(self, name):
        """nn kernels interleave host passes with the PIM stream, so
        the AB certificate must decline them — bit-identically."""
        kernel = build_nn_kernel(name, dtype="fp16", seed=1)
        machine = kernel.machine()
        kernel.setup(machine)
        kernel.execute(machine)
        telemetry = ReplayTelemetry(profile=False)
        fast = machine.replay(telemetry=telemetry)
        assert_laws_hold(machine.config, telemetry)
        with event_replays():
            event = machine.replay()
        assert fast.engine == "fast-exact"
        assert_stats_equivalent(event.stats, fast.stats, rel=None)

    @pytest.mark.parametrize("refresh", sorted(REFRESH))
    def test_per_request_latency_arrays_identical(self, refresh):
        """The latency recorder captures the same per-request arrays
        (repr-identical, byte-identical) from both engines."""
        config = MemSysConfig(n_channels=2, **REFRESH[refresh])
        _, machine = run_builtin(
            "vector-sum", "vectorized", config=config
        )
        arrays = {}
        for engine in ("fast", "event"):
            telemetry = ReplayTelemetry()
            if engine == "fast":
                machine.replay(telemetry=telemetry)
            else:
                with event_replays():
                    machine.replay(telemetry=telemetry)
            assert_laws_hold(config, telemetry)
            recorder = telemetry.recorder
            arrays[engine] = (
                recorder.queue_wait.copy(),
                recorder.service_time.copy(),
                recorder.total_latency.copy(),
            )
        for fast_arr, event_arr in zip(arrays["fast"], arrays["event"]):
            assert fast_arr.tobytes() == event_arr.tobytes()
            assert repr(fast_arr) == repr(event_arr)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_full_matrix_smoke(self, dtype):
        """One diagonal across all three dimensions at once: unit tier
        x replay engine x refresh, on the same kernel."""
        config = MemSysConfig(n_channels=2, **REFRESH["per-rank"])
        results = {}
        state = {}
        for unit_mode in ("scalar", "vectorized"):
            kernel = build_kernel(
                "vector-sum", config=config, **builtin_kwargs("vector-sum")
            )
            machine = PimExecMachine(
                kernel.config, dtype=dtype, unit_mode=unit_mode
            )
            kernel.setup(machine)
            kernel.execute(machine)
            state[unit_mode] = machine
            results[(unit_mode, "fast")] = machine.replay()
            with event_replays():
                results[(unit_mode, "event")] = machine.replay()
        assert_unit_state_identical(
            state["scalar"], state["vectorized"]
        )
        # same stream + same engine => bit-identical stats dicts
        for engine in ("fast", "event"):
            assert repr(
                dataclasses.asdict(results[("scalar", engine)].stats)
            ) == repr(
                dataclasses.asdict(results[("vectorized", engine)].stats)
            )
        # across engines the usual fast to event equivalence holds
        assert_stats_equivalent(
            results[("vectorized", "event")].stats,
            results[("vectorized", "fast")].stats,
        )
