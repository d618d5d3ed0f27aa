"""Equivalence suite pinning the PIM execution and replay-timing paths.

* **Unit state.** Every built-in kernel's request stream, sequencer
  counters and full unit state (registers, counters, every bank page —
  NaN and last-ULP included, via raw bytes) are pinned by sha256
  digests recorded on the per-unit reference grid that
  ``tests/pimexec/unit_oracle.py`` now keeps; the nn kernels carry the
  same digests as the third column of
  ``tests/nn/test_kernels.py::GOLDEN_STREAMS``.  Random CRF programs run
  against the oracle grid in ``test_program_fuzz.py``.
* **Replay timing.** The memory system's AB-lockstep fastpath
  certificate admits pure all-bank streams to the closed-form
  ``fast-vectorized`` engine, falling back to the exact tier otherwise;
  this suite replays every built-in kernel through both and against the
  event-engine oracle, across dtype x refresh configurations, and pins
  per-request latency arrays and replay statistics identical.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.memsys import MemSysConfig, PackedTrace
from repro.nn import build_nn_kernel
from repro.pimexec import KERNEL_NAMES, PimExecMachine, build_kernel
from repro.telemetry import ReplayTelemetry

from tests.memsys.event_oracle import event_replays
from tests.memsys.test_fastpath import (
    assert_laws_hold,
    assert_stats_equivalent,
)
from tests.pimexec.unit_oracle import OracleGrid

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


def run_builtin(name, dtype="fp64", config=None):
    """Build + setup + execute one built-in kernel."""
    kernel = build_kernel(name, config=config, **builtin_kwargs(name))
    machine = PimExecMachine(kernel.config, dtype=dtype)
    kernel.setup(machine)
    kernel.execute(machine)
    return kernel, machine


def stream_digests(machine):
    """sha256 of the request stream's (op, channel, flat bank, row,
    column) columns and of the sequencer counters."""
    trace = machine.trace()
    fields = machine.addr_map.decode_fields(trace.addrs)
    flat_bank = (
        fields["bankgroup"] * machine.config.banks_per_group
        + fields["bank"]
    )
    columns = hashlib.sha256(trace.op_codes.tobytes())
    for column in (
        fields["channel"], flat_bank, fields["row"], fields["column"]
    ):
        columns.update(column.tobytes())
    counters = hashlib.sha256(repr(machine.sequencer_stats()).encode())
    return columns.hexdigest(), counters.hexdigest()


def host_twin_digest(kernel):
    """sha256 of a kernel's host-only twin: op codes, then addresses."""
    twin = PackedTrace.from_requests(kernel.host_trace())
    digest = hashlib.sha256(twin.op_codes.tobytes())
    digest.update(twin.addrs.tobytes())
    return digest.hexdigest()


def unit_state_digest(machine):
    """sha256 of every unit's full functional state, in address order.

    Per unit: ``grf_a``, ``grf_b``, ``srf``, ``commands_executed`` and
    ``load_page`` of every key in the sorted union of page keys across
    all units — so the digest does not depend on how a grid stores
    pages (per-unit dicts or whole-grid page planes).
    """
    digest = hashlib.sha256()
    keys = sorted(machine.array.memory)
    for _, _, unit in machine.iter_units():
        digest.update(unit.grf_a.tobytes())
        digest.update(unit.grf_b.tobytes())
        digest.update(unit.srf.tobytes())
        digest.update(int(unit.commands_executed).to_bytes(8, "little"))
        for port, row, col in keys:
            digest.update(unit.load_page(row, col, port).tobytes())
    return digest.hexdigest()


def assert_matches_oracle(machine, oracle):
    """Register files, counters, and bank pages bit-for-bit equal.

    Raw-byte comparison: NaN payloads and last-ULP differences both
    count, which plain ``==`` would miss (``NaN != NaN``).
    """
    keys = set(machine.array.memory)
    for _, _, unit in oracle.iter_units():
        keys |= set(unit.memory)
    for (ch, i, ua), (ch2, i2, ub) in zip(
        machine.iter_units(), oracle.iter_units()
    ):
        assert (ch, i) == (ch2, i2)
        where = f"ch{ch}.u{i}"
        assert ua.grf_a.tobytes() == ub.grf_a.tobytes(), where
        assert ua.grf_b.tobytes() == ub.grf_b.tobytes(), where
        assert ua.srf.tobytes() == ub.srf.tobytes(), where
        assert ua.commands_executed == ub.commands_executed, where
        for port, row, col in sorted(keys):
            page_a = ua.load_page(row, col, port)
            page_b = ub.load_page(row, col, port)
            assert page_a.tobytes() == page_b.tobytes(), (where, row, col)


#: ``(kernel, dtype) -> (packed request columns, sequencer counters,
#: unit state)`` sha256 digests of :func:`run_builtin`, recorded on the
#: per-unit reference grid (one ``BankExecUnit`` object per unit, the
#: generic round-robin kernel loop).
BUILTIN_GOLDENS = {
    ("vector-sum", "fp64"): ("bc4519317a1ca8ca5f95b36870b90416ef390493fcfab10e0b6a923a4a0830cf", "3c97eaad63e0df0c09aadf8f03a2b362e31b79c37b00eaa05a096c16d41058c3", "5745592ff6da4e1ec0e8b9f7842f0d771078306349684ac41eca557e92a59e4c"),
    ("vector-sum", "fp16"): ("bc4519317a1ca8ca5f95b36870b90416ef390493fcfab10e0b6a923a4a0830cf", "3c97eaad63e0df0c09aadf8f03a2b362e31b79c37b00eaa05a096c16d41058c3", "b9dc4786c508fe229885935f1f556221e5749dfdd543294e675a8b783b18546c"),
    ("axpy", "fp64"): ("008a089929f66e6d9b8f7fca667cbeb93652b38d8c4f4941609e07b7ec2e094c", "80447f712e3ce4401bfeb3cad8af24fe732d10737a9e2e1df234c1e7e35ac16b", "7d99e7452c2a0ad718b3595124f9706e168d8b8dab1e57b14af8c3453448ca37"),
    ("axpy", "fp16"): ("008a089929f66e6d9b8f7fca667cbeb93652b38d8c4f4941609e07b7ec2e094c", "80447f712e3ce4401bfeb3cad8af24fe732d10737a9e2e1df234c1e7e35ac16b", "c0a60c0e8eb1abf7ed09b338a164378fbab5f2dea6975b690c1f5ea4bd787585"),
    ("gemv", "fp64"): ("8ef71d3f1309a9b442f0e61c5844c9670f44daece49426b33dbab704b9ab47d6", "7d45826d3f7eeabf568cbb82ec0a3283c3981b1143dce54189466ec094e1b865", "84aa773ab400dab6efafe61fe07e6d9eabf4a0f94400e2fb4bb62f035774e1ff"),
    ("gemv", "fp16"): ("8ef71d3f1309a9b442f0e61c5844c9670f44daece49426b33dbab704b9ab47d6", "7d45826d3f7eeabf568cbb82ec0a3283c3981b1143dce54189466ec094e1b865", "79454046b540f8f1f841a4eed79a70a98cc3f4a1dff0ae9d6223eaf1f2f2ad05"),
}

#: ``kernel -> sha256`` of :func:`host_twin_digest` at
#: :func:`builtin_kwargs`'s shapes (the twin does not depend on dtype).
BUILTIN_HOST_TWINS = {
    "vector-sum": "77dc37135c242dfe24eb34dc83966c5dc0eb48f6365f928c921bba53d7678bcf",
    "axpy": "18de449cb77318b5ee2395961fd154e68b020cd619a508088488391b5002ac0e",
    "gemv": "e3413a020dc19e156b9db5c2afb6bb2c3ab4332548f0446100e9f92655e16dcd",
}


class TestUnitState:
    """The one unit grid against the reference grid's recordings."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_builtin_kernels_match_golden(self, name, dtype):
        kernel, machine = run_builtin(name, dtype=dtype)
        assert stream_digests(machine) + (
            unit_state_digest(machine),
        ) == BUILTIN_GOLDENS[name, dtype]
        if dtype == "fp64":  # the references are fp64-exact
            assert kernel.check(machine)

    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_builtin_host_twins_match_golden(self, name):
        kernel = build_kernel(name, **builtin_kwargs(name))
        assert host_twin_digest(kernel) == BUILTIN_HOST_TWINS[name]

    def test_fp16_special_values_match_the_oracle(self):
        """Inf/NaN-producing fp16 steps stay bit-identical."""
        from repro.pimexec import parse_command

        machine = PimExecMachine(dtype="fp16")
        oracle = OracleGrid.like(machine)
        mac = parse_command("MAC GRF,8 BANK,0,0,0 SRF,0")
        add = parse_command("ADD GRF,0 BANK,0,0,0 BANK,0,0,0")
        big = np.full(machine.lanes, 60000.0)
        for grid in (machine, oracle):
            for unit_index in range(machine.units_per_channel):
                flat = unit_index * machine.ports
                grid.write_bank(0, flat, 0, 0, big)
            grid.broadcast_scalar(0, 0, 65504.0)
        # overflow to inf, then inf + finite and inf * big
        for command in (mac, add, mac):
            machine.pim_step(0, command, 0, 0)
            for unit in oracle.units[0]:
                unit.execute(command, 0, 0)
        assert_matches_oracle(machine, oracle)


class TestReplayTierEquivalence:
    """exact vs AB-fastpath timing over the same kernel streams."""

    @pytest.mark.parametrize("refresh", sorted(REFRESH))
    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_fast_matches_event_under_refresh(self, name, refresh):
        config = MemSysConfig(n_channels=2, **REFRESH[refresh])
        kernel, machine = run_builtin(name, config=config)
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
        _, machine = run_builtin("vector-sum", config=config)
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
        """One diagonal across dtype x replay engine x refresh: two
        independent runs of the same kernel replay bit-identically per
        engine, and the engines agree with each other."""
        config = MemSysConfig(n_channels=2, **REFRESH["per-rank"])
        results = {}
        for run in range(2):
            _, machine = run_builtin("vector-sum", dtype, config=config)
            results[(run, "fast")] = machine.replay()
            with event_replays():
                results[(run, "event")] = machine.replay()
        # same stream + same engine => bit-identical stats dicts
        for engine in ("fast", "event"):
            assert repr(dataclasses.asdict(results[(0, engine)].stats)) == (
                repr(dataclasses.asdict(results[(1, engine)].stats))
            )
        # across engines the usual fast to event equivalence holds
        assert_stats_equivalent(
            results[(0, "event")].stats, results[(0, "fast")].stats
        )
