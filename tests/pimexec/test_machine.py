"""Tests for the PimExecMachine: requests, timing, engine agreement."""

import numpy as np
import pytest

from repro.memsys import MemSysConfig, MemorySystem, MemRequest, Op
from repro.pimexec import (
    Operand,
    PimCommand,
    PimExecError,
    PimExecMachine,
    PimOpcode,
    parse_command,
)

from tests.memsys.event_oracle import event_replays


@pytest.fixture
def machine():
    return PimExecMachine(MemSysConfig())


def sum_kernel(slots):
    return [
        PimCommand(
            PimOpcode.ADD,
            dst=Operand.grf_b(0),
            src0=Operand.bank(),
            src1=Operand.grf_b(0),
        ),
        PimCommand(PimOpcode.JUMP, target=0, count=slots - 1),
        PimCommand(PimOpcode.EXIT),
    ]


class TestHostActions:
    def test_lanes_derive_from_page_width(self, machine):
        # 256-bit pages carry 16 16-bit hardware words
        assert machine.lanes == 16

    def test_write_bank_stores_and_emits_one_write(self, machine):
        page = np.arange(16, dtype=float)
        machine.write_bank(0, 2, 5, 1, page)
        assert np.array_equal(machine.unit(0, 2).load_page(5, 1), page)
        (request,) = machine.trace()
        assert request.op is Op.WRITE
        coords = machine.addr_map.decode(request.addr)
        assert (coords.channel, coords.row, coords.column) == (0, 5, 1)
        assert coords.flat_bank(machine.config.banks_per_group) == 2

    def test_broadcast_scalar_reaches_all_units_of_channel(self, machine):
        machine.broadcast_scalar(1, 3, 2.5)
        assert all(
            unit.srf[3] == 2.5 for unit in machine.units[1]
        )
        assert all(unit.srf[3] == 0.0 for unit in machine.units[0])
        assert list(machine.trace())[-1].op is Op.AB

    def test_broadcast_page_validates_width(self, machine):
        with pytest.raises(PimExecError, match="lanes"):
            machine.broadcast_page(0, "grf_a", 0, [1.0, 2.0])

    def test_register_indices_range_checked(self, machine):
        with pytest.raises(PimExecError, match="SRF index -1"):
            machine.broadcast_scalar(0, -1, 2.0)
        with pytest.raises(PimExecError, match="SRF index 8"):
            machine.broadcast_scalar(0, 8, 2.0)
        with pytest.raises(PimExecError, match="GRF index 8"):
            machine.broadcast_page(0, "grf_a", 8, np.zeros(16))
        with pytest.raises(PimExecError, match="GRF index -1"):
            machine.read_grf(0, 0, "grf_b", -1)

    def test_load_kernel_costs_one_ab_per_slot_per_channel(self, machine):
        machine.load_kernel(sum_kernel(4))
        requests = list(machine.trace())
        assert len(requests) == 3 * machine.n_channels
        assert all(r.op is Op.AB for r in requests)

    def test_read_grf_returns_copy(self, machine):
        machine.units[0][0].grf_b[0] = np.full(16, 7.0)
        out = machine.read_grf(0, 0, "grf_b", 0)
        out[0] = -1.0
        assert machine.unit(0, 0).grf_b[0][0] == 7.0
        assert list(machine.trace())[-1].op is Op.AB


def _host_sequence(machine, batched):
    """Every whole-machine host action once, batched or per unit."""
    rng = np.random.default_rng(7)
    addrs = [(0, 1), (2, 3)]
    pages = rng.standard_normal(
        (len(addrs), machine.total_units, machine.lanes)
    )
    units = list(machine.iter_units())
    mac = parse_command("MAC GRF,8 BANK SRF,1")
    if batched:
        machine.write_unit_pages(addrs, pages)
        machine.broadcast_scalars([0.5, -2.0], 2, 3)
        with machine.lockstep() as step:
            step(mac, 0, 1)
            step(mac, 2, 3)
        machine.broadcast_scalars([3.0], 0, 1)
        with machine.lockstep() as step:
            step(mac, 0, 1)
        grfs = machine.read_grfs("grf_b", 0)
        read = machine.read_unit_pages(addrs)
        return grfs, read
    for (row, col), unit_pages in zip(addrs, pages):
        for (ch, index, _), page in zip(units, unit_pages):
            machine.write_bank(ch, index * machine.ports, row, col, page)
    for index, value in enumerate([0.5, -2.0]):
        for ch in range(machine.n_channels):
            machine.broadcast_scalar(ch, index, value, 2, 3)
    for row, col in addrs:
        for ch in range(machine.n_channels):
            machine.pim_step(ch, mac, row, col)
    for ch in range(machine.n_channels):
        machine.broadcast_scalar(ch, 0, 3.0, 0, 1)
    for ch in range(machine.n_channels):
        machine.pim_step(ch, mac, 0, 1)
    grfs = np.stack(
        [machine.read_grf(ch, index, "grf_b", 0) for ch, index, _ in units]
    )
    read = np.stack(
        [
            [
                machine.read_bank(ch, index * machine.ports, row, col)
                for ch, index, _ in units
            ]
            for row, col in addrs
        ]
    )
    return grfs, read


class TestWholeMachineHostActions:
    """Batched host actions equal their per-unit loops, request for
    request."""

    @pytest.mark.parametrize("bank_groups", [False, True])
    def test_batched_equals_per_unit(self, bank_groups):
        machines = [
            PimExecMachine(dtype="fp16", bank_groups=bank_groups)
            for _ in range(2)
        ]
        results = [
            _host_sequence(machine, batched)
            for machine, batched in zip(machines, (True, False))
        ]
        for got, want in zip(*results):
            assert got.tobytes() == want.tobytes()
        assert list(machines[0].trace()) == list(machines[1].trace())
        for (_, _, a), (_, _, b) in zip(
            machines[0].iter_units(), machines[1].iter_units()
        ):
            assert a.grf_b.tobytes() == b.grf_b.tobytes()
            assert a.srf.tobytes() == b.srf.tobytes()
            assert a.commands_executed == b.commands_executed

    def test_mixed_lockstep_blocks_pack_in_stream_order(self):
        """Lockstep steps over different channel subsets, split by
        host requests, pack exactly as the same steps issued one
        channel at a time through ``pim_step``."""
        add = parse_command("ADD GRF,8 BANK GRF,8")
        kernel = [add, parse_command("JUMP 0 3"), parse_command("EXIT")]
        machines = [
            PimExecMachine(MemSysConfig(n_channels=4)) for _ in range(2)
        ]
        blocked, flat = machines
        for row, channels in enumerate(([2, 0], [1, 3, 2], [3, 1])):
            for machine in machines:
                machine.load_kernel(kernel, channels=channels)
            blocked.run_kernel(
                [(row, col) for col in range(4)], channels=channels
            )
            with blocked.lockstep() as step:
                step(add, row, 7)
            for col in range(4):
                for ch in channels:
                    flat.pim_step(ch, add, row, col)
            for ch in range(flat.n_channels):
                flat.pim_step(ch, add, row, 7)
        assert list(blocked.trace()) == list(flat.trace())

    def test_shape_and_range_checks(self, machine):
        with pytest.raises(PimExecError, match="shape"):
            machine.write_unit_pages([(0, 0)], np.zeros((1, 2, 16)))
        with pytest.raises(PimExecError, match="SRF"):
            machine.broadcast_scalars([0.0] * 9)
        with pytest.raises(PimExecError, match="grf_a/grf_b"):
            machine.read_grfs("srf", 0)
        with pytest.raises(PimExecError, match="sequencer control"):
            with machine.lockstep() as step:
                step(parse_command("EXIT"), 0, 0)


def _select(machine, entry, channels):
    """Drive one channel-selecting entry point on ``channels``."""
    add = parse_command("ADD GRF,8 BANK GRF,8")
    if entry == "lockstep":
        with machine.lockstep(channels) as step:
            step(add, 0, 0)
    elif entry == "run_kernel":
        machine.run_kernel([(0, 0)], channels=channels)
    elif entry == "load_kernel":
        machine.load_kernel(sum_kernel(1), channels=channels)
    else:
        (channel,) = channels
        machine.pim_step(channel, add, 0, 0)


ENTRIES = ("lockstep", "run_kernel", "load_kernel", "pim_step")


class TestChannelSelection:
    """Every channel-selecting entry point checks its selection before
    it executes or logs anything."""

    @pytest.mark.parametrize(
        "entry, channels, message",
        [
            (entry, [5], r"channel 5 out of range \[0, 2\)")
            for entry in ENTRIES
        ]
        + [
            (entry, channels, message)
            for entry in ENTRIES[:3]  # pim_step takes one channel
            for channels, message in (
                ([0, 0], "channel 0 selected more than once"),
                ([], "no channels selected"),
            )
        ],
    )
    def test_bad_selection_raises(self, machine, entry, channels, message):
        machine.load_kernel(sum_kernel(1))
        machine.reset_requests()
        machine.write_unit_pages(
            [(0, 0)], np.ones((1, machine.total_units, machine.lanes))
        )
        with pytest.raises(PimExecError, match=message):
            _select(machine, entry, channels)
        assert machine.n_requests == len(machine.trace())
        assert machine.n_requests == machine.total_units
        assert not machine.array.grf_b.any()
        assert not machine.array.commands_executed.any()
        assert all(
            stats == {
                "kernels_loaded": 1, "instructions": 0, "control_steps": 0
            }
            for stats in machine.sequencer_stats()
        )

    def test_log_is_exact_inside_a_lockstep_block(self, machine):
        """Steps taken in a block count at once and survive a trace()
        or append_trace made inside it."""
        add = parse_command("ADD GRF,8 BANK GRF,8")
        reference = PimExecMachine(MemSysConfig())
        with machine.lockstep() as step:
            step(add, 0, 1)
            assert machine.n_requests == machine.n_channels
            machine.append_trace(machine.trace())
            step(add, 0, 2)
            assert machine.n_requests == 3 * machine.n_channels
        for ch in range(reference.n_channels):
            reference.pim_step(ch, add, 0, 1)
        reference.append_trace(reference.trace())
        for ch in range(reference.n_channels):
            reference.pim_step(ch, add, 0, 2)
        assert machine.trace() == reference.trace()
        assert len(machine.trace()) == machine.n_requests


class TestKernelExecution:
    def test_run_kernel_executes_lockstep_on_all_banks(self, machine):
        pages = np.arange(16, dtype=float)
        for ch in range(machine.n_channels):
            for bank in range(machine.banks_per_channel):
                machine.unit(ch, bank).store_page(0, 0, pages * (bank + 1))
        machine.load_kernel(sum_kernel(1))
        executed = machine.run_kernel([(0, 0)])
        assert executed == machine.n_channels  # one step per channel
        for ch in range(machine.n_channels):
            for bank in range(machine.banks_per_channel):
                assert np.array_equal(
                    machine.unit(ch, bank).grf_b[0], pages * (bank + 1)
                )

    def test_run_kernel_interleaves_channels(self, machine):
        machine.load_kernel(sum_kernel(2))
        machine.reset_requests()
        machine.run_kernel([(0, 0), (0, 1)])
        channels = [
            machine.addr_map.decode(r.addr).channel
            for r in machine.trace()
        ]
        # round-robin: ch0, ch1, ch0, ch1 — not ch0, ch0, ch1, ch1
        assert channels == [0, 1, 0, 1]

    def test_pim_step_rejects_control(self, machine):
        with pytest.raises(PimExecError, match="sequencer control"):
            machine.pim_step(
                0, PimCommand(PimOpcode.EXIT), 0, 0
            )

    def test_mismatched_crf_programs_raise(self, machine):
        machine.load_kernel(sum_kernel(1), channels=[0])
        machine.load_kernel(sum_kernel(2), channels=[1])
        machine.reset_requests()
        with pytest.raises(PimExecError, match=r"channels \[1\]"):
            machine.run_kernel([(0, 0), (0, 1)])
        assert machine.n_requests == 0
        assert all(
            stats["instructions"] == 0
            for stats in machine.sequencer_stats()
        )


class TestReplay:
    def test_replay_reports_request_mix(self, machine):
        machine.write_bank(0, 0, 0, 0, np.zeros(16))
        machine.broadcast_scalar(0, 0, 1.0)
        machine.load_kernel(sum_kernel(1), channels=[0])
        machine.run_kernel([(0, 0)], channels=[0])
        result = machine.replay()
        assert result.n_requests == len(machine.trace())
        assert result.n_host == 1
        assert result.n_broadcast == 1 + 3
        assert result.n_pim == 1
        assert result.makespan_ns > 0

    def test_replay_requires_requests(self, machine):
        with pytest.raises(PimExecError, match="no requests"):
            machine.replay()

    def test_mixed_stream_event_and_fast_agree_bit_exactly(self, machine):
        machine.write_bank(0, 1, 2, 3, np.ones(16))
        machine.broadcast_scalar(0, 0, 2.0)
        machine.load_kernel(sum_kernel(3))
        machine.run_kernel([(0, 0), (0, 1), (1, 0)])
        fast = machine.replay()
        with event_replays():
            event = machine.replay()
        assert fast.engine == "fast-exact"
        assert event.stats.makespan_ns == fast.stats.makespan_ns
        assert event.stats.total_bits == fast.stats.total_bits
        assert event.stats.row_hits == fast.stats.row_hits

    def test_replay_is_repeatable(self, machine):
        machine.write_bank(0, 0, 0, 0, np.zeros(16))
        first = machine.replay()
        second = machine.replay()
        assert first.stats.makespan_ns == second.stats.makespan_ns
