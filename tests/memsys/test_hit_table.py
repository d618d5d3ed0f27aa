"""The FR-FCFS open-row tables must never change selections.

Both replays skip the FR-FCFS queue scan when their open-row table
says no queued request hits: the event oracle's
:class:`~tests.memsys.controller.ChannelController` keeps per-bank
queues rescanned on every open-row change, the exact tier's flat loop
keeps per-bank ``{row: queued count}`` tables moved by count
differences.  These tests replay traces through a *reference* oracle
whose ``_select`` always runs the full scan and require bit-identical
statistics, so a table that ever under-counts hits — skipping a scan
that would have hoisted one — cannot land silently.
"""

from unittest import mock

import numpy as np
import pytest

from repro.memsys import (
    MemRequest,
    MemorySystem,
    MemSysConfig,
    Op,
    synthesize_trace,
)
from repro.memsys import fastpath

from .controller import ChannelController
from .event_oracle import oracle_controllers, replay_event


def replay_exact(system, trace):
    """:meth:`MemorySystem.replay` on its exact tier, whatever the
    trace (the vectorized certificates all decline)."""
    with mock.patch.object(fastpath, "_vector_plan", return_value=None):
        stats = system.replay(trace)
    assert system.last_replay_engine == "fast-exact"
    return stats


#: The two replays with an open-row table: the oracle's controller and
#: the exact tier's flat loop.
REPLAYS = {"event": replay_event, "fast": replay_exact}


def _reference_select(self):
    """The table-free FR-FCFS selection: always scan the queue."""
    candidate = self._refresh_candidate
    if candidate is not None:
        self._refresh_candidate = None
        return candidate
    if self.policy == "frfcfs":
        ab = Op.AB
        banks = self.banks
        for request in self.pending:
            if request.op is ab:
                break
            index = request.bank_index
            if index is None:
                continue
            if banks[index].open_row == request.row:
                return request
    return self.pending[0]


def _stats_pair(trace_builder, config, engine, monkeypatch):
    table = REPLAYS[engine](MemorySystem(config), trace_builder())
    with monkeypatch.context() as patch:
        patch.setattr(ChannelController, "_select", _reference_select)
        reference = replay_event(MemorySystem(config), trace_builder())
    return repr(table), repr(reference)


@pytest.mark.parametrize("engine", ["event", "fast"])
@pytest.mark.parametrize(
    "pattern", ["random", "sequential", "strided", "blocked_reuse"]
)
def test_selection_matches_reference_scan(
    pattern, engine, monkeypatch
):
    config = MemSysConfig()
    table, reference = _stats_pair(
        lambda: synthesize_trace(pattern, 3_000, config, seed=7),
        config,
        engine,
        monkeypatch,
    )
    assert table == reference


@pytest.mark.parametrize("engine", ["event", "fast"])
@pytest.mark.parametrize("granularity", ["per-rank", "per-bank"])
def test_selection_matches_reference_under_refresh(
    granularity, engine, monkeypatch
):
    config = MemSysConfig(
        trefi_ns=500.0, trfc_ns=60.0, refresh_granularity=granularity
    )
    table, reference = _stats_pair(
        lambda: synthesize_trace(
            "random", 2_000, config, seed=11, write_fraction=0.3
        ),
        config,
        engine,
        monkeypatch,
    )
    assert table == reference


@pytest.mark.parametrize("engine", ["event", "fast"])
def test_selection_matches_reference_with_pim_and_ab(engine, monkeypatch):
    """Mixed host/PIM/AB streams exercise the all-bank row changes."""
    config = MemSysConfig()
    amap = config.address_map()

    def build():
        rng = np.random.default_rng(3)
        requests = []
        host = synthesize_trace("random", 600, config, seed=3)
        for i, request in enumerate(host):
            requests.append(request)
            if i % 7 == 0:
                row = int(rng.integers(0, config.rows_per_bank))
                coords = amap.decode(0)
                addr = amap.encode(
                    coords.__class__(
                        channel=i % config.n_channels, row=row
                    )
                )
                requests.append(
                    MemRequest(Op.PIM if i % 14 else Op.AB, addr)
                )
        return requests

    table, reference = _stats_pair(build, config, engine, monkeypatch)
    assert table == reference


def test_hit_count_reaches_zero_after_replay():
    config = MemSysConfig()
    system = MemorySystem(config)
    controllers = oracle_controllers(system)
    replay_event(
        system,
        synthesize_trace("random", 1_000, config, seed=1),
        controllers=controllers,
    )
    for controller in controllers:
        assert controller._queued_hits == 0
        assert all(not queue for queue in controller._bank_queue)
