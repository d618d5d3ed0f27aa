"""The FR-FCFS per-bank open-row table must never change selections.

``ChannelController._select`` skips the queue scan when the open-row
table says no queued request hits.  These tests replay traces against
a *reference* controller whose ``_select`` always runs the full scan
(the pre-table implementation) and require bit-identical statistics,
so an open-row table that ever under-counts hits — skipping a scan
that would have hoisted one — cannot land silently.
"""

import numpy as np
import pytest

from repro.memsys import (
    MemRequest,
    MemorySystem,
    MemSysConfig,
    Op,
    synthesize_trace,
)
from repro.memsys.controller import ChannelController

from .event_oracle import replay_event

#: The two replays the open-row table serves.
REPLAYS = {"event": replay_event, "fast": MemorySystem.replay}


def _reference_select(self):
    """The pre-table FR-FCFS selection: always scan the queue."""
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
    replay = REPLAYS[engine]
    table = replay(MemorySystem(config), trace_builder()).summary()
    with monkeypatch.context() as patch:
        patch.setattr(ChannelController, "_select", _reference_select)
        reference = replay(MemorySystem(config), trace_builder()).summary()
    return table, reference


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


@pytest.mark.parametrize("granularity", ["per-rank", "per-bank"])
def test_selection_matches_reference_under_refresh(
    granularity, monkeypatch
):
    config = MemSysConfig(
        trefi_ns=500.0, trfc_ns=60.0, refresh_granularity=granularity
    )
    table, reference = _stats_pair(
        lambda: synthesize_trace(
            "random", 2_000, config, seed=11, write_fraction=0.3
        ),
        config,
        "event",
        monkeypatch,
    )
    assert table == reference


def test_selection_matches_reference_with_pim_and_ab(monkeypatch):
    """Mixed host/PIM/AB streams exercise the all-bank rescans."""
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

    config_stats, reference = _stats_pair(
        build, config, "event", monkeypatch
    )
    assert config_stats == reference


def test_hit_count_reaches_zero_after_replay():
    config = MemSysConfig()
    system = MemorySystem(config)
    system.replay(synthesize_trace("random", 1_000, config, seed=1))
    for controller in system.controllers:
        assert controller._queued_hits == 0
        assert all(not queue for queue in controller._bank_queue)
