"""The timing-law checker: silent on real replays, loud on corruption.

:func:`repro.memsys.check_laws` is the oracle that shares no code with
the replay tiers, so it is tested from both sides: every tier's replay
over the policy x refresh x arrival x queue-depth matrix obeys every
law, and corrupting one entry of a good replay's arrays breaks the
targeted law at that entry.
"""

import itertools

import numpy as np
import pytest

from repro.memsys import (
    LAWS,
    Coordinates,
    MemRequest,
    MemSysConfig,
    MemorySystem,
    Op,
    check_laws,
    synthesize_trace,
)
from repro.memsys.bank import latency_table
from repro.telemetry import ReplayTelemetry

from .test_fastpath import replay_exact_tier

HIT, MISS = 0, 1

REFRESH = {
    "off": {},
    "per-rank": dict(trefi_ns=500.0, trfc_ns=40.0),
    "per-bank": dict(
        trefi_ns=500.0, trfc_ns=40.0, refresh_granularity="per-bank"
    ),
}
ARRIVALS = {
    "line-rate": {},
    "poisson": dict(interarrival_ns=6.0, interarrival="poisson"),
}


def recorded(config, trace):
    """One replay's recorder arrays, as writable copies."""
    telemetry = ReplayTelemetry(profile=False)
    MemorySystem(config).replay(trace, telemetry=telemetry)
    return {k: v.copy() for k, v in telemetry.recorder.arrays.items()}


@pytest.mark.parametrize("depth", (1, 4, 16))
@pytest.mark.parametrize("arrivals", sorted(ARRIVALS))
@pytest.mark.parametrize("refresh", sorted(REFRESH))
@pytest.mark.parametrize("policy", ("fcfs", "frfcfs"))
def test_replays_obey_every_law(policy, refresh, arrivals, depth):
    config = MemSysConfig(
        n_channels=2,
        scheme="channel-interleaved",
        policy=policy,
        queue_depth=depth,
        **REFRESH[refresh],
    )
    tiers = set()
    for pattern, tier in itertools.product(
        ("sequential", "random"), ("auto", "exact")
    ):
        trace = synthesize_trace(
            pattern, 800, config, seed=5, packed=True,
            write_fraction=0.3, **ARRIVALS[arrivals],
        )
        telemetry = ReplayTelemetry(profile=False)
        if tier == "exact":
            replay_exact_tier(config, trace, telemetry)
        else:
            system = MemorySystem(config)
            system.replay(trace, telemetry=telemetry)
            tiers.add(system.last_replay_engine)
        assert check_laws(config, telemetry.recorder.arrays) == []
    if refresh == "off" and arrivals == "line-rate":
        # streaming traffic certifies: both tiers are covered
        assert "fast-vectorized" in tiers


# ----------------------------------------------------------------------
# one corrupted entry per law
# ----------------------------------------------------------------------
def poisson_replay(policy="frfcfs", **knobs):
    """Random traffic over few rows, fast enough to queue up: FR-FCFS
    finds row hits to hoist."""
    config = MemSysConfig(
        n_channels=2, scheme="channel-interleaved", policy=policy,
        rows_per_bank=8, **knobs,
    )
    trace = synthesize_trace(
        "random", 600, config, seed=3, packed=True,
        interarrival_ns=3.0, interarrival="poisson",
    )
    return config, recorded(config, trace)


def line_rate_replay(**knobs):
    config = MemSysConfig(n_channels=2, **knobs)
    trace = synthesize_trace("sequential", 600, config)
    return config, recorded(config, trace)


def hoisted_pair(arrays):
    """``(older, younger)``: a row hit that started before an older
    queued request on its channel."""
    arrival, start = arrays["arrival"], arrays["start_service"]
    for j in np.flatnonzero(arrays["outcome"] == HIT):
        older = np.flatnonzero(
            (arrays["channel"][:j] == arrays["channel"][j])
            & (start[:j] > start[j])
            & (arrival[:j] < start[j])
        )
        if older.shape[0]:
            return int(older[0]), int(j)
    raise AssertionError("no FR-FCFS hoist in the replay")


def corrupt_arrival_order():
    config, arrays = poisson_replay()
    arrays["arrival"][300] = arrays["arrival"][299] - 1.0
    return config, arrays, 300


def corrupt_early_start():
    config, arrays = poisson_replay()
    arrays["arrival"][300] = arrays["start_service"][300] + 1.0
    return config, arrays, 300


def corrupt_service_time():
    config, arrays = poisson_replay()
    arrays["finish"][300] = np.nextafter(arrays["finish"][300], np.inf)
    return config, arrays, 300


def corrupt_channel_overlap():
    config, arrays = line_rate_replay()
    # saturated line rate: each service starts as the last one ends
    arrays["start_service"][300] -= 1.0
    return config, arrays, 300


def corrupt_occupancy():
    config, arrays = poisson_replay()
    arrays["occupancy"][300] = config.queue_depth + 1
    return config, arrays, 300


def corrupt_refresh_blackout():
    config, arrays = line_rate_replay(trefi_ns=500.0, trfc_ns=40.0)
    start = arrays["start_service"]
    k = int(np.flatnonzero(start > 2000.0)[0])
    start[k] = 2010.0  # inside [2000, 2040)
    return config, arrays, k


def corrupt_row_outcome():
    config, arrays = line_rate_replay()
    k = int(np.flatnonzero(arrays["outcome"] == HIT)[5])
    arrays["outcome"][k] = MISS
    return config, arrays, k


def corrupt_fcfs_order():
    config, arrays = poisson_replay(policy="fcfs")
    on_channel = np.flatnonzero(arrays["channel"] == 0)
    first, second = on_channel[100], on_channel[101]
    start = arrays["start_service"]
    start[second] = start[first] - 1.0
    return config, arrays, int(second)


def corrupt_frfcfs_hoist():
    config, arrays = poisson_replay()
    _, younger = hoisted_pair(arrays)
    arrays["outcome"][younger] = MISS
    return config, arrays, younger


def corrupt_ab_barrier():
    config, arrays = poisson_replay()
    older, younger = hoisted_pair(arrays)
    arrays["op"][older] = Op.AB.code
    return config, arrays, younger


MUTATIONS = {
    "arrival_order": corrupt_arrival_order,
    "early_start": corrupt_early_start,
    "service_time": corrupt_service_time,
    "channel_overlap": corrupt_channel_overlap,
    "occupancy": corrupt_occupancy,
    "refresh_blackout": corrupt_refresh_blackout,
    "row_outcome": corrupt_row_outcome,
    "fcfs_order": corrupt_fcfs_order,
    "frfcfs_hoist": corrupt_frfcfs_hoist,
    "ab_barrier": corrupt_ab_barrier,
}


def test_every_law_has_a_mutation():
    assert set(MUTATIONS) == set(LAWS)


@pytest.mark.parametrize("law", LAWS)
def test_corrupted_entry_breaks_its_law(law):
    config, arrays, index = MUTATIONS[law]()
    violations = check_laws(config, arrays)
    assert (law, index) in {(v.law, v.index) for v in violations}, (
        violations[:5]
    )
    hit = next(v for v in violations if (v.law, v.index) == (law, index))
    assert hit.channel == arrays["channel"][index]
    assert hit.detail


def test_uncorrupted_replays_are_clean():
    for replay in (poisson_replay, line_rate_replay):
        config, arrays = replay()
        assert check_laws(config, arrays) == []


def test_all_bank_outcome_is_the_slowest_bank():
    """A PIM command that hits some banks and misses others records the
    miss; recording the hit breaks the outcome law."""
    config = MemSysConfig(n_channels=1, bankgroups=1, banks_per_group=2)
    amap = config.address_map()
    trace = [
        MemRequest(Op.READ, amap.encode(Coordinates(bank=0, row=4))),
        MemRequest(Op.PIM, amap.encode(Coordinates(row=4))),
    ]
    arrays = recorded(config, trace)
    assert arrays["outcome"][1] == MISS
    assert check_laws(config, arrays) == []
    arrays["outcome"][1] = HIT
    arrays["finish"][1] = (
        arrays["start_service"][1]
        + latency_table(config.timing, config.precharge_ns)["hit"]
    )
    assert [(v.law, v.index) for v in check_laws(config, arrays)] == [
        ("row_outcome", 1)
    ]
