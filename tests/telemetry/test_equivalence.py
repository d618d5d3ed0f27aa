"""Per-request latency equivalence with the event oracle.

For the same trace and configuration the recorded ``arrival`` /
``start_service`` / ``finish`` instants — and the routing/outcome
context — must be **bit-identical** (``np.array_equal``, no tolerance)
between the replay path and the tests-only event calendar
(:mod:`tests.memsys.event_oracle`), across the refresh x arrival x
scheme x policy matrix, including PIM all-bank traffic, AB broadcasts,
and full pimexec program streams; and both must obey the timing laws.
"""

import numpy as np
import pytest

from repro.memsys import (
    Coordinates,
    MemRequest,
    MemSysConfig,
    MemorySystem,
    Op,
    synthesize_trace,
)
from repro.telemetry import LatencyRecorder, ReplayTelemetry

from tests.memsys.event_oracle import event_replays, replay_event
from tests.memsys.test_fastpath import assert_laws_hold

N = 300

#: (trefi_ns, trfc_ns, granularity) refresh regimes.
REFRESH = (
    ("off", dict()),
    ("per-rank", dict(trefi_ns=3900.0, trfc_ns=350.0)),
    (
        "per-bank",
        dict(
            trefi_ns=3900.0,
            trfc_ns=80.0,
            refresh_granularity="per-bank",
        ),
    ),
)

RECORDED_FIELDS = LatencyRecorder.KEYS


def record_both(config, trace):
    """Replay through the event oracle and the replay path; return the
    two telemetries, each checked against the timing laws."""
    event = ReplayTelemetry()
    replay_event(MemorySystem(config), trace, event)
    fast = ReplayTelemetry()
    MemorySystem(config).replay(trace, telemetry=fast)
    assert event.engine == "event"
    assert fast.engine.startswith("fast-")
    assert_laws_hold(config, event)
    assert_laws_hold(config, fast)
    return event, fast


def assert_bit_identical(event, fast):
    for field in RECORDED_FIELDS:
        a = event.recorder.arrays[field]
        b = fast.recorder.arrays[field]
        assert np.array_equal(a, b), (
            f"{field} diverges from the event oracle "
            f"(event vs {fast.engine})"
        )
    # identical arrays must yield identical percentile documents
    assert event.percentiles() == fast.percentiles()


@pytest.mark.parametrize(
    "refresh_name,refresh", REFRESH, ids=[name for name, _ in REFRESH]
)
@pytest.mark.parametrize("arrival", ("line-rate", "timestamped"))
@pytest.mark.parametrize(
    "scheme", ("row-major", "channel-interleaved")
)
@pytest.mark.parametrize("policy", ("fcfs", "frfcfs"))
def test_per_request_latency_matrix(
    refresh_name, refresh, arrival, scheme, policy
):
    config = MemSysConfig(scheme=scheme, policy=policy, **refresh)
    kwargs = dict(seed=11, write_fraction=0.25)
    if arrival == "timestamped":
        kwargs["interarrival_ns"] = 6.0
    trace = synthesize_trace("random", N, config, **kwargs)
    event, fast = record_both(config, trace)
    assert event.recorder.n == fast.recorder.n == N
    assert_bit_identical(event, fast)


def test_pim_all_bank_traffic():
    config = MemSysConfig()
    amap = config.address_map()
    pages = config.timing.pages_per_row
    trace = [
        MemRequest(
            Op.PIM,
            amap.encode(
                Coordinates(
                    channel=i % config.n_channels,
                    row=(i // config.n_channels // pages)
                    % config.rows_per_bank,
                    column=(i // config.n_channels) % pages,
                )
            ),
        )
        for i in range(128)
    ]
    event, fast = record_both(config, trace)
    assert (event.recorder.bank == -1).all()
    assert_bit_identical(event, fast)


def test_pimexec_program_stream():
    """A full machine-generated stream (AB broadcasts + PIM + host)."""
    from repro.pimexec import PimExecMachine, build_kernel

    kernel = build_kernel("vector-sum", n=2048)
    machine = PimExecMachine(kernel.config)
    kernel.setup(machine)
    machine.reset_requests()
    kernel.execute(machine)

    event = ReplayTelemetry()
    with event_replays():
        machine.replay(telemetry=event)
    fast = ReplayTelemetry()
    machine.replay(telemetry=fast)
    assert_laws_hold(kernel.config, fast)
    assert event.recorder.n == fast.recorder.n > 0
    # the stream carries AB broadcasts (outcome code 3)
    assert (event.recorder.outcome_code == 3).any()
    assert_bit_identical(event, fast)


@pytest.mark.parametrize("pattern", ("sequential", "strided"))
def test_vectorized_tier_agrees_with_event(pattern):
    """Patterns the closed form certifies: the vectorized tier's
    solved instants must equal the calendar's, not just its stats."""
    config = MemSysConfig(n_channels=2, scheme="channel-interleaved")
    trace = synthesize_trace(pattern, 2000, config)
    event, fast = record_both(config, trace)
    assert fast.engine == "fast-vectorized"
    assert_bit_identical(event, fast)
