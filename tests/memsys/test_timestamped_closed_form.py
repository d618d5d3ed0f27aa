"""Timestamped traffic on the closed form, against the event oracle.

The vectorized tier solves timestamped channels — with or without
per-rank refresh — as a fenced Lindley recurrence under epoch labels,
certified afterwards (no backpressure, FIFO over the queue actually
visible at each selection).  Every replay here must match the desim
event oracle (:mod:`tests.memsys.event_oracle`) to the byte: stats,
recorder arrays, bank counters and open rows, with the timing laws
holding on both sides.  The matrix also pins *where* the closed form
runs: exactly on the cells the oracle serves in FIFO order without
backpressure, named cells included, so it cannot pass vacuously.  The
tie tests build traces with exact float times around the calendar's
``(time, priority, insertion)`` order.
"""

import itertools

import numpy as np
import pytest

from repro.memsys import (
    Coordinates,
    MemRequest,
    MemSysConfig,
    Op,
    synthesize_trace,
)
from repro.memsys.system import busy_ns

from .test_fastpath import open_rows, replay_against_oracle

VECTORIZED, EXACT = "fast-vectorized", "fast-exact"
#: Short refresh epochs, so a few hundred requests cross many of them.
TREFI, TRFC = 500.0, 60.0
MATRIX_N = 400
#: Few rows per bank: random traffic then finds row hits, so FR-FCFS
#: really hoists in some cells.
MATRIX_ROWS = 64

#: (policy, refresh, mean interarrival ns, queue depth, seed).
MATRIX = list(
    itertools.product(
        ("fcfs", "frfcfs"),
        (None, "per-rank"),
        (8.0, 30.0, 60.0),
        (1, 4, 16),
        (1, 2),
    )
)
#: Cells measured to take the closed form.
CLOSED_FORM_CELLS = {
    ("frfcfs", "per-rank", 60.0, 16, 1),
    ("frfcfs", "per-rank", 60.0, 4, 2),
    ("fcfs", "per-rank", 30.0, 16, 2),
    ("frfcfs", None, 60.0, 16, 1),
    ("fcfs", None, 30.0, 4, 1),
}
#: Cells where FR-FCFS hoists a row hit without any backpressure: the
#: FIFO certificate is what sends them to the exact tier.
HOISTING_CELLS = {
    ("frfcfs", "per-rank", 30.0, 16, 1),
    ("frfcfs", None, 30.0, 16, 2),
}


def fifo_unstalled(recorder, times):
    """Does the oracle serve every channel in trace order, admitting
    every request at its timestamp?  Exactly what the certificates
    certify."""
    start, channel = recorder.start_service, recorder.channel
    fifo = all(
        bool(np.all(np.diff(start[channel == c]) > 0))
        for c in np.unique(channel)
    )
    return fifo and np.array_equal(recorder.arrival, times)


@pytest.mark.parametrize(
    "cell", MATRIX, ids=lambda cell: "-".join(map(str, cell))
)
def test_equivalence_matrix(cell):
    policy, refresh, mean, depth, seed = cell
    knobs = {} if refresh is None else dict(trefi_ns=TREFI, trfc_ns=TRFC)
    config = MemSysConfig(
        n_channels=2,
        scheme="channel-interleaved",
        rows_per_bank=MATRIX_ROWS,
        policy=policy,
        queue_depth=depth,
        **knobs,
    )
    trace = synthesize_trace(
        "random",
        MATRIX_N,
        config,
        seed=seed,
        packed=True,
        interarrival_ns=mean,
        interarrival="poisson",
    )
    engine, recorder, _ = replay_against_oracle(config, trace)
    decided = fifo_unstalled(recorder, trace.times)
    assert engine == (VECTORIZED if decided else EXACT)
    if cell in CLOSED_FORM_CELLS:
        assert engine == VECTORIZED
    if cell in HOISTING_CELLS:
        assert np.array_equal(recorder.arrival, trace.times)
        assert engine == EXACT


def timed_reads(config, requests):
    """``(time, channel, flat bank, row)`` tuples as timestamped
    reads."""
    amap = config.address_map()
    per_group = config.banks_per_group
    return [
        MemRequest(
            Op.READ,
            amap.encode(
                Coordinates(
                    channel=channel,
                    bankgroup=bank // per_group,
                    bank=bank % per_group,
                    row=row,
                )
            ),
            time,
        )
        for time, channel, bank, row in requests
    ]


@pytest.mark.parametrize("refresh", (None, "per-rank"))
@pytest.mark.parametrize(
    "arrival, engine", ((22.0, EXACT), (22.5, VECTORIZED))
)
def test_tie_arrival_at_frfcfs_selection(refresh, arrival, engine):
    """A row hit arriving at the very instant of a selection.

    Request 0 (bank 0, row 5) is served over [0, 22); request 1 (bank
    1, a miss) is selected at 22.  Request 2 hits bank 0's open row 5
    and arrives at 22 exactly: the calendar pops the completion first,
    so it is not yet queued and FIFO holds — but the certificate counts
    an arrival at the selection's instant as queued and declines.  Half
    a nanosecond later it is plainly not visible, and the closed form
    runs."""
    knobs = {} if refresh is None else dict(trefi_ns=1000.0, trfc_ns=100.0)
    config = MemSysConfig(n_channels=1, policy="frfcfs", **knobs)
    trace = timed_reads(
        config, [(0.0, 0, 0, 5), (1.0, 0, 1, 7), (arrival, 0, 0, 5)]
    )
    got, recorder, _ = replay_against_oracle(config, trace)
    assert recorder.start_service[1] == 22.0
    assert list(recorder.start_service) == sorted(recorder.start_service)
    assert recorder.outcome_code[2] == 0  # the late arrival still hits
    assert got == engine


@pytest.mark.parametrize(
    "arrival, busy", ((101.0, 72.0), (102.0, 72.0), (103.0, 44.0))
)
def test_tie_arrival_at_finish_inside_blackout(arrival, busy):
    """An arrival at the previous finish, inside a refresh blackout.

    Request 0 is served over [80, 102); the blackout of the first
    boundary is [100, 130), so request 1 stalls to 130 however it
    arrives.  Arriving by 102 — at 102 exactly included — it joins
    request 0's busy period and the stall is busy time; arriving after,
    it wakes an idle channel and the stall is idle time.  Either
    calendar order of the completion and an admission at 102 starts
    request 1 at 130, so the closed form runs every case."""
    config = MemSysConfig(n_channels=1, trefi_ns=100.0, trfc_ns=30.0)
    trace = timed_reads(config, [(80.0, 0, 0, 1), (arrival, 0, 1, 2)])
    got, recorder, _ = replay_against_oracle(config, trace)
    assert recorder.finish[0] == 102.0
    assert recorder.start_service[1] == 130.0
    assert busy_ns(
        recorder.arrival, recorder.start_service, recorder.finish
    ) == busy
    assert got == VECTORIZED


def test_channel_idles_across_boundary_keeps_open_rows():
    """Precharge is lazy: it is applied at a channel's next decision.

    Channel 0 serves bank 0 in epoch 0 and bank 1 at 150 (epoch 1, so
    that decision closes bank 0), then idles across the boundary at
    200 while channel 1 works on: bank 1 keeps its row.  Channel 1's
    decision at 250 closes its bank 0."""
    config = MemSysConfig(
        n_channels=2,
        scheme="channel-interleaved",
        trefi_ns=100.0,
        trfc_ns=30.0,
    )
    trace = timed_reads(
        config,
        [
            (0.0, 0, 0, 3),
            (10.0, 1, 0, 9),
            (150.0, 0, 1, 4),
            (250.0, 1, 2, 6),
        ],
    )
    engine, _, system = replay_against_oracle(config, trace)
    assert engine == VECTORIZED
    rows = open_rows(system)
    assert rows[0][:3] == [None, 4, None]
    assert rows[1][:3] == [None, None, 6]


def _declining_traces():
    """Timestamped traces the closed form must leave to the exact
    tier."""
    per_rank = dict(trefi_ns=TREFI, trfc_ns=TRFC)
    per_bank = MemSysConfig(
        n_channels=2, refresh_granularity="per-bank", **per_rank
    )
    yield "per-bank", per_bank, synthesize_trace(
        "random", 300, per_bank, seed=1, interarrival_ns=60.0,
        interarrival="poisson",
    )
    config = MemSysConfig(n_channels=1, **per_rank)
    amap = config.address_map()
    mixed = [
        MemRequest(op, amap.encode(Coordinates(row=i % 4)), 50.0 * i)
        for i, op in enumerate([Op.AB, Op.READ, Op.PIM, Op.WRITE] * 20)
    ]
    yield "mixed host/all-bank", config, mixed
    all_bank = [r for r in mixed if r.op in (Op.AB, Op.PIM)]
    yield "all-bank under per-rank refresh", config, all_bank
    backpressured = MemSysConfig(n_channels=2, queue_depth=4, **per_rank)
    yield "backpressured", backpressured, synthesize_trace(
        "random", 300, backpressured, seed=1, interarrival_ns=2.0,
        interarrival="poisson",
    )


@pytest.mark.parametrize(
    "label, config, trace",
    list(_declining_traces()),
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_declines(label, config, trace):
    engine, _, _ = replay_against_oracle(config, trace)
    assert engine == EXACT, label
