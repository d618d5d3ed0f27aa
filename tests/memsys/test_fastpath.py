"""Tier-equivalence suite: the desim event oracle vs. the replay path.

Every combination of interleaving scheme x scheduling policy x access
pattern (plus PIM all-bank traces) is replayed through the tests-only
event calendar (:mod:`tests.memsys.event_oracle`) and through
:meth:`MemorySystem.replay`, and the resulting :class:`MemSysStats` must
agree to the last bit: both record bit-identical per-request times and
bank counters, and one reduction turns them into statistics.  Because
both drive the same controller code, each replay is also checked
against the timing laws (:func:`repro.memsys.check_laws`), which share
none of it.
"""

import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest

from repro.memsys import (
    Coordinates,
    MemRequest,
    MemSysConfig,
    MemorySystem,
    Op,
    PackedTrace,
    SCHEMES,
    check_laws,
    synthesize_trace,
)
from repro.memsys import fastpath
from repro.nn import TransformerLayerSpec, transformer_layer_program
from repro.telemetry import LatencyRecorder, ReplayTelemetry
from repro.telemetry.latency import channel_gauges

from .event_oracle import replay_event

SCHEME_NAMES = sorted(SCHEMES)
POLICY_NAMES = ("fcfs", "frfcfs")
PATTERN_NAMES = ("sequential", "strided", "random")


def pim_all_bank_trace(config, n):
    """All-bank PIM commands round-robining channels, sweeping rows."""
    amap = config.address_map()
    pages = config.timing.pages_per_row
    requests = []
    for i in range(n):
        k = i // config.n_channels
        coords = Coordinates(
            channel=i % config.n_channels,
            row=(k // pages) % config.rows_per_bank,
            column=k % pages,
        )
        requests.append(MemRequest(Op.PIM, amap.encode(coords)))
    return requests


def assert_laws_hold(config, telemetry):
    """The replay ``telemetry`` recorded obeys every timing law."""
    violations = check_laws(config, telemetry.recorder.arrays)
    assert not violations, violations[:5]


def replay_both(config, trace):
    """Replay one trace through the event oracle and the replay path on
    fresh systems, each checked against the timing laws."""
    event_tel = ReplayTelemetry(profile=False)
    event_stats = replay_event(MemorySystem(config), trace, event_tel)
    fast_tel = ReplayTelemetry(profile=False)
    fast_system = MemorySystem(config)
    fast_stats = fast_system.replay(trace, telemetry=fast_tel)
    assert_laws_hold(config, event_tel)
    assert_laws_hold(config, fast_tel)
    return event_stats, fast_stats, fast_system


def assert_stats_equivalent(event_stats, fast_stats, rel=None):
    """Stat-for-stat comparison; ``rel=None`` demands bit-exactness."""

    def check(actual, expected, key):
        if isinstance(expected, int):
            assert actual == expected, key
        elif math.isnan(expected):
            assert math.isnan(actual), key
        elif rel is None:
            assert actual == expected, key
        else:
            assert actual == pytest.approx(expected, rel=rel), key

    event_dict = dataclasses.asdict(event_stats)
    fast_dict = dataclasses.asdict(fast_stats)
    event_channels = event_dict.pop("per_channel")
    fast_channels = fast_dict.pop("per_channel")
    for key, expected in event_dict.items():
        check(fast_dict[key], expected, key)
    # the core quantities are reproduced bit-for-bit, not just closely
    assert fast_stats.makespan_ns == event_stats.makespan_ns
    assert (
        fast_stats.sustained_bits_per_sec
        == event_stats.sustained_bits_per_sec
    )
    assert len(fast_channels) == len(event_channels)
    for expected_row, actual_row in zip(event_channels, fast_channels):
        for key, expected in expected_row.items():
            check(actual_row[key], expected, key)


class TestEngineEquivalence:
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("pattern", PATTERN_NAMES)
    def test_scheme_policy_pattern_grid(self, scheme, policy, pattern):
        config = MemSysConfig(scheme=scheme, policy=policy)
        trace = synthesize_trace(
            pattern, 1500, config, seed=11, write_fraction=0.25
        )
        event_stats, fast_stats, _ = replay_both(config, trace)
        assert_stats_equivalent(event_stats, fast_stats)

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_pim_all_bank(self, policy):
        config = MemSysConfig(n_channels=2, policy=policy)
        trace = pim_all_bank_trace(config, 1024)
        event_stats, fast_stats, fast_system = replay_both(config, trace)
        assert fast_system.last_replay_engine == "fast-vectorized"
        assert_stats_equivalent(event_stats, fast_stats)

    def test_mixed_host_and_pim_trace(self):
        config = MemSysConfig(n_channels=1)
        host = synthesize_trace("sequential", 512, config)
        pim = pim_all_bank_trace(config, 512)
        trace = [
            r for pair in zip(host, pim) for r in pair
        ]
        event_stats, fast_stats, fast_system = replay_both(config, trace)
        # mixed streams reset all-bank state: only the exact tier applies
        assert fast_system.last_replay_engine == "fast-exact"
        assert_stats_equivalent(event_stats, fast_stats)

    def test_small_and_sub_queue_depth_traces(self):
        config = MemSysConfig()
        for n in (1, 3, config.queue_depth, config.queue_depth + 1):
            trace = synthesize_trace("sequential", n, config)
            event_stats, fast_stats, _ = replay_both(config, trace)
            assert_stats_equivalent(event_stats, fast_stats)

    def test_queue_depth_one(self):
        config = MemSysConfig(queue_depth=1, n_channels=2)
        trace = synthesize_trace("random", 600, config, seed=9)
        event_stats, fast_stats, _ = replay_both(config, trace)
        assert_stats_equivalent(event_stats, fast_stats)

    def test_explicit_precharge(self):
        config = MemSysConfig(
            n_channels=1, bankgroups=1, banks_per_group=1,
            precharge_ns=7.5,
        )
        trace = synthesize_trace("random", 800, config, seed=2)
        event_stats, fast_stats, _ = replay_both(config, trace)
        assert_stats_equivalent(event_stats, fast_stats)

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize(
        "pattern", ("sequential", "strided", "random")
    )
    def test_closed_page_policy(self, policy, pattern):
        config = MemSysConfig(policy=policy, row_policy="closed")
        trace = synthesize_trace(
            pattern, 1200, config, seed=5, write_fraction=0.25
        )
        event_stats, fast_stats, fast_system = replay_both(config, trace)
        # no hits exist to hoist: the closed form stays exact
        assert fast_system.last_replay_engine == "fast-vectorized"
        assert fast_stats.row_hits == 0
        assert fast_stats.row_conflicts == 0
        assert_stats_equivalent(event_stats, fast_stats)

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_closed_page_pim_all_bank(self, policy):
        config = MemSysConfig(
            n_channels=2, policy=policy, row_policy="closed"
        )
        trace = pim_all_bank_trace(config, 512)
        event_stats, fast_stats, fast_system = replay_both(config, trace)
        assert fast_system.last_replay_engine == "fast-vectorized"
        assert fast_stats.row_hits == 0
        assert_stats_equivalent(event_stats, fast_stats)

    def test_ab_broadcast_stream_uses_exact_tier(self):
        """Register-broadcast traffic always runs the exact tier and
        matches the event engine bit-for-bit."""
        config = MemSysConfig(n_channels=2)
        host = synthesize_trace("sequential", 300, config)
        trace = []
        for i, request in enumerate(host):
            trace.append(request)
            if i % 3 == 0:
                trace.append(MemRequest(Op.AB, request.addr))
        event_stats, fast_stats, fast_system = replay_both(config, trace)
        assert fast_system.last_replay_engine == "fast-exact"
        assert_stats_equivalent(event_stats, fast_stats, rel=None)


class TestTierSelection:
    def test_streaming_uses_vectorized_tier(self):
        config = MemSysConfig(n_channels=2, scheme="channel-interleaved")
        system = MemorySystem(config)
        system.replay(
            synthesize_trace("sequential", 2048, config), engine="fast"
        )
        assert system.last_replay_engine == "fast-vectorized"

    def test_random_frfcfs_uses_exact_tier(self):
        config = MemSysConfig(
            n_channels=2, scheme="channel-interleaved", policy="frfcfs"
        )
        system = MemorySystem(config)
        system.replay(
            synthesize_trace("random", 2048, config, seed=1),
            engine="fast",
        )
        assert system.last_replay_engine == "fast-exact"

    def test_exact_tier_is_bit_identical(self):
        """The exact tier replicates the event calendar's scheduling
        order, so even float aggregates match bit-for-bit."""
        config = MemSysConfig(policy="frfcfs")
        trace = synthesize_trace(
            "random", 2000, config, seed=4, write_fraction=0.3
        )
        event_stats, fast_stats, fast_system = replay_both(config, trace)
        assert fast_system.last_replay_engine == "fast-exact"
        assert_stats_equivalent(event_stats, fast_stats, rel=None)


class TestEngineSelection:
    def test_auto_replays_on_the_fast_path(self):
        config = MemSysConfig()
        system = MemorySystem(config)
        system.replay(synthesize_trace("sequential", 64, config))
        assert system.last_replay_engine.startswith("fast")

    @pytest.mark.parametrize("engine", ("warp", "event"))
    def test_unknown_engine_rejected(self, engine):
        config = MemSysConfig()
        with pytest.raises(ValueError, match="unknown engine"):
            MemorySystem(config).replay(
                synthesize_trace("sequential", 16, config),
                engine=engine,
            )

    def test_second_replay_rejected_on_fast_engine(self):
        config = MemSysConfig()
        system = MemorySystem(config)
        system.replay(
            synthesize_trace("sequential", 16, config), engine="fast"
        )
        with pytest.raises(RuntimeError, match="fresh MemorySystem"):
            system.replay(
                synthesize_trace("sequential", 16, config),
                engine="fast",
            )


class TestFastPathSideEffects:
    def test_recorded_request_fields_match_event_oracle(self):
        """Both fast tiers record the event oracle's per-request times,
        outcomes and routing."""
        for pattern, expected_tier in (
            ("sequential", "fast-vectorized"),
            ("random", "fast-exact"),
        ):
            config = MemSysConfig(
                scheme="channel-interleaved", policy="frfcfs"
            )
            trace = synthesize_trace(pattern, 2048, config, seed=8)
            event_tel = ReplayTelemetry(profile=False)
            replay_event(MemorySystem(config), trace, event_tel)
            fast_tel = ReplayTelemetry(profile=False)
            fast_system = MemorySystem(config)
            fast_system.replay(trace, engine="fast", telemetry=fast_tel)
            assert fast_system.last_replay_engine == expected_tier
            assert_arrays_identical(event_tel.recorder, fast_tel.recorder)

    def test_queue_length_extremes_match_event_engine(self):
        """The per-channel queue peak derived from the recorded arrays
        is the same for the event oracle and the vectorized tier, and
        is a line-rate stream's settled full queue."""
        config = MemSysConfig(n_channels=2, scheme="channel-interleaved")
        for n in (4, config.queue_depth, 2048):
            trace = synthesize_trace("sequential", n, config)
            peaks = {}
            for replay in (replay_event, MemorySystem.replay):
                telemetry = ReplayTelemetry()
                system = MemorySystem(config)
                replay(system, trace, telemetry=telemetry)
                peaks[system.last_replay_engine] = [
                    gauges["max_queue_length"]
                    for gauges in channel_gauges(telemetry)
                ]
            assert set(peaks) == {"event", "fast-vectorized"}
            # line-rate: at 0 a channel's queue fills up to its depth
            # and its first service starts, freeing a slot the injector
            # refills at once; the depth settled at 0 is one less than
            # the admissions
            n_c = n // config.n_channels
            expected = float(min(n_c - 1, config.queue_depth))
            assert peaks["event"] == [expected] * config.n_channels
            assert peaks["fast-vectorized"] == peaks["event"]

    def test_bank_state_matches_event_engine(self):
        config = MemSysConfig()
        trace = synthesize_trace("random", 500, config, seed=6)
        event_system = MemorySystem(config)
        replay_event(event_system, trace)
        fast_system = MemorySystem(config)
        fast_system.replay(trace, engine="fast")
        for event_banks, fast_banks in zip(
            event_system.banks, fast_system.banks
        ):
            for event_bank, fast_bank in zip(event_banks, fast_banks):
                assert fast_bank.open_row == event_bank.open_row
                assert fast_bank.hits == event_bank.hits
                assert fast_bank.misses == event_bank.misses
                assert fast_bank.conflicts == event_bank.conflicts

    def test_packed_trace_replay_matches_object_replay(self):
        config = MemSysConfig(n_channels=2, scheme="channel-interleaved")
        objects = synthesize_trace(
            "sequential", 1024, config, write_fraction=0.5, seed=3
        )
        packed = PackedTrace.from_requests(objects)
        object_stats = MemorySystem(config).replay(objects, engine="fast")
        packed_stats = MemorySystem(config).replay(packed, engine="fast")
        assert dataclasses.asdict(packed_stats) == dataclasses.asdict(
            object_stats
        )

    def test_packed_trace_through_event_engine(self):
        config = MemSysConfig()
        packed = synthesize_trace(
            "sequential", 256, config, packed=True
        )
        system = MemorySystem(config)
        stats = replay_event(system, packed)
        assert system.last_replay_engine == "event"
        assert stats.n_requests == 256


#: The recorder's trace-ordered arrays.
RECORDED_ARRAYS = LatencyRecorder.KEYS


def assert_arrays_identical(expected, actual):
    """Every recorded array of two recorders, to the byte."""
    for name in RECORDED_ARRAYS:
        want, got = expected.arrays[name], actual.arrays[name]
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def open_rows(system):
    return [[bank.open_row for bank in banks] for banks in system.banks]


def replay_against_oracle(config, trace):
    """Replay ``trace`` on the oracle and on the replay path, assert
    they agree to the byte — stats, every recorded array, row counts
    and open rows — with the timing laws holding on both, and return
    ``(engine, oracle recorder, system)``."""
    oracle_system = MemorySystem(config)
    oracle_tel = ReplayTelemetry(profile=False)
    oracle_stats = replay_event(oracle_system, trace, oracle_tel)
    system = MemorySystem(config)
    telemetry = ReplayTelemetry(profile=False)
    stats = system.replay(trace, telemetry=telemetry)
    assert_laws_hold(config, oracle_tel)
    assert_laws_hold(config, telemetry)
    assert repr(stats) == repr(oracle_stats)
    assert_arrays_identical(oracle_tel.recorder, telemetry.recorder)
    assert (
        system.row_counts().tobytes()
        == oracle_system.row_counts().tobytes()
    )
    assert open_rows(system) == open_rows(oracle_system)
    return system.last_replay_engine, oracle_tel.recorder, system


def replay_exact_tier(config, trace, telemetry=None):
    """A fast-path replay whose vectorized certificates all decline, so
    the exact tier runs whatever the trace."""
    system = MemorySystem(config)
    with mock.patch.object(fastpath, "_vector_plan", return_value=None):
        stats = system.replay(trace, telemetry=telemetry)
    assert system.last_replay_engine == "fast-exact"
    if telemetry is not None and telemetry.recorder is not None:
        assert_laws_hold(config, telemetry)
    return stats


def replay_exact_three_ways(config, trace):
    """The event oracle on objects, then the exact tier on objects and
    on the packed trace; returns ``(stats, telemetry)`` each."""
    runs = []
    telemetry = ReplayTelemetry()
    stats = replay_event(MemorySystem(config), trace, telemetry)
    runs.append((stats, telemetry))
    for requests in (trace, PackedTrace.from_requests(trace)):
        telemetry = ReplayTelemetry()
        stats = replay_exact_tier(config, requests, telemetry)
        runs.append((stats, telemetry))
    return runs


def assert_exact_plumbing_identical(config, trace):
    """Packed and object input through the exact tier give the event
    oracle's stats and recorder arrays."""
    (event_stats, event_tel), *fast_runs = replay_exact_three_ways(
        config, trace
    )
    for stats, telemetry in fast_runs:
        assert repr(stats) == repr(event_stats)
        assert_arrays_identical(event_tel.recorder, telemetry.recorder)


class TestExactTierRecords:
    """The exact tier's slotted records and array capture.

    The tier replays packed and object traces on the same records, so
    both inputs must record exactly what the event oracle records.
    """

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("refresh", (None, "per-rank", "per-bank"))
    @pytest.mark.parametrize("interarrival_ns", (None, 3.0))
    def test_random_trace_matrix(self, policy, refresh, interarrival_ns):
        knobs = (
            {}
            if refresh is None
            else dict(
                trefi_ns=500.0, trfc_ns=60.0, refresh_granularity=refresh
            )
        )
        config = MemSysConfig(
            scheme="channel-interleaved", policy=policy, **knobs
        )
        arrivals = (
            {}
            if interarrival_ns is None
            else dict(interarrival_ns=interarrival_ns, interarrival="poisson")
        )
        trace = synthesize_trace(
            "random", 1500, config, seed=4, write_fraction=0.3, **arrivals
        )
        assert_exact_plumbing_identical(config, trace)

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("timestamped", (False, True))
    def test_mixed_pimexec_stream(self, policy, timestamped):
        """A transformer-layer program lowers to host reads/writes, AB
        register broadcasts, and PIM row ops on one channel."""
        config = MemSysConfig(policy=policy)
        spec = TransformerLayerSpec(d_model=16, n_heads=1, seq_len=4, d_ff=16)
        trace = transformer_layer_program(spec, config).to_requests(config)
        assert {r.op for r in trace} == set(Op)
        if not timestamped:
            trace = [MemRequest(r.op, r.addr) for r in trace]
        assert_exact_plumbing_identical(config, trace)


def ab_all_bank_trace(config, n):
    """All-bank broadcast commands with the same geometry as
    :func:`pim_all_bank_trace` — the lockstep PIM machine emits exactly
    this shape when staging register files."""
    return [
        MemRequest(Op.AB, request.addr)
        for request in pim_all_bank_trace(config, n)
    ]


class TestAbCertificate:
    """Admission and decline cases for the AB fastpath certificate."""

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_pure_ab_stream_admitted(self, policy):
        config = MemSysConfig(n_channels=2, policy=policy)
        trace = ab_all_bank_trace(config, 512)
        event_stats, fast_stats, fast_system = replay_both(config, trace)
        assert fast_system.last_replay_engine == "fast-vectorized"
        assert fast_stats.n_requests == 512
        assert_stats_equivalent(event_stats, fast_stats)

    def test_ab_prefix_then_pim_admitted(self):
        """The broadcast-then-execute shape every lockstep kernel run
        produces: GRF/SRF staging broadcasts followed by the all-bank
        compute stream stays on the closed-form tier."""
        config = MemSysConfig(n_channels=2)
        trace = ab_all_bank_trace(config, 64) + pim_all_bank_trace(
            config, 512
        )
        event_stats, fast_stats, fast_system = replay_both(config, trace)
        assert fast_system.last_replay_engine == "fast-vectorized"
        assert fast_stats.n_requests == 64 + 512
        assert_stats_equivalent(event_stats, fast_stats)

    def test_ab_interleaved_with_pim_admitted(self):
        """AB and PIM may interleave freely: both are all-bank ops, so
        the certificate holds with no host traffic in the channel."""
        config = MemSysConfig(n_channels=2)
        ab = ab_all_bank_trace(config, 256)
        pim = pim_all_bank_trace(config, 256)
        trace = [r for pair in zip(ab, pim) for r in pair]
        event_stats, fast_stats, fast_system = replay_both(config, trace)
        assert fast_system.last_replay_engine == "fast-vectorized"
        assert_stats_equivalent(event_stats, fast_stats)

    def test_slow_timestamped_ab_stream_admitted(self):
        """Timestamped arrivals slower than service keep the queue
        empty, so the backpressure certificate passes."""
        config = MemSysConfig(n_channels=2)
        trace = [
            MemRequest(r.op, r.addr, timestamp=i * 1000.0)
            for i, r in enumerate(ab_all_bank_trace(config, 256))
        ]
        event_stats, fast_stats, fast_system = replay_both(config, trace)
        assert fast_system.last_replay_engine == "fast-vectorized"
        assert_stats_equivalent(event_stats, fast_stats)

    def test_burst_timestamped_ab_stream_declined(self):
        """All arrivals at t=0 overflow the queue: the backpressure
        certificate fails and the exact tier reproduces the event
        calendar bit-for-bit."""
        config = MemSysConfig(n_channels=2)
        trace = [
            MemRequest(r.op, r.addr, timestamp=0.0)
            for r in ab_all_bank_trace(config, 256)
        ]
        event_stats, fast_stats, fast_system = replay_both(config, trace)
        assert fast_system.last_replay_engine == "fast-exact"
        assert_stats_equivalent(event_stats, fast_stats, rel=None)

    def test_per_bank_refresh_ab_stream_declined(self):
        """Per-bank refresh staggers the banks out of lockstep, which
        an all-bank closed form cannot express: exact tier, bit-exact."""
        config = MemSysConfig(
            n_channels=2,
            trefi_ns=3900.0,
            trfc_ns=350.0,
            refresh_granularity="per-bank",
        )
        trace = ab_all_bank_trace(config, 512)
        event_stats, fast_stats, fast_system = replay_both(config, trace)
        assert fast_system.last_replay_engine == "fast-exact"
        assert_stats_equivalent(event_stats, fast_stats, rel=None)

    def test_host_traffic_poisons_the_certificate(self):
        """A single host read inside an otherwise pure AB channel must
        decline the whole channel — no silent approximation."""
        config = MemSysConfig(n_channels=2)
        trace = ab_all_bank_trace(config, 256)
        host = synthesize_trace("sequential", 1, config)
        trace.insert(128, host[0])
        event_stats, fast_stats, fast_system = replay_both(config, trace)
        assert fast_system.last_replay_engine == "fast-exact"
        assert_stats_equivalent(event_stats, fast_stats, rel=None)


def mixed_nn_stream(config, n, seed, timestamped):
    """Host reads/writes interleaved with PIM row ops and AB register
    broadcasts on every channel — the nn traffic shape — over few rows,
    so FR-FCFS finds row hits to hoist and the AB barrier binds."""
    amap = config.address_map()
    rng = np.random.default_rng(seed)
    arrivals = (
        dict(interarrival_ns=3.0, interarrival="poisson")
        if timestamped
        else {}
    )
    host = synthesize_trace(
        "random", n, config, seed=seed, write_fraction=0.3, **arrivals
    )
    trace = []
    for i, request in enumerate(host):
        trace.append(request)
        if i % 5 == 0:
            coords = amap.decode(request.addr)
            addr = amap.encode(
                Coordinates(
                    channel=coords.channel,
                    row=int(rng.integers(0, config.rows_per_bank)),
                )
            )
            op = Op.AB if i % 10 == 0 else Op.PIM
            trace.append(MemRequest(op, addr, request.timestamp))
    return trace


#: ``(timestamped, refresh, policy, row_policy, depth)`` cells of the
#: mixed-stream matrix; the timestamped, refresh-free, open-row,
#: depth-16 cells are :meth:`TestExactTierRecords.test_mixed_pimexec_stream`'s.
MIXED_NN_CELLS = [
    cell
    for cell in itertools.product(
        (False, True),
        (None, "per-rank", "per-bank"),
        POLICY_NAMES,
        ("open", "closed"),
        (1, 16),
    )
    if cell[:2] != (True, None) or cell[3:] != ("open", 16)
]


class TestMixedNnTrafficMatrix:
    """Mixed host + PIM + AB streams against the event oracle: line-rate
    on two channels and timestamped on one, under every refresh mode,
    policy, row policy and queue depth."""

    @pytest.mark.parametrize(
        "timestamped, refresh, policy, row_policy, depth", MIXED_NN_CELLS
    )
    def test_cell(self, timestamped, refresh, policy, row_policy, depth):
        knobs = (
            {}
            if refresh is None
            else dict(
                trefi_ns=500.0, trfc_ns=60.0, refresh_granularity=refresh
            )
        )
        config = MemSysConfig(
            n_channels=1 if timestamped else 2,
            scheme="channel-interleaved",
            policy=policy,
            row_policy=row_policy,
            queue_depth=depth,
            rows_per_bank=64,
            **knobs,
        )
        trace = mixed_nn_stream(config, 600, 7, timestamped)
        engine, _, _ = replay_against_oracle(config, trace)
        assert engine == "fast-exact"


class TestCoincidentAdmissionCells:
    """Traces whose admissions coincide with dequeues.  Several channels
    sharing the line-rate injector: a channel drains while the injector
    blocks on another's full queue, and its admissions then land on its
    own dequeues.  Fixed-interval arrivals: an arrival ties a finish.
    Every recorded array, stat, row count and open row equals the
    oracle's."""

    def test_four_channel_random_stream(self):
        config = MemSysConfig(
            n_channels=4,
            scheme="channel-interleaved",
            policy="fcfs",
            queue_depth=16,
        )
        trace = synthesize_trace("random", 20_000, config, packed=True)
        engine, _, _ = replay_against_oracle(config, trace)
        assert engine == "fast-vectorized"

    @pytest.mark.parametrize("row_policy", ("open", "closed"))
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("precharge_ns", (0.0, 3.0))
    @pytest.mark.parametrize("depth", (1, 2, 4, 16))
    @pytest.mark.parametrize("n_channels", (1, 2, 4))
    def test_line_rate_grid(
        self, n_channels, depth, precharge_ns, policy, row_policy
    ):
        config = MemSysConfig(
            n_channels=n_channels,
            scheme="channel-interleaved",
            policy=policy,
            row_policy=row_policy,
            queue_depth=depth,
            precharge_ns=precharge_ns,
        )
        trace = synthesize_trace("random", 400, config, packed=True)
        replay_against_oracle(config, trace)

    def test_fixed_interval_arrival_ties_a_finish(self):
        config = MemSysConfig(
            n_channels=1, policy="fcfs", queue_depth=4, rows_per_bank=4
        )
        trace = synthesize_trace(
            "random", 50, config, seed=146,
            interarrival_ns=8.0, interarrival="fixed",
        )
        _, recorder, _ = replay_against_oracle(config, trace)
        assert np.any(np.isin(recorder.arrival, recorder.finish))
