"""The windowed time-series document and its cross-engine bit-identity.

Every series in ``repro.telemetry/timeseries-v2`` is a deterministic
numpy reduction of the latency recorder's arrays, and those arrays are
bit-identical across the event engine, both fast-path tiers, and the
farm's merged shards — so whole documents must agree to the last bit
(``repr`` equality after dropping the ``engine`` label) over the
scheme x policy x refresh x arrival matrix.  That equivalence matrix is
the load-bearing test here; the rest pins window geometry, the exact
queue-depth/occupancy derivations, the error paths, and the
``validate_timeseries`` schema check.
"""

import json
import math

import numpy as np
import pytest

from repro.farm import FarmConfig, replay_farm
from repro.memsys import MemSysConfig, MemorySystem, synthesize_trace
from repro.telemetry import (
    TIMESERIES_SCHEMA,
    ReplayTelemetry,
    build_timeseries,
    validate_timeseries,
    write_timeseries,
)
from tests.memsys.event_oracle import replay_event
from tests.memsys.test_fastpath import assert_laws_hold, replay_exact_tier

N = 300

#: (trefi_ns, trfc_ns, granularity) refresh regimes, mirroring
#: tests/telemetry/test_equivalence.py.
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

#: Supervisor policy for the farm leg of the matrix: deterministic
#: in-process shard replays, no backoff sleeps.
FARM = dict(
    mode="inprocess", engine="fast",
    backoff_base_s=0.0, backoff_cap_s=0.0,
)


def record(config, trace, engine):
    """One recorded replay, checked against the timing laws:
    ``engine`` picks the event oracle, the pinned exact tier, or the
    replay path."""
    telemetry = ReplayTelemetry()
    if engine == "event":
        replay_event(MemorySystem(config), trace, telemetry)
    elif engine == "exact":
        replay_exact_tier(config, trace, telemetry)
    else:
        MemorySystem(config).replay(trace, telemetry=telemetry)
    assert_laws_hold(config, telemetry)
    return telemetry


def recorded_replay(config, trace, engine="auto"):
    return record(config, trace, engine)


def strip_engine(document):
    return {k: v for k, v in document.items() if k != "engine"}


class TestCrossEngineEquivalence:
    """The acceptance matrix: documents bit-identical across engines."""

    @pytest.mark.parametrize(
        "refresh_name,refresh",
        REFRESH,
        ids=[name for name, _ in REFRESH],
    )
    @pytest.mark.parametrize("arrival", ("line-rate", "timestamped"))
    @pytest.mark.parametrize(
        "scheme", ("row-major", "channel-interleaved")
    )
    @pytest.mark.parametrize("policy", ("fcfs", "frfcfs"))
    def test_series_matrix(
        self, refresh_name, refresh, arrival, scheme, policy
    ):
        config = MemSysConfig(scheme=scheme, policy=policy, **refresh)
        kwargs = dict(seed=11, write_fraction=0.25, packed=True)
        if arrival == "timestamped":
            kwargs["interarrival_ns"] = 6.0
        trace = synthesize_trace("random", N, config, **kwargs)
        documents = {}
        for engine in ("event", "fast", "exact"):
            documents[engine] = build_timeseries(
                record(config, trace, engine)
            )
        # the farm leg: sharded when the trace allows it, the exact
        # single-process fallback otherwise (line-rate traces) — the
        # merged recorder arrays are bit-identical either way
        farmed = ReplayTelemetry()
        replay_farm(trace, config, FarmConfig(**FARM), telemetry=farmed)
        assert_laws_hold(config, farmed)
        documents["farm"] = build_timeseries(farmed)
        reference = repr(strip_engine(documents["event"]))
        for engine, document in documents.items():
            assert validate_timeseries(document) == [], engine
            assert repr(strip_engine(document)) == reference, (
                f"time series diverges on the {engine} path "
                f"({scheme}/{policy}/{refresh_name}/{arrival})"
            )

    def test_engine_labels_differ_but_nothing_else(self):
        config = MemSysConfig(scheme="channel-interleaved")
        trace = synthesize_trace(
            "random", N, config, seed=3, packed=True,
            interarrival_ns=40.0, interarrival="poisson",
        )
        event = build_timeseries(record(config, trace, "event"))
        farmed = ReplayTelemetry()
        replay_farm(trace, config, FarmConfig(**FARM), telemetry=farmed)
        farm = build_timeseries(farmed)
        assert event["engine"] == "event"
        assert farm["engine"] == "farm"
        assert json.dumps(strip_engine(event)) == json.dumps(
            strip_engine(farm)
        )


class TestBuildTimeseries:
    def replay(self, pattern="random", n=512, **config_kwargs):
        config = MemSysConfig(**config_kwargs)
        return recorded_replay(
            config, synthesize_trace(pattern, n, config, seed=0)
        )

    def test_default_window_geometry(self):
        telemetry = self.replay()
        document = build_timeseries(telemetry)
        assert validate_timeseries(document) == []
        assert document["schema"] == TIMESERIES_SCHEMA
        assert document["n_windows"] == 64
        assert document["n_requests"] == 512
        assert document["window_ns"] * 64 == pytest.approx(
            document["makespan_ns"]
        )
        edges = document["t_start_ns"]
        assert edges[0] == 0.0
        assert all(b > a for a, b in zip(edges, edges[1:]))
        for key, series in document["series"].items():
            assert len(series) == 64, key

    def test_explicit_window_ns(self):
        telemetry = self.replay()
        makespan = telemetry.makespan_ns
        document = build_timeseries(telemetry, window_ns=makespan)
        assert document["n_windows"] == 1
        narrow = build_timeseries(telemetry, window_ns=makespan / 7.5)
        assert narrow["n_windows"] == math.ceil(
            makespan / (makespan / 7.5)
        )
        assert narrow["window_ns"] == makespan / 7.5

    def test_explicit_n_windows(self):
        document = build_timeseries(self.replay(), n_windows=8)
        assert document["n_windows"] == 8
        assert len(document["series"]["offered_per_s"]) == 8

    def test_rate_series_conserve_request_count(self):
        document = build_timeseries(self.replay(n=400), n_windows=16)
        window_s = document["window_ns"] * 1e-9
        for key in ("offered_per_s", "served_per_s"):
            total = sum(document["series"][key]) * window_s
            assert total == pytest.approx(400), key

    def test_queue_depth_max_dominates_mean(self):
        document = build_timeseries(self.replay(), n_windows=32)
        means = document["series"]["queue_depth_mean"]
        maxes = document["series"]["queue_depth_max"]
        assert any(m > 0 for m in maxes), "saturated queues must wait"
        assert all(
            hi >= lo - 1e-12 for lo, hi in zip(means, maxes)
        )

    def test_row_hit_rate_bounded_or_nan(self):
        document = build_timeseries(
            self.replay(pattern="sequential"), n_windows=16
        )
        rates = document["series"]["row_hit_rate"]
        assert all(
            math.isnan(r) or 0.0 <= r <= 1.0 for r in rates
        )
        assert any(
            not math.isnan(r) and r > 0 for r in rates
        ), "sequential traffic hits open rows"

    def test_refresh_series_off_and_on(self):
        off = build_timeseries(self.replay(), n_windows=16)
        assert off["series"]["refresh_overhead_fraction"] == [0.0] * 16
        refreshed = build_timeseries(
            self.replay(
                pattern="sequential", n=4096,
                trefi_ns=390.0, trfc_ns=35.0,
            ),
            n_windows=16,
        )
        blackout = refreshed["series"]["refresh_overhead_fraction"]
        assert any(f > 0 for f in blackout)
        assert all(0.0 <= f <= 1.0 + 1e-12 for f in blackout)

    def test_ab_stall_visible_on_pimexec_streams(self):
        from repro.pimexec import PimExecMachine, build_kernel

        kernel = build_kernel("vector-sum", n=1024)
        machine = PimExecMachine(kernel.config)
        kernel.setup(machine)
        machine.reset_requests()
        kernel.execute(machine)
        telemetry = ReplayTelemetry()
        machine.replay(telemetry=telemetry)
        document = build_timeseries(telemetry, n_windows=16)
        assert validate_timeseries(document) == []
        assert any(
            f > 0 for f in document["series"]["ab_stall_fraction"]
        ), "AB register broadcasts must occupy the barrier track"
        host_only = build_timeseries(self.replay(), n_windows=16)
        assert host_only["series"]["ab_stall_fraction"] == [0.0] * 16

    def test_per_channel_and_per_bank_tracks(self):
        config = MemSysConfig(n_channels=2)
        telemetry = recorded_replay(
            config, synthesize_trace("random", 400, config, seed=4)
        )
        document = build_timeseries(telemetry, n_windows=8)
        channels = document["channels"]
        assert [entry["channel"] for entry in channels] == [0, 1]
        window_s = document["window_ns"] * 1e-9
        per_channel = sum(
            sum(entry["served_per_s"]) * window_s for entry in channels
        )
        assert per_channel == pytest.approx(400)
        for entry in channels:
            assert [b["bank"] for b in entry["banks"]] == list(
                range(config.banks_per_channel)
            )
            assert all(
                0.0 <= f <= 1.0 + 1e-12
                for f in entry["busy_fraction"]
            )

    def test_requires_a_captured_replay(self):
        with pytest.raises(RuntimeError, match="captured replay"):
            build_timeseries(ReplayTelemetry())
        config = MemSysConfig()
        no_latency = ReplayTelemetry(latency=False)
        MemorySystem(config).replay(
            synthesize_trace("sequential", 32, config),
            telemetry=no_latency,
        )
        with pytest.raises(RuntimeError, match="captured replay"):
            build_timeseries(no_latency)

    def test_rejects_bad_window_arguments(self):
        telemetry = self.replay(n=64)
        with pytest.raises(ValueError, match="window_ns"):
            build_timeseries(telemetry, window_ns=0.0)
        with pytest.raises(ValueError, match="window_ns"):
            build_timeseries(telemetry, window_ns=-5.0)
        with pytest.raises(ValueError, match="n_windows"):
            build_timeseries(telemetry, n_windows=0)

    def test_write_timeseries_round_trips(self, tmp_path):
        telemetry = self.replay(n=64)
        path = write_timeseries(
            telemetry, tmp_path / "deep" / "series.json", n_windows=4
        )
        assert path.exists()
        document = json.loads(path.read_text())
        assert validate_timeseries(document) == []
        assert document["n_windows"] == 4
        assert build_timeseries(telemetry, n_windows=4) == document


class TestValidateTimeseries:
    def good(self, n_windows=8):
        config = MemSysConfig()
        telemetry = recorded_replay(
            config, synthesize_trace("sequential", 64, config)
        )
        return build_timeseries(telemetry, n_windows=n_windows)

    def test_good_document_is_clean(self):
        assert validate_timeseries(self.good()) == []

    def test_rejects_non_object(self):
        assert validate_timeseries([1]) == [
            "document must be an object, got list"
        ]

    def test_flags_wrong_schema(self):
        document = self.good()
        document["schema"] = "bogus/v9"
        assert any(
            "schema" in p for p in validate_timeseries(document)
        )

    def test_flags_bad_window_ns(self):
        for bad in (0.0, -1.0, float("inf"), "wide", True):
            document = self.good()
            document["window_ns"] = bad
            assert any(
                "window_ns" in p
                for p in validate_timeseries(document)
            ), bad

    def test_flags_bad_n_windows(self):
        for bad in (0, -3, 1.5, "many", True):
            document = self.good()
            document["n_windows"] = bad
            assert any(
                "n_windows" in p
                for p in validate_timeseries(document)
            ), bad

    def test_flags_series_length_mismatch(self):
        document = self.good()
        document["series"]["offered_per_s"].append(0.0)
        problems = validate_timeseries(document)
        assert any(
            "offered_per_s" in p and "length" in p for p in problems
        )

    def test_flags_missing_series(self):
        document = self.good()
        del document["series"]["queue_depth_max"]
        assert any(
            "queue_depth_max" in p
            for p in validate_timeseries(document)
        )

    def test_flags_non_finite_and_negative_values(self):
        document = self.good()
        document["series"]["served_per_s"][0] = float("nan")
        assert any(
            "NaN" in p for p in validate_timeseries(document)
        )
        document = self.good()
        document["series"]["served_per_s"][0] = float("inf")
        assert any(
            "finite" in p for p in validate_timeseries(document)
        )
        document = self.good()
        document["series"]["served_per_s"][0] = -1.0
        assert any(
            ">= 0" in p for p in validate_timeseries(document)
        )

    def test_nan_allowed_only_in_row_hit_rate(self):
        document = self.good()
        document["series"]["row_hit_rate"][0] = float("nan")
        assert validate_timeseries(document) == []

    def test_flags_non_increasing_t_start(self):
        document = self.good()
        document["t_start_ns"][1] = document["t_start_ns"][0]
        assert any(
            "strictly increasing" in p
            for p in validate_timeseries(document)
        )

    def test_flags_channel_and_bank_shape(self):
        document = self.good()
        document["channels"] = []
        assert any(
            "channels" in p for p in validate_timeseries(document)
        )
        document = self.good()
        del document["channels"][0]["channel"]
        assert any(
            "channel id" in p for p in validate_timeseries(document)
        )
        document = self.good()
        del document["channels"][0]["banks"][0]["bank"]
        assert any(
            "bank id" in p for p in validate_timeseries(document)
        )
        document = self.good()
        document["channels"][0]["busy_fraction"] = "busy"
        assert any(
            "busy_fraction" in p
            for p in validate_timeseries(document)
        )
