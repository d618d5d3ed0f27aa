"""The energy-accounting document and its cross-engine bit-identity.

Every number in ``repro.telemetry/energy-v1`` is a deterministic numpy
reduction of the latency recorder's arrays plus the replay's config,
and those arrays are bit-identical across the event engine, both
fast-path tiers, both execution-unit tiers, and the farm's merged
shards — so whole documents must agree to the last bit (``repr``
equality after dropping the ``engine`` label) over the
engine x unit-tier x farm x refresh x dtype matrix.  That matrix is the
load-bearing test here; the rest pins the coefficient-validation error
paths (negative/NaN -> typed :class:`~repro.errors.ConfigError`), the
grid-independence of totals, the power-series agreement with
``timeseries-v2``, the metrics adapter, and ``validate_energy``.
"""

import json
import math

import pytest

from repro.errors import ConfigError
from repro.farm import FarmConfig, replay_farm
from repro.memsys import MemSysConfig, MemorySystem, synthesize_trace
from repro.pimexec import PimExecMachine, build_kernel
from repro.telemetry import (
    ENERGY_CLASSES,
    ENERGY_SCHEMA,
    EnergyCoefficients,
    ReplayTelemetry,
    build_energy,
    build_timeseries,
    energy_metrics,
    validate_energy,
    write_energy,
)
from tests.memsys.event_oracle import event_replays, replay_event
from tests.memsys.test_fastpath import assert_laws_hold, replay_exact_tier

N = 300

#: (trefi_ns, trfc_ns, granularity) refresh regimes, mirroring
#: tests/telemetry/test_timeseries.py.
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
    def test_host_stream_matrix(self, refresh_name, refresh, arrival):
        config = MemSysConfig(
            scheme="channel-interleaved", policy="frfcfs", **refresh
        )
        kwargs = dict(seed=11, write_fraction=0.25, packed=True)
        if arrival == "timestamped":
            kwargs["interarrival_ns"] = 6.0
        trace = synthesize_trace("random", N, config, **kwargs)
        documents = {}
        for engine in ("event", "fast", "exact"):
            documents[engine] = build_energy(
                record(config, trace, engine)
            )
        # the farm leg: sharded when the trace allows it, the exact
        # single-process fallback otherwise (line-rate traces) — the
        # merged recorder arrays are bit-identical either way
        farmed = ReplayTelemetry()
        replay_farm(trace, config, FarmConfig(**FARM), telemetry=farmed)
        assert_laws_hold(config, farmed)
        documents["farm"] = build_energy(farmed)
        reference = repr(strip_engine(documents["event"]))
        for engine, document in documents.items():
            assert validate_energy(document) == [], engine
            assert repr(strip_engine(document)) == reference, (
                f"energy accounting diverges on the {engine} path "
                f"({refresh_name}/{arrival})"
            )
        if refresh_name == "off":
            assert documents["event"]["breakdown_pj"]["refresh"] == 0.0

    @pytest.mark.parametrize(
        "refresh_name,refresh",
        REFRESH,
        ids=[name for name, _ in REFRESH],
    )
    @pytest.mark.parametrize("dtype", ("fp16", "fp64"))
    def test_pim_stream_matrix(self, refresh_name, refresh, dtype):
        """Unit tier x replay engine x dtype on an all-bank stream."""
        kernel = build_kernel(
            "vector-sum", n=1024, config=MemSysConfig(**refresh)
        )
        documents = {}
        for unit_mode in ("scalar", "vectorized"):
            for engine in ("event", "fast"):
                machine = PimExecMachine(
                    kernel.config, dtype=dtype, unit_mode=unit_mode
                )
                kernel.setup(machine)
                machine.reset_requests()
                kernel.execute(machine)
                telemetry = ReplayTelemetry()
                if engine == "event":
                    with event_replays():
                        machine.replay(telemetry=telemetry)
                else:
                    machine.replay(telemetry=telemetry)
                assert_laws_hold(kernel.config, telemetry)
                documents[f"{unit_mode}/{engine}"] = build_energy(
                    telemetry
                )
        reference = repr(strip_engine(documents["scalar/event"]))
        for tier, document in documents.items():
            assert validate_energy(document) == [], tier
            assert repr(strip_engine(document)) == reference, (
                f"energy accounting diverges on the {tier} tier "
                f"({refresh_name}/{dtype})"
            )
        breakdown = documents["scalar/event"]["breakdown_pj"]
        assert breakdown["pim_compute"] > 0
        assert breakdown["broadcast"] > 0

    def test_engine_labels_differ_but_nothing_else(self):
        config = MemSysConfig(scheme="channel-interleaved")
        trace = synthesize_trace(
            "random", N, config, seed=3, packed=True,
            interarrival_ns=40.0, interarrival="poisson",
        )
        event = build_energy(record(config, trace, "event"))
        farmed = ReplayTelemetry()
        replay_farm(trace, config, FarmConfig(**FARM), telemetry=farmed)
        farm = build_energy(farmed)
        assert event["engine"] == "event"
        assert farm["engine"] == "farm"
        assert json.dumps(strip_engine(event)) == json.dumps(
            strip_engine(farm)
        )


class TestEnergyCoefficients:
    def test_defaults_keep_the_structural_orderings(self):
        c = EnergyCoefficients()
        # off-chip column burst ~10x an in-bank PIM access, the
        # hwp_dram / lwp_mem gap arch/energy.py encodes
        assert c.rd_pj / c.pim_cmd_pj == pytest.approx(10.0)
        assert c.wr_pj > c.rd_pj
        assert c.pim_lane_pj < c.pim_cmd_pj
        assert c.background_busy_mw > c.background_idle_mw

    @pytest.mark.parametrize(
        "field",
        [f for f in EnergyCoefficients().to_dict()],
    )
    def test_rejects_negative(self, field):
        with pytest.raises(ConfigError, match=field):
            EnergyCoefficients(**{field: -1.0})

    @pytest.mark.parametrize("bad", (float("nan"), float("inf")))
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            EnergyCoefficients(act_pj=bad)

    @pytest.mark.parametrize("bad", ("900", None, True, [1.0]))
    def test_rejects_non_numbers(self, bad):
        with pytest.raises(ConfigError, match="number"):
            EnergyCoefficients(rd_pj=bad)

    def test_config_error_is_a_value_error(self):
        # the CLI maps ValueError subclasses to exit code 2
        with pytest.raises(ValueError):
            EnergyCoefficients(pre_pj=float("nan"))

    def test_to_dict_round_trips(self):
        c = EnergyCoefficients(act_pj=1.5, background_idle_mw=0.0)
        assert EnergyCoefficients(**c.to_dict()) == c

    def test_custom_coefficients_flow_into_the_document(self):
        config = MemSysConfig()
        telemetry = recorded_replay(
            config, synthesize_trace("random", 128, config, seed=0)
        )
        base = build_energy(telemetry)
        doubled = build_energy(
            telemetry,
            coefficients=EnergyCoefficients(
                rd_pj=2 * EnergyCoefficients().rd_pj
            ),
        )
        assert doubled["coefficients"]["rd_pj"] == pytest.approx(
            2 * base["coefficients"]["rd_pj"]
        )
        assert doubled["breakdown_pj"]["read"] == pytest.approx(
            2 * base["breakdown_pj"]["read"]
        )
        for name in ENERGY_CLASSES:
            if name != "read":
                assert doubled["breakdown_pj"][name] == pytest.approx(
                    base["breakdown_pj"][name]
                )
        assert validate_energy(doubled) == []


class TestBuildEnergy:
    def replay(self, pattern="random", n=512, **config_kwargs):
        config = MemSysConfig(**config_kwargs)
        return recorded_replay(
            config, synthesize_trace(pattern, n, config, seed=0)
        )

    def test_document_shape(self):
        document = build_energy(self.replay())
        assert validate_energy(document) == []
        assert document["schema"] == ENERGY_SCHEMA
        assert document["n_requests"] == 512
        assert set(document["breakdown_pj"]) == set(ENERGY_CLASSES)
        assert document["total_pj"] == pytest.approx(
            math.fsum(document["breakdown_pj"].values())
        )
        assert document["pj_per_bit"] > 0
        assert document["mean_power_w"] > 0
        assert document["requests_per_s_per_w"] > 0
        assert len(document["series"]["power_w"]) == document[
            "n_windows"
        ]

    def test_totals_are_grid_independent(self):
        telemetry = self.replay()
        reference = build_energy(telemetry, n_windows=1)
        for grid in (
            dict(n_windows=7),
            dict(n_windows=64),
            dict(window_ns=telemetry.makespan_ns / 7.5),
        ):
            document = build_energy(telemetry, **grid)
            assert document["total_pj"] == pytest.approx(
                reference["total_pj"], rel=1e-12
            ), grid
            assert document["breakdown_pj"] == pytest.approx(
                reference["breakdown_pj"], rel=1e-9
            ), grid
            assert document["series"]["energy_pj_to_date"][-1] == (
                pytest.approx(document["total_pj"], rel=1e-6)
            )

    def test_power_series_matches_timeseries_v2(self):
        # the v2 time series embeds the same power/energy tracks, on
        # its own grid, via the window_energy_pj hook — the numbers
        # must be identical, not merely close
        telemetry = self.replay()
        timeseries = build_timeseries(telemetry, n_windows=16)
        document = build_energy(telemetry, n_windows=16)
        assert (
            timeseries["series"]["power_w"]
            == document["series"]["power_w"]
        )
        assert (
            timeseries["series"]["energy_pj_to_date"]
            == document["series"]["energy_pj_to_date"]
        )

    def test_mean_power_consistent_with_total(self):
        document = build_energy(self.replay(), n_windows=4)
        # 1 pJ over 1 ns is 1 mW
        assert document["mean_power_w"] == pytest.approx(
            document["total_pj"] / document["makespan_ns"] * 1e-3
        )

    def test_refresh_energy_scales_with_granularity(self):
        per_rank = build_energy(
            self.replay(
                pattern="sequential", n=4096,
                trefi_ns=390.0, trfc_ns=35.0,
            )
        )
        assert per_rank["breakdown_pj"]["refresh"] > 0
        off = build_energy(self.replay())
        assert off["breakdown_pj"]["refresh"] == 0.0

    def test_requires_a_captured_replay(self):
        with pytest.raises(RuntimeError, match="captured replay"):
            build_energy(ReplayTelemetry())
        config = MemSysConfig()
        no_latency = ReplayTelemetry(latency=False)
        MemorySystem(config).replay(
            synthesize_trace("sequential", 32, config),
            telemetry=no_latency,
        )
        with pytest.raises(RuntimeError, match="captured replay"):
            build_energy(no_latency)

    def test_rejects_bad_window_arguments(self):
        telemetry = self.replay(n=64)
        with pytest.raises(ValueError, match="window_ns"):
            build_energy(telemetry, window_ns=0.0)
        with pytest.raises(ValueError, match="window_ns"):
            build_energy(telemetry, window_ns=-5.0)
        with pytest.raises(ValueError, match="n_windows"):
            build_energy(telemetry, n_windows=0)

    def test_rejects_bad_coefficients_end_to_end(self):
        telemetry = self.replay(n=64)
        with pytest.raises(ConfigError):
            build_energy(
                telemetry,
                coefficients=EnergyCoefficients(act_pj=-2.0),
            )

    def test_write_energy_round_trips(self, tmp_path):
        telemetry = self.replay(n=64)
        path = write_energy(
            telemetry, tmp_path / "deep" / "energy.json", n_windows=4
        )
        assert path.exists()
        document = json.loads(path.read_text())
        assert validate_energy(document) == []
        assert document["n_windows"] == 4
        # the method forms build/write the identical document
        assert telemetry.energy(n_windows=4) == document
        path2 = telemetry.write_energy(
            tmp_path / "again.json", n_windows=4
        )
        assert json.loads(path2.read_text()) == document


class TestEnergyMetrics:
    def test_counters_and_gauges(self):
        config = MemSysConfig()
        telemetry = recorded_replay(
            config, synthesize_trace("random", 128, config, seed=0)
        )
        document = build_energy(telemetry)
        snapshot = energy_metrics(document, run="r1").snapshot()
        counters = {
            (c["name"], c["tags"].get("class"), c["tags"].get("channel")):
            c["value"]
            for c in snapshot["counters"]
        }
        assert counters[("energy_total_pj", None, None)] == (
            pytest.approx(document["total_pj"])
        )
        for name in ENERGY_CLASSES:
            assert counters[("energy_breakdown_pj", name, None)] == (
                pytest.approx(document["breakdown_pj"][name])
            )
        for entry in document["channels"]:
            key = (
                "energy_channel_event_pj",
                None,
                str(entry["channel"]),
            )
            assert counters[key] == pytest.approx(entry["event_pj"])
        gauges = {g["name"]: g["value"] for g in snapshot["gauges"]}
        assert gauges["energy_pj_per_bit"] == pytest.approx(
            document["pj_per_bit"]
        )
        assert gauges["energy_mean_power_w"] == pytest.approx(
            document["mean_power_w"]
        )
        assert gauges["energy_requests_per_s_per_w"] == pytest.approx(
            document["requests_per_s_per_w"]
        )
        # every counter/gauge carries the caller's tags
        for metric in snapshot["counters"] + snapshot["gauges"]:
            assert metric["tags"]["run"] == "r1"


class TestValidateEnergy:
    def good(self, n_windows=8):
        config = MemSysConfig()
        telemetry = recorded_replay(
            config, synthesize_trace("sequential", 64, config)
        )
        return build_energy(telemetry, n_windows=n_windows)

    def test_good_document_is_clean(self):
        assert validate_energy(self.good()) == []

    def test_rejects_non_object(self):
        assert validate_energy([1]) == [
            "document must be an object, got list"
        ]

    def test_flags_wrong_schema(self):
        document = self.good()
        document["schema"] = "bogus/v9"
        assert any("schema" in p for p in validate_energy(document))

    def test_flags_coefficient_key_drift(self):
        document = self.good()
        del document["coefficients"]["act_pj"]
        assert any(
            "coefficients" in p for p in validate_energy(document)
        )
        document = self.good()
        document["coefficients"]["extra_pj"] = 1.0
        assert any(
            "coefficients" in p for p in validate_energy(document)
        )
        document = self.good()
        document["coefficients"]["rd_pj"] = float("nan")
        assert any(
            "coefficients.rd_pj" in p
            for p in validate_energy(document)
        )

    def test_flags_missing_breakdown_class(self):
        document = self.good()
        del document["breakdown_pj"]["refresh"]
        assert any(
            "refresh" in p for p in validate_energy(document)
        )

    def test_flags_books_that_do_not_cross_foot(self):
        document = self.good()
        document["breakdown_pj"]["read"] += 1.0
        assert any(
            "sums to" in p for p in validate_energy(document)
        )

    def test_flags_decreasing_energy_to_date(self):
        document = self.good()
        series = document["series"]["energy_pj_to_date"]
        series[1] = series[0] - 1.0
        assert any(
            "non-decreasing" in p for p in validate_energy(document)
        )

    def test_flags_to_date_total_mismatch(self):
        document = self.good()
        document["series"]["energy_pj_to_date"] = [
            0.0
        ] * document["n_windows"]
        assert any(
            "ends at" in p for p in validate_energy(document)
        )

    def test_flags_series_length_mismatch(self):
        document = self.good()
        document["series"]["power_w"].append(0.0)
        assert any(
            "power_w" in p and "length" in p
            for p in validate_energy(document)
        )

    def test_flags_bad_n_windows(self):
        for bad in (0, -3, 1.5, "many", True):
            document = self.good()
            document["n_windows"] = bad
            assert any(
                "n_windows" in p for p in validate_energy(document)
            ), bad

    def test_flags_channel_and_bank_shape(self):
        document = self.good()
        document["channels"] = []
        assert any(
            "channels" in p for p in validate_energy(document)
        )
        document = self.good()
        del document["channels"][0]["channel"]
        assert any(
            "channel id" in p for p in validate_energy(document)
        )
        document = self.good()
        del document["channels"][0]["banks"][0]["bank"]
        assert any(
            "bank id" in p for p in validate_energy(document)
        )
