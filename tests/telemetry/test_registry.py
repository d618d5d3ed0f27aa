"""The unified metrics registry and its exact percentile arithmetic."""

import json
import math

import numpy as np
import pytest

from repro.memsys import MemSysConfig, MemorySystem, synthesize_trace
from repro.telemetry import (
    SCHEMA,
    MetricsRegistry,
    ReplayTelemetry,
    exact_percentile,
    latency_summary,
    memsys_metrics,
    pimexec_metrics,
)


class TestExactPercentile:
    def test_nearest_rank_is_an_observed_value(self):
        values = np.array([10.0, 40.0, 20.0, 30.0, 50.0])
        for q in (1, 20, 50, 95, 99, 100):
            assert exact_percentile(values, q) in values

    def test_matches_the_nearest_rank_definition(self):
        values = np.arange(1.0, 101.0)  # 1..100
        # rank = ceil(q/100 * 100) = q for integer q
        assert exact_percentile(values, 50) == 50.0
        assert exact_percentile(values, 95) == 95.0
        assert exact_percentile(values, 99) == 99.0
        assert exact_percentile(values, 100) == 100.0

    def test_single_element(self):
        assert exact_percentile(np.array([7.0]), 50) == 7.0
        assert exact_percentile(np.array([7.0]), 99) == 7.0

    def test_empty_is_nan(self):
        assert math.isnan(exact_percentile(np.empty(0), 50))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            exact_percentile(np.array([1.0]), 0)
        with pytest.raises(ValueError):
            exact_percentile(np.array([1.0]), 101)

    def test_bit_identical_inputs_give_bit_identical_output(self):
        rng = np.random.default_rng(0)
        a = rng.random(997)
        b = a.copy()
        for q in (50, 95, 99):
            assert exact_percentile(a, q) == exact_percentile(b, q)


class TestLatencySummary:
    def test_shape_and_values(self):
        summary = latency_summary(np.arange(1.0, 101.0))
        assert summary == {
            "count": 100, "mean": 50.5, "min": 1.0,
            "p50": 50.0, "p95": 95.0, "p99": 99.0, "max": 100.0,
        }

    def test_empty_summary_is_all_nan(self):
        summary = latency_summary(np.empty(0))
        assert summary["count"] == 0
        for key in ("mean", "min", "p50", "p95", "p99", "max"):
            assert math.isnan(summary[key])

    def test_percentiles_are_ordered(self):
        rng = np.random.default_rng(3)
        summary = latency_summary(rng.exponential(100.0, size=5000))
        assert (
            summary["min"] <= summary["p50"] <= summary["p95"]
            <= summary["p99"] <= summary["max"]
        )


class TestMetricsRegistry:
    def test_empty_registry_is_falsy_but_not_none(self):
        registry = MetricsRegistry()
        assert len(registry) == 0
        assert not registry  # __len__ makes it falsy: use `is None`

    def test_counter_gauge_histogram_entries(self):
        registry = MetricsRegistry(source="unit-test")
        registry.counter("requests", 42, engine="fast")
        registry.gauge("rate", 1.5)
        summary = registry.histogram("lat", [1.0, 2.0, 3.0], kind="q")
        assert len(registry) == 3
        assert summary["count"] == 3
        snapshot = registry.snapshot()
        assert snapshot["schema"] == SCHEMA
        assert snapshot["source"] == "unit-test"
        assert snapshot["counters"] == [
            {"name": "requests", "tags": {"engine": "fast"}, "value": 42}
        ]
        assert snapshot["gauges"][0]["value"] == 1.5
        histogram = snapshot["histograms"][0]
        assert histogram["tags"] == {"kind": "q"}
        assert histogram["p50"] == 2.0

    def test_tags_are_stringified_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("c", 1, zebra=2, alpha=1)
        tags = registry.counters[0]["tags"]
        assert tags == {"alpha": "1", "zebra": "2"}
        assert list(tags) == ["alpha", "zebra"]

    def test_summary_histogram_records_verbatim(self):
        registry = MetricsRegistry()
        summary = latency_summary(np.array([5.0, 15.0]))
        registry.summary_histogram("pre", summary, src="x")
        entry = registry.histograms[0]
        assert entry["count"] == 2
        assert entry["p99"] == 15.0

    def test_merge(self):
        a, b = MetricsRegistry("a"), MetricsRegistry("b")
        a.counter("x", 1)
        b.gauge("y", 2.0)
        b.histogram("z", [1.0])
        assert a.merge(b) is a
        assert len(a) == 3

    def test_write_round_trips(self, tmp_path):
        registry = MetricsRegistry(source="io")
        registry.counter("n", 7)
        path = registry.write(tmp_path / "deep" / "metrics.json")
        assert path.exists()
        document = json.loads(path.read_text())
        assert document == registry.snapshot()


class TestAdapters:
    def test_memsys_metrics_reflects_a_replay(self):
        config = MemSysConfig()
        telemetry = ReplayTelemetry()
        stats = MemorySystem(config).replay(
            synthesize_trace("sequential", 512, config),
            telemetry=telemetry,
        )
        registry = memsys_metrics(
            stats, telemetry=telemetry, scheme=config.scheme
        )
        by_name = {}
        for entry in registry.counters + registry.gauges:
            by_name.setdefault(entry["name"], []).append(entry)
        assert by_name["memsys.requests"][0]["value"] == 512
        assert by_name["memsys.requests"][0]["tags"]["scheme"] == config.scheme
        assert "memsys.row_hit_rate" in by_name
        # per-channel rows, one per configured channel
        assert len(by_name["memsys.channel.requests"]) == config.n_channels
        # telemetry= adds the per-channel gauges
        assert len(by_name["memsys.channel.busy_fraction"]) == config.n_channels

    def test_memsys_metrics_appends_into_given_registry(self):
        config = MemSysConfig()
        stats = MemorySystem(config).replay(
            synthesize_trace("sequential", 64, config)
        )
        registry = MetricsRegistry(source="mine")
        out = memsys_metrics(stats, registry)
        assert out is registry
        assert registry.source == "mine"

    def test_pimexec_metrics_includes_sequencer_counters(self):
        from repro.pimexec import build_kernel, compare_host_pim

        comparison = compare_host_pim(build_kernel("vector-sum", n=1024))
        registry = pimexec_metrics(
            comparison.pim,
            machine=comparison.machine,
            kernel="vector-sum",
        )
        counters = {e["name"]: e for e in registry.counters}
        assert counters["pimexec.pim_commands"]["value"] > 0
        assert counters["pimexec.broadcasts"]["value"] > 0
        seq = [
            e for e in registry.counters
            if e["name"] == "pimexec.sequencer.instructions"
        ]
        assert seq, "machine= must add sequencer counters"
        assert sum(int(e["value"]) for e in seq) > 0
        # the memsys sub-record rides along
        assert "memsys.requests" in counters
