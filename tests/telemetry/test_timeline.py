"""The Chrome-trace command-timeline exporter and its schema check."""

import json

import pytest

from repro.memsys import (
    Coordinates,
    MemRequest,
    MemSysConfig,
    MemorySystem,
    Op,
    synthesize_trace,
)
from repro.telemetry import (
    MAX_EVENTS,
    TIMELINE_SCHEMA,
    ReplayTelemetry,
    build_timeline,
    validate_timeline,
    write_timeline,
)
from tests.telemetry.derivation_replays import REPLAYS


def recorded_replay(config, trace):
    telemetry = ReplayTelemetry()
    MemorySystem(config).replay(trace, telemetry=telemetry)
    return telemetry


def spans(document, cat=None):
    return [
        e
        for e in document["traceEvents"]
        if e["ph"] == "X" and (cat is None or e["cat"] == cat)
    ]


class TestBuildTimeline:
    def test_valid_document_with_all_track_metadata(self):
        config = MemSysConfig()
        telemetry = recorded_replay(
            config, synthesize_trace("random", 400, config, seed=0)
        )
        document = build_timeline(telemetry)
        assert validate_timeline(document) == []
        assert document["displayTimeUnit"] == "ns"
        other = document["otherData"]
        assert other["schema"] == TIMELINE_SCHEMA
        assert other["engine"] == telemetry.engine
        assert other["n_requests"] == 400
        assert other["truncated_events"] == 0
        processes = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert processes == {
            f"channel {c}" for c in range(config.n_channels)
        }
        threads = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "bank 0" in threads
        assert {"all-banks", "queue", "refresh"} <= threads
        assert "rows.b0" in threads

    def test_service_and_queue_and_row_spans(self):
        config = MemSysConfig()
        telemetry = recorded_replay(
            config, synthesize_trace("random", 400, config, seed=1)
        )
        document = build_timeline(telemetry)
        service = spans(document, "service")
        assert len(service) == 400
        names = {e["name"] for e in service}
        assert names <= {"hit", "miss", "conflict"}
        assert "miss" in names  # random traffic misses
        assert spans(document, "queue"), "saturated queues must wait"
        rows = spans(document, "row")
        assert rows
        assert all(e["name"].startswith("row ") for e in rows)

    def test_all_bank_and_ab_spans_land_on_the_all_banks_track(self):
        from repro.pimexec import PimExecMachine, build_kernel

        kernel = build_kernel("vector-sum", n=1024)
        machine = PimExecMachine(kernel.config)
        kernel.setup(machine)
        machine.reset_requests()
        kernel.execute(machine)
        telemetry = ReplayTelemetry()
        machine.replay(telemetry=telemetry)
        document = build_timeline(telemetry)
        assert validate_timeline(document) == []
        barriers = spans(document, "barrier")
        assert barriers
        assert all(e["name"] == "AB barrier" for e in barriers)
        assert any(
            e["name"].startswith("PIM ")
            for e in spans(document, "service")
        )

    def test_refresh_blackout_spans(self):
        config = MemSysConfig(trefi_ns=390.0, trfc_ns=35.0)
        telemetry = recorded_replay(
            config,
            synthesize_trace("sequential", 2000, config),
        )
        document = build_timeline(telemetry)
        assert validate_timeline(document) == []
        blackouts = spans(document, "refresh")
        assert len(blackouts) >= config.n_channels
        # every blackout lasts tRFC
        assert all(
            e["dur"] == pytest.approx(35.0 / 1000.0)
            for e in blackouts
        )

    def test_truncation_keeps_earliest_and_reports_dropped(self):
        config = MemSysConfig()
        telemetry = recorded_replay(
            config, synthesize_trace("random", 400, config, seed=2)
        )
        full = build_timeline(telemetry)
        total = len(spans(full))
        document = build_timeline(telemetry, max_events=100)
        assert validate_timeline(document) == []
        kept = spans(document)
        assert len(kept) == 100
        assert document["otherData"]["truncated_events"] == total - 100
        # spans are globally ts-sorted, so the kept set is the
        # earliest prefix of the full rendering
        assert kept == spans(full)[:100]

    @pytest.mark.parametrize("name", sorted(REPLAYS))
    def test_every_cap_keeps_a_prefix_of_the_full_document(self, name):
        # the cap applies before any span dict exists: cuts inside and
        # between the service, queue, row, refresh and energy families
        # must still equal the full document's sorted prefix
        telemetry = REPLAYS[name]()
        full = build_timeline(telemetry, max_events=10**9)
        total = len(spans(full))
        assert full["otherData"]["truncated_events"] == 0
        for cap in (0, 1, 7, total // 3, total - 1, total):
            document = build_timeline(telemetry, max_events=cap)
            assert spans(document) == spans(full)[:cap]
            assert document["otherData"]["truncated_events"] == (
                total - cap
            )

    def test_requires_a_captured_latency_recorder(self):
        with pytest.raises(RuntimeError, match="captured replay"):
            build_timeline(ReplayTelemetry())
        config = MemSysConfig()
        no_latency = ReplayTelemetry(latency=False)
        MemorySystem(config).replay(
            synthesize_trace("sequential", 32, config),
            telemetry=no_latency,
        )
        with pytest.raises(RuntimeError, match="captured replay"):
            build_timeline(no_latency)

    def test_write_timeline_round_trips(self, tmp_path):
        config = MemSysConfig()
        telemetry = recorded_replay(
            config, synthesize_trace("sequential", 64, config)
        )
        path = write_timeline(
            telemetry, tmp_path / "deep" / "timeline.json"
        )
        assert path.exists()
        document = json.loads(path.read_text())
        assert validate_timeline(document) == []
        assert build_timeline(telemetry) == document


class TestValidateTimeline:
    def good(self):
        config = MemSysConfig()
        telemetry = recorded_replay(
            config, synthesize_trace("sequential", 32, config)
        )
        return build_timeline(telemetry)

    def test_rejects_non_object(self):
        assert validate_timeline([1, 2]) == [
            "document must be an object, got list"
        ]

    def test_flags_wrong_time_unit_and_schema(self):
        document = self.good()
        document["displayTimeUnit"] = "ms"
        document["otherData"]["schema"] = "bogus/v9"
        problems = validate_timeline(document)
        assert any("displayTimeUnit" in p for p in problems)
        assert any("otherData.schema" in p for p in problems)

    def test_flags_empty_events(self):
        document = self.good()
        document["traceEvents"] = []
        assert validate_timeline(document) == [
            "traceEvents must be a non-empty array"
        ]

    def test_flags_bad_events(self):
        document = self.good()
        document["traceEvents"].append({"ph": "B", "name": "x"})
        document["traceEvents"].append(
            {"ph": "X", "name": "y", "pid": 0, "tid": 0,
             "ts": -1.0, "dur": float("nan"), "cat": "service"}
        )
        problems = validate_timeline(document)
        assert any("unknown ph 'B'" in p for p in problems)
        assert any("ts must be" in p for p in problems)
        assert any("dur must be" in p for p in problems)


class TestValidatorHardening:
    """The hardened checks: span ordering, overlap, and the 200k cap."""

    @staticmethod
    def synthetic(timestamps):
        """A minimal document with one span per listed start time."""
        events = [
            {
                "ph": "M", "pid": 0, "tid": 0,
                "name": "process_name",
                "args": {"name": "channel 0"},
            }
        ]
        events.extend(
            {
                "ph": "X", "name": "s", "cat": "service",
                "pid": 0, "tid": 0, "ts": float(ts), "dur": 1.0,
            }
            for ts in timestamps
        )
        return {
            "displayTimeUnit": "ns",
            "traceEvents": events,
            "otherData": {"schema": TIMELINE_SCHEMA},
        }

    def test_overlapping_spans_on_one_track_are_valid(self):
        # banks genuinely overlap queue waits; equal start times are
        # the exporter's tie-broken sort, not a defect
        document = self.synthetic([10.0, 10.0, 10.5, 10.5, 11.0])
        assert validate_timeline(document) == []

    def test_out_of_order_start_times_are_flagged(self):
        problems = validate_timeline(self.synthetic([0.0, 5.0, 3.0]))
        assert problems == [
            "traceEvents[3]: ts 3 out of order (previous span "
            "started at 5)"
        ]

    def test_invalid_ts_does_not_poison_the_order_check(self):
        # a negative ts is its own problem; the ordering watermark
        # must not advance past it and double-report
        problems = validate_timeline(
            self.synthetic([0.0, -1.0, 2.0])
        )
        assert problems == [
            "traceEvents[2]: ts must be a finite number >= 0"
        ]

    def test_span_count_cap_boundary(self):
        at_cap = self.synthetic(range(MAX_EVENTS))
        assert validate_timeline(at_cap) == []
        over = self.synthetic(range(MAX_EVENTS + 1))
        problems = validate_timeline(over)
        assert problems == [
            f"span count {MAX_EVENTS + 1} exceeds the {MAX_EVENTS} "
            "cap (the exporter truncates earliest-first; a larger "
            "document was built with the cap overridden)"
        ]

    def test_metadata_does_not_count_against_the_cap(self):
        document = self.synthetic(range(16))
        # pad with metadata far past the cap-minus-spans margin
        document["traceEvents"].extend(
            {
                "ph": "M", "pid": 0, "tid": i + 1,
                "name": "thread_name",
                "args": {"name": f"extra {i}"},
            }
            for i in range(64)
        )
        assert validate_timeline(document) == []

    def test_exporter_never_exceeds_the_cap_by_default(self):
        config = MemSysConfig()
        telemetry = recorded_replay(
            config, synthesize_trace("random", 400, config, seed=5)
        )
        # an overridden larger cap is the only way past MAX_EVENTS,
        # and the validator calls that out
        document = build_timeline(telemetry, max_events=10**9)
        total = len(spans(document))
        if total > MAX_EVENTS:  # pragma: no cover - small trace
            assert validate_timeline(document) != []
        assert validate_timeline(build_timeline(telemetry)) == []


class TestFarmTimelineMerge:
    """Distributed replays add worker/shard tracks to the document."""

    def farm_replay(self):
        from repro.farm import (
            KILL,
            FarmConfig,
            FaultPlan,
            replay_farm,
        )

        config = MemSysConfig(
            n_channels=2, scheme="channel-interleaved"
        )
        trace = synthesize_trace(
            "random", 400, config, seed=3, packed=True,
            interarrival_ns=40.0, interarrival="poisson",
        )
        telemetry = ReplayTelemetry()
        result = replay_farm(
            trace,
            config,
            FarmConfig(
                mode="inprocess", engine="fast",
                backoff_base_s=0.0, backoff_cap_s=0.0,
            ),
            telemetry=telemetry,
            fault_plan=FaultPlan.always(KILL, [0], attempts=1),
        )
        return config, telemetry, result

    def test_farm_tracks_merge_and_validate(self):
        config, telemetry, result = self.farm_replay()
        document = build_timeline(telemetry)
        assert validate_timeline(document) == []
        farm_spans = spans(document, "farm")
        assert len(farm_spans) == len(result.events) > 0
        # one extra process just past the channel tracks, on the wall
        # clock; simulation tracks keep their pids
        assert {e["pid"] for e in farm_spans} == {config.n_channels}
        metadata = {
            (e["pid"], e["name"], e["args"]["name"])
            for e in document["traceEvents"]
            if e["ph"] == "M"
        }
        pid = config.n_channels
        assert (pid, "process_name", "farm (wall clock)") in metadata
        assert (pid, "thread_name", "supervisor") in metadata
        assert (pid, "thread_name", "shard 0") in metadata
        assert (pid, "thread_name", "shard 1") in metadata
        # the injected kill rides along with its context
        (kill,) = [
            e for e in farm_spans if e["name"] == "chaos-kill"
        ]
        assert kill["args"]["shard_id"] == 0
        assert kill["args"]["attempt"] == 0

    def test_single_process_documents_carry_no_farm_tracks(self):
        config = MemSysConfig()
        telemetry = recorded_replay(
            config, synthesize_trace("random", 64, config, seed=0)
        )
        document = build_timeline(telemetry)
        assert spans(document, "farm") == []
        processes = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "farm (wall clock)" not in processes
