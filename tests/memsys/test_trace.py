"""Tests for the trace format and synthetic trace generation."""

import numpy as np
import pytest

from repro.memsys import (
    MemRequest,
    MemSysConfig,
    Op,
    PackedTrace,
    TRACE_PATTERNS,
    format_trace,
    iter_trace,
    parse_trace,
    synthesize_trace,
    write_trace,
)


class TestParse:
    def test_ops_and_addresses(self):
        reqs = parse_trace("R 0x20\nW 64\nP 0x0\n")
        assert [r.op for r in reqs] == [Op.READ, Op.WRITE, Op.PIM]
        assert [r.addr for r in reqs] == [0x20, 64, 0]

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\nR 0x20  # inline comment\n   \n"
        assert len(parse_trace(text)) == 1

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown trace op"):
            parse_trace("X 0x20")

    def test_bad_address_rejected_with_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_trace("R 0x20\nR zzz")

    def test_negative_address_rejected_with_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_trace("R 0x20\nR -0x20")

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="OP ADDRESS"):
            parse_trace("R 0x20 12.5 extra")

    def test_third_column_must_be_a_timestamp(self):
        # three tokens are valid syntax (timestamped trace), but the
        # third must parse as a decimal timestamp
        with pytest.raises(ValueError, match="bad timestamp"):
            parse_trace("R 0x20 0x40")

    def test_truncated_line_rejected_with_line_number(self):
        with pytest.raises(ValueError, match="line 3.*OP ADDRESS"):
            parse_trace("R 0x20\nW 0x40\nR\n")

    def test_mnemonic_case_and_whitespace_tolerated(self):
        reqs = parse_trace("  r 0x20\n\tw 64\n")
        assert [r.op for r in reqs] == [Op.READ, Op.WRITE]

    def test_ab_broadcast_mnemonic_round_trips(self):
        reqs = parse_trace("A 0x40\n")
        assert reqs[0].op is Op.AB
        assert parse_trace(format_trace(reqs))[0].op is Op.AB

    def test_malformed_mnemonic_reports_all_known_ops(self):
        with pytest.raises(ValueError, match=r"\['R', 'W', 'P', 'A'\]"):
            parse_trace("Q 0x20")


class TestRoundTrip:
    def test_parse_write_parse(self, tmp_path):
        original = [
            MemRequest(Op.READ, 0x1A00),
            MemRequest(Op.WRITE, 0x1A20),
            MemRequest(Op.PIM, 0),
        ]
        path = write_trace(tmp_path / "t" / "a.trace", original)
        assert path.exists()
        reparsed = parse_trace(path)
        assert len(reparsed) == len(original)
        assert original == reparsed
        # and a second lap through text stays fixed
        assert format_trace(reparsed) == format_trace(original)

    def test_parse_reads_path_objects_but_not_path_strings(self, tmp_path):
        path = write_trace(
            tmp_path / "b.trace", [MemRequest(Op.READ, 32)]
        )
        assert parse_trace(path)[0].addr == 32
        # a str is always content, so a path-as-string is a format error
        with pytest.raises(ValueError, match="OP ADDRESS"):
            parse_trace(str(path))


class TestSynthesize:
    @pytest.mark.parametrize("pattern", TRACE_PATTERNS)
    def test_patterns_produce_aligned_valid_requests(self, pattern):
        config = MemSysConfig()
        reqs = synthesize_trace(pattern, 256, config, seed=7)
        assert len(reqs) == 256
        capacity = config.address_map().capacity_bytes
        granule = config.transaction_bytes
        for req in reqs:
            assert req.op is Op.READ
            assert 0 <= req.addr < capacity
            assert req.addr % granule == 0

    def test_write_fraction(self):
        reqs = synthesize_trace(
            "sequential", 500, write_fraction=0.5, seed=1
        )
        writes = sum(r.op is Op.WRITE for r in reqs)
        assert 150 < writes < 350

    def test_unknown_pattern(self):
        with pytest.raises(KeyError, match="unknown pattern"):
            synthesize_trace("fibonacci", 10)

    def test_deterministic_for_seed(self):
        a = synthesize_trace("random", 100, seed=3)
        b = synthesize_trace("random", 100, seed=3)
        assert a == b

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            synthesize_trace("sequential", 0)

    def test_packed_output_matches_list_output(self):
        config = MemSysConfig()
        objects = synthesize_trace(
            "random", 300, config, seed=5, write_fraction=0.4
        )
        packed = synthesize_trace(
            "random", 300, config, seed=5, write_fraction=0.4,
            packed=True,
        )
        assert isinstance(packed, PackedTrace)
        assert len(packed) == len(objects)
        assert list(packed) == objects


class TestPackedTrace:
    def test_round_trip_through_requests(self):
        original = [
            MemRequest(Op.READ, 0x1A00),
            MemRequest(Op.WRITE, 0x1A20),
            MemRequest(Op.PIM, 0),
        ]
        packed = PackedTrace.from_requests(original)
        assert len(packed) == 3
        rebuilt = packed.to_requests()
        assert original == rebuilt
        assert packed == PackedTrace.from_requests(rebuilt)

    def test_validation(self):
        with pytest.raises(ValueError, match="length"):
            PackedTrace(
                np.zeros(2, np.uint8), np.zeros(3, np.int64)
            )
        with pytest.raises(ValueError, match="op code"):
            PackedTrace(
                np.array([9], np.uint8), np.array([0], np.int64)
            )
        with pytest.raises(ValueError, match="non-negative"):
            PackedTrace(
                np.array([0], np.uint8), np.array([-8], np.int64)
            )

    def test_text_round_trip(self, tmp_path):
        packed = synthesize_trace(
            "random", 64, seed=1, write_fraction=0.5, packed=True
        )
        path = write_trace(tmp_path / "packed.trace", packed)
        assert parse_trace(path, packed=True) == packed


class TestLazyStreaming:
    def test_iter_trace_is_lazy(self):
        """The parser must pull lines on demand, not slurp them."""
        consumed = []

        def lines():
            for i in range(100):
                consumed.append(i)
                yield f"R {32 * i:#x}"

        stream = iter_trace(lines())
        first = next(stream)
        assert first.addr == 0
        assert len(consumed) == 1

    def test_iter_trace_streams_files_line_by_line(self, tmp_path):
        path = write_trace(
            tmp_path / "big.trace",
            (MemRequest(Op.READ, 32 * i) for i in range(1000)),
        )
        addrs = [r.addr for r in iter_trace(path)]
        assert addrs == [32 * i for i in range(1000)]

    def test_write_trace_accepts_generators(self, tmp_path):
        path = write_trace(
            tmp_path / "gen.trace",
            (MemRequest(Op.WRITE, 64 * i) for i in range(10)),
        )
        reqs = parse_trace(path)
        assert [r.addr for r in reqs] == [64 * i for i in range(10)]
        assert all(r.op is Op.WRITE for r in reqs)

    def test_iter_trace_reports_line_numbers(self):
        stream = iter_trace("R 0x20\nX 0x40\n")
        next(stream)
        with pytest.raises(ValueError, match="unknown trace op"):
            next(stream)


class TestTimestamps:
    """The optional third trace column: arrival timestamps in ns."""

    def test_parse_timestamped_lines(self):
        reqs = parse_trace("R 0x20 0.0\nW 64 12.5\nP 0x0 100\n")
        assert [r.timestamp for r in reqs] == [0.0, 12.5, 100.0]

    def test_round_trip_is_lossless(self, tmp_path):
        original = [
            MemRequest(Op.READ, 0x1A00, 0.0),
            MemRequest(Op.WRITE, 0x1A20, 0.1 + 0.2),  # non-trivial float
            MemRequest(Op.PIM, 0, 1e9 / 3),
        ]
        path = write_trace(tmp_path / "timed.trace", original)
        reparsed = parse_trace(path)
        assert original == reparsed
        assert [r.timestamp for r in reparsed] == [
            r.timestamp for r in original
        ]
        assert format_trace(reparsed) == format_trace(original)

    def test_untimestamped_lines_have_no_timestamp(self):
        assert parse_trace("R 0x20\n")[0].timestamp is None

    def test_mixed_presence_rejected_with_line_number(self):
        with pytest.raises(ValueError, match="line 2.*mixes"):
            parse_trace("R 0x20 1.0\nW 0x40\n")
        with pytest.raises(ValueError, match="line 2.*mixes"):
            parse_trace("R 0x20\nW 0x40 1.0\n")

    def test_decreasing_timestamp_rejected_with_line_number(self):
        with pytest.raises(ValueError, match="line 2.*decreases"):
            parse_trace("R 0x20 5.0\nW 0x40 4.0\n")

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError, match="non-negative finite"):
            parse_trace("R 0x20 -1.0\n")

    @pytest.mark.parametrize("literal", ("nan", "inf"))
    def test_non_finite_timestamp_rejected(self, literal):
        with pytest.raises(ValueError, match="non-negative finite"):
            parse_trace(f"R 0x20 {literal}\n")

    def test_packed_infinite_timestamp_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            PackedTrace(
                np.array([0, 0], dtype=np.uint8),
                np.array([0, 32], dtype=np.int64),
                np.array([0.0, np.inf]),
            )

    def test_equal_timestamps_allowed(self):
        reqs = parse_trace("R 0x20 7.0\nW 0x40 7.0\n")
        assert [r.timestamp for r in reqs] == [7.0, 7.0]

    def test_packed_trace_carries_times(self):
        packed = PackedTrace(
            np.array([0, 1], dtype=np.uint8),
            np.array([0x20, 0x40], dtype=np.int64),
            np.array([1.0, 2.0]),
        )
        reqs = packed.to_requests()
        assert [r.timestamp for r in reqs] == [1.0, 2.0]
        assert PackedTrace.from_requests(reqs) == packed
        assert "timed" in repr(packed)

    def test_packed_trace_time_validation(self):
        ops = np.array([0, 0], dtype=np.uint8)
        addrs = np.array([0, 32], dtype=np.int64)
        with pytest.raises(ValueError, match="non-decreasing"):
            PackedTrace(ops, addrs, np.array([2.0, 1.0]))
        with pytest.raises(
            ValueError,
            match=r"request 2: timestamp 3\.0 decreases "
            r"\(previous was 4\.0\)",
        ):
            PackedTrace(
                np.zeros(3, dtype=np.uint8),
                np.array([0, 32, 64]),
                np.array([1.0, 4.0, 3.0]),
            )
        with pytest.raises(ValueError, match="non-negative"):
            PackedTrace(ops, addrs, np.array([-1.0, 1.0]))
        with pytest.raises(ValueError, match="matching"):
            PackedTrace(ops, addrs, np.array([1.0]))

    def test_packed_equality_distinguishes_timed(self):
        ops = np.array([0], dtype=np.uint8)
        addrs = np.array([32], dtype=np.int64)
        assert PackedTrace(ops, addrs) != PackedTrace(
            ops, addrs, np.array([0.0])
        )

    def test_from_requests_rejects_mixed(self):
        with pytest.raises(ValueError, match="mixes"):
            PackedTrace.from_requests(
                [MemRequest(Op.READ, 0, 1.0), MemRequest(Op.READ, 32)]
            )

    def test_synthesize_interarrival(self):
        config = MemSysConfig()
        reqs = synthesize_trace(
            "sequential", 5, config, interarrival_ns=2.5, start_ns=10.0
        )
        assert [r.timestamp for r in reqs] == [
            10.0, 12.5, 15.0, 17.5, 20.0,
        ]
        packed = synthesize_trace(
            "sequential", 5, config, interarrival_ns=2.5,
            start_ns=10.0, packed=True,
        )
        assert packed.times is not None
        assert packed.times.tolist() == [10.0, 12.5, 15.0, 17.5, 20.0]

    def test_synthesize_rejects_negative_interarrival(self):
        with pytest.raises(ValueError, match="interarrival_ns"):
            synthesize_trace("sequential", 4, interarrival_ns=-1.0)
        with pytest.raises(ValueError, match="start_ns"):
            synthesize_trace(
                "sequential", 4, interarrival_ns=1.0, start_ns=-5.0
            )

    def test_request_timestamp_validation(self):
        with pytest.raises(ValueError, match="timestamp"):
            MemRequest(Op.READ, 0, -1.0)
        with pytest.raises(ValueError, match="timestamp"):
            MemRequest(Op.READ, 0, float("nan"))
        with pytest.raises(ValueError, match="timestamp"):
            MemRequest(Op.READ, 0, float("inf"))
