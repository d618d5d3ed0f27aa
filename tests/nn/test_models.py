"""Transformer-layer workload generator: grammar, arrivals, replay."""

import hashlib

import numpy as np
import pytest

from repro.memsys import MemorySystem, MemSysConfig, Op
from repro.nn import (
    TransformerLayerSpec,
    transformer_layer_program,
    transformer_layer_trace,
)
from repro.pimexec import parse_pim_program
from repro.telemetry import ReplayTelemetry

from tests.memsys.event_oracle import replay_event
from tests.memsys.test_fastpath import assert_laws_hold

SPEC = TransformerLayerSpec(d_model=8, n_heads=2, seq_len=8, d_ff=16)
WIDE = TransformerLayerSpec(d_model=16, n_heads=4, seq_len=20, d_ff=24)

#: ``name -> (spec, generator keywords)`` for the pinned layer traces.
TRACE_CASES = {
    "fixed": (SPEC, {}),
    "poisson": (
        SPEC,
        dict(interarrival_ns=3.0, interarrival="poisson", seed=7),
    ),
    "untimed": (SPEC, dict(interarrival_ns=None)),
    "wide-channel1": (
        WIDE,
        dict(channel=1, interarrival="poisson", seed=2, start_ns=10.0),
    ),
}

#: sha256 of each case's trace text: the emitted dialect (comments,
#: ``GRF,8``-style operands, ``@<ns>`` stamps) stays byte-identical.
TRACE_SHA256 = {
    "fixed": "f30015ac36e5074e2fd07771ae3fa89c2f4a29aa35d61115a2fce216466f1826",
    "poisson": "11accaa45fc5f9f1eaa1a1d5e8a713ee994e925cf98a5f1a4b8d135ea5d2b5b8",
    "untimed": "57b5b00b8a8ca3f25e561d88bbff4e93fb61e9758a98d35e26a93b693b4016d6",
    "wide-channel1": "57914037241b49aaebf77f53d0a429681a728aab8d2c9c636edebf782cdd852d",
}


class TestSpec:
    def test_defaults(self):
        spec = TransformerLayerSpec()
        assert spec.d_head == 16
        assert spec.ff_width == 4 * spec.d_model

    def test_validation(self):
        with pytest.raises(ValueError, match="divisible"):
            TransformerLayerSpec(d_model=10, n_heads=3)
        with pytest.raises(ValueError):
            TransformerLayerSpec(seq_len=0)
        with pytest.raises(ValueError):
            TransformerLayerSpec(d_ff=0)


class TestGrammar:
    def test_trace_parses_into_the_program_dialect(self):
        program = transformer_layer_program(SPEC)
        counts = program.counts()
        # host transactions, staging registers, broadcasts, PIM ops
        assert set(counts) == {"sb", "gpr", "ab", "pim"}
        assert counts["ab"] > 0 and counts["pim"] > 0

    def test_every_lowering_record_is_timestamped(self):
        program = transformer_layer_program(SPEC, interarrival_ns=2.0)
        assert program.timestamped
        requests = program.to_requests(MemSysConfig())
        assert all(r.timestamp is not None for r in requests)
        times = [r.timestamp for r in requests]
        assert times == sorted(times)

    def test_untimestamped_variant(self):
        program = transformer_layer_program(SPEC, interarrival_ns=None)
        assert not program.timestamped

    def test_trace_carries_all_request_kinds(self):
        requests = transformer_layer_program(SPEC).to_requests(
            MemSysConfig()
        )
        kinds = {r.op for r in requests}
        assert kinds == {Op.READ, Op.WRITE, Op.AB, Op.PIM}

    def test_record_count_scales_with_the_layer(self):
        small = len(transformer_layer_program(SPEC))
        large = len(
            transformer_layer_program(
                TransformerLayerSpec(
                    d_model=16, n_heads=2, seq_len=16, d_ff=32
                )
            )
        )
        assert large > 2 * small

    def test_bad_channel_rejected(self):
        with pytest.raises(ValueError, match="channel"):
            transformer_layer_trace(SPEC, channel=9)

    def test_bad_interarrival_mode_rejected(self):
        with pytest.raises(ValueError, match="interarrival"):
            transformer_layer_trace(SPEC, interarrival="burst")


class TestRecordsMatchText:
    @pytest.mark.parametrize("case", sorted(TRACE_CASES))
    def test_trace_text_is_pinned(self, case):
        spec, kwargs = TRACE_CASES[case]
        text = transformer_layer_trace(spec, **kwargs)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            TRACE_SHA256[case]
        )

    @pytest.mark.parametrize("case", sorted(TRACE_CASES))
    def test_program_records_equal_the_parsed_text(self, case):
        spec, kwargs = TRACE_CASES[case]
        built = transformer_layer_program(spec, **kwargs)
        parsed = parse_pim_program(transformer_layer_trace(spec, **kwargs))
        assert built.records == parsed.records


class TestArrivals:
    def test_poisson_is_seeded_and_deterministic(self):
        kwargs = dict(interarrival_ns=3.0, interarrival="poisson")
        assert transformer_layer_trace(
            SPEC, seed=4, **kwargs
        ) == transformer_layer_trace(SPEC, seed=4, **kwargs)
        assert transformer_layer_trace(
            SPEC, seed=4, **kwargs
        ) != transformer_layer_trace(SPEC, seed=5, **kwargs)

    def test_poisson_gaps_are_bursty_not_fixed(self):
        fixed = transformer_layer_program(SPEC, interarrival_ns=3.0)
        poisson = transformer_layer_program(
            SPEC, interarrival_ns=3.0, interarrival="poisson"
        )
        config = MemSysConfig()
        t_fixed = np.diff(
            [r.timestamp for r in fixed.to_requests(config)]
        )
        t_poisson = np.diff(
            [r.timestamp for r in poisson.to_requests(config)]
        )
        assert np.allclose(t_fixed, 3.0)
        assert t_poisson.std() > 0.5  # exponential spread
        # same mean rate, within sampling noise
        assert abs(t_poisson.mean() - 3.0) < 1.0


class TestReplay:
    @pytest.mark.parametrize("mode", ["fixed", "poisson"])
    def test_both_engines_replay_identically(self, mode):
        config = MemSysConfig()
        program = transformer_layer_program(
            SPEC, config, interarrival_ns=4.0, interarrival=mode
        )
        event = replay_event(
            MemorySystem(config), program.to_requests(config)
        )
        telemetry = ReplayTelemetry(profile=False)
        fast = MemorySystem(config).replay(
            program.to_requests(config), telemetry=telemetry
        )
        assert_laws_hold(config, telemetry)
        assert event.makespan_ns == fast.makespan_ns
        assert event.summary() == fast.summary()
        assert event.row_hits == fast.row_hits
        assert event.row_conflicts == fast.row_conflicts

    def test_line_rate_replay_also_works(self):
        config = MemSysConfig()
        program = transformer_layer_program(
            SPEC, config, interarrival_ns=None
        )
        stats = MemorySystem(config).replay(
            program.to_requests(config)
        )
        assert stats.n_requests == len(program)
