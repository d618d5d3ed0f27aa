"""Four recorded replays that pin the windowed derivations (tests only).

Each replay stresses one shape of the recorder arrays the time-series,
energy and timeline builders reduce:

* ``stream-refresh`` — a line-rate sequential stream under per-rank
  refresh on the closed-form tier: every instant array is sorted and
  the channels' service spans run back to back;
* ``frfcfs-hoist`` — timestamped random traffic under FR-FCFS whose
  row-hit hoists start requests out of trace order on their channel;
* ``per-bank-refresh`` — random traffic under per-bank refresh, whose
  blackouts weigh one bank each;
* ``pim-ab`` — a transformer-layer program: all-bank PIM rows that
  occupy every bank of their channel, AB register broadcasts, and host
  accesses between them, hoisted out of order; its second channel
  stays idle.

:func:`digests` hashes the ``repr`` of every document the builders
derive from one replay, on the default grid and on an explicit
``window_ns`` whose last window overhangs the makespan.
"""

from __future__ import annotations

import hashlib
import typing as _t

from repro.memsys import MemSysConfig, MemorySystem, synthesize_trace
from repro.telemetry import (
    ReplayTelemetry,
    build_energy,
    build_timeline,
    build_timeseries,
)

REFRESH = dict(trefi_ns=3900.0, trfc_ns=350.0)

#: Explicit window width (ns) of the second time-series digest: whole
#: nanoseconds, so integer-valued instants land exactly on its edges.
WINDOW_NS = 1000.0


def _replay(config: MemSysConfig, trace: _t.Any) -> ReplayTelemetry:
    telemetry = ReplayTelemetry()
    MemorySystem(config).replay(trace, telemetry=telemetry)
    return telemetry


def stream_refresh() -> ReplayTelemetry:
    config = MemSysConfig(
        n_channels=2, scheme="channel-interleaved", **REFRESH
    )
    trace = synthesize_trace("sequential", 10_000, config, packed=True)
    return _replay(config, trace)


def frfcfs_hoist() -> ReplayTelemetry:
    config = MemSysConfig(
        n_channels=2, scheme="channel-interleaved", policy="frfcfs",
        **REFRESH,
    )
    trace = synthesize_trace(
        "random", 3000, config, seed=5, write_fraction=0.3, packed=True,
        interarrival_ns=2.0,
    )
    return _replay(config, trace)


def per_bank_refresh() -> ReplayTelemetry:
    config = MemSysConfig(
        n_channels=2,
        scheme="channel-interleaved",
        trefi_ns=3900.0,
        trfc_ns=80.0,
        refresh_granularity="per-bank",
    )
    trace = synthesize_trace(
        "random", 3000, config, seed=7, write_fraction=0.25, packed=True,
        interarrival_ns=8.0, interarrival="poisson",
    )
    return _replay(config, trace)


def pim_ab() -> ReplayTelemetry:
    from repro.nn import TransformerLayerSpec, transformer_layer_program

    config = MemSysConfig(n_channels=2, **REFRESH)
    program = transformer_layer_program(
        TransformerLayerSpec(d_model=8, n_heads=2, seq_len=4),
        config,
        interarrival_ns=4.0,
        interarrival="poisson",
        seed=3,
    )
    return _replay(config, program.to_requests(config))


REPLAYS: _t.Dict[str, _t.Callable[[], ReplayTelemetry]] = {
    "stream-refresh": stream_refresh,
    "frfcfs-hoist": frfcfs_hoist,
    "per-bank-refresh": per_bank_refresh,
    "pim-ab": pim_ab,
}


def _digest(document: _t.Any) -> str:
    return hashlib.sha256(repr(document).encode()).hexdigest()[:16]


def digests(telemetry: ReplayTelemetry) -> _t.Dict[str, str]:
    """Digest of every derived document of one replay."""
    return {
        "timeseries": _digest(build_timeseries(telemetry)),
        "timeseries-window-ns": _digest(
            build_timeseries(telemetry, window_ns=WINDOW_NS)
        ),
        "energy": _digest(build_energy(telemetry)),
        "timeline": _digest(build_timeline(telemetry)),
    }
