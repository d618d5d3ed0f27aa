"""The benchmark's three workloads, each driving ``repro``'s public API.

Each workload stresses a different part of the simulator, so a change
that speeds one layer up has one workload that exercises it and others
on which the prediction is "no change":

* ``stream-report`` — a line-rate sequential stream replayed on the
  closed-form (vectorized) tier, then the post-replay telemetry
  derivation ``repro-pim report --energy`` computes;
* ``random-farm`` — timestamped random traffic on the exact tier,
  sharded across two farm worker processes;
* ``nn-layer`` — fp16 transformer kernels, executed per instruction,
  plus a transformer-layer program trace (mixed host + AB streams on
  the exact tier).

A workload object is driven by ``run.py``: :meth:`prepare` once
(input generation, from the seed), then per iteration the timed
:meth:`iterate` and the untimed :meth:`check`; :meth:`finish` runs once
after the timed loop.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing as _t

import numpy as np

from repro.arch.dram import macro_bandwidth_bits_per_sec
from repro.farm import FarmConfig, replay_farm
from repro.memsys import (
    MemSysConfig,
    MemSysStats,
    MemorySystem,
    PackedTrace,
    synthesize_trace,
)
from repro.nn import (
    TransformerLayerSpec,
    build_nn_kernel,
    transformer_layer_program,
)
from repro.pimexec import PimExecMachine
from repro.telemetry import (
    ReplayTelemetry,
    build_energy,
    build_timeseries,
    validate_energy,
    validate_timeseries,
)

from spans import Tracer

#: HBM2-class per-rank refresh (ns) on the memsys workloads.
TREFI_NS, TRFC_NS = 3900.0, 350.0
#: Tolerance of the stream bandwidth against the refresh-derated
#: analytic value.
BANDWIDTH_TOLERANCE_PCT = 5.0


@dataclasses.dataclass
class Replay:
    """One replay as the checks and simulated metrics see it."""

    label: str
    submitted: int
    stats: MemSysStats
    engine: str

    @property
    def vectorized(self) -> int:
        """Requests served by the closed-form tier."""
        return self.submitted if self.engine == "fast-vectorized" else 0


@dataclasses.dataclass
class Checked:
    """What :meth:`Workload.check` makes of one iteration's output."""

    replays: _t.List[Replay]
    failures: _t.List[str]
    #: Text whose hash is the iteration's simulated-statistics digest.
    digest_text: str
    #: Workload-specific simulated per-layer values.
    values: _t.Dict[str, float]


def _conservation(replay: Replay) -> _t.List[str]:
    """Every submitted request is replayed, and channels add up."""
    stats = replay.stats
    failures = []
    if stats.n_requests != replay.submitted:
        failures.append(
            f"{replay.label}: replayed {stats.n_requests} of "
            f"{replay.submitted} requests"
        )
    per_channel = sum(c["requests"] for c in stats.per_channel)
    if per_channel != stats.n_requests:
        failures.append(
            f"{replay.label}: channels replayed {per_channel}, "
            f"total says {stats.n_requests}"
        )
    return failures


def _stats_text(replays: _t.Iterable[Replay]) -> str:
    # the tier is left out: a tier change that keeps every statistic
    # is a speed change, not a model change
    return "\n".join(
        f"{r.label} {dataclasses.asdict(r.stats)!r}" for r in replays
    )


class Workload:
    name = ""

    def prepare(self, seed: int, tracer: Tracer) -> None:
        raise NotImplementedError

    def iterate(self, tracer: Tracer) -> _t.Any:
        raise NotImplementedError

    def check(self, raw: _t.Any) -> Checked:
        raise NotImplementedError

    def finish(self, tracer: Tracer, last: _t.Optional[Checked]) -> _t.List[str]:
        """Once-per-run checks outside the timed region."""
        return []


class StreamReport(Workload):
    """1M sequential reads, replayed then reported with energy."""

    name = "stream-report"
    n_requests = 1_000_000

    def prepare(self, seed: int, tracer: Tracer) -> None:
        self.config = MemSysConfig(
            n_channels=2,
            scheme="channel-interleaved",
            trefi_ns=TREFI_NS,
            trfc_ns=TRFC_NS,
        )
        with tracer.span("memsys.synth"):
            base = synthesize_trace(
                "sequential", self.n_requests, self.config, packed=True
            )
            # the seed picks where in the address space the stream starts,
            # on a row-stripe boundary (one row of every bank of every
            # channel), so the wrap-around at the top of the address
            # space continues the sequence.  A mid-stripe start breaks it
            # at the wrap and sends the replay to the exact tier.
            address_map = self.config.address_map()
            capacity = address_map.capacity_bytes
            step = self.config.transaction_bytes
            stripe = 1 << (
                address_map.channel_bits
                + address_map.bankgroup_bits
                + address_map.bank_bits
                + address_map.column_bits
            )
            rng = np.random.default_rng(seed)
            start = int(rng.integers(capacity // step // stripe)) * stripe
            self.trace = PackedTrace(
                base.op_codes, (base.addrs + start * step) % capacity
            )

    def iterate(self, tracer: Tracer) -> _t.Any:
        telemetry = ReplayTelemetry()
        with tracer.span("memsys.replay") as span:
            system = MemorySystem(self.config)
            stats = system.replay(self.trace, engine="fast", telemetry=telemetry)
        tracer.attach_phases(span, telemetry)
        with tracer.span("telemetry.percentiles"):
            percentiles = telemetry.percentiles()
        with tracer.span("telemetry.timeseries"):
            series = build_timeseries(telemetry)
        with tracer.span("telemetry.energy"):
            energy = build_energy(telemetry)
        replay = Replay("stream", len(self.trace), stats, system.last_replay_engine)
        return replay, percentiles, series, energy

    def check(self, raw: _t.Any) -> Checked:
        replay, percentiles, series, energy = raw
        failures = _conservation(replay)
        analytic = (
            2
            * macro_bandwidth_bits_per_sec(self.config.timing)
            * (1 - TRFC_NS / TREFI_NS)
        )
        error_pct = 100 * (replay.stats.sustained_bits_per_sec / analytic - 1)
        if not abs(error_pct) <= BANDWIDTH_TOLERANCE_PCT:
            failures.append(
                f"stream bandwidth {error_pct:+.2f}% off the refresh-derated "
                f"analytic value (tolerance {BANDWIDTH_TOLERANCE_PCT}%)"
            )
        failures += [f"timeseries: {p}" for p in validate_timeseries(series)]
        failures += [f"energy: {p}" for p in validate_energy(energy)]
        digest_text = "\n".join(
            [
                _stats_text([replay]),
                repr(percentiles),
                repr((series["n_windows"], energy["total_pj"])),
            ]
        )
        values = {
            "memsys.bw_error_pct": error_pct,
            "telemetry.queue_wait_p99_ns": percentiles["queue_wait_ns"]["p99"],
            "telemetry.energy_pj_per_bit": energy["pj_per_bit"],
        }
        return Checked([replay], failures, digest_text, values)


class RandomFarm(Workload):
    """200k Poisson-timed random requests on the 2-worker farm."""

    name = "random-farm"
    n_requests = 200_000

    def prepare(self, seed: int, tracer: Tracer) -> None:
        self.config = MemSysConfig(
            n_channels=4,
            scheme="channel-interleaved",
            trefi_ns=TREFI_NS,
            trfc_ns=TRFC_NS,
        )
        with tracer.span("memsys.synth"):
            self.trace = synthesize_trace(
                "random",
                self.n_requests,
                self.config,
                seed=seed,
                packed=True,
                # at a 20 ns mean about one seed in sixteen has a burst
                # that fills a queue; the farm then detects backpressure
                # and redoes the whole replay in one process (2.5x the
                # time).  At 30 ns none of 100 seeds tried did.
                interarrival_ns=30.0,
                interarrival="poisson",
            )
        # explicit workers: the default workers=0 never launches a
        # worker in process mode on a multicore machine.  A worker's
        # heartbeat thread and its result send share one pipe without a
        # lock, so a heartbeat in flight when the result goes out can
        # corrupt it; an interval above a shard's ~2 s replay (and below
        # the 10 s silence timeout) keeps heartbeats out of that window.
        self.farm = FarmConfig(
            workers=2, mode="process", engine="fast", heartbeat_interval_s=5.0
        )

    def iterate(self, tracer: Tracer) -> _t.Any:
        with tracer.span("farm.replay") as span:
            result = replay_farm(self.trace, self.config, self.farm)
        tracer.attach_farm_events(span, result.events)
        return result

    def check(self, result: _t.Any) -> Checked:
        report = result.report
        engines = {s.engine for s in report.shards}
        engine = engines.pop() if len(engines) == 1 else "mixed"
        replay = Replay("farm", len(self.trace), result.stats, engine)
        failures = _conservation(replay)
        sharded = sum(s.n_requests for s in report.shards)
        if not report.fell_back_to_single and sharded != len(self.trace):
            failures.append(
                f"farm: shards hold {sharded} of {len(self.trace)} requests"
            )
        replay_vectorized = sum(
            s.n_requests for s in report.shards if s.engine == "fast-vectorized"
        )
        values = {
            "farm.shards": report.n_shards,
            "farm.retries": report.retries,
            "farm.degraded_shards": report.degraded_shards,
            "farm.harmonized_shards": report.harmonized_shards,
            "memsys.vectorized_share": replay_vectorized / len(self.trace),
        }
        return Checked([replay], failures, _stats_text([replay]), values)

    def finish(self, tracer: Tracer, last: _t.Optional[Checked]) -> _t.List[str]:
        """The farm's merged stats equal a single-process replay's."""
        telemetry = ReplayTelemetry(latency=False)
        with tracer.span("memsys.exact_replay") as span:
            system = MemorySystem(self.config)
            stats = system.replay(self.trace, engine="fast", telemetry=telemetry)
        tracer.attach_phases(span, telemetry)
        if last is None:
            return []
        if repr(dataclasses.asdict(stats)) != repr(
            dataclasses.asdict(last.replays[0].stats)
        ):
            return ["farm stats differ from a single-process replay"]
        return []


def _check_kernels(
    runs: _t.Sequence[_t.Tuple[_t.Any, PimExecMachine, _t.Any]],
) -> Checked:
    """Conservation and bit-exactness of kernel runs."""
    failures = []
    replays = []
    for kernel, machine, result in runs:
        replay = Replay(kernel.name, result.n_requests, result.stats, result.engine)
        replays.append(replay)
        failures += _conservation(replay)
        if not kernel.check(machine):
            failures.append(f"{kernel.name}: bank state differs from its reference")
    values = {
        "pimexec.commands": sum(result.n_pim for _, _, result in runs),
        "pimexec.requests": sum(result.n_requests for _, _, result in runs),
    }
    return Checked(replays, failures, _stats_text(replays), values)


class NnLayer(Workload):
    """Five fp16 kernels plus one transformer-layer program trace."""

    name = "nn-layer"
    kernels = (
        ("gemm", dict(m=256, k=32, n=32)),
        ("attention", {}),
        ("ffn", {}),
        ("softmax", {}),
        ("layernorm", {}),
    )
    spec = TransformerLayerSpec(d_model=32, n_heads=2, seq_len=32, d_ff=64)

    def prepare(self, seed: int, tracer: Tracer) -> None:
        self.seed = seed
        self.config = MemSysConfig()

    def iterate(self, tracer: Tracer) -> _t.Any:
        runs = []
        for offset, (name, shape) in enumerate(self.kernels):
            with tracer.span("nn." + name):
                kernel = build_nn_kernel(
                    name, dtype="fp16", seed=self.seed + offset, **shape
                )
                with tracer.span("pimexec.stage"):
                    machine = kernel.machine()
                    kernel.setup(machine)
                    machine.reset_requests()
                with tracer.span("pimexec.execute"):
                    kernel.execute(machine)
                telemetry = ReplayTelemetry(latency=False) if tracer.enabled else None
                with tracer.span("pimexec.replay") as span:
                    result = machine.replay(telemetry=telemetry)
                tracer.attach_phases(span, telemetry)
            runs.append((kernel, machine, result))
        with tracer.span("nn.trace_gen"):
            program = transformer_layer_program(
                self.spec,
                self.config,
                interarrival_ns=4.0,
                interarrival="poisson",
                seed=self.seed,
            )
        with tracer.span("pimexec.lower"):
            requests = program.to_requests(self.config)
        telemetry = ReplayTelemetry(latency=False) if tracer.enabled else None
        with tracer.span("memsys.replay") as span:
            system = MemorySystem(self.config)
            stats = system.replay(requests, engine="fast", telemetry=telemetry)
        tracer.attach_phases(span, telemetry)
        trace = Replay("layer-trace", len(requests), stats, system.last_replay_engine)
        return runs, trace, len(program)

    def check(self, raw: _t.Any) -> Checked:
        runs, trace, records = raw
        checked = _check_kernels(runs)
        checked.replays.append(trace)
        checked.failures += _conservation(trace)
        outputs = hashlib.sha256()
        for kernel, machine, _ in runs:
            outputs.update(kernel.output(machine).tobytes())
        checked.digest_text = "\n".join(
            [
                _stats_text(checked.replays),
                f"records {records}",
                f"outputs {outputs.hexdigest()}",
            ]
        )
        return checked


WORKLOADS: _t.Dict[str, _t.Type[Workload]] = {
    cls.name: cls for cls in (StreamReport, RandomFarm, NnLayer)
}
