"""Experiment ``memsys_bandwidth``: trace-driven memory-system sweeps.

Replays synthetic access traces through :mod:`repro.memsys` and
cross-validates the simulated sustained bandwidth against the §2.1
closed forms of :mod:`repro.arch.dram`:

* single-macro streaming under FR-FCFS must land within 5% of
  :func:`~repro.arch.dram.macro_bandwidth_bits_per_sec`;
* a random trace must match the generalized row-hit-ratio model at its
  *measured* hit rate;
* sweeping address-interleaving schemes shows channel interleaving
  scaling bandwidth with channel count;
* FR-FCFS harvests row hits that FCFS forfeits on a row-interleaved
  stream;
* PIM all-bank mode reclaims the aggregate row-buffer bandwidth of
  every bank on the channel — the paper's "hidden bandwidth", now
  observed in simulation rather than derived;
* refresh (tREFI/tRFC) costs sustained bandwidth in proportion to the
  blackout fraction ``tRFC/tREFI`` under per-rank (all-bank) refresh,
  while staggered per-bank refresh hides most of the overhead behind
  accesses to other banks;
* timestamped traces replay at their recorded arrival rate: a trace
  slower than the channel's service rate sustains exactly its offered
  load instead of the saturation bandwidth;
* every replay tier obeys the timing laws of :mod:`repro.memsys.laws`
  — service times, row outcomes, refresh blackouts, and the scheduling
  order, re-derived from the recorded arrays without the simulator
  code — on streaming, random, refresh-fenced and timestamped traces;
* per-request latency *distributions* (via :mod:`repro.telemetry`):
  exact queue-wait and service-time percentiles per scheme x policy on
  line-rate random traffic, showing that queueing — not service —
  dominates latency at saturation.

The sweeps replay through the vectorized tier wherever its
certificates hold, which is what makes the full-size grids cheap.
"""

from __future__ import annotations

import typing as _t

from ..arch.dram import (
    DramMacroTiming,
    effective_access_time_ns,
    macro_bandwidth_bits_per_sec,
)
from ..memsys import (
    Coordinates,
    MemRequest,
    MemSysConfig,
    MemorySystem,
    Op,
    SCHEMES,
    synthesize_trace,
)
from .registry import ExperimentConfig, ExperimentResult, register


def _replay(config: MemSysConfig, requests: _t.Sequence[MemRequest]):
    return MemorySystem(config).replay(requests)


def _fresh(requests: _t.Sequence[MemRequest]) -> _t.List[MemRequest]:
    """Copy a trace so each replay starts from clean runtime state."""
    return [MemRequest(r.op, r.addr) for r in requests]


def _row_interleaved_trace(
    config: MemSysConfig, n: int
) -> _t.List[MemRequest]:
    """Pages of two rows of one bank, interleaved — poison for FCFS."""
    amap = config.address_map()
    pages = [
        amap.encode(Coordinates(row=row, column=col))
        for col in range(config.timing.pages_per_row)
        for row in (1, 2)
    ]
    return [
        MemRequest(Op.READ, pages[i % len(pages)]) for i in range(n)
    ]


def _pim_trace(config: MemSysConfig, n: int) -> _t.List[MemRequest]:
    """All-bank PIM commands sweeping rows column-by-column."""
    amap = config.address_map()
    pages_per_row = config.timing.pages_per_row
    requests = []
    for i in range(n):
        row = (i // pages_per_row) % config.rows_per_bank
        column = i % pages_per_row
        addr = amap.encode(Coordinates(row=row, column=column))
        requests.append(MemRequest(Op.PIM, addr))
    return requests


@register(
    name="memsys_bandwidth",
    title="Trace-Driven Memory System vs. the §2.1 Bandwidth Model",
    paper_reference="§2.1 (simulated)",
    description=(
        "Replays synthetic traces through the banked repro.memsys "
        "simulator, sweeping address mappings, access patterns, and "
        "scheduling policies, and cross-validates sustained bandwidth "
        "against the analytic DRAM-macro model."
    ),
)
def run(config: ExperimentConfig) -> ExperimentResult:
    n = 2_000 if config.quick else 20_000
    timing = DramMacroTiming()
    analytic_stream = macro_bandwidth_bits_per_sec(timing)

    # ------------------------------------------------------------------
    # 1. single-macro cross-validation against the closed forms
    # ------------------------------------------------------------------
    single = MemSysConfig(n_channels=1, bankgroups=1, banks_per_group=1)
    stream = _replay(
        single, synthesize_trace("sequential", n, single)
    )
    stream_err = (
        abs(stream.sustained_bits_per_sec - analytic_stream)
        / analytic_stream
    )
    random_stats = _replay(
        single,
        synthesize_trace("random", n, single, seed=config.seed),
    )
    analytic_random = timing.page_bits / (
        effective_access_time_ns(timing, random_stats.row_hit_rate) * 1e-9
    )
    random_err = (
        abs(random_stats.sustained_bits_per_sec - analytic_random)
        / analytic_random
    )
    cross_validation = [
        {
            "pattern": "sequential",
            "simulated_gbit_per_s": stream.sustained_bits_per_sec / 1e9,
            "analytic_gbit_per_s": analytic_stream / 1e9,
            "rel_err_pct": 100 * stream_err,
            "row_hit_rate": stream.row_hit_rate,
        },
        {
            "pattern": "random",
            "simulated_gbit_per_s": (
                random_stats.sustained_bits_per_sec / 1e9
            ),
            "analytic_gbit_per_s": analytic_random / 1e9,
            "rel_err_pct": 100 * random_err,
            "row_hit_rate": random_stats.row_hit_rate,
        },
    ]

    # ------------------------------------------------------------------
    # 2. address-mapping scheme x access-pattern sweep
    # ------------------------------------------------------------------
    sweep_rows = []
    scheme_bw: _t.Dict[_t.Tuple[str, str], float] = {}
    for scheme in sorted(SCHEMES):
        sys_config = MemSysConfig(scheme=scheme)
        for pattern in ("sequential", "strided", "random"):
            trace = synthesize_trace(
                pattern, n, sys_config, seed=config.seed
            )
            stats = _replay(sys_config, trace)
            scheme_bw[(scheme, pattern)] = stats.sustained_bits_per_sec
            sweep_rows.append(
                {
                    "scheme": scheme,
                    "pattern": pattern,
                    "gbit_per_s": stats.sustained_bits_per_sec / 1e9,
                    "row_hit_rate": stats.row_hit_rate,
                    "mean_latency_ns": stats.mean_queue_latency_ns,
                    "mean_queue_len": stats.mean_queue_length,
                }
            )
    interleave_gain = (
        scheme_bw[("channel-interleaved", "sequential")]
        / scheme_bw[("row-major", "sequential")]
    )

    # ------------------------------------------------------------------
    # 3. scheduling-policy comparison on a row-interleaved stream
    # ------------------------------------------------------------------
    policy_rows = []
    policy_hits = {}
    base = MemSysConfig(n_channels=1, bankgroups=1, banks_per_group=1)
    conflict_trace = _row_interleaved_trace(base, n)
    for policy in ("fcfs", "frfcfs"):
        sys_config = MemSysConfig(
            n_channels=1, bankgroups=1, banks_per_group=1, policy=policy
        )
        stats = _replay(sys_config, _fresh(conflict_trace))
        policy_hits[policy] = stats.row_hit_rate
        policy_rows.append(
            {
                "policy": policy,
                "row_hit_rate": stats.row_hit_rate,
                "gbit_per_s": stats.sustained_bits_per_sec / 1e9,
                "mean_latency_ns": stats.mean_queue_latency_ns,
            }
        )

    # ------------------------------------------------------------------
    # 4. PIM all-bank mode vs host streaming on one channel
    # ------------------------------------------------------------------
    one_channel = MemSysConfig(n_channels=1)
    host = _replay(
        one_channel, synthesize_trace("sequential", n, one_channel)
    )
    pim = _replay(one_channel, _pim_trace(one_channel, n))
    pim_speedup = (
        pim.sustained_bits_per_sec / host.sustained_bits_per_sec
    )
    pim_rows = [
        {
            "mode": "host streaming (1 bank at a time)",
            "gbit_per_s": host.sustained_bits_per_sec / 1e9,
            "speedup": 1.0,
        },
        {
            "mode": (
                f"PIM all-bank ({one_channel.banks_per_channel} banks)"
            ),
            "gbit_per_s": pim.sustained_bits_per_sec / 1e9,
            "speedup": pim_speedup,
        },
    ]

    # ------------------------------------------------------------------
    # 5. refresh overhead: tREFI/tRFC blackouts vs the ideal stream
    # ------------------------------------------------------------------
    #: HBM2-class refresh timings (ns).
    trefi, trfc = 3900.0, 350.0
    # bank-interleaved random traffic spreads over every bank, which is
    # what lets staggered per-bank refresh work around the refreshing
    # bank; the paper-default row-major random footprint stays inside
    # one bank, where the two granularities coincide
    refresh_base = MemSysConfig(n_channels=1, scheme="bank-interleaved")
    ideal = _replay(
        refresh_base,
        synthesize_trace("random", n, refresh_base, seed=config.seed),
    )
    refresh_rows = []
    refresh_bw = {}
    for granularity in ("per-rank", "per-bank"):
        refreshed_config = MemSysConfig(
            n_channels=1,
            scheme="bank-interleaved",
            trefi_ns=trefi,
            trfc_ns=trfc,
            refresh_granularity=granularity,
        )
        stats = _replay(
            refreshed_config,
            synthesize_trace(
                "random", n, refreshed_config, seed=config.seed
            ),
        )
        overhead = 1 - stats.sustained_bits_per_sec / ideal.sustained_bits_per_sec
        refresh_bw[granularity] = stats.sustained_bits_per_sec
        refresh_rows.append(
            {
                "granularity": granularity,
                "gbit_per_s": stats.sustained_bits_per_sec / 1e9,
                "overhead_pct": 100 * overhead,
                "blackout_pct": 100 * trfc / trefi,
                "row_hit_rate": stats.row_hit_rate,
            }
        )
    per_rank_overhead = (
        1 - refresh_bw["per-rank"] / ideal.sustained_bits_per_sec
    )
    blackout_fraction = trfc / trefi

    # ------------------------------------------------------------------
    # 6. timestamped arrivals: offered load below saturation
    # ------------------------------------------------------------------
    paced_config = MemSysConfig(n_channels=1)
    interarrival = 4 * paced_config.timing.page_access_ns  # ~25% load
    line_rate = _replay(
        paced_config, synthesize_trace("sequential", n, paced_config)
    )
    paced_trace = synthesize_trace(
        "sequential", n, paced_config, interarrival_ns=interarrival
    )
    paced = _replay(paced_config, paced_trace)
    offered = paced_config.timing.page_bits / (interarrival * 1e-9)
    paced_rows = [
        {
            "arrivals": "line-rate",
            "gbit_per_s": line_rate.sustained_bits_per_sec / 1e9,
        },
        {
            "arrivals": f"timestamped ({interarrival:g} ns spacing)",
            "gbit_per_s": paced.sustained_bits_per_sec / 1e9,
            "offered_gbit_per_s": offered / 1e9,
        },
    ]
    paced_err = abs(paced.sustained_bits_per_sec - offered) / offered

    # ------------------------------------------------------------------
    # 7. timing laws, checked on the recorded arrays of each tier
    # ------------------------------------------------------------------
    from ..memsys import check_laws
    from ..telemetry import ReplayTelemetry

    law_rows = []
    laws_hold = True
    eq_cases = [
        (pattern, MemSysConfig(scheme="channel-interleaved"), {})
        for pattern in ("sequential", "strided", "random")
    ]
    eq_cases.append(
        (
            "sequential+refresh",
            MemSysConfig(
                scheme="channel-interleaved",
                trefi_ns=trefi,
                trfc_ns=trfc,
            ),
            {},
        )
    )
    eq_cases.append(
        (
            "random+refresh(per-bank)",
            MemSysConfig(
                scheme="channel-interleaved",
                trefi_ns=trefi,
                trfc_ns=trfc,
                refresh_granularity="per-bank",
            ),
            {},
        )
    )
    eq_cases.append(
        (
            "sequential+timestamps",
            MemSysConfig(scheme="channel-interleaved"),
            {"interarrival_ns": interarrival},
        )
    )
    for pattern, eq_config, synth_kwargs in eq_cases:
        eq_trace = synthesize_trace(
            pattern.split("+", 1)[0],
            n,
            eq_config,
            seed=config.seed,
            **synth_kwargs,
        )
        telemetry = ReplayTelemetry(profile=False)
        system = MemorySystem(eq_config)
        stats = system.replay(eq_trace, telemetry=telemetry)
        violations = check_laws(eq_config, telemetry.recorder.arrays)
        laws_hold = laws_hold and not violations
        law_rows.append(
            {
                "pattern": pattern,
                "tier": system.last_replay_engine,
                "gbit_per_s": stats.sustained_bits_per_sec / 1e9,
                "violations": len(violations),
                "laws_hold": not violations,
            }
        )

    # ------------------------------------------------------------------
    # 8. per-request latency distributions (repro.telemetry)
    # ------------------------------------------------------------------
    latency_rows = []
    latency_ordered = True
    queue_dominates = True
    for scheme in ("row-major", "channel-interleaved"):
        for policy in ("fcfs", "frfcfs"):
            lat_config = MemSysConfig(scheme=scheme, policy=policy)
            telemetry = ReplayTelemetry(profile=False)
            MemorySystem(lat_config).replay(
                synthesize_trace(
                    "random", n, lat_config, seed=config.seed
                ),
                telemetry=telemetry,
            )
            pct = telemetry.percentiles()
            queue = pct["queue_wait_ns"]
            service = pct["service_time_ns"]
            for summary in (queue, service):
                latency_ordered = latency_ordered and (
                    summary["p50"]
                    <= summary["p95"]
                    <= summary["p99"]
                    <= summary["max"]
                )
            # line-rate arrivals saturate the queue: even the fastest
            # service (a row hit) waits behind queue_depth-ish peers
            queue_dominates = queue_dominates and (
                queue["p50"] > service["p99"]
            )
            latency_rows.append(
                {
                    "scheme": scheme,
                    "policy": policy,
                    "queue_p50_ns": queue["p50"],
                    "queue_p95_ns": queue["p95"],
                    "queue_p99_ns": queue["p99"],
                    "queue_max_ns": queue["max"],
                    "service_p50_ns": service["p50"],
                    "service_p95_ns": service["p95"],
                    "service_p99_ns": service["p99"],
                    "service_max_ns": service["max"],
                }
            )

    # ------------------------------------------------------------------
    # 9. sharded replay farm equivalence (repro.farm)
    # ------------------------------------------------------------------
    import dataclasses as _dc

    from ..farm import Fault, FaultPlan, FarmConfig, replay_farm

    farm_rows = []
    farm_exact = True
    farm_n = min(n, 4000)
    farm_cases = [
        ("poisson", None),
        (
            "poisson+chaos",
            FaultPlan(
                {
                    (0, 0): Fault("kill"),
                    (1, 0): Fault("corrupt"),
                    (2, 0): Fault("hang"),
                }
            ),
        ),
    ]
    farm_config = MemSysConfig(
        n_channels=4, scheme="channel-interleaved", queue_depth=8
    )
    farm_trace = synthesize_trace(
        "random",
        farm_n,
        farm_config,
        seed=config.seed,
        packed=True,
        interarrival_ns=4.0 * interarrival,
        interarrival="poisson",
    )
    single = MemorySystem(farm_config).replay(
        farm_trace, engine="fast"
    )
    for label, faults in farm_cases:
        farm_result = replay_farm(
            farm_trace,
            farm_config,
            FarmConfig(
                mode="inprocess",
                engine="fast",
                backoff_base_s=0.001,
                backoff_cap_s=0.002,
            ),
            fault_plan=faults,
        )
        identical = repr(_dc.asdict(single)) == repr(
            _dc.asdict(farm_result.stats)
        )
        farm_exact = farm_exact and identical
        ledger = farm_result.report
        farm_rows.append(
            {
                "case": label,
                "shards": ledger.n_shards,
                "attempts": ledger.attempts,
                "retries": ledger.retries,
                "timeouts": ledger.timeouts,
                "crashes": ledger.crashes,
                "integrity_failures": ledger.integrity_failures,
                "degraded_shards": ledger.degraded_shards,
                "bit_identical": identical,
            }
        )

    checks = {
        "streaming FR-FCFS within 5% of analytic model": (
            stream_err < 0.05
        ),
        "random trace matches hit-ratio model within 10%": (
            random_err < 0.10
        ),
        "FR-FCFS row-hit rate exceeds FCFS": (
            policy_hits["frfcfs"] > policy_hits["fcfs"]
        ),
        "channel interleaving scales sequential bandwidth": (
            interleave_gain > 1.5
        ),
        "PIM all-bank reclaims multi-bank bandwidth": (
            pim_speedup > 0.9 * one_channel.banks_per_channel
        ),
        "per-rank refresh overhead tracks tRFC/tREFI": (
            0.5 * blackout_fraction
            < per_rank_overhead
            < 2.0 * blackout_fraction
        ),
        "per-bank refresh outperforms per-rank on host streams": (
            refresh_bw["per-bank"] > refresh_bw["per-rank"]
        ),
        "timestamped trace sustains its offered load within 5%": (
            paced_err < 0.05
        ),
        "every replay obeys the timing laws": laws_hold,
        "latency percentiles are ordered (p50<=p95<=p99<=max)": (
            latency_ordered
        ),
        "queue wait dominates service time at line rate": (
            queue_dominates
        ),
        "sharded farm replay is bit-identical to single-process": (
            farm_exact
        ),
    }
    return ExperimentResult(
        name="memsys_bandwidth",
        title="Trace-Driven Memory System vs. the §2.1 Bandwidth Model",
        paper_reference="§2.1 (simulated)",
        tables={
            "cross_validation": cross_validation,
            "scheme_pattern_sweep": sweep_rows,
            "policy_comparison": policy_rows,
            "pim_mode": pim_rows,
            "refresh_overhead": refresh_rows,
            "timestamped_arrivals": paced_rows,
            "timing_laws": law_rows,
            "latency_distributions": latency_rows,
            "farm_equivalence": farm_rows,
        },
        plots={},
        summary=[
            f"simulated streaming bandwidth "
            f"{stream.sustained_bits_per_sec / 1e9:.1f} Gbit/s vs "
            f"analytic {analytic_stream / 1e9:.1f} Gbit/s "
            f"({100 * stream_err:.2f}% off)",
            f"channel interleaving gains {interleave_gain:.2f}x on a "
            "sequential stream",
            f"FR-FCFS row-hit rate {policy_hits['frfcfs']:.2f} vs FCFS "
            f"{policy_hits['fcfs']:.2f} on a row-interleaved stream",
            f"PIM all-bank mode sustains {pim_speedup:.1f}x the host "
            "streaming bandwidth of the same channel",
            f"per-rank refresh (tREFI={trefi:g}, tRFC={trfc:g}) costs "
            f"{100 * per_rank_overhead:.1f}% of streaming bandwidth "
            f"(blackout fraction {100 * blackout_fraction:.1f}%); "
            "per-bank staggering costs "
            f"{100 * (1 - refresh_bw['per-bank'] / ideal.sustained_bits_per_sec):.1f}%",
            f"timestamped trace at {interarrival:g} ns spacing "
            f"sustains {paced.sustained_bits_per_sec / 1e9:.1f} Gbit/s "
            f"(offered {offered / 1e9:.1f} Gbit/s)",
            "replays "
            + ("obey" if laws_hold else "BREAK")
            + " the timing laws on every checked trace",
            "sharded replay farm "
            + ("is" if farm_exact else "is NOT")
            + " bit-identical to single-process replay, with and "
            "without injected faults "
            f"({farm_rows[1]['crashes']} crash(es), "
            f"{farm_rows[1]['timeouts']} timeout(s), "
            f"{farm_rows[1]['integrity_failures']} corruption(s) "
            "absorbed)",
            f"line-rate random queue-wait p99 "
            f"{latency_rows[0]['queue_p99_ns']:.0f} ns vs service p99 "
            f"{latency_rows[0]['service_p99_ns']:.0f} ns "
            f"({latency_rows[0]['scheme']}/{latency_rows[0]['policy']}) "
            "— queueing dominates at saturation",
        ],
        checks=checks,
    )
