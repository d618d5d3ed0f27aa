"""DRAM-command-level energy accounting derived from one replay.

The paper's background argues PIM's win is as much about *energy* as
performance (the Berkeley IRAM argument §2.1 cites), and
:mod:`repro.arch.energy` models that claim analytically.  This module
makes it **observable**: every recorded replay yields a
``repro.telemetry/energy-v1`` document with per-event energy for the
DRAM command classes the replay implies, refresh energy, background
power integrated over busy/idle time, a windowed power series (W), and
the derived figures of merit — pJ/bit and perf-per-watt.

Like the time-series layer it mirrors, everything is computed **purely
from the** :class:`~repro.telemetry.latency.LatencyRecorder` **arrays**
(arrival/start/finish/outcome/channel/bank/op) plus the replay's
configuration, strictly post-replay:

* ``read`` / ``write`` — one column burst per host access, plus an
  ``activate`` on every miss and an ``activate`` + ``precharge`` on
  every conflict (the closed-row turnaround);
* ``broadcast`` — an AB register broadcast moves command/register bits
  without touching a row buffer (no activate energy, matching how the
  bank model treats the outcome);
* ``pim_compute`` — one lockstep CRF instruction runs in **every**
  bank of its channel: per dynamic instruction the banks each pay an
  in-bank column access plus ``lanes`` per-lane ALU operations
  (``lanes = page_bits / 16``, the execution-unit width
  ``pimexec.unit_commands`` counts), and all-bank row turnarounds pay
  activate/precharge in every bank;
* ``refresh`` — each tREFI/tRFC blackout refreshes every bank of the
  rank (per-rank granularity) or one bank per channel (per-bank);
* ``background`` — standby power integrated over each channel's exact
  busy/idle split (service-span union vs. the rest of the makespan).

Because the recorder arrays are bit-identical across both replay
tiers, the farm's merged shards, and the tests' event-calendar oracle,
and every derivation here is a deterministic numpy reduction over
them, the totals, breakdowns, and power series are **bit-identical
across replay paths by construction** (``tests/telemetry/test_energy.py``
pins ``repr`` equality over the replay x unit-tier x farm x refresh x
dtype matrix).  Nothing runs while the simulated clock advances, so the <5%
telemetry-overhead floor of ``benchmarks/bench_*.py`` is untouched.

The :class:`EnergyCoefficients` table is pluggable; the defaults are
*relative* values consistent with the orderings of
:class:`repro.arch.energy.EnergyParams` (an off-chip host column burst
costs ~10x an in-bank PIM column access, mirroring
``hwp_dram_nj / lwp_mem_nj``; a per-lane PIM ALU operation is cheap the
way ``lwp_op_nj`` is), so the simulated host-vs-PIM energy ratios can
be cross-validated against the analytic model — the ``pimexec`` and
``nn`` experiments do exactly that.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import typing as _t

import numpy as np

from ..errors import ConfigError
from .latency import ALL_BANKS, OUTCOME_NAMES
from .registry import MetricsRegistry
from .timeseries import (
    _channel_busy,
    _finish_window,
    _mean_per_window,
    _recorded,
    _window_grid,
    _window_index,
)

if _t.TYPE_CHECKING:  # pragma: no cover
    from .latency import ReplayTelemetry

__all__ = [
    "ENERGY_SCHEMA",
    "ENERGY_CLASSES",
    "EnergyCoefficients",
    "build_energy",
    "energy_metrics",
    "validate_energy",
    "write_energy",
]

#: Schema identifier carried in every document.
ENERGY_SCHEMA = "repro.telemetry/energy-v1"

#: Breakdown classes every document carries, in emission order.
ENERGY_CLASSES = (
    "activate",
    "precharge",
    "read",
    "write",
    "broadcast",
    "pim_compute",
    "refresh",
    "background",
)

#: Execution-unit lane width in bits (mirrors
#: ``repro.pimexec.machine.LANE_BITS`` without importing the machine —
#: the telemetry layer stays dependency-light).
_LANE_BITS = 16

_HIT = OUTCOME_NAMES.index("hit")
_MISS = OUTCOME_NAMES.index("miss")
_CONFLICT = OUTCOME_NAMES.index("conflict")


@dataclasses.dataclass(frozen=True)
class EnergyCoefficients:
    """Per-event energy table (picojoules / milliwatts, relative scale).

    Like :class:`repro.arch.energy.EnergyParams`, these are *relative*
    values chosen to reflect the structural argument, not a measured
    technology point: an off-chip host access (I/O drivers, long
    wires) costs an order of magnitude more than an in-bank access,
    and a lockstep PIM lane operation is far cheaper than anything
    that crosses a pin.  All conclusions tested against them are
    ordering/sign claims that hold for any coefficients with those
    orderings.

    Attributes
    ----------
    act_pj:
        Row activation (wordline + sense amplifiers), per bank.
    pre_pj:
        Row precharge, per bank (charged on conflicts: close + open).
    rd_pj / wr_pj:
        Off-chip column burst of one page for a host READ/WRITE,
        including I/O energy (writes cost slightly more, as in every
        DRAM datasheet).
    ab_pj:
        AB register broadcast: command/register distribution to every
        bank, no row-buffer or I/O-burst energy.
    pim_cmd_pj:
        In-bank column access of one lockstep CRF instruction, per
        bank — roughly ``rd_pj / 10``, the on-chip vs off-chip gap
        ``arch/energy.py`` encodes as ``hwp_dram_nj / lwp_mem_nj``.
    pim_lane_pj:
        One PIM ALU lane operation (MAC/ADD/MUL on one 16-bit lane).
    refresh_bank_pj:
        Refreshing one bank once (a per-rank blackout refreshes every
        bank of every channel at once).
    background_busy_mw / background_idle_mw:
        Standby power per channel while servicing / idle (1 mW over
        1 ns integrates to exactly 1 pJ).
    """

    act_pj: float = 900.0
    pre_pj: float = 450.0
    rd_pj: float = 2000.0
    wr_pj: float = 2100.0
    ab_pj: float = 150.0
    pim_cmd_pj: float = 200.0
    pim_lane_pj: float = 2.0
    refresh_bank_pj: float = 350.0
    background_busy_mw: float = 60.0
    background_idle_mw: float = 30.0

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not isinstance(value, (int, float)) or isinstance(
                value, bool
            ):
                raise ConfigError(
                    f"energy coefficient {field.name} must be a "
                    f"number, got {value!r}"
                )
            if math.isnan(value) or math.isinf(value):
                raise ConfigError(
                    f"energy coefficient {field.name} must be finite, "
                    f"got {value!r}"
                )
            if value < 0:
                raise ConfigError(
                    f"energy coefficient {field.name} must be "
                    f">= 0, got {value!r}"
                )

    def to_dict(self) -> _t.Dict[str, float]:
        """The serializable coefficient table."""
        return {
            field.name: float(getattr(self, field.name))
            for field in dataclasses.fields(self)
        }


# ----------------------------------------------------------------------
# per-event derivation
# ----------------------------------------------------------------------
def _event_energy(
    recorder: _t.Any,
    config: _t.Any,
    coefficients: EnergyCoefficients,
) -> _t.Tuple[np.ndarray, _t.Dict[str, float]]:
    """Per-request event energy (pJ, trace order) and the run's total
    per event class.

    Cached on the recorder per coefficient table, so totals,
    per-channel/bank rollups, and every windowed series share one
    derivation.
    """
    key = (
        "event-energy",
        coefficients,
        config.banks_per_channel,
        config.timing.page_bits,
    )
    return recorder._memo(
        key, lambda: _price_events(recorder, config, coefficients)
    )


def _price_events(
    recorder: _t.Any,
    config: _t.Any,
    coefficients: EnergyCoefficients,
) -> _t.Tuple[np.ndarray, _t.Dict[str, float]]:
    from ..memsys.request import OPS_BY_CODE, Op

    # every class's energy is a function of (op, outcome) alone: price
    # each (op, outcome) pair once, then gather per request
    n_outcomes = len(OUTCOME_NAMES)
    op = np.repeat(np.arange(len(OPS_BY_CODE)), n_outcomes)
    outcome = np.tile(np.arange(n_outcomes), len(OPS_BY_CODE))
    banks = float(config.banks_per_channel)
    lanes = float(config.timing.page_bits // _LANE_BITS)

    is_read = op == Op.READ.code
    is_write = op == Op.WRITE.code
    is_ab = op == Op.AB.code
    is_pim = op == Op.PIM.code
    # all-bank lockstep operations turn rows in every bank of their
    # channel at once, so their activate/precharge energy scales with
    # the bank count; AB broadcasts never reach a row buffer
    row_scale = np.where(is_pim, banks, 1.0)
    row_scale = np.where(is_ab, 0.0, row_scale)

    activate = (
        coefficients.act_pj
        * row_scale
        * ((outcome == _MISS) | (outcome == _CONFLICT))
    )
    precharge = (
        coefficients.pre_pj * row_scale * (outcome == _CONFLICT)
    )
    read = np.where(is_read, coefficients.rd_pj, 0.0)
    write = np.where(is_write, coefficients.wr_pj, 0.0)
    broadcast = np.where(is_ab, coefficients.ab_pj, 0.0)
    pim_compute = np.where(
        is_pim,
        banks
        * (
            coefficients.pim_cmd_pj
            + lanes * coefficients.pim_lane_pj
        ),
        0.0,
    )
    event = (
        activate + precharge + read + write + broadcast + pim_compute
    )
    pair = recorder.op_code * n_outcomes + recorder.outcome_code
    classes = (activate, precharge, read, write, broadcast, pim_compute)
    totals = {
        name: float(np.sum(priced[pair]))
        for name, priced in zip(ENERGY_CLASSES, classes)
    }
    return event[pair], totals


def _refresh_events(
    config: _t.Any,
    makespan: float,
    coefficients: EnergyCoefficients,
) -> _t.Tuple[np.ndarray, np.ndarray]:
    """(begin_ns, energy_pj) of every refresh event over the run.

    A per-rank blackout refreshes every bank of every channel; a
    per-bank blackout refreshes its one bank in every channel (the
    schedule is channel-symmetric, as the timeline renders it).
    """
    schedule = config.refresh_schedule()
    if schedule is None:
        return np.empty(0), np.empty(0)
    blackouts = list(schedule.blackouts(makespan))
    begins = np.array([b for b, _, _ in blackouts], dtype=np.float64)
    banks_refreshed = np.array(
        [
            config.banks_per_channel if which is None else 1
            for _, _, which in blackouts
        ],
        dtype=np.float64,
    )
    energy = (
        banks_refreshed
        * config.n_channels
        * coefficients.refresh_bank_pj
    )
    return begins, energy


def window_energy_pj(
    telemetry: "ReplayTelemetry",
    edges: np.ndarray,
    window_ns: float,
    coefficients: _t.Optional[EnergyCoefficients] = None,
) -> np.ndarray:
    """Per-window total energy (pJ) on an existing window grid.

    The hook :func:`~repro.telemetry.timeseries.build_timeseries` uses
    to merge the ``power_w`` / ``energy_pj_to_date`` series into the
    ``timeseries-v2`` document on *its* grid, guaranteeing both
    documents carry the same numbers.  Event energy bins by finish
    instant, refresh energy by blackout start, background power
    integrates each window's exact busy/idle split (idle time past the
    makespan is never charged).
    """
    coefficients = coefficients or EnergyCoefficients()
    recorder = telemetry.recorder
    config = telemetry.config
    makespan = float(telemetry.makespan_ns)
    count = edges.shape[0] - 1

    event, _ = _event_energy(recorder, config, coefficients)
    finish_idx = _finish_window(recorder, window_ns, count)
    per_window = np.bincount(finish_idx, weights=event, minlength=count)

    begins, refresh_pj = _refresh_events(
        config, makespan, coefficients
    )
    if begins.shape[0]:
        refresh_idx = _window_index(begins, window_ns, count)
        per_window = per_window + np.bincount(
            refresh_idx, weights=refresh_pj, minlength=count
        )

    # background: covered nanoseconds of each window (the grid may
    # overhang the makespan when window_ns is explicit), split into
    # the busy union and the idle remainder, per channel
    covered = np.clip(
        np.minimum(edges[1:], makespan) - edges[:-1], 0.0, window_ns
    )
    for ch in range(config.n_channels):
        busy = (
            _mean_per_window(_channel_busy(recorder, ch), edges, window_ns)
            * window_ns
        )
        idle = np.maximum(covered - busy, 0.0)
        per_window = per_window + (
            busy * coefficients.background_busy_mw
            + idle * coefficients.background_idle_mw
        )
    return per_window


# ----------------------------------------------------------------------
# the builder
# ----------------------------------------------------------------------
def build_energy(
    telemetry: "ReplayTelemetry",
    coefficients: _t.Optional[EnergyCoefficients] = None,
    window_ns: _t.Optional[float] = None,
    n_windows: _t.Optional[int] = None,
) -> dict:
    """Derive the ``energy-v1`` document from one recorded replay.

    The windowing contract matches
    :func:`~repro.telemetry.timeseries.build_timeseries` (explicit
    ``window_ns`` or ``n_windows`` equal windows over the makespan,
    default :data:`~repro.telemetry.timeseries.DEFAULT_WINDOWS`).
    Totals are independent of the grid: binning only distributes the
    same event/refresh/background energies over windows.
    """
    coefficients = coefficients or EnergyCoefficients()
    recorder, config = _recorded(telemetry, "energy accounting")
    makespan = float(telemetry.makespan_ns)
    window_ns, count, edges = _window_grid(makespan, window_ns, n_windows)
    from ..memsys.system import request_bits

    n = recorder.n
    event, breakdown = _event_energy(recorder, config, coefficients)
    begins, refresh_pj = _refresh_events(
        config, makespan, coefficients
    )

    # background totals over the full [0, makespan] — exact busy union
    # per channel, idle as the remainder
    background_total = 0.0
    busy_by_channel: _t.List[float] = []
    whole = np.array([0.0, makespan])
    for ch in range(config.n_channels):
        busy = float(
            _mean_per_window(_channel_busy(recorder, ch), whole, makespan)[0]
            * makespan
        )
        busy_by_channel.append(busy)
        background_total += (
            busy * coefficients.background_busy_mw
            + (makespan - busy) * coefficients.background_idle_mw
        )

    breakdown = dict(breakdown)
    breakdown["refresh"] = float(np.sum(refresh_pj))
    breakdown["background"] = background_total
    total_pj = float(
        math.fsum(breakdown[name] for name in ENERGY_CLASSES)
    )

    # per-channel / per-bank event rollup: banked requests charge
    # their bank; all-bank operations spread evenly across the banks
    # they occupy in lockstep
    banks_n = config.banks_per_channel
    per_bank_share = np.where(
        recorder.bank == ALL_BANKS, event / banks_n, event
    )
    channels: _t.List[dict] = []
    for ch in range(config.n_channels):
        all_bank = recorder.rows(ch, ALL_BANKS)
        bank_rows = []
        for b in range(banks_n):
            # trace order, so the float sum adds in the same order
            on_bank = recorder.rows(ch, b)
            if all_bank.shape[0]:
                on_bank = np.sort(np.concatenate([on_bank, all_bank]))
            bank_rows.append(
                {
                    "bank": b,
                    "event_pj": float(
                        np.sum(per_bank_share[on_bank])
                    ),
                }
            )
        channels.append(
            {
                "channel": ch,
                "event_pj": float(np.sum(event[recorder.rows(ch)])),
                "busy_ns": busy_by_channel[ch],
                "background_pj": (
                    busy_by_channel[ch]
                    * coefficients.background_busy_mw
                    + (makespan - busy_by_channel[ch])
                    * coefficients.background_idle_mw
                ),
                "banks": bank_rows,
            }
        )

    total_bits = float(np.sum(request_bits(config, recorder.op_code)))

    per_window = window_energy_pj(
        telemetry, edges, window_ns, coefficients
    )
    # 1 pJ / 1 ns = 1 mW, so the windowed power series in watts is
    # pJ/ns scaled by 1e-3
    power_w = per_window / window_ns * 1e-3
    to_date = np.cumsum(per_window)

    makespan_s = makespan * 1e-9
    mean_power_w = total_pj / makespan / 1e3
    return {
        "schema": ENERGY_SCHEMA,
        "engine": telemetry.engine,
        "window_ns": window_ns,
        "n_windows": count,
        "makespan_ns": makespan,
        "n_requests": int(n),
        "coefficients": coefficients.to_dict(),
        "total_pj": total_pj,
        "breakdown_pj": breakdown,
        "total_bits": total_bits,
        "pj_per_bit": total_pj / total_bits,
        "mean_power_w": mean_power_w,
        "requests_per_s_per_w": (n / makespan_s) / mean_power_w,
        "channels": channels,
        "t_start_ns": edges[:-1].tolist(),
        "series": {
            "power_w": power_w.tolist(),
            "energy_pj_to_date": to_date.tolist(),
        },
    }


def write_energy(
    telemetry: "ReplayTelemetry",
    path: _t.Union[str, pathlib.Path],
    coefficients: _t.Optional[EnergyCoefficients] = None,
    window_ns: _t.Optional[float] = None,
    n_windows: _t.Optional[int] = None,
) -> pathlib.Path:
    """Build and write the energy JSON; returns the path."""
    document = build_energy(
        telemetry,
        coefficients=coefficients,
        window_ns=window_ns,
        n_windows=n_windows,
    )
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document) + "\n")
    return path


# ----------------------------------------------------------------------
# metrics adapter
# ----------------------------------------------------------------------
def energy_metrics(
    document: _t.Mapping[str, _t.Any],
    registry: _t.Optional[MetricsRegistry] = None,
    **tags: _t.Any,
) -> MetricsRegistry:
    """Emit one ``energy-v1`` document into a metrics registry.

    Surfaces the totals as ``energy_*`` counters (one per breakdown
    class, tagged ``class=...``) and the figures of merit — pJ/bit,
    mean power, perf-per-watt — as gauges, so dashboards can track the
    energy axis next to the latency one.
    """
    # explicit None test: an empty registry is falsy (it has __len__)
    if registry is None:
        registry = MetricsRegistry(source="energy")
    registry.counter("energy_total_pj", document["total_pj"], **tags)
    for name in ENERGY_CLASSES:
        registry.counter(
            "energy_breakdown_pj",
            document["breakdown_pj"][name],
            **dict(tags, **{"class": name}),
        )
    registry.gauge("energy_pj_per_bit", document["pj_per_bit"], **tags)
    registry.gauge(
        "energy_mean_power_w", document["mean_power_w"], **tags
    )
    registry.gauge(
        "energy_requests_per_s_per_w",
        document["requests_per_s_per_w"],
        **tags,
    )
    for entry in document.get("channels", []):
        registry.counter(
            "energy_channel_event_pj",
            entry["event_pj"],
            **dict(tags, channel=entry["channel"]),
        )
    return registry


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def _check_number(
    name: str,
    value: _t.Any,
    problems: _t.List[str],
    minimum: float = 0.0,
) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        problems.append(f"{name}: not a number")
        return False
    if math.isnan(value) or math.isinf(value):
        problems.append(f"{name}: must be finite")
        return False
    if value < minimum:
        problems.append(f"{name}: must be >= {minimum:g}")
        return False
    return True


def validate_energy(document: _t.Any) -> _t.List[str]:
    """Schema-check one energy document; returns problem strings.

    Mirrors :func:`~repro.telemetry.timeseries.validate_timeseries`:
    an empty list means a well-formed ``energy-v1`` document.  Beyond
    shape, it cross-foots the books — the breakdown must sum to the
    total, and the energy-to-date series must be non-decreasing and
    end at the total.
    """
    problems: _t.List[str] = []
    if not isinstance(document, dict):
        return [f"document must be an object, got {type(document).__name__}"]
    if document.get("schema") != ENERGY_SCHEMA:
        problems.append(
            f"schema must be {ENERGY_SCHEMA!r}, "
            f"got {document.get('schema')!r}"
        )
    coefficients = document.get("coefficients")
    if not isinstance(coefficients, dict):
        problems.append("coefficients must be an object")
    else:
        expected = {
            field.name for field in dataclasses.fields(EnergyCoefficients)
        }
        if set(coefficients) != expected:
            problems.append(
                f"coefficients must carry keys {sorted(expected)}"
            )
        for key, value in coefficients.items():
            _check_number(f"coefficients.{key}", value, problems)
    count = document.get("n_windows")
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        problems.append("n_windows must be an integer >= 1")
        return problems
    total_ok = _check_number(
        "total_pj", document.get("total_pj"), problems
    )
    breakdown = document.get("breakdown_pj")
    if not isinstance(breakdown, dict):
        problems.append("breakdown_pj must be an object")
    else:
        footed = 0.0
        complete = True
        for name in ENERGY_CLASSES:
            if name not in breakdown:
                problems.append(f"breakdown_pj missing {name!r}")
                complete = False
                continue
            if _check_number(
                f"breakdown_pj.{name}", breakdown[name], problems
            ):
                footed += float(breakdown[name])
            else:
                complete = False
        if complete and total_ok:
            total = float(document["total_pj"])
            if abs(footed - total) > 1e-6 * max(1.0, abs(total)):
                problems.append(
                    f"breakdown_pj sums to {footed:g}, "
                    f"total_pj is {total:g}"
                )
    for key in ("pj_per_bit", "mean_power_w", "requests_per_s_per_w"):
        _check_number(key, document.get(key), problems)
    series = document.get("series")
    if not isinstance(series, dict):
        problems.append("series must be an object")
        return problems
    for key in ("power_w", "energy_pj_to_date"):
        values = series.get(key)
        if not isinstance(values, list):
            problems.append(f"series.{key}: must be an array")
            continue
        if len(values) != count:
            problems.append(
                f"series.{key}: length {len(values)} != "
                f"n_windows {count}"
            )
            continue
        previous: _t.Optional[float] = None
        for index, value in enumerate(values):
            if not _check_number(
                f"series.{key}[{index}]", value, problems
            ):
                break
            if (
                key == "energy_pj_to_date"
                and previous is not None
                and value < previous
            ):
                problems.append(
                    f"series.{key}[{index}]: must be non-decreasing"
                )
                break
            previous = float(value)
    to_date = series.get("energy_pj_to_date")
    if (
        total_ok
        and isinstance(to_date, list)
        and len(to_date) == count
        and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in to_date
        )
    ):
        total = float(document["total_pj"])
        if abs(float(to_date[-1]) - total) > 1e-6 * max(
            1.0, abs(total)
        ):
            problems.append(
                f"energy_pj_to_date ends at {to_date[-1]:g}, "
                f"total_pj is {total:g}"
            )
    channels = document.get("channels")
    if not isinstance(channels, list) or not channels:
        problems.append("channels must be a non-empty array")
        return problems
    for entry in channels:
        if not isinstance(entry, dict) or "channel" not in entry:
            problems.append("channels[]: each entry needs a channel id")
            continue
        where = f"channels[{entry['channel']}]"
        for key in ("event_pj", "background_pj", "busy_ns"):
            _check_number(f"{where}.{key}", entry.get(key), problems)
        banks = entry.get("banks")
        if not isinstance(banks, list):
            problems.append(f"{where}.banks must be an array")
            continue
        for bank_entry in banks:
            if not isinstance(bank_entry, dict) or "bank" not in bank_entry:
                problems.append(
                    f"{where}.banks[]: each entry needs a bank id"
                )
                continue
            _check_number(
                f"{where}.banks[{bank_entry['bank']}].event_pj",
                bank_entry.get("event_pj"),
                problems,
            )
    return problems
