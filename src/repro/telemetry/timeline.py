"""Command-timeline export in the Chrome trace-event format.

Converts one recorded replay into a JSON document that Perfetto
(https://ui.perfetto.dev) and ``chrome://tracing`` open directly:
every memory channel becomes a *process*, and each channel carries one
*thread* track per bank (service spans), an ``all-banks`` track
(lockstep PIM row ops and AB register-broadcast barriers), a ``queue``
track (per-request admission-to-service waits), a ``refresh`` track
(deterministic tREFI/tRFC blackout windows), and one ``rows.*`` track
per bank showing which row the bank held open over time.  The AB
barrier spans make the FR-FCFS serialization that caps pimexec
throughput directly visible — the bottleneck the ROADMAP describes.

All spans are *complete events* (``ph == "X"``): simulated nanoseconds
map to trace microseconds (``ts = ns / 1000``) with
``displayTimeUnit: "ns"`` so viewers display the original resolution.
``repro-pim replay --timeline out.json`` (and the ``pimexec`` / ``nn``
verbs) write this document; :func:`validate_timeline` is the schema
check the test suite runs against every export path.
"""

from __future__ import annotations

import json
import pathlib
import typing as _t

import numpy as np

from .latency import ALL_BANKS, OUTCOME_NAMES
from .timeseries import (
    DEFAULT_WINDOWS,
    _finish_windows,
    _recorded,
    _window_index,
)

if _t.TYPE_CHECKING:  # pragma: no cover
    from .latency import ReplayTelemetry

__all__ = [
    "TIMELINE_SCHEMA",
    "MAX_EVENTS",
    "build_timeline",
    "validate_timeline",
    "write_timeline",
]

#: Schema identifier recorded in the document's ``otherData``.
TIMELINE_SCHEMA = "repro.telemetry/timeline-v1"

#: Default cap on emitted span events (metadata excluded): a full
#: bank/queue/row rendering of a million-request trace would dwarf what
#: trace viewers load comfortably.  Spans are kept earliest-first and
#: the number dropped is recorded in ``otherData.truncated_events``.
MAX_EVENTS = 200_000

_BROADCAST = OUTCOME_NAMES.index("broadcast")


def _thread_layout(n_banks: int) -> _t.Dict[str, _t.Any]:
    """tid assignment for one channel's tracks."""
    return {
        "banks": list(range(n_banks)),
        "all_banks": n_banks,
        "queue": n_banks + 1,
        "refresh": n_banks + 2,
        "rows": [n_banks + 3 + b for b in range(n_banks)],
        "rows_all_banks": 2 * n_banks + 3,
        "energy": 2 * n_banks + 4,
    }


def _metadata_events(
    channels: _t.Iterable[int], n_banks: int
) -> _t.List[dict]:
    layout = _thread_layout(n_banks)
    events = []
    for ch in channels:
        events.append(
            {
                "ph": "M", "pid": ch, "tid": 0,
                "name": "process_name",
                "args": {"name": f"channel {ch}"},
            }
        )
        names: _t.List[_t.Tuple[int, str]] = [
            (tid, f"bank {b}") for b, tid in enumerate(layout["banks"])
        ]
        names.append((layout["all_banks"], "all-banks"))
        names.append((layout["queue"], "queue"))
        names.append((layout["refresh"], "refresh"))
        names.extend(
            (tid, f"rows.b{b}")
            for b, tid in enumerate(layout["rows"])
        )
        names.append((layout["rows_all_banks"], "rows.all-banks"))
        names.append((layout["energy"], "energy"))
        for tid, name in names:
            events.append(
                {
                    "ph": "M", "pid": ch, "tid": tid,
                    "name": "thread_name",
                    "args": {"name": name},
                }
            )
    return events


def _span(
    name: str,
    cat: str,
    pid: int,
    tid: int,
    start_ns: float,
    end_ns: float,
    args: _t.Optional[dict] = None,
) -> dict:
    event = {
        "ph": "X",
        "name": name,
        "cat": cat,
        "pid": pid,
        "tid": tid,
        "ts": start_ns / 1000.0,
        "dur": max(0.0, end_ns - start_ns) / 1000.0,
    }
    if args:
        event["args"] = args
    return event


def build_timeline(
    telemetry: "ReplayTelemetry", max_events: int = MAX_EVENTS
) -> dict:
    """Build the Chrome-trace document from one recorded replay.

    Each family of spans (service, queue-wait, row, refresh, energy,
    farm) contributes columns first: the sort key ``ts``, the thread
    id, and a builder that turns positions in the family into event
    dicts.  One stable sort orders every span by ``(ts, tid)``, and
    only the first ``max_events`` become dicts, so a replay far past
    the cap costs a few arrays per span, not an object per span.
    """
    recorder, config = _recorded(telemetry, "timeline export")
    from ..memsys.request import OPS_BY_CODE, Op

    n_banks = config.banks_per_channel
    layout = _thread_layout(n_banks)
    makespan = telemetry.makespan_ns

    arrival = recorder.arrival
    start = recorder.start_service
    finish = recorder.finish
    channel = recorder.channel
    bank = recorder.bank
    row = recorder.row
    op = recorder.op_code
    outcome = recorder.outcome_code
    n = arrival.shape[0]

    ab_code = Op.AB.code
    pim_code = Op.PIM.code
    # (ts, tid, build) per span family; ``build(positions)`` yields the
    # event dicts of the family's spans at those positions
    families: _t.List[_t.Tuple[np.ndarray, np.ndarray, _t.Callable]] = []

    # --- service spans (one per request, on its bank track) -----------
    def service(index: np.ndarray) -> _t.Iterator[dict]:
        for ch, b, code, out, begin, end, r in zip(
            channel[index].tolist(), bank[index].tolist(),
            op[index].tolist(), outcome[index].tolist(),
            start[index].tolist(), finish[index].tolist(),
            row[index].tolist(),
        ):
            if code == ab_code:
                name, cat, tid = "AB barrier", "barrier", layout["all_banks"]
            elif code == pim_code:
                name = f"PIM {OUTCOME_NAMES[out]}"
                cat, tid = "service", layout["all_banks"]
            else:
                name, cat, tid = OUTCOME_NAMES[out], "service", b
            yield _span(
                name, cat, ch, tid, begin, end,
                args={"row": r, "op": OPS_BY_CODE[code].value},
            )

    lockstep = (op == ab_code) | (op == pim_code)
    families.append(
        (start / 1000.0, np.where(lockstep, layout["all_banks"], bank),
         service)
    )

    # --- queue-wait spans (admission -> service start) ----------------
    waited = np.nonzero(start - arrival > 0.0)[0]

    def queue(index: np.ndarray) -> _t.Iterator[dict]:
        index = waited[index]
        for ch, code, begin, end in zip(
            channel[index].tolist(), op[index].tolist(),
            arrival[index].tolist(), start[index].tolist(),
        ):
            yield _span(
                "queue-wait", "queue", ch, layout["queue"], begin, end,
                args={"op": OPS_BY_CODE[code].value},
            )

    families.append(
        (arrival[waited] / 1000.0,
         np.full(waited.shape[0], layout["queue"]), queue)
    )

    # --- row open/close spans (derived from outcome boundaries) -------
    # A row opens at the start of each miss/conflict and stays latched
    # until the next miss/conflict on the same track (or the track's
    # last service); AB broadcasts never touch row buffers and all-bank
    # PIM ops get their own track.  Refresh precharges are already
    # reflected in the recorded outcomes (the next access is a miss),
    # so span boundaries line up with the blackout track.
    touches = np.nonzero(op != ab_code)[0]
    t_idx = touches[
        np.lexsort((start[touches], bank[touches], channel[touches]))
    ]
    t_ch, t_bank = channel[t_idx], bank[t_idx]
    new_track = np.ones(t_idx.shape[0], dtype=bool)
    new_track[1:] = (t_ch[1:] != t_ch[:-1]) | (t_bank[1:] != t_bank[:-1])
    track = np.cumsum(new_track) - 1
    track_last = np.append(
        np.nonzero(new_track)[0][1:] - 1, t_idx.shape[0] - 1
    )
    opens = np.nonzero(outcome[t_idx] != OUTCOME_NAMES.index("hit"))[0]
    row_end = finish[t_idx[track_last[track[opens]]]]
    closed = track[opens[1:]] == track[opens[:-1]]
    row_end[:-1][closed] = start[t_idx[opens[1:][closed]]]
    opens = t_idx[opens]
    row_tid = np.where(
        bank[opens] == ALL_BANKS,
        layout["rows_all_banks"],
        layout["rows"][0] + bank[opens],
    )

    def rows(index: np.ndarray) -> _t.Iterator[dict]:
        for ch, tid, r, begin, end in zip(
            channel[opens[index]].tolist(), row_tid[index].tolist(),
            row[opens[index]].tolist(), start[opens[index]].tolist(),
            row_end[index].tolist(),
        ):
            yield _span(f"row {r}", "row", ch, tid, begin, end)

    families.append((start[opens] / 1000.0, row_tid, rows))

    # --- refresh blackout spans ---------------------------------------
    schedule = config.refresh_schedule()
    if schedule is not None and makespan == makespan:
        blackouts = list(schedule.blackouts(makespan))

        def refresh(index: np.ndarray) -> _t.Iterator[dict]:
            for k in index.tolist():
                ch, j = divmod(k, len(blackouts))
                begin, end, which = blackouts[j]
                name = "refresh" if which is None else f"refresh b{which}"
                yield _span(
                    name, "refresh", ch, layout["refresh"], begin, end
                )

        begins = np.array([b for b, _, _ in blackouts], dtype=np.float64)
        families.append(
            (np.tile(begins / 1000.0, config.n_channels),
             np.full(begins.shape[0] * config.n_channels,
                     layout["refresh"]),
             refresh)
        )

    # --- energy breakdown track (one per channel) ---------------------
    # Windowed power spans from the command-level energy accounting:
    # each span covers one window of the default grid and carries the
    # channel's event energy plus its share of refresh/background, so
    # Perfetto shows where the power went next to the busy spans that
    # caused it.
    if makespan == makespan and makespan > 0:
        from .energy import EnergyCoefficients, _event_energy
        from .energy import _refresh_events

        coefficients = EnergyCoefficients()
        count = DEFAULT_WINDOWS
        window_ns = makespan / count
        event = _event_energy(recorder, config, coefficients)
        finish_idx = _finish_windows(recorder, window_ns, count).index
        begins, refresh_pj = _refresh_events(
            config, makespan, coefficients
        )
        refresh_per_window = np.zeros(count)
        if begins.shape[0]:
            refresh_per_window = np.bincount(
                _window_index(begins, window_ns, count),
                weights=refresh_pj,
                minlength=count,
            ) / config.n_channels
        event_per_window = [
            np.bincount(
                finish_idx[mine], weights=event[mine], minlength=count
            )
            for mine in map(recorder.rows, range(config.n_channels))
        ]
        total = [e + refresh_per_window for e in event_per_window]

        def energy(index: np.ndarray) -> _t.Iterator[dict]:
            for k in index.tolist():
                ch, w = divmod(k, count)
                begin_ns = w * window_ns
                yield _span(
                    f"{total[ch][w] / window_ns:.3g} mW",
                    "energy",
                    ch,
                    layout["energy"],
                    begin_ns,
                    begin_ns + window_ns,
                    args={
                        "event_pj": float(event_per_window[ch][w]),
                        "refresh_pj": float(refresh_per_window[w]),
                    },
                )

        families.append(
            (np.tile(np.arange(count) * window_ns / 1000.0,
                     config.n_channels),
             np.full(count * config.n_channels, layout["energy"]),
             energy)
        )

    # --- farm worker/shard tracks (distributed replays only) ----------
    # The supervisor's span log renders as one extra process past the
    # channel tracks: supervisor + per-shard threads on wall-clock
    # microseconds (the simulation tracks stay on simulated time; the
    # process name says which clock a track runs on).
    farm_metadata: _t.List[dict] = []
    farm_log = getattr(telemetry, "farm_events", None)
    if farm_log is not None and len(farm_log) > 0:
        rendered = farm_log.timeline_events(config.n_channels)
        farm_metadata = [e for e in rendered if e["ph"] == "M"]
        farm = [e for e in rendered if e["ph"] == "X"]
        families.append(
            (np.array([e["ts"] for e in farm], dtype=np.float64),
             np.array([e["tid"] for e in farm], dtype=np.int64),
             lambda index: [farm[k] for k in index.tolist()])
        )

    # One stable sort by (ts, tid) over the families laid end to end.
    # Spans that tie on both keys share a thread id, so they belong to
    # one family — or one is a farm span, which comes last either way —
    # and keep the order their family produced them in.
    offsets = np.cumsum([0] + [f[0].shape[0] for f in families])
    order = np.lexsort(
        (
            np.concatenate([f[1] for f in families]),
            np.concatenate([f[0] for f in families]),
        )
    )
    truncated = 0
    if order.shape[0] > max_events:
        truncated = order.shape[0] - max_events
        order = order[:max_events]
    family_of = np.searchsorted(offsets, order, side="right") - 1
    spans: _t.List[_t.Any] = [None] * order.shape[0]
    for f, (_, _, build) in enumerate(families):
        where = np.nonzero(family_of == f)[0]
        for position, span in zip(
            where.tolist(), build(order[where] - offsets[f])
        ):
            spans[position] = span

    events = _metadata_events(range(config.n_channels), n_banks)
    events.extend(farm_metadata)
    events.extend(spans)
    return {
        "displayTimeUnit": "ns",
        "traceEvents": events,
        "otherData": {
            "schema": TIMELINE_SCHEMA,
            "engine": telemetry.engine,
            "makespan_ns": makespan,
            "n_requests": int(n),
            "truncated_events": truncated,
        },
    }


def write_timeline(
    telemetry: "ReplayTelemetry",
    path: _t.Union[str, pathlib.Path],
    max_events: _t.Optional[int] = None,
) -> pathlib.Path:
    """Build and write the timeline JSON; returns the path."""
    document = build_timeline(
        telemetry,
        max_events=MAX_EVENTS if max_events is None else max_events,
    )
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document) + "\n")
    return path


def validate_timeline(document: _t.Any) -> _t.List[str]:
    """Schema-check one timeline document; returns problem strings.

    An empty list means the document is a well-formed Chrome
    trace-event JSON of this exporter's dialect (the test suite asserts
    exactly that on every export path).
    """
    problems: _t.List[str] = []
    if not isinstance(document, dict):
        return [f"document must be an object, got {type(document).__name__}"]
    if document.get("displayTimeUnit") != "ns":
        problems.append("displayTimeUnit must be 'ns'")
    other = document.get("otherData")
    if not isinstance(other, dict):
        problems.append("otherData must be an object")
    elif other.get("schema") != TIMELINE_SCHEMA:
        problems.append(
            f"otherData.schema must be {TIMELINE_SCHEMA!r}, "
            f"got {other.get('schema')!r}"
        )
    events = document.get("traceEvents")
    if not isinstance(events, list) or not events:
        problems.append("traceEvents must be a non-empty array")
        return problems
    n_spans = 0
    last_ts: _t.Optional[float] = None
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("M", "X"):
            problems.append(f"{where}: unknown ph {ph!r}")
            continue
        for key in ("name", "pid", "tid"):
            if key not in event:
                problems.append(f"{where}: missing {key!r}")
        if ph == "M":
            if event.get("name") not in (
                "process_name", "thread_name"
            ):
                problems.append(
                    f"{where}: metadata name must be process_name or "
                    f"thread_name"
                )
            args = event.get("args")
            if not isinstance(args, dict) or "name" not in args:
                problems.append(f"{where}: metadata needs args.name")
            continue
        n_spans += 1
        ts = event.get("ts")
        dur = event.get("dur")
        if not isinstance(ts, (int, float)) or ts != ts or ts < 0:
            problems.append(f"{where}: ts must be a finite number >= 0")
        else:
            # the exporter emits spans globally sorted by start time
            # (overlap on a track is fine — banks genuinely overlap
            # queue waits — but start times must never run backwards)
            if last_ts is not None and ts < last_ts:
                problems.append(
                    f"{where}: ts {ts:g} out of order (previous span "
                    f"started at {last_ts:g})"
                )
            last_ts = float(ts)
        if not isinstance(dur, (int, float)) or dur != dur or dur < 0:
            problems.append(f"{where}: dur must be a finite number >= 0")
        if "cat" not in event:
            problems.append(f"{where}: complete event missing cat")
    if n_spans > MAX_EVENTS:
        problems.append(
            f"span count {n_spans} exceeds the {MAX_EVENTS} cap "
            "(the exporter truncates earliest-first; a larger document "
            "was built with the cap overridden)"
        )
    return problems
