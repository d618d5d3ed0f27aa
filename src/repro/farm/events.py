"""Structured span events for the replay farm's supervisor.

The farm's :class:`~repro.farm.pool.FarmReport` says *what happened*
(counters and per-shard outcomes); this module says *when*: every
supervisor decision — plan, shard dispatch, heartbeats, retries and
their backoff sleeps, checksum verification, degradations, the
merge — lands in a :class:`FarmEventLog` as a typed
:class:`FarmEvent` stamped on one monotonic wall clock.  Chaos
injections are logged too (``chaos-kill`` / ``chaos-hang`` /
``chaos-corrupt`` / ``chaos-slow``, with the targeted shard and
attempt), so a chaos run's event log is a complete causal record:
``tests/farm/test_events.py`` asserts every injected fault appears as
a typed span with matching shard/attempt context.

:meth:`FarmEventLog.timeline_events` renders the log as Chrome
trace-event metadata + spans — one *process* track with a supervisor
thread and one thread per shard — which
:func:`~repro.telemetry.timeline.build_timeline` appends after the
per-channel simulation tracks, giving a single Perfetto view of a
distributed replay including its failures.  (Farm tracks run on
wall-clock microseconds since the run started; the simulation tracks
run on simulated nanoseconds.  They share a viewer, not a clock —
the track names say which is which.)
"""

from __future__ import annotations

import dataclasses
import time
import typing as _t
from contextlib import contextmanager

__all__ = [
    "FARM_EVENTS_SCHEMA",
    "EVENT_KINDS",
    "FarmEvent",
    "FarmEventLog",
]

#: Schema identifier carried by :meth:`FarmEventLog.to_dict`.
FARM_EVENTS_SCHEMA = "repro.farm/events-v1"

#: The closed vocabulary of event kinds.  ``chaos-*`` kinds are the
#: injected faults of :mod:`repro.farm.chaos` (one per fault kind);
#: everything else is a supervisor action.
EVENT_KINDS = (
    "plan",
    "dispatch",
    "heartbeat",
    "attempt-failed",
    "retry-backoff",
    "verify",
    "shard-done",
    "degrade",
    "fallback",
    "merge",
    "chaos-kill",
    "chaos-hang",
    "chaos-corrupt",
    "chaos-slow",
)

#: Supervisor-scope events use this in place of a shard id.
SUPERVISOR = -1


@dataclasses.dataclass(frozen=True)
class FarmEvent:
    """One supervisor span: seconds since the log opened.

    ``shard_id`` is :data:`SUPERVISOR` (-1) for run-scope events;
    ``attempt`` is -1 when the event is not tied to one attempt.
    Instant events have ``end_s == start_s``.
    """

    kind: str
    start_s: float
    end_s: float
    shard_id: int = SUPERVISOR
    attempt: int = -1
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "shard_id": self.shard_id,
            "attempt": self.attempt,
            "detail": self.detail,
        }


class FarmEventLog:
    """Append-only span log on one monotonic clock.

    One log spans one :func:`~repro.farm.pool.replay_farm` call,
    including any fallback — the same instance threads through the
    run's :class:`~repro.farm.pool.WorkerPool`.
    """

    def __init__(self) -> None:
        self._t0 = time.monotonic()
        self.events: _t.List[FarmEvent] = []

    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since the log opened (the spans' time base)."""
        return time.monotonic() - self._t0

    def since(self, monotonic_start: float) -> float:
        """Convert an absolute ``time.monotonic()`` stamp to the log's
        relative time base (for spans whose start predates the call)."""
        return monotonic_start - self._t0

    def point(
        self,
        kind: str,
        shard_id: int = SUPERVISOR,
        attempt: int = -1,
        detail: str = "",
    ) -> FarmEvent:
        """Record an instant event at the current time."""
        t = self.now()
        return self.record(kind, t, t, shard_id, attempt, detail)

    def record(
        self,
        kind: str,
        start_s: float,
        end_s: float,
        shard_id: int = SUPERVISOR,
        attempt: int = -1,
        detail: str = "",
    ) -> FarmEvent:
        """Record a span with explicit endpoints (log-relative s)."""
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown farm event kind {kind!r}; available: "
                f"{EVENT_KINDS}"
            )
        event = FarmEvent(
            kind=kind,
            start_s=start_s,
            end_s=max(start_s, end_s),
            shard_id=shard_id,
            attempt=attempt,
            detail=detail,
        )
        self.events.append(event)
        return event

    @contextmanager
    def span(
        self,
        kind: str,
        shard_id: int = SUPERVISOR,
        attempt: int = -1,
        detail: str = "",
    ) -> _t.Iterator[None]:
        """Record a span covering the ``with`` body."""
        start = self.now()
        try:
            yield
        finally:
            self.record(kind, start, self.now(), shard_id, attempt, detail)

    # ------------------------------------------------------------------
    def counts(self) -> _t.Dict[str, int]:
        """Event count per kind (only kinds that occurred)."""
        out: _t.Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def for_shard(self, shard_id: int) -> _t.List[FarmEvent]:
        """Every event attributed to one shard, in log order."""
        return [e for e in self.events if e.shard_id == shard_id]

    def __len__(self) -> int:
        return len(self.events)

    def to_dict(self) -> dict:
        """The serializable ``repro.farm/events-v1`` document."""
        return {
            "schema": FARM_EVENTS_SCHEMA,
            "n_events": len(self.events),
            "counts": self.counts(),
            "events": [event.to_dict() for event in self.events],
        }

    # ------------------------------------------------------------------
    def timeline_events(self, pid: int) -> _t.List[dict]:
        """Chrome trace-event rendering: metadata + complete events.

        ``pid`` is the process-track id the caller reserves for the
        farm (the timeline builder uses the first id past the channel
        tracks).  Thread 0 is the supervisor; thread ``s + 1`` is
        shard ``s``.  Timestamps are wall-clock microseconds since the
        log opened.
        """
        shard_ids = sorted(
            {e.shard_id for e in self.events if e.shard_id >= 0}
        )
        tid_of = {sid: index + 1 for index, sid in enumerate(shard_ids)}
        out: _t.List[dict] = [
            {
                "ph": "M", "pid": pid, "tid": 0,
                "name": "process_name",
                "args": {"name": "farm (wall clock)"},
            },
            {
                "ph": "M", "pid": pid, "tid": 0,
                "name": "thread_name",
                "args": {"name": "supervisor"},
            },
        ]
        for sid in shard_ids:
            out.append(
                {
                    "ph": "M", "pid": pid, "tid": tid_of[sid],
                    "name": "thread_name",
                    "args": {"name": f"shard {sid}"},
                }
            )
        for event in self.events:
            tid = 0 if event.shard_id < 0 else tid_of[event.shard_id]
            span = {
                "ph": "X",
                "name": event.kind,
                "cat": "farm",
                "pid": pid,
                "tid": tid,
                "ts": event.start_s * 1e6,
                "dur": max(0.0, event.end_s - event.start_s) * 1e6,
                "args": {
                    "shard_id": event.shard_id,
                    "attempt": event.attempt,
                },
            }
            if event.detail:
                span["args"]["detail"] = event.detail
            out.append(span)
        return out

    def __repr__(self) -> str:
        return f"<FarmEventLog n={len(self.events)}>"
