"""In-memory span tracer and per-layer self-time accounting.

A span is one public call made from the benchmark's own files into a
layer of ``repro``: its name is ``<layer>.<operation>`` (``memsys.replay``,
``farm.dispatch``, ...), and it records its start, end, parent span and
the timed iteration it belongs to (``None`` for set-up and post-run
work).  Phase splits the program already returns — the replay engine's
``PhaseProfiler`` phases and the farm's supervisor event log — are
attached as child spans of the call that produced them.

Spans are kept in memory and written out once, when the run ends.  With
tracing disabled :meth:`Tracer.span` records nothing, so the untraced
iterations of a traced run pay one flag test per call.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import statistics
import time
import typing as _t

#: The layers spans are attributed to; ``bench`` is the benchmark's own
#: glue, i.e. the part of an iteration no layer span covers.
LAYERS = ("bench", "memsys", "telemetry", "farm", "pimexec", "nn")

#: Replay-engine profiler phase -> span name.
PROFILER_PHASES = {
    "decode": "memsys.decode",
    "certificate": "memsys.certificate",
    "tier-execute": "memsys.tier_execute",
    "stats-gather": "memsys.stats_gather",
}


class Span(_t.NamedTuple):
    name: str
    start: float
    end: float
    parent: _t.Optional[int]
    iteration: _t.Optional[int]

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans on the ``time.monotonic`` clock.

    ``time.monotonic`` is the clock :class:`repro.farm.FarmEventLog`
    stamps its events on, so farm events convert exactly.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.iteration: _t.Optional[int] = None
        self.spans: _t.List[Span] = []
        self._stack: _t.List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> _t.Iterator[_t.Optional[int]]:
        """Record one span around the ``with`` body; yields its index."""
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        # placeholder keeps the index stable while children append
        self.spans.append(Span(name, time.monotonic(), 0.0, parent, self.iteration))
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index] = self.spans[index]._replace(end=time.monotonic())

    def attach(
        self, name: str, start: float, end: float, parent: _t.Optional[int]
    ) -> None:
        """Record a child span whose endpoints the program measured."""
        if self.enabled and parent is not None:
            self.spans.append(Span(name, start, end, parent, self.iteration))

    def attach_phases(
        self, parent: _t.Optional[int], telemetry: _t.Any
    ) -> None:
        """Attach a replay's profiler phases as children of ``parent``.

        The profiler returns accumulated seconds per phase, not
        endpoints; the phases run one after another, so they are laid
        out back to back from the parent's start.
        """
        if not self.enabled or parent is None or telemetry is None:
            return
        at = self.spans[parent].start
        for phase, seconds in telemetry.profiler.phases.items():
            name = PROFILER_PHASES.get(phase, "memsys." + phase.replace("-", "_"))
            self.attach(name, at, at + seconds, parent)
            at += seconds

    def attach_farm_events(self, parent: _t.Optional[int], events: _t.Any) -> None:
        """Attach a farm's supervisor event log as children of ``parent``.

        Instant events (heartbeats, shard-done) carry no time and are
        skipped; spans become ``farm.<kind>`` children.
        """
        if not self.enabled or parent is None or events is None:
            return
        probe = time.monotonic()
        opened = probe - events.since(probe)
        for event in events.events:
            if event.end_s > event.start_s:
                self.attach(
                    "farm." + event.kind.replace("-", "_"),
                    opened + event.start_s,
                    opened + event.end_s,
                    parent,
                )

    def write(self, path: pathlib.Path, origin: float) -> None:
        """Write every span as JSON, times in seconds since ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {
                "name": s.name,
                "start": s.start - origin,
                "end": s.end - origin,
                "parent": s.parent,
                "iteration": s.iteration,
            }
            for s in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n")


def _union(intervals: _t.Iterable[_t.Tuple[float, float]]) -> _t.List[_t.Tuple[float, float]]:
    merged: _t.List[_t.Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _length(intervals: _t.Iterable[_t.Tuple[float, float]]) -> float:
    return sum(end - start for start, end in intervals)


def _subtract(
    span: _t.Tuple[float, float], covered: _t.List[_t.Tuple[float, float]]
) -> _t.List[_t.Tuple[float, float]]:
    """``span`` minus the (merged, sorted) ``covered`` intervals."""
    out = []
    at, end = span
    for c_start, c_end in covered:
        if c_end <= at or c_start >= end:
            continue
        if c_start > at:
            out.append((at, c_start))
        at = max(at, c_end)
    if at < end:
        out.append((at, end))
    return out


def _self_intervals(
    spans: _t.Sequence[Span], iteration: int
) -> _t.Iterator[_t.Tuple[Span, _t.List[_t.Tuple[float, float]]]]:
    """Each span of the iteration with the part no child covers."""
    children: _t.Dict[int, _t.List[_t.Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None and s.iteration == iteration:
            children.setdefault(s.parent, []).append((s.start, s.end))
    for index, s in enumerate(spans):
        if s.iteration == iteration:
            covered = _union(children.get(index, []))
            yield s, _subtract((s.start, s.end), covered)


def self_times(
    spans: _t.Sequence[Span], iteration: int
) -> _t.Dict[str, float]:
    """Per-layer self time of one iteration, in seconds.

    A span's self time is its interval minus the part its children
    cover.  A layer's self time is the length of the union of its
    spans' self intervals, so concurrent spans of one layer (the farm's
    per-shard dispatches) count wall-clock time once.
    """
    by_layer: _t.Dict[str, _t.List[_t.Tuple[float, float]]] = {
        layer: [] for layer in LAYERS
    }
    for s, own in _self_intervals(spans, iteration):
        by_layer[s.layer].extend(own)
    return {layer: _length(_union(parts)) for layer, parts in by_layer.items()}


def own_time(spans: _t.Sequence[Span], name: str, iteration: int) -> float:
    """Summed self time of the iteration's spans called ``name``."""
    return sum(
        _length(own)
        for s, own in _self_intervals(spans, iteration)
        if s.name == name
    )


def totals(
    spans: _t.Sequence[Span], iteration: _t.Optional[int]
) -> _t.Dict[str, float]:
    """Summed duration per span name within one iteration (or outside
    every iteration, for ``None``)."""
    out: _t.Dict[str, float] = {}
    for s in spans:
        if s.iteration == iteration:
            out[s.name] = out.get(s.name, 0.0) + s.duration
    return out


def nested_totals(
    spans: _t.Sequence[Span], iteration: int
) -> _t.Dict[str, float]:
    """Summed duration per ``<parent name>/<child name>`` pair."""
    out: _t.Dict[str, float] = {}
    for s in spans:
        if s.iteration == iteration and s.parent is not None:
            key = spans[s.parent].name + "/" + s.name
            out[key] = out.get(key, 0.0) + s.duration
    return out


def median_or_zero(values: _t.Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0
