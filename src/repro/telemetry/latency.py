"""Per-request latency recording across both replay engines.

Both engines already *know* every request's arrival, service start, and
finish: the event engine stamps them onto :class:`MemRequest` objects as
its calendar advances, and the vectorized fast-path tier solves them in
closed form as per-channel arrays.  :class:`LatencyRecorder` exposes
those times as trace-ordered numpy arrays without changing either
engine's arithmetic — the capture stores *references* (the request list,
or the fast path's plan arrays) during replay and defers all array
assembly to first access, so recording costs nothing measurable while
the clock is hot (the <5% overhead floor of ``bench_memsys``).

Because the fast path is certified bit-exact against the event engine,
the recorded ``arrival`` / ``start_service`` / ``finish`` arrays are
**bit-identical** between engines for the same trace and configuration —
a certificate-strength guarantee the cross-engine equivalence suite
(``tests/telemetry/test_equivalence.py``) checks with
``np.array_equal`` over the full refresh × arrival × scheme × policy
matrix.

:class:`ReplayTelemetry` is the handle callers pass to
:meth:`MemorySystem.replay(..., telemetry=...)
<repro.memsys.MemorySystem.replay>`: it bundles the recorder with a
:class:`~repro.telemetry.profile.PhaseProfiler`, remembers which engine
ran, and fans out to the metrics registry and the Chrome-trace timeline
exporter.
"""

from __future__ import annotations

import math
import typing as _t

import numpy as np

from .profile import PhaseProfiler
from .registry import MetricsRegistry, latency_summary

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..memsys.request import MemRequest
    from ..memsys.system import MemorySystem, MemSysConfig, MemSysStats

__all__ = ["OUTCOME_NAMES", "LatencyRecorder", "ReplayTelemetry"]

#: Outcome vocabulary: codes 0-2 align with
#: :data:`repro.memsys.bank.OUTCOMES`; 3 is the AB register broadcast
#: (which never touches a row buffer, so the bank module doesn't know
#: it).
OUTCOME_NAMES = ("hit", "miss", "conflict", "broadcast")
_OUTCOME_CODE = {name: code for code, name in enumerate(OUTCOME_NAMES)}

#: Pseudo bank index for all-bank operations (PIM row ops, AB
#: broadcasts), which occupy every bank of their channel at once.
ALL_BANKS = -1


class LatencyRecorder:
    """Trace-ordered per-request times, captured lazily from a replay.

    Populated by the replay engines through one of the two private
    capture hooks; everything public is derived on first access:

    * :attr:`arrival`, :attr:`start_service`, :attr:`finish` — the
      engine's exact per-request instants (ns, trace order);
    * :attr:`queue_wait`, :attr:`service_time`, :attr:`total_latency` —
      the derived durations;
    * :attr:`channel`, :attr:`bank`, :attr:`row`, :attr:`op_code`,
      :attr:`outcome_code` — routing and outcome context
      (``bank == ALL_BANKS`` for all-bank PIM/AB operations).

    The time-series, energy, and timeline builders share the
    reductions they derive from these arrays (per-channel busy unions,
    the grouping by channel and bank, window indices, per-event
    energies) through :meth:`_memo`, so each is computed once per
    recorder.  A recorder refuses a second capture, so the cache can
    never go stale; it lives exactly as long as the recorder.
    """

    def __init__(self) -> None:
        self._requests: _t.Optional[_t.Sequence["MemRequest"]] = None
        self._plan: _t.Optional[dict] = None
        self._arrays: _t.Optional[_t.Dict[str, np.ndarray]] = None
        self._derived: _t.Dict[_t.Hashable, _t.Any] = {}

    # ------------------------------------------------------------------
    # capture hooks (called by the replay engines)
    # ------------------------------------------------------------------
    def _guard_single_capture(self) -> None:
        if self._requests is not None or self._plan is not None:
            raise RuntimeError(
                "this LatencyRecorder already captured a replay; use a "
                "fresh ReplayTelemetry per replay"
            )

    def _capture_requests(
        self, requests: _t.Sequence["MemRequest"]
    ) -> None:
        """Adopt a fully-replayed request list (event engine, or the
        fast path's exact tier — both fill every runtime field)."""
        self._guard_single_capture()
        self._requests = requests

    def _capture_plan(
        self,
        op_codes: np.ndarray,
        channel: np.ndarray,
        row: np.ndarray,
        flat_bank: np.ndarray,
        plan: _t.Sequence[_t.Optional[dict]],
    ) -> None:
        """Adopt the vectorized tier's closed-form plan arrays."""
        self._guard_single_capture()
        self._plan = {
            "op_codes": op_codes,
            "channel": channel,
            "row": row,
            "flat_bank": flat_bank,
            "plan": plan,
        }

    def _capture_arrays(
        self, arrays: _t.Dict[str, np.ndarray]
    ) -> None:
        """Adopt already-assembled trace-ordered arrays.

        The replay farm's merge path: shard workers record through
        their own recorders, the supervisor scatters the shard arrays
        back to trace order and hands the merged dict here — the same
        eight keys :meth:`_assemble` produces, so every derived
        property behaves identically.
        """
        self._guard_single_capture()
        expected = {
            "arrival", "start_service", "finish", "outcome",
            "channel", "bank", "row", "op",
        }
        if set(arrays) != expected:
            raise ValueError(
                f"merged capture needs keys {sorted(expected)}, got "
                f"{sorted(arrays)}"
            )
        self._plan = {}  # mark as captured for the guard
        self._arrays = dict(arrays)

    @property
    def captured(self) -> bool:
        return self._requests is not None or self._plan is not None

    # ------------------------------------------------------------------
    # lazy assembly
    # ------------------------------------------------------------------
    def _assemble(self) -> _t.Dict[str, np.ndarray]:
        if self._arrays is not None:
            return self._arrays
        if self._plan is not None:
            self._arrays = self._assemble_from_plan(self._plan)
        elif self._requests is not None:
            self._arrays = self._assemble_from_requests(self._requests)
        else:
            raise RuntimeError(
                "no replay captured; pass this telemetry to "
                "MemorySystem.replay(..., telemetry=...) first"
            )
        return self._arrays

    @staticmethod
    def _assemble_from_plan(
        captured: dict,
    ) -> _t.Dict[str, np.ndarray]:
        from ..memsys.request import Op

        op_codes = captured["op_codes"]
        n = op_codes.shape[0]
        arrival = np.empty(n)
        start = np.empty(n)
        finish = np.empty(n)
        outcome = np.empty(n, dtype=np.int64)
        for data in captured["plan"]:
            if data is None:
                continue
            idx = data["idx"]
            arrival[idx] = data["arrival"]
            start[idx] = data["start"]
            finish[idx] = data["finish"]
            outcome[idx] = data["outcome"]
        all_bank = (op_codes == Op.PIM.code) | (op_codes == Op.AB.code)
        bank = np.where(all_bank, ALL_BANKS, captured["flat_bank"])
        return {
            "arrival": arrival,
            "start_service": start,
            "finish": finish,
            "outcome": outcome,
            "channel": captured["channel"].astype(np.int64),
            "bank": bank.astype(np.int64),
            "row": captured["row"].astype(np.int64),
            "op": op_codes.astype(np.int64),
        }

    @staticmethod
    def _assemble_from_requests(
        requests: _t.Sequence["MemRequest"],
    ) -> _t.Dict[str, np.ndarray]:
        n = len(requests)
        arrival = np.empty(n)
        start = np.empty(n)
        finish = np.empty(n)
        outcome = np.empty(n, dtype=np.int64)
        channel = np.empty(n, dtype=np.int64)
        bank = np.empty(n, dtype=np.int64)
        row = np.empty(n, dtype=np.int64)
        op = np.empty(n, dtype=np.int64)
        for i, request in enumerate(requests):
            arrival[i] = request.arrival
            start[i] = request.start_service
            finish[i] = request.finish
            outcome[i] = _OUTCOME_CODE[request.outcome]
            coords = request.coords
            channel[i] = coords.channel
            index = request.bank_index
            bank[i] = ALL_BANKS if index is None else index
            row[i] = coords.row
            op[i] = request.op.code
        return {
            "arrival": arrival,
            "start_service": start,
            "finish": finish,
            "outcome": outcome,
            "channel": channel,
            "bank": bank,
            "row": row,
            "op": op,
        }

    # ------------------------------------------------------------------
    # recorded arrays (trace order)
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return int(self._assemble()["arrival"].shape[0])

    @property
    def arrival(self) -> np.ndarray:
        return self._assemble()["arrival"]

    @property
    def start_service(self) -> np.ndarray:
        return self._assemble()["start_service"]

    @property
    def finish(self) -> np.ndarray:
        return self._assemble()["finish"]

    @property
    def outcome_code(self) -> np.ndarray:
        return self._assemble()["outcome"]

    @property
    def channel(self) -> np.ndarray:
        return self._assemble()["channel"]

    @property
    def bank(self) -> np.ndarray:
        """Flat bank index per request; :data:`ALL_BANKS` for PIM/AB."""
        return self._assemble()["bank"]

    @property
    def row(self) -> np.ndarray:
        return self._assemble()["row"]

    @property
    def op_code(self) -> np.ndarray:
        return self._assemble()["op"]

    # ------------------------------------------------------------------
    # derived durations
    # ------------------------------------------------------------------
    @property
    def queue_wait(self) -> np.ndarray:
        """Admission-to-service wait per request (ns)."""
        arrays = self._assemble()
        return arrays["start_service"] - arrays["arrival"]

    @property
    def service_time(self) -> np.ndarray:
        """Service occupancy per request (ns)."""
        arrays = self._assemble()
        return arrays["finish"] - arrays["start_service"]

    @property
    def total_latency(self) -> np.ndarray:
        """Arrival-to-finish latency per request (ns)."""
        arrays = self._assemble()
        return arrays["finish"] - arrays["arrival"]

    # ------------------------------------------------------------------
    # shared derivations
    # ------------------------------------------------------------------
    def _memo(self, key: _t.Hashable, build: _t.Callable[[], _t.Any]):
        """``build()``, computed once per ``key`` for this recorder.

        ``key`` must name everything the value depends on beyond the
        recorded arrays (a coefficient table, a window grid).
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build()
            return value

    def rows(
        self, channel: int, bank: _t.Optional[int] = None
    ) -> np.ndarray:
        """Trace-ordered indices of the requests on ``channel`` (and,
        when given, on ``bank`` — :data:`ALL_BANKS` for all-bank
        operations); one stable grouping serves every lookup."""
        groups = self._memo("rows", self._group_rows)
        empty = np.empty(0, dtype=np.int64)
        return groups.get(channel if bank is None else (channel, bank), empty)

    def _group_rows(self) -> _t.Dict[_t.Hashable, np.ndarray]:
        arrays = self._assemble()
        channel = arrays["channel"]
        bank = arrays["bank"]
        groups: _t.Dict[_t.Hashable, np.ndarray] = {}
        for ch, on_channel in _split_by(channel, np.arange(channel.shape[0])):
            groups[ch] = on_channel
            for b, on_bank in _split_by(bank[on_channel], on_channel):
                groups[(ch, b)] = on_bank
        return groups

    def percentiles(self) -> _t.Dict[str, _t.Dict[str, float]]:
        """Exact p50/p95/p99/max summaries of the three durations."""
        return {
            "queue_wait_ns": latency_summary(self.queue_wait),
            "service_time_ns": latency_summary(self.service_time),
            "total_latency_ns": latency_summary(self.total_latency),
        }

    def __repr__(self) -> str:
        if not self.captured:
            return "<LatencyRecorder (no replay captured)>"
        return f"<LatencyRecorder n={self.n}>"


def _split_by(
    keys: np.ndarray, items: np.ndarray
) -> _t.Iterator[_t.Tuple[int, np.ndarray]]:
    """``(key, items with that key)`` per distinct key, ascending; a
    stable sort keeps each group's items in their original order."""
    if keys.shape[0] == 0:
        return
    # channel and bank ids fit int16, which numpy radix-sorts in O(n)
    bounds16 = np.iinfo(np.int16)
    if bounds16.min <= keys.min() and keys.max() <= bounds16.max:
        order = np.argsort(keys.astype(np.int16), kind="stable")
    else:
        order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    bounds = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    for group in np.split(order, bounds):
        yield int(keys[group[0]]), items[group]


class ReplayTelemetry:
    """One replay's worth of observability: recorder + profiler.

    Pass an instance to :meth:`MemorySystem.replay(..., telemetry=...)
    <repro.memsys.MemorySystem.replay>` (or through
    ``PimExecMachine.replay`` / ``compare_host_pim`` /
    ``run_nn_kernel``); afterwards it holds the per-request latency
    arrays, the per-phase wall-clock profile, and enough context
    (engine, config, makespan) to export the command timeline.

    Parameters
    ----------
    latency:
        Record per-request times (default on).
    profile:
        Record per-phase wall-clock timers (default on).
    """

    def __init__(self, latency: bool = True, profile: bool = True) -> None:
        self.recorder = LatencyRecorder() if latency else None
        self.profiler = PhaseProfiler() if profile else None
        #: Engine that served the replay (``"event"`` /
        #: ``"fast-vectorized"`` / ``"fast-exact"``).
        self.engine: _t.Optional[str] = None
        self.config: _t.Optional["MemSysConfig"] = None
        self.stats: _t.Optional["MemSysStats"] = None
        self.makespan_ns: float = math.nan
        #: Set by :func:`repro.farm.replay_farm`: the supervisor's
        #: span log, merged into the timeline as worker/shard tracks.
        self.farm_events: _t.Optional[_t.Any] = None

    # ------------------------------------------------------------------
    def _finish(
        self, system: "MemorySystem", stats: "MemSysStats"
    ) -> None:
        """Called by :meth:`MemorySystem.replay` once stats exist."""
        self.engine = system.last_replay_engine
        self.config = system.config
        self.stats = stats
        self.makespan_ns = stats.makespan_ns

    @property
    def finished(self) -> bool:
        return self.stats is not None

    # ------------------------------------------------------------------
    def percentiles(self) -> _t.Dict[str, _t.Dict[str, float]]:
        if self.recorder is None:
            raise RuntimeError(
                "latency recording was disabled for this telemetry"
            )
        return self.recorder.percentiles()

    def metrics_into(
        self, registry: MetricsRegistry, **tags: _t.Any
    ) -> MetricsRegistry:
        """Emit this replay's telemetry into a metrics registry."""
        if self.engine is not None:
            tags = dict(tags, engine=self.engine)
        if self.recorder is not None and self.recorder.captured:
            recorder = self.recorder
            registry.counter(
                "telemetry.requests_recorded", recorder.n, **tags
            )
            registry.histogram(
                "telemetry.queue_wait_ns", recorder.queue_wait, **tags
            )
            registry.histogram(
                "telemetry.service_time_ns",
                recorder.service_time,
                **tags,
            )
            registry.histogram(
                "telemetry.total_latency_ns",
                recorder.total_latency,
                **tags,
            )
        if self.profiler is not None:
            self.profiler.metrics_into(registry, **tags)
        return registry

    # ------------------------------------------------------------------
    def timeline(
        self, max_events: _t.Optional[int] = None
    ) -> dict:
        """The Chrome-trace-event document for this replay."""
        from .timeline import build_timeline

        if max_events is None:
            return build_timeline(self)
        return build_timeline(self, max_events=max_events)

    def write_timeline(
        self,
        path: _t.Any,
        max_events: _t.Optional[int] = None,
    ):
        """Write the timeline JSON; returns the path."""
        from .timeline import write_timeline

        return write_timeline(self, path, max_events=max_events)

    # ------------------------------------------------------------------
    def timeseries(
        self,
        window_ns: _t.Optional[float] = None,
        n_windows: _t.Optional[int] = None,
    ) -> dict:
        """The ``timeseries-v2`` windowed-metrics document."""
        from .timeseries import build_timeseries

        return build_timeseries(
            self, window_ns=window_ns, n_windows=n_windows
        )

    def write_timeseries(
        self,
        path: _t.Any,
        window_ns: _t.Optional[float] = None,
        n_windows: _t.Optional[int] = None,
    ):
        """Write the time-series JSON; returns the path."""
        from .timeseries import write_timeseries

        return write_timeseries(
            self, path, window_ns=window_ns, n_windows=n_windows
        )

    # ------------------------------------------------------------------
    def energy(
        self,
        coefficients: _t.Optional[_t.Any] = None,
        window_ns: _t.Optional[float] = None,
        n_windows: _t.Optional[int] = None,
    ) -> dict:
        """The ``energy-v1`` command-level energy document."""
        from .energy import build_energy

        return build_energy(
            self,
            coefficients=coefficients,
            window_ns=window_ns,
            n_windows=n_windows,
        )

    def write_energy(
        self,
        path: _t.Any,
        coefficients: _t.Optional[_t.Any] = None,
        window_ns: _t.Optional[float] = None,
        n_windows: _t.Optional[int] = None,
    ):
        """Write the energy JSON; returns the path."""
        from .energy import write_energy

        return write_energy(
            self,
            path,
            coefficients=coefficients,
            window_ns=window_ns,
            n_windows=n_windows,
        )

    def __repr__(self) -> str:
        return (
            f"<ReplayTelemetry engine={self.engine!r} "
            f"latency={self.recorder is not None} "
            f"profile={self.profiler is not None}>"
        )
