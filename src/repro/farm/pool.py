"""The replay farm: worker pool, supervisor, and exact merge.

:func:`replay_farm` shards a timestamped trace by channel
(:class:`~repro.farm.planner.ShardPlanner`), replays each shard in an
isolated worker, and merges what the workers ship — their per-request
arrays and bank row counters — back into trace order.  Channels of a
shardable trace never interact, so the merged arrays equal a
single-process replay's, and the reduction every replay path runs
(:func:`~repro.memsys.system.reduce_stats`) computes **bit-identical**
statistics from them, whichever fast-path tier each worker took.

Fault tolerance is the supervisor's job: per-attempt deadlines and
heartbeat silence detection (:class:`~repro.errors.ShardTimeout`),
crash isolation (:class:`~repro.errors.WorkerCrash`), payload checksum
verification (:class:`~repro.errors.ResultIntegrityError`), bounded
retries with exponential backoff and deterministic jitter, and two
levels of graceful degradation: a shard past its retry budget is
replayed in-process (fault-free, still exact), and a trace that cannot
be sharded exactly — line-rate, or a worker's no-backpressure
certificate failed — falls back to a full single-process replay.
Every path ends in a bit-exact result or a typed
:class:`~repro.errors.FarmError`; the farm never returns an
approximate answer.

One supervisor loop serves both worker kinds — a worker process, or
an attempt run synchronously in the supervisor — and settles every
attempt through the same verify / ledger / retry / degrade path.  The
kinds differ in one respect: nothing can interrupt an in-process
attempt, so no deadline or heartbeat watches it, and an injected hang
becomes an immediate :class:`~repro.errors.ShardTimeout`.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
import random
import threading
import time
import typing as _t
from multiprocessing import connection as _mp_connection

import numpy as np

from ..errors import (
    ConfigError,
    FarmError,
    ResultIntegrityError,
    ShardTimeout,
    WorkerCrash,
)
from ..memsys.system import (
    ENGINES,
    MemSysConfig,
    MemSysStats,
    MemorySystem,
    _finish_replay,
)
from ..memsys.trace import PackedTrace
from ..telemetry.latency import LatencyRecorder
from ..telemetry.profile import null_phase
from . import chaos as _chaos
from .events import FarmEventLog
from .planner import Shard, ShardPlan, ShardPlanner, canonical_checksum

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..telemetry import ReplayTelemetry

__all__ = [
    "MODES",
    "FarmConfig",
    "ShardOutcome",
    "FarmReport",
    "FarmResult",
    "WorkerPool",
    "replay_farm",
]

#: Execution modes accepted by :class:`FarmConfig`.
MODES = ("auto", "process", "inprocess")

#: Exit code a chaos-killed worker dies with (distinguishable from 0).
_CHAOS_EXIT = 87


# ----------------------------------------------------------------------
# configuration and report types
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class FarmConfig:
    """Supervisor policy: workers, deadlines, retries, backoff.

    Attributes
    ----------
    workers:
        Worker-process cap; ``0`` (default) means
        ``min(n_shards, os.cpu_count())``.
    mode:
        The worker kind the one supervisor loop launches:
        ``"process"`` (real worker processes under deadline and
        heartbeat watch), ``"inprocess"`` (each attempt runs
        synchronously in the supervisor, so no deadline or heartbeat
        can interrupt it and an injected hang is an immediate
        timeout — the degraded path, also the deterministic substrate
        for chaos tests), or ``"auto"`` (processes when
        multiprocessing is usable and more than one shard/worker
        exists).  Retries, backoff, verification, the ledger and the
        event log are the same for both kinds.
    engine:
        Passed to each worker's :meth:`MemorySystem.replay
        <repro.memsys.MemorySystem.replay>` (see
        :data:`repro.memsys.ENGINES`; every value runs the one replay
        path).
    max_shards:
        Optional cap on shard count (channels fold round-robin).
    max_retries:
        Failed-attempt budget per shard *beyond* the first try; past
        it the shard degrades to an in-process replay.
    deadline_s:
        Hard wall-clock ceiling per attempt.
    heartbeat_interval_s / heartbeat_timeout_s:
        Workers heartbeat every ``interval``; silence past ``timeout``
        marks the worker hung.  Each heartbeat extends the supervisor's
        patience — long replays survive as long as they stay alive.
    backoff_base_s / backoff_cap_s / jitter / seed:
        Retry ``k`` (0-based) sleeps
        ``min(cap, base * 2**k) * u`` where ``u`` is drawn
        deterministically from ``[1 - jitter, 1 + jitter]`` keyed by
        ``(seed, shard_id, attempt)`` — reproducible, yet decorrelated
        across shards.
    """

    workers: int = 0
    mode: str = "auto"
    engine: str = "auto"
    max_shards: _t.Optional[int] = None
    max_retries: int = 2
    deadline_s: float = 120.0
    heartbeat_interval_s: float = 0.25
    heartbeat_timeout_s: float = 10.0
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ConfigError(
                f"workers must be >= 0 (0 = auto), got {self.workers}"
            )
        if self.mode not in MODES:
            raise ConfigError(
                f"unknown farm mode {self.mode!r}; available: {MODES}"
            )
        if self.engine not in ENGINES:
            raise ConfigError(
                f"unknown engine {self.engine!r}; available: {ENGINES}"
            )
        if self.max_shards is not None and self.max_shards < 1:
            raise ConfigError(
                f"max_shards must be >= 1, got {self.max_shards}"
            )
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        for name in (
            "deadline_s",
            "heartbeat_interval_s",
            "heartbeat_timeout_s",
        ):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigError(f"{name} must be > 0, got {value}")
        if self.backoff_base_s < 0:
            raise ConfigError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )
        if self.backoff_cap_s < self.backoff_base_s:
            raise ConfigError(
                "backoff_cap_s must be >= backoff_base_s, got "
                f"{self.backoff_cap_s} < {self.backoff_base_s}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )


@dataclasses.dataclass
class ShardOutcome:
    """How one shard fared: attempts, errors, final disposition."""

    shard_id: int
    channels: _t.Tuple[int, ...]
    n_requests: int
    attempts: int = 0
    engine: _t.Optional[str] = None
    degraded: bool = False
    errors: _t.List[str] = dataclasses.field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "channels": list(self.channels),
            "n_requests": self.n_requests,
            "attempts": self.attempts,
            "engine": self.engine,
            "degraded": self.degraded,
            "errors": list(self.errors),
        }


@dataclasses.dataclass
class FarmReport:
    """The farm's fault ledger for one replay.

    The counter attributes feed
    :func:`repro.telemetry.farm_metrics` directly; ``errors`` holds
    the string form of every typed error that was absorbed by a retry
    or a degradation (a farm run that *raises* instead never produces
    a report).
    """

    mode: str
    workers: int
    n_shards: int
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    integrity_failures: int = 0
    degraded_shards: int = 0
    #: Always 0: shards on different fast-path tiers merge exactly.
    #: Kept only for readers of the field.
    harmonized_shards: int = 0
    fell_back_to_single: bool = False
    fallback_reason: str = ""
    shards: _t.List[ShardOutcome] = dataclasses.field(
        default_factory=list
    )
    errors: _t.List[str] = dataclasses.field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "workers": self.workers,
            "n_shards": self.n_shards,
            "attempts": self.attempts,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "integrity_failures": self.integrity_failures,
            "degraded_shards": self.degraded_shards,
            "harmonized_shards": self.harmonized_shards,
            "fell_back_to_single": self.fell_back_to_single,
            "fallback_reason": self.fallback_reason,
            "shards": [shard.to_dict() for shard in self.shards],
            "errors": list(self.errors),
        }


@dataclasses.dataclass
class FarmResult:
    """What :func:`replay_farm` returns: exact stats + fault ledger."""

    stats: MemSysStats
    report: FarmReport
    telemetry: _t.Optional["ReplayTelemetry"] = None
    #: Supervisor span log (dispatch/heartbeat/retry/verify/merge plus
    #: chaos injections); mergeable into the Chrome timeline.
    events: _t.Optional[FarmEventLog] = None


# ----------------------------------------------------------------------
# the worker side
# ----------------------------------------------------------------------
def _run_shard(
    config: MemSysConfig,
    op_codes: np.ndarray,
    addrs: np.ndarray,
    times: np.ndarray,
    channels: _t.Sequence[int],
    engine: str,
    fault: _t.Optional[_chaos.Fault] = None,
    inprocess: bool = False,
) -> _t.Dict[str, _t.Any]:
    """Replay one shard on a fresh system; return the sealed payload.

    The payload carries the shard's trace-ordered per-request arrays,
    the row counters of every owned channel's banks, the
    no-backpressure certificate (recorded arrivals == trace
    timestamps), and a :func:`~repro.farm.planner.canonical_checksum`
    seal computed over all of the above.  Chaos faults are applied
    here — where real failures strike — so the supervisor cannot tell
    injected failures from genuine ones.
    """
    from ..telemetry import ReplayTelemetry

    if fault is not None:
        if fault.kind == _chaos.KILL:
            if inprocess:
                raise _chaos.ChaosKill("injected worker death")
            os._exit(_CHAOS_EXIT)
        if fault.kind == _chaos.HANG and inprocess:
            # process-mode hangs happen in _worker_main (the worker
            # must go silent, not raise); in-process runs emulate the
            # resulting timeout without waiting it out
            raise _chaos.ChaosHang("injected worker hang")
        if fault.kind == _chaos.SLOW:
            time.sleep(fault.delay_s)
    trace = PackedTrace(op_codes, addrs, times)
    system = MemorySystem(config)
    telemetry = ReplayTelemetry(latency=True, profile=False)
    system.replay(trace, engine=engine, telemetry=telemetry)
    recorder = telemetry.recorder
    assert recorder is not None
    arrays = dict(recorder._assemble())
    backpressure = not np.array_equal(arrays["arrival"], times)
    result: _t.Dict[str, _t.Any] = {
        "engine": system.last_replay_engine,
        "backpressure": bool(backpressure),
        "row_counts": system.row_counts()[list(channels)],
        "arrays": arrays,
    }
    result["checksum"] = canonical_checksum(result)
    if fault is not None and fault.kind == _chaos.CORRUPT:
        _chaos.corrupt_result(result)
    return result


def _worker_main(
    conn,
    shard_id: int,
    config: MemSysConfig,
    op_codes: np.ndarray,
    addrs: np.ndarray,
    times: np.ndarray,
    channels: _t.Tuple[int, ...],
    engine: str,
    fault: _t.Optional[_chaos.Fault],
    heartbeat_interval_s: float,
) -> None:
    """Worker-process entry: heartbeat thread + shard replay.

    The heartbeat thread and the final result/error share one pipe;
    every send holds one lock, so a heartbeat can never interleave with
    the bytes of a result.
    """
    lock = threading.Lock()

    def send(message: tuple) -> None:
        with lock:
            conn.send(message)

    try:
        if fault is not None and fault.kind == _chaos.HANG:
            # one heartbeat, then silence: a wedged worker, not a dead
            # one — only the heartbeat timeout can catch it
            send(("heartbeat", shard_id))
            while True:  # pragma: no cover - killed by supervisor
                time.sleep(3600.0)
        stop = threading.Event()

        def _beat() -> None:
            while not stop.wait(heartbeat_interval_s):
                try:
                    send(("heartbeat", shard_id))
                except OSError:  # supervisor went away
                    return

        beater = threading.Thread(
            target=_beat, name="farm.heartbeat", daemon=True
        )
        beater.start()
        try:
            result = _run_shard(
                config,
                op_codes,
                addrs,
                times,
                channels,
                engine,
                fault=fault,
            )
        finally:
            stop.set()
        send(("result", shard_id, result))
    except BaseException as error:  # noqa: BLE001 - ship it upstream
        try:
            send(("error", shard_id, f"{type(error).__name__}: {error}"))
        except OSError:  # pragma: no cover - pipe already gone
            pass
        raise SystemExit(1)
    finally:
        conn.close()


# ----------------------------------------------------------------------
# the supervisor side
# ----------------------------------------------------------------------
class _Active:
    """Book-keeping for one in-flight worker attempt."""

    __slots__ = ("shard", "attempt", "proc", "conn", "started", "last_seen")

    def __init__(self, shard: Shard, attempt: int, proc, conn) -> None:
        self.shard = shard
        self.attempt = attempt
        self.proc = proc
        self.conn = conn
        self.started = time.monotonic()
        self.last_seen = self.started


def _reap(state: _Active) -> None:
    """Close a process attempt's pipe and make sure it is gone."""
    state.conn.close()
    if state.proc.is_alive():
        state.proc.kill()
    state.proc.join(timeout=5.0)


class WorkerPool:
    """Supervise shard replays: launch, watch, retry, degrade.

    :meth:`run` executes every shard of a plan and returns the raw
    result payloads in shard order plus the fault ledger.  Failures
    are absorbed by the retry budget and, past it, by an in-process
    fault-free replay of the shard — :meth:`run` itself only raises on
    misconfiguration, never on worker failure.
    """

    def __init__(
        self,
        farm: _t.Optional[FarmConfig] = None,
        events: _t.Optional[FarmEventLog] = None,
    ) -> None:
        self.farm = farm or FarmConfig()
        #: Span log every supervisor action lands in; callers that want
        #: the run's events pass their own (``replay_farm`` does).
        self.events = events if events is not None else FarmEventLog()

    # ------------------------------------------------------------------
    def resolve_mode(self, n_shards: int) -> _t.Tuple[str, int, str]:
        """Pick (mode, workers, reason-if-degraded) for a plan."""
        farm = self.farm
        workers = farm.workers or min(n_shards, os.cpu_count() or 1)
        workers = max(1, min(workers, n_shards))
        if farm.mode == "inprocess":
            return "inprocess", workers, ""
        usable, why = _multiprocessing_usable()
        if farm.mode == "process":
            if not usable:
                return "inprocess", workers, why
            return "process", workers, ""
        # auto: processes only when they can actually help
        if n_shards <= 1 or workers <= 1:
            return "inprocess", workers, ""
        if not usable:
            return "inprocess", workers, why
        return "process", workers, ""

    # ------------------------------------------------------------------
    def run(
        self,
        plan: ShardPlan,
        fault_plan: _t.Optional[_chaos.FaultPlan] = None,
    ) -> _t.Tuple[_t.Dict[int, _t.Dict[str, _t.Any]], FarmReport]:
        """Replay the plan's shards; return ({shard_id: result}, report)."""
        mode, workers, why = self.resolve_mode(plan.n_shards)
        report = FarmReport(
            mode=mode, workers=workers, n_shards=plan.n_shards
        )
        if why:
            report.errors.append(f"degraded to in-process: {why}")
        report.shards = [
            ShardOutcome(
                shard_id=shard.shard_id,
                channels=shard.channels,
                n_requests=len(shard),
            )
            for shard in plan.shards
        ]
        return self._supervise(plan, fault_plan, report, workers), report

    # ------------------------------------------------------------------
    # backoff, verification, degradation
    # ------------------------------------------------------------------
    def _backoff_delay(self, shard_id: int, attempt: int) -> float:
        farm = self.farm
        base = min(
            farm.backoff_cap_s, farm.backoff_base_s * (2.0**attempt)
        )
        rng = random.Random(f"{farm.seed}:{shard_id}:{attempt}")
        lo = 1.0 - farm.jitter
        span = 2.0 * farm.jitter
        return base * (lo + span * rng.random())

    def _verify_result(
        self, shard: Shard, attempt: int, result: _t.Any
    ) -> None:
        """Checksum + shape checks; raises ResultIntegrityError."""
        if not isinstance(result, dict) or "checksum" not in result:
            raise ResultIntegrityError(
                f"shard {shard.shard_id}: malformed result payload",
                shard_id=shard.shard_id,
                attempt=attempt,
            )
        claimed = result["checksum"]
        payload = {
            key: value
            for key, value in result.items()
            if key != "checksum"
        }
        actual = canonical_checksum(payload)
        if claimed != actual:
            raise ResultIntegrityError(
                f"shard {shard.shard_id}: result checksum mismatch "
                f"(claimed {claimed[:12]}…, recomputed {actual[:12]}…)",
                shard_id=shard.shard_id,
                attempt=attempt,
            )
        arrays = result["arrays"]
        n = len(shard)
        keys = LatencyRecorder.KEYS
        if (
            set(arrays) != set(keys)
            or any(arrays[key].shape != (n,) for key in keys)
            or len(result["row_counts"]) != len(shard.channels)
        ):
            raise ResultIntegrityError(
                f"shard {shard.shard_id}: result does not match the "
                f"shard's {n} request(s) on {len(shard.channels)} "
                "channel(s)",
                shard_id=shard.shard_id,
                attempt=attempt,
            )

    def _degrade(
        self, plan: ShardPlan, shard: Shard, report: FarmReport
    ) -> _t.Dict[str, _t.Any]:
        """Past the retry budget: replay the shard here, fault-free."""
        with self.events.span(
            "degrade", shard_id=shard.shard_id,
            detail="retry budget exhausted: fault-free in-process replay",
        ):
            result = _run_shard(
                *self._shard_args(plan, shard), fault=None, inprocess=True
            )
        report.degraded_shards += 1
        report.attempts += 1
        outcome = report.shards[shard.shard_id]
        outcome.attempts += 1
        outcome.degraded = True
        outcome.engine = result["engine"]
        return result

    # ------------------------------------------------------------------
    # the supervisor loop (one loop, two worker kinds)
    # ------------------------------------------------------------------
    def _shard_args(self, plan: ShardPlan, shard: Shard) -> tuple:
        """The leading positional arguments of :func:`_run_shard`."""
        trace = shard.trace
        return (
            plan.config, trace.op_codes, trace.addrs, trace.times,
            shard.channels, self.farm.engine,
        )

    def _run_here(
        self,
        plan: ShardPlan,
        shard: Shard,
        attempt: int,
        fault: _t.Optional[_chaos.Fault],
    ) -> _t.Union[_t.Dict[str, _t.Any], FarmError]:
        """One in-process attempt, run synchronously: the payload, or
        the typed error a worker process would have earned."""
        sid = shard.shard_id
        try:
            return _run_shard(
                *self._shard_args(plan, shard), fault=fault, inprocess=True
            )
        except _chaos.ChaosKill:
            return WorkerCrash(
                f"shard {sid} worker died (attempt {attempt})",
                shard_id=sid,
                attempt=attempt,
            )
        except _chaos.ChaosHang:
            return ShardTimeout(
                f"shard {sid} went silent past "
                f"{self.farm.heartbeat_timeout_s}s (attempt {attempt})",
                shard_id=sid,
                attempt=attempt,
            )
        except Exception as other:  # genuine replay failure
            return WorkerCrash(
                f"shard {sid} worker raised "
                f"{type(other).__name__}: {other}",
                shard_id=sid,
                attempt=attempt,
            )

    def _supervise(
        self,
        plan: ShardPlan,
        fault_plan: _t.Optional[_chaos.FaultPlan],
        report: FarmReport,
        workers: int,
    ) -> _t.Dict[int, _t.Dict[str, _t.Any]]:
        """Run every shard, at most ``workers`` attempts at a time (the
        count :meth:`resolve_mode` computed, never the raw ``0 = auto``
        config value), on the worker kind ``report.mode`` names.

        A process attempt is watched through its pipe, heartbeat and
        deadline; an in-process attempt runs to completion when it is
        launched.  Both end in ``settle``, which keeps the ledger
        and the event log and queues the retry or the degradation.
        """
        farm = self.farm
        events = self.events
        inprocess = report.mode == "inprocess"
        ctx = None if inprocess else _mp_context()
        results: _t.Dict[int, _t.Dict[str, _t.Any]] = {}
        degraded: _t.List[Shard] = []
        # (ready_at, shard, attempt) — retries wait out their backoff
        # here without blocking supervision of the other shards
        queue: _t.List[_t.Tuple[float, Shard, int]] = [
            (0.0, shard, 0) for shard in plan.shards
        ]
        active: _t.Dict[int, _Active] = {}
        outstanding = len(plan.shards)
        poll_s = max(
            0.005, min(0.1, farm.heartbeat_interval_s / 2.0)
        )

        def settle(
            shard: Shard,
            attempt: int,
            started: float,
            outcome: _t.Union[_t.Dict[str, _t.Any], FarmError],
        ) -> None:
            nonlocal outstanding
            sid = shard.shard_id
            if not isinstance(outcome, FarmError):
                try:
                    with events.span(
                        "verify", shard_id=sid, attempt=attempt
                    ):
                        self._verify_result(shard, attempt, outcome)
                except ResultIntegrityError as integrity:
                    outcome = integrity
            events.record(
                "dispatch",
                events.since(started),
                events.now(),
                shard_id=sid,
                attempt=attempt,
            )
            if not isinstance(outcome, FarmError):
                events.point(
                    "shard-done",
                    shard_id=sid,
                    attempt=attempt,
                    detail=str(outcome["engine"]),
                )
                results[sid] = outcome
                report.shards[sid].engine = outcome["engine"]
                outstanding -= 1
                return
            events.point(
                "attempt-failed",
                shard_id=sid,
                attempt=attempt,
                detail=type(outcome).__name__,
            )
            message = f"{type(outcome).__name__}: {outcome}"
            report.shards[sid].errors.append(message)
            report.errors.append(message)
            if isinstance(outcome, ShardTimeout):
                report.timeouts += 1
            elif isinstance(outcome, ResultIntegrityError):
                report.integrity_failures += 1
            else:
                report.crashes += 1
            if attempt < farm.max_retries:
                report.retries += 1
                delay = self._backoff_delay(sid, attempt)
                now_s = events.now()
                events.record(
                    "retry-backoff", now_s, now_s + delay,
                    shard_id=sid, attempt=attempt,
                )
                queue.append(
                    (time.monotonic() + delay, shard, attempt + 1)
                )
            else:
                degraded.append(shard)
                outstanding -= 1

        def launch(shard: Shard, attempt: int) -> None:
            sid = shard.shard_id
            fault = (
                fault_plan.fault_for(sid, attempt)
                if fault_plan is not None
                else None
            )
            if fault is not None:
                events.point(
                    f"chaos-{fault.kind}",
                    shard_id=sid,
                    attempt=attempt,
                    detail="injected fault",
                )
            report.attempts += 1
            report.shards[sid].attempts += 1
            if inprocess:
                started = time.monotonic()
                outcome = self._run_here(plan, shard, attempt, fault)
                return settle(shard, attempt, started, outcome)
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    child_conn, sid, *self._shard_args(plan, shard),
                    fault, farm.heartbeat_interval_s,
                ),
                name=f"farm-shard{sid}-a{attempt}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            active[sid] = _Active(shard, attempt, proc, parent_conn)

        def finish(state: _Active, outcome) -> None:
            """Settle a process attempt, then reap it (a worker that
            sent its result exits while the result is verified)."""
            active.pop(state.shard.shard_id)
            settle(state.shard, state.attempt, state.started, outcome)
            _reap(state)

        try:
            # ``outstanding`` counts shards neither merged nor degraded
            while outstanding:
                # launch the lowest due shard id first
                while queue and len(active) < workers:
                    now = time.monotonic()
                    due = [
                        i for i, item in enumerate(queue) if item[0] <= now
                    ]
                    if not due:
                        break
                    index = min(due, key=lambda i: queue[i][1].shard_id)
                    _, shard, attempt = queue.pop(index)
                    launch(shard, attempt)
                if not outstanding:
                    break
                if not active:
                    if not queue or workers < 1:
                        # liveness: nothing runs and nothing can launch,
                        # yet shards are outstanding — fail loudly
                        # instead of sleeping forever
                        raise FarmError(
                            f"farm supervisor stalled: {outstanding} "
                            f"shard(s) outstanding, none active, none "
                            f"launchable (workers={workers})"
                        )
                    # only backoffs remain: wait for the earliest
                    ready_at = min(item[0] for item in queue)
                    time.sleep(max(0.0, ready_at - time.monotonic()))
                    continue
                conns = {state.conn: state for state in active.values()}
                for conn in _mp_connection.wait(
                    list(conns), timeout=poll_s
                ):
                    state = conns[conn]
                    sid, attempt = state.shard.shard_id, state.attempt
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        finish(
                            state,
                            WorkerCrash(
                                f"shard {sid} worker died (exitcode "
                                f"{state.proc.exitcode}, attempt "
                                f"{attempt})",
                                shard_id=sid,
                                attempt=attempt,
                            ),
                        )
                        continue
                    state.last_seen = time.monotonic()
                    if message[0] == "heartbeat":
                        events.point(
                            "heartbeat", shard_id=sid, attempt=attempt
                        )
                    elif message[0] == "error":
                        finish(
                            state,
                            WorkerCrash(
                                f"shard {sid} worker raised "
                                f"{message[2]} (attempt {attempt})",
                                shard_id=sid,
                                attempt=attempt,
                            ),
                        )
                    else:
                        finish(state, message[2])
                # deadline + heartbeat-silence sweep
                now = time.monotonic()
                for state in list(active.values()):
                    sid, attempt = state.shard.shard_id, state.attempt
                    silent = now - state.last_seen
                    if silent > farm.heartbeat_timeout_s:
                        why = f"went silent for {silent:.1f}s"
                    elif now - state.started > farm.deadline_s:
                        why = f"exceeded its {farm.deadline_s}s deadline"
                    else:
                        continue
                    finish(
                        state,
                        ShardTimeout(
                            f"shard {sid} {why} (attempt {attempt})",
                            shard_id=sid,
                            attempt=attempt,
                        ),
                    )
        finally:
            for state in list(active.values()):
                _reap(state)
        for shard in degraded:
            results[shard.shard_id] = self._degrade(plan, shard, report)
        return results


def _multiprocessing_usable() -> _t.Tuple[bool, str]:
    """Can this interpreter fork/spawn worker processes at all?"""
    try:
        methods = multiprocessing.get_all_start_methods()
    except Exception as error:  # pragma: no cover - exotic platforms
        return False, f"multiprocessing unavailable: {error}"
    if not methods:  # pragma: no cover - exotic platforms
        return False, "no multiprocessing start methods available"
    return True, ""


def _mp_context():
    """Fork when the platform has it (cheap, no pickling of the
    config), spawn otherwise — the payload is fully picklable."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


# ----------------------------------------------------------------------
# merge and the public entry point
# ----------------------------------------------------------------------
def _merge(
    plan: ShardPlan,
    results: _t.Mapping[int, _t.Dict[str, _t.Any]],
) -> _t.Tuple[_t.Dict[str, np.ndarray], np.ndarray]:
    """Scatter the shards' arrays back to trace order and place their
    channels' row counters: the inputs of one
    :func:`~repro.memsys.system.reduce_stats` over the whole trace."""
    config = plan.config
    n = len(plan.trace)
    arrays = {
        key: np.empty(n, dtype=dtype)
        for key, dtype in LatencyRecorder.DTYPES.items()
    }
    row_counts = np.zeros(
        (config.n_channels, config.banks_per_channel, 3), dtype=np.int64
    )
    for shard in plan.shards:
        result = results[shard.shard_id]
        for key in LatencyRecorder.KEYS:
            arrays[key][shard.index] = result["arrays"][key]
        row_counts[list(shard.channels)] = result["row_counts"]
    return arrays, row_counts


def replay_farm(
    trace: PackedTrace,
    config: _t.Optional[MemSysConfig] = None,
    farm: _t.Optional[FarmConfig] = None,
    telemetry: _t.Optional["ReplayTelemetry"] = None,
    fault_plan: _t.Optional[_chaos.FaultPlan] = None,
) -> FarmResult:
    """Replay a packed trace on the fault-tolerant sharded farm.

    Plans a channel split, replays each shard under the
    :class:`WorkerPool` supervisor, verifies every worker's
    no-backpressure certificate, and merges the shards' arrays into
    statistics **bit-identical** to
    ``MemorySystem(config).replay(trace)``.  Traces that cannot be
    sharded exactly — line-rate traces, or any shard whose certificate
    failed — are replayed single-process instead (still exact), with
    the degradation recorded in the report.

    Parameters
    ----------
    trace:
        The :class:`~repro.memsys.trace.PackedTrace` to replay.
    config:
        Memory-system configuration (defaults to ``MemSysConfig()``).
    farm:
        Supervisor policy (defaults to :class:`FarmConfig`).
    telemetry:
        Optional :class:`~repro.telemetry.ReplayTelemetry`; its
        latency recorder receives the merged trace-ordered arrays
        (bit-identical to a single-process recording).
    fault_plan:
        Optional :class:`~repro.farm.chaos.FaultPlan` for
        deterministic fault injection (chaos tests only).

    Returns
    -------
    FarmResult
        ``stats`` (exact), ``report`` (the fault ledger), and the
        ``telemetry`` object passed in (if any).
    """
    config = config or MemSysConfig()
    farm = farm or FarmConfig()
    events = FarmEventLog()
    pool = WorkerPool(farm, events=events)
    profiler = telemetry.profiler if telemetry is not None else None
    phase = profiler.phase if profiler is not None else null_phase
    planner = ShardPlanner(config, max_shards=farm.max_shards)
    with phase("farm-plan"), events.span("plan"):
        plan = planner.plan(trace)
    if not plan.shardable:
        return _single_process_fallback(
            trace,
            config,
            farm,
            telemetry,
            FarmReport(mode="single", workers=1, n_shards=0),
            plan.reason,
            events,
        )
    with phase("farm-execute"):
        results, report = pool.run(plan, fault_plan)
    pressured = [
        shard.shard_id
        for shard in plan.shards
        if results[shard.shard_id]["backpressure"]
    ]
    if pressured:
        return _single_process_fallback(
            trace,
            config,
            farm,
            telemetry,
            report,
            "no-backpressure certificate failed for shard(s) "
            f"{pressured}: the trace's arrival intensity exceeds its "
            "queues, so a channel split is not bit-exact",
            events,
        )
    with phase("farm-merge"), events.span(
        "merge", detail=f"{plan.n_shards} shard(s)"
    ):
        arrays, row_counts = _merge(plan, results)
    del results  # the shard payloads are merged; free them first
    stats = _finish_replay(config, "farm", arrays, row_counts, telemetry)
    if telemetry is not None:
        telemetry.farm_events = events
    return FarmResult(
        stats=stats, report=report, telemetry=telemetry, events=events
    )


def _single_process_fallback(
    trace: PackedTrace,
    config: MemSysConfig,
    farm: FarmConfig,
    telemetry: _t.Optional["ReplayTelemetry"],
    report: FarmReport,
    reason: str,
    events: FarmEventLog,
) -> FarmResult:
    """Graceful degradation: one exact single-process replay."""
    report.fell_back_to_single = True
    report.fallback_reason = reason
    system = MemorySystem(config)
    engine = farm.engine
    with events.span("fallback", detail=reason):
        stats = system.replay(trace, engine=engine, telemetry=telemetry)
    if math.isnan(stats.makespan_ns):  # pragma: no cover - defensive
        raise FarmError("single-process fallback produced no makespan")
    if telemetry is not None:
        telemetry.farm_events = events
    return FarmResult(
        stats=stats, report=report, telemetry=telemetry, events=events
    )
