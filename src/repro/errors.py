"""The shared error taxonomy of the reproduction harness.

Every layer used to raise ad-hoc :class:`ValueError` / ``RuntimeError``;
this module gives those raises a common base so callers (the CLI, the
replay farm supervisor) can map *any* harness failure to an exit code or
a retry decision uniformly, without string-matching messages.

Design constraints:

* **Backward compatible.**  :class:`TraceFormatError` is still a
  ``ValueError`` and :class:`ReplayStateError` is still a
  ``RuntimeError``, so every existing ``except ValueError`` /
  ``pytest.raises(ValueError)`` keeps working — the hierarchy adds
  structure, it does not move exceptions out from under callers.
* **Machine-readable codes.**  Every error carries a stable ``code``
  string (``error.code``) suitable for metrics tags and structured
  logs; messages stay human-oriented and unchanged.
* **Typed farm failures.**  The fault-tolerant replay farm
  (:mod:`repro.farm`) never surfaces a raw ``multiprocessing`` artifact:
  a worker that dies is a :class:`WorkerCrash`, one that stops
  heartbeating is a :class:`ShardTimeout`, and a result whose checksum
  does not match is a :class:`ResultIntegrityError` — each tagged with
  the shard and attempt it came from, so the supervisor's retry /
  degradation ledger is exact.

See ``docs/robustness.md`` for the failure-semantics table.
"""

from __future__ import annotations

import typing as _t

__all__ = [
    "ReproError",
    "ConfigError",
    "TraceFormatError",
    "ProgramFormatError",
    "ReplayStateError",
    "ServiceOverlapError",
    "FarmError",
    "ShardTimeout",
    "WorkerCrash",
    "ResultIntegrityError",
]


class ReproError(Exception):
    """Base of every typed error the harness raises.

    Attributes
    ----------
    code:
        Stable machine-readable identifier (class attribute, may be
        overridden per instance via the ``code`` keyword).
    """

    code: str = "REPRO"

    def __init__(self, *args: _t.Any, code: _t.Optional[str] = None):
        super().__init__(*args)
        if code is not None:
            self.code = code


class ConfigError(ReproError, ValueError):
    """Invalid configuration or parameter value (still a ValueError)."""

    code = "CONFIG"


class TraceFormatError(ReproError, ValueError):
    """Malformed trace input (still a ValueError).

    Raised with the 1-based line number in the message by both text
    parsers; ``lineno`` carries it structurally when known.
    """

    code = "TRACE_FORMAT"

    def __init__(
        self,
        *args: _t.Any,
        lineno: _t.Optional[int] = None,
        code: _t.Optional[str] = None,
    ):
        super().__init__(*args, code=code)
        self.lineno = lineno


class ProgramFormatError(TraceFormatError):
    """Malformed HBM-PIMulator program-trace input."""

    code = "PROGRAM_FORMAT"


class ReplayStateError(ReproError, RuntimeError):
    """A replay was driven from an invalid state (still RuntimeError)."""

    code = "REPLAY_STATE"


class ServiceOverlapError(ReproError, ValueError):
    """Recorded service spans break the ``channel_overlap`` law: a
    service starts before the previous one on its channel finishes.

    Attributes
    ----------
    channel:
        The channel both services ran on.
    index, previous:
        Trace indices of the service that starts too early and of the
        one still in service when it starts.
    """

    code = "SERVICE_OVERLAP"

    def __init__(
        self,
        *args: _t.Any,
        channel: int,
        index: int,
        previous: int,
        code: _t.Optional[str] = None,
    ):
        super().__init__(*args, code=code)
        self.channel = channel
        self.index = index
        self.previous = previous


class FarmError(ReproError, RuntimeError):
    """Base of the replay-farm failure taxonomy.

    Attributes
    ----------
    shard_id, attempt:
        Which shard replay failed, and on which attempt (0-based);
        ``None`` when the failure is not shard-scoped.
    """

    code = "FARM"

    def __init__(
        self,
        *args: _t.Any,
        shard_id: _t.Optional[int] = None,
        attempt: _t.Optional[int] = None,
        code: _t.Optional[str] = None,
    ):
        super().__init__(*args, code=code)
        self.shard_id = shard_id
        self.attempt = attempt


class ShardTimeout(FarmError):
    """A shard worker missed its deadline (no result, no heartbeat)."""

    code = "FARM_TIMEOUT"


class WorkerCrash(FarmError):
    """A shard worker process died before delivering a result."""

    code = "FARM_CRASH"


class ResultIntegrityError(FarmError):
    """A shard result failed its checksum — the data cannot be trusted."""

    code = "FARM_INTEGRITY"
