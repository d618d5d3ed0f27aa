"""Fault-tolerant sharded replay farm.

Shard a timestamped :class:`~repro.memsys.trace.PackedTrace` by
channel, replay the shards in supervised worker processes, and merge
the results into statistics **bit-identical** to a single-process
:meth:`MemorySystem.replay <repro.memsys.MemorySystem.replay>` — with
retries, deadlines, heartbeats, result-integrity checksums, and
graceful degradation when sharding cannot be exact.  See
``docs/robustness.md`` for the architecture and the failure-semantics
table, and :mod:`repro.farm.chaos` for deterministic fault injection.

>>> from repro.farm import FarmConfig, replay_farm
>>> from repro.memsys import MemSysConfig, MemorySystem, synthesize_trace
>>> config = MemSysConfig(n_channels=2, scheme="channel-interleaved")
>>> trace = synthesize_trace(
...     "random", 400, config, seed=1, interarrival_ns=20.0, packed=True
... )
>>> result = replay_farm(trace, config, FarmConfig(workers=2))
>>> result.stats == MemorySystem(config).replay(trace)  # bit-identical
True
>>> result.report.retries   # the fault ledger
0
"""

from .chaos import (
    CORRUPT,
    FAULT_KINDS,
    HANG,
    KILL,
    SLOW,
    Fault,
    FaultPlan,
)
from .events import (
    EVENT_KINDS,
    FARM_EVENTS_SCHEMA,
    FarmEvent,
    FarmEventLog,
)
from .planner import Shard, ShardPlan, ShardPlanner, canonical_checksum
from .pool import (
    MODES,
    FarmConfig,
    FarmReport,
    FarmResult,
    ShardOutcome,
    WorkerPool,
    replay_farm,
)

__all__ = [
    "CORRUPT",
    "EVENT_KINDS",
    "FARM_EVENTS_SCHEMA",
    "FAULT_KINDS",
    "HANG",
    "KILL",
    "MODES",
    "SLOW",
    "Fault",
    "FaultPlan",
    "FarmConfig",
    "FarmEvent",
    "FarmEventLog",
    "FarmReport",
    "FarmResult",
    "Shard",
    "ShardOutcome",
    "ShardPlan",
    "ShardPlanner",
    "WorkerPool",
    "canonical_checksum",
    "replay_farm",
]
