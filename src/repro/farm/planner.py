"""Channel sharding for the fault-tolerant replay farm.

:class:`ShardPlanner` splits a :class:`~repro.memsys.trace.PackedTrace`
into per-channel shards that independent workers can replay on fresh
:class:`~repro.memsys.MemorySystem` instances.  The split is only
*bit-exact* when no shard ever experiences queue backpressure: the
single-process injector (:meth:`MemorySystem._injector
<repro.memsys.MemorySystem.replay>`) is head-of-line blocking, so one
full channel queue delays injection into *every* channel.  A uniformly
timestamped trace whose every request is admitted exactly at its
timestamp decouples the channels — each controller then sees exactly
the same arrival sequence under sharded replay as under global replay,
and the per-request times (and hence every reduced statistic) are
identical bit for bit.

The planner therefore marks a plan shardable only for timestamped
traces; the worker verifies the no-backpressure certificate post hoc
(recorded arrivals must equal the trace timestamps) and the supervisor
degrades to an exact single-process replay whenever the certificate
fails.  Sharded or degraded, the farm never returns an approximate
answer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
import typing as _t

import numpy as np

from ..errors import ConfigError
from ..memsys.system import MemSysConfig
from ..memsys.trace import PackedTrace

__all__ = [
    "Shard",
    "ShardPlan",
    "ShardPlanner",
    "canonical_checksum",
]


# ----------------------------------------------------------------------
# canonical checksums (the per-shard result integrity contract)
# ----------------------------------------------------------------------
def _feed(digest: "hashlib._Hash", value: _t.Any) -> None:
    """Feed one value into ``digest`` with an unambiguous type tag.

    Floats hash their IEEE-754 bit pattern (``struct.pack('>d')``) and
    arrays hash dtype + shape + raw bytes, so the checksum is exactly
    as strict as the farm's bit-identity guarantee — a single flipped
    mantissa bit changes it.  Mappings recurse in sorted-key order;
    the encoding is independent of pickle protocol and dict insertion
    order.
    """
    if isinstance(value, np.ndarray):
        digest.update(b"A")
        digest.update(str(value.dtype).encode())
        digest.update(str(value.shape).encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, bool):
        digest.update(b"B" + (b"1" if value else b"0"))
    elif isinstance(value, int):
        digest.update(b"I" + str(value).encode())
    elif isinstance(value, float):
        digest.update(b"F" + struct.pack(">d", value))
    elif isinstance(value, str):
        encoded = value.encode()
        digest.update(b"S" + str(len(encoded)).encode() + b":" + encoded)
    elif value is None:
        digest.update(b"N")
    elif isinstance(value, _t.Mapping):
        digest.update(b"M" + str(len(value)).encode())
        for key in sorted(value, key=repr):
            _feed(digest, key)
            _feed(digest, value[key])
    elif isinstance(value, (list, tuple)):
        digest.update(b"L" + str(len(value)).encode())
        for item in value:
            _feed(digest, item)
    else:
        raise TypeError(
            f"canonical_checksum cannot encode {type(value).__name__!r}"
        )


def canonical_checksum(value: _t.Any) -> str:
    """SHA-256 over a canonical encoding of ``value``.

    Used by shard workers to seal their result payload (per-request
    arrays, bank row counters) before it crosses the process
    boundary; the supervisor recomputes it on receipt and raises
    :class:`~repro.errors.ResultIntegrityError` on mismatch.
    """
    digest = hashlib.sha256()
    _feed(digest, value)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# shards and plans
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Shard:
    """One worker's slice of the trace: a channel group's requests.

    Attributes
    ----------
    shard_id:
        Dense shard index (``0 .. n_shards-1``).
    channels:
        The channels this shard owns (every request in ``trace``
        decodes to one of them).
    trace:
        The shard's sub-trace — the owned channels' requests in
        original trace order (timestamps stay non-decreasing because a
        subsequence of a sorted sequence is sorted).
    index:
        Positions of the shard's requests in the original trace;
        scatter target for reassembling trace-ordered latency arrays.
    """

    shard_id: int
    channels: _t.Tuple[int, ...]
    trace: PackedTrace
    index: np.ndarray

    def __len__(self) -> int:
        return len(self.trace)


@dataclasses.dataclass(frozen=True)
class ShardPlan:
    """The planner's verdict plus the shards themselves.

    ``shardable`` is the *static* half of the exactness argument (the
    trace is uniformly timestamped, so per-shard replay can in
    principle admit every request at its timestamp); the dynamic half
    — no shard actually hit backpressure — is certified by the workers
    during replay.  A plan that is not shardable carries the human-
    readable ``reason`` and an empty shard list; the supervisor then
    degrades to exact single-process replay.
    """

    config: MemSysConfig
    trace: PackedTrace
    shards: _t.Tuple[Shard, ...]
    shardable: bool
    reason: str = ""

    @property
    def n_shards(self) -> int:
        return len(self.shards)


class ShardPlanner:
    """Split a packed trace by decoded channel into worker shards.

    Parameters
    ----------
    config:
        The memory-system configuration; its address map decides which
        channel each request lands on.
    max_shards:
        Optional cap on shard count.  With more active channels than
        ``max_shards``, channels are folded round-robin into groups —
        a shard replays its whole group on one fresh system, which is
        still exact (channels never interact once injection is
        timestamp-driven).
    """

    def __init__(
        self,
        config: MemSysConfig,
        max_shards: _t.Optional[int] = None,
    ) -> None:
        if max_shards is not None and max_shards < 1:
            raise ConfigError(
                f"max_shards must be >= 1, got {max_shards}"
            )
        self.config = config
        self.max_shards = max_shards

    def plan(self, trace: PackedTrace) -> ShardPlan:
        """Build the shard plan (or a degradation verdict) for a trace."""
        if len(trace) == 0:
            return ShardPlan(
                self.config, trace, (), False, "empty trace"
            )
        if trace.times is None:
            return ShardPlan(
                self.config,
                trace,
                (),
                False,
                "line-rate trace: the single-process injector couples "
                "channels through head-of-line backpressure, so a "
                "channel split is not bit-exact",
            )
        channel = self.config.address_map().decode_fields(trace.addrs)[
            "channel"
        ]
        active = [int(c) for c in np.unique(channel)]
        n_shards = len(active)
        if self.max_shards is not None:
            n_shards = min(n_shards, self.max_shards)
        groups: _t.List[_t.List[int]] = [[] for _ in range(n_shards)]
        for position, chan in enumerate(active):
            groups[position % n_shards].append(chan)
        shards = []
        for shard_id, group in enumerate(groups):
            mask = np.isin(channel, group)
            index = np.flatnonzero(mask)
            sub = PackedTrace(
                trace.op_codes[index],
                trace.addrs[index],
                trace.times[index],
            )
            shards.append(
                Shard(
                    shard_id=shard_id,
                    channels=tuple(group),
                    trace=sub,
                    index=index,
                )
            )
        return ShardPlan(self.config, trace, tuple(shards), True)
