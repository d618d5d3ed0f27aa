"""Deterministic fault injection for the replay farm.

A :class:`FaultPlan` maps ``(shard_id, attempt)`` to a :class:`Fault`,
so a chaos run is fully reproducible: the same seed produces the same
kills, hangs, corruptions, and slowdowns on every machine.  Faults are
applied *inside* the shard worker (:func:`repro.farm.pool._run_shard`),
which is exactly where real failures strike; the supervisor never
knows whether a crash was injected or genuine.

Fault kinds
-----------
``kill``
    The worker dies mid-replay (``os._exit`` in process mode, a raised
    :class:`ChaosKill` in in-process mode).  Surfaces as
    :class:`~repro.errors.WorkerCrash`.
``hang``
    The worker wedges after one heartbeat and goes silent (a long
    sleep in process mode, a raised :class:`ChaosHang` in in-process
    mode).  Surfaces as :class:`~repro.errors.ShardTimeout`.
``corrupt``
    The worker flips result bits *after* sealing the payload checksum,
    modeling torn writes and transport corruption.  Surfaces as
    :class:`~repro.errors.ResultIntegrityError`.
``slow``
    The worker sleeps ``delay_s`` before replaying — exercises retry
    budgets and deadline slack without failing.

Every fault either ends in a bit-exact result (after retries or
degradation) or in a typed :class:`~repro.errors.FarmError` — never in
a silently wrong answer; ``tests/farm/test_chaos.py`` holds that line.
"""

from __future__ import annotations

import dataclasses
import random
import typing as _t

from ..errors import ConfigError

__all__ = [
    "KILL",
    "HANG",
    "CORRUPT",
    "SLOW",
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "ChaosKill",
    "ChaosHang",
]

KILL = "kill"
HANG = "hang"
CORRUPT = "corrupt"
SLOW = "slow"

#: Recognised fault kinds, in severity order.
FAULT_KINDS = (KILL, HANG, CORRUPT, SLOW)


class ChaosKill(Exception):
    """In-process stand-in for a worker dying mid-replay."""


class ChaosHang(Exception):
    """In-process stand-in for a worker going silent past its deadline."""


@dataclasses.dataclass(frozen=True)
class Fault:
    """One injected failure.

    ``delay_s`` is only meaningful for ``slow`` faults (how long the
    worker stalls before replaying).
    """

    kind: str
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; available: "
                f"{FAULT_KINDS}"
            )
        if self.delay_s < 0:
            raise ConfigError(
                f"delay_s must be >= 0, got {self.delay_s}"
            )


class FaultPlan:
    """A deterministic ``(shard_id, attempt) -> Fault`` schedule.

    Build one explicitly from a mapping, or use :meth:`always` /
    :meth:`seeded` for the common chaos-test shapes.  Attempts are
    0-based: attempt 0 is the first try, attempt 1 the first retry.
    """

    def __init__(
        self,
        faults: _t.Optional[
            _t.Mapping[_t.Tuple[int, int], Fault]
        ] = None,
    ) -> None:
        self._faults: _t.Dict[_t.Tuple[int, int], Fault] = dict(
            faults or {}
        )

    def fault_for(
        self, shard_id: int, attempt: int
    ) -> _t.Optional[Fault]:
        """The fault scheduled for this attempt, or ``None``."""
        return self._faults.get((shard_id, attempt))

    def __len__(self) -> int:
        return len(self._faults)

    def __repr__(self) -> str:
        kinds = sorted(
            f"{sid}/{att}:{fault.kind}"
            for (sid, att), fault in self._faults.items()
        )
        return f"<FaultPlan {kinds}>"

    # ------------------------------------------------------------------
    @classmethod
    def always(
        cls,
        kind: str,
        shard_ids: _t.Iterable[int],
        attempts: int = 1,
        delay_s: float = 0.0,
    ) -> "FaultPlan":
        """Fault the given shards on their first ``attempts`` tries.

        ``attempts`` past the retry budget means the shard only
        succeeds through degradation (the supervisor's fault-free
        in-process fallback).
        """
        fault = Fault(kind, delay_s=delay_s)
        return cls(
            {
                (int(shard_id), attempt): fault
                for shard_id in shard_ids
                for attempt in range(attempts)
            }
        )

    @classmethod
    def seeded(
        cls,
        seed: int,
        n_shards: int,
        attempts: int = 3,
        rate: float = 0.3,
        kinds: _t.Sequence[str] = FAULT_KINDS,
        slow_delay_s: float = 0.01,
    ) -> "FaultPlan":
        """A reproducible random plan: each (shard, attempt) cell is
        faulted with probability ``rate``, drawing uniformly from
        ``kinds``.  The same seed yields the same plan everywhere.
        """
        if not 0.0 <= rate <= 1.0:
            raise ConfigError(f"rate must be in [0, 1], got {rate}")
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ConfigError(
                    f"unknown fault kind {kind!r}; available: "
                    f"{FAULT_KINDS}"
                )
        rng = random.Random(seed)
        faults: _t.Dict[_t.Tuple[int, int], Fault] = {}
        for shard_id in range(n_shards):
            for attempt in range(attempts):
                if rng.random() < rate:
                    kind = kinds[rng.randrange(len(kinds))]
                    faults[(shard_id, attempt)] = Fault(
                        kind,
                        delay_s=(
                            slow_delay_s if kind == SLOW else 0.0
                        ),
                    )
        return cls(faults)


def corrupt_result(result: _t.Dict[str, _t.Any]) -> None:
    """Flip bits in an already-sealed shard result (in place).

    Called by the worker *after* the payload checksum is computed, so
    the supervisor's recompute is guaranteed to mismatch — the exact
    shape of a torn write or a transport-level corruption.
    """
    arrays = result.get("arrays") or {}
    finish = arrays.get("finish")
    if finish is not None and finish.size:
        finish[0] = finish[0] + 1.0
    else:  # zero-length shard: corrupt a row counter instead
        result["row_counts"].flat[0] += 1
