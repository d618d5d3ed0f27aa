"""Memory-system request records.

A :class:`MemRequest` is one transaction presented to the memory system:
a host read or write of one transaction granule, or a PIM all-bank
operation that commands every bank of the target channel in lockstep
(the HBM-PIM "AB mode" — the mechanism by which processing-in-memory
reclaims the aggregate row-buffer bandwidth of all banks at once).

Requests double as trace records: the trace layer serializes
``(op, addr)`` plus an optional arrival *timestamp* (ns); the runtime
fields (coordinates, service times, outcome) are filled in during
replay.  An untimestamped request is injected at line rate (as
soon as its queue has space); a timestamped one is additionally held
back until its timestamp — the trace-driven arrival mode that replays
application traces under their recorded traffic intensity instead of
the saturation regime.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    from .addrmap import Coordinates

__all__ = ["Op", "OPS_BY_CODE", "MemRequest"]


class Op(enum.Enum):
    """Request kind, with its single-letter trace mnemonic as value.

    ``READ`` / ``WRITE`` are host transactions of one granule; ``PIM``
    is an all-bank row operation (every bank of the channel in
    lockstep); ``AB`` is an all-bank *register broadcast* — the
    HBM-PIM ``AB W`` command that writes CRF microcode, SRF scalars, or
    GRF vectors into every bank's PIM execution unit.  A broadcast
    occupies the channel for one column access but never touches the
    row buffers (no activation), which is how real HBM-PIM register
    writes behave.
    """

    READ = "R"
    WRITE = "W"
    PIM = "P"
    AB = "A"

    @classmethod
    def from_mnemonic(cls, token: str) -> "Op":
        try:
            return cls(token.upper())
        except ValueError:
            raise ValueError(
                f"unknown trace op {token!r}; expected one of "
                f"{[op.value for op in cls]}"
            ) from None

    @property
    def code(self) -> int:
        """Small-integer encoding used by packed (array-backed) traces."""
        return _OP_CODES[self]


#: ``Op`` in packed-code order: ``OPS_BY_CODE[op.code] is op``.
OPS_BY_CODE = (Op.READ, Op.WRITE, Op.PIM, Op.AB)
_OP_CODES = {op: code for code, op in enumerate(OPS_BY_CODE)}


@dataclasses.dataclass
class MemRequest:
    """One transaction, from trace record to completed access.

    Attributes
    ----------
    op, addr:
        The trace-visible payload: request kind and byte address.
    timestamp:
        Optional trace arrival time in ns: the earliest instant the
        injector may present this request to its channel queue.
        ``None`` (the default) means line-rate injection.  Part of the
        trace payload, serialized by the trace layer; a replayed stream
        must be uniformly timestamped or uniformly line-rate.
    coords:
        Decoded coordinates, set when the system routes the request.
    row, bank_index:
        The two routing values the controller reads: the decoded row
        and the flat in-channel bank index (``None`` for all-bank
        PIM/AB requests).  The replay derives both from the decoded
        address arrays and writes them back with the other runtime
        fields.
    queued_hit:
        Whether this *queued* request currently hits its bank's open
        row — the controller's per-bank open-row table entry,
        maintained at admission and on every open-row change so the
        FR-FCFS selection can skip the queue scan when no queued
        request hits (see ``ChannelController._rescan_bank``).
    occupancy, opens_busy:
        Controller bookkeeping the statistics read: the channel's queue
        occupancy right after this request's admission, and whether
        its service start found the channel idle (opening a busy
        period).  Like ``queued_hit``, not written back by the fast
        path, which records both in its arrays instead.
    arrival, start_service, finish:
        Simulation timestamps (ns), ``nan`` until reached.
    outcome:
        Row-buffer outcome ("hit" / "miss" / "conflict"), set at service.
    bits:
        Data bits moved by the completed access (PIM all-bank requests
        move one page per bank).
    """

    op: Op
    addr: int
    timestamp: _t.Optional[float] = None
    coords: _t.Optional["Coordinates"] = None
    row: _t.Optional[int] = None
    bank_index: _t.Optional[int] = None
    queued_hit: bool = dataclasses.field(
        default=False, repr=False, compare=False
    )
    occupancy: int = dataclasses.field(default=0, repr=False, compare=False)
    opens_busy: bool = dataclasses.field(
        default=False, repr=False, compare=False
    )
    arrival: float = math.nan
    start_service: float = math.nan
    finish: float = math.nan
    outcome: _t.Optional[str] = None
    bits: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.op, Op):
            self.op = Op.from_mnemonic(str(self.op))
        self.addr = int(self.addr)
        if self.addr < 0:
            raise ValueError(f"address must be non-negative, got {self.addr}")
        if self.timestamp is not None:
            self.timestamp = float(self.timestamp)
            if not (
                self.timestamp >= 0.0
                and math.isfinite(self.timestamp)
            ):
                raise ValueError(
                    f"timestamp must be a non-negative finite value, "
                    f"got {self.timestamp}"
                )

    @property
    def latency(self) -> float:
        """Arrival-to-finish latency in ns (``nan`` until completed)."""
        return self.finish - self.arrival

    def same_payload(self, other: "MemRequest") -> bool:
        """Trace-level equality: op, address, and timestamp only."""
        return (
            self.op is other.op
            and self.addr == other.addr
            and self.timestamp == other.timestamp
        )

    def __repr__(self) -> str:
        return f"<MemRequest {self.op.value} {self.addr:#x}>"
