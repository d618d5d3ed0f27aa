"""Memory-system request records.

A :class:`MemRequest` is one transaction presented to the memory system:
a host read or write of one transaction granule, or a PIM all-bank
operation that commands every bank of the target channel in lockstep
(the HBM-PIM "AB mode" — the mechanism by which processing-in-memory
reclaims the aggregate row-buffer bandwidth of all banks at once).

A request is trace payload only: ``(op, addr)`` plus an optional
arrival *timestamp* (ns), exactly what the trace layer serializes.  A
replay packs request objects into a
:class:`~repro.memsys.trace.PackedTrace` and never writes to them; its
results are the per-request arrays a
:class:`~repro.telemetry.ReplayTelemetry` recorder adopts.

An untimestamped request is injected at line rate (as soon as its
queue has space); a timestamped one is additionally held back until
its timestamp — the trace-driven arrival mode that replays application
traces under their recorded traffic intensity instead of the
saturation regime.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import typing as _t

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
    """One trace record: a transaction presented to the memory system.

    Equality is payload equality: two requests are ``==`` when their
    op, address and timestamp agree.

    Attributes
    ----------
    op, addr:
        Request kind and byte address.
    timestamp:
        Optional trace arrival time in ns: the earliest instant the
        injector may present this request to its channel queue.
        ``None`` (the default) means line-rate injection.  A replayed
        stream must be uniformly timestamped or uniformly line-rate.
    """

    op: Op
    addr: int
    timestamp: _t.Optional[float] = None

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

    def __repr__(self) -> str:
        return f"<MemRequest {self.op.value} {self.addr:#x}>"
