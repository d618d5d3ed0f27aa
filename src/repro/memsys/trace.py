"""Text trace format, packed traces, and synthetic trace generation.

The trace format is one request per line, in the style of the
HBM-PIMulator / Ramulator frontend traces, with an optional third
column carrying the request's arrival timestamp in nanoseconds::

    # comment, blank lines ignored
    R 0x00001a00       # host read of one transaction
    W 0x00001a20       # host write
    P 0x00000000       # PIM all-bank operation on the addressed
                       # channel/row
    R 0x00001a40 120.5 # timestamped: arrives no earlier than 120.5 ns

Addresses are hexadecimal (``0x``-prefixed) or decimal byte addresses.
Timestamps are non-negative decimals, must be non-decreasing down the
file, and must be present on either every line or none (a trace is
uniformly timestamped or uniformly line-rate; see
``docs/trace-formats.md`` for the normative grammar).  The parser and
writer round-trip exactly (op + address + timestamp), which the test
suite checks.

Two in-memory representations exist:

* a list of :class:`~repro.memsys.request.MemRequest` objects (trace
  payload only: a replay packs them first and never writes to them);
* :class:`PackedTrace` — numpy arrays (op codes, byte addresses,
  optional timestamps), the zero-object-churn form the replay consumes.
  A million-request packed trace costs ~9 MB instead of hundreds of MB
  of Python objects.

Streaming is lazy end to end: :func:`iter_trace` parses line by line
without materializing the request list, and :func:`write_trace` accepts
any request iterable and writes incrementally, so a 1M-request trace is
never held in memory twice.

:func:`synthesize_trace` bridges the synthetic address-pattern
generators of :mod:`repro.workloads.access_patterns` into request
streams, aligning each generated byte address to the system's
transaction granularity so traces exercise the mapped address bits; with
``packed=True`` it emits a :class:`PackedTrace` straight from the
generated address arrays, skipping per-request object construction
entirely.
"""

from __future__ import annotations

import io
import itertools
import math
import pathlib
import typing as _t

import numpy as np

from ..errors import ConfigError, TraceFormatError
from ..workloads import access_patterns as _patterns
from .request import MemRequest, Op, OPS_BY_CODE

if _t.TYPE_CHECKING:  # pragma: no cover
    from .system import MemSysConfig

__all__ = [
    "TRACE_PATTERNS",
    "INTERARRIVALS",
    "PackedTrace",
    "arrival_times",
    "iter_trace",
    "parse_trace",
    "format_trace",
    "write_trace",
    "synthesize_trace",
]

#: Arrival-process shapes for timestamped synthesis.
INTERARRIVALS = ("fixed", "poisson")


def arrival_times(
    n: int,
    interarrival_ns: float,
    *,
    mode: str = "fixed",
    start_ns: float = 0.0,
    rng: _t.Optional[np.random.Generator] = None,
    seed: int = 0,
) -> np.ndarray:
    """Arrival timestamps (ns) for ``n`` requests.

    ``mode="fixed"`` gives the deterministic cadence ``start_ns + i *
    interarrival_ns``; ``mode="poisson"`` draws seeded exponential
    interarrival gaps with mean ``interarrival_ns`` (a Poisson arrival
    process — the classic bursty open-queue traffic shape), so the
    ``i``-th request arrives at ``start_ns`` plus the first ``i + 1``
    gaps.  Both shapes are non-decreasing, as the trace layer requires.

    Parameters
    ----------
    n, interarrival_ns:
        Request count and mean interarrival (ns, ``>= 0``).
    mode:
        One of :data:`INTERARRIVALS`.
    start_ns:
        Offset added to every timestamp.
    rng, seed:
        Poisson gaps come from ``rng`` if given, else from
        ``numpy.random.default_rng(seed)``; ``"fixed"`` ignores both.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    if not (interarrival_ns >= 0.0 and math.isfinite(interarrival_ns)):
        raise ConfigError(
            f"interarrival_ns must be >= 0, got {interarrival_ns}"
        )
    if not (start_ns >= 0.0 and math.isfinite(start_ns)):
        raise ConfigError(f"start_ns must be >= 0, got {start_ns}")
    if mode == "fixed":
        return start_ns + interarrival_ns * np.arange(
            n, dtype=np.float64
        )
    if mode == "poisson":
        if rng is None:
            rng = np.random.default_rng(seed)
        return start_ns + np.cumsum(rng.exponential(interarrival_ns, n))
    raise ConfigError(
        f"unknown interarrival mode {mode!r}; available: "
        f"{INTERARRIVALS}"
    )


class PackedTrace:
    """An array-backed request stream: op codes, addresses, timestamps.

    Parameters
    ----------
    op_codes:
        ``uint8`` array of :data:`repro.memsys.request.OPS_BY_CODE`
        indices (``Op.code`` values).
    addrs:
        ``int64`` array of non-negative byte addresses.
    times:
        Optional ``float64`` array of arrival timestamps (ns):
        non-negative and non-decreasing.  ``None`` (the default) means
        a line-rate trace.

    Notes
    -----
    The replay consumes packed traces without creating any per-request
    objects (object traces are packed with :meth:`from_requests`
    first); :meth:`to_requests` materializes :class:`MemRequest`
    objects on demand, and iterating a packed trace yields them lazily.
    """

    __slots__ = ("op_codes", "addrs", "times")

    def __init__(
        self,
        op_codes: np.ndarray,
        addrs: np.ndarray,
        times: _t.Optional[np.ndarray] = None,
    ) -> None:
        op_codes = np.ascontiguousarray(op_codes, dtype=np.uint8)
        addrs = np.ascontiguousarray(addrs, dtype=np.int64)
        if op_codes.ndim != 1 or addrs.ndim != 1:
            raise TraceFormatError("op_codes and addrs must be 1-D arrays")
        if op_codes.shape != addrs.shape:
            raise TraceFormatError(
                f"op_codes and addrs disagree on length: "
                f"{op_codes.shape[0]} vs {addrs.shape[0]}"
            )
        if op_codes.size and int(op_codes.max()) >= len(OPS_BY_CODE):
            raise TraceFormatError("op_codes contains an unknown op code")
        if addrs.size and int(addrs.min()) < 0:
            raise TraceFormatError("addresses must be non-negative")
        if times is not None:
            times = np.ascontiguousarray(times, dtype=np.float64)
            if times.ndim != 1 or times.shape != op_codes.shape:
                raise TraceFormatError(
                    "times must be a 1-D array matching op_codes"
                )
            if times.size and not (
                float(times.min()) >= 0.0
                and bool(np.isfinite(times.max()))
            ):
                raise TraceFormatError(
                    "timestamps must be non-negative finite values"
                )
            decreasing = np.flatnonzero(np.diff(times) < 0)
            if decreasing.size:
                index = int(decreasing[0]) + 1
                raise TraceFormatError(
                    "timestamps must be non-decreasing in trace order: "
                    f"request {index}: timestamp {float(times[index])!r} "
                    f"decreases (previous was {float(times[index - 1])!r})"
                )
        self.op_codes = op_codes
        self.addrs = addrs
        self.times = times

    # ------------------------------------------------------------------
    @classmethod
    def from_requests(
        cls, requests: _t.Iterable[MemRequest]
    ) -> "PackedTrace":
        """Pack an iterable of request objects (trace payload only).

        Raises
        ------
        ValueError
            If the stream mixes timestamped and untimestamped requests
            (a trace is uniformly one or the other).
        """
        ops = []
        addrs = []
        times: _t.List[float] = []
        for request in requests:
            ops.append(request.op.code)
            addrs.append(request.addr)
            if request.timestamp is not None:
                times.append(request.timestamp)
        if times and len(times) != len(ops):
            raise TraceFormatError(
                "trace mixes timestamped and untimestamped requests; "
                "timestamp every request or none"
            )
        return cls(
            np.array(ops, dtype=np.uint8),
            np.array(addrs, dtype=np.int64),
            np.array(times, dtype=np.float64) if times else None,
        )

    def to_requests(self) -> _t.List[MemRequest]:
        """Materialize plain :class:`MemRequest` objects."""
        return list(self)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.op_codes.shape[0])

    def __iter__(self) -> _t.Iterator[MemRequest]:
        times = (
            self.times.tolist()
            if self.times is not None
            else itertools.repeat(None)
        )
        for code, addr, when in zip(
            self.op_codes.tolist(), self.addrs.tolist(), times
        ):
            yield MemRequest(OPS_BY_CODE[code], addr, when)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedTrace):
            return NotImplemented
        if (self.times is None) != (other.times is None):
            return False
        return bool(
            np.array_equal(self.op_codes, other.op_codes)
            and np.array_equal(self.addrs, other.addrs)
            and (
                self.times is None
                or np.array_equal(self.times, other.times)
            )
        )

    def __repr__(self) -> str:
        timed = " timed" if self.times is not None else ""
        return f"<PackedTrace n={len(self)}{timed}>"


def _source_lines(
    source: _t.Union[str, pathlib.Path, _t.Iterable[str]]
) -> _t.Iterator[str]:
    """Lazily yield trace lines from a file, text blob, or iterable."""
    if isinstance(source, pathlib.Path):
        with source.open("r") as handle:
            yield from handle
    elif isinstance(source, str):
        yield from io.StringIO(source)
    else:
        yield from source


def iter_trace(
    source: _t.Union[str, pathlib.Path, _t.Iterable[str]]
) -> _t.Iterator[MemRequest]:
    """Lazily parse a trace, yielding one :class:`MemRequest` per line.

    A :class:`pathlib.Path` is streamed from disk line by line (the file
    is never read whole); a ``str`` is always treated as trace *content*
    (wrap file names in ``Path`` — guessing from the string would turn a
    typo'd path into a confusing format error); any other iterable is
    consumed as lines.

    Raises
    ------
    TraceFormatError
        On malformed lines (unknown op, bad address or timestamp, wrong
        arity, decreasing timestamps, or a mix of timestamped and
        untimestamped lines), with the 1-based line number in the
        message (still a ``ValueError`` for backward compatibility).
    """
    timed: _t.Optional[bool] = None  # decided by the first data line
    last_time = 0.0
    for lineno, raw in enumerate(_source_lines(source), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise TraceFormatError(
                f"trace line {lineno}: expected 'OP ADDRESS "
                f"[TIMESTAMP]', got {raw!r}",
                lineno=lineno,
            )
        try:
            op = Op.from_mnemonic(tokens[0])
        except TraceFormatError:
            raise
        except ValueError as error:
            raise TraceFormatError(
                f"trace line {lineno}: {error}", lineno=lineno
            ) from None
        try:
            addr = int(tokens[1], 0)
        except ValueError:
            raise TraceFormatError(
                f"trace line {lineno}: bad address {tokens[1]!r}",
                lineno=lineno,
            ) from None
        if addr < 0:
            raise TraceFormatError(
                f"trace line {lineno}: negative address {tokens[1]!r}",
                lineno=lineno,
            )
        has_time = len(tokens) == 3
        if timed is None:
            timed = has_time
        elif timed != has_time:
            raise TraceFormatError(
                f"trace line {lineno}: trace mixes timestamped and "
                "untimestamped lines; timestamp every line or none",
                lineno=lineno,
            )
        when: _t.Optional[float] = None
        if has_time:
            try:
                when = float(tokens[2])
            except ValueError:
                raise TraceFormatError(
                    f"trace line {lineno}: bad timestamp {tokens[2]!r}",
                    lineno=lineno,
                ) from None
            if not (when >= 0.0 and math.isfinite(when)):
                raise TraceFormatError(
                    f"trace line {lineno}: timestamp {tokens[2]!r} "
                    "must be a non-negative finite value",
                    lineno=lineno,
                )
            if when < last_time:
                raise TraceFormatError(
                    f"trace line {lineno}: timestamp {tokens[2]!r} "
                    f"decreases (previous was {last_time!r})",
                    lineno=lineno,
                )
            last_time = when
        yield MemRequest(op, addr, when)


def parse_trace(
    source: _t.Union[str, pathlib.Path, _t.Iterable[str]],
    *,
    packed: bool = False,
) -> _t.Union[_t.List[MemRequest], PackedTrace]:
    """Parse a trace from a file, a text blob, or an iterable of lines.

    Parsing streams through :func:`iter_trace`; ``packed=True`` collects
    straight into a :class:`PackedTrace` (arrays, no request objects
    retained), otherwise a list of :class:`MemRequest` is returned.

    Raises
    ------
    ValueError
        On malformed lines, with the 1-based line number in the message.
    """
    if packed:
        return PackedTrace.from_requests(iter_trace(source))
    return list(iter_trace(source))


def format_trace(requests: _t.Iterable[MemRequest]) -> str:
    """Render requests in the text trace format (ends with a newline)."""
    out = io.StringIO()
    for line in _trace_lines(requests):
        out.write(line)
    return out.getvalue()


def _trace_lines(
    requests: _t.Iterable[MemRequest],
) -> _t.Iterator[str]:
    for request in requests:
        if request.timestamp is None:
            yield f"{request.op.value} {request.addr:#010x}\n"
        else:
            # repr() is the shortest decimal that round-trips the float
            # exactly, so write -> parse is lossless.
            yield (
                f"{request.op.value} {request.addr:#010x} "
                f"{request.timestamp!r}\n"
            )


def write_trace(
    path: _t.Union[str, pathlib.Path],
    requests: _t.Iterable[MemRequest],
) -> pathlib.Path:
    """Write requests to ``path`` (parents created); returns the path.

    ``requests`` may be any iterable (a list, a generator, or a
    :class:`PackedTrace`); lines are written incrementally, so streaming
    a trace from one file to another never materializes it in memory.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        handle.writelines(_trace_lines(requests))
    return path


#: Pattern name -> generator over (n, transaction_bytes, footprint, seed).
TRACE_PATTERNS = (
    "sequential",
    "strided",
    "random",
    "pointer_chase",
    "gups",
    "blocked_reuse",
)


def _addresses(
    pattern: str,
    n: int,
    transaction_bytes: int,
    footprint_bytes: int,
    seed: int,
    stride_transactions: int,
) -> np.ndarray:
    if pattern == "sequential":
        return _patterns.sequential_trace(
            n, word_bytes=transaction_bytes
        )
    if pattern == "strided":
        return _patterns.strided_trace(
            n, stride_bytes=stride_transactions * transaction_bytes
        )
    if pattern == "random":
        return _patterns.random_trace(
            n, footprint_bytes, seed, word_bytes=transaction_bytes
        )
    if pattern == "pointer_chase":
        return _patterns.pointer_chase_trace(
            n, footprint_bytes, seed, node_bytes=transaction_bytes
        )
    if pattern == "gups":
        return _patterns.gups_trace(
            n, footprint_bytes, seed, word_bytes=transaction_bytes
        )
    if pattern == "blocked_reuse":
        return _patterns.blocked_reuse_trace(
            n,
            block_bytes=max(transaction_bytes, footprint_bytes // 64),
            reuse_factor=4,
            word_bytes=transaction_bytes,
        )
    raise KeyError(
        f"unknown pattern {pattern!r}; available: {TRACE_PATTERNS}"
    )


def synthesize_trace(
    pattern: str,
    n: int,
    config: _t.Optional["MemSysConfig"] = None,
    *,
    footprint_bytes: _t.Optional[int] = None,
    write_fraction: float = 0.0,
    stride_transactions: int = 2,
    seed: int = 0,
    packed: bool = False,
    interarrival_ns: _t.Optional[float] = None,
    interarrival: str = "fixed",
    start_ns: float = 0.0,
) -> _t.Union[_t.List[MemRequest], PackedTrace]:
    """Generate ``n`` requests following a named access pattern.

    Address and op selection are fully vectorized; the only per-request
    Python work is materializing :class:`MemRequest` objects for the
    default list output, and ``packed=True`` skips even that, returning
    a :class:`PackedTrace` built directly from the address arrays (the
    form million-request fast-path replays consume).

    Parameters
    ----------
    pattern:
        One of :data:`TRACE_PATTERNS`.
    n:
        Number of requests.
    config:
        Memory-system geometry; sets the transaction granularity and
        the default footprint (a quarter of capacity, so random traces
        stay inside the mapped bits).  Paper-default geometry if
        omitted.
    footprint_bytes:
        Override the address footprint for the random-ish patterns.
    write_fraction:
        Fraction of requests converted to writes (deterministic via
        ``seed``).
    stride_transactions:
        Stride, in transactions, for the ``strided`` pattern.
    seed:
        RNG seed for the stochastic patterns and write selection.
    packed:
        Return a :class:`PackedTrace` instead of a list of
        :class:`MemRequest` objects.
    interarrival_ns:
        When given, emit a *timestamped* trace instead of a line-rate
        one: with the default ``interarrival="fixed"`` the ``i``-th
        request arrives at ``start_ns + i * interarrival_ns``; ``None``
        (the default) leaves the trace untimestamped.
    interarrival:
        Arrival-process shape (see :data:`INTERARRIVALS`):
        ``"fixed"`` cadence, or ``"poisson"`` for bursty traffic with
        seeded exponential interarrival gaps of mean
        ``interarrival_ns`` (drawn from the same ``seed`` stream as
        the write selection, so traces stay fully deterministic).
        Both replay tiers honor the resulting timestamps identically.
    start_ns:
        Arrival-time offset of a timestamped trace (default 0).
    """
    from .system import MemSysConfig

    if n < 1:
        raise ConfigError("n must be >= 1")
    if not 0.0 <= write_fraction <= 1.0:
        raise ConfigError("write_fraction must be in [0, 1]")
    if interarrival not in INTERARRIVALS:
        raise ConfigError(
            f"unknown interarrival mode {interarrival!r}; available: "
            f"{INTERARRIVALS}"
        )
    if interarrival != "fixed" and interarrival_ns is None:
        raise ConfigError(
            f"interarrival={interarrival!r} needs interarrival_ns "
            "(the mean gap of the arrival process)"
        )
    if interarrival_ns is not None and not (
        interarrival_ns >= 0.0 and math.isfinite(interarrival_ns)
    ):
        raise ConfigError(
            f"interarrival_ns must be >= 0, got {interarrival_ns}"
        )
    if interarrival_ns is not None and not (
        start_ns >= 0.0 and math.isfinite(start_ns)
    ):
        raise ConfigError(f"start_ns must be >= 0, got {start_ns}")
    config = config or MemSysConfig()
    transaction = config.transaction_bytes
    capacity = config.address_map().capacity_bytes
    if footprint_bytes is None:
        footprint_bytes = max(transaction, capacity // 4)
    addresses = _addresses(
        pattern, n, transaction, footprint_bytes, seed,
        stride_transactions,
    )
    addresses = np.asarray(addresses, dtype=np.int64) % capacity
    rng = np.random.default_rng(seed)
    writes = rng.random(n) < write_fraction
    op_codes = np.where(
        writes, np.uint8(Op.WRITE.code), np.uint8(Op.READ.code)
    ).astype(np.uint8)
    times: _t.Optional[np.ndarray] = None
    if interarrival_ns is not None:
        times = arrival_times(
            n,
            interarrival_ns,
            mode=interarrival,
            start_ns=start_ns,
            rng=rng,
        )
    if packed:
        return PackedTrace(op_codes, addresses, times)
    read, write = Op.READ, Op.WRITE
    time_list: _t.Iterable[_t.Optional[float]] = (
        times.tolist() if times is not None else [None] * n
    )
    return [
        MemRequest(write if is_write else read, addr, when)
        for addr, is_write, when in zip(
            addresses.tolist(), writes.tolist(), time_list
        )
    ]
