"""The memory system's replay path.

A replay is *defined* by tier 2 below, the exact incremental replay: a
calendar of completions, admissions, wakeups and refresh retries that
drives the controllers' scheduling and bank state machines one request
at a time.  Every quantity it produces is *determined* by the trace and
the configuration, however: service durations follow from per-bank row
sequences, service starts are back-to-back while a queue is busy,
arrivals are pinned to queue-slot releases (or to explicit trace
timestamps), and refresh blackouts are a pure function of the clock.
Tier 1 exploits that determinism to replay certified traces at millions
of requests per second with the same per-request times — and
therefore, by the shared :func:`~repro.memsys.system.reduce_stats`, the
same :class:`MemSysStats`.  The timing laws of :mod:`repro.memsys.laws`
check either tier's output without calling this code.

The two tiers sit behind one entry point, :func:`replay_fast`:

**Tier 1 — vectorized closed form.**  Banks are reduced to plain
``(open_row, ready_at_ns)`` records advanced by array arithmetic:

* per-channel FIFO service order is assumed, row-buffer outcomes are
  computed in one vectorized pass (previous-same-bank row comparison —
  an open-row streak of ``L`` requests costs one activation plus ``L``
  batched page spans, charged by a single ``cumsum``; AB register
  broadcasts never touch a row buffer, so they are charged one page
  access and skipped by the outcome scan), and service finishes follow
  as sequential prefix sums of the durations;
* *line-rate* arrivals follow from the bounded queue: the ``m``-th
  request of a channel is admitted exactly when the ``(m - depth)``-th
  service *starts* (that dequeue frees its slot), so ``A[m] =
  S[m - depth]``;
* *timestamped* arrivals are taken from the trace: ``A[m] = T[m]``, and
  service starts solve the Lindley recurrence ``S[j] = max(T[j],
  F[j-1])`` — located with one vectorized running-max scan, then
  recomputed per busy segment with the exact tier's
  left-to-right float additions (:func:`_segmented_service`);
* *refresh* (per-rank tREFI/tRFC) appears as deterministic ready-time
  fences: the service stream is chunked at refresh boundaries
  (:func:`_chunked_refresh_channel`) — within an epoch starts are
  back-to-back cumsums, each boundary precharges every row buffer (the
  next chunk's outcome scan restarts from all-banks-closed), and a
  start landing inside a blackout is pushed to its end with the same
  float expression the exact tier's refresh stall produces.

Exact, conservative, and themselves vectorized *certificates* decide
whether the closed form reproduces the exact tier:

1. *FIFO certificate* (FR-FCFS only): at every selection whose head is
   not a row hit, no request in the queue window (the next
   ``queue_depth - 1`` same-channel requests — a superset of the
   visible queue) hits its bank's open row.  When that holds,
   FR-FCFS never reorders and the FIFO outcome arrays are exact.  FCFS
   and pure all-bank channels (PIM row ops and AB register broadcasts
   occupy every bank or act as scheduling barriers, so the controller
   serves them strictly in order) are FIFO by construction.  With
   refresh, the certificate runs per epoch
   chunk (row buffers restart closed) with a ``depth - 1`` lookahead
   into the next chunk.
2. *Line-rate certificate* (untimestamped traces): the arrival
   candidates ``A[m] = S[m - depth]`` must be non-decreasing in trace
   order.  Then the injector never stalls one channel on another's
   full queue and the closed-form times solve the exact recurrences
   exactly.  When it *fails* on a FIFO-certified trace (e.g. random
   traffic under FCFS — the channel imbalance starves queues), the
   arrivals are instead solved to a fixed point of the coupled
   injector/service recurrences (:func:`_arrival_fixed_point`), which
   converges to the exact tier's values or falls back.
3. *Backpressure certificate* (timestamped traces): every arrival must
   find a free queue slot, ``T[j] >= S[j - depth]`` per channel; then
   arrivals equal the trace timestamps exactly.

Streaming, strided, and all-bank (PIM and AB) traces pass the
certificates with or without refresh; timestamped traces pass whenever
their arrival rate keeps queues from overflowing; FCFS random traffic
is certified through the arrival fixed point.  Refresh at per-bank
granularity, refresh combined with timestamps, and channels that mix
host requests with all-bank commands always take tier 2.

**Tier 2 — exact incremental replay.**  Traces that fail a certificate
(e.g. random traffic under FR-FCFS, whose stray row hits let the
scheduler reorder) take the discrete replay: plain tuples on a heap in
``(time, priority, insertion)`` order drive the controller bookkeeping
(:meth:`ChannelController._admit` / ``_service_delay`` /
``_begin_service``) and the Bank state machines.  Requests travel as
slotted records built in one pass from the decoded arrays (op,
timestamp, row, flat bank index), never as :class:`MemRequest` /
``Coordinates`` objects.  Trace timestamps become absolute-time
injector resumptions; refresh stalls become retry occurrences at the
blackout end, gated by the shared ``_service_delay`` arithmetic.

The tiers differ in one recorded stamp: the vectorized tier's admission
occupancies (the ``max_queue_length`` gauge) count a service starting
at an admission's instant as still queued, which can exceed the exact
tier's by one transient slot (see :func:`_plan_arrays`).  Per-request
runtime fields (coords, routing, timestamps, outcome, bits) are written
back once, after the replay, for object traces but not for
:class:`~repro.memsys.trace.PackedTrace` inputs, which never
materialize request objects at all.
"""

from __future__ import annotations

import heapq
import itertools
import math
import typing as _t

import numpy as np

from ..telemetry.latency import ALL_BANKS, OUTCOME_NAMES
from ..telemetry.profile import null_phase
from .addrmap import Coordinates
from .bank import CLOSED, OUTCOMES, PER_RANK, latency_table
from .controller import FRFCFS
from .request import MemRequest, OPS_BY_CODE, Op
from .system import _finish_replay, _gather, request_bits
from .trace import PackedTrace

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..telemetry import ReplayTelemetry
    from .bank import RefreshSchedule
    from .system import MemorySystem, MemSysStats

__all__ = ["replay_fast"]

#: Outcome codes, aligned with :data:`repro.memsys.bank.OUTCOMES`; the
#: AB register broadcast never touches a row buffer, so the bank module
#: doesn't know it — its code 3 aligns with the telemetry layer's
#: :data:`repro.telemetry.OUTCOME_NAMES` instead.
_HIT, _MISS, _CONFLICT, _BROADCAST = 0, 1, 2, 3
_PIM_CODE = Op.PIM.code
_AB_CODE = Op.AB.code

#: Tier-2 calendar vocabulary: priorities and occurrence kinds.
_URGENT, _NORMAL = 0, 1
_COMPLETE, _INJECT, _WAKEUP, _RETRY = 0, 1, 2, 3

#: Requests per block of the object write-back.
_WRITE_BACK_CHUNK = 4096

#: Iteration cap for the arrival fixed point (each iteration is one
#: vectorized pass; stalled-arrival chains longer than this are rare
#: enough to leave to the exact tier).
_MAX_ARRIVAL_ITERS = 64


def replay_fast(
    system: "MemorySystem",
    trace: _t.Union[_t.Sequence[MemRequest], PackedTrace],
    telemetry: _t.Optional["ReplayTelemetry"] = None,
) -> "MemSysStats":
    """Replay ``trace`` through ``system``.

    Called by :meth:`MemorySystem.replay`; picks the vectorized closed
    form when its certificates hold and the exact incremental replay
    otherwise.  Either tier ends with the trace-ordered per-request
    arrays, which the shared :func:`~repro.memsys.system.reduce_stats`
    turns into statistics; the banks are left with the counters and
    open rows the exact replay leaves.

    With ``telemetry`` attached, its profiler times the four phases
    (``decode`` / ``certificate`` / ``tier-execute`` /
    ``stats-gather``) and its latency recorder adopts the arrays.
    Capture never perturbs the replay arithmetic.

    The exact tier replays slotted per-request records built from the
    decoded arrays for packed and object traces alike.  For an object
    trace, both tiers then write the runtime fields (``coords``,
    ``row``, ``bank_index``, times, ``outcome``, ``bits``) back onto
    the caller's :class:`MemRequest` objects in one pass.
    """
    profiler = telemetry.profiler if telemetry is not None else None
    phase = profiler.phase if profiler is not None else null_phase
    engine, arrays = _run_tier(system, trace, phase)
    system.last_replay_engine = engine
    return _finish_replay(
        system.config, engine, arrays, system.row_counts(), telemetry
    )


def _run_tier(
    system: "MemorySystem",
    trace: _t.Union[_t.Sequence[MemRequest], PackedTrace],
    phase: _t.Callable[[str], _t.ContextManager[None]],
) -> _t.Tuple[str, _t.Dict[str, np.ndarray]]:
    """Decode, certify, and replay on one tier; returns ``(engine,
    trace-ordered arrays)``.  The decode temporaries die with this
    frame, before the reduction allocates its own."""
    with phase("decode"):
        if isinstance(trace, PackedTrace):
            requests: _t.Optional[_t.List[MemRequest]] = None
            op_codes = trace.op_codes.astype(np.int64)
            addrs = trace.addrs
            times = trace.times
        else:
            requests = list(trace)
            n = len(requests)
            op_codes = np.fromiter(
                (r.op.code for r in requests), dtype=np.int64, count=n
            )
            addrs = np.fromiter(
                (r.addr for r in requests), dtype=np.int64, count=n
            )
            # uniform presence was validated by MemorySystem.replay
            if requests and requests[0].timestamp is not None:
                times = np.fromiter(
                    (r.timestamp for r in requests),
                    dtype=np.float64,
                    count=n,
                )
            else:
                times = None
        fields = system.addr_map.decode_fields(addrs)
        config = system.config
        n_banks = config.banks_per_channel
        flat_bank = (
            fields["bankgroup"] * config.banks_per_group + fields["bank"]
        ) % n_banks

    with phase("certificate"):
        plan = _vector_plan(
            system,
            op_codes,
            fields["channel"],
            flat_bank,
            fields["row"],
            times,
        )
    with phase("tier-execute"):
        bank_index = (
            _bank_indices(op_codes, flat_bank)
            if plan is None or requests is not None
            else None
        )
        if plan is not None:
            engine = "fast-vectorized"
            _commit_banks(system, plan)
            arrays = _plan_arrays(
                plan, op_codes.shape[0], config.queue_depth
            )
            del plan
        else:
            engine = "fast-exact"
            records = list(
                map(
                    _Record,
                    map(OPS_BY_CODE.__getitem__, op_codes.tolist()),
                    (
                        itertools.repeat(None)
                        if times is None
                        else times.tolist()
                    ),
                    fields["row"].tolist(),
                    bank_index,
                )
            )
            _replay_exact(system, records, fields["channel"])
            arrays = _gather(records)
            # free the records before a write-back allocates coords
            del records
        if requests is not None:
            _write_back(
                requests, fields, bank_index, arrays,
                request_bits(config, op_codes),
            )
        arrays.update(
            _routing_arrays(
                op_codes, fields["channel"], fields["row"], flat_bank
            )
        )
    return engine, arrays


# ----------------------------------------------------------------------
# Tier 1: vectorized closed form
# ----------------------------------------------------------------------
def _vector_plan(
    system: "MemorySystem",
    op_codes: np.ndarray,
    channel: np.ndarray,
    flat_bank: np.ndarray,
    row: np.ndarray,
    times: _t.Optional[np.ndarray],
) -> _t.Optional[_t.List[_t.Optional[dict]]]:
    """Try to solve the whole replay in closed form.

    Returns one record per channel (``None`` entries for idle channels)
    with FIFO outcome codes and the ``A``/``S``/``F`` time arrays, or
    ``None`` when a certificate fails and the exact tier must run.
    """
    config = system.config
    depth = config.queue_depth
    refresh = config.refresh_schedule()
    if refresh is not None and (
        refresh.granularity != PER_RANK or times is not None
    ):
        # per-bank blackouts depend on the selected request, and fences
        # interleaved with trace arrivals break the segmented solvers:
        # both are served exactly by tier 2
        return None
    n = op_codes.shape[0]
    table = latency_table(config.timing, config.precharge_ns)
    # index _BROADCAST charges the AB register broadcast: one column
    # access on the command/data bus — the same page_access_ns the
    # controller's _serve returns (== the row-hit latency)
    latencies = np.array(
        [table[name] for name in OUTCOMES] + [table[OUTCOMES[_HIT]]]
    )
    n_banks = config.banks_per_channel
    closed = config.row_policy == CLOSED
    frfcfs = config.policy == FRFCFS
    plan: _t.List[_t.Optional[dict]] = []
    for ch in range(config.n_channels):
        idx = np.nonzero(channel == ch)[0]
        n_c = int(idx.shape[0])
        if n_c == 0:
            plan.append(None)
            continue
        bank_c = flat_bank[idx]
        row_c = row[idx]
        codes_c = op_codes[idx]
        pim = codes_c == _PIM_CODE
        ab = codes_c == _AB_CODE
        any_pim = bool(pim.any())
        any_ab = bool(ab.any())
        if (any_pim or any_ab) and not bool((pim | ab).all()):
            # host requests interleaved with all-bank commands: the
            # FR-FCFS hoist and the AB barrier interact per selection —
            # exact tier only
            return None
        # ab_c is None for host-only channels; for all-bank channels it
        # marks the AB broadcasts within the PIM/AB lockstep stream
        ab_c = ab if (any_pim or any_ab) else None
        check_fifo = (
            frfcfs and depth > 1 and ab_c is None and not closed
        )
        data: dict = {"idx": idx}
        if refresh is not None:
            chunked = _chunked_refresh_channel(
                refresh,
                bank_c,
                row_c,
                ab_c,
                closed,
                latencies,
                depth,
                n_banks,
                check_fifo,
            )
            if chunked is None:
                return None
            data.update(chunked)
        else:
            outcome = _chunk_outcomes(bank_c, row_c, ab_c, closed)
            bank_counts, open_final = _bank_state(
                bank_c, row_c, ab_c, closed, outcome, n_banks
            )
            if check_fifo and not _fifo_certificate(
                bank_c, row_c, outcome, depth, n_banks
            ):
                return None
            durations = latencies[outcome]
            data.update(
                outcome=outcome,
                bank_counts=bank_counts,
                open_final=open_final,
                durations=durations,
            )
            if times is not None:
                t_c = times[idx]
                solved = _segmented_service(t_c, durations)
                if solved is None:
                    return None
                start, finish = solved
                if n_c > depth and bool(
                    np.any(t_c[depth:] < start[: n_c - depth])
                ):
                    # backpressure certificate: an arrival would find
                    # its queue full — the injector would stall
                    return None
                data.update(arrival=t_c, start=start, finish=finish)
            else:
                finish = _seq_cumsum(0.0, durations)
                start = np.empty(n_c)
                start[0] = 0.0
                start[1:] = finish[:-1]
                data.update(start=start, finish=finish)
        plan.append(data)

    if times is not None:
        return plan

    # Line-rate arrivals: A[m] = S[m - depth] per channel, valid when
    # the candidates are non-decreasing in trace order (the injector
    # never stalls one channel behind another's full queue).
    arrivals_global = np.zeros(n)
    for data in plan:
        if data is None:
            continue
        idx = data["idx"]
        start = data["start"]
        n_c = idx.shape[0]
        arrival = np.zeros(n_c)
        if n_c > depth:
            arrival[depth:] = start[: n_c - depth]
        data.update(arrival=arrival, line_rate=True)
        arrivals_global[idx] = arrival
    if n <= 1 or not bool(np.any(np.diff(arrivals_global) < 0)):
        return plan
    if refresh is not None:
        # fences inside the coupled arrival recurrence: exact tier
        return None
    # The line-rate certificate failed on a FIFO-certified trace (FCFS,
    # or FR-FCFS that passed the FIFO certificate): solve the coupled
    # injector/service recurrences to their fixed point instead.
    busy = [
        (data["idx"], data["durations"])
        for data in plan
        if data is not None
    ]
    fixed = _arrival_fixed_point(n, busy, depth)
    if fixed is None:
        return None
    arrivals, solved = fixed
    cursor = 0
    for data in plan:
        if data is None:
            continue
        start, finish = solved[cursor]
        cursor += 1
        data.update(
            arrival=arrivals[data["idx"]],
            start=start,
            finish=finish,
            line_rate=False,
        )
    return plan


def _chunk_outcomes(
    bank_c: np.ndarray,
    row_c: np.ndarray,
    ab_c: _t.Optional[np.ndarray],
    closed: bool,
) -> np.ndarray:
    """FIFO row-buffer outcome codes for one all-banks-closed stream.

    The request slice is served in order starting from closed row
    buffers — a whole channel without refresh, or one refresh epoch
    chunk (each boundary precharges every bank, so every chunk restarts
    from the same state).  ``ab_c`` is ``None`` for a host-only stream;
    for an all-bank stream it marks the AB register broadcasts, which
    are charged code :data:`_BROADCAST`, never touch a row buffer, and
    therefore pass through the PIM row scan without disturbing it.
    Outcomes are prefix-stable: request ``j``'s code only looks at
    earlier requests of the slice.
    """
    n_c = bank_c.shape[0]
    if closed:
        # Auto-precharge: every row access activates a fresh row — all
        # misses, never a hit or conflict, so FR-FCFS has nothing to
        # hoist (FIFO by construction) and all banks end closed.  AB
        # broadcasts bypass the row buffers under any policy.
        outcome = np.full(n_c, _MISS, dtype=np.int64)
        if ab_c is not None:
            outcome[ab_c] = _BROADCAST
        return outcome
    if ab_c is not None:
        # All-bank lockstep: every bank holds the previous PIM row, so
        # outcomes are uniform across banks and follow from the PIM row
        # subsequence alone; AB broadcasts never open or close a row.
        outcome = np.full(n_c, _BROADCAST, dtype=np.int64)
        pim_rows = row_c[~ab_c]
        m = pim_rows.shape[0]
        pim_out = np.empty(m, dtype=np.int64)
        if m:
            pim_out[0] = _MISS
            pim_out[1:] = np.where(
                pim_rows[1:] == pim_rows[:-1], _HIT, _CONFLICT
            )
        outcome[~ab_c] = pim_out
        return outcome
    # FIFO row-buffer outcomes: compare each request's row with the
    # previous request on the same bank (stable sort groups banks while
    # preserving service order within each).
    order = np.argsort(bank_c, kind="stable")
    sorted_bank = bank_c[order]
    sorted_row = row_c[order]
    prev_sorted = np.full(n_c, -1, dtype=np.int64)
    if n_c > 1:
        same = sorted_bank[1:] == sorted_bank[:-1]
        prev_sorted[1:][same] = sorted_row[:-1][same]
    prev_row = np.empty(n_c, dtype=np.int64)
    prev_row[order] = prev_sorted
    return np.where(
        row_c == prev_row,
        _HIT,
        np.where(prev_row < 0, _MISS, _CONFLICT),
    )


def _bank_state(
    bank_c: np.ndarray,
    row_c: np.ndarray,
    ab_c: _t.Optional[np.ndarray],
    closed: bool,
    outcome: np.ndarray,
    n_banks: int,
) -> _t.Tuple[np.ndarray, _t.List[_t.Optional[int]]]:
    """``(per-bank outcome counts, final open rows)`` after serving a
    slice whose :func:`_chunk_outcomes` codes are ``outcome``."""
    if ab_c is not None:
        # lockstep: every bank sees the PIM subsequence
        pim = ~ab_c
        counts = np.tile(np.bincount(outcome[pim], minlength=3), (n_banks, 1))
        pim_rows = row_c[pim]
        last: _t.Optional[int] = (
            int(pim_rows[-1]) if pim_rows.shape[0] and not closed else None
        )
        return counts, [last] * n_banks
    counts = np.bincount(
        bank_c * 3 + outcome, minlength=3 * n_banks
    ).reshape(n_banks, 3)
    if closed:
        return counts, [None] * n_banks
    # each bank holds the row of its latest request
    latest = np.full(n_banks, -1, dtype=np.int64)
    np.maximum.at(latest, bank_c, np.arange(bank_c.shape[0]))
    return counts, [
        None if j < 0 else int(row_c[j]) for j in latest.tolist()
    ]


def _chunked_refresh_channel(
    refresh: "RefreshSchedule",
    bank_c: np.ndarray,
    row_c: np.ndarray,
    ab_c: _t.Optional[np.ndarray],
    closed: bool,
    latencies: np.ndarray,
    depth: int,
    n_banks: int,
    check_fifo: bool,
) -> _t.Optional[dict]:
    """Line-rate service times under per-rank refresh, epoch by epoch.

    Each refresh boundary precharges every row buffer, so the outcome
    scan restarts from all-banks-closed at every chunk; a service start
    landing inside the blackout ``[k*tREFI, k*tREFI + tRFC)`` is pushed
    to its end with the exact tier's own stall arithmetic
    (``now + (fence - now)``).  The FIFO certificate runs once over the
    whole channel on the refresh-aware outcomes, with chunk labels
    cancelling open rows across boundaries (queue windows still cross
    them).  Returns ``None`` when the FIFO certificate fails.
    """
    n_c = bank_c.shape[0]
    trefi = refresh.trefi_ns
    # at most trefi/min-duration services can *start* within one epoch
    # (back-to-back starts are at least one service apart), bounding
    # the outcome-scan window so the chunk loop stays O(n) overall
    limit = int(trefi / float(latencies.min())) + 2
    outcome = np.empty(n_c, dtype=np.int64)
    start = np.empty(n_c)
    finish = np.empty(n_c)
    chunk_id = np.empty(n_c, dtype=np.int64)
    i = 0
    tail_start = 0
    chunk = 0
    epoch_applied = 0
    window = limit
    t = 0.0  # finish time of the previous service
    while i < n_c:
        s = t if i else 0.0
        epoch = int(math.floor(s / trefi))
        if epoch > epoch_applied:
            epoch_applied = epoch  # the boundary closes every bank
            fence = refresh.rank_fence(s)
            if fence > s:
                s = s + (fence - s)  # the exact tier's stall
        # scan a window sized from the previous epoch; when no boundary
        # falls inside it, widen to the bound (outcomes are
        # prefix-stable, so the wider scan restarts from the same state)
        window = min(n_c - i, window)
        while True:
            out_w = _chunk_outcomes(
                bank_c[i : i + window],
                row_c[i : i + window],
                None if ab_c is None else ab_c[i : i + window],
                closed,
            )
            f_w = _seq_cumsum(s, latencies[out_w])
            s_w = np.empty(window)
            s_w[0] = s
            s_w[1:] = f_w[:-1]
            crossed = np.floor(s_w / trefi) > epoch_applied
            if bool(crossed.any()) or window == n_c - i:
                break
            if window >= limit:  # pragma: no cover - defensive
                # the window bound guarantees a boundary crossing before
                # it runs out; bail to the exact tier rather than
                # continue a chunk on stale bank state if float edges
                # ever break that
                return None
            window = min(n_c - i, limit)
        k = int(np.argmax(crossed)) if bool(crossed.any()) else window
        if k == 0:  # pragma: no cover - defensive (float edge)
            return None
        outcome[i : i + k] = out_w[:k]
        start[i : i + k] = s_w[:k]
        finish[i : i + k] = f_w[:k]
        chunk_id[i : i + k] = chunk
        chunk += 1
        t = float(f_w[k - 1])
        tail_start = i
        i += k
        window = 2 * k
    if check_fifo and not _fifo_certificate(
        bank_c, row_c, outcome, depth, n_banks, chunk_id=chunk_id
    ):
        return None
    # counts add up over the chunks' disjoint slices; every boundary
    # precharges every bank, so the open rows are the last chunk's
    bank_counts, _ = _bank_state(
        bank_c, row_c, ab_c, closed, outcome, n_banks
    )
    tail = slice(tail_start, n_c)
    _, open_final = _bank_state(
        bank_c[tail],
        row_c[tail],
        None if ab_c is None else ab_c[tail],
        closed,
        outcome[tail],
        n_banks,
    )
    return {
        "outcome": outcome,
        "start": start,
        "finish": finish,
        "bank_counts": bank_counts,
        "open_final": open_final,
    }


def _seq_cumsum(s: float, durations: np.ndarray) -> np.ndarray:
    """Prefix sums of ``durations`` starting from ``s``.

    Computed as one ``cumsum`` over ``[s, d0, d1, ...]``, which
    performs exactly the left-to-right float additions the exact
    tier's ``now + latency`` clock does — the core of the fast
    path's bit-exactness.
    """
    buffer = np.empty(durations.shape[0] + 1)
    buffer[0] = s
    buffer[1:] = durations
    return np.cumsum(buffer)[1:]


def _segmented_service(
    earliest: np.ndarray, durations: np.ndarray
) -> _t.Optional[_t.Tuple[np.ndarray, np.ndarray]]:
    """Solve ``S[j] = max(E[j], F[j-1])``, ``F = S + d`` exactly.

    ``earliest`` is the per-request lower bound on service start (trace
    timestamps, or injector admission times).  Busy segments are
    located with one vectorized Lindley running-max scan (closed-form,
    but float-associated differently than the exact tier), then finish
    times are *recomputed* per segment with the exact tier's sequential
    additions (:func:`_seq_cumsum`) and the segmentation is verified
    against the exact values.  Returns ``(start, finish)``, or ``None``
    if an ulp-level misordering in the approximate scan produced an
    inconsistent segmentation (the caller falls back to the exact
    tier).
    """
    n = durations.shape[0]
    prefix = np.empty(n)
    prefix[0] = 0.0
    if n > 1:
        np.cumsum(durations[:-1], out=prefix[1:])
    approx_start = prefix + np.maximum.accumulate(earliest - prefix)
    seg_mask = np.empty(n, dtype=bool)
    seg_mask[0] = True
    if n > 1:
        seg_mask[1:] = earliest[1:] > approx_start[:-1] + durations[:-1]
    seg_idx = np.nonzero(seg_mask)[0]
    start = np.empty(n)
    finish = np.empty(n)
    if seg_idx.shape[0] == n:
        # every request finds the channel idle (sparse arrivals): one
        # elementwise pass, the same single addition the exact tier does
        start[:] = earliest
        np.add(earliest, durations, out=finish)
    else:
        bounds = np.r_[seg_idx, n].tolist()
        for a, b in zip(bounds[:-1], bounds[1:]):
            f = _seq_cumsum(float(earliest[a]), durations[a:b])
            finish[a:b] = f
            start[a] = earliest[a]
            start[a + 1 : b] = f[:-1]
    if n > 1:
        # a segment start must find the channel idle (E >= previous
        # exact finish); a continuation must not (E <= it) — ties are
        # value-identical either way, so only real misorderings fail
        consistent = np.where(
            seg_mask[1:],
            earliest[1:] >= finish[:-1],
            earliest[1:] <= finish[:-1],
        )
        if not bool(consistent.all()):
            return None
    return start, finish


def _arrival_fixed_point(
    n: int,
    channels: _t.Sequence[_t.Tuple[np.ndarray, np.ndarray]],
    depth: int,
) -> _t.Optional[
    _t.Tuple[np.ndarray, _t.List[_t.Tuple[np.ndarray, np.ndarray]]]
]:
    """Solve the coupled injector/service recurrences by iteration.

    Line-rate injection with bounded queues couples the channels: the
    injector admits request ``m`` at ``A[m] = max(A[m-1], R[m])``
    (``R[m]`` = the service start that frees its channel's queue slot),
    while each channel serves FIFO at ``S[j] = max(A[j], F[j-1])``.
    Both maps are monotone, so Kleene iteration from ``A = 0`` —
    alternating exact per-channel service solves with the global
    running-max admission scan — converges to the least fixed point,
    which is exactly the exact tier's trajectory (the values
    propagate through ``max`` unchanged and the busy-segment sums use
    its own addition order).  Returns ``(arrivals, [(start,
    finish), ...])`` aligned with ``channels``, or ``None``
    after :data:`_MAX_ARRIVAL_ITERS` without convergence.
    """
    arrivals = np.zeros(n)
    for _ in range(_MAX_ARRIVAL_ITERS):
        releases = np.zeros(n)
        solved = []
        for idx, durations in channels:
            result = _segmented_service(arrivals[idx], durations)
            if result is None:
                return None
            solved.append(result)
            n_c = idx.shape[0]
            if n_c > depth:
                releases[idx[depth:]] = result[0][: n_c - depth]
        updated = np.maximum.accumulate(releases)
        if np.array_equal(updated, arrivals):
            return arrivals, solved
        arrivals = updated
    return None


def _fifo_certificate(
    bank_c: np.ndarray,
    row_c: np.ndarray,
    outcome: np.ndarray,
    depth: int,
    n_banks: int,
    chunk_id: _t.Optional[np.ndarray] = None,
) -> bool:
    """Would FR-FCFS ever reorder this channel's FIFO stream?

    At a selection whose queue head *is* a row hit, FR-FCFS picks the
    oldest hit — the head itself.  So reordering can only start at a
    selection with a non-hit head and some younger queued request
    hitting its bank's open row.  The queue visible at the selection of
    request ``k`` is at most requests ``k+1 .. k+depth-1`` of the same
    channel (exactly those under line-rate injection — the
    ``k+depth``-th slot is released by this very dequeue and its
    admission is processed after the selection; a subset under
    timestamped or stalled arrivals, so the check stays conservative),
    making the check below exact-or-conservative while states still
    follow FIFO — and the first would-be deviation is necessarily
    detected.

    With refresh enabled, ``chunk_id`` labels each request's epoch
    chunk and ``outcome`` holds the refresh-aware (per-chunk) codes: a
    previous same-bank access in an *earlier* chunk left nothing open
    (the boundary precharged the bank), so it contributes no open row —
    while the queue window still crosses chunk boundaries, because
    requests of the next epoch are already queued at an in-chunk
    selection.
    """
    heads = np.nonzero(outcome != _HIT)[0]
    if heads.size == 0:
        return True
    n_c = bank_c.shape[0]
    # open_at_head[i, b]: row open in bank b just before serving
    # heads[i] — evaluated only at the (sparse) non-hit selections, via
    # a binary search into each bank's occurrence list.
    open_at_head = np.full((heads.shape[0], n_banks), -1, dtype=np.int64)
    for b in range(n_banks):
        occurrences = np.nonzero(bank_c == b)[0]
        if occurrences.size == 0:
            continue
        before = np.searchsorted(occurrences, heads)  # strictly before
        has_prior = before > 0
        prior = occurrences[before[has_prior] - 1]
        rows = row_c[prior]
        if chunk_id is not None:
            rows = np.where(
                chunk_id[prior] == chunk_id[heads[has_prior]],
                rows,
                -1,
            )
        open_at_head[has_prior, b] = rows
    for offset in range(1, depth):
        queued = heads + offset
        in_range = queued < n_c
        if not bool(in_range.any()):
            break
        at = np.nonzero(in_range)[0]
        queued = queued[in_range]
        if bool(
            np.any(row_c[queued] == open_at_head[at, bank_c[queued]])
        ):
            return False
    return True


def _commit_banks(
    system: "MemorySystem", plan: _t.List[_t.Optional[dict]]
) -> None:
    """Leave every bank with the counters and open row the exact tier
    would leave behind."""
    for controller, data in zip(system.controllers, plan):
        if data is None:
            continue
        for bank, counts, open_row in zip(
            controller.banks, data["bank_counts"], data["open_final"]
        ):
            bank.hits = int(counts[_HIT])
            bank.misses = int(counts[_MISS])
            bank.conflicts = int(counts[_CONFLICT])
            bank.open_row = open_row


def _plan_arrays(
    plan: _t.List[_t.Optional[dict]], n: int, depth: int
) -> _t.Dict[str, np.ndarray]:
    """Trace-ordered stamps of the plan's channels.

    The closed form serves each channel in FIFO order, so a service
    start finds the channel idle exactly when its request arrived after
    the previous completion.  On a tie the exact tier's choice
    depends on its calendar order, but that only matters when a refresh
    stall follows, and refresh reaches this tier only with line-rate
    arrivals, which never idle a channel: ``A[m] = S[m - depth]``
    precedes ``F[m - 1]``.  The admission occupancy counts services
    starting at the admission's instant as still queued (admission
    first), clipped at the queue depth a full queue cannot exceed; on
    such ties it can exceed the exact tier's by one transient slot.
    Under line-rate arrivals that count is ``min(m + 1, depth)``.
    """
    arrays = {
        "arrival": np.empty(n),
        "start_service": np.empty(n),
        "finish": np.empty(n),
        "outcome": np.empty(n, dtype=np.int64),
        "occupancy": np.full(n, depth, dtype=np.int32),
        "opens_busy": np.zeros(n, dtype=np.bool_),
    }
    for data in plan:
        if data is None:
            continue
        idx = data["idx"]
        arrival = data["arrival"]
        start = data["start"]
        finish = data["finish"]
        arrays["arrival"][idx] = arrival
        arrays["start_service"][idx] = start
        arrays["finish"][idx] = finish
        arrays["outcome"][idx] = data["outcome"]
        arrays["opens_busy"][idx[0]] = True
        if data.get("line_rate"):
            arrays["occupancy"][idx[:depth]] = np.arange(
                1, min(idx.shape[0], depth) + 1
            )
            continue
        queued = np.arange(1, idx.shape[0] + 1) - np.searchsorted(
            start, arrival, side="left"
        )
        arrays["occupancy"][idx] = np.minimum(queued, depth)
        arrays["opens_busy"][idx[1:]] = arrival[1:] > finish[:-1]
    return arrays


def _routing_arrays(
    op_codes: np.ndarray,
    channel: np.ndarray,
    row: np.ndarray,
    flat_bank: np.ndarray,
) -> _t.Dict[str, np.ndarray]:
    """The four routing arrays of a replay, from the decoded arrays.

    ``bank`` is the flat bank index, :data:`ALL_BANKS` for all-bank
    PIM/AB operations.
    """
    all_bank = (op_codes == _PIM_CODE) | (op_codes == _AB_CODE)
    return {
        "channel": channel.astype(np.int64, copy=False),
        "bank": np.where(all_bank, ALL_BANKS, flat_bank).astype(
            np.int64, copy=False
        ),
        "row": row.astype(np.int64, copy=False),
        "op": op_codes.astype(np.int64, copy=False),
    }


def _bank_indices(
    op_codes: np.ndarray, flat_bank: np.ndarray
) -> _t.List[_t.Optional[int]]:
    """Per-request flat bank index, ``None`` for all-bank PIM/AB — the
    ``bank_index`` the controllers read."""
    index = flat_bank.astype(object)
    index[(op_codes == _PIM_CODE) | (op_codes == _AB_CODE)] = None
    return index.tolist()


def _write_back(
    requests: _t.List[MemRequest],
    fields: _t.Dict[str, np.ndarray],
    bank_index: _t.List[_t.Optional[int]],
    arrays: _t.Dict[str, np.ndarray],
    bits: np.ndarray,
) -> None:
    """Fill a caller's request objects from trace-ordered columns.

    Shared by both tiers, once per replay: sets every runtime field
    (coords, routing, times, outcome, bits).
    """
    columns = (
        fields["channel"], fields["bankgroup"], fields["bank"],
        fields["row"], fields["column"], arrays["arrival"],
        arrays["start_service"], arrays["finish"], arrays["outcome"], bits,
    )
    # chunked, so the Python-object columns never all exist at once
    for lo in range(0, len(requests), _WRITE_BACK_CHUNK):
        hi = lo + _WRITE_BACK_CHUNK
        for (
            request, index, ch, bg, bk, ro, col, arr, st, fin, out, nbits
        ) in zip(
            requests[lo:hi],
            bank_index[lo:hi],
            *(column[lo:hi].tolist() for column in columns),
        ):
            request.coords = Coordinates(ch, bg, bk, ro, col)
            request.row = ro
            request.bank_index = index
            request.arrival = arr
            request.start_service = st
            request.finish = fin
            request.outcome = OUTCOME_NAMES[out]
            request.bits = nbits


# ----------------------------------------------------------------------
# Tier 2: exact incremental replay
# ----------------------------------------------------------------------
class _Record:
    """One request as the exact tier's controllers see it.

    A flat slotted record built from the decoded arrays: the fields the
    shared controller code reads (``op``, ``timestamp``, and the
    routing values ``row`` / ``bank_index``) and the runtime fields it
    writes (``queued_hit``, ``occupancy``, ``arrival``,
    ``start_service``, ``opens_busy``, ``finish``, ``outcome``,
    ``bits``; unset until the replay reaches them).  Unlike
    a :class:`MemRequest` it needs no address validation, decoded
    :class:`Coordinates`, or field-wise equality.
    """

    __slots__ = (
        "op", "timestamp", "row", "bank_index", "queued_hit",
        "occupancy", "arrival", "start_service", "opens_busy", "finish",
        "outcome", "bits",
    )

    def __init__(
        self,
        op: Op,
        timestamp: _t.Optional[float],
        row: int,
        bank_index: _t.Optional[int],
    ) -> None:
        self.op = op
        self.timestamp = timestamp
        self.row = row
        self.bank_index = bank_index


def _replay_exact(
    system: "MemorySystem",
    records: _t.List[_Record],
    channel: np.ndarray,
) -> None:
    """Replay in exact scheduling order: the definition of a replay.

    A heap of plain ``(time, priority, seq, kind, channel, request)``
    tuples keeps a ``(time, priority, insertion-order)`` calendar of
    the only occurrences that carry state: request completions,
    injector resumptions (a freed queue slot, or a trace timestamp
    coming due), controller wakeups (an enqueue into an idle channel),
    and refresh retries (a selection stalled to the end of a blackout
    window).  Every request passes through the controller and bank
    methods — including the :meth:`ChannelController._service_delay`
    refresh gate.

    Occurrences are drained in *rounds*: each outer iteration reads the
    heap's earliest timestamp once and pops every candidate ready at
    that instant (completions, the injector resumption they release,
    and the wakeups those admissions trigger all coincide in this
    workload), so the common completion→inject→wakeup cascade costs one
    round instead of three top-of-loop passes.  Pops stay globally
    ordered by ``(time, priority, seq)`` — a round is just the
    same-time prefix of the calendar — so the recorded times are
    unchanged.
    """
    controllers = system.controllers
    depth = system.config.queue_depth
    idle = [True] * len(controllers)
    woken = [False] * len(controllers)
    heap: _t.List[tuple] = []
    push = heapq.heappush
    seq = itertools.count()
    channel_of = channel.tolist()
    n = len(records)
    cursor = 0  # next request the injector will admit
    blocked_on = -1  # channel whose full queue blocks the injector

    def attempt_service(ch: int, at: float) -> None:
        """Start the next service on ``ch``, or schedule a refresh
        retry — the controller's gated service loop."""
        nonlocal blocked_on
        controller = controllers[ch]
        delay = controller._service_delay(at)
        if delay > 0.0:
            push(heap, (at + delay, _NORMAL, next(seq), _RETRY, ch, None))
            return
        served, latency = controller._begin_service(at)
        if blocked_on == ch:
            blocked_on = -1
            push(heap, (at, _NORMAL, next(seq), _INJECT, -1, None))
        push(
            heap,
            (at + latency, _NORMAL, next(seq), _COMPLETE, ch, served),
        )

    push(heap, (0.0, _URGENT, next(seq), _INJECT, -1, None))
    pop = heapq.heappop
    while heap:
        round_time = heap[0][0]
        while heap and heap[0][0] == round_time:
            now, _prio, _seq, kind, ch, request = pop(heap)
            if kind == _COMPLETE:
                request.finish = now
                if controllers[ch].pending:
                    attempt_service(ch, now)
                else:
                    controllers[ch]._idle = True
                    idle[ch] = True
                    woken[ch] = False
            elif kind == _INJECT:
                blocked_on = -1
                while cursor < n:
                    pending_request = records[cursor]
                    when = pending_request.timestamp
                    if when is not None and when > now:
                        # mirror the injector's absolute-time wait
                        push(
                            heap,
                            (when, _NORMAL, next(seq), _INJECT, -1, None),
                        )
                        break
                    target = channel_of[cursor]
                    controller = controllers[target]
                    if len(controller.pending) >= depth:
                        blocked_on = target
                        break
                    controller._admit(pending_request, now)
                    if idle[target] and not woken[target]:
                        woken[target] = True
                        push(
                            heap,
                            (
                                now, _NORMAL, next(seq), _WAKEUP,
                                target, None,
                            ),
                        )
                    cursor += 1
            elif kind == _WAKEUP:
                idle[ch] = False
                woken[ch] = False
                attempt_service(ch, now)
            else:  # _RETRY: a refresh stall expired; re-evaluate
                attempt_service(ch, now)
