"""The memory system's replay path.

A replay is *defined* by tier 2 below, the exact incremental replay: a
calendar of completions, admissions, wakeups and refresh retries that
drives each channel's scheduler and row buffers one request at a
time.  Every quantity it produces is *determined* by the trace and
the configuration, however: service durations follow from per-bank row
sequences, service starts are back-to-back while a queue is busy,
arrivals are pinned to queue-slot releases (or to explicit trace
timestamps), and refresh blackouts are a pure function of the clock.
Tier 1 exploits that determinism to replay certified traces at millions
of requests per second with the same per-request times — and
therefore, by the shared :func:`~repro.memsys.system.reduce_stats`, the
same :class:`MemSysStats`.  The timing laws of :mod:`repro.memsys.laws`
check either tier's output without calling this code.

The two tiers sit behind one entry point, :func:`replay_fast`, which
takes a :class:`~repro.memsys.trace.PackedTrace`:

**Tier 1 — vectorized closed form.**  Banks are reduced to plain
``(open_row, ready_at_ns)`` records advanced by array arithmetic:

* per-channel FIFO service order is assumed, and row-buffer outcomes
  follow from one previous-access index per channel
  (:func:`_previous_access`: the previous same-bank request, the
  previous PIM command of an all-bank stream, none for AB register
  broadcasts, which never touch a row buffer and are charged one page
  access): a request hits or conflicts when its previous access lies
  in its chunk (refresh epoch, epoch label), so any chunking costs one
  comparison.  An open-row streak of ``L`` requests costs one
  activation plus ``L`` batched page spans, and service finishes
  follow as sequential prefix sums of the durations;
* *line-rate* arrivals follow from the bounded queue: the ``m``-th
  request of a channel is admitted exactly when the ``(m - depth)``-th
  service *starts* (that dequeue frees its slot), so ``A[m] =
  S[m - depth]``;
* *timestamped* arrivals are taken from the trace: ``A[m] = T[m]``, and
  service starts solve the fenced Lindley recurrence ``S[j] =
  g(max(T[j], F[j-1]))`` column by column with the exact tier's
  left-to-right float additions (:func:`_segmented_service`), under
  per-request refresh epoch labels (:func:`_timestamped_channel`);
* *refresh* (per-rank tREFI/tRFC) appears as deterministic ready-time
  fences: the gate ``g`` pushes a start landing inside a blackout to
  its end with the exact tier's own stall expression, and each
  boundary precharges every row buffer.  Line-rate streams are chunked
  at the boundaries (:func:`_chunked_refresh_channel`): within an
  epoch starts are back-to-back cumsums, and epochs that start at
  their fence with a learned request count are solved as the rows of
  one matrix (one ``cumsum(axis=1)`` from the fences), each row
  verified from its last two columns; the first failed row's epoch is
  solved alone and the batch resumes after it.

Exact, conservative, and themselves vectorized *certificates* decide
whether the closed form reproduces the exact tier:

1. *FIFO certificate* (FR-FCFS only): at every selection whose head is
   not a row hit, no request in the visible queue hits its bank's open
   row.  Under line-rate arrivals that queue is the next ``queue_depth
   - 1`` same-channel requests; on a timestamped channel it is the
   requests that arrived by the selection, ``T[j] <= S[k]`` (an
   arrival at the selection's very instant counts as queued, which is
   conservative on a calendar tie).  When that holds, FR-FCFS never
   reorders and the FIFO outcome arrays are exact.  FCFS and pure
   all-bank channels (PIM row ops and AB register broadcasts occupy
   every bank or act as scheduling barriers, so the controller serves
   them strictly in order) are FIFO by construction.  With refresh, a
   head sees an open row only from an access of its own epoch (row
   buffers restart closed at each boundary), while the queue window
   still reaches into the next epoch.
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
certificates with or without refresh; timestamped host traffic passes,
with or without per-rank refresh, whenever its arrival rate keeps
queues from overflowing and FR-FCFS finds nothing to hoist; FCFS
random traffic is certified through the arrival fixed point.  Refresh
at per-bank granularity, timestamped all-bank streams under refresh,
and channels that mix host requests with all-bank commands always take
tier 2.

**Tier 2 — exact incremental replay.**  Traces that fail a certificate
(e.g. random traffic under FR-FCFS, whose stray row hits let the
scheduler reorder) take the discrete replay, :func:`_replay_exact`: one
loop over flat state.  Requests are indices into per-request lists
built once from the decoded arrays (op code, row, flat bank, channel,
timestamp); a channel is its pending-index list, its banks' open rows
and outcome counters, a per-bank ``{row: queued count}`` FR-FCFS
open-row table, and its idle and refresh-epoch flags.  Plain tuples on
a heap in ``(time, priority, insertion)`` order drive FCFS/FR-FCFS
selection, the AB barrier, bank accesses charged from
:func:`~repro.memsys.bank.latency_table`, and the refresh gate, all
inline.  Trace timestamps become absolute-time injector resumptions;
refresh stalls become retry occurrences at the blackout end.  The
time and outcome arrays come straight from the lists, and the banks of
the :class:`MemorySystem` receive the final counters and open rows.

Both tiers take a :class:`~repro.memsys.trace.PackedTrace` and return
the same arrays only — per-request times, outcomes and routing — and a
replay writes nothing back onto request objects.  Queue depths and
busy periods are functions of those times
(:func:`~repro.telemetry.latency.channel_gauges`,
:func:`~repro.memsys.system.busy_ns`), so no tier records them.
"""

from __future__ import annotations

import heapq
import math
import typing as _t

import numpy as np

from ..telemetry.latency import ALL_BANKS
from ..telemetry.profile import null_phase
from .bank import CLOSED, OUTCOMES, PER_RANK, latency_table
from .request import Op
from .system import FRFCFS, _finish_replay
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

#: Iteration cap for the arrival fixed point, the busy segmentation and
#: the epoch labels (each iteration is one vectorized pass; chains
#: longer than this are rare enough to leave to the exact tier).
_MAX_ARRIVAL_ITERS = 64

#: Busy segments up to this long are solved column by column, longer
#: ones by per-segment prefix sums (:func:`_busy_segments`).
_COLUMN_LIMIT = 64


def replay_fast(
    system: "MemorySystem",
    trace: PackedTrace,
    telemetry: _t.Optional["ReplayTelemetry"] = None,
) -> "MemSysStats":
    """Replay the packed ``trace`` through ``system``.

    Called by :meth:`MemorySystem.replay`, which packs object traces
    first; picks the vectorized closed form when its certificates hold
    and the exact incremental replay otherwise.  Either tier ends with
    the trace-ordered per-request arrays, which the shared
    :func:`~repro.memsys.system.reduce_stats` turns into statistics;
    the banks are left with the counters and open rows the exact replay
    leaves.

    With ``telemetry`` attached, its profiler times the four phases
    (``decode`` / ``certificate`` / ``tier-execute`` /
    ``stats-gather``) and its latency recorder adopts the arrays.
    Capture never perturbs the replay arithmetic.
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
    trace: PackedTrace,
    phase: _t.Callable[[str], _t.ContextManager[None]],
) -> _t.Tuple[str, _t.Dict[str, np.ndarray]]:
    """Decode, certify, and replay on one tier; returns ``(engine,
    trace-ordered arrays)``.  The decode temporaries die with this
    frame, before the reduction allocates its own."""
    with phase("decode"):
        op_codes = trace.op_codes.astype(np.int64)
        times = trace.times
        fields = system.addr_map.decode_fields(trace.addrs)
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
        if plan is None:
            engine = "fast-exact"
            routing = _routing_arrays(
                op_codes, fields["channel"], fields["row"], flat_bank
            )
            arrays = _replay_exact(system, routing, times)
        else:
            engine = "fast-vectorized"
            _commit_banks(
                system,
                [
                    None
                    if data is None
                    else (data["bank_counts"], data["open_final"])
                    for data in plan
                ],
            )
            arrays = _plan_arrays(plan, op_codes.shape[0])
            del plan  # before the routing arrays allocate
            routing = _routing_arrays(
                op_codes, fields["channel"], fields["row"], flat_bank
            )
        arrays.update(routing)
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
    if refresh is not None and refresh.granularity != PER_RANK:
        # per-bank blackouts depend on the selected request: tier 2
        return None
    n = op_codes.shape[0]
    table = latency_table(config.timing, config.precharge_ns)
    # index _BROADCAST charges the AB register broadcast: one column
    # access on the command/data bus — the same page_access_ns the
    # exact tier charges (== the row-hit latency)
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
        if times is not None and refresh is not None and ab_c is not None:
            # lockstep row scans carry no epoch labels: tier 2
            return None
        access = _previous_access(bank_c, row_c, ab_c, closed)
        if times is not None:
            solved = _timestamped_channel(
                refresh, times[idx], access, bank_c, row_c, ab_c, closed,
                latencies, depth, n_banks, check_fifo,
            )
            if solved is None:
                return None
            data.update(solved)
        elif refresh is not None:
            chunked = _chunked_refresh_channel(
                refresh, access, bank_c, row_c, ab_c, closed,
                latencies, depth, n_banks, check_fifo,
            )
            if chunked is None:
                return None
            data.update(chunked)
        else:
            _, miss, step = access
            outcome = miss + step  # one chunk: every prev[j] is in it
            bank_counts, open_final = _bank_state(
                bank_c, row_c, ab_c, closed, outcome, n_banks
            )
            if check_fifo and not _fifo_certificate(
                bank_c, row_c, outcome, depth, n_banks
            ):
                return None
            durations = latencies[outcome]
            finish = _seq_cumsum(0.0, durations)
            start = np.empty(n_c)
            start[0] = 0.0
            start[1:] = finish[:-1]
            data.update(
                outcome=outcome,
                bank_counts=bank_counts,
                open_final=open_final,
                durations=durations,
                start=start,
                finish=finish,
            )
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
        data["arrival"] = arrival
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
            arrival=arrivals[data["idx"]], start=start, finish=finish
        )
    return plan


def _previous_access(
    bank_c: np.ndarray,
    row_c: np.ndarray,
    ab_c: _t.Optional[np.ndarray],
    closed: bool,
) -> _t.Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One channel's previous-access index, as ``(prev, miss, step)``.

    ``prev[j]`` is the access whose row request ``j`` finds open when no
    chunk boundary (refresh epoch, label) falls between them: the
    previous same-bank request for a host access (one stable radix sort
    of the bank), the previous PIM command for a PIM command (all-bank
    lockstep), and none (``-1``) for an AB broadcast, which never
    touches a row buffer, or under the closed row policy.  The FIFO
    codes of any chunking whose labels are non-decreasing in trace
    order are then ``miss + same * step``, where ``same[j]`` says
    ``prev[j]`` lies in ``j``'s chunk, ``miss`` is :data:`_MISS`
    (:data:`_BROADCAST` for an AB broadcast) and ``step`` is ``-1`` for
    a row match, ``+1`` for a conflict and ``0`` without ``prev[j]``.
    """
    n_c = bank_c.shape[0]
    prev = np.full(n_c, -1, dtype=np.int64)
    miss = np.full(n_c, _MISS, dtype=np.int8)
    if ab_c is not None:
        miss[ab_c] = _BROADCAST
    if not closed:
        if ab_c is not None:
            pim = np.flatnonzero(~ab_c)
            prev[pim[1:]] = pim[:-1]
        else:
            order = np.argsort(bank_c.astype(np.int16), kind="stable")
            same = bank_c[order[1:]] == bank_c[order[:-1]]
            prev[order[1:][same]] = order[:-1][same]
    step = np.where(row_c[prev] == row_c, -1, 1).astype(np.int8)
    step[prev < 0] = 0
    return prev, miss, step


def _bank_state(
    bank_c: np.ndarray,
    row_c: np.ndarray,
    ab_c: _t.Optional[np.ndarray],
    closed: bool,
    outcome: np.ndarray,
    n_banks: int,
    tail: int = 0,
) -> _t.Tuple[np.ndarray, _t.List[_t.Optional[int]]]:
    """``(per-bank outcome counts, final open rows)`` after serving a
    channel with FIFO codes ``outcome``; rows are left open only by the
    requests from ``tail`` on (the last refresh chunk or label)."""
    if ab_c is not None:
        # lockstep: every bank sees the PIM subsequence
        pim = ~ab_c
        counts = np.tile(np.bincount(outcome[pim], minlength=3), (n_banks, 1))
        pim_rows = row_c[tail:][pim[tail:]]
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
    np.maximum.at(latest, bank_c[tail:], np.arange(tail, bank_c.shape[0]))
    return counts, [
        None if j < 0 else int(row_c[j]) for j in latest.tolist()
    ]


def _chunked_refresh_channel(
    refresh: "RefreshSchedule",
    access: _t.Tuple[np.ndarray, np.ndarray, np.ndarray],
    bank_c: np.ndarray, row_c: np.ndarray, ab_c: _t.Optional[np.ndarray],
    closed: bool, latencies: np.ndarray, depth: int, n_banks: int,
    check_fifo: bool,
) -> _t.Optional[dict]:
    """Line-rate service times under per-rank refresh, in epoch chunks.

    Each refresh boundary precharges every row buffer, so within a
    chunk request ``j`` finds ``prev[j]``'s row open (the
    :func:`_previous_access` index) only when ``prev[j]`` lies in the
    same chunk.  A chunk ends before the first service start past its
    epoch; that start, landing inside the blackout ``[k*tREFI, k*tREFI
    + tRFC)``, is pushed to its end with the exact tier's own stall
    ``F + (fence - F)``, which is exactly ``fence`` (``F`` lies within a
    factor of two of the fence, so the difference is exact).

    Epochs that start at their fence are solved in batches.  Once two
    epochs in a row held the same request count (the *stride*) and the
    next one starts at its fence, ``rows`` epochs are laid out as the
    rows of one ``(rows, stride)`` view of the channel's arrays: column
    0 holds each epoch's fence ``e*tREFI + tRFC`` and one
    ``cumsum(axis=1)`` does the exact tier's left-to-right additions.
    Each row is verified from its last two columns: its last start lies
    in epoch ``e`` and its last finish ``F`` in ``e + 1`` (the next
    start crosses the boundary), and the next row may follow only if
    ``F <= fence`` (the stall lands on the next row's fence, which lies
    in its own epoch as ``tRFC < tREFI``).  Rows up
    to the first failed one are kept, and the failed epoch is solved
    alone.  Batches double while every row holds and restart at one
    row after a failure, so wasted rows stay within a constant factor
    of the kept ones and a trace whose epoch counts vary keeps linear
    cost.

    An epoch solved alone scans ``trefi / min(latency) + 2`` requests
    from its start, more than can start within one epoch (back-to-back
    starts are at least one service apart), so its boundary is always
    inside the scan.  The FIFO certificate runs once over the whole
    channel on the refresh-aware outcomes, with epoch labels cancelling
    open rows across boundaries (queue windows still cross them).
    Returns ``None`` when the FIFO certificate fails.
    """
    prev, miss, step = access
    n_c = prev.shape[0]
    trefi, trfc = refresh.trefi_ns, refresh.trfc_ns
    limit = int(trefi / float(latencies.min())) + 2
    outcome = np.empty(n_c, dtype=np.int8)
    start = np.empty(n_c)
    finish = np.empty(n_c)
    i = tail = stride = count = 0
    rows = 1
    s = 0.0  # the gated start of request i
    while i < n_c:
        epoch = int(math.floor(s / trefi))
        fenced = s == epoch * trefi + trfc
        if stride and fenced and i + stride <= n_c:
            m = min(rows, (n_c - i) // stride)
            end = i + m * stride
            shape = (m, stride)
            epochs = np.arange(epoch, epoch + m + 1, dtype=float)
            fences = epochs * trefi + trfc
            heads = np.arange(i, end, stride)[:, None]
            out = outcome[i:end].reshape(shape)
            out[...] = miss[i:end].reshape(shape) + (
                prev[i:end].reshape(shape) >= heads
            ) * step[i:end].reshape(shape)
            # rows solved in place; a failed row's slots are solved again
            f = np.take(latencies, out, out=finish[i:end].reshape(shape))
            f[:, 0] += fences[:-1]  # fence + d0, the first addition
            np.cumsum(f, axis=1, out=f)
            starts = start[i:end].reshape(shape)
            starts[:, 0] = fences[:-1]
            starts[:, 1:] = f[:, :-1]
            good = (np.floor(starts[:, -1] / trefi) == epochs[:-1]) & (
                np.floor(f[:, -1] / trefi) == epochs[1:]
            )
            good[1:] &= f[:-1, -1] <= fences[1:-1]
            kept = m if bool(good.all()) else int(good.argmin())
            if kept:
                tail = i + (kept - 1) * stride
                i += kept * stride
            if kept == m:
                rows *= 2
            else:  # solve the failed epoch alone
                rows, stride = 1, 0
        else:
            w = min(n_c - i, limit)
            out = miss[i : i + w] + (prev[i : i + w] >= i) * step[i : i + w]
            f = _seq_cumsum(s, latencies[out])
            # request j + 1 starts at f[j]
            crossed = np.floor(f / trefi) > epoch
            k = int(crossed.argmax()) + 1 if bool(crossed.any()) else w
            outcome[i : i + k] = out[:k]
            start[i] = s
            start[i + 1 : i + k] = f[: k - 1]
            finish[i : i + k] = f[:k]
            stride = k if fenced and k == count else 0
            count = k
            tail, i = i, i + k
        if i < n_c:
            s = float(finish[i - 1])
            fence = refresh.rank_fence(s)
            if fence > s:
                s = s + (fence - s)
    if check_fifo and not _fifo_certificate(
        bank_c, row_c, outcome, depth, n_banks,
        chunk_id=np.floor(start / trefi),
    ):
        return None
    # counts add up over the chunks' disjoint slices; every boundary
    # precharges every bank, so the open rows are the last chunk's
    bank_counts, open_final = _bank_state(
        bank_c, row_c, ab_c, closed, outcome, n_banks, tail
    )
    return dict(
        outcome=outcome, start=start, finish=finish,
        bank_counts=bank_counts, open_final=open_final,
    )


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


def _timestamped_channel(
    refresh: _t.Optional["RefreshSchedule"], t_c: np.ndarray,
    access: _t.Tuple[np.ndarray, np.ndarray, np.ndarray],
    bank_c: np.ndarray, row_c: np.ndarray, ab_c: _t.Optional[np.ndarray],
    closed: bool, latencies: np.ndarray, depth: int, n_banks: int,
    check_fifo: bool,
) -> _t.Optional[dict]:
    """FIFO service of one timestamped channel, or ``None`` to decline.

    Under per-rank refresh each request carries a *label*
    ``floor(S/tREFI)``: the epoch whose lazy precharge the controller
    applies at its decision (a stall never leaves the epoch, as tRFC <
    tREFI), so a row stays open only for later requests with the same
    label.  Labels start from the arrivals' epochs; outcomes and times
    are re-solved until the labels reproduce.  Then the certificates
    run, cheapest first: backpressure (``T[j] >= S[j - depth]``, every
    arrival finds a free slot) and FIFO over the queue actually visible
    at each selection, ``{j > k : T[j] <= S[k]}``.  Precharge is lazy,
    so the banks end with the open rows of the last label's requests.
    """
    n_c = t_c.shape[0]
    prev, miss, step = access
    label = np.zeros(n_c, dtype=np.int64)
    if refresh is not None:
        label = np.floor(t_c / refresh.trefi_ns).astype(np.int64)
    for _ in range(_MAX_ARRIVAL_ITERS):
        outcome = miss + (label[prev] == label) * step
        solved = _segmented_service(t_c, latencies[outcome], refresh)
        if solved is None:
            return None
        start, finish = solved
        if refresh is None:
            break
        settled = np.floor(start / refresh.trefi_ns).astype(np.int64)
        if np.array_equal(settled, label):
            break
        label = settled
    else:
        return None
    if n_c > depth and bool(np.any(t_c[depth:] < start[: n_c - depth])):
        return None
    if check_fifo and not _fifo_certificate(
        bank_c, row_c, outcome, depth, n_banks,
        chunk_id=None if refresh is None else label,
        visible=np.searchsorted(t_c, start, side="right"),
    ):
        return None
    bank_counts, open_final = _bank_state(
        bank_c, row_c, ab_c, closed, outcome, n_banks,
        int(np.searchsorted(label, label[-1])),
    )
    return dict(
        outcome=outcome, arrival=t_c, start=start, finish=finish,
        bank_counts=bank_counts, open_final=open_final,
    )


def _segmented_service(
    earliest: np.ndarray, durations: np.ndarray,
    refresh: _t.Optional["RefreshSchedule"] = None,
) -> _t.Optional[_t.Tuple[np.ndarray, np.ndarray]]:
    """Solve ``S[j] = g(max(E[j], F[j-1]))``, ``F = S + d`` exactly.

    ``earliest`` is the per-request lower bound on service start (trace
    timestamps, or injector admission times); ``g`` is the per-rank
    refresh gate (the identity without ``refresh``).  Busy segments are
    first located with one fence-free Lindley running-max scan
    (float-associated differently than the exact tier), then solved
    with the exact tier's additions (:func:`_busy_segments`) and
    re-segmented from the exact finishes until stable — hence
    consistent: a segment start finds the channel idle (``E >
    F[j-1]``), a continuation does not.  Returns ``(start, finish)``,
    or ``None`` to fall back when the segmentation does not settle or
    a start still lies inside a blackout (the exact tier would stall
    twice).  An arrival tying the previous finish is a continuation:
    either calendar order of the two starts it at ``g(F[j-1])``.
    """
    n = durations.shape[0]
    prefix = np.empty(n)
    prefix[0] = 0.0
    if n > 1:
        np.cumsum(durations[:-1], out=prefix[1:])
    approx_start = prefix + np.maximum.accumulate(earliest - prefix)
    opens = np.empty(n, dtype=bool)
    opens[0] = True
    opens[1:] = earliest[1:] > approx_start[:-1] + durations[:-1]
    start, finish = _busy_segments(earliest, durations, opens, refresh)
    for _ in range(_MAX_ARRIVAL_ITERS):
        moved = np.flatnonzero((earliest[1:] > finish[:-1]) != opens[1:]) + 1
        if moved.size == 0:
            break
        # only the segments holding a moved boundary change
        opens[moved] = ~opens[moved]
        segment = np.cumsum(opens)
        redo = np.isin(segment, segment[moved])
        start[redo], finish[redo] = _busy_segments(
            earliest[redo], durations[redo], opens[redo], refresh
        )
    else:
        return None
    if refresh is not None and not np.array_equal(
        _rank_fence(refresh, start), start
    ):
        return None
    return start, finish


def _busy_segments(
    earliest: np.ndarray, durations: np.ndarray, opens: np.ndarray,
    refresh: _t.Optional["RefreshSchedule"],
) -> _t.Tuple[np.ndarray, np.ndarray]:
    """Service times for a given segmentation (``opens`` marks the
    requests that find the channel idle).

    A segment opens at ``g(E)``; each later request starts at
    ``g(F[j-1])`` and finishes at ``S + d``, the exact tier's own
    expressions.  Segments up to :data:`_COLUMN_LIMIT` long are solved
    column by column — one array operation per position across every
    segment still running — and longer ones by prefix sums that restart
    at each refresh stall, so a line-rate fixed point (few, very long
    segments) stays linear.
    """
    n = durations.shape[0]
    first = np.flatnonzero(opens)
    length = np.diff(np.r_[first, n])
    start = np.empty(n)
    finish = np.empty(n)
    # column 0 of every segment, then the short segments longest first,
    # so the ones still running at column c are a prefix
    start[first] = _rank_gate(refresh, earliest[first])
    finish[first] = start[first] + durations[first]
    short = length <= _COLUMN_LIMIT
    order = np.argsort(-length[short])
    heads = first[short][order]
    # negated descending lengths: the first searchsorted(negated, -c)
    # segments are the ones longer than c
    negated = -length[short][order]
    for c in range(1, -int(negated[0]) if negated.size else 0):
        at = heads[: np.searchsorted(negated, -c)] + c
        s = _rank_gate(refresh, finish[at - 1])
        start[at] = s
        finish[at] = s + durations[at]
    for a, m in zip(first[~short].tolist(), length[~short].tolist()):
        i, end = a + 1, a + m
        while i < end:
            # windows keep each stall's restart short under refresh
            stop = end if refresh is None else min(end, i + _COLUMN_LIMIT)
            f = _seq_cumsum(float(finish[i - 1]), durations[i:stop])
            s = np.empty(stop - i)
            s[0] = finish[i - 1]
            s[1:] = f[:-1]
            gated = _rank_gate(refresh, s)
            stalls = np.flatnonzero(gated != s)
            k = int(stalls[0]) if stalls.size else stop - i
            start[i : i + k] = s[:k]
            finish[i : i + k] = f[:k]
            if k < stop - i:  # a start inside a blackout: restart there
                start[i + k] = gated[k]
                finish[i + k] = gated[k] + durations[i + k]
                k += 1
            i += k
    return start, finish


def _rank_fence(refresh: "RefreshSchedule", t: np.ndarray) -> np.ndarray:
    """:meth:`RefreshSchedule.rank_fence` over an array of times, with
    its float expressions."""
    epoch = np.floor(t / refresh.trefi_ns)
    end = epoch * refresh.trefi_ns + refresh.trfc_ns
    return np.where((epoch >= 1) & (t < end), end, t)


def _rank_gate(
    refresh: _t.Optional["RefreshSchedule"], t: np.ndarray
) -> np.ndarray:
    """Service starts for decisions at ``t``: the exact tier's per-rank
    stall ``t + (fence - t)`` inside a blackout, ``t`` elsewhere."""
    if refresh is None:
        return t
    fence = _rank_fence(refresh, t)
    return np.where(fence > t, t + (fence - t), t)


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
    visible: _t.Optional[np.ndarray] = None,
) -> bool:
    """Would FR-FCFS ever reorder this channel's FIFO stream?

    At a selection whose queue head *is* a row hit, FR-FCFS picks the
    oldest hit — the head itself.  So reordering can only start at a
    selection with a non-hit head and some younger queued request
    hitting its bank's open row.  The queue visible at the selection of
    request ``k`` is requests ``k+1 .. visible[k]-1`` of the same
    channel.  Under line-rate injection (``visible=None``) those are
    ``k+1 .. k+depth-1`` — the ``k+depth``-th slot is released by this
    very dequeue and its admission is processed after the selection.  A
    timestamped channel passes ``visible[k]`` = the count of arrivals
    ``T[j] <= S[k]``, counting an arrival at the selection's instant as
    queued (conservative on a calendar tie).  The check is thus
    exact-or-conservative while states still follow FIFO, and the first
    would-be deviation is necessarily detected.

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
    end = (
        np.minimum(heads + depth, n_c) if visible is None else visible[heads]
    )
    for offset in range(1, int((end - heads).max(initial=0))):
        queued = heads + offset
        in_range = queued < end
        at = np.nonzero(in_range)[0]
        queued = queued[in_range]
        if bool(
            np.any(row_c[queued] == open_at_head[at, bank_c[queued]])
        ):
            return False
    return True


def _commit_banks(
    system: "MemorySystem",
    states: _t.Sequence[_t.Optional[_t.Tuple[_t.Any, _t.Sequence]]],
) -> None:
    """Leave every bank with the counters and open row the exact tier
    would leave behind.

    ``states`` holds one ``(per-bank (hits, misses, conflicts), open
    rows)`` pair per channel, ``None`` for a channel that served
    nothing.
    """
    for banks, state in zip(system.banks, states):
        if state is None:
            continue
        counts, open_rows = state
        for bank, (hits, misses, conflicts), open_row in zip(
            banks, counts, open_rows
        ):
            bank.hits = int(hits)
            bank.misses = int(misses)
            bank.conflicts = int(conflicts)
            bank.open_row = open_row


def _plan_arrays(
    plan: _t.List[_t.Optional[dict]], n: int
) -> _t.Dict[str, np.ndarray]:
    """Trace-ordered time and outcome arrays of the plan's channels."""
    arrays = {
        "arrival": np.empty(n),
        "start_service": np.empty(n),
        "finish": np.empty(n),
        "outcome": np.empty(n, dtype=np.int64),
    }
    for data in plan:
        if data is None:
            continue
        idx = data["idx"]
        arrays["arrival"][idx] = data["arrival"]
        arrays["start_service"][idx] = data["start"]
        arrays["finish"][idx] = data["finish"]
        arrays["outcome"][idx] = data["outcome"]
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


# ----------------------------------------------------------------------
# Tier 2: exact incremental replay
# ----------------------------------------------------------------------
def _replay_exact(
    system: "MemorySystem",
    routing: _t.Mapping[str, np.ndarray],
    times: _t.Optional[np.ndarray],
) -> _t.Dict[str, np.ndarray]:
    """Replay in exact scheduling order: the definition of a replay.

    One loop over flat state.  Requests are indices into per-request
    lists built once from the decoded ``routing`` arrays (op code, row,
    flat bank — :data:`ALL_BANKS` for all-bank PIM/AB — and channel)
    and the trace ``times``.  Each channel is a handful of list
    entries: its pending indices in admission order, its banks' open
    rows and ``(hit, miss, conflict)`` counters, its idle/woken flags
    and its refresh-applied epochs.

    A heap of plain ``(time, priority, seq, kind, channel, index)``
    tuples keeps a ``(time, priority, insertion-order)`` calendar of
    the only occurrences that carry state: request completions,
    injector resumptions (a freed queue slot, or a trace timestamp
    coming due), channel wakeups (an enqueue into an idle channel), and
    refresh retries (a selection stalled to the end of a blackout
    window).  Occurrences are drained in *rounds*: each outer iteration
    reads the heap's earliest timestamp once and pops every occurrence
    at that instant, so the common completion→inject→wakeup cascade
    costs one round; pops stay globally ordered by ``(time, priority,
    seq)``.

    A completion with work queued, a wakeup and a retry all end in one
    service attempt on their channel, inline:

    * the *refresh gate* — a crossed boundary precharges the refreshed
      banks; per-rank refresh stalls the channel to the blackout's end;
      per-bank refresh serves the oldest serviceable row hit (FR-FCFS),
      else the oldest serviceable request, stalling only when nothing
      is serviceable — FCFS never looks past its head, and nothing
      passes an AB register broadcast;
    * *selection* — FCFS serves the head; FR-FCFS the oldest request
      ahead of the first AB broadcast that hits its bank's open row,
      else the head.  The scan runs only while the channel's open-row
      table counts a queued hit: each bank keeps ``{row: queued host
      requests}``, so an open-row change ``r0 -> r1`` moves the
      channel's hit count by ``count[r1] - count[r0]``;
    * *bank access* from :func:`~repro.memsys.bank.latency_table`: an
      AB broadcast holds the channel for one page access and touches no
      row buffer, a PIM operation accesses every bank in lockstep and
      holds the channel for the slowest.

    Returns the trace-ordered time and outcome arrays; the banks of
    ``system`` are left with the counters and open rows of the replay.
    """
    config = system.config
    depth = config.queue_depth
    n_channels = config.n_channels
    n_banks = config.banks_per_channel
    closed = config.row_policy == CLOSED
    frfcfs = config.policy == FRFCFS
    # the open-row table (closed rows never hit: nothing to count)
    track = frfcfs and not closed
    refresh = config.refresh_schedule()
    per_rank = refresh is not None and refresh.granularity == PER_RANK
    if refresh is not None:
        trefi, trfc = refresh.trefi_ns, refresh.trfc_ns
    table = latency_table(config.timing, config.precharge_ns)
    # outcome code -> service time; an AB broadcast is one page access
    latency = [table[name] for name in OUTCOMES] + [table[OUTCOMES[_HIT]]]

    op_of = routing["op"].tolist()
    bank_of = routing["bank"].tolist()
    row_of = routing["row"].tolist()
    channel_of = routing["channel"].tolist()
    time_of = None if times is None else times.tolist()
    n = len(op_of)
    arrival = [0.0] * n
    start = [0.0] * n
    finish = [0.0] * n
    outcome = [0] * n

    pending: _t.List[_t.List[int]] = [[] for _ in range(n_channels)]
    open_rows: _t.List[_t.List[_t.Optional[int]]] = [
        [None] * n_banks for _ in range(n_channels)
    ]
    tally = [[0] * (3 * n_banks) for _ in range(n_channels)]
    queued: _t.List[_t.List[_t.Dict[int, int]]] = [
        [{} for _ in range(n_banks)] for _ in range(n_channels)
    ]
    queued_hits = [0] * n_channels
    # refresh boundaries applied per bank (per-rank refresh: slot 0)
    applied = [[0] * n_banks for _ in range(n_channels)]
    # idle: no completion or retry outstanding; woken: a wakeup is
    # scheduled
    idle = [True] * n_channels
    woken = [False] * n_channels

    def precharge(ch: int, bank: int) -> None:
        """A refresh boundary closes ``bank``'s row buffer."""
        opens = open_rows[ch]
        row = opens[bank]
        if row is not None:
            opens[bank] = None
            if track:
                queued_hits[ch] -= queued[ch][bank].get(row, 0)

    heap: _t.List[tuple] = []
    push = heapq.heappush
    pop = heapq.heappop
    seq = 0  # insertion order: ties at equal (time, priority)
    cursor = 0  # next request the injector will admit
    blocked_on = -1  # channel whose full queue blocks the injector
    push(heap, (0.0, _URGENT, seq, _INJECT, -1, -1))
    while heap:
        round_time = heap[0][0]
        while heap and heap[0][0] == round_time:
            now, _prio, _seq, kind, ch, j = pop(heap)
            if kind == _INJECT:
                blocked_on = -1
                while cursor < n:
                    if time_of is not None and time_of[cursor] > now:
                        # the injector's absolute-time wait
                        seq += 1
                        push(
                            heap,
                            (time_of[cursor], _NORMAL, seq, _INJECT, -1, -1),
                        )
                        break
                    target = channel_of[cursor]
                    queue = pending[target]
                    if len(queue) >= depth:
                        blocked_on = target
                        break
                    arrival[cursor] = now
                    if track:
                        bank = bank_of[cursor]
                        if bank >= 0:
                            row = row_of[cursor]
                            count = queued[target][bank]
                            count[row] = count.get(row, 0) + 1
                            if open_rows[target][bank] == row:
                                queued_hits[target] += 1
                    queue.append(cursor)
                    if idle[target] and not woken[target]:
                        woken[target] = True
                        seq += 1
                        push(heap, (now, _NORMAL, seq, _WAKEUP, target, -1))
                    cursor += 1
                continue
            queue = pending[ch]
            if kind == _COMPLETE:
                finish[j] = now
                if not queue:
                    idle[ch] = True
                    woken[ch] = False
                    continue
            elif kind == _WAKEUP:
                idle[ch] = woken[ch] = False

            # one service attempt on ``ch`` at ``now``
            opens = open_rows[ch]
            pick = -1  # queue position of the request to serve
            if refresh is not None:
                applied_ch = applied[ch]
                stall = now  # earliest start the gate allows
                if per_rank:
                    epoch = int(math.floor(now / trefi))
                    if epoch > applied_ch[0]:
                        applied_ch[0] = epoch
                        for bank in range(n_banks):
                            precharge(ch, bank)
                    if epoch >= 1:
                        end = epoch * trefi + trfc
                        if now < end:  # blackout: the channel stalls
                            stall = end
                else:
                    for bank in range(n_banks):
                        epoch = refresh.bank_epoch(now, bank)
                        if epoch >= 1 and epoch > applied_ch[bank]:
                            applied_ch[bank] = epoch
                            precharge(ch, bank)
                    fallback = -1
                    earliest = math.inf
                    for position, i in enumerate(queue):
                        op = op_of[i]
                        if op == _AB_CODE and position:
                            # nothing younger passes a register
                            # broadcast, and it passes nothing older
                            break
                        bank = bank_of[i]
                        fence = (
                            refresh.all_bank_fence(now)
                            if bank < 0
                            else refresh.bank_fence(now, bank)
                        )
                        if fence <= now:  # serviceable now
                            if fallback < 0:
                                fallback = position
                            if (
                                frfcfs
                                and bank >= 0
                                and opens[bank] == row_of[i]
                            ):
                                pick = position  # oldest serviceable hit
                                break
                        elif fence < earliest:
                            earliest = fence
                        if op == _AB_CODE or not frfcfs:
                            break
                    if pick < 0:
                        if fallback < 0:  # nothing serviceable: stall
                            stall = earliest
                        pick = fallback
                if stall > now:  # retry at the end of the stall
                    seq += 1
                    push(
                        heap,
                        (now + (stall - now), _NORMAL, seq, _RETRY, ch, -1),
                    )
                    continue
            if pick < 0:
                pick = 0
                if track and queued_hits[ch]:
                    for position, i in enumerate(queue):
                        if op_of[i] == _AB_CODE:
                            break  # never hoist a row hit across one
                        bank = bank_of[i]
                        if bank >= 0 and opens[bank] == row_of[i]:
                            pick = position
                            break
            j = queue.pop(pick)
            start[j] = now
            op = op_of[j]
            if op == _AB_CODE:
                code = _BROADCAST
            else:
                row = row_of[j]
                counts = tally[ch]
                bank = bank_of[j]
                if bank >= 0:  # host access
                    was = opens[bank]
                    if closed:
                        code = _MISS
                    elif was == row:
                        code = _HIT
                    else:
                        code = _MISS if was is None else _CONFLICT
                        opens[bank] = row
                    counts[3 * bank + code] += 1
                    if track:
                        count = queued[ch][bank]
                        left = count[row] - 1
                        if left:
                            count[row] = left
                        else:
                            del count[row]
                        if was == row:  # a queued hit left the queue
                            queued_hits[ch] -= 1
                        else:  # the open row moved: was -> row
                            queued_hits[ch] += left - count.get(was, 0)
                else:  # all-bank PIM: held for the slowest bank
                    code = _HIT
                    slowest = 0.0
                    for bank in range(n_banks):
                        was = opens[bank]
                        if closed:
                            access = _MISS
                        elif was == row:
                            access = _HIT
                        else:
                            access = _MISS if was is None else _CONFLICT
                            opens[bank] = row
                            if track:
                                count = queued[ch][bank]
                                gained = count.get(row, 0)
                                queued_hits[ch] += gained - count.get(was, 0)
                        counts[3 * bank + access] += 1
                        if latency[access] > slowest:
                            slowest = latency[access]
                            code = access
            outcome[j] = code
            if blocked_on == ch:
                blocked_on = -1
                seq += 1
                push(heap, (now, _NORMAL, seq, _INJECT, -1, -1))
            seq += 1
            push(heap, (now + latency[code], _NORMAL, seq, _COMPLETE, ch, j))

    _commit_banks(
        system,
        [
            ([counts[3 * b : 3 * b + 3] for b in range(n_banks)], opens)
            for counts, opens in zip(tally, open_rows)
        ],
    )
    return {
        "arrival": np.array(arrival, dtype=np.float64),
        "start_service": np.array(start, dtype=np.float64),
        "finish": np.array(finish, dtype=np.float64),
        "outcome": np.array(outcome, dtype=np.int64),
    }
