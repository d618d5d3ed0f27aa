"""repro.memsys — a trace-driven banked memory-system simulator.

The closed forms in :mod:`repro.arch.dram` answer "what bandwidth *could*
a PIM macro sustain"; this package answers "what bandwidth *does* it
sustain on a concrete access stream".  It models the memory system the
paper sketches — many independent on-chip DRAM macros, each with a row
buffer — at the request level:

* :mod:`~repro.memsys.addrmap` — configurable bit-field physical-address
  mapping (channel / bankgroup / bank / row / column) with pluggable
  interleaving schemes, à la the HBM-PIM physical-address layout;
* :mod:`~repro.memsys.bank` — per-bank row-buffer state machines driven
  by :class:`~repro.arch.dram.DramMacroTiming`, with open-page (rows
  stay latched) and closed-page (auto-precharge after every access)
  row policies, plus the tREFI/tRFC :class:`RefreshSchedule` (per-rank
  blackouts, or staggered per-bank refresh the FR-FCFS scheduler works
  around);
* :mod:`~repro.memsys.request` — host read/write, PIM all-bank, and AB
  register-broadcast request records;
* :mod:`~repro.memsys.system` — the top-level :class:`MemorySystem`
  (per-channel banks behind FCFS or FR-FCFS request queues) replaying
  traces and reducing the per-request arrays to row-hit rate,
  sustained bandwidth, and queue latency;
* :mod:`~repro.memsys.trace` — a text trace format (lazy parser /
  streaming writer), array-backed :class:`PackedTrace` streams, and
  synthetic trace generation from :mod:`repro.workloads.access_patterns`;
* :mod:`~repro.memsys.fastpath` — the replay path: a vectorized
  closed form for certified traces over the exact incremental replay;
* :mod:`~repro.memsys.laws` — :func:`check_laws`, the timing laws every
  replay's per-request arrays must satisfy, checked without the
  simulator code.

The :mod:`repro.pimexec` layer builds on this package to make the
memory system *executable*: per-bank PIM execution units (HBM-PIM-style
CRF/GRF/SRF register files) run microkernels whose every command is an
all-bank column access replayed here, with register and microcode
writes travelling as :attr:`Op.AB <repro.memsys.request.Op>` broadcast
requests that occupy a channel without touching row buffers.

Replay tiers and their oracle
-----------------------------
:meth:`MemorySystem.replay` runs one replay path with two tiers:

* the **exact** tier defines a replay: a calendar of completions,
  admissions, wakeups and refresh retries drives each channel's
  FCFS/FR-FCFS selection and its banks' row buffers one request at a
  time, in one loop over flat per-request and per-channel lists
  (~280k requests/s on random traffic);
* the **vectorized** tier replays through closed-form ready-time
  arithmetic — open-row streaks are charged as batched page-access
  spans, trace timestamps solve a fenced, segmented Lindley
  recurrence, and refresh blackouts become ready-time fences (millions of
  requests/s).  Vectorized certificates decide per trace whether the
  closed form is exact; traces that fail one (e.g. random traffic whose
  row hits FR-FCFS hoists, per-bank refresh, queues that overflow)
  take the exact tier.

Both tiers record bit-identical per-request times and outcomes, which
the one
:func:`~repro.memsys.system.reduce_stats` turns into the same
:class:`MemSysStats` to the last bit.  :func:`~repro.memsys.laws.check_laws`
is the oracle independent of both: it re-derives service times, row
outcomes, refresh blackouts and the scheduling order from the arrays
alone.

Traces are uniformly *line-rate* (each request injected as soon as its
channel queue has space) or uniformly *timestamped* (an optional third
trace column of non-decreasing arrival times in ns; see
``docs/trace-formats.md``), and refresh is enabled by
``MemSysConfig(trefi_ns=..., trfc_ns=...)``.

Example
-------
>>> from repro.memsys import MemSysConfig, MemorySystem, synthesize_trace
>>> config = MemSysConfig(n_channels=1, bankgroups=1, banks_per_group=1)
>>> reqs = synthesize_trace("sequential", 64, config=config)
>>> stats = MemorySystem(config).replay(reqs)
>>> stats.row_hit_rate > 0.8
True
"""

from .addrmap import AddressMap, Coordinates, SCHEMES
from .bank import (
    Bank,
    BankAccess,
    REFRESH_GRANULARITIES,
    ROW_POLICIES,
    RefreshSchedule,
)
from .laws import LAWS, LawViolation, check_laws
from .request import MemRequest, Op
from .system import (
    ENGINES,
    FCFS,
    FRFCFS,
    POLICIES,
    MemSysConfig,
    MemSysStats,
    MemorySystem,
)
from .trace import (
    INTERARRIVALS,
    PackedTrace,
    TRACE_PATTERNS,
    arrival_times,
    format_trace,
    iter_trace,
    parse_trace,
    synthesize_trace,
    write_trace,
)

__all__ = [
    "AddressMap",
    "Coordinates",
    "SCHEMES",
    "Bank",
    "BankAccess",
    "REFRESH_GRANULARITIES",
    "ROW_POLICIES",
    "RefreshSchedule",
    "FCFS",
    "FRFCFS",
    "POLICIES",
    "ENGINES",
    "LAWS",
    "LawViolation",
    "check_laws",
    "MemRequest",
    "Op",
    "MemSysConfig",
    "MemSysStats",
    "MemorySystem",
    "INTERARRIVALS",
    "PackedTrace",
    "TRACE_PATTERNS",
    "arrival_times",
    "format_trace",
    "iter_trace",
    "parse_trace",
    "synthesize_trace",
    "write_trace",
]
