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
* :mod:`~repro.memsys.controller` — per-channel request queues with FCFS
  and FR-FCFS scheduling, running as :mod:`repro.desim` processes;
* :mod:`~repro.memsys.system` — the top-level :class:`MemorySystem`
  replaying traces and reporting row-hit rate, sustained bandwidth, and
  queue latency through :mod:`repro.desim.stats`;
* :mod:`~repro.memsys.trace` — a text trace format (lazy parser /
  streaming writer), array-backed :class:`PackedTrace` streams, and
  synthetic trace generation from :mod:`repro.workloads.access_patterns`;
* :mod:`~repro.memsys.fastpath` — the event-free fast-path replay
  engine.

The :mod:`repro.pimexec` layer builds on this package to make the
memory system *executable*: per-bank PIM execution units (HBM-PIM-style
CRF/GRF/SRF register files) run microkernels whose every command is an
all-bank column access replayed here, with register and microcode
writes travelling as :attr:`Op.AB <repro.memsys.request.Op>` broadcast
requests that occupy a channel without touching row buffers.

Replay engines
--------------
:meth:`MemorySystem.replay` accepts ``engine="event" | "fast" | "auto"``:

* ``"event"`` replays through the :mod:`repro.desim` kernel — every
  request is a scheduled process step, per-event trace hooks fire, and
  request objects carry their full runtime history (~50k requests/s);
* ``"fast"`` replays through closed-form ready-time arithmetic — banks
  are plain ``(open_row, ready_at_ns)`` records, open-row streaks are
  charged as batched page-access spans, FCFS/FR-FCFS ordering is
  reproduced with an incremental ready-time scan, trace timestamps
  solve a segmented Lindley recurrence, and refresh blackouts become
  epoch-chunked ready-time fences (millions of requests/s; ~5M/s
  measured on a 1M-request streaming replay, ~3M/s with per-rank
  refresh on).  Vectorized certificates decide per trace whether the
  closed form is exact, with an exact bit-identical incremental
  fallback for traces (e.g. random traffic under FR-FCFS, per-bank
  refresh, refresh combined with timestamps) that fail one;
* ``"auto"`` (default) picks the fast path whenever no per-event trace
  hooks are installed (``sim.tracer is None``) and the simulator is
  private to the system with an untouched clock, and the event engine
  otherwise.

Both engines produce bit-identical per-request times and bank counters,
and every replay path reduces those with the one
:func:`~repro.memsys.system.reduce_stats`, so both produce the same
:class:`MemSysStats` to the last bit; ``tests/memsys/test_fastpath.py``
and ``tests/memsys/test_refresh.py`` assert this across every scheme x
policy x pattern x refresh granularity x arrival mode combination,
including PIM all-bank traces.

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
from .controller import ChannelController, FCFS, FRFCFS, POLICIES
from .request import MemRequest, Op
from .system import ENGINES, MemSysConfig, MemSysStats, MemorySystem
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
    "ChannelController",
    "FCFS",
    "FRFCFS",
    "POLICIES",
    "ENGINES",
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
