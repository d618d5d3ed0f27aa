"""Transformer-layer workload generator: program-dialect traces.

:func:`transformer_layer_trace` emits the *timing-level* host+PIM
request schedule of one full transformer layer — LayerNorm, Q/K/V
projections, per-head attention (scores GEMM, softmax, ``P @ V``),
output projection, a second LayerNorm, and the feed-forward block —
in the HBM-PIMulator program-trace dialect that
:mod:`repro.pimexec.program` parses (``R/W <address>``, ``R/W GPR``,
``AB W``, ``PIM …`` records), the way HBM-PIMulator's ``Tracegen``
scripts emit transformer traces for Ramulator-style replay.

The schedule mirrors the :mod:`repro.nn.kernels` library exactly:

* GEMMs are tiled from the GEMV primitive — the ``A`` operand is
  row-striped across the representative channel's banks, ``B`` enters
  as SRF scalar broadcasts (``AB W``), and output columns accumulate
  ``GRF_REGS`` at a time in GRF_B before a ``MOV`` writes them back;
* softmax and LayerNorm split work between host passes (``R``/``W``
  raw-address records over the affected pages) and in-bank reductions
  (unrolled ``PIM ADD``/``MAC`` streams) with ``R GPR`` readbacks;
* intermediates chain through bank state like the library's composed
  layers — only the layer's final output is host-read back;
* every request-lowering record carries an ``@<ns>`` issue timestamp
  from :func:`repro.memsys.trace.arrival_times` — a fixed cadence or
  seeded-Poisson (bursty) arrival process — so the trace replays under
  its recorded traffic intensity through **both** memsys engines with
  bit-identical statistics (``exp_nn`` checks this).

The trace is *unrolled* (one line per dynamic PIM instruction, no
``JUMP``), matching the HBM-PIMulator convention, and purely
timing-level: it carries no data payloads, so
:meth:`PimProgram.to_requests` lowers it straight to the
:class:`~repro.memsys.PackedTrace` that :meth:`MemorySystem.replay`
takes, without a functional machine.  :func:`transformer_layer_program` builds the same
layer directly as program records, without the text round trip.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..errors import ConfigError
from ..memsys import MemSysConfig
from ..memsys.trace import INTERARRIVALS, arrival_times
from ..pimexec.commands import GRF_REGS, parse_command
from ..pimexec.layout import Layout
from ..pimexec.machine import page_encoder
from ..pimexec.program import (
    AB,
    GPR,
    PIM,
    SB,
    PimProgram,
    ProgramRecord,
    annotate_dependencies,
)

__all__ = [
    "TransformerLayerSpec",
    "transformer_layer_trace",
    "transformer_layer_program",
]


@dataclasses.dataclass(frozen=True)
class TransformerLayerSpec:
    """Shape of one transformer layer.

    Attributes
    ----------
    d_model:
        Model width (divisible by ``n_heads``).
    n_heads:
        Attention heads; ``d_head = d_model // n_heads``.
    seq_len:
        Tokens per sequence.
    d_ff:
        Feed-forward width; ``None`` (default) means ``4 * d_model``.
    """

    d_model: int = 32
    n_heads: int = 2
    seq_len: int = 32
    d_ff: _t.Optional[int] = None

    def __post_init__(self) -> None:
        if self.d_model < 1 or self.n_heads < 1 or self.seq_len < 1:
            raise ConfigError(
                "d_model, n_heads, and seq_len must all be >= 1"
            )
        if self.d_model % self.n_heads:
            raise ConfigError(
                f"d_model={self.d_model} must be divisible by "
                f"n_heads={self.n_heads}"
            )
        if self.d_ff is not None and self.d_ff < 1:
            raise ConfigError("d_ff must be >= 1")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @property
    def ff_width(self) -> int:
        return 4 * self.d_model if self.d_ff is None else self.d_ff


class _TraceBuilder:
    """Builds the layer's program records; keeps dialect text on request.

    Every emitter appends one :class:`ProgramRecord` (PIM records take
    their command from the memoized :func:`parse_command` on the same
    text the dialect carries) and, with ``keep_text``, the line's
    text; comments only advance the line number.
    """

    def __init__(
        self, config: MemSysConfig, channel: int, keep_text: bool = False
    ) -> None:
        if not 0 <= channel < config.n_channels:
            raise ConfigError(
                f"channel {channel} out of range "
                f"[0, {config.n_channels})"
            )
        self.layout = Layout(config)
        self.channel = channel
        self.banks = self.layout.units_per_channel
        #: The layer stripes its rows over one channel's banks.
        self.rows_per_tile = self.banks * self.layout.lanes
        self._encode = page_encoder(config)
        self.records: _t.List[ProgramRecord] = []
        #: Dialect text per line (comments included), or ``None``.
        self.lines: _t.Optional[_t.List[str]] = [] if keep_text else None
        self._lineno = 0
        self._slots = 0

    # -- slot / address helpers ---------------------------------------
    def alloc(self, slots: int) -> int:
        base = self._slots
        self._slots += slots
        # the GPR/CFR apertures occupy the two highest rows
        capacity = self.layout.capacity_slots - 2 * self.layout.ppr
        if self._slots > capacity:
            raise ConfigError(
                f"transformer layer needs {self._slots} slots per "
                f"bank; geometry holds {capacity}"
            )
        return base

    def page_address(self, bank: int, slot: int) -> int:
        row, col = self.layout.slot_addr(slot)
        return self._encode(self.channel, bank, row, col)

    # -- record emitters ----------------------------------------------
    def _next_line(self) -> int:
        self._lineno += 1
        return self._lineno

    def comment(self, text: str) -> None:
        self._next_line()
        if self.lines is not None:
            self.lines.append(f"# {text}")

    def host(self, write: bool, bank: int, slot: int) -> None:
        addr = self.page_address(bank, slot)
        self.records.append(
            ProgramRecord(self._next_line(), SB, write=write, addr=addr)
        )
        if self.lines is not None:
            self.lines.append(f"{'W' if write else 'R'} {addr:#010x}")

    def host_pages(self, write: bool, base: int, slots: int) -> None:
        """One host transaction per bank per slot of a page region."""
        for slot in range(base, base + slots):
            for bank in range(self.banks):
                self.host(write, bank, slot)

    def gpr(self, write: bool, index: int) -> None:
        self.records.append(
            ProgramRecord(self._next_line(), GPR, write=write, index=index)
        )
        if self.lines is not None:
            self.lines.append(f"{'W' if write else 'R'} GPR {index}")

    def broadcast(self, gpr_index: int) -> None:
        """Stage + all-bank broadcast (one SRF/GRF register write)."""
        self.gpr(True, gpr_index)
        self.records.append(ProgramRecord(self._next_line(), AB, write=True))
        if self.lines is not None:
            self.lines.append("AB W")

    def pim(self, text: str) -> None:
        self.records.append(
            ProgramRecord(
                self._next_line(), PIM, command=parse_command(text)
            )
        )
        if self.lines is not None:
            self.lines.append(f"PIM {text}")

    def grf_readback(self) -> None:
        """Per-bank GRF readback, modeled as staging-register reads."""
        for bank in range(self.banks):
            self.gpr(False, bank)

    # -- composite schedules ------------------------------------------
    def bank_op(self, slot: int) -> str:
        row, col = self.layout.slot_addr(slot)
        return f"BANK,{row},{col}"

    def gemm(
        self,
        t_count: int,
        a_slot: _t.Callable[[int, int], int],
        k: int,
        n: int,
        result_base: int,
        zero_slot: int,
        readback: bool = False,
    ) -> None:
        """The kernel library's tiled GEMM schedule, unrolled.

        ``readback`` adds a host read of the result region — only the
        layer's *final* output is read back; intermediates chain
        through bank state exactly as the kernel library's composed
        layers do.
        """
        zero = self.bank_op(zero_slot)
        for t in range(t_count):
            for j0 in range(0, n, GRF_REGS):
                width = min(GRF_REGS, n - j0)
                for c in range(width):
                    self.pim(f"FILL GRF,{GRF_REGS + c} {zero}")
                for kk in range(k):
                    a = self.bank_op(a_slot(t, kk))
                    for c in range(width):
                        self.broadcast(c)
                    for c in range(width):
                        self.pim(
                            f"MAC GRF,{GRF_REGS + c} {a} SRF,{c}"
                        )
                for c in range(width):
                    out = self.bank_op(result_base + t * n + j0 + c)
                    self.pim(f"MOV {out} GRF,{GRF_REGS + c}")
        if readback:
            self.host_pages(False, result_base, t_count * n)

    def reduction(
        self,
        base: int,
        t: int,
        c_count: int,
        accumulator: int,
        zero_slot: int,
        square: bool = False,
    ) -> None:
        """Unrolled FILL-zero + ADD (or MAC x*x) over one tile's slots."""
        self.pim(
            f"FILL GRF,{GRF_REGS + accumulator} "
            f"{self.bank_op(zero_slot)}"
        )
        for s in range(c_count):
            operand = self.bank_op(base + t * c_count + s)
            if square:
                self.pim(
                    f"MAC GRF,{GRF_REGS + accumulator} {operand} "
                    f"{operand}"
                )
            else:
                self.pim(
                    f"ADD GRF,{GRF_REGS + accumulator} {operand} "
                    f"GRF,{GRF_REGS + accumulator}"
                )

    def softmax(
        self,
        base: int,
        t_count: int,
        c_count: int,
        scratch_base: int,
        zero_slot: int,
    ) -> None:
        """Host max/exp pass + PIM sum reduction + PIM scale pass."""
        for t in range(t_count):
            self.host_pages(False, base + t * c_count, c_count)
            self.host_pages(True, base + t * c_count, c_count)
            self.reduction(base, t, c_count, 0, zero_slot)
            self.grf_readback()
            for bank in range(self.banks):
                self.host(True, bank, scratch_base + t)
            self.pim(f"FILL GRF,0 {self.bank_op(scratch_base + t)}")
            for s in range(c_count):
                operand = self.bank_op(base + t * c_count + s)
                self.pim(f"MUL {operand} {operand} GRF,0")

    def layernorm(
        self,
        base: int,
        t_count: int,
        c_count: int,
        scratch_base: int,
        zero_slot: int,
    ) -> None:
        """PIM sum + sum-of-squares, host stats, PIM affine pass."""
        for t in range(t_count):
            self.reduction(base, t, c_count, 0, zero_slot)
            self.grf_readback()
            self.reduction(base, t, c_count, 1, zero_slot, square=True)
            self.grf_readback()
            for bank in range(self.banks):
                self.host(True, bank, scratch_base + 2 * t)
            for bank in range(self.banks):
                self.host(True, bank, scratch_base + 2 * t + 1)
            self.pim(
                f"FILL GRF,0 {self.bank_op(scratch_base + 2 * t)}"
            )
            self.pim(
                f"FILL GRF,1 {self.bank_op(scratch_base + 2 * t + 1)}"
            )
            for s in range(c_count):
                operand = self.bank_op(base + t * c_count + s)
                self.broadcast(0)  # gamma[s] -> SRF
                self.broadcast(1)  # beta[s] -> SRF
                self.pim(f"FILL GRF,{GRF_REGS} {operand}")
                self.pim(
                    f"ADD GRF,{GRF_REGS} GRF,{GRF_REGS} GRF,0"
                )
                self.pim(
                    f"MUL GRF,{GRF_REGS} GRF,{GRF_REGS} GRF,1"
                )
                self.pim(f"MAD GRF,{GRF_REGS} GRF,{GRF_REGS} SRF,0")
                self.pim(f"MOV {operand} GRF,{GRF_REGS}")

    # -- finalization -------------------------------------------------
    def finish(
        self,
        interarrival_ns: _t.Optional[float],
        interarrival: str,
        seed: int,
        start_ns: float,
    ) -> None:
        """Annotate dependencies and stamp every record's issue time."""
        annotate_dependencies(self.records)
        if interarrival_ns is None:
            return
        stamps = arrival_times(
            len(self.records),
            interarrival_ns,
            mode=interarrival,
            start_ns=start_ns,
            seed=seed,
        ).tolist()
        for record, when in zip(self.records, stamps):
            record.timestamp = when

    def render(self) -> str:
        """The dialect text of the (stamped) records and comments."""
        assert self.lines is not None
        records = iter(self.records)
        out = []
        for text in self.lines:
            if not text.startswith("#"):
                when = next(records).timestamp
                if when is not None:
                    text = f"{text} @{when!r}"
            out.append(text)
        return "\n".join(out) + "\n"


def _layer_builder(
    spec: _t.Optional[TransformerLayerSpec],
    config: _t.Optional[MemSysConfig],
    keep_text: bool,
    *,
    channel: int = 0,
    interarrival_ns: _t.Optional[float] = 4.0,
    interarrival: str = "fixed",
    seed: int = 0,
    start_ns: float = 0.0,
) -> _TraceBuilder:
    """Run the layer schedule into a stamped :class:`_TraceBuilder`."""
    spec = spec or TransformerLayerSpec()
    config = config or MemSysConfig()
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
    builder = _TraceBuilder(config, channel, keep_text)
    d, heads, seq = spec.d_model, spec.n_heads, spec.seq_len
    d_head, d_ff = spec.d_head, spec.ff_width
    t_count = -(-seq // builder.rows_per_tile)

    x_base = builder.alloc(t_count * d)
    ln_scratch = builder.alloc(2 * t_count)
    qkv_base = [builder.alloc(t_count * d) for _ in range(3)]
    scores_base = [builder.alloc(t_count * seq) for _ in range(heads)]
    sm_scratch = [builder.alloc(t_count) for _ in range(heads)]
    attn_base = [builder.alloc(t_count * d_head) for _ in range(heads)]
    proj_base = builder.alloc(t_count * d)
    ln2_scratch = builder.alloc(2 * t_count)
    ffn_hidden = builder.alloc(t_count * d_ff)
    ffn_out = builder.alloc(t_count * d)
    zero_slot = builder.alloc(1)

    builder.comment(
        f"transformer layer: d_model={d} heads={heads} seq={seq} "
        f"d_ff={d_ff} (channel {channel}, "
        f"{t_count} tile(s) of {builder.rows_per_tile} rows)"
    )
    builder.comment("stage activations X")
    builder.host_pages(True, x_base, t_count * d)
    builder.comment("layernorm 1 (in place)")
    builder.layernorm(x_base, t_count, d, ln_scratch, zero_slot)
    for name, base in zip("QKV", qkv_base):
        builder.comment(f"{name} projection: X @ W{name.lower()}")
        builder.gemm(
            t_count,
            lambda t, kk: x_base + t * d + kk,
            d,
            d,
            base,
            zero_slot,
        )
    for h in range(heads):
        builder.comment(f"head {h}: scores = Q_h @ K_h^T / sqrt(d)")
        builder.gemm(
            t_count,
            lambda t, kk, _h=h: qkv_base[0] + t * d + _h * d_head + kk,
            d_head,
            seq,
            scores_base[h],
            zero_slot,
        )
        builder.comment(f"head {h}: row-wise softmax")
        builder.softmax(
            scores_base[h], t_count, seq, sm_scratch[h], zero_slot
        )
        builder.comment(f"head {h}: P @ V_h")
        builder.gemm(
            t_count,
            lambda t, kk, _h=h: scores_base[_h] + t * seq + kk,
            seq,
            d_head,
            attn_base[h],
            zero_slot,
        )
    builder.comment("output projection: concat(heads) @ Wo")

    def proj_slot(t: int, kk: int) -> int:
        head, offset = divmod(kk, d_head)
        return attn_base[head] + t * d_head + offset

    builder.gemm(t_count, proj_slot, d, d, proj_base, zero_slot)
    builder.comment("layernorm 2 (in place)")
    builder.layernorm(proj_base, t_count, d, ln2_scratch, zero_slot)
    builder.comment("ffn: H = X @ W1")
    builder.gemm(
        t_count,
        lambda t, kk: proj_base + t * d + kk,
        d,
        d_ff,
        ffn_hidden,
        zero_slot,
    )
    builder.comment("ffn: host ReLU pass over H")
    builder.host_pages(False, ffn_hidden, t_count * d_ff)
    builder.host_pages(True, ffn_hidden, t_count * d_ff)
    builder.comment("ffn: out = relu(H) @ W2, host readback of the layer output")
    builder.gemm(
        t_count,
        lambda t, kk: ffn_hidden + t * d_ff + kk,
        d_ff,
        d,
        ffn_out,
        zero_slot,
        readback=True,
    )
    builder.finish(interarrival_ns, interarrival, seed, start_ns)
    return builder


def transformer_layer_trace(
    spec: _t.Optional[TransformerLayerSpec] = None,
    config: _t.Optional[MemSysConfig] = None,
    *,
    channel: int = 0,
    interarrival_ns: _t.Optional[float] = 4.0,
    interarrival: str = "fixed",
    seed: int = 0,
    start_ns: float = 0.0,
) -> str:
    """Emit one transformer layer as a program-dialect trace.

    Parameters
    ----------
    spec:
        Layer shape (defaults: ``d_model=32, n_heads=2, seq_len=32``).
    config:
        Memory-system geometry the addresses are encoded against
        (paper defaults if omitted).
    channel:
        Representative channel carrying the lockstep PIM stream.
    interarrival_ns:
        Mean issue interarrival; every request-lowering record gets an
        ``@<ns>`` stamp.  ``None`` emits an untimestamped (line-rate)
        trace.
    interarrival:
        ``"fixed"`` cadence or ``"poisson"`` bursty arrivals (seeded
        exponential gaps) — see
        :data:`repro.memsys.trace.INTERARRIVALS`.
    seed:
        Seed of the Poisson arrival process.
    start_ns:
        Issue time of the first record.

    Returns
    -------
    str
        Trace text for :func:`repro.pimexec.parse_pim_program`.
    """
    return _layer_builder(
        spec,
        config,
        True,
        channel=channel,
        interarrival_ns=interarrival_ns,
        interarrival=interarrival,
        seed=seed,
        start_ns=start_ns,
    ).render()


def transformer_layer_program(
    spec: _t.Optional[TransformerLayerSpec] = None,
    config: _t.Optional[MemSysConfig] = None,
    **kwargs: _t.Any,
) -> PimProgram:
    """The :class:`~repro.pimexec.program.PimProgram` of the trace.

    Built record by record (keywords as for
    :func:`transformer_layer_trace`), without rendering the text: the
    records equal those :func:`~repro.pimexec.parse_pim_program` reads
    back from it.
    """
    return PimProgram(_layer_builder(spec, config, False, **kwargs).records)
