"""Timestamped trace replay and refresh (tREFI/tRFC) modeling.

Walks the two arrival regimes of ``repro.memsys`` — line-rate
saturation vs trace-driven timestamps — and shows the sustained-
bandwidth cost of DRAM refresh at per-rank and per-bank granularity.
See ``docs/trace-formats.md`` for the trace grammar and
``docs/architecture.md`` for how both replay engines stay bit-exact.

Run: ``PYTHONPATH=src python examples/timestamped_replay.py``
"""

from repro.memsys import (
    MemSysConfig,
    MemorySystem,
    format_trace,
    parse_trace,
    synthesize_trace,
)

N = 20_000
TREFI_NS, TRFC_NS = 3900.0, 350.0  # HBM2-class refresh timings


def gbit(stats) -> float:
    return stats.sustained_bits_per_sec / 1e9


def main() -> None:
    config = MemSysConfig(n_channels=1)

    # ------------------------------------------------------------------
    # 1. line-rate vs timestamped arrivals
    # ------------------------------------------------------------------
    line_rate = MemorySystem(config).replay(
        synthesize_trace("sequential", N, config, packed=True)
    )
    spacing = 4 * config.timing.page_access_ns  # ~25% offered load
    paced = MemorySystem(config).replay(
        synthesize_trace(
            "sequential", N, config, packed=True,
            interarrival_ns=spacing,
        )
    )
    offered = config.timing.page_bits / (spacing * 1e-9) / 1e9
    print(f"line-rate sustained bandwidth:   {gbit(line_rate):6.1f} Gbit/s")
    print(
        f"timestamped ({spacing:g} ns spacing): {gbit(paced):6.1f} "
        f"Gbit/s (offered load {offered:.1f} Gbit/s)"
    )

    # the text format carries the timestamps losslessly
    tiny = synthesize_trace(
        "sequential", 3, config, interarrival_ns=spacing
    )
    text = format_trace(tiny)
    print("\ntimestamped trace lines:")
    for line in text.splitlines():
        print(f"  {line}")
    reparsed = parse_trace(text)
    assert reparsed == tiny, "round trip must be lossless"

    # ------------------------------------------------------------------
    # 2. refresh overhead: per-rank blackout vs per-bank stagger
    # ------------------------------------------------------------------
    spread = MemSysConfig(n_channels=1, scheme="bank-interleaved")
    ideal = MemorySystem(spread).replay(
        synthesize_trace("random", N, spread, seed=0, packed=True)
    )
    print(
        f"\nrefresh on random traffic (tREFI={TREFI_NS:g} ns, "
        f"tRFC={TRFC_NS:g} ns, blackout "
        f"{100 * TRFC_NS / TREFI_NS:.1f}%):"
    )
    print(f"  no refresh: {gbit(ideal):6.2f} Gbit/s")
    for granularity in ("per-rank", "per-bank"):
        refreshed = MemSysConfig(
            n_channels=1,
            scheme="bank-interleaved",
            trefi_ns=TREFI_NS,
            trfc_ns=TRFC_NS,
            refresh_granularity=granularity,
        )
        stats = MemorySystem(refreshed).replay(
            synthesize_trace("random", N, refreshed, seed=0, packed=True)
        )
        overhead = 100 * (1 - gbit(stats) / gbit(ideal))
        print(
            f"  {granularity:9s}: {gbit(stats):6.2f} Gbit/s "
            f"({overhead:.2f}% overhead)"
        )
    print(
        "\nper-rank refresh stalls the whole channel every tREFI; "
        "staggered per-bank refresh lets the scheduler work around "
        "the refreshing bank."
    )


if __name__ == "__main__":
    main()
