"""Reading a power profile: per-command energy accounting end to end.

The paper's background argues PIM's win is as much about *energy* as
performance.  This walkthrough makes that claim observable on two
replays:

1. a **host stream** (random READ/WRITE traffic) — whose recorder
   arrays are first checked against the timing laws
   (`repro.memsys.check_laws`), since every number of the
   `repro.telemetry/energy-v1` document is a post-replay reduction of
   those arrays;
2. a **PIM kernel stream** (`vector-sum`, all-bank lockstep) — whose
   pJ/bit sits well below the host stream's, because each all-bank
   command moves `banks x` the bits at in-bank energy.

Along the way it prints the per-class energy breakdown, the windowed
power profile, and the figures of merit (pJ/bit, perf-per-watt) that
`benchmarks/bench_*.py` track in every record.  See
``docs/observability.md`` for the schema and the coefficient table.

Run: ``PYTHONPATH=src python examples/energy_profile.py``
"""

from repro.memsys import (
    MemSysConfig,
    MemorySystem,
    check_laws,
    synthesize_trace,
)
from repro.pimexec import PimExecMachine, build_kernel
from repro.telemetry import (
    ENERGY_CLASSES,
    ReplayTelemetry,
    build_energy,
    validate_energy,
)

N = 20_000


def profile(telemetry, n_windows=12):
    """Build + validate one energy document on a coarse grid."""
    document = build_energy(telemetry, n_windows=n_windows)
    assert validate_energy(document) == []
    return document


def print_breakdown(document):
    total = document["total_pj"]
    for name in ENERGY_CLASSES:
        pj = document["breakdown_pj"][name]
        bar = "#" * int(round(40 * pj / total))
        print(f"  {name:<11} {pj:>14.1f} pJ  {bar}")


def print_power_profile(document):
    peak = max(document["series"]["power_w"])
    for start, watts in zip(
        document["t_start_ns"], document["series"]["power_w"]
    ):
        bar = "#" * int(round(40 * watts / peak)) if peak else ""
        print(f"  t={start:>10.0f} ns  {watts:>8.3f} W  {bar}")


def main() -> None:
    # ------------------------------------------------------------------
    # 1. host stream, checked against the timing laws
    # ------------------------------------------------------------------
    config = MemSysConfig(n_channels=2, scheme="channel-interleaved")
    trace = synthesize_trace(
        "random", N, config, seed=0, packed=True,
        write_fraction=0.25,
        interarrival_ns=6.0, interarrival="poisson",
    )
    telemetry = ReplayTelemetry()
    MemorySystem(config).replay(trace, telemetry=telemetry)
    violations = check_laws(config, telemetry.recorder.arrays)
    print(f"timing laws hold: {not violations}")
    host = profile(telemetry)
    print(
        f"host stream: {host['n_requests']} requests, "
        f"{host['total_pj']:.0f} pJ over {host['makespan_ns']:.0f} ns"
    )
    print("host energy breakdown:")
    print_breakdown(host)
    print("host power profile:")
    print_power_profile(host)

    # ------------------------------------------------------------------
    # 2. PIM kernel stream: the pJ/bit argument
    # ------------------------------------------------------------------
    kernel = build_kernel("vector-sum", n=65_536)
    machine = PimExecMachine(kernel.config)
    kernel.setup(machine)
    machine.reset_requests()
    kernel.execute(machine)
    telemetry = ReplayTelemetry()
    result = machine.replay(telemetry=telemetry)
    assert kernel.check(machine)
    pim = profile(telemetry)
    print(
        f"pim stream: {pim['n_requests']} commands on the "
        f"{result.engine} engine, {pim['total_pj']:.0f} pJ"
    )
    print("pim energy breakdown:")
    print_breakdown(pim)

    # ------------------------------------------------------------------
    # 3. figures of merit
    # ------------------------------------------------------------------
    print(f"host pJ/bit: {host['pj_per_bit']:.3f}")
    print(f"pim  pJ/bit: {pim['pj_per_bit']:.3f}")
    print(
        "pim moves bits cheaper than the host stream: "
        f"{pim['pj_per_bit'] < host['pj_per_bit']}"
    )
    print(
        f"host perf-per-watt: "
        f"{host['requests_per_s_per_w']:.3e} requests/s/W"
    )
    print(
        f"pim  perf-per-watt: "
        f"{pim['requests_per_s_per_w']:.3e} commands/s/W"
    )


if __name__ == "__main__":
    main()
