"""Self-profiling: coarse per-phase wall-clock timers.

The replay engines time their own phases — ``decode`` (array extraction
and address decode), ``certificate`` (the closed-form certificates),
``tier-execute`` (the closed-form solve, or the exact/event replay
loop, plus gathering the per-request arrays), ``stats-gather``
(:func:`~repro.memsys.system.reduce_stats`) — so a metrics
snapshot shows *where the simulator itself spends wall-clock time*.
This quantifies the Python-loop cost that motivates the ROADMAP's
vectorized-pimexec item: on certified traces nearly all time is
``decode`` + ``tier-execute`` array arithmetic, while a certificate
fallback shifts the profile into the per-request exact tier.

The profiler is deliberately coarse (a handful of
:func:`time.perf_counter` pairs per replay, never per request) so it is
free at the <5% telemetry-overhead floor ``bench_memsys`` enforces.
"""

from __future__ import annotations

import contextlib
import time
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    from .registry import MetricsRegistry

__all__ = ["PhaseProfiler", "null_phase"]


def null_phase(name: str) -> _t.ContextManager[None]:
    """Stand-in for :meth:`PhaseProfiler.phase` when profiling is off."""
    return contextlib.nullcontext()


class PhaseProfiler:
    """Accumulates wall-clock seconds per named phase, in entry order."""

    def __init__(self) -> None:
        self._seconds: _t.Dict[str, float] = {}

    @contextlib.contextmanager
    def phase(self, name: str) -> _t.Iterator[None]:
        """Time one phase; nested/repeated phases accumulate."""
        begin = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - begin)

    def add(self, name: str, seconds: float) -> None:
        """Charge ``seconds`` to ``name`` directly."""
        if seconds < 0:
            raise ValueError(f"negative phase time: {seconds!r}")
        self._seconds[name] = self._seconds.get(name, 0.0) + seconds

    # ------------------------------------------------------------------
    @property
    def phases(self) -> _t.Dict[str, float]:
        """Phase -> accumulated seconds (insertion order preserved)."""
        return dict(self._seconds)

    @property
    def total_seconds(self) -> float:
        return sum(self._seconds.values())

    def metrics_into(
        self, registry: "MetricsRegistry", **tags: _t.Any
    ) -> "MetricsRegistry":
        """Emit one ``profile.phase_seconds`` gauge per phase."""
        for name, seconds in self._seconds.items():
            registry.gauge(
                "profile.phase_seconds", seconds, phase=name, **tags
            )
        return registry

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={seconds:.3g}s"
            for name, seconds in self._seconds.items()
        )
        return f"<PhaseProfiler {inner or '(empty)'}>"
