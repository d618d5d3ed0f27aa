"""The simulation kernel: event heap, clock, and run loop.

:class:`Simulator` is the root object of every model in this package.  It
owns the event calendar (a binary heap keyed by ``(time, priority, seq)``)
and the simulation clock, creates events/timeouts/processes, and exposes
``run`` / ``step`` execution control.

Design notes
------------
* Time is a ``float`` in *model units*; the PIM studies use HWP clock cycles
  (1 cycle = 1 ns for the Table 1 configuration).
* Determinism: two events scheduled for the same time and priority are
  processed in insertion order (monotonic sequence counter), so repeated
  runs with the same seeds produce identical trajectories.
* Unhandled failures: a failed event that no process defuses re-raises its
  exception out of :meth:`Simulator.run` — silent model errors are bugs.
"""

from __future__ import annotations

import heapq
import typing as _t
from itertools import count

from .errors import EmptySchedule, SchedulingError, StopSimulation
from .events import Event, Timeout, AllOf, AnyOf, NORMAL, URGENT
from .process import Process, ProcessGenerator

if _t.TYPE_CHECKING:  # pragma: no cover
    from .trace import Tracer

__all__ = ["Simulator"]


class Simulator:
    """Discrete-event simulation kernel.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (default ``0.0``).
    tracer:
        Optional :class:`~repro.desim.trace.Tracer` receiving structured
        trace records from instrumented components.

    Examples
    --------
    >>> sim = Simulator()
    >>> def proc(sim):
    ...     yield sim.timeout(5.0)
    ...     return sim.now
    >>> p = sim.process(proc(sim))
    >>> sim.run()
    >>> p.value
    5.0
    """

    def __init__(
        self,
        start_time: float = 0.0,
        tracer: _t.Optional["Tracer"] = None,
    ) -> None:
        self._now = float(start_time)
        self._heap: list = []
        self._seq = count()
        self._active_process: _t.Optional[Process] = None
        self.tracer = tracer

    # ------------------------------------------------------------------
    # clock & introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> _t.Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        return self._heap[0][0] if self._heap else float("inf")

    def __len__(self) -> int:
        """Number of scheduled-but-unprocessed events."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # event factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def at(self, when: float, value: object = None) -> Event:
        """Create an event that triggers at *absolute* time ``when``.

        Unlike ``timeout(when - now)``, the event fires at exactly the
        float ``when`` — ``now + (when - now)`` can differ from ``when``
        in the last ulps, which matters to models that must reproduce
        trace timestamps bit-for-bit (like the tests' event-calendar
        replay of the memory system).

        Raises
        ------
        SchedulingError
            If ``when`` lies in the past.
        """
        when = float(when)
        if when < self._now:
            raise SchedulingError(
                f"cannot schedule an event at {when!r}, in the past "
                f"(now={self._now!r})"
            )
        event = Event(self)
        event._ok = True
        event._value = value
        heapq.heappush(
            self._heap, (when, NORMAL, next(self._seq), event)
        )
        return event

    def process(
        self, generator: ProcessGenerator, name: _t.Optional[str] = None
    ) -> Process:
        """Start a new :class:`Process` driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: _t.Iterable[Event]) -> AllOf:
        """Event that triggers when all ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events: _t.Iterable[Event]) -> AnyOf:
        """Event that triggers when any of ``events`` has succeeded."""
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # scheduling & execution
    # ------------------------------------------------------------------
    def schedule(
        self, event: Event, delay: float = 0.0, priority: int = NORMAL
    ) -> None:
        """Insert ``event`` into the calendar ``delay`` units from now."""
        if delay < 0:
            raise SchedulingError(
                f"cannot schedule {event!r} {delay!r} units into the past"
            )
        heapq.heappush(
            self._heap, (self._now + delay, priority, next(self._seq), event)
        )

    def step(self) -> None:
        """Process the single next event.

        Advances the clock to the event's timestamp, runs its callbacks and
        surfaces unhandled failures.
        """
        try:
            when, _prio, _seq, event = heapq.heappop(self._heap)
        except IndexError:
            raise EmptySchedule("no more events to process") from None
        self._now = when
        event._process()
        if event._ok is False and not event._defused:
            raise _t.cast(BaseException, event._value)

    def run(self, until: _t.Union[None, float, int, Event] = None) -> object:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` — run until the calendar is empty.
            * a number — process every event scheduled at ``time <= until``
              then set the clock to ``until``.
            * an :class:`Event` — run until that event is processed and
              return its value (raises if the event failed and also raises
              ``RuntimeError`` if the calendar empties first).

        Returns
        -------
        object
            ``until.value`` when ``until`` is an event, else ``None``.
        """
        if until is None:
            while self._heap:
                self.step()
            return None

        if isinstance(until, Event):
            sentinel = until

            def _stop(event: Event) -> None:
                raise StopSimulation(event)

            if sentinel.callbacks is None:  # already processed
                if sentinel._ok is False:
                    raise _t.cast(BaseException, sentinel._value)
                return sentinel._value
            sentinel.add_callback(_stop)
            try:
                while self._heap:
                    self.step()
            except StopSimulation:
                if sentinel._ok is False:
                    sentinel._defused = True
                    raise _t.cast(BaseException, sentinel._value)
                return sentinel._value
            raise RuntimeError(
                f"simulation ran out of events before {sentinel!r} triggered"
            )

        horizon = float(until)
        if horizon < self._now:
            raise SchedulingError(
                f"until={horizon!r} lies in the past (now={self._now!r})"
            )
        while self._heap and self._heap[0][0] <= horizon:
            self.step()
        self._now = horizon
        return None

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    def trace(self, kind: str, **fields: object) -> None:
        """Emit a trace record if a tracer is attached (cheap no-op else)."""
        if self.tracer is not None:
            self.tracer.record(self._now, kind, fields)

    def __repr__(self) -> str:
        return f"<Simulator now={self._now!r} pending={len(self._heap)}>"
