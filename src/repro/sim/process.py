"""Cooperative processes on top of the event engine.

A simulated program is a Python generator.  It performs blocking
simulated operations by yielding *primitives*:

* ``Sleep(duration)`` — advance virtual time.
* ``Tail()`` — park until the tail of the current instant: every
  ordinary event at the current timestamp runs first.
* :class:`SimEvent` — park until someone calls :meth:`SimEvent.trigger`;
  the trigger value becomes the result of the ``yield``.

Higher layers (MPI calls, filesystem requests) are themselves
generators that the user code delegates to with ``yield from``, so the
kernel only ever sees these primitives.  This is the SimPy execution
model re-implemented in ~100 lines, with strictly deterministic
scheduling.

Resumption never goes through the event heap.  A trigger resumes a
waiting process at once when no process step is running; a resume
requested while a step runs joins the simulator's FIFO run list, and
the outermost resume drains that list after its own step returns.  So
a step never nests inside another step, the stack stays shallow
however long a chain of same-instant resumes gets, and same-instant
resumes run in the order they were requested.  Yielding an event that
has already triggered continues the generator in the same step.  Only
``Sleep``, ``SleepUntil``, ``Tail`` and a process's first step are
queued events; they enter through the same trampoline.
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Iterable
from dataclasses import dataclass

from repro.sim.engine import Simulator


@dataclass(frozen=True, slots=True)
class Sleep:
    """Primitive: suspend the yielding process for ``duration`` seconds."""

    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"negative sleep duration: {self.duration!r}")


@dataclass(frozen=True, slots=True)
class Tail:
    """Primitive: suspend until the tail of the current instant.

    The process resumes at the same virtual time, after every ordinary
    event scheduled for this instant — including zero-delay events
    those handlers add (see :meth:`Simulator.schedule_tail`).  Service
    loops yield this before consuming a request queue so that the set
    of same-instant arrivals is complete, and their *content* — not
    the scheduler's tie-breaking — decides service order.
    """


@dataclass(frozen=True, slots=True)
class SleepUntil:
    """Primitive: suspend until *exactly* absolute virtual ``time``.

    Dispatches through :meth:`Simulator.schedule_abs`, so the process
    resumes at the given float verbatim rather than at
    ``now + (time - now)`` — the bit-exact landing the b_eff_io
    fast-forward needs.
    """

    time: float


class SimEvent:
    """One-shot event carrying a value.

    Processes wait by yielding the event; once triggered the event
    stays triggered, so late waiters resume immediately (this is what
    makes sequential waiting on a set of events equivalent to a
    wait-all).
    """

    __slots__ = ("sim", "triggered", "value", "_waiters", "_name")

    def __init__(self, sim: Simulator, name: str | tuple[object, ...] = "") -> None:
        self.sim = sim
        self.triggered = False
        self.value: object = None
        self._name = name
        #: plain callables taking the trigger value: glue callbacks and
        #: bound :meth:`Process._resume` methods, in registration order
        self._waiters: list[Callable[[object], object]] = []

    @property
    def name(self) -> str:
        """The name given, with a ``(template, *args)`` tuple rendered by
        ``template.format(*args)`` here, so hot paths never format it."""
        name = self._name
        if isinstance(name, str):
            return name
        template, *args = name
        return str(template).format(*args)

    def trigger(self, value: object = None) -> None:
        """Fire the event: run glue callbacks and resume waiting processes
        (at once, or after the running step; see the module docstring)."""
        if self.triggered:
            raise RuntimeError(f"SimEvent {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else f"{len(self._waiters)} waiting"
        return f"<SimEvent {self.name!r} {state}>"


def wait_all(events: Iterable[SimEvent]) -> Generator[SimEvent, object, list[object]]:
    """Wait until every event in ``events`` has triggered.

    Returns the list of event values in input order.  Because events
    stay triggered, waiting on them one after another completes at the
    time of the last trigger — exactly a wait-all.
    """
    values: list[object] = []
    for ev in events:
        values.append((yield ev))
    return values


def on_trigger(event: SimEvent, callback: Callable[[object], object]) -> None:
    """Invoke ``callback(value)`` when ``event`` triggers.

    On a pending event the callback runs synchronously inside
    :meth:`SimEvent.trigger`, in registration order, at the trigger's
    virtual time and without an event-queue entry.  On an event that
    has already triggered it runs at the current time via the event
    queue.  Either way the order is
    fixed by the order of triggers, so it is deterministic.  This is
    the lightweight alternative to a full Process for glue code that
    chains events.
    """
    if event.triggered:
        event.sim.schedule(0.0, lambda: callback(event.value))
    else:
        event._waiters.append(callback)


class Process:
    """Drives a generator as a simulated process."""

    __slots__ = ("sim", "name", "_gen", "finished", "result", "done_event", "daemon")

    def __init__(
        self,
        sim: Simulator,
        gen: Generator[object, object, object],
        name: str = "proc",
        daemon: bool = False,
    ) -> None:
        self.sim = sim
        self.name = name
        self._gen = gen
        self.finished = False
        #: daemon processes (service loops) may stay blocked at shutdown
        self.daemon = daemon
        self.result: object = None
        #: triggers with the generator's return value when it finishes
        self.done_event = SimEvent(sim, name=f"{name}.done")
        sim.processes.append(self)
        # Start lazily so process creation order does not advance time;
        # the first step runs at the current time via the event queue.
        sim.schedule(0.0, self._resume)

    def _resume(self, value: object = None) -> None:
        """Run the next step now, or after the running step returns.

        The outermost call is the trampoline: it drains the
        simulator's run list, so the steps it runs never nest.
        """
        sim = self.sim
        run_list = sim._run_list
        if sim._stepping:
            run_list.append((self, value))
            return
        sim._stepping = True
        try:
            self._step(value)
            while run_list:
                proc, value = run_list.popleft()
                proc._step(value)
        finally:
            sim._stepping = False
            run_list.clear()  # empty unless a step raised, which ends the run

    def _step(self, value: object) -> None:
        gen = self._gen
        while True:
            try:
                command = gen.send(value)
            except StopIteration as stop:
                self.finished = True
                self.result = stop.value
                self.done_event.trigger(stop.value)
                return
            if isinstance(command, SimEvent):
                if not command.triggered:
                    command._waiters.append(self._resume)
                    return
                value = command.value  # already fired: continue in this step
            elif isinstance(command, Sleep):
                self.sim.schedule(command.duration, self._resume)
                return
            elif isinstance(command, SleepUntil):
                self.sim.schedule_abs(command.time, self._resume)
                return
            elif isinstance(command, Tail):
                self.sim.schedule_tail(self._resume)
                return
            else:
                raise TypeError(
                    f"process {self.name!r} yielded {command!r}; only Sleep, "
                    "SleepUntil, Tail and SimEvent are valid primitives (did "
                    "you forget 'yield from'?)"
                )

    def __repr__(self) -> str:
        state = "finished" if self.finished else "running"
        return f"<Process {self.name!r} {state}>"
