"""Event heap and virtual clock.

The simulator is a plain binary-heap event loop.  Events are ordered
by ``(time, lane, tie_key, sequence)`` where, normally, ``tie_key``
*is* the monotonically increasing sequence number — which makes every
run bit-for-bit deterministic regardless of callback identity or
hashing.

``lane`` separates ordinary events (lane 0) from *end-of-instant*
events (lane 1, :meth:`Simulator.schedule_tail`): a tail event runs
only after every ordinary event at the same timestamp — including
ones scheduled *while* the instant executes.  Subsystems that batch
same-instant work (the fluid network's allocation flush, the I/O
server's queue pop) use the tail lane so the batch boundary is a
property of virtual time, not of handler arrival order.

The ``tie_key`` ordering component exists for the nondeterminism sanitizer
(:mod:`repro.devtools.sanitizer`): under an instrumented run the tie
key is a seed-derived mix of the sequence number, which deterministically
*permutes* the execution order of same-timestamp events (within each
lane — a shuffled tail event still runs after every ordinary event of
its instant) while leaving the time axis untouched.  A simulation whose results survive that
shuffle has provably commutative same-time handlers; one whose
results change has a latent tie-break dependency.  Instrumentation is
opt-in (explicitly via :meth:`Simulator.instrument`, globally via the
sanitizer's context manager, or by the ``REPRO_TIE_SHUFFLE``
environment variable) and costs an un-instrumented run nothing but
one ``is None`` test per scheduled event.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Callable
from typing import Any

import heapq

#: hook installed by repro.devtools.sanitizer: called with every new
#: Simulator so a sanitized region can instrument engines it never
#: sees constructed (machine factories build their own).  None when no
#: sanitizer context is active.
_instrument_hook: Callable[["Simulator"], None] | None = None

#: environment toggle: when set to an integer, every Simulator shuffles
#: same-time tie-breakers under that seed (see the sanitizer docs)
TIE_SHUFFLE_ENV = "REPRO_TIE_SHUFFLE"

_MASK64 = (1 << 64) - 1

#: an opaque handle for :meth:`Simulator.cancel` — the event's heap entry
EventHandle = list[Any]


def _mix64(seed: int, seq: int) -> int:
    """SplitMix64-style avalanche of (seed, seq) — a deterministic,
    hash-salt-free permutation key for same-time event shuffling."""
    z = (seq + 0x9E3779B97F4A7C15 * (seed + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class DeadlockError(RuntimeError):
    """Raised when the event queue drains while processes are still blocked."""


class EventBudgetError(RuntimeError):
    """Raised when a guarded run exhausts its event budget with work pending.

    This is the engine-level "never hang" guard for fault-injected
    runs: a fault that keeps the simulation spinning (instead of
    deadlocking, which :meth:`Simulator.run_to_completion` already
    detects) trips the budget and surfaces as a flagged partial
    result rather than an unbounded loop.
    """


class Simulator:
    """Virtual-time discrete-event scheduler.

    Callbacks are zero-argument callables.  Time is a float in
    seconds of *virtual* time; the simulator never consults the wall
    clock.
    """

    __slots__ = ("_now", "_seq", "_heap", "processes",
                 "_run_list", "_stepping", "_tie_seed", "_recorder")

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        #: heap entries are mutable [time, lane, tie_key, seq, callback]
        #: quintuples.  An entry is its own cancellation handle: cancel
        #: nulls the callback in place and firing does the same, so the
        #: heap is the only per-event state and a handle that fired or
        #: was cancelled leaves nothing behind.
        self._heap: list[EventHandle] = []
        #: live processes registered by :class:`repro.sim.process.Process`
        self.processes: list[Any] = []
        #: (process, value) resumes requested while a step runs; the
        #: outermost resume drains them in FIFO order at the current
        #: time, off the heap (see :mod:`repro.sim.process`)
        self._run_list: deque[tuple[Any, object]] = deque()
        #: True while a process step executes
        self._stepping = False
        #: sanitizer state: None = plain FIFO tie-breaking (tie_key == seq)
        self._tie_seed: int | None = None
        #: sanitizer trace sink: callback(time, seq, event_callback)
        self._recorder: Callable[[float, int, Callable[[], None]], None] | None = None
        if _instrument_hook is not None:
            _instrument_hook(self)
        elif TIE_SHUFFLE_ENV in os.environ:
            self._tie_seed = int(os.environ[TIE_SHUFFLE_ENV])

    def instrument(
        self,
        recorder: Callable[[float, int, Callable[[], None]], None] | None = None,
        tie_shuffle_seed: int | None = None,
    ) -> None:
        """Opt into sanitizer instrumentation (see the module docstring).

        ``recorder`` is invoked as ``recorder(time, seq, callback)``
        for every executed event; ``tie_shuffle_seed`` deterministically
        permutes the execution order of same-timestamp events.  Must be
        called before any event is scheduled — re-keying a live heap
        would corrupt its ordering.
        """
        if self._heap or self._seq:
            raise RuntimeError("cannot instrument a simulator with scheduled events")
        if recorder is not None:
            self._recorder = recorder
        if tie_shuffle_seed is not None:
            self._tie_seed = tie_shuffle_seed

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def _push(self, time: float, callback: Callable[[], None], lane: int = 0) -> EventHandle:
        self._seq += 1
        seq = self._seq
        key = seq if self._tie_seed is None else _mix64(self._tie_seed, seq)
        entry: EventHandle = [time, lane, key, seq, callback]
        heapq.heappush(self._heap, entry)
        return entry

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` after ``delay`` seconds of virtual time.

        Returns a handle usable with :meth:`cancel`.  Negative delays
        are rejected — the simulator never travels backwards.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay!r})")
        return self._push(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at absolute virtual ``time`` (>= now)."""
        return self.schedule(time - self._now, callback)

    def schedule_abs(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at *exactly* the absolute float ``time``.

        Unlike :meth:`schedule_at` — which round-trips through a delay
        and may land an ulp off ``time`` after ``now + (time - now)``
        re-rounds — the heap entry carries ``time`` verbatim.  The
        b_eff_io fast path depends on this to make wake-ups land on
        bit-exact extrapolated instants.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule into the past (time={time!r} < now={self._now!r})"
            )
        return self._push(time, callback)

    def schedule_tail(self, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at the *tail* of the current instant.

        The callback fires at the current virtual time, but only after
        every ordinary event scheduled for this instant has run —
        including events those handlers schedule with zero delay.
        Batching subsystems use this so "everything that happens at
        time t" is a well-defined set before they act on it, making
        the batch boundary invariant under same-time tie-breaking
        (tail events shuffle only among themselves under the
        sanitizer).  Returns a handle usable with :meth:`cancel`.
        """
        return self._push(self._now, callback, lane=1)

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a previously scheduled event (no-op if already fired)."""
        handle[4] = None

    def peek(self) -> float | None:
        """Time of the next pending event, or None if the queue is empty."""
        while self._heap and self._heap[0][4] is None:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return float(self._heap[0][0])

    def step(self) -> bool:
        """Execute the next event.  Returns False if the queue is empty."""
        if self.peek() is None:
            return False
        self.run(max_events=1)
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events until the queue drains (or ``until`` / ``max_events``).

        With ``until``, the clock is advanced to exactly ``until`` even
        if the last event is earlier, matching the convention of other
        DES kernels.  ``max_events`` counts executed events only:
        cancelled entries are dropped without using up the budget.
        """
        heap = self._heap
        pop = heapq.heappop
        recorder = self._recorder
        count = 0
        while heap:
            if max_events is not None and count >= max_events:
                return
            entry = pop(heap)
            callback = entry[4]
            if callback is None:
                continue
            if until is not None and entry[0] > until:
                heapq.heappush(heap, entry)  # same key: the heap order is unchanged
                self._now = until
                return
            entry[4] = None  # release the callback; a later cancel is a no-op
            self._now = entry[0]
            if recorder is not None:
                recorder(entry[0], entry[3], callback)
            callback()
            count += 1
        if until is not None and until > self._now:
            self._now = until

    def run_to_completion(self, max_events: int | None = None) -> None:
        """Run until the queue drains; raise if any process is still blocked.

        This is the entry point the benchmarks use: a blocked process
        after the queue drains means an MPI message was never matched
        or an I/O completion was lost — a genuine deadlock in the
        simulated program.  ``max_events`` bounds the run: exhausting
        it with events still pending raises :class:`EventBudgetError`
        (the guard resilient fault-injected runs use to turn a
        runaway simulation into a flagged result).
        """
        self.run(max_events=max_events)
        if max_events is not None and self.peek() is not None:
            raise EventBudgetError(
                f"event budget of {max_events} exhausted at t={self._now:g} "
                "with events still pending"
            )
        stuck = [p for p in self.processes if not p.finished and not p.daemon]
        if stuck:
            names = ", ".join(str(p) for p in stuck[:8])
            raise DeadlockError(
                f"{len(stuck)} process(es) blocked with no pending events: {names}"
            )
