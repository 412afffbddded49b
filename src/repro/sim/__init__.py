"""Deterministic discrete-event simulation kernel.

Everything in the reproduction runs on this kernel: simulated MPI
ranks are generator coroutines scheduled here, message transfers are
flows in the max-min fair fluid network, and the parallel filesystem's
disks and servers are event-driven resources.

The kernel is intentionally small and dependency-free:

* :class:`~repro.sim.engine.Simulator` — the event heap and virtual clock.
* :class:`~repro.sim.process.Process` / primitives ``Sleep`` and
  :class:`~repro.sim.process.SimEvent` — cooperative processes.
* :class:`~repro.sim.fluid.FlowNetwork` — bandwidth sharing among
  concurrent transfers with progressive-filling max-min fairness;
  :mod:`repro.sim.oracle` holds the scalar reference solvers it (and
  the analytic b_eff backend) must match exactly.
"""

from repro.sim.engine import Simulator, DeadlockError, EventBudgetError
from repro.sim.process import Process, SimEvent, Sleep, SleepUntil, Tail, on_trigger, wait_all
from repro.sim.fluid import FlowNetwork, Flow, Link
from repro.sim.trace import TraceEvent, Tracer

__all__ = [
    "Simulator",
    "DeadlockError",
    "EventBudgetError",
    "Process",
    "SimEvent",
    "Sleep",
    "SleepUntil",
    "Tail",
    "on_trigger",
    "wait_all",
    "FlowNetwork",
    "Flow",
    "Link",
    "TraceEvent",
    "Tracer",
]
