"""Measurement control: repetitions, looplength adaptation, records.

The paper's time-driven control: the loop length starts at 300 for
the shortest message and is adapted from the previous loop's measured
execution time so that every loop runs for 2.5-5 ms (minimum loop
length 1).  Our virtual clock is deterministic, so by default we cap
the loop length at a small value and run a single repetition — the
computed bandwidth is bit-identical to the full schedule — but
``paper_fidelity()`` restores the original constants for anyone who
wants to watch the control loop itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.beff.methods import METHODS
from repro.faults.plan import FaultPlan

if TYPE_CHECKING:
    from repro.scenarios.grammar import CommScenario


@dataclass(frozen=True)
class MeasurementConfig:
    methods: tuple[str, ...] = METHODS
    repetitions: int = 1  # paper: 3
    initial_looplength: int = 300
    max_looplength: int = 2  # paper: 300 (simulation is deterministic)
    loop_time_min: float = 2.5e-3
    loop_time_max: float = 5e-3
    backend: str = "des"  # "des" | "analytic"
    #: DES engine mode: ``"fast"`` enables the steady-state orbit
    #: fast-forward for the timed repetition loops (bit-identical to
    #: the reference loops — see :mod:`repro.beff.fastforward`);
    #: ``"reference"`` always simulates every repetition.  Fault-active
    #: runs force the reference loops regardless of this setting.
    mode: str = "fast"
    #: fault plan injected into the simulated machine (DES backend
    #: only); None/empty leaves every number bit-identical
    faults: FaultPlan | None = None
    #: per-pattern simulated-seconds budget; a pattern exceeding it is
    #: abandoned (skip-and-flag), never allowed to stall the run
    pattern_budget: float | None = None
    #: hard cap on simulation events (never-hang guard under faults).
    #: It counts queued events only: process resumes and fused eager
    #: send completions run inside other events and no longer count
    event_budget: int | None = None
    #: declarative workload override (:mod:`repro.scenarios`): None
    #: runs the paper's pinned pattern table; a
    #: :class:`~repro.scenarios.grammar.CommScenario` compiles its own
    #: pattern set and hashes into the run's store fingerprint
    scenario: "CommScenario | None" = None

    def __post_init__(self) -> None:
        if self.scenario is not None:
            from repro.scenarios.grammar import CommScenario

            if not isinstance(self.scenario, CommScenario):
                raise TypeError(
                    f"b_eff scenarios must be CommScenario, "
                    f"got {type(self.scenario).__name__}"
                )
        if not self.methods:
            raise ValueError("need at least one communication method")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.initial_looplength < 1 or self.max_looplength < 1:
            raise ValueError("loop lengths must be >= 1")
        if not (0 < self.loop_time_min < self.loop_time_max):
            raise ValueError("need 0 < loop_time_min < loop_time_max")
        if self.backend not in ("des", "analytic"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.mode not in ("fast", "reference"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.faults and self.backend != "des":
            raise ValueError("fault injection requires the des backend")
        if self.pattern_budget is not None and self.pattern_budget <= 0:
            raise ValueError("pattern_budget must be positive when given")
        if self.event_budget is not None and self.event_budget < 1:
            raise ValueError("event_budget must be >= 1 when given")

    @property
    def loop_time_target(self) -> float:
        return 0.5 * (self.loop_time_min + self.loop_time_max)

    def next_looplength(self, previous_iteration_time: float | None) -> int:
        """Loop length for the next measurement given the last
        per-iteration time (None before the first measurement)."""
        if previous_iteration_time is None or previous_iteration_time <= 0:
            desired = self.initial_looplength
        else:
            desired = int(round(self.loop_time_target / previous_iteration_time))
        return max(1, min(desired, self.initial_looplength, self.max_looplength))


def paper_fidelity() -> MeasurementConfig:
    """The original constants: 3 repetitions, loop length up to 300."""
    return MeasurementConfig(repetitions=3, max_looplength=300)


@dataclass(frozen=True)
class MeasurementRecord:
    """One (pattern, size, method, repetition) measurement."""

    pattern: str
    kind: str  # "ring" | "random"
    size: int
    method: str
    repetition: int
    looplength: int
    time: float  # max over processes, for `looplength` iterations
    bandwidth: float  # bytes/s: size * messages * looplength / time
