"""Multi-partition b_eff_io runs and the system-level value.

The paper defines the b_eff_io *of a system* as the maximum over any
partition's value (with a scheduled time of at least 15 minutes for
official numbers).  This module sweeps partitions and applies that
rule, which is also exactly what Figs. 3 and 5 plot.

The orchestration — crash-safe journaling and resume in
:mod:`repro.runtime.sweep`, parallel partitions and retries in the
grid orchestrator it runs on — is shared with b_eff; this module is
the b_eff_io-flavoured surface over it (the :class:`SweepResult` type
and the legacy ``run_sweep`` signature).
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from repro.beffio.benchmark import BeffIOConfig, BeffIOResult
from repro.faults.validity import VALID, RunValidity
from repro.runtime import sweep as _runtime
from repro.runtime.supervisor import PoisonRecord, SupervisionPolicy
from repro.runtime.sweep import (
    CRASH_AFTER_ENV,
    OFFICIAL_MINIMUM_T,
    SweepJournal,
)

if TYPE_CHECKING:
    from repro.machines.spec import MachineSpec

__all__ = [
    "CRASH_AFTER_ENV",
    "OFFICIAL_MINIMUM_T",
    "MachineLike",
    "SweepResult",
    "run_sweep",
]

#: a machine registry key, or a resolved spec
MachineLike = Union[str, "MachineSpec"]


@dataclass(frozen=True)
class SweepResult:
    """All partitions of one machine plus the system-level maximum."""

    machine: str
    results: tuple[BeffIOResult, ...]
    system_b_eff_io: float
    best_partition: int
    official: bool  # True when every run satisfied T >= 15 min
    #: worst-case partition validity (a single invalid partition does
    #: not poison the system value — it is excluded from the max —
    #: but it does demote the sweep)
    validity: RunValidity = VALID
    #: partitions simulated in this call vs served from the result store
    fresh: int = 0
    cached: int = 0
    #: partitions quarantined by a supervised run (see
    #: :class:`~repro.runtime.supervisor.PoisonRecord`)
    poisoned: tuple[PoisonRecord, ...] = ()

    def partition_values(self) -> dict[int, float]:
        return {r.nprocs: r.b_eff_io for r in self.results}


def run_sweep(
    spec: MachineLike,
    partitions: Iterable[int],
    config: BeffIOConfig | None = None,
    jobs: int = 1,
    journal: str | os.PathLike[str] | SweepJournal | None = None,
    resume: bool = False,
    retries: int = 0,
    backoff: float = 0.0,
    store: "object | str | os.PathLike[str] | None" = None,
    supervision: SupervisionPolicy | None = None,
) -> SweepResult:
    """Run b_eff_io over several partition sizes of one machine.

    ``spec`` is a :class:`repro.machines.MachineSpec` or a machine
    registry key; ``partitions`` an iterable of process counts.
    Returns the per-partition results and the system value (max over
    partitions that produced a number).  ``official`` reports whether
    the scheduled time satisfied the paper's 15-minute rule.

    See :func:`repro.runtime.sweep.run_sweep` for the journal/resume/
    retry/store semantics (shared with b_eff).
    """
    outcome = _runtime.run_sweep(
        "b_eff_io",
        spec,
        partitions,
        config=config,
        jobs=jobs,
        journal=journal,
        resume=resume,
        retries=retries,
        backoff=backoff,
        store=store,
        supervision=supervision,
    )
    return SweepResult(
        machine=outcome.machine,
        results=outcome.results,
        system_b_eff_io=outcome.system_value,
        best_partition=outcome.best_partition,
        official=outcome.official,
        validity=outcome.validity,
        fresh=outcome.fresh,
        cached=outcome.cached,
        poisoned=outcome.poisoned,
    )
