"""Multi-partition b_eff runs (Table 1's rows, sweepable).

The paper's Table 1 reports b_eff at several partition sizes of each
machine; this module drives those rows through the benchmark-agnostic
:mod:`repro.runtime.sweep` orchestrator, so b_eff sweeps get the same
crash-safe journaling, ``--resume`` bit-identity, retry policy and
parallel partitions as b_eff_io.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from repro.beff.benchmark import BeffResult
from repro.beff.measurement import MeasurementConfig
from repro.faults.validity import VALID, RunValidity
from repro.runtime import sweep as _runtime
from repro.runtime.supervisor import PoisonRecord, SupervisionPolicy
from repro.runtime.sweep import CRASH_AFTER_ENV, SweepJournal

if TYPE_CHECKING:
    from repro.machines.spec import MachineSpec

__all__ = [
    "CRASH_AFTER_ENV",
    "MachineLike",
    "BeffSweepResult",
    "run_sweep",
]

#: a machine registry key, or a resolved spec
MachineLike = Union[str, "MachineSpec"]


@dataclass(frozen=True)
class BeffSweepResult:
    """All partition sizes of one machine plus the best b_eff."""

    machine: str
    results: tuple[BeffResult, ...]
    best_b_eff: float
    best_partition: int
    #: worst-case partition validity (an invalid partition is excluded
    #: from the maximum but demotes the sweep)
    validity: RunValidity = VALID
    #: partitions simulated in this call vs served from the result store
    fresh: int = 0
    cached: int = 0
    #: partitions quarantined by a supervised run (see
    #: :class:`~repro.runtime.supervisor.PoisonRecord`)
    poisoned: tuple[PoisonRecord, ...] = ()

    def partition_values(self) -> dict[int, float]:
        return {r.nprocs: r.b_eff for r in self.results}


def run_sweep(
    spec: MachineLike,
    partitions: Iterable[int],
    config: MeasurementConfig | None = None,
    jobs: int = 1,
    journal: str | os.PathLike[str] | SweepJournal | None = None,
    resume: bool = False,
    retries: int = 0,
    backoff: float = 0.0,
    store: "object | str | os.PathLike[str] | None" = None,
    supervision: SupervisionPolicy | None = None,
) -> BeffSweepResult:
    """Run b_eff over several partition sizes of one machine.

    Same contract as :func:`repro.beffio.sweep.run_sweep`: ``jobs >
    1`` fans partitions over worker processes bit-identically,
    ``journal``/``resume`` give kill-and-resume bit-identity,
    ``retries``/``backoff`` bound re-attempts before
    :class:`~repro.runtime.scheduler.GridWorkerError`, ``store`` (a
    :class:`~repro.runtime.store.RunStore` or path) serves previously
    simulated partitions byte-identically from the result cache, and
    ``supervision`` runs the partitions under the supervised executor
    (deadlines, heartbeats, poison quarantine instead of aborting).
    """
    outcome = _runtime.run_sweep(
        "b_eff",
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
    return BeffSweepResult(
        machine=outcome.machine,
        results=outcome.results,
        best_b_eff=outcome.system_value,
        best_partition=outcome.best_partition,
        validity=outcome.validity,
        fresh=outcome.fresh,
        cached=outcome.cached,
        poisoned=outcome.poisoned,
    )
