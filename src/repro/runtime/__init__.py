"""The shared benchmark runtime ("run-spine").

b_eff and b_eff_io are two instances of the same idea — time-driven
measurement followed by a fixed aggregation formula producing a single
number — and this package is the one spine both hang on:

* :mod:`repro.runtime.reduce` — declarative reduction trees:
  composable reducers with partial/degraded aggregation handled once;
* :mod:`repro.runtime.formulas` — the paper's aggregation formulas
  expressed as data over those reducers;
* :mod:`repro.runtime.spec` — the typed :class:`RunSpec` (machine,
  nprocs, engine mode, fault plan, config fingerprint) that names one
  benchmark run, and the unified sweep fingerprint;
* :mod:`repro.runtime.envelope` — the versioned
  :class:`ResultEnvelope` (values + validity + provenance + timings)
  every export and journal record round-trips through;
* :mod:`repro.runtime.sweep` — partition sweeps for both benchmarks:
  the journal, resume, and the system-max reduction over a
  one-machine grid;
* :mod:`repro.runtime.store` — the persistent content-addressed
  :class:`RunStore` (fingerprint → verified envelope bytes) that makes
  repeated sweeps free;
* :mod:`repro.runtime.scheduler` — the one orchestrator: grid
  expansion, in-flight dedupe, store integration, dynamic
  longest-expected-first dispatch, retries and the worker pool, for
  grids and sweeps alike.

The per-benchmark entry points (``repro.beff.*``, ``repro.beffio.*``)
remain the public API; they are thin shims over this package.
"""

from repro.runtime.envelope import (
    ENVELOPE_SCHEMA,
    ResultEnvelope,
    SchemaVersionError,
    envelope_for,
    result_from_envelope,
)
from repro.runtime.reduce import (
    Evaluation,
    Formula,
    Reduce,
    arith_mean,
    evaluate,
    evaluate_partial,
    log_avg,
    max_over,
    weighted_avg,
)
from repro.runtime.scheduler import (
    CostModel,
    GridCell,
    GridOutcome,
    GridScheduler,
    GridWorkerError,
    SchedulePlan,
    expand_grid,
    grid_validity,
    plan_schedule,
    run_grid,
)
from repro.runtime.spec import (
    RunSpec,
    cell_fingerprint,
    run_spec,
    sweep_fingerprint,
)
from repro.runtime.store import (
    RunStore,
    StoreEntry,
    StoreStats,
    canonical_envelope_text,
)
from repro.runtime.supervisor import (
    AttemptFailure,
    PoisonRecord,
    SupervisedRun,
    SupervisedTask,
    SupervisionPolicy,
    backoff_delay,
    supervise,
)
from repro.runtime.sweep import (
    BenchmarkAdapter,
    JournalMismatchError,
    SweepJournal,
    SweepOutcome,
    adapter_for,
    run_sweep,
)

__all__ = [
    "ENVELOPE_SCHEMA",
    "ResultEnvelope",
    "SchemaVersionError",
    "envelope_for",
    "result_from_envelope",
    "Evaluation",
    "Formula",
    "Reduce",
    "arith_mean",
    "evaluate",
    "evaluate_partial",
    "log_avg",
    "max_over",
    "weighted_avg",
    "RunSpec",
    "run_spec",
    "cell_fingerprint",
    "sweep_fingerprint",
    "RunStore",
    "StoreEntry",
    "StoreStats",
    "canonical_envelope_text",
    "CostModel",
    "GridCell",
    "GridOutcome",
    "GridScheduler",
    "GridWorkerError",
    "SchedulePlan",
    "expand_grid",
    "grid_validity",
    "plan_schedule",
    "run_grid",
    "AttemptFailure",
    "PoisonRecord",
    "SupervisedRun",
    "SupervisedTask",
    "SupervisionPolicy",
    "backoff_delay",
    "supervise",
    "BenchmarkAdapter",
    "JournalMismatchError",
    "SweepJournal",
    "SweepOutcome",
    "adapter_for",
    "run_sweep",
]
