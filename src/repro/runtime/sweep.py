"""Partition sweeps: one machine, many partition sizes, one maximum.

The paper quotes a system's b_eff and b_eff_io as the maximum over the
partitions of one machine, so a sweep is a one-machine grid with one
reduction at the end.  :func:`run_sweep` owns exactly what is
sweep-specific and hands every cell it has to run to the grid
orchestrator (:class:`~repro.runtime.scheduler.GridScheduler`), which
owns execution, retries, the worker-error path and the pool:

* With ``journal=<dir>``, each partition's result envelope is written
  atomically the moment it lands; ``resume=True`` loads the completed
  partitions (bit-identically) and runs only the missing ones.  The
  journal manifest pins :func:`~repro.runtime.spec.sweep_fingerprint`,
  which hashes the engine mode and fault-plan seed explicitly —
  resuming under changed flags raises :class:`JournalMismatchError`.
* A crashed or failing partition is retried up to ``retries`` times;
  when retries are exhausted the failure surfaces as
  :class:`~repro.runtime.scheduler.GridWorkerError` carrying the
  partition's configuration and the worker's traceback.
* Partitions whose resilient run produced ``nan`` (invalid) are
  excluded from the system maximum; the sweep's ``validity`` merges
  the partitions' states.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any

from repro.faults.validity import VALID, RunValidity, merge
from repro.runtime.envelope import ResultEnvelope, envelope_for, result_from_envelope
from repro.runtime.scheduler import CRASH_AFTER_ENV as CRASH_AFTER_ENV
from repro.runtime.scheduler import CostModel, GridScheduler
from repro.runtime.spec import (
    BenchmarkConfig,
    RunSpec,
    cell_fingerprint,
    sweep_fingerprint,
)
from repro.runtime.supervisor import PoisonRecord, SupervisionPolicy

#: the official minimum scheduled time for b_eff_io (15 minutes)
OFFICIAL_MINIMUM_T = 900.0

#: journal layout version — 2 adds the per-cell fingerprint map
#: (``cells``) that ties each partition file to its store key; a
#: manifest of any other schema is refused on resume
JOURNAL_SCHEMA = 2


class JournalMismatchError(RuntimeError):
    """Resume attempted against a journal from a different sweep."""


# ---------------------------------------------------------------------------
# benchmark adapters
# ---------------------------------------------------------------------------


def _beff_default_config() -> Any:
    from repro.beff.measurement import MeasurementConfig

    return MeasurementConfig()


def _beffio_default_config() -> Any:
    from repro.beffio.benchmark import BeffIOConfig

    return BeffIOConfig()


def _beff_value(result: Any) -> float:
    return float(result.b_eff)


def _beffio_value(result: Any) -> float:
    return float(result.b_eff_io)


def _beff_describe(config: Any) -> str:
    return (
        f"(backend={config.backend!r}, methods={config.methods}, "
        f"faults={'yes' if config.faults else 'no'})"
    )


def _beffio_describe(config: Any) -> str:
    return (
        f"(T={config.T}, types={config.pattern_types}, mode={config.mode!r}, "
        f"faults={'yes' if config.faults else 'no'})"
    )


def _beff_official(config: Any) -> bool:
    # b_eff has no minimum-duration rule; every run counts
    return True


def _beffio_official(config: Any) -> bool:
    return bool(config.T >= OFFICIAL_MINIMUM_T)


@dataclass(frozen=True)
class BenchmarkAdapter:
    """What a sweep needs to know about one benchmark.

    Execution is not here: every cell runs through
    :meth:`~repro.runtime.spec.RunSpec.run`.
    """

    name: str
    default_config: Callable[[], Any]
    #: the partition's single number (the axis of the system max)
    value_of: Callable[[Any], float]
    #: config summary used in worker-failure messages
    describe_config: Callable[[Any], str]
    #: does this config satisfy the paper's official-number rule?
    official_of: Callable[[Any], bool]


_ADAPTERS: dict[str, BenchmarkAdapter] = {
    "b_eff": BenchmarkAdapter(
        name="b_eff",
        default_config=_beff_default_config,
        value_of=_beff_value,
        describe_config=_beff_describe,
        official_of=_beff_official,
    ),
    "b_eff_io": BenchmarkAdapter(
        name="b_eff_io",
        default_config=_beffio_default_config,
        value_of=_beffio_value,
        describe_config=_beffio_describe,
        official_of=_beffio_official,
    ),
}


def adapter_for(benchmark: str) -> BenchmarkAdapter:
    """The adapter registered for a benchmark name."""
    try:
        return _ADAPTERS[benchmark]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {benchmark!r} (known: {sorted(_ADAPTERS)})"
        ) from None


# ---------------------------------------------------------------------------
# the journal (one implementation for both benchmarks)
# ---------------------------------------------------------------------------


class SweepJournal:
    """One sweep's on-disk state.

    A journal is a directory: ``manifest.json`` pins the machine and
    the sweep fingerprint, and each completed partition is one
    ``partition_<n>.json`` — a result envelope — written atomically
    (temp file + ``os.replace``) the moment it finishes.  A killed
    sweep therefore leaves either a complete partition file or none —
    never a torn one — and ``--resume`` replays the completed
    partitions bit-identically (JSON float serialization round-trips
    exactly) while running only the missing ones.
    """

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)

    @property
    def manifest_path(self) -> pathlib.Path:
        return self.path / "manifest.json"

    def partition_path(self, nprocs: int) -> pathlib.Path:
        return self.path / f"partition_{nprocs}.json"

    def poison_path(self, nprocs: int) -> pathlib.Path:
        return self.path / f"poison_{nprocs}.json"

    # -- lifecycle -----------------------------------------------------

    def start(
        self,
        machine: str,
        fingerprint: str,
        cells: dict[str, str] | None = None,
    ) -> None:
        """Begin a fresh sweep: wipe stale partitions, pin the manifest."""
        self.path.mkdir(parents=True, exist_ok=True)
        for stale in self.path.glob("partition_*.json"):
            stale.unlink()
        for stale in self.path.glob("poison_*.json"):
            stale.unlink()
        self.pin(machine, fingerprint, cells)

    def pin(
        self,
        machine: str,
        fingerprint: str,
        cells: dict[str, str] | None = None,
    ) -> None:
        """Write the manifest, keeping any partitions already recorded.

        ``cells`` (optional) maps partition size (as a string, JSON
        keys are strings) to that cell's store fingerprint, tying the
        journal to the content-addressed store keys.
        """
        from repro.reporting.export import write_json_atomic

        self.path.mkdir(parents=True, exist_ok=True)
        manifest: dict[str, Any] = {
            "schema": JOURNAL_SCHEMA,
            "machine": machine,
            "fingerprint": fingerprint,
        }
        if cells is not None:
            manifest["cells"] = cells
        write_json_atomic(self.manifest_path, manifest)

    def check(self, machine: str, fingerprint: str) -> None:
        """Verify this journal belongs to (machine, config) before resuming."""
        if not self.manifest_path.exists():
            raise JournalMismatchError(
                f"no journal manifest at {self.manifest_path} — nothing to resume"
            )
        manifest = json.loads(self.manifest_path.read_text())
        schema = manifest.get("schema")
        if schema != JOURNAL_SCHEMA:
            raise JournalMismatchError(
                f"journal at {self.path} has schema {schema!r}, expected "
                f"{JOURNAL_SCHEMA}; it cannot be resumed — start the sweep afresh"
            )
        if manifest.get("machine") != machine or manifest.get("fingerprint") != fingerprint:
            raise JournalMismatchError(
                f"journal at {self.path} was written by a different sweep "
                f"(machine {manifest.get('machine')!r}, or the config changed); "
                "refusing to mix results"
            )

    # -- partition records ---------------------------------------------

    def record(self, result: Any, machine: str | None = None) -> None:
        """Atomically persist one completed partition (as an envelope).

        The payload is the *canonical* envelope text (sorted keys) —
        the same bytes a :class:`~repro.runtime.store.RunStore` entry
        holds — so a journal written from fresh executions and one
        written from cache-served results are byte-identical.
        """
        from repro.reporting.export import write_json_atomic
        from repro.runtime.envelope import envelope_for
        from repro.runtime.store import canonical_envelope_text

        write_json_atomic(
            self.partition_path(result.nprocs),
            canonical_envelope_text(envelope_for(result, machine)),
        )
        # a completed partition heals any poison stub left by an
        # earlier supervised run that quarantined this cell
        self.poison_path(result.nprocs).unlink(missing_ok=True)

    def record_poison(self, record: PoisonRecord) -> None:
        """Persist a quarantined cell's failure provenance as a stub.

        The stub stands where the partition file would: a resumed
        sweep sees the partition as *not completed* (so it re-attempts
        the cell) while the stub documents why the previous run gave
        up.  :meth:`record` of a later success removes it.
        """
        from repro.reporting.export import write_json_atomic

        write_json_atomic(self.poison_path(record.nprocs), record.to_dict())

    def poisoned(self) -> dict[int, PoisonRecord]:
        """Every active poison stub, keyed by process count."""
        out: dict[int, PoisonRecord] = {}
        for path in sorted(self.path.glob("poison_*.json")):
            record = PoisonRecord.from_dict(json.loads(path.read_text()))
            out[record.nprocs] = record
        return out

    def completed(self) -> dict[int, Any]:
        """Load every journaled partition, keyed by process count."""
        from repro.runtime.envelope import ResultEnvelope, result_from_envelope

        out: dict[int, Any] = {}
        for path in sorted(self.path.glob("partition_*.json")):
            env = ResultEnvelope.from_dict(json.loads(path.read_text()))
            result = result_from_envelope(env)
            out[result.nprocs] = result
        return out


# ---------------------------------------------------------------------------
# the orchestrator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepOutcome:
    """All partitions of one machine plus the system-level maximum."""

    benchmark: str
    machine: str
    results: tuple[Any, ...]
    system_value: float
    best_partition: int
    official: bool
    #: worst-case partition validity (a single invalid partition does
    #: not poison the system value — it is excluded from the max —
    #: but it does demote the sweep)
    validity: RunValidity = VALID
    #: partitions simulated in this call vs served from the result store
    fresh: int = 0
    cached: int = 0
    #: partitions quarantined by a supervised run (absent from
    #: ``results``; their failure provenance is the only trace)
    poisoned: tuple[PoisonRecord, ...] = ()

    def partition_values(self) -> dict[int, float]:
        value_of = adapter_for(self.benchmark).value_of
        return {r.nprocs: value_of(r) for r in self.results}


#: a sweep dispatches its partitions in ascending order: under a flat
#: cost model every partition of one sweep costs the same, so the
#: planner keeps the given order (the journal's crash contract — the
#: first journaled partition is the smallest — relies on it)
_IN_ORDER = CostModel(exponent=0.0)


def _in_process(machine: Any) -> Callable[[RunSpec], ResultEnvelope]:
    """A grid runner executing cells on a machine object in this process."""

    def run(cell: RunSpec) -> ResultEnvelope:
        return envelope_for(cell.run(machine), cell.machine)

    return run


def run_sweep(
    benchmark: str,
    spec: Any,
    partitions: Iterable[int],
    config: BenchmarkConfig | None = None,
    jobs: int = 1,
    journal: str | os.PathLike[str] | SweepJournal | None = None,
    resume: bool = False,
    retries: int = 0,
    backoff: float = 0.0,
    store: Any = None,
    supervision: SupervisionPolicy | None = None,
) -> SweepOutcome:
    """Run one benchmark over several partition sizes of one machine.

    ``spec`` is a machine registry key or a resolved machine object
    (a :class:`repro.machines.MachineSpec`, or anything with
    ``name``/``run_beff``/``run_beffio``); ``partitions`` an iterable
    of process counts.  Returns the per-partition results and the
    system value (max over partitions that produced a number).

    ``jobs > 1`` runs a registry key's partitions concurrently in
    worker processes.  Every partition is an independent simulation
    from a fresh environment, so the results are bit-identical to a
    serial sweep — the workers only change wall-clock time.  A machine
    object cannot cross a process boundary: it runs in-process and
    serially at any ``jobs``, and cannot be supervised.

    ``journal`` (a directory path) makes the sweep crash-safe: each
    partition is persisted atomically when it completes, and
    ``resume=True`` replays completed partitions bit-identically
    instead of re-running them.  ``retries``/``backoff`` bound how
    often a crashed or failing partition is re-attempted before
    :class:`~repro.runtime.scheduler.GridWorkerError` is raised.

    ``store`` (a :class:`~repro.runtime.store.RunStore` or a path)
    serves partitions whose fingerprint it already holds — verified,
    byte-identical, no simulation — and absorbs every fresh result.
    Store-served partitions are still journaled, so cache and resume
    compose: a later ``--resume`` replays them like any other.

    ``supervision`` switches the remaining partitions to the
    supervised executor (one killable worker process per attempt,
    deadlines, heartbeat monitoring, seeded backoff).  Exhausted cells
    are then *quarantined* instead of raising: they appear on
    ``SweepOutcome.poisoned`` (and as journal/store stubs), the
    surviving partitions still produce the system value, and
    ``validity`` reports ``degraded`` (``invalid`` when nothing
    survived).
    """
    adapter = adapter_for(benchmark)
    partitions = sorted(set(partitions))
    if not partitions:
        raise ValueError("need at least one partition size")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if resume and journal is None:
        raise ValueError("resume=True needs a journal")
    if config is None:
        config = adapter.default_config()

    runner: Callable[[RunSpec], ResultEnvelope] | None = None
    if isinstance(spec, str):
        from repro.machines import get_machine

        machine_name = spec
        display_name = get_machine(spec).name
    else:
        machine_name = display_name = spec.name
        runner = _in_process(spec)

    jr = SweepJournal(journal) if isinstance(journal, (str, os.PathLike)) else journal
    done: dict[int, Any] = {}
    if jr is not None:
        fingerprint = sweep_fingerprint(benchmark, machine_name, config)
        if resume:
            jr.check(machine_name, fingerprint)
            # hoisted: a comprehension condition re-evaluates its
            # expression per row, so build the membership set once
            wanted = frozenset(partitions)
            done = {n: r for n, r in jr.completed().items() if n in wanted}
        else:
            jr.start(
                machine_name,
                fingerprint,
                cells={
                    str(n): cell_fingerprint(benchmark, machine_name, n, config)
                    for n in partitions
                },
            )

    grid = GridScheduler(store, runner=runner).run(
        [
            RunSpec(benchmark=benchmark, machine=machine_name, nprocs=n, config=config)
            for n in partitions
            if n not in done
        ],
        jobs=jobs,
        cost_model=_IN_ORDER,
        retries=retries,
        backoff=backoff,
        supervision=supervision,
        journals={(benchmark, machine_name): jr} if jr is not None else None,
    )
    for cell in grid.cells:
        done[cell.spec.nprocs] = result_from_envelope(cell.envelope)
    poisoned = grid.poisoned

    results = tuple(done[n] for n in partitions if n in done)
    values = {r.nprocs: adapter.value_of(r) for r in results}
    finite = {n: v for n, v in values.items() if not math.isnan(v)}
    if finite:
        system = max(finite.values())
        best = max(finite, key=lambda n: finite[n])
    else:
        system = math.nan
        best = partitions[0]
    validity_parts = [r.validity for r in results]
    for record in poisoned:
        validity_parts.append(
            RunValidity(
                "degraded",
                flagged=(f"partition:{record.nprocs}",),
                reason=f"poisoned after {len(record.attempts)} attempt(s)",
            )
        )
    if poisoned and not results:
        # nothing survived: there is no system value to quote at all
        validity_parts.append(
            RunValidity(
                "invalid",
                skipped=tuple(f"partition:{r.nprocs}" for r in poisoned),
                reason="every partition was poisoned",
            )
        )
    return SweepOutcome(
        benchmark=benchmark,
        machine=display_name,
        results=results,
        system_value=system,
        best_partition=best,
        official=adapter.official_of(config),
        validity=merge(validity_parts),
        fresh=grid.fresh,
        cached=grid.cached,
        poisoned=poisoned,
    )
