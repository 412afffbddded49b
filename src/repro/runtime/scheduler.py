"""Dynamic grid scheduler: machine-zoo × benchmark × config × partitions.

The paper's whole point is cross-machine characterization — the same
two benchmarks swept over many machines and partition sizes.  This
module turns such a grid into :class:`~repro.runtime.spec.RunSpec`
cells and executes them with three properties a naive
``for machine: for nprocs: run()`` loop lacks:

* **Cache integration.**  Cells whose fingerprint is already in a
  :class:`~repro.runtime.store.RunStore` are served from disk (digest
  verified) and never re-simulated.
* **Deduplication.**  Identical fingerprints — duplicate grid cells,
  or concurrent submitters racing the same spec through
  :meth:`GridScheduler.submit` — collapse to one execution whose
  result every requester shares.
* **Dynamic longest-expected-first dispatch.**  A :class:`CostModel`
  (calibratable from the committed ``BENCH_*.json`` payloads) orders
  the queue by expected cost, so a skewed grid — one 4k-rank cell
  among 16-proc cells — starts its big cell first instead of
  serializing the fleet on whichever static chunk drew it last.
  :func:`plan_schedule` exposes the exact assignment both policies
  produce, so the makespan win is a testable property of this module,
  not a wall-clock accident.

Workers are processes (the cells are CPU-bound simulations); results
travel back as envelope dicts and are journaled/stored as they land.

This is the runtime's one orchestrator: a partition sweep
(:func:`repro.runtime.sweep.run_sweep`) is a one-machine grid run
through the same :class:`GridScheduler`, retry counter, worker-error
type, pool loop and worker entry.
"""

from __future__ import annotations

import os
import pathlib
import re
import threading
import time
import traceback
from collections.abc import Iterable, Mapping, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.faults.validity import VALID, RunValidity, merge
from repro.runtime import chaos
from repro.runtime.envelope import ResultEnvelope, envelope_for, result_from_envelope
from repro.runtime.spec import BenchmarkConfig, RunSpec, run_spec
from repro.runtime.store import RunStore, as_store
from repro.runtime.supervisor import (
    PoisonRecord,
    SupervisedTask,
    SupervisionPolicy,
    backoff_delay,
    supervise,
)

if TYPE_CHECKING:
    from repro.runtime.sweep import SweepJournal

__all__ = [
    "CRASH_AFTER_ENV",
    "CostModel",
    "GridCell",
    "GridOutcome",
    "GridScheduler",
    "GridWorkerError",
    "SchedulePlan",
    "SupervisionPolicy",
    "expand_grid",
    "grid_validity",
    "plan_schedule",
    "run_grid",
]

#: test/CI hook: when set to an integer k, a run raises right after
#: journaling its k-th fresh cell — equivalent (for resume purposes) to
#: killing the process there, because journal writes are atomic
CRASH_AFTER_ENV = "REPRO_SWEEP_CRASH_AFTER"


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------

#: relative wall-cost weight per engine mode (same nprocs).  The DES
#: backends simulate events; analytic solves one capped max-min per
#: pattern; the b_eff_io fast path skips proven-periodic repetitions.
_DEFAULT_MODE_WEIGHT: Mapping[str, float] = {
    "analytic": 1.0,
    "des-fast": 40.0,
    "des-reference": 120.0,
    "fast": 15.0,
    "reference": 60.0,
}


@dataclass(frozen=True)
class CostModel:
    """Expected relative cost of a cell, from nprocs and engine mode.

    The absolute scale is irrelevant — only the *ordering* (and the
    rough ratios, for makespan planning) matter.  ``exponent`` is the
    nprocs scaling power; :meth:`calibrate` fits it from the committed
    ``BENCH_fluid.json`` wall-time trajectory when available and falls
    back to the default otherwise.
    """

    exponent: float = 1.4
    mode_weight: Mapping[str, float] = field(
        default_factory=lambda: dict(_DEFAULT_MODE_WEIGHT)
    )

    def cost(self, spec: RunSpec) -> float:
        weight = self.mode_weight.get(
            spec.engine_mode, max(self.mode_weight.values(), default=1.0)
        )
        cost = weight * float(spec.nprocs) ** self.exponent
        # b_eff_io work scales with the scheduled time as well
        scheduled = getattr(spec.config, "T", None)
        if scheduled is not None:
            cost *= max(float(scheduled), 1.0)
        return cost

    @classmethod
    def calibrate(cls, results_dir: "str | os.PathLike[str]") -> "CostModel":
        """Fit the nprocs exponent from ``BENCH_fluid.json`` rounds.

        The committed payload records incremental-engine wall seconds
        at several process counts; the log-log slope between the first
        and last rows is the measured scaling power.  Missing or
        malformed payloads keep the defaults — calibration is an
        optimization, never a requirement.
        """
        import json
        import math
        import pathlib

        path = pathlib.Path(results_dir) / "BENCH_fluid.json"
        try:
            payload = json.loads(path.read_text())
            rounds = [
                (float(row["procs"]), float(row["incremental_wall_s"]))
                for row in payload["rounds"]
                if row.get("procs") and row.get("incremental_wall_s")
            ]
        except (OSError, ValueError, TypeError, KeyError):
            return cls()
        rounds.sort()
        if len(rounds) < 2 or rounds[0][0] == rounds[-1][0]:
            return cls()
        (p0, w0), (p1, w1) = rounds[0], rounds[-1]
        if w0 <= 0 or w1 <= 0:
            return cls()
        exponent = math.log(w1 / w0) / math.log(p1 / p0)
        return cls(exponent=min(max(exponent, 0.5), 3.0))


# ---------------------------------------------------------------------------
# grid expansion
# ---------------------------------------------------------------------------


def expand_grid(
    machines: Iterable[str],
    benchmarks: Iterable[str],
    partitions: Iterable[int],
    configs: Mapping[str, BenchmarkConfig] | None = None,
    skip_unsupported: bool = True,
) -> list[RunSpec]:
    """Expand a machine-zoo × benchmark × partitions grid to cells.

    ``configs`` maps benchmark name to the engine configuration for
    its cells (the benchmark's default configuration otherwise).
    With ``skip_unsupported`` (the default), b_eff_io cells on
    machines without a parallel-filesystem model are dropped instead
    of failing the whole grid — the paper itself only reports
    b_eff_io for the machines whose I/O subsystem it describes.
    """
    from repro.machines import get_machine

    cells: list[RunSpec] = []
    parts = sorted(set(partitions))
    for machine in machines:
        spec = get_machine(machine)  # validates the key early
        for benchmark in benchmarks:
            if (
                benchmark == "b_eff_io"
                and spec.pfs is None
                and skip_unsupported
            ):
                continue
            config = configs.get(benchmark) if configs else None
            for nprocs in parts:
                cells.append(run_spec(benchmark, machine, nprocs, config))
    return cells


# ---------------------------------------------------------------------------
# schedule planning (the dynamic-vs-static contract, testable)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchedulePlan:
    """One policy's assignment of cells to workers.

    ``dispatch`` is the order cells enter the pool; ``assignments``
    maps worker index to its cell list under the model costs;
    ``makespan`` is the modelled finish time of the slowest worker.
    Feeding :func:`plan_schedule` *measured* per-cell costs turns the
    modelled makespan into the real one a pool with that dispatch
    order would achieve — which is how the recorded benchmark proves
    the dynamic policy's win without depending on runner core counts.
    """

    policy: str
    dispatch: tuple[int, ...]
    assignments: tuple[tuple[int, ...], ...]
    makespan: float


def plan_schedule(
    costs: Sequence[float], jobs: int, policy: str = "dynamic"
) -> SchedulePlan:
    """Assign cells (given their costs) to ``jobs`` workers.

    ``dynamic`` is longest-expected-first with greedy
    earliest-available-worker dispatch — exactly what feeding a
    process pool in descending-cost order achieves.  ``static`` is
    the ``jobs=N`` baseline it replaces: contiguous chunks in grid
    order, one chunk per worker, no balancing.  Ties break by cell
    index, so plans are deterministic.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if policy not in ("dynamic", "static"):
        raise ValueError(f"unknown scheduling policy {policy!r}")
    n = len(costs)
    workers = max(1, min(jobs, n))
    if policy == "static":
        # contiguous chunks in the given order (ceil-sized), the
        # classic static pre-partitioning
        per = -(-n // workers) if n else 0
        chunks = [tuple(range(i, min(i + per, n))) for i in range(0, n, per)] if n else []
        chunks += [()] * (workers - len(chunks))
        dispatch = tuple(range(n))
        makespan = max((sum(costs[i] for i in chunk) for chunk in chunks), default=0.0)
        return SchedulePlan(
            policy=policy,
            dispatch=dispatch,
            assignments=tuple(chunks),
            makespan=makespan,
        )
    order = sorted(range(n), key=lambda i: (-costs[i], i))
    finish = [0.0] * workers
    assigned: list[list[int]] = [[] for _ in range(workers)]
    for i in order:
        w = min(range(workers), key=lambda k: (finish[k], k))
        assigned[w].append(i)
        finish[w] += costs[i]
    return SchedulePlan(
        policy="dynamic",
        dispatch=tuple(order),
        assignments=tuple(tuple(cells) for cells in assigned),
        makespan=max(finish, default=0.0),
    )


# ---------------------------------------------------------------------------
# grid execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridCell:
    """One grid cell's outcome: the spec, its envelope, and its source."""

    spec: RunSpec
    envelope: ResultEnvelope
    #: ``"fresh"`` (simulated now), ``"cache"`` (store hit) or
    #: ``"dedup"`` (another cell with the same fingerprint ran)
    source: str

    @property
    def fingerprint(self) -> str:
        return self.spec.fingerprint()


@dataclass(frozen=True)
class GridOutcome:
    """Every cell of a grid run plus the execution accounting.

    ``validity`` is the grid-level merge (see :func:`grid_validity`):
    per-cell validities plus one degraded flag per poisoned cell, so a
    grid that lost cells can never report itself silently ``valid``.
    Poisoned cells are absent from ``cells`` — their
    :class:`~repro.runtime.supervisor.PoisonRecord` stubs are the only
    trace, by design.
    """

    cells: tuple[GridCell, ...]
    fresh: int
    cached: int
    deduped: int
    #: fingerprints in the order they were dispatched for execution
    dispatch_order: tuple[str, ...]
    validity: RunValidity = VALID
    poisoned: tuple[PoisonRecord, ...] = ()

    def describe(self) -> str:
        text = (
            f"{len(self.cells)} cell(s) = {self.fresh} fresh + "
            f"{self.cached} cached + {self.deduped} deduped"
        )
        if self.poisoned:
            text += f" ({len(self.poisoned)} poisoned)"
        return text


class GridWorkerError(RuntimeError):
    """A cell failed after exhausting its retries.

    The message names the benchmark, the partition size, the machine,
    the configuration summary, the fingerprint prefix, the attempt
    count *and the failing source frame*; the original exception is
    chained as ``__cause__`` and the worker's full formatted traceback
    is kept on ``worker_traceback`` so the CLI's exit-code-3 report can
    show where the worker died.  The identity also travels as
    attributes (``fingerprint``, ``benchmark``, ``machine``,
    ``nprocs``, ``attempts``) so an operator can requeue exactly the
    cell that died without parsing prose.
    """

    def __init__(
        self,
        message: str,
        worker_traceback: str = "",
        fingerprint: str = "",
        benchmark: str = "",
        machine: str = "",
        nprocs: int = 0,
        attempts: int = 0,
    ) -> None:
        super().__init__(message)
        self.worker_traceback = worker_traceback
        self.fingerprint = fingerprint
        self.benchmark = benchmark
        self.machine = machine
        self.nprocs = nprocs
        self.attempts = attempts


def _failure_site(exc: BaseException) -> str:
    """``file:line in function`` of the deepest frame that raised ``exc``.

    For exceptions re-raised out of a :class:`ProcessPoolExecutor`
    worker the parent-side traceback only shows executor internals;
    the worker's real frames travel as a ``_RemoteTraceback`` cause
    string, so those are parsed in preference.
    """
    cause = exc.__cause__
    if cause is not None and type(cause).__name__ == "_RemoteTraceback":
        found = re.findall(r'File "([^"]+)", line (\d+), in (\S+)', str(cause))
        if found:
            path, line, func = found[-1]
            return f"{pathlib.Path(path).name}:{line} in {func}"
    frames = traceback.extract_tb(exc.__traceback__)
    if not frames:
        return "no traceback available"
    last = frames[-1]
    return f"{pathlib.Path(last.filename).name}:{last.lineno} in {last.name}"


class _GridRetry:
    """Attempt counter keyed by (machine, nprocs, benchmark).

    The key matters: in a grid, two different machines fail the same
    partition size independently — pooling their attempts (the old
    nprocs-only keying of the sweep retry) would exhaust one budget
    for both.  Between attempts the counter sleeps the same seeded
    exponential-backoff-with-jitter schedule the supervisor uses, so
    retry timing is a pure function of the cell fingerprint.
    """

    def __init__(self, retries: int, backoff: float = 0.0) -> None:
        self.retries = retries
        self.backoff = backoff
        self.attempts: dict[tuple[str, int, str], int] = {}

    def failed(self, spec: RunSpec, exc: BaseException) -> None:
        """Count a failure; raise :class:`GridWorkerError` past the limit."""
        key = (spec.machine, spec.nprocs, spec.benchmark)
        n = self.attempts.get(key, 0) + 1
        self.attempts[key] = n
        fingerprint = spec.fingerprint()
        if n > self.retries:
            from repro.runtime.sweep import adapter_for

            summary = adapter_for(spec.benchmark).describe_config(spec.config)
            raise GridWorkerError(
                f"{spec.benchmark} partition nprocs={spec.nprocs} on machine "
                f"{spec.machine!r} {summary} (fingerprint {fingerprint[:12]}) "
                f"failed after {n} attempt(s) at {_failure_site(exc)}: "
                f"{type(exc).__name__}: {exc}",
                worker_traceback="".join(
                    traceback.format_exception(type(exc), exc, exc.__traceback__)
                ),
                fingerprint=fingerprint,
                benchmark=spec.benchmark,
                machine=spec.machine,
                nprocs=spec.nprocs,
                attempts=n,
            ) from exc
        if self.backoff > 0:
            time.sleep(backoff_delay(fingerprint, n, self.backoff))


def _run_cell(
    spec: RunSpec, started: Callable[[], None] | None = None
) -> dict[str, Any]:
    """The worker entry: run one cell, return its envelope as a plain dict.

    Pool workers, the serial path (:func:`_execute`) and the
    supervisor's killable workers all run cells through here.  The
    chaos checkpoint comes first; ``started`` (the supervisor's
    heartbeat) fires only after it, so an injected hang is silent from
    the very first beat.
    """
    chaos.on_cell(chaos.cell_key(spec.benchmark, spec.machine, spec.nprocs))
    if started is not None:
        started()
    result = spec.run()
    return chaos.corrupt_payload(envelope_for(result, machine=spec.machine).to_dict())


def _run_cell_batch(specs: tuple[RunSpec, ...]) -> list[dict[str, Any]]:
    """Pool task: run a batch of cells serially (static chunks)."""
    return [_run_cell(spec) for spec in specs]


def _execute(spec: RunSpec) -> ResultEnvelope:
    """In-process execution of one cell (serial path and submitters)."""
    return ResultEnvelope.from_dict(_run_cell(spec))


def grid_validity(
    cells: Iterable[ResultEnvelope], poisoned: Sequence[PoisonRecord]
) -> RunValidity:
    """Merge cell validities and poison stubs into one grid verdict.

    Every completed cell contributes its own envelope validity (a cell
    whose internal averaged formula lost an input already carries
    ``invalid`` and demotes the grid with it); every poisoned cell
    contributes a ``degraded`` flag naming the cell.  All cells clean
    and nothing poisoned → :data:`~repro.faults.validity.VALID`.
    """
    parts = [env.validity for env in cells]
    for record in poisoned:
        parts.append(
            RunValidity(
                "degraded",
                flagged=(f"cell:{record.benchmark}:{record.machine}:{record.nprocs}",),
                reason=f"poisoned after {len(record.attempts)} attempt(s)",
            )
        )
    return merge(parts)


def run_grid(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    store: "RunStore | str | os.PathLike[str] | None" = None,
    policy: str = "dynamic",
    cost_model: CostModel | None = None,
    retries: int = 0,
    journal_root: "str | os.PathLike[str] | None" = None,
    backoff: float = 0.0,
    supervision: SupervisionPolicy | None = None,
) -> GridOutcome:
    """Execute a grid of run specs with caching, dedupe and balancing.

    Identical fingerprints execute once; cells present in ``store``
    are served from it (and count as ``cached``); the rest are
    dispatched longest-expected-first (``policy="dynamic"``) over
    ``jobs`` worker processes, or in static contiguous chunks
    (``policy="static"`` — the baseline, kept for measurement).

    With ``journal_root``, every cell — fresh *or* cache-served — is
    recorded the moment it lands into the per-(benchmark, machine)
    sweep journal under that root, so an interrupted grid resumes
    through the same machinery as a single-machine sweep and cache and
    journal compose.

    ``backoff`` seeds the exponential-with-jitter retry delay (see
    :func:`~repro.runtime.supervisor.backoff_delay`).  ``supervision``
    switches execution to the supervised path: one killable worker
    process per attempt with deadlines, heartbeat monitoring and — in
    place of the abort-on-exhaustion :class:`GridWorkerError` — poison
    quarantine: the dead cell becomes a
    :class:`~repro.runtime.supervisor.PoisonRecord` on the outcome (and
    a stub in the store sidecar and journal), the grid completes, and
    ``GridOutcome.validity`` reports ``degraded``.
    """
    journals = _grid_journals(journal_root, specs) if journal_root is not None else None
    return GridScheduler(store).run(
        specs,
        jobs=jobs,
        policy=policy,
        cost_model=cost_model,
        retries=retries,
        backoff=backoff,
        supervision=supervision,
        journals=journals,
    )


def _grid_journals(
    journal_root: "str | os.PathLike[str]", specs: Sequence[RunSpec]
) -> dict[tuple[str, str], "SweepJournal"]:
    """One sweep journal per (benchmark, machine), manifest pinned up front.

    Partitions an earlier grid recorded under the same root are kept
    (:meth:`~repro.runtime.sweep.SweepJournal.pin` does not wipe), so
    a grid can extend a journal another grid began.
    """
    from repro.runtime.spec import cell_fingerprint, sweep_fingerprint
    from repro.runtime.sweep import SweepJournal

    by_sweep: dict[tuple[str, str], list[RunSpec]] = {}
    for spec in {s.fingerprint(): s for s in specs}.values():
        by_sweep.setdefault((spec.benchmark, spec.machine), []).append(spec)
    journals: dict[tuple[str, str], SweepJournal] = {}
    for (benchmark, machine), cells in sorted(by_sweep.items()):
        journal = SweepJournal(pathlib.Path(journal_root) / f"{benchmark}__{machine}")
        config = cells[0].config
        journal.pin(
            machine,
            sweep_fingerprint(benchmark, machine, config),
            cells={
                str(c.nprocs): cell_fingerprint(benchmark, machine, c.nprocs, config)
                for c in cells
            },
        )
        journals[(benchmark, machine)] = journal
    return journals


def _run_pool(
    ordered: list[RunSpec],
    plan: SchedulePlan,
    jobs: int,
    policy: str,
    retry: _GridRetry,
    finish: Callable[[RunSpec, ResultEnvelope], None],
) -> None:
    """Fan cells over worker processes following the planned dispatch.

    The dynamic policy submits every cell in dispatch order and lets
    the pool balance; the static policy submits one serial chunk per
    worker (the pre-partitioned baseline).  A broken pool (worker
    killed mid-run) is rebuilt and the unfinished cells resubmitted,
    each consuming one retry.
    """
    todo = list(ordered)
    workers = max(1, min(jobs, len(todo)))
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        while todo:
            futures: dict[Future[Any], tuple[RunSpec, ...]] = {}
            if policy == "static" and len(todo) == len(ordered):
                # initial static submission: one contiguous chunk per
                # worker, exactly the plan's assignment
                for chunk in plan.assignments:
                    batch = tuple(ordered[i] for i in chunk)
                    if batch:
                        futures[pool.submit(_run_cell_batch, batch)] = batch
            else:
                for spec in todo:
                    futures[pool.submit(_run_cell_batch, (spec,))] = (spec,)
            broken = False
            order_of = {fut: i for i, fut in enumerate(futures)}
            pending_futs = set(futures)
            while pending_futs:
                finished, pending_futs = wait(pending_futs, return_when=FIRST_COMPLETED)
                # wait() returns a set; drain it in submission order so
                # journal writes and retry accounting are reproducible
                for fut in sorted(finished, key=order_of.__getitem__):
                    batch = futures[fut]
                    try:
                        payloads = fut.result()
                    except BrokenProcessPool as exc:
                        for spec in batch:
                            retry.failed(spec, exc)
                        broken = True
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except Exception as exc:  # repro-lint: disable=REPRO005 -- retry.failed re-raises (as GridWorkerError) past the retry limit
                        for spec in batch:
                            retry.failed(spec, exc)
                    else:
                        for spec, payload in zip(batch, payloads):
                            todo.remove(spec)
                            finish(spec, ResultEnvelope.from_dict(payload))
                if broken:
                    break
            if broken and todo:
                pool.shutdown(wait=False, cancel_futures=True)
                pool = ProcessPoolExecutor(max_workers=max(1, min(jobs, len(todo))))
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


# ---------------------------------------------------------------------------
# the executor (grids, sweeps and concurrent submitters)
# ---------------------------------------------------------------------------


class GridScheduler:
    """The one executor for grids, sweeps and concurrent submitters.

    :meth:`run` executes a whole grid; :func:`run_grid` and
    :func:`~repro.runtime.sweep.run_sweep` are both reductions over
    it.  :meth:`submit` is safe to call from many threads: the first
    submitter of a fingerprint executes it (store-first), every
    concurrent or later submitter receives *the same* :class:`Future`
    — and hence the identical envelope object — without a second
    execution.  N clients racing the same spec cost one simulation.

    ``runner`` replaces the worker entry with an in-process callable
    (``RunSpec -> ResultEnvelope``).  Cells then run serially in this
    process at any ``jobs`` — which is how a sweep drives a machine
    object that has no registry key — and cannot be supervised.
    """

    def __init__(
        self,
        store: "RunStore | str | os.PathLike[str] | None" = None,
        runner: Callable[[RunSpec], ResultEnvelope] | None = None,
    ) -> None:
        self.store = as_store(store)
        self._runner = runner
        self._lock = threading.Lock()
        self._futures: dict[str, Future[ResultEnvelope]] = {}
        #: executions actually performed (for observability and tests)
        self.executions = 0

    def _run_one(self, spec: RunSpec) -> ResultEnvelope:
        return (self._runner or _execute)(spec)

    def run(
        self,
        specs: Sequence[RunSpec],
        jobs: int = 1,
        policy: str = "dynamic",
        cost_model: CostModel | None = None,
        retries: int = 0,
        backoff: float = 0.0,
        supervision: SupervisionPolicy | None = None,
        journals: "Mapping[tuple[str, str], SweepJournal] | None" = None,
    ) -> GridOutcome:
        """Execute ``specs``: store hits, dedupe, planned dispatch, retries.

        Arguments are those of :func:`run_grid`; ``journals`` maps
        (benchmark, machine) to the already-pinned journal each such
        cell is recorded into the moment it lands — store hits as well
        as fresh results.  With :data:`CRASH_AFTER_ENV` set to ``k``
        the run raises right after journaling its k-th fresh cell.
        """
        if supervision is not None and self._runner is not None:
            raise ValueError(
                "supervised cells run in worker processes built from the "
                "machine registry key; an in-process runner cannot be supervised"
            )
        run_store: RunStore | None = self.store
        model = cost_model if cost_model is not None else CostModel()
        retry = _GridRetry(retries, backoff)
        journal_of = journals or {}
        crash_text = os.environ.get(CRASH_AFTER_ENV)
        crash_after = int(crash_text) if crash_text else None

        # dedupe identical fingerprints to one execution; remember each
        # fingerprint's first position so later duplicates are labelled
        unique: dict[str, RunSpec] = {}
        first_at: dict[str, int] = {}
        for i, spec in enumerate(specs):
            fp = spec.fingerprint()
            unique.setdefault(fp, spec)
            first_at.setdefault(fp, i)
        deduped = len(specs) - len(unique)

        envelopes: dict[str, ResultEnvelope] = {}
        sources: dict[str, str] = {}

        def land(fp: str, spec: RunSpec, envelope: ResultEnvelope, source: str) -> None:
            envelopes[fp] = envelope
            sources[fp] = source
            journal = journal_of.get((spec.benchmark, spec.machine))
            if journal is not None:
                journal.record(result_from_envelope(envelope), spec.machine)

        # serve what the store already has
        pending: list[RunSpec] = []
        for fp, spec in unique.items():
            hit = run_store.get(fp) if run_store is not None else None
            if hit is not None:
                land(fp, spec, hit, "cache")
            else:
                pending.append(spec)

        plan = plan_schedule([model.cost(s) for s in pending], jobs, policy)
        ordered = [pending[i] for i in plan.dispatch]
        dispatch_order = tuple(s.fingerprint() for s in ordered)
        fresh = 0

        def finish(spec: RunSpec, envelope: ResultEnvelope) -> None:
            nonlocal fresh
            fp = spec.fingerprint()
            land(fp, spec, envelope, "fresh")
            if run_store is not None:
                run_store.put(fp, envelope)
            fresh += 1
            if crash_after is not None and fresh >= crash_after:
                raise RuntimeError(
                    f"injected sweep crash after {fresh} partition(s) "
                    f"({CRASH_AFTER_ENV}={crash_after})"
                )

        poisoned: tuple[PoisonRecord, ...] = ()
        if supervision is not None:
            tasks = [
                SupervisedTask(
                    key=spec.fingerprint(),
                    benchmark=spec.benchmark,
                    machine=spec.machine,
                    nprocs=spec.nprocs,
                    config=spec.config,
                )
                for spec in ordered
            ]
            outcome = supervise(tasks, supervision, jobs=jobs)
            for spec in ordered:
                payload = outcome.results.get(spec.fingerprint())
                if payload is not None:
                    finish(spec, ResultEnvelope.from_dict(payload))
            poisoned = outcome.poisoned
            for record in poisoned:
                journal = journal_of.get((record.benchmark, record.machine))
                if journal is not None:
                    journal.record_poison(record)
                if run_store is not None:
                    run_store.record_poison(record.key, record.to_dict())
        elif jobs > 1 and len(ordered) > 1 and self._runner is None:
            _run_pool(ordered, plan, jobs, policy, retry, finish)
        else:
            for spec in ordered:
                while True:
                    try:
                        envelope = self._run_one(spec)
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except Exception as exc:  # repro-lint: disable=REPRO005 -- retry.failed re-raises (as GridWorkerError) past the retry limit
                        retry.failed(spec, exc)
                        continue
                    finish(spec, envelope)
                    break

        cells = tuple(
            GridCell(
                spec=spec,
                envelope=envelopes[spec.fingerprint()],
                source=(
                    sources[spec.fingerprint()]
                    if first_at[spec.fingerprint()] == i
                    else "dedup"
                ),
            )
            for i, spec in enumerate(specs)
            if spec.fingerprint() in envelopes
        )
        return GridOutcome(
            cells=cells,
            fresh=fresh,
            cached=sum(1 for s in sources.values() if s == "cache"),
            deduped=deduped,
            dispatch_order=dispatch_order,
            validity=grid_validity((c.envelope for c in cells), poisoned),
            poisoned=poisoned,
        )

    def submit(self, spec: RunSpec) -> "Future[ResultEnvelope]":
        """A future for the spec's envelope; dedupes identical specs."""
        fp = spec.fingerprint()
        with self._lock:
            existing = self._futures.get(fp)
            if existing is not None:
                return existing
            fut: Future[ResultEnvelope] = Future()
            self._futures[fp] = fut
        hit = self.store.get(fp) if self.store is not None else None
        if hit is not None:
            fut.set_result(hit)
            return fut
        try:
            with self._lock:
                self.executions += 1
            envelope = self._run_one(spec)
        except BaseException as exc:  # repro-lint: disable=REPRO005 -- the error travels to every submitter via Future.set_exception
            fut.set_exception(exc)
            # a failed execution must not poison later submitters
            with self._lock:
                self._futures.pop(fp, None)
            return fut
        if self.store is not None:
            self.store.put(fp, envelope)
        fut.set_result(envelope)
        return fut

    def result(self, spec: RunSpec) -> ResultEnvelope:
        """Blocking convenience wrapper over :meth:`submit`."""
        return self.submit(spec).result()
