"""The full b_eff_io benchmark for one partition.

Execution order (paper Sec. 5.1): for each access method (initial
write, rewrite, read), for each pattern type, open an individual
file, run the type's patterns under the time-driven scheduler, sync
(write methods, after every pattern loop) and close; the open-to-
close wall time and the transferred bytes give the pattern-type
bandwidth.  The segmented types (3, 4) get their per-process segment
size from the repetition factors measured for types 0-2.

The rewrite and read passes never run a pattern for more repetitions
than the initial write recorded, so they always access data the
write pass produced.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.beffio import analysis
from repro.beffio.analysis import ACCESS_METHODS, TypeResult
from repro.beffio.patterns import (
    SUM_U,
    IOPattern,
    build_patterns,
    extension_patterns,
    mpart_for,
    patterns_of_type,
)
from repro.beffio.fastforward import FFSession
from repro.beffio.scheduler import (
    collective_timed_loop,
    counted_loop,
    geometric_timed_loop,
    local_timed_loop,
    pattern_time,
)
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.validity import VALID, RunValidity
from repro.sim.engine import DeadlockError, EventBudgetError
from repro.sim.randomness import RandomStreams
from repro.beffio.segments import estimate_segment_size
from repro.mpi.comm import World
from repro.mpiio.file import IOFile
from repro.mpiio.fileview import ContiguousView, StridedView
from repro.pfs.filesystem import FileSystem
from repro.util import MB

if TYPE_CHECKING:
    from repro.scenarios.grammar import IOScenario


@dataclass(frozen=True)
class BeffIOConfig:
    """Knobs of one b_eff_io partition run."""

    #: scheduled time for the partition, seconds (paper: >= 900 for
    #: official numbers; scaled-down values preserve the shapes)
    T: float = 900.0
    pattern_types: tuple[int, ...] = (0, 1, 2, 3, 4)
    #: run only the wellformed (power-of-two sized) rows of Table 2;
    #: each pattern keeps its own T/3 * U/sum(U) schedule share, the
    #: non-wellformed rows simply do not run.  The paper reports the
    #: two families separately, and they behave very differently under
    #: the fast path: a non-wellformed repetition advances the file by
    #: an offset that is not a multiple of the stripe period, so its
    #: per-server request stream rotates with a period usually far
    #: beyond :data:`repro.beffio.fastforward.MAX_PERIOD`
    wellformed_only: bool = False
    #: False = MPI_File_sync only publishes (**paper semantics**, the
    #: Sec. 5.4 caveat; also the default of ``mpiio.file.open_file``);
    #: True = sync waits for disk writeback
    sync_drains: bool = False
    cb_buffer: int = 4 * MB
    num_aggregators: int | None = None
    file_prefix: str = "beffio"
    segment_fallback_reps: float = 8.0
    #: optional cap on the per-process segment (the 2/n GB rule)
    max_segment: int | None = None
    #: collective-loop termination: "per-iteration" is the paper's
    #: released algorithm (barrier+bcast every repetition);
    #: "geometric" is its Sec. 5.4 proposed improvement
    termination: str = "per-iteration"
    #: seed for the random access pattern extension (type 5)
    random_seed: int = 20010423
    #: "fast" arms the steady-state repetition fast-forward (see
    #: :mod:`repro.beffio.fastforward`); "reference" simulates every
    #: repetition event for event — the bit-identity oracle
    mode: str = "fast"
    #: fault plan injected into the simulated machine; a non-empty
    #: plan forces reference-mode loops (mid-run fault transitions
    #: break the fast-forward's periodicity proofs)
    faults: FaultPlan | None = None
    #: per-pattern simulated-seconds cap; caps each timed loop's
    #: deadline and flags patterns that still overran (skip-and-flag)
    pattern_budget: float | None = None
    #: hard cap on simulation events (never-hang guard under faults).
    #: It counts queued events only: process resumes and fused eager
    #: send completions run inside other events and no longer count
    event_budget: int | None = None
    #: declarative workload override (:mod:`repro.scenarios`): None
    #: runs the paper's pinned Table 2; an
    #: :class:`~repro.scenarios.grammar.IOScenario` compiles its own
    #: rows, scheduling denominator and reduction tree, and hashes
    #: into the run's store fingerprint.  ``pattern_types`` then
    #: *selects among* the scenario's types.
    scenario: "IOScenario | None" = None

    def __post_init__(self) -> None:
        if self.scenario is not None:
            from repro.scenarios.grammar import IOScenario

            if not isinstance(self.scenario, IOScenario):
                raise TypeError(
                    f"b_eff_io scenarios must be IOScenario, "
                    f"got {type(self.scenario).__name__}"
                )
        if self.T <= 0:
            raise ValueError("T must be positive")
        if not self.pattern_types:
            raise ValueError("need at least one pattern type")
        for t in self.pattern_types:
            if not (0 <= t <= 5):
                raise ValueError(f"bad pattern type {t}")
        if len(set(self.pattern_types)) != len(self.pattern_types):
            raise ValueError("duplicate pattern types")
        if self.cb_buffer < 1:
            raise ValueError("cb_buffer must be >= 1")
        if self.termination not in ("per-iteration", "geometric"):
            raise ValueError(f"unknown termination {self.termination!r}")
        if self.mode not in ("fast", "reference"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.pattern_budget is not None and self.pattern_budget <= 0:
            raise ValueError("pattern_budget must be positive when given")
        if self.event_budget is not None and self.event_budget < 1:
            raise ValueError("event_budget must be >= 1 when given")


@dataclass(frozen=True)
class PatternRun:
    """One pattern under one access method (a point in Fig. 4)."""

    method: str
    number: int
    pattern_type: int
    l: int
    L: int
    wellformed: bool
    reps: int  # loop repetitions (max across processes)
    nbytes: int  # transferred bytes, total across processes
    time: float  # loop duration, max across processes
    #: the loop overran its configured pattern budget (skip-and-flag)
    over_budget: bool = False

    @property
    def bandwidth(self) -> float:
        return self.nbytes / self.time if self.time > 0 else 0.0


@dataclass
class BeffIOResult:
    nprocs: int
    T: float
    mpart: int
    segment_size: int | None
    pattern_runs: list[PatternRun]
    type_results: list[TypeResult]
    method_values: dict[str, float]
    b_eff_io: float  # bytes/s for this partition
    #: trustworthiness of the aggregates (resilient runs may lose
    #: whole pattern types); ``valid`` for an undisturbed complete run
    validity: RunValidity = VALID
    #: the engine that actually ran the loops ("fast" | "reference";
    #: fault plans force "reference" regardless of the configured mode)
    engine_mode: str = "fast"
    #: seed of the injected fault plan (None for undisturbed runs)
    fault_seed: int | None = None

    def type_result(self, method: str, ptype: int) -> TypeResult:
        for t in self.type_results:
            if t.method == method and t.pattern_type == ptype:
                return t
        raise KeyError(f"no result for method={method!r} type={ptype}")

    def pattern_table(self, method: str) -> list[PatternRun]:
        """Fig. 4's rows: per-pattern bandwidths of one access method."""
        return [r for r in self.pattern_runs if r.method == method]


class _RunState:
    """Cross-rank shared state of one partition run."""

    def __init__(self) -> None:
        self.handles: dict[tuple[str, int], object] = {}
        self.write_reps: dict[tuple[int, int], int] = {}  # (pattern, rank) -> reps
        self.write_extent: dict[int, int] = {}  # pattern -> file bytes consumed (type 0)
        self.segment_size: int | None = None
        self.pattern_runs: list[PatternRun] = []
        self.type_results: list[TypeResult] = []
        #: fast-forward context (None in reference mode)
        self.ff_session: FFSession | None = None


def run_beffio(
    env_factory: Callable[[], tuple[World, FileSystem]],
    memory_per_proc: int,
    config: BeffIOConfig | None = None,
) -> BeffIOResult:
    """Run one b_eff_io partition; the process count comes from the world."""
    config = config or BeffIOConfig()
    world, fs = env_factory()
    comm = world.comm_world
    n = comm.size
    mpart = mpart_for(memory_per_proc)
    if config.scenario is not None:
        # the scenario owns the rows, the scheduling denominator and
        # the reduction tree; ``pattern_types`` selects among its types
        scenario = config.scenario
        patterns = scenario.compile(memory_per_proc)
        available = scenario.pattern_types() + scenario.extension_types()
        ptypes = tuple(t for t in config.pattern_types if t in available)
        if not ptypes:
            raise ValueError(
                f"scenario {scenario.name!r} provides pattern types "
                f"{available}; none selected by "
                f"pattern_types={config.pattern_types}"
            )
        sum_u = scenario.sum_u
        formula = scenario.formula()
    else:
        patterns = build_patterns(memory_per_proc)
        if 5 in config.pattern_types:
            patterns = patterns + extension_patterns(memory_per_proc)
        ptypes = config.pattern_types
        sum_u = SUM_U
        formula = None
    state = _RunState()
    # Mid-run fault transitions break the fast-forward's loop
    # periodicity proofs, so a non-empty plan forces reference loops.
    if config.mode == "fast" and not config.faults:
        state.ff_session = FFSession(world, fs)
    if config.faults:
        injector = FaultInjector(config.faults)
        injector.attach(world.sim, fabric=world.fabric, fs=fs)
    singleton_comms = [comm.create([r]) for r in range(n)]

    def program(rank_comm):
        yield from _partition_pass(
            rank_comm, fs, patterns, config, state, singleton_comms, mpart,
            ptypes, sum_u,
        )

    failure = ""
    try:
        world.run(program, max_events=config.event_budget)
    except (DeadlockError, EventBudgetError) as exc:
        if not (config.faults or config.event_budget):
            raise
        failure = f"{type(exc).__name__}: {exc}"

    flagged = tuple(
        f"{r.method}/t{r.pattern_type}/p{r.number}"
        for r in state.pattern_runs
        if r.over_budget
    )
    expected = [(m, pt) for m in ACCESS_METHODS for pt in ptypes]
    complete = {(t.method, t.pattern_type) for t in state.type_results} >= set(expected)
    if complete and not flagged and not failure:
        # undisturbed path: the exact seed aggregation, bit-identical
        method_values, beffio = analysis.aggregate(state.type_results, formula=formula)
        validity = VALID
    else:
        method_values, beffio, validity = analysis.aggregate_partial(
            state.type_results, expected, flagged=flagged, failure=failure,
            formula=formula,
        )
    return BeffIOResult(
        nprocs=n,
        T=config.T,
        mpart=mpart,
        segment_size=state.segment_size,
        pattern_runs=state.pattern_runs,
        type_results=state.type_results,
        method_values=method_values,
        b_eff_io=beffio,
        validity=validity,
        engine_mode="fast" if state.ff_session is not None else "reference",
        fault_seed=config.faults.seed if config.faults else None,
    )


# ---------------------------------------------------------------------------
# rank program
# ---------------------------------------------------------------------------


def _partition_pass(comm, fs, patterns, config, state, singleton_comms, mpart,
                    ptypes, sum_u):
    n = comm.size
    rank = comm.rank
    for method in ACCESS_METHODS:
        for ptype in ptypes:
            tp_patterns = patterns_of_type(patterns, ptype)
            if config.wellformed_only:
                tp_patterns = [
                    p for p in tp_patterns if p.wellformed or p.fill_segment
                ]
            if ptype in (3, 4, 5) and state.segment_size is None:
                state.segment_size = estimate_segment_size(
                    state.pattern_runs,
                    [p for p in tp_patterns if not p.fill_segment],
                    fallback_reps=config.segment_fallback_reps,
                    max_segment=config.max_segment,
                )
            yield from comm.barrier()
            t_open = comm.wtime()
            handles = _open_type(state, method, ptype, comm, fs, config, singleton_comms)
            base = 0  # type-0 file offset consumed by earlier patterns
            type_bytes = 0
            type_reps = 0
            for p in tp_patterns:
                run = yield from _run_pattern(
                    comm, handles, p, method, config, state, base, sum_u
                )
                if p.pattern_type == 0:
                    base += state.write_extent.get(p.number, 0)
                if rank == 0 and run is not None:
                    state.pattern_runs.append(run)
                    type_bytes += run.nbytes
                    type_reps += run.reps
            yield from _close_type(handles, comm)
            yield from comm.barrier()
            t_close = comm.wtime()
            if rank == 0:
                state.type_results.append(
                    TypeResult(
                        method=method,
                        pattern_type=ptype,
                        nbytes=type_bytes,
                        time=t_close - t_open,
                        reps=type_reps,
                    )
                )


def _open_type(state, method, ptype, comm, fs, config, singleton_comms):
    """Open the type's file(s); idempotent across ranks (first one wins)."""
    key = (method, ptype)
    handles = state.handles.get(key)
    if handles is None:
        name = f"{config.file_prefix}.t{ptype}"
        kwargs = dict(
            cb_buffer=config.cb_buffer,
            num_aggregators=config.num_aggregators,
            sync_drains=config.sync_drains,
        )
        if ptype == 2:
            files = [
                IOFile(singleton_comms[r], fs, f"{name}.{r}", **kwargs)
                for r in range(comm.size)
            ]
            handles = ("per-rank", files)
        else:
            handles = ("single", IOFile(comm.comm, fs, name, **kwargs))
        state.handles[key] = handles
    return handles


def _close_type(handles, comm):
    kind, obj = handles
    if kind == "per-rank":
        yield from obj[comm.rank].close(0)
    else:
        yield from obj.close(comm.rank)


def _sync_pattern(handles, comm):
    kind, obj = handles
    if kind == "per-rank":
        yield from obj[comm.rank].sync(0)
    else:
        yield from obj.sync(comm.rank)


def _run_pattern(comm, handles, p: IOPattern, method, config, state, base, sum_u):
    """Execute one pattern's timed loop; returns a PatternRun on rank 0."""
    n = comm.size
    rank = comm.rank
    kind, obj = handles
    seg = state.segment_size

    # -- configure views / bodies per pattern type -------------------------
    if p.pattern_type == 0:
        f: IOFile = obj
        f.set_view(rank, StridedView(base + rank * p.l, p.l, n * p.l))
        call_bytes = p.L
        if method == "read":
            body = lambda: f.read_all(rank, p.L)
        else:
            body = lambda: f.write_all(rank, p.L)
        collective = True
    elif p.pattern_type == 1:
        f = obj
        call_bytes = p.l
        if method == "read":
            body = lambda: f.read_ordered(rank, p.l)
        else:
            body = lambda: f.write_ordered(rank, p.l)
        collective = True
    elif p.pattern_type == 2:
        f = obj[rank]
        call_bytes = p.l
        if method == "read":
            body = lambda: f.read(0, p.l)
        else:
            body = lambda: f.write(0, p.l)
        collective = False
    elif p.pattern_type == 5:
        # random access extension: chunk-aligned random offsets inside
        # the rank's segment; the offset stream depends only on
        # (seed, pattern, rank) so rewrite and read revisit the
        # initial write's locations
        f = obj
        call_bytes = p.l
        collective = False
        slots = max(1, seg // p.l)
        rng = RandomStreams(config.random_seed).stream(
            f"beffio.t5.p{p.number}.r{rank}"
        )
        base_disp = rank * seg

        def body(f=f, rng=rng, slots=slots, base=base_disp, l=p.l, rd=(method == "read")):
            offset = base + int(rng.integers(0, slots)) * l
            if rd:
                yield from f.read_at(rank, offset, l)
            else:
                yield from f.write_at(rank, offset, l)
    else:  # 3 and 4: segmented file
        f = obj
        # Install the segment view exactly once per (method, type) per
        # rank — set_view rewinds the pointer, and patterns of a type
        # continue where the previous pattern stopped.
        view = f.view(rank)
        if not isinstance(view, ContiguousView) or view.disp != rank * seg:
            f.set_view(rank, ContiguousView(rank * seg))
        call_bytes = p.l
        collective = p.pattern_type == 4
        if collective:
            if method == "read":
                body = lambda: f.read_all(rank, p.l)
            else:
                body = lambda: f.write_all(rank, p.l)
        else:
            if method == "read":
                body = lambda: f.read(rank, p.l)
            else:
                body = lambda: f.write(rank, p.l)

    # -- repetition limits ---------------------------------------------------
    # A limit of 0 means "run no repetitions" — the rank still takes
    # part in the sync and the reductions below, so collectives stay
    # matched across ranks.
    max_reps: int | None = None
    if p.U == 0 and not p.fill_segment:
        max_reps = 1
    if p.fill_segment:
        # size-driven: fill the remaining segment with fixed chunks
        max_reps = max(0, (seg - f.tell(rank)) // p.l)
    if p.pattern_type in (3, 4) and not p.fill_segment:
        capacity = max(0, (seg - f.tell(rank)) // p.l)
        max_reps = capacity if max_reps is None else min(max_reps, capacity)
    if method != "write":
        written = state.write_reps.get((p.number, rank))
        if written is not None:
            max_reps = written if max_reps is None else min(max_reps, written)

    # -- the fast-forward controller (shared across the loop's ranks) --------
    # The random type never settles into a shift-periodic orbit, the
    # geometric loop already amortizes its termination rounds, and
    # short capped loops are not worth the tracking — all of those run
    # plain.  Reference mode disables the whole machinery.
    geometric = collective and not p.fill_segment and config.termination == "geometric"
    ff = None
    session = state.ff_session
    if (
        session is not None
        and p.pattern_type != 5
        and not geometric
        and (max_reps is None or max_reps >= 8)
    ):
        ff_kind = (
            "count" if p.fill_segment else ("collective" if collective else "local")
        )
        ff = session.loop_for((method, p.number), handles, n, ff_kind)

    # -- the timed loop --------------------------------------------------------
    # The budget caps the loop's own deadline (the root still decides
    # termination collectively, so the schedule stays matched); a
    # pattern that overruns anyway — one slow body, a U=0 single shot —
    # is flagged from the allreduced loop time below.
    if p.U > 0:
        share = pattern_time(config.T, p.U, sum_u)
        if config.pattern_budget is not None and share > config.pattern_budget:
            share = config.pattern_budget
        t_end = comm.wtime() + share
    else:
        t_end = comm.wtime()
    t_start = comm.wtime()
    if max_reps == 0:
        reps = 0
    elif p.fill_segment:
        reps = yield from counted_loop(comm, body, max_reps, ff=ff)
    elif collective:
        if geometric:
            reps = yield from geometric_timed_loop(comm, t_end, body, max_reps)
        else:
            reps = yield from collective_timed_loop(comm, t_end, body, max_reps, ff=ff)
    else:
        reps = yield from local_timed_loop(comm, t_end, body, max_reps, ff=ff)
    if ff is not None:
        ff.finish()
    if method != "read":
        yield from _sync_pattern(handles, comm)
    local_time = comm.wtime() - t_start

    # -- bookkeeping (reductions make values identical on all ranks) ----------
    local_bytes = reps * call_bytes
    total_bytes = yield from comm.allreduce(8, local_bytes, lambda a, b: a + b)
    max_time = yield from comm.allreduce(8, local_time, max)
    max_reps_seen = yield from comm.allreduce(8, reps, max)
    if method == "write":
        state.write_reps[(p.number, rank)] = reps
        if p.pattern_type == 0:
            # file region consumed: all ranks interleave reps*L each
            state.write_extent[p.number] = comm.size * reps * p.L
    if rank == 0:
        # ``max_time`` is allreduced, so the flag is rank-independent.
        over = config.pattern_budget is not None and max_time > config.pattern_budget
        return PatternRun(
            method=method,
            number=p.number,
            pattern_type=p.pattern_type,
            l=p.l,
            L=p.L,
            wellformed=p.wellformed,
            reps=max_reps_seen,
            nbytes=total_bytes,
            time=max_time,
            over_budget=over,
        )
    return None
