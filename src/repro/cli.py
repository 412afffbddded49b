"""Command-line entry points.

``repro-beff --machine t3e --procs 8`` runs the effective bandwidth
benchmark on a simulated machine and prints the measurement protocol;
``repro-beffio --machine sp --procs 4 --T 10`` does the same for the
I/O benchmark.  ``--machine list`` enumerates the library.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from collections.abc import Callable

from repro.beff import MeasurementConfig, run_detail
from repro.beffio import BeffIOConfig
from repro.faults import FaultPlan
from repro.machines import MACHINES, get_machine
from repro.reporting import beff_protocol, beffio_pattern_table, beffio_summary
from repro.reporting.export import to_json, write_json_atomic
from repro.util import MB

#: exit code when a sweep partition fails after exhausting retries
EXIT_SWEEP_WORKER_FAILED = 3
#: exit code when --sanitize finds a same-time tie-break dependency
EXIT_SANITIZER_FAILED = 4
#: exit code when a supervised run completed but quarantined cells —
#: the results that exist are real, yet the campaign is degraded
EXIT_COMPLETED_DEGRADED = 5


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse ``type`` accepting integers >= ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _partition_list(text: str) -> list[int]:
    """``--partitions``: comma-separated process counts, each >= 1."""
    try:
        sizes = [int(n) for n in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated process counts like 2,4,8, got {text!r}"
        ) from None
    if min(sizes) < 1:
        raise argparse.ArgumentTypeError(f"process counts must be >= 1, got {text!r}")
    return sizes


def _library_key(text: str) -> str:
    """A machine library key; unknown keys fail with get_machine's hint."""
    if text not in MACHINES:
        try:
            get_machine(text)
        except KeyError as exc:
            raise argparse.ArgumentTypeError(exc.args[0]) from None
    return text


def _machine_key(text: str) -> str:
    """``--machine``: a library key, or ``list``."""
    return text if text == "list" else _library_key(text)


def _machine_keys(text: str) -> list[str]:
    """``--machines``: comma-separated library keys, or ``all``."""
    return sorted(MACHINES) if text == "all" else [_library_key(k) for k in text.split(",")]


def _machine_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--machine",
        type=_machine_key,
        default="t3e",
        help=f"machine key or 'list' (default t3e; known: {', '.join(sorted(MACHINES))})",
    )
    parser.add_argument("--procs", type=_int_at_least(1), default=8,
                        help="number of MPI processes")


def _sweep_parent() -> argparse.ArgumentParser:
    """The partition-sweep flags both benchmark CLIs share."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("partition sweeps")
    group.add_argument("--partitions", type=_partition_list, metavar="N,N,...",
                       help="sweep these partition sizes instead of --procs and "
                            "report the system value (the maximum over partitions)")
    group.add_argument("--jobs", type=_int_at_least(1), default=1,
                       help="worker processes for --partitions sweeps (results "
                            "are identical to a serial sweep)")
    group.add_argument("--journal", metavar="DIR",
                       help="crash-safe sweep journal directory (per-partition "
                            "results are written atomically as they complete)")
    group.add_argument("--resume", action="store_true",
                       help="resume a killed sweep from --journal, replaying "
                            "completed partitions bit-identically")
    group.add_argument("--retries", type=_int_at_least(0), default=0,
                       help="re-attempts per failed sweep partition before "
                            f"giving up with exit code {EXIT_SWEEP_WORKER_FAILED}")
    return parent


def _worker_failed(prog: str, exc) -> int:
    """Report a cell that failed past its retries (a ``GridWorkerError``)."""
    print(f"{prog}: {exc}", file=sys.stderr)
    if exc.worker_traceback:
        print(exc.worker_traceback, file=sys.stderr, end="")
    return EXIT_SWEEP_WORKER_FAILED


def _fault_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults", type=int, metavar="SEED", default=None,
        help="inject the deterministic severity-profile fault plan built "
             "from this seed (see repro.faults.FaultPlan.severity_profile)",
    )
    parser.add_argument(
        "--fault-severity", type=float, default=0.5, metavar="S",
        help="fault severity in [0, 1] for --faults (0 = no faults; default 0.5)",
    )


def _cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache", metavar="DIR", default=None,
        help="content-addressed result store: previously simulated "
             "partitions are served byte-identically from this directory "
             "instead of re-simulated; fresh results are absorbed into it",
    )
    parser.add_argument(
        "--cache-limit", type=int, metavar="BYTES", default=None,
        help="size cap for --cache; least-recently-served entries are "
             "evicted past it (default: unbounded)",
    )


def _store_of(args) -> "object | None":
    if args.cache is None:
        if args.cache_limit is not None:
            raise SystemExit("--cache-limit requires --cache")
        return None
    from repro.runtime.store import RunStore

    return RunStore(args.cache, limit_bytes=args.cache_limit)


def _print_cache(store, fresh: int, cached: int) -> None:
    if store is not None:
        print(f"cache: {fresh} fresh + {cached} cached ({store.stats.describe()})")


def _sanitize_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sanitize", action="store_true",
        help="run the nondeterminism sanitizer: re-execute the benchmark "
             "under shuffled same-time tie-breakers (3 extra runs) and fail "
             f"with exit code {EXIT_SANITIZER_FAILED} unless every run is "
             "bit-identical (see docs/static-analysis.md)",
    )


def _sanitized_run(run, describe_result):
    """Run ``run`` under the commutativity check; returns (result, exit)."""
    from repro.devtools.sanitizer import check_commutativity

    report = check_commutativity(
        run, equal=lambda a, b: describe_result(a) == describe_result(b)
    )
    print(f"sanitizer: {report.describe()}")
    if not report.ok:
        return report.baseline_result, EXIT_SANITIZER_FAILED
    return report.baseline_result, 0


def _fault_plan(args, spec, horizon: float) -> FaultPlan | None:
    if args.faults is None:
        return None
    num_servers = spec.pfs.num_servers if spec.pfs is not None else 0
    return FaultPlan.severity_profile(
        args.faults, horizon, args.fault_severity,
        nprocs=args.procs, num_servers=num_servers,
    )


def _print_validity(validity) -> None:
    if not validity.ok:
        print(f"validity: {validity.describe()}")


def _supervision_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--deadline", type=float, metavar="SECONDS", default=None,
        help="supervised execution: wall-clock budget per cell attempt; "
             "an overrunning worker is killed and the attempt retried",
    )
    parser.add_argument(
        "--heartbeat-timeout", type=float, metavar="SECONDS", default=None,
        help="supervised execution: kill a worker silent for this long "
             "(hung-node detection; workers heartbeat continuously)",
    )
    parser.add_argument(
        "--max-failures", type=int, metavar="N", default=None,
        help="supervised execution: attempts per cell before it is "
             "quarantined as poisoned (the campaign completes; exit code "
             f"{EXIT_COMPLETED_DEGRADED} reports the degradation)",
    )
    parser.add_argument(
        "--backoff", type=float, metavar="SECONDS", default=0.0,
        help="base retry delay; grows exponentially with seeded jitter "
             "derived from the cell fingerprint (reproducible timing)",
    )


def _supervision_of(args) -> "object | None":
    """A SupervisionPolicy when any supervised-execution flag was given."""
    if (
        args.deadline is None
        and args.heartbeat_timeout is None
        and args.max_failures is None
    ):
        return None
    from repro.runtime.supervisor import SupervisionPolicy

    return SupervisionPolicy(
        deadline_s=args.deadline,
        heartbeat_timeout_s=args.heartbeat_timeout,
        max_failures=args.max_failures if args.max_failures is not None else 3,
        backoff_base_s=args.backoff,
    )


def _print_poisoned(poisoned) -> None:
    for record in poisoned:
        print(f"poisoned: {record.describe()}")


def _resolve_machine(args) -> object | None:
    if args.machine == "list":
        for key in sorted(MACHINES):
            spec = MACHINES[key]()
            print(f"{key:12s} {spec.name}")
        return None
    return get_machine(args.machine)


def main_beff(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-beff", description="effective bandwidth benchmark (simulated)",
        parents=[_sweep_parent()],
        epilog="exit codes: 0 success, 2 usage error, "
               f"{EXIT_SWEEP_WORKER_FAILED} sweep partition failed after retries, "
               f"{EXIT_COMPLETED_DEGRADED} completed with quarantined partitions",
    )
    _machine_arg(parser)
    parser.add_argument(
        "--backend", choices=("des", "analytic"), default="des",
        help="event simulation (reference) or analytic round model (fast)",
    )
    parser.add_argument(
        "--methods", default="sendrecv,nonblocking,alltoallv",
        help="comma-separated subset of the three methods",
    )
    parser.add_argument("--full-protocol", action="store_true",
                        help="print every raw measurement record")
    parser.add_argument("--detail", action="store_true",
                        help="also run the non-averaged detail patterns")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the result as JSON (SKaMPI-style export)")
    _supervision_args(parser)
    _cache_args(parser)
    _fault_args(parser)
    _sanitize_arg(parser)
    args = parser.parse_args(argv)
    if args.resume and not args.journal:
        parser.error("--resume requires --journal")
    if args.sanitize and args.partitions:
        parser.error("--sanitize checks a single partition; drop --partitions")
    if args.cache and not args.partitions:
        parser.error("--cache serves --partitions sweeps; drop it or add --partitions")
    supervision = _supervision_of(args)
    if supervision is not None and not args.partitions:
        parser.error("supervised execution needs --partitions")
    spec = _resolve_machine(args)
    if spec is None:
        return 0
    # fault windows are placed against a nominal 1-second horizon (the
    # whole-run link/straggler degradations are horizon-independent)
    plan = _fault_plan(args, spec, horizon=1.0)
    if plan is not None and args.backend != "des":
        parser.error("--faults requires --backend des")
    config = MeasurementConfig(
        methods=tuple(args.methods.split(",")),
        backend=args.backend,
        faults=plan,
    )
    if args.partitions:
        from repro.beff.sweep import run_sweep
        from repro.runtime.scheduler import GridWorkerError

        store = _store_of(args)
        try:
            sweep = run_sweep(
                args.machine, args.partitions, config, jobs=args.jobs,
                journal=args.journal, resume=args.resume, retries=args.retries,
                backoff=args.backoff, store=store, supervision=supervision,
            )
        except GridWorkerError as exc:
            return _worker_failed("repro-beff", exc)
        for r in sweep.results:
            print(f"{r.nprocs:6d} procs  b_eff = {r.b_eff / MB:10.1f} MB/s"
                  f"{'' if r.validity.ok else '  [' + r.validity.state + ']'}")
        _print_poisoned(sweep.poisoned)
        _print_validity(sweep.validity)
        _print_cache(store, sweep.fresh, sweep.cached)
        print(f"best b_eff = {sweep.best_b_eff / MB:.1f} MB/s "
              f"(best partition: {sweep.best_partition} procs)")
        return EXIT_COMPLETED_DEGRADED if sweep.poisoned else 0
    if args.sanitize:
        result, status = _sanitized_run(
            lambda: spec.run_beff(args.procs, config),
            lambda r: to_json(r, machine=args.machine),
        )
        if status:
            return status
    else:
        result = spec.run_beff(args.procs, config)
    if args.json:
        write_json_atomic(args.json, to_json(result, machine=args.machine))
    _print_validity(result.validity)
    print(beff_protocol(result, max_rows=None if args.full_protocol else 24))
    if not args.full_protocol:
        print(f"({len(result.records)} records total; --full-protocol to see all)")
    if args.detail:
        details = run_detail(
            spec.fabric_factory(args.procs), spec.memory_per_proc,
            int_bits=spec.int_bits,
        )
        print("\ndetail patterns (not averaged):")
        for name, rec in details.items():
            print(f"  {name:18s} {rec.bandwidth / MB:10.1f} MB/s")
    return 0


def main_beffio(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-beffio", description="effective I/O bandwidth benchmark (simulated)",
        parents=[_sweep_parent()],
        epilog="exit codes: 0 success, 2 usage error, "
               f"{EXIT_SWEEP_WORKER_FAILED} sweep partition failed after retries, "
               f"{EXIT_COMPLETED_DEGRADED} completed with quarantined partitions",
    )
    _machine_arg(parser)
    parser.add_argument("--T", type=float, default=30.0,
                        help="scheduled partition time, simulated seconds "
                             "(paper: >= 900 for official numbers)")
    parser.add_argument("--types", default="0,1,2,3,4",
                        help="comma-separated pattern types to run")
    parser.add_argument("--pattern-table", action="store_true",
                        help="print the per-pattern table of every access method")
    parser.add_argument("--termination", choices=("per-iteration", "geometric"),
                        default="per-iteration",
                        help="collective-loop termination algorithm (Sec. 5.4)")
    parser.add_argument("--mode", choices=("fast", "reference"), default="fast",
                        help="fast = steady-state repetition fast-forward; "
                             "reference = every repetition simulated (bit-identical)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the result as JSON (SKaMPI-style export)")
    parser.add_argument("--pattern-budget", type=float, default=None, metavar="SECONDS",
                        help="per-pattern simulated-time budget; overrunning "
                             "patterns are capped and flagged (skip-and-flag)")
    _supervision_args(parser)
    _cache_args(parser)
    _fault_args(parser)
    _sanitize_arg(parser)
    args = parser.parse_args(argv)
    if args.resume and not args.journal:
        parser.error("--resume requires --journal")
    if args.sanitize and args.partitions:
        parser.error("--sanitize checks a single partition; drop --partitions")
    if args.cache and not args.partitions:
        parser.error("--cache serves --partitions sweeps; drop it or add --partitions")
    supervision = _supervision_of(args)
    if supervision is not None and not args.partitions:
        parser.error("supervised execution needs --partitions")
    spec = _resolve_machine(args)
    if spec is None:
        return 0
    config = BeffIOConfig(
        T=args.T,
        pattern_types=tuple(int(t) for t in args.types.split(",")),
        termination=args.termination,
        mode=args.mode,
        faults=_fault_plan(args, spec, horizon=args.T),
        pattern_budget=args.pattern_budget,
    )
    if args.partitions:
        from repro.beffio.sweep import run_sweep
        from repro.runtime.scheduler import GridWorkerError

        store = _store_of(args)
        try:
            sweep = run_sweep(
                args.machine, args.partitions, config, jobs=args.jobs,
                journal=args.journal, resume=args.resume, retries=args.retries,
                backoff=args.backoff, store=store, supervision=supervision,
            )
        except GridWorkerError as exc:
            return _worker_failed("repro-beffio", exc)
        for r in sweep.results:
            print(f"{r.nprocs:6d} procs  b_eff_io = {r.b_eff_io / MB:10.2f} MB/s"
                  f"{'' if r.validity.ok else '  [' + r.validity.state + ']'}")
        _print_poisoned(sweep.poisoned)
        _print_validity(sweep.validity)
        _print_cache(store, sweep.fresh, sweep.cached)
        print(f"system b_eff_io = {sweep.system_b_eff_io / MB:.2f} MB/s "
              f"(best partition: {sweep.best_partition} procs"
              f"{', official' if sweep.official else ''})")
        return EXIT_COMPLETED_DEGRADED if sweep.poisoned else 0
    if args.sanitize:
        result, status = _sanitized_run(
            lambda: spec.run_beffio(args.procs, config),
            lambda r: to_json(r, machine=args.machine),
        )
        if status:
            return status
    else:
        result = spec.run_beffio(args.procs, config)
    if args.json:
        write_json_atomic(args.json, to_json(result, machine=args.machine))
    _print_validity(result.validity)
    print(beffio_summary(result))
    if args.pattern_table:
        for method in ("write", "rewrite", "read"):
            print()
            print(beffio_pattern_table(result, method).render())
    return 0


def _resolve_scenarios(names: list[str]) -> dict:
    """``--scenario`` names as per-benchmark overrides.

    At most one communication and one I/O scenario may be named; each
    applies to its own benchmark's grid cells (the other benchmark
    keeps the paper's default workload).
    """
    from repro.scenarios import CommScenario, get_scenario

    overrides: dict = {}
    for name in names:
        try:
            scenario = get_scenario(name)
        except KeyError as exc:
            raise SystemExit(f"repro: {exc.args[0]}") from None
        benchmark = "b_eff" if isinstance(scenario, CommScenario) else "b_eff_io"
        if benchmark in overrides:
            raise SystemExit(
                f"repro: both {overrides[benchmark].name!r} and "
                f"{scenario.name!r} are {benchmark} scenarios; name one"
            )
        overrides[benchmark] = scenario
    return overrides


def _cmd_scenarios(args) -> int:
    """``repro scenarios list | show <name> | validate <file>``."""
    import json as _json

    from repro.scenarios import (
        SCENARIOS,
        CommScenario,
        ScenarioError,
        get_scenario,
        scenario_from_dict,
    )

    def kind_of(s) -> str:
        return "comm" if isinstance(s, CommScenario) else "io"

    if args.action == "list":
        for name in sorted(SCENARIOS):
            s = SCENARIOS[name]
            print(f"{name:18s} {kind_of(s):5s} {s.fingerprint()[:12]}  "
                  f"{s.description}")
        return 0
    if args.action == "show":
        try:
            s = get_scenario(args.name)
        except KeyError as exc:
            print(f"repro: {exc.args[0]}", file=sys.stderr)
            return 2
        print(f"name:        {s.name}")
        print(f"grammar:     {kind_of(s)}")
        print(f"fingerprint: {s.fingerprint()}")
        print(_json.dumps(s.to_dict(), indent=2, sort_keys=True))
        return 0
    # validate: parse a JSON grammar instance, run full validation
    try:
        with open(args.name, encoding="utf-8") as fh:
            payload = _json.load(fh)
        s = scenario_from_dict(payload)
    except (OSError, ValueError, ScenarioError) as exc:
        print(f"repro: invalid scenario: {exc}", file=sys.stderr)
        return 2
    print(f"ok: {kind_of(s)} scenario {s.name!r}, "
          f"fingerprint {s.fingerprint()}")
    return 0


def main_repro(argv: list[str] | None = None) -> int:
    """Grid front-end: ``repro sweep-grid`` runs a machine-zoo grid;
    ``repro scenarios`` inspects the declarative workload layer."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="grid-scale front-end over both benchmarks",
        epilog="exit codes: 0 success, 2 usage error, "
               f"{EXIT_SWEEP_WORKER_FAILED} grid cell failed after retries, "
               f"{EXIT_COMPLETED_DEGRADED} completed with quarantined cells",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    scen = sub.add_parser(
        "scenarios",
        help="inspect the declarative scenario grammar without running "
             "a benchmark",
    )
    scen.add_argument("action", choices=("list", "show", "validate"),
                      help="list registered scenarios, show one as JSON, "
                           "or validate a JSON grammar instance from a file")
    scen.add_argument("name", nargs="?",
                      help="scenario name (show) or JSON file path (validate)")
    grid = sub.add_parser(
        "sweep-grid",
        help="run a machine-zoo × benchmark × partitions grid with "
             "content-addressed caching and dynamic scheduling",
    )
    grid.add_argument(
        "--machines", type=_machine_keys, default="all",
        help="comma-separated machine keys, or 'all' for the whole library "
             f"(known: {', '.join(sorted(MACHINES))})",
    )
    grid.add_argument(
        "--benchmarks", default="b_eff,b_eff_io",
        help="comma-separated subset of b_eff,b_eff_io (b_eff_io cells on "
             "machines without a parallel filesystem are skipped)",
    )
    grid.add_argument("--partitions", type=_partition_list, default="2,4",
                      metavar="N,N,...",
                      help="partition sizes for every grid cell")
    grid.add_argument("--jobs", type=_int_at_least(1), default=1,
                      help="worker processes (results are identical at any jobs)")
    grid.add_argument("--policy", choices=("dynamic", "static"), default="dynamic",
                      help="dynamic = longest-expected-first balancing; "
                           "static = contiguous jobs=N chunks (baseline)")
    grid.add_argument("--backend", choices=("des", "analytic"), default="analytic",
                      help="b_eff engine for the grid's cells")
    grid.add_argument("--T", type=float, default=2.0,
                      help="scheduled time for the b_eff_io cells")
    grid.add_argument("--types", default="0",
                      help="b_eff_io pattern types for the grid's cells")
    grid.add_argument("--scenario", action="append", default=[],
                      metavar="NAME",
                      help="declarative scenario to run instead of the paper "
                           "workload (repeatable: at most one comm and one io "
                           "scenario; see 'repro scenarios list')")
    grid.add_argument("--retries", type=_int_at_least(0), default=0,
                      help="re-attempts per failed cell before giving up with "
                           f"exit code {EXIT_SWEEP_WORKER_FAILED}")
    grid.add_argument("--journal", metavar="DIR",
                      help="journal root: every cell is recorded into the "
                           "per-(benchmark, machine) sweep journal under it")
    grid.add_argument("--out", metavar="DIR",
                      help="write each cell's envelope as canonical JSON "
                           "under this directory, plus a grid.json summary")
    _supervision_args(grid)
    _cache_args(grid)
    args = parser.parse_args(argv)
    if args.command == "scenarios":
        if args.action in ("show", "validate") and not args.name:
            scen.error(f"'{args.action}' needs a name argument")
        return _cmd_scenarios(args)
    supervision = _supervision_of(args)

    from repro.runtime.scheduler import (
        CostModel,
        GridWorkerError,
        expand_grid,
        run_grid,
    )

    benchmarks = args.benchmarks.split(",")
    scenario_overrides = _resolve_scenarios(args.scenario)
    configs = {
        "b_eff": MeasurementConfig(backend=args.backend),
        "b_eff_io": BeffIOConfig(
            T=args.T, pattern_types=tuple(int(t) for t in args.types.split(","))
        ),
    }
    for benchmark, scenario in scenario_overrides.items():
        configs[benchmark] = dataclasses.replace(
            configs[benchmark], scenario=scenario
        )
    specs = expand_grid(
        args.machines,
        benchmarks,
        args.partitions,
        configs={b: configs[b] for b in benchmarks},
    )
    store = _store_of(args)
    try:
        outcome = run_grid(
            specs,
            jobs=args.jobs,
            store=store,
            policy=args.policy,
            cost_model=CostModel.calibrate("benchmarks/results"),
            retries=args.retries,
            backoff=args.backoff,
            journal_root=args.journal,
            supervision=supervision,
        )
    except GridWorkerError as exc:
        return _worker_failed("repro", exc)
    for cell in outcome.cells:
        value = cell.envelope.values.get("b_eff", cell.envelope.values.get("b_eff_io"))
        shown = f"{value / MB:10.2f} MB/s" if value is not None else "?"
        print(f"{cell.spec.benchmark:9s} {cell.spec.machine:12s} "
              f"{cell.spec.nprocs:6d} procs  {shown}  [{cell.source}]")
    _print_poisoned(outcome.poisoned)
    _print_validity(outcome.validity)
    print(f"grid: {outcome.describe()}")
    if store is not None:
        print(f"cache: {store.stats.describe()}")
    if args.out:
        import json as _json
        import pathlib

        from repro.runtime.store import canonical_envelope_text

        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        cell_names = {}
        for cell in outcome.cells:
            name = (
                f"{cell.spec.benchmark}__{cell.spec.machine}"
                f"__{cell.spec.nprocs}.json"
            )
            cell_names[name] = cell.spec.fingerprint()
            write_json_atomic(
                out_dir / name, canonical_envelope_text(cell.envelope)
            )
        # content-only summary (no fresh/cached counters, no wall times)
        # so a resumed or cache-served run exports byte-identical trees
        summary = {
            "schema": 1,
            "cells": cell_names,
            "validity": outcome.validity.to_dict(),
            "poisoned": [record.to_export_dict() for record in outcome.poisoned],
        }
        write_json_atomic(
            out_dir / "grid.json",
            _json.dumps(summary, indent=2, sort_keys=True),
        )
        print(f"wrote {len(outcome.cells)} envelope(s) to {out_dir}")
    return EXIT_COMPLETED_DEGRADED if outcome.poisoned else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main_beff())
