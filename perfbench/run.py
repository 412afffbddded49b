"""Benchmark driver: times one workload end to end, or attributes it to layers.

    python3 perfbench/run.py --workload beff-des --seed 20010423 --seconds 40 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  ``--trace 0`` prints the end-to-end metrics,
their times scaled to a nominal host speed (``hostspeed.py``),
``--trace 1`` the per-layer ledger (see NOTES.md).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run artefacts (result stores, span
files) go to ``.perfbench/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import hostspeed

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"

#: the program's own default seed (``RandomStreams``, ``BeffIOConfig``)
DEFAULT_SEED = 20010423
#: fewest fresh processes timed per run for ``setup_s``; the tail of
#: the run after the cold runs is filled with more
SETUP_PROBES = 9
#: time the cold runs leave for the set-up probes (about half a second each)
TAIL_S = SETUP_PROBES * 0.6
#: warm passes of the traced run (a fixed count keeps counters exact)
TRACE_WARM_PASSES = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "sim.self_s": "s", "sim.events": "count", "sim.host_us_per_event": "us",
    "fluid.self_s": "s", "fluid.flows": "count", "fluid.allocations": "count",
    "fluid.flows_solved": "count", "fluid.resolve_ratio": "ratio",
    "kernel.self_s": "s", "kernel.solves": "count",
    "mpi.self_s": "s", "mpi.messages": "count",
    "net.self_s": "s", "net.route_lookups": "count", "net.messages": "count",
    "net.bytes": "B",
    "topology.self_s": "s", "topology.routes": "count", "topology.route_pairs": "count",
    "pfs.self_s": "s", "pfs.requests": "count", "pfs.disk_bytes": "B",
    "mpiio.self_s": "s", "mpiio.calls": "count",
    "beff.self_s": "s", "beff.analytic_s": "s", "beff.ff_loops_armed": "count",
    "beff.ff_reps_skipped": "count",
    "beffio.self_s": "s", "beffio.reps": "count",
    "runtime.self_s": "s", "runtime.wait_s": "s", "runtime.cells_fresh": "count",
    "runtime.cells_cached": "count", "runtime.store_hits": "count",
    "runtime.store_misses": "count", "runtime.store_puts": "count",
    "runtime.store_get_s": "s", "runtime.store_put_s": "s", "runtime.warm_pass_s": "s",
    "scenarios.self_s": "s", "scenarios.compile_s": "s",
    "machines.self_s": "s", "machines.build_s": "s",
    "reporting.self_s": "s", "other.self_s": "s",
    "trace.overhead_frac": "ratio", "trace.samples": "count", "trace.coverage": "ratio",
}


class Attempts:
    """Operations attempted and failed, with every failure's message."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ops: int, problems: list[tuple[str, str]]) -> None:
        self.attempted += ops
        self.failed += min(ops, len({op for op, _ in problems}))
        self.messages += [f"{op}: {message}" for op, message in problems]

    def attempt(self, ops: int, fn, *args):
        """``fn(*args)``, or None with ``ops`` failures if it raises."""
        try:
            return fn(*args)
        except Exception as exc:  # a failed operation, never a harness crash
            traceback.print_exc(file=sys.stderr)
            self.record(ops, [("run", f"{type(exc).__name__}: {exc}")])
            return None


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def pin_problems(workload: str, seed: int, facts: dict[str, str]) -> list[tuple[str, str]]:
    """Compare a run's facts with the pins of its seed.

    A seed without pins of its own is checked on the facts that every
    pinned seed agrees on (the seed-independent outputs)."""
    table = load_pins().get(workload, {})
    want = table.get(str(seed))
    if want is None and table:
        first, *rest = table.values()
        want = {k: v for k, v in first.items() if all(p.get(k) == v for p in rest)}
    problems = []
    for key, value in sorted((want or {}).items()):
        if facts.get(key) != value:
            op = key.split(":", 1)[1] if key.startswith("cell:") else "run"
            problems.append((op, f"{key} = {facts.get(key)}, pinned {value}"))
    if not want:
        problems.append(("run", f"no pins for {workload}"))
    return problems


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def join_workers() -> None:
    """Wait for the pool workers ``run_grid`` leaves behind.

    ``run_grid`` shuts its pool down without waiting, so until they are
    joined the workers' CPU time and memory are missing from
    ``RUSAGE_CHILDREN``."""
    for proc in multiprocessing.active_children():
        proc.join(60)
        if proc.is_alive():
            proc.terminate()
            proc.join()


class Bench:
    """One workload's set-up, runs and checks inside one work directory."""

    def __init__(self, name: str, seed: int, workdir: pathlib.Path) -> None:
        from repro.runtime.store import RunStore
        import workloads

        self.name, self.seed, self.workdir = name, seed, workdir
        #: the host-speed sampler of a timed run; its kernel time is
        #: left out of every interval
        self.speed = hostspeed.Unscaled()
        self.workloads = workloads
        self.RunStore = RunStore
        self.workload = workloads.WORKLOADS[name](seed)
        self.attempts = Attempts()
        self.stores = 0
        #: what the last cold run left for the warm passes to serve
        self.cells: list = []
        self.expected: dict = {}
        #: grid cells run fresh / served from a store, over every run_grid call
        self.fresh = self.cached = 0

    def new_store(self):
        self.stores += 1
        return self.RunStore(self.workdir / f"store-{self.stores}")

    def _count(self, result) -> None:
        self.fresh += getattr(result, "fresh", 0)
        self.cached += getattr(result, "cached", 0)

    def cold(self, store) -> tuple[float, float]:
        """One timed cold run into ``store`` (wall and CPU seconds),
        checked against the pins after the timed region."""
        w = self.workload
        cpu0, spent0, t0 = cpu_seconds(), self.speed.spent, time.perf_counter()
        ran = self.attempts.attempt(w.ops_per_run, w.run, store)
        join_workers()
        kernel = self.speed.spent - spent0
        wall = time.perf_counter() - t0 - kernel
        cpu = cpu_seconds() - cpu0 - kernel
        outcome = None if ran is None else self.attempts.attempt(w.ops_per_run, w.outcome, *ran)
        if outcome is not None:
            self._count(ran[1])
            self.attempts.record(
                w.ops_per_run,
                outcome.problems + pin_problems(self.name, self.seed, outcome.facts),
            )
            for spec, envelope in outcome.cells:
                if spec.fingerprint() not in store:
                    store.put(spec.fingerprint(), envelope)
            self.cells = outcome.cells
            self.expected = self.workloads.reloaded(outcome.cells)
        return wall, cpu

    def warm(self, store_root) -> float:
        """One timed warm pass over the cold run's cells through a freshly
        opened store on ``store_root``; checked after the timed region."""
        store = self.RunStore(store_root)
        specs = [spec for spec, _ in self.cells]
        ops = max(1, len(specs))
        t0 = time.perf_counter()
        ran = self.attempts.attempt(ops, self.workloads.serve, specs, store,
                                    getattr(self.workload, "cost_model", None))
        wall = time.perf_counter() - t0
        if ran is not None:
            self._count(ran[1])
            problems = self.workloads.warm_problems(ran[1], self.expected)
            if not specs:
                problems.append(("run", "no cold result to serve"))
            self.attempts.record(ops, problems)
        return wall


def probe_setup(name: str, seed: int) -> float:
    """Seconds from process start to the end of set-up, in a fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited {proc.returncode} ({line.strip()!r})")
    return elapsed


def timed(bench: Bench, seconds: float) -> dict[str, float]:
    """The end-to-end metrics, measured with tracing off.

    Every interval is scaled to the nominal host by the reference-kernel
    samples taken during it (``hostspeed``)."""
    speed = bench.speed
    walls, cpus, host_walls = [], [], []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        wall, cpu = bench.cold(bench.new_store())
        scale = speed.factor(t0, time.perf_counter())
        walls.append(wall / scale)
        cpus.append(cpu / scale)
        host_walls.append(wall)
        if len(walls) == 1:
            # the first cold run's peak: later cold runs raise it a little
            # more, and how many of them fit depends on host speed; the
            # set-up probes are children too
            rss = peak_rss_mb()
        if time.perf_counter() - begin + statistics.median(host_walls) + TAIL_S > seconds:
            break
    setups = []
    while len(setups) < SETUP_PROBES or time.perf_counter() - begin < seconds:
        t0 = time.perf_counter()
        setup = probe_setup(bench.name, bench.seed)
        setups.append(setup / speed.factor(t0, time.perf_counter()))
    kernel = statistics.median(d for _, d in speed.samples) / hostspeed.NOMINAL
    print(f"{bench.name} seed={bench.seed}: {len(walls)} cold run(s) of "
          f"{', '.join(f'{w:.2f}' for w in host_walls)} host s, {len(setups)} set-up "
          f"probes; reference kernel at {kernel:.3f}x its nominal time over "
          f"{len(speed.samples)} samples")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": rss,
    }


def traced(bench: Bench) -> dict[str, float]:
    """The per-layer metrics: an untraced run, then a traced one."""
    import tracing

    untraced_wall, _ = bench.cold(bench.new_store())
    tracer = tracing.Tracer(bench.workdir)
    tracer.install()
    try:
        store = bench.new_store()
        bench.fresh = bench.cached = 0
        tracer.start_sampler()
        t0 = time.perf_counter()
        traced_wall, _ = bench.cold(store)
        warm_walls = [bench.warm(store.root) for _ in range(TRACE_WARM_PASSES)]
        region_wall = time.perf_counter() - t0
        tracer.stop_sampler()
    finally:
        tracer.uninstall()
    workers = tracer.merge_workers()
    counts = tracer.harvest()
    for key, value in workers.counts.items():
        counts[key] = counts.get(key, 0) + value
    counts["topology.route_pairs"] = len(tracer.route_pairs | workers.route_pairs)
    counts["runtime.cells_fresh"] = bench.fresh
    counts["runtime.cells_cached"] = bench.cached
    samples = tracer.samples + workers.samples
    seconds = tracer.seconds + workers.seconds
    spans = dict(tracer.span_totals())
    for key, value in workers.span_s.items():
        spans[key] = spans.get(key, 0.0) + value
    spans_path = bench.workdir.parent / f"spans-{bench.name}-{bench.seed}.jsonl"
    tracer.write_spans(spans_path)

    metrics: dict[str, float] = {}
    for layer in tracing.LAYERS:
        blocked = seconds.get(f"{layer}.wait", 0.0)
        if layer == "runtime":
            metrics["runtime.wait_s"] = blocked
            blocked = 0.0
        metrics[f"{layer}.self_s"] = seconds.get(layer, 0.0) + blocked
    for name, unit in PER_LAYER.items():
        if unit in ("count", "B"):
            metrics[name] = counts.get(name, 0)
    events, flows = counts.get("sim.events", 0), counts.get("fluid.flows", 0)
    metrics["sim.host_us_per_event"] = untraced_wall * 1e6 / events if events else 0.0
    metrics["fluid.resolve_ratio"] = counts.get("fluid.flows_solved", 0) / flows if flows else 0.0
    metrics["beff.analytic_s"] = spans.get("beff.analytic", 0.0)
    metrics["runtime.store_get_s"] = spans.get("runtime.store_get", 0.0)
    metrics["runtime.store_put_s"] = spans.get("runtime.store_put", 0.0)
    metrics["runtime.warm_pass_s"] = statistics.median(warm_walls)
    metrics["scenarios.compile_s"] = spans.get("scenarios.compile", 0.0)
    metrics["machines.build_s"] = spans.get("machines.build", 0.0)
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    metrics["trace.samples"] = sum(samples.values())
    metrics["trace.coverage"] = sum(tracer.seconds.values()) / region_wall

    print(f"ledger {bench.name} seed={bench.seed}: untraced {untraced_wall:.2f} s, "
          f"traced {traced_wall:.2f} s (overhead {metrics['trace.overhead_frac']:+.1%}); "
          f"traced region {region_wall:.2f} s, {sum(tracer.samples.values())} samples "
          f"every {tracing.INTERVAL * 1e3:.0f} ms cover {metrics['trace.coverage']:.1%}"
          + (f"; +{sum(workers.samples.values())} samples "
             f"({sum(workers.seconds.values()):.2f} s) from {workers.processes} "
             "pool worker(s)" if workers.processes else ""))
    total = sum(seconds.values()) or 1.0
    rows = [(metrics[f"{layer}.self_s"], layer, samples.get(layer, 0)) for layer in tracing.LAYERS]
    rows.append((metrics["runtime.wait_s"], "runtime.wait", samples.get("runtime.wait", 0)))
    print(f"  {'layer':14s} {'self_s':>9s} {'share':>7s} {'samples':>8s}")
    for value, layer, n in sorted(rows, reverse=True):
        if n:
            print(f"  {layer:14s} {value:9.3f} {value / total:7.1%} {n:8d}")
    module_seconds = tracer.module_seconds + workers.module_seconds
    top = ", ".join(f"{m} {v / total:.1%}" for m, v in module_seconds.most_common(12))
    print(f"  modules: {top}")
    for name, unit in PER_LAYER.items():
        if not name.endswith(".self_s"):
            print(f"  {name:24s} {metrics[name]:>16,.6g} {unit}")
    print(f"  spans written to {spans_path.relative_to(ROOT)}")
    return metrics


def write_pins(bench: Bench) -> int:
    w = bench.workload
    text, result = w.run(bench.new_store())
    join_workers()
    outcome = w.outcome(text, result)
    if outcome.problems:
        print(f"not pinned: {outcome.problems}", file=sys.stderr)
        return 1
    pins = load_pins()
    pins.setdefault(bench.name, {})[str(bench.seed)] = outcome.facts
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(outcome.facts)} facts of {bench.name} seed={bench.seed}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("beff-des", "beffio", "grid"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measured time of a timed run (at least one cold run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set the workload up, print 'ready' and exit")
    parser.add_argument("--write-pins", action="store_true",
                        help="run once and pin its outputs for --seed in pins.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench" / str(os.getpid())
    if args.setup_probe:
        Bench(args.workload, args.seed, workdir).new_store()
        print("ready", flush=True)
        return 0
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, workdir)
        if args.write_pins:
            return write_pins(bench)
        if args.trace:
            metrics = traced(bench)
        else:
            cores = sorted(os.sched_getaffinity(0))
            bench.speed = hostspeed.HostSpeed(
                cores if bench.workload.processes > 1 else None)
            bench.speed.start()
            try:
                metrics = timed(bench, args.seconds)
            finally:
                bench.speed.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempts = bench.attempts
    for message in attempts.messages:
        print(f"FAILED {message}")
    units = PER_LAYER if args.trace else END_TO_END
    failed_frac = attempts.failed / attempts.attempted if attempts.attempted else 1.0
    if not args.trace:
        for name, unit in units.items():
            print(f"  {name:12s} {metrics[name]:12.6g} {unit}")
    print(f"  {'failed_frac':12s} {failed_frac:12.6g} ratio "
          f"({attempts.failed} of {attempts.attempted} operations)")
    print(json.dumps({
        "correct": attempts.failed == 0 and attempts.attempted > 0,
        "attempted": max(1, attempts.attempted),
        "failed": attempts.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
