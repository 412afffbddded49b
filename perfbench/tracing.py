"""Per-layer attribution for the traced run, from outside the program.

Three instruments, none of which touches ``src/``:

* a ``signal.setitimer(ITIMER_REAL)`` stack sampler that charges each
  sample to the layer of its innermost ``repro.*`` frame.  A sampler
  is needed because ``FlowNetwork._flush`` runs as a tail-lane
  callback from ``Simulator.step``: no public call separates ``fluid``
  from ``sim``, so a span could not split them;
* counting wrappers on public methods, plus reads of public counter
  attributes of the instances those wrappers saw being constructed;
* ``perf_counter`` spans around a few public methods, kept in memory
  with parent links and written out when the run ends.

Pool workers forked by ``run_grid`` inherit the wrappers; a
``multiprocessing`` after-fork hook restarts the sampler in each
worker and a finalizer dumps the worker's share to a file the parent
merges.
"""

from __future__ import annotations

import collections
import json
import multiprocessing.util
import os
import pathlib
import signal
import time

#: seconds between samples
INTERVAL = 0.005

#: repro subpackages that own a self-time bucket; frames of any other
#: repro module (util, faults, ...) are charged to their caller's layer
_BUCKETS = frozenset({
    "sim", "mpi", "net", "topology", "pfs", "mpiio", "beff", "beffio",
    "runtime", "scenarios", "machines", "reporting",
})
_SIM_SPLIT = {"fluid": "fluid", "kernel": "kernel"}
#: stdlib modules whose frames mean the interrupted code was blocked
_BLOCKING = frozenset({"threading", "concurrent", "multiprocessing", "selectors", "queue"})

#: every bucket the ledger can report, in report order
LAYERS = (
    "sim", "fluid", "kernel", "mpi", "net", "topology", "pfs", "mpiio",
    "beff", "beffio", "runtime", "scenarios", "machines", "reporting", "other",
)


def _layer_of(module: str) -> str | None:
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2 or parts[1] not in _BUCKETS:
        return None
    if parts[1] == "sim" and len(parts) > 2:
        return _SIM_SPLIT.get(parts[2], "sim")
    return parts[1]


class Tracer:
    """Wrappers, spans and the sampler of one traced run."""

    def __init__(self, workdir: pathlib.Path) -> None:
        self.workdir = workdir
        self.active = False
        self._patches: list[tuple[type, str, object]] = []
        self._layer_cache: dict[str, str | None] = {}
        # wrappers close over these containers, so they are cleared in
        # place (never rebound) when a forked worker starts afresh
        self.counts: collections.Counter[str] = collections.Counter()
        #: layer -> samples and the seconds they stand for; "runtime.wait"
        #: holds samples blocked in the pool
        self.samples: collections.Counter[str] = collections.Counter()
        self.seconds: collections.Counter[str] = collections.Counter()
        #: innermost repro module -> seconds (the ledger's detail rows)
        self.module_seconds: collections.Counter[str] = collections.Counter()
        self._last = 0.0
        #: [name, parent index or -1, start, end]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.instances: dict[str, list] = collections.defaultdict(list)
        self.route_pairs: set[tuple[int, int]] = set()

    def _clear(self) -> None:
        for container in (self.counts, self.samples, self.seconds, self.module_seconds,
                          self.spans, self._open, self.route_pairs,
                          *self.instances.values()):
            container.clear()

    # -- sampler ---------------------------------------------------------

    def _sample(self, _signum, frame) -> None:
        # a sample stands for the time since the previous one: a long
        # native call delays the signal, and the expirations it swallows
        # belong to the frame that made the call
        now = time.perf_counter()
        elapsed, self._last = now - self._last, now
        blocked = frame is not None and (
            frame.f_globals.get("__name__", "").split(".")[0] in _BLOCKING
        )
        cache = self._layer_cache
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            layer = cache.get(module, "?")
            if layer == "?":
                layer = cache[module] = _layer_of(module)
            if layer is not None:
                self.module_seconds[module] += elapsed
                bucket = f"{layer}.wait" if blocked else layer
                break
            frame = frame.f_back
        else:
            bucket = "other"
        self.samples[bucket] += 1
        self.seconds[bucket] += elapsed

    def start_sampler(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop_sampler(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    # -- wrappers --------------------------------------------------------

    def _patch(self, owner: type, attr: str, make) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def count(self, owner: type, attr: str, key: str) -> None:
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted
        self._patch(owner, attr, make)

    def collect(self, owner: type, key: str, span: str | None = None) -> None:
        """Remember every instance of ``owner`` built while installed."""
        instances = self.instances[key]

        def make(init):
            def collecting(obj, *args, **kwargs):
                instances.append(obj)
                if span is None:
                    return init(obj, *args, **kwargs)
                with self.span(span):
                    return init(obj, *args, **kwargs)
            return collecting
        self._patch(owner, "__init__", make)

    def spanned(self, owner: type, attr: str, name: str) -> None:
        def make(fn):
            def timed(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
            return timed
        self._patch(owner, attr, make)

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def install(self) -> None:
        """Wrap the public boundaries of every layer (see NOTES.md)."""
        import repro.machines  # noqa: F401  (imports every Topology subclass)
        from repro.beff.analytic import RoundModel
        from repro.beff.fastforward import FastForwardSession
        from repro.machines.spec import MachineSpec
        from repro.mpi.core import Endpoint
        from repro.mpiio.file import IOFile
        from repro.net.model import Fabric
        from repro.pfs.filesystem import FileSystem
        from repro.pfs.server import IOServer
        from repro.runtime.store import RunStore
        from repro.scenarios.grammar import CommScenario, IOScenario
        from repro.sim.engine import Simulator
        from repro.sim.fluid import FlowNetwork
        from repro.sim.kernel import RouteIncidence
        from repro.topology.base import Topology

        for method in ("schedule", "schedule_at", "schedule_abs", "schedule_tail"):
            self.count(Simulator, method, "sim.events")
        self.collect(FlowNetwork, "flows")
        self.count(RouteIncidence, "solve", "kernel.solves")
        self.count(Endpoint, "isend", "mpi.messages")
        self.count(Fabric, "route", "net.route_lookups")
        self.collect(Fabric, "fabrics", span="machines.build")
        for topo in _concrete(Topology):
            if "route" in topo.__dict__:
                self._patch(topo, "route", self._route_counter)
            if "__init__" in topo.__dict__:
                self.spanned(topo, "__init__", "machines.build")
        self.count(IOServer, "submit", "pfs.requests")
        self.collect(FileSystem, "filesystems")
        for method in ("write", "read", "write_at", "read_at", "write_shared",
                       "read_shared", "write_all", "read_all", "write_ordered",
                       "read_ordered"):
            self.count(IOFile, method, "mpiio.calls")
        self.spanned(RoundModel, "round_time", "beff.analytic")
        self.collect(FastForwardSession, "ff_sessions")
        self._patch(MachineSpec, "run_beffio", self._reps_counter)
        self.collect(RunStore, "stores")
        self.spanned(RunStore, "get", "runtime.store_get")
        self.spanned(RunStore, "put", "runtime.store_put")
        self.spanned(CommScenario, "compile", "scenarios.compile")
        self.spanned(IOScenario, "compile", "scenarios.compile")
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _route_counter(self, fn):
        counts, pairs = self.counts, self.route_pairs

        def counted(topo, src, dst):
            counts["topology.routes"] += 1
            pairs.add((src, dst))
            return fn(topo, src, dst)
        return counted

    def _reps_counter(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["beffio.reps"] += sum(r.reps for r in result.pattern_runs)
            return result
        return counted

    # -- pool workers ----------------------------------------------------

    def _after_fork(self) -> None:
        if not self.active:
            return
        self._clear()
        self.start_sampler()
        multiprocessing.util.Finalize(None, self._dump_worker, exitpriority=100)

    def _dump_worker(self) -> None:
        self.stop_sampler()
        payload = {
            "counts": self.harvest(),
            "samples": dict(self.samples),
            "seconds": dict(self.seconds),
            "module_seconds": dict(self.module_seconds),
            "span_s": self.span_totals(),
            "route_pairs": sorted(self.route_pairs),
        }
        path = self.workdir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(payload))

    def merge_workers(self) -> "WorkerShare":
        """Read back and delete every dumped worker share."""
        share = WorkerShare()
        for path in sorted(self.workdir.glob("worker-*.json")):
            payload = json.loads(path.read_text())
            share.processes += 1
            share.counts.update(payload["counts"])
            share.samples.update(payload["samples"])
            share.seconds.update(payload["seconds"])
            share.module_seconds.update(payload["module_seconds"])
            share.span_s.update(payload["span_s"])
            share.route_pairs.update(map(tuple, payload["route_pairs"]))
            path.unlink()
        return share

    # -- results ---------------------------------------------------------

    def harvest(self) -> dict[str, int]:
        """Wrapper counts plus the public counters of collected instances."""
        counts = dict(self.counts)
        flows = self.instances["flows"]
        counts["fluid.flows"] = sum(f.flows_completed for f in flows)
        counts["fluid.allocations"] = sum(f.allocations for f in flows)
        counts["fluid.flows_solved"] = sum(f.flows_solved for f in flows)
        fabrics = self.instances["fabrics"]
        counts["net.messages"] = sum(f.messages_sent for f in fabrics)
        counts["net.bytes"] = sum(f.bytes_sent for f in fabrics)
        counts["pfs.disk_bytes"] = sum(
            fs.bytes_to_disk + fs.bytes_from_disk for fs in self.instances["filesystems"]
        )
        sessions = self.instances["ff_sessions"]
        counts["beff.ff_loops_armed"] = sum(s.loops_armed for s in sessions)
        counts["beff.ff_reps_skipped"] = sum(s.reps_skipped for s in sessions)
        stores = self.instances["stores"]
        counts["runtime.store_hits"] = sum(s.stats.hits for s in stores)
        counts["runtime.store_misses"] = sum(s.stats.misses for s in stores)
        counts["runtime.store_puts"] = sum(s.stats.puts for s in stores)
        return counts

    def span_totals(self) -> dict[str, float]:
        """Inclusive seconds per span name, outermost spans of a name only."""
        spans = self.spans
        totals: collections.Counter[str] = collections.Counter()
        for name, parent, start, end in spans:
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][1]
            if parent < 0:
                totals[name] += end - start
        return dict(totals)

    def write_spans(self, path: pathlib.Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")


class WorkerShare:
    """What the forked pool workers of one traced run measured."""

    def __init__(self) -> None:
        self.processes = 0
        self.counts: collections.Counter[str] = collections.Counter()
        self.samples: collections.Counter[str] = collections.Counter()
        self.seconds: collections.Counter[str] = collections.Counter()
        self.module_seconds: collections.Counter[str] = collections.Counter()
        self.span_s: collections.Counter[str] = collections.Counter()
        self.route_pairs: set[tuple[int, int]] = set()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, t._open[-1] if t._open else -1, time.perf_counter(), 0.0])
        t._open.append(self.index)

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.spans[self.index][3] = time.perf_counter()
        t._open.pop()


def _concrete(base: type) -> list[type]:
    found, todo = [], list(base.__subclasses__())
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(set(found), key=lambda c: (c.__module__, c.__qualname__))
