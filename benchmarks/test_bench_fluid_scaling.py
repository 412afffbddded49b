"""Fluid-engine scaling: incremental vs. reference wall-clock + fidelity.

The perf-regression harness for the fluid max-min engines.  Four
measurement families, all committed to
``benchmarks/results/BENCH_fluid.json`` so future PRs can't silently
regress them (``benchmarks/check_regression.py`` gates the speedups):

* **rounds** — one DES round of the densest random pattern in both
  engine modes at 16-128 procs; the incremental path must stay >= 5x
  at 128 with bit-identical virtual timing.
* **headline** — the same 128-proc random round priced across all 21
  message sizes: the vectorized plan path (CSR incidence +
  size-independent phase plans, ``repro.beff.analytic``) vs. the
  incremental DES engine round by round; must be >= 10x.
* **ff** — a paper-fidelity timed repetition loop (ring pattern,
  looplength 300) with and without the b_eff orbit fast-forward
  (``repro.beff.fastforward``); the measured loop time must be
  ``float.hex``-identical and the wall clock several times faster.
* **large** — 4k/16k/65k-rank torus entries through the vectorized
  plan path (pure DES is event-bound far earlier; see
  ``docs/performance.md``).  Opt-in via ``REPRO_BENCH_LARGE=4k|all``
  because the biggest entries cost minutes: the regular CI smoke
  skips them, the large-rank CI job runs the ``4k`` level, and the
  committed baseline is recorded with ``all``.

Wall-clock budgets here are deliberately loose (CI machines vary) but
real: the reference round at 128 procs costs seconds, the incremental
round must stay well under two.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from benchmarks._harness import once, record, record_json
from repro.beff import MeasurementConfig, run_beff
from repro.beff.analytic import RoundModel
from repro.beff.fastforward import FastForwardSession
from repro.beff.methods import step
from repro.beff.patterns import random_patterns, ring_patterns
from repro.beff.sizes import message_sizes
from repro.mpi.comm import World
from repro.net.model import Fabric, NetParams
from repro.sim.engine import Simulator
from repro.sim.fluid import Flow
from repro.sim.kernel import RouteIncidence
from repro.sim.process import SleepUntil
from repro.topology import Torus
from repro.util import MB

#: target of the ISSUE's acceptance criterion
REQUIRED_SPEEDUP = 5.0
#: the vectorized plan path must price the 128-proc random round this
#: much faster than the incremental DES engine (21-size sweep)
REQUIRED_FAST_SPEEDUP = 10.0
#: wall-clock floor for the orbit fast-forward on the paper-fidelity
#: timed loop (measured ~8x here; the loop re-proves the orbit after
#: every binade crossing, so ~log2(looplength) windows stay live)
REQUIRED_FF_SPEEDUP = 3.0
#: wall-clock budget for the incremental 128-proc round (CI smoke)
INCREMENTAL_BUDGET_S = 1.5

#: torus shapes per process count (T3E-like 3D torus, 300 MB/s links)
SHAPES = {
    16: (4, 2, 2),
    32: (4, 4, 2),
    64: (4, 4, 4),
    128: (8, 4, 4),
    4096: (16, 16, 16),
    16384: (32, 16, 32),
    65536: (32, 32, 64),
}
#: process counts for the reference-vs-incremental DES rounds (the
#: reference oracle is event-bound well before the large shapes)
ROUND_PROCS = (16, 32, 64, 128)
#: process count for the full-benchmark fidelity check (all 3 methods,
#: all 21 sizes; kept small so the reference oracle run stays CI-sized)
BEFF_PROCS = 16
#: paper-fidelity looplength for the fast-forward entry
FF_LOOPLENGTH = 300


def _make_fabric(nprocs: int, mode: str) -> Fabric:
    sim = Simulator()
    return Fabric(
        sim,
        Torus(SHAPES[nprocs], link_bw=300 * MB),
        NetParams(latency=10e-6),
        fluid_mode=mode,
    )


@dataclass
class RoundResult:
    wall_s: float
    virtual_s: float
    allocations: int
    flows_completed: int


def _time_round(nprocs: int, mode: str, nbytes: int = MB) -> RoundResult:
    """One DES round of the densest random pattern: barrier, all
    processes send to both ring neighbors (nonblocking), barrier."""
    fabric = _make_fabric(nprocs, mode)
    world = World(fabric)
    pattern = random_patterns(nprocs)[5]

    def program(comm):
        yield from comm.barrier()
        yield from step("nonblocking", comm, pattern, nbytes)
        yield from comm.barrier()

    t0 = time.perf_counter()
    world.run(program)
    wall = time.perf_counter() - t0
    return RoundResult(
        wall_s=wall,
        virtual_s=fabric.sim.now,
        allocations=fabric.flows.allocations,
        flows_completed=fabric.flows.flows_completed,
    )


def _headline_sweep(nprocs: int = 128) -> dict:
    """The 128-proc random round priced across all 21 message sizes.

    Incremental DES side: one engine round per size, exactly the
    committed ``rounds`` measurement repeated over the size grid.
    Fast side: a cold :class:`RoundModel` — route resolution, CSR
    incidence build and the capped max-min solve included — then one
    vectorized evaluation per size.  The plans are size-independent,
    so the whole sweep costs one allocation; that is the design the
    speedup assertion pins.
    """
    sizes = message_sizes(128 * MB, 64)  # L_max = 1 MB
    t0 = time.perf_counter()
    for size in sizes:
        _time_round(nprocs, "incremental", nbytes=size)
    incremental_wall = time.perf_counter() - t0

    fabric = _make_fabric(nprocs, "incremental")
    pattern = random_patterns(nprocs)[5]
    t0 = time.perf_counter()
    model = RoundModel(fabric)
    fast_times = [model.round_time(pattern, size, "nonblocking") for size in sizes]
    fast_wall = time.perf_counter() - t0
    return {
        "procs": nprocs,
        "pattern": pattern.name,
        "method": "nonblocking",
        "sizes": len(sizes),
        "incremental_wall_s": round(incremental_wall, 4),
        "fast_wall_s": round(fast_wall, 4),
        "speedup": round(incremental_wall / fast_wall, 2),
        "round_time_at_1mb_s": fast_times[sizes.index(MB)],
    }


def _ff_timed_loop(nprocs: int, use_ff: bool, nbytes: int = MB) -> dict:
    """One paper-fidelity timed repetition loop (ring-1, sendrecv).

    Mirrors ``beff.benchmark._run_des``'s timed loop exactly: barrier,
    clock read, ``looplength`` repetitions (with the orbit
    fast-forward's boundary protocol when ``use_ff``), allreduced
    maximum elapsed time.
    """
    fabric = _make_fabric(nprocs, "incremental")
    world = World(fabric)
    pattern = ring_patterns(nprocs)[0]
    method = "sendrecv"
    ff = FastForwardSession(fabric, nprocs) if use_ff else None
    out: dict = {}

    def program(comm):
        yield from comm.barrier()
        t0 = comm.wtime()
        if ff is None:
            for _ in range(FF_LOOPLENGTH):
                yield from step(method, comm, pattern, nbytes)
        else:
            loop = ff.loop_for((pattern.name, nbytes, method, 0), FF_LOOPLENGTH)
            reps = 0
            while reps < FF_LOOPLENGTH:
                yield from step(method, comm, pattern, nbytes)
                reps += 1
                if reps == FF_LOOPLENGTH:
                    break
                skip = loop.boundary(comm.rank, reps, comm.wtime())
                if skip is not None:
                    target, landing = skip
                    yield SleepUntil(target)
                    reps = landing
            loop.finish()
        local = comm.wtime() - t0
        elapsed = yield from comm.allreduce(8, local, max)
        if comm.rank == 0:
            out["elapsed"] = elapsed

    t0 = time.perf_counter()
    world.run(program)
    out["wall_s"] = time.perf_counter() - t0
    out["loops_armed"] = ff.loops_armed if ff else 0
    out["reps_skipped"] = ff.reps_skipped if ff else 0
    return out


def _ff_entry(nprocs: int = 128) -> dict:
    fast = _ff_timed_loop(nprocs, use_ff=True)
    ref = _ff_timed_loop(nprocs, use_ff=False)
    return {
        "procs": nprocs,
        "pattern": "ring-1",
        "method": "sendrecv",
        "looplength": FF_LOOPLENGTH,
        "fast_wall_s": round(fast["wall_s"], 4),
        "reference_wall_s": round(ref["wall_s"], 4),
        "speedup": round(ref["wall_s"] / fast["wall_s"], 2),
        "loops_armed": fast["loops_armed"],
        "reps_skipped": fast["reps_skipped"],
        "bit_identical": fast["elapsed"].hex() == ref["elapsed"].hex(),
        "loop_time_s": ref["elapsed"],
    }


def _analytic_round_sweep(nprocs: int) -> dict:
    """All 21 sizes of the densest random pattern via the plan path."""
    fabric = _make_fabric(nprocs, "incremental")
    pattern = random_patterns(nprocs)[5]
    sizes = message_sizes(128 * MB, 64)  # L_max = 1 MB
    t0 = time.perf_counter()
    model = RoundModel(fabric)
    times = [model.round_time(pattern, s, "nonblocking") for s in sizes]
    wall = time.perf_counter() - t0
    return {
        "kind": "analytic-round-sweep",
        "procs": nprocs,
        "pattern": pattern.name,
        "sizes": len(sizes),
        "wall_s": round(wall, 2),
        "round_time_at_1mb_s": times[sizes.index(MB)],
    }


def _analytic_full_matrix(nprocs: int) -> dict:
    """The full 12-pattern x 21-size x 3-method b_eff table, analytic."""
    t0 = time.perf_counter()
    result = run_beff(
        lambda: _make_fabric(nprocs, "incremental"),
        memory_per_proc=16 * MB,
        config=MeasurementConfig(backend="analytic"),
    )
    wall = time.perf_counter() - t0
    return {
        "kind": "analytic-full-matrix",
        "procs": nprocs,
        "wall_s": round(wall, 2),
        "b_eff_MBps": result.b_eff / MB,
        "b_eff_per_proc_MBps": result.b_eff_per_proc / MB,
        "engine_mode": result.engine_mode,
    }


def _kernel_solve_entry(nprocs: int) -> dict:
    """Raw CSR kernel at full-machine scale: one max-min solve of the
    densest random pattern's 2n flows (the unit of work every plan and
    every large DES component dispatches to)."""
    fabric = _make_fabric(nprocs, "incremental")
    pattern = random_patterns(nprocs)[5]
    pairs = []
    for ring in pattern.rings:
        k = len(ring)
        for i, rank in enumerate(ring):
            pairs.append((rank, ring[(i - 1) % k]))
            pairs.append((rank, ring[(i + 1) % k]))
    t0 = time.perf_counter()
    routes = [fabric.topology.route(s, d).links for s, d in pairs]
    route_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    incidence = RouteIncidence(routes)
    caps = np.asarray(
        [fabric.flows.link(link).capacity for link in incidence.link_ids],
        dtype=np.float64,
    )
    rates = incidence.solve(caps)
    solve_wall = time.perf_counter() - t0
    return {
        "kind": "kernel-solve",
        "procs": nprocs,
        "flows": incidence.n_flows,
        "links": incidence.n_links,
        "nnz": int(len(incidence.flow_cols)),
        "route_wall_s": round(route_wall, 2),
        "solve_wall_s": round(solve_wall, 2),
        "min_rate_MBps": float(rates.min()) / MB,
    }


def _flow_alloc_rate(cls, n: int = 200_000) -> float:
    """Instantiations per second of a Flow-like class (slots win probe)."""
    t0 = time.perf_counter()
    for i in range(n):
        cls(
            flow_id=i,
            route=(0, 1, 2),
            remaining=1.0,
            total_bytes=1.0,
            event=None,
        )
    return n / (time.perf_counter() - t0)


class _DictFlow:
    """The pre-__slots__ layout, kept only to quantify the slots win."""

    def __init__(self, flow_id, route, remaining, total_bytes, event):
        self.flow_id = flow_id
        self.route = route
        self.remaining = remaining
        self.total_bytes = total_bytes
        self.event = event
        self.rate = 0.0
        self.finish_time = math.inf
        self.cap = None
        self.key_route = ()
        self.meta = None


def _large_entries(level: str) -> list[dict]:
    """The 4k-65k entries; ``level`` is ``""``, ``"4k"`` or ``"all"``."""
    if not level:
        return []
    entries = [_analytic_round_sweep(4096)]
    if level == "all":
        entries.append(_analytic_full_matrix(4096))
        entries.append(_analytic_round_sweep(16384))
        entries.append(_kernel_solve_entry(65536))
    return entries


def run_fluid_scaling() -> dict:
    payload: dict = {"rounds": [], "beff": {}, "flow_alloc": {}}

    for nprocs in ROUND_PROCS:
        ref = _time_round(nprocs, "reference")
        inc = _time_round(nprocs, "incremental")
        assert inc.flows_completed == ref.flows_completed
        assert inc.virtual_s == pytest.approx(ref.virtual_s, rel=1e-9)
        payload["rounds"].append(
            {
                "procs": nprocs,
                "reference_wall_s": round(ref.wall_s, 4),
                "incremental_wall_s": round(inc.wall_s, 4),
                "speedup": round(ref.wall_s / inc.wall_s, 2),
                "virtual_round_s": ref.virtual_s,
                "reference_allocations": ref.allocations,
                "incremental_allocations": inc.allocations,
            }
        )

    # full-benchmark fidelity: b_eff aggregates must match the oracle
    config = MeasurementConfig()
    results = {
        mode: run_beff(
            lambda mode=mode: _make_fabric(BEFF_PROCS, mode),
            memory_per_proc=16 * MB,
            config=config,
        )
        for mode in ("reference", "incremental")
    }
    ref_res, inc_res = results["reference"], results["incremental"]
    for field in ("b_eff", "b_eff_at_lmax", "logavg_ring", "logavg_random"):
        r, i = getattr(ref_res, field), getattr(inc_res, field)
        assert i == pytest.approx(r, rel=1e-9), field
    for name, r in ref_res.per_pattern.items():
        assert inc_res.per_pattern[name] == pytest.approx(r, rel=1e-9), name
    payload["beff"] = {
        "procs": BEFF_PROCS,
        "b_eff_reference_MBps": ref_res.b_eff / MB,
        "b_eff_incremental_MBps": inc_res.b_eff / MB,
        "logavg_ring_MBps": inc_res.logavg_ring / MB,
        "logavg_random_MBps": inc_res.logavg_random / MB,
        "max_rel_err": max(
            abs(inc_res.per_pattern[k] - v) / v for k, v in ref_res.per_pattern.items()
        ),
    }

    payload["flow_alloc"] = {
        "slotted_per_s": round(_flow_alloc_rate(Flow)),
        "dict_based_per_s": round(_flow_alloc_rate(_DictFlow)),
    }
    payload["flow_alloc"]["slots_speedup"] = round(
        payload["flow_alloc"]["slotted_per_s"] / payload["flow_alloc"]["dict_based_per_s"], 2
    )

    payload["headline"] = _headline_sweep()
    payload["ff"] = _ff_entry()
    large = _large_entries(os.environ.get("REPRO_BENCH_LARGE", ""))
    if large:
        payload["large"] = large
    return payload


@pytest.mark.benchmark(group="fluid-scaling")
def test_fluid_scaling(benchmark):
    payload = once(benchmark, run_fluid_scaling)
    record_json("BENCH_fluid", payload)
    lines = [
        f"{'procs':>6s} {'reference':>12s} {'incremental':>12s} {'speedup':>8s}"
    ]
    for row in payload["rounds"]:
        lines.append(
            f"{row['procs']:6d} {row['reference_wall_s']:11.3f}s"
            f" {row['incremental_wall_s']:11.3f}s {row['speedup']:7.1f}x"
        )
    lines.append(
        f"b_eff({BEFF_PROCS}, DES) ref vs inc: {payload['beff']['b_eff_reference_MBps']:.3f}"
        f" / {payload['beff']['b_eff_incremental_MBps']:.3f} MB/s"
        f" (max pattern rel err {payload['beff']['max_rel_err']:.2e})"
    )
    lines.append(
        f"Flow alloc: {payload['flow_alloc']['slotted_per_s']:,} /s slotted vs"
        f" {payload['flow_alloc']['dict_based_per_s']:,} /s dict"
        f" ({payload['flow_alloc']['slots_speedup']}x)"
    )
    head = payload["headline"]
    lines.append(
        f"headline({head['procs']}, {head['sizes']} sizes): incremental"
        f" {head['incremental_wall_s']:.2f}s vs plan {head['fast_wall_s']:.3f}s"
        f" ({head['speedup']}x)"
    )
    ff = payload["ff"]
    lines.append(
        f"ff({ff['procs']}, {ff['pattern']}/{ff['method']} x{ff['looplength']}):"
        f" {ff['reference_wall_s']:.2f}s -> {ff['fast_wall_s']:.2f}s"
        f" ({ff['speedup']}x, {ff['reps_skipped']} reps skipped,"
        f" bit_identical={ff['bit_identical']})"
    )
    for entry in payload.get("large", []):
        lines.append(f"large: {entry}")
    record("fluid_scaling", "\n".join(lines))

    big = next(r for r in payload["rounds"] if r["procs"] == 128)
    # the ISSUE's acceptance bar: >= 5x at 128 procs, identical results
    assert big["speedup"] >= REQUIRED_SPEEDUP, big
    # wall-clock budget: perf regressions in the incremental path fail here
    assert big["incremental_wall_s"] <= INCREMENTAL_BUDGET_S, big
    # batching must collapse the per-start allocations by an order of magnitude
    assert big["incremental_allocations"] * 10 <= big["reference_allocations"], big
    # slotted Flow must not allocate meaningfully slower than the
    # dict-based layout (small margin: the probe is timer-noise prone)
    assert payload["flow_alloc"]["slots_speedup"] >= 0.9
    # the vectorized plan path must beat the incremental engine >= 10x
    # on the 128-proc random-round headline (21-size sweep)
    assert head["speedup"] >= REQUIRED_FAST_SPEEDUP, head
    # the orbit fast-forward must arm, skip most repetitions, keep the
    # measured loop time float.hex-identical, and win wall-clock
    assert ff["loops_armed"] > 0 and ff["bit_identical"], ff
    assert ff["reps_skipped"] >= FF_LOOPLENGTH // 2, ff
    assert ff["speedup"] >= REQUIRED_FF_SPEEDUP, ff
