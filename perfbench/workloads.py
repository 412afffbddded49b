"""The benchmark's three workloads, driven through the CLIs' public calls.

Each workload is built by its constructor (the measured set-up:
imports, configuration, machine construction and, for ``grid``,
cost-model calibration and grid expansion) and executed by ``run``,
which does what the CLI does including formatting its output and
returns ``(text, result)``.  ``outcome`` then derives, outside the
timed region, the facts the pins compare (``float.hex`` values and
SHA-256 digests of printed text and grid-cell envelopes).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.beff import MeasurementConfig
from repro.beff.benchmark import run_beff
from repro.beffio import BeffIOConfig
from repro.machines import MACHINES, get_machine
from repro.reporting import beff_protocol, beffio_summary
from repro.runtime import scheduler
from repro.runtime.envelope import ResultEnvelope, envelope_for
from repro.runtime.spec import run_spec
from repro.runtime.store import canonical_envelope_text
from repro.sim.randomness import RandomStreams
from repro.util import MB

#: pool workers of the grid workload (``--jobs 2``)
GRID_JOBS = 2


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclasses.dataclass
class Outcome:
    """What one run's outputs say, computed after its timed region."""

    #: pin key -> float.hex or sha256
    facts: dict[str, str]
    #: (spec, envelope) of every cell a warm store should serve
    cells: list
    #: (operation, message) of every failed invariant
    problems: list[tuple[str, str]]


def _validity_line(validity) -> str:
    return "" if validity.ok else f"validity: {validity.describe()}\n"


def _validity_problems(validity) -> list[tuple[str, str]]:
    return [] if validity.ok else [("run", f"validity {validity.describe()}")]


class BeffDes:
    """``repro-beff --machine t3e --procs 16 --backend des`` (fast mode)."""

    name = "beff-des"
    ops_per_run = 1
    processes = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.spec = get_machine("t3e")
        self.config = MeasurementConfig(
            methods=("sendrecv", "nonblocking", "alltoallv"), backend="des"
        )

    def run(self, store):
        # MachineSpec.run_beff's body, plus the seeded random placements
        spec = self.spec
        result = run_beff(
            spec.fabric_factory(16), spec.memory_per_proc, self.config,
            streams=RandomStreams(self.seed), int_bits=spec.int_bits,
        )
        text = (
            _validity_line(result.validity)
            + beff_protocol(result, max_rows=24)
            + f"\n({len(result.records)} records total; --full-protocol to see all)\n"
        )
        return text, result

    def outcome(self, text, result) -> Outcome:
        facts = {
            key: float(getattr(result, key)).hex()
            for key in ("b_eff", "b_eff_at_lmax", "ring_only_at_lmax",
                        "logavg_ring", "logavg_random")
        }
        facts["text"] = digest(text)
        cell = run_spec("b_eff", "t3e", 16, self.config)
        return Outcome(facts, [(cell, envelope_for(result, machine="t3e"))],
                       _validity_problems(result.validity))


class Beffio:
    """``repro-beffio --machine sp --procs 16 --T 30`` (fast mode, types 0-4)."""

    name = "beffio"
    ops_per_run = 1
    processes = 1

    def __init__(self, seed: int) -> None:
        self.spec = get_machine("sp")
        self.config = BeffIOConfig(
            T=30.0, pattern_types=(0, 1, 2, 3, 4), termination="per-iteration",
            mode="fast", random_seed=seed,
        )

    def run(self, store):
        result = self.spec.run_beffio(16, self.config)
        return _validity_line(result.validity) + beffio_summary(result) + "\n", result

    def outcome(self, text, result) -> Outcome:
        facts = {"b_eff_io": float(result.b_eff_io).hex(), "text": digest(text)}
        for method, value in sorted(result.method_values.items()):
            facts[f"method:{method}"] = float(value).hex()
        cell = run_spec("b_eff_io", "sp", 16, self.config)
        return Outcome(facts, [(cell, envelope_for(result, machine="sp"))],
                       _validity_problems(result.validity))


class Grid:
    """``repro sweep-grid --machines all --benchmarks b_eff,b_eff_io
    --partitions 8,32 --jobs 2`` into the given store."""

    name = "grid"
    processes = GRID_JOBS

    def __init__(self, seed: int) -> None:
        configs = {
            "b_eff": MeasurementConfig(backend="analytic"),
            "b_eff_io": BeffIOConfig(T=2.0, pattern_types=(0,), random_seed=seed),
        }
        self.specs = scheduler.expand_grid(
            sorted(MACHINES), ["b_eff", "b_eff_io"], [8, 32], configs=configs
        )
        # relative on purpose, as in the CLI: the benchmark runs from the
        # checkout root
        self.cost_model = scheduler.CostModel.calibrate("benchmarks/results")
        self.ops_per_run = len(self.specs)

    def run(self, store):
        return serve(self.specs, store, self.cost_model)

    def outcome(self, text, grid) -> Outcome:
        facts = {f"cell:{cell_key(c.spec)}": digest(canonical_envelope_text(c.envelope))
                 for c in grid.cells}
        facts["text"] = digest(text)
        problems = grid_problems(grid, len(self.specs), "fresh")
        return Outcome(facts, [(c.spec, c.envelope) for c in grid.cells], problems)


def cell_key(spec) -> str:
    return f"{spec.benchmark}:{spec.machine}:{spec.nprocs}"


def serve(specs, store, cost_model=None):
    """``run_grid`` over ``specs`` plus the CLI's listing of the cells."""
    grid = scheduler.run_grid(
        specs, jobs=GRID_JOBS, store=store, policy="dynamic", cost_model=cost_model,
    )
    lines = []
    for cell in grid.cells:
        value = cell.envelope.values.get("b_eff", cell.envelope.values.get("b_eff_io"))
        shown = f"{value / MB:10.2f} MB/s" if value is not None else "?"
        lines.append(f"{cell.spec.benchmark:9s} {cell.spec.machine:12s} "
                     f"{cell.spec.nprocs:6d} procs  {shown}  [{cell.source}]")
    lines.append(f"grid: {grid.describe()}")
    return "\n".join(lines) + "\n", grid


def grid_problems(grid, expected_cells: int, source: str) -> list[tuple[str, str]]:
    """Poisoned, non-valid, missing, or served from the wrong place."""
    problems = [(cell_key(r), f"poisoned: {r.describe()}") for r in grid.poisoned]
    if not grid.validity.ok:
        problems.append(("grid", f"validity {grid.validity.describe()}"))
    if len(grid.cells) != expected_cells:
        problems.append(("grid", f"{len(grid.cells)} of {expected_cells} cells"))
    problems += [(cell_key(c.spec), f"source {c.source!r}, expected {source!r}")
                 for c in grid.cells if c.source != source]
    return problems


def reloaded(cells) -> dict[str, object]:
    """Each cell's envelope as a store round trip must return it."""
    return {
        cell_key(spec): ResultEnvelope.from_dict(json.loads(canonical_envelope_text(env)))
        for spec, env in cells
    }


def warm_problems(grid, expected: dict[str, object]) -> list[tuple[str, str]]:
    """A warm pass serves every cell from the store, equal to its cold run."""
    problems = grid_problems(grid, len(expected), "cache")
    problems += [(cell_key(c.spec), "warm envelope differs from the cold one")
                 for c in grid.cells if c.envelope != expected.get(cell_key(c.spec))]
    return problems


WORKLOADS = {w.name: w for w in (BeffDes, Beffio, Grid)}
