"""Typed run specifications and the unified config fingerprint.

A :class:`RunSpec` names one benchmark run completely: which
benchmark, which library machine, how many processes, and the full
engine configuration (which carries the engine mode and any fault
plan).  Its fingerprint — and the sweep-level
:func:`sweep_fingerprint` the journal pins — hashes the engine mode
and the fault-plan seed *explicitly* on top of the flattened config,
so resuming a journal under changed ``--mode``/``--backend`` or a
different ``--faults`` seed is rejected instead of silently mixing
results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Union

if TYPE_CHECKING:
    from repro.beff.benchmark import BeffResult
    from repro.beff.measurement import MeasurementConfig
    from repro.beffio.benchmark import BeffIOConfig, BeffIOResult

    #: either benchmark's engine configuration
    BenchmarkConfig = Union[MeasurementConfig, BeffIOConfig]
else:  # the config classes import lazily (they live above this layer)
    BenchmarkConfig = Any

#: the benchmarks the runtime can drive
BENCHMARKS = ("b_eff", "b_eff_io")


def engine_mode_of(config: "BenchmarkConfig") -> str:
    """The engine selector of either config.

    For b_eff the DES backend splits by loop engine —
    ``"des-fast"`` (orbit fast-forward, bit-identical by construction)
    vs ``"des-reference"`` — with fault-active configs pinned to
    ``"des-reference"`` because faults force the reference loops at
    run time.  The analytic backend stays ``"analytic"``.
    """
    from repro.beff.measurement import MeasurementConfig
    from repro.beffio.benchmark import BeffIOConfig

    if isinstance(config, MeasurementConfig):
        if config.backend != "des":
            return config.backend
        mode = config.mode if not config.faults else "reference"
        return f"des-{mode}"
    if isinstance(config, BeffIOConfig):
        return config.mode
    raise TypeError(f"unknown benchmark config {type(config).__name__}")


def fault_seed_of(config: "BenchmarkConfig") -> int | None:
    """The fault-plan seed, or None for undisturbed configs."""
    faults = getattr(config, "faults", None)
    return faults.seed if faults is not None else None


def _digest(payload: dict[str, Any]) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _config_dict(config: "BenchmarkConfig") -> dict[str, Any]:
    """The config flattened for hashing.

    ``dataclasses.asdict`` recurses into a nested scenario, so a
    grammar-driven run is content-addressed by its full scenario
    definition; the ``scenario`` key is dropped when None so every
    pre-scenario fingerprint (store entries, journal manifests) stays
    byte-identical.
    """
    d = dataclasses.asdict(config)
    if d.get("scenario") is None:
        d.pop("scenario", None)
    return d


#: sentinel occupying the ``nprocs`` axis in a sweep-level fingerprint
#: ("every partition of this sweep"); real cells always carry an int
SWEEP_AXIS = "*"


def cell_fingerprint(
    benchmark: str, machine: str, nprocs: "int | str", config: "BenchmarkConfig"
) -> str:
    """The one digest scheme for a single benchmark run (a *cell*).

    :meth:`RunSpec.fingerprint`, :func:`sweep_fingerprint`, the sweep
    journal and the :class:`~repro.runtime.store.RunStore` all
    delegate here, so a journal partition, a store entry and a grid
    cell that name the same run share the same key.

    ``dataclasses.asdict`` recurses into a nested
    :class:`~repro.faults.plan.FaultPlan`, so two configs differing
    only in their fault schedule get different fingerprints; the
    engine mode and fault seed are additionally hashed as explicit
    top-level fields (the resume-safety contract, independent of the
    config dataclasses' field layout).
    """
    return _digest(
        {
            "benchmark": benchmark,
            "machine": machine,
            "nprocs": nprocs,
            "engine_mode": engine_mode_of(config),
            "fault_seed": fault_seed_of(config),
            "config": _config_dict(config),
        }
    )


def sweep_fingerprint(benchmark: str, machine: str, config: "BenchmarkConfig") -> str:
    """Stable hash pinning what a sweep journal recorded.

    Delegates to :func:`cell_fingerprint` with the partition axis
    erased (:data:`SWEEP_AXIS`), so the sweep digest and every cell
    digest of that sweep are the same scheme — journal manifests,
    store keys and resume-rejection all share it.
    """
    return cell_fingerprint(benchmark, machine, SWEEP_AXIS, config)


@dataclass(frozen=True)
class RunSpec:
    """One fully-specified benchmark run.

    ``machine`` is a registry key (specs hold environment-factory
    closures, so only the key is picklable and journal-able);
    ``config`` defaults to the benchmark's standard configuration.
    """

    benchmark: str
    machine: str
    nprocs: int
    config: "BenchmarkConfig"

    def __post_init__(self) -> None:
        from repro.beff.measurement import MeasurementConfig
        from repro.beffio.benchmark import BeffIOConfig

        if self.benchmark not in BENCHMARKS:
            raise ValueError(
                f"unknown benchmark {self.benchmark!r} (known: {BENCHMARKS})"
            )
        if self.nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        want = MeasurementConfig if self.benchmark == "b_eff" else BeffIOConfig
        if not isinstance(self.config, want):
            raise TypeError(
                f"{self.benchmark} runs take a {want.__name__}, "
                f"got {type(self.config).__name__}"
            )

    @property
    def engine_mode(self) -> str:
        return engine_mode_of(self.config)

    @property
    def fault_seed(self) -> int | None:
        return fault_seed_of(self.config)

    def fingerprint(self) -> str:
        """Stable hash of the complete run specification.

        This is the content address of the run's result: the sweep
        journal, the :class:`~repro.runtime.store.RunStore` and the
        grid scheduler all key by it (via :func:`cell_fingerprint`).
        """
        return cell_fingerprint(self.benchmark, self.machine, self.nprocs, self.config)

    def run(self, machine: Any = None) -> "BeffResult | BeffIOResult":
        """Execute the run and return the benchmark's result object.

        This is the one place a cell executes: the grid's pool and
        serial paths, the supervisor's workers and in-process sweeps
        all come here.  ``machine`` defaults to the registry entry
        named by :attr:`machine`; a resolved
        :class:`~repro.machines.MachineSpec` (or any object with
        ``run_beff``/``run_beffio``) runs in its place.
        """
        if machine is None:
            from repro.machines import get_machine

            machine = get_machine(self.machine)
        if self.benchmark == "b_eff":
            return machine.run_beff(self.nprocs, self.config)
        return machine.run_beffio(self.nprocs, self.config)

    def envelope(self) -> "Any":
        """Execute the run and wrap the result in a ResultEnvelope."""
        from repro.runtime.envelope import envelope_for

        return envelope_for(self.run(), machine=self.machine)


def run_spec(
    benchmark: str,
    machine: str,
    nprocs: int,
    config: "BenchmarkConfig | None" = None,
) -> RunSpec:
    """Build a :class:`RunSpec`, defaulting the engine configuration."""
    if config is None:
        from repro.beff.measurement import MeasurementConfig
        from repro.beffio.benchmark import BeffIOConfig

        config = MeasurementConfig() if benchmark == "b_eff" else BeffIOConfig()
    return RunSpec(benchmark=benchmark, machine=machine, nprocs=nprocs, config=config)
