"""Golden parity: published aggregates pinned bit-exactly.

``tests/data/golden_parity.json`` records, as ``float.hex`` strings,
the aggregate numbers both benchmarks produced on two library
machines in both engine modes *before* the aggregation formulas moved
onto the shared reduction-tree runtime.  These tests re-run the same
configurations and demand bit-identical output, so any refactor of
the runtime spine (fold order, reducer composition, envelope round
trips) that perturbs a single ULP fails loudly.

The matrix: b_eff on t3e + sr2201 with backend des + analytic, and
b_eff_io on t3e + sp in fast + reference mode, all at 4 processes.
The ``analytic-zoo/`` entries add the analytic b_eff aggregates of
every library machine at 8, 32 and 128 processes, recorded before the
round model's rate caps became pseudo-links (the DES's semantics).
"""

import json
import pathlib

import pytest

from repro.beff.measurement import MeasurementConfig
from repro.beffio.benchmark import BeffIOConfig
from repro.machines import MACHINES

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_parity.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: the b_eff_io configuration the goldens were recorded under
BEFFIO_CONFIG = dict(T=1.0, pattern_types=(0, 1, 2, 3, 4))

NPROCS = 4


def hexf(x):
    return float.hex(x)


@pytest.mark.parametrize(
    "key", sorted(k for k in GOLDEN if k.startswith("beff/"))
)
def test_beff_aggregates_are_bit_identical(key):
    _, machine, backend = key.split("/")
    spec = MACHINES[machine]()
    result = spec.run_beff(NPROCS, MeasurementConfig(backend=backend))
    got = {
        "b_eff": hexf(result.b_eff),
        "b_eff_at_lmax": hexf(result.b_eff_at_lmax),
        "ring_only_at_lmax": hexf(result.ring_only_at_lmax),
        "logavg_ring": hexf(result.logavg_ring),
        "logavg_random": hexf(result.logavg_random),
        "per_pattern": {p: hexf(v) for p, v in result.per_pattern.items()},
    }
    assert got == GOLDEN[key]


@pytest.mark.parametrize(
    "key", sorted(k for k in GOLDEN if k.startswith("beffio/"))
)
def test_beffio_aggregates_are_bit_identical(key):
    _, machine, mode = key.split("/")
    spec = MACHINES[machine]()
    result = spec.run_beffio(NPROCS, BeffIOConfig(mode=mode, **BEFFIO_CONFIG))
    got = {
        "b_eff_io": hexf(result.b_eff_io),
        "method_values": {m: hexf(v) for m, v in result.method_values.items()},
        "type_bandwidths": {
            f"{t.method}/t{t.pattern_type}": hexf(t.bandwidth)
            for t in result.type_results
        },
    }
    assert got == GOLDEN[key]


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_analytic_zoo_aggregates_are_bit_identical(machine):
    spec = MACHINES[machine]()
    for nprocs in (8, 32, 128):
        result = spec.run_beff(nprocs, MeasurementConfig(backend="analytic"))
        got = {
            "b_eff": hexf(result.b_eff),
            "b_eff_at_lmax": hexf(result.b_eff_at_lmax),
            "ring_only_at_lmax": hexf(result.ring_only_at_lmax),
            "logavg_ring": hexf(result.logavg_ring),
            "logavg_random": hexf(result.logavg_random),
        }
        assert got == GOLDEN[f"analytic-zoo/{machine}/{nprocs}"], nprocs
