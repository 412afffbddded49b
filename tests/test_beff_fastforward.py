"""b_eff orbit fast-forward: the fast==reference bit-identity contract.

``MeasurementConfig(mode="fast")`` arms the steady-state repetition
fast-forward for the DES backend's timed loops
(:mod:`repro.beff.fastforward`); ``mode="reference"`` simulates every
repetition event for event.  A skip only ever replaces repetitions it
has *proven* exactly periodic, so the two modes must agree to the
bit — in every per-measurement record and every aggregate — across
all three timing methods, under a shuffled event-tie order, and the
fast path must actually engage (a fast path that never arms would
pass equality vacuously).
"""

from __future__ import annotations

import pytest

from repro.beff import MeasurementConfig, run_beff
from repro.beff.fastforward import MIN_SKIP, CountedLoopFF, FastForwardSession
from repro.devtools.sanitizer import sanitized
from repro.faults.plan import FaultPlan, LinkFault
from repro.net import Fabric, NetParams
from repro.sim import Simulator
from repro.topology import Torus
from repro.util import MB

MEM = 512 * MB
#: long enough repetition loops that orbits provably arm, small
#: enough that the reference run stays test-suite friendly
CONFIG = dict(repetitions=1, max_looplength=48)


def torus_factory(shape):
    def make():
        sim = Simulator()
        return Fabric(sim, Torus(shape, link_bw=300 * MB), NetParams(latency=10e-6))

    return make


def _run(mode, shape=(2, 2, 2), tie_shuffle_seed=None, **over):
    kwargs = {**CONFIG, **over, "mode": mode}
    if tie_shuffle_seed is None:
        return run_beff(torus_factory(shape), MEM, MeasurementConfig(**kwargs))
    with sanitized(record=False, tie_shuffle_seed=tie_shuffle_seed):
        return run_beff(torus_factory(shape), MEM, MeasurementConfig(**kwargs))


@pytest.fixture(scope="module")
def reference_run():
    """The default-shape, all-methods reference run, shared by the tests
    that compare against it (it is the slowest run in this module)."""
    return _run("reference")


def _identical(fast, ref):
    assert len(fast.records) == len(ref.records)
    for a, b in zip(fast.records, ref.records):
        assert (a.pattern, a.size, a.method, a.repetition) == (
            b.pattern,
            b.size,
            b.method,
            b.repetition,
        )
        assert a.looplength == b.looplength
        assert a.time.hex() == b.time.hex()
        assert a.bandwidth.hex() == b.bandwidth.hex()
    for name in (
        "b_eff",
        "b_eff_at_lmax",
        "ring_only_at_lmax",
        "logavg_ring",
        "logavg_random",
    ):
        assert getattr(fast, name).hex() == getattr(ref, name).hex()
    assert fast.per_pattern == ref.per_pattern


class TestFastMatchesReference:
    @pytest.mark.parametrize("method", ["nonblocking", "sendrecv", "alltoallv"])
    def test_bit_identical_per_method_and_ff_engages(self, method):
        fast = _run("fast", methods=(method,))
        ref = _run("reference", methods=(method,))
        _identical(fast, ref)
        assert fast.engine_mode == "des-fast"
        assert ref.engine_mode == "des-reference"
        # vacuous-equality guard: the loops must actually skip work
        assert fast.ff_loops_armed > 0
        assert fast.ff_reps_skipped >= MIN_SKIP * fast.ff_loops_armed
        assert ref.ff_loops_armed == 0 and ref.ff_reps_skipped == 0

    def test_all_methods_together(self, reference_run):
        fast = _run("fast")
        _identical(fast, reference_run)
        assert fast.ff_loops_armed > 0

    def test_bit_identical_under_tie_shuffle(self, reference_run):
        shuffled_fast = _run("fast", tie_shuffle_seed=7)
        _identical(shuffled_fast, reference_run)
        assert shuffled_fast.ff_loops_armed > 0

    def test_multiple_repetitions(self):
        fast = _run("fast", repetitions=3, methods=("sendrecv",))
        ref = _run("reference", repetitions=3, methods=("sendrecv",))
        _identical(fast, ref)


class TestForcingAndPlumbing:
    def test_faults_force_reference_loops(self):
        plan = FaultPlan(
            events=(LinkFault(selector=0, t_start=1e-4, t_end=1e-3, factor=0.5),),
            seed=11,
        )
        res = _run("fast", faults=plan)
        assert res.engine_mode == "des-reference"
        assert res.ff_loops_armed == 0 and res.ff_reps_skipped == 0

    def test_reference_mode_forces_reference(self, reference_run):
        assert reference_run.engine_mode == "des-reference"

    def test_analytic_backend_unaffected(self):
        res = run_beff(
            torus_factory((2, 2, 2)),
            MEM,
            MeasurementConfig(backend="analytic", **CONFIG),
        )
        assert res.engine_mode == "analytic"
        assert res.ff_loops_armed == 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            MeasurementConfig(mode="warp")

    def test_engine_mode_in_spec_fingerprint(self):
        from repro.runtime.spec import engine_mode_of, sweep_fingerprint

        fast_cfg = MeasurementConfig(mode="fast")
        ref_cfg = MeasurementConfig(mode="reference")
        assert engine_mode_of(fast_cfg) == "des-fast"
        assert engine_mode_of(ref_cfg) == "des-reference"
        assert sweep_fingerprint("b_eff", "t3e", fast_cfg) != sweep_fingerprint(
            "b_eff", "t3e", ref_cfg
        )
        # a fault plan pins the effective engine to the reference loops
        plan = FaultPlan(
            events=(LinkFault(selector=0, t_start=1e-4, t_end=1e-3, factor=0.5),),
            seed=3,
        )
        assert engine_mode_of(MeasurementConfig(faults=plan)) == "des-reference"

    def test_engine_mode_survives_envelope_roundtrip(self):
        from repro.runtime.envelope import envelope_for, result_from_envelope

        res = _run("fast", methods=("sendrecv",))
        env = envelope_for(res, machine="t3e")
        assert env.provenance["engine_mode"] == "des-fast"
        rebuilt = result_from_envelope(
            type(env).from_dict(env.to_dict())
        )
        assert rebuilt.engine_mode == "des-fast"
        assert rebuilt.b_eff.hex() == res.b_eff.hex()


class TestLoopProtocol:
    """Unit-level checks of the detector itself."""

    def _session(self, n=2):
        fabric = torus_factory((2,))()
        return FastForwardSession(fabric, n)

    def test_aperiodic_boundaries_never_arm(self):
        session = self._session()
        loop = session.loop_for(("p", 1, "m", 0), looplength=100)
        t = 1.0
        for rep in range(1, 30):
            t += 0.1 * rep  # growing gaps: no arithmetic progression
            for rank in range(2):
                assert loop.boundary(rank, rep, t) is None
        assert session.loops_armed == 0

    def test_desynchronized_ranks_never_arm(self):
        session = self._session()
        loop = session.loop_for(("p", 1, "m", 0), looplength=100)
        for rep in range(1, 30):
            base = 1.0 + rep / 1024.0  # exact grid, ample binade headroom
            assert loop.boundary(0, rep, base) is None
            assert loop.boundary(1, rep, base + 1e-9) is None
        assert session.loops_armed == 0

    def test_periodic_boundaries_arm_and_skip(self):
        session = self._session()
        looplength = 100
        loop = session.loop_for(("p", 1, "m", 0), looplength)
        skips = []
        rep, d = 0, 1.0 / 1024.0  # dyadic: boundaries land exactly on grid
        while rep < looplength - 1:
            rep += 1
            t = 1.0 + d * rep
            got = [loop.boundary(rank, rep, t) for rank in range(2)]
            assert got[0] == got[1]
            if got[0] is not None:
                target, landing = got[0]
                skips.append((rep, landing))
                rep = landing
                t = target
        assert session.loops_armed == 1
        assert skips and skips[0][1] == looplength - 1
        # the skip was offered at from_rep (which ran live as the
        # verification rep); everything up to the landing is replayed
        assert session.reps_skipped == skips[0][1] - skips[0][0]

    def test_diverged_prediction_raises(self):
        session = self._session(n=1)
        loop = session.loop_for(("p", 1, "m", 0), looplength=100)
        for rep in range(1, 4):
            loop.boundary(0, rep, 1.0 + rep / 1024.0)
        assert loop.plan is not None
        with pytest.raises(RuntimeError, match="diverged"):
            loop.boundary(0, 4, 12345.0)

    def test_short_loops_never_arm(self):
        session = self._session(n=1)
        loop = session.loop_for(("p", 1, "m", 0), looplength=4)
        for rep in range(1, 4):
            assert loop.boundary(0, rep, 1.0 + rep / 1024.0) is None
        assert session.loops_armed == 0

    def test_finish_releases_loop_state(self):
        session = self._session(n=2)
        key = ("p", 1, "m", 0)
        loop = session.loop_for(key, looplength=10)
        assert session.loop_for(key, looplength=10) is loop
        loop.finish()
        assert key in session.loops
        loop.finish()
        assert key not in session.loops
