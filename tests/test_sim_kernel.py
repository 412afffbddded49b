"""The vectorized max-min kernel vs its scalar oracle: bit-identity.

:mod:`repro.sim.kernel` computes :func:`repro.sim.oracle.maxmin_allocate`
on the hot paths — large ``FlowNetwork`` components and the analytic
round model — and the whole design rests on the replacement being
``float.hex``-exact, not approximately equal.  These properties drive
randomized capacities and route structures (empty routes, singleton
links, duplicate links within a route, degenerate equal-share ties)
through both implementations and require identical bits, including
under a shuffled event-tie order for the full FlowNetwork dispatch.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.beff.analytic import _capped_maxmin_inc
from repro.devtools.sanitizer import sanitized
from repro.net import Fabric, NetParams
from repro.sim import Simulator
from repro.sim.kernel import RouteIncidence
from repro.sim.oracle import capped_maxmin, maxmin_allocate
from repro.topology import Torus
from repro.util import MB


def _hex(values):
    return ["inf" if math.isinf(v) else float(v).hex() for v in values]


def _solve(capacities, routes):
    """The kernel on a fresh incidence, as plain Python floats."""
    incidence = RouteIncidence(routes)
    caps = np.asarray(
        [capacities[link] for link in incidence.link_ids], dtype=np.float64
    )
    return incidence.solve(caps).tolist()


# tie-heavy capacity pools: identical values force equal shares, the
# regime where the live-count tie scan actually matters
_CAPACITY = st.one_of(
    st.sampled_from([0.001, 0.002, 1.0]),
    st.floats(min_value=1e-4, max_value=10.0, allow_nan=False),
)


@st.composite
def _problems(draw, min_flows=0, max_flows=14):
    n_links = draw(st.integers(min_value=1, max_value=12))
    capacities = {
        link: draw(_CAPACITY) for link in range(n_links)
    }
    routes = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=n_links - 1),
                min_size=0,
                max_size=4,
            ).map(tuple),
            min_size=min_flows,
            max_size=max_flows,
        )
    )
    return capacities, routes


class TestLiveSemantics:
    @settings(max_examples=200, deadline=None)
    @given(problem=_problems())
    def test_matches_maxmin_allocate(self, problem):
        capacities, routes = problem
        ref = maxmin_allocate(dict(capacities), routes)
        vec = _solve(capacities, routes)
        assert _hex(vec) == _hex(ref)

    @settings(max_examples=100, deadline=None)
    @given(problem=_problems(min_flows=1), data=st.data())
    def test_active_subset_matches_oracle_on_sublist(self, problem, data):
        capacities, routes = problem
        active = np.asarray(
            data.draw(
                st.lists(
                    st.booleans(), min_size=len(routes), max_size=len(routes)
                )
            )
        )
        sub = [routes[i] for i in range(len(routes)) if active[i]]
        ref = maxmin_allocate(dict(capacities), sub)
        incidence = RouteIncidence(routes)
        caps = np.asarray(
            [capacities[link] for link in incidence.link_ids], dtype=np.float64
        )
        vec = incidence.solve(caps, active=active)
        picked = [float(vec[i]) for i in range(len(routes)) if active[i]]
        assert _hex(picked) == _hex(ref)

    def test_empty_routes_get_infinite_rate(self):
        rates = _solve({0: 1.0}, [(), (0,), ()])
        assert math.isinf(rates[0]) and math.isinf(rates[2])
        assert rates[1] == 1.0

    def test_singleton_link_shared_equally(self):
        rates = _solve({7: 3.0}, [(7,), (7,), (7,)])
        assert _hex(rates) == _hex([1.0, 1.0, 1.0])

    def test_no_flows(self):
        assert _solve({0: 1.0}, []) == []


class TestCappedMaxminPlanPath:
    @settings(max_examples=100, deadline=None)
    @given(problem=_problems(min_flows=1), data=st.data())
    def test_incidence_variant_matches_reference(self, problem, data):
        capacities, routes = problem
        routes = [r for r in routes if r] or [(0,)]
        caps = [
            data.draw(
                st.one_of(st.none(), st.floats(min_value=1e-4, max_value=5.0))
            )
            for _ in routes
        ]
        ref = capped_maxmin(dict(capacities), routes, caps)
        incidence = RouteIncidence(routes)
        cap_arr = np.asarray(
            [capacities[link] for link in incidence.link_ids], dtype=np.float64
        )
        vec = _capped_maxmin_inc(incidence, cap_arr, caps)
        assert _hex(vec) == _hex(ref)


class TestIncidenceStructure:
    def test_duplicate_links_counted_with_multiplicity(self):
        # a flow crossing the same link twice halves its share there,
        # exactly as the oracle counts it
        ref = maxmin_allocate({0: 1.0}, [(0, 0), (0,)])
        vec = _solve({0: 1.0}, [(0, 0), (0,)])
        assert _hex(vec) == _hex(ref)


class TestFlowNetworkDispatch:
    """The incremental engine's vectorized component dispatch, driven
    through a real fabric — including under a shuffled tie order."""

    def _round_bytes(self, tie_shuffle_seed=None):
        from repro.beff.patterns import make_patterns
        from repro.mpi.comm import World
        from repro.sim.randomness import RandomStreams

        with sanitized(record=False, tie_shuffle_seed=tie_shuffle_seed):
            sim = Simulator()
            fabric = Fabric(
                sim, Torus((4, 4, 4), link_bw=300 * MB), NetParams(latency=10e-6)
            )
            world = World(fabric)
            pattern = make_patterns(64, RandomStreams())[-1]

            def program(comm):
                from repro.beff.methods import step

                yield from comm.barrier()
                for _ in range(2):
                    yield from step("nonblocking", comm, pattern, 64 * 1024)

            world.run(program)
            return (
                float(fabric.sim.now).hex(),
                float(fabric.flows.bytes_completed).hex(),
                {k: v.hex() for k, v in sorted(fabric.flows.link_bytes.items())},
            )

    def test_vectorized_round_is_tie_order_invariant(self):
        baseline = self._round_bytes()
        for seed in (1, 7):
            assert self._round_bytes(tie_shuffle_seed=seed) == baseline
