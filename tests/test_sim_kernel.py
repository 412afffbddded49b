"""The vectorized max-min kernel vs its scalar oracle: bit-identity.

:mod:`repro.sim.kernel` computes :func:`repro.sim.oracle.maxmin_allocate`
on the hot paths — large ``FlowNetwork`` components and the analytic
round model — and the whole design rests on the replacement being
``float.hex``-exact, not approximately equal.  These properties drive
randomized capacities, per-flow rate caps and route structures (empty
routes, singleton links, duplicate links within a route, degenerate
equal-share ties) through both implementations and require identical
bits, including under a shuffled event-tie order for the full
FlowNetwork dispatch.  ``TestOneCapSemantics`` pins every solver that
takes caps — oracle, kernel, the DES's scalar component solver and
both analytic pricing paths — to one answer.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.beff.analytic import RoundModel
from repro.devtools.sanitizer import sanitized
from repro.net import Fabric, NetParams
from repro.sim import Simulator
from repro.sim.fluid import _VEC_FLOWS
from repro.sim.kernel import RouteIncidence
from repro.sim.oracle import maxmin_allocate
from repro.topology import Torus
from repro.topology.base import Route, Topology
from repro.util import MB


def _hex(values):
    return ["inf" if math.isinf(v) else float(v).hex() for v in values]


def _solve(capacities, routes, caps=None):
    """The kernel on a fresh incidence, as plain Python floats."""
    incidence = RouteIncidence(routes, caps)
    link_caps = np.asarray(
        [capacities[link] for link in incidence.link_ids], dtype=np.float64
    )
    return incidence.solve(link_caps).tolist()


# tie-heavy capacity pools: identical values force equal shares, the
# regime where the live-count tie scan actually matters
_CAPACITY = st.one_of(
    st.sampled_from([0.001, 0.002, 1.0]),
    st.floats(min_value=1e-4, max_value=10.0, allow_nan=False),
)


@st.composite
def _problems(draw, min_flows=0, max_flows=14, min_route=0):
    """(capacities, routes, caps): each flow capped or not (``None``)."""
    n_links = draw(st.integers(min_value=1, max_value=12))
    capacities = {
        link: draw(_CAPACITY) for link in range(n_links)
    }
    routes = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=n_links - 1),
                min_size=min_route,
                max_size=4,
            ).map(tuple),
            min_size=min_flows,
            max_size=max_flows,
        )
    )
    caps = draw(
        st.lists(
            st.one_of(st.none(), _CAPACITY),
            min_size=len(routes),
            max_size=len(routes),
        )
    )
    return capacities, routes, caps


class TestLiveSemantics:
    @settings(max_examples=200, deadline=None)
    @given(problem=_problems())
    def test_matches_maxmin_allocate(self, problem):
        capacities, routes, caps = problem
        ref = maxmin_allocate(dict(capacities), routes, caps)
        vec = _solve(capacities, routes, caps)
        assert _hex(vec) == _hex(ref)

    def test_empty_routes_get_infinite_rate(self):
        rates = _solve({0: 1.0}, [(), (0,), ()])
        assert math.isinf(rates[0]) and math.isinf(rates[2])
        assert rates[1] == 1.0

    def test_singleton_link_shared_equally(self):
        rates = _solve({7: 3.0}, [(7,), (7,), (7,)])
        assert _hex(rates) == _hex([1.0, 1.0, 1.0])

    def test_no_flows(self):
        assert _solve({0: 1.0}, []) == []


class _TableTopology(Topology):
    """Rank ``i``'s message to the last rank takes ``routes[i]``.

    The route's ``hops`` carries ``i``, so two flows on the same links
    stay distinct routes and can carry different caps.
    """

    def __init__(self, capacities, routes):
        super().__init__(len(routes) + 1)
        self.capacities = capacities
        self.routes = routes

    def _build(self, net):
        for link in range(len(self.capacities)):
            assert net.add_link(self.capacities[link]) == link

    def route(self, src, dst):
        return Route(links=tuple(self.routes[src]), hops=src, intra_node=False)


class _TableFabric(Fabric):
    """A zero-latency fabric whose per-message caps come from a table."""

    def __init__(self, capacities, routes, caps):
        params = NetParams(
            latency=0.0, rendezvous_latency=0.0, eager_threshold=1 << 62
        )
        super().__init__(Simulator(), _TableTopology(capacities, routes), params)
        self.caps = caps

    def rate_cap_for(self, route):
        return self.caps[route.hops]


def _every_cap_path(capacities, routes, caps):
    """Each solver's rates for one capped problem, as ``float.hex`` lists,
    and per message whether ``phase_time`` priced it at the oracle's rate.

    Routes must be non-empty: the analytic model prices a message with
    no links by its latency alone.
    """
    fabric = _TableFabric(capacities, routes, caps)
    last = len(routes)
    for src in range(last):
        route = fabric.route(src, last)
        fabric.flows.start_flow(route.links, 1e9, rate_cap=fabric.rate_cap_for(route))
    flow_ids = sorted(fabric.flows._flows)
    des = fabric.flows._solve_component(flow_ids)
    model = RoundModel(fabric)
    plan = model._plan(("phase",), [(src, last, 1) for src in range(last)])
    # phase_time prices its max(L / rate): let each message in turn
    # carry the bytes that make it the slowest, under the oracle's rates
    oracle = maxmin_allocate(dict(capacities), routes, caps)
    phase = []
    for k in range(last):
        sizes = [1] * last
        sizes[k] = 1 << 40
        got = model.phase_time([(src, last, sizes[src]) for src in range(last)])
        want = max(size / rate for size, rate in zip(sizes, oracle))
        phase.append(got == want)
    return {
        "oracle": _hex(oracle),
        "kernel": _hex(_solve(capacities, routes, caps)),
        "des": _hex([des[fid] for fid in flow_ids]),
        "plan": _hex(plan.rates.tolist()),
        "phase_time": phase,
    }


class TestOneCapSemantics:
    """A rate cap is a pseudo-link after its flow's route, everywhere.

    The counterexample is one that iterated fixing (clamp the
    violators to their caps, re-solve the rest) gets wrong: it gave
    ``[2.0, 1.5, 2.5, 0.5]``, where flow 1 has no bottleneck link.
    """

    def test_counterexample_is_max_min_fair_on_every_path(self):
        capacities = {0: 4.0, 1: 4.0}
        routes = [(1,), (0, 1), (0,), (1,)]
        caps = [2.5, 2.5, 2.5, 0.5]
        want = _hex([1.75, 1.75, 2.25, 0.5])
        paths = _every_cap_path(capacities, routes, caps)
        assert paths.pop("phase_time") == [True] * 4
        assert paths == dict.fromkeys(paths, want)
        # the DES's public path: a one-instant FlowNetwork with rate_cap=
        net = _TableFabric(capacities, routes, caps).flows
        for route, cap in zip(routes, caps):
            net.start_flow(route, 1e9, rate_cap=cap)
        rates = net.current_rates()
        assert _hex([rates[fid] for fid in sorted(rates)]) == want

    # below _VEC_FLOWS flows, so "des" is the DES's scalar loop (the
    # kernel is checked on its own)
    @settings(max_examples=150, deadline=None)
    @given(problem=_problems(min_flows=1, max_flows=_VEC_FLOWS - 1, min_route=1))
    def test_every_path_agrees_on_random_capped_problems(self, problem):
        paths = _every_cap_path(*problem)
        assert all(paths.pop("phase_time"))
        assert paths == dict.fromkeys(paths, paths["oracle"])


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
