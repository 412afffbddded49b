"""Tests for the analytic round model and (capped) max-min allocation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.beff.analytic import RoundModel
from repro.beff.patterns import CommPattern
from repro.net import Fabric, NetParams
from repro.sim import Simulator
from repro.sim.oracle import maxmin_allocate
from repro.topology import Crossbar, Torus
from repro.util import MB


class TestMaxminAllocate:
    def test_single_flow_full_capacity(self):
        assert maxmin_allocate({0: 10.0}, [(0,)]) == [10.0]

    def test_fair_split(self):
        rates = maxmin_allocate({0: 10.0}, [(0,), (0,)])
        assert rates == [5.0, 5.0]

    def test_empty_route_infinite(self):
        import math

        rates = maxmin_allocate({0: 10.0}, [()])
        assert math.isinf(rates[0])

    def test_classic_maxmin_example(self):
        # link0 cap 10 shared by A and C; link1 cap 4 shared by A and B
        # A: both links; B: link1; C: link0
        rates = maxmin_allocate({0: 10.0, 1: 4.0}, [(0, 1), (1,), (0,)])
        assert rates[0] == pytest.approx(2.0)
        assert rates[1] == pytest.approx(2.0)
        assert rates[2] == pytest.approx(8.0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True),
            min_size=1,
            max_size=10,
        )
    )
    def test_feasibility_and_pareto(self, routes):
        caps = {i: 10.0 + i for i in range(4)}
        rates = maxmin_allocate(caps, [tuple(r) for r in routes])
        # feasibility: no link oversubscribed
        for link, cap in caps.items():
            load = sum(rate for rate, route in zip(rates, routes) if link in route)
            assert load <= cap * (1 + 1e-9)
        # every flow has a saturated link (max-min property)
        for rate, route in zip(rates, routes):
            saturated = False
            for link in route:
                load = sum(r for r, rt in zip(rates, routes) if link in rt)
                if load >= caps[link] * (1 - 1e-9):
                    saturated = True
            assert saturated

    def test_capped_flow_releases_bandwidth(self):
        # two flows on a 10-link; one capped at 2 -> the other gets 8
        rates = maxmin_allocate({0: 10.0}, [(0,), (0,)], caps=[2.0, None])
        assert rates == [2.0, 8.0]

    def test_cap_above_share_inactive(self):
        rates = maxmin_allocate({0: 10.0}, [(0,), (0,)], caps=[100.0, None])
        assert rates == [5.0, 5.0]

    def test_cap_alone_bounds_an_empty_route(self):
        rates = maxmin_allocate({0: 10.0}, [(), (0,)], caps=[3.0, None])
        assert rates == [3.0, 10.0]

    def test_capped_allocation_is_max_min_fair(self):
        # every flow is held by a saturated link or by its own cap;
        # iterated fixing left flow 1 at 1.5 with neither
        capacities = {0: 4.0, 1: 4.0}
        routes = [(1,), (0, 1), (0,), (1,)]
        caps = [2.5, 2.5, 2.5, 0.5]
        rates = maxmin_allocate(capacities, routes, caps)
        assert rates == [1.75, 1.75, 2.25, 0.5]
        for rate, route, cap in zip(rates, routes, caps):
            loads = [
                sum(r for r, rt in zip(rates, routes) if link in rt)
                for link in route
            ]
            assert rate == cap or any(
                load == capacities[link] for load, link in zip(loads, route)
            )


def make_model(topo, **params):
    sim = Simulator()
    fabric = Fabric(sim, topo, NetParams(**params))
    return RoundModel(fabric)


class TestRoundModel:
    def test_phase_time_single_message(self):
        model = make_model(Torus((2,), link_bw=100 * MB), latency=10e-6,
                           eager_threshold=1 << 30)
        t = model.phase_time([(0, 1, MB)])
        assert t == pytest.approx(10e-6 + MB / (100 * MB))

    def test_phase_time_empty(self):
        model = make_model(Torus((2,), link_bw=100 * MB))
        assert model.phase_time([]) == 0.0

    def test_zero_byte_messages_cost_latency(self):
        model = make_model(Torus((2,), link_bw=100 * MB), latency=5e-6)
        assert model.phase_time([(0, 1, 0)]) == pytest.approx(5e-6)

    def test_rendezvous_latency_added(self):
        model = make_model(
            Torus((2,), link_bw=100 * MB),
            latency=10e-6, eager_threshold=10, rendezvous_latency=7e-6,
        )
        t_small = model.phase_time([(0, 1, 10)])
        t_big = model.phase_time([(0, 1, 11)])
        assert t_big - t_small == pytest.approx(7e-6 + 1 / (100 * MB), rel=1e-6)

    def test_sendrecv_two_phases_vs_nonblocking(self):
        # ring of 4 on a torus: sendrecv serializes the two directions
        model = make_model(Torus((4,), link_bw=100 * MB), latency=0.0,
                           eager_threshold=1 << 30)
        pattern = CommPattern("r", "ring", ((0, 1, 2, 3),))
        t_sr = model.round_time(pattern, MB, "sendrecv")
        t_nb = model.round_time(pattern, MB, "nonblocking")
        # each phase runs at full link speed; nonblocking shares NICs
        assert t_sr == pytest.approx(2 * MB / (100 * MB))
        assert t_nb == pytest.approx(2 * MB / (100 * MB))

    def test_two_ring_parallel_sendrecv(self):
        model = make_model(Torus((2,), link_bw=100 * MB), latency=0.0,
                           eager_threshold=1 << 30)
        pattern = CommPattern("p", "ring", ((0, 1),))
        t = model.round_time(pattern, MB, "sendrecv")
        # both messages of the 2-ring go in parallel but share the tx NIC
        assert t == pytest.approx(2 * MB / (100 * MB))

    def test_alltoallv_pays_per_step_latency(self):
        model = make_model(Torus((8,), link_bw=1000 * MB), latency=50e-6)
        pattern = CommPattern(
            "r", "ring", (tuple(range(8)),)
        )
        t_a2a = model.round_time(pattern, 1024, "alltoallv")
        t_nb = model.round_time(pattern, 1024, "nonblocking")
        assert t_a2a > 3 * t_nb  # 7 steps of latency vs 1

    def test_unknown_method_rejected(self):
        model = make_model(Torus((2,), link_bw=MB))
        with pytest.raises(ValueError):
            model.round_time(CommPattern("p", "ring", ((0, 1),)), 1, "smoke")

    def test_intra_node_cap_respected(self):
        model = make_model(
            Crossbar(2, port_bw=1000 * MB), latency=0.0,
            intra_node_latency=0.0, copy_bw=100 * MB, eager_threshold=1 << 30,
        )
        t = model.phase_time([(0, 1, MB)])
        # copy cap = 50 MB/s
        assert t == pytest.approx(MB / (50 * MB))
