"""Tests for per-link utilization accounting."""

import pytest

from repro.beff import MeasurementConfig, run_beff
from repro.net import Fabric, NetParams
from repro.sim import FlowNetwork, Process, Simulator
from repro.topology import Torus
from repro.util import MB


class TestLinkBytes:
    def test_single_flow_charges_route(self):
        sim = Simulator()
        net = FlowNetwork(sim)
        a, b = net.add_link(10.0, "a"), net.add_link(10.0, "b")

        def prog():
            yield net.start_flow([a, b], 100.0)

        Process(sim, prog())
        sim.run_to_completion()
        assert net.link_bytes[a] == pytest.approx(100.0)
        assert net.link_bytes[b] == pytest.approx(100.0)

    def test_shared_link_accumulates_both_flows(self):
        sim = Simulator()
        net = FlowNetwork(sim)
        link = net.add_link(10.0, "shared")

        def prog(n):
            yield net.start_flow([link], n)

        Process(sim, prog(30.0))
        Process(sim, prog(70.0))
        sim.run_to_completion()
        assert net.link_bytes[link] == pytest.approx(100.0)

    @pytest.mark.parametrize("mode", ["incremental", "reference"])
    def test_tied_links_list_by_link_id(self, mode):
        # link b carries its flow before link a does, so the accounting
        # history meets b first; equal byte counts must still list by id
        sim = Simulator()
        net = FlowNetwork(sim, mode=mode)
        a, b = net.add_link(10.0, "a"), net.add_link(10.0, "b")

        def prog():
            yield net.start_flow([b], 100.0)
            yield net.start_flow([a], 100.0)

        Process(sim, prog())
        sim.run_to_completion()
        assert net.link_bytes[a] == net.link_bytes[b]
        assert list(net.link_bytes) == [a, b]
        assert [name for name, _b in net.hottest_links()] == ["a", "b"]

    def test_hottest_links_ranked(self):
        sim = Simulator()
        net = FlowNetwork(sim)
        cold = net.add_link(10.0, "cold")
        hot = net.add_link(10.0, "hot")

        def prog(route, n):
            yield net.start_flow(route, n)

        Process(sim, prog([cold], 10.0))
        Process(sim, prog([hot], 90.0))
        sim.run_to_completion()
        ranked = net.hottest_links()
        assert ranked[0] == ("hot", pytest.approx(90.0))
        assert ranked[1][0] == "cold"

    def test_private_cap_links_excluded(self):
        sim = Simulator()
        net = FlowNetwork(sim)
        link = net.add_link(100.0, "real")

        def prog():
            yield net.start_flow([link], 50.0, rate_cap=10.0)

        Process(sim, prog())
        sim.run_to_completion()
        names = [name for name, _b in net.hottest_links()]
        assert names == ["real"]

    def test_top_limit(self):
        sim = Simulator()
        net = FlowNetwork(sim)
        links = [net.add_link(10.0, f"l{i}") for i in range(5)]

        def prog(link):
            yield net.start_flow([link], 10.0)

        for link in links:
            Process(sim, prog(link))
        sim.run_to_completion()
        assert len(net.hottest_links(top=3)) == 3


class TestRingVsRandomExplanation:
    def test_random_placement_creates_hotter_fabric_links(self):
        # the observability feature explains the b_eff result: under
        # random placement, some torus fabric link carries far more
        # bytes than any link does under ring placement
        def max_fabric_bytes(kind):
            def factory():
                sim = Simulator()
                return Fabric(
                    sim, Torus((4, 4, 4), link_bw=300 * MB),
                    NetParams(latency=10e-6),
                )

            fabric = factory()
            from repro.beff.patterns import random_patterns, ring_patterns
            from repro.sim import Process as P

            pattern = (ring_patterns(64) if kind == "ring" else random_patterns(64))[5]

            def prog(src, dst):
                yield fabric.transfer_event(src, dst, MB)

            for ring in pattern.rings:
                k = len(ring)
                for i, rank in enumerate(ring):
                    P(fabric.sim, prog(rank, ring[(i + 1) % k]))
            fabric.sim.run_to_completion()
            fabric_bytes = [
                nbytes
                for name, nbytes in fabric.flows.hottest_links(top=5)
                if ".d" in name  # fabric links only (torus.l<n>.d<dim><dir>)
            ]
            return max(fabric_bytes) if fabric_bytes else 0.0

        assert max_fabric_bytes("random") >= 2 * max_fabric_bytes("ring")
