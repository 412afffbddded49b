"""Tests for the Fabric transfer cost model."""

import pytest

from repro.net import Fabric, NetParams
from repro.sim import Process, Simulator, Sleep, on_trigger
from repro.sim.randomness import RandomStreams
from repro.topology import ClusteredSMP, Crossbar, Torus
from repro.util import MB


def make_fabric(topo, **params):
    sim = Simulator()
    fabric = Fabric(sim, topo, NetParams(**params))
    return sim, fabric


class TestNetParamsValidation:
    def test_defaults_valid(self):
        NetParams()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"latency": -1.0},
            {"per_hop_latency": -1e-9},
            {"intra_node_latency": -1.0},
            {"rendezvous_latency": -1.0},
            {"eager_threshold": -1},
            {"copy_bw": 0.0},
            {"copy_penalty": 0.0},
            {"copy_penalty": 1.5},
            {"msg_rate_cap": -5.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            NetParams(**kwargs)


class TestLatency:
    def test_inter_node_latency_plus_hops(self):
        topo = Torus((8,), link_bw=100 * MB)
        _, fabric = make_fabric(topo, latency=10e-6, per_hop_latency=1e-6)
        r = topo.route(0, 3)  # 3 hops
        assert fabric.startup_latency(r) == pytest.approx(13e-6)

    def test_intra_node_latency(self):
        topo = ClusteredSMP(2, 2, membus_bw=100 * MB, nic_bw=10 * MB)
        _, fabric = make_fabric(topo, latency=10e-6, intra_node_latency=2e-6)
        assert fabric.startup_latency(topo.route(0, 1)) == pytest.approx(2e-6)

    def test_eager_classification(self):
        _, fabric = make_fabric(Torus((2,), link_bw=MB), eager_threshold=4096)
        assert fabric.is_eager(4096)
        assert not fabric.is_eager(4097)


class TestTransferTiming:
    def test_single_transfer_latency_plus_bandwidth(self):
        sim, fabric = make_fabric(
            Torus((2,), link_bw=100.0), latency=1.0, per_hop_latency=0.0
        )
        done = []

        def prog():
            yield fabric.transfer_event(0, 1, 100)
            done.append(sim.now)

        Process(sim, prog())
        sim.run_to_completion()
        assert done == [pytest.approx(2.0)]  # 1 s latency + 100/100 s

    def test_msg_rate_cap_applies(self):
        sim, fabric = make_fabric(
            Torus((2,), link_bw=1000.0), latency=0.0, msg_rate_cap=10.0
        )
        done = []

        def prog():
            yield fabric.transfer_event(0, 1, 100)
            done.append(sim.now)

        Process(sim, prog())
        sim.run_to_completion()
        assert done == [pytest.approx(10.0)]

    def test_intra_node_copy_halving(self):
        # copy_bw=100, penalty 0.5 -> intra-node message runs at 50 B/s.
        topo = ClusteredSMP(1, 2, membus_bw=10000.0, nic_bw=10000.0)
        sim, fabric = make_fabric(
            topo, intra_node_latency=0.0, copy_bw=100.0, copy_penalty=0.5
        )
        done = []

        def prog():
            yield fabric.transfer_event(0, 1, 100)
            done.append(sim.now)

        Process(sim, prog())
        sim.run_to_completion()
        assert done == [pytest.approx(2.0)]

    def test_self_message_is_local_copy(self):
        topo = Crossbar(2, port_bw=1000.0)
        sim, fabric = make_fabric(topo, intra_node_latency=1.0, copy_bw=100.0)
        done = []

        def prog():
            yield fabric.transfer_event(0, 0, 100)
            done.append(sim.now)

        Process(sim, prog())
        sim.run_to_completion()
        # latency 1.0 + 100 bytes at 50 B/s (copy halving) = 3.0
        assert done == [pytest.approx(3.0)]

    def test_concurrent_transfers_share_links(self):
        sim, fabric = make_fabric(Torus((2,), link_bw=100.0), latency=0.0)
        topo = fabric.topology
        done = {}

        def prog(tag):
            yield fabric.transfer_event(0, 1, 100)
            done[tag] = sim.now

        Process(sim, prog("a"))
        Process(sim, prog("b"))
        sim.run_to_completion()
        # both cross tx0 (and the same fabric link): share 100 B/s
        assert done["a"] == pytest.approx(2.0)
        assert done["b"] == pytest.approx(2.0)

    def test_staggered_transfers(self):
        sim, fabric = make_fabric(Torus((2,), link_bw=100.0), latency=0.0)
        done = {}

        def first():
            yield fabric.transfer_event(0, 1, 100)
            done["first"] = sim.now

        def second():
            yield Sleep(0.5)
            yield fabric.transfer_event(0, 1, 50)
            done["second"] = sim.now

        Process(sim, first())
        Process(sim, second())
        sim.run_to_completion()
        # 0-0.5 s: first alone (50 B). 0.5-1.5: share 50/50 (first +50 done at 1.5;
        # second +50 done at 1.5).
        assert done["first"] == pytest.approx(1.5)
        assert done["second"] == pytest.approx(1.5)

    def test_zero_byte_message_costs_latency_only(self):
        sim, fabric = make_fabric(Torus((2,), link_bw=100.0), latency=1.0)
        done = []

        def prog():
            yield fabric.transfer_event(0, 1, 0)
            done.append(sim.now)

        Process(sim, prog())
        sim.run_to_completion()
        assert done == [pytest.approx(1.0)]

    def test_negative_size_rejected(self):
        _, fabric = make_fabric(Torus((2,), link_bw=100.0))
        with pytest.raises(ValueError):
            fabric.transfer_event(0, 1, -1)

    def test_statistics(self):
        sim, fabric = make_fabric(Torus((2,), link_bw=100.0))

        def prog():
            yield fabric.transfer_event(0, 1, 10)
            yield fabric.transfer_event(1, 0, 20)

        Process(sim, prog())
        sim.run_to_completion()
        assert fabric.messages_sent == 2
        assert fabric.bytes_sent == 30

    def test_transfer_generator_form(self):
        sim, fabric = make_fabric(Torus((2,), link_bw=100.0), latency=0.0)
        done = []

        def prog():
            yield from fabric.transfer(0, 1, 100)
            done.append(sim.now)

        Process(sim, prog())
        sim.run_to_completion()
        assert done == [pytest.approx(1.0)]


class TestZeroByteTransfer:
    """A zero-byte message has no bandwidth phase: it arrives after its
    startup latency and never enters the fluid network."""

    def test_arrives_at_exactly_the_latency_without_a_flow(self):
        topo = Torus((4,), link_bw=100 * MB)
        sim, fabric = make_fabric(topo, latency=3e-6, per_hop_latency=7e-7)
        sim.run(until=0.125)
        flows = fabric.flows
        before = (flows._next_flow_id, flows.flows_completed)
        event = fabric.transfer_event(0, 2, 0)
        arrived = []
        on_trigger(event, lambda value: arrived.append((value, sim.now)))
        sim.run_to_completion()
        expected = 0.125 + fabric.startup_latency(fabric.route(0, 2))
        assert [(v.hex(), t.hex()) for v, t in arrived] == [(expected.hex(), expected.hex())]
        assert (flows._next_flow_id, flows.flows_completed) == before
        assert fabric.messages_sent == 1 and fabric.bytes_sent == 0

    def test_jitter_draws_once_per_zero_byte_message(self):
        fabric = Fabric(
            Simulator(), Torus((2,), link_bw=100 * MB),
            NetParams(latency=100e-6, jitter=0.3), jitter_seed=5,
        )
        event = fabric.transfer_event(0, 1, 0)
        fabric.sim.run_to_completion()
        reference = RandomStreams(5).stream("fabric.jitter")
        factor = 1.0 + 0.3 * float(reference.uniform(-1.0, 1.0))
        nominal = fabric.startup_latency(fabric.route(0, 1))
        assert event.value.hex() == (nominal * factor).hex()
        # the jitter stream advanced by exactly one draw
        assert float(fabric._jitter_rng.uniform(-1.0, 1.0)) == float(
            reference.uniform(-1.0, 1.0)
        )


class TestEventNames:
    def test_transfer_and_flow_events_keep_their_names(self):
        _, fabric = make_fabric(Torus((2,), link_bw=100 * MB))
        assert fabric.transfer_event(0, 1, 1024).name == "xfer:0->1:1024"
        links = list(fabric.route(0, 1).links)
        for _ in range(12):
            fabric.flows.start_flow(links, 64)
        flow = fabric.flows.start_flow(links, 64)
        assert flow.name == "flow12"
        assert repr(flow) == "<SimEvent 'flow12' 0 waiting>"
        flow.trigger()
        with pytest.raises(RuntimeError, match=r"^SimEvent 'flow12' triggered twice$"):
            flow.trigger()
