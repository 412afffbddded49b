"""Tests for simulated MPI point-to-point semantics."""

import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, MpiError, World
from repro.net import Fabric, NetParams
from repro.sim import Simulator, Sleep
from repro.topology import Crossbar, Torus
from repro.util import MB


def make_world(nprocs=2, topo=None, **params):
    sim = Simulator()
    topo = topo or Torus((nprocs,), link_bw=100 * MB)
    params.setdefault("latency", 10e-6)
    fabric = Fabric(sim, topo, NetParams(**params))
    return World(fabric)


class TestBasicSendRecv:
    def test_payload_delivery(self):
        world = make_world()
        got = {}

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, nbytes=1024, tag=5, data="hello")
            else:
                status = yield from comm.recv(0, tag=5)
                got.update(source=status.source, tag=status.tag,
                           nbytes=status.nbytes, data=status.data)

        world.run(program)
        assert got == {"source": 0, "tag": 5, "nbytes": 1024, "data": "hello"}

    def test_recv_before_send(self):
        world = make_world()
        got = []

        def program(comm):
            if comm.rank == 1:
                status = yield from comm.recv(0)
                got.append(status.nbytes)
            else:
                yield Sleep(1.0)
                yield from comm.send(1, nbytes=64)

        world.run(program)
        assert got == [64]

    def test_wildcard_source_and_tag(self):
        world = make_world(3)
        got = []

        def program(comm):
            if comm.rank == 2:
                s1 = yield from comm.recv(ANY_SOURCE, ANY_TAG)
                s2 = yield from comm.recv(ANY_SOURCE, ANY_TAG)
                got.append({s1.source, s2.source})
            elif comm.rank == 0:
                yield from comm.send(2, nbytes=8, tag=1)
            else:
                yield Sleep(0.5)
                yield from comm.send(2, nbytes=8, tag=2)

        world.run(program)
        assert got == [{0, 1}]

    def test_tag_selectivity(self):
        world = make_world()
        order = []

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, nbytes=8, tag=1, data="first")
                yield from comm.send(1, nbytes=8, tag=2, data="second")
            else:
                s2 = yield from comm.recv(0, tag=2)
                s1 = yield from comm.recv(0, tag=1)
                order.extend([s2.data, s1.data])

        world.run(program)
        assert order == ["second", "first"]

    def test_non_overtaking_same_tag(self):
        world = make_world()
        order = []

        def program(comm):
            if comm.rank == 0:
                for i in range(4):
                    yield from comm.send(1, nbytes=8, tag=0, data=i)
            else:
                for _ in range(4):
                    status = yield from comm.recv(0, tag=0)
                    order.append(status.data)

        world.run(program)
        assert order == [0, 1, 2, 3]

    def test_self_send(self):
        world = make_world()
        got = []

        def program(comm):
            if comm.rank == 0:
                req = comm.irecv(0, tag=3)
                yield from comm.send(0, nbytes=16, tag=3, data="self")
                status = yield from req.wait()
                got.append(status.data)
            else:
                return
                yield  # pragma: no cover

        world.run(program)
        assert got == ["self"]

    def test_truncation_error(self):
        world = make_world()

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, nbytes=100)
            else:
                yield from comm.recv(0, capacity=50)

        with pytest.raises(MpiError, match="truncation"):
            world.run(program)

    def test_invalid_rank_rejected(self):
        world = make_world()

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(5, nbytes=1)

        with pytest.raises(MpiError):
            world.run(program)

    def test_user_negative_tag_rejected(self):
        world = make_world()

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, nbytes=1, tag=-7)
            else:
                yield from comm.recv(0)

        with pytest.raises(MpiError):
            world.run(program)


class TestProtocols:
    def test_eager_send_completes_without_receiver(self):
        # An eager send's request completes even though the matching
        # receive is posted much later.
        world = make_world(eager_threshold=1024)
        send_done_at = []

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, nbytes=512)
                send_done_at.append(comm.wtime())
            else:
                yield Sleep(10.0)
                yield from comm.recv(0)

        world.run(program)
        assert send_done_at[0] < 1.0

    def test_rendezvous_send_waits_for_receiver(self):
        world = make_world(eager_threshold=100)
        send_done_at = []

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, nbytes=1000)
                send_done_at.append(comm.wtime())
            else:
                yield Sleep(10.0)
                yield from comm.recv(0)

        world.run(program)
        assert send_done_at[0] >= 10.0

    def test_rendezvous_data_flow_starts_after_match(self):
        # Transfer counts as fabric traffic only after the handshake.
        world = make_world(eager_threshold=0, rendezvous_latency=0.0, latency=0.0)
        recv_done = []

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, nbytes=100 * MB)
            else:
                yield Sleep(5.0)
                yield from comm.recv(0)
                recv_done.append(comm.wtime())

        world.run(program)
        # 5 s wait + 100 MB at 100 MB/s = 6 s total
        assert recv_done[0] == pytest.approx(6.0, rel=1e-6)


class TestNonblocking:
    def test_isend_irecv_waitall(self):
        world = make_world()
        got = []

        def program(comm):
            if comm.rank == 0:
                reqs = [comm.isend(1, nbytes=8, tag=i, data=i) for i in range(3)]
                yield from comm.waitall(reqs)
            else:
                reqs = [comm.irecv(0, tag=i) for i in range(3)]
                statuses = yield from comm.waitall(reqs)
                got.extend(s.data for s in statuses)

        world.run(program)
        assert got == [0, 1, 2]

    def test_request_test_probe(self):
        world = make_world()
        probes = []

        def program(comm):
            if comm.rank == 0:
                yield Sleep(1.0)
                yield from comm.send(1, nbytes=8)
            else:
                req = comm.irecv(0)
                probes.append(req.test())
                yield Sleep(2.0)
                probes.append(req.test())
                yield from req.wait()

        world.run(program)
        assert probes == [False, True]

    def test_sendrecv_bidirectional(self):
        world = make_world()
        got = {}

        def program(comm):
            other = 1 - comm.rank
            status = yield from comm.sendrecv(
                other, send_nbytes=32, src=other, send_data=f"from{comm.rank}"
            )
            got[comm.rank] = status.data

        world.run(program)
        assert got == {0: "from1", 1: "from0"}


class TestTimingParallelism:
    def test_nonblocking_sends_overlap(self):
        # Two 100 MB messages to distinct destinations over distinct
        # links: nonblocking overlaps them, sequential does not.
        def run(sequential):
            world = make_world(
                3, topo=Crossbar(3, port_bw=100 * MB), latency=0.0,
                intra_node_latency=0.0, eager_threshold=0,
                rendezvous_latency=0.0,
            )
            t = []

            def program(comm):
                if comm.rank == 0:
                    if sequential:
                        yield from comm.send(1, nbytes=50 * MB)
                        yield from comm.send(2, nbytes=50 * MB)
                    else:
                        r1 = comm.isend(1, nbytes=50 * MB)
                        r2 = comm.isend(2, nbytes=50 * MB)
                        yield from comm.waitall([r1, r2])
                    t.append(comm.wtime())
                else:
                    yield from comm.recv(0)

            world.run(program)
            return t[0]

        seq_time = run(sequential=True)
        par_time = run(sequential=False)
        # Both messages share rank 0's tx port, so overlap does not
        # halve the time, but it must not be slower than sequential.
        assert par_time <= seq_time * (1 + 1e-9)

    def test_two_rank_ring_full_duplex(self):
        # Paired sendrecv between 2 ranks uses opposite link directions.
        world = make_world(2, latency=0.0, intra_node_latency=0.0,
                           eager_threshold=1 << 30)
        t = []

        def program(comm):
            other = 1 - comm.rank
            yield from comm.sendrecv(other, send_nbytes=100 * MB, src=other)
            t.append(comm.wtime())

        world.run(program)
        # each direction has its own 100 MB/s path: ~1 s, not ~2 s
        assert t[0] == pytest.approx(1.0, rel=0.01)


class TestWorldRun:
    def test_returns_rank_results(self):
        world = make_world(4)

        def program(comm):
            yield Sleep(0.0)
            return comm.rank * 10

        results = world.run(program)
        assert results == [0, 10, 20, 30]

    def test_deadlock_detected(self):
        world = make_world(2)

        def program(comm):
            if comm.rank == 0:
                yield from comm.recv(1)  # never sent

        from repro.sim import DeadlockError

        with pytest.raises(DeadlockError):
            world.run(program)


class TestRouteCache:
    def test_each_pair_is_routed_once(self, monkeypatch):
        """Repeated sends reuse the fabric's cached route: the topology
        computes one route per distinct (src, dst) pair, eager and
        rendezvous alike."""
        from repro.machines import get_machine

        calls = []
        fabric = get_machine("t3e").fabric_factory(8)()
        topo_cls = type(fabric.topology)
        original = topo_cls.route

        def counted(topo, src, dst):
            calls.append((src, dst))
            return original(topo, src, dst)

        monkeypatch.setattr(topo_cls, "route", counted)
        world = World(fabric)
        assert 1024 <= fabric.params.eager_threshold < 256 * 1024

        def program(comm):
            n = comm.size
            for _ in range(3):
                for nbytes in (1024, 256 * 1024):
                    for step in (1, -1):
                        yield from comm.sendrecv(
                            (comm.rank + step) % n, nbytes, (comm.rank - step) % n
                        )

        world.run(program)
        expected = {(r, (r + s) % 8) for r in range(8) for s in (1, -1)}
        assert set(calls) == expected
        assert len(calls) == len(expected)


class TestEagerLocalCompletion:
    """An eager send completes locally after the nominal startup
    latency; jitter and faults move only the arrival."""

    @staticmethod
    def _times(fabric, start=0.0):
        """(send start, send completion, receive completion) of one
        eager 0 -> 1 message posted at ``start``."""
        from repro.mpi.core import Endpoint
        from repro.sim import Process

        endpoint = Endpoint(fabric)
        out = []

        def prog():
            if start:
                yield Sleep(start)
            t0 = fabric.sim.now
            rreq = endpoint.irecv(0, 1, 0, 0)
            sreq = endpoint.isend(0, 0, 1, 0, 1024, 0)
            yield from sreq.wait()
            t_send = fabric.sim.now
            yield from rreq.wait()
            out.append((t0, t_send, fabric.sim.now))

        Process(fabric.sim, prog())
        fabric.sim.run_to_completion()
        return out[0]

    @staticmethod
    def _fabric(jitter=0.0):
        return Fabric(
            Simulator(), Torus((2,), link_bw=100 * MB),
            NetParams(latency=100e-6, jitter=jitter), jitter_seed=3,
        )

    def test_jitter_moves_arrival_not_local_completion(self):
        plain = self._times(self._fabric())
        fabric = self._fabric(jitter=0.3)
        t0, t_send, t_recv = self._times(fabric)
        nominal = fabric.startup_latency(fabric.route(0, 1))
        assert t_send == t0 + nominal == plain[1]
        assert t_recv != plain[2]

    def test_straggler_moves_arrival_not_local_completion(self):
        from repro.faults import FaultInjector, FaultPlan, Straggler

        plain = self._times(self._fabric(), start=1.0)
        fabric = self._fabric()
        FaultInjector(FaultPlan(events=(Straggler(1, 0.5, 10.0, 4.0),))).attach(
            fabric.sim, fabric=fabric
        )
        t0, t_send, t_recv = self._times(fabric, start=1.0)
        nominal = fabric.startup_latency(fabric.route(0, 1))
        assert t_send == t0 + nominal == plain[1]
        assert t_recv - t0 >= 4.0 * nominal
        assert t_recv > plain[2]

    @pytest.mark.parametrize("jitter, entries", [(0.0, 1), (0.3, 2)])
    def test_one_heap_entry_per_eager_send_unless_jittered(self, jitter, entries):
        """Without jitter the local completion rides in the callback
        that begins the flow; with jitter it is its own event."""
        from repro.mpi.core import Endpoint
        from repro.sim import on_trigger

        fabric = self._fabric(jitter=jitter)
        sim = fabric.sim
        sim.run(until=0.375)
        request = Endpoint(fabric).isend(0, 0, 1, 0, 1024, 0)
        assert len(sim._heap) == entries
        fired = []
        on_trigger(request.event, lambda _value: fired.append(sim.now))
        sim.run()
        expected = 0.375 + fabric.startup_latency(fabric.route(0, 1))
        assert [t.hex() for t in fired] == [expected.hex()]


class TestMessageEventNames:
    def test_send_rendezvous_and_receive_names(self):
        from repro.mpi.core import Endpoint

        fabric = Fabric(
            Simulator(), Torus((8,), link_bw=100 * MB),
            NetParams(latency=10e-6, eager_threshold=1024),
        )
        endpoint = Endpoint(fabric)
        assert endpoint.isend(0, 3, 5, 3, 16, 7).event.name == "send:3->5t7"
        assert endpoint.irecv(0, 5, 3, 7).event.name == "recv:5<-3t7"
        assert endpoint.isend(0, 0, 1, 0, 4096, 2).event.name == "send:0->1t2"
        pending = endpoint._matcher(0, 1).unexpected[-1]
        assert pending.arrival.name == "rndv:0->1t2"
