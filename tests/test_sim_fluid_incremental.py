"""Equivalence of the incremental fluid engine and the reference oracle.

The incremental :class:`FlowNetwork` batches same-instant membership
changes and re-solves only the affected link component with a
count-based progressive-filling solver.  These tests pin it to the
pure :func:`maxmin_allocate` oracle — ``float.hex``-exactly per
component, on both sides of the scalar/kernel dispatch threshold — and
to the ``reference`` engine mode (the seed's full-recompute path) on
randomized link/route sets, including rate-capped flows and empty
routes.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim import FlowNetwork, Process, Simulator, Sleep
from repro.sim.fluid import _VEC_FLOWS
from repro.sim.oracle import maxmin_allocate

#: a small fixed link pool: three shared links of uneven capacity
CAPACITIES = (7.0, 11.0, 3.0)

flow_spec = st.tuples(
    st.lists(st.integers(min_value=0, max_value=2), min_size=0, max_size=3, unique=True),
    st.floats(min_value=1.0, max_value=500.0),
    st.floats(min_value=0.0, max_value=8.0),
    st.one_of(st.none(), st.floats(min_value=0.5, max_value=20.0)),
)


def _drive(mode, specs, capacities=CAPACITIES):
    """Run a flow schedule on one engine mode; return (finishes, net)."""
    sim = Simulator()
    net = FlowNetwork(sim, mode=mode)
    links = [net.add_link(c) for c in capacities]
    finishes = {}

    def starter(idx, route, nbytes, start, cap):
        if start:
            yield Sleep(start)
        ev = net.start_flow([links[i] for i in route], nbytes, rate_cap=cap)
        yield ev
        finishes[idx] = sim.now

    for idx, (route, nbytes, start, cap) in enumerate(specs):
        Process(sim, starter(idx, route, nbytes, start, cap))
    sim.run_to_completion()
    return finishes, net


def _oracle(net, flows):
    """The oracle's rates for ``flows``: their routes and caps."""
    capacities = {link_id: net.link(link_id).capacity for link_id in net.link_ids()}
    return maxmin_allocate(
        capacities, [flow.route for flow in flows], [flow.cap for flow in flows]
    )


class TestIncrementalMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(specs=st.lists(flow_spec, min_size=1, max_size=14), capacities=st.just(CAPACITIES))
    # flow 1's residual falls within _EPS_BYTES at t=0.01, off the
    # component flow 0 joins; both modes retire it in finish-time
    # order, behind flow 2 at t=0.013, not with flow 0 at t=0.011
    @example(
        specs=[([0], 1.0, 0.01, None), ([1], 1.6e-3, 0.0, None), ([2], 3e-3, 0.01, None)],
        capacities=(1000.0, 0.1, 1.0),
    )
    def test_finish_times_and_counters_match(self, specs, capacities):
        fin_inc, net_inc = _drive("incremental", specs, capacities)
        fin_ref, net_ref = _drive("reference", specs, capacities)
        assert fin_inc.keys() == fin_ref.keys()
        for idx in fin_ref:
            assert fin_inc[idx] == pytest.approx(fin_ref[idx], rel=1e-9, abs=1e-9)
        assert net_inc.bytes_completed == pytest.approx(net_ref.bytes_completed)
        assert net_inc.flows_completed == net_ref.flows_completed
        assert net_inc.active_flows == net_ref.active_flows == 0

    @settings(max_examples=25, deadline=None)
    @given(st.lists(flow_spec, min_size=1, max_size=14))
    def test_link_bytes_match(self, specs):
        _, net_inc = _drive("incremental", specs)
        _, net_ref = _drive("reference", specs)
        for link_id, ref_bytes in net_ref.link_bytes.items():
            assert net_inc.link_bytes.get(link_id, 0.0) == pytest.approx(
                ref_bytes, rel=1e-9, abs=1e-6
            )

    @pytest.mark.parametrize(
        "joiner, expect",
        [
            # shares link 0: the re-solve finishes the 1e-5-byte residuals now
            (([0], 1.0, 0.99999, None), 0.99999),
            # disjoint private cap link: the residuals run out on their own
            (([], 1.0, 0.99999, 1.0), 1.0),
        ],
    )
    def test_residual_within_eps_when_a_flow_joins(self, joiner, expect):
        specs = [([0, 1, 2], 1.0, 0.0, None)] * 3 + [joiner]
        for mode in ("incremental", "reference"):
            finishes, _ = _drive(mode, specs)
            assert [finishes[i] for i in range(3)] == [expect] * 3, mode


class TestAllocationMatchesOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(flow_spec, min_size=1, max_size=12))
    def test_standing_rates_match_pure_maxmin(self, specs):
        """At a quiescent instant the incremental engine's allocation
        equals one oracle solve over the full active set."""
        sim = Simulator()
        net = FlowNetwork(sim)
        links = [net.add_link(c) for c in CAPACITIES]

        started = []

        def starter(route, nbytes, cap):
            ev = net.start_flow([links[i] for i in route], nbytes, rate_cap=cap)
            started.append(ev)
            yield ev

        for route, nbytes, _start, cap in specs:
            Process(sim, starter(route, nbytes, cap))
        # advance through the start instant only (no flow can finish
        # before 1/50 s given >= 1 byte over <= 50 B/s of headroom)
        sim.run(until=0.0)
        rates = net.current_rates()
        if not rates:
            return  # every spec was an uncapped empty route
        flows = [net._flows[fid] for fid in sorted(rates)]
        oracle = _oracle(net, flows)
        for flow, expect in zip(flows, oracle):
            assert rates[flow.flow_id] == pytest.approx(expect, rel=1e-9)

    def test_empty_route_with_cap_gets_the_cap(self):
        sim = Simulator()
        net = FlowNetwork(sim)
        done = []

        def prog():
            yield net.start_flow([], 10.0, rate_cap=2.0)
            done.append(sim.now)

        Process(sim, prog())
        sim.run_to_completion()
        assert done == [pytest.approx(5.0)]

    def test_batched_start_is_one_allocation(self):
        """N simultaneous starts collapse into a single solver call."""
        sim = Simulator()
        net = FlowNetwork(sim)
        link = net.add_link(10.0)

        def prog():
            yield net.start_flow([link], 10.0)

        for _ in range(16):
            Process(sim, prog())
        sim.run_to_completion()
        # one solve covers all 16 starts; the joint completion empties
        # the network, which needs no solve at all
        assert net.allocations == 1
        assert net.flows_completed == 16

    def test_disjoint_component_not_resolved(self):
        """A membership change on link A must not re-solve link B's flows."""
        sim = Simulator()
        net = FlowNetwork(sim)
        a, b = net.add_link(10.0), net.add_link(10.0)

        def prog(route, nbytes, start=0.0):
            if start:
                yield Sleep(start)
            yield net.start_flow(route, nbytes)

        Process(sim, prog([a], 100.0))  # alone until t=1, done at t=11
        Process(sim, prog([b], 100.0))  # never shares: done at t=10
        Process(sim, prog([a], 10.0, start=1.0))  # joins link a, done at t=3
        sim.run_to_completion()
        assert net.flows_completed == 3
        # solves: the t=0 batch (2 flows), the t=1 join (link a's 2
        # flows only), and the t=3 departure (link a's survivor); link
        # b's flow is never re-solved, and completions that empty a
        # component cost nothing
        assert net.allocations == 3
        assert net.flows_solved == 2 + 2 + 1



def _engine_and_oracle(capacities, routes, caps):
    """Start every flow at one instant as one component; return the
    engine's and the oracle's rates as ``float.hex`` lists."""
    sim = Simulator()
    net = FlowNetwork(sim)
    links = [net.add_link(capacities[link]) for link in range(len(capacities))]
    for route, cap in zip(routes, caps):
        net.start_flow([links[link] for link in route], 1e9, rate_cap=cap)
    rates = net.current_rates()
    assert (net.allocations, net.flows_solved) == (1, len(routes))
    assert net.link_ids() == links  # caps register no links
    flows = [net._flows[fid] for fid in sorted(rates)]
    oracle = _oracle(net, flows)
    return [rates[flow.flow_id].hex() for flow in flows], [r.hex() for r in oracle]


#: tie-heavy capacities: equal values force equal shares, the regime
#: where the saturation scan's live counts decide the last bits
_TIE_CAPACITY = st.sampled_from([0.5, 1.0, 2.0, 3.0])


@st.composite
def _component(draw, n_flows):
    """``n_flows`` routes (and optional rate caps) forming one component."""
    n_links = draw(st.integers(min_value=2, max_value=max(3, n_flows // 4)))
    capacities = {link: draw(_TIE_CAPACITY) for link in range(n_links)}
    routes, touched = [], [0]
    for _ in range(n_flows):
        # each flow crosses a link an earlier flow touched: one component
        extra = draw(st.lists(st.integers(0, n_links - 1), max_size=2))
        routes.append((draw(st.sampled_from(touched)), *extra))
        touched = sorted(set(touched).union(extra))
    maybe_cap = st.one_of(st.none(), _TIE_CAPACITY)
    caps = draw(st.lists(maybe_cap, min_size=n_flows, max_size=n_flows))
    return capacities, routes, caps


class TestComponentMatchesOracleExactly:
    """One component's allocation is the oracle's, bit for bit, whether
    the scalar loop (below ``_VEC_FLOWS``) or the CSR kernel solves it."""

    def test_live_count_tie_case(self):
        # fixing flow 0 at link 2's share leaves link 1 with one live
        # member fewer; the oracle rechecks link 1 with the live count
        engine, oracle = _engine_and_oracle(
            {0: 3.0, 1: 2.0, 2: 2.0}, [(2,), (1, 0), (0, 1, 2), (2, 1)], [None] * 4
        )
        assert engine == oracle
        assert engine[1] == "0x1.5555555555557p-1"

    @pytest.mark.parametrize("n_flows", [4, _VEC_FLOWS - 1, _VEC_FLOWS, _VEC_FLOWS + 1])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_current_rates_equal_oracle(self, n_flows, data):
        engine, oracle = _engine_and_oracle(*data.draw(_component(n_flows)))
        assert engine == oracle


@pytest.mark.parametrize("mode", ["incremental", "reference"])
def test_retired_cap_links_leave_link_bytes(mode):
    """A capped flow counts its bytes on its public links only."""
    _, net = _drive(mode, [([0], 5.0, 0.5 * k, 4.0) for k in range(8)])
    assert net.flows_completed == 8
    assert set(net.link_bytes) <= set(net.link_ids())
    assert net.link_bytes[0] == pytest.approx(40.0)


def _capped_rounds(mode, n_links=6, rounds=4, per_round=12, gap=1000.0):
    """Rate-capped flows in rounds separated by idle gaps.

    Returns (net, links touched, whether the network was empty at
    every gap).
    """
    sim = Simulator()
    net = FlowNetwork(sim, mode=mode)
    links = [net.add_link(5.0 + 3.0 * i, f"l{i}") for i in range(n_links)]
    touched: set[int] = set()
    idle = []

    def flow(route, nbytes, start, cap):
        yield Sleep(start)
        yield net.start_flow(route, nbytes, rate_cap=cap)

    def watcher():
        for r in range(1, rounds):
            yield Sleep(gap * r - 1.0 - sim.now)
            idle.append(net.active_flows == 0)

    for r in range(rounds):
        for k in range(per_round):
            route = [links[(r + k + j) % n_links] for j in range(1 + k % 3)]
            touched.update(route)
            Process(sim, flow(route, 50.0 + 7.0 * k, gap * r + 0.1 * k, 2.0 + k % 4))
    Process(sim, watcher())
    sim.run_to_completion()
    return net, touched, all(idle) and len(idle) == rounds - 1


def test_link_bytes_carry_across_idle_gaps():
    """Byte counts carry across idle gaps, and the two modes count
    the same integer-sized flows to the same bytes exactly."""
    net, touched, emptied = _capped_rounds("incremental")
    ref, _, _ = _capped_rounds("reference")
    assert emptied
    assert net.flows_completed == ref.flows_completed == 48
    assert net.link_bytes == ref.link_bytes
    assert set(net.link_bytes) == set(touched)
    assert net.link_ids() == ref.link_ids() == list(range(6))


@pytest.mark.parametrize("snapshot_at", [1.0, 3.0, None])
def test_link_bytes_equal_across_modes_mid_run(snapshot_at):
    """``link_bytes`` is the same dict in both modes, ``==`` not approx,
    also while flows are active: rates are binary fractions here, so
    both modes settle every residual exactly."""

    def drive(mode):
        sim = Simulator()
        net = FlowNetwork(sim, mode=mode)
        a, b = net.add_link(6.0, "a"), net.add_link(4.0, "b")
        snapshot = []

        def flow(route, nbytes, start, cap=None):
            if start:
                yield Sleep(start)
            yield net.start_flow(route, nbytes, rate_cap=cap)

        def watcher():
            yield Sleep(snapshot_at)
            snapshot.append((net.active_flows, net.link_bytes))

        Process(sim, flow([a], 16, 0.0))
        Process(sim, flow([a, b], 32, 0.0, cap=2.0))
        Process(sim, flow([b], 24, 2.0))
        Process(sim, flow([], 6, 0.5, cap=1.0))
        if snapshot_at is not None:
            Process(sim, watcher())
        sim.run_to_completion()
        return snapshot or [(0, net.link_bytes)]

    inc, ref = drive("incremental"), drive("reference")
    assert inc == ref
    active, carried = inc[0]
    if snapshot_at is None:
        assert (active, carried) == (0, {0: 48.0, 1: 56.0})
    else:
        assert active > 0


def test_capped_des_run_registers_no_links():
    """A t3e sendrecv round caps every message at the ping-pong rate
    without adding a link before, during or after the run."""
    from repro.beff.methods import step
    from repro.beff.patterns import ring_patterns
    from repro.machines import get_machine
    from repro.mpi.comm import World

    fabric = get_machine("t3e").fabric_factory(4)()
    assert fabric.params.msg_rate_cap is not None
    net = fabric.flows
    before = (net.num_links, net.link_ids())
    during = []

    def watcher():
        for _ in range(200):
            yield Sleep(5e-6)
            if net.active_flows:
                during.append((net.num_links, net.link_ids()))

    def program(comm):
        yield from comm.barrier()
        yield from step("sendrecv", comm, ring_patterns(4)[0], 256 * 1024)

    Process(fabric.sim, watcher())
    World(fabric).run(program)
    assert net.flows_completed > 0
    assert during and all(seen == before for seen in during)
    assert (net.num_links, net.link_ids()) == before
