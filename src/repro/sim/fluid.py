"""Max-min fair fluid-flow network (incremental engine).

Concurrent message transfers are modelled as *flows*: a flow has a
route (a list of link ids), a byte count, and — at any instant — a
rate assigned by progressive-filling max-min fairness over the links
it crosses.  Whenever the set of active flows changes, all flows'
progress is settled at the current virtual time and rates are
recomputed.

This is the mechanism that distinguishes b_eff from a ping-pong
benchmark: when every process communicates at once, flows share
links, per-flow bandwidth drops, and the drop depends on the
topology and on where the communication partners sit — exactly the
effect the paper's ring vs. random comparison measures.

The engine comes in two modes:

``incremental`` (default)
    The production path.  Membership changes are *batched*: flows
    started (or finished) at the same virtual instant are absorbed
    into one end-of-instant "allocation pending" flush (the engine's
    tail lane), so the N simultaneous ``start_flow`` calls that follow
    a barrier trigger one allocation, not N — however the instant's
    handlers interleave.  Each flush re-solves only the connected
    component of links the changed flows touch (max-min fairness
    decomposes exactly over link-connected components).  A component
    below ``_VEC_FLOWS`` flows runs a scalar loop over cached per-link
    member tables and live member *counts*; a larger one runs the CSR
    kernel (:class:`repro.sim.kernel.RouteIncidence`).  Both compute
    exactly :func:`repro.sim.oracle.maxmin_allocate` on the
    component's routes, ``float.hex`` for ``float.hex``.  Settling
    only advances each flow's residual bytes, and completions pop from
    a min-heap of finish times instead of a scan over all flows.

``reference``
    The seed behaviour, kept as the correctness (and wall-clock
    "before") oracle: every membership change immediately re-runs
    :func:`repro.sim.oracle.maxmin_allocate` over *all* active flows,
    settling walks every flow's route, and the completion timer scans
    every flow.  ``benchmarks/test_bench_fluid_scaling.py`` asserts
    the two modes agree to float precision (one global solve and one
    solve per component can differ in the last bits of tolerance
    ties) and records their speed ratio.

Both modes treat a per-flow rate cap as a solver-local pseudo-link
``~flow_id`` appended to the flow's route (capacity = the cap, its
only member the flow), so no :class:`Link` is registered per message,
and both count a link's carried bytes when a flow retires (see
:attr:`FlowNetwork.link_bytes`).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.sim.engine import EventHandle, Simulator
from repro.sim.kernel import RouteIncidence
from repro.sim.oracle import maxmin_allocate
from repro.sim.process import SimEvent

#: residual bytes below which a flow counts as finished (guards float error)
_EPS_BYTES = 1e-3
#: slack when completing flows at a shared finish instant
_EPS_TIME = 1e-12
#: component size from which the vectorized CSR kernel beats the
#: per-round Python scan (small sendrecv components stay on the dict path)
_VEC_FLOWS = 64

_MODES = ("incremental", "reference")


@dataclass(slots=True)
class Link:
    """A unidirectional capacity shared by the flows routed across it."""

    capacity: float  # bytes per second
    name: str = ""

    def __post_init__(self) -> None:
        if not (self.capacity > 0.0) or math.isinf(self.capacity):
            raise ValueError(f"link capacity must be finite and positive: {self.capacity!r}")


@dataclass(slots=True)
class Flow:
    """An in-flight transfer; internal bookkeeping for FlowNetwork."""

    flow_id: int
    route: tuple[int, ...]
    remaining: float
    total_bytes: float
    event: SimEvent
    rate: float = 0.0
    finish_time: float = math.inf
    cap: float | None = None
    #: the solver's route: ``route`` plus, for a capped flow, the cap's
    #: pseudo-link ``~flow_id`` (negative, so it never names a Link)
    key_route: tuple[int, ...] = ()
    meta: object = None


class FlowNetwork:
    """Shared-bandwidth network with progressive-filling allocation.

    Links are created once (usually by a :mod:`repro.topology` builder)
    and flows come and go as messages are transferred.  A single
    pending "next completion" timer is maintained; any membership
    change settles progress and recomputes the allocation — batched
    and component-local in ``incremental`` mode, immediate and global
    in ``reference`` mode (see the module docstring).
    """

    __slots__ = (
        "sim",
        "mode",
        "_incremental",
        "_links",
        "_next_link_id",
        "_flows",
        "_next_flow_id",
        "_last_settle",
        "_timer",
        "bytes_completed",
        "flows_completed",
        "_link_bytes",
        "_members",
        "_dirty_links",
        "_unlinked_flows",
        "_flush_handle",
        "_finish_heap",
        "allocations",
        "flows_solved",
    )

    def __init__(self, sim: Simulator, mode: str = "incremental") -> None:
        if mode not in _MODES:
            raise ValueError(f"unknown fluid mode {mode!r}; expected one of {_MODES}")
        self.sim = sim
        self.mode = mode
        self._incremental = mode == "incremental"
        self._links: dict[int, Link] = {}
        self._next_link_id = 0
        self._flows: dict[int, Flow] = {}
        self._next_flow_id = 0
        self._last_settle = 0.0
        self._timer: EventHandle | None = None
        #: statistics: total bytes completed, flow count
        self.bytes_completed = 0.0
        self.flows_completed = 0
        #: bytes of retired flows per link (hot-link analysis)
        self._link_bytes: dict[int, float] = {}
        #: link id -> {flow_id: None} of flows crossing it (insertion order)
        self._members: dict[int, dict[int, None]] = {}
        #: links whose membership changed since the last flush
        self._dirty_links: set[int] = set()
        #: capped flows started with an empty route since the last
        #: flush: no link reaches them, so the flush starts from them
        self._unlinked_flows: list[int] = []
        #: pending zero-delay allocation flush (batches same-instant changes)
        self._flush_handle: EventHandle | None = None
        #: lazy min-heap of (finish_time, flow_id); stale entries skipped
        self._finish_heap: list[tuple[float, int]] = []
        #: observability: solver invocations and flows re-solved
        self.allocations = 0
        self.flows_solved = 0

    # -- links ---------------------------------------------------------

    def add_link(self, capacity: float, name: str = "") -> int:
        """Register a link and return its id for use in routes."""
        link_id = self._next_link_id
        self._next_link_id += 1
        self._links[link_id] = Link(capacity, name)
        return link_id

    def link(self, link_id: int) -> Link:
        return self._links[link_id]

    def set_capacity(self, link_id: int, capacity: float) -> None:
        """Change a link's capacity mid-run (fault injection hook).

        In-flight flows are settled at the current instant and the
        allocation is recomputed — component-local and batched with
        any other same-instant changes in ``incremental`` mode,
        immediately and globally in ``reference`` mode, so both modes
        see the new capacity from the same virtual time onwards.
        """
        if not (capacity > 0.0) or math.isinf(capacity):
            raise ValueError(f"link capacity must be finite and positive: {capacity!r}")
        link = self._links[link_id]
        if link.capacity == capacity:
            return
        if self._incremental:
            link.capacity = capacity
            self._dirty_links.add(link_id)
            self._request_flush()
        else:
            self._settle()
            link.capacity = capacity
            self._reallocate_reference((link_id,))

    def link_ids(self) -> list[int]:
        """All link ids, ascending."""
        return sorted(self._links)

    def find_links(self, pattern: str) -> list[int]:
        """Ids of links whose name contains ``pattern``, ascending."""
        return sorted(
            link_id for link_id, link in self._links.items() if pattern in link.name
        )

    @property
    def num_links(self) -> int:
        return len(self._links)

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    @property
    def link_bytes(self) -> dict[int, float]:
        """Bytes carried per link (hot-link analysis), by ascending link id.

        A retired flow counts its whole size on every link of its route
        (once per crossing); an active flow counts the bytes it had
        moved by the last settle.  Retired sizes are integers in
        practice, so their sums are exact and independent of the order
        flows retire in.  Links that have carried nothing are omitted.
        """
        out = dict(self._link_bytes)
        for flow in self._flows.values():
            moved = flow.total_bytes - flow.remaining
            if moved > 0.0:
                for link_id in flow.route:
                    out[link_id] = out.get(link_id, 0.0) + moved
        return dict(sorted(out.items()))

    # -- flows ---------------------------------------------------------

    def start_flow(
        self,
        route: list[int] | tuple[int, ...],
        nbytes: float,
        rate_cap: float | None = None,
        meta: object = None,
    ) -> SimEvent:
        """Begin transferring ``nbytes`` across ``route``.

        Returns a :class:`SimEvent` that triggers when the last byte
        arrives.  ``rate_cap`` bounds this flow's rate regardless of
        link shares (models a NIC or memory-copy engine limit).  The
        solvers treat it as a pseudo-link ``~flow_id`` appended to the
        route (capacity ``rate_cap``, this flow its only member), so
        the fairness computation stays uniform without registering a
        link per message.

        An empty route or zero bytes completes immediately (zero-cost
        local transfer), unless the empty route is capped.
        """
        if nbytes < 0:
            raise ValueError(f"negative flow size: {nbytes!r}")
        flow_id = self._next_flow_id
        event = SimEvent(self.sim, name=("flow{}", flow_id))
        if nbytes == 0 or (not route and rate_cap is None):
            self.sim.schedule(0.0, lambda: event.trigger(0.0))
            return event
        for link_id in route:
            if link_id not in self._links:
                raise KeyError(f"unknown link id {link_id!r} in route")
        route = tuple(route)
        key_route = route
        if rate_cap is not None:
            if not (rate_cap > 0.0) or math.isinf(rate_cap):
                raise ValueError(f"rate cap must be finite and positive: {rate_cap!r}")
            key_route = route + (~flow_id,)
        flow = Flow(
            flow_id=flow_id,
            route=route,
            remaining=float(nbytes),
            total_bytes=float(nbytes),
            event=event,
            cap=rate_cap,
            key_route=key_route,
            meta=meta,
        )
        self._next_flow_id += 1
        if self._incremental:
            # Rates only matter once time advances, so joining flows can
            # wait for the end-of-instant flush; N simultaneous starts
            # then cost one allocation.
            self._flows[flow_id] = flow
            if route:
                members = self._members
                for link_id in route:
                    members.setdefault(link_id, {})[flow_id] = None
                self._dirty_links.update(route)
            else:
                self._unlinked_flows.append(flow_id)
            self._request_flush()
        else:
            # seed behaviour: settle + immediate full reallocation (the
            # member table is an incremental-mode structure; the
            # reference solver rebuilds membership from scratch)
            self._settle()
            self._flows[flow_id] = flow
            self._reallocate_reference(key_route)
        return event

    def current_rates(self) -> dict[int, float]:
        """Allocated rate per active flow id (forces any pending flush).

        Test/inspection hook: in incremental mode rates assigned at
        the current instant may still be pending in the batched flush;
        this applies them first so the returned allocation is exactly
        what the next time advance will use.
        """
        if self._flush_handle is not None:
            self.sim.cancel(self._flush_handle)
            self._flush()
        return {fid: flow.rate for fid, flow in self._flows.items()}

    # -- internals -----------------------------------------------------

    def _settle(self) -> None:
        """Advance every active flow's remaining bytes to the current time."""
        now = self.sim.now
        dt = now - self._last_settle
        self._last_settle = now
        if dt <= 0.0:
            return
        for flow in self._flows.values():
            moved = flow.rate * dt
            if moved >= flow.remaining:
                flow.remaining = 0.0
            else:
                flow.remaining -= moved

    def _request_flush(self) -> None:
        # Tail lane: the flush runs after *every* ordinary event of the
        # current instant, so one allocation absorbs all of the
        # instant's membership changes no matter how its handlers were
        # interleaved (same-time tie-breaking included).
        if self._flush_handle is None:
            self._flush_handle = self.sim.schedule_tail(self._flush)

    def _flush(self) -> None:
        """Apply batched membership changes: re-solve the affected component.

        Max-min fairness decomposes over connected components of the
        flow/link sharing graph, so only flows reachable (via shared
        links) from a dirty link can see their rate change; everyone
        else keeps rate and finish time untouched.  A capped flow with
        an empty route is its own component, reached from
        ``_unlinked_flows`` instead.
        """
        self._flush_handle = None
        self._settle()
        dirty, self._dirty_links = self._dirty_links, set()
        members = self._members
        # Affected component: BFS links <-> member flows from the dirty set.
        seen_links: set[int] = set()
        comp_flows = self._unlinked_flows
        seen_flows = set(comp_flows)
        self._unlinked_flows = []
        stack = sorted(link_id for link_id in dirty if link_id in members)
        while stack:
            link_id = stack.pop()
            if link_id in seen_links:
                continue
            seen_links.add(link_id)
            for fid in members[link_id]:
                if fid not in seen_flows:
                    seen_flows.add(fid)
                    comp_flows.append(fid)
                    for other in self._flows[fid].route:
                        if other not in seen_links:
                            stack.append(other)
        if comp_flows:
            comp_flows.sort()
            rates = self._solve_component(comp_flows)
            now = self.sim.now
            heap = self._finish_heap
            for fid in comp_flows:
                flow = self._flows[fid]
                rate = rates[fid]
                flow.rate = rate
                if rate <= 0.0 or math.isinf(rate):  # pragma: no cover - defensive
                    flow.finish_time = math.inf
                    continue
                if flow.remaining <= _EPS_BYTES:
                    flow.finish_time = now
                else:
                    flow.finish_time = now + flow.remaining / rate
                heapq.heappush(heap, (flow.finish_time, fid))
        self._arm_timer()

    def _solve_component(self, flow_ids: list[int]) -> dict[int, float]:
        """Progressive filling over one component, with cached counts.

        Exactly :func:`maxmin_allocate` on the component's routes
        (identical bottleneck divisions and residual subtractions in the
        same per-link order), but the per-round ``sum(1 for i in members
        if i in unfixed)`` rescans are replaced by member counts that
        the saturation scan decrements as it fixes each flow — the live
        counts the oracle recounts.  A cap enters after its flow's route
        links, where ``key_route`` puts its pseudo-link.
        """
        self.allocations += 1
        self.flows_solved += len(flow_ids)
        if len(flow_ids) >= _VEC_FLOWS:
            return self._solve_component_vec(flow_ids)
        flows = self._flows
        links = self._links
        members = self._members
        residual: dict[int, float] = {}
        counts: dict[int, int] = {}
        for fid in flow_ids:
            flow = flows[fid]
            for link_id in flow.route:
                if link_id in residual:
                    counts[link_id] += 1
                else:
                    residual[link_id] = links[link_id].capacity
                    counts[link_id] = 1
            if flow.cap is not None:
                residual[~fid] = flow.cap
                counts[~fid] = 1
        rates: dict[int, float] = {}
        unfixed = dict.fromkeys(flow_ids)
        while unfixed:
            bottleneck = math.inf
            for link_id, count in counts.items():
                if count == 0:
                    continue
                share = residual[link_id] / count
                if share < bottleneck:
                    bottleneck = share
            if math.isinf(bottleneck):  # pragma: no cover - defensive
                for fid in unfixed:
                    rates[fid] = math.inf
                break
            tol = bottleneck * (1.0 + 1e-12)
            newly_fixed: list[int] = []
            for link_id, count in counts.items():
                if count == 0:
                    continue
                if residual[link_id] / count <= tol:
                    # a cap's pseudo-link has its own flow as sole member
                    for fid in members[link_id] if link_id >= 0 else (~link_id,):
                        if fid in unfixed:
                            newly_fixed.append(fid)
                            del unfixed[fid]
                            for other in flows[fid].key_route:
                                counts[other] -= 1
            for fid in newly_fixed:
                rates[fid] = bottleneck
                for link_id in flows[fid].key_route:
                    residual[link_id] = max(0.0, residual[link_id] - bottleneck)
        return rates

    def _solve_component_vec(self, flow_ids: list[int]) -> dict[int, float]:
        """Large components: the CSR kernel, bit-identical to the loop.

        Both compute :func:`maxmin_allocate` exactly, so the dispatch
        threshold cannot change any allocation (see the property tests
        in ``tests/test_sim_kernel.py``).
        """
        comp = [self._flows[fid] for fid in flow_ids]
        incidence = RouteIncidence(
            [flow.route for flow in comp], [flow.cap for flow in comp]
        )
        links = self._links
        capacities = np.fromiter(
            (links[link_id].capacity for link_id in incidence.link_ids),
            dtype=np.float64,
            count=incidence.n_links,
        )
        return dict(zip(flow_ids, incidence.solve(capacities).tolist()))

    def _arm_timer(self) -> None:
        """(Re)schedule the single completion timer from the finish heap."""
        if self._timer is not None:
            self.sim.cancel(self._timer)
            self._timer = None
        heap = self._finish_heap
        flows = self._flows
        while heap:
            finish, fid = heap[0]
            flow = flows.get(fid)
            if flow is None or flow.finish_time != finish:
                heapq.heappop(heap)  # stale: flow gone or re-allocated
                continue
            delay = finish - self.sim.now
            self._timer = self.sim.schedule(delay if delay > 0.0 else 0.0, self._on_timer)
            return

    def _retire(self, flow: Flow) -> None:
        """Remove a completed flow from the tables; count its bytes."""
        fid = flow.flow_id
        del self._flows[fid]
        nbytes = flow.total_bytes
        link_bytes = self._link_bytes
        for link_id in flow.route:
            link_bytes[link_id] = link_bytes.get(link_id, 0.0) + nbytes
        if self._incremental:
            members = self._members
            for link_id in flow.route:
                entry = members.get(link_id)
                if entry is not None:
                    entry.pop(fid, None)
                    if not entry:
                        del members[link_id]
                self._dirty_links.add(link_id)
        self.bytes_completed += nbytes
        self.flows_completed += 1

    def hottest_links(self, top: int = 10) -> list[tuple[str, float]]:
        """The most-trafficked links as (name, bytes), descending.

        Use this to explain contention results (e.g. which torus links
        the random placement saturates).
        """
        ranked = sorted(self.link_bytes.items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            (self._links[link_id].name or str(link_id), nbytes)
            for link_id, nbytes in ranked[:top]
        ]

    def _on_timer(self) -> None:
        self._timer = None
        self._settle()
        now = self.sim.now
        if not self._incremental:
            # the incremental rule: retire in finish-time order, up to
            # the first flow neither due nor within _EPS_BYTES
            done = list(
                itertools.takewhile(
                    lambda f: f.finish_time <= now + _EPS_TIME
                    or f.remaining <= _EPS_BYTES,
                    sorted(self._flows.values(), key=lambda f: (f.finish_time, f.flow_id)),
                )
            )
            for flow in done:
                self._retire(flow)
            self._reallocate_reference(
                tuple(link_id for flow in done for link_id in flow.route)
            )
            for flow in done:
                flow.event.trigger(now)
            return
        heap = self._finish_heap
        flows = self._flows
        done: list[Flow] = []
        while heap:
            finish, fid = heap[0]
            flow = flows.get(fid)
            if flow is None or flow.finish_time != finish:
                heapq.heappop(heap)
                continue
            if finish <= now + _EPS_TIME or flow.remaining <= _EPS_BYTES:
                heapq.heappop(heap)
                # retire immediately so a duplicate heap entry for this
                # flow (same finish time pushed by two flushes) reads as
                # stale rather than completing the flow twice
                self._retire(flow)
                done.append(flow)
            else:
                break
        if done:
            # Batch the departures (and any flows the resumed waiters
            # start at this instant) into one allocation flush.
            self._request_flush()
        else:  # pragma: no cover - stale timer
            self._arm_timer()
        for flow in done:
            flow.event.trigger(now)

    # -- reference (seed) path -----------------------------------------

    def _reallocate_reference(self, touched: tuple[int, ...] = ()) -> None:
        """Seed behaviour: full-network oracle allocation + flow scan.

        ``touched`` are the links whose membership or capacity just
        changed.  A flow sharing a link chain with them whose residual
        is within ``_EPS_BYTES`` finishes now, as the incremental flush
        finishes it when it re-solves that component.
        """
        if self._timer is not None:
            self.sim.cancel(self._timer)
            self._timer = None
        if not self._flows:
            return
        self.allocations += 1
        self.flows_solved += len(self._flows)

        flows = list(self._flows.values())
        capacities = {
            link_id: self._links[link_id].capacity
            for flow in flows
            for link_id in flow.route
        }
        rates = maxmin_allocate(
            capacities, [flow.route for flow in flows], [flow.cap for flow in flows]
        )
        for flow, rate in zip(flows, rates):
            flow.rate = rate

        # Completion times and the single pending timer.
        if any(flow.remaining <= _EPS_BYTES for flow in flows):
            near = self._reference_component(touched)
        else:
            near = set()
        now = self.sim.now
        earliest = math.inf
        for flow in self._flows.values():
            if flow.rate <= 0.0:  # pragma: no cover - defensive
                flow.finish_time = math.inf
                continue
            if flow.remaining <= _EPS_BYTES and flow.flow_id in near:
                flow.finish_time = now
            else:
                flow.finish_time = now + flow.remaining / flow.rate
            if flow.finish_time < earliest:
                earliest = flow.finish_time
        if not math.isinf(earliest):
            self._timer = self.sim.schedule(earliest - now, self._on_timer)

    def _reference_component(self, touched: tuple[int, ...]) -> set[int]:
        """Ids of the active flows linked to ``touched`` through shared links."""
        on_link: dict[int, list[int]] = {}
        for flow in self._flows.values():
            for link_id in flow.key_route:
                on_link.setdefault(link_id, []).append(flow.flow_id)
        near: set[int] = set()
        seen: set[int] = set()
        stack = list(touched)
        while stack:
            link_id = stack.pop()
            if link_id in seen:
                continue
            seen.add(link_id)
            for fid in on_link.get(link_id, ()):
                if fid not in near:
                    near.add(fid)
                    stack.extend(self._flows[fid].key_route)
        return near
