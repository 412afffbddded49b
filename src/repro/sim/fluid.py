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
    component's routes, ``float.hex`` for ``float.hex``.  Progress
    settling charges per-link byte counters from per-link aggregate
    rates maintained on membership change, and completions pop from a
    min-heap of finish times instead of a scan over all flows.

``reference``
    The seed behaviour, kept as the correctness (and wall-clock
    "before") oracle: every membership change immediately re-runs
    :func:`repro.sim.oracle.maxmin_allocate` over *all* active flows,
    settling walks every flow's route, and the completion timer scans
    every flow.  ``benchmarks/test_bench_fluid_scaling.py`` asserts
    the two modes agree to float precision (one global solve and one
    solve per component can differ in the last bits of tolerance
    ties) and records their speed ratio.
"""

from __future__ import annotations

import heapq
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
    private_link: int | None = None
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
        "_rate_slot",
        "_rate_arr",
        "_bytes_arr",
        "_slots_used",
        "_free_slots",
        "_pending_totals",
        "_dirty_links",
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
        #: bytes carried per link in reference mode (hot-link analysis);
        #: the incremental engine keeps the same totals in slotted arrays
        self._link_bytes: dict[int, float] = {}
        #: link id -> {flow_id: None} of flows crossing it (insertion order)
        self._members: dict[int, dict[int, None]] = {}
        # Incremental-mode settle accounting is slotted: every link that
        # has carried a flow occupies a slot in a pair of dense numpy
        # arrays so one whole-array `bytes += rate * dt` replaces the
        # per-link Python loop.  A public link keeps its slot for the
        # life of the network (an idle slot has rate 0.0, and settling
        # it adds an exact 0.0, so the addition chain per link is the
        # one the dict-based accounting performed).  Private per-flow
        # cap links never recur, so their slots are recycled via a
        # free list; otherwise they would grow the arrays without bound.
        #: link id -> slot index in the rate/bytes arrays
        self._rate_slot: dict[int, int] = {}
        self._rate_arr: np.ndarray = np.zeros(0, dtype=np.float64)
        self._bytes_arr: np.ndarray = np.zeros(0, dtype=np.float64)
        self._slots_used = 0
        self._free_slots: list[int] = []
        #: per-link aggregate rates handed from the vectorized solver
        #: to the same flush (avoids re-summing member rates in Python)
        self._pending_totals: dict[int, float] | None = None
        #: links whose membership changed since the last flush
        self._dirty_links: set[int] = set()
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
        """All public (non-private-cap) link ids, ascending."""
        return sorted(
            link_id for link_id, link in self._links.items()
            if not link.name.startswith("cap:")
        )

    def find_links(self, pattern: str) -> list[int]:
        """Ids of public links whose name contains ``pattern``, ascending."""
        return sorted(
            link_id
            for link_id, link in self._links.items()
            if not link.name.startswith("cap:") and pattern in link.name
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

        A private cap link's count is dropped when its flow retires, so
        the keys are public links plus the caps of active flows.
        Reference mode copies its accounting dict; incremental mode
        materializes the same totals from the slotted arrays.
        """
        if not self._incremental:
            return dict(sorted(self._link_bytes.items()))
        barr = self._bytes_arr
        slot_of = self._rate_slot
        out: dict[int, float] = {}
        for link_id in sorted(slot_of):
            carried = float(barr[slot_of[link_id]])
            if carried != 0.0:
                out[link_id] = carried
        return out

    # -- slotted rate/byte accounting (incremental mode) -----------------

    def _slot_for(self, link_id: int) -> int:
        """Allocate a zeroed slot for ``link_id``, which has none yet."""
        free = self._free_slots
        if free:
            slot = free.pop()
        else:
            slot = self._slots_used
            if slot == len(self._rate_arr):
                cap = max(64, 2 * len(self._rate_arr))
                for name in ("_rate_arr", "_bytes_arr"):
                    old = getattr(self, name)
                    grown = np.zeros(cap, dtype=np.float64)
                    grown[: len(old)] = old
                    setattr(self, name, grown)
            self._slots_used += 1
        self._rate_slot[link_id] = slot
        return slot

    def _drop_slot(self, link_id: int) -> None:
        """Release a private cap link's slot (and its byte count)."""
        slot = self._rate_slot.pop(link_id, None)
        if slot is None:
            return
        self._rate_arr[slot] = 0.0
        self._bytes_arr[slot] = 0.0
        self._free_slots.append(slot)

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
        link shares (models a NIC or memory-copy engine limit); it is
        implemented as a private link appended to the route so the
        fairness computation stays uniform.

        An empty route or zero bytes completes immediately (zero-cost
        local transfer).
        """
        if nbytes < 0:
            raise ValueError(f"negative flow size: {nbytes!r}")
        event = SimEvent(self.sim, name=("flow{}", self._next_flow_id))
        if nbytes == 0 or (not route and rate_cap is None):
            self.sim.schedule(0.0, lambda: event.trigger(0.0))
            return event
        for link_id in route:
            if link_id not in self._links:
                raise KeyError(f"unknown link id {link_id!r} in route")
        private = None
        full_route = tuple(route)
        if rate_cap is not None:
            private = self.add_link(rate_cap, name=f"cap:flow{self._next_flow_id}")
            full_route = full_route + (private,)
        flow = Flow(
            flow_id=self._next_flow_id,
            route=full_route,
            remaining=float(nbytes),
            total_bytes=float(nbytes),
            event=event,
            private_link=private,
            meta=meta,
        )
        self._next_flow_id += 1
        if self._incremental:
            # Rates only matter once time advances, so joining flows can
            # wait for the end-of-instant flush; N simultaneous starts
            # then cost one allocation.
            self._flows[flow.flow_id] = flow
            for link_id in full_route:
                self._members.setdefault(link_id, {})[flow.flow_id] = None
            self._dirty_links.update(full_route)
            self._request_flush()
        else:
            # seed behaviour: settle + immediate full reallocation (the
            # member table is an incremental-mode structure; the
            # reference solver rebuilds membership from scratch)
            self._settle()
            self._flows[flow.flow_id] = flow
            self._reallocate_reference(full_route)
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
        if not self._incremental:
            link_bytes = self._link_bytes
            for flow in self._flows.values():
                moved = min(flow.rate * dt, flow.remaining)
                flow.remaining -= moved
                if moved > 0.0:
                    for link_id in flow.route:
                        link_bytes[link_id] = link_bytes.get(link_id, 0.0) + moved
            return
        # Charge links from the slotted aggregate rates: one whole-array
        # op instead of a Python loop over active links.  Released slots
        # carry rate 0.0, so their `+= 0.0 * dt` contribution is exact.
        used = self._slots_used
        if used:
            self._bytes_arr[:used] += self._rate_arr[:used] * dt
        # ... then advance flows, refunding the (float-slop) overshoot of
        # any flow that ran out of bytes before the interval ended.
        slot_of = self._rate_slot
        barr = self._bytes_arr
        for flow in self._flows.values():
            moved = flow.rate * dt
            if moved >= flow.remaining:
                excess = moved - flow.remaining
                flow.remaining = 0.0
                if excess > 0.0:
                    for link_id in flow.route:
                        barr[slot_of[link_id]] -= excess
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
        else keeps rate and finish time untouched.
        """
        self._flush_handle = None
        self._settle()
        dirty, self._dirty_links = self._dirty_links, set()
        members = self._members
        # Affected component: BFS links <-> member flows from the dirty set.
        comp_links: list[int] = []
        seen_links: set[int] = set()
        comp_flows: list[int] = []
        seen_flows: set[int] = set()
        stack = sorted(link_id for link_id in dirty if link_id in members)
        while stack:
            link_id = stack.pop()
            if link_id in seen_links:
                continue
            seen_links.add(link_id)
            comp_links.append(link_id)
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
            rate_arr = self._rate_arr
            pending, self._pending_totals = self._pending_totals, None
            rate_of = rates.__getitem__
            for link_id in comp_links:
                if pending is not None:
                    total = pending[link_id]
                else:
                    total = sum(map(rate_of, members[link_id]))
                slot = self._rate_slot.get(link_id)
                if slot is None:
                    slot = self._slot_for(link_id)
                    rate_arr = self._rate_arr  # may have grown
                rate_arr[slot] = total
        self._arm_timer()

    def _solve_component(self, flow_ids: list[int]) -> dict[int, float]:
        """Progressive filling over one component, with cached counts.

        Exactly :func:`maxmin_allocate` on the component's routes
        (identical bottleneck divisions and residual subtractions in the
        same per-link order), but the per-round ``sum(1 for i in members
        if i in unfixed)`` rescans are replaced by member counts that
        the saturation scan decrements as it fixes each flow — the live
        counts the oracle recounts.
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
            for link_id in flows[fid].route:
                if link_id in residual:
                    counts[link_id] += 1
                else:
                    residual[link_id] = links[link_id].capacity
                    counts[link_id] = 1
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
                    for fid in members[link_id]:
                        if fid in unfixed:
                            newly_fixed.append(fid)
                            del unfixed[fid]
                            for other in flows[fid].route:
                                counts[other] -= 1
            for fid in newly_fixed:
                rates[fid] = bottleneck
                for link_id in flows[fid].route:
                    residual[link_id] = max(0.0, residual[link_id] - bottleneck)
        return rates

    def _solve_component_vec(self, flow_ids: list[int]) -> dict[int, float]:
        """Large components: the CSR kernel, bit-identical to the loop.

        Both compute :func:`maxmin_allocate` exactly, so the dispatch
        threshold cannot change any allocation (see the property tests
        in ``tests/test_sim_kernel.py``).
        """
        flows = self._flows
        links = self._links
        routes = [flows[fid].route for fid in flow_ids]
        incidence = RouteIncidence(routes)
        caps = np.fromiter(
            (links[link_id].capacity for link_id in incidence.link_ids),
            dtype=np.float64,
            count=incidence.n_links,
        )
        rate_vec = incidence.solve(caps)
        if not incidence.has_duplicate_pairs:
            # hand the flush the per-link aggregate rates too: the
            # bincount accumulates each link's members in the same
            # ascending-flow order the Python loop would
            totals = incidence.link_totals(rate_vec).tolist()
            self._pending_totals = dict(zip(incidence.link_ids, totals))
        return dict(zip(flow_ids, rate_vec.tolist()))

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
        """Remove a completed flow from all bookkeeping tables."""
        del self._flows[flow.flow_id]
        if self._incremental:
            members = self._members
            for link_id in flow.route:
                entry = members.get(link_id)
                if entry is not None:
                    entry.pop(flow.flow_id, None)
                    if not entry:
                        # the link goes idle but keeps its slot
                        del members[link_id]
                        self._rate_arr[self._rate_slot[link_id]] = 0.0
                self._dirty_links.add(link_id)
        if flow.private_link is not None:
            # private ids never recur: drop the cap link and its byte count
            del self._links[flow.private_link]
            self._dirty_links.discard(flow.private_link)
            self._drop_slot(flow.private_link)
            self._link_bytes.pop(flow.private_link, None)
        self.bytes_completed += flow.total_bytes
        self.flows_completed += 1

    def hottest_links(self, top: int = 10) -> list[tuple[str, float]]:
        """The most-trafficked links as (name, bytes), descending.

        Private per-flow cap links are excluded; use this to explain
        contention results (e.g. which torus links the random
        placement saturates).
        """
        ranked = sorted(self.link_bytes.items(), key=lambda kv: (-kv[1], kv[0]))
        out: list[tuple[str, float]] = []
        for link_id, nbytes in ranked:
            link = self._links.get(link_id)
            if link is None or link.name.startswith("cap:"):
                continue
            out.append((link.name or str(link_id), nbytes))
            if len(out) >= top:
                break
        return out

    def _on_timer(self) -> None:
        self._timer = None
        self._settle()
        now = self.sim.now
        if not self._incremental:
            done = [
                f
                for f in self._flows.values()
                if f.remaining <= _EPS_BYTES or f.finish_time <= now + _EPS_TIME
            ]
            for flow in done:
                self._retire(flow)
            self._reallocate_reference()
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
        finishes it when it re-solves that component.  (After a timer
        no such residual is left: ``_on_timer`` retires them all.)
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
        rates = maxmin_allocate(capacities, [flow.route for flow in flows])
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
            for link_id in flow.route:
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
                    stack.extend(self._flows[fid].route)
        return near
