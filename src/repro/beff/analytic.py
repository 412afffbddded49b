"""Analytic round model: price b_eff rounds without running the DES.

For large rank counts (Table 1 goes to 512 processors) the full event
simulation of every (pattern, size, method) loop is expensive.  The
patterns b_eff averages are *synchronized rounds*: all messages start
together and — being equal-sized — mostly finish together, so a
one-shot max-min allocation prices a round almost exactly.  The DES
backend remains the reference; ``benchmarks/test_bench_ablations.py``
quantifies the (small) difference.

Per-message time = startup latency (+ rendezvous handshake above the
eager threshold) + L / rate, with rates from progressive filling over
the concurrent messages of the phase.  A per-message cap (shared-memory
copy limit, protocol limit) is a pseudo-link at the end of its
message's route, as in the DES's fluid engine, so a phase's rates are
the DES's max-min rates for the same messages.

Rates are *size-independent*: progressive filling sees only routes,
capacities and per-message caps, never the byte count.  Each phase is
therefore priced through a memoised :class:`_PhasePlan` — routes
resolved, CSR incidence built and the capped max-min solved exactly
once per (pattern, method[, stride]), with every message size then
evaluated as a vectorized ``max(latency + L / rate)`` pass.  The
allocation itself runs on :class:`repro.sim.kernel.RouteIncidence`,
bit-identical to :func:`repro.sim.oracle.maxmin_allocate` — the scalar
reference oracle that :meth:`RoundModel.phase_time` prices with (the
property tests pin the plan path against it).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.beff.patterns import CommPattern
from repro.net.model import Fabric
from repro.sim.kernel import RouteIncidence
from repro.sim.oracle import maxmin_allocate
from repro.topology.base import Route


class _PhasePlan:
    """Size-independent pricing plan for one concurrent message phase.

    Built once per memoised phase from ``(src, dst, multiplicity)``
    message structure: routes resolved, per-message latencies for both
    protocol regimes precomputed, and the capped max-min solved on the
    CSR incidence.  :meth:`time_for` then prices any message size with
    one vectorized pass — every float operation identical to
    :meth:`RoundModel.phase_time` on the expanded message list.
    """

    __slots__ = (
        "fabric",
        "rates",
        "lat_eager",
        "lat_rdv",
        "mults",
        "mult_groups",
        "zero_msgs",
        "n_priced",
    )

    def __init__(
        self, model: "RoundModel", messages: list[tuple[int, int, int]]
    ) -> None:
        self.fabric = model.fabric
        routes: list[tuple[int, ...]] = []
        caps: list[float | None] = []
        lat_e: list[float] = []
        lat_r: list[float] = []
        mults: list[int] = []
        #: messages with no links (self/intra): (lat_eager, lat_rdv, mult)
        self.zero_msgs: list[tuple[float, float, int]] = []
        for src, dst, mult in messages:
            route = model._route(src, dst)
            le = self.fabric.startup_latency(route)
            lr = le + self.fabric.rendezvous_delay(route)
            if not route.links:
                self.zero_msgs.append((le, lr, mult))
                continue
            routes.append(route.links)
            caps.append(self.fabric.rate_cap_for(route))
            lat_e.append(le)
            lat_r.append(lr)
            mults.append(mult)
        self.n_priced = len(routes)
        if self.n_priced:
            incidence = RouteIncidence(routes, caps)
            self.rates = incidence.solve(
                np.asarray(
                    [model._capacities[link] for link in incidence.link_ids],
                    dtype=np.float64,
                )
            )
            self.lat_eager = np.asarray(lat_e, dtype=np.float64)
            self.lat_rdv = np.asarray(lat_r, dtype=np.float64)
            self.mults = np.asarray(mults, dtype=np.int64)
            # eagerness depends on the per-message byte count
            # (multiplicity x L), so group messages by multiplicity —
            # one is_eager call per distinct value per size
            self.mult_groups = {
                int(m): self.mults == m for m in np.unique(self.mults)
            }

    def time_for(self, nbytes: int) -> float:
        """Phase time for per-neighbor message size ``nbytes`` (>= 1)."""
        zero_latency = 0.0
        for le, lr, mult in self.zero_msgs:
            lat = le if self.fabric.is_eager(mult * nbytes) else lr
            zero_latency = max(zero_latency, lat)
        if not self.n_priced:
            return zero_latency
        eager = np.empty(self.n_priced, dtype=bool)
        for mult, group in self.mult_groups.items():
            eager[group] = self.fabric.is_eager(mult * nbytes)
        lat = np.where(eager, self.lat_eager, self.lat_rdv)
        longest = float(np.max(lat + (self.mults * nbytes) / self.rates))
        return max(longest, zero_latency)


class RoundModel:
    """Prices message phases on one fabric.

    All pattern-derived structure is memoised: routes per rank pair,
    the ring message lists and alltoallv stride table per pattern, and
    the final :meth:`round_time` per (pattern, size, method).
    Repetition loops and parameter sweeps therefore pay for each
    distinct allocation once (``CommPattern`` is a frozen dataclass,
    so patterns hash by value and equal patterns share cache lines).
    """

    def __init__(self, fabric: Fabric) -> None:
        self.fabric = fabric
        self.topology = fabric.topology
        self._capacities = {
            link_id: fabric.flows.link(link_id).capacity
            for link_id in fabric.flows.link_ids()
        }
        self._route_cache: dict[tuple[int, int], Route] = {}
        self._round_cache: dict[tuple[CommPattern, int, str], float] = {}
        self._ring_messages_cache: dict[CommPattern, tuple[list, list, list]] = {}
        #: pattern -> (stride -> [(src, dst, messages-per-neighbor)])
        self._stride_cache: dict[CommPattern, dict[int, list[tuple[int, int, int]]]] = {}
        #: (pattern, method[, phase/stride]) -> solved phase plan
        self._plan_cache: dict[tuple, _PhasePlan] = {}

    def _route(self, src: int, dst: int) -> Route:
        key = (src, dst)
        r = self._route_cache.get(key)
        if r is None:
            r = self._route_cache[key] = self.topology.route(src, dst)
        return r

    def _message_latency(self, route: Route, nbytes: int) -> float:
        latency = self.fabric.startup_latency(route)
        if not self.fabric.is_eager(nbytes):
            latency += self.fabric.rendezvous_delay(route)
        return latency

    def phase_time(self, messages: list[tuple[int, int, int]]) -> float:
        """Time for a phase of concurrent (src, dst, nbytes) messages."""
        if not messages:
            return 0.0
        routes = []
        caps = []
        metas = []
        zero_latency = 0.0
        for src, dst, nbytes in messages:
            route = self._route(src, dst)
            latency = self._message_latency(route, nbytes)
            if nbytes == 0 or not route.links:
                zero_latency = max(zero_latency, latency)
                continue
            routes.append(route.links)
            caps.append(self.fabric.rate_cap_for(route))
            metas.append((latency, nbytes))
        if not routes:
            return zero_latency
        rates = maxmin_allocate(self._capacities, routes, caps)
        longest = max(
            latency + nbytes / rate
            for (latency, nbytes), rate in zip(metas, rates)
        )
        return max(longest, zero_latency)

    # -- the three methods ---------------------------------------------------

    def _ring_messages(self, pattern: CommPattern) -> tuple[list, list, list]:
        """(leftward, rightward, two_ring_pairs) message lists."""
        cached = self._ring_messages_cache.get(pattern)
        if cached is not None:
            return cached
        leftward, rightward, pairs = [], [], []
        for ring in pattern.rings:
            k = len(ring)
            for i, rank in enumerate(ring):
                left = ring[(i - 1) % k]
                right = ring[(i + 1) % k]
                if k == 2:
                    pairs.append((rank, left))
                    pairs.append((rank, right))
                else:
                    leftward.append((rank, left))
                    rightward.append((rank, right))
        self._ring_messages_cache[pattern] = (leftward, rightward, pairs)
        return leftward, rightward, pairs

    def round_time(self, pattern: CommPattern, nbytes: int, method: str) -> float:
        key = (pattern, nbytes, method)
        cached = self._round_cache.get(key)
        if cached is None:
            cached = self._round_cache[key] = self._round_time(pattern, nbytes, method)
        return cached

    def _plan(
        self, key: tuple, messages: list[tuple[int, int, int]]
    ) -> _PhasePlan:
        plan = self._plan_cache.get(key)
        if plan is None:
            plan = self._plan_cache[key] = _PhasePlan(self, messages)
        return plan

    def _round_time(self, pattern: CommPattern, nbytes: int, method: str) -> float:
        if method == "nonblocking":
            left, right, pairs = self._ring_messages(pattern)
            plan = self._plan(
                (pattern, "nonblocking"),
                [(s, d, 1) for s, d in left + right + pairs],
            )
            return plan.time_for(nbytes)
        if method == "sendrecv":
            left, right, pairs = self._ring_messages(pattern)
            # phase 1: leftward messages; 2-rings send both in parallel
            plan1 = self._plan(
                (pattern, "sendrecv", 1), [(s, d, 1) for s, d in left + pairs]
            )
            plan2 = self._plan(
                (pattern, "sendrecv", 2), [(s, d, 1) for s, d in right]
            )
            return plan1.time_for(nbytes) + plan2.time_for(nbytes)
        if method == "alltoallv":
            return self._alltoallv_time(pattern, nbytes)
        raise ValueError(f"unknown method {method!r}")

    def _alltoallv_strides(
        self, pattern: CommPattern
    ) -> dict[int, list[tuple[int, int, int]]]:
        """stride -> [(src, dst, neighbor multiplicity)]; size-independent."""
        cached = self._stride_cache.get(pattern)
        if cached is not None:
            return cached
        n = pattern.nprocs
        by_stride: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
        counts: dict[tuple[int, int], int] = defaultdict(int)
        for ring in pattern.rings:
            k = len(ring)
            for i, rank in enumerate(ring):
                counts[(rank, ring[(i - 1) % k])] += 1
                counts[(rank, ring[(i + 1) % k])] += 1
        for (src, dst), mult in counts.items():
            stride = (dst - src) % n
            if stride == 0:
                continue  # self message: local copy, negligible here
            by_stride[stride].append((src, dst, mult))
        self._stride_cache[pattern] = by_stride
        return by_stride

    def _alltoallv_time(self, pattern: CommPattern, nbytes: int) -> float:
        """Pairwise exchange: n-1 steps; data only at neighbor strides."""
        n = pattern.nprocs
        by_stride = self._alltoallv_strides(pattern)
        # every step pays at least one sendrecv latency; steps whose
        # stride carries data additionally pay the transfer
        empty_route = self._route(0, 1 % n) if n > 1 else None
        base_latency = (
            self._message_latency(empty_route, 0) if empty_route is not None else 0.0
        )
        # one solved plan per data-carrying stride; the n-1 step loop
        # stays sequential (the sum's accumulation order is part of
        # the bit-identity contract)
        step_times = {
            step: self._plan((pattern, "alltoallv", step), msgs).time_for(nbytes)
            for step, msgs in by_stride.items()
        }
        total = 0.0
        for step in range(1, n):
            phase = step_times.get(step)
            if phase is not None:
                total += max(phase, base_latency)
            else:
                total += base_latency
        return total
