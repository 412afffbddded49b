"""Transfer pricing: latency + shared-bandwidth phase per message.

Two modelling decisions come straight from the paper:

* **Shared-memory halving** (Sec. 4.1): "On shared memory platforms,
  the results generally reflect half of the memory-to-memory copy
  bandwidth because most MPI implementations have to buffer the
  message in a shared memory section."  Intra-node transfers are
  therefore rate-capped at ``copy_bw * copy_penalty`` with
  ``copy_penalty = 0.5`` by default.

* **Per-message protocol cap**: an MPI stack rarely drives a link at
  hardware speed (T3E: ~330 MB/s ping-pong on faster physical links),
  so a single message's rate is capped at ``msg_rate_cap`` even when
  the fluid allocation would give it more.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.engine import Simulator
from repro.sim.fluid import FlowNetwork
from repro.sim.process import SimEvent, on_trigger
from repro.topology.base import Route, Topology


@dataclass(frozen=True, slots=True)
class NetParams:
    """Cost-model constants for one machine's interconnect + MPI stack."""

    #: per-message startup latency for inter-node transfers (seconds)
    latency: float = 10e-6
    #: additional latency per fabric hop (seconds)
    per_hop_latency: float = 0.0
    #: startup latency for intra-node (shared-memory) transfers
    intra_node_latency: float = 2e-6
    #: messages <= this many bytes use the eager protocol
    eager_threshold: int = 8 * 1024
    #: extra handshake delay for rendezvous-protocol messages (seconds)
    rendezvous_latency: float = 10e-6
    #: memory-copy bandwidth of one processor (bytes/s); None = uncapped
    copy_bw: float | None = None
    #: fraction of copy_bw usable by shared-memory MPI (paper: 1/2)
    copy_penalty: float = 0.5
    #: per-message bandwidth cap through the fabric (bytes/s); None = links only
    msg_rate_cap: float | None = None
    #: relative timing noise on per-message startup latency (0 = exact).
    #: Real machines jitter, which is why the paper's b_eff takes the
    #: maximum over three repetitions; enable this to watch that
    #: mechanism matter (drawn deterministically from a seeded stream).
    jitter: float = 0.0

    def __post_init__(self) -> None:
        for name in ("latency", "per_hop_latency", "intra_node_latency", "rendezvous_latency"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.eager_threshold < 0:
            raise ValueError("eager_threshold must be >= 0")
        if self.copy_bw is not None and self.copy_bw <= 0:
            raise ValueError("copy_bw must be positive when given")
        if not (0.0 < self.copy_penalty <= 1.0):
            raise ValueError("copy_penalty must be in (0, 1]")
        if self.msg_rate_cap is not None and self.msg_rate_cap <= 0:
            raise ValueError("msg_rate_cap must be positive when given")
        if not (0.0 <= self.jitter < 1.0):
            raise ValueError("jitter must be in [0, 1)")


class Fabric:
    """Prices and executes transfers over an attached topology."""

    __slots__ = (
        "sim", "topology", "params", "tracer", "fluid_mode", "flows",
        "_route_cache", "_jitter_rng", "faults", "messages_sent", "bytes_sent",
    )

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        params: NetParams,
        jitter_seed: int = 20010423,
        tracer=None,
        fluid_mode: str = "incremental",
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.params = params
        #: optional repro.sim.trace.Tracer recording every transfer
        self.tracer = tracer
        #: "incremental" (batched, component-local allocation) or
        #: "reference" (seed full-oracle reallocation per event); see
        #: repro.sim.fluid — results agree, only wall-clock differs
        self.fluid_mode = fluid_mode
        self.flows = FlowNetwork(sim, mode=fluid_mode)
        topology.attach(self.flows)
        #: (src, dst) -> Route; benchmark loops re-send the same pairs
        #: thousands of times, so routing is computed once per pair
        self._route_cache: dict[tuple[int, int], Route] = {}
        self._jitter_rng = None
        if params.jitter > 0.0:
            from repro.sim.randomness import RandomStreams

            self._jitter_rng = RandomStreams(jitter_seed).stream("fabric.jitter")
        #: attached repro.faults.inject.FaultInjector, or None (the
        #: default) — kept None-checked on the hot path so undisturbed
        #: runs pay one attribute test per message
        self.faults = None
        #: transfer statistics
        self.messages_sent = 0
        self.bytes_sent = 0

    def _jittered(self, latency: float) -> float:
        if self._jitter_rng is None:
            return latency
        factor = 1.0 + self.params.jitter * float(self._jitter_rng.uniform(-1.0, 1.0))
        return latency * factor

    # -- cost queries -----------------------------------------------------

    def route(self, src: int, dst: int) -> Route:
        """Cached topology route from ``src`` to ``dst``."""
        key = (src, dst)
        route = self._route_cache.get(key)
        if route is None:
            route = self._route_cache[key] = self.topology.route(src, dst)
        return route

    def startup_latency(self, route: Route) -> float:
        """Latency before the first byte moves (no rendezvous handshake)."""
        if route.intra_node:
            return self.params.intra_node_latency
        return self.params.latency + self.params.per_hop_latency * route.hops

    def is_eager(self, nbytes: int) -> bool:
        return nbytes <= self.params.eager_threshold

    def rendezvous_delay(self, route: Route) -> float:
        """Extra handshake time for a non-eager message on this route."""
        return self.params.rendezvous_latency + self.params.per_hop_latency * route.hops

    def rate_cap_for(self, route: Route) -> float | None:
        """Per-message rate cap on this route (copy/protocol limits)."""
        if route.intra_node:
            if self.params.copy_bw is None:
                return self.params.msg_rate_cap
            return self.params.copy_bw * self.params.copy_penalty
        return self.params.msg_rate_cap

    # -- execution --------------------------------------------------------

    def transfer_event(
        self, src: int, dst: int, nbytes: int, send_done: SimEvent | None = None
    ) -> SimEvent:
        """Start a transfer *now*; the returned event fires on arrival.

        The event triggers after startup latency plus the fluid
        bandwidth phase; a zero-byte message has no bandwidth phase
        and starts no flow, so it arrives at exactly the latency.
        Rendezvous handshakes are the p2p layer's job (they need
        receiver state); this method only moves bytes.

        ``send_done``, when given, is triggered (with ``None``) after
        the route's nominal :meth:`startup_latency` — the eager
        sender's local completion.  When the fault- and
        jitter-adjusted latency equals the nominal one, it fires in
        the same callback that begins the flow, right after it: as two
        events they would share a timestamp and consecutive sequence
        numbers, so nothing could run between them anyway.  Otherwise
        it is its own event, queued after the flow's.
        """
        if nbytes < 0:
            raise ValueError(f"negative message size: {nbytes!r}")
        route = self.route(src, dst)
        done = SimEvent(self.sim, name=("xfer:{}->{}:{}", src, dst, nbytes))
        nominal = latency = self.startup_latency(route)
        if self.faults is not None:
            latency = self.faults.adjust_latency(src, dst, latency)
        latency = self._jittered(latency)
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if self.tracer is not None:
            self.tracer.record(self.sim.now, "msg", src, dst, nbytes)
        fused = send_done if latency == nominal else None

        def begin_flow() -> None:
            if nbytes == 0:
                done.trigger(self.sim.now)
            else:
                flow_done = self.flows.start_flow(
                    route.links, nbytes, rate_cap=self.rate_cap_for(route)
                )
                on_trigger(flow_done, lambda _value: done.trigger(self.sim.now))
            if fused is not None:
                fused.trigger(None)

        self.sim.schedule(latency, begin_flow)
        if send_done is not None and fused is None:
            self.sim.schedule(nominal, lambda: send_done.trigger(None))
        return done

    def transfer(self, src: int, dst: int, nbytes: int):
        """Generator form of :meth:`transfer_event` for ``yield from``."""
        yield self.transfer_event(src, dst, nbytes)
