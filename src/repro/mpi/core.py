"""Point-to-point machinery: requests, statuses, the matching engine.

One :class:`Matcher` exists per (context id, receiver world rank).
MPI's non-overtaking rule holds because both the posted-receive queue
and the unexpected-message queue are FIFO and matching always scans
from the front.

Protocols:

* **eager** (size <= fabric threshold): the data flow starts at send
  time; the send request completes after the startup latency (local
  buffer handoff), independent of whether a receive is posted.
* **rendezvous**: the data flow starts only once a matching receive
  is posted (plus a handshake delay); the send request completes when
  the data has fully arrived.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.net.model import Fabric
from repro.sim.process import SimEvent, on_trigger

#: wildcard source rank for receives
ANY_SOURCE = -1
#: wildcard tag for receives
ANY_TAG = -1


class MpiError(RuntimeError):
    """Semantic MPI usage error (truncation, bad rank, ...)."""


@dataclass(frozen=True)
class Status:
    """Completion record of a receive (source/tag/size in comm terms)."""

    source: int
    tag: int
    nbytes: int
    data: object = None


class Request:
    """Handle for a nonblocking operation.

    ``wait`` is a generator (use ``yield from req.wait()``); it
    returns the :class:`Status` for receives and ``None`` for sends.
    """

    __slots__ = ("kind", "event", "status")

    def __init__(self, kind: str, event: SimEvent) -> None:
        self.kind = kind
        self.event = event
        self.status: Status | None = None

    @property
    def done(self) -> bool:
        return self.event.triggered

    def wait(self):
        yield self.event
        return self.status

    def test(self) -> bool:
        """Nonblocking completion probe."""
        return self.event.triggered


@dataclass(slots=True)
class _SendRecord:
    src: int  # comm rank of sender
    tag: int
    nbytes: int
    data: object
    arrival: SimEvent  # triggers when the payload is fully delivered
    request: Request
    rendezvous_start: object = None  # callable scheduled on match (rendezvous only)
    matched: bool = field(default=False)


@dataclass(slots=True)
class _RecvRecord:
    src: int  # may be ANY_SOURCE
    tag: int  # may be ANY_TAG
    capacity: int | None
    request: Request


def _tags_match(posted_tag: int, msg_tag: int) -> bool:
    return posted_tag == ANY_TAG or posted_tag == msg_tag


def _srcs_match(posted_src: int, msg_src: int) -> bool:
    return posted_src == ANY_SOURCE or posted_src == msg_src


class Matcher:
    """FIFO matcher for one receiving endpoint in one communicator."""

    __slots__ = ("posted", "unexpected")

    def __init__(self) -> None:
        self.posted: deque[_RecvRecord] = deque()
        self.unexpected: deque[_SendRecord] = deque()

    # -- sender side -----------------------------------------------------

    def offer(self, send: _SendRecord) -> None:
        for recv in self.posted:
            if _srcs_match(recv.src, send.src) and _tags_match(recv.tag, send.tag):
                self.posted.remove(recv)
                _bind(send, recv)
                return
        self.unexpected.append(send)

    # -- receiver side ---------------------------------------------------

    def post(self, recv: _RecvRecord) -> None:
        for send in self.unexpected:
            if _srcs_match(recv.src, send.src) and _tags_match(recv.tag, send.tag):
                self.unexpected.remove(send)
                _bind(send, recv)
                return
        self.posted.append(recv)


def _bind(send: _SendRecord, recv: _RecvRecord) -> None:
    """Pair a message with a receive and wire up completion."""
    if recv.capacity is not None and send.nbytes > recv.capacity:
        raise MpiError(
            f"message truncation: {send.nbytes} bytes sent to a receive of "
            f"capacity {recv.capacity} (src={send.src}, tag={send.tag})"
        )
    send.matched = True
    if send.rendezvous_start is not None:
        send.rendezvous_start()
        send.rendezvous_start = None

    def complete(_value: object) -> None:
        recv.request.status = Status(
            source=send.src, tag=send.tag, nbytes=send.nbytes, data=send.data
        )
        recv.request.event.trigger(recv.request.status)

    on_trigger(send.arrival, complete)


class Endpoint:
    """Per-world point-to-point engine bound to a fabric.

    Ranks here are *world* ranks; the Comm layer translates
    communicator ranks and owns context ids.
    """

    def __init__(self, fabric: Fabric) -> None:
        self.fabric = fabric
        self.sim = fabric.sim
        self._matchers: dict[tuple[int, int], Matcher] = {}

    def _matcher(self, context: int, world_dst: int) -> Matcher:
        key = (context, world_dst)
        m = self._matchers.get(key)
        if m is None:
            m = self._matchers[key] = Matcher()
        return m

    def isend(
        self,
        context: int,
        world_src: int,
        world_dst: int,
        comm_src: int,
        nbytes: int,
        tag: int,
        data: object = None,
    ) -> Request:
        """Post a send; the returned request completes per the protocol.

        An eager send completes locally after the route's nominal
        :meth:`Fabric.startup_latency` (:meth:`Fabric.transfer_event`
        triggers ``send_done``), *not* the fault- and jitter-adjusted
        latency it charges the wire.  This is intended: local
        completion models the sender's buffer handoff, which a slow or
        noisy network (or a straggling receiver) does not delay, and
        leaving it unadjusted keeps every jitter and fault stream at
        one draw per message.  So under jitter or a straggler fault the
        eager send completes at the unadjusted latency while its
        arrival moves.
        """
        if nbytes < 0:
            raise MpiError(f"negative message size {nbytes}")
        sim = self.sim
        fabric = self.fabric
        send_done = SimEvent(sim, name=("send:{}->{}t{}", world_src, world_dst, tag))
        request = Request("send", send_done)

        if fabric.is_eager(nbytes):
            # Local completion: the eager buffer handoff costs the
            # startup latency, then the sender may proceed.
            arrival = fabric.transfer_event(world_src, world_dst, nbytes, send_done)
            record = _SendRecord(
                src=comm_src, tag=tag, nbytes=nbytes, data=data,
                arrival=arrival, request=request,
            )
        else:
            arrival = SimEvent(sim, name=("rndv:{}->{}t{}", world_src, world_dst, tag))
            route = fabric.route(world_src, world_dst)

            def start_transfer() -> None:
                delay = fabric.rendezvous_delay(route)

                def begin() -> None:
                    xfer = fabric.transfer_event(world_src, world_dst, nbytes)
                    on_trigger(xfer, arrival.trigger)

                sim.schedule(delay, begin)

            on_trigger(arrival, lambda _v: send_done.trigger(None))
            record = _SendRecord(
                src=comm_src, tag=tag, nbytes=nbytes, data=data,
                arrival=arrival, request=request,
                rendezvous_start=start_transfer,
            )
        self._matcher(context, world_dst).offer(record)
        return request

    def irecv(
        self,
        context: int,
        world_dst: int,
        comm_src: int,
        tag: int,
        capacity: int | None = None,
    ) -> Request:
        event = SimEvent(self.sim, name=("recv:{}<-{}t{}", world_dst, comm_src, tag))
        request = Request("recv", event)
        record = _RecvRecord(src=comm_src, tag=tag, capacity=capacity, request=request)
        self._matcher(context, world_dst).post(record)
        return request
