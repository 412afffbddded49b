"""Striped filesystem front end.

Splits client calls into per-server extent batches, moves the data
across the I/O network (one link per client, one per server, shared
max-min fairly), and waits for server service.  This is the layer an
MPI-IO implementation sits on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.pfs.server import IORequest, IOServer, ServerParams
from repro.sim.engine import Simulator
from repro.sim.fluid import FlowNetwork
from repro.sim.process import Process, Sleep, wait_all
from repro.util import MB


@dataclass
class PFSConfig:
    """Parameters of one machine's I/O subsystem."""

    num_servers: int
    stripe_unit: int
    disk_bw: float  # per-server streaming disk bandwidth (bytes/s)
    ingest_bw: float  # per-server cache/memory bandwidth (bytes/s)
    seek_time: float  # per discontiguous disk access (s)
    request_overhead: float  # per-request server service cost (s)
    disk_block: int  # RMW granularity (bytes)
    cache_bytes: int  # TOTAL filesystem cache, split over servers
    client_bw: float  # per-client I/O network link (bytes/s)
    server_net_bw: float  # per-server I/O network link (bytes/s)
    call_overhead: float  # client-side software cost per call (s)
    drain_chunk: int = MB
    #: idle time before background writeback starts (real filesystems
    #: delay writeback so bursts of requests are not interleaved with
    #: drain seeks)
    drain_delay: float = 0.05
    #: per-request fast-path loss for non-sector-aligned extents
    unaligned_penalty: float = 0.0
    sector: int = 512

    def __post_init__(self) -> None:
        if self.num_servers < 1:
            raise ValueError("need at least one I/O server")
        if self.stripe_unit < 1:
            raise ValueError("stripe_unit must be >= 1")
        if self.client_bw <= 0 or self.server_net_bw <= 0:
            raise ValueError("network bandwidths must be positive")
        if self.call_overhead < 0:
            raise ValueError("call_overhead must be >= 0")

    def server_params(self) -> ServerParams:
        return ServerParams(
            disk_bw=self.disk_bw,
            ingest_bw=self.ingest_bw,
            seek_time=self.seek_time,
            request_overhead=self.request_overhead,
            disk_block=self.disk_block,
            cache_bytes=self.cache_bytes // self.num_servers,
            drain_chunk=self.drain_chunk,
            drain_delay=self.drain_delay,
            unaligned_penalty=self.unaligned_penalty,
            sector=self.sector,
        )

    @property
    def aggregate_disk_bw(self) -> float:
        return self.disk_bw * self.num_servers


class PFSFile:
    """A file: an id for cache keys plus its current size.

    ``file_id`` counts from 0 in creation order *per file system*: the
    servers order same-instant requests by it, so an id drawn from a
    process-wide counter made a run's results depend on how many files
    earlier runs in the same process had created.
    """

    def __init__(self, name: str, file_id: int) -> None:
        self.name = name
        self.file_id = file_id
        self.size = 0

    def __repr__(self) -> str:
        return f"<PFSFile {self.name!r} size={self.size}>"


class FileSystem:
    def __init__(self, sim: Simulator, config: PFSConfig, tracer=None) -> None:
        self.sim = sim
        self.config = config
        #: optional repro.sim.trace.Tracer recording every client call
        self.tracer = tracer
        self.io_net = FlowNetwork(sim)
        self.servers = [
            IOServer(sim, config.server_params(), name=f"ios{i}")
            for i in range(config.num_servers)
        ]
        self._server_in = [
            self.io_net.add_link(config.server_net_bw, name=f"srvin{i}")
            for i in range(config.num_servers)
        ]
        self._server_out = [
            self.io_net.add_link(config.server_net_bw, name=f"srvout{i}")
            for i in range(config.num_servers)
        ]
        self._client_links: dict[object, tuple[int, int]] = {}
        self._files: dict[str, PFSFile] = {}
        self._file_ids = itertools.count()
        #: stripe-split plans keyed by (start % stripe period, length);
        #: the split is shift-equivariant under whole stripe periods,
        #: so one canonical plan serves every repetition of a pattern
        self._split_period = config.stripe_unit * config.num_servers
        self._split_plans: dict[
            tuple[int, int], tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
        ] = {}

    # -- namespace ---------------------------------------------------------

    def open(self, name: str) -> PFSFile:
        """Open (creating if needed) a file by name."""
        f = self._files.get(name)
        if f is None:
            f = self._files[name] = PFSFile(name, next(self._file_ids))
        return f

    def exists(self, name: str) -> bool:
        return name in self._files

    def delete(self, name: str) -> None:
        f = self._files.pop(name, None)
        if f is not None:
            for server in self.servers:
                server.cache.invalidate_file(f.file_id)

    def find_links(self, pattern: str) -> list[int]:
        """Ids of I/O-network links whose name contains ``pattern``.

        Fault-plan selector hook; client links exist lazily, so a plan
        targeting ``"cli."`` only degrades clients created before
        attach (fault plans are attached after world construction, by
        which point the benchmark layer has opened its clients).
        """
        return self.io_net.find_links(pattern)

    # -- striping ------------------------------------------------------------

    def server_of(self, offset: int) -> int:
        return (offset // self.config.stripe_unit) % self.config.num_servers

    #: cap on memoised stripe-split plans (distinct (phase, length)
    #: shapes per run are few; the cap bounds adversarial sequences)
    _SPLIT_PLAN_CAP = 8192

    def split_extent(self, start: int, end: int) -> dict[int, list[tuple[int, int]]]:
        """Partition [start, end) into per-server stripe pieces.

        Striping is periodic with period ``stripe_unit * num_servers``:
        shifting an extent by a whole period shifts every piece by the
        same amount and preserves server assignment.  Plans are
        memoised per ``(start % period, length)`` and shifted — exact
        integer arithmetic, bit-identical to the direct computation.
        """
        if end < start:
            raise ValueError("inverted extent")
        period = self._split_period
        phase = start % period
        key = (phase, end - start)
        plan = self._split_plans.get(key)
        if plan is None:
            plan = self._compute_split(phase, phase + (end - start))
            if len(self._split_plans) < self._SPLIT_PLAN_CAP:
                self._split_plans[key] = plan
        shift = start - phase
        if shift == 0:
            return {srv: list(pieces) for srv, pieces in plan}
        return {
            srv: [(s + shift, e + shift) for s, e in pieces]
            for srv, pieces in plan
        }

    def _compute_split(
        self, start: int, end: int
    ) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        unit = self.config.stripe_unit
        out: dict[int, list[tuple[int, int]]] = {}
        pos = start
        while pos < end:
            boundary = (pos // unit + 1) * unit
            piece_end = min(end, boundary)
            out.setdefault(self.server_of(pos), []).append((pos, piece_end))
            pos = piece_end
        return tuple(
            (srv, tuple(pieces)) for srv, pieces in out.items()
        )

    # -- data path -------------------------------------------------------------

    def _client(self, client_id: object) -> tuple[int, int]:
        links = self._client_links.get(client_id)
        if links is None:
            tx = self.io_net.add_link(self.config.client_bw, name=f"cli.tx.{client_id}")
            rx = self.io_net.add_link(self.config.client_bw, name=f"cli.rx.{client_id}")
            links = self._client_links[client_id] = (tx, rx)
        return links

    def submit_io(self, client_id: object, file: PFSFile, kind: str,
                  extents: list[tuple[int, int]]):
        """Generator: one filesystem call moving ``extents`` of ``file``.

        ``extents`` are (start, end) pairs in file-offset space; they
        are striped over servers, transferred over the I/O network,
        and serviced by each server concurrently.  A write call
        returns once every server has accepted the data (into cache
        or disk); durability needs :meth:`sync`.
        """
        if kind not in ("write", "read"):
            raise ValueError(f"bad kind {kind!r}")
        if self.tracer is not None:
            self.tracer.record(
                self.sim.now, f"io-{kind}", client_id, None,
                sum(e - s for s, e in extents),
            )
        if self.config.call_overhead > 0:
            yield Sleep(self.config.call_overhead)
        per_server: dict[int, list[tuple[int, int]]] = {}
        total = 0
        for start, end in extents:
            total += end - start
            for server, pieces in self.split_extent(start, end).items():
                per_server.setdefault(server, []).extend(pieces)
        if not per_server:
            return 0
        tx, rx = self._client(client_id)
        done_events = []
        for server_idx, pieces in per_server.items():
            gen = self._server_leg(kind, file, server_idx, pieces, tx, rx)
            proc = Process(
                self.sim, gen, name=f"io.{client_id}.{kind}.s{server_idx}"
            )
            done_events.append(proc.done_event)
        yield from wait_all(done_events)
        if kind == "write":
            top = max(end for _s, end in extents)
            file.size = max(file.size, top)
        return total

    def _server_leg(self, kind: str, file: PFSFile, server_idx: int,
                    pieces: list[tuple[int, int]], tx: int, rx: int):
        server = self.servers[server_idx]
        nbytes = sum(e - s for s, e in pieces)
        request = IORequest(kind=kind, file_id=file.file_id, extents=tuple(pieces))
        if kind == "write":
            # data travels to the server, then gets serviced
            yield self.io_net.start_flow([tx, self._server_in[server_idx]], nbytes)
            yield server.submit(request)
        else:
            yield server.submit(request)
            yield self.io_net.start_flow([self._server_out[server_idx], rx], nbytes)

    def write(self, client_id: object, file: PFSFile, offset: int, nbytes: int):
        result = yield from self.submit_io(
            client_id, file, "write", [(offset, offset + nbytes)]
        )
        return result

    def read(self, client_id: object, file: PFSFile, offset: int, nbytes: int):
        result = yield from self.submit_io(
            client_id, file, "read", [(offset, offset + nbytes)]
        )
        return result

    def sync(self, client_id: object, file: PFSFile):
        """Generator: block until no server holds dirty bytes of ``file``."""
        if self.config.call_overhead > 0:
            yield Sleep(self.config.call_overhead)
        events = [server.sync(file.file_id) for server in self.servers]
        yield from wait_all(events)

    # -- statistics ---------------------------------------------------------------

    @property
    def bytes_to_disk(self) -> int:
        return sum(s.bytes_to_disk for s in self.servers)

    @property
    def bytes_from_disk(self) -> int:
        return sum(s.bytes_from_disk for s in self.servers)

    @property
    def total_dirty(self) -> int:
        return sum(s.cache.dirty_total for s in self.servers)
