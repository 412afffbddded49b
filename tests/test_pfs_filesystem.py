"""Tests for the striped filesystem front end."""

import pytest

from repro.pfs import FileSystem, PFSConfig
from repro.sim import Process, Simulator
from repro.util import KB, MB


def make_fs(**over):
    cfg = dict(
        num_servers=4,
        stripe_unit=100,
        disk_bw=100.0,
        ingest_bw=10_000.0,
        seek_time=0.0,
        request_overhead=0.0,
        disk_block=10,
        cache_bytes=100_000,
        client_bw=1_000.0,
        server_net_bw=1_000.0,
        call_overhead=0.0,
    )
    cfg.update(over)
    sim = Simulator()
    return sim, FileSystem(sim, PFSConfig(**cfg))


def run_one(sim, gen):
    out = []

    def wrapper():
        result = yield from gen
        out.append((sim.now, result))

    Process(sim, wrapper())
    sim.run_to_completion()
    return out[0]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "over",
        [
            {"num_servers": 0},
            {"stripe_unit": 0},
            {"client_bw": 0.0},
            {"server_net_bw": -1.0},
            {"call_overhead": -1.0},
        ],
    )
    def test_rejects(self, over):
        with pytest.raises(ValueError):
            make_fs(**over)

    def test_aggregate_disk_bw(self):
        _, fs = make_fs()
        assert fs.config.aggregate_disk_bw == 400.0


class TestNamespace:
    def test_open_creates_once(self):
        _, fs = make_fs()
        f1 = fs.open("data")
        f2 = fs.open("data")
        assert f1 is f2
        assert fs.exists("data")

    def test_delete_invalidates_cache(self):
        sim, fs = make_fs()
        f = fs.open("data")
        run_one(sim, fs.write(0, f, 0, 400))
        fs.delete("data")
        assert not fs.exists("data")
        assert all(s.cache.cached_bytes(f.file_id) == 0 for s in fs.servers)

    def test_file_ids_count_per_file_system(self):
        # servers order same-instant requests by file id, so ids must not
        # depend on files other file systems in the process created
        _, first = make_fs()
        _, second = make_fs()
        assert [first.open(n).file_id for n in ("a", "b", "c")] == [0, 1, 2]
        assert [second.open(n).file_id for n in ("x", "y")] == [0, 1]


class TestStriping:
    def test_round_robin_server_mapping(self):
        _, fs = make_fs()
        assert fs.server_of(0) == 0
        assert fs.server_of(99) == 0
        assert fs.server_of(100) == 1
        assert fs.server_of(400) == 0

    def test_split_extent_single_stripe(self):
        _, fs = make_fs()
        assert fs.split_extent(10, 60) == {0: [(10, 60)]}

    def test_split_extent_across_servers(self):
        _, fs = make_fs()
        split = fs.split_extent(50, 350)
        assert split == {
            0: [(50, 100)],
            1: [(100, 200)],
            2: [(200, 300)],
            3: [(300, 350)],
        }

    def test_split_extent_wraps_around(self):
        _, fs = make_fs(num_servers=2)
        split = fs.split_extent(0, 400)
        assert split == {0: [(0, 100), (200, 300)], 1: [(100, 200), (300, 400)]}

    def test_inverted_extent_rejected(self):
        _, fs = make_fs()
        with pytest.raises(ValueError):
            fs.split_extent(10, 0)


class TestDataPath:
    def test_write_updates_size(self):
        sim, fs = make_fs()
        f = fs.open("data")
        _, nbytes = run_one(sim, fs.write(0, f, 0, 350))
        assert nbytes == 350
        assert f.size == 350

    def test_write_time_bounded_by_client_link(self):
        sim, fs = make_fs()
        f = fs.open("data")
        t, _ = run_one(sim, fs.write(0, f, 0, 1000))
        # client link 1000 B/s is the bottleneck (4 servers absorb at
        # ingest speed): ~1 s on the wire, epsilon in cache
        assert t == pytest.approx(1.0, rel=0.2)

    def test_parallel_clients_saturate_servers(self):
        # many clients, server network links become the constraint
        sim, fs = make_fs(num_servers=1, client_bw=10_000.0, server_net_bw=1_000.0)
        f = fs.open("data")
        done = []

        def client(cid):
            yield from fs.write(cid, f, cid * 1000, 1000)
            done.append(sim.now)

        for cid in range(4):
            Process(sim, client(cid))
        sim.run_to_completion()
        # 4000 bytes through one 1000 B/s server link -> ~4 s
        assert max(done) == pytest.approx(4.0, rel=0.1)

    def test_read_returns_bytes(self):
        sim, fs = make_fs()
        f = fs.open("data")

        def session():
            yield from fs.write(0, f, 0, 400)
            got = yield from fs.read(0, f, 0, 400)
            return got

        _, got = run_one(sim, session())
        assert got == 400

    def test_sync_forces_disk_residency(self):
        sim, fs = make_fs()
        f = fs.open("data")

        def session():
            yield from fs.write(0, f, 0, 400)
            yield from fs.sync(0, f)

        run_one(sim, session())
        assert fs.total_dirty == 0
        assert fs.bytes_to_disk == 400

    def test_call_overhead_applied(self):
        sim, fs = make_fs(call_overhead=0.25)
        f = fs.open("data")
        t, _ = run_one(sim, fs.write(0, f, 0, 1))
        assert t >= 0.25

    def test_empty_extent_list(self):
        sim, fs = make_fs()
        f = fs.open("data")
        t, got = run_one(sim, fs.submit_io(0, f, "write", []))
        assert got == 0

    def test_bad_kind_rejected(self):
        sim, fs = make_fs()
        f = fs.open("data")
        with pytest.raises(ValueError):
            run_one(sim, fs.submit_io(0, f, "append", [(0, 10)]))


class TestCacheVsDiskBandwidth:
    def test_small_dataset_reports_cache_speed(self):
        # dataset << cache: apparent bandwidth ~ network/ingest, far
        # above disk speed (the paper's Sec. 5.4 warning)
        sim, fs = make_fs(cache_bytes=1_000_000, disk_bw=10.0)
        f = fs.open("data")
        t, _ = run_one(sim, fs.write(0, f, 0, 1000))
        apparent_bw = 1000 / t
        assert apparent_bw > 10 * fs.config.aggregate_disk_bw

    def test_large_dataset_throttled_to_disk_speed(self):
        sim, fs = make_fs(cache_bytes=400, disk_bw=10.0, num_servers=1)
        f = fs.open("data")

        def session():
            yield from fs.write(0, f, 0, 10_000)
            yield from fs.sync(0, f)

        t, _ = run_one(sim, session())
        apparent_bw = 10_000 / t
        assert apparent_bw == pytest.approx(10.0, rel=0.2)
