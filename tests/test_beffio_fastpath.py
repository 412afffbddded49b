"""Fast-path vs reference oracle: the bit-identity contract.

``BeffIOConfig(mode="fast")`` arms the steady-state repetition
fast-forward (:mod:`repro.beffio.fastforward`); ``mode="reference"``
simulates every repetition event for event.  The whole design rests on
the two modes being *bit-identical* — not approximately equal — in
every reported aggregate, because a skip only ever replaces
repetitions it has proven periodic.  These tests pin that contract
across randomized small configurations, and pin the driver-level
``sync_drains`` default against the MPI-IO layer's.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.beffio import BeffIOConfig, run_beffio
from repro.beffio.sweep import run_sweep
from repro.machines import get_machine
from repro.mpiio.file import IOFile, open_file
from repro.util import KB, MB

from tests.test_beffio_benchmark import env_factory

MEM = 256 * MB


def _identical(ref, fast):
    assert ref.b_eff_io == fast.b_eff_io
    assert ref.pattern_runs == fast.pattern_runs
    assert ref.method_values == fast.method_values
    assert ref.type_results == fast.type_results
    assert ref.segment_size == fast.segment_size


def _run_both(nprocs, config_kwargs, fs_over=None):
    results = {}
    for mode in ("reference", "fast"):
        results[mode] = run_beffio(
            env_factory(nprocs, **(fs_over or {})),
            MEM,
            BeffIOConfig(mode=mode, **config_kwargs),
        )
    return results["reference"], results["fast"]


class TestFastMatchesReference:
    def test_default_small_run(self):
        ref, fast = _run_both(4, dict(T=1.5))
        _identical(ref, fast)

    def test_longer_run_arms_skips(self):
        # T=6 is long enough that several timed loops provably arm
        ref, fast = _run_both(4, dict(T=6.0))
        _identical(ref, fast)

    def test_geometric_termination_never_breaks(self):
        # geometric loops are not eligible for the fast path; fast
        # mode must still agree (it simply never arms)
        ref, fast = _run_both(4, dict(T=1.5, termination="geometric"))
        _identical(ref, fast)

    def test_super_period_geometry(self):
        # a stripe period that does not divide the per-repetition
        # advance of the non-wellformed rows forces the detector
        # through its super-period (macro-repetition) path
        ref, fast = _run_both(
            4, dict(T=3.0, pattern_types=(0,)),
            fs_over=dict(num_servers=2, stripe_unit=16 * KB),
        )
        _identical(ref, fast)

    @settings(max_examples=6, deadline=None)
    @given(
        nprocs=st.sampled_from([2, 3, 4]),
        T=st.sampled_from([0.75, 1.5, 3.0]),
        types=st.sets(st.sampled_from([0, 1, 2, 3, 4]), min_size=1, max_size=2),
        termination=st.sampled_from(["per-iteration", "geometric"]),
        sync_drains=st.booleans(),
        num_servers=st.sampled_from([1, 2, 4]),
    )
    def test_randomized_configs(self, nprocs, T, types, termination,
                                sync_drains, num_servers):
        ref, fast = _run_both(
            nprocs,
            dict(
                T=T,
                pattern_types=tuple(sorted(types)),
                termination=termination,
                sync_drains=sync_drains,
            ),
            fs_over=dict(num_servers=num_servers),
        )
        _identical(ref, fast)

    @pytest.mark.parametrize("machine, expected", [
        ("sp", "0x1.7b123a4d7394cp+26"),
        ("t3e", "0x1.1c624165ad4a6p+27"),
    ])
    def test_machine_runs_keep_the_server_resume_order(self, machine, expected):
        # a client resumed by the I/O server's done.trigger runs after
        # the server's step returns, so the server re-arms its drain
        # delay first, as when every resume was a queued event; the
        # pinned values are those of that heap-resume order
        spec = get_machine(machine)
        ref = spec.run_beffio(4, BeffIOConfig(T=2.0, mode="reference"))
        fast = spec.run_beffio(4, BeffIOConfig(T=2.0, mode="fast"))
        _identical(ref, fast)
        assert fast.b_eff_io.hex() == ref.b_eff_io.hex() == expected

    def test_wellformed_only_subset(self):
        ref, fast = _run_both(4, dict(T=1.5, wellformed_only=True))
        _identical(ref, fast)
        assert fast.pattern_runs and all(r.wellformed for r in fast.pattern_runs)


class TestSyncDrainsContract:
    def test_driver_default_matches_mpiio_default(self):
        """The b_eff_io driver and a standalone open_file must agree on
        what MPI_File_sync means by default (publish, don't drain)."""
        import inspect

        driver_default = BeffIOConfig().sync_drains
        open_default = inspect.signature(open_file).parameters["sync_drains"].default
        iofile_default = inspect.signature(IOFile.__init__).parameters[
            "sync_drains"
        ].default
        assert driver_default == open_default == iofile_default is False

    def test_sync_drains_changes_measured_bandwidth(self):
        """sync_drains=True waits for disk writeback inside the timed
        region, so a cache-sized write run must measure a strictly
        lower value than publish-only sync."""
        loose = run_beffio(
            env_factory(4), MEM, BeffIOConfig(T=1.5, pattern_types=(0,))
        )
        strict = run_beffio(
            env_factory(4), MEM,
            BeffIOConfig(T=1.5, pattern_types=(0,), sync_drains=True),
        )
        assert strict.b_eff_io < loose.b_eff_io

    def test_sync_drains_identity_holds_in_fast_mode(self):
        ref, fast = _run_both(4, dict(T=1.5, sync_drains=True))
        _identical(ref, fast)


class TestParallelSweep:
    def test_parallel_identical_to_serial_four_configs(self):
        """The 4-partition matrix: a parallel sweep must reproduce the
        serial sweep bit for bit (each partition is an independent
        simulation; workers only change wall-clock time)."""
        config = BeffIOConfig(T=2.0, pattern_types=(0, 1))
        serial = run_sweep("sp", [1, 2, 3, 4], config, jobs=1)
        parallel = run_sweep("sp", [1, 2, 3, 4], config, jobs=4)
        assert serial.machine == parallel.machine
        assert serial.system_b_eff_io == parallel.system_b_eff_io
        assert serial.best_partition == parallel.best_partition
        for a, b in zip(serial.results, parallel.results):
            assert a.nprocs == b.nprocs
            assert a.b_eff_io == b.b_eff_io
            assert a.pattern_runs == b.pattern_runs

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_sweep("sp", [2], BeffIOConfig(T=1.0), jobs=0)
