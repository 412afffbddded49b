"""Crash-safe sweep journaling, resume bit-identity, and worker retries."""

import json
import math

import pytest

from repro.beffio import BeffIOConfig
from repro.beffio.benchmark import BeffIOResult
from repro.beffio.sweep import CRASH_AFTER_ENV, run_sweep
from repro.cli import EXIT_SWEEP_WORKER_FAILED, main_beff, main_beffio, main_repro
from repro.faults import FaultPlan, LinkFault
from repro.reporting.export import write_json_atomic
from repro.runtime.scheduler import GridWorkerError
from repro.runtime.spec import sweep_fingerprint
from repro.runtime.sweep import JournalMismatchError, SweepJournal

CFG = BeffIOConfig(T=0.8, pattern_types=(0,))
PARTS = [2, 4]


def config_fingerprint(machine, config):
    return sweep_fingerprint("b_eff_io", machine, config)


@pytest.fixture(scope="module")
def baseline():
    """One uninterrupted sweep every resume/parallel test compares against."""
    return run_sweep("t3e", PARTS, CFG)


class TestJournal:
    def test_journal_records_every_partition(self, tmp_path, baseline):
        jdir = tmp_path / "journal"
        sweep = run_sweep("t3e", PARTS, CFG, journal=jdir)
        assert sweep.partition_values() == baseline.partition_values()
        assert (jdir / "manifest.json").exists()
        names = sorted(p.name for p in jdir.glob("partition_*.json"))
        assert names == ["partition_2.json", "partition_4.json"]
        # the journal round-trips results bit-exactly
        replayed = SweepJournal(jdir).completed()
        assert {n: r.b_eff_io for n, r in replayed.items()} == baseline.partition_values()

    def test_crash_then_resume_is_bit_identical(self, tmp_path, monkeypatch, baseline):
        jdir = tmp_path / "journal"
        monkeypatch.setenv(CRASH_AFTER_ENV, "1")
        with pytest.raises(RuntimeError, match="injected sweep crash"):
            run_sweep("t3e", PARTS, CFG, journal=jdir)
        # atomic writes: the interrupted sweep left exactly one complete
        # partition file and no temporaries
        assert sorted(p.name for p in jdir.glob("partition_*.json")) == [
            "partition_2.json"
        ]
        assert list(jdir.glob("*.tmp")) == []
        monkeypatch.delenv(CRASH_AFTER_ENV)
        resumed = run_sweep("t3e", PARTS, CFG, journal=jdir, resume=True)
        assert resumed.partition_values() == baseline.partition_values()
        assert resumed.system_b_eff_io == baseline.system_b_eff_io
        assert resumed.best_partition == baseline.best_partition

    def test_resume_replays_instead_of_rerunning(self, tmp_path, monkeypatch):
        # tamper with the journaled value: if resume re-ran the
        # partition the tampering would be overwritten
        jdir = tmp_path / "journal"
        monkeypatch.setenv(CRASH_AFTER_ENV, "1")
        with pytest.raises(RuntimeError):
            run_sweep("t3e", PARTS, CFG, journal=jdir)
        monkeypatch.delenv(CRASH_AFTER_ENV)
        part = jdir / "partition_2.json"
        data = json.loads(part.read_text())
        data["b_eff_io"] = 123456.0
        part.write_text(json.dumps(data))
        resumed = run_sweep("t3e", PARTS, CFG, journal=jdir, resume=True)
        assert resumed.partition_values()[2] == 123456.0

    def test_resume_rejects_different_config(self, tmp_path):
        jdir = tmp_path / "journal"
        SweepJournal(jdir).start("t3e", config_fingerprint("t3e", CFG))
        other = BeffIOConfig(T=0.9, pattern_types=(0,))
        with pytest.raises(JournalMismatchError, match="different sweep"):
            run_sweep("t3e", PARTS, other, journal=jdir, resume=True)

    def test_resume_without_manifest_rejected(self, tmp_path):
        with pytest.raises(JournalMismatchError, match="nothing to resume"):
            run_sweep("t3e", PARTS, CFG, journal=tmp_path / "empty", resume=True)

    def test_resume_without_journal_rejected(self):
        with pytest.raises(ValueError, match="journal"):
            run_sweep("t3e", PARTS, CFG, resume=True)

    def test_fresh_start_wipes_stale_partitions(self, tmp_path):
        jdir = tmp_path / "journal"
        jdir.mkdir()
        (jdir / "partition_999.json").write_text("{}")
        SweepJournal(jdir).start("t3e", "fp")
        assert not (jdir / "partition_999.json").exists()


class TestFingerprint:
    def test_stable_for_equal_configs(self):
        assert config_fingerprint("t3e", CFG) == config_fingerprint(
            "t3e", BeffIOConfig(T=0.8, pattern_types=(0,))
        )

    def test_sensitive_to_machine_config_and_faults(self):
        fp = config_fingerprint("t3e", CFG)
        assert config_fingerprint("sp", CFG) != fp
        assert config_fingerprint("t3e", BeffIOConfig(T=0.9, pattern_types=(0,))) != fp
        faulted = BeffIOConfig(
            T=0.8, pattern_types=(0,),
            faults=FaultPlan(events=(LinkFault(0, 0.1, 0.2, 0.5),)),
        )
        assert config_fingerprint("t3e", faulted) != fp


def dummy_result(n):
    return BeffIOResult(
        nprocs=n, T=0.8, mpart=1, segment_size=1024,
        pattern_runs=[], type_results=[], method_values={}, b_eff_io=float(n),
    )


class FailingSpec:
    name = "broken"

    def run_beffio(self, n, config):
        raise ValueError("kaboom")


class FlakySpec:
    """Fails the first attempt of every partition, then succeeds."""

    name = "flaky"

    def __init__(self):
        self.calls = {}

    def run_beffio(self, n, config):
        self.calls[n] = self.calls.get(n, 0) + 1
        if self.calls[n] == 1:
            raise OSError("transient worker crash")
        return dummy_result(n)


class TestRetries:
    def test_worker_error_names_failing_partition(self):
        with pytest.raises(GridWorkerError) as exc_info:
            run_sweep(FailingSpec(), [2], CFG, retries=1)
        message = str(exc_info.value)
        assert "partition nprocs=2" in message
        assert "machine 'broken'" in message
        assert "T=0.8" in message  # the failing partition's config
        assert "after 2 attempt(s)" in message
        assert "ValueError: kaboom" in message
        assert isinstance(exc_info.value.__cause__, ValueError)

    def test_retry_recovers_transient_failures(self):
        spec = FlakySpec()
        sweep = run_sweep(spec, [2, 4], CFG, retries=1)
        assert sweep.partition_values() == {2: 2.0, 4: 4.0}
        assert spec.calls == {2: 2, 4: 2}

    def test_zero_retries_fails_on_first_error(self):
        spec = FlakySpec()
        with pytest.raises(GridWorkerError, match="after 1 attempt"):
            run_sweep(spec, [2], CFG, retries=0)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            run_sweep("t3e", PARTS, CFG, retries=-1)

    def test_invalid_partition_excluded_from_system_max(self):
        class MixedSpec:
            name = "mixed"

            def run_beffio(self, n, config):
                if n == 2:
                    from repro.faults import RunValidity

                    bad = dummy_result(n)
                    return BeffIOResult(
                        nprocs=n, T=bad.T, mpart=bad.mpart,
                        segment_size=bad.segment_size, pattern_runs=[],
                        type_results=[], method_values={}, b_eff_io=math.nan,
                        validity=RunValidity("invalid", skipped=("x",)),
                    )
                return dummy_result(n)

        sweep = run_sweep(MixedSpec(), [2, 4], CFG)
        assert sweep.system_b_eff_io == 4.0
        assert sweep.best_partition == 4
        assert sweep.validity.state == "invalid"  # demoted, not poisoned


class TestParallelSweep:
    def test_parallel_matches_serial_bit_exactly(self, baseline):
        parallel = run_sweep("t3e", PARTS, CFG, jobs=2)
        assert parallel.partition_values() == baseline.partition_values()
        assert parallel.system_b_eff_io == baseline.system_b_eff_io


class TestCLI:
    def test_sweep_worker_failure_exits_nonzero(self, monkeypatch, capsys):
        def failing_sweep(*args, **kwargs):
            raise GridWorkerError("partition nprocs=2 on machine 't3e' failed")

        monkeypatch.setattr("repro.beffio.sweep.run_sweep", failing_sweep)
        rc = main_beffio(
            ["--machine", "t3e", "--partitions", "2,4", "--T", "0.8", "--types", "0"]
        )
        assert rc == EXIT_SWEEP_WORKER_FAILED
        assert "repro-beffio: partition nprocs=2" in capsys.readouterr().err

    def test_resume_requires_journal(self):
        with pytest.raises(SystemExit) as exc_info:
            main_beffio(["--resume"])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize("main", [main_beff, main_beffio])
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--machine", "bogus"], "unknown machine 'bogus'"),
            (["--procs", "0"], "--procs: must be >= 1"),
            (["--partitions", "2,4", "--jobs", "0"], "--jobs: must be >= 1"),
            (["--partitions", "2,4", "--retries", "-1"], "--retries: must be >= 0"),
            (["--partitions", "2,x"], "--partitions: expected comma-separated"),
            (["--partitions", "0,2"], "--partitions: process counts must be >= 1"),
        ],
    )
    def test_bad_input_is_a_usage_error(self, main, argv, message, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--jobs", "0"], "--jobs: must be >= 1"),
            (["--retries", "-1"], "--retries: must be >= 0"),
            (["--partitions", "4,,8"], "--partitions: expected comma-separated"),
            (["--machines", "t3e,bogus"], "unknown machine 'bogus'"),
        ],
    )
    def test_sweep_grid_bad_input_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main_repro(["sweep-grid", *argv])
        assert exc_info.value.code == 2
        assert message in capsys.readouterr().err


class TestAtomicWrites:
    def test_write_and_no_temp_leftovers(self, tmp_path):
        path = tmp_path / "out.json"
        write_json_atomic(path, {"a": 1})
        assert json.loads(path.read_text()) == {"a": 1}
        write_json_atomic(path, {"a": 2})  # overwrite in place
        assert json.loads(path.read_text()) == {"a": 2}
        assert list(tmp_path.glob(".*.tmp")) == []

    def test_accepts_preserialized_string(self, tmp_path):
        path = tmp_path / "out.json"
        write_json_atomic(path, '{"b": 3}')
        assert json.loads(path.read_text()) == {"b": 3}

    def test_failed_write_leaves_old_file_intact(self, tmp_path):
        path = tmp_path / "out.json"
        write_json_atomic(path, {"a": 1})
        with pytest.raises(TypeError):
            write_json_atomic(path, {"bad": object()})
        assert json.loads(path.read_text()) == {"a": 1}
        assert list(tmp_path.glob(".*.tmp")) == []
