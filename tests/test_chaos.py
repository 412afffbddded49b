"""Chaos campaigns: supervised runs under injected machine realities.

The acceptance bar of the supervision layer, exercised end to end with
the :mod:`repro.runtime.chaos` adversaries: every campaign
*terminates*, a degraded grid is never silently ``valid``, poisoned
cells leave per-cell failure provenance (journal stub + store
sidecar), and a resumed campaign heals the poison and converges to the
byte-identical result of an undisturbed run.
"""

import errno
import json

import pytest

from repro.beff.measurement import MeasurementConfig
from repro.reporting.export import write_json_atomic
from repro.runtime import RunStore, canonical_envelope_text, expand_grid, run_grid
from repro.runtime import chaos
from repro.runtime.scheduler import SupervisionPolicy
from repro.runtime.sweep import SweepJournal, run_sweep

CFG = MeasurementConfig(backend="analytic")

#: fast-heartbeat policy used across the campaigns
POLICY = SupervisionPolicy(max_failures=2, heartbeat_interval_s=0.02)


def _grid(machines=("t3e", "sr2201"), partitions=(2, 4)):
    return expand_grid(list(machines), ["b_eff"], list(partitions), {"b_eff": CFG})


def _texts(outcome):
    return {
        c.spec.fingerprint(): canonical_envelope_text(c.envelope)
        for c in outcome.cells
    }


class TestChaosModule:
    def test_inactive_environment_is_a_no_op(self, monkeypatch):
        for var in chaos.ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        assert not chaos.active()
        chaos.on_cell("b_eff:t3e:2")  # no counter consumed, nothing raised
        payload = {"schema": 3}
        assert chaos.corrupt_payload(payload) is payload
        chaos.check_write()

    def test_ordinals_parse_and_reject_garbage(self, monkeypatch):
        monkeypatch.setenv(chaos.ENV_CRASH, "1, 3,5")
        assert chaos._ordinals(chaos.ENV_CRASH) == frozenset({1, 3, 5})
        monkeypatch.setenv(chaos.ENV_CRASH, "one")
        with pytest.raises(ValueError, match="comma-separated integers"):
            chaos._ordinals(chaos.ENV_CRASH)

    def test_counter_is_campaign_wide_via_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv(chaos.ENV_DIR, str(tmp_path))
        assert [chaos._next("cells") for _ in range(3)] == [1, 2, 3]
        # a "different process" (fresh local state) continues the count
        assert chaos._next("cells") == 4
        assert (tmp_path / "cells.count").read_text() == "4"

    def test_worker_killed_mid_update_keeps_the_count(self, monkeypatch, tmp_path):
        # A broken pool SIGTERMs its surviving workers, possibly inside
        # this update.  An emptied count file restarted the count, so the
        # rebuilt pool's first cell hit ordinal 1 again, pool after pool.
        monkeypatch.setenv(chaos.ENV_DIR, str(tmp_path))
        assert chaos._next("cells") == 1

        def killed(*args):
            raise KeyboardInterrupt("worker killed before its write lands")

        with monkeypatch.context() as m:
            m.setattr(chaos.os, "pwrite", killed)
            with pytest.raises(KeyboardInterrupt):
                chaos._next("cells")
        assert (tmp_path / "cells.count").read_text() == "1"
        assert chaos._next("cells") == 2

    def test_poison_matches_exact_cell_key_only(self, monkeypatch):
        monkeypatch.setenv(chaos.ENV_POISON, "b_eff:t3e:4")
        chaos.on_cell("b_eff:t3e:2")  # different cell: untouched
        with pytest.raises(chaos.ChaosError, match="b_eff:t3e:4"):
            chaos.on_cell(chaos.cell_key("b_eff", "t3e", 4))


class TestEnospcAtomicWrite:
    """Satellite regression: a failed atomic write leaves no orphan."""

    def test_injected_enospc_raises_and_cleans_tmp(self, monkeypatch, tmp_path):
        target = tmp_path / "out.json"
        target.write_text('{"old": true}')
        monkeypatch.setenv(chaos.ENV_DIR, str(tmp_path / "chaos"))
        monkeypatch.setenv(chaos.ENV_ENOSPC, "1")
        with pytest.raises(OSError) as err:
            write_json_atomic(target, {"new": True})
        assert err.value.errno == errno.ENOSPC
        # the old file survives untouched and the temp file is gone
        assert json.loads(target.read_text()) == {"old": True}
        assert list(tmp_path.glob("*.tmp")) == []

    def test_second_write_succeeds_after_the_full_disk_clears(
        self, monkeypatch, tmp_path
    ):
        target = tmp_path / "out.json"
        monkeypatch.setenv(chaos.ENV_DIR, str(tmp_path / "chaos"))
        monkeypatch.setenv(chaos.ENV_ENOSPC, "1")
        with pytest.raises(OSError):
            write_json_atomic(target, {"n": 1})
        write_json_atomic(target, {"n": 2})  # ordinal 2 is not armed
        assert json.loads(target.read_text()) == {"n": 2}
        assert list(tmp_path.glob("*.tmp")) == []


class TestPoisonedGrid:
    def test_completes_degraded_with_provenance(self, monkeypatch, tmp_path):
        monkeypatch.setenv(chaos.ENV_POISON, "b_eff:t3e:4")
        store = RunStore(tmp_path / "store")
        specs = _grid()
        out = run_grid(
            specs,
            store=store,
            journal_root=tmp_path / "journals",
            supervision=POLICY,
        )
        # the grid completed: every healthy cell produced its envelope
        assert len(out.cells) == len(specs) - 1
        assert len(out.poisoned) == 1
        record = out.poisoned[0]
        assert (record.benchmark, record.machine, record.nprocs) == ("b_eff", "t3e", 4)
        assert [a.kind for a in record.attempts] == ["error", "error"]
        assert "ChaosError" in record.last.message
        # never silently valid
        assert out.validity.state == "degraded"
        assert "cell:b_eff:t3e:4" in out.validity.flagged
        # provenance: store sidecar ...
        assert store.poisoned_keys() == [record.key]
        stub = store.poison(record.key)
        assert stub["poisoned"] is True
        assert len(stub["attempts"]) == 2
        assert store.stats.poisoned == 1
        # ... and journal stub, visible to the sweep journal reader
        journal = SweepJournal(tmp_path / "journals" / "b_eff__t3e")
        assert [r.nprocs for r in journal.poisoned().values()] == [4]

    def test_exported_grid_summary_is_wall_clock_free(
        self, monkeypatch, tmp_path
    ):
        """grid.json is a pure function of the run's inputs.

        The poisoned entries in the exported summary must use the
        export serialization (no per-attempt wall timings), so two
        degraded runs of the same grid export byte-identical trees
        even though their attempts measured different durations.
        """
        from repro.cli import EXIT_COMPLETED_DEGRADED, main_repro

        monkeypatch.setenv(chaos.ENV_POISON, "b_eff:t3e:4")

        def export(name):
            out_dir = tmp_path / name
            code = main_repro([
                "sweep-grid", "--machines", "t3e", "--benchmarks", "b_eff",
                "--partitions", "2,4", "--max-failures", "2",
                "--out", str(out_dir),
            ])
            assert code == EXIT_COMPLETED_DEGRADED
            return (out_dir / "grid.json").read_bytes()

        first, second = export("a"), export("b")
        assert first == second
        summary = json.loads(first)
        assert [p["key"] for p in summary["poisoned"]]
        assert "elapsed_s" not in first.decode()

    def test_all_cells_poisoned_is_invalid_sweep(self, monkeypatch):
        monkeypatch.setenv(chaos.ENV_POISON, "b_eff:t3e:2,b_eff:t3e:4")
        outcome = run_sweep("b_eff", "t3e", [2, 4], config=CFG, supervision=POLICY)
        assert outcome.results == ()
        assert len(outcome.poisoned) == 2
        assert outcome.validity.state == "invalid"
        assert "every partition was poisoned" in outcome.validity.reason

    def test_partial_poison_keeps_the_surviving_system_value(self, monkeypatch):
        clean = run_sweep("b_eff", "t3e", [2], config=CFG)
        monkeypatch.setenv(chaos.ENV_POISON, "b_eff:t3e:4")
        outcome = run_sweep("b_eff", "t3e", [2, 4], config=CFG, supervision=POLICY)
        assert [r.nprocs for r in outcome.results] == [2]
        assert outcome.system_value == clean.system_value
        assert outcome.validity.state == "degraded"
        assert "partition:4" in outcome.validity.flagged


class TestResumeHealsPoison:
    def test_resumed_grid_is_byte_identical_to_undisturbed(
        self, monkeypatch, tmp_path
    ):
        specs = _grid()
        # undisturbed supervised baseline
        baseline = run_grid(
            specs,
            store=RunStore(tmp_path / "store-a"),
            journal_root=tmp_path / "journals-a",
            supervision=POLICY,
        )
        assert baseline.validity.ok

        # chaos run: one cell poisoned, campaign completes degraded
        store_b = RunStore(tmp_path / "store-b")
        monkeypatch.setenv(chaos.ENV_POISON, "b_eff:t3e:4")
        disturbed = run_grid(
            specs,
            store=store_b,
            journal_root=tmp_path / "journals-b",
            supervision=POLICY,
        )
        assert disturbed.validity.state == "degraded"
        assert store_b.poisoned_keys() != []

        # resume without chaos: cache serves the survivors, the poisoned
        # cell re-runs and heals — sidecar cleared, validity valid
        monkeypatch.delenv(chaos.ENV_POISON)
        healed = run_grid(
            specs,
            store=store_b,
            journal_root=tmp_path / "journals-b",
            supervision=POLICY,
        )
        assert healed.poisoned == ()
        assert healed.validity.ok
        assert healed.fresh == 1 and healed.cached == len(specs) - 1
        assert store_b.poisoned_keys() == []
        assert _texts(healed) == _texts(baseline)

        # the journal trees converge byte-for-byte as well
        root_a, root_b = tmp_path / "journals-a", tmp_path / "journals-b"
        files_a = sorted(p.relative_to(root_a) for p in root_a.rglob("*.json"))
        files_b = sorted(p.relative_to(root_b) for p in root_b.rglob("*.json"))
        assert files_a == files_b
        for rel in files_a:
            assert (root_a / rel).read_bytes() == (root_b / rel).read_bytes()

    def test_sweep_journal_stub_heals_on_success(self, monkeypatch, tmp_path):
        jdir = tmp_path / "journal"
        monkeypatch.setenv(chaos.ENV_POISON, "b_eff:t3e:4")
        poisoned = run_sweep(
            "b_eff", "t3e", [2, 4], config=CFG,
            journal=jdir, supervision=POLICY,
        )
        journal = SweepJournal(jdir)
        assert 4 in journal.poisoned()
        assert poisoned.validity.state == "degraded"
        monkeypatch.delenv(chaos.ENV_POISON)
        healed = run_sweep(
            "b_eff", "t3e", [2, 4], config=CFG,
            journal=jdir, resume=True, supervision=POLICY,
        )
        assert healed.poisoned == ()
        assert healed.validity.ok
        assert journal.poisoned() == {}
        clean = run_sweep("b_eff", "t3e", [2, 4], config=CFG)
        assert healed.system_value == clean.system_value


class TestHangAndCrashCampaigns:
    def test_hung_workers_terminate_via_heartbeat(self, monkeypatch, tmp_path):
        monkeypatch.setenv(chaos.ENV_DIR, str(tmp_path / "chaos"))
        monkeypatch.setenv(chaos.ENV_HANG, "1,2")
        out = run_grid(
            _grid(machines=("t3e",), partitions=(2,)),
            supervision=SupervisionPolicy(
                max_failures=2,
                heartbeat_interval_s=0.02,
                heartbeat_timeout_s=0.4,
            ),
        )
        assert out.cells == ()
        assert len(out.poisoned) == 1
        assert [a.kind for a in out.poisoned[0].attempts] == [
            "heartbeat-lost", "heartbeat-lost",
        ]
        assert out.validity.state in ("degraded", "invalid")
        assert not out.validity.ok

    def test_crashed_worker_retries_to_clean_completion(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(chaos.ENV_DIR, str(tmp_path / "chaos"))
        monkeypatch.setenv(chaos.ENV_CRASH, "1")
        out = run_grid(
            _grid(machines=("t3e",), partitions=(2,)), supervision=POLICY
        )
        assert out.poisoned == ()
        assert out.validity.ok
        assert len(out.cells) == 1
        # the healed result is the undisturbed result, bit for bit
        monkeypatch.delenv(chaos.ENV_CRASH)
        clean = run_grid(_grid(machines=("t3e",), partitions=(2,)))
        assert _texts(out) == _texts(clean)

    def test_corrupt_return_never_becomes_a_result(self, monkeypatch, tmp_path):
        monkeypatch.setenv(chaos.ENV_DIR, str(tmp_path / "chaos"))
        monkeypatch.setenv(chaos.ENV_CORRUPT, "1,2")
        out = run_grid(
            _grid(machines=("t3e",), partitions=(2,)), supervision=POLICY
        )
        # both attempts returned garbage -> poisoned as corrupt-return
        assert len(out.poisoned) == 1
        assert [a.kind for a in out.poisoned[0].attempts] == [
            "corrupt-return", "corrupt-return",
        ]
        # the corrupt marker payload appears nowhere in the outcome
        assert out.cells == ()


class TestStorePoisonSidecar:
    def test_record_read_list_and_heal_on_put(self, tmp_path):
        from repro.runtime import run_spec
        from repro.runtime.envelope import envelope_for

        store = RunStore(tmp_path / "store")
        store.record_poison("k1", {"poisoned": True, "attempts": []})
        assert store.poisoned_keys() == ["k1"]
        assert store.poison("k1")["poisoned"] is True
        assert store.poison("missing") is None
        assert store.stats.poisoned == 1
        assert "poisoned=1" in store.stats.describe()
        # a successful put of the same key heals the quarantine
        result = run_spec("b_eff", "t3e", 2, CFG).run()
        store.put("k1", envelope_for(result, machine="t3e"))
        assert store.poisoned_keys() == []
        assert store.poison("k1") is None

    def test_unreadable_sidecar_reads_as_no_poison(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.record_poison("k1", {"poisoned": True})
        store.poison_path("k1").write_text("{torn")
        assert store.poison("k1") is None
