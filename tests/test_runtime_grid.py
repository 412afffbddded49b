"""The grid scheduler: expansion, cost model, planning, execution.

The scheduler's load-bearing claims: grids expand deterministically
(with b_eff_io dropped on machines without a PFS), the cost model
orders cells the way measured wall time does, the dynamic plan beats
static chunking on skewed grids by construction, run_grid dedupes
identical fingerprints and composes with the store, and retry
accounting keys by (machine, nprocs, benchmark) so one machine's
failures never exhaust another's budget.
"""

import json

import pytest

from repro.beff.measurement import MeasurementConfig
from repro.beffio.benchmark import BeffIOConfig
from repro.runtime import (
    CostModel,
    GridScheduler,
    RunStore,
    canonical_envelope_text,
    expand_grid,
    plan_schedule,
    run_grid,
    run_spec,
)
from repro.runtime.scheduler import _GridRetry, GridWorkerError
from repro.runtime.spec import sweep_fingerprint
from repro.runtime.sweep import JournalMismatchError, SweepJournal, run_sweep

CFG = MeasurementConfig(backend="analytic")
IO_CFG = BeffIOConfig(T=1.0, pattern_types=(0,))


class TestExpandGrid:
    def test_full_cross_product(self):
        specs = expand_grid(["t3e", "sr2201"], ["b_eff"], [2, 4], {"b_eff": CFG})
        assert len(specs) == 4
        assert {(s.machine, s.nprocs) for s in specs} == {
            ("t3e", 2), ("t3e", 4), ("sr2201", 2), ("sr2201", 4),
        }

    def test_non_pfs_machines_skip_beffio(self):
        specs = expand_grid(
            ["t3e", "sr2201"], ["b_eff", "b_eff_io"],
            [2], {"b_eff": CFG, "b_eff_io": IO_CFG},
        )
        # sr2201 has no PFS model: its b_eff_io cell is dropped
        assert [(s.benchmark, s.machine) for s in specs] == [
            ("b_eff", "t3e"), ("b_eff_io", "t3e"), ("b_eff", "sr2201"),
        ]

    def test_unknown_machine_fails_early(self):
        with pytest.raises(KeyError):
            expand_grid(["not-a-machine"], ["b_eff"], [2], {"b_eff": CFG})

    def test_partitions_are_deduped_and_sorted(self):
        specs = expand_grid(["t3e"], ["b_eff"], [4, 2, 4], {"b_eff": CFG})
        assert [s.nprocs for s in specs] == [2, 4]


class TestCostModel:
    def test_cost_grows_with_nprocs(self):
        model = CostModel()
        small = model.cost(run_spec("b_eff", "t3e", 2, CFG))
        large = model.cost(run_spec("b_eff", "t3e", 16, CFG))
        assert large > small

    def test_des_costs_more_than_analytic(self):
        model = CostModel()
        analytic = model.cost(run_spec("b_eff", "t3e", 4, CFG))
        des = model.cost(
            run_spec("b_eff", "t3e", 4, MeasurementConfig(backend="des"))
        )
        assert des > analytic

    def test_beffio_cost_scales_with_scheduled_time(self):
        model = CostModel()
        short = model.cost(run_spec("b_eff_io", "sp", 2, BeffIOConfig(T=2.0)))
        long = model.cost(run_spec("b_eff_io", "sp", 2, BeffIOConfig(T=20.0)))
        assert long == pytest.approx(10 * short)

    def test_calibrate_fits_the_measured_exponent(self, tmp_path):
        # synthetic trajectory: wall ~ procs^2 exactly
        payload = {"rounds": [
            {"procs": 8, "incremental_wall_s": 64.0},
            {"procs": 2, "incremental_wall_s": 4.0},
        ]}
        (tmp_path / "BENCH_fluid.json").write_text(json.dumps(payload))
        model = CostModel.calibrate(tmp_path)
        assert model.exponent == pytest.approx(2.0)

    def test_calibrate_defaults_without_data(self, tmp_path):
        assert CostModel.calibrate(tmp_path).exponent == CostModel().exponent
        (tmp_path / "BENCH_fluid.json").write_text("{broken")
        assert CostModel.calibrate(tmp_path).exponent == CostModel().exponent

    def test_calibrate_from_committed_baseline(self):
        # the repo's own BENCH_fluid.json yields a sane super-linear fit
        model = CostModel.calibrate("benchmarks/results")
        assert 0.5 <= model.exponent <= 3.0


class TestPlanSchedule:
    SKEWED = [5.0] + [1.0] * 8  # one big cell among small ones

    def test_dynamic_beats_static_on_skew(self):
        dynamic = plan_schedule(self.SKEWED, jobs=2, policy="dynamic")
        static = plan_schedule(self.SKEWED, jobs=2, policy="static")
        assert dynamic.makespan < static.makespan
        # LPT bound: dynamic is within 4/3 of the ideal split
        ideal = sum(self.SKEWED) / 2
        assert dynamic.makespan <= 4 / 3 * max(ideal, max(self.SKEWED))

    def test_dynamic_dispatches_longest_first(self):
        plan = plan_schedule(self.SKEWED, jobs=2, policy="dynamic")
        assert plan.dispatch[0] == 0  # the big cell starts first

    def test_static_is_contiguous_chunks(self):
        plan = plan_schedule([1.0] * 6, jobs=2, policy="static")
        assert plan.assignments == ((0, 1, 2), (3, 4, 5))
        assert plan.dispatch == (0, 1, 2, 3, 4, 5)

    def test_plans_are_deterministic(self):
        a = plan_schedule(self.SKEWED, jobs=3, policy="dynamic")
        b = plan_schedule(self.SKEWED, jobs=3, policy="dynamic")
        assert a == b

    def test_every_cell_assigned_exactly_once(self):
        for policy in ("dynamic", "static"):
            plan = plan_schedule(self.SKEWED, jobs=4, policy=policy)
            assigned = sorted(i for chunk in plan.assignments for i in chunk)
            assert assigned == list(range(len(self.SKEWED)))

    def test_empty_and_error_cases(self):
        assert plan_schedule([], jobs=2).makespan == 0.0
        with pytest.raises(ValueError, match="jobs"):
            plan_schedule([1.0], jobs=0)
        with pytest.raises(ValueError, match="policy"):
            plan_schedule([1.0], jobs=1, policy="chaotic")


class TestRunGrid:
    GRID = dict(
        machines=["t3e", "sr2201"], benchmarks=["b_eff"], partitions=[2, 4],
    )

    def _specs(self):
        return expand_grid(configs={"b_eff": CFG}, **self.GRID)

    def test_cold_then_warm(self, tmp_path):
        store = RunStore(tmp_path / "store")
        cold = run_grid(self._specs(), store=store)
        assert cold.fresh == 4 and cold.cached == 0 and cold.deduped == 0
        warm = run_grid(self._specs(), store=store)
        assert warm.fresh == 0 and warm.cached == 4
        for c_cold, c_warm in zip(cold.cells, warm.cells):
            assert canonical_envelope_text(c_cold.envelope) == canonical_envelope_text(
                c_warm.envelope
            )
            assert c_warm.source == "cache"

    def test_duplicate_specs_execute_once(self):
        specs = self._specs()
        out = run_grid(specs + specs)
        assert out.deduped == len(specs)
        assert out.fresh == len(specs)
        # duplicate cells carry the identical envelope object
        for a, b in zip(out.cells[: len(specs)], out.cells[len(specs):]):
            assert a.envelope is b.envelope
            assert b.source == "dedup"

    def test_dispatch_order_is_longest_first(self):
        # 4-proc cells cost more than 2-proc cells under the model
        out = run_grid(self._specs())
        by_fp = {s.fingerprint(): s.nprocs for s in self._specs()}
        dispatched = [by_fp[fp] for fp in out.dispatch_order]
        assert dispatched == sorted(dispatched, reverse=True)

    def test_parallel_matches_serial_bit_exactly(self):
        serial = run_grid(self._specs(), jobs=1)
        parallel = run_grid(self._specs(), jobs=2)
        for a, b in zip(serial.cells, parallel.cells):
            assert canonical_envelope_text(a.envelope) == canonical_envelope_text(
                b.envelope
            )

    def test_static_policy_matches_dynamic_bit_exactly(self):
        dynamic = run_grid(self._specs(), jobs=2, policy="dynamic")
        static = run_grid(self._specs(), jobs=2, policy="static")
        for a, b in zip(dynamic.cells, static.cells):
            assert canonical_envelope_text(a.envelope) == canonical_envelope_text(
                b.envelope
            )

    def test_journal_root_composes_with_sweep_resume(self, tmp_path):
        root = tmp_path / "journals"
        out = run_grid(self._specs(), journal_root=root)
        # the grid's journals resume through the single-machine sweep
        resumed = run_sweep(
            "b_eff", "t3e", [2, 4], config=CFG,
            journal=root / "b_eff__t3e", resume=True,
        )
        assert resumed.fresh == 0
        values = {
            c.spec.nprocs: c.envelope.values["b_eff"]
            for c in out.cells
            if c.spec.machine == "t3e"
        }
        assert resumed.partition_values() == values

    def test_mixed_benchmark_grid(self, tmp_path):
        specs = expand_grid(
            ["t3e"], ["b_eff", "b_eff_io"], [2],
            {"b_eff": CFG, "b_eff_io": IO_CFG},
        )
        out = run_grid(specs, store=RunStore(tmp_path / "store"))
        assert {c.spec.benchmark for c in out.cells} == {"b_eff", "b_eff_io"}
        assert out.fresh == 2


class TestRetryKeying:
    def test_grid_retry_keys_by_machine_nprocs_benchmark(self):
        """Two machines failing the same nprocs never pool attempts."""
        retry = _GridRetry(retries=1)
        boom = RuntimeError("boom")
        spec_a = run_spec("b_eff", "t3e", 2, CFG)
        spec_b = run_spec("b_eff", "sr2201", 2, CFG)
        retry.failed(spec_a, boom)  # t3e attempt 1: tolerated
        # under nprocs-only pooling this would be "attempt 2" and raise
        retry.failed(spec_b, boom)  # sr2201 attempt 1: tolerated
        with pytest.raises(GridWorkerError, match="t3e"):
            retry.failed(spec_a, boom)  # t3e attempt 2: over budget


class TestLegacyJournals:
    def test_schema1_journal_is_refused(self, tmp_path):
        """Journals from before the unified keying are refused loudly."""
        baseline = run_sweep("b_eff", "t3e", [2, 4], config=CFG)
        # a schema-1 journal: its manifest pinned a digest without the
        # partition axis, which no longer exists
        jdir = tmp_path / "old-journal"
        jdir.mkdir()
        (jdir / "manifest.json").write_text(json.dumps({
            "schema": 1,
            "machine": "t3e",
            "fingerprint": "0" * 64,
        }))
        journal = SweepJournal(jdir)
        for result in baseline.results:
            journal.record(result, "t3e")
        with pytest.raises(JournalMismatchError, match="schema"):
            run_sweep(
                "b_eff", "t3e", [2, 4], config=CFG, journal=jdir, resume=True
            )

    def test_schema1_with_wrong_config_is_rejected(self, tmp_path):
        jdir = tmp_path / "old-journal"
        jdir.mkdir()
        other = MeasurementConfig(backend="des")
        (jdir / "manifest.json").write_text(json.dumps({
            "schema": 1,
            "machine": "t3e",
            "fingerprint": sweep_fingerprint("b_eff", "t3e", other),
        }))
        with pytest.raises(JournalMismatchError):
            run_sweep(
                "b_eff", "t3e", [2], config=CFG, journal=jdir, resume=True
            )

    def test_unknown_schema_is_rejected(self, tmp_path):
        jdir = tmp_path / "journal"
        jdir.mkdir()
        (jdir / "manifest.json").write_text(json.dumps({
            "schema": 7, "machine": "t3e", "fingerprint": "x",
        }))
        with pytest.raises(JournalMismatchError, match="schema"):
            run_sweep(
                "b_eff", "t3e", [2], config=CFG, journal=jdir, resume=True
            )


class TestBrokenPoolRecovery:
    """A chaos-killed pool worker breaks the whole pool; run_grid must
    rebuild it, resubmit the unfinished cells, and keep the per-cell
    retry accounting across the recreation."""

    def _specs(self):
        return expand_grid(["t3e"], ["b_eff"], [2, 4], {"b_eff": CFG})

    def test_transient_worker_kill_heals(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path / "chaos"))
        monkeypatch.setenv("REPRO_CHAOS_CRASH", "1")
        # generous budget: one armed crash, but a dying worker can fail
        # every in-flight future, charging innocent cells one retry too
        out = run_grid(self._specs(), jobs=2, retries=3)
        assert out.fresh == 2
        # the recovered results equal an undisturbed run bit-exactly
        monkeypatch.delenv("REPRO_CHAOS_CRASH")
        clean = run_grid(self._specs())
        assert {
            c.spec.fingerprint(): canonical_envelope_text(c.envelope)
            for c in out.cells
        } == {
            c.spec.fingerprint(): canonical_envelope_text(c.envelope)
            for c in clean.cells
        }

    def test_retry_counters_survive_pool_recreation(self, monkeypatch, tmp_path):
        # two kills, one retry: the second crash must be charged against
        # the counter from before the pool was rebuilt (attempt 2), not
        # a fresh budget
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path / "chaos"))
        monkeypatch.setenv("REPRO_CHAOS_CRASH", "1,2,3,4")
        with pytest.raises(GridWorkerError, match="after 2 attempt") as err:
            run_grid(self._specs(), jobs=2, retries=1)
        assert err.value.attempts == 2

    def test_dedupe_composes_with_recovery(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path / "chaos"))
        monkeypatch.setenv("REPRO_CHAOS_CRASH", "1")
        specs = self._specs()
        out = run_grid(specs + specs, jobs=2, retries=3)
        # duplicates still collapse to one execution each, even though
        # the pool was rebuilt mid-run
        assert out.deduped == len(specs)
        assert out.fresh == len(specs)
        for a, b in zip(out.cells[: len(specs)], out.cells[len(specs):]):
            assert a.envelope is b.envelope


class TestWorkerErrorIdentity:
    """Satellite: worker errors carry the failing cell's full identity
    both in the message and as structured attributes."""

    def test_grid_worker_error_attributes(self):
        retry = _GridRetry(retries=0)
        spec = run_spec("b_eff", "t3e", 4, CFG)
        with pytest.raises(GridWorkerError) as err:
            retry.failed(spec, RuntimeError("boom"))
        exc = err.value
        assert exc.fingerprint == spec.fingerprint()
        assert (exc.benchmark, exc.machine, exc.nprocs) == ("b_eff", "t3e", 4)
        assert exc.attempts == 1
        assert isinstance(exc.__cause__, RuntimeError)
        message = str(exc)
        assert "partition nprocs=4" in message
        assert "machine 't3e'" in message
        assert "backend='analytic'" in message  # the config summary
        assert exc.fingerprint[:12] in message
        assert "after 1 attempt(s)" in message
        assert "RuntimeError: boom" in message


class TestGridRetryExecution:
    def test_failing_cell_surfaces_with_traceback(self, monkeypatch):
        import repro.runtime.scheduler as scheduler

        def explode(spec):
            raise RuntimeError("cell exploded")

        monkeypatch.setattr(scheduler, "_execute", explode)
        with pytest.raises(GridWorkerError, match="cell exploded") as err:
            run_grid([run_spec("b_eff", "t3e", 2, CFG)], retries=1)
        assert "RuntimeError" in err.value.worker_traceback

    def test_retries_then_success(self, monkeypatch):
        import repro.runtime.scheduler as scheduler

        real = scheduler._execute
        attempts = []

        def flaky(spec):
            attempts.append(1)
            if len(attempts) < 3:
                raise RuntimeError("transient")
            return real(spec)

        monkeypatch.setattr(scheduler, "_execute", flaky)
        out = run_grid([run_spec("b_eff", "t3e", 2, CFG)], retries=2)
        assert out.fresh == 1
        assert len(attempts) == 3

    def test_grid_journals_each_cell_as_it_lands(self, monkeypatch, tmp_path):
        """A grid that dies on a late cell keeps the cells that landed."""
        import repro.runtime.scheduler as scheduler

        real = scheduler._execute

        def fail_on_two(spec):
            if spec.nprocs == 2:
                raise RuntimeError("late cell exploded")
            return real(spec)

        monkeypatch.setattr(scheduler, "_execute", fail_on_two)
        specs = expand_grid(["t3e"], ["b_eff"], [2, 4, 8], {"b_eff": CFG})
        root = tmp_path / "journals"
        with pytest.raises(GridWorkerError, match="late cell exploded"):
            # longest-first dispatch runs 8 and 4 before the failing 2
            run_grid(specs, retries=0, journal_root=root)
        jdir = root / "b_eff__t3e"
        assert (jdir / "manifest.json").exists()
        assert sorted(p.name for p in jdir.glob("partition_*.json")) == [
            "partition_4.json", "partition_8.json",
        ]
