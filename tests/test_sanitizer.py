"""Runtime nondeterminism sanitizer: tie shuffling and trace diffing.

The load-bearing cases: a deliberately planted tie-break dependency is
*caught* by :func:`check_commutativity`, and the real benchmarks are
*proved* commutative — bit-identical numbers under shuffled same-time
tie-breakers.
"""

import os
import subprocess
import sys

import pytest

from repro.beff import MeasurementConfig
from repro.beffio import BeffIOConfig
from repro.devtools.sanitizer import (
    EventTrace,
    check_commutativity,
    check_determinism,
    compare_traces,
    sanitized,
)
from repro.machines import get_machine
from repro.reporting.export import to_json
from repro.sim import Simulator
from repro.sim.engine import TIE_SHUFFLE_ENV


def _tick(i):
    def tick():
        pass

    tick.__qualname__ = f"tick{i}"
    return tick


# -- the engine-level shuffle mechanics ---------------------------------


def test_shuffle_reorders_same_time_events_only():
    def order(seed):
        ran = []
        sim = Simulator()
        sim.instrument(tie_shuffle_seed=seed)
        for i in range(6):
            sim.schedule(0.5, lambda i=i: ran.append(i))
        sim.schedule(1.0, lambda: ran.append("late"))
        sim.run()
        return ran

    fifo = order(None)
    assert fifo == [0, 1, 2, 3, 4, 5, "late"]
    shuffled = order(3)
    # the instant's members are permuted, never leaked across instants
    assert sorted(shuffled[:6]) == [0, 1, 2, 3, 4, 5]
    assert shuffled[-1] == "late"
    assert any(order(s)[:6] != fifo[:6] for s in range(1, 6))
    assert order(3) == shuffled  # the permutation itself is deterministic


def test_instrument_rejects_running_simulator():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    with pytest.raises(RuntimeError):
        sim.instrument(tie_shuffle_seed=1)


def test_tie_shuffle_env_toggle(monkeypatch):
    monkeypatch.setenv(TIE_SHUFFLE_ENV, "11")
    ran = []
    sim = Simulator()
    for i in range(6):
        sim.schedule(0.5, lambda i=i: ran.append(i))
    sim.run()
    assert sorted(ran) == [0, 1, 2, 3, 4, 5]
    assert ran != [0, 1, 2, 3, 4, 5]


# -- sanitized() regions and trace capture ------------------------------


def test_sanitized_records_every_simulator_and_does_not_nest():
    with sanitized() as session:
        for _ in range(2):
            sim = Simulator()
            sim.schedule(1.0, _tick(1))
            sim.schedule(1.0, _tick(2))
            sim.run()
        with pytest.raises(RuntimeError, match="nest"):
            with sanitized():
                pass
    assert len(session.traces) == 2
    trace = session.traces[0]
    assert [r.label for r in trace.records] == ["tick1", "tick2"]
    assert trace.groups() == [(1.0, ("tick1", "tick2"))]
    # outside the region, new simulators are untouched
    assert Simulator()._recorder is None


def test_compare_traces_classifies_divergences():
    def trace(labels_by_time):
        t = EventTrace()
        seq = 0
        for time, labels in labels_by_time:
            for label in labels:
                t.append(time, seq, _tick(0))
                t.records[-1] = type(t.records[-1])(time, seq, label)
                seq += 1
        return t

    a = trace([(1.0, ["x", "y"]), (2.0, ["z"])])
    same = trace([(1.0, ["x", "y"]), (2.0, ["z"])])
    assert compare_traces(a, same) == []

    flipped = trace([(1.0, ["y", "x"]), (2.0, ["z"])])
    (d,) = compare_traces(a, flipped)
    assert (d.kind, d.time) == ("order", 1.0)
    assert "order divergence" in d.describe()

    forked = trace([(1.0, ["x", "w"]), (2.0, ["z"])])
    assert [d.kind for d in compare_traces(a, forked)] == ["content"]
    shorter = trace([(1.0, ["x", "y"])])
    assert [d.kind for d in compare_traces(a, shorter)] == ["content"]


# -- the planted tie-break dependency is caught -------------------------


def _order_dependent_run():
    """A 'benchmark' whose result is the arrival order of a 3-way tie."""
    ran = []
    sim = Simulator()
    for i in range(3):
        sim.schedule(1.0, lambda i=i: ran.append(i))
    sim.run()
    return tuple(ran)


def test_commutativity_check_catches_planted_dependency():
    report = check_commutativity(_order_dependent_run, seeds=range(1, 9))
    assert not report.ok
    assert report.failing_seeds()
    assert report.baseline_result == (0, 1, 2)
    assert "TIE-BREAK DEPENDENCY" in report.describe()
    # the divergence report names the instant of the permuted tie
    failing = [r for r in report.runs if not r.result_equal]
    assert any(d.kind == "order" and d.time == 1.0
               for r in failing for d in r.divergences)


def test_commutativity_check_passes_commutative_handlers():
    def run():
        out = {}
        sim = Simulator()
        for i in range(4):
            sim.schedule(1.0, lambda i=i: out.__setitem__(i, i * i))
        sim.run()
        return out

    report = check_commutativity(run, seeds=(1, 2, 3))
    assert report.ok
    assert "commutative" in report.describe()
    # the probe actually exercised same-time reorderings
    assert any(d.kind == "order" for r in report.runs for d in r.divergences)


def test_determinism_check():
    assert check_determinism(_order_dependent_run).ok  # identical runs agree
    state = iter(range(100))

    def leaky():
        sim = Simulator()
        sim.schedule(1.0 + next(state), _tick(0))
        sim.run()
        return 0

    report = check_determinism(leaky)
    assert not report.ok
    assert "NONDETERMINISM" in report.describe()
    with pytest.raises(ValueError):
        check_determinism(_order_dependent_run, repeats=1)


# -- the real benchmarks are commutative --------------------------------


def test_beff_is_bit_identical_under_tie_shuffle():
    spec = get_machine("t3e")
    config = MeasurementConfig(methods=("sendrecv",), max_looplength=1)

    report = check_commutativity(
        lambda: spec.run_beff(8, config),
        seeds=(1, 2),
        equal=lambda a, b: to_json(a) == to_json(b),
    )
    assert report.ok, report.describe()
    reordered = sum(1 for r in report.runs for d in r.divergences if d.kind == "order")
    assert reordered > 0, "shuffle never exercised a tie — probe is dead"


def test_beffio_is_bit_identical_under_tie_shuffle():
    spec = get_machine("sp")
    config = BeffIOConfig(T=2.0, pattern_types=(0, 3))

    report = check_commutativity(
        lambda: spec.run_beffio(4, config),
        seeds=(1,),
        equal=lambda a, b: to_json(a) == to_json(b),
    )
    assert report.ok, report.describe()


# Glue callbacks (``on_trigger``) run synchronously inside the trigger
# that fires them, so the shuffle cannot permute them directly; these
# wider sweeps shuffle everything that is still queued — process
# resumes, flow starts and completions, eager local completions, I/O
# service — over more seeds, all three b_eff methods and every b_eff_io
# pattern type, and require the unshuffled result exactly.

_SHUFFLE_SEEDS = (1, 2, 3, 4, 5)


def _beff_t3e16():
    config = MeasurementConfig(max_looplength=1)
    return to_json(get_machine("t3e").run_beff(16, config))


def _beffio_sp4():
    return to_json(get_machine("sp").run_beffio(4, BeffIOConfig(T=1.0)))


_SHUFFLE_CASES = {"beff-t3e-16": _beff_t3e16, "beffio-sp-4": _beffio_sp4}


@pytest.fixture(scope="module", params=sorted(_SHUFFLE_CASES))
def shuffle_case(request):
    """A case's run and its unshuffled result, computed once per module."""
    run = _SHUFFLE_CASES[request.param]
    return run, run()


@pytest.mark.parametrize("seed", _SHUFFLE_SEEDS)
def test_benchmarks_are_bit_identical_over_shuffle_seeds(shuffle_case, seed):
    run, baseline = shuffle_case
    with sanitized(record=False, tie_shuffle_seed=seed):
        shuffled = run()
    assert shuffled == baseline


def test_cli_sanitize_flag_end_to_end():
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from repro.cli import main_beff; "
         "sys.exit(main_beff(['--machine', 't3e', '--procs', '4', "
         "'--methods', 'sendrecv', '--sanitize']))"],
        capture_output=True, text=True, env=env, cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode == 0, proc.stderr
    assert "sanitizer: commutative" in proc.stdout
