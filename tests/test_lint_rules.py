"""repro-lint rule fixtures: one good/bad source pair per rule.

Each case feeds :func:`repro.devtools.lint.lint_source` a minimal
snippet that *must* trip exactly the rule under test, and a sibling
snippet applying the documented fix that must stay clean.  Suppression
directives and the baseline machinery get their own cases, and the CLI
is exercised end to end through :func:`main`.
"""

import dataclasses
import json
import textwrap

import pytest

from repro.devtools.lint import (
    DEFAULT_BASELINE,
    RULES,
    Baseline,
    BaselineFormatError,
    LintViolation,
    apply_baseline,
    lint_paths,
    lint_source,
    load_baseline,
    main,
    write_baseline,
)

#: a path inside the hot-module set (REPRO007 applies) but away from
#: the per-rule exemptions (randomness.py, reporting/export.py, ...)
HOT = "src/repro/sim/example.py"
#: a path outside sim//net/ so class-shape rules stay quiet
COLD = "src/repro/beff/example.py"


def rules_hit(source, path=COLD):
    return sorted({v.rule for v in lint_source(textwrap.dedent(source), path)})


# -- one (bad, good) pair per rule --------------------------------------

CASES = {
    "REPRO001": (
        """
        import random
        x = random.random()
        """,
        """
        from repro.sim.randomness import RandomStreams
        x = RandomStreams(7).stream("pattern").random()
        """,
    ),
    "REPRO002": (
        """
        import time
        t0 = time.perf_counter()
        """,
        """
        def measure(sim):
            return sim.now
        """,
    ),
    "REPRO003": (
        """
        def drain(pending):
            ready = set(pending)
            for item in ready:
                item.run()
        """,
        """
        def drain(pending):
            ready = set(pending)
            for item in sorted(ready):
                item.run()
        """,
    ),
    "REPRO004": (
        """
        def total(rates):
            return sum({r * 2.0 for r in rates})
        """,
        """
        def total(rates):
            return sum(sorted(r * 2.0 for r in rates))
        """,
    ),
    "REPRO005": (
        """
        def run(step):
            try:
                step()
            except Exception:
                pass
        """,
        """
        def run(step):
            try:
                step()
            except Exception as exc:
                raise RuntimeError("step failed") from exc
        """,
    ),
    "REPRO006": (
        """
        def collect(out=[]):
            out.append(1)
            return out
        """,
        """
        def collect(out=None):
            if out is None:
                out = []
            out.append(1)
            return out
        """,
    ),
    "REPRO008": (
        """
        import json
        def export(result, path):
            with open(path, "w") as fh:
                json.dump(result, fh)
        """,
        """
        from repro.reporting.export import write_json_atomic
        def export(result, path):
            write_json_atomic(path, result)
        """,
    ),
    "REPRO009": (
        """
        import os
        token = os.urandom(8)
        """,
        """
        from repro.sim.randomness import RandomStreams
        token = RandomStreams(7).stream("token").integers(0, 1 << 63)
        """,
    ),
    "REPRO010": (
        """
        def stream_key(name):
            return hash(name)
        """,
        """
        class Key:
            def __hash__(self):
                return hash((Key, 3))
        """,
    ),
    "REPRO011": (
        """
        import json
        def save(envelope, path):
            path.write_text(json.dumps(envelope.to_dict()))
        """,
        """
        from repro.reporting.export import write_json_atomic
        def save(envelope, path):
            write_json_atomic(path, envelope.to_dict())
        """,
    ),
    "REPRO012": (
        """
        # repro-lint: hot-kernel
        def totals(flows):
            out = {}
            for link, moved in flows:
                out[link] = out.get(link, 0.0) + moved
            return out
        """,
        """
        # repro-lint: hot-kernel
        import numpy as np
        def totals(cols, moved, n_links):
            return np.bincount(cols, weights=moved, minlength=n_links)
        """,
    ),
    "REPRO013": (
        """
        import json
        def record(journal_dir, row):
            (journal_dir / "manifest.json").write_text(json.dumps(row))
        """,
        """
        from repro.reporting.export import write_json_atomic
        def record(journal_dir, row):
            write_json_atomic(journal_dir / "manifest.json", row)
        """,
    ),
}


@pytest.mark.parametrize("rule", sorted(CASES))
def test_rule_fires_on_bad_and_not_on_good(rule):
    bad, good = CASES[rule]
    assert rule in rules_hit(bad), f"{rule} missed its target pattern"
    assert rule not in rules_hit(good), f"{rule} false positive on the fix"


def test_repro007_requires_slots_in_hot_modules():
    bad = """
    class Packet:
        def __init__(self):
            self.size = 0
    """
    assert rules_hit(bad, HOT) == ["REPRO007"]
    # either spelling of the fix is accepted
    assert rules_hit("class Packet:\n    __slots__ = ('size',)\n", HOT) == []
    good_dc = """
    from dataclasses import dataclass
    @dataclass(frozen=True, slots=True)
    class Packet:
        size: int
    """
    assert rules_hit(good_dc, HOT) == []
    # exception classes never need __slots__
    assert rules_hit("class BadPacket(ValueError):\n    pass\n", HOT) == []
    # and the rule only applies to the hot sim//net/ modules
    assert "REPRO007" not in rules_hit(bad, COLD)


def test_repro011_targets_result_payloads_only():
    # a result-shaped payload fed to json.dump fires alongside REPRO008
    dump = """
    import json
    def save(result, fh):
        json.dump(result.to_dict(), fh)
    """
    assert "REPRO011" in rules_hit(dump)
    # envelope_for(...) output is a payload even without a telling name
    env = """
    from repro.runtime.envelope import envelope_for
    def save(r, path):
        path.write_text(str(envelope_for(r)))
    """
    assert "REPRO011" in rules_hit(env)
    # writes of non-result data stay REPRO008-only (atomicity concern)
    note = 'def save(path):\n    path.write_text("done")\n'
    assert rules_hit(note) == ["REPRO008"]
    # the atomic exporter itself is the one sanctioned writer
    impl = """
    import json
    def write_json_atomic(path, payload):
        json.dump(payload, open(path, "w"))
    """
    assert rules_hit(impl, "src/repro/reporting/export.py") == []


def test_repro012_is_opt_in_and_dict_only():
    accum = """
    def totals(flows):
        out = {}
        for link, moved in flows:
            out[link] = out.get(link, 0.0) + moved
        return out
    """
    # without the hot-kernel marker the pattern is ordinary code
    assert "REPRO012" not in rules_hit(accum)
    # += on a visibly-dict name fires too, including in while loops
    aug = """
    # repro-lint: hot-kernel
    def drain(queue):
        seen = dict()
        while queue:
            link = queue.pop()
            seen[link] += 1
    """
    assert "REPRO012" in rules_hit(aug)
    # numpy-style subscript updates are not dict accumulation: the
    # kernel's own `mult[pending] -= 1` loop must stay clean
    arr = """
    # repro-lint: hot-kernel
    import numpy as np
    def settle(residual, mult, bottleneck):
        pending = mult > 0
        while bool(pending.any()):
            residual[pending] = np.maximum(0.0, residual[pending] - bottleneck)
            mult[pending] -= 1
            pending = mult > 0
    """
    assert "REPRO012" not in rules_hit(arr)
    # inline suppression works as for every other rule
    silenced = """
    # repro-lint: hot-kernel
    def totals(flows):
        out = {}
        for link, moved in flows:
            out[link] = out.get(link, 0.0) + moved  # repro-lint: disable=REPRO012 -- cold path
        return out
    """
    assert "REPRO012" not in rules_hit(silenced)


def test_repro013_targets_store_and_journal_paths_only():
    # a write whose path mentions a store location fires even when no
    # result-payload name is around (the REPRO011 heuristic is blind here)
    bad = """
    import json
    def put(store, key, row):
        with open(store.objects_dir / key, "w") as fh:
            json.dump(row, fh)
    """
    assert "REPRO013" in rules_hit(bad)
    # ordinary writes away from store/journal paths stay REPRO013-clean
    # (REPRO008 still covers their atomicity)
    plain = """
    def save(path, text):
        path.write_text(text)
    """
    assert "REPRO013" not in rules_hit(plain)
    # the implementation home of write_json_atomic is exempt
    impl = """
    import json
    def write_json_atomic(path, payload):
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
    """
    assert rules_hit(impl, "src/repro/reporting/export.py") == []
    # string-literal paths count as addressing the store too
    literal = """
    import json
    def dump(rows):
        with open("results/journal/partition_2.json", "w") as fh:
            json.dump(rows, fh)
    """
    assert "REPRO013" in rules_hit(literal)


def test_repro014_flags_silent_swallows_in_runtime_only():
    RUNTIME = "src/repro/runtime/example.py"
    # a *narrow* handler that drops the error on the floor — exactly
    # what REPRO005 (broad-except rule) cannot see
    bad = """
    def touch(path):
        try:
            path.touch()
        except OSError:
            pass
    """
    assert "REPRO014" in rules_hit(bad, RUNTIME)
    # `continue` and constant `return` swallow just the same
    swallow_return = """
    def read(path):
        try:
            return path.read_text()
        except OSError:
            return None
    """
    assert "REPRO014" in rules_hit(swallow_return, RUNTIME)
    # the same code outside runtime/ is REPRO014-clean (REPRO005 still
    # owns broad handlers everywhere)
    assert "REPRO014" not in rules_hit(bad, COLD)
    # a handler that re-raises, tags validity, or does real work passes
    accounted = """
    def read(path, outcome):
        try:
            return path.read_text()
        except OSError as exc:
            outcome.validity = "degraded"
            raise
    """
    assert "REPRO014" not in rules_hit(accounted, RUNTIME)
    recorded = """
    def read(path, failures):
        try:
            return path.read_text()
        except OSError as exc:
            failures.append(exc)
            return None
    """
    assert "REPRO014" not in rules_hit(recorded, RUNTIME)
    # a broad swallow in runtime/ stays REPRO005's finding, not a
    # double report
    broad = """
    def run(step):
        try:
            step()
        except Exception:
            pass
    """
    assert rules_hit(broad, RUNTIME) == ["REPRO005"]


def test_rule_path_exemptions():
    rng = "import random\nx = random.random()\n"
    assert rules_hit(rng, "src/repro/sim/randomness.py") == []
    clock = "import time\nt = time.time()\n"
    assert rules_hit(clock, "benchmarks/test_bench_fluid.py") == []
    dump = "import json\njson.dump({}, open('x', 'w'))\n"
    assert rules_hit(dump, "src/repro/reporting/export.py") == []


def test_order_insensitive_consumers_are_clean():
    source = """
    def stats(ready):
        pending = set(ready)
        lo = min(pending)
        hi = max(x + 1 for x in pending)
        n = len(pending)
        both = sorted(pending | {0})
        return lo, hi, n, both
    """
    assert rules_hit(source) == []


def test_set_operator_and_comprehension_sources_detected():
    source = """
    def merge(a, b):
        return [x for x in set(a) | set(b)]
    """
    assert rules_hit(source) == ["REPRO003"]


def test_violation_render_and_locations():
    violations = lint_source("import random\ny = random.random()\n", "m.py")
    assert [v.rule for v in violations] == ["REPRO001"]
    v = violations[0]
    assert v.line == 2
    assert v.render().startswith("m.py:2:")
    assert "random.random" in v.message


# -- suppressions -------------------------------------------------------


def test_inline_suppression_silences_exactly_its_line_and_rule():
    src = (
        "import random\n"
        "a = random.random()  # repro-lint: disable=REPRO001 -- test fixture\n"
        "b = random.random()\n"
    )
    assert [v.line for v in lint_source(src, "m.py")] == [3]
    # a directive for a different rule does not apply
    wrong = "import random\nc = random.random()  # repro-lint: disable=REPRO002\n"
    assert [v.rule for v in lint_source(wrong, "m.py")] == ["REPRO001"]
    # disable=all silences everything on the line
    every = "import random\nd = random.random()  # repro-lint: disable=all\n"
    assert lint_source(every, "m.py") == []


# -- baseline -----------------------------------------------------------


def _violation(path, rule, line=1):
    return LintViolation(path=path, line=line, col=1, rule=rule, message=RULES[rule])


def test_apply_baseline_forgives_up_to_the_recorded_count():
    violations = [
        _violation("a.py", "REPRO001", line=1),
        _violation("a.py", "REPRO001", line=9),
        _violation("b.py", "REPRO003", line=2),
    ]
    baseline = Baseline(v2={("REPRO001", "", ""): 1})
    fresh, suppressed = apply_baseline(violations, baseline)
    assert suppressed == 1
    # the earliest line is forgiven first; the later one is new debt
    assert [(v.path, v.line) for v in fresh] == [("a.py", 9), ("b.py", 2)]
    fresh, suppressed = apply_baseline(violations, Baseline())
    assert (len(fresh), suppressed) == (3, 0)


def test_baseline_round_trip(tmp_path):
    target = tmp_path / "baseline.json"
    write_baseline(target, [_violation("a.py", "REPRO001")] * 2)
    loaded = load_baseline(target)
    assert loaded.v2 == {("REPRO001", "", ""): 2}
    data = json.loads(target.read_text())
    assert data["version"] == 2
    assert data["entries"] == [
        {"rule": "REPRO001", "qualname": "", "stmt": "", "count": 2,
         "reason": ""}
    ]
    missing = load_baseline(tmp_path / "missing.json")
    assert missing.v2 == {}


def test_baseline_v2_keys_on_qualname_and_stmt(tmp_path):
    """v2 entries survive line drift: the key ignores line numbers."""
    target = tmp_path / "baseline.json"
    tainted = LintViolation(
        path="a.py", line=3, col=1, rule="REPRO001",
        message=RULES["REPRO001"], qualname="a.f", stmt="deadbeef" * 2,
    )
    write_baseline(target, [tainted])
    drifted = dataclasses.replace(tainted, line=40)
    fresh, suppressed = apply_baseline([drifted], load_baseline(target))
    assert (fresh, suppressed) == ([], 1)


def test_baseline_write_preserves_prior_reasons(tmp_path):
    target = tmp_path / "baseline.json"
    write_baseline(target, [_violation("a.py", "REPRO001")])
    data = json.loads(target.read_text())
    data["entries"][0]["reason"] = "carried debt"
    target.write_text(json.dumps(data))
    write_baseline(
        target, [_violation("a.py", "REPRO001")], prior=load_baseline(target)
    )
    assert json.loads(target.read_text())["entries"][0]["reason"] == (
        "carried debt"
    )


def test_baseline_v1_is_refused(tmp_path, capsys):
    """A version-1 or version-less baseline is never silently applied."""
    target = tmp_path / "baseline.json"
    for payload in ({"version": 1, "entries": {}}, {"a.py::REPRO001": 1}):
        target.write_text(json.dumps(payload))
        with pytest.raises(BaselineFormatError, match="--write-baseline"):
            load_baseline(target)
        assert main([str(tmp_path), "--baseline", str(target)]) == 2
        [refusal] = capsys.readouterr().err.splitlines()
        assert refusal.startswith("repro-lint: ") and "--write-baseline" in refusal


# -- CLI ----------------------------------------------------------------


def test_main_exit_codes(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\nx = random.random()\n")
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")

    assert main([str(clean)]) == 0
    assert main([str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "REPRO001" in out

    baseline = tmp_path / DEFAULT_BASELINE
    assert main([str(dirty), "--write-baseline", "--baseline", str(baseline)]) == 0
    # with the debt baselined the same tree passes ...
    assert main([str(dirty), "--baseline", str(baseline)]) == 0
    # ... but a *new* violation still fails
    dirty.write_text(dirty.read_text() + "y = random.random()\n")
    assert main([str(dirty), "--baseline", str(baseline)]) == 1

    assert main(["--list-rules"]) == 0
    assert "REPRO010" in capsys.readouterr().out
    assert main([str(tmp_path / "nope.py")]) == 2


def test_lint_paths_walks_directories(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "one.py").write_text("import random\nx = random.random()\n")
    (pkg / "two.py").write_text("y = 2\n")
    violations = lint_paths([pkg])
    assert [v.rule for v in violations] == ["REPRO001"]


def test_repository_is_lint_clean():
    """The acceptance bar: repro-lint src/ is clean modulo the baseline.

    The checked-in v2 baseline carries exactly the store's REPRO014
    LRU/eviction race handlers plus the two poison-sidecar REPRO015
    writes (local resume state, never exported) — nothing else, and
    every entry must say why it is allowed to stay.
    """
    from repro.devtools.lint import run_engine

    baseline = load_baseline(DEFAULT_BASELINE)
    assert {(rule, qualname) for rule, qualname, _ in baseline.v2} == {
        ("REPRO014", "repro.runtime.store.RunStore._quarantine"),
        ("REPRO014", "repro.runtime.store.RunStore._touch"),
        ("REPRO014", "repro.runtime.store.RunStore.compact"),
        ("REPRO014", "repro.runtime.store.RunStore.total_bytes"),
        ("REPRO015", "repro.runtime.store.RunStore.record_poison"),
        ("REPRO015", "repro.runtime.sweep.SweepJournal.record_poison"),
    }
    assert all(baseline.reasons.get(key) for key in baseline.v2)
    report = run_engine(["src"])
    fresh, suppressed = apply_baseline(report.violations, baseline)
    assert fresh == []
    assert suppressed == sum(baseline.v2.values())
