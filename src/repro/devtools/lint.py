"""``repro-lint``: an AST analyzer for determinism hazards.

The simulator's contracts (fast == reference bit-identity, fault
apply/revert exactness, kill+resume equality) all assume that two
runs with the same inputs execute the same floating-point operations
in the same order.  Nothing in Python enforces that: one unseeded
``random.random()``, one ``time.time()``, or one iteration over a
``set`` feeding a heap push can silently break every contract at
once.  ``repro-lint`` statically rejects those patterns before they
land.

Rules (see ``docs/static-analysis.md`` for rationale and fixes):

========  ==========================================================
REPRO001  unseeded / module-level RNG use outside ``sim/randomness.py``
REPRO002  wall-clock reads inside ``src/repro`` (benchmarks exempt)
REPRO003  iteration over a set in order-sensitive position
REPRO004  ``sum()`` / ``math.fsum()`` over an unordered iterable
REPRO005  broad ``except`` that swallows without re-raise or validity tag
REPRO006  mutable default argument
REPRO007  missing ``__slots__`` on a class in a ``sim/``/``net/`` hot module
REPRO008  non-atomic ``open(..., "w")`` / ``json.dump`` result write
REPRO009  entropy source (``os.urandom``, ``uuid.uuid4``, ``secrets``)
REPRO010  salted builtin ``hash()`` (varies per process)
REPRO011  result payload serialized outside ``write_json_atomic``
REPRO012  dict-accumulation loop in a ``hot-kernel`` module
REPRO013  ``.json`` write under a store/journal dir bypassing
          ``write_json_atomic``
REPRO014  silent exception swallow in a ``runtime/`` module
========  ==========================================================

REPRO012 is opt-in per module: marking a module with a
``repro-lint: hot-kernel`` comment declares that its loops are
allocation-kernel hot paths, where per-key dict accumulation
(``d[k] += v`` or ``d[k] = d.get(k, 0) + v`` inside a loop) must be a
vectorized reduction (``np.bincount`` / whole-array ops) instead.
Plain numpy subscript updates are not flagged — only names the module
visibly binds to dicts.

REPRO001–REPRO014 are *per-file*.  On top of them sits the
whole-program engine (``repro.devtools.index`` / ``callgraph`` /
``taint``), which this module drives as a client: every analyzed file
yields a JSON-plain summary (its per-file violations, its symbols and
its flow facts), the summaries merge into a project index, and the
interprocedural analyses derive two more rule families:

========  ==========================================================
REPRO015  a nondeterminism source reaches a result sink across calls
          (escape: ``# repro-lint: blessed-source -- seed=<name>``)
REPRO016  concurrency discipline in ``runtime/``: lock-mixed
          attribute mutation, flock'd suffixes opened lockless,
          connection ``.send`` outside a ``with <lock>`` block
========  ==========================================================

Summaries are cached on disk keyed by file content hash
(``--cache-dir``); a re-run re-analyzes only changed files plus their
reverse-dependency cone.  Extraction parallelizes over a process pool
(``-j N``) with output bit-identical to serial, and ``--format
sarif`` emits deterministic SARIF 2.1.0 for CI annotation.

A violation is silenced for one line with::

    risky_call()  # repro-lint: disable=REPRO001 -- why this is safe

and pre-existing debt is carried by a checked-in *baseline* file
(``repro-lint-baseline.json``): with ``--baseline``, only violations
not matched by a recorded entry fail the run, so CI rejects *new*
hazards without demanding an instant cleanup of old ones.  Baseline
entries fingerprint a finding by ``(rule, qualname,
normalized-statement hash)`` — stable under line drift — and carry a
one-line ``reason``.  A baseline in any other format is refused
(exit 2); regenerate it with ``--write-baseline``.

Run as ``repro-lint [paths]`` (console script) or
``python -m repro.devtools.lint``.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import pathlib
import re
import sys
import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from typing import Any

from repro.devtools import taint as _taint
from repro.devtools.index import (
    ProjectIndex,
    Summary,
    SummaryCache,
    collect_symbols,
    discover,
    file_sha,
    module_name_for,
)

#: rule id -> one-line summary (the full catalogue lives in the docs)
RULES: dict[str, str] = {
    "REPRO001": "unseeded RNG: route randomness through repro.sim.randomness.RandomStreams",
    "REPRO002": "wall-clock read: simulated code must use Simulator.now, never host time",
    "REPRO003": "iteration over a set is order-nondeterministic: wrap the set in sorted()",
    "REPRO004": "float accumulation over an unordered iterable: sort before summing",
    "REPRO005": "broad except swallows the error: re-raise or tag RunValidity",
    "REPRO006": "mutable default argument: default to None and allocate inside",
    "REPRO007": "hot-path class without __slots__ (use __slots__ or @dataclass(slots=True))",
    "REPRO008": "non-atomic result write: use repro.reporting.export.write_json_atomic",
    "REPRO009": "OS entropy source: results would differ on every run",
    "REPRO010": "builtin hash() is salted per process: derive keys explicitly",
    "REPRO011": "result payload written directly: route envelopes/results through "
                "repro.reporting.export.write_json_atomic",
    "REPRO012": "dict-accumulation loop in a hot-kernel module: replace with a "
                "vectorized reduction (np.bincount / whole-array ops)",
    "REPRO013": "store/journal write bypasses write_json_atomic: a torn entry "
                "defeats digest verification and the resume contract",
    "REPRO014": "runtime exception handler swallows the failure silently: "
                "record RunValidity, quarantine, or re-raise",
    "REPRO015": "nondeterministic value reaches a result sink (interprocedural "
                "taint); bless with `# repro-lint: blessed-source -- seed=<name>`",
    "REPRO016": "concurrency discipline in runtime/: lock-mixed attribute "
                "mutation, flock'd path opened without the helper, or a "
                "connection send outside the send_lock pattern",
}

#: default location of the checked-in baseline (repository root)
DEFAULT_BASELINE = "repro-lint-baseline.json"

_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

_ENTROPY = frozenset({
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
    "random.SystemRandom",
})

#: callables whose result does not depend on argument order, so feeding
#: them an unordered iterable is safe (sum is *not* here: float
#: addition does not commute bit-exactly)
_ORDER_INSENSITIVE = frozenset({
    "sorted", "min", "max", "any", "all", "len", "set", "frozenset",
})

_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
})

#: calls whose return value is a benchmark result payload (REPRO011)
_PAYLOAD_PRODUCERS = frozenset({
    "to_dict", "to_json", "from_dict", "envelope_for",
    "beff_to_dict", "beffio_to_dict",
})

#: names that mark an expression as carrying a result payload (REPRO011)
_PAYLOAD_NAME_RE = re.compile(r"(result|envelope|payload)", re.IGNORECASE)

#: names/literals that mark an expression as addressing a store or
#: journal location (REPRO013)
_STORE_PATH_RE = re.compile(
    r"(store|journal|manifest|partition|quarantine|objects)", re.IGNORECASE
)

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+?)(?:--.*)?$")

#: module marker opting into the hot-kernel rules (REPRO012); matched
#: anywhere in the source so a docstring header line works too
_HOT_KERNEL_RE = re.compile(r"#\s*repro-lint:\s*hot-kernel\b")


@dataclass(frozen=True, slots=True)
class LintViolation:
    """One rule hit at one source location.

    ``qualname`` (the enclosing function's dotted name) and ``stmt``
    (the enclosing statement's location-free AST hash) form the
    line-drift-stable fingerprint the v2 baseline keys on.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    qualname: str = ""
    stmt: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _resolve(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """Dotted name a call target resolves to, via the import aliases.

    ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
    under ``import numpy as np``; a name with no imported root returns
    ``None`` (a local object the analyzer cannot see through).
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id)
    if root is None:
        return None
    parts.append(root)
    return ".".join(reversed(parts))


def _collect_aliases(tree: ast.AST) -> dict[str, str]:
    """Map local names to the dotted module/object they import."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Yield ``scope``'s nodes without descending into nested scopes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue  # nested scopes are analyzed on their own
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _set_assigned_names(scope: ast.AST) -> frozenset[str]:
    """Names bound to a syntactic set expression within ``scope``.

    Only simple ``name = set(...)`` / ``name = {a, b}`` / set
    comprehensions are tracked — enough to catch the realistic
    ``pending = set(items) ... for x in pending`` pattern without a
    type checker.  A name also assigned a non-set value in the same
    scope is dropped (it may be either at iteration time).
    """
    names: set[str] = set()
    unsure: set[str] = set()
    for node in _walk_scope(scope):
        target: ast.expr | None = None
        value: ast.expr | None = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        if not isinstance(target, ast.Name) or value is None:
            continue
        is_set = isinstance(value, (ast.Set, ast.SetComp)) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in {"set", "frozenset"}
        )
        if is_set:
            names.add(target.id)
        else:
            unsure.add(target.id)
    return frozenset(names - unsure)


def _dict_assigned_names(scope: ast.AST) -> frozenset[str]:
    """Names bound to a syntactic dict expression within ``scope``.

    The REPRO012 counterpart of :func:`_set_assigned_names`: only
    visible ``name = {}`` / ``dict(...)`` / ``defaultdict(...)`` /
    ``Counter(...)`` / dict-comprehension bindings are tracked, so
    numpy arrays and other subscriptable accumulators never match.  A
    name also bound to a non-dict value in the same scope is dropped.
    """
    names: set[str] = set()
    unsure: set[str] = set()
    for node in _walk_scope(scope):
        target: ast.expr | None = None
        value: ast.expr | None = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        if not isinstance(target, ast.Name) or value is None:
            continue
        is_dict = isinstance(value, (ast.Dict, ast.DictComp)) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in {"dict", "defaultdict", "Counter", "OrderedDict"}
        )
        if is_dict:
            names.add(target.id)
        else:
            unsure.add(target.id)
    return frozenset(names - unsure)


class _Checker(ast.NodeVisitor):
    """Single-file rule engine (one instance per analyzed module)."""

    def __init__(self, path: str, tree: ast.AST, source: str) -> None:
        self.path = path
        self.posix = pathlib.PurePath(path).as_posix()
        self.aliases = _collect_aliases(tree)
        self.violations: list[LintViolation] = []
        self._func_stack: list[str] = []
        self.hot_kernel = bool(_HOT_KERNEL_RE.search(source))
        self._dict_scopes: list[frozenset[str]] = [_dict_assigned_names(tree)]
        self._set_scopes: list[frozenset[str]] = [_set_assigned_names(tree)]
        self._parents: dict[int, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent
        self._suppressed = _suppressions(source)

    # -- helpers -------------------------------------------------------

    def _report(self, node: ast.AST, rule: str, message: str | None = None) -> None:
        line = getattr(node, "lineno", 0)
        disabled = self._suppressed.get(line, frozenset())
        if rule in disabled or "all" in disabled:
            return
        self.violations.append(
            LintViolation(
                path=self.path,
                line=line,
                col=getattr(node, "col_offset", 0) + 1,
                rule=rule,
                message=message or RULES[rule],
            )
        )

    def _in_path(self, *fragments: str) -> bool:
        return any(f in self.posix for f in fragments)

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return any(node.id in scope for scope in self._set_scopes)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
                return True
            if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
                return self._is_set_expr(func.value)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _wrapper_call(self, node: ast.AST) -> str | None:
        """Name of the call directly consuming ``node``, if any."""
        parent = self._parents.get(id(node))
        if isinstance(parent, ast.Call) and node in parent.args:
            if isinstance(parent.func, ast.Name):
                return parent.func.id
            return _resolve(parent.func, self.aliases)
        return None

    def _is_result_payload(self, node: ast.expr) -> bool:
        """Does this expression carry a benchmark result payload?

        Heuristic: the expression calls an envelope/export serializer
        (``to_dict``, ``to_json``, ``envelope_for``, ...) or mentions a
        name containing ``result``/``envelope``/``payload``.
        """
        for inner in ast.walk(node):
            if isinstance(inner, ast.Call):
                f = inner.func
                callee = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
                if callee in _PAYLOAD_PRODUCERS:
                    return True
            elif isinstance(inner, ast.Name) and _PAYLOAD_NAME_RE.search(inner.id):
                return True
            elif isinstance(inner, ast.Attribute) and _PAYLOAD_NAME_RE.search(inner.attr):
                return True
        return False

    def _is_store_path(self, node: ast.expr) -> bool:
        """Does this expression address a store/journal location?

        Heuristic mirror of :meth:`_is_result_payload`: any name,
        attribute or string literal in the expression that mentions a
        store/journal path component (``store``, ``journal``,
        ``manifest``, ``partition``, ``quarantine``, ``objects``).
        """
        for inner in ast.walk(node):
            if isinstance(inner, ast.Name) and _STORE_PATH_RE.search(inner.id):
                return True
            if isinstance(inner, ast.Attribute) and _STORE_PATH_RE.search(inner.attr):
                return True
            if (
                isinstance(inner, ast.Constant)
                and isinstance(inner.value, str)
                and _STORE_PATH_RE.search(inner.value)
            ):
                return True
        return False

    # -- scope tracking ------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._func_stack.append(node.name)
        self._set_scopes.append(_set_assigned_names(node))
        self._dict_scopes.append(_dict_assigned_names(node))
        self.generic_visit(node)
        self._dict_scopes.pop()
        self._set_scopes.pop()
        self._func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- REPRO006: mutable defaults ------------------------------------

    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(
                default, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in {"list", "dict", "set", "bytearray"}
            )
            if mutable:
                self._report(default, "REPRO006")

    # -- REPRO007: __slots__ on hot classes ----------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._in_path("/sim/", "/net/") and not self._class_exempt(node):
            has_slots = any(
                (isinstance(stmt, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets))
                or (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "__slots__")
                for stmt in node.body
            )
            if not has_slots and not _dataclass_with_slots(node):
                self._report(
                    node, "REPRO007",
                    f"class {node.name!r} in a hot module has no __slots__ "
                    "(add __slots__ or @dataclass(slots=True))",
                )
        self.generic_visit(node)

    @staticmethod
    def _class_exempt(node: ast.ClassDef) -> bool:
        for base in node.bases:
            name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
            if name.endswith(("Error", "Exception", "Warning")) or name in {
                "Protocol", "NamedTuple", "TypedDict", "Enum", "IntEnum", "type",
            }:
                return True
        return False

    # -- REPRO005: swallowing broad handlers ---------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self._broad(node.type) and not self._handler_accounts(node):
            self._report(
                node, "REPRO005",
                "broad except neither re-raises nor tags RunValidity; "
                "a fault would vanish from the result",
            )
        # REPRO014 tightens REPRO005 for the supervision-bearing runtime
        # package: there even a *narrow* handler (``except OSError:
        # pass``) may not make a failure vanish without recording it —
        # the whole point of the supervisor/quarantine layer is that
        # every failure leaves provenance.
        elif self._in_path("/runtime/") and self._swallows_silently(node):
            self._report(
                node, "REPRO014",
                "exception handler in runtime/ swallows the failure with no "
                "trace; record RunValidity, quarantine the key, or re-raise",
            )
        self.generic_visit(node)

    @staticmethod
    def _swallows_silently(node: ast.ExceptHandler) -> bool:
        """Is the handler body pure control flow with no accounting?

        True when every statement is ``pass``, ``continue``, ``break``
        or a constant ``return`` — nothing is logged, tagged, stored or
        re-raised, so the exception evaporates.
        """
        for stmt in node.body:
            if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
                continue
            if isinstance(stmt, ast.Return) and (
                stmt.value is None or isinstance(stmt.value, ast.Constant)
            ):
                continue
            return False
        return True

    @staticmethod
    def _broad(type_node: ast.expr | None) -> bool:
        if type_node is None:
            return True
        names = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
        return any(getattr(n, "id", "") in {"Exception", "BaseException"} for n in names)

    @staticmethod
    def _handler_accounts(node: ast.ExceptHandler) -> bool:
        markers = {"RunValidity", "validity", "invalid", "degraded", "flagged"}
        for inner in ast.walk(node):
            if isinstance(inner, ast.Raise):
                return True
            if isinstance(inner, ast.Name) and inner.id in markers:
                return True
            if isinstance(inner, ast.Attribute) and inner.attr in markers:
                return True
        return False

    # -- iteration rules ------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        if self.hot_kernel:
            self._check_dict_accumulation(node)
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        if self.hot_kernel:
            self._check_dict_accumulation(node)
        self.generic_visit(node)

    # -- REPRO012: dict accumulation in hot kernels ----------------------

    def _is_dict_name(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and any(
            node.id in scope for scope in self._dict_scopes
        )

    def _check_dict_accumulation(self, loop: ast.For | ast.While) -> None:
        """Flag per-key dict accumulation statements inside ``loop``.

        Inner loops report on their own visit, so only statements whose
        nearest enclosing loop is ``loop`` are scanned here.  Two shapes
        count as accumulation: ``d[k] += v`` on a visibly-dict name, and
        ``d[k] = ... d.get(k, ...) ...`` (the read-modify-write idiom,
        dict-proven by the ``.get`` call itself).
        """
        stack: list[ast.AST] = list(loop.body) + list(loop.orelse)
        while stack:
            stmt = stack.pop()
            if isinstance(
                stmt,
                (ast.For, ast.While, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue
            if isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Subscript):
                if self._is_dict_name(stmt.target.value):
                    self._report(stmt, "REPRO012")
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
                    base = target.value.id
                    for inner in ast.walk(stmt.value):
                        if (
                            isinstance(inner, ast.Call)
                            and isinstance(inner.func, ast.Attribute)
                            and inner.func.attr == "get"
                            and isinstance(inner.func.value, ast.Name)
                            and inner.func.value.id == base
                        ):
                            self._report(stmt, "REPRO012")
                            break
            stack.extend(ast.iter_child_nodes(stmt))

    def _visit_comprehension_node(self, node: ast.AST, ordered_output: bool) -> None:
        for gen in node.generators:  # type: ignore[attr-defined]
            if not self._is_set_expr(gen.iter):
                continue
            if not ordered_output:
                continue  # a SetComp's output order cannot be observed
            wrapper = self._wrapper_call(node)
            if wrapper in _ORDER_INSENSITIVE:
                continue
            if wrapper in {"sum", "math.fsum"}:
                self._report(gen.iter, "REPRO004")
            else:
                self._report(gen.iter, "REPRO003")

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension_node(node, ordered_output=True)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension_node(node, ordered_output=True)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension_node(node, ordered_output=True)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehension_node(node, ordered_output=False)
        self.generic_visit(node)

    def _check_iteration(self, iter_node: ast.expr) -> None:
        if (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id == "enumerate"
            and iter_node.args
        ):
            iter_node = iter_node.args[0]
        if self._is_set_expr(iter_node):
            self._report(iter_node, "REPRO003")

    # -- call-target rules ----------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else None
        resolved = _resolve(func, self.aliases)

        if resolved is not None:
            if (
                (resolved.startswith("random.") or resolved.startswith("numpy.random."))
                and not self.posix.endswith("sim/randomness.py")
            ):
                rule = "REPRO009" if resolved == "random.SystemRandom" else "REPRO001"
                self._report(node, rule, f"{RULES[rule]} (call to {resolved})")
            elif resolved in _WALL_CLOCK and not self._in_path(
                "benchmarks/", "/tests/", "devtools/"
            ):
                self._report(node, "REPRO002", f"{RULES['REPRO002']} ({resolved})")
            elif resolved in _ENTROPY or resolved.startswith("secrets."):
                self._report(node, "REPRO009", f"{RULES['REPRO009']} ({resolved})")
            elif resolved == "json.dump" and not self.posix.endswith("reporting/export.py"):
                self._report(node, "REPRO008")

        if name == "hash" and "__hash__" not in self._func_stack:
            self._report(node, "REPRO010")
        elif name in {"list", "tuple"} and len(node.args) == 1 and self._is_set_expr(node.args[0]):
            self._report(node.args[0], "REPRO003")
        elif name in {"sum"} or resolved == "math.fsum":
            if node.args and self._is_set_expr(node.args[0]):
                self._report(node.args[0], "REPRO004")
        elif name == "open" and not self.posix.endswith("reporting/export.py"):
            mode = None
            if len(node.args) >= 2:
                mode = node.args[1]
            for kw in node.keywords:
                if kw.arg == "mode":
                    mode = kw.value
            if (
                isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)
                and any(c in mode.value for c in "wax")
            ):
                self._report(node, "REPRO008")

        if isinstance(func, ast.Attribute) and func.attr in {"write_text", "write_bytes"} \
                and not self.posix.endswith("reporting/export.py"):
            self._report(node, "REPRO008")

        # REPRO011 is independent of REPRO008's atomicity concern: even
        # an atomic hand-rolled write of a result payload bypasses the
        # envelope schema/validity serialization contract.
        if not self.posix.endswith("reporting/export.py"):
            sink = resolved == "json.dump" or (
                isinstance(func, ast.Attribute)
                and func.attr in {"write_text", "write_bytes"}
            )
            if sink and any(self._is_result_payload(a) for a in node.args):
                self._report(node, "REPRO011")

        # REPRO013 generalizes REPRO011 to the store/journal layer: a
        # write addressed at a store or journal location that bypasses
        # write_json_atomic can tear an entry, defeating the store's
        # digest verification and the journal's resume contract.
        if not self.posix.endswith("reporting/export.py"):
            target: ast.expr | None = None
            if resolved == "json.dump" and len(node.args) >= 2:
                target = node.args[1]
            elif isinstance(func, ast.Attribute) and func.attr in {
                "write_text", "write_bytes",
            }:
                target = func.value
            elif name == "open" and node.args:
                mode = node.args[1] if len(node.args) >= 2 else None
                for kw in node.keywords:
                    if kw.arg == "mode":
                        mode = kw.value
                if (
                    isinstance(mode, ast.Constant)
                    and isinstance(mode.value, str)
                    and any(c in mode.value for c in "wax")
                ):
                    target = node.args[0]
            if target is not None and self._is_store_path(target):
                self._report(node, "REPRO013")

        self.generic_visit(node)


def _dataclass_with_slots(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        if isinstance(dec, ast.Call):
            target = dec.func
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name == "dataclass":
                return any(
                    kw.arg == "slots"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in dec.keywords
                )
    return False


def _suppressions(source: str) -> dict[int, frozenset[str]]:
    """Per-line ``# repro-lint: disable=RULE[,RULE]`` directives."""
    out: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match:
            rules = frozenset(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            out[lineno] = rules
    return out


# -- fingerprint site map ----------------------------------------------


def build_site_map(tree: ast.Module, module: str) -> dict[int, tuple[str, str]]:
    """Map each source line to its ``(qualname, statement hash)``.

    The qualname is the dotted enclosing function (or the module for
    top-level code); the hash is the location-free fingerprint of the
    statement *at function-body level* (a violation inside a ``with``
    block hashes the whole ``with`` statement).  Per-file violations
    get their v2 baseline fingerprint attached via this map, so the
    per-file rules and the interprocedural rules key baselines
    identically.
    """
    out: dict[int, tuple[str, str]] = {}

    def fill(stmt: ast.stmt, qual: str) -> None:
        fingerprint = _taint.stmt_fingerprint(stmt)
        end = getattr(stmt, "end_lineno", None) or stmt.lineno
        for line in range(stmt.lineno, end + 1):
            out[line] = (qual, fingerprint)

    def visit(body: list[ast.stmt], prefix: str, owner: str | None) -> None:
        # ``owner`` attributes plain statements; ``None`` inside a
        # function body (already filled at the call site) — the
        # recursion there only discovers nested defs, it must not
        # re-attribute the enclosing statements
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{module}.{prefix}{node.name}"
                header = hashlib.sha256(
                    f"def {node.name}({ast.dump(node.args)})".encode()
                ).hexdigest()[:16]
                start = min(
                    [d.lineno for d in node.decorator_list] + [node.lineno]
                )
                end = getattr(node, "end_lineno", None) or node.lineno
                for line in range(start, end + 1):
                    out[line] = (qual, header)
                for stmt in node.body:
                    fill(stmt, qual)
                visit(node.body, f"{prefix}{node.name}.", None)
            elif isinstance(node, ast.ClassDef):
                qual = f"{module}.{prefix}{node.name}"
                header = hashlib.sha256(
                    f"class {node.name}".encode()
                ).hexdigest()[:16]
                out[node.lineno] = (qual, header)
                for stmt in node.body:
                    if not isinstance(
                        stmt,
                        (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                    ):
                        fill(stmt, qual)
                visit(node.body, f"{prefix}{node.name}.", None)
            elif owner is not None:
                fill(node, owner)
    visit(tree.body, "", module)
    return out


def _attach_fingerprints(
    violations: list[LintViolation], site_map: dict[int, tuple[str, str]], module: str
) -> list[LintViolation]:
    out: list[LintViolation] = []
    for v in violations:
        qual, stmt = site_map.get(v.line, (module, ""))
        out.append(replace(v, qualname=qual, stmt=stmt))
    return out


# -- public API --------------------------------------------------------


def lint_source(source: str, path: str = "<string>") -> list[LintViolation]:
    """Analyze one module's source text; returns sorted violations."""
    tree = ast.parse(source, filename=path)
    checker = _Checker(path, tree, source)
    checker.visit(tree)
    module = module_name_for(path) if path != "<string>" else "<string>"
    violations = _attach_fingerprints(
        checker.violations, build_site_map(tree, module), module
    )
    return sorted(violations, key=lambda v: (v.path, v.line, v.col, v.rule))


def lint_paths(paths: Iterable[str | pathlib.Path]) -> list[LintViolation]:
    """Per-file rules only, over the given files/directories.

    Kept as the lightweight entry point (used by the fast unit tests);
    the CLI runs :func:`run_engine`, which adds the interprocedural
    rules on top of exactly these per-file results.
    """
    violations: list[LintViolation] = []
    for file in discover(paths):
        violations.extend(lint_source(file.read_text(), str(file)))
    return sorted(violations, key=lambda v: (v.path, v.line, v.col, v.rule))


# -- the whole-program engine ------------------------------------------


def extract_file(path: str) -> Summary:
    """One file's complete JSON-plain summary (the cacheable unit).

    Runs the per-file rules *and* the flow extraction in one parse, so
    a cache hit skips both.  Pure function of the file's bytes — the
    property that makes parallel extraction bit-identical to serial
    and warm runs bit-identical to cold.
    """
    p = pathlib.Path(path)
    data = p.read_bytes()
    source = data.decode()
    posix = p.as_posix()
    module = module_name_for(p)
    tree = ast.parse(source, filename=path)
    aliases, symbols, classes = collect_symbols(
        tree, module, is_package=p.name == "__init__.py"
    )
    flows = _taint.extract_flows(tree, module, aliases, symbols, classes, source)
    checker = _Checker(posix, tree, source)
    checker.visit(tree)
    violations = _attach_fingerprints(
        sorted(checker.violations, key=lambda v: (v.line, v.col, v.rule)),
        build_site_map(tree, module),
        module,
    )
    return {
        "path": posix,
        "module": module,
        "sha": file_sha(data),
        "imports": sorted(set(aliases.values())),
        "symbols": symbols,
        "classes": classes,
        "flows": flows,
        "violations": [
            [v.line, v.col, v.rule, v.message, v.qualname, v.stmt]
            for v in violations
        ],
        "suppressed": {
            str(line): sorted(rules)
            for line, rules in _suppressions(source).items()
        },
    }


def _extract_many(paths: list[str], jobs: int) -> dict[str, Summary]:
    if jobs > 1 and len(paths) > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            return dict(zip(paths, pool.map(extract_file, paths, chunksize=4)))
    return {path: extract_file(path) for path in paths}


def _build_index(summaries: dict[str, Summary]) -> ProjectIndex:
    index = ProjectIndex()
    for path in sorted(summaries):
        index.add_file(summaries[path])
    index.finalize()
    return index


@dataclass
class EngineReport:
    """Everything one engine run produced."""

    violations: list[LintViolation] = field(default_factory=list)
    summaries: dict[str, Summary] = field(default_factory=dict)
    index: ProjectIndex = field(default_factory=ProjectIndex)
    stats: dict[str, Any] = field(default_factory=dict)


def run_engine(
    paths: Iterable[str | pathlib.Path],
    cache_dir: str | pathlib.Path | None = None,
    jobs: int = 0,
) -> EngineReport:
    """Whole-program analysis: per-file rules + interprocedural rules.

    Incremental: with a cache directory, only files whose content hash
    changed — plus their reverse-dependency cone (importers may
    resolve names through them) — are re-extracted; every other
    summary replays from cache.  The global fixpoint always re-runs
    over the merged summaries, which is cheap and guarantees the
    report is a pure function of the current file contents.
    """
    t0 = time.perf_counter()
    files = [str(f) for f in discover(paths)]
    cache = SummaryCache(cache_dir)
    shas: dict[str, str] = {}
    cached: dict[str, Summary] = {}
    changed: list[str] = []
    for path in files:
        posix = pathlib.PurePath(path).as_posix()
        sha = file_sha(pathlib.Path(path).read_bytes())
        shas[posix] = sha
        summary = cache.get(posix, sha)
        if summary is None:
            changed.append(path)
        else:
            cached[posix] = summary

    summaries = dict(cached)
    summaries.update(_extract_many(changed, jobs))

    # the cone: a changed module can change how its importers resolve
    # names (extraction resolves at parse time), so re-extract them too
    provisional = _build_index(summaries)
    changed_posix = {pathlib.PurePath(p).as_posix() for p in changed}
    changed_modules = {
        provisional.modules[p] for p in changed_posix if p in provisional.modules
    }
    cone_modules = provisional.reverse_closure(changed_modules)
    cone_paths = sorted(
        p for p in cached
        if provisional.modules.get(p) in cone_modules
    )
    summaries.update(_extract_many(cone_paths, jobs))

    reanalyzed = sorted(changed_posix | set(cone_paths))
    for posix in reanalyzed:
        cache.put(posix, shas[posix], summaries[posix])
    cache.prune(set(summaries))
    cache.save()

    index = _build_index(summaries)
    analysis = _taint.TaintAnalysis(index, summaries)
    violations: list[LintViolation] = []
    for posix in sorted(summaries):
        for line, col, rule, message, qualname, stmt in summaries[posix]["violations"]:
            violations.append(LintViolation(
                path=posix, line=int(line), col=int(col), rule=str(rule),
                message=str(message), qualname=str(qualname), stmt=str(stmt),
            ))
    for finding in analysis.findings():
        violations.append(LintViolation(
            path=finding.path, line=finding.line, col=1, rule=finding.rule,
            message=finding.message, qualname=finding.qualname,
            stmt=finding.stmt,
        ))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule, v.message))
    stats = {
        "files": len(files),
        "reanalyzed": reanalyzed,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "wall_s": time.perf_counter() - t0,
    }
    return EngineReport(
        violations=violations, summaries=summaries, index=index, stats=stats
    )


# -- baseline ----------------------------------------------------------


def _v2_key(violation: LintViolation) -> tuple[str, str, str]:
    return (violation.rule, violation.qualname, violation.stmt)


@dataclass
class Baseline:
    """Forgiven pre-existing debt (the version-2 on-disk format).

    An entry fingerprints a finding by ``(rule, qualname, statement
    hash)`` with a per-entry count and a one-line reason — stable when
    unrelated edits shift line numbers.
    """

    v2: dict[tuple[str, str, str], int] = field(default_factory=dict)
    reasons: dict[tuple[str, str, str], str] = field(default_factory=dict)


class BaselineFormatError(ValueError):
    """A baseline file that is not version 2 (never silently applied)."""


def load_baseline(path: str | pathlib.Path) -> Baseline:
    """Read a baseline file; a missing file is an empty baseline.

    Raises :class:`BaselineFormatError` for any version other than 2.
    """
    p = pathlib.Path(path)
    if not p.exists():
        return Baseline()
    data = json.loads(p.read_text())
    version = data.get("version") if isinstance(data, dict) else None
    if version != 2:
        raise BaselineFormatError(
            f"{p} is not a version-2 baseline (version {version!r}); "
            "delete it and regenerate it with --write-baseline"
        )
    baseline = Baseline()
    for entry in data.get("entries", []):
        key = (str(entry["rule"]), str(entry["qualname"]), str(entry["stmt"]))
        baseline.v2[key] = baseline.v2.get(key, 0) + int(entry.get("count", 1))
        if entry.get("reason"):
            baseline.reasons[key] = str(entry["reason"])
    return baseline


def write_baseline(
    path: str | pathlib.Path,
    violations: Sequence[LintViolation],
    prior: Baseline | None = None,
) -> None:
    """Persist current violations as a version-2 baseline (atomic).

    Reasons recorded in the prior baseline survive the rewrite when
    the fingerprint still matches; new entries get an empty reason for
    a human to fill in.
    """
    from repro.devtools.index import _write_json_atomic_local

    counts: dict[tuple[str, str, str], int] = {}
    for v in violations:
        key = _v2_key(v)
        counts[key] = counts.get(key, 0) + 1
    entries = [
        {
            "rule": rule,
            "qualname": qualname,
            "stmt": stmt,
            "count": counts[(rule, qualname, stmt)],
            "reason": (prior.reasons.get((rule, qualname, stmt), "")
                       if prior else ""),
        }
        for rule, qualname, stmt in sorted(counts)
    ]
    _write_json_atomic_local(
        pathlib.Path(path), {"version": 2, "entries": entries}
    )


def apply_baseline(
    violations: Sequence[LintViolation],
    baseline: Baseline,
) -> tuple[list[LintViolation], int]:
    """Split violations into (new, count suppressed by the baseline).

    Per fingerprint, up to the baselined count of matches is forgiven
    (earliest lines first — the stable choice when a statement is
    duplicated); anything beyond is new debt and fails the run.
    """
    allowance = dict(baseline.v2)
    fresh: list[LintViolation] = []
    suppressed = 0
    for violation in violations:  # already sorted by (path, line)
        key = _v2_key(violation)
        if allowance.get(key, 0) > 0:
            allowance[key] -= 1
            suppressed += 1
        else:
            fresh.append(violation)
    return fresh, suppressed


# -- CLI ---------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="determinism-focused whole-program analyzer for the repro codebase",
        epilog="exit codes: 0 clean, 1 new violations, 2 usage error, "
               "3 time budget exceeded",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to analyze (default: src)")
    parser.add_argument(
        "--baseline", nargs="?", const=DEFAULT_BASELINE, default=None, metavar="FILE",
        help="forgive violations recorded in FILE "
             f"(default when given without a value: {DEFAULT_BASELINE})",
    )
    parser.add_argument("--write-baseline", action="store_true",
                        help="record current violations into the baseline file and exit 0")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument(
        "-j", "--jobs", nargs="?", const=0, default=1, type=int, metavar="N",
        help="parallel extraction processes (bare -j: one per CPU, capped at 8; "
             "default: serial); output is bit-identical either way",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="incremental summary cache keyed by file content hash "
             "(only changed files + their reverse-dependency cone re-analyze)",
    )
    parser.add_argument(
        "--format", choices=("text", "sarif"), default="text",
        help="report format on stdout (default: text)",
    )
    parser.add_argument(
        "--budget-s", type=float, default=None, metavar="SECONDS",
        help="fail with exit 3 when the analysis wall time exceeds SECONDS",
    )
    parser.add_argument(
        "--stats-json", default=None, metavar="FILE",
        help="write engine statistics (files, reanalyzed set, cache hits, wall) to FILE",
    )
    parser.add_argument(
        "--dump-callgraph", action="store_true",
        help="print the resolved call graph (roots + edges) and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULES):
            print(f"{rule}  {RULES[rule]}")
        return 0

    jobs = args.jobs
    if jobs == 0:
        import os

        jobs = min(os.cpu_count() or 1, 8)
    if jobs < 1:
        parser.error("--jobs must be >= 1 (or bare -j for auto)")

    try:
        prior = load_baseline(args.baseline) if args.baseline is not None else None
        report = run_engine(args.paths, cache_dir=args.cache_dir, jobs=jobs)
    except (OSError, SyntaxError, BaselineFormatError) as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2
    violations = report.violations
    stats = report.stats

    # the timing line goes to stderr so stdout (text report or SARIF)
    # stays byte-identical across cold/warm/parallel runs
    print(
        f"repro-lint: analyzed {stats['files']} file(s) "
        f"({len(stats['reanalyzed'])} fresh, {stats['cache_hits']} cached) "
        f"in {stats['wall_s']:.3f}s",
        file=sys.stderr,
    )
    if args.stats_json is not None:
        from repro.devtools.index import _write_json_atomic_local

        _write_json_atomic_local(pathlib.Path(args.stats_json), stats)

    if args.dump_callgraph:
        from repro.devtools.callgraph import build_callgraph, console_script_entries

        entries = console_script_entries("pyproject.toml")
        graph = build_callgraph(report.index, report.summaries, entries)
        sys.stdout.write(graph.to_text())
        return 0

    if args.write_baseline:
        target = args.baseline or DEFAULT_BASELINE
        write_baseline(target, violations, prior=prior)
        print(f"repro-lint: wrote {len(violations)} violation(s) to {target}")
        return 0

    suppressed = 0
    if prior is not None:
        violations, suppressed = apply_baseline(violations, prior)

    if args.format == "sarif":
        from repro.devtools.sarif import render_sarif

        sys.stdout.write(render_sarif(violations, RULES, tool_version="2.0"))
    else:
        for violation in violations:
            print(violation.render())
        if violations:
            print(f"repro-lint: {len(violations)} new violation(s)"
                  + (f" ({suppressed} baselined)" if suppressed else ""))
        elif suppressed:
            print(f"repro-lint: clean ({suppressed} baselined violation(s) remain)")
        else:
            print("repro-lint: clean")

    if args.budget_s is not None and stats["wall_s"] > args.budget_s:
        print(
            f"repro-lint: wall {stats['wall_s']:.3f}s exceeded budget "
            f"{args.budget_s:.3f}s",
            file=sys.stderr,
        )
        return 3
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
