"""AST-based concurrency lint over the repro source tree (codes ``C001``–``C004``).

The serving layer fans requests out over a thread pool — so which
class fields are shared, and under which lock, must be *declared*, not
tribal knowledge.  Classes declare their contract with
:func:`repro.concurrency.shared_state`:

.. code-block:: python

    @shared_state("_counters", "_histograms", lock="_lock")
    class ServiceMetrics: ...

This module discovers those declarations **statically** (the code under
analysis is parsed, never imported) and enforces:

``C001`` (error)
    A registered shared-state field is mutated outside a ``with self.<lock>``
    block guarding it.  ``__init__``/``__del__`` are exempt (the object is
    not yet / no longer published), as are methods whose name ends in
    ``_locked`` — the repo-wide convention documenting "caller holds the
    lock".
``C002`` (error)
    Two locks of the same class are acquired in inconsistent (deadlock-prone)
    order in different places.
``C003`` (warning)
    A method reachable from a thread-pool submission (``pool.submit(...)`` /
    ``threading.Thread(target=...)``) mutates instance state that is neither
    registered nor visibly under a ``with self.<...lock>`` block.
``C004`` (error)
    A suppression comment without a justification.  Suppressions are
    ``# codelint: ignore[C001] -- why this is safe`` on the flagged line;
    the justification after ``--`` is mandatory and its absence is itself
    an error, so silencing the lint always leaves a reviewable reason.

Run it as ``repro lint --code src/repro``, or as a module entry point for
CI: ``python -m repro.analysis.codelint src/repro``.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.diagnostics import AnalysisReport, Severity, diagnostic, rule

__all__ = ["lint_source", "lint_paths", "main"]


@rule("C001", "codelint", Severity.ERROR,
      "a registered shared-state field is mutated outside its lock")
@rule("C002", "codelint", Severity.ERROR,
      "locks of one class are acquired in inconsistent order")
@rule("C003", "codelint", Severity.WARNING,
      "a thread-pool-reachable method mutates unregistered shared state")
@rule("C004", "codelint", Severity.ERROR,
      "a codelint suppression lacks a justification")
def _codelint_registration() -> None:  # pragma: no cover - registry stub
    raise NotImplementedError("C-codes are emitted by the lint walk")


#: Method names that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "appendleft", "popleft",
    "move_to_end", "sort", "reverse",
})

#: Methods exempt from C001: construction/destruction happen before/after the
#: object is shared, and the ``_locked`` suffix documents "caller holds it".
_EXEMPT_METHODS = ("__init__", "__del__", "__post_init__")

_SUPPRESS_RE = re.compile(
    r"#\s*codelint:\s*ignore\[([A-Za-z0-9,\s]+)\](?:\s*--\s*(\S.*))?"
)


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------
def _collect_suppressions(
    source: str, location: "_Location", report: AnalysisReport
) -> dict[int, set[str]]:
    """``{line: {codes}}`` of justified suppressions; malformed ones → C004."""
    suppressions: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        codes = {code.strip().upper() for code in match.group(1).split(",") if code.strip()}
        if match.group(2) is None:
            report.add(diagnostic(
                "C004",
                "suppression has no justification — write "
                "`# codelint: ignore[CODE] -- reason`",
                location.at(lineno),
            ))
            continue
        suppressions.setdefault(lineno, set()).update(codes)
    return suppressions


@dataclass
class _Location:
    path: str

    def at(self, lineno: int) -> str:
        return f"{self.path}:{lineno}"


# ---------------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------------
def _self_attribute(node: ast.expr) -> str | None:
    """``"x"`` for a plain ``self.x`` expression, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _self_attribute_base(node: ast.expr) -> str | None:
    """The ``self`` attribute at the base of a subscript chain.

    ``self.x`` → ``x``; ``self.x[k]`` → ``x``; ``self.x[k][j]`` → ``x``.
    """
    while isinstance(node, ast.Subscript):
        node = node.value
    return _self_attribute(node)


def _is_lockish(name: str, registered_locks: set[str]) -> bool:
    return name in registered_locks or name.lower().endswith("lock")


def _shared_state_declarations(node: ast.ClassDef) -> dict[str, str]:
    """Parse ``@shared_state("f", ..., lock="_l")`` decorators off a class."""
    registry: dict[str, str] = {}
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name != "shared_state":
            continue
        lock = "_lock"
        for keyword in decorator.keywords:
            if keyword.arg == "lock" and isinstance(keyword.value, ast.Constant):
                lock = str(keyword.value.value)
        for arg in decorator.args:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                registry[arg.value] = lock
    return registry


@dataclass
class _Mutation:
    attribute: str
    lineno: int
    held: frozenset[str]  # locks held (`with self.<...lock>`) at the site


@dataclass
class _Scan:
    """What one callable (method or nested local function) does."""

    name: str
    mutations: list[_Mutation] = field(default_factory=list)
    self_calls: set[str] = field(default_factory=set)
    local_refs: set[str] = field(default_factory=set)
    #: Thread entry points this callable hands off: method names (``self.m``
    #: passed to ``submit``/``Thread(target=...)``) or local function names.
    thread_targets: list[str] = field(default_factory=list)


class _CallableScanner(ast.NodeVisitor):
    """One pass over one callable's body: with-stack, mutations, calls.

    Nested function definitions are *not* descended into here — they execute
    at call time, possibly on another thread, so each becomes its own
    :class:`_Scan` (see :class:`_ClassLinter`).
    """

    def __init__(
        self,
        scan: _Scan,
        registered_locks: set[str],
        nested: list[ast.FunctionDef | ast.AsyncFunctionDef],
        order_pairs: list[tuple[str, str, int]],
    ) -> None:
        self.scan = scan
        self.registered_locks = registered_locks
        self.nested = nested
        self.order_pairs = order_pairs
        self.held: list[str] = []

    # -- scope boundaries ---------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.nested.append(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.nested.append(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass  # nested classes are linted as their own classes

    # -- lock tracking ------------------------------------------------------
    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        acquired: list[str] = []
        for item in node.items:
            attr = _self_attribute(item.context_expr)
            if attr is not None and _is_lockish(attr, self.registered_locks):
                for outer in self.held:
                    if outer != attr:
                        self.order_pairs.append((outer, attr, node.lineno))
                acquired.append(attr)
            else:
                self.visit(item.context_expr)
        self.held.extend(acquired)
        for statement in node.body:
            self.visit(statement)
        if acquired:
            del self.held[-len(acquired):]

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    # -- mutations ----------------------------------------------------------
    def _record_mutation(self, attribute: str, lineno: int) -> None:
        self.scan.mutations.append(
            _Mutation(attribute, lineno, held=frozenset(self.held))
        )

    def _mutated_targets(self, target: ast.expr, lineno: int) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._mutated_targets(element, lineno)
            return
        if isinstance(target, ast.Starred):
            self._mutated_targets(target.value, lineno)
            return
        attribute = _self_attribute_base(target)
        if attribute is not None:
            self._record_mutation(attribute, lineno)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._mutated_targets(target, node.lineno)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._mutated_targets(node.target, node.lineno)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._mutated_targets(node.target, node.lineno)
            self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._mutated_targets(target, node.lineno)

    # -- calls --------------------------------------------------------------
    def _thread_target(self, node: ast.expr) -> str | None:
        attr = _self_attribute(node)
        if attr is not None:
            return attr
        if isinstance(node, ast.Name):
            return node.id
        return None

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            base = _self_attribute_base(func.value)
            if func.attr in _MUTATORS and base is not None:
                self._record_mutation(base, node.lineno)
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                self.scan.self_calls.add(func.attr)
            if func.attr == "submit" and node.args:
                target = self._thread_target(node.args[0])
                if target is not None:
                    self.scan.thread_targets.append(target)
        elif isinstance(func, ast.Name):
            self.scan.local_refs.add(func.id)
        callee = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if callee == "Thread":
            for keyword in node.keywords:
                if keyword.arg == "target":
                    target = self._thread_target(keyword.value)
                    if target is not None:
                        self.scan.thread_targets.append(target)
        for argument in node.args:
            self.visit(argument)
            if isinstance(argument, ast.Name):
                self.scan.local_refs.add(argument.id)
        for keyword in node.keywords:
            self.visit(keyword.value)
        self.visit(func)


class _ClassLinter:
    """Lint one class: C001 per method, C002 across methods, C003 graph."""

    def __init__(
        self, node: ast.ClassDef, location: _Location, report: AnalysisReport,
        suppressions: dict[int, set[str]],
    ) -> None:
        self.node = node
        self.location = location
        self.report = report
        self.suppressions = suppressions
        self.registry = _shared_state_declarations(node)
        self.registered_locks = set(self.registry.values())
        self.scans: dict[str, _Scan] = {}
        self.order_pairs: list[tuple[str, str, int]] = []

    def _emit(self, code: str, message: str, lineno: int) -> None:
        if code in self.suppressions.get(lineno, ()):
            return
        self.report.add(diagnostic(code, message, self.location.at(lineno)))

    def _scan_callable(
        self, name: str, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        scan = _Scan(name)
        nested: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
        scanner = _CallableScanner(scan, self.registered_locks, nested, self.order_pairs)
        # Scan the body, not the def node itself (avoids re-capturing it as
        # its own nested definition).
        for statement in node.body:
            scanner.visit(statement)
        self.scans[name] = scan
        for child in nested:
            self._scan_callable(f"{name}.<locals>.{child.name}", child)

    def run(self) -> None:
        for item in self.node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_callable(item.name, item)
        self._check_c001()
        self._check_c002()
        self._check_c003()

    # -- C001 ---------------------------------------------------------------
    def _held_at(self, name: str) -> bool:
        """Whether the callable documents that its caller holds the lock."""
        method = name.split(".", 1)[0]
        return method in _EXEMPT_METHODS or method.endswith("_locked") or (
            name.rsplit(".", 1)[-1].endswith("_locked")
        )

    def _check_c001(self) -> None:
        if not self.registry:
            return
        for name, scan in self.scans.items():
            if self._held_at(name):
                continue
            for mutation in scan.mutations:
                lock = self.registry.get(mutation.attribute)
                if lock is None:
                    continue
                if lock not in mutation.held:
                    self._emit(
                        "C001",
                        f"{self.node.name}.{name} mutates registered shared "
                        f"field 'self.{mutation.attribute}' outside "
                        f"`with self.{lock}`",
                        mutation.lineno,
                    )

    # -- C002 ---------------------------------------------------------------
    def _check_c002(self) -> None:
        first_seen: dict[tuple[str, str], int] = {}
        for outer, inner, lineno in self.order_pairs:
            first_seen.setdefault((outer, inner), lineno)
        reported: set[frozenset[str]] = set()
        for (outer, inner), lineno in sorted(first_seen.items(), key=lambda kv: kv[1]):
            inverse = first_seen.get((inner, outer))
            key = frozenset((outer, inner))
            if inverse is not None and key not in reported:
                reported.add(key)
                later = max(lineno, inverse)
                earlier = min(lineno, inverse)
                self._emit(
                    "C002",
                    f"{self.node.name} acquires 'self.{outer}' and "
                    f"'self.{inner}' in inconsistent order "
                    f"(see also line {earlier}) — deadlock-prone",
                    later,
                )

    # -- C003 ---------------------------------------------------------------
    def _reachable_from_pool(self) -> set[str]:
        roots: set[str] = set()
        for name, scan in self.scans.items():
            for target in scan.thread_targets:
                if target in self.scans:
                    roots.add(target)
                else:
                    qualified = f"{name}.<locals>.{target}"
                    if qualified in self.scans:
                        roots.add(qualified)
        reachable: set[str] = set()
        stack = list(roots)
        while stack:
            current = stack.pop()
            if current in reachable:
                continue
            reachable.add(current)
            scan = self.scans.get(current)
            if scan is None:
                continue
            for callee in scan.self_calls:
                if callee in self.scans:
                    stack.append(callee)
            scope = current.rsplit(".<locals>.", 1)[0]
            for local in scan.local_refs:
                qualified = f"{scope}.<locals>.{local}"
                if qualified in self.scans:
                    stack.append(qualified)
        return reachable

    def _check_c003(self) -> None:
        for name in sorted(self._reachable_from_pool()):
            if self._held_at(name):
                continue
            scan = self.scans[name]
            for mutation in scan.mutations:
                if mutation.attribute in self.registry or mutation.held:
                    continue
                self._emit(
                    "C003",
                    f"{self.node.name}.{name} runs on pool threads and "
                    f"mutates 'self.{mutation.attribute}', which is neither "
                    f"@shared_state-registered nor under a lock",
                    mutation.lineno,
                )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def lint_source(source: str, path: str = "<string>") -> AnalysisReport:
    """Lint one module's source text; returns the report (never raises on
    findings — syntax errors become an error-severity C-less diagnostic)."""
    report = AnalysisReport()
    location = _Location(path)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        report.add(diagnostic(
            "C004",
            f"file does not parse: {exc.msg}",
            location.at(exc.lineno or 0),
        ))
        return report
    suppressions = _collect_suppressions(source, location, report)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            _ClassLinter(node, location, report, suppressions).run()
    return report


def lint_paths(paths) -> AnalysisReport:
    """Lint every ``*.py`` file under *paths* (files or directories)."""
    report = AnalysisReport()
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    for file_path in files:
        try:
            display = str(file_path.relative_to(Path.cwd()))
        except ValueError:
            display = str(file_path)
        report.extend(lint_source(file_path.read_text(encoding="utf-8"), display))
    return report


def main(argv=None) -> int:
    """CLI/CI entry point: exit 1 on error-severity findings."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.codelint",
        description="Concurrency lint over shared-state declarations.",
    )
    parser.add_argument("paths", nargs="+", help="files or directories to lint")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    args = parser.parse_args(argv)
    report = lint_paths(args.paths)
    print(report.to_json(indent=2) if args.fmt == "json" else report.to_text())
    return 1 if report.has_errors else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
