"""Static analysis of citation queries, view sets and specifications.

The paper's citation semantics are defined over *minimal* equivalent
rewritings of conjunctive-query views; this package puts the classical
machinery (:mod:`repro.query.containment`, :mod:`repro.query.minimization`)
to work before any data is touched:

* :mod:`repro.analysis.diagnostics` — the framework: :class:`Diagnostic`
  (stable code, severity, location), the rule registry and
  :class:`AnalysisReport` with text and JSON renderings;
* :mod:`repro.analysis.query_rules` — per-query rules run at compile time
  by :meth:`~repro.core.engine.CitationEngine.compile_plan`: unsatisfiable
  constant conflicts, redundant-atom detection with core minimization,
  cartesian-product and singleton-variable warnings, schema arity/type
  checks;
* :mod:`repro.analysis.view_rules` — view-set and policy rules run at
  service startup and by the ``repro lint`` CLI subcommand: shadowed and
  duplicate views (by containment), dead views and coverage gaps against a
  workload, ambiguity overlaps, key terms missing from view heads,
  citation-function field maps that can never fire;
* :mod:`repro.analysis.ir` — a dataflow verifier over the compiled-join IR
  (:class:`~repro.query.compiler.JoinProgram` and the citation programs
  reading its frames): slot definite-assignment, probe-key
  well-formedness and faithfulness of steps to the source query.  Run by
  :meth:`~repro.core.engine.CitationEngine.compile_plan` under the
  ``verify_plans`` knob;
* :mod:`repro.analysis.codelint` — an AST lint over the package's own
  source enforcing the :func:`repro.concurrency.shared_state` contract:
  registered fields mutated only under their lock, consistent lock order,
  thread-pool-reachable methods not touching unregistered state.

Every rule has a stable diagnostic code (``Qxxx`` for query rules, ``Vxxx``
for view-set rules, ``Pxxx`` for policy/citation-function rules, ``Lxxx``
for specification-loading problems, ``Ixxx`` for compiled-plan IR checks
and ``Cxxx`` for the concurrency code lint) so tooling can filter and gate
on them.
"""

from repro.analysis.diagnostics import (
    AnalysisReport,
    Diagnostic,
    Severity,
    registered_rules,
    rule,
)
from repro.analysis.codelint import lint_paths, lint_source
from repro.analysis.ir import verify_citation_plan, verify_program
from repro.analysis.query_rules import QueryAnalysis, analyze_query
from repro.analysis.view_rules import analyze_view_set, analyze_workload_coverage

__all__ = [
    "AnalysisReport",
    "Diagnostic",
    "Severity",
    "registered_rules",
    "rule",
    "QueryAnalysis",
    "analyze_query",
    "analyze_view_set",
    "analyze_workload_coverage",
    "verify_citation_plan",
    "verify_program",
    "lint_paths",
    "lint_source",
]
