"""Conjunctive queries: AST, parsing, evaluation, containment and minimization.

The PODS 2017 data-citation model expresses view queries and citation queries
as (optionally parameterized) conjunctive queries.  This package provides the
full CQ toolchain the model needs:

* :mod:`repro.query.ast` — terms, atoms and :class:`ConjunctiveQuery` with
  λ-parameters,
* :mod:`repro.query.parser` — a Datalog-style textual syntax matching the
  notation used in the paper (``λ FID. V1(FID,FName,Desc) :- Family(FID,FName,Desc)``),
* :mod:`repro.query.evaluator` — evaluation over a
  :class:`~repro.relational.database.Database`, including enumeration of all
  bindings per output tuple (needed by Definition 2.2),
* :mod:`repro.query.compiler` — compilation of a CQ into a static
  :class:`~repro.query.compiler.JoinProgram` (fixed atom order, variable→slot
  frames, per-atom bound-position accessors) that the evaluator executes and
  the serving layer caches on compiled citation plans,
* :mod:`repro.query.stats` — the evaluator's evaluation counts and times,
* :mod:`repro.query.containment` — homomorphism-based containment and
  equivalence,
* :mod:`repro.query.minimization` — core computation / minimization,
* :mod:`repro.query.sql` — a small SQL front-end translated to CQs.
"""

from repro.query.ast import (
    Atom,
    ConjunctiveQuery,
    Constant,
    EqualityAtom,
    Term,
    Variable,
)
from repro.query.parser import parse_query, parse_program
from repro.query.compiler import JoinProgram, compile_query
from repro.query.evaluator import QueryEvaluator, evaluate, evaluate_with_bindings
from repro.query.stats import EvaluationMetrics
from repro.query.containment import (
    containment_mapping,
    find_homomorphism,
    is_contained_in,
    is_equivalent_to,
)
from repro.query.minimization import is_minimal, minimize
from repro.query.sql import parse_sql
from repro.query.ucq import (
    UnionQuery,
    evaluate_union,
    evaluate_union_with_bindings,
    minimize_union,
    union_contained_in,
    union_equivalent,
)

__all__ = [
    "Term",
    "Variable",
    "Constant",
    "Atom",
    "EqualityAtom",
    "ConjunctiveQuery",
    "parse_query",
    "parse_program",
    "parse_sql",
    "JoinProgram",
    "compile_query",
    "QueryEvaluator",
    "evaluate",
    "evaluate_with_bindings",
    "EvaluationMetrics",
    "is_contained_in",
    "is_equivalent_to",
    "containment_mapping",
    "find_homomorphism",
    "minimize",
    "is_minimal",
    "UnionQuery",
    "evaluate_union",
    "evaluate_union_with_bindings",
    "union_contained_in",
    "union_equivalent",
    "minimize_union",
]
