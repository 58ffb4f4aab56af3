"""Schema-level (query-level) citation reasoning.

Section 3 ("Calculating citations") suggests that "it may also be possible to
do some of the reasoning at the schema level, and impose the views that are
retained at this level over tuple-level annotations".  This module implements
that idea: instead of building one citation expression per output tuple and
per binding, it

1. selects rewritings at the schema level (cost-based, no data access),
2. evaluates the chosen rewriting *once*, collecting the distinct parameter
   valuations used per view atom, and
3. produces a single query-level citation: the union over the view atoms of
   the citations for the parameter valuations actually used.

The query-level citation credits every contributor whose data can appear in
the result but does not attribute snippets to individual output tuples, which
is exactly the coarser granularity the schema-level shortcut trades for
speed.  ``coverage`` reports how the result size relates to the number of
distinct citations, which benchmarks E4/E5 use.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.citation import Citation
from repro.core.engine import CitationEngine, CitationProgram
from repro.core.expression import Aggregate, CitationAtom, alternative, joint
from repro.errors import NoRewritingError
from repro.query.ast import ConjunctiveQuery, Constant
from repro.rewriting.rewriting import Rewriting


@dataclass
class SchemaLevelCitation:
    """Result of query-level citation construction."""

    query: ConjunctiveQuery
    rewriting: Rewriting
    citation: Citation
    result_size: int
    distinct_parameter_valuations: int

    def coverage(self) -> float:
        """Distinct citations per result tuple (1.0 means one citation per tuple)."""
        if self.result_size == 0:
            return 0.0
        return self.distinct_parameter_valuations / self.result_size


def cite_schema_level(
    engine: CitationEngine, query: ConjunctiveQuery | str
) -> SchemaLevelCitation:
    """Construct a query-level citation without per-tuple enumeration."""
    query = engine._as_query(query)
    rewritings = engine.rewritings(query)
    if not rewritings:
        raise NoRewritingError(query.name)
    selected = engine.selector.select(rewritings)
    rewriting = selected[0]

    evaluator = engine._execution_evaluator()
    program = evaluator.compile(rewriting.expansion)
    citation_program = CitationProgram(rewriting, engine._citation_view_by_name, program.variables)
    valuations_per_atom: list[tuple[str, set[tuple]]] = [
        (atom.predicate, set()) for atom in rewriting.query.body
    ]
    frames_by_row = evaluator.frames_by_row(rewriting.expansion, program)
    for frames in frames_by_row.values():
        for frame in frames:
            keys = citation_program.keys(frame)
            for (_view, seen), (_name, items) in zip(valuations_per_atom, keys):
                seen.add(items)

    per_atom_expressions = []
    total_valuations = 0
    for view_name, seen in valuations_per_atom:
        total_valuations += len(seen)
        atoms = [
            CitationAtom(view_name, dict(values), engine.citation_record(view_name, dict(values)))
            for values in sorted(seen, key=repr)
        ]
        if atoms:
            per_atom_expressions.append(alternative(atoms))
    expression = joint(per_atom_expressions) if per_atom_expressions else Aggregate([])
    records = engine.policy.evaluate(expression)
    citation = Citation(records, expression=expression, query_text=str(query))
    return SchemaLevelCitation(
        query=query,
        rewriting=rewriting,
        citation=citation,
        result_size=len(frames_by_row),
        distinct_parameter_valuations=total_valuations,
    )


def schema_level_parameter_estimate(
    engine: CitationEngine, rewriting: Rewriting
) -> int:
    """Upper bound on distinct parameter valuations, from view materialisations only.

    This is a pure schema/materialisation-level quantity: for every view atom
    the number of distinct parameter projections of the view extent, summed
    over the atoms.  It never looks at the query result.
    """
    total = 0
    relations = engine.view_relations()
    for atom in rewriting.query.body:
        citation_view = engine._citation_view_by_name[atom.predicate]
        positions = sorted(citation_view.view.parameter_positions().values())
        if not positions:
            total += 1
            continue
        extent = relations[atom.predicate]
        bound_positions = {
            i: term.value
            for i, term in enumerate(atom.terms)
            if isinstance(term, Constant)
        }
        if bound_positions:
            rows = extent.rows_matching(bound_positions)
            total += len({tuple(row[i] for i in positions) for row in rows})
        else:
            total += len(extent.project_positions(positions))
    return total
