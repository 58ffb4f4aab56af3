"""The benchmark's correctness gate, independent of the evaluator under test.

* :class:`NestedLoop` answers a :class:`~perfbench.workloads.CQ` straight
  from the base relations with an index nested-loop join of its own.
* :func:`digest` condenses a cited result's per-tuple citation records, so a
  response can be compared with a fresh engine's without being retained.
* :func:`paper_example` checks the paper's worked example.
"""

from __future__ import annotations

import hashlib

PAPER_EXPRESSION = "((CV1(11)·CV3) + (CV1(12)·CV3)) +R (CV2·CV3)"


class NestedLoop:
    """Index nested-loop evaluation of a CQ over a database's base relations.

    Indexes are built from the relations' rows on first use and kept until
    :meth:`reset`, which the caller invokes after every change to the data.
    """

    def __init__(self, database) -> None:
        self.database = database
        self._indexes: dict[tuple[str, tuple[int, ...]], dict[tuple, list[tuple]]] = {}

    def reset(self) -> None:
        self._indexes.clear()

    def _index(self, predicate: str, positions: tuple[int, ...]) -> dict[tuple, list[tuple]]:
        key = (predicate, positions)
        index = self._indexes.get(key)
        if index is None:
            index = {}
            for row in self.database.relation(predicate):
                index.setdefault(tuple(row[p] for p in positions), []).append(row)
            self._indexes[key] = index
        return index

    def answer(self, query) -> set[tuple]:
        out: set[tuple] = set()
        body = query.body

        def extend(position: int, binding: dict[str, object]) -> None:
            if position == len(body):
                out.add(tuple(binding[v] for v in query.head))
                return
            predicate, terms = body[position]
            bound = tuple(
                i for i, t in enumerate(terms) if not isinstance(t, str) or t in binding
            )
            key = tuple(t if not isinstance(t, str) else binding[t] for t in (terms[i] for i in bound))
            for row in self._index(predicate, bound).get(key, ()):
                extended = dict(binding)
                for term, value in zip(terms, row):
                    if isinstance(term, str):
                        if extended.setdefault(term, value) != value:
                            break
                else:
                    extend(position + 1, extended)

        extend(0, {})
        return out


def digest(result) -> str:
    """SHA-256 over every answer row with its sorted citation records."""
    canonical = sorted(
        (
            repr(tc.row),
            sorted(repr(sorted(record.items(), key=repr)) for record in tc.records),
        )
        for tc in result.tuple_citations
    )
    return hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()


def paper_example() -> None:
    """Raise unless the paper's Section 2 example yields its symbolic citation."""
    from repro import CitationEngine
    from repro.workloads import gtopdb

    engine = CitationEngine(gtopdb.paper_instance(), gtopdb.citation_views())
    result = engine.cite(gtopdb.paper_query())
    got = str(result.citation_for(("Calcitonin",)).expression)
    if got != PAPER_EXPRESSION:
        raise AssertionError(f"paper example: expected {PAPER_EXPRESSION}, got {got}")
