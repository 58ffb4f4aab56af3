"""Citation-combination policies.

The paper leaves the interpretation of the abstract operators ``·``, ``+``,
``+R`` and ``Agg`` to the database owner: "There are many interpretations
that could be used for these functions.  For ``·``, ``+`` and ``Agg``, union
or join are natural.  For ``+R``, the minimum in some ordering would also be
natural."

A :class:`CitationPolicy` packages one concrete choice per operator.  Each
combinator maps a list of already-evaluated operands (each a
:class:`~repro.core.record.CitationSet`) to a combined :class:`CitationSet`.
:class:`Combinators` provides the standard choices; :meth:`CitationPolicy.default`
reproduces the paper's worked example (union for ``·``, ``+`` and ``Agg``,
minimum estimated size for ``+R``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Sequence

from repro.core.expression import (
    Aggregate,
    Alternative,
    CitationAtom,
    CitationExpression,
    Joint,
    RewriteAlternative,
)
from repro.core.record import CitationRecord, CitationSet, set_size
from repro.errors import PolicyError

#: A combinator folds the evaluated operand sets into one set.
Combinator = Callable[[Sequence[CitationSet]], CitationSet]


class Combinators:
    """Library of standard combinators for the four policy slots."""

    @staticmethod
    def union(operands: Sequence[CitationSet]) -> CitationSet:
        """Set union of the operand record sets (the paper's default for ·, +, Agg)."""
        out: set[CitationRecord] = set()
        for operand in operands:
            out.update(operand)
        return frozenset(out)

    @staticmethod
    def join(operands: Sequence[CitationSet]) -> CitationSet:
        """Merge records field-wise across operands (the "join" interpretation).

        The cross product of the operand sets is taken and each combination is
        merged into a single record; an empty operand behaves as a neutral
        element rather than annihilating the result.
        """
        current: list[CitationRecord] = [CitationRecord({})]
        for operand in operands:
            if not operand:
                continue
            current = [
                existing.merge(record) for existing in current for record in operand
            ]
        produced = frozenset(record for record in current if len(record) > 0)
        return produced

    @staticmethod
    def min_size(operands: Sequence[CitationSet]) -> CitationSet:
        """Pick the operand with the smallest estimated size (paper's +R choice).

        Ties are broken deterministically by the rendered text of the records.
        """
        candidates = [operand for operand in operands if operand] or list(operands)
        if not candidates:
            return frozenset()
        return _pick(min, candidates)

    @staticmethod
    def max_coverage(operands: Sequence[CitationSet]) -> CitationSet:
        """Pick the operand with the *largest* size (most comprehensive citation)."""
        if not operands:
            return frozenset()
        return _pick(max, operands)

    @staticmethod
    def first(operands: Sequence[CitationSet]) -> CitationSet:
        """Keep only the first non-empty operand (cheap, order-dependent)."""
        for operand in operands:
            if operand:
                return operand
        return frozenset()

    @staticmethod
    def named(name: str) -> Combinator:
        """Look up a combinator by name (``union``, ``join``, ``min_size``, ...)."""
        try:
            combinator = getattr(Combinators, name)
        except AttributeError:
            raise PolicyError(f"unknown combinator {name!r}") from None
        if not callable(combinator):
            raise PolicyError(f"{name!r} is not a combinator")
        return combinator


def _pick(best: Callable, candidates: Sequence[CitationSet]) -> CitationSet:
    """The first candidate that is *best* by size, then by the sorted ``repr``
    of its records — rendered only for the candidates tied on size."""
    sizes = [set_size(records) for records in candidates]
    target = best(sizes)
    tied = [records for records, size in zip(candidates, sizes) if size == target]
    if len(tied) == 1:
        return tied[0]
    return best(tied, key=lambda records: sorted(repr(r) for r in records))


@dataclass(frozen=True)
class CitationPolicy:
    """One concrete interpretation of the four abstract operators."""

    joint: Combinator = field(default=Combinators.union)
    alternative: Combinator = field(default=Combinators.union)
    rewrite_alternative: Combinator = field(default=Combinators.min_size)
    aggregate: Combinator = field(default=Combinators.union)
    name: str = "default"

    # -- canned policies -----------------------------------------------------
    @staticmethod
    def default() -> "CitationPolicy":
        """The paper's worked-example policy: union / union / min-size / union."""
        return CitationPolicy()

    @staticmethod
    def union_everywhere() -> "CitationPolicy":
        """Union for every operator (keeps all alternatives, largest citations)."""
        return CitationPolicy(
            joint=Combinators.union,
            alternative=Combinators.union,
            rewrite_alternative=Combinators.union,
            aggregate=Combinators.union,
            name="union_everywhere",
        )

    @staticmethod
    def joined() -> "CitationPolicy":
        """Merge snippets into a single record per tuple (compact human-readable)."""
        return CitationPolicy(
            joint=Combinators.join,
            alternative=Combinators.union,
            rewrite_alternative=Combinators.min_size,
            aggregate=Combinators.union,
            name="joined",
        )

    @staticmethod
    def from_names(
        joint: str = "union",
        alternative: str = "union",
        rewrite_alternative: str = "min_size",
        aggregate: str = "union",
    ) -> "CitationPolicy":
        """Build a policy from combinator names (used by the benchmarks/ablations)."""
        return CitationPolicy(
            joint=Combinators.named(joint),
            alternative=Combinators.named(alternative),
            rewrite_alternative=Combinators.named(rewrite_alternative),
            aggregate=Combinators.named(aggregate),
            name=f"{joint}/{alternative}/{rewrite_alternative}/{aggregate}",
        )

    # -- evaluation --------------------------------------------------------------
    def evaluate(self, expression: CitationExpression) -> CitationSet:
        """Evaluate a citation expression into a concrete set of records."""
        if isinstance(expression, CitationAtom):
            return expression.evaluated_records()
        operands = [self.evaluate(child) for child in expression.children()]
        if isinstance(expression, Joint):
            return self.joint(operands)
        if isinstance(expression, Alternative):
            return self.alternative(operands)
        if isinstance(expression, RewriteAlternative):
            return self.rewrite_alternative(operands)
        if isinstance(expression, Aggregate):
            return self.aggregate(operands)
        raise PolicyError(f"cannot evaluate citation expression node {expression!r}")

    def __repr__(self) -> str:
        return f"CitationPolicy({self.name})"
