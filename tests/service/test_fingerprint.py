"""Property-based tests for structural query fingerprints.

The fingerprint must be *complete* for the isomorphism classes the serving
layer cares about: equal exactly when two queries differ only by a bijective
variable renaming and/or a permutation of body atoms.  The tests check both
directions — invariance via random renamings/shuffles, distinctness against a
brute-force isomorphism oracle over small random query pairs.
"""

from __future__ import annotations

import itertools
import threading

from hypothesis import given, settings, strategies as st

from repro.query.ast import (
    Atom,
    ConjunctiveQuery,
    Constant,
    EqualityAtom,
    Variable,
)
from repro.query.parser import parse_query
from repro.service.fingerprint import are_isomorphic, canonical_key, fingerprint, shape

_VARIABLES = ["X", "Y", "Z", "W", "V"]
_PREDICATES = ["R", "S"]


# ---------------------------------------------------------------------------
# Random queries and random isomorphisms
# ---------------------------------------------------------------------------
@st.composite
def random_queries(draw) -> ConjunctiveQuery:
    """Safe conjunctive queries over binary R/S with optional equalities."""
    atom_count = draw(st.integers(min_value=1, max_value=4))
    body = []
    for _ in range(atom_count):
        predicate = draw(st.sampled_from(_PREDICATES))
        left = Variable(draw(st.sampled_from(_VARIABLES)))
        if draw(st.booleans()):
            right: object = Variable(draw(st.sampled_from(_VARIABLES)))
        else:
            right = Constant(draw(st.integers(0, 2)))
        body.append(Atom(predicate, (left, right)))
    body_vars = sorted({v.name for atom in body for v in atom.variables()})
    head_size = draw(st.integers(min_value=0, max_value=len(body_vars)))
    head_vars = tuple(Variable(name) for name in body_vars[:head_size])
    equalities = ()
    if body_vars and draw(st.booleans()):
        equalities = (
            EqualityAtom(
                Variable(draw(st.sampled_from(body_vars))),
                Constant(draw(st.integers(0, 2))),
            ),
        )
    parameters = tuple(head_vars[:1]) if head_vars and draw(st.booleans()) else ()
    return ConjunctiveQuery(Atom("Q", head_vars), body, equalities, parameters)


def _renamed(query: ConjunctiveQuery, permutation_index: int) -> ConjunctiveQuery:
    """Apply one of the bijective renamings of the query's variables."""
    variables = sorted(query.variables(), key=lambda v: v.name)
    permutations = list(itertools.permutations(range(len(variables))))
    chosen = permutations[permutation_index % len(permutations)]
    mapping = {
        variables[source]: Variable(f"fresh_{target}")
        for source, target in zip(range(len(variables)), chosen)
    }
    return query.substitute(mapping)


def _reordered(query: ConjunctiveQuery, permutation_index: int) -> ConjunctiveQuery:
    """Permute the body atoms of the query."""
    permutations = list(itertools.permutations(range(len(query.body))))
    chosen = permutations[permutation_index % len(permutations)]
    return ConjunctiveQuery(
        query.head,
        tuple(query.body[index] for index in chosen),
        query.equalities,
        query.parameters,
    )


def _brute_force_isomorphic(left: ConjunctiveQuery, right: ConjunctiveQuery) -> bool:
    """Oracle: try every variable bijection between the two queries."""
    left_vars = sorted(left.variables(), key=lambda v: v.name)
    right_vars = sorted(right.variables(), key=lambda v: v.name)
    if len(left_vars) != len(right_vars):
        return False
    if len(left.body) != len(right.body):
        return False
    right_body = sorted(
        ((a.predicate, a.terms) for a in right.body), key=repr
    )
    right_equalities = sorted(
        ((e.variable, e.constant) for e in right.equalities), key=repr
    )
    for permutation in itertools.permutations(right_vars):
        mapping = dict(zip(left_vars, permutation))

        def rename(term):
            return mapping[term] if isinstance(term, Variable) else term

        if tuple(rename(t) for t in left.head.terms) != right.head.terms:
            continue
        if left.head.predicate != right.head.predicate:
            continue
        mapped_body = sorted(
            (
                (atom.predicate, tuple(rename(t) for t in atom.terms))
                for atom in left.body
            ),
            key=repr,
        )
        if mapped_body != right_body:
            continue
        mapped_equalities = sorted(
            ((mapping[e.variable], e.constant) for e in left.equalities), key=repr
        )
        if mapped_equalities != right_equalities:
            continue
        if tuple(mapping[p] for p in left.parameters) != right.parameters:
            continue
        return True
    return False


# ---------------------------------------------------------------------------
# Invariance
# ---------------------------------------------------------------------------
class TestInvariance:
    @given(random_queries(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=120, deadline=None)
    def test_invariant_under_variable_renaming(self, query, permutation_index):
        assert fingerprint(_renamed(query, permutation_index)) == fingerprint(query)

    @given(random_queries(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=120, deadline=None)
    def test_invariant_under_atom_reordering(self, query, permutation_index):
        assert fingerprint(_reordered(query, permutation_index)) == fingerprint(query)

    @given(
        random_queries(),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=120, deadline=None)
    def test_invariant_under_renaming_and_reordering(
        self, query, rename_index, reorder_index
    ):
        variant = _reordered(_renamed(query, rename_index), reorder_index)
        assert canonical_key(variant) == canonical_key(query)
        assert are_isomorphic(variant, query)

    def test_paper_query_variants(self):
        original = parse_query(
            "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)"
        )
        renamed = parse_query("Q(N) :- FamilyIntro(F, T), Family(F, N, D)")
        assert fingerprint(original) == fingerprint(renamed)

    def test_automorphism_rich_bodies(self):
        cyclic = parse_query("Q(X) :- R(X, Y), R(Y, Z), R(Z, X)")
        rotated = parse_query("Q(B) :- R(A, B), R(B, C), R(C, A)")
        assert fingerprint(cyclic) == fingerprint(rotated)


# ---------------------------------------------------------------------------
# Distinctness
# ---------------------------------------------------------------------------
class TestDistinctness:
    @given(random_queries(), random_queries())
    @settings(max_examples=150, deadline=None)
    def test_fingerprint_matches_isomorphism_oracle(self, left, right):
        assert (canonical_key(left) == canonical_key(right)) == _brute_force_isomorphic(
            left, right
        )

    def test_distinct_shapes(self):
        distinct = [
            "Q(X) :- R(X, Y)",
            "Q(X) :- S(X, Y)",
            "Q(X) :- R(X, X)",
            "Q(X) :- R(Y, X)",
            "Q(X, Y) :- R(X, Y)",
            "Q(X) :- R(X, Y), R(Y, X)",
            "Q(X) :- R(X, Y), R(X, Z)",
            "Q(X) :- R(X, Y), S(Y, X)",
            "P(X) :- R(X, Y)",
            "Q(X) :- R(X, 1)",
            "Q(X) :- R(X, 2)",
            'Q(X) :- R(X, Y), Y = "a"',
            "lambda X. Q(X) :- R(X, Y)",
        ]
        prints = [fingerprint(parse_query(text)) for text in distinct]
        assert len(set(prints)) == len(prints)

    def test_constant_types_are_distinguished(self):
        integer = parse_query("Q(X) :- R(X, 1)")
        string = parse_query('Q(X) :- R(X, "1")')
        assert fingerprint(integer) != fingerprint(string)

    def test_duplicate_atoms_matter(self):
        # Set-equivalent but not isomorphic as atom multisets: the cache key
        # treats them as different plans (correct, merely conservative).
        single = parse_query("Q(X) :- R(X, Y)")
        doubled = ConjunctiveQuery(
            single.head, single.body + single.body, (), ()
        )
        assert fingerprint(single) != fingerprint(doubled)


# ---------------------------------------------------------------------------
# Shapes: lifted constants
# ---------------------------------------------------------------------------
class TestShape:
    @given(random_queries(), random_queries(), st.sampled_from([(), (1,)]))
    @settings(max_examples=150, deadline=None)
    def test_value_key_matches_isomorphism_oracle(self, left, right, fixed):
        same = shape(left, fixed).fingerprint == shape(right, fixed).fingerprint
        assert same == _brute_force_isomorphic(left, right)

    def test_constants_lift_with_their_equality_pattern(self):
        equal = shape(parse_query("Q(N) :- Family(5, N, D), FamilyIntro(5, T)"))
        also_equal = shape(parse_query("Q(M) :- FamilyIntro(7, X), Family(7, M, E)"))
        distinct = shape(parse_query("Q(N) :- Family(5, N, D), FamilyIntro(6, T)"))
        assert equal.plan_key == also_equal.plan_key != distinct.plan_key
        assert equal.fingerprint != also_equal.fingerprint
        assert (equal.constants, also_equal.constants) == ((5,), (7,))
        text = shape(parse_query('Q(N) :- Family("5", N, D), FamilyIntro("5", T)'))
        assert text.plan_key != equal.plan_key

    def test_fixed_and_equality_constants_keep_their_value(self):
        fixed = shape(parse_query("Q(N) :- Family(5, N, D)"), fixed=(5.0,))
        assert fixed.constants == ()
        assert fixed.plan_key != shape(parse_query("Q(N) :- Family(6, N, D)"), (5,)).plan_key
        bound = shape(parse_query("Q(N) :- Family(F, N, D), Committee(5, P), F = 5"))
        assert bound.constants == ()
        head = shape(parse_query("Q(5, N) :- Family(F, N, D)"))
        assert head.constants == (5,)

    def test_automorphic_constants_get_one_order(self):
        forward = shape(parse_query("Q(X) :- R(X, 5), R(X, 7)"))
        backward = shape(parse_query("Q(Y) :- R(Y, 7), R(Y, 5)"))
        other = shape(parse_query("Q(X) :- R(X, 9), R(X, 3)"))
        assert forward == backward
        assert forward.constants == (5, 7) and other.constants == (3, 9)
        assert other.plan_key == forward.plan_key

    def test_three_interchangeable_point_atoms_still_lift(self):
        shuffled = shape(parse_query("Q(P) :- Committee(3, P), Committee(1, P), Committee(2, P)"))
        other = shape(parse_query("Q(R) :- Committee(8, R), Committee(9, R), Committee(7, R)"))
        assert shuffled.constants == (1, 2, 3) and other.constants == (7, 8, 9)
        assert shuffled.plan_key == other.plan_key

    def test_interchangeable_point_atoms_are_keyed_by_value_in_bounded_time(
        self, paper_engine
    ):
        # Lifted, the nine holes tie where their values did not: 9! labelings
        # of one plan key.  The lift gives up after a few branches instead.
        text = "Q(P) :- " + ", ".join(f"Committee({i}, P)" for i in range(1, 10))
        shapes: list = []
        worker = threading.Thread(
            target=lambda: shapes.append(paper_engine.shape(text)), daemon=True
        )
        worker.start()
        worker.join(timeout=5)
        assert shapes, "the shape of nine interchangeable point atoms took over 5 s"
        assert shapes[0].constants == ()
        assert shapes[0].plan_key == shapes[0].fingerprint == fingerprint(parse_query(text))

    def test_refinement_stops_with_ten_or_more_colors(self):
        # Five atoms and eleven variables: once there are ten colors their
        # repr order and their numeric order part.
        body = [f"Family(F, N{i}, D{i})" for i in range(5)]
        queries = [parse_query(f"Q(N0) :- {', '.join(atoms)}") for atoms in (body, body[::-1])]
        keys: list = []
        worker = threading.Thread(
            target=lambda: keys.extend(map(canonical_key, queries)), daemon=True
        )
        worker.start()
        worker.join(timeout=10)
        assert len(keys) == 2 and keys[0] == keys[1]
