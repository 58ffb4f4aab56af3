"""Tests for rewriting representation, expansion and verification."""

import pytest

from repro.errors import RewritingError
from repro.query.ast import Variable
from repro.query.containment import is_equivalent_to
from repro.query.evaluator import evaluate
from repro.query.parser import parse_query
from repro.rewriting.rewriting import (
    Rewriting,
    deduplicate_rewritings,
    expand_rewriting,
    is_contained_rewriting,
    is_equivalent_rewriting,
    minimize_rewriting,
)
from repro.rewriting.view import View, materialize_views, views_by_name
from repro.workloads import gtopdb


@pytest.fixture
def paper_views():
    return [
        View(parse_query("lambda FID. V1(FID, FName, Desc) :- Family(FID, FName, Desc)")),
        View(parse_query("V2(FID, FName, Desc) :- Family(FID, FName, Desc)")),
        View(parse_query("V3(FID, Text) :- FamilyIntro(FID, Text)")),
    ]


@pytest.fixture
def paper_query():
    return parse_query("Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)")


class TestExpansion:
    def test_expanding_single_view_atom(self, paper_views):
        rewriting_query = parse_query("Q(FName) :- V1(FID, FName, Desc), V3(FID, Text)")
        expansion = expand_rewriting(rewriting_query, views_by_name(paper_views))
        assert expansion.predicates() == {"Family", "FamilyIntro"}
        assert len(expansion.body) == 2

    def test_expansion_is_equivalent_to_original_query(self, paper_views, paper_query):
        rewriting = Rewriting(
            parse_query("Q(FName) :- V1(FID, FName, Desc), V3(FID, Text)"), paper_views
        )
        assert is_equivalent_to(rewriting.expansion, paper_query)

    def test_existential_variables_are_fresh_per_occurrence(self, paper_views):
        # V3 hides nothing, so use a view with an existential variable.
        views = [View(parse_query("VP(FID) :- Committee(FID, PName)"))]
        rewriting_query = parse_query("Q(A, B) :- VP(A), VP(B)")
        expansion = expand_rewriting(rewriting_query, views_by_name(views))
        committee_atoms = [a for a in expansion.body if a.predicate == "Committee"]
        assert len(committee_atoms) == 2
        second_terms = {committee_atoms[0].terms[1], committee_atoms[1].terms[1]}
        assert len(second_terms) == 2  # PName was renamed apart

    def test_constant_in_rewriting_atom_propagates(self, paper_views):
        rewriting_query = parse_query("Q(FName) :- V1(11, FName, Desc)")
        expansion = expand_rewriting(rewriting_query, views_by_name(paper_views))
        family_atom = expansion.body[0]
        assert family_atom.terms[0].value == 11

    def test_base_atoms_kept_in_partial_rewritings(self, paper_views):
        rewriting_query = parse_query("Q(FName) :- V1(FID, FName, Desc), Committee(FID, P)")
        expansion = expand_rewriting(rewriting_query, views_by_name(paper_views))
        assert "Committee" in expansion.predicates()

    def test_arity_mismatch_raises(self, paper_views):
        with pytest.raises(RewritingError):
            expand_rewriting(
                parse_query("Q(X) :- V1(X, Y)"), views_by_name(paper_views)
            )

    def test_view_with_equality_is_inlined(self):
        views = [View(parse_query('VC(FID, D) :- Family(FID, F, De), D = "note"'))]
        expansion = expand_rewriting(
            parse_query("Q(FID, D) :- VC(FID, D)"), views_by_name(views)
        )
        assert expansion.predicates() == {"Family"}

    def test_rewriting_equality_follows_a_merged_variable(self):
        # VR's head repeats L, so the expansion merges l into m: the
        # rewriting's equality on l must constrain m, or it filters nothing.
        views = [View(parse_query("VR(T, L, L) :- Interaction(T, L, A, F)"))]
        database = gtopdb.generate(families=6, targets_per_family=2, seed=3)
        lid = min(row[1] for row in database.relation("Interaction").rows)
        rewriting = Rewriting(parse_query(f"Q(t) :- VR(t, l, m), l = {lid}"), views)
        assert rewriting.resolve(Variable("l")) == Variable("m")
        assert [str(e) for e in rewriting.expansion.equalities] == [f"m = {lid}"]
        over_views = evaluate(
            rewriting.query, database, extra_relations=materialize_views(views, database)
        )
        assert evaluate(rewriting.expansion, database).rows == over_views.rows != set()


class TestRewritingObject:
    def test_views_used_in_first_use_order(self, paper_views):
        rewriting = Rewriting(
            parse_query("Q(FName) :- V3(FID, Text), V1(FID, FName, Desc)"), paper_views
        )
        assert [v.name for v in rewriting.views_used()] == ["V3", "V1"]

    def test_unknown_view_predicate_rejected(self, paper_views):
        with pytest.raises(RewritingError):
            Rewriting(parse_query("Q(X) :- Nope(X)"), paper_views)

    def test_uses_parameterized_view(self, paper_views):
        with_v1 = Rewriting(
            parse_query("Q(FName) :- V1(FID, FName, D), V3(FID, T)"), paper_views
        )
        with_v2 = Rewriting(
            parse_query("Q(FName) :- V2(FID, FName, D), V3(FID, T)"), paper_views
        )
        assert with_v1.uses_parameterized_view()
        assert not with_v2.uses_parameterized_view()

    def test_equality_of_rewritings(self, paper_views):
        first = Rewriting(parse_query("Q(F) :- V2(I, F, D), V3(I, T)"), paper_views)
        second = Rewriting(parse_query("Q(F) :- V2(I, F, D), V3(I, T)"), paper_views)
        assert first == second


class TestVerification:
    def test_equivalent_rewriting_accepted(self, paper_views, paper_query):
        rewriting = Rewriting(
            parse_query("Q(FName) :- V2(FID, FName, Desc), V3(FID, Text)"), paper_views
        )
        assert is_equivalent_rewriting(paper_query, rewriting)

    def test_non_equivalent_rewriting_rejected(self, paper_views, paper_query):
        only_family = Rewriting(
            parse_query("Q(FName) :- V2(FID, FName, Desc)"), paper_views
        )
        assert not is_equivalent_rewriting(paper_query, only_family)
        # ... but the expansion is a superset of the query's answers, so it is
        # not a *contained* rewriting either (it is a containing one).
        assert not is_contained_rewriting(paper_query, only_family)

    def test_contained_rewriting(self, paper_views):
        query = parse_query("Q(FName) :- Family(FID, FName, Desc)")
        narrower = Rewriting(
            parse_query("Q(FName) :- V2(FID, FName, Desc), V3(FID, Text)"), paper_views
        )
        assert is_contained_rewriting(query, narrower)
        assert not is_equivalent_rewriting(query, narrower)

    def test_minimize_rewriting_drops_redundant_atom(self, paper_views, paper_query):
        redundant = Rewriting(
            parse_query(
                "Q(FName) :- V2(FID, FName, Desc), V2(FID, FName, Desc2), V3(FID, Text)"
            ),
            paper_views,
        )
        minimal = minimize_rewriting(redundant)
        assert len(minimal.query.body) == 2
        assert is_equivalent_rewriting(paper_query, minimal)

    def test_deduplicate_rewritings(self, paper_views):
        first = Rewriting(parse_query("Q(F) :- V2(I, F, D), V3(I, T)"), paper_views)
        second = Rewriting(parse_query("Q(F) :- V3(J, U), V2(J, F, E)"), paper_views)
        third = Rewriting(parse_query("Q(F) :- V1(I, F, D), V3(I, T)"), paper_views)
        assert len(deduplicate_rewritings([first, second, third])) == 2
