"""Tests for the MiniCon rewriting algorithm."""

import pytest
from strategies import brute_force

from repro import CitationEngine
from repro.query.evaluator import evaluate
from repro.query.parser import parse_query
from repro.rewriting.bucket import BucketRewriter
from repro.rewriting.minicon import MiniConRewriter
from repro.rewriting.rewriting import is_equivalent_rewriting
from repro.rewriting.view import View
from repro.service.fingerprint import canonical_key
from repro.workloads import gtopdb
from repro.workloads.query_workload import (
    WorkloadGenerator,
    chain_query,
    chain_views,
    star_query,
    star_views,
)


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


class TestPaperExample:
    def test_finds_both_rewritings(self, paper_views, paper_query):
        rewritings = MiniConRewriter(paper_views).rewrite(paper_query)
        used = {frozenset(a.predicate for a in r.query.body) for r in rewritings}
        assert used == {frozenset({"V1", "V3"}), frozenset({"V2", "V3"})}

    def test_results_verified_equivalent(self, paper_views, paper_query):
        for rewriting in MiniConRewriter(paper_views).rewrite(paper_query):
            assert is_equivalent_rewriting(paper_query, rewriting)

    def test_statistics(self, paper_views, paper_query):
        rewriter = MiniConRewriter(paper_views)
        rewriter.rewrite(paper_query)
        stats = rewriter.last_statistics
        assert stats.mcds >= 3
        assert stats.candidates_verified >= 2


class TestMcdProperty:
    def test_view_hiding_join_variable_must_cover_both_subgoals(self):
        # V hides the join variable Y (existential), so an MCD starting at R must
        # also cover S — and it can, because V contains both atoms.
        views = [View(parse_query("V(X, Z) :- R(X, Y), S(Y, Z)"))]
        query = parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)")
        rewritings = MiniConRewriter(views).rewrite(query)
        assert len(rewritings) == 1
        assert len(rewritings[0].query.body) == 1

    def test_view_hiding_join_variable_cannot_combine(self):
        # Each view hides Y, and neither covers both subgoals -> no rewriting.
        views = [
            View(parse_query("VR(X) :- R(X, Y)")),
            View(parse_query("VS(Z) :- S(Y, Z)")),
        ]
        query = parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)")
        assert MiniConRewriter(views).rewrite(query) == []

    def test_views_exposing_join_variable_combine(self):
        views = [
            View(parse_query("VR(X, Y) :- R(X, Y)")),
            View(parse_query("VS(Y, Z) :- S(Y, Z)")),
        ]
        query = parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)")
        rewritings = MiniConRewriter(views).rewrite(query)
        assert len(rewritings) == 1
        assert len(rewritings[0].query.body) == 2

    def test_head_variable_hidden_by_view_is_rejected(self):
        views = [View(parse_query("VH(Y) :- R(X, Y)"))]
        query = parse_query("Q(X) :- R(X, Y)")
        assert MiniConRewriter(views).rewrite(query) == []


class TestAgreementWithBucket:
    @pytest.mark.parametrize("length,window", [(2, 1), (3, 1), (4, 1)])
    def test_chain_workloads_agree(self, length, window):
        views = [cv.view for cv in chain_views(length, window=window)]
        query = chain_query(length)
        bucket = BucketRewriter(views).rewrite(query)
        minicon = MiniConRewriter(views).rewrite(query)
        bucket_sets = {frozenset(a.predicate for a in r.query.body) for r in bucket}
        minicon_sets = {frozenset(a.predicate for a in r.query.body) for r in minicon}
        assert minicon_sets == bucket_sets

    def test_minicon_strictly_more_complete_on_wide_windows(self):
        # The window-2 views hide their middle join variable; Bucket misses the
        # rewriting, MiniCon finds it (the motivating example of the MiniCon paper).
        views = [cv.view for cv in chain_views(4, window=2)]
        query = chain_query(4)
        assert BucketRewriter(views).rewrite(query) == []
        minicon = MiniConRewriter(views).rewrite(query)
        assert len(minicon) == 1
        assert is_equivalent_rewriting(query, minicon[0])

    @pytest.mark.parametrize("arms", [2, 3])
    def test_star_workloads_agree(self, arms):
        views = [cv.view for cv in star_views(arms)]
        query = star_query(arms)
        bucket = BucketRewriter(views).rewrite(query)
        minicon = MiniConRewriter(views).rewrite(query)
        assert bool(bucket) == bool(minicon)
        for rewriting in minicon:
            assert is_equivalent_rewriting(query, rewriting)

    def test_paper_example_agrees_with_bucket(self, paper_views, paper_query):
        bucket = BucketRewriter(paper_views).rewrite(paper_query)
        minicon = MiniConRewriter(paper_views).rewrite(paper_query)
        assert len(bucket) == len(minicon) == 2

    def test_minicon_explores_fewer_candidates_on_chains(self):
        length, window = 4, 1
        views = [cv.view for cv in chain_views(length, window=window)]
        query = chain_query(length)
        bucket = BucketRewriter(views)
        minicon = MiniConRewriter(views)
        bucket.rewrite(query)
        minicon.rewrite(query)
        assert (
            minicon.last_statistics.combinations_considered
            <= bucket.last_statistics.candidates_considered
        )


class TestRepeatedConstant:
    """A constant repeated within one atom binds every view term it meets:
    ``Family(F, "Same", "Same")`` maps "Same" to both ``FName`` and ``Desc``
    of ``V2(FID, FName, Desc) :- Family(FID, FName, Desc)``, and the
    rewriting puts it at both head positions.  MiniCon used to keep one
    view term per constant, so such a query had no rewriting."""

    QUERIES = [
        'Q(F) :- Family(F, "Same", "Same")',
        'Q(T) :- Target(T, F, "TT", "TT")',
    ]

    @pytest.fixture(scope="class")
    def database(self):
        database = gtopdb.generate(families=20, targets_per_family=3, seed=17)
        database.insert("Family", (999, "Same", "Same"))
        database.insert("Target", (9999, 999, "TT", "TT"))
        return database

    @pytest.mark.parametrize("text", QUERIES)
    def test_minicon_finds_what_bucket_finds(self, text):
        views = [cv.view for cv in gtopdb.citation_views(extended=True)]
        query = parse_query(text)
        minicon = MiniConRewriter(views).rewrite(query)
        bucket = BucketRewriter(views).rewrite(query)
        assert minicon
        assert sorted(canonical_key(r.query) for r in minicon) == sorted(
            canonical_key(r.query) for r in bucket
        )

    @pytest.mark.parametrize("text", QUERIES)
    def test_cited_rows_equal_brute_force(self, database, text):
        engine = CitationEngine(database, gtopdb.citation_views(extended=True))
        result = engine.cite(text)
        assert set(result.result.rows) == brute_force(parse_query(text), database) != set()


class TestRepeatedVariable:
    """A variable repeated within one atom meets every view term at its
    positions: ``Family(X, N, N)`` maps ``N`` to both ``FName`` and ``Desc``
    of ``V2(FID, FName, Desc) :- Family(FID, FName, Desc)``, and the
    rewriting puts ``N`` at both head positions.  Only head variables of the
    view can equate them.  MiniCon used to keep one view term per variable,
    so such a query had no rewriting."""

    QUERIES = [
        "Q(X, N) :- Family(X, N, N)",
        "Q(X) :- Family(X, X, D)",
        "Q(T) :- Interaction(T, L, L, A)",
        "Q(T, N) :- Target(T, F, N, N)",
    ]

    @pytest.fixture(scope="class")
    def database(self):
        database = gtopdb.generate(families=20, targets_per_family=3, seed=17)
        database.insert("Family", (999, "Same", "Same"))
        database.insert("Target", (9999, 999, "TT", "TT"))
        return database

    @pytest.mark.parametrize("text", QUERIES)
    def test_minicon_finds_what_bucket_finds(self, text):
        views = [cv.view for cv in gtopdb.citation_views(extended=True)]
        query = parse_query(text)
        minicon = MiniConRewriter(views).rewrite(query)
        bucket = BucketRewriter(views).rewrite(query)
        assert minicon
        assert sorted(canonical_key(r.query) for r in minicon) == sorted(
            canonical_key(r.query) for r in bucket
        )

    @pytest.mark.parametrize("text", QUERIES)
    def test_cited_rows_equal_evaluation(self, database, text):
        engine = CitationEngine(database, gtopdb.citation_views(extended=True))
        query = parse_query(text)
        rows = engine.cite(query).result.rows
        assert rows == evaluate(query, database).rows == brute_force(query, database)
        # Over typed columns an int and a str never meet: two are empty.
        assert bool(rows) == (text in (self.QUERIES[0], self.QUERIES[3]))

    def test_no_mcd_equates_through_an_existential_variable(self):
        # V hides Y, so V(X) cannot enforce R(X, X): no MCD, no rewriting.
        rewriter = MiniConRewriter([View(parse_query("V(X) :- R(X, Y)"))])
        assert rewriter.rewrite(parse_query("Q(X) :- R(X, X)")) == []
        assert rewriter.last_statistics.mcds == 0

    def test_closure_refuses_a_second_image_of_an_existential(self):
        # Y maps to the existential B, so the closure must place R(Y, Z) at
        # R(B, C): R(A, B) would give Y the second image A and must be
        # refused there, not kept as a repeat that sinks the whole MCD.
        view = View(parse_query("V(A, D) :- R(A, B), R(B, C), R(C, D)"))
        query = parse_query("Q(X, W) :- R(X, Y), R(Y, Z), R(Z, W)")
        rewritings = MiniConRewriter([view]).rewrite(query)
        assert [str(r) for r in rewritings] == ["Q(X, W) :- V(X, W)"]

    @pytest.mark.parametrize("seed", range(23, 28))
    def test_minicon_agrees_with_bucket_on_random_queries(self, seed):
        # 40 three-atom queries per seed, repeated variables within an atom
        # among them; before MCDs equated head variables, MiniCon returned
        # nothing on 65 of these 200 where Bucket found rewritings.
        views = [cv.view for cv in gtopdb.citation_views(extended=True)]
        generator = WorkloadGenerator(gtopdb.schema(), seed=seed)
        for _ in range(40):
            query = generator.random_query(atoms=3)
            minicon = MiniConRewriter(views).rewrite(query)
            bucket = BucketRewriter(views).rewrite(query)
            assert sorted(canonical_key(r.query) for r in minicon) == sorted(
                canonical_key(r.query) for r in bucket
            ), query
