"""The generators: determinism, cache-miss guarantees and flat relation sizes."""

import pytest

from perfbench import checks, workloads


@pytest.fixture(scope="module")
def gtopdb():
    from repro.workloads import gtopdb

    return gtopdb


def _texts(cycles):
    return [[read.query.text() for read in cycle] for cycle in cycles]


@pytest.mark.parametrize(
    "generate",
    [
        lambda seed: workloads.warm_cite(seed, 20),
        lambda seed: workloads.cold_shapes(seed, 50, families=1000),
    ],
)
def test_same_seed_same_requests_other_seed_other_requests(generate):
    assert _texts(generate(3)) == _texts(generate(3))
    assert _texts(generate(3)) != _texts(generate(4))


def test_mix_is_fixed_round_robin_whatever_the_seed():
    for seed in (1, 2):
        assert all(
            tuple(read.base for read in cycle) == workloads.WARM_SLOTS
            for cycle in workloads.warm_cite(seed, 10)
        )
        assert all(
            [read.base for read in cycle]
            == ["family_intro", "target_family", "target_ligands", "target_intro",
                "ligand_targets"]
            for cycle in workloads.cold_shapes(seed, 10, families=1000)
        )


def test_edits_are_deterministic(gtopdb):
    state = workloads.edit_state(gtopdb.generate(families=100, **workloads.INSTANCE))
    assert workloads.edits(5, 10, *state) == workloads.edits(5, 10, *state)
    assert workloads.edits(5, 10, *state) != workloads.edits(6, 10, *state)


def _service_key(engine, text):
    from repro.query.parser import parse_query
    from repro.service.fingerprint import fingerprint

    return fingerprint(engine.analyze(parse_query(text)).core)


def test_warm_cite_variants_share_their_base_fingerprint(gtopdb):
    from repro import CitationEngine

    engine = CitationEngine(gtopdb.paper_instance(), gtopdb.citation_views(extended=True))
    for cycle in workloads.warm_cite(1, 20):
        for read in cycle:
            assert _service_key(engine, read.query.text()) == _service_key(
                engine, workloads.BASES[read.base].text()
            )


def test_cold_shapes_never_repeats_a_fingerprint(gtopdb):
    from repro import CitationEngine

    engine = CitationEngine(gtopdb.paper_instance(), gtopdb.citation_views(extended=True))
    keys = [
        _service_key(engine, read.query.text())
        for cycle in workloads.cold_shapes(7, 1500, families=1000)
        for read in cycle
    ]
    assert len(keys) == len(set(keys)) == 1500 * 5


def test_cold_shapes_refuses_more_cycles_than_constants():
    with pytest.raises(ValueError, match="family_intro"):
        workloads.cold_shapes(1, 501, families=100)


def test_write_mix_keeps_every_relation_size_flat(gtopdb):
    database = gtopdb.generate(families=100, **workloads.INSTANCE)
    sizes = database.sizes()
    for edit in workloads.edits(9, 60, *workloads.edit_state(database)):
        assert len(edit.deletes) == len(edit.inserts) >= 15
        assert all(database.delete(relation, row) for relation, row in edit.deletes)
        assert all(database.insert(relation, row) for relation, row in edit.inserts)
        assert database.sizes() == sizes
    assert database.validate() == []


def test_nested_loop_answers_the_paper_query(gtopdb):
    nested = checks.NestedLoop(gtopdb.paper_instance())
    assert nested.answer(workloads.BASES["paper"]) == {("Calcitonin",), ("Adenosine",)}
    point = workloads.cold_query("family_intro", 11, "FName, Text")
    assert nested.answer(point) == {("Calcitonin", "1st")}


def test_paper_example_holds():
    checks.paper_example()
