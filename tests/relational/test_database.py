"""Tests for the Database: updates, constraints, indexes, hashing."""

import pytest

from repro.errors import ArityError, IntegrityError, SchemaError, UnknownRelationError
from repro.relational.database import Database
from repro.relational.schema import Attribute, DatabaseSchema, ForeignKey, RelationSchema


@pytest.fixture
def schema():
    return DatabaseSchema(
        [
            RelationSchema("Family", [Attribute("FID", int), Attribute("FName", str)], key=["FID"]),
            RelationSchema("Committee", [Attribute("FID", int), Attribute("PName", str)]),
        ],
        foreign_keys=[ForeignKey("Committee", ("FID",), "Family", ("FID",))],
    )


@pytest.fixture
def db(schema):
    database = Database(schema)
    database.insert("Family", (1, "Calcitonin"))
    database.insert("Family", (2, "Adenosine"))
    database.insert("Committee", (1, "D. Hoyer"))
    return database


class TestUpdates:
    def test_insert_and_contains(self, db):
        assert (1, "Calcitonin") in db.relation("Family")

    def test_insert_mapping(self, db):
        db.insert("Family", {"FID": 3, "FName": "Opioid"})
        assert db.relation("Family").lookup_key((3,)) == (3, "Opioid")

    def test_unknown_relation(self, db):
        with pytest.raises(UnknownRelationError):
            db.insert("Nope", (1,))

    def test_foreign_key_enforced_on_insert(self, db):
        with pytest.raises(IntegrityError):
            db.insert("Committee", (42, "Nobody"))

    def test_foreign_key_enforced_on_delete(self, db):
        with pytest.raises(IntegrityError):
            db.delete("Family", (1, "Calcitonin"))

    def test_delete_unreferenced_row(self, db):
        assert db.delete("Family", (2, "Adenosine"))

    def test_foreign_key_can_be_disabled(self, schema):
        database = Database(schema, enforce_foreign_keys=False)
        database.insert("Committee", (42, "Nobody"))
        assert database.validate()  # reports the dangling reference

    def test_validate_clean_instance(self, db):
        assert db.validate() == []

    def test_insert_many(self, db):
        added = db.insert_many("Family", [(5, "A"), (6, "B"), (5, "A")])
        assert added == 2

    def test_insert_validates_each_row_once(self, db, monkeypatch):
        validated = []
        validate_row = RelationSchema.validate_row

        def counting_validate_row(schema, row):
            validated.append(schema.name)
            return validate_row(schema, row)

        monkeypatch.setattr(RelationSchema, "validate_row", counting_validate_row)
        assert db.insert("Family", (3, "Opioid"))
        assert db.insert("Family", {"FID": 4, "FName": "Orexin"})
        assert db.insert("Committee", (3, "A. Curator"))  # foreign key checked
        assert validated == ["Family", "Family", "Committee"]

    def test_invalid_rows_are_refused_by_database_and_relation(self, db):
        family = db.relation("Family")
        for row, error in (((5,), ArityError), (("5", "Opioid"), SchemaError)):
            with pytest.raises(error):
                db.insert("Family", row)
            with pytest.raises(error):
                family.insert(row)
        assert len(family) == 2


class TestIndexes:
    def test_index_lookup(self, db):
        index = db.index_on("Family", ["FName"])
        assert list(index.lookup(("Calcitonin",))) == [(1, "Calcitonin")]

    def test_index_is_maintained_on_insert(self, db):
        index = db.index_on("Family", ["FName"])
        db.insert("Family", (7, "Calcitonin"))
        assert len(list(index.lookup(("Calcitonin",)))) == 2

    def test_index_is_maintained_on_delete(self, db):
        index = db.index_on("Family", ["FName"])
        db.delete("Family", (2, "Adenosine"))
        assert list(index.lookup(("Adenosine",))) == []

    def test_index_is_cached(self, db):
        assert db.index_on("Family", ["FName"]) is db.index_on("Family", ["FName"])

    def test_index_on_positions_matches_index_on(self, db):
        assert db.index_on_positions("Family", (1,)) is db.index_on("Family", ["FName"])


class TestOutOfBandMutations:
    """Mutations applied directly to a database-owned Relation (bypassing
    Database.insert/delete) used to leave indexes stale and the generation
    unchanged, so index lookups silently missed rows and generation-keyed
    caches kept serving stale data.  The database now detects the drift via
    Relation.version."""

    def test_direct_insert_used_to_miss_in_index_now_visible(self, db):
        index = db.index_on("Family", ["FName"])
        assert list(index.lookup(("Rogue",))) == []
        # Bypass the database update path entirely.
        db.relation("Family").insert((42, "Rogue"))
        # The stale index object no longer sees the row (that was the silent
        # wrong-answer path)...
        assert list(index.lookup(("Rogue",))) == []
        # ...but the database notices the drift: a fresh index_on call
        # returns a rebuilt index that does.
        rebuilt = db.index_on("Family", ["FName"])
        assert rebuilt is not index
        assert list(rebuilt.lookup(("Rogue",))) == [(42, "Rogue")]

    def test_direct_mutation_bumps_generation(self, db):
        before = db.generation
        db.relation("Family").insert((43, "OutOfBand"))
        assert db.generation > before
        # Reading the generation folds the drift in exactly once.
        assert db.generation == before + 1

    def test_direct_delete_detected(self, db):
        index = db.index_on("Committee", ["PName"])
        assert list(index.lookup(("D. Hoyer",)))
        before = db.generation
        db.relation("Committee").delete((1, "D. Hoyer"))
        assert db.generation == before + 1
        assert list(db.index_on("Committee", ["PName"]).lookup(("D. Hoyer",))) == []

    def test_drift_not_swallowed_by_subsequent_applied_insert(self, db):
        # Regression: an in-band insert on the same relation used to record
        # the post-mutation version unconditionally, silently absorbing
        # out-of-band drift that never bumped the generation or dropped the
        # stale indexes.
        index = db.index_on("Family", ["FName"])
        before = db.generation
        db.relation("Family").insert((42, "Rogue"))  # out of band, unobserved
        db.insert("Family", (43, "Next"))  # in band, before any generation read
        assert db.generation == before + 2  # drift + applied insert
        rebuilt = db.index_on("Family", ["FName"])
        assert rebuilt is not index
        assert list(rebuilt.lookup(("Rogue",))) == [(42, "Rogue")]

    def test_drift_not_swallowed_by_subsequent_applied_delete(self, db):
        before = db.generation
        db.relation("Family").insert((42, "Rogue"))  # out of band, unobserved
        db.delete("Family", (42, "Rogue"))  # in band, same relation
        assert db.generation == before + 2

    def test_concurrent_readers_fold_one_drift_exactly_once(self, db):
        # generation reads and index probes run on the serving layer's thread
        # pool; one out-of-band drift must bump the generation once and never
        # crash a reader mid-drop.
        from concurrent.futures import ThreadPoolExecutor

        db.index_on("Family", ["FName"])
        before = db.generation
        db.relation("Family").insert((42, "Rogue"))

        def read(_i):
            db.index_on("Family", ["FName"])
            return db.generation

        with ThreadPoolExecutor(max_workers=8) as pool:
            generations = list(pool.map(read, range(64)))
        assert set(generations) == {before + 1}

    def test_applied_updates_do_not_double_count(self, db):
        before = db.generation
        db.insert("Family", (44, "Applied"))
        assert db.generation == before + 1
        assert db.generation == before + 1  # repeated reads are stable

    def test_evaluator_sees_out_of_band_rows(self, db):
        from repro.query.evaluator import QueryEvaluator
        from repro.query.parser import parse_query

        evaluator = QueryEvaluator(db)
        query = parse_query('Q(FID) :- Family(FID, "Calcitonin")')
        assert evaluator.evaluate(query).rows == {(1,)}
        db.relation("Family").insert((77, "Calcitonin"))
        assert evaluator.evaluate(query).rows == {(1,), (77,)}


class TestChangeLog:
    """``changes_since`` replays the change of each generation: the engine
    evicts only what those changes can reach."""

    def test_one_entry_per_generation(self, db):
        before = db.generation
        db.insert("Family", (5, "Opioid"))
        db.delete("Committee", (1, "D. Hoyer"))
        db.insert("Family", (5, "Opioid"))  # no change, no generation
        db.delete("Family", (5, "Opioid"))
        assert db.changes_since(before) == (
            before + 3,
            [
                ("Family", (5, "Opioid")),
                ("Committee", (1, "D. Hoyer")),
                ("Family", (5, "Opioid")),
            ],
        )
        assert db.changes_since(before + 2) == (before + 3, [("Family", (5, "Opioid"))])
        assert db.changes_since(before + 3) == (before + 3, [])

    def test_drift_is_logged_without_a_row(self, db):
        before = db.generation
        db.relation("Committee").insert((2, "Rogue"))  # out of band
        db.insert("Committee", (2, "Next"))  # folds its relation's drift first
        assert db.changes_since(before) == (
            before + 2, [("Committee", None), ("Committee", (2, "Next"))]
        )

    def test_a_reader_too_far_behind_gets_none(self, schema, monkeypatch):
        import repro.relational.database as database_module

        monkeypatch.setattr(database_module, "_CHANGE_LOG_LIMIT", 8)  # a short log
        db = Database(schema)
        for _ in range(5):
            db.insert("Family", (9, "Churn"))
            db.delete("Family", (9, "Churn"))
        assert db.changes_since(1) is None
        generation, entries = db.changes_since(2)
        assert generation == 10 and len(entries) == 8
        assert db.changes_since(11) is None

    def test_copy_starts_with_an_empty_log(self, db):
        clone = db.copy()
        assert clone.changes_since(clone.generation) == (clone.generation, [])
        assert clone.changes_since(clone.generation - 1) is None
        clone.insert("Family", (10, "Clone"))
        assert clone.changes_since(0) == (1, [("Family", (10, "Clone"))])
        assert db.changes_since(db.generation) == (db.generation, [])

    def test_writes_racing_drift_folds_lose_no_generation(self, db):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        before = db.generation

        def write(i):
            db.insert("Family", (100 + i, f"F{i}"))
            db.relation("Committee").insert((1, f"Rogue {i}"))  # out of band
            return db.generation

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                list(pool.map(write, range(200), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        generation, entries = db.changes_since(before)
        assert generation - before == len(entries)
        assert sum(row is not None for _, row in entries) == 200
        assert {relation for relation, row in entries if row is None} == {"Committee"}


class TestInspection:
    def test_total_rows_and_sizes(self, db):
        assert db.total_rows() == 3
        assert db.sizes() == {"Family": 2, "Committee": 1}

    def test_content_hash_changes_with_content(self, db):
        before = db.content_hash()
        db.insert("Family", (9, "New"))
        assert db.content_hash() != before

    def test_content_hash_is_order_independent(self, schema):
        a = Database(schema)
        b = Database(schema)
        rows = [(1, "X"), (2, "Y"), (3, "Z")]
        a.insert_many("Family", rows)
        b.insert_many("Family", list(reversed(rows)))
        assert a.content_hash() == b.content_hash()

    def test_copy_is_independent(self, db):
        clone = db.copy()
        clone.insert("Family", (10, "Clone"))
        assert db.sizes()["Family"] == 2
        assert clone.sizes()["Family"] == 3

    def test_copy_preserves_content(self, db):
        assert db.copy() == db

    def test_repr_mentions_sizes(self, db):
        assert "Family=2" in repr(db)


class TestForeignKeyProbes:
    """Foreign-key checks probe the database's hash indexes, so a checked
    write costs O(row): once a warm-up write in each direction has built
    the indexes, no check scans or iterates a relation."""

    def test_checked_writes_scan_no_relation(self, db, monkeypatch):
        from repro.relational.relation import Relation

        db.insert("Committee", (2, "Warm-up"))  # builds Family's probe index
        with pytest.raises(IntegrityError):
            db.delete("Family", (2, "Adenosine"))  # builds Committee's
        scanned, iterated = [], []
        rows_matching, iterate = Relation.rows_matching, Relation.__iter__

        def spy_rows_matching(relation, bound):
            scanned.append(relation.schema.name)
            return rows_matching(relation, bound)

        def spy_iter(relation):
            iterated.append(relation.schema.name)
            return iterate(relation)

        monkeypatch.setattr(Relation, "rows_matching", spy_rows_matching)
        monkeypatch.setattr(Relation, "__iter__", spy_iter)
        for i in range(50):  # four checked writes each, two per direction
            fid = 100 + i
            db.insert("Family", (fid, f"F{i}"))
            assert db.insert("Committee", (fid, "Curator"))  # outgoing, holds
            with pytest.raises(IntegrityError):
                db.insert("Committee", (900 + i, "Nobody"))  # outgoing, fails
            with pytest.raises(IntegrityError):
                db.delete("Family", (fid, f"F{i}"))  # incoming, referenced
            db.delete("Committee", (fid, "Curator"))
            assert db.delete("Family", (fid, f"F{i}"))  # incoming, free
        assert scanned == [] and iterated == []

    def test_checked_writes_racing_index_builds_lose_no_row(self, db):
        # Probes build indexes lazily while other threads' writes update
        # them; a row a probe's index missed would refuse a valid insert or
        # let a referenced row go.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        def write(i):
            fid, name = 100 + i, f"F{i}"
            db.insert("Family", (fid, name))
            db.insert("Committee", (fid, "Curator"))
            with pytest.raises(IntegrityError):
                db.delete("Family", (fid, name))
            db.delete("Committee", (fid, "Curator"))
            assert db.delete("Family", (fid, name))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                list(pool.map(write, range(200), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for relation in ("Family", "Committee"):
            index = db.index_on(relation, ["FID"])
            indexed = [row for key in index.keys() for row in index.get(key)]
            assert sorted(indexed) == sorted(db.relation(relation))
