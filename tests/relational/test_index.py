"""Tests for the hash index."""

import random

import pytest

from repro.relational.database import Database
from repro.relational.index import HashIndex
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, DatabaseSchema, RelationSchema


def make_relation():
    schema = RelationSchema("R", [Attribute("a", int), Attribute("b", str)])
    return Relation(schema, [(1, "x"), (2, "x"), (3, "y")])


class TestHashIndex:
    def test_lookup_groups_rows_by_key(self):
        index = HashIndex(make_relation(), positions=[1])
        assert sorted(index.lookup(("x",))) == [(1, "x"), (2, "x")]
        assert list(index.lookup(("z",))) == []

    def test_composite_key(self):
        index = HashIndex(make_relation(), positions=[0, 1])
        assert list(index.lookup((3, "y"))) == [(3, "y")]

    def test_add_and_remove(self):
        relation = make_relation()
        index = HashIndex(relation, positions=[1])
        index.add((4, "y"))
        assert sorted(index.lookup(("y",))) == [(3, "y"), (4, "y")]
        index.remove((3, "y"))
        assert list(index.lookup(("y",))) == [(4, "y")]
        assert len(index) == 3

    def test_remove_missing_row_is_noop(self):
        index = HashIndex(make_relation(), positions=[0])
        index.remove((99, "zz"))
        assert len(index) == 3

    def test_keys_enumerates_distinct_keys(self):
        index = HashIndex(make_relation(), positions=[1])
        assert set(index.keys()) == {("x",), ("y",)}


@pytest.mark.parametrize("positions", [(), (1,), (2, 0, 3)])
def test_index_groups_rows_as_the_relation_does_through_writes(positions):
    """An index on 0, 1 or 3 positions, maintained by a database through
    inserts and deletes, holds exactly the relation's rows grouped by their
    projection onto those positions."""
    schema = RelationSchema(
        "R", [Attribute("a", int), Attribute("b", str), Attribute("c", int), Attribute("d", str)]
    )
    database = Database(DatabaseSchema([schema]))
    rng = random.Random(len(positions))
    rows = [(i, rng.choice("xyz"), rng.randrange(3), rng.choice("pq")) for i in range(40)]
    database.insert_many("R", rows[:20])
    index = database.index_on_positions("R", positions)
    for step, row in enumerate(rows[20:]):
        database.insert("R", row)
        database.delete("R", rows[2 * step])
        grouped: dict[tuple, set[tuple]] = {}
        for kept in database.relation("R"):
            grouped.setdefault(tuple(kept[p] for p in positions), set()).add(kept)
        assert {key: set(index.get(key)) for key in index.keys()} == grouped
        assert len(index) == len(database.relation("R"))
