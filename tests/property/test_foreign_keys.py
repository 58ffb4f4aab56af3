"""Property: foreign-key checks that probe hash indexes decide every write as
a scan of the referenced (or referencing) relation would.

``Database.insert`` and ``Database.delete`` check foreign keys by probing the
database's own hash indexes, which are built lazily, maintained on every
write and dropped on out-of-band drift.  The schema holds the four shapes a
probe must get right:

* ``C(pid) -> P(id)``: one column, to a key;
* ``C(a, b) -> P(tag, id)``: composite, its referenced columns listed out of
  positional order (``tag`` is P's third column, ``id`` its first);
* ``C(code) -> P(code)``: to a non-key column;
* ``C(parent) -> C(cid)``: self-referencing.

Each example draws a sequence of steps: inserts (random rows and rows built
to reference existing ones), deletes (random rows and existing ones, among
them rows that others reference), out-of-band drift straight on a
:class:`~repro.relational.relation.Relation`, and toggles of
``enforce_foreign_keys``.  Rows may hold ``None`` in foreign-key columns.
The oracle keeps plain row sets and checks each foreign key by scanning, as
the database did before its checks probed indexes.  The contract: every
step's outcome (applied, no-op or ``IntegrityError``) and the final state
equal the oracle's, and after every step ``Database.validate`` reports as
many dangling references as the oracle finds (writes with checks off and
drift leave some).
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.errors import IntegrityError
from repro.relational.database import Database
from repro.relational.schema import Attribute, DatabaseSchema, ForeignKey, RelationSchema

SCHEMA = DatabaseSchema(
    [
        RelationSchema(
            "P", [Attribute("id", int), Attribute("code", int), Attribute("tag", int)],
            key=["id"],
        ),
        RelationSchema(
            "C",
            [
                Attribute("cid", int),
                Attribute("pid", int),
                Attribute("a", int),
                Attribute("b", int),
                Attribute("code", int),
                Attribute("parent", int),
            ],
            key=["cid"],
        ),
    ],
    foreign_keys=[
        ForeignKey("C", ("pid",), "P", ("id",)),
        ForeignKey("C", ("a", "b"), "P", ("tag", "id")),
        ForeignKey("C", ("code",), "P", ("code",)),
        ForeignKey("C", ("parent",), "C", ("cid",)),
    ],
)

#: Foreign keys as positions: (source, columns, target, referenced).
KEYS = [
    (
        fk.source,
        tuple(SCHEMA.relation(fk.source).position(c) for c in fk.columns),
        fk.target,
        tuple(SCHEMA.relation(fk.target).position(c) for c in fk.ref_columns),
    )
    for fk in SCHEMA.foreign_keys
]

APPLIED, NO_OP, REFUSED = "applied", "no-op", "IntegrityError"


class ScanOracle:
    """Plain row sets; foreign keys checked by scanning the other relation."""

    def __init__(self) -> None:
        self.rows: dict[str, set[tuple]] = {"P": set(), "C": set()}
        self.enforce = True

    def _held(self, relation: str, positions: tuple[int, ...], values: tuple) -> bool:
        return any(
            all(row[p] == v for p, v in zip(positions, values))
            for row in self.rows[relation]
        )

    def _store(self, relation: str, row: tuple) -> str:
        rows = self.rows[relation]
        if row in rows:
            return NO_OP
        if any(other[0] == row[0] for other in rows):  # both keyed by column 0
            return REFUSED
        rows.add(row)
        return APPLIED

    def insert(self, relation: str, row: tuple) -> str:
        if self.enforce:
            for source, columns, target, referenced in KEYS:
                if source != relation:
                    continue
                values = tuple(row[i] for i in columns)
                if any(v is None for v in values):
                    continue
                if not self._held(target, referenced, values):
                    return REFUSED
        return self._store(relation, row)

    def delete(self, relation: str, row: tuple) -> str:
        if row not in self.rows[relation]:
            return NO_OP
        if self.enforce:
            for source, columns, target, referenced in KEYS:
                if target == relation and self._held(
                    source, columns, tuple(row[i] for i in referenced)
                ):
                    return REFUSED
        self.rows[relation].remove(row)
        return APPLIED

    def dangling(self) -> int:
        """How many (foreign key, row) pairs reference nothing."""
        return sum(
            not self._held(target, referenced, values)
            for source, columns, target, referenced in KEYS
            for values in (tuple(row[i] for i in columns) for row in self.rows[source])
            if not any(v is None for v in values)
        )

    def drift_insert(self, relation: str, row: tuple) -> str:
        return self._store(relation, row)

    def drift_delete(self, relation: str, row: tuple) -> str:
        if row not in self.rows[relation]:
            return NO_OP
        self.rows[relation].remove(row)
        return APPLIED


def outcome(write, *args) -> str:
    try:
        return APPLIED if write(*args) else NO_OP
    except IntegrityError:
        return REFUSED


VALUES = st.integers(0, 4)
FK_VALUES = st.one_of(st.none(), VALUES)


def random_row(relation: str) -> st.SearchStrategy[tuple]:
    if relation == "P":
        return st.tuples(VALUES, FK_VALUES, FK_VALUES)
    return st.tuples(VALUES, FK_VALUES, FK_VALUES, FK_VALUES, FK_VALUES, FK_VALUES)


def referencing_row(data, oracle: ScanOracle) -> tuple:
    """A ``C`` row whose foreign keys point at existing rows where it can."""
    parents = sorted(oracle.rows["P"], key=repr)
    children = sorted(oracle.rows["C"], key=repr)
    parent = data.draw(st.sampled_from(parents)) if parents else (None, None, None)
    code_from = data.draw(st.sampled_from(parents)) if parents else (None, None, None)
    parent_cid = data.draw(st.sampled_from(children))[0] if children else None
    return (
        data.draw(VALUES),
        parent[0],
        parent[2],  # a -> P.tag
        parent[0],  # b -> P.id
        code_from[1],
        parent_cid,
    )


STEPS = [
    "insert",
    "insert_referencing",
    "delete",
    "delete_existing",
    "drift_insert",
    "drift_delete_existing",
    "toggle",
]


@given(st.data())
def test_probed_writes_match_a_scanning_oracle(data):
    database = Database(SCHEMA)
    oracle = ScanOracle()
    for _ in range(data.draw(st.integers(1, 40), label="steps")):
        kind = data.draw(st.sampled_from(STEPS))
        if kind == "toggle":
            database.enforce_foreign_keys = oracle.enforce = not oracle.enforce
            continue
        relation = data.draw(st.sampled_from(["P", "C"]))
        existing = sorted(oracle.rows[relation], key=repr)
        if kind == "insert_referencing":
            relation, row = "C", referencing_row(data, oracle)
        elif kind in ("delete_existing", "drift_delete_existing") and existing:
            row = data.draw(st.sampled_from(existing))
        else:
            row = data.draw(random_row(relation))
        if kind == "drift_insert":
            got = outcome(database.relation(relation).insert, row)
            expected = oracle.drift_insert(relation, row)
        elif kind == "drift_delete_existing":
            got = outcome(database.relation(relation).delete, row)
            expected = oracle.drift_delete(relation, row)
        elif kind.startswith("insert"):
            got = outcome(database.insert, relation, row)
            expected = oracle.insert(relation, row)
        else:
            got = outcome(database.delete, relation, row)
            expected = oracle.delete(relation, row)
        # One assertion site: Hypothesis shrinks each distinct failure apart.
        dangling = len(database.validate())
        assert (got, dangling) == (expected, oracle.dangling()), (kind, relation, row)
    assert {name: set(database.relation(name)) for name in ("P", "C")} == oracle.rows
