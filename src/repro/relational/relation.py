"""Relation instances with set semantics.

A :class:`Relation` couples a :class:`~repro.relational.schema.RelationSchema`
with a set of rows.  Rows are plain Python tuples; duplicate rows are merged
(set semantics), matching the conjunctive-query model of the paper.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping

from repro.errors import IntegrityError
from repro.relational.schema import RelationSchema


class Relation:
    """A named set of tuples conforming to a :class:`RelationSchema`."""

    __slots__ = ("schema", "_rows", "_key_index", "_version")

    def __init__(self, schema: RelationSchema, rows: Iterable[tuple] = ()) -> None:
        self.schema = schema
        self._rows: set[tuple] = set()
        self._key_index: dict[tuple, tuple] | None = (
            {} if schema.key is not None else None
        )
        self._version = 0
        for row in rows:
            self.insert(row)

    @classmethod
    def of_valid_rows(cls, schema: RelationSchema, rows: set[tuple]) -> "Relation":
        """A relation over *rows*, a set it takes over, without validating
        them: for rows that already conform to *schema* and its key, such
        as another relation's rows or a join's answers."""
        relation = cls.__new__(cls)
        relation.schema = schema
        relation._rows = rows
        positions = schema.key_positions()
        relation._key_index = (
            None
            if positions is None
            else {tuple([row[i] for i in positions]): row for row in relation._rows}
        )
        relation._version = 0
        return relation

    @property
    def version(self) -> int:
        """A counter bumped on every applied mutation of this instance.

        Index structures built over the relation (:class:`HashIndex` via
        :class:`~repro.relational.index.IndexManager`) and the owning
        :class:`~repro.relational.database.Database` compare this counter
        against the value recorded at build time to detect staleness —
        including mutations applied directly to the relation, bypassing the
        database's update path.
        """
        return self._version

    # -- basic mutation ---------------------------------------------------
    def insert(self, row: tuple | Mapping[str, object]) -> bool:
        """Insert *row*; return ``True`` when the relation changed.

        Rows may be given positionally or as attribute-name mappings.  A key
        violation (same key, different row) raises :class:`IntegrityError`.
        """
        if isinstance(row, Mapping):
            row = self.schema.row_from_mapping(row)
        else:
            row = self.schema.validate_row(row)
        return self._insert_valid(row)

    def _insert_valid(self, row: tuple) -> bool:
        """The second half of :meth:`insert`, for a *row* its caller has
        already validated against :attr:`schema`, under the same contract as
        :meth:`of_valid_rows`."""
        if row in self._rows:
            return False
        if self._key_index is not None:
            key = self.schema.key_of(row)
            existing = self._key_index.get(key)
            if existing is not None and existing != row:
                raise IntegrityError(
                    f"key violation in {self.schema.name!r}: key {key!r} already maps to "
                    f"{existing!r}, cannot insert {row!r}"
                )
            self._key_index[key] = row
        self._rows.add(row)
        self._version += 1
        return True

    def insert_many(self, rows: Iterable[tuple | Mapping[str, object]]) -> int:
        """Insert many rows; return the number of rows actually added."""
        return sum(1 for row in rows if self.insert(row))

    def delete(self, row: tuple) -> bool:
        """Delete *row*; return ``True`` when it was present."""
        row = tuple(row)
        if row not in self._rows:
            return False
        self._rows.discard(row)
        if self._key_index is not None:
            self._key_index.pop(self.schema.key_of(row), None)
        self._version += 1
        return True

    def delete_where(self, predicate: Callable[[tuple], bool]) -> int:
        """Delete all rows satisfying *predicate*; return how many were removed."""
        doomed = [row for row in self._rows if predicate(row)]
        for row in doomed:
            self.delete(row)
        return len(doomed)

    def clear(self) -> None:
        """Remove all rows."""
        if self._rows:
            self._version += 1
        self._rows.clear()
        if self._key_index is not None:
            self._key_index.clear()

    # -- lookup -----------------------------------------------------------
    def lookup_key(self, key: tuple) -> tuple | None:
        """Return the row with primary key *key*, or ``None``.

        Only available when the schema declares a key.
        """
        if self._key_index is None:
            raise IntegrityError(
                f"relation {self.schema.name!r} has no declared key; lookup_key unavailable"
            )
        return self._key_index.get(tuple(key))

    def select(self, predicate: Callable[[tuple], bool]) -> "Relation":
        """Return a new relation containing the rows satisfying *predicate*."""
        return Relation(self.schema, (row for row in self._rows if predicate(row)))

    def rows_matching(self, bound: Mapping[int, object]) -> Iterator[tuple]:
        """Yield rows whose value at each position in *bound* equals the given value."""
        items = tuple(bound.items())
        for row in self._rows:
            if all(row[pos] == value for pos, value in items):
                yield row

    def project_positions(self, positions: Iterable[int]) -> set[tuple]:
        """Return the set of projections of every row onto *positions*."""
        positions = tuple(positions)
        return {tuple(row[i] for i in positions) for row in self._rows}

    def column(self, attribute: str) -> set[object]:
        """Return the set of values in column *attribute*."""
        pos = self.schema.position(attribute)
        return {row[pos] for row in self._rows}

    # -- views of the data --------------------------------------------------
    @property
    def rows(self) -> frozenset[tuple]:
        """The rows as an immutable frozenset snapshot."""
        return frozenset(self._rows)

    def sorted_rows(self) -> list[tuple]:
        """Rows sorted deterministically (by their repr when not comparable)."""
        try:
            return sorted(self._rows)
        except TypeError:
            return sorted(self._rows, key=repr)

    def as_dicts(self) -> list[dict[str, object]]:
        """Return the rows as attribute-name dictionaries (sorted order)."""
        return [self.schema.row_to_mapping(row) for row in self.sorted_rows()]

    def copy(self) -> "Relation":
        """Return a deep-enough copy (rows are immutable tuples)."""
        return Relation.of_valid_rows(self.schema, set(self._rows))

    # -- dunder -------------------------------------------------------------
    def __contains__(self, row: object) -> bool:
        return tuple(row) in self._rows if isinstance(row, (tuple, list)) else False

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.schema == other.schema and self._rows == other._rows

    def __repr__(self) -> str:
        return f"Relation({self.schema.name}, {len(self._rows)} rows)"
