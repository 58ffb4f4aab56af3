"""Hash indexes over relation columns.

Indexes accelerate the join evaluation in :mod:`repro.query.evaluator`, the
foreign-key probes of :mod:`repro.relational.database` and the parameterised
citation-query lookups in :mod:`repro.core.engine`.  They are built on
demand: :class:`HashIndex` is the structure itself (owned either by a
:class:`~repro.relational.database.Database`, which maintains it
incrementally, or by an :class:`IndexManager`), and :class:`IndexManager`
extends on-demand indexing to relations *outside* a database — the
``extra_relations`` handed to a query evaluator, such as the incremental
maintainer's delta relations — with staleness detection via
:attr:`Relation.version`.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.relational.relation import Relation

if TYPE_CHECKING:  # runtime import would cycle: database.py imports this module
    from repro.relational.database import Database


def _key_getter(positions: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """The projection of a row onto *positions*, as a tuple."""
    if len(positions) == 1:
        (position,) = positions
        return lambda row: (row[position],)
    if positions:
        return itemgetter(*positions)
    return lambda row: ()


class HashIndex:
    """A hash index mapping a projection of a row to the rows sharing it.

    The projection is a getter fixed at construction: every write to an
    indexed relation computes one key per index.
    """

    __slots__ = ("relation_name", "positions", "_key", "_buckets", "_size")

    def __init__(self, relation: Relation, positions: Iterable[int]) -> None:
        self.relation_name = relation.schema.name
        self.positions = tuple(positions)
        self._key = _key_getter(self.positions)
        self._buckets: dict[tuple, list[tuple]] = defaultdict(list)
        self._size = 0
        for row in relation:
            self.add(row)

    def add(self, row: tuple) -> None:
        """Index *row*."""
        self._buckets[self._key(row)].append(row)
        self._size += 1

    def remove(self, row: tuple) -> None:
        """Remove *row* from the index (no-op when absent)."""
        key = self._key(row)
        bucket = self._buckets.get(key)
        if not bucket:
            return
        try:
            bucket.remove(row)
            self._size -= 1
        except ValueError:
            return
        if not bucket:
            del self._buckets[key]

    def lookup(self, key: tuple) -> Iterator[tuple]:
        """Yield all indexed rows whose projection equals *key*."""
        yield from self._buckets.get(tuple(key), ())

    def get(self, key: tuple, default: list[tuple] | tuple = ()) -> list[tuple] | tuple:
        """The rows whose projection equals *key* (*default* when absent).

        Like :meth:`lookup` but returns the bucket itself instead of a
        generator — the join hot path iterates it directly.  Callers must not
        mutate the returned list.  The optional *default* mirrors
        ``dict.get``.
        """
        return self._buckets.get(key, default)

    def keys(self) -> Iterator[tuple]:
        """Yield the distinct keys present in the index."""
        return iter(self._buckets)

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return (
            f"HashIndex({self.relation_name}, positions={list(self.positions)}, "
            f"{len(self._buckets)} keys)"
        )


class IndexManager:
    """On-demand hash indexes over database relations *and* free relations.

    The query evaluator probes relations through this manager.  Probes into
    relations owned by *database* delegate to
    :meth:`~repro.relational.database.Database.index_on_positions`, whose
    indexes are maintained incrementally on insert/delete.  Probes into any
    other relation (``extra_relations``) build an index
    here, stamped with the relation's identity and
    :attr:`~repro.relational.relation.Relation.version`; a later probe that
    finds a different relation object under the same name or a bumped
    version rebuilds the index, so lookups never serve stale rows.

    Entry replacement is a single dict store, so two racing builders simply
    produce equivalent indexes.  Mutations must not race in-flight queries
    — the usual reader/writer discipline of the in-memory store.
    """

    def __init__(self, database: "Database | None" = None) -> None:
        self.database = database
        self._extra: dict[tuple[str, tuple[int, ...]], tuple[HashIndex, Relation, int]] = {}

    def index_for(
        self, name: str, relation: Relation, positions: Iterable[int]
    ) -> HashIndex:
        """Return a current index on *positions* of *relation* (building it if needed)."""
        positions = tuple(positions)
        database = self.database
        if (
            database is not None
            and name in database
            and database.relation(name) is relation
        ):
            return database.index_on_positions(name, positions)
        entry = self._extra.get((name, positions))
        if entry is not None:
            index, indexed, version = entry
            if indexed is relation and version == relation.version:
                return index
        index = HashIndex(relation, positions)
        self._extra[(name, positions)] = (index, relation, relation.version)
        return index

    def __len__(self) -> int:
        return len(self._extra)
