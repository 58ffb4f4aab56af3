"""The :class:`Database`: a set of relation instances plus constraint checking.

The database is the object being *cited*.  It supports ordinary updates
(insert / delete), integrity enforcement (keys and foreign keys), on-demand
hash indexes and cheap content hashing, which the versioning layer
(:mod:`repro.versioning`) uses for fixity checks.
"""

from __future__ import annotations

import hashlib
import threading
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Mapping
from itertools import islice

from repro.concurrency import shared_state
from repro.errors import IntegrityError, UnknownRelationError
from repro.relational.index import HashIndex
from repro.relational.relation import Relation
from repro.relational.schema import DatabaseSchema, ForeignKey, RelationSchema

#: Signature of a mutation listener: ``(kind, relation, row)`` with ``kind``
#: one of ``"insert"`` / ``"delete"``, called after the change is applied.
MutationListener = Callable[[str, str, tuple], None]

#: One generation's change: ``(relation, row)`` for an applied insert or
#: delete, ``(relation, None)`` for out-of-band drift on that relation.
Change = tuple[str, tuple | None]

#: How many generations the change log reaches back (see
#: :meth:`Database.changes_since`).  A writer in a tight loop logs a few
#: thousand changes per thread switch, so concurrent readers can fall that
#: far behind between two refreshes; 2**16 entries cost at most a few MB.
_CHANGE_LOG_LIMIT = 65536

#: A foreign-key probe: positions in the written row, the key, positions in
#: the probed relation (see ``Database.__init__``).
_Probe = tuple[tuple[int, ...], ForeignKey, tuple[int, ...]]


@shared_state("_generation", "_changes", lock="_sync_lock")
class Database:
    """An in-memory relational database instance.

    Parameters
    ----------
    schema:
        The database schema.  Every declared relation gets an (initially
        empty) instance.
    enforce_foreign_keys:
        When ``True`` (default) inserts and deletes are checked against the
        declared foreign keys.
    """

    def __init__(self, schema: DatabaseSchema, enforce_foreign_keys: bool = True) -> None:
        self.schema = schema
        self.enforce_foreign_keys = enforce_foreign_keys
        self._relations: dict[str, Relation] = {
            rs.name: Relation(rs) for rs in schema
        }
        # By relation, then positions: a write or a drift touches one relation's.
        self._indexes: dict[str, dict[tuple[int, ...], HashIndex]] = {
            name: {} for name in self._relations
        }
        # Each relation's foreign-key probes, resolved to positions once (the
        # schema is immutable).  Outgoing ``(columns, fk, referenced)``: an
        # inserted row's values at ``columns`` must be held by some row of
        # ``fk.target`` at ``referenced``.  Incoming ``(referenced, fk,
        # columns)``: a deleted row's values at ``referenced`` must be held by
        # no row of ``fk.source`` at ``columns``.
        self._outgoing: dict[str, list[_Probe]] = {name: [] for name in self._relations}
        self._incoming: dict[str, list[_Probe]] = {name: [] for name in self._relations}
        for fk in schema.foreign_keys:
            columns = tuple(map(schema.relation(fk.source).position, fk.columns))
            referenced = tuple(map(schema.relation(fk.target).position, fk.ref_columns))
            self._outgoing[fk.source].append((columns, fk, referenced))
            self._incoming[fk.target].append((referenced, fk, columns))
        self._generation = 0
        # The change of each of the last generations, oldest first.
        self._changes: deque[Change] = deque(maxlen=_CHANGE_LOG_LIMIT)
        self._mutation_listeners: list[MutationListener] = []
        self._relation_versions: dict[str, int] = {
            name: rel.version for name, rel in self._relations.items()
        }
        # Drift detection runs on the concurrent *read* path (generation
        # reads, index probes), so drift folding, in-band writes and index
        # build/store are serialized: without the lock two readers could bump
        # the generation twice for one drift, a write racing a drift fold
        # could lose an increment, or one index store could land while
        # another thread iterates ``_indexes``.  Re-entrant because
        # index_on_positions and the writes sync while holding it.
        self._sync_lock = threading.RLock()

    # -- generations ---------------------------------------------------------
    @property
    def generation(self) -> int:
        """A counter bumped on every applied insert/delete.

        Caches derived from the database content (citation records, cited
        results, compiled citation plans) key their validity on this value: a
        cache entry stamped with an older generation is stale, or is brought
        forward by the changes :meth:`changes_since` reports.

        Reading the generation also detects *out-of-band* mutations: rows
        changed directly on a database-owned :class:`Relation` (bypassing
        :meth:`insert` / :meth:`delete`) are noticed via the relation's own
        :attr:`~repro.relational.relation.Relation.version` counter, the
        generation is bumped and the relation's indexes are dropped, so such
        changes can no longer yield silently stale index lookups or cache
        hits.
        """
        self._sync_out_of_band()
        return self._generation

    def _sync_out_of_band(self) -> None:
        """Fold mutations applied directly to owned relations into the generation."""
        # Lock-free fast path: generation is read on every request, drift is
        # the exception.  The int compares are GIL-atomic; only actual drift
        # pays for the lock.
        versions = self._relation_versions
        if all(
            versions[name] == relation.version
            for name, relation in self._relations.items()
        ):
            return
        with self._sync_lock:
            for name, relation in self._relations.items():
                if self._relation_versions[name] != relation.version:
                    self._relation_versions[name] = relation.version
                    self._log_change_locked(name, None)
                    self._drop_indexes_for(name)

    def _drop_indexes_for(self, relation: str) -> None:
        self._indexes[relation].clear()

    def _sync_relation(self, relation: str, target: Relation) -> None:
        """Fold unobserved out-of-band drift on one relation into the generation.

        Must run before an in-band mutation records the relation's new
        version, otherwise the recorded version would silently absorb drift
        that never bumped the generation or dropped the stale indexes.
        """
        if self._relation_versions[relation] == target.version:
            return
        with self._sync_lock:
            if self._relation_versions[relation] != target.version:
                self._relation_versions[relation] = target.version
                self._log_change_locked(relation, None)
                self._drop_indexes_for(relation)

    def _log_change_locked(self, relation: str, row: tuple | None) -> None:
        self._generation += 1
        self._changes.append((relation, row))

    def changes_since(self, generation: int) -> tuple[int, list[Change]] | None:
        """The current generation and the changes after *generation*, oldest
        first: one :data:`Change` per generation.

        ``None`` when the log no longer reaches back to *generation* (it
        keeps the last ``_CHANGE_LOG_LIMIT``), or *generation* is not one of
        this database's past generations.
        """
        with self._sync_lock:
            self._sync_out_of_band()
            behind = self._generation - generation
            if not 0 <= behind <= len(self._changes):
                return None
            return self._generation, list(islice(self._changes, len(self._changes) - behind, None))

    def add_mutation_listener(self, listener: MutationListener) -> None:
        """Register a callback invoked after every applied insert/delete."""
        self._mutation_listeners.append(listener)

    def remove_mutation_listener(self, listener: MutationListener) -> None:
        """Unregister a previously added mutation listener (no-op if absent)."""
        try:
            self._mutation_listeners.remove(listener)
        except ValueError:
            pass

    def _notify_mutation(self, kind: str, relation: str, row: tuple) -> None:
        for listener in self._mutation_listeners:
            listener(kind, relation, row)

    # -- relation access ---------------------------------------------------
    def relation(self, name: str) -> Relation:
        """Return the relation instance named *name*."""
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def relation_schema(self, name: str) -> RelationSchema:
        """Return the schema of relation *name*."""
        return self.schema.relation(name)

    def relations(self) -> Iterator[Relation]:
        """Iterate over all relation instances."""
        return iter(self._relations.values())

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    # -- updates -------------------------------------------------------------
    def insert(self, relation: str, row: tuple | Mapping[str, object]) -> bool:
        """Insert *row* into *relation*; return ``True`` when the DB changed."""
        target = self.relation(relation)
        if isinstance(row, Mapping):
            row = target.schema.row_from_mapping(row)
        else:
            row = target.schema.validate_row(row)
        if self.enforce_foreign_keys:
            self._check_foreign_keys_on_insert(relation, row)
        with self._sync_lock:
            self._sync_relation(relation, target)
            changed = target._insert_valid(row)
            if changed:
                self._relation_versions[relation] = target.version
                self._update_indexes_on_insert(relation, row)
                self._log_change_locked(relation, row)
        if changed:
            self._notify_mutation("insert", relation, row)
        return changed

    def insert_many(self, relation: str, rows: Iterable[tuple | Mapping[str, object]]) -> int:
        """Insert many rows; return the number of rows actually added."""
        return sum(1 for row in rows if self.insert(relation, row))

    def delete(self, relation: str, row: tuple) -> bool:
        """Delete *row* from *relation*; return ``True`` when it was present."""
        target = self.relation(relation)
        row = tuple(row)
        if self.enforce_foreign_keys and row in target:
            self._check_foreign_keys_on_delete(relation, row)
        with self._sync_lock:
            self._sync_relation(relation, target)
            changed = target.delete(row)
            if changed:
                self._relation_versions[relation] = target.version
                self._update_indexes_on_delete(relation, row)
                self._log_change_locked(relation, row)
        if changed:
            self._notify_mutation("delete", relation, row)
        return changed

    # -- constraints ----------------------------------------------------------
    def _holds(self, relation: str, positions: tuple[int, ...], values: tuple) -> bool:
        """Whether some row of *relation* holds *values* at *positions*: one
        probe of the relation's hash index on those positions."""
        return bool(self.index_on_positions(relation, positions).get(values))

    def _check_foreign_keys_on_insert(self, relation: str, row: tuple) -> None:
        for columns, fk, referenced in self._outgoing[relation]:
            values = tuple([row[i] for i in columns])
            if any(v is None for v in values):
                continue
            if not self._holds(fk.target, referenced, values):
                raise IntegrityError(
                    f"foreign key violation: {relation}{fk.columns}={values!r} "
                    f"has no match in {fk.target}{fk.ref_columns}"
                )

    def _check_foreign_keys_on_delete(self, relation: str, row: tuple) -> None:
        for referenced, fk, columns in self._incoming[relation]:
            if self._holds(fk.source, columns, tuple([row[i] for i in referenced])):
                raise IntegrityError(
                    f"foreign key violation: cannot delete {row!r} from {relation}; "
                    f"still referenced by {fk.source}{fk.columns}"
                )

    def validate(self) -> list[str]:
        """Check all constraints over the full instance; return violation messages."""
        problems: list[str] = []
        for source, probes in self._outgoing.items():
            for columns, fk, referenced in probes:
                available = self._relations[fk.target].project_positions(referenced)
                for row in self._relations[source]:
                    values = tuple(row[i] for i in columns)
                    if any(v is None for v in values):
                        continue
                    if values not in available:
                        problems.append(
                            f"{fk.source}{fk.columns}={values!r} missing from "
                            f"{fk.target}{fk.ref_columns}"
                        )
        return problems

    # -- indexes ----------------------------------------------------------------
    def index_on(self, relation: str, attributes: Iterable[str]) -> HashIndex:
        """Return (building if necessary) a hash index on *attributes* of *relation*."""
        schema = self.relation_schema(relation)
        positions = tuple(schema.position(a) for a in attributes)
        return self.index_on_positions(relation, positions)

    def index_on_positions(self, relation: str, positions: Iterable[int]) -> HashIndex:
        """Return (building if necessary) a hash index on column *positions*.

        Out-of-band drift on *relation* is folded in first, which drops its
        stale indexes, so the index returned holds the relation's rows.
        """
        target = self.relation(relation)
        key = tuple(positions)
        # Build and store under the sync lock so a store never lands while a
        # concurrent writer iterates the relation's indexes.
        with self._sync_lock:
            self._sync_relation(relation, target)
            indexes = self._indexes[relation]
            index = indexes.get(key)
            if index is None:
                index = indexes[key] = HashIndex(target, key)
        return index

    def _update_indexes_on_insert(self, relation: str, row: tuple) -> None:
        for index in self._indexes[relation].values():
            index.add(row)

    def _update_indexes_on_delete(self, relation: str, row: tuple) -> None:
        for index in self._indexes[relation].values():
            index.remove(row)

    # -- inspection ---------------------------------------------------------------
    def total_rows(self) -> int:
        """Total number of rows across all relations."""
        return sum(len(r) for r in self._relations.values())

    def sizes(self) -> dict[str, int]:
        """Per-relation row counts."""
        return {name: len(rel) for name, rel in self._relations.items()}

    def content_hash(self) -> str:
        """A deterministic SHA-256 hash of the full database content.

        Used by the fixity layer to detect whether cited data has changed.
        """
        digest = hashlib.sha256()
        for name in sorted(self._relations):
            digest.update(name.encode("utf-8"))
            for row in self._relations[name].sorted_rows():
                digest.update(repr(row).encode("utf-8"))
        return digest.hexdigest()

    def copy(self) -> "Database":
        """Return an independent copy sharing the (immutable) schema."""
        clone = Database(self.schema, enforce_foreign_keys=False)
        for name, rel in self._relations.items():
            clone._relations[name] = rel.copy()
        clone._relation_versions = {
            name: rel.version for name, rel in clone._relations.items()
        }
        clone.enforce_foreign_keys = self.enforce_foreign_keys
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self.schema == other.schema and self._relations == other._relations

    def __repr__(self) -> str:
        sizes = ", ".join(f"{n}={len(r)}" for n, r in self._relations.items())
        return f"Database({sizes})"
