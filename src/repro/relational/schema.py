"""Relational schemas: attributes, relation schemas, keys and foreign keys.

A schema in this library is a plain immutable description; all enforcement
happens in :class:`repro.relational.database.Database` at update time.  The
paper's running example uses the GtoPdb fragment::

    Family(FID, FName, Desc)          key: FID
    Committee(FID, PName)             key: (FID, PName)
    FamilyIntro(FID, Text)            key: FID

which is expressed with these classes in ``repro.workloads.gtopdb``.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Mapping

from repro.errors import ArityError, SchemaError, UnknownRelationError

#: Types a column may declare.  ``object`` means "anything hashable".
SUPPORTED_TYPES = (str, int, float, bool, object)


@dataclass(frozen=True)
class Attribute:
    """A named, typed column of a relation.

    Parameters
    ----------
    name:
        Attribute name; must be a non-empty identifier.
    dtype:
        Expected Python type of values in this column.  ``object`` disables
        type checking for the column.
    """

    name: str
    dtype: type = str

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError(f"attribute name must be a non-empty string, got {self.name!r}")
        if self.dtype not in SUPPORTED_TYPES:
            raise SchemaError(
                f"unsupported attribute type {self.dtype!r}; "
                f"expected one of {[t.__name__ for t in SUPPORTED_TYPES]}"
            )

    def accepts(self, value: object) -> bool:
        """Return ``True`` when *value* is acceptable for this attribute."""
        if value is None:
            return True
        if self.dtype is object:
            return True
        if self.dtype is float and isinstance(value, int) and not isinstance(value, bool):
            return True
        if self.dtype in (int, float) and isinstance(value, bool):
            return False
        return isinstance(value, self.dtype)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}:{self.dtype.__name__}"


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key constraint ``source(columns) -> target(ref_columns)``."""

    source: str
    columns: tuple[str, ...]
    target: str
    ref_columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.ref_columns):
            raise SchemaError(
                f"foreign key {self.source}->{self.target}: column counts differ "
                f"({len(self.columns)} vs {len(self.ref_columns)})"
            )
        if not self.columns:
            raise SchemaError("foreign key must reference at least one column")


class RelationSchema:
    """Schema of a single relation: name, ordered attributes and optional key.

    Instances are immutable and hashable, so they can be shared between a
    database and the many versions produced by :mod:`repro.versioning`.
    """

    __slots__ = ("name", "attributes", "key", "_positions", "_key_positions")

    def __init__(
        self,
        name: str,
        attributes: Iterable[Attribute | str],
        key: Iterable[str] | None = None,
    ) -> None:
        if not name or not isinstance(name, str):
            raise SchemaError(f"relation name must be a non-empty string, got {name!r}")
        attrs = tuple(
            a if isinstance(a, Attribute) else Attribute(a) for a in attributes
        )
        if not attrs:
            raise SchemaError(f"relation {name!r} must have at least one attribute")
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            raise SchemaError(f"relation {name!r} has duplicate attribute names: {names}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attributes", attrs)
        positions = {a.name: i for i, a in enumerate(attrs)}
        object.__setattr__(self, "_positions", positions)
        if key is not None:
            key_tuple = tuple(key)
            for column in key_tuple:
                if column not in positions:
                    raise SchemaError(
                        f"key column {column!r} is not an attribute of relation {name!r}"
                    )
        else:
            key_tuple = None
        object.__setattr__(self, "key", key_tuple)
        object.__setattr__(
            self,
            "_key_positions",
            None if key_tuple is None else tuple(positions[c] for c in key_tuple),
        )

    def __setattr__(self, *_args: object) -> None:  # pragma: no cover - immutability guard
        raise AttributeError("RelationSchema is immutable")

    # -- introspection ---------------------------------------------------
    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self.attributes)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Attribute names in declaration order."""
        return tuple(a.name for a in self.attributes)

    def position(self, attribute: str) -> int:
        """Return the 0-based position of *attribute*.

        Raises :class:`SchemaError` when the attribute does not exist.
        """
        try:
            return self._positions[attribute]
        except KeyError:
            raise SchemaError(
                f"relation {self.name!r} has no attribute {attribute!r}; "
                f"attributes are {list(self.attribute_names)}"
            ) from None

    def has_attribute(self, attribute: str) -> bool:
        """Return ``True`` when *attribute* is a column of this relation."""
        return attribute in self._positions

    def key_positions(self) -> tuple[int, ...] | None:
        """Positions of the key columns, or ``None`` when no key is declared."""
        return self._key_positions

    # -- validation ------------------------------------------------------
    def validate_row(self, row: tuple) -> tuple:
        """Validate a row against this schema and return it as a plain tuple."""
        row = tuple(row)
        if len(row) != self.arity:
            raise ArityError(self.name, self.arity, len(row))
        for attribute, value in zip(self.attributes, row):
            if not attribute.accepts(value):
                raise SchemaError(
                    f"value {value!r} is not valid for attribute "
                    f"{self.name}.{attribute.name} (expected {attribute.dtype.__name__})"
                )
        return row

    def row_from_mapping(self, mapping: Mapping[str, object]) -> tuple:
        """Build a positional row from an attribute-name -> value mapping."""
        missing = [a.name for a in self.attributes if a.name not in mapping]
        if missing:
            raise SchemaError(f"missing attributes for {self.name!r}: {missing}")
        return self.validate_row(tuple(mapping[a.name] for a in self.attributes))

    def row_to_mapping(self, row: tuple) -> dict[str, object]:
        """Convert a positional row to an attribute-name -> value dict."""
        row = self.validate_row(row)
        return dict(zip(self.attribute_names, row))

    def key_of(self, row: tuple) -> tuple | None:
        """Project *row* onto the key columns (``None`` when keyless)."""
        positions = self._key_positions
        if positions is None:
            return None
        return tuple(row[i] for i in positions)

    # -- dunder ----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationSchema):
            return NotImplemented
        return (
            self.name == other.name
            and self.attributes == other.attributes
            and self.key == other.key
        )

    def __hash__(self) -> int:
        return hash((self.name, self.attributes, self.key))

    def __repr__(self) -> str:
        cols = ", ".join(str(a) for a in self.attributes)
        key = f" key={list(self.key)}" if self.key else ""
        return f"RelationSchema({self.name}({cols}){key})"


class DatabaseSchema:
    """A collection of relation schemas plus foreign-key constraints."""

    def __init__(
        self,
        relations: Iterable[RelationSchema],
        foreign_keys: Iterable[ForeignKey] = (),
    ) -> None:
        self._relations: dict[str, RelationSchema] = {}
        for schema in relations:
            if schema.name in self._relations:
                raise SchemaError(f"duplicate relation name {schema.name!r} in database schema")
            self._relations[schema.name] = schema
        self._foreign_keys: tuple[ForeignKey, ...] = tuple(foreign_keys)
        for fk in self._foreign_keys:
            self._validate_foreign_key(fk)

    def _validate_foreign_key(self, fk: ForeignKey) -> None:
        if fk.source not in self._relations:
            raise UnknownRelationError(fk.source)
        if fk.target not in self._relations:
            raise UnknownRelationError(fk.target)
        source = self._relations[fk.source]
        target = self._relations[fk.target]
        for column in fk.columns:
            source.position(column)
        for column in fk.ref_columns:
            target.position(column)

    # -- introspection ---------------------------------------------------
    @property
    def relation_names(self) -> tuple[str, ...]:
        """Relation names in declaration order."""
        return tuple(self._relations)

    @property
    def foreign_keys(self) -> tuple[ForeignKey, ...]:
        """Declared foreign keys."""
        return self._foreign_keys

    def relation(self, name: str) -> RelationSchema:
        """Return the schema of relation *name* (raises when unknown)."""
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def has_relation(self, name: str) -> bool:
        """Return ``True`` when relation *name* is declared."""
        return name in self._relations

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseSchema):
            return NotImplemented
        return (
            self._relations == other._relations
            and set(self._foreign_keys) == set(other._foreign_keys)
        )

    def __repr__(self) -> str:
        return f"DatabaseSchema({', '.join(self.relation_names)})"

    # -- derivation ------------------------------------------------------
    def extend(
        self,
        relations: Iterable[RelationSchema] = (),
        foreign_keys: Iterable[ForeignKey] = (),
    ) -> "DatabaseSchema":
        """Return a new schema with additional relations / foreign keys."""
        return DatabaseSchema(
            list(self._relations.values()) + list(relations),
            list(self._foreign_keys) + list(foreign_keys),
        )
