"""Citation records: the concrete "snippets of information" a citation carries.

A :class:`CitationRecord` is an immutable mapping from field names (authors,
title, identifier, version, ...) to values.  The output of a citation function
is a record; policies combine sets of records (:data:`CitationSet`).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from repro.errors import CitationError

#: A set of citation records — the value citation expressions evaluate to.
CitationSet = frozenset


def _freeze_value(value: object) -> object:
    """Make a field value hashable (lists/sets become sorted tuples)."""
    if isinstance(value, (list, set, frozenset)):
        try:
            return tuple(sorted(value))
        except TypeError:
            return tuple(sorted(value, key=repr))
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze_value(v)) for k, v in value.items()))
    if isinstance(value, tuple):
        return tuple(_freeze_value(v) for v in value)
    return value


class CitationRecord(Mapping[str, object]):
    """An immutable, hashable mapping of citation fields to values.

    Well-known fields used by the formatters: ``title``, ``authors`` (tuple of
    names), ``contributors``, ``year``, ``publisher``, ``source``, ``url``,
    ``identifier``, ``version``, ``timestamp``, ``query``, ``parameters``.
    Arbitrary additional fields are allowed and preserved.
    """

    __slots__ = ("_fields", "_hash", "_size")

    def __init__(self, fields: Mapping[str, object] | Iterable[tuple[str, object]] = ()) -> None:
        items = dict(fields)
        frozen = {}
        for key, value in items.items():
            if not isinstance(key, str) or not key:
                raise CitationError(f"citation field names must be non-empty strings, got {key!r}")
            frozen[key] = _freeze_value(value)
        self._fields: dict[str, object] = frozen
        self._hash: int | None = None
        self._size: int | None = None

    # -- mapping protocol ----------------------------------------------------
    def __getitem__(self, key: str) -> object:
        return self._fields[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    # -- manipulation -----------------------------------------------------------
    def with_fields(self, **updates: object) -> "CitationRecord":
        """Return a copy with the given fields added or replaced."""
        merged = dict(self._fields)
        merged.update(updates)
        return CitationRecord(merged)

    def without_fields(self, *names: str) -> "CitationRecord":
        """Return a copy with the given fields removed (missing names ignored)."""
        return CitationRecord({k: v for k, v in self._fields.items() if k not in names})

    def merge(self, other: "CitationRecord") -> "CitationRecord":
        """Merge two records field-wise (the "join" combination of the paper).

        Fields present in only one record are kept; fields present in both
        are combined into a tuple of the distinct values (order-stable).
        """
        merged: dict[str, object] = dict(self._fields)
        for key, value in other._fields.items():
            if key not in merged or merged[key] == value:
                merged[key] = value
                continue
            existing = merged[key]
            existing_values = list(existing) if isinstance(existing, tuple) else [existing]
            new_values = list(value) if isinstance(value, tuple) else [value]
            combined = existing_values + [v for v in new_values if v not in existing_values]
            merged[key] = tuple(combined)
        return CitationRecord(merged)

    # -- measurement -------------------------------------------------------------
    def size(self) -> int:
        """Number of atomic snippet values carried by the record."""
        if self._size is None:
            self._size = sum(
                len(value) if isinstance(value, tuple) else 1 for value in self._fields.values()
            )
        return self._size

    def text_length(self) -> int:
        """Length of the record when rendered as plain text (rough size proxy)."""
        return sum(len(str(k)) + len(str(v)) for k, v in self._fields.items())

    # -- dunder ---------------------------------------------------------------------
    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._fields.items(), key=lambda kv: kv[0])))
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CitationRecord):
            return self._fields == other._fields
        if isinstance(other, Mapping):
            return dict(self._fields) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self._fields.items()))
        return f"CitationRecord({inner})"

    def as_dict(self) -> dict[str, object]:
        """Plain-dict copy of the fields."""
        return dict(self._fields)


def record_set(*records: CitationRecord | Mapping[str, object]) -> CitationSet:
    """Build a :data:`CitationSet` from records or plain mappings."""
    out = []
    for record in records:
        if isinstance(record, CitationRecord):
            out.append(record)
        else:
            out.append(CitationRecord(record))
    return frozenset(out)


def set_size(records: Iterable[CitationRecord]) -> int:
    """Total snippet count of a set of records (the paper's "size of citation")."""
    return sum(record.size() for record in records)
