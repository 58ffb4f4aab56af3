"""Tests for attributes, relation schemas and database schemas."""

import pytest

from repro.errors import ArityError, SchemaError, UnknownRelationError
from repro.relational.schema import Attribute, DatabaseSchema, ForeignKey, RelationSchema


class TestAttribute:
    def test_defaults_to_string_type(self):
        assert Attribute("name").dtype is str

    def test_rejects_empty_name(self):
        with pytest.raises(SchemaError):
            Attribute("")

    def test_rejects_unsupported_type(self):
        with pytest.raises(SchemaError):
            Attribute("x", dict)

    def test_accepts_none_values(self):
        assert Attribute("x", int).accepts(None)

    def test_accepts_matching_type(self):
        assert Attribute("x", int).accepts(3)
        assert not Attribute("x", int).accepts("3")

    def test_object_type_accepts_anything(self):
        attribute = Attribute("x", object)
        assert attribute.accepts(3)
        assert attribute.accepts("three")
        assert attribute.accepts((1, 2))

    def test_float_attribute_accepts_int(self):
        assert Attribute("x", float).accepts(3)

    def test_numeric_attribute_rejects_bool(self):
        assert not Attribute("x", int).accepts(True)
        assert not Attribute("x", float).accepts(False)


class TestRelationSchema:
    def test_attribute_names_in_order(self):
        schema = RelationSchema("Family", ["FID", "FName", "Desc"])
        assert schema.attribute_names == ("FID", "FName", "Desc")
        assert schema.arity == 3

    def test_strings_become_attributes(self):
        schema = RelationSchema("R", ["a", "b"])
        assert all(isinstance(a, Attribute) for a in schema.attributes)

    def test_duplicate_attribute_names_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", ["a", "a"])

    def test_empty_attribute_list_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", [])

    def test_key_must_reference_existing_attribute(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", ["a"], key=["missing"])

    def test_position_lookup(self):
        schema = RelationSchema("R", ["a", "b", "c"])
        assert schema.position("b") == 1
        with pytest.raises(SchemaError):
            schema.position("z")

    def test_key_positions(self):
        schema = RelationSchema("R", ["a", "b", "c"], key=["c", "a"])
        assert schema.key_positions() == (2, 0)
        assert RelationSchema("R", ["a"]).key_positions() is None

    def test_key_positions_are_computed_once(self):
        schema = RelationSchema("R", ["a", "b", "c"], key=["c", "a"])
        assert schema.key_positions() is schema.key_positions()
        assert schema.key_of((1, 2, 3)) == (3, 1)

    def test_validate_row_checks_arity(self):
        schema = RelationSchema("R", ["a", "b"])
        with pytest.raises(ArityError):
            schema.validate_row((1,))

    def test_validate_row_checks_types(self):
        schema = RelationSchema("R", [Attribute("a", int)])
        with pytest.raises(SchemaError):
            schema.validate_row(("not an int",))

    def test_row_from_mapping_requires_all_attributes(self):
        schema = RelationSchema("R", ["a", "b"])
        assert schema.row_from_mapping({"a": "x", "b": "y"}) == ("x", "y")
        with pytest.raises(SchemaError):
            schema.row_from_mapping({"a": "x"})

    def test_row_round_trip_via_mapping(self):
        schema = RelationSchema("R", ["a", "b"])
        row = ("x", "y")
        assert schema.row_from_mapping(schema.row_to_mapping(row)) == row

    def test_key_of_projects_key_columns(self):
        schema = RelationSchema("R", [Attribute("a", int), Attribute("b", str)], key=["a"])
        assert schema.key_of((7, "x")) == (7,)

    def test_equality_and_hash(self):
        first = RelationSchema("R", ["a", "b"], key=["a"])
        second = RelationSchema("R", ["a", "b"], key=["a"])
        assert first == second
        assert hash(first) == hash(second)
        assert first != RelationSchema("R", ["a", "b"])

    def test_immutable(self):
        schema = RelationSchema("R", ["a"])
        with pytest.raises(AttributeError):
            schema.name = "S"


class TestDatabaseSchema:
    def _schema(self):
        return DatabaseSchema(
            [
                RelationSchema("Family", ["FID", "FName"], key=["FID"]),
                RelationSchema("Committee", ["FID", "PName"]),
            ],
            foreign_keys=[ForeignKey("Committee", ("FID",), "Family", ("FID",))],
        )

    def test_relation_lookup(self):
        schema = self._schema()
        assert schema.relation("Family").arity == 2
        assert schema.has_relation("Committee")
        assert "Family" in schema

    def test_unknown_relation_raises(self):
        with pytest.raises(UnknownRelationError):
            self._schema().relation("Nope")

    def test_duplicate_relation_names_rejected(self):
        with pytest.raises(SchemaError):
            DatabaseSchema([RelationSchema("R", ["a"]), RelationSchema("R", ["b"])])

    def test_foreign_key_validation(self):
        with pytest.raises(UnknownRelationError):
            DatabaseSchema(
                [RelationSchema("A", ["x"])],
                foreign_keys=[ForeignKey("A", ("x",), "Missing", ("y",))],
            )

    def test_foreign_key_column_counts_must_match(self):
        with pytest.raises(SchemaError):
            ForeignKey("A", ("x", "y"), "B", ("z",))

    def test_extend_creates_new_schema(self):
        schema = self._schema()
        extended = schema.extend([RelationSchema("Extra", ["id"])])
        assert extended.has_relation("Extra")
        assert not schema.has_relation("Extra")

    def test_iteration_and_length(self):
        schema = self._schema()
        assert len(schema) == 2
        assert {rs.name for rs in schema} == {"Family", "Committee"}
