from __future__ import annotations

import json
import random
import time

import pytest

import ddaestruct as ds
from conftest import random_structure


def occ(k, p, q):
    return ds.VarOccurrence(k, p, q)


class TestParse:
    def test_three_equation_example(self, doc3):
        s = ds.parse_ddae(doc3)
        assert s.n_equations == 3
        assert s.n_variables == 3
        assert s.equations[0].occurrence_set == {occ(1, 0, 1)}
        assert s.equations[1].occurrence_set == {occ(1, 0, 1), occ(2, 0, 0)}
        assert s.equations[2].occurrence_set == {
            occ(1, 0, 0), occ(2, 0, 0), occ(3, -1, 0)
        }
        assert s.equations[2].label == "F3"

    def test_minimal_document(self):
        s = ds.parse_ddae(
            '{"n_equations": 1, "n_variables": 1, "equations": '
            '[{"index": 1, "occurrences": [{"var": 1, "shift": 0, "deriv": 0}]}]}'
        )
        assert s.n_equations == 1
        assert s.equations[0].occurrence_set == {occ(1, 0, 0)}
        assert s.equations[0].label == "F1"  # defaulted

    def test_var_index_beyond_declared_count(self):
        doc = (
            '{"n_equations": 1, "n_variables": 3, "equations": '
            '[{"index": 1, "occurrences": [{"var": 5, "shift": 0, "deriv": 0}]}]}'
        )
        with pytest.raises(ds.IndexOutOfRange):
            ds.parse_ddae(doc)

    def test_malformed_json(self):
        with pytest.raises(ds.MalformedDocument):
            ds.parse_ddae("{not json")

    def test_unknown_top_level_field(self, doc3):
        raw = json.loads(doc3)
        raw["delay"] = 1.5
        with pytest.raises(ds.SchemaViolation):
            ds.parse_ddae(json.dumps(raw))

    def test_unknown_equation_field(self, doc3):
        raw = json.loads(doc3)
        raw["equations"][0]["color"] = "red"
        with pytest.raises(ds.SchemaViolation):
            ds.parse_ddae(json.dumps(raw))

    def test_unknown_occurrence_field(self, doc3):
        raw = json.loads(doc3)
        raw["equations"][0]["occurrences"][0]["order"] = 2
        with pytest.raises(ds.SchemaViolation):
            ds.parse_ddae(json.dumps(raw))

    def test_missing_fields(self):
        with pytest.raises(ds.SchemaViolation):
            ds.parse_ddae('{"n_equations": 1, "n_variables": 1}')
        with pytest.raises(ds.SchemaViolation):
            ds.parse_ddae(
                '{"n_equations": 1, "n_variables": 1, "equations": [{"index": 1}]}'
            )

    def test_duplicate_occurrence(self):
        doc = (
            '{"n_equations": 1, "n_variables": 1, "equations": '
            '[{"index": 1, "occurrences": ['
            '{"var": 1, "shift": 0, "deriv": 0},'
            '{"var": 1, "shift": 0, "deriv": 0}]}]}'
        )
        with pytest.raises(ds.DuplicateOccurrence):
            ds.parse_ddae(doc)

    def test_shift_below_floor(self):
        doc = (
            '{"n_equations": 1, "n_variables": 1, "equations": '
            '[{"index": 1, "occurrences": [{"var": 1, "shift": -2, "deriv": 0}]}]}'
        )
        with pytest.raises(ds.SchemaViolation):
            ds.parse_ddae(doc)

    def test_negative_deriv(self):
        doc = (
            '{"n_equations": 1, "n_variables": 1, "equations": '
            '[{"index": 1, "occurrences": [{"var": 1, "shift": 0, "deriv": -1}]}]}'
        )
        with pytest.raises(ds.SchemaViolation):
            ds.parse_ddae(doc)

    def test_equation_index_gaps(self):
        doc = (
            '{"n_equations": 2, "n_variables": 1, "equations": '
            '[{"index": 2, "occurrences": []}]}'
        )
        with pytest.raises(ds.IndexOutOfRange):
            ds.parse_ddae(doc)

    def test_equation_index_duplicated(self):
        doc = (
            '{"n_equations": 2, "n_variables": 1, "equations": '
            '[{"index": 1, "occurrences": []}, {"index": 1, "occurrences": []}]}'
        )
        with pytest.raises(ds.IndexOutOfRange):
            ds.parse_ddae(doc)

    def test_zero_equations_rejected(self):
        with pytest.raises(ds.SchemaViolation):
            ds.parse_ddae('{"n_equations": 0, "n_variables": 1, "equations": []}')

    def test_bool_is_not_an_integer(self):
        doc = (
            '{"n_equations": 1, "n_variables": 1, "equations": '
            '[{"index": 1, "occurrences": [{"var": true, "shift": 0, "deriv": 0}]}]}'
        )
        with pytest.raises(ds.SchemaViolation):
            ds.parse_ddae(doc)


class TestLargeEquation:
    """Duplicate detection stays linear in the occurrences of one equation."""

    N_VARS = 10_000  # two shifts each: 20,000 distinct occurrences

    def occurrences(self):
        return [
            {"var": k, "shift": p, "deriv": 0}
            for k in range(1, self.N_VARS + 1)
            for p in (0, 1)
        ]

    def document(self, occurrences) -> str:
        return json.dumps({
            "n_equations": 1,
            "n_variables": self.N_VARS,
            "equations": [{"index": 1, "occurrences": occurrences}],
        })

    def test_twenty_thousand_occurrences_parse_quickly(self):
        doc = self.document(self.occurrences())
        start = time.perf_counter()
        s = ds.parse_ddae(doc)
        elapsed = time.perf_counter() - start
        assert len(s.equations[0].occurrences) == 2 * self.N_VARS
        assert elapsed < 2.0

    def test_duplicate_among_them_still_raises(self):
        occurrences = self.occurrences()
        occurrences.append(dict(occurrences[12_345]))
        with pytest.raises(ds.DuplicateOccurrence):
            ds.parse_ddae(self.document(occurrences))


class TestVarOccurrence:
    def test_repr_and_fields(self):
        o = occ(1, -1, 2)
        assert repr(o) == "VarOccurrence(var_index=1, shift=-1, deriv=2)"
        assert (o.var_index, o.shift, o.deriv) == (1, -1, 2)

    def test_sorts_by_variable_then_shift_then_order(self):
        unordered = [occ(2, -1, 0), occ(1, 0, 1), occ(1, 0, 0), occ(1, -1, 3)]
        assert sorted(unordered) == [occ(1, -1, 3), occ(1, 0, 0), occ(1, 0, 1), occ(2, -1, 0)]

    def test_hashable_and_equal_to_its_plain_tuple(self):
        assert len({occ(1, 0, 0), occ(1, 0, 0), occ(1, 0, 1)}) == 2
        assert occ(1, 0, 0) == (1, 0, 0)
        assert {occ(1, 0, 0): "x"}[(1, 0, 0)] == "x"

    def test_refuses_attribute_assignment(self):
        o = occ(1, 0, 0)
        with pytest.raises(AttributeError):
            o.deriv = 1
        with pytest.raises(AttributeError):
            o.extra = 1
        assert o == occ(1, 0, 0)


class TestValidate:
    def test_valid_structure(self, sys3):
        assert ds.validate(sys3) == []

    def test_duplicate_occurrence_reported_once(self):
        eq = ds.EquationStruct(1, (occ(1, 0, 0), occ(1, 0, 0)))
        s = ds.DdaeStructure(1, 1, (eq,))
        problems = ds.validate(s)
        assert len(problems) == 1
        assert "duplicate" in problems[0]

    def test_shift_floor_reported(self):
        eq = ds.EquationStruct(1, (occ(1, -2, 0),))
        s = ds.DdaeStructure(1, 1, (eq,))
        problems = ds.validate(s)
        assert len(problems) == 1
        assert "shift" in problems[0]

    def test_var_out_of_range_reported(self):
        eq = ds.EquationStruct(1, (occ(9, 0, 0),))
        s = ds.DdaeStructure(1, 2, (eq,))
        assert any("var 9" in p for p in ds.validate(s))

    def test_index_gap_reported(self):
        s = ds.DdaeStructure(2, 1, (ds.EquationStruct(2, ()),))
        assert any("indices" in p for p in ds.validate(s))


class TestRoundTrip:
    def test_example_documents(self, doc3, doc4):
        for doc in (doc3, doc4):
            s = ds.parse_ddae(doc)
            again = ds.parse_ddae(ds.serialize_ddae(s))
            assert again == s

    def test_random_structures(self):
        rng = random.Random(20240811)
        for _ in range(50):
            s = random_structure(rng)
            assert ds.validate(s) == []
            again = ds.parse_ddae(ds.serialize_ddae(s))
            assert again == s
            assert ds.validate(again) == []
