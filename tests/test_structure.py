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
        assert set(s.equations[0].occurrences) == {occ(1, 0, 1)}
        assert set(s.equations[1].occurrences) == {occ(1, 0, 1), occ(2, 0, 0)}
        assert set(s.equations[2].occurrences) == {
            occ(1, 0, 0), occ(2, 0, 0), occ(3, -1, 0)
        }
        assert s.equations[2].label == "F3"

    def test_minimal_document(self):
        s = ds.parse_ddae(
            '{"n_equations": 1, "n_variables": 1, "equations": '
            '[{"index": 1, "occurrences": [{"var": 1, "shift": 0, "deriv": 0}]}]}'
        )
        assert s.n_equations == 1
        assert set(s.equations[0].occurrences) == {occ(1, 0, 0)}
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


def _doc(equations, **top) -> str:
    """A document from its equation entries; the other top-level fields
    default to one equation over three variables, and a field given as None
    is left out."""
    raw = {"n_equations": 1, "n_variables": 3, "equations": equations}
    raw.update(top)
    return json.dumps({k: v for k, v in raw.items() if v is not None})


def _eq(*occurrences, index=1, **fields) -> dict:
    return {"index": index, "occurrences": list(occurrences), **fields}


def _occ(var=1, shift=0, deriv=0) -> dict:
    return {"var": var, "shift": shift, "deriv": deriv}


# (case, document, error class, exact message), one row per check of
# parse_ddae in the order it runs, then rows where that order decides
# which of two faults is reported
PARSE_ERRORS = [
    ("not-json", "{not json", ds.MalformedDocument,
     "not valid JSON: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)"),
    ("top-level-array", "[]", ds.SchemaViolation, "top-level value must be an object"),
    ("unknown-top-level", _doc([_eq(_occ())], delay=1.5, colour="red"), ds.SchemaViolation,
     "unknown top-level fields: ['colour', 'delay']"),
    ("missing-top-level", _doc(None, n_variables=None), ds.SchemaViolation,
     "missing top-level fields: ['equations', 'n_variables']"),
    ("n-equations-float", _doc([_eq(_occ())], n_equations=1.0), ds.SchemaViolation,
     "n_equations must be an integer, got 1.0"),
    ("n-variables-string", _doc([_eq(_occ())], n_variables="3"), ds.SchemaViolation,
     "n_variables must be an integer, got '3'"),
    ("n-equations-zero", _doc([], n_equations=0), ds.SchemaViolation,
     "n_equations must be >= 1, got 0"),
    ("n-variables-negative", _doc([_eq(_occ())], n_variables=-1), ds.SchemaViolation,
     "n_variables must be >= 1, got -1"),
    ("equations-object", '{"n_equations": 1, "n_variables": 1, "equations": {}}',
     ds.SchemaViolation, "equations must be an array"),
    ("equation-not-object", _doc([[1]]), ds.SchemaViolation,
     "each equation must be an object"),
    ("unknown-equation-field", _doc([_eq(_occ(), color="red")]), ds.SchemaViolation,
     "unknown equation fields: ['color']"),
    ("equation-without-occurrences", _doc([{"index": 1}]), ds.SchemaViolation,
     "equation needs 'index' and 'occurrences'"),
    ("equation-index-bool", _doc([_eq(_occ(), index=True)]), ds.SchemaViolation,
     "equation index must be an integer, got True"),
    ("label-not-string", _doc([_eq(_occ(), label=5)]), ds.SchemaViolation,
     "label must be a string, got 5"),
    ("occurrences-not-array", _doc([{"index": 1, "occurrences": {}}]), ds.SchemaViolation,
     "occurrences must be an array"),
    ("equation-index-out-of-range", _doc([_eq(_occ(), index=2)]), ds.IndexOutOfRange,
     "equation index 2 not in 1..1"),
    ("equation-index-twice", _doc([_eq(_occ()), _eq(_occ())], n_equations=2),
     ds.IndexOutOfRange, "equation index 1 listed twice"),
    ("occurrence-not-object", _doc([_eq([1, 0, 0])]), ds.SchemaViolation,
     "each occurrence must be an object"),
    ("occurrence-field-missing", _doc([_eq({"var": 1, "deriv": 0})]), ds.SchemaViolation,
     "occurrence must have exactly fields var/shift/deriv, got ['deriv', 'var']"),
    ("occurrence-field-extra", _doc([_eq(dict(_occ(), order=2))]), ds.SchemaViolation,
     "occurrence must have exactly fields var/shift/deriv, got "
     "['deriv', 'order', 'shift', 'var']"),
    ("var-bool", _doc([_eq(_occ(var=True))]), ds.SchemaViolation,
     "var must be an integer, got True"),
    ("shift-float", _doc([_eq(_occ(shift=0.0))]), ds.SchemaViolation,
     "shift must be an integer, got 0.0"),
    ("deriv-null", _doc([_eq(_occ(deriv=None))]), ds.SchemaViolation,
     "deriv must be an integer, got None"),
    ("var-zero", _doc([_eq(_occ(var=0))]), ds.IndexOutOfRange,
     "var 0 not in 1..3 (equation 1)"),
    ("var-beyond-count", _doc([_eq(_occ(var=4))]), ds.IndexOutOfRange,
     "var 4 not in 1..3 (equation 1)"),
    ("shift-below-floor", _doc([_eq(_occ(shift=-2))]), ds.SchemaViolation,
     "shift must be >= -1, got -2 (equation 1)"),
    ("deriv-negative", _doc([_eq(_occ(deriv=-1))]), ds.SchemaViolation,
     "deriv must be >= 0, got -1 (equation 1)"),
    ("occurrence-twice", _doc([_eq(_occ(2, -1, 1), _occ(), _occ(2, -1, 1))]),
     ds.DuplicateOccurrence,
     "occurrence (var=2, shift=-1, deriv=1) listed twice in equation 1"),
    ("equation-missing", _doc([_eq(_occ(), index=2)], n_equations=3), ds.IndexOutOfRange,
     "equation indices missing: [1, 3]"),
    ("equations-missing-ten", _doc([], n_equations=10), ds.IndexOutOfRange,
     "equation indices missing: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]"),
    ("equations-missing-beyond-ten",
     _doc([_eq(_occ(), index=2), _eq(_occ(), index=5)], n_equations=25), ds.IndexOutOfRange,
     "equation indices missing: [1, 3, 4, 6, 7, 8, 9, 10, 11, 12] and 13 more"),
    # the order of the checks decides
    ("unknown-before-missing", _doc(None, delay=1), ds.SchemaViolation,
     "unknown top-level fields: ['delay']"),
    ("both-counts-typed-before-ranges", _doc([], n_equations=0, n_variables="x"),
     ds.SchemaViolation, "n_variables must be an integer, got 'x'"),
    ("var-type-before-shift-range", _doc([_eq(_occ(var=True, shift=-2))]),
     ds.SchemaViolation, "var must be an integer, got True"),
    ("deriv-type-before-var-range", _doc([_eq(_occ(var=99, deriv=False))]),
     ds.SchemaViolation, "deriv must be an integer, got False"),
    ("var-range-before-shift-range", _doc([_eq(_occ(var=99, shift=-2))]),
     ds.IndexOutOfRange, "var 99 not in 1..3 (equation 1)"),
    ("shift-range-before-deriv-range", _doc([_eq(_occ(shift=-2, deriv=-1))]),
     ds.SchemaViolation, "shift must be >= -1, got -2 (equation 1)"),
    ("label-before-occurrences-array", _doc([_eq(label=["F"], occurrences=7)]),
     ds.SchemaViolation, "label must be a string, got ['F']"),
    ("label-before-index-range", _doc([_eq(_occ(), index=9, label=None)]),
     ds.SchemaViolation, "label must be a string, got None"),
    ("occurrences-array-before-index-range", _doc([{"index": 9, "occurrences": "x"}]),
     ds.SchemaViolation, "occurrences must be an array"),
    ("index-twice-before-its-occurrences",
     _doc([_eq(_occ()), _eq(_occ(var=99))], n_equations=2),
     ds.IndexOutOfRange, "equation index 1 listed twice"),
    ("duplicate-before-later-fault", _doc([_eq(_occ(), _occ(), _occ(var=99))]),
     ds.DuplicateOccurrence, "occurrence (var=1, shift=0, deriv=0) listed twice in equation 1"),
    ("fault-before-later-duplicate", _doc([_eq(_occ(), _occ(deriv=-3), _occ())]),
     ds.SchemaViolation, "deriv must be >= 0, got -3 (equation 1)"),
    ("first-duplicate-in-order", _doc([_eq(_occ(3), _occ(2), _occ(2), _occ(3))]),
     ds.DuplicateOccurrence, "occurrence (var=2, shift=0, deriv=0) listed twice in equation 1"),
    ("earlier-equation-first",
     _doc([_eq(_occ(), _occ()), _eq(_occ(var=True), index=2)], n_equations=2),
     ds.DuplicateOccurrence, "occurrence (var=1, shift=0, deriv=0) listed twice in equation 1"),
    ("occurrence-fault-before-missing-index", _doc([_eq(_occ(shift=-5), index=2)], n_equations=2),
     ds.SchemaViolation, "shift must be >= -1, got -5 (equation 2)"),
]


@pytest.mark.parametrize(
    "document, error, message",
    [row[1:] for row in PARSE_ERRORS],
    ids=[row[0] for row in PARSE_ERRORS],
)
def test_parse_error_class_and_message(document, error, message):
    with pytest.raises(error) as info:
        ds.parse_ddae(document)
    assert type(info.value) is error
    assert str(info.value) == message
