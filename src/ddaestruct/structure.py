"""Incidence structure of a delay DAE and its JSON interchange format.

A system of n equations over n_variables variables is described purely by
which variable occurrences appear in which equation.  An occurrence is a
triple (var_index, shift, deriv): variable k, shifted by `shift` multiples
of the single delay (shift >= -1, where -1 is the delayed state), and
differentiated `deriv` times.  Right-hand sides, initial data and the delay
value itself are deliberately not modelled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from itertools import filterfalse, islice
from typing import NamedTuple, NoReturn

from .errors import (
    DuplicateOccurrence,
    IndexOutOfRange,
    MalformedDocument,
    SchemaViolation,
)


class VarOccurrence(NamedTuple):
    """One concrete variable occurrence: variable k, shift p, derivative order q.

    A named tuple, so hashing and comparison run in C; it equals the plain
    tuple (k, p, q) and sorts like it.
    """

    var_index: int
    shift: int
    deriv: int


@dataclass(frozen=True)
class EquationStruct:
    """Incidence row of a single equation.

    `occurrences` is kept as a tuple so that an invalid structure holding
    duplicate triples is representable and can be reported by `validate`.
    """

    eq_index: int
    occurrences: tuple[VarOccurrence, ...]
    label: str = ""

    def __post_init__(self):
        if not self.label:
            object.__setattr__(self, "label", f"F{self.eq_index}")


@dataclass(frozen=True)
class DdaeStructure:
    """Full incidence structure: equations indexed 1..n_equations."""

    n_equations: int
    n_variables: int
    equations: tuple[EquationStruct, ...] = field(default_factory=tuple)


# --- interchange format -------------------------------------------------

_TOP_KEYS = {"n_equations", "n_variables", "equations"}
_EQ_KEYS = {"index", "label", "occurrences"}
_OCC_KEYS = {"var", "shift", "deriv"}


def _require_int(value, what: str) -> int:
    # JSON integers decode to exactly int; bool, an int subclass, is refused
    if type(value) is not int:
        raise SchemaViolation(f"{what} must be an integer, got {value!r}")
    return value


# VarOccurrence from a plain triple, without the Python-level __new__
_new_occurrence = partial(tuple.__new__, VarOccurrence)


def _equation_error(entry, n_eq: int, seen_indices: set) -> NoReturn:
    """Raise the error of the first check that the equation entry fails."""
    if not isinstance(entry, dict):
        raise SchemaViolation("each equation must be an object")
    unknown = set(entry) - _EQ_KEYS
    if unknown:
        raise SchemaViolation(f"unknown equation fields: {sorted(unknown)}")
    if "index" not in entry or "occurrences" not in entry:
        raise SchemaViolation("equation needs 'index' and 'occurrences'")
    idx = _require_int(entry["index"], "equation index")
    label = entry.get("label", f"F{idx}")
    if not isinstance(label, str):
        raise SchemaViolation(f"label must be a string, got {label!r}")
    if not isinstance(entry["occurrences"], list):
        raise SchemaViolation("occurrences must be an array")
    if idx < 1 or idx > n_eq:
        raise IndexOutOfRange(f"equation index {idx} not in 1..{n_eq}")
    if idx in seen_indices:
        raise IndexOutOfRange(f"equation index {idx} listed twice")
    raise AssertionError(f"equation entry {entry!r} passes every check")


def _occurrence_error(occurrences: list, idx: int, n_var: int) -> NoReturn:
    """Raise the error of the first check that an occurrence of equation idx
    fails, in the order of the occurrences, a repeat included."""
    seen = set()
    for occ in occurrences:
        if not isinstance(occ, dict):
            raise SchemaViolation("each occurrence must be an object")
        if occ.keys() != _OCC_KEYS:
            raise SchemaViolation(
                f"occurrence must have exactly fields var/shift/deriv, got {sorted(occ)}"
            )
        var = _require_int(occ["var"], "var")
        shift = _require_int(occ["shift"], "shift")
        deriv = _require_int(occ["deriv"], "deriv")
        if var < 1 or var > n_var:
            raise IndexOutOfRange(f"var {var} not in 1..{n_var} (equation {idx})")
        if shift < -1:
            raise SchemaViolation(f"shift must be >= -1, got {shift} (equation {idx})")
        if deriv < 0:
            raise SchemaViolation(f"deriv must be >= 0, got {deriv} (equation {idx})")
        triple = (var, shift, deriv)
        if triple in seen:
            raise DuplicateOccurrence(
                f"occurrence (var={var}, shift={shift}, deriv={deriv}) "
                f"listed twice in equation {idx}"
            )
        seen.add(triple)
    raise AssertionError(f"every occurrence of equation {idx} passes every check")


def parse_ddae(document: str) -> DdaeStructure:
    """Parse and fully validate a DDAE interchange document.

    Raises MalformedDocument for JSON syntax errors, SchemaViolation for
    missing/unknown fields or out-of-domain values, IndexOutOfRange for
    index bound violations and DuplicateOccurrence for repeated triples.
    The returned structure always passes `validate`.
    """
    try:
        raw = json.loads(document)
    except (ValueError, RecursionError) as exc:
        # ValueError covers syntax errors and integers beyond the interpreter's
        # digit limit; RecursionError covers nesting deeper than its stack
        raise MalformedDocument(f"not valid JSON: {exc}") from exc

    if not isinstance(raw, dict):
        raise SchemaViolation("top-level value must be an object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise SchemaViolation(f"unknown top-level fields: {sorted(unknown)}")
    missing = _TOP_KEYS - set(raw)
    if missing:
        raise SchemaViolation(f"missing top-level fields: {sorted(missing)}")

    n_eq = _require_int(raw["n_equations"], "n_equations")
    n_var = _require_int(raw["n_variables"], "n_variables")
    if n_eq < 1:
        raise SchemaViolation(f"n_equations must be >= 1, got {n_eq}")
    if n_var < 1:
        raise SchemaViolation(f"n_variables must be >= 1, got {n_var}")
    if not isinstance(raw["equations"], list):
        raise SchemaViolation("equations must be an array")

    equations = []
    seen_indices = set()
    for entry in raw["equations"]:
        # each entry and each occurrence is tested whole; only when a test
        # fails do the checks run one by one, to raise the error of the
        # first one that fails
        if type(entry) is not dict:
            _equation_error(entry, n_eq, seen_indices)
        idx = entry.get("index")
        occurrences = entry.get("occurrences")
        # beside index and occurrences, a third field can only be the label
        label = entry.get("label") if len(entry) == 3 else f"F{idx}"
        if not (
            type(idx) is int and type(occurrences) is list and type(label) is str
            and 1 < len(entry) < 4 and 0 < idx <= n_eq and idx not in seen_indices
        ):
            _equation_error(entry, n_eq, seen_indices)
        seen_indices.add(idx)

        occs = []
        for occ in occurrences:
            if type(occ) is not dict or len(occ) != 3:
                _occurrence_error(occurrences, idx, n_var)
            # a missing field reads as None and fails the type test
            var = occ.get("var")
            shift = occ.get("shift")
            deriv = occ.get("deriv")
            if (
                type(var) is not int or type(shift) is not int or type(deriv) is not int
                or not 0 < var <= n_var or shift < -1 or deriv < 0
            ):
                _occurrence_error(occurrences, idx, n_var)
            occs.append((var, shift, deriv))
        unique = set(occs)
        if len(unique) != len(occs):
            _occurrence_error(occurrences, idx, n_var)
        equations.append(EquationStruct(idx, tuple(map(_new_occurrence, sorted(unique))), label))

    if len(seen_indices) != n_eq:
        # every seen index is unique and in range, so the count decides; the
        # first ten missing ones lie within the first len(seen_indices) + 10
        missing = list(islice(filterfalse(seen_indices.__contains__, range(1, n_eq + 1)), 10))
        more = n_eq - len(seen_indices) - len(missing)
        raise IndexOutOfRange(
            f"equation indices missing: {missing}" + (f" and {more} more" if more else "")
        )

    equations.sort(key=lambda eq: eq.eq_index)
    return DdaeStructure(n_eq, n_var, tuple(equations))


def validate(s: DdaeStructure) -> list[str]:
    """Check all structural invariants; return one message per violation.

    Total function: never raises, an empty list means the structure is valid.
    """
    problems: list[str] = []
    if s.n_equations < 1:
        problems.append(f"n_equations must be >= 1, got {s.n_equations}")
    if s.n_variables < 1:
        problems.append(f"n_variables must be >= 1, got {s.n_variables}")
    indices = [eq.eq_index for eq in s.equations]
    if sorted(indices) != list(range(1, s.n_equations + 1)):
        problems.append(
            f"equation indices {sorted(indices)} are not exactly 1..{s.n_equations}"
        )
    for eq in s.equations:
        seen: set[VarOccurrence] = set()
        for occ in eq.occurrences:
            if occ in seen:
                problems.append(
                    f"equation {eq.eq_index}: duplicate occurrence "
                    f"({occ.var_index}, {occ.shift}, {occ.deriv})"
                )
            seen.add(occ)
            if occ.var_index < 1 or occ.var_index > s.n_variables:
                problems.append(
                    f"equation {eq.eq_index}: var {occ.var_index} "
                    f"not in 1..{s.n_variables}"
                )
            if occ.shift < -1:
                problems.append(
                    f"equation {eq.eq_index}: shift {occ.shift} below -1"
                )
            if occ.deriv < 0:
                problems.append(
                    f"equation {eq.eq_index}: deriv {occ.deriv} negative"
                )
    return problems


def serialize_ddae(s: DdaeStructure) -> str:
    """Serialize to the interchange format with canonical field ordering."""
    doc = {
        "n_equations": s.n_equations,
        "n_variables": s.n_variables,
        "equations": [
            {
                "index": eq.eq_index,
                "label": eq.label,
                "occurrences": [
                    {"var": o.var_index, "shift": o.shift, "deriv": o.deriv}
                    for o in sorted(eq.occurrences)
                ],
            }
            for eq in sorted(s.equations, key=lambda e: e.eq_index)
        ],
    }
    return json.dumps(doc, indent=2)
