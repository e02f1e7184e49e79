"""Bipartite structure graphs of a delay DAE.

Two views of the same incidence data:

* the shifting graph, whose variable side collapses all derivative orders
  of variable k at shift p into a single group node (k, p), and
* the occurrence graph, whose variable side keeps every concrete
  occurrence (k, p, q) as its own node.

An implicit link between equations is precisely one that exists in the
first view but not in the second; both are therefore needed downstream.
The shifting graph keeps only each equation's groups: the links between
equations are found by the alternating-path walk in `matching`, which
yields the connection graph's arcs.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from .structure import DdaeStructure, VarOccurrence


class VariableGroup(NamedTuple):
    """Group node (k, p): all derivative orders of variable k at shift p.

    A named tuple like `VarOccurrence`: it equals the plain tuple (k, p).
    """

    var_index: int
    shift: int


class ShiftingGraph:
    """Bipartite graph between equation ids and variable groups.

    Built from `groups_of`, a dict from each equation, in node order, to
    the tuple of its groups in ascending (var_index, shift) order without
    repeats, so that every traversal in the package is deterministic.  An
    equation may have no groups; a group exists only where it has an
    edge.  The group set is made at once, the edge set on first read.
    """

    def __init__(self, groups_of: dict[int, tuple[VariableGroup, ...]]):
        self.eq_nodes: tuple[int, ...] = tuple(groups_of)
        self._groups_of = groups_of
        self.group_nodes: frozenset[VariableGroup] = frozenset().union(*groups_of.values())

    @cached_property
    def edges(self) -> frozenset[tuple[int, VariableGroup]]:
        return frozenset([(i, v) for i, vs in self._groups_of.items() for v in vs])

    def has_equation(self, i: int) -> bool:
        return i in self._groups_of

    def groups_of(self, i: int) -> tuple[VariableGroup, ...]:
        return self._groups_of[i]


class DdaeGraph:
    """Bipartite graph between equation ids and concrete occurrences.

    Built from `occs_of`, a dict from each equation, in node order, to the
    tuple of its occurrences.  The edge and variable node sets are made on
    their first read.
    """

    def __init__(self, occs_of: dict[int, tuple[VarOccurrence, ...]]):
        self.eq_nodes: tuple[int, ...] = tuple(occs_of)
        self._occs_of = occs_of

    @cached_property
    def var_nodes(self) -> frozenset[VarOccurrence]:
        return frozenset().union(*self._occs_of.values())

    @cached_property
    def edges(self) -> frozenset[tuple[int, VarOccurrence]]:
        return frozenset([(i, o) for i, occs in self._occs_of.items() for o in occs])

    def occurrences_of(self, i: int) -> tuple[VarOccurrence, ...]:
        return self._occs_of[i]


_GROUP_KEY = itemgetter(0, 1)  # (k, p) of an occurrence, as a plain tuple


class _Groups(dict):
    """(k, p) -> its VariableGroup, made on the first lookup of (k, p)."""

    def __missing__(self, key: tuple[int, int]) -> VariableGroup:
        v = self[key] = tuple.__new__(VariableGroup, key)
        return v


def _not_an_equation(s: DdaeStructure, i: int) -> ValueError:
    return ValueError(f"equation index {i} not in 1..{s.n_equations}")


def build_shifting_graph(s: DdaeStructure) -> ShiftingGraph:
    """Collapse derivative orders: one group node per (k, p) that occurs."""
    group = _Groups().__getitem__
    groups_of = dict.fromkeys(range(1, s.n_equations + 1), ())
    for eq in s.equations:
        i = eq.eq_index
        known = groups_of.get(i)
        if known is None:
            raise _not_an_equation(s, i)
        if eq.occurrences:
            keys = set(map(_GROUP_KEY, eq.occurrences))
            if known:
                keys.update(known)  # the equation is listed twice
            groups_of[i] = tuple(map(group, sorted(keys)))
    return ShiftingGraph(groups_of)


def build_ddae_graph(s: DdaeStructure) -> DdaeGraph:
    """One variable node per distinct occurrence triple; edges mirror incidence."""
    occs_of = dict.fromkeys(range(1, s.n_equations + 1), ())
    for eq in s.equations:
        i = eq.eq_index
        known = occs_of.get(i)
        if known is None:
            raise _not_an_equation(s, i)
        occs_of[i] = known + eq.occurrences  # () + t is t itself
    return DdaeGraph(occs_of)


def highest_shift_groups(g: ShiftingGraph) -> frozenset[VariableGroup]:
    """The group nodes that may be matched to an equation.

    A group (k, p) qualifies iff p >= 0 and no group (k, p') with p' > p
    exists anywhere in the graph; negatively shifted groups never qualify.
    """
    top: dict[int, VariableGroup] = {}  # variable -> its group of highest shift
    for v in g.group_nodes:
        k, p = v
        cur = top.get(k)
        if cur is None or p > cur[1]:
            top[k] = v
    return frozenset([v for v in top.values() if v[1] >= 0])
