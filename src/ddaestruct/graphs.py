"""Bipartite structure graphs of a delay DAE.

Two views of the same incidence data:

* the shifting graph, whose variable side collapses all derivative orders
  of variable k at shift p into a single group node (k, p), and
* the occurrence graph, whose variable side keeps every concrete
  occurrence (k, p, q) as its own node.

An implicit link between equations is precisely one that exists in the
first view but not in the second; both are therefore needed downstream.
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

    The state is the adjacency, precomputed in ascending (var_index, shift)
    order so that every traversal in the package is deterministic.  The
    edge set is built from it on first read.
    """

    def __init__(self, eq_nodes, group_nodes, edges):
        eq_nodes = tuple(eq_nodes)
        groups = frozenset(group_nodes)
        edges = frozenset(edges)
        by_eq: dict[int, list[VariableGroup]] = {i: [] for i in eq_nodes}
        for i, v in edges:
            vs = by_eq.get(i)
            if vs is None or v not in groups:
                raise ValueError(f"edge ({i}, {v}) has an endpoint outside the node sets")
            vs.append(v)
        self._adopt(eq_nodes, {i: tuple(sorted(vs)) for i, vs in by_eq.items()})
        if len(self.group_nodes) != len(groups):
            # isolated equation nodes are legitimate, isolated groups are not
            untouched = groups.difference(self.group_nodes)
            raise ValueError(f"group nodes without any edge: {sorted(untouched)}")
        self.edges = edges

    @classmethod
    def _from_adjacency(cls, eq_nodes, groups_of) -> "ShiftingGraph":
        g = cls.__new__(cls)
        g._adopt(eq_nodes, groups_of)
        return g

    def _adopt(self, eq_nodes: tuple, groups_of: dict) -> None:
        """Take per-equation group tuples, each sorted and free of repeats,
        as the graph's state and derive the per-group equation tuples."""
        self.eq_nodes: tuple[int, ...] = eq_nodes
        self._groups_of: dict[int, tuple[VariableGroup, ...]] = groups_of
        by_group: dict[VariableGroup, list[int]] = {}
        for i in sorted(groups_of):
            for v in groups_of[i]:
                eqs = by_group.get(v)
                if eqs is None:
                    by_group[v] = [i]
                else:
                    eqs.append(i)
        self._eqs_of: dict[VariableGroup, tuple[int, ...]] = {
            v: tuple(eqs) for v, eqs in by_group.items()
        }
        self.group_nodes: frozenset[VariableGroup] = frozenset(by_group)

    @cached_property
    def edges(self) -> frozenset[tuple[int, VariableGroup]]:
        return frozenset([(i, v) for i, vs in self._groups_of.items() for v in vs])

    def has_equation(self, i: int) -> bool:
        return i in self._groups_of

    def groups_of(self, i: int) -> tuple[VariableGroup, ...]:
        return self._groups_of[i]

    def eqs_of(self, v: VariableGroup) -> tuple[int, ...]:
        return self._eqs_of[v]


class DdaeGraph:
    """Bipartite graph between equation ids and concrete occurrences.

    The state is the per-equation occurrences.  An equation's occurrence
    set is made on the first read of it, and the edge and variable node
    sets on theirs.
    """

    def __init__(self, eq_nodes, var_nodes, edges):
        eq_nodes = tuple(eq_nodes)
        edges = frozenset(edges)
        by_eq: dict[int, list[VarOccurrence]] = {i: [] for i in eq_nodes}
        for i, o in edges:
            by_eq[i].append(o)
        self.eq_nodes: tuple[int, ...] = eq_nodes
        self._occs_of: dict[int, frozenset[VarOccurrence]] = {
            i: frozenset(occs) for i, occs in by_eq.items()
        }
        self.var_nodes = frozenset(var_nodes)
        self.edges = edges

    @classmethod
    def _from_adjacency(cls, eq_nodes, occs_of: dict) -> "DdaeGraph":
        """occs_of: equation -> a collection of its occurrences, replaced by
        their frozenset on the first `occurrences_of` for the equation."""
        g = cls.__new__(cls)
        g.eq_nodes = eq_nodes
        g._occs_of = occs_of
        return g

    @cached_property
    def var_nodes(self) -> frozenset[VarOccurrence]:
        return frozenset().union(*self._occs_of.values())

    @cached_property
    def edges(self) -> frozenset[tuple[int, VarOccurrence]]:
        return frozenset([(i, o) for i, occs in self._occs_of.items() for o in occs])

    def occurrences_of(self, i: int) -> frozenset[VarOccurrence]:
        occs = self._occs_of[i]
        if type(occs) is not frozenset:
            occs = self._occs_of[i] = frozenset(occs)
        return occs


_GROUP_KEY = itemgetter(0, 1)  # (k, p) of an occurrence, as a plain tuple


class _Groups(dict):
    """(k, p) -> its VariableGroup, made on the first lookup of (k, p)."""

    def __missing__(self, key: tuple[int, int]) -> VariableGroup:
        v = self[key] = tuple.__new__(VariableGroup, key)
        return v


def build_shifting_graph(s: DdaeStructure) -> ShiftingGraph:
    """Collapse derivative orders: one group node per (k, p) that occurs."""
    group = _Groups().__getitem__
    groups_of = dict.fromkeys(range(1, s.n_equations + 1), ())
    for eq in s.equations:
        if not eq.occurrences:
            continue
        i = eq.eq_index
        keys = set(map(_GROUP_KEY, eq.occurrences))
        known = groups_of.get(i)
        if known is None:
            raise ValueError(
                f"edge ({i}, {group(min(keys))}) has an endpoint outside the node sets"
            )
        if known:
            keys.update(known)  # the equation is listed twice
        groups_of[i] = tuple(map(group, sorted(keys)))
    return ShiftingGraph._from_adjacency(tuple(range(1, s.n_equations + 1)), groups_of)


def build_ddae_graph(s: DdaeStructure) -> DdaeGraph:
    """One variable node per distinct occurrence triple; edges mirror incidence."""
    occs_of: dict[int, tuple[VarOccurrence, ...]] = dict.fromkeys(
        range(1, s.n_equations + 1), ()
    )
    for eq in s.equations:
        if eq.occurrences:
            occs_of[eq.eq_index] += eq.occurrences  # () + t is t itself
    return DdaeGraph._from_adjacency(tuple(range(1, s.n_equations + 1)), occs_of)


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
