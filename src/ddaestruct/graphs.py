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

    Adjacency is precomputed in ascending (var_index, shift) order so that
    every traversal in the package is deterministic.
    """

    def __init__(self, eq_nodes, group_nodes, edges):
        self.eq_nodes: tuple[int, ...] = tuple(eq_nodes)
        self.group_nodes: frozenset[VariableGroup] = frozenset(group_nodes)
        self.edges: frozenset[tuple[int, VariableGroup]] = frozenset(edges)
        groups = self.group_nodes
        by_eq: dict[int, list[VariableGroup]] = {i: [] for i in self.eq_nodes}
        by_group: dict[VariableGroup, list[int]] = {}
        for i, v in self.edges:
            vs = by_eq.get(i)
            if vs is None or v not in groups:
                raise ValueError(f"edge ({i}, {v}) has an endpoint outside the node sets")
            vs.append(v)
            eqs = by_group.get(v)
            if eqs is None:
                by_group[v] = [i]
            else:
                eqs.append(i)
        if len(by_group) != len(groups):
            # isolated equation nodes are legitimate, isolated groups are not
            untouched = groups.difference(by_group)
            raise ValueError(f"group nodes without any edge: {sorted(untouched)}")
        self._groups_of: dict[int, tuple[VariableGroup, ...]] = {
            i: tuple(sorted(vs)) for i, vs in by_eq.items()
        }
        self._eqs_of: dict[VariableGroup, tuple[int, ...]] = {
            v: tuple(sorted(eqs)) for v, eqs in by_group.items()
        }

    def has_equation(self, i: int) -> bool:
        return i in self._groups_of

    def groups_of(self, i: int) -> tuple[VariableGroup, ...]:
        return self._groups_of[i]

    def eqs_of(self, v: VariableGroup) -> tuple[int, ...]:
        return self._eqs_of[v]


class DdaeGraph:
    """Bipartite graph between equation ids and concrete occurrences."""

    def __init__(self, eq_nodes, var_nodes, edges):
        self.eq_nodes: tuple[int, ...] = tuple(eq_nodes)
        self.var_nodes: frozenset[VarOccurrence] = frozenset(var_nodes)
        self.edges: frozenset[tuple[int, VarOccurrence]] = frozenset(edges)
        by_eq: dict[int, list[VarOccurrence]] = {i: [] for i in self.eq_nodes}
        for i, o in self.edges:
            by_eq[i].append(o)
        self._occs_of: dict[int, frozenset[VarOccurrence]] = {
            i: frozenset(occs) for i, occs in by_eq.items()
        }

    def occurrences_of(self, i: int) -> frozenset[VarOccurrence]:
        return self._occs_of[i]


def build_shifting_graph(s: DdaeStructure) -> ShiftingGraph:
    """Collapse derivative orders: one group node per (k, p) that occurs."""
    edges = {
        (eq.eq_index, VariableGroup(k, p))
        for eq in s.equations
        for k, p, _ in eq.occurrences
    }
    return ShiftingGraph(range(1, s.n_equations + 1), {v for _, v in edges}, edges)


def build_ddae_graph(s: DdaeStructure) -> DdaeGraph:
    """One variable node per distinct occurrence triple; edges mirror incidence."""
    edges = {(eq.eq_index, o) for eq in s.equations for o in eq.occurrences}
    return DdaeGraph(range(1, s.n_equations + 1), {o for _, o in edges}, edges)


def highest_shift_groups(g: ShiftingGraph) -> frozenset[VariableGroup]:
    """The group nodes that may be matched to an equation.

    A group (k, p) qualifies iff p >= 0 and no group (k, p') with p' > p
    exists anywhere in the graph; negatively shifted groups never qualify.
    """
    top: dict[int, int] = {}
    for k, p in g.group_nodes:
        cur = top.get(k)
        if cur is None or p > cur:
            top[k] = p
    return frozenset(
        VariableGroup(k, p) for k, p in top.items() if p >= 0
    )
