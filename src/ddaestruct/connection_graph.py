"""Directed connection graph for one exposed equation.

Every alternating-path triple (F_i, group, F_l) with the first edge outside
the matching and the second edge inside it is condensed to a directed arc
i -> l between equation nodes; the group is recoverable from the head (it
is the head's matched group) and is stored as the arc weight.  The node set
is the exposed equation plus its alternating-path reach, nothing more.
"""

from __future__ import annotations

import json

from .errors import InconsistentReport
from .graphs import ShiftingGraph, VariableGroup
from .matching import Matching, ReachReport


class ConnectionGraph:
    """Digraph on C u {exposed} whose arcs carry the connecting group."""

    def __init__(self, nodes, root: int, arcs, weights: dict[tuple[int, int], VariableGroup]):
        self.nodes: frozenset[int] = frozenset(nodes)
        self.root: int = root
        self.arcs: frozenset[tuple[int, int]] = frozenset(arcs)
        self.weights: dict[tuple[int, int], VariableGroup] = dict(weights)
        if self.root not in self.nodes:
            raise ValueError(f"root {root} not among nodes")
        for a in self.arcs:
            if a not in self.weights:
                raise ValueError(f"arc {a} has no weight")

    def weight(self, arc: tuple[int, int]) -> VariableGroup:
        return self.weights[arc]

    def sorted_arcs(self) -> list[tuple[int, int]]:
        return sorted(self.arcs)

    def to_json(self) -> str:
        """Dump as the digraph interchange format (consumable by the CLI)."""
        return json.dumps(
            {
                "nodes": sorted(self.nodes),
                "root": self.root,
                "arcs": [list(a) for a in self.sorted_arcs()],
            }
        )


def build_connection_graph(
    g: ShiftingGraph, m: Matching, report: ReachReport
) -> ConnectionGraph:
    """Condense alternating-path triples into weighted arcs.

    An arc (i, l) exists iff l is in the reach, i is any node of the graph
    other than l, and equation i touches l's matched group through a
    non-matching edge.  The exposed node always has in-degree 0.
    """
    j = report.exposed
    if not g.has_equation(j):
        raise InconsistentReport(f"exposed equation {j} not in graph")
    if m.is_matched(j):
        raise InconsistentReport(f"exposed equation {j} is matched")
    bad = {l for l in report.reached_eqs if not g.has_equation(l)}
    if bad:
        raise InconsistentReport(f"reached equations {sorted(bad)} not in graph")
    unmatched = {l for l in report.reached_eqs if not m.is_matched(l)}
    if unmatched:
        raise InconsistentReport(
            f"reached equations {sorted(unmatched)} are unmatched"
        )

    nodes = set(report.reached_eqs) | {j}
    arcs = set()
    weights: dict[tuple[int, int], VariableGroup] = {}
    for l in report.reached_eqs:
        v = m.group_of(l)
        for i in g.eqs_of(v):
            if i == l or i not in nodes:
                continue
            arc = (i, l)
            arcs.add(arc)
            weights[arc] = v
    return ConnectionGraph(nodes, j, arcs, weights)
