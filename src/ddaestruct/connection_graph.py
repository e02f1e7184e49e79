"""Directed connection graph for one exposed equation.

Every alternating-path triple (F_i, group, F_l) with the first edge outside
the matching and the second edge inside it is condensed to a directed arc
i -> l between equation nodes.  The group is not stored per arc: it is the
head's matched group, so an arc's weight is read from the matching.  The
node set is the exposed equation plus its alternating-path reach, nothing
more, and the graph is the `Digraph` the enumerator runs on.
"""

from __future__ import annotations

import json
from typing import Mapping

from .arborescence import Digraph
from .errors import InconsistentReport
from .graphs import ShiftingGraph, VariableGroup
from .matching import Matching, ReachReport


class ConnectionGraph(Digraph):
    """Digraph on C u {exposed} whose arcs carry the connecting group.

    `matched` maps each equation to its matched group (a matching's
    `pairs`); the weight of arc (i, l) is `matched[l]`.
    """

    def __init__(self, nodes, root: int, arcs, matched: Mapping[int, VariableGroup]):
        super().__init__(nodes, arcs)
        if root not in self.nodes:
            raise ValueError(f"root {root} not among nodes")
        self.root: int = root
        self._matched = matched

    def weight(self, arc: tuple[int, int]) -> VariableGroup:
        return self._matched[arc[1]]

    def to_json(self) -> str:
        """Dump as the digraph interchange format (consumable by the CLI)."""
        return json.dumps(
            {
                "nodes": sorted(self.nodes),
                "root": self.root,
                "arcs": [list(a) for a in sorted(self.arcs)],
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
    for l in report.reached_eqs:
        for i in g.eqs_of(m.group_of(l)):
            if i == l or i not in nodes:
                continue
            arcs.add((i, l))
    return ConnectionGraph(nodes, j, arcs, m.pairs)
