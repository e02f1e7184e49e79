"""Directed connection graph for one exposed equation.

Every alternating-path triple (F_i, group, F_l) with the first edge outside
the matching and the second edge inside it is condensed to a directed arc
i -> l between equation nodes.  The group is not stored per arc: it is the
head's matched group, so an arc's weight is read from the matching.  The
node set is the exposed equation plus its alternating-path reach, nothing
more, and the arcs are the steps of that reach's walk (`ReachReport.arcs`);
the graph is the `Digraph` the enumerator runs on.
"""

from __future__ import annotations

import json
from typing import Mapping

from .arborescence import Digraph
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
    """The connection graph of a reach: its walk's steps, weighted by `m`.

    An arc (i, l) exists iff i is a node of the graph, l != i is in the
    reach, and equation i touches l's matched group.  The exposed node
    always has in-degree 0.  `g` is not read: the report already holds the
    arcs.
    """
    j = report.exposed
    return ConnectionGraph(report.reached_eqs | {j}, j, report.arcs, m.pairs)
