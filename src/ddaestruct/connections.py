"""Finding and classifying all connections for an exposed equation.

A connection is a set of alternating-path triples (from_eq, group, to_eq)
that covers every equation reachable from the exposed node exactly once,
hangs together, and starts at the exposed node.  Connections correspond
one-to-one to the spanning arborescences of the connection graph rooted at
the exposed node, which is how they are enumerated here: build the
connection graph, stream its arborescences, translate each tree arc back
into a triple using the arc weight.  The per-tree reference checks
(`verify_connection`, `classify_connection`) live in `oracles`.

A connection that exists group-wise may still fail to exist occurrence-wise
(the linking variable appears in the two equations only at different
derivative orders); such connections are *implicit* and are exactly the
ones that force differentiation in the enclosing structural analysis.
Whether a triple is witnessed by a shared occurrence depends only on its
arc, so the class is decided once per arc and a tree is explicit exactly
when all of its arcs are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .arborescence import GrowRun
from .connection_graph import build_connection_graph
from .graphs import DdaeGraph, ShiftingGraph, VariableGroup
from .matching import Matching, alternating_reach

EXPLICIT = "explicit"
IMPLICIT = "implicit"

Triple = tuple[int, VariableGroup, int]


@dataclass(frozen=True)
class Connection:
    """A set of alternating-path triples covering the reach exactly once."""

    triples: frozenset[Triple]

    def sorted_triples(self) -> list[Triple]:
        """Canonical order: ascending by covered (to) equation."""
        return sorted(self.triples, key=lambda t: (t[2], t[0]))

    def __len__(self) -> int:
        return len(self.triples)


@dataclass(frozen=True)
class ConnectionReport:
    """All connections for one exposed equation, with parallel classes."""

    exposed: int
    connections: tuple[Connection, ...]
    classes: tuple[str, ...]

    def __post_init__(self):
        if len(self.connections) != len(self.classes):
            raise ValueError("connections and classes must have equal length")


class ConnectionSearch:
    """The stages from an exposed equation to its stream of trees, composed once.

    Alternating reach, connection graph and enumeration run, plus tables
    indexed by the run's arc index (`run.arcs`), each built once per
    graph: `triples[a]` is arc a's triple, and `implicit` holds the arcs
    whose triple no shared occurrence witnesses (None without an
    occurrence graph).  Whether a triple is witnessed depends only on its
    arc, so a tree is explicit exactly when it uses no arc of `implicit`:
    a visitor of `run.execute` decides the class of a tree, and builds
    whatever output it needs, from the parent array alone.
    """

    def __init__(
        self,
        g: ShiftingGraph,
        m: Matching,
        j: int,
        gd: DdaeGraph | None = None,
    ):
        h = build_connection_graph(g, m, alternating_reach(g, m, j))
        self.run = GrowRun(h, j)
        self.triples: list[Triple] = [(i, m.pairs[l], l) for i, l in self.run.arcs]
        self.implicit: frozenset[int] | None = None
        if gd is not None:
            self.implicit = _implicit_arcs(self.triples, h.nodes, gd)

    def connection(self, parent: list[int]) -> Connection:
        """The connection of the tree a visitor was handed."""
        triples = self.triples
        return Connection(frozenset([triples[a] for a in parent if a >= 0]))

    def class_of(self, parent: list[int]) -> str:
        """EXPLICIT iff the tree uses no implicit arc; needs an occurrence graph."""
        return EXPLICIT if self.implicit.isdisjoint(parent) else IMPLICIT


def _implicit_arcs(triples: list[Triple], nodes, gd: DdaeGraph) -> frozenset[int]:
    """Indices of the triples whose group occurs in its two equations only
    at different derivative orders."""
    derivs: dict[tuple[int, int, int], set[int]] = {}
    for x in nodes:
        for o in gd.occurrences_of(x):
            derivs.setdefault((x, o.var_index, o.shift), set()).add(o.deriv)
    none: frozenset[int] = frozenset()
    return frozenset(
        a
        for a, (i, v, l) in enumerate(triples)
        if derivs.get((i, v.var_index, v.shift), none).isdisjoint(
            derivs.get((l, v.var_index, v.shift), none)
        )
    )


def find_all_connections(
    g: ShiftingGraph,
    m: Matching,
    j: int,
    visitor: Callable[[Connection], None] | None = None,
    limit: int | None = None,
) -> int:
    """Stream every connection for the exposed equation j to the visitor.

    When the reach is empty the trivial single-node tree yields exactly
    one empty connection.  Returns the number of connections emitted.
    """
    search = ConnectionSearch(g, m, j)
    on_tree = None
    if visitor is not None:
        def on_tree(parent: list[int]) -> None:
            visitor(search.connection(parent))
    return search.run.execute(visitor=on_tree, limit=limit)


def collect_connections(
    g: ShiftingGraph,
    m: Matching,
    j: int,
    gd: DdaeGraph | None = None,
    limit: int | None = None,
) -> ConnectionReport:
    """Materialize all connections for j, classifying them when gd is given."""
    search = ConnectionSearch(g, m, j, gd)
    found: list[Connection] = []
    classes: list[str] = []

    def on_tree(parent: list[int]) -> None:
        found.append(search.connection(parent))
        classes.append("" if gd is None else search.class_of(parent))

    search.run.execute(visitor=on_tree, limit=limit)
    return ConnectionReport(j, tuple(found), tuple(classes))
