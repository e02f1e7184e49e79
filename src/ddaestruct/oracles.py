"""Reference checks for the pipeline's output, independent of how it is made.

None of these functions is on the pipeline's path.  They recompute or
check what the enumerator and the connection search produce, from the
definitions alone and at small sizes: exhaustive search over arc subsets,
the arborescence invariants, the defining properties of a connection, and
the translation and classification of one tree at a time.  Tests, the
naive baseline of `bench` and the CLI's `oracle` command use them.
"""

from __future__ import annotations

import itertools

from .arborescence import Arborescence, Digraph
from .connection_graph import ConnectionGraph
from .connections import EXPLICIT, IMPLICIT, Connection, Triple
from .errors import ArcNotInGraph, CapExceeded, RootNotInGraph
from .graphs import DdaeGraph, ShiftingGraph
from .matching import Matching, ReachReport


def validate_arborescence(t: Arborescence, g: Digraph) -> list[str]:
    """Check the arborescence invariants of t against its host graph g.

    Returns one message per violation; empty means t is a spanning
    arborescence of g rooted at t.root.
    """
    problems = []
    if t.root not in g.nodes:
        problems.append(f"root {t.root} not in graph")
        return problems
    if not t.arcs <= g.arcs:
        problems.append(f"arcs {sorted(t.arcs - g.arcs)} not in graph")
    if len(t.arcs) != len(g.nodes) - 1:
        problems.append(f"{len(t.arcs)} arcs for {len(g.nodes)} nodes")
    heads = [v for _, v in t.arcs]
    if len(set(heads)) != len(heads):
        problems.append("some node has two incoming arcs")
    if t.root in heads:
        problems.append("root has an incoming arc")
    children: dict = {}
    for u, v in t.arcs:
        children.setdefault(u, []).append(v)
    seen = {t.root}
    stack = [t.root]
    while stack:
        x = stack.pop()
        for y in children.get(x, ()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if seen != g.nodes:
        problems.append(f"nodes {sorted(g.nodes - seen)} unreachable from root")
    return problems


def brute_force_arborescences(g: Digraph, root, cap: int = 8) -> set[Arborescence]:
    """Independent oracle: test every (|V|-1)-subset of the arc set.

    Only feasible for small graphs, hence the node-count cap.
    """
    if root not in g.nodes:
        raise RootNotInGraph(f"root {root!r} not in graph")
    if len(g.nodes) > cap:
        raise CapExceeded(f"{len(g.nodes)} nodes exceeds cap {cap}")
    n = len(g.nodes)
    found = set()
    for sub in itertools.combinations(sorted(g.arcs), n - 1):
        t = Arborescence(root, frozenset(sub))
        if not validate_arborescence(t, g):
            found.add(t)
    return found


def tree_to_connection(t: Arborescence, h: ConnectionGraph) -> Connection:
    """Translate a spanning arborescence of the connection graph into triples."""
    triples = set()
    for arc in t.arcs:
        if arc not in h.arcs:
            raise ArcNotInGraph(f"arc {arc} not in connection graph")
        i, l = arc
        triples.add((i, h.weight(arc), l))
    return Connection(frozenset(triples))


def verify_connection(
    c: Connection,
    g: ShiftingGraph,
    m: Matching,
    j: int,
    reach: ReachReport,
) -> bool:
    """Check the defining properties of a connection directly on the triples.

    Independent of the arborescence machinery on purpose: every triple must
    be a genuine alternating path (non-matching edge into the group, the
    group's matching edge out), the covered equations must be exactly the
    reach with no repeats, at least one triple must start at j, and the
    triples must hang together without cycles.
    """
    nodes = set(reach.reached_eqs) | {j}
    for i, v, l in c.triples:
        if (i, v) not in g.edges:
            return False
        if m.group_of(i) == v:
            return False  # first edge must not be a matching edge
        if m.inverse.get(v) != l:
            return False  # second edge must be l's matching edge
        if i not in nodes:
            return False
    covered = [l for _, _, l in c.triples]
    if len(set(covered)) != len(covered):
        return False
    if set(covered) != set(reach.reached_eqs):
        return False
    if reach.reached_eqs and not any(i == j for i, _, _ in c.triples):
        return False
    # connectivity: |C| links on |C|+1 nodes form a tree iff they hang
    # together, which also rules out cycles
    links: dict[int, list[int]] = {x: [] for x in nodes}
    for i, _, l in c.triples:
        links[i].append(l)
        links[l].append(i)
    seen = {j}
    stack = [j]
    while stack:
        x = stack.pop()
        for y in links[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen == nodes


def shared_occurrences(
    triple: Triple, gd: DdaeGraph
) -> tuple:
    """Concrete occurrences of the triple's group adjacent to both equations."""
    i, v, l = triple
    common = set(gd.occurrences_of(i)).intersection(gd.occurrences_of(l))
    return tuple(sorted(o for o in common if o.var_index == v.var_index and o.shift == v.shift))


def classify_connection(c: Connection, gd: DdaeGraph) -> str:
    """EXPLICIT iff every triple is witnessed by a shared concrete occurrence.

    A triple (i, (k, p), l) is witnessed when some occurrence (k, p, q) is
    adjacent to both equations in the occurrence graph; otherwise the link
    exists only through the group and the connection is IMPLICIT.
    """
    for triple in c.triples:
        if not shared_occurrences(triple, gd):
            return IMPLICIT
    return EXPLICIT
