"""Enumeration of all spanning arborescences of a digraph from a fixed root.

The enumerator grows a rooted subtree depth-first.  A frontier stack holds
the arcs leading from the current subtree to outside nodes; the top arc is
repeatedly popped, added to the tree, and all completions of the enlarged
tree are enumerated recursively.  Afterwards the arc is deleted from the
working graph and the next frontier arc is tried, until the arc just
deleted turns out to be a *bridge*: an arc contained in every remaining
spanning arborescence, recognisable because after its deletion no other
arc enters its head from a nondescendant of that head in the most recently
emitted tree.  Deleted arcs are journalled and restored on the way out, so
the working graph is back to the input when the run finishes.

The level that adds the last node takes a shortcut.  There the subtree
spans all nodes but one, v, so every frontier arc enters v and completes
exactly one tree.  The general step would pop each arc in turn, drop the
others from the frontier, emit the one completion, put them back, delete
the arc and walk the parent chain of each remaining in-arc of v to the
root, only to learn what is known in advance: v has no descendants, so an
arc is a bridge exactly when no other in-arc of v is left, which first
happens at the bottom arc.  The shortcut instead sets `parent[v]` to each
frontier arc from the top of the stack down and emits the tree, leaving
the frontier, the working graph and the journals untouched.  It emits the
same trees in the same order, stops at the same points (a stop above the
bottom arc leaves trees unemitted), and leaves the last emitted tree in
`parent` for the bridge tests of the outer levels, at O(1) per tree
instead of O(in-degree of v * depth).  The empty frontier of a spanning
subtree is then never reached, except by the single-node graph, which is
settled before the first level.

Three properties of the bookkeeping are load-bearing:

* growth is depth-first (new frontier arcs are pushed on top, so the next
  pop extends the deepest leaf), which guarantees the last emitted tree has
  the fewest descendants below the tested arc's head and makes the
  nondescendant bridge test sound; the last-node shortcut keeps this,
  because what it leaves in `parent` is the last tree emitted;
* frontier arcs invalidated by a tree extension (arcs pointing at the node
  just added) are removed from the middle of the stack and later reinserted
  at the exact positions they were removed from;
* a count-only run allocates nothing per tree: the undo journals are
  shared by all levels, the stacks are preallocated so they never shrink
  and regrow, no exception or iterator object is made in the hot loop (the
  last-node shortcut only indexes the frontier stack), and the tree
  counter is kept in base-256 digits (past about a hundred arcs, stack
  positions outgrow CPython's cached ints 0..256 and cost an int object
  each).  Under `tracemalloc` every allocation costs a traceback,
  whose line number is found by scanning the enumerator's code up to the
  allocating instruction, so a few allocations per tree made the traced
  count of acceptance criterion 8 (4.78M trees) about 14 times slower than
  the untraced one.

Memory is proportional to the arc count, never to the number of trees: a
visitor sees each tree as the live array of its nodes' in-arc indices,
and whatever it keeps it builds itself (`GrowRun.arborescence` turns the
array into an `Arborescence`).

Two independent oracles are provided for verification: exhaustive search
over arc subsets, and the in-degree Laplacian minor determinant evaluated
in exact integer arithmetic.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable

from .errors import CapExceeded, RootNotInGraph


class Digraph:
    """Simple digraph: hashable node ids, at most one arc per ordered pair."""

    def __init__(self, nodes, arcs):
        self.nodes = frozenset(nodes)
        self.arcs: frozenset[tuple] = frozenset(arcs)
        for u, v in self.arcs:
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) not allowed")
            if u not in self.nodes or v not in self.nodes:
                raise ValueError(f"arc ({u}, {v}) has an endpoint outside the node set")

    def __eq__(self, other):
        return (
            isinstance(other, Digraph)
            and self.nodes == other.nodes
            and self.arcs == other.arcs
        )

    def __hash__(self):
        return hash((self.nodes, self.arcs))


@dataclass(frozen=True)
class Arborescence:
    """A spanning out-tree: every node reachable from the root, unique in-arcs."""

    root: object
    arcs: frozenset[tuple]

    def sorted_arcs(self) -> list[tuple]:
        return sorted(self.arcs)


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


def descendants(tree: Arborescence, v) -> frozenset:
    """Nodes reachable from v (v included) using only arcs of the tree."""
    children: dict = {}
    nodes = {tree.root}
    for a, b in tree.arcs:
        children.setdefault(a, []).append(b)
        nodes.add(a)
        nodes.add(b)
    if v not in nodes:
        raise ValueError(f"{v} is not a node of the tree")
    seen = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        for y in children.get(x, ()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return frozenset(seen)


def is_bridge(g: Digraph, e: tuple, last_tree: Arborescence) -> bool:
    """Decide whether e = (u, v) was a bridge when it was deleted.

    g is the working graph with e (and all previously processed arcs)
    already removed; last_tree is the most recently emitted tree.  e was a
    bridge iff no remaining arc enters v from a nondescendant of v in
    last_tree.  Sound only under the enumerator's depth-first growth order.
    """
    _, v = e
    desc = descendants(last_tree, v)
    for u2, v2 in g.arcs:
        if v2 == v and (u2, v2) != e and u2 not in desc:
            return False
    return True


class GrowRun:
    """One enumeration run over a digraph, with inspectable working state.

    Splitting construction from execution lets callers (and tests) look at
    the working graph after a run: `working_arcs()` must equal the input
    arc set once `execute` returns, whatever the stop reason.

    Nodes are indexed by their position in `node_ids` (sorted ids) and arcs
    by their position in `arcs` (sorted pairs); callers key per-arc tables
    by that arc index.
    """

    def __init__(self, g: Digraph, root):
        if root not in g.nodes:
            raise RootNotInGraph(f"root {root!r} not in graph")
        self.graph = g
        self.root = root
        self.node_ids = sorted(g.nodes)
        self._idx = {x: i for i, x in enumerate(self.node_ids)}
        self._n = len(self.node_ids)
        arc_list = sorted(g.arcs)
        self.arcs: list[tuple] = arc_list
        self._tail = [self._idx[u] for u, _ in arc_list]
        self._head = [self._idx[v] for _, v in arc_list]
        self._out: list[list[int]] = [[] for _ in range(self._n)]
        self._in: list[list[int]] = [[] for _ in range(self._n)]
        for a, (u, v) in enumerate(arc_list):
            self._out[self._idx[u]].append(a)
            self._in[self._idx[v]].append(a)
        self._alive = [True] * len(arc_list)
        self.count = 0
        self.stopped: str | None = None

    def working_arcs(self) -> frozenset[tuple]:
        """Arc set of the working graph (all arcs once a run has unwound)."""
        return frozenset(
            arc for a, arc in enumerate(self.arcs) if self._alive[a]
        )

    def arborescence(self, parent: list[int]) -> Arborescence:
        """The tree whose node x (by index) enters through arc parent[x].

        parent is the array a visitor receives; the root's entry is -1.
        """
        arcs = self.arcs
        return Arborescence(self.root, frozenset(arcs[a] for a in parent if a >= 0))

    def execute(
        self,
        visitor: Callable[[list[int]], None] | None = None,
        limit: int | None = None,
        deadline: float | None = None,
        bridge_hook: Callable | None = None,
    ) -> int:
        """Enumerate; returns the number of trees emitted.

        visitor, if given, is called once per spanning arborescence with
        the live `parent` array: parent[x] is the index (into `arcs`) of
        the in-arc of the node with index x, and -1 at the root.  The array
        is reused and changes once the visitor returns, so a visitor that
        keeps a tree copies it or calls `arborescence(parent)`.
        limit stops the run cleanly after that many trees; deadline (a
        time.monotonic() point) stops it when the clock passes; either way
        the working graph is fully restored.  `stopped` then names the
        reason, or stays None when the stop came at the last tree and
        nothing was cut off.  bridge_hook, for white-box testing, is called
        as hook(arc, tree_arcs, remaining_arcs) whenever a level that ran
        to its end finds its bridge.
        """
        n = self._n
        r = self._idx[self.root]
        head = self._head
        tail = self._tail
        out_arcs = self._out
        in_arcs = self._in
        alive = self._alive
        self.count = 0
        self.stopped = None
        if limit is not None and limit <= 0:
            self.stopped = "limit"
            return 0

        # no spanning arborescence unless every node is reachable from the root
        seen = {r}
        stack = [r]
        while stack:
            x = stack.pop()
            for a in out_arcs[x]:
                y = head[a]
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != n:
            return 0

        in_tree = [False] * n
        in_tree[r] = True
        # parent[x] is x's in-arc in the subtree while x is in it, and in the
        # most recently emitted tree once x has been detached: every
        # extension emits at least one tree before the next bridge test, so
        # the bridge test can walk this array in place of a copy of the last
        # tree
        parent = [-1] * n
        if n == 1:
            # the root alone is the one tree, and no level runs
            if visitor is not None:
                visitor(parent)
            self.count = 1
            return 1
        last = n - 1
        m = len(head)
        # frontier stack; F_head mirrors the arc heads so that membership
        # scans run at C speed.  A frontier holds distinct arcs from the
        # subtree to the rest, so never more than min(m, n*n/4) of them.
        frontier_cap = min(m, n * n // 4)
        F = _padded_stack(frontier_cap)
        F_head = _padded_stack(frontier_cap)
        fbase = len(F)
        # journals shared by all levels: arcs deleted from the working
        # graph, and frontier arcs removed by an extension with their
        # positions
        dead = _padded_stack(m)
        moved_pos = _padded_stack(m)
        moved_arc = _padded_stack(m)
        for a in reversed(out_arcs[r]):
            F.append(a)
            F_head.append(head[a])

        # the tree count is hi * 256 + lo, so that counting creates no int
        # object below 65536 trees and one per 256 trees above
        lo = hi = 0
        lim_hi, lim_lo = divmod(limit, 256) if limit is not None else (-1, -1)
        stop: str | None = None
        cut = False  # the stop left trees unemitted

        def grow(size: int) -> None:
            # size is the number of nodes in the subtree
            nonlocal lo, hi, stop, cut
            if size == last:
                # every frontier arc enters the one node v left outside, and
                # each finishes a tree: emit them in pop order, leaving the
                # frontier and the working graph as they are
                v = F_head[-1]
                k = len(F)
                while k > fbase:
                    k -= 1
                    parent[v] = F[k]
                    lo += 1
                    if lo == 256:
                        lo = 0
                        hi += 1
                    if visitor is not None:
                        visitor(parent)
                    if lo == lim_lo and hi == lim_hi:
                        stop = "limit"
                    elif deadline is not None and time.monotonic() >= deadline:
                        stop = "deadline"
                    else:
                        continue
                    if k > fbase:
                        cut = True
                    return
                if bridge_hook is not None:
                    # the bottom arc is this level's bridge, found with all
                    # of the level's arcs deleted
                    level = F[fbase:]
                    for a in level:
                        alive[a] = False
                    try:
                        bridge_hook(
                            self.arcs[level[0]],
                            self._current_tree_arcs(in_tree, parent, r),
                            self.working_arcs(),
                        )
                    finally:
                        for a in level:
                            alive[a] = True
                return
            ndead = 0
            while True:
                e = F.pop()
                v = F_head.pop()
                # add e to the tree
                in_tree[v] = True
                parent[v] = e
                # drop frontier arcs now pointing into the tree, remembering
                # their positions
                nmoved = i = F_head.count(v)
                k = fbase
                while i:
                    k = F_head.index(v, k)
                    moved_pos.append(k)
                    moved_arc.append(F.pop(k))
                    del F_head[k]
                    i -= 1
                # push the new leaf's outgoing arcs, deepest-first; all of
                # them are alive, because arcs are deleted only while their
                # tail is in the subtree
                base = len(F)
                outs = out_arcs[v]
                i = len(outs)
                while i:
                    i -= 1
                    a = outs[i]
                    if not in_tree[head[a]]:
                        F.append(a)
                        F_head.append(head[a])

                grow(size + 1)

                # undo this extension: pop what we pushed, reinsert what we
                # removed at the recorded positions, detach the leaf
                del F[base:]
                del F_head[base:]
                i = nmoved
                while i:
                    k = moved_pos.pop()
                    F.insert(k, moved_arc.pop())
                    F_head.insert(k, v)
                    i -= 1
                in_tree[v] = False
                # delete e from the working graph; it was the last way into
                # v if every other live arc into v leaves a descendant of v
                # in the last tree
                alive[e] = False
                ins = in_arcs[v]
                i = len(ins)
                while i:
                    i -= 1
                    a = ins[i]
                    if alive[a]:
                        x = tail[a]
                        while x != v and x != r:
                            x = tail[parent[x]]
                        if x != v:
                            bridge = False  # a enters v from a nondescendant
                            break
                else:
                    bridge = True
                if stop is not None:
                    # aborted runs restore e instead of processing it
                    # further; trees remain if the run would have gone on
                    alive[e] = True
                    F.append(e)
                    F_head.append(v)
                    if not bridge:
                        cut = True
                    break
                dead.append(e)
                ndead += 1
                if bridge:
                    if bridge_hook is not None:
                        bridge_hook(
                            self.arcs[e],
                            self._current_tree_arcs(in_tree, parent, r),
                            self.working_arcs(),
                        )
                    break
            # put every arc deleted at this level back
            while ndead:
                a = dead.pop()
                F.append(a)
                F_head.append(head[a])
                alive[a] = True
                ndead -= 1

        try:
            grow(1)
        finally:
            # a visitor that raises unwinds the levels without their undo;
            # the journal still names every arc they deleted
            while dead[-1] >= 0:
                alive[dead.pop()] = True
        self.count = hi * 256 + lo
        self.stopped = stop if cut else None
        return self.count

    def _current_tree_arcs(
        self, in_tree: list[bool], parent: list[int], r: int
    ) -> frozenset[tuple]:
        ids = self.node_ids
        tail = self._tail
        return frozenset(
            (ids[tail[parent[x]]], ids[x])
            for x in range(self._n)
            if x != r and in_tree[x]
        )


def _padded_stack(capacity: int) -> list[int]:
    """An empty int stack that holds `capacity` entries without reallocating.

    The list is allocated at twice its padding of -1 entries and then cut
    back to the padding, so under CPython's list growth policy it never
    grows past its allocation nor shrinks below half of it while it holds
    at most `capacity` entries above the padding.  The padding also reads as
    a negative top when the stack is empty.
    """
    pad = capacity + 1
    stack = [-1] * (2 * pad)
    del stack[pad:]
    return stack


def enumerate_arborescences(
    g: Digraph,
    root,
    visitor: Callable[[Arborescence], None] | None = None,
    limit: int | None = None,
) -> int:
    """Stream every spanning arborescence of g rooted at root to the visitor.

    Returns the number of trees found (or emitted before `limit` struck).
    The input graph is never modified.
    """
    run = GrowRun(g, root)
    on_tree = None
    if visitor is not None:
        def on_tree(parent: list[int]) -> None:
            visitor(run.arborescence(parent))
    return run.execute(visitor=on_tree, limit=limit)


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


def count_arborescences(g: Digraph, root) -> int:
    """Count spanning arborescences exactly via the in-degree Laplacian.

    The determinant of the Laplacian with the root's row and column removed
    equals the number of spanning out-trees from the root; it is evaluated
    with fraction-free (Bareiss) elimination over Python integers, so the
    result is exact at any size.
    """
    if root not in g.nodes:
        raise RootNotInGraph(f"root {root!r} not in graph")
    order = sorted(x for x in g.nodes if x != root)
    pos = {x: i for i, x in enumerate(order)}
    m = len(order)
    if m == 0:
        return 1
    mat = [[0] * m for _ in range(m)]
    for u, v in g.arcs:
        if v == root:
            continue
        j = pos[v]
        mat[j][j] += 1  # in-degree on the diagonal
        if u != root:
            mat[pos[u]][j] -= 1
    return _bareiss_det(mat)


def _bareiss_det(mat: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free Gaussian elimination."""
    m = len(mat)
    sign = 1
    prev = 1
    for k in range(m - 1):
        if mat[k][k] == 0:
            for r in range(k + 1, m):
                if mat[r][k] != 0:
                    mat[k], mat[r] = mat[r], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = mat[k][k]
        for i in range(k + 1, m):
            row_i = mat[i]
            row_k = mat[k]
            lead = row_i[k]
            for j in range(k + 1, m):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * mat[m - 1][m - 1]
