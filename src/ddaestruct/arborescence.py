"""Enumeration of all spanning arborescences of a digraph from a fixed root.

The enumerator (Gabow & Myers, SIAM J. Comput. 7(3), 1978) grows a rooted
subtree depth-first.  A frontier stack holds the arcs leading from the
current subtree to outside nodes; the top arc is repeatedly popped, added
to the tree, and all completions of the enlarged tree are enumerated.
Afterwards the arc is deleted from the working graph and the next frontier
arc is tried, until the arc just deleted turns out to be a *bridge*: an
arc contained in every remaining spanning arborescence, recognisable
because after its deletion no other arc enters its head from a
nondescendant of that head in the most recently emitted tree.  Deleted
arcs are journalled and restored on the way out, so the working graph is
back to the input when the run finishes.

The levels run as one loop in `execute`'s own frame, not as recursive
calls: each level above the leaf keeps its arc, the arc's head, the
frontier length after its extension, the number of frontier arcs that
extension removed and the number of arcs it has deleted in preallocated
per-depth int lists.  A tree of any depth therefore enumerates in the
interpreter's stack space of one call.

The level that leaves two nodes outside is the leaf, and it emits its
trees in closed form.  Adding a frontier arc e into v leaves one node w
outside, and the completions are: w hung from v (if there is an arc v ->
w), then w hung from each frontier arc into w, top of the stack down,
which is the order in which the general step would pop them.  No
extension, undo or parent-chain walk is needed, because the bridge test
is known in advance too: nothing hangs below v but possibly w, so e is a
bridge exactly when no other frontier arc enters v and either there is no
arc w -> v or the last tree emitted hangs w from v.  The two outside
nodes come from the xor of all outside nodes, which each extension keeps
up to date, and the arcs between them are found once per leaf by binary
search in their out-arcs, which are sorted by head.  Graphs of one or two
nodes have at most one tree and are settled before the loop.

Finding the frontier arcs that an extension invalidates (those entering
the node just added) is a scan of the frontier's part of its stack, with
the node pushed on top as a sentinel, so it never reads the padding below
(see `_padded_stack`); a scan of the whole list would cost O(arcs) per
extension, quadratic on a long path.

Three properties of the bookkeeping are load-bearing:

* growth is depth-first (new frontier arcs are pushed on top, so the next
  pop extends the deepest leaf), which guarantees the last emitted tree has
  the fewest descendants below the tested arc's head and makes the
  nondescendant bridge test sound; the leaf keeps this, because what it
  leaves in `parent` is the last tree emitted;
* frontier arcs invalidated by a tree extension (arcs pointing at the node
  just added) are removed from the middle of the stack and later reinserted
  at the exact positions they were removed from;
* a count-only run allocates nothing per tree: the undo journals are
  shared by all levels, the stacks are preallocated so they never shrink
  and regrow, no exception or iterator object is made in the hot loop (the
  leaf only indexes the frontier stack), and the tree counter is kept in
  base-256 digits (past about a hundred arcs, stack positions outgrow
  CPython's cached ints 0..256 and cost an int object each).  Under
  `tracemalloc` every allocation costs a traceback, whose line number is
  found by scanning the enumerator's code up to the allocating
  instruction, so a few allocations per tree made the traced count of
  acceptance criterion 8 (4.78M trees) about 14 times slower than the
  untraced one.

Memory is proportional to the arc count, never to the number of trees: a
visitor sees each tree as the live array of its nodes' in-arc indices,
and whatever it keeps it builds itself (`GrowRun.arborescence` turns the
array into an `Arborescence`).

`count_arborescences` counts the trees without enumerating them, as the
in-degree Laplacian minor determinant evaluated in exact integer
arithmetic, after contracting the arcs that every tree holds.  The
exhaustive oracle and the invariant checker are in `oracles`.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

from .errors import RootNotInGraph


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


@dataclass(frozen=True)
class Arborescence:
    """A spanning out-tree: every node reachable from the root, unique in-arcs."""

    root: object
    arcs: frozenset[tuple]

    def sorted_arcs(self) -> list[tuple]:
        return sorted(self.arcs)


class GrowRun:
    """One enumeration run over a digraph, with inspectable working state.

    Splitting construction from execution lets callers look at the working
    graph after a run: `working_arcs()` must equal the input arc set once
    `execute` returns, whatever the stop reason.

    Nodes are indexed by their position in `node_ids` (sorted ids) and arcs
    by their position in `arcs` (sorted pairs); callers key per-arc tables
    by that arc index.
    """

    def __init__(self, g: Digraph, root):
        if root not in g.nodes:
            raise RootNotInGraph(f"root {root!r} not in graph")
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
        nothing was cut off.
        """
        n = self._n
        r = self._idx[self.root]
        head = self._head
        tail = self._tail
        out_arcs = self._out
        in_arcs = self._in
        alive = self._alive
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
        if n <= 2:
            # the root alone, or the root and its one arc to the other
            # node: one tree, and no level runs
            if n == 2:
                a = out_arcs[r][0]
                parent[head[a]] = a
            if visitor is not None:
                visitor(parent)
            return 1

        ox = r  # the xor of the nodes outside the subtree
        for x in range(n):
            ox ^= x
        head_of = head.__getitem__
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

        # level d extends a subtree of d + 1 nodes; the leaf level, whose
        # subtree leaves two nodes outside, is n - 3.  Per level above it:
        # the arc being tried and its head, the frontier length after that
        # extension's removals, their number, and the arcs deleted so far
        leaf = n - 3
        E = [0] * leaf
        V = [0] * leaf
        B = [0] * leaf
        M = [0] * leaf
        D = [0] * (leaf + 1)
        # the tree count is hi * 256 + lo, so that counting creates no int
        # object below 65536 trees and one per 256 trees above
        lo = hi = 0
        lim_hi, lim_lo = divmod(limit, 256) if limit is not None else (-1, -1)
        stop: str | None = None
        cut = False  # the stop left trees unemitted
        d = 0
        try:
            while d >= 0:
                # descend: extend by the top frontier arc, level by level,
                # until two nodes are left outside
                while d < leaf:
                    e = F.pop()
                    v = F_head.pop()
                    in_tree[v] = True
                    parent[v] = e
                    ox ^= v
                    # drop frontier arcs now pointing into the tree,
                    # remembering their positions; v on top is a sentinel,
                    # so the scans stop there and never read the padding
                    nmoved = 0
                    F_head.append(v)
                    k = F_head.index(v, fbase)
                    while k < len(F):
                        moved_pos.append(k)
                        moved_arc.append(F.pop(k))
                        del F_head[k]
                        nmoved += 1
                        k = F_head.index(v, k)
                    F_head.pop()
                    # push the new leaf's outgoing arcs, deepest-first; all
                    # of them are alive, because arcs are deleted only while
                    # their tail is in the subtree
                    base = len(F)
                    outs = out_arcs[v]
                    i = len(outs)
                    while i:
                        i -= 1
                        a = outs[i]
                        if not in_tree[head[a]]:
                            F.append(a)
                            F_head.append(head[a])
                    E[d] = e
                    V[d] = v
                    B[d] = base
                    M[d] = nmoved
                    d += 1
                    D[d] = 0

                # the leaf level: nodes x and y are outside, and every
                # frontier arc enters one of them.  Adding the top arc e,
                # into v, leaves w outside, and the trees through e are w
                # hung from v, then from each frontier arc into w, top down
                x = F_head[-1]
                y = ox ^ x
                outs = out_arcs[x]
                p = bisect_left(outs, y, key=head_of)
                xy = outs[p] if p < len(outs) and head[outs[p]] == y else -1
                outs = out_arcs[y]
                p = bisect_left(outs, x, key=head_of)
                yx = outs[p] if p < len(outs) and head[outs[p]] == x else -1
                nd = 0
                while True:
                    e = F.pop()
                    v = F_head.pop()
                    parent[v] = e
                    if v == x:
                        w = y
                        vw = xy
                        wv = yx
                    else:
                        w = x
                        vw = yx
                        wv = xy
                    if vw >= 0:
                        F.append(vw)
                        F_head.append(w)
                    into_v = False  # another frontier arc enters v
                    k = len(F)
                    while k > fbase:
                        k -= 1
                        if F_head[k] != w:
                            into_v = True
                            continue
                        parent[w] = F[k]
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
                        break
                    if vw >= 0:
                        F.pop()
                        F_head.pop()
                    # e is a bridge when no other arc enters v from a
                    # nondescendant of v in the last tree: none from the
                    # subtree, and w -> v only while w hangs from v
                    bridge = not into_v and (wv < 0 or parent[w] == vw)
                    if stop is not None:
                        # arcs below the stop are trees into w or other
                        # ways into v: either way trees are left
                        if k > fbase or not bridge:
                            cut = True
                        F.append(e)
                        F_head.append(v)
                        break
                    alive[e] = False
                    dead.append(e)
                    nd += 1
                    if bridge:
                        break
                D[d] = nd

                # ascend: put back every arc the finished level deleted, then
                # undo the extension of the level above, delete its arc from
                # the working graph and test whether it was a bridge
                while True:
                    i = D[d]
                    while i:
                        a = dead.pop()
                        F.append(a)
                        F_head.append(head[a])
                        alive[a] = True
                        i -= 1
                    d -= 1
                    if d < 0:
                        break  # the root level is done
                    e = E[d]
                    v = V[d]
                    # pop what the extension pushed, reinsert what it
                    # removed at the recorded positions, detach the leaf
                    base = B[d]
                    del F[base:]
                    del F_head[base:]
                    i = M[d]
                    while i:
                        k = moved_pos.pop()
                        F.insert(k, moved_arc.pop())
                        F_head.insert(k, v)
                        i -= 1
                    in_tree[v] = False
                    ox ^= v
                    # e was the last way into v if every other live arc
                    # into v leaves a descendant of v in the last tree
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
                    else:
                        dead.append(e)
                        D[d] += 1
                        if not bridge:
                            break  # level d goes on with its next arc
        finally:
            # a visitor that raises leaves the levels without their undo;
            # the journal still names every arc they deleted
            while dead[-1] >= 0:
                alive[dead.pop()] = True
        self.stopped = stop if cut else None
        return hi * 256 + lo


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


def count_arborescences(g: Digraph, root) -> int:
    """Count spanning arborescences exactly via the in-degree Laplacian.

    The determinant of the Laplacian with the root's row and column removed
    equals the number of spanning out-trees from the root; it is evaluated
    with fraction-free (Bareiss) elimination over Python integers, so the
    result is exact at any size.

    The elimination is cubic in the node count, so forced arcs are taken
    out first.  A non-root node x whose in-arcs all come from one node u
    is entered from u in every tree, so the count is the number of those
    arcs times the count of the graph with x contracted into u (x's
    out-arcs become u's, an arc back to u disappears).  Contractions
    repeat until no such node is left, keeping parallel arcs as
    multiplicities, so a chain collapses into its first node before any
    elimination.
    """
    if root not in g.nodes:
        raise RootNotInGraph(f"root {root!r} not in graph")
    # preds[x][u] and succs[u][x]: the number of arcs u -> x, for x != root;
    # succs is read only by the contractions
    preds: dict = {x: {} for x in g.nodes if x != root}
    for u, v in g.arcs:
        if v != root:
            preds[v][u] = 1
    factor = 1
    todo = [x for x, ins in preds.items() if len(ins) <= 1]
    if todo:
        succs: dict = {x: {} for x in g.nodes}
        for x, ins in preds.items():
            for u in ins:
                succs[u][x] = 1
    while todo:
        x = todo.pop()
        ins = preds.get(x)
        if ins is None or len(ins) > 1:
            continue  # contracted already, or entered from two nodes again
        if not ins:
            return 0  # a non-root node with no way in
        (u, k), = ins.items()
        factor *= k
        del preds[x]
        outs = succs.pop(x)
        del succs[u][x]
        for y, c in outs.items():
            into_y = preds[y]
            del into_y[x]
            if y != u:
                into_y[u] = into_y.get(u, 0) + c
                succs[u][y] = succs[u].get(y, 0) + c
            if len(into_y) <= 1:
                todo.append(y)
    order = sorted(preds)
    pos = {x: i for i, x in enumerate(order)}
    m = len(order)
    if m == 0:
        return factor
    mat = [[0] * m for _ in range(m)]
    for v, ins in preds.items():
        j = pos[v]
        for u, c in ins.items():
            mat[j][j] += c  # in-degree on the diagonal
            if u != root:
                mat[pos[u]][j] -= c
    return factor * _bareiss_det(mat)


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
