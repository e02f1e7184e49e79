"""Seeded inputs for the benchmark workloads, with their oracle answers.

Three generators, one per workload:

* `count_graphs`: the connection graphs of the three scenario families of
  `generate_scenario`, with node ids redrawn from the seed.  The redraw is
  monotone, so the enumerator visits nodes and arcs in the same order as
  on the canonical numbering.  The enumerator's speed depends on that
  order by up to 1.7x (a random relabelling of banded n=13 runs at 80k to
  110k trees/s), so a random order would make the figure depend on the
  seed rather than on the code.
* `scenario_documents`: the same families written out as DDAE documents.
  Every incidence edge becomes one or two occurrences with seeded
  derivative orders, redrawn until 40-60% of the document's connections
  are explicit.  Set-up checks that each document reproduces the scenario's
  shifting graph and matching, and that the connection count is the known
  closed form.
* `sparse_documents`: random sparse documents of a few hundred equations
  in loosely coupled blocks, with delayed (shift -1) and mixed-derivative
  occurrences and several exposed equations each.

Oracle answers come from the determinant (`count_arborescences`) and from
this module's own record of which occurrences each equation holds; they
never come from the enumerator or the classifier under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import ddaestruct as ds

# (kind, n) of the scenario families: 16,807, 40,320 and 46,368 trees, so
# that a run holds enough passes (over 40) for stable per-pass medians.
COUNT_SIZES = (("complete", 7), ("triangular", 9), ("banded", 13))
# Smaller sizes for the full CLI path, so that a run sees many documents.
STREAM_SIZES = (("complete", 6), ("triangular", 8), ("banded", 10))
STREAM_DOCS_PER_KIND = 4
EXPLICIT_SHARE = (0.4, 0.6)  # bounds of a scenario document's explicit share

# Sparse batch: BLOCKS blocks of BLOCK equations; EXPOSED_BLOCKS of them
# have one variable too few and so one exposed equation each.  Blocks
# couple only through delayed occurrences, which are never matched, so an
# exposed equation's reach stays inside its block.
BLOCKS = 12
BLOCK = 25
EXPOSED_BLOCKS = 4
VARS_PER_EQUATION = 3
DELAYED_RATE = 0.3
MIXED_RATE = 0.2
BATCH_DOCS = 32
BATCH_LIMIT = 16  # `collect_connections(..., limit=BATCH_LIMIT)` per exposed equation


def known_count(kind: str, n: int) -> int:
    """Closed-form connection count of a scenario family (SCENARIO_COUNTS)."""
    if kind == "complete":
        return n ** (n - 2)
    if kind == "triangular":
        count = 1
        for k in range(2, n):
            count *= k
        return count
    a, b = 0, 1  # banded: Fibonacci F(2n - 2)
    for _ in range(2 * n - 2):
        a, b = b, a + b
    return a


def _scenario_digraph(kind: str, n: int):
    g, m, j = ds.generate_scenario(kind, n)
    h = ds.build_connection_graph(g, m, ds.alternating_reach(g, m, j))
    return g, m, j, h


@dataclass(frozen=True)
class CountGraph:
    kind: str
    nodes: tuple[int, ...]
    arcs: tuple[tuple[int, int], ...]
    root: int
    count: int


def count_graphs(rng: random.Random) -> list[CountGraph]:
    graphs = []
    for kind, n in COUNT_SIZES:
        _, _, j, h = _scenario_digraph(kind, n)
        old = sorted(h.nodes)
        new = sorted(rng.sample(range(1, 100 * n), len(old)))
        relabel = dict(zip(old, new))
        arcs = [(relabel[u], relabel[v]) for u, v in h.arcs]
        rng.shuffle(arcs)
        root = relabel[j]
        count = ds.count_arborescences(ds.Digraph(new, arcs), root)
        if count != known_count(kind, n):
            raise AssertionError(f"{kind} n={n}: determinant {count}")
        graphs.append(CountGraph(kind, tuple(new), tuple(arcs), root, count))
    return graphs


def _document(n_eq: int, n_var: int, occurrences: dict[int, set]) -> str:
    return json.dumps({
        "n_equations": n_eq,
        "n_variables": n_var,
        "equations": [
            {"index": i, "occurrences": [
                {"var": k, "shift": p, "deriv": q}
                for k, p, q in sorted(occurrences[i])
            ]}
            for i in range(1, n_eq + 1)
        ],
    })


def witnessed(occurrences: dict[int, set], i: int, k: int, p: int, l: int) -> bool:
    """Oracle for `shared_occurrences`: i and l share an occurrence of group (k, p)."""
    return any(kk == k and pp == p and (k, p, q) in occurrences[l]
               for kk, pp, q in occurrences[i])


@dataclass(frozen=True)
class ScenarioDocument:
    kind: str
    n: int
    text: str
    exposed: int
    count: int
    explicit: int


def _scenario_orders(g, rng: random.Random) -> dict[int, set]:
    """Occurrence sets of a scenario's equations with seeded derivative orders.

    Equation l holds its matched variable l at order base[l].  Another
    equation touching variable l shares that order with probability
    `keep`, and otherwise holds only other orders.  An arc is explicit
    when the orders are shared, and a connection has n - 1 arcs, so
    keep = 0.5 ** (1 / (n - 1)) makes about half of the connections
    explicit on average.  A quarter of the occurrences come with a
    second order, which leaves the arc's class unchanged.
    """
    keep = 0.5 ** (1 / (len(g.eq_nodes) - 1))
    base = {v.var_index: rng.randrange(3) for v in g.group_nodes}
    occurrences: dict[int, set] = {i: set() for i in g.eq_nodes}
    for i, v in sorted(g.edges):
        k = v.var_index
        b = base[k]
        if i == k:
            orders = {b}
        elif rng.random() < keep:
            orders = {b, (b + 2) % 3} if rng.random() < 0.25 else {b}
        else:
            orders = {(b + 1) % 3, (b + 2) % 3} if rng.random() < 0.25 else {(b + 1) % 3}
        occurrences[i].update((k, v.shift, q) for q in orders)
    return occurrences


def scenario_document(kind: str, n: int, rng: random.Random) -> ScenarioDocument:
    """One scenario family member as a document with seeded derivative orders.

    The orders are redrawn until the share of explicit connections lies
    within EXPLICIT_SHARE: a single draw gives anything from none to all
    of them, and an explicit connection costs more to classify than an
    implicit one, so the documents' cost, and with it the benchmark's
    figures, would otherwise depend on the seed.
    """
    g, m, j, h = _scenario_digraph(kind, n)
    count = ds.count_arborescences(ds.Digraph(h.nodes, h.arcs), j)
    if count != known_count(kind, n):
        raise AssertionError(f"{kind} n={n}: determinant {count}")
    lo, hi = EXPLICIT_SHARE
    while True:
        occurrences = _scenario_orders(g, rng)
        explicit_arcs = [
            (i, l) for i, l in h.arcs
            if witnessed(occurrences, i, h.weight((i, l)).var_index, 0, l)
        ]
        explicit = ds.count_arborescences(ds.Digraph(h.nodes, explicit_arcs), j)
        if lo * count <= explicit <= hi * count:
            break
    text = _document(len(g.eq_nodes), len(g.group_nodes), occurrences)

    # the document must reproduce the scenario exactly
    s = ds.parse_ddae(text)
    gs = ds.build_shifting_graph(s)
    ms, reports = ds.compute_matching(gs)
    if (gs.edges != g.edges or gs.group_nodes != g.group_nodes
            or ms.pairs != m.pairs or [r.exposed for r in reports] != [j]):
        raise AssertionError(f"{kind} n={n}: document does not reproduce the scenario")
    return ScenarioDocument(kind, n, text, j, count, explicit)


def scenario_documents(rng: random.Random) -> list[ScenarioDocument]:
    """STREAM_DOCS_PER_KIND documents per family, families interleaved."""
    return [
        scenario_document(kind, n, rng)
        for _ in range(STREAM_DOCS_PER_KIND)
        for kind, n in STREAM_SIZES
    ]


@dataclass(frozen=True)
class ExposedOracle:
    exposed: int
    reach: object  # the ReachReport that `verify_connection` checks against
    expected: int  # min(BATCH_LIMIT, determinant)


@dataclass(frozen=True)
class SparseDocument:
    text: str
    occurrences: dict
    shifting: object
    matching: object
    exposed: tuple[ExposedOracle, ...]


def sparse_occurrences(rng: random.Random) -> tuple[int, int, dict[int, set]]:
    """Occurrence sets of one random sparse document.

    Equation t of a block holds variable t of the block, so a block with
    as many variables as equations has a perfect matching and a block with
    one variable fewer has exactly one exposed equation.
    """
    exposed_blocks = set(rng.sample(range(BLOCKS), EXPOSED_BLOCKS))
    n_eq = BLOCKS * BLOCK
    n_var = n_eq - EXPOSED_BLOCKS
    occurrences: dict[int, set] = {}
    eq = var = 0
    for b in range(BLOCKS):
        nv = BLOCK - 1 if b in exposed_blocks else BLOCK
        block_vars = range(var + 1, var + nv + 1)
        for t in range(BLOCK):
            eq += 1
            ks = {block_vars[t]} if t < nv else set()
            while len(ks) < VARS_PER_EQUATION:
                ks.add(rng.choice(block_vars))
            occs = set()
            for k in ks:
                q = rng.randrange(2)
                occs.add((k, 0, q))
                if rng.random() < MIXED_RATE:
                    occs.add((k, 0, 1 - q))
            if rng.random() < DELAYED_RATE:
                occs.add((rng.randint(1, n_var), -1, rng.randrange(2)))
            occurrences[eq] = occs
        var += nv
    return n_eq, n_var, occurrences


def sparse_document(rng: random.Random) -> SparseDocument:
    n_eq, n_var, occurrences = sparse_occurrences(rng)
    text = _document(n_eq, n_var, occurrences)
    g = ds.build_shifting_graph(ds.parse_ddae(text))
    m, reports = ds.compute_matching(g)
    oracles = []
    for r in reports:
        h = ds.build_connection_graph(g, m, r)
        det = ds.count_arborescences(ds.Digraph(h.nodes, h.arcs), r.exposed)
        oracles.append(ExposedOracle(r.exposed, r, min(BATCH_LIMIT, det)))
    return SparseDocument(text, occurrences, g, m, tuple(oracles))


def sparse_documents(rng: random.Random) -> list[SparseDocument]:
    return [sparse_document(rng) for _ in range(BATCH_DOCS)]
