"""Property tests of the arborescence stream, the matching and the front end
(parse and graph builds) on generated inputs.

The examples are derived from a fixed seed and no example database is
kept, so every run checks the same graphs (conftest.py keeps the rest of
hypothesis's files out of the working directory).
"""

from __future__ import annotations

import json
import time

from hypothesis import given, settings
from hypothesis import strategies as st

import ddaestruct as ds

FIXED = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@st.composite
def rooted_digraphs(draw, max_nodes: int = 6):
    n = draw(st.integers(1, max_nodes))
    nodes = list(range(n))
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    arcs = draw(st.sets(st.sampled_from(pairs), max_size=16)) if pairs else set()
    return ds.Digraph(nodes, arcs), draw(st.sampled_from(nodes))


@FIXED
@given(rooted_digraphs())
def test_stream_equals_both_oracles(graph):
    g, root = graph
    run = ds.GrowRun(g, root)
    trees = []
    n = run.execute(visitor=lambda p: trees.append(run.arborescence(p)))
    assert n == len(trees)
    assert len(set(trees)) == n
    assert set(trees) == ds.brute_force_arborescences(g, root)
    assert n == ds.count_arborescences(g, root)


@FIXED
@given(rooted_digraphs(), st.integers(1, 300))
def test_working_graph_restored_under_any_limit(graph, limit):
    g, root = graph
    total = ds.count_arborescences(g, root)
    run = ds.GrowRun(g, root)
    assert run.execute(limit=limit) == min(limit, total)
    assert (run.stopped == "limit") == (limit < total)
    assert run.working_arcs() == g.arcs


@FIXED
@given(rooted_digraphs(), st.floats(-1e-4, 1e-3))
def test_working_graph_restored_under_any_deadline(graph, offset):
    g, root = graph
    stream = []
    total = ds.GrowRun(g, root).execute(visitor=lambda p: stream.append(tuple(p)))
    seen = []
    run = ds.GrowRun(g, root)
    n = run.execute(visitor=lambda p: seen.append(tuple(p)),
                    deadline=time.monotonic() + offset)
    assert n == len(seen) and seen == stream[:n]
    assert (run.stopped == "deadline") == (n < total)
    assert run.stopped in (None, "deadline")
    assert run.working_arcs() == g.arcs


@st.composite
def forced_digraphs(draw, max_nodes: int = 7):
    """A random out-tree from node 0 plus a few random arcs: many nodes keep
    a single in-neighbour, some only after others are contracted."""
    n = draw(st.integers(1, max_nodes))
    arcs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    if pairs:
        arcs |= draw(st.sets(st.sampled_from(pairs), max_size=n))
    return ds.Digraph(range(n), arcs), draw(st.integers(0, n - 1))


@FIXED
@given(forced_digraphs())
def test_contracted_count_equals_the_brute_force_count(graph):
    g, root = graph
    assert ds.count_arborescences(g, root) == len(ds.brute_force_arborescences(g, root))


@st.composite
def shifting_graphs(draw, max_eqs: int = 6, max_vars: int = 4):
    n_eq = draw(st.integers(1, max_eqs))
    n_var = draw(st.integers(1, max_vars))
    occurrence = st.builds(
        ds.VarOccurrence, st.integers(1, n_var), st.integers(-1, 2), st.integers(0, 1)
    )
    equations = tuple(
        ds.EquationStruct(i, tuple(sorted(draw(st.sets(occurrence, max_size=4)))))
        for i in range(1, n_eq + 1)
    )
    return ds.build_shifting_graph(ds.DdaeStructure(n_eq, n_var, equations))


def maximum_matching_size(g) -> int:
    """Largest matching over the edges to highest-shift groups, by exhaustion."""
    matchable = ds.highest_shift_groups(g)
    options = [[v for v in g.groups_of(i) if v in matchable] for i in g.eq_nodes]

    def best(k: int, used: frozenset) -> int:
        if k == len(options):
            return 0
        return max(
            [best(k + 1, used)]
            + [1 + best(k + 1, used | {v}) for v in options[k] if v not in used]
        )

    return best(0, frozenset())


def has_augmenting_path(g, m, j) -> bool:
    """Whether an alternating path from the unmatched equation j ends at a free
    highest-shift group."""
    matchable = ds.highest_shift_groups(g)
    seen = {j}
    stack = [j]
    while stack:
        i = stack.pop()
        for v in g.groups_of(i):
            if v not in matchable or v == m.group_of(i):
                continue
            k = m.inverse.get(v)
            if k is None:
                return True
            if k not in seen:
                seen.add(k)
                stack.append(k)
    return False


@FIXED
@given(shifting_graphs())
def test_matching_is_maximum(g):
    m, reports = ds.compute_matching(g)
    assert len(m) == maximum_matching_size(g)
    exposed = [i for i in g.eq_nodes if not m.is_matched(i)]
    assert [r.exposed for r in reports] == exposed
    for j in exposed:
        assert not has_augmenting_path(g, m, j)


@st.composite
def crowded_graphs(draw, max_eqs: int = 6):
    """One equation more than groups, all groups at shift 0 and so matchable:
    some equation is always exposed, and its reach is often most of the graph."""
    n_eq = draw(st.integers(2, max_eqs))
    groups = [ds.VariableGroup(k, 0) for k in range(1, n_eq)]
    return ds.ShiftingGraph({
        i: tuple(sorted(draw(st.sets(st.sampled_from(groups), max_size=n_eq - 1))))
        for i in range(1, n_eq + 1)
    })


def assert_stream_equals_naive_baseline(g):
    m, reports = ds.compute_matching(g)
    for r in reports:
        found = []
        n = ds.find_all_connections(g, m, r.exposed, visitor=found.append)
        streamed = {c.triples for c in found}
        assert n == len(found) == len(streamed)
        assert streamed == {c.triples for c in ds.naive_all_connections(g, m, r.exposed)}


@FIXED
@given(shifting_graphs())
def test_stream_equals_naive_baseline_for_every_exposed_equation(g):
    assert_stream_equals_naive_baseline(g)


@FIXED
@given(crowded_graphs())
def test_stream_equals_naive_baseline_on_crowded_graphs(g):
    assert_stream_equals_naive_baseline(g)


# --- the front end: parse, graph builds ------------------------------------

@st.composite
def documents(draw, max_eqs: int = 6, max_vars: int = 4):
    """A valid incidence document, equations and occurrences in any order,
    with the equations' occurrence sets and labels it was drawn from."""
    n_eq = draw(st.integers(1, max_eqs))
    n_var = draw(st.integers(1, max_vars))
    triple = st.tuples(st.integers(1, n_var), st.integers(-1, 3), st.integers(0, 3))
    rows = {}
    entries = []
    for i in draw(st.permutations(range(1, n_eq + 1))):
        occs = draw(st.lists(triple, max_size=5, unique=True))
        entry = {"index": i, "occurrences": [
            {"var": k, "shift": p, "deriv": q} for k, p, q in occs
        ]}
        label = draw(st.none() | st.text(max_size=4))
        if label is not None:
            entry["label"] = label
        rows[i] = (set(occs), label or f"F{i}")
        entries.append(entry)
    text = json.dumps({"n_equations": n_eq, "n_variables": n_var, "equations": entries})
    return text, rows


@FIXED
@given(documents())
def test_document_round_trip(document):
    text, rows = document
    s = ds.parse_ddae(text)
    assert [eq.eq_index for eq in s.equations] == sorted(rows)
    for eq in s.equations:
        assert set(eq.occurrences) == rows[eq.eq_index][0]
        assert list(eq.occurrences) == sorted(eq.occurrences)
        assert all(type(o) is ds.VarOccurrence for o in eq.occurrences)
        assert eq.label == rows[eq.eq_index][1]
    assert ds.validate(s) == []
    assert ds.parse_ddae(ds.serialize_ddae(s)) == s


@st.composite
def structures(draw, max_eqs: int = 6, max_vars: int = 4):
    """A structure whose equations come in any index order and whose
    occurrence tuples come in any order, repeats included."""
    n_eq = draw(st.integers(1, max_eqs))
    n_var = draw(st.integers(1, max_vars))
    occurrence = st.builds(
        ds.VarOccurrence, st.integers(1, n_var), st.integers(-1, 2), st.integers(0, 2)
    )
    equations = tuple(
        ds.EquationStruct(i, tuple(draw(st.lists(occurrence, max_size=5))))
        for i in draw(st.permutations(range(1, n_eq + 1)))
    )
    return ds.DdaeStructure(n_eq, n_var, equations)


@FIXED
@given(structures())
def test_shifting_graph_build_equals_edge_list_constructor(s):
    edges = {
        (eq.eq_index, ds.VariableGroup(k, p)) for eq in s.equations for k, p, _ in eq.occurrences
    }
    groups = {v for _, v in edges}
    eq_nodes = tuple(range(1, s.n_equations + 1))
    expected = ds.ShiftingGraph({i: tuple(sorted(v for e, v in edges if e == i)) for i in eq_nodes})
    g = ds.build_shifting_graph(s)
    assert g.eq_nodes == expected.eq_nodes == eq_nodes
    assert g.group_nodes == expected.group_nodes == groups
    assert g.edges == expected.edges == edges
    for i in g.eq_nodes:
        assert g.groups_of(i) == expected.groups_of(i)
    # one object per group, shared by the adjacency and the node set
    nodes = {v: v for v in g.group_nodes}
    assert all(v is nodes[v] for i in g.eq_nodes for v in g.groups_of(i))


@FIXED
@given(structures())
def test_occurrence_graph_build_equals_edge_list_constructor(s):
    edges = {(eq.eq_index, o) for eq in s.equations for o in eq.occurrences}
    eq_nodes = tuple(range(1, s.n_equations + 1))
    expected = ds.DdaeGraph({i: tuple(o for e, o in edges if e == i) for i in eq_nodes})
    gd = ds.build_ddae_graph(s)
    assert gd.eq_nodes == expected.eq_nodes == eq_nodes
    for i in gd.eq_nodes:
        assert set(gd.occurrences_of(i)) == set(expected.occurrences_of(i))
    assert gd.edges == expected.edges == edges
    assert gd.var_nodes == expected.var_nodes == {o for _, o in edges}


@FIXED
@given(documents())
def test_class_tallies_equal_the_determinant_split(document):
    # a connection is explicit iff all its arcs are witnessed, so the
    # explicit ones are the spanning trees of the witnessed-arc subgraph
    text, _ = document
    s = ds.parse_ddae(text)
    g = ds.build_shifting_graph(s)
    gd = ds.build_ddae_graph(s)
    m, reports = ds.compute_matching(g)
    for r in reports:
        h = ds.build_connection_graph(g, m, r)
        witnessed = {a for a in h.arcs if ds.shared_occurrences((a[0], h.weight(a), a[1]), gd)}
        total = ds.count_arborescences(ds.Digraph(h.nodes, h.arcs), r.exposed)
        explicit = ds.count_arborescences(ds.Digraph(h.nodes, witnessed), r.exposed)
        report = ds.collect_connections(g, m, r.exposed, gd)
        assert report.classes.count(ds.EXPLICIT) == explicit
        assert report.classes.count(ds.IMPLICIT) == total - explicit
