"""Property tests of the arborescence stream on generated digraphs.

The examples are derived from a fixed seed and no example database is
kept, so every run checks the same graphs (conftest.py keeps the rest of
hypothesis's files out of the working directory).
"""

from __future__ import annotations

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
