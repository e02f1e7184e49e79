from __future__ import annotations

import random
import time

import pytest

import ddaestruct as ds
from conftest import random_digraph

# connection graphs of the two worked examples
H3 = ds.Digraph([1, 2, 3], [(2, 1), (3, 1), (3, 2)])
H4 = ds.Digraph(
    [1, 2, 3, 4],
    [(1, 2), (1, 3), (2, 3), (3, 2), (4, 1), (4, 2), (4, 3)],
)

H3_TREES = {
    frozenset({(3, 1), (3, 2)}),
    frozenset({(3, 2), (2, 1)}),
}
H4_TREES = {
    frozenset({(4, 1), (1, 2), (2, 3)}),
    frozenset({(4, 1), (1, 2), (1, 3)}),
    frozenset({(4, 1), (1, 2), (4, 3)}),
    frozenset({(4, 1), (1, 3), (3, 2)}),
    frozenset({(4, 1), (1, 3), (4, 2)}),
    frozenset({(4, 1), (4, 2), (2, 3)}),
    frozenset({(4, 1), (4, 2), (4, 3)}),
    frozenset({(4, 1), (4, 3), (3, 2)}),
}


def collect(g, root, **kw):
    trees = []
    n = ds.enumerate_arborescences(g, root, visitor=trees.append, **kw)
    return n, trees


class TestDigraph:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            ds.Digraph([1, 2], [(1, 1)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError):
            ds.Digraph([1, 2], [(1, 3)])

    def test_root_must_exist(self):
        with pytest.raises(ds.RootNotInGraph):
            ds.enumerate_arborescences(ds.Digraph([1], []), 2)
        with pytest.raises(ds.RootNotInGraph):
            ds.count_arborescences(ds.Digraph([1], []), 2)
        with pytest.raises(ds.RootNotInGraph):
            ds.brute_force_arborescences(ds.Digraph([1], []), 2)


class TestBruteForceOracle:
    def test_complete_three_node_digraph(self):
        # derived by exhausting all 2-arc subsets of the 6 possible arcs
        g = ds.Digraph(
            ["r", "a", "b"],
            [("r", "a"), ("r", "b"), ("a", "b"), ("b", "a"), ("a", "r"), ("b", "r")],
        )
        trees = ds.brute_force_arborescences(g, "r")
        assert {t.arcs for t in trees} == {
            frozenset({("r", "a"), ("r", "b")}),
            frozenset({("r", "a"), ("a", "b")}),
            frozenset({("r", "b"), ("b", "a")}),
        }

    def test_single_node(self):
        trees = ds.brute_force_arborescences(ds.Digraph([1], []), 1)
        assert trees == {ds.Arborescence(1, frozenset())}

    def test_worked_examples(self):
        assert {t.arcs for t in ds.brute_force_arborescences(H3, 3)} == H3_TREES
        assert {t.arcs for t in ds.brute_force_arborescences(H4, 4)} == H4_TREES

    def test_cap(self):
        g = ds.Digraph(range(9), [])
        with pytest.raises(ds.CapExceeded):
            ds.brute_force_arborescences(g, 0)
        ds.brute_force_arborescences(g, 0, cap=9)  # raised cap is honoured


class TestDeterminantOracle:
    def test_worked_examples(self):
        assert ds.count_arborescences(H3, 3) == 2
        assert ds.count_arborescences(H4, 4) == 8

    def test_single_node(self):
        assert ds.count_arborescences(ds.Digraph([1], []), 1) == 1

    def test_unrooted_graph_counts_zero(self):
        g = ds.Digraph([1, 2, 3], [(1, 2)])
        assert ds.count_arborescences(g, 1) == 0

    def test_large_complete_scenario(self):
        # the densest benchmark point, counted through the determinant only
        g, m, exposed = ds.generate_scenario("complete", 9)
        report = ds.alternating_reach(g, m, exposed)
        h = ds.build_connection_graph(g, m, report)
        d = ds.Digraph(h.nodes, h.arcs)
        assert ds.count_arborescences(d, exposed) == 4782969


class TestGrowEnumeration:
    def test_three_equation_connection_graph(self):
        n, trees = collect(H3, 3)
        assert n == 2
        assert {t.arcs for t in trees} == H3_TREES

    def test_four_equation_connection_graph(self):
        n, trees = collect(H4, 4)
        assert n == 8
        assert {t.arcs for t in trees} == H4_TREES

    def test_single_node(self):
        n, trees = collect(ds.Digraph(["r"], []), "r")
        assert n == 1
        assert trees[0] == ds.Arborescence("r", frozenset())

    def test_complete_three_node_digraph(self):
        g = ds.Digraph(
            ["r", "a", "b"],
            [("r", "a"), ("r", "b"), ("a", "b"), ("b", "a"), ("a", "r"), ("b", "r")],
        )
        n, trees = collect(g, "r")
        assert n == 3
        assert {t.arcs for t in trees} == {
            t.arcs for t in ds.brute_force_arborescences(g, "r")
        }

    def test_unreachable_node_means_no_trees(self):
        g = ds.Digraph([1, 2, 3], [(1, 2)])
        n, trees = collect(g, 1)
        assert n == 0
        assert trees == []

    def test_count_only_mode_matches_visitor_mode(self):
        n_plain = ds.enumerate_arborescences(H4, 4)
        n_visited, _ = collect(H4, 4)
        assert n_plain == n_visited == 8

    def test_input_graph_object_untouched(self):
        arcs_before = set(H4.arcs)
        ds.enumerate_arborescences(H4, 4)
        assert set(H4.arcs) == arcs_before


class TestLimitsAndRestoration:
    def test_limit_stops_cleanly(self):
        run = ds.GrowRun(H4, 4)
        trees = []
        n = run.execute(visitor=lambda p: trees.append(run.arborescence(p)), limit=3)
        assert n == 3
        assert len(trees) == 3
        assert run.stopped == "limit"
        assert run.working_arcs() == H4.arcs

    def test_zero_limit(self):
        run = ds.GrowRun(H4, 4)
        assert run.execute(limit=0) == 0

    def test_deadline_stops_cleanly(self):
        run = ds.GrowRun(H4, 4)
        n = run.execute(deadline=time.monotonic() - 1.0)
        assert 1 <= n < 8  # at least the first tree, then the cutoff fires
        assert run.stopped == "deadline"
        assert run.working_arcs() == H4.arcs

    def test_limits_around_the_counter_wrap(self):
        # complete n=6 has 1,296 trees; the limits straddle the tree
        # counter's 256 wrap and the end of the stream
        g, m, exposed = ds.generate_scenario("complete", 6)
        report = ds.alternating_reach(g, m, exposed)
        h = ds.build_connection_graph(g, m, report)
        d = ds.Digraph(h.nodes, h.arcs)
        total = 1296
        assert ds.count_arborescences(d, exposed) == total
        for limit in (1, 255, 256, 257, 1000, 1296, 5000):
            expected = min(limit, total)
            stopped = "limit" if limit < total else None
            run = ds.GrowRun(d, exposed)
            assert run.execute(limit=limit) == expected
            assert run.stopped == stopped
            assert run.working_arcs() == d.arcs
            trees = []
            run = ds.GrowRun(d, exposed)
            assert run.execute(
                visitor=lambda p: trees.append(run.arborescence(p)), limit=limit
            ) == expected
            assert len(trees) == expected
            assert run.stopped == stopped
            assert run.working_arcs() == d.arcs

    def test_every_limit_stops_on_a_prefix_of_the_stream(self):
        # the level that adds the last node emits one tree per frontier
        # arc; a stop at any of them must cut the stream exactly there.
        # With one or two nodes the root level is itself that level.
        rng = random.Random(602)
        graphs = [
            (ds.Digraph([1], []), 1),
            (ds.Digraph([1, 2], [(1, 2), (2, 1)]), 1),
            (ds.Digraph([1, 2], [(1, 2)]), 2),
        ]
        graphs += [random_digraph(rng, max_nodes=7, max_arcs=20) for _ in range(80)]
        for g, root in graphs:
            stream = []
            total = ds.GrowRun(g, root).execute(
                visitor=lambda p: stream.append(tuple(p))
            )
            for limit in range(1, total + 2):
                seen = []
                run = ds.GrowRun(g, root)
                assert run.execute(
                    visitor=lambda p: seen.append(tuple(p)), limit=limit
                ) == min(limit, total)
                assert seen == stream[:limit]
                assert (run.stopped == "limit") == (limit < total)
                assert run.working_arcs() == g.arcs
            run = ds.GrowRun(g, root)
            assert run.execute(deadline=time.monotonic() - 1.0) == min(1, total)
            assert (run.stopped == "deadline") == (total > 1)
            assert run.working_arcs() == g.arcs

    def test_restoration_after_visitor_error(self):
        def visitor(parent):
            trees.append(run.arborescence(parent))
            if len(trees) == 3:
                raise RuntimeError("visitor failed")

        trees = []
        run = ds.GrowRun(H4, 4)
        with pytest.raises(RuntimeError):
            run.execute(visitor=visitor)
        assert run.working_arcs() == H4.arcs
        assert run.execute() == 8

    def test_restoration_after_full_runs(self):
        rng = random.Random(600)
        for _ in range(80):
            g, root = random_digraph(rng)
            run = ds.GrowRun(g, root)
            run.execute()
            assert run.working_arcs() == g.arcs

    def test_restoration_after_aborted_runs(self):
        rng = random.Random(601)
        for _ in range(80):
            g, root = random_digraph(rng)
            run = ds.GrowRun(g, root)
            run.execute(limit=2)
            assert run.working_arcs() == g.arcs


class TestDescendants:
    def test_walkthrough_tree(self):
        tree = ds.Arborescence(3, frozenset({(3, 2), (2, 1)}))
        assert ds.descendants(tree, 2) == {2, 1}

    def test_leaf(self):
        tree = ds.Arborescence(3, frozenset({(3, 2), (2, 1)}))
        assert ds.descendants(tree, 1) == {1}

    def test_root_reaches_everything(self):
        tree = ds.Arborescence(3, frozenset({(3, 2), (2, 1)}))
        assert ds.descendants(tree, 3) == {1, 2, 3}

    def test_unknown_node(self):
        tree = ds.Arborescence(1, frozenset())
        with pytest.raises(ValueError):
            ds.descendants(tree, 9)


class TestBridgeTest:
    # the states below replay the enumeration of H3 from root 3
    def test_last_arc_into_node_is_a_bridge(self):
        first_tree = ds.Arborescence(3, frozenset({(3, 1), (3, 2)}))
        working = ds.Digraph([1, 2, 3], [(2, 1), (3, 1)])  # (3,2) deleted
        assert ds.is_bridge(working, (3, 2), first_tree)

    def test_alternative_entry_refutes_the_bridge(self):
        first_tree = ds.Arborescence(3, frozenset({(3, 1), (3, 2)}))
        working = ds.Digraph([1, 2, 3], [(2, 1), (3, 2)])  # (3,1) deleted
        # (2,1) remains and 2 is a nondescendant of 1 in the last tree
        assert not ds.is_bridge(working, (3, 1), first_tree)

    def test_single_incoming_arc(self):
        tree = ds.Arborescence(1, frozenset({(1, 2)}))
        working = ds.Digraph([1, 2], [])
        assert ds.is_bridge(working, (1, 2), tree)

    def test_bridges_hold_for_all_completions(self):
        # white box: whenever the run declares a bridge, every spanning tree
        # of the working graph plus the arc that extends the current subtree
        # must contain that arc
        rng = random.Random(777)
        checked = 0
        for _ in range(40):
            g, root = random_digraph(rng, max_nodes=5, max_arcs=10)
            events = []

            def hook(arc, tree_arcs, remaining):
                events.append((arc, tree_arcs, remaining))

            ds.GrowRun(g, root).execute(bridge_hook=hook)
            for arc, tree_arcs, remaining in events:
                host = ds.Digraph(g.nodes, remaining | {arc})
                for t in ds.brute_force_arborescences(host, root):
                    if tree_arcs <= t.arcs:
                        assert arc in t.arcs
                        checked += 1
        assert checked > 0


class TestAgainstOracles:
    def test_random_digraphs_match_both_oracles(self):
        rng = random.Random(987654)
        for _ in range(200):
            g, root = random_digraph(rng)
            n, trees = collect(g, root)
            assert n == len(trees)
            arc_sets = {t.arcs for t in trees}
            assert len(arc_sets) == n  # no duplicates
            assert arc_sets == {t.arcs for t in ds.brute_force_arborescences(g, root)}
            assert n == ds.count_arborescences(g, root)
            for t in trees:
                assert ds.validate_arborescence(t, g) == []

    def test_runtime_scales_with_emitted_count(self):
        # trend only: at fixed graph, ten times the trees should cost
        # roughly ten times the time
        g, m, exposed = ds.generate_scenario("complete", 8)
        report = ds.alternating_reach(g, m, exposed)
        h = ds.build_connection_graph(g, m, report)
        d = ds.Digraph(h.nodes, h.arcs)
        full = ds.count_arborescences(d, exposed)

        def timed(limit):
            t0 = time.perf_counter()
            ds.GrowRun(d, exposed).execute(limit=limit)
            return time.perf_counter() - t0

        timed(full // 10)  # warm-up
        small = timed(full // 10)
        big = timed(full)
        assert big / small < 40


class TestInvariantChecker:
    def test_accepts_valid_tree(self):
        t = ds.Arborescence(3, frozenset({(3, 2), (2, 1)}))
        assert ds.validate_arborescence(t, H3) == []

    def test_rejects_wrong_arc_count(self):
        t = ds.Arborescence(3, frozenset({(3, 2)}))
        assert ds.validate_arborescence(t, H3)

    def test_rejects_double_in_arc(self):
        t = ds.Arborescence(3, frozenset({(3, 1), (2, 1)}))
        problems = ds.validate_arborescence(t, H3)
        assert any("two incoming" in p for p in problems)

    def test_rejects_arc_outside_graph(self):
        t = ds.Arborescence(3, frozenset({(3, 2), (1, 2)}))
        assert ds.validate_arborescence(t, H3)

    def test_rejects_unreachable_tree(self):
        g = ds.Digraph([1, 2, 3], [(1, 2), (3, 2)])
        t = ds.Arborescence(1, frozenset({(1, 2), (3, 2)}))
        assert ds.validate_arborescence(t, g)
