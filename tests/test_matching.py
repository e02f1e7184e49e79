from __future__ import annotations

import random

import pytest

import ddaestruct as ds
from conftest import G, chain_document, random_structure
from ddaestruct.matching import _try_augment


def try_augment(g, m, i, matchable):
    """One augmenting search from i on copies of m's maps.

    Returns whether a path was found, the equation -> group map after the
    search, and the equations the search reached.
    """
    eq2group = dict(m.pairs)
    group2eq = dict(m.inverse)
    visited_eqs: set[int] = set()
    ok = _try_augment(g, eq2group, group2eq, i, matchable, visited_eqs, set())
    return ok, eq2group, visited_eqs


class TestAugmentPath:
    def test_exposed_equation_fails_with_reach(self, graph3):
        m = ds.Matching({1: G(1, 0), 2: G(2, 0)})
        ok, pairs, reached = try_augment(
            graph3, m, 3, ds.highest_shift_groups(graph3)
        )
        assert not ok
        assert pairs == m.pairs
        assert reached == {1, 2}
        assert ds.alternating_reach(graph3, m, 3).reached_eqs == {1, 2}

    def test_first_assignment_succeeds(self, graph3):
        ok, pairs, _ = try_augment(
            graph3, ds.Matching(), 1, ds.highest_shift_groups(graph3)
        )
        assert ok
        assert pairs == {1: G(1, 0)}

    def test_isolated_node(self):
        g = ds.ShiftingGraph({1: ()})
        ok, _, reached = try_augment(g, ds.Matching(), 1, frozenset())
        assert not ok
        assert reached == frozenset()
        m, reports = ds.compute_matching(g)
        assert len(m) == 0
        assert [r.exposed for r in reports] == [1]
        assert reports[0].reached_eqs == frozenset()

    def test_rerouting_through_matched_group(self):
        # two equations share the only free path; the second must displace
        # the first onto its alternative group
        g = ds.ShiftingGraph({1: (G(1, 0), G(2, 0)), 2: (G(1, 0),)})
        matchable = ds.highest_shift_groups(g)
        m = ds.Matching({1: G(1, 0)})
        ok, pairs, _ = try_augment(g, m, 2, matchable)
        assert ok
        assert pairs == {1: G(2, 0), 2: G(1, 0)}


class TestComputeMatching:
    def test_three_equation_example(self, matched3):
        m, reports = matched3
        assert m.pairs == {1: G(1, 0), 2: G(2, 0)}
        assert len(reports) == 1
        assert reports[0].exposed == 3
        assert reports[0].reached_eqs == {1, 2}

    def test_four_equation_example(self, matched4):
        m, reports = matched4
        assert m.pairs == {1: G(1, 0), 2: G(2, 0), 3: G(3, 0)}
        assert [r.exposed for r in reports] == [4]
        assert reports[0].reached_eqs == {1, 2, 3}

    def test_perfect_matching_has_no_reports(self):
        g = ds.ShiftingGraph({1: (G(1, 0),)})
        m, reports = ds.compute_matching(g)
        assert m.pairs == {1: G(1, 0)}
        assert reports == []

    def test_matching_plus_exposed_covers_all_equations(self):
        rng = random.Random(99)
        for _ in range(100):
            g = ds.build_shifting_graph(random_structure(rng))
            m, reports = ds.compute_matching(g)
            assert len(m) + len(reports) == len(g.eq_nodes)

    def test_exposed_equations_stay_unaugmentable(self):
        rng = random.Random(100)
        for _ in range(100):
            g = ds.build_shifting_graph(random_structure(rng))
            matchable = ds.highest_shift_groups(g)
            m, reports = ds.compute_matching(g)
            for r in reports:
                ok, pairs, reached = try_augment(g, m, r.exposed, matchable)
                assert not ok
                assert pairs == m.pairs
                assert reached == r.reached_eqs

    def test_augmenting_path_longer_than_the_recursion_limit(self):
        n = 3001
        g = ds.build_shifting_graph(ds.parse_ddae(chain_document(n)))
        m, reports = ds.compute_matching(g)
        expected = {i: G(i + 1, 0) for i in range(2, n)}
        expected[1] = G(1, 0)
        expected[n] = G(2, 0)
        assert m.pairs == expected
        assert reports == []

    def test_matched_groups_are_highest_shift_edges(self):
        rng = random.Random(101)
        for _ in range(100):
            g = ds.build_shifting_graph(random_structure(rng))
            matchable = ds.highest_shift_groups(g)
            m, _ = ds.compute_matching(g)
            groups = list(m.pairs.values())
            assert len(groups) == len(set(groups))  # injective
            for i, v in m.pairs.items():
                assert v in matchable
                assert (i, v) in g.edges


class TestAlternatingReach:
    def test_three_equation_example(self, graph3, matched3):
        m, _ = matched3
        report = ds.alternating_reach(graph3, m, 3)
        assert report.reached_eqs == {1, 2}
        assert report.arcs == {(3, 1), (3, 2), (2, 1)}

    def test_four_equation_example(self, graph4, matched4):
        m, _ = matched4
        report = ds.alternating_reach(graph4, m, 4)
        assert report.reached_eqs == {1, 2, 3}

    def test_matched_equation_rejected(self, graph3, matched3):
        m, _ = matched3
        with pytest.raises(ds.NotExposed):
            ds.alternating_reach(graph3, m, 1)

    def test_unknown_equation_rejected(self, graph3, matched3):
        m, _ = matched3
        with pytest.raises(ds.NotExposed):
            ds.alternating_reach(graph3, m, 9)

    def test_no_incident_edges(self):
        g = ds.ShiftingGraph({1: (G(1, 0),), 2: ()})
        m = ds.Matching({1: G(1, 0)})
        report = ds.alternating_reach(g, m, 2)
        assert report.reached_eqs == frozenset()
        assert report.arcs == frozenset()

    def test_arcs_are_the_definitional_steps(self):
        rng = random.Random(102)
        for _ in range(100):
            g = ds.build_shifting_graph(random_structure(rng))
            m, reports = ds.compute_matching(g)
            for r in reports:
                assert r.exposed not in r.reached_eqs
                for k in r.reached_eqs:
                    assert m.is_matched(k)
                tails = r.reached_eqs | {r.exposed}
                steps = {
                    (i, m.inverse[v])
                    for i, v in g.edges
                    if i in tails and v in m.inverse and m.inverse[v] != i
                }
                assert r.arcs == steps
                assert {l for _, l in r.arcs} == r.reached_eqs

    def test_adding_an_edge_never_shrinks_the_reach(self):
        rng = random.Random(103)
        trials = 0
        while trials < 60:
            g = ds.build_shifting_graph(random_structure(rng))
            m, reports = ds.compute_matching(g)
            if not reports or not g.group_nodes:
                continue
            r = reports[0]
            # add one absent edge between existing nodes (no new groups, so
            # the matching stays valid and the exposed node stays exposed)
            candidates = [
                (i, v)
                for i in g.eq_nodes
                for v in g.group_nodes
                if (i, v) not in g.edges
            ]
            if not candidates:
                continue
            e, extra = rng.choice(candidates)
            g2 = ds.ShiftingGraph({
                i: tuple(sorted(g.groups_of(i) + ((extra,) if i == e else ())))
                for i in g.eq_nodes
            })
            r2 = ds.alternating_reach(g2, m, r.exposed)
            assert r2.reached_eqs >= r.reached_eqs
            trials += 1
