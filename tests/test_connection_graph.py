from __future__ import annotations

import random

import ddaestruct as ds
from conftest import G, random_structure


class TestWorkedExamples:
    def test_three_equation_example(self, graph3, matched3):
        m, reports = matched3
        h = ds.build_connection_graph(graph3, m, reports[0])
        assert h.nodes == {1, 2, 3}
        assert h.root == 3
        assert h.arcs == {(2, 1), (3, 1), (3, 2)}
        assert {arc: h.weight(arc) for arc in h.arcs} == {
            (2, 1): G(1, 0),
            (3, 1): G(1, 0),
            (3, 2): G(2, 0),
        }

    def test_four_equation_example(self, graph4, matched4):
        m, reports = matched4
        h = ds.build_connection_graph(graph4, m, reports[0])
        assert h.nodes == {1, 2, 3, 4}
        assert h.root == 4
        assert h.arcs == {
            (1, 2), (1, 3), (2, 3), (3, 2), (4, 1), (4, 2), (4, 3)
        }

    def test_json_dump(self, graph3, matched3):
        import json

        m, reports = matched3
        h = ds.build_connection_graph(graph3, m, reports[0])
        assert json.loads(h.to_json()) == {
            "nodes": [1, 2, 3],
            "root": 3,
            "arcs": [[2, 1], [3, 1], [3, 2]],
        }


class TestDegenerateAndErrors:
    def test_empty_reach_gives_single_node_graph(self):
        g = ds.ShiftingGraph({1: (G(1, 0),), 2: ()})
        m = ds.Matching({1: G(1, 0)})
        report = ds.alternating_reach(g, m, 2)
        h = ds.build_connection_graph(g, m, report)
        assert h.nodes == {2}
        assert h.root == 2
        assert not h.arcs


class TestProperties:
    def _random_connection_graphs(self, seed, count):
        rng = random.Random(seed)
        produced = 0
        while produced < count:
            g = ds.build_shifting_graph(random_structure(rng))
            m, reports = ds.compute_matching(g)
            for r in reports:
                yield g, m, r, ds.build_connection_graph(g, m, r)
                produced += 1

    def test_root_has_in_degree_zero(self):
        for g, m, r, h in self._random_connection_graphs(7, 80):
            assert not any(l == h.root for _, l in h.arcs)

    def test_node_count_is_reach_plus_one(self):
        for g, m, r, h in self._random_connection_graphs(8, 80):
            assert len(h.nodes) == len(r.reached_eqs) + 1

    def test_weight_is_the_heads_matched_group(self):
        for g, m, r, h in self._random_connection_graphs(9, 80):
            for arc in h.arcs:
                assert h.weight(arc) == m.group_of(arc[1])
                i, l = arc
                assert (i, h.weight(arc)) in g.edges
                assert m.group_of(i) != h.weight(arc)
