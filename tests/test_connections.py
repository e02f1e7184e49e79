from __future__ import annotations

import random

import pytest

import ddaestruct as ds
from conftest import G, random_structure

T3_C1 = frozenset({(3, G(2, 0), 2), (2, G(1, 0), 1)})
T3_C2 = frozenset({(3, G(1, 0), 1), (3, G(2, 0), 2)})

T4_ALL = {
    frozenset({(4, G(1, 0), 1), (1, G(2, 0), 2), (2, G(3, 0), 3)}),
    frozenset({(4, G(1, 0), 1), (1, G(2, 0), 2), (1, G(3, 0), 3)}),
    frozenset({(4, G(1, 0), 1), (1, G(2, 0), 2), (4, G(3, 0), 3)}),
    frozenset({(4, G(1, 0), 1), (1, G(3, 0), 3), (3, G(2, 0), 2)}),
    frozenset({(4, G(1, 0), 1), (1, G(3, 0), 3), (4, G(2, 0), 2)}),
    frozenset({(4, G(1, 0), 1), (4, G(2, 0), 2), (2, G(3, 0), 3)}),
    frozenset({(4, G(1, 0), 1), (4, G(2, 0), 2), (4, G(3, 0), 3)}),
    frozenset({(4, G(1, 0), 1), (4, G(3, 0), 3), (3, G(2, 0), 2)}),
}


def all_connections(g, m, j, **kw):
    found = []
    n = ds.find_all_connections(g, m, j, visitor=found.append, **kw)
    return n, found


class TestTreeToConnection:
    def test_chain_tree(self, graph3, matched3):
        m, reports = matched3
        h = ds.build_connection_graph(graph3, m, reports[0])
        t = ds.Arborescence(3, frozenset({(3, 2), (2, 1)}))
        assert ds.tree_to_connection(t, h).triples == T3_C1

    def test_trivial_tree(self):
        g = ds.ShiftingGraph({1: (G(1, 0),), 2: ()})
        m = ds.Matching({1: G(1, 0)})
        report = ds.alternating_reach(g, m, 2)
        h = ds.build_connection_graph(g, m, report)
        t = ds.Arborescence(2, frozenset())
        assert ds.tree_to_connection(t, h).triples == frozenset()

    def test_deep_tree_in_larger_example(self, graph4, matched4):
        m, reports = matched4
        h = ds.build_connection_graph(graph4, m, reports[0])
        t = ds.Arborescence(4, frozenset({(4, 1), (1, 3), (3, 2)}))
        assert ds.tree_to_connection(t, h).triples == frozenset(
            {(4, G(1, 0), 1), (1, G(3, 0), 3), (3, G(2, 0), 2)}
        )

    def test_foreign_arc_rejected(self, graph3, matched3):
        m, reports = matched3
        h = ds.build_connection_graph(graph3, m, reports[0])
        t = ds.Arborescence(3, frozenset({(3, 1), (1, 2)}))
        with pytest.raises(ds.ArcNotInGraph):
            ds.tree_to_connection(t, h)


class TestFindAllConnections:
    def test_three_equation_example(self, graph3, matched3):
        m, _ = matched3
        n, found = all_connections(graph3, m, 3)
        assert n == 2
        assert {c.triples for c in found} == {T3_C1, T3_C2}

    def test_four_equation_example(self, graph4, matched4):
        m, _ = matched4
        n, found = all_connections(graph4, m, 4)
        assert n == 8
        assert {c.triples for c in found} == T4_ALL

    def test_matched_equation_rejected(self, graph3, matched3):
        m, _ = matched3
        with pytest.raises(ds.NotExposed):
            ds.find_all_connections(graph3, m, 1)

    def test_empty_reach_emits_one_empty_connection(self):
        g = ds.ShiftingGraph({1: (G(1, 0),), 2: ()})
        m = ds.Matching({1: G(1, 0)})
        n, found = all_connections(g, m, 2)
        assert n == 1
        assert found == [ds.Connection(frozenset())]

    def test_limit(self, graph4, matched4):
        m, _ = matched4
        n, found = all_connections(graph4, m, 4, limit=3)
        assert n == 3
        assert len(found) == 3
        assert {c.triples for c in found} <= T4_ALL


class TestVerifyConnection:
    def test_valid_connections(self, graph3, matched3):
        m, reports = matched3
        r = reports[0]
        assert ds.verify_connection(ds.Connection(T3_C1), graph3, m, 3, r)
        assert ds.verify_connection(ds.Connection(T3_C2), graph3, m, 3, r)

    def test_double_coverage_rejected(self, graph3, matched3):
        m, reports = matched3
        c = ds.Connection(T3_C1 | {(3, G(1, 0), 1)})  # equation 1 covered twice
        assert not ds.verify_connection(c, graph3, m, 3, reports[0])

    def test_cycle_without_anchor_rejected(self, graph3, matched3):
        m, reports = matched3
        c = ds.Connection(frozenset({(1, G(2, 0), 2), (2, G(1, 0), 1)}))
        assert not ds.verify_connection(c, graph3, m, 3, reports[0])

    def test_disconnected_cycle_rejected(self, graph4, matched4):
        # full coverage and an anchor at the exposed node, but two triples
        # feed each other instead of hanging off the anchor
        m, reports = matched4
        c = ds.Connection(
            frozenset({(4, G(1, 0), 1), (2, G(3, 0), 3), (3, G(2, 0), 2)})
        )
        assert not ds.verify_connection(c, graph4, m, 4, reports[0])

    def test_non_edge_triple_rejected(self, graph3, matched3):
        m, reports = matched3
        c = ds.Connection(frozenset({(1, G(2, 0), 2), (3, G(1, 0), 1)}))
        assert not ds.verify_connection(c, graph3, m, 3, reports[0])

    def test_incomplete_coverage_rejected(self, graph3, matched3):
        m, reports = matched3
        c = ds.Connection(frozenset({(3, G(2, 0), 2)}))
        assert not ds.verify_connection(c, graph3, m, 3, reports[0])

    def test_empty_connection_only_for_empty_reach(self, graph3, matched3):
        m, reports = matched3
        empty = ds.Connection(frozenset())
        assert not ds.verify_connection(empty, graph3, m, 3, reports[0])
        lone = ds.ReachReport(3, frozenset(), frozenset())
        assert ds.verify_connection(empty, graph3, ds.Matching(), 3, lone)


class TestClassify:
    def test_worked_example_classes(self, sys3):
        gd = ds.build_ddae_graph(sys3)
        assert ds.classify_connection(ds.Connection(T3_C1), gd) == ds.EXPLICIT
        assert ds.classify_connection(ds.Connection(T3_C2), gd) == ds.IMPLICIT

    def test_empty_connection_is_explicit(self, sys3):
        gd = ds.build_ddae_graph(sys3)
        assert ds.classify_connection(ds.Connection(frozenset()), gd) == ds.EXPLICIT

    def test_witnesses(self, sys3):
        gd = ds.build_ddae_graph(sys3)
        assert ds.shared_occurrences((2, G(1, 0), 1), gd) == (
            ds.VarOccurrence(1, 0, 1),
        )
        assert ds.shared_occurrences((3, G(1, 0), 1), gd) == ()

    def test_dropping_a_witness_flips_the_class(self, sys3):
        # same connection, occurrence graph with the shared derivative
        # removed from equation 2: the only witness of one triple disappears
        gd = ds.build_ddae_graph(sys3)
        pruned = tuple(o for o in gd.occurrences_of(2) if o != ds.VarOccurrence(1, 0, 1))
        gd2 = ds.DdaeGraph({i: pruned if i == 2 else gd.occurrences_of(i) for i in gd.eq_nodes})
        c = ds.Connection(T3_C1)
        assert ds.classify_connection(c, gd) == ds.EXPLICIT
        assert ds.classify_connection(c, gd2) == ds.IMPLICIT

    def test_class_is_per_triple_conjunction(self, sys3):
        gd = ds.build_ddae_graph(sys3)
        for c in (ds.Connection(T3_C1), ds.Connection(T3_C2)):
            expected = (
                ds.EXPLICIT
                if all(ds.shared_occurrences(t, gd) for t in c.triples)
                else ds.IMPLICIT
            )
            assert ds.classify_connection(c, gd) == expected


class TestBijectionWithArborescences:
    def test_counts_match_the_determinant(self):
        rng = random.Random(321)
        done = 0
        while done < 60:
            g = ds.build_shifting_graph(random_structure(rng))
            m, reports = ds.compute_matching(g)
            for r in reports:
                h = ds.build_connection_graph(g, m, r)
                d = ds.Digraph(h.nodes, h.arcs)
                n, found = all_connections(g, m, r.exposed)
                assert n == ds.count_arborescences(d, r.exposed)
                assert len({c.triples for c in found}) == n
                done += 1

    def test_brute_force_trees_translate_to_the_same_set(self):
        rng = random.Random(322)
        done = 0
        while done < 60:
            g = ds.build_shifting_graph(random_structure(rng))
            m, reports = ds.compute_matching(g)
            for r in reports:
                h = ds.build_connection_graph(g, m, r)
                d = ds.Digraph(h.nodes, h.arcs)
                _, found = all_connections(g, m, r.exposed)
                translated = {
                    ds.tree_to_connection(t, h).triples
                    for t in ds.brute_force_arborescences(d, r.exposed)
                }
                assert translated == {c.triples for c in found}
                done += 1

    def test_every_emitted_connection_verifies_and_covers_the_reach(self):
        rng = random.Random(323)
        done = 0
        while done < 60:
            g = ds.build_shifting_graph(random_structure(rng))
            m, reports = ds.compute_matching(g)
            for r in reports:
                _, found = all_connections(g, m, r.exposed)
                for c in found:
                    assert len(c) == len(r.reached_eqs)
                    assert ds.verify_connection(c, g, m, r.exposed, r)
                done += 1


def random_square_structure(rng: random.Random):
    """n equations over n - 1 variables at shift 0, each equation touching
    each variable with probability 0.6 at one or both derivative orders 0, 1:
    dense enough that most exposed equations have connections of both
    classes."""
    n = rng.randint(2, 6)
    equations = []
    for i in range(1, n + 1):
        occs = {
            ds.VarOccurrence(k, 0, q)
            for k in range(1, n)
            if rng.random() < 0.6
            for q in rng.sample(range(2), rng.randint(1, 2))
        }
        equations.append(ds.EquationStruct(i, tuple(sorted(occs))))
    return ds.DdaeStructure(n, n - 1, tuple(equations))


class TestClassTally:
    def test_explicit_count_is_the_determinant_of_the_explicit_arcs(self):
        # a tree is explicit iff all its arcs are witnessed, so the explicit
        # connections are the spanning trees of the witnessed-arc subgraph
        rng = random.Random(324)
        done = mixed = 0
        while done < 150:
            s = random_square_structure(rng)
            g = ds.build_shifting_graph(s)
            gd = ds.build_ddae_graph(s)
            m, reports = ds.compute_matching(g)
            for r in reports:
                h = ds.build_connection_graph(g, m, r)
                witnessed = {
                    (i, l) for i, l in h.arcs if ds.shared_occurrences((i, h.weight((i, l)), l), gd)
                }
                total = ds.count_arborescences(ds.Digraph(h.nodes, h.arcs), r.exposed)
                explicit = ds.count_arborescences(ds.Digraph(h.nodes, witnessed), r.exposed)
                report = ds.collect_connections(g, m, r.exposed, gd)
                assert report.classes.count(ds.EXPLICIT) == explicit
                assert report.classes.count(ds.IMPLICIT) == total - explicit
                for c, cls in zip(report.connections, report.classes):
                    assert cls == ds.classify_connection(c, gd)
                mixed += 0 < explicit < total
                done += 1
        assert mixed >= 10


class TestCollect:
    def test_report_shape(self, graph3, matched3, sys3):
        m, _ = matched3
        gd = ds.build_ddae_graph(sys3)
        report = ds.collect_connections(graph3, m, 3, gd=gd)
        assert report.exposed == 3
        assert len(report.connections) == len(report.classes) == 2
        by_triples = {c.triples: cls for c, cls in zip(report.connections, report.classes)}
        assert by_triples[T3_C1] == ds.EXPLICIT
        assert by_triples[T3_C2] == ds.IMPLICIT

    def test_classless_when_no_occurrence_graph(self, graph3, matched3):
        m, _ = matched3
        report = ds.collect_connections(graph3, m, 3)
        assert report.classes == ("", "")

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ds.ConnectionReport(1, (ds.Connection(frozenset()),), ())
