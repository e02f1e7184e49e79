from __future__ import annotations

import random

import pytest

import ddaestruct as ds
from conftest import G, random_structure


def occ(k, p, q):
    return ds.VarOccurrence(k, p, q)


class TestShiftingGraph:
    def test_three_equation_example(self, graph3):
        assert graph3.eq_nodes == (1, 2, 3)
        assert graph3.group_nodes == {G(1, 0), G(2, 0), G(3, -1)}
        assert graph3.edges == {
            (1, G(1, 0)),
            (2, G(1, 0)),
            (2, G(2, 0)),
            (3, G(1, 0)),
            (3, G(2, 0)),
            (3, G(3, -1)),
        }

    def test_four_equation_example(self, graph4):
        assert set(graph4.groups_of(1)) == {G(1, 0), G(2, 0), G(3, 0)}
        assert set(graph4.groups_of(2)) == {G(2, -1), G(2, 0), G(3, 0)}
        assert set(graph4.groups_of(3)) == {G(2, 0), G(3, -1), G(3, 0)}
        assert set(graph4.groups_of(4)) == {G(1, 0), G(2, 0), G(3, 0), G(4, -1)}

    def test_derivative_orders_collapse(self):
        eq = ds.EquationStruct(1, (occ(1, 0, 0), occ(1, 0, 3)))
        g = ds.build_shifting_graph(ds.DdaeStructure(1, 1, (eq,)))
        assert g.group_nodes == {G(1, 0)}
        assert g.edges == {(1, G(1, 0))}

    def test_isolated_equations_retained(self):
        s = ds.DdaeStructure(2, 1, (ds.EquationStruct(1, ()), ds.EquationStruct(2, ())))
        g = ds.build_shifting_graph(s)
        assert g.eq_nodes == (1, 2)
        assert not g.group_nodes
        assert not g.edges

    def test_adjacency_sorted(self, graph4):
        for i in graph4.eq_nodes:
            assert list(graph4.groups_of(i)) == sorted(graph4.groups_of(i))


class TestVariableGroup:
    def test_repr_and_fields(self):
        v = G(1, 0)
        assert repr(v) == "VariableGroup(var_index=1, shift=0)"
        assert (v.var_index, v.shift) == (1, 0)

    def test_sorts_by_variable_then_shift(self):
        assert sorted([G(2, -1), G(1, 1), G(1, -1), G(1, 0)]) == [
            G(1, -1), G(1, 0), G(1, 1), G(2, -1)
        ]

    def test_hashable_and_equal_to_its_plain_tuple(self):
        assert len({G(1, 0), G(1, 0), G(1, 1)}) == 2
        assert G(1, 0) == (1, 0)
        assert {G(1, 0): "x"}[(1, 0)] == "x"

    def test_refuses_attribute_assignment(self):
        v = G(1, 0)
        with pytest.raises(AttributeError):
            v.shift = 1
        with pytest.raises(AttributeError):
            v.extra = 1
        assert v == G(1, 0)


class TestDdaeGraph:
    def test_three_equation_example(self, sys3):
        g = ds.build_ddae_graph(sys3)
        assert g.var_nodes == {occ(1, 0, 0), occ(1, 0, 1), occ(2, 0, 0), occ(3, -1, 0)}
        assert g.edges == {
            (1, occ(1, 0, 1)),
            (2, occ(1, 0, 1)),
            (2, occ(2, 0, 0)),
            (3, occ(1, 0, 0)),
            (3, occ(2, 0, 0)),
            (3, occ(3, -1, 0)),
        }

    def test_all_equations_empty(self):
        s = ds.DdaeStructure(2, 1, (ds.EquationStruct(1, ()), ds.EquationStruct(2, ())))
        g = ds.build_ddae_graph(s)
        assert not g.var_nodes
        assert not g.edges

    def test_single_equation_subsystem(self):
        s = ds.DdaeStructure(1, 3, (ds.EquationStruct(1, (occ(1, 0, 1),)),))
        g = ds.build_ddae_graph(s)
        assert g.edges == {(1, occ(1, 0, 1))}


class TestHighestShiftGroups:
    def test_three_equation_example(self, graph3):
        assert ds.highest_shift_groups(graph3) == {G(1, 0), G(2, 0)}

    def test_four_equation_example(self, graph4):
        assert ds.highest_shift_groups(graph4) == {G(1, 0), G(2, 0), G(3, 0)}

    def test_higher_shift_dominates(self):
        g = ds.ShiftingGraph({1: (G(1, 0), G(1, 1))})
        assert ds.highest_shift_groups(g) == {G(1, 1)}

    def test_never_negative_never_two_per_variable(self):
        rng = random.Random(77)
        for _ in range(100):
            g = ds.build_shifting_graph(random_structure(rng))
            matchable = ds.highest_shift_groups(g)
            assert all(v.shift >= 0 for v in matchable)
            per_var = [v.var_index for v in matchable]
            assert len(per_var) == len(set(per_var))
            assert matchable <= g.group_nodes


class TestCrossGraphCorrespondence:
    def test_collapsing_occurrences_gives_the_shifting_graph(self):
        rng = random.Random(4242)
        for _ in range(100):
            s = random_structure(rng)
            gs = ds.build_shifting_graph(s)
            gd = ds.build_ddae_graph(s)
            collapsed_nodes = {G(o.var_index, o.shift) for o in gd.var_nodes}
            collapsed_edges = {(i, G(o.var_index, o.shift)) for i, o in gd.edges}
            assert collapsed_nodes == gs.group_nodes
            assert collapsed_edges == gs.edges

    def test_group_count_bounded_by_distinct_pairs(self):
        rng = random.Random(4243)
        for _ in range(50):
            s = random_structure(rng)
            gs = ds.build_shifting_graph(s)
            pairs = {
                (o.var_index, o.shift)
                for eq in s.equations
                for o in eq.occurrences
            }
            assert len(gs.group_nodes) <= len(pairs)

    def test_every_shifting_edge_backed_by_an_occurrence(self):
        rng = random.Random(4244)
        for _ in range(50):
            s = random_structure(rng)
            gs = ds.build_shifting_graph(s)
            gd = ds.build_ddae_graph(s)
            for i, v in gs.edges:
                assert any(
                    o.var_index == v.var_index and o.shift == v.shift
                    for o in gd.occurrences_of(i)
                )


@pytest.mark.parametrize("build", [ds.build_shifting_graph, ds.build_ddae_graph])
def test_equation_index_outside_the_declared_range_rejected(build):
    s = ds.DdaeStructure(1, 1, (ds.EquationStruct(1, ()), ds.EquationStruct(2, (occ(1, 0, 0),))))
    with pytest.raises(ValueError, match=r"^equation index 2 not in 1\.\.1$"):
        build(s)
