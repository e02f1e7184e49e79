from __future__ import annotations

import pytest

import ddaestruct as ds
from conftest import G


def scenario_connection_digraph(kind, n):
    g, m, exposed = ds.generate_scenario(kind, n)
    report = ds.alternating_reach(g, m, exposed)
    h = ds.build_connection_graph(g, m, report)
    return ds.Digraph(h.nodes, h.arcs), exposed


class TestGenerateScenario:
    def test_banded_shape(self):
        g, m, exposed = ds.generate_scenario("banded", 5)
        assert exposed == 5
        assert len(g.group_nodes) == 4
        assert set(g.groups_of(5)) == {G(1, 0), G(2, 0), G(3, 0), G(4, 0)}
        assert set(g.groups_of(1)) == {G(1, 0), G(2, 0)}
        assert set(g.groups_of(2)) == {G(1, 0), G(2, 0), G(3, 0)}
        assert set(g.groups_of(3)) == {G(2, 0), G(3, 0), G(4, 0)}
        assert set(g.groups_of(4)) == {G(3, 0), G(4, 0)}
        assert m.pairs == {i: G(i, 0) for i in range(1, 5)}

    def test_triangular_shape(self):
        g, _, _ = ds.generate_scenario("triangular", 5)
        for i in range(1, 5):
            assert set(g.groups_of(i)) == {G(j, 0) for j in range(i, 5)}
        assert len(g.groups_of(5)) == 4

    def test_complete_shape(self):
        g, _, _ = ds.generate_scenario("complete", 5)
        for i in range(1, 6):
            assert set(g.groups_of(i)) == {G(j, 0) for j in range(1, 5)}

    def test_smallest_triangular_instance(self):
        g, m, exposed = ds.generate_scenario("triangular", 2)
        found = []
        n = ds.find_all_connections(g, m, exposed, visitor=found.append)
        assert n == 1
        assert found[0].triples == frozenset({(2, G(1, 0), 1)})

    def test_sizes_below_two_rejected(self):
        with pytest.raises(ds.BadSize):
            ds.generate_scenario("banded", 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ds.generate_scenario("circular", 5)

    def test_exposed_node_has_in_degree_zero(self):
        for kind in ds.bench.KINDS:
            for n in range(2, 7):
                d, exposed = scenario_connection_digraph(kind, n)
                assert not any(v == exposed for _, v in d.arcs)


class TestNaiveBaseline:
    def test_matches_streaming_method_on_worked_example(self, graph3, matched3):
        m, _ = matched3
        naive = ds.naive_all_connections(graph3, m, 3)
        found = []
        ds.find_all_connections(graph3, m, 3, visitor=found.append)
        assert {c.triples for c in naive} == {c.triples for c in found}

    def test_banded_five(self):
        g, m, exposed = ds.generate_scenario("banded", 5)
        assert len(ds.naive_all_connections(g, m, exposed)) == 21

    def test_degenerate_reach(self):
        g = ds.ShiftingGraph({1: (G(1, 0),), 2: ()})
        m = ds.Matching({1: G(1, 0)})
        assert ds.naive_all_connections(g, m, 2) == {ds.Connection(frozenset())}

    def test_limit_exceeded(self):
        g, m, exposed = ds.generate_scenario("complete", 6)
        with pytest.raises(ds.LimitExceeded):
            ds.naive_all_connections(g, m, exposed, limit=50)

    @pytest.mark.parametrize("kind", ds.bench.KINDS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_agrees_with_streaming_method_and_determinant(self, kind, n):
        g, m, exposed = ds.generate_scenario(kind, n)
        naive = {c.triples for c in ds.naive_all_connections(g, m, exposed)}
        found = []
        ds.find_all_connections(g, m, exposed, visitor=found.append)
        assert naive == {c.triples for c in found}
        d, root = scenario_connection_digraph(kind, n)
        assert len(naive) == ds.count_arborescences(d, root)


class TestRunBench:
    def test_grow_counts_small_band(self):
        records = ds.run_bench("banded", 5, 7)
        assert [(r.n, r.count, r.completed) for r in records] == [
            (5, 21, True), (6, 55, True), (7, 144, True)
        ]

    def test_methods_agree(self):
        records = ds.run_bench("triangular", 5, 5, methods=("grow", "naive"))
        assert len(records) == 2
        assert {r.method for r in records} == {"grow", "naive"}
        assert len({r.count for r in records}) == 1

    def test_deterministic_apart_from_elapsed(self):
        a = ds.run_bench("banded", 5, 6, methods=("grow", "naive"))
        b = ds.run_bench("banded", 5, 6, methods=("grow", "naive"))
        strip = lambda recs: [(r.kind, r.n, r.method, r.count, r.completed) for r in recs]
        assert strip(a) == strip(b)

    def test_time_limit_reports_incomplete(self):
        records = ds.run_bench("complete", 9, 9, time_limit=0.05)
        (rec,) = records
        assert not rec.completed
        assert 0 < rec.count < 4782969

    def test_empty_range_rejected(self):
        with pytest.raises(ds.BadSize):
            ds.run_bench("banded", 6, 5)

    @pytest.mark.parametrize("limit", [-1.0, 0.0, float("nan")])
    def test_time_limit_not_positive_rejected(self, limit):
        with pytest.raises(ds.BadSize):
            ds.run_bench("banded", 3, 4, time_limit=limit)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            ds.run_bench("banded", 5, 5, methods=("magic",))

    def test_csv_output(self, tmp_path):
        records = ds.run_bench("banded", 5, 6)
        path = tmp_path / "bench.csv"
        ds.write_csv(records, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "kind,n,method,count,elapsed_s,completed"
        assert lines[1].startswith("banded,5,grow,21,")
        assert lines[1].endswith(",true")
        assert lines[2].startswith("banded,6,grow,55,")
