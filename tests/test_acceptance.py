"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the heavyweight criteria (count tables, streaming memory) take a
couple of minutes together.
"""

from __future__ import annotations

import gc
import json
import random
import time
import tracemalloc
from pathlib import Path

import pytest

import ddaestruct as ds
from conftest import G, collect_trees, random_digraph
from ddaestruct.cli import main

DATA = Path(__file__).parent / "data"
DOC3 = str(DATA / "ddae_3eq.json")
DOC4 = str(DATA / "ddae_4eq.json")

EXPECTED_3EQ = {
    frozenset({(3, G(2, 0), 2), (2, G(1, 0), 1)}): "explicit",
    frozenset({(3, G(1, 0), 1), (3, G(2, 0), 2)}): "implicit",
}

EXPECTED_4EQ = {
    frozenset({(4, G(1, 0), 1), (1, G(2, 0), 2), (2, G(3, 0), 3)}),
    frozenset({(4, G(1, 0), 1), (1, G(2, 0), 2), (1, G(3, 0), 3)}),
    frozenset({(4, G(1, 0), 1), (1, G(2, 0), 2), (4, G(3, 0), 3)}),
    frozenset({(4, G(1, 0), 1), (1, G(3, 0), 3), (3, G(2, 0), 2)}),
    frozenset({(4, G(1, 0), 1), (1, G(3, 0), 3), (4, G(2, 0), 2)}),
    frozenset({(4, G(1, 0), 1), (4, G(2, 0), 2), (2, G(3, 0), 3)}),
    frozenset({(4, G(1, 0), 1), (4, G(2, 0), 2), (4, G(3, 0), 3)}),
    frozenset({(4, G(1, 0), 1), (4, G(3, 0), 3), (3, G(2, 0), 2)}),
}

SCENARIO_COUNTS = {
    "banded": {5: 21, 6: 55, 7: 144, 8: 377, 9: 987, 10: 2584},
    "triangular": {5: 24, 6: 120, 7: 720, 8: 5040, 9: 40320, 10: 362880},
    "complete": {5: 125, 6: 1296, 7: 16807, 8: 262144, 9: 4782969},
}


def _parse_triples(raw) -> frozenset:
    return frozenset((i, G(k, p), l) for i, (k, p), l in raw)


def scenario_digraph(kind: str, n: int):
    g, m, exposed = ds.generate_scenario(kind, n)
    report = ds.alternating_reach(g, m, exposed)
    h = ds.build_connection_graph(g, m, report)
    return ds.Digraph(h.nodes, h.arcs), exposed


def random_suite():
    rng = random.Random(987654)
    return [random_digraph(rng) for _ in range(200)]


def test_criterion_1_worked_example_one(capsys):
    """CLI connection query on the three-equation system: exactly the two
    known connections, classified explicit and implicit, in under 1 s."""
    t0 = time.perf_counter()
    code = main(["connections", "--input", DOC3, "--exposed", "3", "--classify"])
    elapsed = time.perf_counter() - t0
    out, _ = capsys.readouterr()
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 2
    got = {_parse_triples(line["triples"]): line["class"] for line in lines}
    assert got == EXPECTED_3EQ
    assert elapsed < 1.0
    print(f"\n[acceptance] criterion 1 (worked example 1, {elapsed:.3f}s): PASS")


def test_criterion_2_worked_example_two(capsys):
    """CLI connection query on the four-equation system: exactly the eight
    known connections as a set, in under 1 s."""
    t0 = time.perf_counter()
    code = main(["connections", "--input", DOC4, "--exposed", "4"])
    elapsed = time.perf_counter() - t0
    out, _ = capsys.readouterr()
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 8
    got = {_parse_triples(line["triples"]) for line in lines}
    assert got == EXPECTED_4EQ
    assert elapsed < 1.0
    print(f"\n[acceptance] criterion 2 (worked example 2, {elapsed:.3f}s): PASS")


def test_criterion_3_connection_graph_fidelity(graph3, matched3, graph4, matched4):
    """The constructed connection graphs match the known node/arc sets exactly."""
    m3, reports3 = matched3
    h3 = ds.build_connection_graph(graph3, m3, reports3[0])
    assert h3.nodes == {1, 2, 3}
    assert h3.root == 3
    assert h3.arcs == {(2, 1), (3, 1), (3, 2)}

    m4, reports4 = matched4
    h4 = ds.build_connection_graph(graph4, m4, reports4[0])
    assert h4.nodes == {1, 2, 3, 4}
    assert h4.root == 4
    assert h4.arcs == {(1, 2), (1, 3), (2, 3), (3, 2), (4, 1), (4, 2), (4, 3)}
    print("\n[acceptance] criterion 3 (connection-graph fidelity): PASS")


def test_criterion_4_scenario_counts():
    """Count-only benchmark reproduces every scenario count exactly.

    Only the counts are checked; wall-clock times are hardware-specific and
    are printed for information only.
    """
    t0 = time.perf_counter()
    for kind, expected in SCENARIO_COUNTS.items():
        ns = sorted(expected)
        records = ds.run_bench(kind, ns[0], ns[-1], methods=("grow",))
        got = {r.n: r.count for r in records}
        assert all(r.completed for r in records)
        assert got == expected, f"{kind}: {got} != {expected}"
    elapsed = time.perf_counter() - t0
    print(f"\n[acceptance] criterion 4 (scenario counts, {elapsed:.1f}s): PASS")


def test_criterion_5_oracle_equivalence():
    """On 200 random digraphs the streamed tree set equals the brute-force
    set and the count equals the determinant, in under 30 s."""
    t0 = time.perf_counter()
    for g, root in random_suite():
        n, trees = collect_trees(g, root)
        arc_sets = {t.arcs for t in trees}
        assert len(arc_sets) == n
        assert arc_sets == {t.arcs for t in ds.brute_force_arborescences(g, root)}
        assert n == ds.count_arborescences(g, root)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\n[acceptance] criterion 5 (oracle equivalence, {elapsed:.1f}s): PASS")


def test_criterion_6_arborescence_invariants():
    """Every emitted tree passes the invariant checker; no run emits
    duplicates.

    Checked per emission on the worked examples, the 200 random digraphs
    and all scenario graphs up to n=7.  For the larger count-only runs of
    criterion 4 duplicate-freeness follows from the exact agreement with
    the determinant count (duplicates could only inflate the count).
    """
    runs = [
        (ds.Digraph([1, 2, 3], [(2, 1), (3, 1), (3, 2)]), 3),
        (
            ds.Digraph(
                [1, 2, 3, 4],
                [(1, 2), (1, 3), (2, 3), (3, 2), (4, 1), (4, 2), (4, 3)],
            ),
            4,
        ),
    ]
    runs.extend(random_suite())
    for kind in SCENARIO_COUNTS:
        for n in range(5, 8):
            runs.append(scenario_digraph(kind, n))

    for g, root in runs:
        seen = set()
        run = ds.GrowRun(g, root)

        def check(parent, g=g, seen=seen, run=run):
            t = run.arborescence(parent)
            assert ds.validate_arborescence(t, g) == []
            assert t.arcs not in seen
            seen.add(t.arcs)

        n = run.execute(check)
        assert n == len(seen)
    print(f"\n[acceptance] criterion 6 (invariants over {len(runs)} runs): PASS")


def test_criterion_7_graph_restoration():
    """After every enumeration, aborted or not, the working graph equals the
    input graph (arc-set equality)."""
    runs = [
        (ds.Digraph([1, 2, 3], [(2, 1), (3, 1), (3, 2)]), 3),
        (
            ds.Digraph(
                [1, 2, 3, 4],
                [(1, 2), (1, 3), (2, 3), (3, 2), (4, 1), (4, 2), (4, 3)],
            ),
            4,
        ),
    ]
    runs.extend(random_suite())
    for kind in SCENARIO_COUNTS:
        for n in range(5, 8):
            runs.append(scenario_digraph(kind, n))

    checked = 0
    for g, root in runs:
        full = ds.GrowRun(g, root)
        full.execute()
        assert full.working_arcs() == g.arcs
        aborted = ds.GrowRun(g, root)
        aborted.execute(limit=2)
        assert aborted.working_arcs() == g.arcs
        timed = ds.GrowRun(g, root)
        timed.execute(deadline=time.monotonic() - 1.0)
        assert timed.working_arcs() == g.arcs
        checked += 3
    print(f"\n[acceptance] criterion 7 (restoration over {checked} runs): PASS")


def test_criterion_8_streaming_memory():
    """Counting the densest scenario's 4,782,969 trees finishes in streaming
    mode with peak allocation on the scale of the arc count, not the tree
    count: traced peaks stay flat from n=7 to n=9 while the tree count grows
    by a factor of 285."""
    t0 = time.perf_counter()
    peaks = {}
    counts = {}
    for n in (7, 8, 9):
        d, exposed = scenario_digraph("complete", n)
        gc.collect()
        tracemalloc.start()
        counts[n] = ds.GrowRun(d, exposed).execute()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks[n] = peak
    elapsed = time.perf_counter() - t0
    assert counts == {7: 16807, 8: 262144, 9: 4782969}
    for n, peak in peaks.items():
        assert peak < 1 << 20, f"n={n}: peak {peak} bytes is not arc-scale"
    assert max(peaks.values()) <= 8 * max(min(peaks.values()), 4096)
    assert elapsed < 300.0
    print(
        f"\n[acceptance] criterion 8 (streaming memory, peaks "
        f"{peaks[7]}/{peaks[8]}/{peaks[9]} bytes, {elapsed:.1f}s): PASS"
    )


def test_criterion_9_baseline_agreement():
    """The naive ordered-sequence search returns exactly the same connection
    sets as the streaming method for all scenarios up to n=6 and for both
    worked examples, in under 60 s."""
    t0 = time.perf_counter()
    cases = []
    for kind in SCENARIO_COUNTS:
        for n in range(2, 7):
            cases.append(ds.generate_scenario(kind, n))
    for doc, j in ((DOC3, 3), (DOC4, 4)):
        s = ds.parse_ddae(Path(doc).read_text())
        g = ds.build_shifting_graph(s)
        m, _ = ds.compute_matching(g)
        cases.append((g, m, j))

    for g, m, exposed in cases:
        naive = {c.triples for c in ds.naive_all_connections(g, m, exposed)}
        streamed = []
        ds.find_all_connections(g, m, exposed, visitor=streamed.append)
        assert naive == {c.triples for c in streamed}
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\n[acceptance] criterion 9 (baseline agreement, {elapsed:.1f}s): PASS")
