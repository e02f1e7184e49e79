from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ddaestruct as ds
from conftest import chain_document, subprocess_env
from ddaestruct.cli import main

DATA = Path(__file__).parent / "data"
DOC3 = str(DATA / "ddae_3eq.json")
DOC4 = str(DATA / "ddae_4eq.json")


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def digraph_file(tmp_path):
    path = tmp_path / "digraph.json"
    path.write_text(
        json.dumps({"nodes": [1, 2, 3], "root": 3, "arcs": [[2, 1], [3, 1], [3, 2]]})
    )
    return str(path)


class TestAnalyze:
    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "analyze", "--input", DOC3)
        assert code == 0
        payload = json.loads(out)
        assert payload["eq_nodes"] == [1, 2, 3]
        assert payload["group_nodes"] == [[1, 0], [2, 0], [3, -1]]
        assert payload["edges"] == [
            [1, [1, 0]],
            [2, [1, 0]], [2, [2, 0]],
            [3, [1, 0]], [3, [2, 0]], [3, [3, -1]],
        ]
        assert payload["matching"] == [[1, [1, 0]], [2, [2, 0]]]
        assert payload["exposed"] == [{"eq": 3, "reach": [1, 2]}]

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "analyze", "--input", DOC3, "--format", "text")
        assert code == 0
        assert "exposed:   F3 reaches F1, F2" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "--input", "/nonexistent.json")
        assert code == 2
        assert "error" in err

    def test_bad_document(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n_equations": 1}')
        code, _, err = run(capsys, "analyze", "--input", str(bad))
        assert code == 2

    def test_augmenting_path_longer_than_the_recursion_limit(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(chain_document(3001))
        code, out, _ = run(capsys, "analyze", "--input", str(path))
        assert code == 0
        assert json.loads(out)["exposed"] == []


class TestConnections:
    def test_json_lines_with_classes(self, capsys):
        code, out, _ = run(
            capsys, "connections", "--input", DOC3, "--exposed", "3", "--classify"
        )
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert len(lines) == 2
        by_class = {line["class"]: line["triples"] for line in lines}
        assert by_class["explicit"] == [[2, [1, 0], 1], [3, [2, 0], 2]]
        assert by_class["implicit"] == [[3, [1, 0], 1], [3, [2, 0], 2]]

    def test_json_lines_without_classify(self, capsys):
        code, out, _ = run(capsys, "connections", "--input", DOC3, "--exposed", "3")
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert code == 0
        assert all("class" not in line for line in lines)

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, "connections", "--input", DOC3, "--exposed", "3",
            "--classify", "--format", "text",
        )
        assert code == 0
        assert "[explicit]" in out
        assert "[implicit]" in out

    def test_limit_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "connections", "--input", DOC4, "--exposed", "4", "--limit", "3"
        )
        assert code == 3
        assert len(out.strip().splitlines()) == 3

    def test_matched_equation_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "connections", "--input", DOC3, "--exposed", "1")
        assert code == 2
        assert "matched" in err

    def test_unknown_equation_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "connections", "--input", DOC3, "--exposed", "9")
        assert code == 2


def scenario_document(kind: str, n: int, rng: random.Random) -> str:
    """A scenario family as a document: each edge (i, (k, 0)) becomes one or
    two occurrences of x_k at seeded derivative orders."""
    g, _, _ = ds.generate_scenario(kind, n)
    equations = []
    for i in g.eq_nodes:
        occs = [
            {"var": v.var_index, "shift": 0, "deriv": q}
            for v in g.groups_of(i)
            for q in sorted(rng.sample(range(3), rng.randint(1, 2)))
        ]
        equations.append({"index": i, "occurrences": occs})
    return json.dumps({"n_equations": n, "n_variables": n - 1, "equations": equations})


# an exposed equation without occurrences reaches nothing
DEGENERATE = json.dumps({
    "n_equations": 2, "n_variables": 1,
    "equations": [
        {"index": 1, "occurrences": [{"var": 1, "shift": 0, "deriv": 1}]},
        {"index": 2, "occurrences": []},
    ],
})


def per_tree_stream(text: str, exposed: int, classify: bool, fmt: str, limit):
    """The connection lines as built one tree at a time: each tree translated
    to a connection, classified triple by triple and formatted whole."""
    s = ds.parse_ddae(text)
    g = ds.build_shifting_graph(s)
    gd = ds.build_ddae_graph(s) if classify else None
    m, _ = ds.compute_matching(g)
    h = ds.build_connection_graph(g, m, ds.alternating_reach(g, m, exposed))
    lines = []

    def on_tree(t):
        c = ds.tree_to_connection(t, h)
        cls = ds.classify_connection(c, gd) if gd is not None else None
        if fmt == "json":
            payload = {
                "triples": [[i, [v.var_index, v.shift], l] for i, v, l in c.sorted_triples()]
            }
            if not c.triples:
                payload["degenerate"] = True
            if cls is not None:
                payload["class"] = cls
            lines.append(json.dumps(payload) + "\n")
        else:
            parts = [
                f"F{i} -({v.var_index},{v.shift})-> F{l}" for i, v, l in c.sorted_triples()
            ]
            tag = f" [{cls}]" if cls else ""
            body = "; ".join(parts) if parts else "(empty: nothing to reach)"
            lines.append(f"connection{tag}: {body}\n")

    d = ds.Digraph(h.nodes, h.arcs)
    ds.enumerate_arborescences(d, exposed, on_tree, limit)
    return "".join(lines), ds.count_arborescences(d, exposed)


class TestConnectionStreamParity:
    def documents(self):
        rng = random.Random(41)
        docs = [(Path(DOC3).read_text(), 3), (Path(DOC4).read_text(), 4), (DEGENERATE, 2)]
        for kind, n in (("complete", 5), ("triangular", 6), ("banded", 7)):
            docs.append((scenario_document(kind, n, rng), n))
        return docs

    def test_lines_equal_the_per_tree_path(self, capsys, tmp_path):
        classes = set()
        for k, (text, exposed) in enumerate(self.documents()):
            path = tmp_path / f"doc{k}.json"
            path.write_text(text)
            _, total = per_tree_stream(text, exposed, False, "json", None)
            for fmt in ("json", "text"):
                for classify in (False, True):
                    for limit in (None, total - 1, total, total + 1):
                        argv = ["connections", "--input", str(path),
                                "--exposed", str(exposed), "--format", fmt]
                        argv += ["--classify"] if classify else []
                        argv += ["--limit", str(limit)] if limit is not None else []
                        code, out, _ = run(capsys, *argv)
                        expected, _ = per_tree_stream(text, exposed, classify, fmt, limit)
                        assert out == expected, argv
                        assert code == (3 if limit is not None and limit < total else 0)
                        if classify and fmt == "json":
                            classes.update(json.loads(line)["class"] for line in out.splitlines())
        assert classes == {"explicit", "implicit"}

    def test_degenerate_line(self, capsys, tmp_path):
        path = tmp_path / "degenerate.json"
        path.write_text(DEGENERATE)
        code, out, _ = run(capsys, "connections", "--input", str(path), "--exposed", "2",
                           "--classify")
        assert code == 0
        assert json.loads(out) == {"triples": [], "degenerate": True, "class": "explicit"}


class TestArborescences:
    def test_stream(self, capsys, digraph_file):
        code, out, _ = run(capsys, "arborescences", "--graph", digraph_file)
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert {tuple(map(tuple, line["arcs"])) for line in lines} == {
            ((3, 1), (3, 2)),
            ((2, 1), (3, 2)),
        }
        assert all(line["root"] == 3 for line in lines)

    def test_root_flag_overrides_file(self, capsys, digraph_file):
        code, out, _ = run(
            capsys, "arborescences", "--graph", digraph_file, "--root", "1"
        )
        assert code == 0
        assert out.strip() == ""  # nothing spans from node 1

    def test_limit_exit_code(self, capsys, digraph_file):
        code, out, _ = run(
            capsys, "arborescences", "--graph", digraph_file, "--limit", "1"
        )
        assert code == 3
        assert len(out.strip().splitlines()) == 1

    def test_self_loop_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps({"nodes": [1], "root": 1, "arcs": [[1, 1]]}))
        code, _, err = run(capsys, "arborescences", "--graph", str(path))
        assert code == 2

    def test_missing_root(self, capsys, tmp_path):
        path = tmp_path / "rootless.json"
        path.write_text(json.dumps({"nodes": [1], "arcs": []}))
        code, _, err = run(capsys, "arborescences", "--graph", str(path))
        assert code == 2
        assert "root" in err


# inputs that once escaped as a traceback instead of an input error
UNREADABLE = {
    "nested-100000-deep": b"[" * 100_000 + b"]" * 100_000,
    "integer-of-5000-digits": b'{"n_equations": ' + b"9" * 5000 + b"}",
    "not-utf8": b'{"n_equations": 1, "label": "\xff"}',
    "root-is-array": b'{"nodes": [1, 2], "arcs": [[1, 2]], "root": [1]}',
    "root-is-object": b'{"nodes": [1, 2], "arcs": [[1, 2]], "root": {"id": 1}}',
}


class TestUnreadableInput:
    """Run as a process, so that an escaping exception shows as a traceback."""

    @pytest.mark.parametrize("name", sorted(UNREADABLE))
    @pytest.mark.parametrize("command, flag", [
        ("analyze", "--input"), ("arborescences", "--graph"),
        ("count", "--graph"), ("oracle", "--graph"),
    ])
    def test_input_error_without_traceback(self, tmp_path, command, flag, name):
        path = tmp_path / "input.json"
        path.write_bytes(UNREADABLE[name])
        proc = subprocess.run(
            [sys.executable, "-m", "ddaestruct", command, flag, str(path)],
            capture_output=True, text=True, env=subprocess_env(), timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in proc.stderr


class TestCountAndOracle:
    def test_count(self, capsys, digraph_file):
        code, out, _ = run(capsys, "count", "--graph", digraph_file)
        assert code == 0
        assert out.strip() == "2"

    def test_oracle(self, capsys, digraph_file):
        code, out, _ = run(capsys, "oracle", "--graph", digraph_file)
        assert code == 0
        assert out.strip() == "2"

    def test_oracle_cap(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"nodes": list(range(10)), "root": 0, "arcs": []}))
        code, _, err = run(capsys, "oracle", "--graph", str(path))
        assert code == 2
        assert "cap" in err


class TestBench:
    def test_stdout_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        code, out, _ = run(
            capsys, "bench", "--scenario", "banded", "--from", "5", "--to", "6",
            "--method", "both", "--csv", str(csv_path),
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "kind,n,method,count,elapsed_s,completed"
        assert len(lines) == 5
        counts = {
            (row[1], row[2]): int(row[3])
            for row in (line.split(",") for line in lines[1:])
        }
        assert counts[("5", "grow")] == counts[("5", "naive")] == 21
        assert counts[("6", "grow")] == counts[("6", "naive")] == 55
        assert csv_path.read_text().startswith("kind,n,method")
