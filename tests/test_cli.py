from __future__ import annotations

import json
import random
import subprocess
import sys
from contextlib import redirect_stdout
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

    def test_a_million_missing_equations_give_one_short_error_line(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"n_equations": 1000000, "n_variables": 1, "equations": []}')
        code, out, err = run(capsys, "analyze", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: equation indices missing: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and 999990 more"
        ]
        assert len(err.encode()) < 200

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

    def test_negative_limit_is_an_input_error(self, capsys):
        code, out, err = run(
            capsys, "connections", "--input", DOC4, "--exposed", "4", "--limit", "-1"
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: --limit must be >= 0, got -1"]

    def test_matched_equation_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "connections", "--input", DOC3, "--exposed", "1")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: equation 1 is matched, not exposed"]

    def test_unknown_equation_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "connections", "--input", DOC3, "--exposed", "9")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: equation 9 is not in the graph"]

    def test_reach_computed_for_the_asked_equation_only(self, capsys, tmp_path, monkeypatch):
        # equations 2 and 4 are exposed, each reaching one other equation
        path = tmp_path / "two-exposed.json"
        path.write_text(json.dumps({"n_equations": 4, "n_variables": 2, "equations": [
            {"index": i, "occurrences": [{"var": k, "shift": 0, "deriv": 0}]}
            for i, k in ((1, 1), (2, 1), (3, 2), (4, 2))
        ]}))
        calls = []
        reach = ds.matching.alternating_reach

        def counted(*args):
            calls.append(args[2])
            return reach(*args)

        monkeypatch.setattr(ds.matching, "alternating_reach", counted)
        monkeypatch.setattr(ds.connections, "alternating_reach", counted)
        code, out, _ = run(capsys, "connections", "--input", str(path), "--exposed", "4")
        assert code == 0
        assert len(out.splitlines()) == 1
        assert calls == [4]

    def test_chain_deeper_than_the_recursion_limit(self, tmp_path):
        # equation 1 holds x1, equation i holds x(i-1)' and x(i), equation
        # 1501 holds x1500: the exposed equation's connection graph is a
        # path through all 1,501 equations.  Run as a process, so that an
        # escaping exception shows as a traceback.
        n = 1500

        def occ(k, q=0):
            return {"var": k, "shift": 0, "deriv": q}

        equations = [{"index": 1, "occurrences": [occ(1)]}]
        equations += [{"index": i, "occurrences": [occ(i - 1, 1), occ(i)]} for i in range(2, n + 1)]
        equations.append({"index": n + 1, "occurrences": [occ(n)]})
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"n_equations": n + 1, "n_variables": n, "equations": equations}))
        proc = subprocess.run(
            [sys.executable, "-m", "ddaestruct", "connections", "--input", str(path),
             "--exposed", str(n + 1), "--classify"],
            capture_output=True, text=True, env=subprocess_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 1
        line = json.loads(lines[0])
        assert len(line["triples"]) == n
        assert line["class"] == ds.IMPLICIT


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

    run = ds.GrowRun(h, exposed)
    run.execute(lambda parent: on_tree(run.arborescence(parent)), limit=limit)
    return "".join(lines), ds.count_arborescences(h, exposed)


class Writes:
    """A stdout that keeps every write."""

    def __init__(self):
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)

    def flush(self) -> None:
        pass


class TestConnectionStreamParity:
    def documents(self):
        rng = random.Random(41)
        docs = [(Path(DOC3).read_text(), 3), (Path(DOC4).read_text(), 4), (DEGENERATE, 2)]
        # triangular n=8: 5,040 lines, written in many blocks
        for kind, n in (("complete", 5), ("triangular", 6), ("banded", 7), ("triangular", 8)):
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

    # connections writes its first line alone and the rest a block of lines
    # at a time
    @pytest.fixture(scope="class")
    def document(self, tmp_path_factory):
        # 7! = 5,040 connections
        text = scenario_document("triangular", 8, random.Random(43))
        path = tmp_path_factory.mktemp("blocks") / "triangular-8.json"
        path.write_text(text)
        return text, str(path)

    def writes(self, path: str, *flags: str) -> tuple[int, list[str]]:
        sink = Writes()
        with redirect_stdout(sink):
            code = main(["connections", "--input", path, "--exposed", "8", *flags])
        return code, sink.writes

    def test_first_line_alone_and_more_than_one_block(self, document):
        _, path = document
        code, writes = self.writes(path, "--classify")
        assert code == 0
        assert sum(w.count("\n") for w in writes) == 5040
        assert writes[0].count("\n") == 1
        # not held until the end, and not written line by line either
        assert 2 < len(writes) < 5040
        assert all(w.endswith("\n") for w in writes)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_limit_around_a_block_boundary(self, capsys, document, fmt, shift):
        text, path = document
        _, writes = self.writes(path, "--classify", "--format", fmt)
        # the line count at the end of the second write ends a block
        limit = writes[0].count("\n") + writes[1].count("\n") + shift
        code, out, _ = run(capsys, "connections", "--input", path, "--exposed", "8",
                           "--classify", "--format", fmt, "--limit", str(limit))
        assert code == 3
        assert len(out.splitlines()) == limit
        assert out == per_tree_stream(text, 8, True, fmt, limit)[0]

    def test_closed_pipe_exits_quietly(self, document):
        # the stream is far longer than a pipe holds, so the writer is still
        # writing when the reader goes
        _, path = document
        proc = subprocess.Popen(
            [sys.executable, "-m", "ddaestruct", "connections", "--input", path,
             "--exposed", "8", "--classify"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=subprocess_env(),
        )
        line = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert json.loads(line)["class"] in ("explicit", "implicit")
        assert err == b""  # no traceback


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

    def test_negative_limit_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "one_tree.json"
        path.write_text(json.dumps({"nodes": [1, 2], "arcs": [[1, 2]], "root": 1}))
        code, out, err = run(
            capsys, "arborescences", "--graph", str(path), "--limit", "-3"
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: --limit must be >= 0, got -3"]

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


# inputs that once escaped as a traceback, or were taken as valid, instead
# of giving an input error
UNREADABLE = {
    "nested-100000-deep": b"[" * 100_000 + b"]" * 100_000,
    "integer-of-5000-digits": b'{"n_equations": ' + b"9" * 5000 + b"}",
    "not-utf8": b'{"n_equations": 1, "label": "\xff"}',
    "root-is-array": b'{"nodes": [1, 2], "arcs": [[1, 2]], "root": [1]}',
    "root-is-object": b'{"nodes": [1, 2], "arcs": [[1, 2]], "root": {"id": 1}}',
    # JSON true and 1.0 hash and compare equal to the node 1, yet are no node id
    "root-is-true": b'{"nodes": [1, 2], "arcs": [[1, 2]], "root": true}',
    "root-is-float": b'{"nodes": [1, 2], "arcs": [[1, 2]], "root": 1.0}',
    "arc-endpoint-is-true": b'{"nodes": [1, 2], "arcs": [[true, 2]], "root": 1}',
    "node-listed-as-true": b'{"nodes": [1, true, 2], "arcs": [[1, 2]], "root": 1}',
    # Digraph holds at most one arc per ordered pair and would merge the two
    "arc-listed-twice": b'{"nodes": [1, 2], "arcs": [[1, 2], [1, 2]], "root": 1}',
    # a misspelt root would otherwise be ignored
    "unknown-digraph-key": b'{"nodes": [1, 2], "arcs": [[1, 2]], "root": 1, "rooot": 1}',
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


class TestMixedNodeIds:
    """Node ids that cannot be ordered together are an input error."""

    @pytest.mark.parametrize("command", ["arborescences", "count", "oracle"])
    @pytest.mark.parametrize("nodes", [["a", 1], [None, 1], [2.5, "b"]])
    def test_input_error(self, capsys, tmp_path, command, nodes):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(
            {"nodes": nodes, "arcs": [[nodes[0], nodes[1]]], "root": nodes[0]}
        ))
        code, out, err = run(capsys, command, "--graph", str(path))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: {path}: node ids must be all numbers or all strings"]


class TestCountAndOracle:
    def test_count(self, capsys, digraph_file):
        code, out, _ = run(capsys, "count", "--graph", digraph_file)
        assert code == 0
        assert out.strip() == "2"

    def test_oracle(self, capsys, digraph_file):
        code, out, _ = run(capsys, "oracle", "--graph", digraph_file)
        assert code == 0
        assert out.strip() == "2"

    def test_count_with_stdout_closed(self, digraph_file):
        # the process starts with no stdout at all, so sys.stdout is None
        proc = subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "ddaestruct",
             "count", "--graph", digraph_file],
            capture_output=True, text=True, env=subprocess_env(), timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""

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

    @pytest.mark.parametrize("limit", ["-1", "0", "nan"])
    def test_time_limit_not_positive_is_an_input_error(self, capsys, limit):
        code, out, err = run(
            capsys, "bench", "--scenario", "banded", "--from", "3", "--to", "4",
            "--time-limit", limit,
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: time limit must be > 0, got {float(limit)}"]
