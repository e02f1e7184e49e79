"""The three workloads: seeded set-up, one operation per input, and its check.

Each workload's `setup(seed, workdir)` returns a list of `(run, check)`
pairs.  `run()` is the timed operation; it drives the package only through
its user surfaces (the CLI entry point and the README's library calls) and
looks every name up at call time, so that the traced run sees the same
calls.  `check(output)` runs outside every timed region and returns
`(ok, results, first)`: whether the output matches the oracle, how many
connections (trees) it delivered, and the `perf_counter` time at which
the first of them was available, or None when that is the end of the
operation.
"""

from __future__ import annotations

import json
import random
from contextlib import redirect_stdout
from functools import partial
from pathlib import Path
from time import perf_counter

import ddaestruct as ds
from ddaestruct import cli

import generate as gen


class Sink:
    """The CLI's stdout: keeps what is written and when writing began."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.parts: list[str] = []
        self.first: float | None = None

    def write(self, s: str) -> int:
        if self.first is None:
            self.first = perf_counter()
        self.parts.append(s)
        return len(s)

    def flush(self) -> None:
        pass


# --- dense-count: the enumerator core, count only ------------------------

def _count(g: gen.CountGraph) -> int:
    return ds.GrowRun(ds.Digraph(g.nodes, g.arcs), g.root).execute()


def _check_count(g: gen.CountGraph, count: int):
    return count == g.count, count, None


def dense_count(seed: int, workdir: Path, sink: Sink):
    graphs = gen.count_graphs(random.Random(seed))
    return [(partial(_count, g), partial(_check_count, g)) for g in graphs]


# --- stream-classify: document in, classified JSON lines out -------------

def _stream(path: str, exposed: int, sink: Sink):
    sink.reset()
    with redirect_stdout(sink):
        code = cli.main(["connections", "--input", path,
                         "--exposed", str(exposed), "--classify"])
    return code, sink.parts, sink.first


def _check_stream(doc: gen.ScenarioDocument, output):
    code, parts, first = output
    lines = "".join(parts).splitlines()
    classes = [json.loads(line)["class"] for line in lines]
    ok = (
        code == 0
        and len(lines) == doc.count
        and len(set(lines)) == len(lines)
        and classes.count(ds.EXPLICIT) == doc.explicit
        and classes.count(ds.IMPLICIT) == doc.count - doc.explicit
    )
    return ok, len(lines), first


def stream_classify(seed: int, workdir: Path, sink: Sink):
    ops = []
    for k, doc in enumerate(gen.scenario_documents(random.Random(seed))):
        path = workdir / f"stream-{k}-{doc.kind}-{doc.n}.json"
        path.write_text(doc.text, encoding="utf-8")
        ops.append((partial(_stream, str(path), doc.exposed, sink),
                    partial(_check_stream, doc)))
    return ops


# --- doc-batch: the README library path on sparse documents --------------

def _analyse(text: str):
    s = ds.parse_ddae(text)
    g = ds.build_shifting_graph(s)
    gd = ds.build_ddae_graph(s)
    m, reports = ds.compute_matching(g)
    first = None
    found = []
    for r in reports:
        report = ds.collect_connections(g, m, r.exposed, gd, limit=gen.BATCH_LIMIT)
        if first is None and report.connections:
            first = perf_counter()
        found.append(report)
    return found, first


def _oracle_class(doc: gen.SparseDocument, c) -> str:
    if all(gen.witnessed(doc.occurrences, i, v.var_index, v.shift, l)
           for i, v, l in c.triples):
        return ds.EXPLICIT
    return ds.IMPLICIT


def _check_analysis(doc: gen.SparseDocument, output):
    found, first = output
    ok = [r.exposed for r in found] == [o.exposed for o in doc.exposed]
    results = 0
    for report, oracle in zip(found, doc.exposed):
        results += len(report.connections)
        ok = ok and len(report.connections) == oracle.expected and all(
            ds.verify_connection(c, doc.shifting, doc.matching, oracle.exposed, oracle.reach)
            and cls == _oracle_class(doc, c)
            for c, cls in zip(report.connections, report.classes)
        )
    return ok, results, first


def doc_batch(seed: int, workdir: Path, sink: Sink):
    docs = gen.sparse_documents(random.Random(seed))
    return [(partial(_analyse, d.text), partial(_check_analysis, d)) for d in docs]


WORKLOADS = {
    "dense-count": dense_count,
    "stream-classify": stream_classify,
    "doc-batch": doc_batch,
}
