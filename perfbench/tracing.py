"""Spans around the calls into each module of the package, from outside it.

`Tracer.install` rebinds the timed public functions of `ddaestruct` in
every module that binds them (so `cli`, `connections` and the package
namespace all call the traced version), patches the two classes of the
enumerator, and swaps the `json` that `cli` sees for one whose `dumps` is
traced.  `uninstall` puts every original back.  The package itself holds
no tracing code.

A span is (name, parent, start, end), kept in flat arrays while the run
lasts, written to a file when it ends, and reduced from that file to self
times per call: a span's duration minus the durations of its children.
"""

from __future__ import annotations

import json
import sys
import types
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import ddaestruct as ds
from ddaestruct import arborescence, cli

# layer -> public calls whose self time is the layer's time
LAYERS = {
    "structure": ("parse_ddae",),
    "graphs": ("build_shifting_graph", "build_ddae_graph"),
    "matching": ("compute_matching", "alternating_reach"),
    "connection_graph": ("build_connection_graph",),
    "arborescence": ("init", "execute"),
    "connections": ("find_all_connections", "collect_connections",
                    "tree_to_connection", "classify_connection", "visitor"),
    "cli": ("main", "visitor", "json_dumps", "write"),
}
OP = "op"  # the benchmark's span around one operation; its self time is unattributed


def _count(sizes: dict):
    """A counter hook: counts[key] += size(args, result) for each key."""
    def count(counts, args, result):
        for key, size in sizes.items():
            counts[key] += size(args, result)
    return count


# per traced function: (layer, function, counter hook or None)
_FUNCTIONS = (
    ("structure", ds.parse_ddae,
     _count({"structure.bytes": lambda args, s: len(args[0].encode())})),
    ("graphs", ds.build_shifting_graph,
     _count({"graphs.edges": lambda args, g: len(g.edges)})),
    ("graphs", ds.build_ddae_graph,
     _count({"graphs.occurrences": lambda args, g: len(g.edges)})),
    ("matching", ds.compute_matching,
     _count({"matching.exposed": lambda args, r: len(r[1])})),
    ("matching", ds.alternating_reach,
     _count({"matching.reach_eqs": lambda args, r: len(r.reached_eqs)})),
    ("connection_graph", ds.build_connection_graph,
     _count({"connection_graph.nodes": lambda args, h: len(h.nodes),
               "connection_graph.arcs": lambda args, h: len(h.arcs)})),
    ("connections", ds.find_all_connections, None),
    ("connections", ds.collect_connections, None),
    ("connections", ds.tree_to_connection, None),
    ("connections", ds.classify_connection,
     _count({"connections.explicit": lambda args, cls: cls == ds.EXPLICIT,
               "connections.implicit": lambda args, cls: cls == ds.IMPLICIT})),
    ("cli", cli.main, None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None):
        """fn, recording one span per call and feeding count(counts, args, result)."""
        nid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        open_ = self._open
        counts = self.counts

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                open_.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, sink) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "ddaestruct" or name.startswith("ddaestruct.")]
        for layer, fn, count in _FUNCTIONS:
            traced = self.wrap(f"{layer}.{fn.__name__}", fn, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, attr, traced)

        init = "arborescence.init"
        self._set(arborescence.Digraph, "__init__",
                  self.wrap(init, arborescence.Digraph.__init__))
        self._set(arborescence.GrowRun, "__init__",
                  self.wrap(init, arborescence.GrowRun.__init__))
        execute = arborescence.GrowRun.execute
        wrap = self.wrap

        def execute_with_traced_visitor(run, visitor=None, *args, **kwargs):
            # the visitor's own time belongs to the module that defined it
            if visitor is not None:
                layer = visitor.__module__.rsplit(".", 1)[-1]
                visitor = wrap(f"{layer}.visitor", visitor)
            return execute(run, visitor, *args, **kwargs)

        self._set(arborescence.GrowRun, "execute",
                  self.wrap("arborescence.execute", execute_with_traced_visitor,
                            _count({"arborescence.trees": lambda args, n: n})))

        traced_json = types.ModuleType("json")
        traced_json.__dict__.update(vars(json))
        traced_json.dumps = self.wrap("cli.json_dumps", json.dumps)
        self._set(cli, "json", traced_json)
        self._set(sink, "write", self.wrap(
            "cli.write", sink.write,
            _count({"cli.bytes_out": lambda args, n: len(args[0].encode()),
                      "cli.lines": lambda args, n: args[0].count("\n")})))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        """Write the spans: a JSON header line, then the four arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.name)}
            fh.write(json.dumps(header).encode() + b"\n")
            for a in (self.name, self.parent, self.start, self.end):
                a.tofile(fh)


def read_spans(path: Path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in "iidd":
            a = array(code)
            a.fromfile(fh, n)
            arrays.append(a)
    return header["names"], arrays


def reduce_spans(path: Path) -> tuple[dict[str, int], dict[str, float], float]:
    """(calls per span name, self seconds per span name, wall seconds of all ops)."""
    names, (name, parent, start, end) = read_spans(path)
    n = len(name)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    calls: Counter = Counter()
    self_s: Counter = Counter()
    wall = 0.0
    op = names.index(OP) if OP in names else -1
    for i in range(n):
        nid = name[i]
        duration = end[i] - start[i]
        calls[names[nid]] += 1
        self_s[names[nid]] += duration - child[i]
        if nid == op:
            wall += duration
    return calls, self_s, wall
