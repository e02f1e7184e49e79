"""Command-line interface.

Subcommands: analyze, connections, arborescences, count, oracle, bench.
Exit codes: 0 on success, 2 on input errors, 3 when output was cut off by
--limit or the naive search cap, 141 (128 + SIGPIPE) when the reader of
stdout closed it early, as `| head` does, with nothing on stderr.  bench
exits 2 on a bad size or a time limit that is not positive; a run its time
limit cuts off still exits 0, with completed=false in its record.

connections writes its first line at once and the rest in blocks of lines,
each gathered from a table of text pieces by index (see _line_parts).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from operator import itemgetter
from pathlib import Path

from .arborescence import Digraph, GrowRun, count_arborescences
from .bench import KINDS, run_bench, write_csv
from .connections import EXPLICIT, IMPLICIT, ConnectionSearch
from .errors import DdaeStructError, LimitExceeded, RootNotInGraph
from .graphs import build_ddae_graph, build_shifting_graph
from .matching import compute_matching, match_equations
from .oracles import brute_force_arborescences
from .structure import parse_ddae

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_LIMIT = 3
EXIT_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a writer a closed pipe killed

_DIGRAPH_KEYS = {"nodes", "arcs", "root"}
# table indices that connections gathers into one text and one write
_BLOCK = 4096


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DdaeStructError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DdaeStructError(f"{path}: not UTF-8: {exc}") from exc


def _load_digraph(path: str, root_arg) -> tuple[Digraph, object]:
    try:
        raw = json.loads(_read_text(path))
    except (ValueError, RecursionError) as exc:
        raise DdaeStructError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or "nodes" not in raw or "arcs" not in raw:
        raise DdaeStructError(f"{path}: digraph JSON needs 'nodes' and 'arcs'")
    unknown = set(raw) - _DIGRAPH_KEYS
    if unknown:
        raise DdaeStructError(f"{path}: unknown digraph fields: {sorted(unknown)}")
    nodes, arcs = raw["nodes"], raw["arcs"]
    if not isinstance(nodes, list) or not isinstance(arcs, list):
        raise DdaeStructError(f"{path}: 'nodes' and 'arcs' must be lists")
    try:
        arcs = [tuple(a) for a in arcs]
        g = Digraph(nodes, arcs)
    except (TypeError, ValueError) as exc:
        raise DdaeStructError(f"{path}: bad digraph: {exc}") from exc
    if len(g.nodes) != len(nodes):
        raise DdaeStructError(f"{path}: 'nodes' lists an id twice")
    try:
        sorted(g.nodes)  # the enumerator orders nodes by id
    except TypeError:
        raise DdaeStructError(
            f"{path}: node ids must be all numbers or all strings"
        ) from None
    # JSON true and 1.0 hash and compare equal to the node 1, so an id is
    # looked up together with its type
    ids = {(type(x), x) for x in nodes}
    for u, v in arcs:
        if (type(u), u) not in ids or (type(v), v) not in ids:
            raise DdaeStructError(
                f"{path}: arc {json.dumps([u, v])} has an endpoint that is not a node id"
            )
    if len(g.arcs) != len(arcs):
        # every endpoint is a node id of its own type now, so arcs that
        # Digraph merged are the same arc listed twice
        seen = set()
        for arc in arcs:
            if arc in seen:
                raise DdaeStructError(f"{path}: arc {json.dumps(list(arc))} listed twice")
            seen.add(arc)
    root = root_arg if root_arg is not None else raw.get("root")
    if root is None:
        raise DdaeStructError("no root: pass --root or put 'root' in the file")
    if isinstance(root, (list, dict)) or (type(root), root) not in ids:
        raise RootNotInGraph(f"root {root!r} not in graph")
    return g, root


def _run_limited(run: GrowRun, visitor, limit: int | None) -> int:
    """Run the enumeration under --limit; exit 3 if the limit cut it short."""
    if limit is not None and limit < 0:
        raise DdaeStructError(f"--limit must be >= 0, got {limit}")
    run.execute(visitor=visitor, limit=limit)
    return EXIT_LIMIT if run.stopped == "limit" else EXIT_OK


def _group_json(v) -> list[int]:
    return [v.var_index, v.shift]


def _cmd_analyze(args) -> int:
    s = parse_ddae(_read_text(args.input))
    g = build_shifting_graph(s)
    m, reports = compute_matching(g)
    edges = sorted(g.edges, key=lambda e: (e[0], e[1]))
    payload = {
        "eq_nodes": list(g.eq_nodes),
        "group_nodes": [_group_json(v) for v in sorted(g.group_nodes)],
        "edges": [[i, _group_json(v)] for i, v in edges],
        "matching": [[i, _group_json(v)] for i, v in sorted(m.pairs.items())],
        "exposed": [
            {"eq": r.exposed, "reach": sorted(r.reached_eqs)} for r in reports
        ],
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"equations: {len(g.eq_nodes)}")
        print("groups:   ", " ".join(f"({v.var_index},{v.shift})" for v in sorted(g.group_nodes)))
        for i, v in edges:
            print(f"edge:      F{i} -- ({v.var_index},{v.shift})")
        for i, v in sorted(m.pairs.items()):
            print(f"matched:   F{i} -> ({v.var_index},{v.shift})")
        for r in reports:
            reach = ", ".join(f"F{k}" for k in sorted(r.reached_eqs)) or "(nothing)"
            print(f"exposed:   F{r.exposed} reaches {reach}")
    return EXIT_OK


def _line_parts(search: ConnectionSearch, fmt: str) -> tuple[list[str], tuple, tuple]:
    """The table that connection lines are gathered from, by index.

    The table holds each arc's fragment at the arc's index in the run, then
    the two openings and the two closings of a line, and "" last, which the
    root's -1 in a parent array indexes.  opening[explicit] and
    closing[explicit] are the indices of a line's ends for a tree of that
    class (the same piece twice without an occurrence graph).  A line is
    the pieces at opening[explicit], at each entry of the parent array (the
    tree's arcs in ascending order of the node they enter) and at
    closing[explicit].  The arcs entering the first covered equation carry
    no separator.
    """
    run = search.run
    first = min((x for x in run.node_ids if x != run.root), default=None)
    table = []
    for i, v, l in search.triples:
        if fmt == "json":
            sep, text = ", ", json.dumps([i, _group_json(v), l])
        else:
            sep, text = "; ", f"F{i} -({v.var_index},{v.shift})-> F{l}"
        table.append(text if l == first else sep + text)

    classes = (IMPLICIT, EXPLICIT) if search.implicit is not None else (None, None)
    if fmt == "json":
        close = "]" if first is not None else '], "degenerate": true'
        table += ['{"triples": ['] * 2
        table += [
            close + ("" if cls is None else ', "class": ' + json.dumps(cls)) + "}\n"
            for cls in classes
        ]
    else:
        table += ["connection" + ("" if cls is None else f" [{cls}]") + ": " for cls in classes]
        table += ["\n" if first is not None else "(empty: nothing to reach)\n"] * 2
    n = len(search.triples)
    table.append("")
    return table, (n, n + 1), (n + 2, n + 3)


def _cmd_connections(args) -> int:
    s = parse_ddae(_read_text(args.input))
    g = build_shifting_graph(s)
    gd = build_ddae_graph(s) if args.classify else None
    search = ConnectionSearch(g, match_equations(g), args.exposed, gd)
    table, opening, closing = _line_parts(search, args.format)
    implicit = search.implicit or frozenset()
    write = sys.stdout.write
    # a tree is three or more table indices, so itemgetter gives a tuple
    block: list[int] = []
    put, extend = block.append, block.extend
    bound = 0  # the first line goes out on its own

    def write_block() -> None:
        write("".join(itemgetter(*block)(table)))
        block.clear()

    def on_tree(parent: list[int]) -> None:
        nonlocal bound
        explicit = implicit.isdisjoint(parent)
        put(opening[explicit])
        extend(parent)
        put(closing[explicit])
        if len(block) >= bound:
            write_block()
            bound = _BLOCK

    code = _run_limited(search.run, on_tree, args.limit)
    if block:
        write_block()
    return code


def _cmd_arborescences(args) -> int:
    g, root = _load_digraph(args.graph, args.root)
    run = GrowRun(g, root)

    def on_tree(parent: list[int]) -> None:
        t = run.arborescence(parent)
        print(json.dumps({"root": t.root, "arcs": [list(a) for a in t.sorted_arcs()]}))

    return _run_limited(run, on_tree, args.limit)


def _cmd_count(args) -> int:
    g, root = _load_digraph(args.graph, args.root)
    print(count_arborescences(g, root))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    g, root = _load_digraph(args.graph, args.root)
    print(len(brute_force_arborescences(g, root, cap=args.cap)))
    return EXIT_OK


def _cmd_bench(args) -> int:
    methods = ("grow", "naive") if args.method == "both" else (args.method,)
    records = run_bench(
        args.scenario, args.n_from, args.n_to,
        methods=methods, time_limit=args.time_limit,
    )
    print("kind,n,method,count,elapsed_s,completed")
    for rec in records:
        print(
            f"{rec.kind},{rec.n},{rec.method},{rec.count},"
            f"{rec.elapsed:.6f},{str(rec.completed).lower()}"
        )
    if args.csv:
        write_csv(records, args.csv)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddaestruct",
        description="Structural analysis of delay DAEs: matchings, exposed "
        "equations and exhaustive connection enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="shifting graph, matching and exposed equations")
    p.add_argument("--input", required=True, help="DDAE incidence JSON file")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("connections", help="all connections for an exposed equation")
    p.add_argument("--input", required=True, help="DDAE incidence JSON file")
    p.add_argument("--exposed", required=True, type=int, help="exposed equation index")
    p.add_argument("--classify", action="store_true", help="label explicit/implicit")
    p.add_argument("--limit", type=int, default=None, help="stop after N connections")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_connections)

    p = sub.add_parser("arborescences", help="stream spanning arborescences of a digraph")
    p.add_argument("--graph", required=True, help="digraph JSON file")
    p.add_argument("--root", type=int, default=None)
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=_cmd_arborescences)

    p = sub.add_parser("count", help="exact arborescence count (determinant)")
    p.add_argument("--graph", required=True)
    p.add_argument("--root", type=int, default=None)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("oracle", help="exhaustive arborescence count (small graphs)")
    p.add_argument("--graph", required=True)
    p.add_argument("--root", type=int, default=None)
    p.add_argument("--cap", type=int, default=8, help="node-count cap")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", help="reproduce the scenario connection counts")
    p.add_argument("--scenario", choices=KINDS, required=True)
    p.add_argument("--from", dest="n_from", type=int, required=True)
    p.add_argument("--to", dest="n_to", type=int, required=True)
    p.add_argument("--method", choices=("grow", "naive", "both"), default="grow")
    p.add_argument("--time-limit", type=float, default=600.0)
    p.add_argument("--csv", default=None, help="also write records to this CSV file")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        if sys.stdout is not None:  # None when the process started with it closed
            sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so that the interpreter's flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_PIPE
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except DdaeStructError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
