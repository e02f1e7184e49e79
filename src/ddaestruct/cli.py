"""Command-line interface.

Subcommands: analyze, connections, arborescences, count, oracle, bench.
Exit codes: 0 on success, 2 on input errors, 3 when output was cut off by
a limit (--limit, naive search cap, or bench time limit does not count —
bench reports limits in its records instead).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .arborescence import (
    Digraph,
    GrowRun,
    brute_force_arborescences,
    count_arborescences,
)
from .bench import KINDS, run_bench, write_csv
from .connections import EXPLICIT, IMPLICIT, ConnectionSearch
from .errors import DdaeStructError, LimitExceeded, NotExposed
from .graphs import build_ddae_graph, build_shifting_graph
from .matching import compute_matching
from .structure import parse_ddae

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_LIMIT = 3


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
    try:
        g = Digraph(raw["nodes"], (tuple(a) for a in raw["arcs"]))
    except (TypeError, ValueError) as exc:
        raise DdaeStructError(f"{path}: bad digraph: {exc}") from exc
    root = root_arg if root_arg is not None else raw.get("root")
    if root is None:
        raise DdaeStructError("no root: pass --root or put 'root' in the file")
    if isinstance(root, (list, dict)):
        raise DdaeStructError(f"{path}: root must be a node id, not {json.dumps(root)}")
    return g, root


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


def _line_parts(search: ConnectionSearch, fmt: str):
    """Per-arc fragments and per-class line ends of the connection lines.

    A line is opening[explicit] + the fragments of the tree's arcs in
    ascending order of the node they enter + closing[explicit], where
    explicit is the tree's class as a bool.  The arcs entering the first
    covered equation carry no separator, and a trailing "" stands for the
    root's -1 in the parent array.
    """
    run = search.run
    first = min((x for x in run.node_ids if x != run.root), default=None)
    frags = []
    for i, v, l in search.triples:
        if fmt == "json":
            sep, text = ", ", json.dumps([i, _group_json(v), l])
        else:
            sep, text = "; ", f"F{i} -({v.var_index},{v.shift})-> F{l}"
        frags.append(text if l == first else sep + text)
    frags.append("")

    classes = (IMPLICIT, EXPLICIT) if search.implicit is not None else (None, None)
    if fmt == "json":
        close = "]" if first is not None else '], "degenerate": true'
        opening = ('{"triples": [',) * 2
        closing = tuple(
            close + ("" if cls is None else ', "class": ' + json.dumps(cls)) + "}\n"
            for cls in classes
        )
    else:
        opening = tuple(
            "connection" + ("" if cls is None else f" [{cls}]") + ": " for cls in classes
        )
        closing = ("\n" if first is not None else "(empty: nothing to reach)\n",) * 2
    return frags, opening, closing


def _cmd_connections(args) -> int:
    s = parse_ddae(_read_text(args.input))
    g = build_shifting_graph(s)
    gd = build_ddae_graph(s) if args.classify else None
    m, reports = compute_matching(g)
    reach = next((r for r in reports if r.exposed == args.exposed), None)
    if reach is None:
        if args.exposed in g.eq_nodes:
            raise NotExposed(f"equation {args.exposed} is matched, not exposed")
        raise NotExposed(f"equation {args.exposed} is not in the document")
    search = ConnectionSearch(g, m, args.exposed, gd, reach)
    frags, opening, closing = _line_parts(search, args.format)
    frag = frags.__getitem__
    implicit = search.implicit or frozenset()
    write = sys.stdout.write

    def on_tree(parent: list[int]) -> None:
        explicit = implicit.isdisjoint(parent)
        write(opening[explicit] + "".join(map(frag, parent)) + closing[explicit])

    search.run.execute(visitor=on_tree, limit=args.limit)
    return EXIT_LIMIT if search.run.stopped == "limit" else EXIT_OK


def _cmd_arborescences(args) -> int:
    g, root = _load_digraph(args.graph, args.root)
    run = GrowRun(g, root)

    def on_tree(parent: list[int]) -> None:
        t = run.arborescence(parent)
        print(json.dumps({"root": t.root, "arcs": [list(a) for a in t.sorted_arcs()]}))

    run.execute(visitor=on_tree, limit=args.limit)
    return EXIT_LIMIT if run.stopped == "limit" else EXIT_OK


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
        return args.func(args)
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except DdaeStructError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
