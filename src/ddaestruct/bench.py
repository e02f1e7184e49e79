"""Benchmark scenarios, the naive baseline and the bench runner.

Three shifting-graph families parameterized by the equation count n, each
with groups v_1..v_{n-1} at shift 0, equation i matched to v_i for i < n,
and equation n exposed:

* banded: equation i touches v_{i-1}, v_i, v_{i+1} (clipped), last row full;
* triangular: equation i touches v_i..v_{n-1}, last row full;
* complete: every equation touches every group.

The naive baseline searches depth-first over ordered sequences of
alternating-path triples that attach to the structure built so far; the
same connection is found once per ordering, so the raw output is
deduplicated to sets and filtered through the verifier afterwards.  Its
exponential duplicate blow-up is the point of keeping it around.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

from .connections import Connection, ConnectionSearch
from .errors import BadSize, LimitExceeded
from .graphs import ShiftingGraph, VariableGroup
from .matching import Matching, alternating_reach
from .oracles import verify_connection

KINDS = ("banded", "triangular", "complete")
METHODS = ("grow", "naive")


@dataclass(frozen=True)
class BenchRecord:
    kind: str
    n: int
    method: str
    count: int
    elapsed: float
    completed: bool


def generate_scenario(kind: str, n: int) -> tuple[ShiftingGraph, Matching, int]:
    """Build the scenario shifting graph, its fixed matching and the exposed id."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if n < 2:
        raise BadSize(f"scenario needs n >= 2, got {n}")
    groups = tuple([VariableGroup(j, 0) for j in range(1, n)])  # v_j is groups[j - 1]
    if kind == "banded":
        groups_of = {i: groups[max(i - 2, 0):i + 1] for i in range(1, n)}
    elif kind == "triangular":
        groups_of = {i: groups[i - 1:] for i in range(1, n)}
    else:  # complete
        groups_of = dict.fromkeys(range(1, n), groups)
    groups_of[n] = groups
    g = ShiftingGraph(groups_of)
    m = Matching({i: groups[i - 1] for i in range(1, n)})
    return g, m, n


class _DeadlineHit(Exception):
    pass


def _naive_search(
    g: ShiftingGraph,
    m: Matching,
    exposed: int,
    limit: int | None = None,
    deadline: float | None = None,
) -> tuple[set[Connection], bool]:
    """Ordered-sequence DFS; returns (verified connection set, completed flag)."""
    reach = alternating_reach(g, m, exposed)
    targets = sorted(reach.reached_eqs)
    if not targets:
        # same convention as the streaming pipeline: one empty connection
        return {Connection(frozenset())}, True
    nodes = set(targets) | {exposed}
    in_from = {
        l: [i for i in sorted(nodes) if i != l and (i, m.group_of(l)) in g.edges]
        for l in targets
    }
    raw: set[frozenset] = set()
    chosen: list = []
    covered: set[int] = set()
    steps = 0

    def dfs() -> None:
        nonlocal steps
        if len(chosen) == len(targets):
            raw.add(frozenset(chosen))
            return
        for l in targets:
            if l in covered:
                continue
            v = m.group_of(l)
            for i in in_from[l]:
                if i != exposed and i not in covered:
                    continue
                steps += 1
                if limit is not None and steps > limit:
                    raise LimitExceeded(f"naive search exceeded {limit} steps")
                if deadline is not None and steps % 1024 == 0 and time.monotonic() >= deadline:
                    raise _DeadlineHit
                chosen.append((i, v, l))
                covered.add(l)
                dfs()
                chosen.pop()
                covered.discard(l)

    completed = True
    try:
        dfs()
    except _DeadlineHit:
        completed = False
    connections = {Connection(t) for t in raw}
    verified = {
        c for c in connections if verify_connection(c, g, m, exposed, reach)
    }
    return verified, completed


def naive_all_connections(
    g: ShiftingGraph, m: Matching, exposed: int, limit: int | None = None
) -> set[Connection]:
    """Baseline: enumerate, deduplicate and verify connections the slow way."""
    found, _ = _naive_search(g, m, exposed, limit=limit)
    return found


def run_bench(
    kind: str,
    n_from: int,
    n_to: int,
    methods=("grow",),
    time_limit: float | None = 600.0,
) -> list[BenchRecord]:
    """One record per (n, method); counts are exact unless completed is False.

    The enumeration methods run in count-only streaming mode and are cut
    off cleanly at the time limit, in which case the recorded count is a
    lower bound.
    """
    if n_from > n_to:
        raise BadSize(f"empty size range {n_from}..{n_to}")
    if time_limit is not None and not time_limit > 0:
        raise BadSize(f"time limit must be > 0, got {time_limit}")
    for meth in methods:
        if meth not in METHODS:
            raise ValueError(f"unknown method {meth!r}")
    records = []
    for n in range(n_from, n_to + 1):
        g, m, exposed = generate_scenario(kind, n)
        run = ConnectionSearch(g, m, exposed).run
        for method in sorted(set(methods)):
            deadline = None
            if time_limit is not None:
                deadline = time.monotonic() + time_limit
            t0 = time.perf_counter()
            if method == "grow":
                count = run.execute(deadline=deadline)
                completed = run.stopped is None
            else:
                found, completed = _naive_search(g, m, exposed, deadline=deadline)
                count = len(found)
            elapsed = time.perf_counter() - t0
            records.append(BenchRecord(kind, n, method, count, elapsed, completed))
    return records


def write_csv(records, path) -> None:
    """CSV columns: kind,n,method,count,elapsed_s,completed."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "n", "method", "count", "elapsed_s", "completed"])
        for rec in records:
            writer.writerow(
                [rec.kind, rec.n, rec.method, rec.count,
                 f"{rec.elapsed:.6f}", str(rec.completed).lower()]
            )
