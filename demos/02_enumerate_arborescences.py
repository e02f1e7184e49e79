#!/usr/bin/env python3
"""Walkthrough: streaming spanning-arborescence enumeration and its oracles.

Shows the enumerator on a small dense digraph, the visitor protocol, the
emission limit, the graph-restoration guarantee, and the two independent
ways of double-checking the answer.
"""

import ddaestruct as ds


def main() -> None:
    print(__doc__)
    g = ds.Digraph(
        nodes=["r", "a", "b", "c"],
        arcs=[
            ("r", "a"), ("r", "b"), ("r", "c"),
            ("a", "b"), ("b", "c"), ("c", "a"), ("b", "a"),
        ],
    )
    print(f"digraph: {len(g.nodes)} nodes, {len(g.arcs)} arcs, root 'r'")

    # Streaming: the visitor sees each tree once, as the live array of its
    # nodes' in-arc indices; nothing is accumulated unless the visitor
    # does it.  run.arborescence(parent) turns the array into a tree.
    print("\nall spanning arborescences:")
    run = ds.GrowRun(g, "r")
    trees = []

    def show(parent: list[int]) -> None:
        trees.append(run.arborescence(parent))
        print(f"  {len(trees):2d}. {trees[-1].sorted_arcs()}")

    count = run.execute(visitor=show)

    # Oracle 1: exhaust all (|V|-1)-subsets of arcs.
    brute = ds.brute_force_arborescences(g, "r")
    # Oracle 2: in-degree Laplacian minor determinant, exact integers.
    determinant = ds.count_arborescences(g, "r")
    print(f"\nstreamed: {count}, brute force: {len(brute)}, "
          f"determinant: {determinant}")
    assert count == len(brute) == determinant
    assert {t.arcs for t in trees} == {t.arcs for t in brute}

    # Each emitted tree satisfies the arborescence invariants.
    for t in trees:
        assert ds.validate_arborescence(t, g) == []
    print("every emitted tree passes the invariant checker")

    # Count-only mode: no visitor, no per-tree objects, memory stays at
    # arc scale however many trees there are.
    print(f"count-only mode: {ds.GrowRun(g, 'r').execute()}")

    # A run can be cut off cleanly; the working graph is restored either way.
    limited = ds.GrowRun(g, "r")
    emitted = limited.execute(limit=2)
    print(f"limited run: emitted {emitted}, stop reason {limited.stopped!r}, "
          f"graph restored: {limited.working_arcs() == g.arcs}")


if __name__ == "__main__":
    main()
