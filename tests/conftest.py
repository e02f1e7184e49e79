from __future__ import annotations

import json
import os
import random
import tempfile
from pathlib import Path

import pytest

import ddaestruct as ds

DATA = Path(__file__).parent / "data"


def pytest_configure(config):
    # hypothesis caches the literals of local modules in its home directory
    # while it collects, by default .hypothesis/ in the working directory;
    # give it a temporary one that goes with the session
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:
        return
    config.hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(config.hypothesis_home.name)


def pytest_unconfigure(config):
    home = getattr(config, "hypothesis_home", None)
    if home is not None:
        home.cleanup()


def subprocess_env() -> dict[str, str]:
    """The environment for a child Python that imports this same package."""
    src = str(Path(ds.__file__).resolve().parents[1])
    paths = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def G(k: int, p: int) -> ds.VariableGroup:
    return ds.VariableGroup(k, p)


@pytest.fixture(scope="session")
def doc3() -> str:
    return (DATA / "ddae_3eq.json").read_text()


@pytest.fixture(scope="session")
def doc4() -> str:
    return (DATA / "ddae_4eq.json").read_text()


@pytest.fixture(scope="session")
def sys3(doc3):
    return ds.parse_ddae(doc3)


@pytest.fixture(scope="session")
def sys4(doc4):
    return ds.parse_ddae(doc4)


@pytest.fixture(scope="session")
def graph3(sys3):
    return ds.build_shifting_graph(sys3)


@pytest.fixture(scope="session")
def graph4(sys4):
    return ds.build_shifting_graph(sys4)


@pytest.fixture(scope="session")
def matched3(graph3):
    return ds.compute_matching(graph3)


@pytest.fixture(scope="session")
def matched4(graph4):
    return ds.compute_matching(graph4)


def collect_trees(g, root, limit=None):
    """Enumerate g from root; the count and every emitted tree, in order."""
    run = ds.GrowRun(g, root)
    trees = []
    n = run.execute(lambda parent: trees.append(run.arborescence(parent)), limit=limit)
    return n, trees


def random_digraph(rng: random.Random, max_nodes: int = 6, max_arcs: int = 14):
    """A random digraph plus a random root, sizes within the oracle range."""
    n = rng.randint(1, max_nodes)
    nodes = list(range(1, n + 1))
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    rng.shuffle(pairs)
    arcs = pairs[: rng.randint(0, min(max_arcs, len(pairs)))]
    return ds.Digraph(nodes, arcs), rng.choice(nodes)


def random_structure(rng: random.Random, max_eqs: int = 5, max_vars: int = 4):
    """A random valid incidence structure with shifts in -1..2, derivs 0..2."""
    n_eq = rng.randint(1, max_eqs)
    n_var = rng.randint(1, max_vars)
    equations = []
    for i in range(1, n_eq + 1):
        occs = set()
        for _ in range(rng.randint(0, 5)):
            occs.add(
                ds.VarOccurrence(
                    rng.randint(1, n_var), rng.randint(-1, 2), rng.randint(0, 2)
                )
            )
        equations.append(ds.EquationStruct(i, tuple(sorted(occs))))
    return ds.DdaeStructure(n_eq, n_var, tuple(equations))


def chain_document(n: int) -> str:
    """Equation i < n holds x_i and x_{i+1}, equation n holds only x_2.

    Matching in ascending order gives equation i the group of x_i until
    equation n, whose only augmenting path re-routes equations 2..n-1.
    """
    def occ(k):
        return {"var": k, "shift": 0, "deriv": 0}

    equations = [{"index": i, "occurrences": [occ(i), occ(i + 1)]} for i in range(1, n)]
    equations.append({"index": n, "occurrences": [occ(2)]})
    return json.dumps({"n_equations": n, "n_variables": n, "equations": equations})
