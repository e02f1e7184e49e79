"""The benchmark harness under perfbench/ still runs against this package.

The harness binds package names when it imports (the traced functions,
the enumerator's classes, the oracles it checks outputs with), so a name
that moves or goes away breaks the benchmark; these tests make it break
here first.  Each runs the harness as a process, as the benchmark does.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("dense-count", "stream-classify", "doc-batch")


def test_tracer_installs_and_uninstalls():
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
        "import tracing, workloads\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install(workloads.Sink())\n"
        "tracer.uninstall()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=subprocess_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.2", "--trace", str(trace)],
        capture_output=True, text=True, env=subprocess_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_without_failures(workload):
    _run(workload, trace=0)


def test_traced_doc_batch_reports_the_reach_and_graph_layers():
    metrics = _run("doc-batch", trace=1)["metrics"]
    for name in ("connection_graph.build_connection_graph.calls",
                 "matching.alternating_reach.calls",
                 "matching.reach_eqs", "connection_graph.nodes", "connection_graph.arcs"):
        assert metrics[name]["value"] > 0, name
