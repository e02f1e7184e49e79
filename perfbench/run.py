"""Benchmark of ddaestruct: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload dense-count --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`.  The run sets up its inputs from the seed (several
times, to time set-up), runs one operation untimed to warm up, then runs
whole passes over its inputs, one operation at a time, until the timed
operations add up to `--seconds`.  Every output is checked against an
oracle after its operation, outside the timed region.

Each set-up and each operation runs pinned to the next CPU the process
may use, in turn (Linux `sched_setaffinity`).  On a shared VM each vCPU
switches between a fast phase and one about 1.4x slower, every few
seconds and independently of the other vCPUs; taking the CPUs in turn
averages those phases and halves the run-to-run spread of the medians.

With `--trace 0` the last line holds the end-to-end metrics of
BENCHMARK.json.  With `--trace 1` the passes run with spans around every
call into the package; the same passes then run again without spans, and
the last line holds the per-layer metrics, tracing overhead included.
Spans are written to `perfbench/out/spans-<workload>.bin`.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5  # set-up runs at least this often and for SETUP_SECONDS
SETUP_SECONDS = 1.0
TAIL_PCT = 90  # the tail is this percentile, across the inputs, of their median latencies
MAX_TRACEBACKS = 3


def _import_package():
    package = SRC / "ddaestruct" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run inside a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import ddaestruct

    if Path(ddaestruct.__file__).resolve() != package.resolve():
        sys.exit(f"error: imported {ddaestruct.__file__}, not {package}")


class Outcome:
    """Per-operation records of one measured loop."""

    def __init__(self):
        self.durations: list[float] = []
        self.inputs: list[int] = []  # position in the pass of each operation
        self.first: list[float] = []
        self.pass_busy: list[float] = []  # timed seconds of each whole pass
        self.pass_results: list[int] = []  # connections delivered in each pass
        self.results = 0
        self.failed = 0
        self.passes = 0

    @property
    def busy(self) -> float:
        return sum(self.durations)


def measure(ops, cpus, seconds: float | None, passes: int | None = None) -> Outcome:
    """Closed loop, one caller: whole passes over ops until `seconds` of
    timed operations have run (or exactly `passes` passes), each operation
    on the next CPU of the cycle `cpus`."""
    out = Outcome()
    while (out.busy < seconds) if passes is None else (out.passes < passes):
        start_busy, start_results = out.busy, out.results
        for k, (run, check) in enumerate(ops):
            os.sched_setaffinity(0, {next(cpus)})
            error = None
            t0 = perf_counter()
            try:
                output = run()
            except Exception as exc:  # a failing operation is counted, not fatal
                error = exc
            t1 = perf_counter()
            out.durations.append(t1 - t0)
            out.inputs.append(k)
            if error is None:
                ok, results, first = check(output)
            else:
                ok, results, first = False, 0, None
                if out.failed < MAX_TRACEBACKS:
                    traceback.print_exception(error, file=sys.stderr)
            out.first.append((first if first is not None else t1) - t0)
            if ok:
                out.results += results
            else:
                out.failed += 1
        out.pass_busy.append(out.busy - start_busy)
        out.pass_results.append(out.results - start_results)
        out.passes += 1
    return out


def tail(out: Outcome) -> float:
    """TAIL_PCT-th percentile, across the inputs, of each input's median
    latency over the run's passes.  The median over passes drops the
    passes that a burst of interference from outside slowed down; what is
    left is the tail that the inputs themselves cause."""
    per_input: dict[int, list[float]] = {}
    for k, d in zip(out.inputs, out.durations):
        per_input.setdefault(k, []).append(d)
    medians = sorted(statistics.median(ds) for ds in per_input.values())
    if len(medians) == 1:
        return medians[0]
    return statistics.quantiles(medians, n=100, method="inclusive")[TAIL_PCT - 1]


def end_to_end(out: Outcome, setup_s: float) -> tuple[dict, dict]:
    busy = out.busy
    per_pass = len(out.durations) // out.passes
    metrics = {
        "setup_s": setup_s,
        "conn_per_s": statistics.median(
            r / b for r, b in zip(out.pass_results, out.pass_busy)),
        "ops_per_s": statistics.median(per_pass / b for b in out.pass_busy),
        "first_conn_ms": statistics.median(out.first) * 1e3,
        "latency_p50_ms": statistics.median(out.durations) * 1e3,
        "latency_tail_ms": tail(out) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "samples": len(out.durations),
        "passes": out.passes,
        "failed_frac": out.failed / len(out.durations),
        "connections": out.results,
        "busy_s": busy,
    }
    return metrics, info


def per_layer(path: Path, counts, untraced_wall: float) -> dict:
    from tracing import LAYERS, OP, reduce_spans

    calls, self_s, wall = reduce_spans(path)
    metrics = {}
    for layer, names in LAYERS.items():
        layer_s = 0.0
        for call in names:
            name = f"{layer}.{call}"
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.self_s"] = self_s[name]
            layer_s += self_s[name]
        metrics[f"{layer}.share"] = layer_s / wall
    for key in ("structure.bytes", "graphs.edges", "graphs.occurrences",
                "matching.exposed", "matching.reach_eqs", "connection_graph.nodes",
                "connection_graph.arcs", "arborescence.trees", "connections.explicit",
                "connections.implicit", "cli.lines", "cli.bytes_out"):
        metrics[key] = counts[key]
    execute_s = self_s["arborescence.execute"]
    metrics["arborescence.trees_per_s"] = (
        counts["arborescence.trees"] / execute_s if execute_s else 0.0
    )
    metrics["unattributed.self_s"] = self_s[OP]
    metrics["unattributed.share"] = self_s[OP] / wall
    metrics["trace.wall_s"] = wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = wall - untraced_wall
    metrics["trace.overhead_frac"] = (wall - untraced_wall) / untraced_wall
    metrics["trace.spans"] = sum(calls.values())
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _import_package()
    from tracing import OP, Tracer
    from workloads import WORKLOADS, Sink

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    setup = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    sink = Sink()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        cpus = itertools.cycle(sorted(os.sched_getaffinity(0)))
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
            os.sched_setaffinity(0, {next(cpus)})
            t0 = perf_counter()
            ops = setup(args.seed, Path(tmp), sink)
            setup_times.append(perf_counter() - t0)
        setup_s = statistics.median(setup_times)
        # the inputs and oracle answers stay alive for the whole run; keep
        # them out of the collector's scans, which would charge them to the
        # program's operations
        gc.collect()
        gc.freeze()

        measure(ops[:1], cpus, None, passes=1)  # warm-up, not counted

        if args.trace:
            tracer = Tracer()
            traced_ops = [(tracer.wrap(OP, run), check) for run, check in ops]
            tracer.install(sink)
            try:
                out = measure(traced_ops, cpus, args.seconds)
            finally:
                tracer.uninstall()
            untraced = measure(ops, cpus, None, passes=out.passes)
            spans = OUT / f"spans-{args.workload}.bin"
            tracer.write(spans)
            metrics = per_layer(spans, tracer.counts, untraced.busy)
            wanted = spec["per_layer"]
            info = {"samples": len(out.durations), "passes": out.passes,
                    "failed_frac": out.failed / len(out.durations)}
        else:
            out = measure(ops, cpus, args.seconds)
            metrics, info = end_to_end(out, setup_s)
            wanted = spec["end_to_end"]

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in info.items()))
    for m in wanted:
        print(f"# {m['name']:<44} {metrics[m['name']]:>16.6f} {m['unit']}")
    failed = out.failed
    result = {
        "correct": failed == 0,
        "attempted": len(out.durations),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
