"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads dense-count,doc-batch]
                               [--trace 0] [--out perfbench/trajectory/<label>.json]

For each workload and metric it prints the median over the seeds, the
first and third quartiles (`statistics.quantiles(values, n=4)`) and their
distance as a share of the median.  An end-to-end spread above a third of
the metric's bound in BENCHMARK.json is marked `!`.  With `--out`, the
summary is stored in that JSON file under "untraced" or "traced", next to
what the file already holds.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output", file=sys.stderr)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        print(f"{workload}: {len(args.seeds)} seeds, {failed}/{attempted} operations failed")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            flag = "!" if name in bounds and name != "setup_s" and spread > bounds[name] / 3 else " "
            print(f"  {name:<44} median {med:>14.6g}  q1 {q1:>14.6g}  q3 {q3:>14.6g}"
                  f"  spread {spread:7.4f} {flag}")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vs}
        summary[workload] = {"failed": failed, "attempted": attempted, "metrics": rows}

    if args.out is not None:
        data = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        data["untraced" if args.trace == 0 else "traced"] = {
            "seeds": args.seeds, "seconds": args.seconds, "workloads": summary,
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
