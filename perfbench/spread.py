"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root):

    python3 perfbench/spread.py --workload dense-spectral --seeds 1-10 [--trace 0]

Runs ``run.py`` once per seed, one run at a time, with BENCHMARK.json's
``run_seconds``.  For each metric it prints the median and the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound, and the share of failed
operations.  Each run's result line is appended to
``.perfbench/<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    results = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        line = proc.stdout.strip().splitlines()[-1]
        with open(out_dir / ("%s.jsonl" % args.workload), "a") as fh:
            fh.write(json.dumps({"seed": seed, "trace": args.trace, "result": json.loads(line)}) + "\n")
        results.append(json.loads(line))
        print("seed %d: correct %s attempted %d failed %d"
              % (seed, results[-1]["correct"], results[-1]["attempted"], results[-1]["failed"]))
    print("failed shares: %s" % sorted({r["failed"] / r["attempted"] for r in results}))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print("%-50s median %12.6g  spread %6.3f  bound %s" % (name, med, spread, bounds.get(name)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
