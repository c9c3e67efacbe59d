"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workload exact --seeds 1-10 --seconds 15

The spread is the distance between the first and third quartile of the
per-seed values (``statistics.quantiles(values, n=4)``) as a share of
their median. Compare it with the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", default=None, help="defaults to run_seconds")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output\n{proc.stdout}", file=sys.stderr)
            return 1
        line = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            line.append(f"{name}={metric['value']:.4g}")
        print(f"seed {seed}: " + " ".join(line), flush=True)
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:12s} median {median:.5g}  spread {spread:.4f}  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
