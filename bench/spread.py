"""Run-to-run spread of the end-to-end metrics.

``python3 bench/spread.py --workload pbw --seeds 1-10 --seconds 10`` runs the
benchmark once per seed (untraced, one run at a time) and prints, for each
metric, the median and the quartile distance as a share of the median, next
to the bound ``BENCHMARK.json`` gives it.  A metric whose spread exceeds its
bound cannot tell a regression from noise.
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    first, last = map(int, args.seeds.split("-"))
    values: dict[str, list[float]] = {}
    for seed in range(first, last + 1):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            check=True, cwd=ROOT, capture_output=True, text=True,
        ).stdout.splitlines()
        result = json.loads(out[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        print(f"{name:14s} median {median:.5g}  spread {(q3 - q1) / median:.3f}"
              f"  bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
