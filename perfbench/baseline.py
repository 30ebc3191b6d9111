"""Measure every workload once in each mode and write perfbench/baseline.json.

    python3 perfbench/baseline.py [--seed N] [--seconds S]

The file keeps the environment line and the result line of each run, so a
later change can be compared with the state of the code it started from.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    out = {"seed": args.seed, "seconds": seconds, "runs": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(seconds), "--trace", trace],
                capture_output=True, text=True, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            out["environment"] = next(l[2:] for l in lines if l.startswith("# env "))
            out["runs"][f"{workload}/trace{trace}"] = json.loads(lines[-1])
            print(workload, trace, "done", flush=True)
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
