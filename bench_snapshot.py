"""Record one benchmark snapshot of this checkout as BENCH_<n>.json.

    python3 bench_snapshot.py N [--seconds S] [--out PATH]

Standard library only; gaspin runs from the checkout's ``src`` in
subprocesses.  The file holds:

- ``env``: the ``# env`` line of ``perfbench/run.py`` (nproc, the Python,
  numpy and BLAS versions, the BLAS thread settings);
- ``workloads``: for each workload, the final JSON line of
  ``perfbench/run.py --workload W --seed 7 --seconds S --trace 0`` and its
  known-defect probe line.  S defaults to ``run_seconds`` of
  BENCHMARK.json; a short S (about 1) is a smoke run;
- ``cli_wall_ms``: the median wall time of ``python -m gaspin`` processes,
  ``REPEATS`` of each CLI form of the README after one discarded, with
  the ``PYTHONDONTWRITEBYTECODE`` value they ran with (when it is set,
  every process compiles gaspin from source);
- ``verify``: each suite's ``max_residual``, ``headroom`` and ``witness``
  from ``gaspin verify --seed 7 --cases 500``, so speed and accuracy share
  one history.

The file is written in every case; the exit code is 1 unless every
workload reports ``correct: true`` and every CLI form exits 0.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("verify", "states", "cli_calls")
SEED = 7
REPEATS = 5
#: The README's CLI forms; ``{tmp}`` is a scratch directory for outputs.
CLI_FORMS = (
    ("verify", "--seed", "7", "--cases", "500"),
    ("table", "--signature", "1,3"),
    ("project", "hyper", "--point", "0.5,0,0"),
    ("prob", "sphere", "--point-a", "1,0,0", "--point-b=-1,0,0"),
    ("prob", "hyper", "--point-a", "0,0,0", "--point-b", "0.5,0,0", "--quaternion"),
    ("figure", "poincare-geodesic", "--samples", "101", "--out", "{tmp}/geo.csv"),
    ("dirac", "--components", "1", "0", "0", "0", "0", "0", "0", "0"),
)


def run_workload(name: str, seconds: float) -> tuple[str, dict]:
    """(env line, result) of one untraced ``perfbench/run.py`` pass; the
    result is the final JSON line plus the known-defect probe line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", name,
         "--seed", str(SEED), "--seconds", repr(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    env = next((ln[2:] for ln in lines if ln.startswith("# env ")), "")
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"correct": False, "error": proc.stderr[-2000:]}
    out["probe"] = next((ln.split(": ", 1)[1] for ln in lines
                         if ln.startswith("# known-defect probe")), None)
    return env, out


def cli_walls(tmp: str) -> tuple[dict, str, bool]:
    """(median wall ms per CLI form, the verify form's stdout, all exited 0)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    walls, verify_out, ok = {}, "", True
    for form in CLI_FORMS:
        argv = [arg.format(tmp=tmp) for arg in form]
        times = []
        for _ in range(REPEATS + 1):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "gaspin", *argv], cwd=ROOT, env=env,
                                  capture_output=True, text=True)
            times.append((time.perf_counter() - start) * 1e3)
            ok = ok and proc.returncode == 0
        # the first process is discarded: it may read a cold file cache or write bytecode
        walls[" ".join(form).replace("{tmp}/", "")] = round(statistics.median(times[1:]), 1)
        if form[0] == "verify":
            verify_out = proc.stdout
    return walls, verify_out, ok


def suites(verify_out: str) -> dict:
    """max_residual, headroom and witness of each ``suite=`` block."""
    out = {}
    for block in verify_out.split("\n\n"):
        record = dict(ln.split("=", 1) for ln in block.splitlines() if "=" in ln)
        if "suite" in record:
            out[record["suite"]] = {k: record.get(k) for k in ("max_residual", "headroom", "witness")}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int, help="snapshot number: writes BENCH_<n>.json")
    parser.add_argument("--seconds", type=float, help="seconds per workload pass")
    parser.add_argument("--out", help="output path (default: BENCH_<n>.json at the root)")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            seconds = json.load(fh)["run_seconds"]
    if seconds <= 0:
        parser.error("--seconds must be > 0")
    snapshot = {"seed": SEED, "seconds": seconds, "env": "", "workloads": {}}
    for name in WORKLOADS:
        env, snapshot["workloads"][name] = run_workload(name, seconds)
        snapshot["env"] = snapshot["env"] or env
    with tempfile.TemporaryDirectory() as tmp:
        walls, verify_out, cli_ok = cli_walls(tmp)
    snapshot["cli_wall_ms"] = {
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "repeats": REPEATS, "median": walls,
    }
    snapshot["verify"] = suites(verify_out)
    out = args.out or os.path.join(ROOT, f"BENCH_{args.n}.json")
    with open(out, "w") as fh:
        json.dump(snapshot, fh, indent=1)
        fh.write("\n")
    correct = all(w.get("correct") is True for w in snapshot["workloads"].values())
    print(f"wrote {out}: correct={correct} cli_ok={cli_ok} suites={len(snapshot['verify'])}")
    return 0 if correct and cli_ok else 1


if __name__ == "__main__":
    sys.exit(main())
