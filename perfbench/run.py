"""gaspin benchmark: seeded workloads run against the package, every output checked.

    python3 perfbench/run.py --workload {verify,states,cli_calls} --seed N \\
        --seconds S --trace {0,1}

Run it from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  Each workload pass runs in a fresh interpreter
(``worker.py``) with BLAS threads set to 1 unless already set.

``--trace 0`` measures the end-to-end metrics with tracing off: ``setup_s``
(median over fresh interpreters of importing gaspin and one warm-up call per
layer), then one pass of S seconds for ``run_s``, ``op_p50_ms``,
``op_p99_ms`` and ``peak_rss_mb``.  ``--trace 1`` runs an untraced pass and a
traced pass of S/2 seconds each and reports the per-layer metrics.  Metric
names and units come from BENCHMARK.json at the checkout's root.

Every metric is printed as ``name = value unit``, and the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The timed workloads take no input from the regions where the library is
known to fail, so any failed operation makes ``correct`` false and the exit
code 1.  Those regions are measured by an untimed known-defect probe of a
fixed size after the untraced pass; its failures are printed and reported
as ``<workload>.defect_probe.failed_ratio``, not counted in ``failed``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("verify", "states", "cli_calls")
SETUP_PROBES = 7
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# A pass may overrun its seconds by one round (a verify round takes ~10 s,
# ~25 s traced); a whole run has to end within 180 s.
PASS_TIMEOUT_S = 150


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, "1")
    return env


def worker(*args: str, timeout: float = PASS_TIMEOUT_S) -> str:
    """Run worker.py with ``args``; returns the last line of its stdout."""
    proc = subprocess.run(
        [sys.executable, WORKER, *args], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} failed:\n{proc.stderr[-4000:]}")
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds() -> tuple[float, list[dict]]:
    """Median set-up time over fresh interpreters, after one that is
    discarded because it may compile the package's bytecode."""
    worker("probe", timeout=60)
    probes = [json.loads(worker("probe", timeout=60)) for _ in range(SETUP_PROBES)]
    return statistics.median(p["setup_s"] for p in probes), probes


def run_pass(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    return json.loads(worker("pass", workload, str(seed), repr(seconds), "1" if traced else "0"))


def end_to_end(setup_s: float, p: dict) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "run_s": p["run_s"],
        "op_p50_ms": p["op_p50_ms"],
        "peak_rss_mb": p["peak_rss_mb"],
    }


def per_layer(workload: str, plain: dict, traced: dict) -> dict[str, float]:
    """Per-layer values; a stage, command class or suite metric that belongs
    to another workload reads 0."""
    t = traced["trace"]
    out = {f"{m}.self_s": s for m, s in t["self_s"].items()}
    out.update({f"{m}.calls": c for m, c in t["calls"].items()})
    out.update(t["counts"])
    out["core.geometric_product.sparse_share"] = t["sparse_share"]
    traced_run_s = t["profiled_s"] / traced["rounds"]
    out["trace.overhead_ratio"] = traced["run_s"] / plain["run_s"]
    out["trace.accounted_share"] = sum(t["self_s"].values()) / traced_run_s
    out["failed_ratio"] = plain["failed"] / plain["attempted"]
    defects = plain["defects"]
    if defects["attempted"]:
        out[f"{workload}.defect_probe.failed_ratio"] = defects["failed"] / defects["attempted"]
    if workload == "states":
        for stage, v in plain["stages"].items():
            out[f"states.{stage}.p50_us"] = v["p50_us"]
            out[f"states.{stage}.errors"] = v["errors"]
    elif workload == "cli_calls":
        for kind, v in plain["kinds"].items():
            out[f"cli_calls.{kind}.p50_ms"] = v["p50_ms"]
            out[f"cli_calls.{kind}.share"] = v["share"]
    else:
        for suite, v in plain["stages"].items():
            out[f"verify.{suite}.s"] = v["p50_us"] / 1e6
        for suite, v in plain["headroom"].items():
            out[f"verify.{suite}.headroom"] = v
    out["op_p99_ms"] = plain["op_p99_ms"]
    return out


def lookup(values: dict[str, float], name: str, workload: str) -> float:
    if name in values:
        return float(values[name])
    if name.split(".")[0] in WORKLOADS and not name.startswith(workload + "."):
        return 0.0
    raise KeyError(f"metric {name} was not measured")


def result(passes, metrics: dict) -> dict:
    """The result line: correct unless an operation failed, in a pass or
    in the known-defect probe outside the regions it probes."""
    return {
        "correct": all(p["core_failed"] == 0 for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }


def describe(plain: dict) -> list[str]:
    attempted, failed = plain["attempted"], plain["failed"]
    lines = [
        f"rounds = {plain['rounds']} (run_s is their mean)",
        f"run_s_uncalibrated = {plain['run_s_uncalibrated']!r} s (a round before calibration, chunks excluded)",
        f"calibration factor = {plain['calibration']['factor']:.4f} over "
        f"{plain['calibration']['chunks']} chunks (wall time = reported time / factor)",
        f"op_samples = {plain['op_samples']}",
        f"op_p99_ms = {plain['op_p99_ms']!r} ms (unbounded: it follows the machine's load bursts)",
        f"failed_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted})",
        f"known-defect probe (untimed, not in failed): {plain['defects']['failed']} of "
        f"{plain['defects']['attempted']} failed",
    ]
    lines += [f"core failure: {f}" for f in plain["core_failures"]]
    lines += [f"known-defect failure: {f}" for f in plain["defects"]["examples"]]
    return lines


def environment() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = " ".join(f"{v}={child_env()[v]}" for v in BLAS_THREAD_VARS)
    return (
        f"env nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} blas={blas.get('name', '?')}-{blas.get('version', '?')} {threads}"
    )


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "gaspin", "__init__.py")) or not os.path.isfile(spec_path):
        print(f"error: no gaspin sources under {ROOT}/src, or no BENCHMARK.json", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# {environment()}")
    try:
        if args.trace:
            plain = run_pass(args.workload, args.seed, args.seconds / 2, False)
            traced = run_pass(args.workload, args.seed, args.seconds / 2, True)
            values = per_layer(args.workload, plain, traced)
            passes, wanted = (plain, traced), spec["per_layer"]
        else:
            setup_s, probes = setup_seconds()
            plain = run_pass(args.workload, args.seed, args.seconds, False)
            values = end_to_end(setup_s, plain)
            passes, wanted = (plain,), spec["end_to_end"]
            print("# setup probes (s, calibration factor) = "
                  + ", ".join(f"{p['setup_s']:.4f} {p['factor']:.3f}" for p in probes))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in describe(plain):
        print(f"# {line}")
    metrics = {}
    for m in wanted:
        value = lookup(values, m["name"], args.workload)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value!r} {m['unit']}")
    out = result(passes, metrics)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
