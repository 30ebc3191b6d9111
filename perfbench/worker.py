"""One pass of one workload, or one set-up probe, in a fresh interpreter.

    python3 perfbench/worker.py probe
    python3 perfbench/worker.py pass WORKLOAD SEED SECONDS TRACED

The package is imported from ``src`` of the checkout that holds this file.
A probe prints, as JSON, the seconds it took to import gaspin and make one
warm-up call per layer, calibrated by chunks that run after it.  A pass
warms up the same way, then runs rounds of the workload until SECONDS have
passed (at least one round), and prints a JSON summary as its last line.
An untraced pass then runs the workload's known-defect probe, untimed.
With TRACED=1 the timed loops run under cProfile and with the
geometric-product counter installed.  Times are calibrated as described in
calibration.py.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import ExitStack, nullcontext, redirect_stdout  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from calibration import Calibrator  # noqa: E402

PROBE_CHUNKS = 9
# Random stream of the known-defect probe; rounds use streams 0, 1, ...
PROBE_STREAM = 2**32 - 1
# The traced pass cannot be interrupted; it calibrates between rounds for
# this share of its time.
TRACED_CALIBRATION_SHARE = 0.05


def warm_up() -> None:
    """Import every layer and call it once, which fills the lru_cache tables:
    product tables, isomap and quatrep blade images, the Dirac extraction
    matrix."""
    from gaspin import cli, dirac, quatrep, quatspinor, spinors, stereo
    from gaspin.core import EUCLIDEAN4, MINKOWSKI12, PAULI3, SPACETIME13, Multivector, reverse
    from gaspin.isomap import AlgebraTag, euclidean_to_spacetime, spacetime_to_euclidean

    for sig in (EUCLIDEAN4, SPACETIME13, PAULI3, MINKOWSKI12):
        a = Multivector(sig, np.linspace(-1.0, 1.0, sig.dim))
        reverse(a * a)
    g = Multivector(EUCLIDEAN4, np.linspace(-1.0, 1.0, 16))
    spacetime_to_euclidean(euclidean_to_spacetime(g))
    quatrep.change_of_basis(quatrep.rep_pss(g))
    quatrep.rep_vec(g)
    stereo.project_sphere(stereo.lift_sphere(stereo.PlanePoint.of(0.5, 0.25, 0.0)))
    stereo.project_hyper(stereo.lift_hyper(stereo.PlanePoint.of(0.5, 0.25, 0.0)))
    for tag in (AlgebraTag.PAULI3, AlgebraTag.MINKOWSKI12):
        psi = spinors.IdealSpinor.from_chart(tag, (0.25, 0.5))
        spinors.fidelity(psi, psi)
    psi = quatspinor.QuatSpinor.from_bloch_point((0.25, 0.5, 0.0))
    quatspinor.canonical_q(psi)
    quatspinor.fidelity_q(psi, psi)
    dirac.dirac_roundtrip_residual(dirac.DiracSpinor.from_reals([1, 0, 0, 0, 0, 0, 0, 0]))
    with redirect_stdout(io.StringIO()):
        cli.main(["table", "--signature", "1,1"])


def percentile(xs: list[float], p: int) -> float:
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


def summarize(workload, records, walls, rounds, cal: Calibrator) -> dict:
    """Metrics of a pass.  ``walls`` holds the (start, end) perf_counter
    times of each record's operation, ``rounds`` (clock seconds, wall start,
    wall end) of each round; every span is calibrated by the chunks around
    it."""
    for r, wall in zip(records, walls):
        f = cal.scale(*wall)
        r.seconds *= f
        r.stage_seconds = {k: v * f for k, v in r.stage_seconds.items()}
    round_seconds = [t * cal.scale(a, b) for t, a, b in rounds]
    ops = [r.seconds for r in records]
    failed = [f"{r.kind}: {r.failure}" for r in records if r.failure]
    kinds: dict[str, list] = {}
    for r in records:
        kinds.setdefault(r.kind, []).append(r.seconds)
    out = {
        "rounds": len(rounds),
        "run_s": statistics.fmean(round_seconds),
        "run_s_uncalibrated": statistics.fmean(t for t, _, _ in rounds),
        "attempted": len(records),
        "failed": len(failed),
        "core_failed": len(failed),
        "core_failures": failed[:5],
        "op_samples": len(ops),
        "op_p50_ms": 1e3 * percentile(ops, 50),
        "op_p99_ms": 1e3 * percentile(ops, 99),
        "kinds": {k: {"p50_ms": 1e3 * percentile(xs, 50), "share": sum(xs) / sum(ops)}
                  for k, xs in kinds.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    stages = {s for r in records for s in r.stage_seconds}
    out["stages"] = {
        s: {"p50_us": 1e6 * percentile([r.stage_seconds[s] for r in records if s in r.stage_seconds], 50),
            "errors": sum(s in r.stage_failures for r in records) / len(records)}
        for s in sorted(stages)
    }
    if workload.name == "verify":
        out["headroom"] = dict(workload.headroom)
    return out


def probe(workload, seed: int, summary: dict) -> None:
    """Run the known-defect probe and add it to ``summary``: ``defects``
    counts the probe's excused failures, and a failure that is not excused
    counts as a core failure."""
    items = workload.probe_inputs(np.random.default_rng((seed, PROBE_STREAM)))
    records = [workload.check(item, workload.execute(item)) for item in items]
    excused = [f"{r.kind}: {r.failure}" for r in records if r.failure and r.edge]
    core = [f"probe {r.kind}: {r.failure}" for r in records if r.failure and not r.edge]
    summary["defects"] = {"attempted": len(records), "failed": len(excused), "examples": excused[:3]}
    summary["core_failed"] += len(core)
    summary["core_failures"] = (summary["core_failures"] + core)[:5]


def make_workload(name: str, seed: int, tmpdir: str, size: int | None, clock):
    from workloads import STATES_PER_ROUND, VERIFY_CASES, CliCalls, States, Verify

    if name == "verify":
        return Verify(seed, clock, VERIFY_CASES if size is None else size)
    if name == "states":
        return States(seed, clock, STATES_PER_ROUND if size is None else size)
    if name == "cli_calls":
        return CliCalls(seed, clock, tmpdir)
    raise ValueError(f"unknown workload {name!r}")


def run_pass(name: str, seed: int, seconds: float, traced: bool, size: int | None = None) -> dict:
    """Warm up, then run rounds of the workload for ``seconds``."""
    import tracing

    warm_up()
    with ExitStack() as stack:
        tmpdir = stack.enter_context(tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT))
        cal = Calibrator()
        workload = make_workload(name, seed, tmpdir, size, cal.clock)
        prof = sparse = None
        if traced:
            import cProfile

            prof = cProfile.Profile()
            sparse = stack.enter_context(tracing.sparse_counter())
        records, walls, rounds = [], [], []
        start = time.perf_counter()
        with nullcontext() if traced else cal:
            while not rounds or time.perf_counter() - start < seconds:
                items = workload.inputs(np.random.default_rng((seed, len(rounds))))
                if prof:
                    prof.enable()
                t0, wall0 = cal.clock(), time.perf_counter()
                outcomes = []
                for item in items:
                    a = time.perf_counter()
                    outcomes.append(workload.execute(item))
                    walls.append((a, time.perf_counter()))
                rounds.append((cal.clock() - t0, wall0, time.perf_counter()))
                if prof:
                    prof.disable()
                    cal.fill(TRACED_CALIBRATION_SHARE, start)
                records += [workload.check(item, outcome) for item, outcome in zip(items, outcomes)]
        scale = cal.factor()
        summary = summarize(workload, records, walls, rounds, cal)
        summary["calibration"] = {"chunks": len(cal.chunks), "factor": scale}
        if prof:
            prof.create_stats()
            attribution = tracing.Attribution(prof.stats)
            n = len(rounds)
            summary["trace"] = {
                "self_s": {k: v * scale / n for k, v in attribution.self_seconds().items()},
                "calls": {k: v / n for k, v in attribution.calls().items()},
                "counts": {k: v * (scale if k.endswith("_s") else 1.0) / n
                           for k, v in attribution.counts().items()},
                "sparse_share": sparse[1] / sparse[0] if sparse[0] else 0.0,
                "profiled_s": scale * sum(t for t, _, _ in rounds),
            }
        else:
            probe(workload, seed, summary)
    return summary


def main(argv: list[str]) -> int:
    if argv[:1] == ["probe"]:
        warm_up()
        setup = time.perf_counter() - _T0
        cal = Calibrator()
        for _ in range(PROBE_CHUNKS):
            cal.run_chunk()
        scale = cal.factor()
        print(json.dumps({"setup_s": setup * scale, "factor": scale}))
        return 0
    if argv[:1] == ["pass"] and len(argv) == 5:
        name, seed, seconds, traced = argv[1], int(argv[2]), float(argv[3]), argv[4] == "1"
        print(json.dumps(run_pass(name, seed, seconds, traced)))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
