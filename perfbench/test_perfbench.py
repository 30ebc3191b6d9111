"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``.

Each workload runs at a tiny size in-process and must yield every metric
named in BENCHMARK.json; a wrong expected value must be counted as a failed
operation, not crash the pass; the known-defect probe must count its
failures apart from the pass; the command must keep its output contract.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402  (puts the checkout's src on sys.path)
import tracing  # noqa: E402
import workloads  # noqa: E402
from gaspin import core  # noqa: E402
from gaspin.core import EUCLIDEAN4, Multivector  # noqa: E402

core_geometric_product = core.geometric_product

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

# Tiny sizes: verify cases per suite, states per round; a cli_calls round is
# always the full mix.
TINY = {"verify": 2, "states": 4, "cli_calls": None}


@pytest.fixture(scope="module", params=sorted(TINY))
def passes(request):
    name = request.param
    plain = worker.run_pass(name, 3, 0.01, False, TINY[name])
    traced = worker.run_pass(name, 3, 0.01, True, TINY[name])
    return name, plain, traced


def test_every_metric_is_emitted_with_its_unit(passes):
    name, plain, traced = passes
    e2e = run.end_to_end(0.1, plain)
    layer = run.per_layer(name, plain, traced)
    for m in SPEC["end_to_end"]:
        value = run.lookup(e2e, m["name"], name)
        assert value > 0 and np.isfinite(value), m["name"]
    for m in SPEC["per_layer"]:
        assert np.isfinite(run.lookup(layer, m["name"], name)), m["name"]
    own = [m["name"] for m in SPEC["per_layer"] if m["name"].startswith(name + ".")]
    assert own and all(n in layer for n in own)
    assert {m["unit"] for m in SPEC["end_to_end"]} >= {"s", "ms", "MB"}


def test_passes_are_correct_and_known_defects_are_probed(passes):
    name, plain, traced = passes
    for p in (plain, traced):
        assert p["failed"] == p["core_failed"] == 0, p["core_failures"]
    assert "defects" not in traced
    defects = plain["defects"]
    if name == "verify":
        assert defects == {"attempted": 0, "failed": 0, "examples": []}
    else:
        assert defects["attempted"] > 0
        assert defects["failed"] > 0, "known-defect inputs should fail today"
        layer = run.per_layer(name, plain, traced)
        assert layer[f"{name}.defect_probe.failed_ratio"] == defects["failed"] / defects["attempted"]


def test_trace_accounts_for_the_traced_time(passes):
    name, plain, traced = passes
    layer = run.per_layer(name, plain, traced)
    assert 0.5 < layer["trace.accounted_share"] <= 1.05
    assert layer["core.calls"] > 0 and layer["numpy.self_s"] > 0


def test_wrong_expected_value_is_counted_not_raised(monkeypatch):
    monkeypatch.setattr(workloads, "fidelity_bloch_q", lambda xa, xb: -1.0)
    plain = worker.run_pass("states", 5, 0.01, False, TINY["states"])
    assert plain["failed"] == plain["attempted"]
    assert plain["core_failed"] >= plain["failed"]
    assert "fidelity vs closed form" in plain["core_failures"][0]
    assert run.result([plain], {})["correct"] is False


def test_dirac_failure_of_a_probe_state_is_not_excused(monkeypatch):
    monkeypatch.setattr(workloads, "_check_dirac", lambda s, out: "wrong on purpose")
    monkeypatch.setitem(workloads._STAGE_CALLS, "dirac",
                        (workloads._stage_dirac, workloads._check_dirac))
    plain = worker.run_pass("states", 5, 0.01, False, TINY["states"])
    assert plain["failed"] == plain["attempted"]
    assert plain["defects"]["failed"] == 0
    assert plain["core_failed"] == plain["attempted"] + workloads.PROBE_STATES
    assert run.result([plain], {})["correct"] is False


def test_product_counter_reads_the_library_function():
    import cProfile

    a = Multivector(EUCLIDEAN4, np.linspace(-1.0, 1.0, 16))
    b = Multivector.basis(EUCLIDEAN4, 1)
    prof = cProfile.Profile()
    with tracing.sparse_counter() as counts:
        assert core.geometric_product is not core_geometric_product
        prof.enable()
        for _ in range(5):
            core.geometric_product(a, b)
            core.geometric_product(b, a)
        prof.disable()
        prof.create_stats()
        got = tracing.Attribution(prof.stats).counts()
    assert counts == [10, 5]
    assert got["core.geometric_product.calls"] == 10
    code = tracing.PRODUCT_CODE
    assert code is core_geometric_product.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    assert os.path.basename(key[0]) == "core.py"
    assert got["core.geometric_product.self_s"] == prof.stats[key][2] > 0


def test_cli_round_has_the_same_number_of_calls_per_class(tmp_path):
    calls = workloads.CliCalls(1, None, str(tmp_path)).inputs(np.random.default_rng((1, 0)))
    kinds = [c.kind for c in calls]
    assert {k: kinds.count(k) for k in kinds} == dict.fromkeys(
        workloads.CLI_CLASSES, workloads.CALLS_PER_CLASS)


def test_seed_fixes_the_inputs(tmp_path):
    def argvs(seed):
        calls = workloads.CliCalls(seed, None, str(tmp_path)).inputs(np.random.default_rng((seed, 0)))
        return [c.argv for c in calls]

    assert argvs(4) == argvs(4) != argvs(5)
    states = workloads.States(4)
    a = states.inputs(np.random.default_rng((4, 0)))
    b = states.inputs(np.random.default_rng((4, 0)))
    assert a == b and len(a) == workloads.STATES_PER_ROUND
    assert not any(s.edge for s in a)
    probe = states.probe_inputs(np.random.default_rng((4, worker.PROBE_STREAM)))
    assert len(probe) == workloads.PROBE_STATES and all(s.edge for s in probe)
    calls = workloads.CliCalls(4, None, str(tmp_path)).probe_inputs(np.random.default_rng(4))
    assert len(calls) == workloads.PROBE_CALLS and all(c.edge for c in calls)


def test_cayley_oracle_agrees_with_a_hand_table():
    names, cells = workloads.cayley_cells(1, 1)
    assert names == ["1", "g0", "g1", "g01"]
    assert cells[2] == ["+g1", "-g01", "-1", "+g0"]
    assert cells[3] == ["+g01", "-g1", "-g0", "+1"]


def test_command_prints_the_result_contract():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "cli_calls",
         "--seed", "2", "--seconds", "0.5", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    for m in SPEC["end_to_end"]:
        assert f"{m['name']} = " in proc.stdout


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "states", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
