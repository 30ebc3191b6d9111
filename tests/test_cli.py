import contextlib
import csv
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaspin import cli, stereo
from gaspin.core import EUCLIDEAN4, SPACETIME13, Multivector
from gaspin.errors import NotAVector
from gaspin.quatrep import matrix_residual, rep_vec

from conftest import blade_product, readme_cli_lines


def run_cli(capsys, argv):
    """(exit code, stdout, stderr) of one call; argparse's SystemExit is its code."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_error_format(code, err):
    """One stderr format per exit code: a usage error is the usage block and a
    last ``gaspin [command]: error:`` line (argparse); a failure is one
    ``error: <type>: <message>`` line (main's exit-1 handler)."""
    lines = err.splitlines()
    if code == 2:
        assert err.startswith("usage: gaspin"), err
        assert re.match(r"gaspin( [a-z]+)?: error: ", lines[-1]), err
    elif code == 1:
        assert len(lines) == 1 and re.match(r"error: [A-Za-z]+: ", lines[0]), err


def test_verify_passes_and_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, ["verify", "--seed", "7", "--cases", "40"])
    code2, out2, _ = run_cli(capsys, ["verify", "--seed", "7", "--cases", "40"])
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    suites = [ln for ln in out1.splitlines() if ln.startswith("suite=")]
    assert len(suites) >= 12
    assert sorted(suites) == suites
    assert "status=fail" not in out1


# The names the benchmark and the report rely on; renaming a suite breaks both.
SUITE_NAMES = (
    "core.associativity", "core.exp_unitarity", "core.generator_contract",
    "core.grade_partition", "core.reverse_antiautomorphism",
    "dirac.idempotents", "dirac.j_action", "dirac.roundtrip",
    "gspinor.antipode", "gspinor.canonical_reconstruction", "gspinor.fidelity_triple",
    "isomap.homomorphism", "isomap.inverse_blades",
    "qspinor.canonical_reconstruction", "qspinor.fidelity_dual_route",
    "qspinor.orthogonal_projector",
    "quatrep.change_of_basis", "quatrep.embedding_product", "quatrep.faithfulness",
    "quatrep.homomorphism", "quatrep.idempotent_relations",
    "stereo.metric_finite_difference", "stereo.rotor_sandwich", "stereo.roundtrip",
    "stereo.trig_identities",
)
# The suites that draw nothing from their stream: verify reports them as cases=fixed.
FIXED_INPUT_SUITES = (
    "core.generator_contract", "dirac.idempotents", "dirac.j_action",
    "quatrep.faithfulness", "quatrep.idempotent_relations",
)


def _blocks(out):
    """The key=value blocks of a verify report, keyed by suite name."""
    blocks = [dict(ln.split("=", 1) for ln in b.splitlines()) for b in out.split("\n\n")]
    return {b["suite"]: b for b in blocks if "suite" in b}


def test_verify_calls_every_suite_through_the_registry(capsys, monkeypatch):
    # Wrap each value of cli.SUITES and call it as fn(*args), as a timing
    # harness does; verify must look every suite up in the dict.
    called = []

    def recording(name, fn):
        def run(*args):
            called.append(name)
            return fn(*args)

        return run

    for name, fn in list(cli.SUITES.items()):
        monkeypatch.setitem(cli.SUITES, name, recording(name, fn))
    code, out, _ = run_cli(capsys, ["verify", "--cases", "2"])
    assert code == 0
    assert sorted(called) == list(SUITE_NAMES)
    assert [ln[len("suite="):] for ln in out.splitlines() if ln.startswith("suite=")] == list(SUITE_NAMES)
    # suites that draw nothing report cases=fixed; the footer echoes --cases
    cases = {name: b["cases"] for name, b in _blocks(out).items()}
    assert cases == {name: "fixed" if name in FIXED_INPUT_SUITES else "2" for name in SUITE_NAMES}
    assert "cases=2" in out.split("\n\n")[-1].splitlines()


@pytest.mark.parametrize("seed", (0, 7, 2**32 + 5))
def test_every_suite_stream_is_seeded_by_the_seed_and_the_name_bytes(capsys, monkeypatch, seed):
    # the reference is the (seed, name.encode()) entropy the streams were
    # first seeded with, so every suite draws what it drew before
    entry = {}

    def recording(name):
        def run(rng, cases):
            entry[name] = rng.bit_generator.state
            return {}, 1.0

        return run

    for name in list(cli.SUITES):
        monkeypatch.setitem(cli.SUITES, name, recording(name))
    assert run_cli(capsys, ["verify", "--seed", str(seed), "--cases", "1"])[0] == 0
    assert sorted(entry) == list(SUITE_NAMES)
    for name, state in entry.items():
        assert state == np.random.default_rng((seed, name.encode())).bit_generator.state, name


def test_verify_reports_a_domain_error_on_one_line(capsys, monkeypatch):
    # a GAError escaping a suite ends verify on one error line with exit 1
    def failing(rng, cases):
        raise NotAVector("non-vector parts present")

    monkeypatch.setitem(cli.SUITES, "dirac.roundtrip", failing)
    assert run_cli(capsys, ["verify", "--cases", "2"]) == (
        1, "", "error: NotAVector: non-vector parts present\n")


def test_fixed_input_suites_ignore_the_case_count():
    for name in FIXED_INPUT_SUITES:
        few, many = (cli.run_suite(name, 7, cases) for cases in (1, 50))
        assert few == many and few.cases is None


class _FirstRowZero:
    """A stream whose first uniform draw has a zero first row: a draw that
    the filtering suites must reject and replace."""

    def __init__(self):
        self.rng, self.first = np.random.default_rng(0), True

    def uniform(self, low, high, size):
        rows = self.rng.uniform(low, high, size)
        if self.first:
            rows[0] = 0.0
        self.first = False
        return rows


@pytest.mark.parametrize("suite, part", [("core.exp_unitarity", "euclidean4"),
                                         ("gspinor.antipode", "fidelity")])
def test_filtering_suites_replace_the_draws_they_reject(suite, part):
    # an axis shorter than 1e-6 and a chart with |c|^2 < 1e-3 are redrawn, so
    # the suite checks exactly as many cases as asked
    for cases in (1, 3):
        parts, _ = cli.SUITES[suite](_FirstRowZero(), cases)
        assert len(parts[part]) == cases
    # seed 283 draws the rejected chart as its only case
    assert cli.run_suite("gspinor.antipode", 283, 1).witness == ("fidelity", 0)


@pytest.mark.parametrize("suite, key", [
    ("quatrep.idempotent_relations", "vec_idempotent_from_pseudoscalar"),
    ("quatrep.idempotent_relations", "b_times_b_star_max_deviation"),
    ("dirac.idempotents", "completeness"),
])
def test_a_nan_residual_fails_its_suite(capsys, monkeypatch, suite, key):
    # a NaN in any part, wherever it sits, is the result and the witness
    def with_nan(rng, cases, suite_fn=cli.SUITES[suite]):
        parts, bound = suite_fn(rng, cases)
        return {**parts, key: math.nan}, bound

    monkeypatch.setitem(cli.SUITES, suite, with_nan)
    code, out, _ = run_cli(capsys, ["verify", "--cases", "2"])
    block = _blocks(out)[suite]
    assert (code, block["status"], block["max_residual"]) == (1, "fail", "nan")
    assert block["witness"] == f"{key}:0"


def test_empty_parts_contribute_nothing(monkeypatch):
    parts = {"none": np.zeros(0), "some": np.array([2e-13, 5e-13]), "more": np.zeros((0, 4))}
    monkeypatch.setitem(cli.SUITES, "stub.empty", lambda rng, cases: (parts, 1e-12))
    r = cli.run_suite("stub.empty", 0, 2)
    assert (r.max_residual, r.witness, r.cases) == (5e-13, ("some", 1), None)
    del parts["some"]
    r = cli.run_suite("stub.empty", 0, 2)
    assert (r.max_residual, r.witness, r.passed) == (0.0, None, True)


def test_verify_names_the_witness_and_headroom(capsys, monkeypatch):
    # the largest residual sits at case 3 of the second part; the third part
    # ties it at case 0, and a tie goes to the first part
    def stub(rng, cases):
        second = rng.uniform(0.0, 1e-13, size=(cases, 2))
        second[3, 1] = 7e-13
        return {"first": np.full(cases, 1e-13), "second": second,
                "third": np.array([7e-13, 0.0])}, 1e-12

    monkeypatch.setitem(cli.SUITES, "zz.stub", stub)
    code, out, _ = run_cli(capsys, ["verify", "--cases", "5"])
    assert code == 0
    block = _blocks(out)["zz.stub"]
    assert (block["cases"], block["witness"], block["max_residual"]) == ("5", "second:3", cli._f(7e-13))
    assert float(block["headroom"]) == float(block["max_residual"]) / float(block["tolerance"])
    assert list(block) == ["suite", "cases", "max_residual", "tolerance", "headroom", "witness",
                           "status"]


def test_every_verify_block_has_one_witness_and_headroom(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--cases", "2"])
    blocks = out.split("\n\n")[:-1]
    assert code == 0 and len(blocks) == len(SUITE_NAMES)
    for block in blocks:
        keys = [ln.split("=", 1)[0] for ln in block.splitlines()]
        assert keys.count("witness") == 1 and keys.count("headroom") == 1
        kv = dict(ln.split("=", 1) for ln in block.splitlines())
        assert float(kv["headroom"]) == float(kv["max_residual"]) / float(kv["tolerance"])
        label, case = kv["witness"].rsplit(":", 1)
        assert label and int(case) >= 0


def test_verify_rejects_zero_cases(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--cases", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-12", "1e-9"])
def test_verify_rejects_bad_tol(capsys, tol):
    # verify has no --tol: every suite writes its bound from core.TOL, so
    # any --tol is a usage error
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--cases", "2", f"--tol={tol}"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_table_pauli(capsys):
    code, out, _ = run_cli(capsys, ["table", "--signature", "3,0"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 9 and len(rows[0]) == 9
    header = rows[0]
    e1_col = header.index("e1")
    e1_row = next(r for r in rows[1:] if r[0] == "e1")
    assert e1_row[e1_col] == "+1"


def test_table_spacetime_metric_sign(capsys):
    code, out, _ = run_cli(capsys, ["table", "--signature", "1,3"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header = rows[0]
    g1_col = header.index("g1")
    g1_row = next(r for r in rows[1:] if r[0] == "g1")
    assert g1_row[g1_col] == "-1"


def test_table_consistent_with_representation(capsys):
    # Row e0 of the Cl(4,0) table must reproduce the representation algebra:
    # rep(e0) rep(b) = sign * rep(blade) for each entry.
    code, out, _ = run_cli(capsys, ["table", "--signature", "4,0"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header = rows[0][1:]
    name_to_mask = {name: mask for mask, name in enumerate(header)}
    e0_row = next(r for r in rows[1:] if r[0] == "e0")
    e0 = Multivector.basis(EUCLIDEAN4, 0)
    for name, cell in zip(header, e0_row[1:]):
        sign = 1.0 if cell[0] == "+" else -1.0
        target = name_to_mask[cell[1:]]
        lhs = rep_vec(e0) * rep_vec(Multivector.blade(EUCLIDEAN4, name_to_mask[name]))
        rhs = rep_vec(Multivector.blade(EUCLIDEAN4, target, sign))
        assert matrix_residual(lhs, rhs) == 0.0


def test_table_bad_signature(capsys):
    for argv, message in ((["--signature", "nope"], "bad signature"),
                          (["--signature", "100000000,0"], "bad signature"),
                          (["--signature=-1,3"], "signature counts must be non-negative")):
        code, _, err = run_cli(capsys, ["table", *argv])
        assert code == 2
        assert message in err


@pytest.mark.parametrize(
    "argv, want, text",
    [
        (["prob", "sphere", "--point-a", "-0.5,0,0", "--point-b", "0,0,0"], 0,
         "fidelity_braket=0.80000000000000004"),
        (["dirac", "--components", "-5e-05", "0", "0", "0", "0", "0", "0", "0"], 0,
         "q0=-5.0000000000000002e-05,0,0,0"),
        (["table", "--signature", "-1,3"], 2,
         "bad signature '-1,3': signature counts must be non-negative"),
    ],
    ids=("prob", "dirac", "table"),
)
def test_a_value_that_begins_with_a_minus_is_a_value(capsys, argv, want, text):
    # argparse reads only plain negative numbers as values unless told otherwise
    code, out, err = run_cli(capsys, argv)
    assert code == want and text in (out if code == 0 else err), err
    assert_error_format(code, err)


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, ["table", "--signature", "1,2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["signature"] == [1, 2]
    assert len(data["table"]) == 8


# Every signature the table command accepts: 1 <= p + q <= 6.
ALL_PQ = [(p, n - p) for n in range(1, 7) for p in range(n + 1)]


@pytest.mark.parametrize("p, q", ALL_PQ)
def test_table_cells_are_cached_exact_and_immutable(capsys, p, q):
    cli.table_text.cache_clear()
    first = [run_cli(capsys, ["table", "--signature", f"{p},{q}", "--format", fmt])
             for fmt in ("csv", "json")]
    second = [run_cli(capsys, ["table", "--signature", f"{p},{q}", "--format", fmt])
              for fmt in ("csv", "json")]
    assert first == second and all(code == 0 for code, _, _ in first)
    # each format is one cached str, built once and printed as it is
    for fmt, (_, out, _) in zip(("csv", "json"), first):
        text = cli.table_text(p, q, fmt)
        assert type(text) is str and text is cli.table_text(p, q, fmt) and text == out
    # the cells of the blade_product loop, blade i times blade j at (i, j)
    sig = cli._signature_for(p, q)
    names = [sig.blade_name(m) for m in range(sig.dim)]
    want = []
    for i in range(sig.dim):
        row = []
        for j in range(sig.dim):
            sign, mask = blade_product(i, j, sig)
            row.append(("+" if sign > 0 else "-") + names[mask])
        want.append(row)
    # the csv bytes are those of csv.writer on the loop's cells
    rendered = io.StringIO()
    csv.writer(rendered, lineterminator="\n").writerows(
        [["blade", *names], *([n, *row] for n, row in zip(names, want))])
    assert first[0][1] == rendered.getvalue()
    # the json output is the same dict, compact on one line
    data = {"signature": [p, q], "blades": names, "table": want}
    assert first[1][1] == json.dumps(data, separators=(",", ":")) + "\n"


def test_project_sphere_origin(capsys):
    code, out, _ = run_cli(capsys, ["project", "sphere", "--point", "0,0,0"])
    assert code == 0
    record = dict(ln.split("=", 1) for ln in out.splitlines())
    assert [float(v) for v in record["a_hat"].split(",")] == [1.0, 0.0, 0.0, 0.0]
    assert float(record["angle"]) == 0.0


@pytest.mark.filterwarnings("error")
def test_project_sphere_far_from_the_origin(capsys):
    # x^2 overflows, the lift does not: a_hat = -e0 + 2x / x^2 and the angle is pi
    code, out, _ = run_cli(capsys, ["project", "sphere", "--point", "1e200,0,0"])
    assert code == 0
    record = dict(ln.split("=", 1) for ln in out.splitlines())
    assert record["a_hat"] == "-1,2e-200,0,0"
    assert record["angle"] == "3.1415926535897931"


def test_project_hyper_values(capsys):
    code, out, _ = run_cli(capsys, ["project", "hyper", "--point", "0.5,0,0"])
    assert code == 0
    record = dict(ln.split("=", 1) for ln in out.splitlines())
    comps = [float(v) for v in record["a_hat"].split(",")]
    assert comps[0] == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert comps[1] == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert math.cosh(float(record["angle"])) == pytest.approx(5.0 / 3.0, abs=1e-12)


def test_project_hyper_boundary_fails(capsys):
    code, _, err = run_cli(capsys, ["project", "hyper", "--point", "1,0,0"])
    assert code == 1
    assert "DomainViolation" in err


@pytest.mark.parametrize(
    "argv, want",
    [
        (["project", "sphere", "--point", "nan,0,0"], 2),
        (["prob", "sphere", "--point-a", "inf,0,0", "--point-b", "0,0,0"], 2),
        (["dirac", "--components", "nan", "0", "0", "0", "0", "0", "0", "0"], 2),
        # a point just outside the open ball is a domain error on one line
        # (0.9999999999, just inside, lifts: test_project_hyper_edge_lifts)
        (["project", "hyper", "--point", "1.0000000001,0,0"], 1),
        # a point far outside the ball, whose square overflows, is a domain
        # error on one line (the sphere chart lifts it:
        # test_project_sphere_far_from_the_origin)
        (["project", "hyper", "--point", "1e200,0,0"], 1),
        # a finite input whose squares overflow ends in a typed error
        (["prob", "sphere", "--point-a", "1e300,0,0", "--point-b", "0,0,0"], 1),
        # checks of one argument (the parser's types) and across arguments
        # (main's parser.error) are usage errors
        (["table", "--signature", "7,0"], 2),
        (["project", "sphere", "--point=1,2"], 2),
        (["prob", "sphere", "--point-a=0,0,1", "--point-b=0,0,0"], 2),
        (["prob", "sphere", "--point-a=0,0,0", "--point-b=0.5,0,0", "--quaternion"], 2),
        # rejected before a label is built for each of its 10^8 generators
        (["table", "--signature", "100000000,0"], 2),
        # --samples is checked in main, an unparsable coordinate by the type
        (["figure", "stereo-sphere", "--samples", "1", "--out", "x.csv"], 2),
        (["project", "sphere", "--point=a,0,0"], 2),
        (["table", "--signature=-1,3"], 2),
    ],
)
@pytest.mark.filterwarnings("error")
def test_bad_input_exit_codes(capsys, argv, want):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (want, "")
    assert_error_format(code, err)


def test_prob_examples(capsys):
    code, out, _ = run_cli(
        capsys, ["prob", "sphere", "--point-a", "1,0,0", "--point-b=-1,0,0"]
    )
    assert code == 0
    record = dict(ln.split("=", 1) for ln in out.splitlines())
    assert abs(float(record["fidelity_braket"])) <= 1e-12

    code, out, _ = run_cli(
        capsys, ["prob", "sphere", "--point-a", "0.3,0.4,0", "--point-b", "0.3,0.4,0"]
    )
    record = dict(ln.split("=", 1) for ln in out.splitlines())
    assert float(record["fidelity_braket"]) == pytest.approx(1.0, abs=1e-12)

    code, out, _ = run_cli(
        capsys, ["prob", "hyper", "--point-a", "0,0,0", "--point-b", "0.5,0,0"]
    )
    record = dict(ln.split("=", 1) for ln in out.splitlines())
    assert float(record["fidelity_braket"]) == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert record["label"] == "Bloch hyperboloid quantity (>=1)"


def test_prob_quaternion_route(capsys):
    code, out, _ = run_cli(
        capsys,
        ["prob", "hyper", "--point-a", "0,0,0", "--point-b", "0.5,0,0", "--quaternion"],
    )
    assert code == 0
    record = dict(ln.split("=", 1) for ln in out.splitlines())
    assert float(record["fidelity_braket"]) == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert float(record["residual"]) <= 1e-10

    code, _, err = run_cli(
        capsys,
        ["prob", "sphere", "--point-a", "0,0,0", "--point-b", "0.5,0,0", "--quaternion"],
    )
    assert code == 2


def test_prob_planar_chart_enforced(capsys):
    code, _, err = run_cli(
        capsys, ["prob", "sphere", "--point-a", "0,0,1", "--point-b", "0,0,0"]
    )
    assert code == 2
    assert "third" in err


def test_prob_degenerate_exit(capsys):
    # antipode of the origin is the excluded chart point on the hyperboloid
    code, _, err = run_cli(
        capsys, ["prob", "hyper", "--point-a", "0,0,0", "--point-b", "1.5,0,0"]
    )
    assert code == 1
    assert "NonTimelike" in err


def test_figure_sphere(tmp_path, capsys):
    out_path = tmp_path / "sphere.csv"
    code, _, _ = run_cli(
        capsys, ["figure", "stereo-sphere", "--samples", "3", "--out", str(out_path)]
    )
    assert code == 0
    rows = list(csv.reader(out_path.open()))
    assert rows[0] == ["t", "x_m", "a_e1", "a_e2", "a_e3"]
    mid = rows[2]
    assert float(mid[1]) == 0.0
    assert [float(v) for v in mid[2:]] == [0.0, 0.0, 1.0]  # pole row
    for row in rows[1:]:
        comps = [float(v) for v in row[2:]]
        assert abs(sum(c * c for c in comps) - 1.0) <= 1e-10


def test_figure_hyper_rows_unit(tmp_path, capsys):
    out_path = tmp_path / "hyper.csv"
    code, _, _ = run_cli(
        capsys, ["figure", "stereo-hyper", "--samples", "25", "--out", str(out_path)]
    )
    assert code == 0
    rows = list(csv.reader(out_path.open()))
    for row in rows[1:]:
        a0, a1, a2 = (float(v) for v in row[2:])
        assert abs((a0 * a0 - a1 * a1 - a2 * a2) - 1.0) <= 1e-10


def test_figure_poincare_geodesic(tmp_path, capsys):
    out_path = tmp_path / "geo.csv"
    code, _, _ = run_cli(
        capsys,
        ["figure", "poincare-geodesic", "--samples", "41", "--out", str(out_path)],
    )
    assert code == 0
    rows = list(csv.reader(out_path.open()))
    first, last = rows[1], rows[-1]
    for row in (first, last):
        x1, x2 = float(row[1]), float(row[2])
        assert abs(x1 * x1 + x2 * x2 - 1.0) <= 1e-10
        assert row[3] == ""  # boundary rows carry no lift
    for row in rows[2:-1]:
        a0, a1, a2 = (float(v) for v in row[3:])
        assert abs((a0 * a0 - a1 * a1 - a2 * a2) - 1.0) <= 1e-10


def _cell_by_cell_rows(name, samples):
    """The figure's rows from the same library calls (the sphere's lift in
    closed form), each float a cli._f cell, the endpoints of the arc with
    three empty lift cells."""
    f = cli._f
    if name == "poincare-geodesic":
        psi = np.linspace(3 * math.pi / 4, 5 * math.pi / 4, samples)
        x1, x2 = math.sqrt(2.0) + np.cos(psi), np.sin(psi)
        lifted = stereo.lift_hyper(stereo.PlanePoint.of(x1[1:-1], x2[1:-1], 0.0))
        lifts = [["", "", ""], *([f(c) for c in ck] for ck in
                                 lifted.a_hat.vector_components()[:, :3]), ["", "", ""]]
        return [["psi", "x1", "x2", "a_g0", "a_g1", "a_g2"],
                *([f(p), f(a), f(b), *ck] for p, a, b, ck in zip(psi, x1, x2, lifts))]
    if name == "stereo-sphere":
        # the Riemann sphere, pole e3, in closed form: no second library call
        t = np.linspace(-2.0, 2.0, samples)
        d = 1.0 + t * t
        comps = np.column_stack([2.0 * t / d, np.zeros_like(t), (1.0 - t * t) / d])
        header = ["t", "x_m", "a_e1", "a_e2", "a_e3"]
    else:
        t = np.linspace(-0.9, 0.9, samples)
        comps = stereo.lift_hyper(stereo.PlanePoint.of(t, 0.0, 0.0)).a_hat.vector_components()[:, :3]
        header = ["t", "x_m", "a_g0", "a_g1", "a_g2"]
    return [header, *([f(tk), f(tk), *map(f, ck)] for tk, ck in zip(t, comps))]


@pytest.mark.parametrize("samples", [2, 3, 21, 101])
@pytest.mark.parametrize("name", tuple(cli.FIGURES))
def test_figure_file_is_the_cell_by_cell_csv(tmp_path, capsys, name, samples):
    path = tmp_path / "f.csv"
    code, out, _ = run_cli(capsys, ["figure", name, "--samples", str(samples), "--out", str(path)])
    assert code == 0 and f"\nrows={samples}\n" in out
    want = io.StringIO()
    csv.writer(want, lineterminator="\n").writerows(_cell_by_cell_rows(name, samples))
    assert path.read_bytes() == want.getvalue().encode()


def test_figure_unwritable_path(capsys):
    code, _, err = run_cli(
        capsys,
        ["figure", "stereo-sphere", "--samples", "3", "--out", "/nonexistent/x.csv"],
    )
    assert code == 1
    assert_error_format(code, err)
    assert err == "error: FileNotFoundError: [Errno 2] No such file or directory: '/nonexistent/x.csv'\n"


def test_figure_too_large_to_allocate(monkeypatch, tmp_path, capsys):
    # main's one error line and exit 1; the builder raises without asking for memory
    def too_large(samples):
        raise MemoryError(f"Unable to allocate {8 * samples} bytes")

    monkeypatch.setitem(cli.FIGURES, "stereo-sphere", too_large)
    argv = ["figure", "stereo-sphere", "--samples", "100000000000", "--out", str(tmp_path / "x.csv")]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert_error_format(code, err)
    assert err == "error: MemoryError: Unable to allocate 800000000000 bytes\n"
    assert not (tmp_path / "x.csv").exists()


# every lifted row fails the unit check of stereo.SpherePoint/HyperPoint
_NOT_UNIT = (stereo, "vector_square", lambda a: (2.0, 1.0))
# an arc that stops short of the unit circle
_SHORT_ARC = (np, "linspace", lambda a, b, n, f=np.linspace: f(a + 0.1, b - 0.1, n))
_NOT_PLANAR = (np.linalg, "svd", lambda m, compute_uv: [1.0, 1.0, 1.0])


@pytest.mark.parametrize(
    "name, patch, message",
    [
        ("stereo-sphere", _NOT_UNIT, "2.0 is not 1"),
        ("stereo-hyper", _NOT_UNIT, "2.0 is not 1"),
        ("poincare-geodesic", _NOT_UNIT, "2.0 is not 1"),
        ("poincare-geodesic", _SHORT_ARC, "arc endpoints must lie on the unit circle"),
        ("poincare-geodesic", _NOT_PLANAR, "lifted arc is not planar through the origin"),
    ],
)
def test_figure_verification_failure_exits_1(tmp_path, capsys, monkeypatch, name, patch, message):
    monkeypatch.setattr(*patch)
    code, _, err = run_cli(capsys, ["figure", name, "--out", str(tmp_path / "f.csv")])
    kind = "NotAVector: vector square" if patch is _NOT_UNIT else "VerificationFailure:"
    assert (code, err) == (1, f"error: {kind} {message}\n")


def _two(*args):
    """Stands in for a residual, a square or a fidelity route: 2 fails each re-validation."""
    return 2.0


@pytest.mark.parametrize(
    "argv, patched, message",
    [
        (["project", "sphere", "--point", "0.5,0,0"], "residual", "emitted point failed re-validation"),
        (["project", "hyper", "--point", "0.5,0,0"], "scalar_product", "emitted point failed re-validation"),
        (["prob", "sphere", "--point-a", "1,0,0", "--point-b=-1,0,0"], "fidelity_chart",
         "fidelity routes disagree beyond tolerance"),
        (["prob", "hyper", "--point-a", "0,0,0", "--point-b", "0.5,0,0", "--quaternion"],
         "fidelity_q_circ_route", "fidelity routes disagree beyond tolerance"),
        (["dirac", "--components", "1", "0", "0", "0", "0", "0", "0", "0"], "residual",
         "round trip failed re-validation"),
    ],
)
def test_command_verification_failure_exits_1(capsys, monkeypatch, argv, patched, message):
    # a value that fails its re-validation is not printed: one error line, exit 1
    monkeypatch.setattr(cli, patched, _two)
    assert run_cli(capsys, argv) == (1, "", f"error: VerificationFailure: {message}\n")


def test_dirac_command(capsys, rng):
    code, out, _ = run_cli(
        capsys, ["dirac", "--components", "1", "0", "0", "0", "0", "0", "0", "0"]
    )
    assert code == 0
    record = dict(ln.split("=", 1) for ln in out.splitlines())
    assert [float(v) for v in record["q0"].split(",")] == pytest.approx([1, 0, 0, 0], abs=1e-12)
    assert [float(v) for v in record["q1"].split(",")] == [0, 0, 0, 0]
    assert float(record["roundtrip_residual"]) <= 1e-12

    comps = [str(v) for v in rng.uniform(-1, 1, size=8)]
    code, out, _ = run_cli(capsys, ["dirac", "--components", *comps])
    assert code == 0
    record = dict(ln.split("=", 1) for ln in out.splitlines())
    assert float(record["roundtrip_residual"]) <= 1e-12


def test_dirac_large_column_passes_relative_check(capsys):
    # The round-trip residual grows with the column; the re-validation
    # scales its tolerance like the extraction does.
    comps = ["1e7", "0.3", "-0.7", "0.11", "0.5", "-0.9", "0.25", "0.6"]
    code, out, err = run_cli(capsys, ["dirac", "--components", *comps])
    assert (code, err) == (0, "")
    record = dict(ln.split("=", 1) for ln in out.splitlines())
    assert float(record["roundtrip_residual"]) <= 1e-15 * 1e7
    q0 = [float(v) for v in record["q0"].split(",")]
    assert q0 == pytest.approx([1e7, 0.11, 0.7, 0.3], rel=1e-15, abs=1e-9)


@pytest.mark.parametrize("size", [1e-20, 1e-300, 1e20])
def test_dirac_carrier_terms_scale_with_the_column(capsys, size):
    # the printed terms are those of the unit column, times its size: a term
    # is dropped only when it is rounding relative to the carrier
    def terms(first):
        code, out, _ = run_cli(capsys, ["dirac", "--components", first, *["0"] * 7])
        assert code == 0
        record = dict(ln.split("=", 1) for ln in out.splitlines())
        return [dict(t.split(":") for t in record[key].split(";")) for key in ("carrier_re", "carrier_im")]

    for unit, scaled in zip(terms("1"), terms(repr(size))):
        assert scaled.keys() == unit.keys() and unit
        for blade, value in unit.items():
            assert float(scaled[blade]) == pytest.approx(size * float(value), rel=1e-15)


def test_dirac_carrier_terms_when_their_sum_overflows(capsys):
    # every carrier coefficient is 2.5e307, so their sum overflows; the terms
    # are still those of the column of ones, times 1e308
    def terms(value):
        code, out, err = run_cli(capsys, ["dirac", "--components", *[value] * 8])
        assert (code, err) == (0, "")
        record = dict(ln.split("=", 1) for ln in out.splitlines())
        return [dict(t.split(":") for t in record[key].split(";")) for key in ("carrier_re", "carrier_im")]

    for unit, scaled in zip(terms("1"), terms("1e308")):
        assert len(unit) == 16 and scaled.keys() == unit.keys()
        for blade, value in unit.items():
            assert float(scaled[blade]) == 1e308 * float(value)


def test_dirac_subnormal_column_extracts_the_carrier_exactly(capsys):
    # the extraction reads four times the carrier, which the frame halves exactly at any
    # scale: q0 is four times the carrier's 1-coefficient, and at 1e-307, whose carrier is
    # subnormal, the component itself
    for first in ("1e-315", "1e-307"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, ["dirac", "--components", first, *["0"] * 7])
        assert (code, err) == (0, "")
        record = dict(ln.split("=", 1) for ln in out.splitlines())
        q0 = float(record["q0"].split(",")[0])
        assert q0 == 4.0 * float(record["carrier_re"].split(";")[0].removeprefix("1:"))
        assert record["roundtrip_residual"] == "0"
    assert q0 == float(record["components"].split(",")[0])  # 1e-307 is a normal float


def test_dirac_column_with_a_subnormal_beside_a_normal_component_extracts_exactly(capsys):
    # a scale of the whole carrier cannot serve both terms: the one of 2 is normal and the
    # subnormal one sits below it; unscaled, q1 is still the component (phi3 = -y3 + j y0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["dirac", "--components", "2", *["0"] * 3, "1.23e-315",
                                          *["0"] * 3])
    assert (code, err) == (0, "")
    record = dict(ln.split("=", 1) for ln in out.splitlines())
    assert record["q1"] == "0,0,0,-1.2300000021344028e-315"
    assert -float(record["q1"].split(",")[3]) == float(record["components"].split(",")[4])
    assert record["roundtrip_residual"] == "0"


def test_dirac_arity(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dirac", "--components", "1", "2", "3"])
    assert exc.value.code == 2


#: ``gaspin dirac`` stdout for the README column, a column of 1e308 (whose
#: carrier sum overflows) and a generic one, as printed before the Dirac
#: carrier became a real spinor; the real frame must print the same bytes.
_DIRAC_GOLDEN = [
    ("1 0 0 0 0 0 0 0",
        "components=1,0,0,0,0,0,0,0\n"
        "q0=1,0,0,0\n"
        "q1=0,0,0,0\n"
        "carrier_re=1:0.25;g0:0.25\n"
        "carrier_im=g12:0.25;g012:0.25\n"
        "roundtrip_residual=0\n"),
    ("1e308 1e308 1e308 1e308 1e308 1e308 1e308 1e308",
        "components=1e+308,1e+308,1e+308,1e+308,1e+308,1e+308,1e+308,1e+308\n"
        "q0=1e+308,1e+308,-1e+308,1e+308\n"
        "q1=1e+308,-1e+308,-1e+308,-1e+308\n"
        "carrier_re=1:2.5e+307;g0:2.5e+307;g1:2.5e+307;g01:-2.5e+307;g2:2.5e+307;"
        "g02:-2.5e+307;g12:-2.5e+307;g012:-2.5e+307;g3:2.5e+307;g03:-2.5e+307;"
        "g13:-2.5e+307;g013:-2.5e+307;g23:-2.5e+307;g023:-2.5e+307;g123:-2.5e+307;"
        "g0123:2.5e+307\n"
        "carrier_im=1:2.5e+307;g0:2.5e+307;g1:2.5e+307;g01:-2.5e+307;g2:-2.5e+307;"
        "g02:2.5e+307;g12:2.5e+307;g012:2.5e+307;g3:2.5e+307;g03:-2.5e+307;g13:-2.5e+307;"
        "g013:-2.5e+307;g23:2.5e+307;g023:2.5e+307;g123:2.5e+307;g0123:-2.5e+307\n"
        "roundtrip_residual=0\n"),
    ("0.3 -0.2 0.5 0.1 -0.7 0.25 0.125 -1",
        "components=0.29999999999999999,-0.20000000000000001,0.5,0.10000000000000001,"
        "-0.69999999999999996,0.25,0.125,-1\n"
        "q0=0.29999999999999999,0.10000000000000001,-0.5,-0.20000000000000001\n"
        "q1=0.25,-0.125,1,0.69999999999999996\n"
        "carrier_re=1:0.074999999999999997;g0:0.074999999999999997;g1:0.03125;"
        "g01:-0.03125;g2:-0.25;g02:0.25;g12:0.050000000000000003;"
        "g012:0.050000000000000003;g3:-0.17499999999999999;g03:0.17499999999999999;"
        "g13:-0.125;g013:-0.125;g23:-0.025000000000000001;g023:-0.025000000000000001;"
        "g123:-0.0625;g0123:0.0625\n"
        "carrier_im=1:-0.050000000000000003;g0:-0.050000000000000003;g1:-0.25;g01:0.25;"
        "g2:-0.03125;g02:0.03125;g12:0.074999999999999997;g012:0.074999999999999997;"
        "g3:0.0625;g03:-0.0625;g13:-0.025000000000000001;g013:-0.025000000000000001;"
        "g23:0.125;g023:0.125;g123:-0.17499999999999999;g0123:0.17499999999999999\n"
        "roundtrip_residual=0\n"),
]


@pytest.mark.parametrize("components, stdout", _DIRAC_GOLDEN, ids=("readme", "1e308", "generic"))
def test_dirac_stdout_is_golden(capsys, components, stdout):
    assert run_cli(capsys, ["dirac", "--components", *components.split()]) == (0, stdout, "")


def test_x3_extraction_example(capsys):
    # components (0,1, 0,0, 0,0, 0,0) = phi1 = j: q0 must come out as i e3.
    code, out, _ = run_cli(
        capsys, ["dirac", "--components", "0", "1", "0", "0", "0", "0", "0", "0"]
    )
    assert code == 0
    record = dict(ln.split("=", 1) for ln in out.splitlines())
    q0 = [float(v) for v in record["q0"].split(",")]
    assert q0 == pytest.approx([0, 0, 0, 1], abs=1e-12)


def test_project_hyper_edge_lifts(capsys):
    # 1e-10 inside the open ball the lift, angle and boost all re-validate
    code, out, err = run_cli(capsys, ["project", "hyper", "--point", "0.9999999999,0,0"])
    assert (code, err) == (0, "")
    record = dict(ln.split("=", 1) for ln in out.splitlines())
    assert float(record["angle"]) == pytest.approx(2.0 * math.atanh(0.9999999999), rel=1e-15)
    code, out, err = run_cli(capsys, ["project", "hyper", "--point", "1e-170,0,0"])
    assert (code, err) == (0, "") and "\nangle=2e-170\n" in out  # 2 atanh|x|, x^2 underflows
    code, out, err = run_cli(capsys, ["project", "sphere", "--point", "1e8,0,0"])
    assert (code, err) == (0, "")
    record = dict(ln.split("=", 1) for ln in out.splitlines())
    assert [float(v) for v in record["a_hat"].split(",")] == pytest.approx([-1.0, 2e-8, 0.0, 0.0])


# Finite, edge, huge and non-finite reals, as argv text.
_REALS = st.one_of(
    st.sampled_from([
        "0", "-0.0", "0.5", "-0.5", "0.99", "0.9999999999", "-0.9999999999", "1",
        "1.0000000001", "-1", "3", "1e8", "1e-8", "5e-324", "1e-160", "1e154", "1e155",
        "1e200", "-1e300", "1.7976931348623157e308", "nan", "inf", "-inf", "-nan",
    ]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_POINTS = st.one_of(
    st.lists(_REALS, min_size=2, max_size=4),
    st.tuples(_REALS, _REALS, st.just("0")),  # the planar chart of 2-component states
).map(",".join)
_ARGV = st.one_of(
    st.tuples(st.just("project"), st.sampled_from(["sphere", "hyper"]), _POINTS.map("--point={}".format)),
    st.tuples(
        st.just("prob"), st.sampled_from(["sphere", "hyper"]),
        _POINTS.map("--point-a={}".format), _POINTS.map("--point-b={}".format),
    ),
    st.tuples(
        st.just("prob"), st.just("hyper"), _POINTS.map("--point-a={}".format),
        _POINTS.map("--point-b={}".format), st.just("--quaternion"),
    ),
    st.lists(_REALS, min_size=7, max_size=9).map(lambda xs: ("dirac", "--components", *xs)),
    st.tuples(st.just("verify"), st.integers().map("--seed={}".format), st.just("--cases=1")),
    st.tuples(st.just("table"), st.text().map("--signature={}".format)),
)


@settings(max_examples=200, deadline=None)
@given(_ARGV)
@pytest.mark.filterwarnings("error")
def test_cli_fuzz_exits_cleanly(argv):
    # every argv ends in 0, a typed one-line failure (1) or a usage error (2)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert_error_format(code, err.getvalue())


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def _parse_outcome(parse, argv):
    """The namespace of one parse as its sorted (name, repr) pairs, so that
    NaN equals NaN, or argparse's exit: (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return sorted((k, repr(v)) for k, v in vars(parse(list(argv))).items())
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def assert_routed_parse_matches_parse_args(argv):
    # the routed parse reads argv[1:] with the command's parser alone; the
    # namespace (command included) or the exit and its bytes are parse_args'
    parser = cli.build_parser()
    routed = _parse_outcome(lambda a: cli._parse_argv(parser, a), argv)
    assert routed == _parse_outcome(parser.parse_args, argv), argv
    return routed


# README's forms, CI's six usage errors, help, an unknown command, no argv,
# leftovers after a command, "--" and an abbreviated option
_PARSE_CORPUS = [
    *readme_cli_lines(),
    ["verify", "--seed", "0", "--cases", "0"], ["table", "--signature", "7,0"],
    ["project", "sphere", "--point=1,2"], ["prob", "sphere", "--point-a=0,0,1", "--point-b=0,0,0"],
    ["figure", "stereo-sphere", "--samples", "1", "--out", "unused.csv"],
    ["dirac", "--components", "1", "2", "3"],
    ["-h"], ["table", "-h"], ["bogus"], [],
    ["table", "--signature", "1,1", "--bogus"], ["table", "--signature", "1,1", "extra"],
    ["table", "--", "--signature", "1,1"], ["dirac", "--components", "--", "-1", *"0000000"],
    ["table", "--sig", "2,1"],
]


@pytest.mark.parametrize("argv", _PARSE_CORPUS, ids=" ".join)
def test_routed_parse_matches_parse_args(argv):
    assert_routed_parse_matches_parse_args(argv)


@settings(max_examples=100, deadline=None)
@given(_ARGV)
def test_routed_parse_matches_parse_args_on_generated_argv(argv):
    assert_routed_parse_matches_parse_args(argv)


def test_top_level_parser_reports_leftovers_after_a_command():
    argv = ["table", "--signature", "1,1", "--bogus"]
    code, out, err = assert_routed_parse_matches_parse_args(argv)
    lines = err.splitlines()
    assert (code, out) == (2, "")
    assert lines[0] == "usage: gaspin [-h] {verify,table,project,prob,figure,dirac} ..."
    assert lines[-1] == "gaspin: error: unrecognized arguments: --bogus"


class _RecordingStdout(io.StringIO):
    """A stdout that counts its write calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("argv", readme_cli_lines(), ids=" ".join)
def test_each_report_is_one_write(monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)  # figure writes its --out here
    stdout = _RecordingStdout()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    assert stdout.writes == 1 and stdout.getvalue().endswith("\n"), argv


def test_readme_lines_cover_every_command():
    assert {argv[0] for argv in readme_cli_lines()} == set(cli.build_parser().commands)


def test_signature_for_keeps_valid_pairs_only():
    cli._signature_for.cache_clear()
    assert cli._signature_for(3, 3) is cli._signature_for(3, 3)
    assert cli._signature_for(1, 3) is SPACETIME13
    for p, q in ((7, 0), (-1, 3), (100000000, 0)):
        with pytest.raises(ValueError):
            cli._signature_for(p, q)
    assert cli._signature_for.cache_info().currsize == 2


def test_reused_parser_keeps_no_state_between_calls(capsys):
    prob = ["prob", "hyper", "--point-a", "0,0,0", "--point-b", "0.5,0,0"]
    code, out, _ = run_cli(capsys, [*prob, "--quaternion"])
    assert code == 0 and "quaternion=yes" in out.splitlines()
    code, out, _ = run_cli(capsys, prob)
    assert code == 0 and "quaternion=no" in out.splitlines()

    code, out, _ = run_cli(capsys, ["verify", "--seed", "3", "--cases", "1"])
    assert code == 0 and "seed=3" in out.splitlines()
    code, out, _ = run_cli(capsys, ["verify", "--cases", "1"])
    assert code == 0 and "seed=0" in out.splitlines()


@pytest.mark.parametrize("argv, prog, message", [
    (["project", "sphere"], "gaspin project", "the following arguments are required: --point"),
    (["figure", "stereo-disk", "--out", "f.csv"], "gaspin figure",
     "argument name: invalid choice: 'stereo-disk'"),
    (["dirac", "--components", "1", "2", "3"], "gaspin", "--components needs exactly 8 reals"),
])
def test_usage_error_after_a_successful_call(capsys, monkeypatch, argv, prog, message):
    def usage_error():
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        return capsys.readouterr()

    assert run_cli(capsys, ["project", "sphere", "--point", "0.5,0,0"])[0] == 0
    captured = usage_error()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: {prog} ")
    assert f"{prog}: error: {message}" in captured.err
    # the second error reads its usage block from the cache of the parser that failed
    parser = cli.build_parser()
    if prog != "gaspin":
        parser = parser._subparsers._group_actions[0].choices[prog.split()[1]]
    hits = parser.format_usage.cache_info().hits
    assert usage_error() == captured
    assert parser.format_usage.cache_info().hits == hits + 1
    # the same bytes as from a parser built for this call alone
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert usage_error() == captured
