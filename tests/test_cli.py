import contextlib
import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaspin import cli, stereo
from gaspin.core import EUCLIDEAN4, Multivector
from gaspin.quatrep import matrix_residual, rep_vec


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    # suites on fixed inputs report cases=fixed; the footer echoes --cases
    blocks = [dict(ln.split("=", 1) for ln in b.splitlines()) for b in out.split("\n\n")]
    cases = {b["suite"]: b["cases"] for b in blocks if "suite" in b}
    assert cases == {
        name: "fixed" if name in cli.FIXED_INPUT_SUITES else "2" for name in SUITE_NAMES
    }
    assert blocks[-1]["cases"] == "2"


def test_fixed_input_suites_ignore_the_case_count():
    for name in cli.FIXED_INPUT_SUITES:
        few, many = (cli.run_suite(name, 7, cases, cli.DEFAULT_TOL) for cases in (1, 50))
        assert (few.max_residual, few.tolerance) == (many.max_residual, many.tolerance)


def test_verify_rejects_zero_cases(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--cases", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-12"])
def test_verify_rejects_bad_tol(capsys, tol):
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
    code, _, err = run_cli(capsys, ["table", "--signature", "nope"])
    assert code == 2
    assert "bad signature" in err


def test_table_json(capsys):
    import json

    code, out, _ = run_cli(capsys, ["table", "--signature", "1,2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["signature"] == [1, 2]
    assert len(data["table"]) == 8


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
    ],
)
@pytest.mark.filterwarnings("error")
def test_bad_input_exit_codes(capsys, argv, want):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == want
    assert err.splitlines()[-1].startswith(("error: ", "gaspin: error: "))
    if want == 1:
        assert len(err.splitlines()) == 1


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


def test_figure_unwritable_path(capsys):
    code, _, err = run_cli(
        capsys,
        ["figure", "stereo-sphere", "--samples", "3", "--out", "/nonexistent/x.csv"],
    )
    assert code == 1
    assert "cannot write" in err


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


def test_dirac_arity(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dirac", "--components", "1", "2", "3"])
    assert exc.value.code == 2


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
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
