"""Acceptance suite: every top-level criterion at its stated tolerance.

Each criterion is a set of rows; a row runs one registered ``gaspin verify``
suite (``cli.SUITES``) at seed 7 with a pinned case count and tolerance, so
pytest and ``verify`` check the same definition of each identity.  A row
holds the suite's max_residual to its pinned tolerance directly, not to the
bound ``verify`` prints; a pinned 0 demands an exact result.  Each row
prints one PASS/FAIL line (visible with pytest -s, or run this file
directly: python tests/test_acceptance.py).  Tolerances are pinned here,
not configurable.
"""
import csv
import math
import sys

import pytest

from gaspin import cli, stereo
from gaspin.quatrep import QuatMatrix2, basis_change_matrix, matrix_residual

SEED = 7

# criterion -> rows of (label, suite, cases, pinned tolerance).  Suites that
# sample two geometries or algebras draw cases // 2 of each; suites on fixed
# inputs ignore the case count.  A pinned tolerance of 0 demands exact results.
CRITERIA = {
    "1": [
        ("1a representation homomorphism", "quatrep.homomorphism", 1000, 1e-12),
        ("1b unrep o rep = id on blades", "quatrep.faithfulness", 1, 0.0),
    ],
    "2": [
        ("2a change of basis", "quatrep.change_of_basis", 1000, 1e-12),
        ("2c/2d spectral-basis relation, B singular", "quatrep.idempotent_relations", 1, 1e-12),
    ],
    "3": [
        ("3 isomorphism preserves products", "isomap.homomorphism", 2000, 1e-12),
        ("3 inverse on blades and random elements", "isomap.inverse_blades", 2000, 0.0),
    ],
    "4": [
        ("4a project o lift = id", "stereo.roundtrip", 1000, 1e-10),
        ("4b rotor sandwich = closed-form lift", "stereo.rotor_sandwich", 1000, 1e-10),
        ("4c trig identities", "stereo.trig_identities", 500, 1e-12),
    ],
    "5": [
        ("5 metric vs finite differences", "stereo.metric_finite_difference", 400, 1e-6),
    ],
    "6": [
        ("6a/6b fidelity triple equality and bounds", "gspinor.fidelity_triple", 1000, 1e-10),
        ("6c antipode has zero fidelity", "gspinor.antipode", 200, 1e-12),
    ],
    "7": [
        ("7a/7b canonical reconstruction, M^2", "qspinor.canonical_reconstruction", 1000, 1e-12),
        ("7c orthogonal projector and reconstruction", "qspinor.orthogonal_projector", 1000, 1e-12),
        ("7d dual-route fidelity", "qspinor.fidelity_dual_route", 1000, 1e-10),
    ],
    "8": [
        ("8a dirac roundtrip", "dirac.roundtrip", 1000, 1e-12),
        ("8b j = right g21 on basis spinors", "dirac.j_action", 1, 0.0),
        ("8c four idempotents complete + orthogonal", "dirac.idempotents", 1, 0.0),
    ],
}


def _report(criterion: str, worst: float, tol: float, witness=None) -> bool:
    """One PASS/FAIL line; a suite row names its witness (part label, case)."""
    ok = worst <= tol
    at = f", witness {witness[0]}:{witness[1]}" if witness else ""
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: max residual {worst:.3e} "
          f"(tolerance {tol:.0e}{at})")
    return ok


def _run_criterion(criterion: str) -> None:
    failed = []
    for label, suite, cases, pinned in CRITERIA[criterion]:
        r = cli.run_suite(suite, SEED, cases)
        if not _report(f"{label} ({suite}, {cases} cases)", r.max_residual, pinned, r.witness):
            failed.append(suite)
    assert not failed, f"criterion {criterion} failed: {failed}"


def test_criterion_1_representation_homomorphism():
    _run_criterion("1")


def test_criterion_2_change_of_basis():
    _run_criterion("2")
    A = basis_change_matrix()
    worst = matrix_residual(A * A.conjugate_transpose(), QuatMatrix2.identity())
    assert _report("2b (A unitary)", worst, 1e-15)


def test_criterion_3_isomorphism():
    _run_criterion("3")


def test_criterion_4_projection_and_rotors():
    _run_criterion("4")
    phi = stereo.hyper_angle(stereo.PlanePoint.of(0.5, 0.0, 0.0))
    worst = max(abs(math.cosh(phi) - 5.0 / 3.0), abs(math.sinh(phi) - 4.0 / 3.0))
    assert _report("4d (|x|=1/2 gives cosh=5/3, sinh=4/3)", worst, 1e-12)


def test_criterion_5_metric_finite_differences():
    _run_criterion("5")


def test_criterion_6_fidelity_triple_equality():
    _run_criterion("6")


def test_criterion_7_quaternion_spinor_canonical():
    _run_criterion("7")


def test_criterion_8_dirac_bridge():
    _run_criterion("8")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        assert cli.main(["figure", "stereo-sphere", "--samples", "51", "--out", str(path)]) == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    rows = list(csv.reader(paths[0].open()))
    worst = max(abs(sum(float(v) ** 2 for v in row[2:]) - 1.0) for row in rows[1:])
    with capsys.disabled():
        assert _report("9 (figure determinism + unit rows)", worst, 1e-10)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v", "-s"]))
