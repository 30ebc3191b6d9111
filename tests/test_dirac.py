
import numpy as np
import pytest

from gaspin.core import (EUCLIDEAN4, SPACETIME13, Multivector, geometric_product, pseudoscalar,
                         residual)
from gaspin.errors import NotInIdeal
from gaspin.dirac import (
    DiracSpinor,
    carrier_blades,
    dirac_idempotent,
    dirac_roundtrip_residual,
    dirac_to_geometric,
    expansion_display,
    geometric_to_qspinor,
    j_action,
    j_blade,
    j_structure_report,
    qspinor_to_dirac,
    qspinor_to_geometric,
)
from gaspin.isomap import euclidean_to_spacetime
from gaspin.quatrep import Quaternion
from gaspin.quatspinor import QuatSpinor


# Dirac basis conjugated by g0, in the module's column dictionary: written
# out by hand, independent of the multivector route.
_SIGMA = (
    np.array([[0, 1], [1, 0]]),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]]),
)
_GAMMA = (
    np.diag([1, 1, -1, -1]).astype(complex),
    *(np.block([[np.zeros((2, 2)), -s], [s, np.zeros((2, 2))]]) for s in _SIGMA),
)
_ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def _parts(m):
    return np.concatenate([m.re.coeffs, m.im.coeffs])


def rand_phi(rng, integer=False):
    if integer:
        vals = rng.integers(-3, 4, size=8).astype(float)
    else:
        vals = rng.uniform(-1, 1, size=8)
    return DiracSpinor.from_reals(vals)


# ------------------------------------------------------------ the idempotents


def test_no_real_multivector_idempotents():
    # The real-part candidates (1+g0)(1+g30)/4 are NOT idempotent (the two
    # factors anticommute); P^2 = P/2 instead.  This is why the module
    # complexifies.
    g0 = Multivector.basis(SPACETIME13, 0)
    g30 = Multivector.blade(SPACETIME13, 0b1001)
    one = Multivector.scalar(SPACETIME13, 1.0)
    P = 0.25 * ((one + g0) * (one + g30))
    assert residual(P * P, P) > 0.1
    assert residual(P * P, 0.5 * P) == 0.0


def test_j_is_right_g21_everywhere(rng):
    # j * basis spinor = basis spinor * g21 exactly, on all 8 basis columns.
    for k in range(4):
        for val in (1.0, 1j):
            comps = [0.0] * 4
            comps[k] = val
            m = dirac_to_geometric(DiracSpinor(tuple(comps)))
            assert residual(m * j_blade(), 1j * m) == 0.0
    phi = rand_phi(rng)
    m = dirac_to_geometric(phi)
    assert residual(j_action(m), 1j * m) <= 1e-15


def test_j_structure_report():
    report = j_structure_report()
    assert report["J_minus_ji"] == 0.0
    # the opposite sign lands on the neighbouring idempotent instead
    assert report["J_plus_ji"] >= 0.25
    assert report["j_as_right_g21_on_idempotent"] == 0.0


# -------------------------------------------------------------------- the map


def test_gamma_matrices_match_left_multiplication(rng):
    for mu in range(4):
        for nu in range(4):
            anti = _GAMMA[mu] @ _GAMMA[nu] + _GAMMA[nu] @ _GAMMA[mu]
            assert np.array_equal(anti, 2 * _ETA[mu, nu] * np.eye(4))
    for _ in range(50):
        phi = rng.integers(-3, 4, size=4) + 1j * rng.integers(-3, 4, size=4)
        m = dirac_to_geometric(DiracSpinor(tuple(phi)))
        for mu, gamma in enumerate(_GAMMA):
            lhs = Multivector.basis(SPACETIME13, mu) * m
            rhs = dirac_to_geometric(DiracSpinor(tuple(gamma @ phi)))
            assert np.array_equal(_parts(lhs), _parts(rhs))


def test_unit_column_is_idempotent():
    m = dirac_to_geometric(DiracSpinor((1, 0, 0, 0)))
    assert residual(m, dirac_idempotent(+1, +1)) == 0.0


def test_j_column_example():
    # phi = (j,0,0,0) maps to i e3 u(+,+) = g21 u(+,+); component x3 = 1.
    m = dirac_to_geometric(DiracSpinor((1j, 0, 0, 0)))
    i13 = pseudoscalar(SPACETIME13)
    _, _, e3, _ = carrier_blades()
    want = (i13 * e3) * dirac_idempotent(+1, +1)
    assert residual(m, want) == 0.0
    psi = geometric_to_qspinor(m)
    assert (psi.q0 - Quaternion.from_vector((0, 0, 1))).max_abs() <= 1e-12
    assert psi.q1.max_abs() <= 1e-12
    back = qspinor_to_dirac(psi).components
    assert max(abs(a - b) for a, b in zip(back, (1j, 0, 0, 0))) <= 1e-12


def test_real_linearity(rng):
    a = rand_phi(rng)
    b = rand_phi(rng)
    lam = 0.37
    combo = DiracSpinor(tuple(x + lam * y for x, y in zip(a.components, b.components)))
    lhs = dirac_to_geometric(combo)
    rhs = dirac_to_geometric(a) + lam * dirac_to_geometric(b)
    assert residual(lhs, rhs) <= 1e-14


def test_j_linearity(rng):
    phi = rand_phi(rng)
    j_phi = DiracSpinor(tuple(1j * c for c in phi.components))
    assert residual(dirac_to_geometric(j_phi), dirac_to_geometric(phi) * j_blade()) <= 1e-14


def test_expansion_display_matches(rng):
    for _ in range(200):
        phi = rand_phi(rng)
        assert residual(dirac_to_geometric(phi), expansion_display(phi)) <= 1e-14


def test_component_dictionary():
    # phi1 = x0 + j x3, phi2 = -x2 + j x1, phi3 = -y3 + j y0, phi4 = -y1 - j y2
    q0 = Quaternion(1.0, (2.0, 3.0, 4.0))
    q1 = Quaternion(5.0, (6.0, 7.0, 8.0))
    phi = qspinor_to_dirac(QuatSpinor(q0, q1))
    assert phi.components == (
        complex(1, 4),
        complex(-3, 2),
        complex(-8, 5),
        complex(-6, -7),
    )


def test_roundtrip_identity(rng):
    for _ in range(1000):
        phi = rand_phi(rng)
        assert dirac_roundtrip_residual(phi) <= 1e-12
        m = dirac_to_geometric(phi)
        psi = geometric_to_qspinor(m)
        back = qspinor_to_dirac(psi)
        assert max(abs(a - b) for a, b in zip(back.components, phi.components)) <= 1e-12


def test_roundtrip_from_qspinor_side(rng):
    for _ in range(200):
        vals = rng.uniform(-1, 1, size=8)
        psi = QuatSpinor(
            Quaternion(vals[0], tuple(vals[1:4])),
            Quaternion(vals[4], tuple(vals[5:8])),
        )
        m = qspinor_to_geometric(psi)
        back = geometric_to_qspinor(m)
        assert (back.q0 - psi.q0).max_abs() <= 1e-12
        assert (back.q1 - psi.q1).max_abs() <= 1e-12


def _u_plus_plus():
    """u(+,+) = (1 + g0)(1 + j g12)/4 written out as products."""
    u = (Multivector.scalar(SPACETIME13, 1.0) + Multivector.basis(SPACETIME13, 0)) * 0.25
    return u + 1j * geometric_product(u, Multivector.blade(SPACETIME13, 0b0110))


def test_carriers_match_the_product_route(rng):
    # the cached frames against (phi1 + phi2 e13 + phi3 e3 + phi4 e1) u(+,+)
    # and (q0 + q1 i) u(+,+) written out as products; each blade carries one
    # coordinate, so exactly
    u = _u_plus_plus()
    assert residual(u, dirac_idempotent(+1, +1)) == 0.0
    blades = [euclidean_to_spacetime(Multivector.blade(EUCLIDEAN4, m))
              for m in (0, 0b1010, 0b1000, 0b0010)]  # 1, e13, e3, e1
    i13 = Multivector.blade(SPACETIME13, 0b1111)
    for _ in range(100):
        vals = rng.uniform(-1, 1, size=8) * 10.0 ** rng.uniform(-100, 100)
        phi = DiracSpinor.from_reals(vals)
        column = sum((c * b for c, b in zip(phi.components, blades)),
                     Multivector.zero(SPACETIME13))
        assert dirac_to_geometric(phi) == geometric_product(column, u)
        psi = QuatSpinor(Quaternion.from_coords(vals[:4]), Quaternion.from_coords(vals[4:]))
        q0m, q1m = (euclidean_to_spacetime(q.to_multivector()) for q in (psi.q0, psi.q1))
        assert qspinor_to_geometric(psi) == geometric_product(q0m + geometric_product(i13, q1m), u)


def test_not_in_ideal_rejected():
    bad = Multivector.basis(SPACETIME13, 1)
    with pytest.raises(NotInIdeal):
        geometric_to_qspinor(bad)
    # breaking the im = re*g12 pairing must also be rejected
    good = dirac_to_geometric(DiracSpinor((1, 0.5j, 0, 0.25)))
    tampered = good.re + 1.5j * good.im
    with pytest.raises(NotInIdeal):
        geometric_to_qspinor(tampered)


def test_norm_transport(rng):
    # The column norm equals two ga-core-computable norms: the quaternion
    # pair norm and 4x the squared coefficient norm of the carrier.
    for _ in range(300):
        phi = rand_phi(rng)
        m = dirac_to_geometric(phi)
        psi = geometric_to_qspinor(m)
        n_col = phi.norm2()
        n_quat = psi.q0.norm2() + psi.q1.norm2()
        n_coeff = 4.0 * float(np.vdot(m.coeffs, m.coeffs).real)
        assert n_col == pytest.approx(n_quat, abs=1e-12 * max(1.0, n_col))
        assert n_col == pytest.approx(n_coeff, abs=1e-12 * max(1.0, n_col))


def test_dirac_spinor_validation():
    with pytest.raises(ValueError):
        DiracSpinor.from_reals([1.0] * 7)
    with pytest.raises(ValueError):
        DiracSpinor((float("nan"), 0, 0, 0))
