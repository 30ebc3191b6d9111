
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
    geometric_to_qspinor,
    idempotent_report,
    j_action,
    j_blade,
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


def expansion_display(phi):
    """The same element written over real/imag groups:

    ((x1 + x4 e1 + y4 e2 + x3 e3) + i (y3 + y2 e1 - x2 e2 + y1 e3)) u(+,+)
    with i = e123 = g0123; an independent route to ``dirac_to_geometric``.
    """
    x = [c.real for c in phi.components]
    y = [c.imag for c in phi.components]
    e = [
        euclidean_to_spacetime(Multivector.blade(EUCLIDEAN4, 1 << k)) for k in range(4)
    ]
    i13 = pseudoscalar(SPACETIME13)
    one = Multivector.scalar(SPACETIME13, 1.0)
    first = x[0] * one + x[3] * e[1] + y[3] * e[2] + x[2] * e[3]
    second = y[2] * one + y[1] * e[1] - x[1] * e[2] + y[0] * e[3]
    return (first + i13 * second) * dirac_idempotent(+1, +1)


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
            m = dirac_to_geometric(DiracSpinor(val * np.eye(4)[k]))
            assert residual(m * j_blade(), 1j * m) == 0.0
    phi = rand_phi(rng)
    m = dirac_to_geometric(phi)
    assert residual(j_action(m), 1j * m) <= 1e-15


def test_j_structure_report():
    # J = -j i (the operative convention) gives v+ (1 + J e3)/2 = u(+,+)
    # exactly; J = +j i lands on the neighbouring idempotent instead
    i13 = pseudoscalar(SPACETIME13)
    _, _, e3, _ = carrier_blades()
    one = Multivector.scalar(SPACETIME13, 1.0)
    v_plus = (one + Multivector.basis(SPACETIME13, 0)) * 0.5

    def e_plus(sign):  # (1 + J e3)/2 with J = sign * j i
        return (one + ((sign * 1j) * i13) * e3) * 0.5

    assert residual(v_plus * e_plus(-1.0), dirac_idempotent(+1, +1)) == 0.0
    assert residual(v_plus * e_plus(+1.0), dirac_idempotent(+1, +1)) >= 0.25


def test_idempotent_report_matches_the_tuple_route():
    # u(s,t) = (1 + s g0)(1 + t j g12)/4 written out one at a time, and the
    # report's relations over them one single product at a time
    g0, g12 = Multivector.basis(SPACETIME13, 0), Multivector.blade(SPACETIME13, 0b0110)
    one = Multivector.scalar(SPACETIME13, 1.0)
    us = {}
    for s in (+1, -1):
        for t in (+1, -1):
            base = (one + float(s) * g0) * 0.25
            us[(s, t)] = base + (t * 1j) * (base * g12)
            assert dirac_idempotent(s, t) == us[(s, t)]
    _, e13, e3, e1 = carrier_blades()
    upp = us[(+1, +1)]
    want = {
        "idempotency": max(residual(u * u, u) for u in us.values()),
        "orthogonality": max((us[a] * us[b]).max_abs() for a in us for b in us if a != b),
        "completeness": residual(sum(us.values(), Multivector.zero(SPACETIME13)), one),
        "spectral_frame_conjugations": max(
            residual((-1.0 * e13) * upp * e13, us[(+1, -1)]),
            residual(e3 * upp * e3, us[(-1, +1)]),
            residual(e1 * upp * e1, us[(-1, -1)]),
        ),
    }
    report = idempotent_report()
    assert report == want == dict.fromkeys(want, 0.0)
    assert all(type(v) is float for v in report.values())


# -------------------------------------------------------------------- the map


def test_gamma_matrices_match_left_multiplication(rng):
    for mu in range(4):
        for nu in range(4):
            anti = _GAMMA[mu] @ _GAMMA[nu] + _GAMMA[nu] @ _GAMMA[mu]
            assert np.array_equal(anti, 2 * _ETA[mu, nu] * np.eye(4))
    for _ in range(50):
        phi = rng.integers(-3, 4, size=4) + 1j * rng.integers(-3, 4, size=4)
        m = dirac_to_geometric(DiracSpinor(phi))
        for mu, gamma in enumerate(_GAMMA):
            lhs = Multivector.basis(SPACETIME13, mu) * m
            rhs = dirac_to_geometric(DiracSpinor(gamma @ phi))
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
    assert np.abs((psi.q0 - Quaternion([0, 0, 0, 1])).coeffs).max() <= 1e-12
    assert np.abs(psi.q1.coeffs).max() <= 1e-12
    back = qspinor_to_dirac(psi).components
    assert max(abs(a - b) for a, b in zip(back, (1j, 0, 0, 0))) <= 1e-12


def test_real_linearity(rng):
    a = rand_phi(rng)
    b = rand_phi(rng)
    lam = 0.37
    combo = DiracSpinor(a.components + lam * b.components)
    lhs = dirac_to_geometric(combo)
    rhs = dirac_to_geometric(a) + lam * dirac_to_geometric(b)
    assert residual(lhs, rhs) <= 1e-14


def test_j_linearity(rng):
    phi = rand_phi(rng)
    j_phi = DiracSpinor(1j * phi.components)
    assert residual(dirac_to_geometric(j_phi), dirac_to_geometric(phi) * j_blade()) <= 1e-14


def test_expansion_display_matches(rng):
    for _ in range(200):
        phi = rand_phi(rng)
        assert residual(dirac_to_geometric(phi), expansion_display(phi)) <= 1e-14


def test_component_dictionary():
    # phi1 = x0 + j x3, phi2 = -x2 + j x1, phi3 = -y3 + j y0, phi4 = -y1 - j y2
    q0 = Quaternion([1.0, 2.0, 3.0, 4.0])
    q1 = Quaternion([5.0, 6.0, 7.0, 8.0])
    phi = qspinor_to_dirac(QuatSpinor(q0, q1))
    assert phi == DiracSpinor([complex(1, 4), complex(-3, 2), complex(-8, 5), complex(-6, -7)])


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
        psi = QuatSpinor(Quaternion(vals[:4]), Quaternion(vals[4:]))
        m = qspinor_to_geometric(psi)
        back = geometric_to_qspinor(m)
        assert np.abs((back.q0 - psi.q0).coeffs).max() <= 1e-12
        assert np.abs((back.q1 - psi.q1).coeffs).max() <= 1e-12


def test_integer_columns_give_the_dictionary_quaternions_exactly(rng):
    # the frame's transpose extracts with no rounding: the unit columns and
    # small-integer ones give the quaternions of the component dictionary,
    # inverted by hand, to the bit, and a round trip that loses nothing
    vals = np.concatenate([np.eye(8), rng.integers(-3, 4, size=(6, 8))])
    re1, im1, re2, im2, re3, im3, re4, im4 = vals.T
    want = QuatSpinor(Quaternion(np.stack([re1, im2, -re2, im1], axis=-1)),
                      Quaternion(np.stack([im3, -re4, -im4, -re3], axis=-1)))
    phi = DiracSpinor.from_reals(vals)
    assert geometric_to_qspinor(dirac_to_geometric(phi)) == want
    assert np.all(dirac_roundtrip_residual(phi) == 0.0)


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
        psi = QuatSpinor(Quaternion(vals[:4]), Quaternion(vals[4:]))
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
        n_col = float(np.sum(np.abs(phi.components) ** 2))
        n_quat = psi.q0.norm2() + psi.q1.norm2()
        n_coeff = 4.0 * float(np.vdot(m.coeffs, m.coeffs).real)
        assert n_col == pytest.approx(n_quat, abs=1e-12 * max(1.0, n_col))
        assert n_col == pytest.approx(n_coeff, abs=1e-12 * max(1.0, n_col))


def test_dirac_spinor_validation():
    with pytest.raises(ValueError):
        DiracSpinor.from_reals([1.0] * 7)
    with pytest.raises(ValueError):
        DiracSpinor((float("nan"), 0, 0, 0))
