
import numpy as np
import pytest

from gaspin import cli
from gaspin.core import (EUCLIDEAN4, SPACETIME13, Multivector, geometric_product, pseudoscalar,
                         residual)
from gaspin.errors import NotInIdeal
from gaspin.dirac import (
    CL41,
    DiracCarrier,
    DiracSpinor,
    carrier_blades,
    dirac_idempotent,
    dirac_roundtrip_residual,
    dirac_to_geometric,
    geometric_to_qspinor,
    j_action,
    j_blade,
    qspinor_to_dirac,
    qspinor_to_geometric,
    to_cl41,
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


def _half_v_plus():
    """v+/2 = (1 + g0)/4, the real part of u(+,+), written out."""
    return (Multivector.scalar(SPACETIME13, 1.0) + Multivector.basis(SPACETIME13, 0)) * 0.25


def expansion_display(phi):
    """The real part of the same element, written over real/imag groups:

    ((x1 + x4 e1 + y4 e2 + x3 e3) + i (y3 + y2 e1 - x2 e2 + y1 e3)) v+/2
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
    return (first + i13 * second) * _half_v_plus()


def _in_cl41(m):
    """The carrier as the element re + I im of Cl(4,1), I = e12345 playing j."""
    return to_cl41(m.re) + pseudoscalar(CL41) * to_cl41(m.im)


def _blade(k):
    """Carrier blade k of (1, e13, e3, e1) as a single case."""
    return Multivector(SPACETIME13, carrier_blades().coeffs[k])


def rand_phi(rng, integer=False):
    if integer:
        vals = rng.integers(-3, 4, size=8).astype(float)
    else:
        vals = rng.uniform(-1, 1, size=8)
    return DiracSpinor.from_reals(vals)


# ------------------------------------------------------------ the idempotents


def test_no_real_multivector_idempotents():
    # The real-part candidates (1+g0)(1+g30)/4 are NOT idempotent (the two
    # factors anticommute); P^2 = P/2 instead.  This is why the idempotents
    # live in Cl(4,1), the complexified algebra.
    g0 = Multivector.basis(SPACETIME13, 0)
    g30 = Multivector.blade(SPACETIME13, 0b1001)
    one = Multivector.scalar(SPACETIME13, 1.0)
    P = 0.25 * ((one + g0) * (one + g30))
    assert residual(P * P, P) > 0.1
    assert residual(P * P, 0.5 * P) == 0.0


def test_j_is_right_g21_everywhere(rng):
    # j times a column maps to the carrier times g21, exactly, on all 8 basis
    # columns, and in Cl(4,1) the lifted carriers c = re + I im satisfy
    # c g21 = I c
    i5, g21 = pseudoscalar(CL41), to_cl41(j_blade())
    for k in range(4):
        for val in (1.0, 1j):
            phi = val * np.eye(4)[k]
            m = dirac_to_geometric(DiracSpinor(phi))
            assert j_action(m) == dirac_to_geometric(DiracSpinor(1j * phi))
            assert residual(_in_cl41(m) * g21, i5 * _in_cl41(m)) == 0.0
    phi = rand_phi(rng)
    m, jm = dirac_to_geometric(phi), dirac_to_geometric(DiracSpinor(1j * phi.components))
    assert residual(j_action(m).re, jm.re) <= 1e-15
    assert residual(_in_cl41(m) * g21, i5 * _in_cl41(m)) <= 1e-15


def test_j_structure_report():
    # J = -j i (the operative convention) gives v+ (1 + J e3)/2 = u(+,+)
    # exactly in Cl(4,1), j = I; J = +j i lands on the neighbouring
    # idempotent instead
    i13, i5 = to_cl41(pseudoscalar(SPACETIME13)), pseudoscalar(CL41)
    e3 = to_cl41(_blade(2))
    one = Multivector.scalar(CL41, 1.0)
    v_plus = to_cl41(_half_v_plus()) * 2.0

    def e_plus(sign):  # (1 + J e3)/2 with J = sign * j i
        return (one + (sign * i5 * i13) * e3) * 0.5

    assert residual(v_plus * e_plus(-1.0), dirac_idempotent(+1, +1)) == 0.0
    assert residual(v_plus * e_plus(+1.0), dirac_idempotent(+1, +1)) >= 0.25


def test_idempotent_report_matches_the_tuple_route():
    # u(s,t) = (1 + s g0)(1 + t j g12)/4 written out one at a time in Cl(4,1)
    # from the images g0 = e1, g1 = I e2, g2 = I e3 and j = I, so j g12 =
    # I I e2 I e3 = -I e23, and the ``dirac.idempotents`` suite's relations
    # over them one single product at a time
    i5 = pseudoscalar(CL41)
    g0, j_g12 = Multivector.basis(CL41, 0), -1.0 * (i5 * Multivector.blade(CL41, 0b00110))
    one = Multivector.scalar(CL41, 1.0)
    us = {}
    for s in (+1, -1):
        for t in (+1, -1):
            us[(s, t)] = ((one + float(s) * g0) * (one + float(t) * j_g12)) * 0.25
            assert dirac_idempotent(s, t) == us[(s, t)]
    e13, e3, e1 = (to_cl41(_blade(k)) for k in (1, 2, 3))
    upp = us[(+1, +1)]
    want = {
        "idempotency": max(residual(u * u, u) for u in us.values()),
        "orthogonality": max((us[a] * us[b]).max_abs() for a in us for b in us if a != b),
        "completeness": residual(sum(us.values(), Multivector.zero(CL41)), one),
        "spectral_frame_conjugations": max(
            residual((-1.0 * e13) * upp * e13, us[(+1, -1)]),
            residual(e3 * upp * e3, us[(-1, +1)]),
            residual(e1 * upp * e1, us[(-1, -1)]),
        ),
    }
    report, _ = cli.SUITES["dirac.idempotents"](np.random.default_rng(0), 1)
    assert report == want == dict.fromkeys(want, 0.0)
    assert all(type(v) is float for v in report.values())


def test_the_cl41_map_is_a_homomorphism_onto_the_i_free_part(rng):
    # g0 -> e1, g_k -> I e(k+1): the images square as g0..g3 do and
    # anticommute, and products map to products, exactly on integers
    i5 = pseudoscalar(CL41)
    gens = [to_cl41(Multivector.basis(SPACETIME13, k)) for k in range(4)]
    assert gens[0] == Multivector.basis(CL41, 0)
    assert all(gens[k] == i5 * Multivector.basis(CL41, k) for k in range(1, 4))
    assert [(g * g).scalar_part for g in gens] == [1.0, -1.0, -1.0, -1.0]
    assert all((a * b + b * a).max_abs() == 0.0 for a in gens for b in gens if a is not b)
    for _ in range(20):
        a, b = (Multivector(SPACETIME13, rng.integers(-3, 4, 16)) for _ in range(2))
        assert to_cl41(a * b) == to_cl41(a) * to_cl41(b)


# -------------------------------------------------------------------- the map


def test_carrier_holds_re_and_derives_im():
    m = dirac_to_geometric(DiracSpinor((1, 0.5j, 0, 0.25)))
    assert m.re.signature == SPACETIME13 and m.re.coeffs.dtype == np.float64
    assert m.im == m.re * Multivector.blade(SPACETIME13, 0b0110)
    assert m == DiracCarrier(m.re) and m != DiracCarrier(2.0 * m.re)
    with pytest.raises(AttributeError):
        m.re = m.im


def test_gamma_matrices_match_left_multiplication(rng):
    for mu in range(4):
        for nu in range(4):
            anti = _GAMMA[mu] @ _GAMMA[nu] + _GAMMA[nu] @ _GAMMA[mu]
            assert np.array_equal(anti, 2 * _ETA[mu, nu] * np.eye(4))
    for _ in range(50):
        phi = rng.integers(-3, 4, size=4) + 1j * rng.integers(-3, 4, size=4)
        m = dirac_to_geometric(DiracSpinor(phi))
        for mu, gamma in enumerate(_GAMMA):
            # left multiplication commutes with j, the right g21, so it acts on re
            lhs = Multivector.basis(SPACETIME13, mu) * m.re
            rhs = dirac_to_geometric(DiracSpinor(gamma @ phi))
            assert np.array_equal(lhs.coeffs, rhs.re.coeffs)


def test_unit_column_is_idempotent():
    m = dirac_to_geometric(DiracSpinor((1, 0, 0, 0)))
    assert residual(m.re, _half_v_plus()) == 0.0
    assert residual(_in_cl41(m), dirac_idempotent(+1, +1)) == 0.0


def test_j_column_example():
    # phi = (j,0,0,0) maps to i e3 u(+,+) = g21 u(+,+); component x3 = 1.
    m = dirac_to_geometric(DiracSpinor((1j, 0, 0, 0)))
    want = to_cl41(pseudoscalar(SPACETIME13) * _blade(2)) * dirac_idempotent(+1, +1)
    assert residual(_in_cl41(m), want) == 0.0
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
    rhs = dirac_to_geometric(a).re + lam * dirac_to_geometric(b).re
    assert residual(lhs.re, rhs) <= 1e-14


def test_j_linearity(rng):
    phi = rand_phi(rng)
    j_phi = DiracSpinor(1j * phi.components)
    assert residual(dirac_to_geometric(j_phi).re, dirac_to_geometric(phi).re * j_blade()) <= 1e-14


def test_expansion_display_matches(rng):
    for _ in range(200):
        phi = rand_phi(rng)
        assert residual(dirac_to_geometric(phi).re, expansion_display(phi)) <= 1e-14


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


def test_carriers_match_the_product_route(rng):
    # the cached frames against the real parts of (phi1 + phi2 e13 + phi3 e3
    # + phi4 e1) u(+,+) and (q0 + q1 i) u(+,+) written out as products: with
    # Re u(+,+) = v+/2 and Im u(+,+) = v+/2 g12, the first is x v+/2 +
    # y v+/2 g21 for the real and imaginary columns x and y; each blade
    # carries one coordinate, so exactly
    half, g12 = _half_v_plus(), Multivector.blade(SPACETIME13, 0b0110)
    u = to_cl41(half) + pseudoscalar(CL41) * to_cl41(half * g12)
    assert residual(u, dirac_idempotent(+1, +1)) == 0.0
    blades = [euclidean_to_spacetime(Multivector.blade(EUCLIDEAN4, m))
              for m in (0, 0b1010, 0b1000, 0b0010)]  # 1, e13, e3, e1
    i13 = Multivector.blade(SPACETIME13, 0b1111)
    zero = Multivector.zero(SPACETIME13)
    for _ in range(100):
        vals = rng.uniform(-1, 1, size=8) * 10.0 ** rng.uniform(-100, 100)
        phi = DiracSpinor.from_reals(vals)
        x, y = (sum((c * b for c, b in zip(part, blades)), zero) for part in (vals[0::2], vals[1::2]))
        want = geometric_product(x, half) - geometric_product(geometric_product(y, half), g12)
        assert dirac_to_geometric(phi).re == want
        psi = QuatSpinor(Quaternion(vals[:4]), Quaternion(vals[4:]))
        q0m, q1m = (euclidean_to_spacetime(q.to_multivector()) for q in (psi.q0, psi.q1))
        assert qspinor_to_geometric(psi).re == geometric_product(q0m + i13 * q1m, half)


def test_not_in_ideal_rejected():
    bad = DiracCarrier(Multivector.basis(SPACETIME13, 1))
    with pytest.raises(NotInIdeal):
        geometric_to_qspinor(bad)
    # a real part moved out of the left ideal Cl(1,3) v+ by a right g1 is
    # rejected, alone or added to a valid one
    column = np.array([1, 0.5j, 0, 0.25])
    good = dirac_to_geometric(DiracSpinor(column))
    moved = good.re * Multivector.basis(SPACETIME13, 1)
    for tampered in (moved, good.re + moved, good.re + 1e-9 * moved):
        with pytest.raises(NotInIdeal):
            geometric_to_qspinor(DiracCarrier(tampered))
    # re g12, the imaginary part, is itself in the ideal: the column times -j
    assert geometric_to_qspinor(DiracCarrier(good.im)) == geometric_to_qspinor(
        dirac_to_geometric(DiracSpinor(-1j * column)))


def test_norm_transport(rng):
    # The column norm equals two ga-core-computable norms: the quaternion
    # pair norm and 4x the squared coefficient norm of the carrier re + j im.
    for _ in range(300):
        phi = rand_phi(rng)
        m = dirac_to_geometric(phi)
        psi = geometric_to_qspinor(m)
        n_col = float(np.sum(np.abs(phi.components) ** 2))
        n_quat = psi.q0.norm2() + psi.q1.norm2()
        n_coeff = 4.0 * float(np.vdot(m.re.coeffs, m.re.coeffs) + np.vdot(m.im.coeffs, m.im.coeffs))
        assert n_col == pytest.approx(n_quat, abs=1e-12 * max(1.0, n_col))
        assert n_col == pytest.approx(n_coeff, abs=1e-12 * max(1.0, n_col))


def test_dirac_spinor_validation():
    with pytest.raises(ValueError):
        DiracSpinor.from_reals([1.0] * 7)
    with pytest.raises(ValueError):
        DiracSpinor((float("nan"), 0, 0, 0))
