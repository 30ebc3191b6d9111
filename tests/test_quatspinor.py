import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaspin.core import (
    EUCLIDEAN4,
    SPACETIME13,
    Multivector,
    allclose,
    geometric_product,
    grade_select,
    residual,
    reverse,
)
from gaspin import quatspinor
from gaspin.cli import _rand_admissible_q as rand_admissible
from gaspin.cli import _rand_orthogonal_q as rand_orthogonal
from gaspin.errors import (
    GAError,
    NonTimelike,
    NotInIdeal,
    NotInSubalgebra,
    NotOrthogonal,
    TagMismatch,
    VerificationFailure,
    ZeroQ0,
)
from gaspin.isomap import AlgebraTag, euclidean_to_spacetime
from gaspin.quatrep import Quaternion, quat_mul
from gaspin.quatspinor import (
    QuatSpinor,
    bloch_point,
    braket_q,
    canonical_orthogonal,
    canonical_q,
    circ,
    embed_spacetime,
    fidelity_q,
    from_image,
    grade_parts,
    idempotent_plus,
    image,
    is_orthogonal,
    norm2_q,
    otimes,
    projector,
    projector_closed_orthogonal,
    reconstruct,
    reduce_restricted,
    spacetime_m_display,
    spinor_reverse,
)
from gaspin.spinors import fidelity as ideal_fidelity

TAGS = (AlgebraTag.SPACETIME13, AlgebraTag.EUCLIDEAN4)


def rand_quat(rng, scale=1.0, integer=False):
    if integer:
        vals = rng.integers(-4, 5, size=4).astype(float)
    else:
        vals = rng.uniform(-scale, scale, size=4)
    return Quaternion(vals[0], tuple(vals[1:]))


# ----------------------------------------------------- product decomposition


def test_circ_otimes_example():
    # q0 = i e1, q1 = -i e2: circ(q0*, q1) = 0 and otimes(q0*, q1) = -k.
    q0 = Quaternion.from_vector((1, 0, 0))
    q1 = Quaternion.from_vector((0, -1, 0))
    a = q0.conjugate()
    got_circ = circ(a, q1)
    got_otimes = otimes(a, q1)
    assert got_circ == Quaternion.zero()
    assert got_otimes == Quaternion.from_vector((0, 0, -1))  # -k = -i e3


def test_circ_otimes_decomposition(rng):
    for _ in range(1000):
        a = rand_quat(rng, integer=True)
        b = rand_quat(rng, integer=True)
        assert circ(a, b) + otimes(a, b) == quat_mul(a, b)
        assert circ(a, b) == circ(b, a)
        assert otimes(a, b) == -otimes(b, a)
    a = rand_quat(rng)
    assert otimes(a, a) == Quaternion.zero()
    assert circ(a, a) == quat_mul(a, a)


def test_circ_otimes_bilinear_integer_exact(rng):
    for _ in range(200):
        a, b, c = (rand_quat(rng, integer=True) for _ in range(3))
        lam = int(rng.integers(-3, 4))
        for op in (circ, otimes):
            assert op(a + b.scale(lam), c) == op(a, c) + op(b, c).scale(lam)
            assert op(c, a + b.scale(lam)) == op(c, a) + op(c, b).scale(lam)


def test_circ_component_formula(rng):
    # For a = q0*, b = q1: circ = x0 y0 + x.y + (x0 y - y0 x) i and
    # otimes = (x cross y) i.
    for _ in range(200):
        q0 = rand_quat(rng)
        q1 = rand_quat(rng)
        x0, x = q0.s, np.array(q0.v)
        y0, y = q1.s, np.array(q1.v)
        c = circ(q0.conjugate(), q1)
        assert c.s == pytest.approx(x0 * y0 + float(x @ y), abs=1e-12)
        assert np.allclose(c.v, x0 * y - y0 * x, atol=1e-12)
        o = otimes(q0.conjugate(), q1)
        assert o.s == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(o.v, np.cross(x, y), atol=1e-12)


def test_grade_parts(rng):
    a = rand_quat(rng)
    g0, g1 = grade_parts(a, a)
    assert g0 == pytest.approx(a.norm2(), abs=1e-12)
    assert g1.max_abs() <= 1e-12
    b = Quaternion.from_vector(rng.uniform(-1, 1, size=3))
    g0, _ = grade_parts(Quaternion.one(), b)
    assert g0 == pytest.approx(0.0, abs=1e-15)
    for _ in range(200):
        a, b = rand_quat(rng), rand_quat(rng)
        g0, g1 = grade_parts(a, b)
        x0, x = a.s, np.array(a.v)
        y0, y = b.s, np.array(b.v)
        assert g0 == pytest.approx(x0 * y0 + float(x @ y), abs=1e-12)
        assert np.allclose(g1.v, x0 * y - y0 * x - np.cross(x, y), atol=1e-12)
        assert abs(g1.s) <= 1e-12
        reassembled = Quaternion.from_scalar(g0) + g1
        assert (reassembled - quat_mul(b, a.conjugate())).max_abs() <= 1e-12


# ------------------------------------------------------------------- carrier


def test_image_examples_and_ideal_closure(rng):
    for tag in TAGS:
        vp = idempotent_plus(tag)
        psi = QuatSpinor(Quaternion.one(), Quaternion.zero(), tag)
        assert allclose(image(psi), vp)
        for _ in range(300):
            psi = QuatSpinor(rand_quat(rng), rand_quat(rng), tag)
            m = image(psi)
            assert residual(m * vp, m) <= 1e-13


def test_image_matches_the_product_route(rng):
    # the cached frames against (q0 + q1 i) v+ and the quaternion embeddings
    # written out as products; each blade carries one coordinate, so exactly
    units = {AlgebraTag.SPACETIME13: Multivector.blade(SPACETIME13, 0b1111),  # g0123
             AlgebraTag.EUCLIDEAN4: Multivector.blade(EUCLIDEAN4, 0b1110)}  # e123
    for tag in TAGS:
        sig = tag.signature
        vp = (Multivector.scalar(sig, 1.0) + Multivector.basis(sig, 0)) * 0.5
        for _ in range(100):
            psi = QuatSpinor(rand_quat(rng, 10.0 ** rng.uniform(-100, 100)), rand_quat(rng), tag)
            q0m, q1m = psi.q0.to_multivector(), psi.q1.to_multivector()
            if tag is AlgebraTag.SPACETIME13:
                q0m, q1m = euclidean_to_spacetime(q0m), euclidean_to_spacetime(q1m)
                assert embed_spacetime(psi.q0) == q0m
            want = geometric_product(q0m + geometric_product(q1m, units[tag]), vp)
            assert image(psi) == want


def test_image_consistent_across_iso(rng):
    psi4 = QuatSpinor(rand_quat(rng), rand_quat(rng), AlgebraTag.EUCLIDEAN4)
    psi13 = QuatSpinor(psi4.q0, psi4.q1, AlgebraTag.SPACETIME13)
    assert residual(euclidean_to_spacetime(image(psi4)), image(psi13)) <= 1e-13


def test_from_image_roundtrip(rng):
    for tag in TAGS:
        for _ in range(200):
            psi = QuatSpinor(rand_quat(rng), rand_quat(rng), tag)
            back = from_image(image(psi), tag)
            assert (back.q0 - psi.q0).max_abs() <= 1e-12
            assert (back.q1 - psi.q1).max_abs() <= 1e-12
    with pytest.raises(NotInIdeal):
        from_image(Multivector.basis(SPACETIME13, 1), AlgebraTag.SPACETIME13)


# ------------------------------------------------------------ canonical form


def test_canonical_trivial():
    psi = QuatSpinor(Quaternion.one(), Quaternion.zero())
    can = canonical_q(psi)
    assert can.rho == pytest.approx(1.0)
    assert can.theta == 0.0
    assert allclose(can.M, Multivector.basis(SPACETIME13, 0))
    assert allclose(image(psi), idempotent_plus(AlgebraTag.SPACETIME13))


def test_canonical_boundary_rejected():
    psi = QuatSpinor(Quaternion.one(), Quaternion.from_vector((1, 0, 0)))
    with pytest.raises(NonTimelike):
        canonical_q(psi)
    with pytest.raises(ZeroQ0):
        canonical_q(QuatSpinor(Quaternion.zero(), Quaternion.one()))


def test_canonical_reconstruction(rng):
    for tag in TAGS:
        for _ in range(500):
            psi = rand_admissible(rng, tag)
            can = canonical_q(psi)
            assert residual(reconstruct(can, tag), image(psi)) <= 1e-12


def test_canonical_m_matches_the_product_route(rng):
    # M = g0 + (c i + w~ i g0) / |q0|^2 with w = q0* q1 and w~ its embedded
    # vector part, as products; the cached frame agrees exactly
    i13, g0 = Multivector.blade(SPACETIME13, 0b1111), Multivector.basis(SPACETIME13, 0)
    for _ in range(200):
        psi = rand_admissible(rng)
        n0 = psi.q0.norm2()
        w = quat_mul(psi.q0.conjugate(), psi.q1)
        bivec = euclidean_to_spacetime(Quaternion.from_vector(w.v).to_multivector())
        want = g0 + (w.s / n0) * i13 + (1.0 / n0) * geometric_product(
            geometric_product(bivec, i13), g0)
        assert canonical_q(psi).M == want


def test_m_squared_identity(rng):
    for _ in range(500):
        psi = rand_admissible(rng)
        can = canonical_q(psi)
        msq = geometric_product(can.M, can.M)
        want = 1.0 - psi.q1.norm2() / psi.q0.norm2()
        assert abs(msq.scalar_part - want) <= 1e-12
        rest = msq - Multivector.scalar(SPACETIME13, msq.scalar_part)
        assert rest.max_abs() <= 1e-12
        mhat_sq = geometric_product(can.M_hat, can.M_hat)
        assert abs(mhat_sq.scalar_part - 1.0) <= 1e-12


def test_m_display_agrees_with_canonical(rng):
    from gaspin.quatspinor import _spacetime_m

    for _ in range(500):
        psi = rand_admissible(rng)
        lhs = _spacetime_m(psi.q0, psi.q1)
        rhs = spacetime_m_display(psi.q0, psi.q1)
        assert residual(lhs, rhs) <= 1e-12


def test_m_display_iso_route(rng):
    # The Cl(4,0) canonical M maps onto the spacetime display through the
    # isomorphism: the two expressions of M agree across algebras.
    for _ in range(500):
        psi = rand_admissible(rng, AlgebraTag.EUCLIDEAN4)
        can = canonical_q(psi)
        mapped = euclidean_to_spacetime(can.M)
        assert residual(mapped, spacetime_m_display(psi.q0, psi.q1)) <= 1e-10


def test_m_display_literal_minus_sign_fails(rng):
    # Flipping the wedge term to -g123 (x ^ y) breaks the agreement
    # whenever x cross y != 0, pinning the sign choice.
    from gaspin.quatspinor import _spacetime_m

    q0 = Quaternion(1.0, (0.5, 0.0, 0.0))
    q1 = Quaternion(0.2, (0.0, 0.4, 0.0))
    lhs = _spacetime_m(q0, q1)
    xv = Multivector.vector(SPACETIME13, (0.0, *q0.v))
    yv = Multivector.vector(SPACETIME13, (0.0, *q1.v))
    wedge = grade_select(xv * yv, {2})
    g123 = Multivector.blade(SPACETIME13, 0b1110)
    flipped = spacetime_m_display(q0, q1) - 2.0 * (g123 * wedge) / q0.norm2()
    assert residual(lhs, flipped) > 1e-3


def test_phase_axis_convention():
    can = canonical_q(QuatSpinor(Quaternion.from_scalar(-2.0), Quaternion.zero()))
    assert can.theta == pytest.approx(math.pi)
    assert can.x_dir == (0.0, 0.0, 1.0)
    assert residual(
        reconstruct(can, AlgebraTag.SPACETIME13),
        image(QuatSpinor(Quaternion.from_scalar(-2.0), Quaternion.zero())),
    ) <= 1e-12


# ---------------------------------------------------------------- orthogonal


def test_orthogonal_example():
    psi = QuatSpinor(Quaternion.one(), Quaternion.from_vector((0.5, 0, 0)))
    assert is_orthogonal(psi)
    can, xm = canonical_orthogonal(psi)
    assert np.allclose(xm, (-0.5, 0.0, 0.0), atol=1e-15)
    want = Multivector.vector(SPACETIME13, (1.0, -0.5, 0.0, 0.0))
    assert residual(can.M, want) <= 1e-12
    msq = geometric_product(can.M, can.M).scalar_part
    assert math.sqrt(msq) == pytest.approx(
        math.sqrt(1.0 - psi.q1.norm2() / psi.q0.norm2()), abs=1e-12
    )
    assert residual(reconstruct(can, psi.tag), image(psi)) <= 1e-12


def test_orthogonal_trivial_and_rejection():
    psi = QuatSpinor(Quaternion.one(), Quaternion.zero())
    assert is_orthogonal(psi)
    _, xm = canonical_orthogonal(psi)
    assert xm == (0.0, 0.0, 0.0)
    with pytest.raises(NotOrthogonal):
        canonical_orthogonal(QuatSpinor(Quaternion.one(), Quaternion.from_scalar(0.5)))


def test_orthogonal_random_reconstruction(rng):
    for tag in TAGS:
        for _ in range(200):
            psi = rand_orthogonal(rng, tag)
            can, xm = canonical_orthogonal(psi)
            assert residual(reconstruct(can, tag), image(psi)) <= 1e-11
            # |M| = sqrt(1 - x_m^2) = sqrt(1 - |q1|^2/|q0|^2)
            r2 = sum(c * c for c in xm)
            assert math.sqrt(1.0 - r2) == pytest.approx(
                math.sqrt(1.0 - psi.q1.norm2() / psi.q0.norm2()), abs=1e-10
            )


def test_bloch_point_roundtrip(rng):
    for _ in range(100):
        x = rng.uniform(-0.5, 0.5, size=3)
        psi = QuatSpinor.from_bloch_point(tuple(x))
        assert is_orthogonal(psi)
        assert np.allclose(bloch_point(psi), x, atol=1e-14)


# ------------------------------------------------------- brakets, projectors


def test_projector_trivial():
    psi = QuatSpinor(Quaternion.one(), Quaternion.zero())
    got = projector(psi)
    want = Multivector.scalar(SPACETIME13, 1.0) + Multivector.basis(SPACETIME13, 0)
    assert allclose(got, want)  # 1 + g0 = 2 v+


def test_projector_closed_form_orthogonal(rng):
    for tag in TAGS:
        for _ in range(300):
            psi = rand_orthogonal(rng, tag)
            assert residual(projector(psi), projector_closed_orthogonal(psi)) <= 1e-12


def test_bra_ket_contraction_norm(rng):
    # <a| |a> = 2 rho^2 v+ for all admissible spinors.
    for tag in TAGS:
        vp = idempotent_plus(tag)
        for _ in range(300):
            psi = rand_admissible(rng, tag)
            ket, bra = braket_q(psi)
            got = bra * ket
            assert residual(got, 2.0 * norm2_q(psi) * vp) <= 1e-12


def test_native_g4_reverse_would_break_norm(rng):
    # The Cl(4,0) native reverse fixes e1 and flips e123, producing
    # |q0|^2 + |q1|^2 instead of the Minkowski norm; the transported
    # involution is the right one.  Documented by construction here.
    psi = QuatSpinor(Quaternion.one(), Quaternion.from_vector((0.5, 0, 0)), AlgebraTag.EUCLIDEAN4)
    m = image(psi)
    wrong = 2.0 * reverse(m) * m
    right = 2.0 * spinor_reverse(m, psi.tag) * m
    vp = idempotent_plus(psi.tag)
    assert residual(right, 2.0 * norm2_q(psi) * vp) <= 1e-12
    assert residual(wrong, 2.0 * norm2_q(psi) * vp) > 0.1


def test_phase_invariance_of_rho_and_projector(rng):
    for _ in range(200):
        psi = rand_admissible(rng)
        theta = rng.uniform(0, 2 * math.pi)
        axis = rng.uniform(-1, 1, size=3)
        axis /= np.linalg.norm(axis)
        u = Quaternion(math.cos(theta), tuple(math.sin(theta) * axis))
        shifted = QuatSpinor(quat_mul(u, psi.q0), quat_mul(u, psi.q1), psi.tag)
        assert norm2_q(shifted) == pytest.approx(norm2_q(psi), abs=1e-12)
        p0 = projector(psi).coefficient(0b0001)
        p1 = projector(shifted).coefficient(0b0001)
        assert p0 == pytest.approx(p1, abs=1e-12)


# ------------------------------------------------------------------ fidelity


def test_fidelity_self_and_phase(rng):
    for _ in range(100):
        psi = rand_admissible(rng)
        assert fidelity_q(psi, psi) == pytest.approx(1.0, abs=1e-11)
    # pure phases with q1 = 0 always have fidelity 1
    for _ in range(50):
        a = rand_quat(rng)
        b = rand_quat(rng)
        if a.norm2() < 0.1 or b.norm2() < 0.1:
            continue
        psi = QuatSpinor(a, Quaternion.zero())
        chi = QuatSpinor(b, Quaternion.zero())
        assert fidelity_q(psi, chi) == pytest.approx(1.0, abs=1e-11)


def test_fidelity_matches_hyperbolic_example():
    psi = QuatSpinor.from_bloch_point((0.0, 0.0, 0.0))
    chi = QuatSpinor.from_bloch_point((0.5, 0.0, 0.0))
    assert fidelity_q(psi, chi) == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_fidelity_errors():
    psi = QuatSpinor(Quaternion.one(), Quaternion.zero())
    with pytest.raises(TagMismatch):
        fidelity_q(psi, QuatSpinor(Quaternion.one(), Quaternion.zero(), AlgebraTag.EUCLIDEAN4))
    with pytest.raises(NonTimelike):
        fidelity_q(psi, QuatSpinor(Quaternion.one(), Quaternion.from_vector((1, 0, 0))))
    with pytest.raises(ZeroQ0):
        fidelity_q(psi, QuatSpinor(Quaternion.zero(), Quaternion.one()))


def test_fidelity_chain_must_reduce_to_a_scalar(monkeypatch):
    # (1 + g1)^2 = 2 g1 is not a scalar
    one_plus_g1 = Multivector.scalar(SPACETIME13, 1.0) + Multivector.basis(SPACETIME13, 1)
    monkeypatch.setattr(quatspinor, "_chain_inner", lambda am, bm: one_plus_g1)
    psi = QuatSpinor(Quaternion.one(), Quaternion.zero())
    with pytest.raises(VerificationFailure):
        fidelity_q(psi, psi)


# ------------------------------------------------------------- G1,2 reduction


def test_restricted_reduction_fidelities_agree(rng):
    for _ in range(300):
        def restricted():
            while True:
                q0 = Quaternion(rng.uniform(-1, 1), (0.0, 0.0, rng.uniform(-1, 1)))
                q1 = Quaternion(rng.uniform(-0.5, 0.5), (0.0, 0.0, rng.uniform(-0.5, 0.5)))
                psi = QuatSpinor(q0, q1)
                if q0.norm2() > 0.2 and norm2_q(psi) > 0.05:
                    return psi

        psi, chi = restricted(), restricted()
        f_quat = fidelity_q(psi, chi)
        f_ideal = ideal_fidelity(reduce_restricted(psi), reduce_restricted(chi))
        assert abs(f_quat - f_ideal) <= 1e-10 * max(1.0, abs(f_quat))
    with pytest.raises(ValueError):
        reduce_restricted(QuatSpinor(Quaternion.from_vector((1, 0, 0)), Quaternion.zero()))
    # restricted pairs of sizes 1e-5..1e5 agree to rounding
    def scaled_restricted():
        lam = 10.0 ** rng.uniform(-5, 5)
        while True:
            q0 = Quaternion(rng.uniform(-1, 1), (0.0, 0.0, rng.uniform(-1, 1)))
            q1 = Quaternion(rng.uniform(-1, 1), (0.0, 0.0, rng.uniform(-1, 1)))
            if norm2_q(QuatSpinor(q0, q1)) > 0.05 * q0.norm2():
                return QuatSpinor(q0.scale(lam), q1.scale(lam))

    for _ in range(200):
        psi, chi = scaled_restricted(), scaled_restricted()
        f_quat = fidelity_q(psi, chi)
        f_ideal = ideal_fidelity(reduce_restricted(psi), reduce_restricted(chi))
        assert abs(f_quat - f_ideal) <= 1e-14 * abs(f_quat)
    # a typed error, also a ValueError, for quaternions off span{1, i e3}
    assert issubclass(NotInSubalgebra, GAError) and issubclass(NotInSubalgebra, ValueError)
    for lam in (1e-9, 1.0, 1e9):
        off_line = Quaternion(lam, (1e-9 * lam, 0.0, 0.0))
        with pytest.raises(NotInSubalgebra):
            reduce_restricted(QuatSpinor(Quaternion.one(), off_line))
        with pytest.raises(NotInSubalgebra):
            reduce_restricted(QuatSpinor(off_line, Quaternion.zero()))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(-100, 100),
    st.tuples(*[st.floats(-0.55, 0.55)] * 3),
    st.tuples(*[st.floats(-0.55, 0.55)] * 3),
)
def test_fidelity_q_is_scale_invariant(k, xa, xb):
    # scaling one state by 10^k changes neither route of the fidelity
    psi = QuatSpinor.from_bloch_point(xa)
    chi = QuatSpinor.from_bloch_point(xb)
    lam = 10.0 ** k
    scaled = QuatSpinor(psi.q0.scale(lam), psi.q1.scale(lam))
    for route in (fidelity_q, quatspinor.fidelity_q_circ_route):
        f = route(psi, chi)
        assert abs(route(scaled, chi) - f) <= 1e-12 * f
        assert abs(route(chi, scaled) - f) <= 1e-12 * f


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-10.0, -1.0),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda d: sum(c * c for c in d) > 1e-2),
    st.tuples(*[st.floats(-0.55, 0.55)] * 3),
    st.sampled_from(TAGS),
)
def test_canonical_q_and_fidelity_up_to_the_light_cone(log_gap, direction, xb, tag):
    # Bloch points with 1 - |x| from 1e-1 down to 1e-10 (rho^2 -> 0+): rho and
    # Mhat share the rounding of M^2, so the reconstruction keeps full
    # accuracy; the two fidelity routes agree to the conditioning
    # eps / (1 - x^2) of 1 - x^2, by which both are off the exact value.
    d = np.array(direction)
    x = d / np.linalg.norm(d) * (1.0 - 10.0 ** log_gap)
    psi = QuatSpinor.from_bloch_point(x, tag)
    carrier = image(psi)
    assert residual(reconstruct(canonical_q(psi), tag), carrier) <= 1e-12 * carrier.abs_sum()
    chi = QuatSpinor.from_bloch_point(xb, tag)
    f1, f2 = fidelity_q(psi, chi), quatspinor.fidelity_q_circ_route(psi, chi)
    assert abs(f1 - f2) <= 8 * np.finfo(float).eps / (1.0 - x @ x) * abs(f1)
