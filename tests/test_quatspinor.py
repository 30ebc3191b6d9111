import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaspin.core import (
    EUCLIDEAN4,
    SPACETIME13,
    Multivector,
    bilinear,
    close,
    geometric_product,
    grade_select,
    idempotent,
    product_part,
    pseudoscalar,
    require,
    residual,
    reverse,
    scalar_product,
)
from gaspin import quatspinor
from gaspin.cli import _accepted as accepted
from gaspin.cli import _admissible_rows as admissible_rows
from gaspin.cli import _orthogonal_rows as orthogonal_rows
from gaspin.cli import _rand_admissible_q as rand_admissible
from gaspin.errors import (
    NonFiniteValue,
    NonTimelike,
    NotInSubalgebra,
    NotOrthogonal,
    TagMismatch,
    VerificationFailure,
    ZeroQ0,
)
from gaspin.isomap import AlgebraTag, euclidean_to_spacetime, spacetime_to_euclidean
from gaspin.quatrep import Quaternion, quat_mul
from gaspin.quatspinor import (
    QuatSpinor,
    bloch_point,
    canonical_q,
    carrier_coords,
    embed_spacetime,
    fidelity_q,
    from_carrier_coords,
    image,
    is_orthogonal,
    projector,
    projector_closed_orthogonal,
    reconstruct,
)
from gaspin.spinors import CenterScalar, IdealSpinor
from gaspin.spinors import fidelity as ideal_fidelity

from conftest import allclose, frame_coords

TAGS = (AlgebraTag.SPACETIME13, AlgebraTag.EUCLIDEAN4)


def per_tag(rows):
    """Spinors of TAGS[k] from the k-th equal share of ``rows``: split from one
    draw of both tags' rows, the rows a loop over TAGS drawing one spinor at
    a time would take."""
    return zip(TAGS, (from_carrier_coords(r, tag) for r, tag in zip(np.split(rows, len(TAGS)), TAGS)))


def cases(psi):
    """The single spinors of a batch, in order."""
    return [QuatSpinor(Quaternion(q0), Quaternion(q1), psi.tag)
            for q0, q1 in zip(psi.q0.coeffs, psi.q1.coeffs)]


def circ_route_u_sandwich(psi, chi):
    """The circle route with M' = u Mhat u~ formed, u = q0/|q0| embedded: two
    products where the library reads M' off q1 q0*, the oracle of that identity."""
    g0 = Multivector.basis(SPACETIME13, 0)

    def a_primed(s):
        m13 = quatspinor._spacetime_m(s.q0.norm2(), quat_mul(s.q0.conjugate(), s.q1))
        mhat = m13 / np.sqrt(scalar_product(m13, m13))
        u = embed_spacetime(s.q0.scale(1.0 / s.q0.norm()))
        m_primed = u * mhat * reverse(u)
        return m_primed * g0 * m_primed

    return 0.5 * (1.0 + scalar_product(a_primed(psi), a_primed(chi)))


def norm2_q(psi):
    """rho^2 = |q0|^2 - |q1|^2."""
    return psi.q0.norm2() - psi.q1.norm2()


def cone_gap(psi):
    """1 - x^2 of a state: rho^2 / |q0|^2, the conditioning of its fidelity."""
    return norm2_q(psi) / psi.q0.norm2()


def exact_fidelity(xa, xb):
    """F of the Bloch points xa, xb, (1 - 2 a.b + a^2 b^2) / ((1 - a^2)(1 - b^2)),
    in exact rationals and rounded once."""
    a, b = ([Fraction(float(c)) for c in x] for x in (xa, xb))
    aa, bb, ab = (sum(u * v for u, v in zip(p, q)) for p, q in ((a, a), (b, b), (a, b)))
    return float((1 - 2 * ab + aa * bb) / ((1 - aa) * (1 - bb)))


def spacetime_m_display(q0, q1):
    """M written out over spacetime components: an independent route.

    With q0 = x0 + i x and q1 = y0 + i y (x, y the spacelike vectors),

        M = g0 + (y0 x - x0 y + g123 (x wedge y)) / (x0^2 - x^2)
               + g0123 (x0 y0 - x . y) / (x0^2 - x^2).

    The sign on the g123 term is fixed by requiring agreement with the
    canonical construction (reconstruction holds for +, not -).
    """
    den = q0.norm2()  # x0^2 - x^2 with the spacetime square
    xv = Multivector.vector(SPACETIME13, (0.0, *q0.v.T))
    yv = Multivector.vector(SPACETIME13, (0.0, *q1.v.T))
    wedge = grade_select(xv * yv, {2})
    xdoty = 0.5 * (xv * yv + yv * xv).scalar_part
    g123 = Multivector.blade(SPACETIME13, 0b1110)
    g0 = Multivector.basis(SPACETIME13, 0)
    i13 = pseudoscalar(SPACETIME13)
    vec_term = q1.s * xv - q0.s * yv + g123 * wedge
    return g0 + vec_term / den + ((q0.s * q1.s - xdoty) / den) * i13


def reduce_restricted(psi):
    """Collapse a spinor whose quaternions lie in span{1, i e3} to G1,2.

    Such quaternions form a commutative complex line, and the Minkowski
    norm and inner products match the G1,2 spinor formulas term for term,
    so fidelities agree across the two modules.
    """
    for q in (psi.q0, psi.q1):
        require(close(np.hypot(q.v[..., 0], q.v[..., 1]), q.norm()), NotInSubalgebra,
                "restricted form requires vector parts along e3")
    return IdealSpinor(
        AlgebraTag.MINKOWSKI12,
        CenterScalar(psi.q0.s, psi.q0.v[..., 2]),
        CenterScalar(psi.q1.s, psi.q1.v[..., 2]),
    )


def rand_quat(rng, scale=1.0, integer=False):
    if integer:
        vals = rng.integers(-4, 5, size=4).astype(float)
    else:
        vals = rng.uniform(-scale, scale, size=4)
    return Quaternion(vals)


# ------------------------------------------------------------------- carrier


def test_image_examples_and_ideal_closure(rng):
    for tag in TAGS:
        vp = idempotent(tag.signature, 0b0001)
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
    # a Cl(4,0)-tagged result is the isomorphic image of the Cl(1,3) one, to
    # the bit; the products formed in Cl(4,0) agree to rounding
    coords = accepted(rng, 200, 8, orthogonal_rows)
    psi13, psi4 = (from_carrier_coords(coords, tag) for tag in TAGS)
    can13, can4 = canonical_q(psi13), canonical_q(psi4)
    pairs = [(image(psi4), image(psi13)), (can4.M, can13.M), (can4.M_hat, can13.M_hat),
             (projector_closed_orthogonal(psi4), projector_closed_orthogonal(psi13))]
    for m4, m13 in pairs:
        assert np.array_equal(euclidean_to_spacetime(m4).coeffs, m13.coeffs)
    assert np.array_equal(can4.rho, can13.rho) and np.array_equal(can4.theta, can13.theta)
    for m4, m13 in [(reconstruct(can4, psi4.tag), reconstruct(can13, psi13.tag)),
                    (projector(psi4), projector(psi13))]:
        assert np.all(residual(euclidean_to_spacetime(m4), m13) <= 1e-13)


def test_carrier_frame_is_orthogonal_with_squared_norm_one_half():
    # the condition under which the frame's transpose extracts coordinates
    frame = quatspinor.carrier_frame()
    assert np.array_equal(frame.T @ frame, 0.5 * np.eye(8))


def test_from_image_roundtrip(rng):
    # 200 spinors per tag as one batch, the draws of 200 rand_quat pairs; the
    # coordinates come back over the carriers of the eight unit coordinates
    for tag in TAGS:
        coords = rng.uniform(-1, 1, size=(200, 8))
        units = [image(from_carrier_coords(row, tag)) for row in np.eye(8)]
        back = frame_coords(image(from_carrier_coords(coords, tag)), units)
        assert np.all(np.abs(back - coords) <= 1e-12)


# ------------------------------------------------------------ canonical form


def test_canonical_trivial():
    psi = QuatSpinor(Quaternion.one(), Quaternion.zero())
    can = canonical_q(psi)
    assert can.rho == pytest.approx(1.0)
    assert can.theta == 0.0
    assert allclose(can.M, Multivector.basis(SPACETIME13, 0))
    assert allclose(image(psi), idempotent(SPACETIME13, 0b0001))


def test_canonical_boundary_rejected():
    psi = QuatSpinor(Quaternion.one(), Quaternion([0, 1, 0, 0]))
    with pytest.raises(NonTimelike):
        canonical_q(psi)
    with pytest.raises(ZeroQ0):
        canonical_q(QuatSpinor(Quaternion.zero(), Quaternion.one()))


def test_canonical_reconstruction(rng):
    for tag, psi in per_tag(accepted(rng, 500 * len(TAGS), 8, admissible_rows)):
        can = canonical_q(psi)
        assert np.all(residual(reconstruct(can, tag), image(psi)) <= 1e-12)


def test_canonical_m_matches_the_product_route(rng):
    # M = g0 + (c i + w~ i g0) / |q0|^2 with w = q0* q1 and w~ its embedded
    # vector part, as products; the cached frame agrees exactly
    i13, g0 = Multivector.blade(SPACETIME13, 0b1111), Multivector.basis(SPACETIME13, 0)
    for psi in cases(rand_admissible(rng, 200)):
        n0 = psi.q0.norm2()
        w = quat_mul(psi.q0.conjugate(), psi.q1)
        bivec = euclidean_to_spacetime(Quaternion([0.0, *w.v]).to_multivector())
        want = g0 + (w.s / n0) * i13 + geometric_product(geometric_product(bivec, i13), g0) / n0
        assert canonical_q(psi).M == want


def test_m_squared_identity(rng):
    psi = rand_admissible(rng, 500)
    can = canonical_q(psi)
    msq = geometric_product(can.M, can.M)
    want = 1.0 - psi.q1.norm2() / psi.q0.norm2()
    assert np.all(np.abs(msq.scalar_part - want) <= 1e-12)
    rest = msq - Multivector.scalar(SPACETIME13, msq.scalar_part)
    assert np.all(rest.max_abs() <= 1e-12)
    mhat_sq = geometric_product(can.M_hat, can.M_hat)
    assert np.all(np.abs(mhat_sq.scalar_part - 1.0) <= 1e-12)


def test_m_display_agrees_with_canonical(rng):
    from gaspin.quatspinor import _spacetime_m

    psi = rand_admissible(rng, 500)
    lhs = _spacetime_m(psi.q0.norm2(), quat_mul(psi.q0.conjugate(), psi.q1))
    rhs = spacetime_m_display(psi.q0, psi.q1)
    assert np.all(residual(lhs, rhs) <= 1e-12)


def test_m_display_iso_route(rng):
    # The Cl(4,0) canonical M maps onto the spacetime display through the
    # isomorphism: the two expressions of M agree across algebras.
    psi = rand_admissible(rng, 500, AlgebraTag.EUCLIDEAN4)
    mapped = euclidean_to_spacetime(canonical_q(psi).M)
    assert np.all(residual(mapped, spacetime_m_display(psi.q0, psi.q1)) <= 1e-10)


def test_m_display_literal_minus_sign_fails(rng):
    # Flipping the wedge term to -g123 (x ^ y) breaks the agreement
    # whenever x cross y != 0, pinning the sign choice.
    from gaspin.quatspinor import _spacetime_m

    q0 = Quaternion([1.0, 0.5, 0.0, 0.0])
    q1 = Quaternion([0.2, 0.0, 0.4, 0.0])
    lhs = _spacetime_m(q0.norm2(), quat_mul(q0.conjugate(), q1))
    xv = Multivector.vector(SPACETIME13, (0.0, *q0.v))
    yv = Multivector.vector(SPACETIME13, (0.0, *q1.v))
    wedge = grade_select(xv * yv, {2})
    g123 = Multivector.blade(SPACETIME13, 0b1110)
    flipped = spacetime_m_display(q0, q1) - 2.0 * (g123 * wedge) / q0.norm2()
    assert residual(lhs, flipped) > 1e-3


def test_phase_axis_convention():
    can = canonical_q(QuatSpinor(Quaternion([-2.0, 0, 0, 0]), Quaternion.zero()))
    assert can.theta == pytest.approx(math.pi)
    assert np.array_equal(can.x_dir, (0.0, 0.0, 1.0))
    assert residual(
        reconstruct(can, AlgebraTag.SPACETIME13),
        image(QuatSpinor(Quaternion([-2.0, 0, 0, 0]), Quaternion.zero())),
    ) <= 1e-12


# ---------------------------------------------------------------- orthogonal


def test_orthogonal_example():
    psi = QuatSpinor(Quaternion.one(), Quaternion([0, 0.5, 0, 0]))
    assert is_orthogonal(psi)
    can, xm = canonical_q(psi), bloch_point(psi)
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
    assert np.all(bloch_point(psi) == 0.0)
    scalar_q1 = QuatSpinor(Quaternion.one(), Quaternion([0.5, 0, 0, 0]))
    assert not is_orthogonal(scalar_q1)
    with pytest.raises(NotOrthogonal):
        projector_closed_orthogonal(scalar_q1)


def test_orthogonal_random_reconstruction(rng):
    # 200 orthogonal spinors per tag as one batch, the rows of 200 single
    # rand_orthogonal draws: M is the plain vector g0 + x_m of the Bloch
    # point, and rho Mhat v+ rebuilds the carrier
    for tag, psi in per_tag(accepted(rng, 200 * len(TAGS), 8, orthogonal_rows)):
        can, xm = canonical_q(psi), bloch_point(psi)
        m = Multivector.vector(SPACETIME13, (1.0, *xm.T))
        if tag is AlgebraTag.EUCLIDEAN4:
            m = spacetime_to_euclidean(m)
        assert np.all(residual(m, can.M) <= 1e-10 * np.maximum(1.0, m.max_abs()))
        assert np.all(residual(reconstruct(can, tag), image(psi)) <= 1e-11)
        # |M| = sqrt(1 - x_m^2) = sqrt(1 - |q1|^2/|q0|^2)
        r2 = np.sum(xm * xm, axis=-1)
        want = np.sqrt(1.0 - psi.q1.norm2() / psi.q0.norm2())
        assert np.all(np.abs(np.sqrt(1.0 - r2) - want) <= 1e-10)


def test_bloch_point_roundtrip(rng):
    for _ in range(100):
        x = rng.uniform(-0.5, 0.5, size=3)
        psi = QuatSpinor.from_bloch_point(tuple(x))
        assert is_orthogonal(psi)
        assert np.allclose(bloch_point(psi), x, atol=1e-14)


def test_fidelity_sees_the_rotated_bloch_point_when_q0_is_not_real(rng):
    # psi = (q0, q0 v) is orthogonal for a pure v, and u psi for a unit u has
    # the same bloch_point; the fidelity sees w = -vec(q1 q0^-1) =
    # q0 bloch_point q0^-1 instead, which u rotates
    def inverse(q):
        return q.conjugate().scale(1.0 / q.norm2())

    def w(s):
        return -quat_mul(s.q1, inverse(s.q0)).v

    eps, off = np.finfo(float).eps, []
    for _ in range(50):
        q0, u = (Quaternion(rng.normal(size=4)) for _ in range(2))
        u = u.scale(1.0 / u.norm())
        psi = QuatSpinor(q0, quat_mul(q0, Quaternion([0.0, *rng.uniform(-0.5, 0.5, 3)])))
        chi = QuatSpinor(quat_mul(u, psi.q0), quat_mul(u, psi.q1))
        assert is_orthogonal(psi) and is_orthogonal(chi)
        assert np.allclose(bloch_point(chi), bloch_point(psi), rtol=0.0, atol=4 * eps)
        for s in (psi, chi):
            rotated = quat_mul(quat_mul(s.q0, Quaternion([0.0, *bloch_point(s)])), inverse(s.q0))
            assert np.allclose(rotated.v, w(s), rtol=0.0, atol=4 * eps)
        f = fidelity_q(psi, chi)
        assert abs(f - exact_fidelity(w(psi), w(chi))) <= 16 * eps * f
        off.append(abs(f - exact_fidelity(bloch_point(psi), bloch_point(chi))) / f)
    assert max(off) > 0.5  # the Bloch-point formula at bloch_point: F = 1 for equal points


# ------------------------------------------------------- brakets, projectors


def test_projector_trivial():
    psi = QuatSpinor(Quaternion.one(), Quaternion.zero())
    got = projector(psi)
    want = Multivector.scalar(SPACETIME13, 1.0) + Multivector.basis(SPACETIME13, 0)
    assert allclose(got, want)  # 1 + g0 = 2 v+


def test_projector_closed_form_orthogonal(rng):
    for _, psi in per_tag(accepted(rng, 300 * len(TAGS), 8, orthogonal_rows)):
        assert np.all(residual(projector(psi), projector_closed_orthogonal(psi)) <= 1e-12)


def test_bra_ket_contraction_norm(rng):
    # <a| |a> = 2 rho^2 v+ for all admissible spinors.
    for tag in TAGS:
        vp = idempotent(tag.signature, 0b0001)
        psi = rand_admissible(rng, 300, tag)
        # the bra is the ket reversed in Cl(1,3), then mapped like the ket
        ket = math.sqrt(2.0) * image(psi)
        if tag is AlgebraTag.SPACETIME13:
            bra = reverse(ket)
        else:
            bra = spacetime_to_euclidean(reverse(euclidean_to_spacetime(ket)))
        got = bra * ket
        assert np.all(residual(got, 2.0 * norm2_q(psi) * vp) <= 1e-12)


def test_native_g4_reverse_would_break_norm(rng):
    # The Cl(4,0) native reverse fixes e1 and flips e123, producing
    # |q0|^2 + |q1|^2 instead of the Minkowski norm; the transported
    # involution is the right one.  Documented by construction here.
    psi = QuatSpinor(Quaternion.one(), Quaternion([0, 0.5, 0, 0]), AlgebraTag.EUCLIDEAN4)
    m = image(psi)
    wrong = 2.0 * reverse(m) * m
    right = 2.0 * spacetime_to_euclidean(reverse(euclidean_to_spacetime(m))) * m
    vp = idempotent(psi.tag.signature, 0b0001)
    assert residual(right, 2.0 * norm2_q(psi) * vp) <= 1e-12
    assert residual(wrong, 2.0 * norm2_q(psi) * vp) > 0.1


def test_phase_invariance_of_rho_and_projector(rng):
    psi = rand_admissible(rng, 200)
    theta = rng.uniform(0, 2 * math.pi, size=(200, 1))
    axis = rng.uniform(-1, 1, size=(200, 3))
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
    u = Quaternion(np.concatenate([np.cos(theta), np.sin(theta) * axis], axis=-1))
    shifted = QuatSpinor(quat_mul(u, psi.q0), quat_mul(u, psi.q1), psi.tag)
    assert np.all(np.abs(norm2_q(shifted) - norm2_q(psi)) <= 1e-12)
    p0 = projector(psi).coefficient(0b0001)
    p1 = projector(shifted).coefficient(0b0001)
    assert np.all(np.abs(p0 - p1) <= 1e-12)


# ------------------------------------------------------------------ fidelity


def test_fidelity_self_and_phase(rng):
    psi = rand_admissible(rng, 100)
    assert np.all(np.abs(fidelity_q(psi, psi) - 1.0) <= 1e-11)
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
        fidelity_q(psi, QuatSpinor(Quaternion.one(), Quaternion([0, 1, 0, 0])))
    with pytest.raises(ZeroQ0):
        fidelity_q(psi, QuatSpinor(Quaternion.zero(), Quaternion.one()))


def test_fidelity_table_is_the_bra_ket_chain(rng):
    # the chain rev(z) z with z = 2 <rev(a) b>_{0+3}, formed as products: its
    # non-scalar part vanishes and its scalar is the table's sum of z_k^2
    masks = (0, 0b0111, 0b1011, 0b1101, 0b1110)

    def chain_inner(am, bm):
        out = np.zeros((*am.coeffs.shape[:-1], SPACETIME13.dim))
        out[..., masks] = 2.0 * product_part(reverse(am), bm, masks)
        return Multivector(SPACETIME13, out)

    psi, chi = rand_admissible(rng, 300), rand_admissible(rng, 300)
    am, bm = image(psi), image(chi)
    prod = chain_inner(bm, am) * chain_inner(am, bm)
    size = (psi.q0.norm2() + psi.q1.norm2()) * (chi.q0.norm2() + chi.q1.norm2())
    assert np.all(close((prod - prod.scalar_part).max_abs(), size))
    z = bilinear(carrier_coords(psi), quatspinor._tables()[1], carrier_coords(chi))
    assert np.all(close(np.abs(np.vecdot(z, z) - prod.scalar_part), size))


def test_fidelity_table_refuses_a_g123_part(monkeypatch):
    # a chain with a g123 part would not reduce to the sum of z_k^2
    real = quatspinor.bilinear_table
    monkeypatch.setattr(quatspinor, "bilinear_table", lambda a, b, masks: real(a, b, masks)
                        + (np.array(masks) == 0b1110)[:, None])
    quatspinor._tables.cache_clear()
    try:
        with pytest.raises(VerificationFailure):
            quatspinor._tables()
    finally:
        quatspinor._tables.cache_clear()


@pytest.mark.parametrize("k", (300, 500, -300, 520))
def test_fidelity_outside_the_float_range_is_nonfinite(k):
    # z^2 and rho^2 rho^2 overflow (or underflow to 0/0) together, and past
    # 2^511 |q0|^2 and |q1|^2 overflow in the admissibility check first: a
    # typed error, with no RuntimeWarning on the way
    psi = QuatSpinor.from_bloch_point((0.1, 0.2, 0.0))
    lam = 2.0 ** k
    scaled = QuatSpinor(psi.q0.scale(lam), psi.q1.scale(lam))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue):
            fidelity_q(scaled, scaled)
        with pytest.raises(NonFiniteValue):
            fidelity_q(scaled, QuatSpinor(scaled.q0, scaled.q1.scale(0.5)))


@pytest.mark.parametrize("k", (520, 600, 1000))
@pytest.mark.parametrize("route", (canonical_q, lambda s: quatspinor.fidelity_q_circ_route(s, s)))
def test_canonical_and_circ_route_outside_the_float_range_do_not_warn(k, route):
    # |q0|^2 overflows: NonFiniteValue as fidelity_q raises it, with no
    # RuntimeWarning on the way and no non-finite number returned
    psi = QuatSpinor.from_bloch_point((0.1, 0.2, 0.0))
    scaled = QuatSpinor(psi.q0.scale(2.0 ** k), psi.q1.scale(2.0 ** k))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue):
            route(scaled)


def test_embedded_unit_quaternions_commute_with_g0_and_i(rng):
    # the identity behind the circle route: u = q/|q| embedded is a spatial
    # rotor, so u g0 = g0 u and u i = i u hold exactly
    q = rng.normal(size=(200, 4))
    u = embed_spacetime(Quaternion(q / np.linalg.norm(q, axis=-1, keepdims=True)))
    for blade in (Multivector.basis(SPACETIME13, 0), pseudoscalar(SPACETIME13)):
        assert np.array_equal((u * blade).coeffs, (blade * u).coeffs)


def test_circ_route_agrees_with_the_u_sandwich(rng):
    # q0 != 1: M over q1 q0* is u M u~, to the circle route's conditioning
    # eps / ((1 - x^2)(1 - xb^2))
    psi, chi = rand_admissible(rng, 300), rand_admissible(rng, 300)
    assert not np.any(np.all(psi.q0.coeffs == (1.0, 0.0, 0.0, 0.0), axis=-1))
    got, want = quatspinor.fidelity_q_circ_route(psi, chi), circ_route_u_sandwich(psi, chi)
    tol = 8 * np.finfo(float).eps / (cone_gap(psi) * cone_gap(chi))
    assert np.all(np.abs(got - want) <= tol * np.abs(want))


def test_circ_route_at_unit_q0_has_the_bits_of_the_u_sandwich(rng):
    # q0 = 1 (from_bloch_point): u = 1, and the two routes round alike
    xa, xb = rng.uniform(-0.55, 0.55, (2, 100, 3))
    psi, chi = QuatSpinor.from_bloch_point(xa), QuatSpinor.from_bloch_point(xb)
    assert np.array_equal(quatspinor.fidelity_q_circ_route(psi, chi), circ_route_u_sandwich(psi, chi))
    one_a, one_b = QuatSpinor.from_bloch_point(xa[0]), QuatSpinor.from_bloch_point(xb[0])
    assert quatspinor.fidelity_q_circ_route(one_a, one_b) == circ_route_u_sandwich(one_a, one_b)


# ------------------------------------------------------------- G1,2 reduction


def test_restricted_reduction_fidelities_agree(rng):
    for _ in range(300):
        def restricted():
            while True:
                q0 = Quaternion([rng.uniform(-1, 1), 0.0, 0.0, rng.uniform(-1, 1)])
                q1 = Quaternion([rng.uniform(-0.5, 0.5), 0.0, 0.0, rng.uniform(-0.5, 0.5)])
                psi = QuatSpinor(q0, q1)
                if q0.norm2() > 0.2 and norm2_q(psi) > 0.05:
                    return psi

        psi, chi = restricted(), restricted()
        f_quat = fidelity_q(psi, chi)
        f_ideal = ideal_fidelity(reduce_restricted(psi), reduce_restricted(chi))
        assert abs(f_quat - f_ideal) <= 1e-10 * max(1.0, abs(f_quat))
    # restricted pairs of sizes 1e-5..1e5 agree to rounding
    def scaled_restricted():
        lam = 10.0 ** rng.uniform(-5, 5)
        while True:
            q0 = Quaternion([rng.uniform(-1, 1), 0.0, 0.0, rng.uniform(-1, 1)])
            q1 = Quaternion([rng.uniform(-1, 1), 0.0, 0.0, rng.uniform(-1, 1)])
            if norm2_q(QuatSpinor(q0, q1)) > 0.05 * q0.norm2():
                return QuatSpinor(q0.scale(lam), q1.scale(lam))

    for _ in range(200):
        psi, chi = scaled_restricted(), scaled_restricted()
        f_quat = fidelity_q(psi, chi)
        f_ideal = ideal_fidelity(reduce_restricted(psi), reduce_restricted(chi))
        assert abs(f_quat - f_ideal) <= 1e-14 * abs(f_quat)


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
@example(-1.0, (1.0, 1.0, 1.0), (0.5, 0.53125, 0.546875), AlgebraTag.SPACETIME13)
def test_canonical_q_and_fidelity_up_to_the_light_cone(log_gap, direction, xb, tag):
    # Bloch points with 1 - |x| from 1e-1 down to 1e-10 (rho^2 -> 0+): rho and
    # Mhat share the rounding of M^2, so the reconstruction keeps full
    # accuracy.  Against the exact F the bracket route is off by the
    # conditioning eps / (1 - x^2); the circle route's (1 + A' o B')/2 cancels
    # terms of size a0 b0, so it and its oracle are off by eps / ((1 - x^2)(1 - xb^2)).
    # At the example the two routes differ by 9.1 eps |F| / (1 - x^2): the
    # bracket is off by 0.19 eps / (1 - x^2), the circle by 8.9 eps / (1 - x^2),
    # which is 1.5 eps / ((1 - x^2)(1 - xb^2)).
    d = np.array(direction)
    x = d / np.linalg.norm(d) * (1.0 - 10.0 ** log_gap)
    psi = QuatSpinor.from_bloch_point(x, tag)
    carrier = image(psi)
    assert residual(reconstruct(canonical_q(psi), tag), carrier) <= 1e-12 * carrier.abs_sum()
    chi = QuatSpinor.from_bloch_point(xb, tag)
    f = exact_fidelity(x, xb)
    tol = 8 * np.finfo(float).eps / (1.0 - x @ x)
    assert abs(fidelity_q(psi, chi) - f) <= tol * f
    tol /= 1.0 - np.dot(xb, xb)
    assert abs(quatspinor.fidelity_q_circ_route(psi, chi) - f) <= tol * f
    # the circle route against its u-sandwich oracle: here q0 = 1, and with a
    # unit right phase p about x, (q0 p, q1 p), q0 = p
    p = Quaternion(np.array([0.6, *(0.8 * d / np.linalg.norm(d))]))
    psi_p = QuatSpinor(quat_mul(psi.q0, p), quat_mul(psi.q1, p), tag)
    for s in (psi, psi_p):
        f3, f4 = quatspinor.fidelity_q_circ_route(s, chi), circ_route_u_sandwich(s, chi)
        assert abs(f3 - f4) <= tol * abs(f4)
