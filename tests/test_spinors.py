import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaspin.core import (
    MINKOWSKI12,
    PAULI3,
    Multivector,
    dot,
    geometric_product,
    product_part,
    pseudoscalar,
    residual,
    reverse,
)
from gaspin.cli import _rand_chart as rand_chart
from gaspin.errors import DegenerateState, NonFiniteValue, NonTimelike, TagMismatch
from gaspin.isomap import AlgebraTag
from gaspin.spinors import (
    CenterScalar,
    IdealSpinor,
    antipodal_chart,
    canonical_form,
    chart_lift,
    fidelity,
    fidelity_bloch,
    fidelity_chart,
    idempotent,
    inner,
    m_vector,
    to_multivector,
)

import exact
from conftest import allclose, conj, frame_coords, ideal

TAGS = (AlgebraTag.PAULI3, AlgebraTag.MINKOWSKI12)


def norm2(psi):
    """|a0|^2 + eta |a1|^2, the state's Hermitian form h(psi, psi)."""
    return psi.a0.abs2() + exact.ETA[psi.tag] * psi.a1.abs2()


def rand_center(rng, scale=1.0):
    return CenterScalar(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def rand_spinor(rng, tag, admissible=True):
    """Random spinor; for Minkowski12, admissible means norm^2 > 0."""
    while True:
        a0 = rand_center(rng)
        a1 = rand_center(rng)
        psi = IdealSpinor(tag, a0, a1)
        if not admissible:
            return psi
        if a0.abs2() < 1e-4:
            continue
        if tag is AlgebraTag.MINKOWSKI12 and norm2(psi) < 1e-4:
            continue
        if tag is AlgebraTag.PAULI3 and norm2(psi) < 1e-4:
            continue
        return psi


# --------------------------------------------------------------- the center


def test_pseudoscalar_is_central_and_squares_to_minus_one(rng):
    for tag in TAGS:
        sig = tag.signature
        i = pseudoscalar(sig)
        assert geometric_product(i, i).scalar_part == -1.0
        for _ in range(50):
            g = Multivector(sig, rng.uniform(-1, 1, size=sig.dim))
            assert residual(i * g, g * i) <= 1e-14


def test_center_scalar_ring(rng):
    a, b = rand_center(rng), rand_center(rng)
    for tag in TAGS:
        lhs = (a * b).embed(tag)
        rhs = geometric_product(a.embed(tag), b.embed(tag))
        assert residual(lhs, rhs) <= 1e-14
        assert residual(conj(a).embed(tag), reverse(a.embed(tag))) == 0.0
    assert (a * conj(a)).s == pytest.approx(a.abs2(), abs=1e-15)


# -------------------------------------------------------------- ideal carrier


def test_to_multivector_examples():
    u = idempotent(AlgebraTag.PAULI3)
    psi = ideal(AlgebraTag.PAULI3, 1.0, 0.0)
    assert allclose(to_multivector(psi), u)
    e1 = Multivector.basis(PAULI3, 0)
    psi = ideal(AlgebraTag.PAULI3, 0.0, 1.0)
    assert allclose(to_multivector(psi), geometric_product(e1, u))
    v = idempotent(AlgebraTag.MINKOWSKI12)
    psi = ideal(AlgebraTag.MINKOWSKI12, 1.0, 0.0)
    assert allclose(to_multivector(psi), v)


def test_to_multivector_matches_the_product_route(rng):
    # the cached frame against (a0 + a1 carrier) u with a = s + p i, written
    # out as products; each blade carries one coordinate, so exactly
    roles = {AlgebraTag.PAULI3: (0, 2), AlgebraTag.MINKOWSKI12: (1, 0)}  # (carrier, pole)
    for tag in TAGS:
        sig = tag.signature
        carrier_index, pole_index = roles[tag]
        carrier = Multivector.basis(sig, carrier_index)
        u = (Multivector.scalar(sig, 1.0) + Multivector.basis(sig, pole_index)) * 0.5

        def embed(z):
            return Multivector.scalar(sig, z.s) + z.p * pseudoscalar(sig)

        for _ in range(100):
            psi = IdealSpinor(tag, rand_center(rng, 10.0 ** rng.uniform(-100, 100)),
                              rand_center(rng))
            assert psi.a0.embed(tag) == embed(psi.a0)
            head = embed(psi.a0) + geometric_product(embed(psi.a1), carrier)
            assert to_multivector(psi) == geometric_product(head, u)


def test_ideal_closure_and_roundtrip(rng):
    # 1000 spinors per algebra as one batch, the draws of 1000 rand_spinor
    # calls; coordinates come back over the frame (u, carrier u, i u,
    # i carrier u) written out as products
    for tag in TAGS:
        sig = tag.signature
        u = idempotent(tag)
        carrier = Multivector.basis(sig, 1 if tag is AlgebraTag.MINKOWSKI12 else 0)
        i = pseudoscalar(sig)
        draws = rng.uniform(-1, 1, size=(1000, 4))  # a0.s, a0.p, a1.s, a1.p per case
        psi = IdealSpinor(tag, CenterScalar(*draws[:, :2].T), CenterScalar(*draws[:, 2:].T))
        m = to_multivector(psi)
        assert np.all(residual(geometric_product(m, u), m) <= 1e-13)
        back = frame_coords(m, [u, carrier * u, i * u, i * carrier * u])
        assert np.all(np.abs(back - draws[:, [0, 2, 1, 3]]) <= 1e-12)


def test_matrix_sandwich_reconstruction(rng):
    # (1  carrier) u+ [[a0,0],[a1,0]] (1; +-carrier) reproduces the carrier
    # element, with the minus sign on the Minkowski column (g1^2 = -1).
    for tag in TAGS:
        sig = tag.signature
        carrier = Multivector.basis(sig, 1 if tag is AlgebraTag.MINKOWSKI12 else 0)
        u = idempotent(tag)
        col_sign = -1.0 if tag is AlgebraTag.MINKOWSKI12 else 1.0
        for _ in range(50):
            psi = rand_spinor(rng, tag, admissible=False)
            row = (Multivector.scalar(sig, 1.0), carrier)
            col = (Multivector.scalar(sig, 1.0), col_sign * carrier)
            mat = ((psi.a0.embed(tag), Multivector.zero(sig)),
                   (psi.a1.embed(tag), Multivector.zero(sig)))
            acc = Multivector.zero(sig)
            for j in range(2):
                for k in range(2):
                    acc = acc + row[j] * u * mat[j][k] * col[k]
            assert residual(acc, to_multivector(psi)) <= 1e-13


# ------------------------------------------------------------------- brakets


def test_ket_bra_is_twice_projector(rng):
    # |psi><psi| = 2 rho^2 a+ with a+ = m^ u+ m^, for unit-normalized psi.
    for tag in TAGS:
        for _ in range(200):
            psi = rand_spinor(rng, tag)
            can = canonical_form(psi)
            ket = math.sqrt(2.0) * to_multivector(psi)
            bra = reverse(ket)
            lhs = geometric_product(ket, bra)
            a_plus = geometric_product(
                geometric_product(can.m_hat, idempotent(tag)), can.m_hat
            )
            assert residual(lhs, 2.0 * can.rho**2 * a_plus) <= 1e-10


# ----------------------------------------------------------- canonical forms


def test_canonical_form_pauli_examples():
    can = canonical_form(ideal(AlgebraTag.PAULI3, 1.0, 0.0))
    assert can.rho == pytest.approx(1.0)
    assert can.theta == 0.0
    assert allclose(can.m_hat, Multivector.basis(PAULI3, 2))  # e3, the Pauli pole
    assert can.chart == (0.0, 0.0)

    can = canonical_form(ideal(AlgebraTag.PAULI3, 1.0, 1.0))
    assert can.rho == pytest.approx(math.sqrt(2.0))
    assert can.theta == 0.0
    assert can.chart == (1.0, 0.0)
    want = (Multivector.basis(PAULI3, 0) + Multivector.basis(PAULI3, 2)) / math.sqrt(2)
    assert residual(can.m_hat, want) <= 1e-15

    with pytest.raises(DegenerateState):
        canonical_form(ideal(AlgebraTag.PAULI3, 0.0, 1.0))


def test_canonical_form_minkowski_chart_sign():
    # The ratio i*g1*v+ = -g2*v+ fixes the chart map (a+bi -> a g1 - b g2);
    # determined numerically here rather than assumed.
    sig = MINKOWSKI12
    i = pseudoscalar(sig)
    g1 = Multivector.basis(sig, 1)
    g2 = Multivector.basis(sig, 2)
    v = idempotent(AlgebraTag.MINKOWSKI12)
    assert allclose(i * g1 * v, -1.0 * (g2 * v))
    psi = ideal(AlgebraTag.MINKOWSKI12, 1.0, 0.5j)  # a1 = 0.5 i
    can = canonical_form(psi)
    assert can.chart == (0.0, -0.5)


def test_canonical_reconstruction(rng):
    for tag in TAGS:
        for _ in range(500):
            psi = rand_spinor(rng, tag)
            can = canonical_form(psi)
            phase = CenterScalar(math.cos(can.theta), math.sin(can.theta)).embed(tag)
            recon = can.rho * phase * can.m_hat * idempotent(tag)
            assert residual(recon, to_multivector(psi)) <= 1e-12


def test_canonical_rejects_nontimelike():
    with pytest.raises(NonTimelike):
        canonical_form(ideal(AlgebraTag.MINKOWSKI12, 1.0, 2.0))


def test_canonical_form_of_tiny_states():
    # |a0| ~ 1e-160: |a0|^2 is subnormal, so the chart is a1 / a0 formed
    # directly and rho is |a0| sqrt(m^2)
    for tag in TAGS:
        psi = ideal(tag, 0.6 + 0.8j, 0.3 - 0.1j)
        lam = CenterScalar(1e-160, 0.0)
        tiny = IdealSpinor(tag, psi.a0 * lam, psi.a1 * lam)
        can, small = canonical_form(psi), canonical_form(tiny)
        assert small.chart == pytest.approx(can.chart, rel=1e-15)
        assert small.theta == pytest.approx(can.theta, rel=1e-15)
        assert small.rho == pytest.approx(1e-160 * can.rho, rel=1e-15)
        assert residual(small.m_hat, can.m_hat) <= 1e-15


def test_canonical_reconstruction_at_the_minkowski_edge():
    # rho and m_hat share the rounding of m^2 = 1 - |chart|^2, so their
    # product keeps full accuracy as |chart| -> 1
    tag = AlgebraTag.MINKOWSKI12
    z = CenterScalar(1.1 * math.cos(2.0), 1.1 * math.sin(2.0))
    for gap in (1e-4, 1e-6, 1e-8, 1e-10):
        base = IdealSpinor.from_chart(tag, (0.6 * (1 - gap), 0.8 * (1 - gap)))
        psi = IdealSpinor(tag, base.a0 * z, base.a1 * z)
        can = canonical_form(psi)
        phase = CenterScalar(math.cos(can.theta), math.sin(can.theta)).embed(tag)
        recon = can.rho * phase * can.m_hat * idempotent(tag)
        assert residual(recon, to_multivector(psi)) <= 1e-15


# -------------------------------------------------------------- inner product


def test_inner_examples():
    one = ideal(AlgebraTag.PAULI3, 1.0, 0.0)
    other = ideal(AlgebraTag.PAULI3, 0.0, 1.0)
    z = inner(one, one)
    assert (z.s, z.p) == (1.0, 0.0)
    z = inner(one, other)
    assert abs(z.s) <= 1e-15 and abs(z.p) <= 1e-15


def test_inner_componentwise_vs_algebra(rng):
    # 2<rev(a) b>_{0+3} must equal a0~ b0 + a1~ b1 (G3) or a0~ b0 - a1~ b1.
    for tag in TAGS:
        sign = 1.0 if tag is AlgebraTag.PAULI3 else -1.0
        for _ in range(300):
            psi = rand_spinor(rng, tag, admissible=False)
            chi = rand_spinor(rng, tag, admissible=False)
            z = inner(psi, chi)
            want = (conj(psi.a0) * chi.a0).z + (conj(psi.a1) * chi.a1 * CenterScalar(sign, 0.0)).z
            assert abs(z.s - want.real) <= 1e-13
            assert abs(z.p - want.imag) <= 1e-13


def test_inner_is_the_product_bracket(rng):
    # the table route against 2 <rev(a) b>_{0+3} formed as a product
    for tag in TAGS:
        sig = tag.signature
        u = rng.uniform(-1.0, 1.0, (2, 200, 4))
        psi, chi = (IdealSpinor(tag, CenterScalar(c[:, 0], c[:, 1]), CenterScalar(c[:, 2], c[:, 3]))
                    for c in u)
        want = 2.0 * product_part(reverse(to_multivector(psi)), to_multivector(chi),
                                  (0, sig.dim - 1))
        z = inner(psi, chi)
        assert np.all(np.abs(z.s - want[:, 0]) <= 1e-14)
        assert np.all(np.abs(z.p - want[:, 1]) <= 1e-14)


def test_inner_conjugate_symmetry_and_norm(rng):
    for tag in TAGS:
        psi = rand_spinor(rng, tag)
        chi = rand_spinor(rng, tag)
        z = inner(psi, chi)
        w = inner(chi, psi)
        assert abs(z.s - w.s) <= 1e-13 and abs(z.p + w.p) <= 1e-13
        n = inner(psi, psi)
        assert abs(n.p) <= 1e-13
        assert n.s == pytest.approx(norm2(psi), abs=1e-13)


def test_canonical_form_at_the_top_of_the_float_range_has_no_warning():
    # the complex division a1 / a0 overflows inside for a0 = 1e308 + 1e308 i,
    # although the ratio is 0 and rho = |a0| is finite
    psi = IdealSpinor(AlgebraTag.PAULI3, CenterScalar(1e308, 1e308), CenterScalar(0.0, 0.0))
    past = IdealSpinor(AlgebraTag.PAULI3, CenterScalar(1.5e308, 1.5e308), CenterScalar(0.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        can = canonical_form(psi)
        with pytest.raises(NonFiniteValue, match="rho"):  # |a0| = 2.1e308 is past the range
            canonical_form(past)
    assert can.rho == 1.4142135623730951e308 and can.chart == (0.0, 0.0)


def test_canonical_form_at_a_subnormal_a0_has_no_warning():
    # the complex division a1 / a0 overflows inside for a0 = 1e-320 unless both
    # are scaled by one power of two first; the chart (0, 0) and rho = |a0| exist
    psi = IdealSpinor(AlgebraTag.PAULI3, CenterScalar(1e-320, 0.0), CenterScalar(0.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        can = canonical_form(psi)
    assert can.chart == (0.0, 0.0) and can.rho == 1e-320 and can.theta == 0.0


def test_center_products_that_overflow_raise_nonfinitevalue():
    # finite parts whose products pass 1.8e308: the center scalar built from
    # them is refused (before center scalars checked finiteness, it held inf)
    big = IdealSpinor(AlgebraTag.PAULI3, CenterScalar(1e200, 1e200), CenterScalar(1e200, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warning comes first
        with pytest.raises(NonFiniteValue):
            inner(big, big)
        with pytest.raises(NonFiniteValue):
            big.a0 * big.a0


def test_inner_tag_mismatch():
    with pytest.raises(TagMismatch):
        inner(
            ideal(AlgebraTag.PAULI3, 1.0, 0.0),
            ideal(AlgebraTag.MINKOWSKI12, 1.0, 0.0),
        )


# ------------------------------------------------------------------ fidelity


def test_fidelity_self_is_one(rng):
    for tag in TAGS:
        for _ in range(50):
            psi = rand_spinor(rng, tag)
            assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_pauli_antipodes_zero():
    psi = IdealSpinor.from_chart(AlgebraTag.PAULI3, (1.0, 0.0))
    chi = IdealSpinor.from_chart(AlgebraTag.PAULI3, (-1.0, 0.0))
    assert fidelity(psi, chi) <= 1e-15
    # both closed forms agree on the same points
    assert fidelity_bloch(AlgebraTag.PAULI3, (1, 0), (-1, 0)) <= 1e-15
    assert fidelity_chart(AlgebraTag.PAULI3, (1, 0), (-1, 0)) <= 1e-15


def test_fidelity_hyperbolic_example():
    psi = IdealSpinor.from_chart(AlgebraTag.MINKOWSKI12, (0.0, 0.0))
    chi = IdealSpinor.from_chart(AlgebraTag.MINKOWSKI12, (0.5, 0.0))
    got = fidelity(psi, chi)
    assert got == pytest.approx(4.0 / 3.0, abs=1e-12)
    # 1/2 (1 + cosh phi) with cosh phi = 5/3
    a = chart_lift(AlgebraTag.MINKOWSKI12, (0.0, 0.0))
    b = chart_lift(AlgebraTag.MINKOWSKI12, (0.5, 0.0))
    adotb = dot(a, b)
    assert adotb == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert got == pytest.approx(0.5 * (1.0 + adotb), abs=1e-12)


def test_fidelity_triple_equality(rng):
    # braket chain = (1 + a^.b^)/2 = 1 - (m_a-m_b)^2/(m_a^2 m_b^2), with
    # random phases and scales on the spinor route; 500 cases per algebra,
    # drawn as batches, each case held to the bounds.
    n = 500
    for tag in TAGS:
        ca, cb = rand_chart(rng, tag, n), rand_chart(rng, tag, n)
        phase = rng.uniform(0, 2 * math.pi, size=(2, n))
        scale = rng.uniform(0.2, 2.0, size=(2, n))
        # decorate with random phases and scales; fidelity normalizes
        za, zb = (CenterScalar(s * np.cos(p), s * np.sin(p)) for s, p in zip(scale, phase))
        psi = IdealSpinor.from_chart(tag, ca)
        chi = IdealSpinor.from_chart(tag, cb)
        psi = IdealSpinor(tag, psi.a0 * za, psi.a1 * za)
        chi = IdealSpinor(tag, chi.a0 * zb, chi.a1 * zb)
        f1 = fidelity(psi, chi)
        f2 = fidelity_bloch(tag, ca, cb)
        f3 = fidelity_chart(tag, ca, cb)
        assert f1.shape == (n,)
        assert np.all(np.abs(f1 - f2) <= 1e-10 * np.maximum(1.0, np.abs(f1)))
        assert np.all(np.abs(f2 - f3) <= 1e-10 * np.maximum(1.0, np.abs(f2)))
        if tag is AlgebraTag.PAULI3:
            assert np.all((-1e-12 <= f1) & (f1 <= 1.0 + 1e-12))
        else:
            assert np.all(f1 >= 1.0 - 1e-12)


# Bounds in units of eps, twice the measured worst case or more.  Over these
# draws and six other seeds of 400 pairs, single and batched: G3 is off by at
# most 2.0 eps absolute (the bracket; the sandwich 1.5, the closed form 1.5);
# G1,2 by at most 1.65 eps |F| / (gap_a gap_b) (the sandwich; the bracket
# 0.61, the closed form 0.39).
_EXACT_BOUND = {AlgebraTag.PAULI3: 4.0, AlgebraTag.MINKOWSKI12: 4.0}


@pytest.mark.parametrize("tag", TAGS)
def test_fidelity_triple_against_the_exact_hermitian_form(tag):
    # Each route against F = |h(psi, chi)|^2 / (h(psi, psi) h(chi, chi)) of
    # tests/exact.py, rounded once, on 400 seeded pairs as one batch and one
    # pair at a time.  G3 fills [-2.5, 2.5]^2 and is held to an absolute
    # bound, since 1 - ... cancels near F = 0 (relative errors reach 297 eps
    # there on this draw).  G1,2 takes cone gaps 1 - |x|^2 from 1e-8 to 1,
    # where F grows as 1 / (gap_a gap_b) and so does its rounding.
    rng = np.random.default_rng(12)
    n = 400
    if tag is AlgebraTag.PAULI3:
        xa, xb = rng.uniform(-2.5, 2.5, (2, n, 2))
    else:
        r = np.sqrt(1.0 - 10.0 ** rng.uniform(-8, 0, (2, n)))
        angle = rng.uniform(0, 2 * np.pi, (2, n))
        xa, xb = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=-1)
    want = np.array([exact.fidelity(tag, a, b) for a, b in zip(xa, xb)])
    unit = np.full(n, np.finfo(float).eps * _EXACT_BOUND[tag])
    if tag is AlgebraTag.MINKOWSKI12:
        unit *= np.abs(want) / np.array([float(exact.cone_gap(a) * exact.cone_gap(b))
                                         for a, b in zip(xa, xb)])

    def routes(ca, cb):
        psi, chi = IdealSpinor.from_chart(tag, ca), IdealSpinor.from_chart(tag, cb)
        return fidelity(psi, chi), fidelity_bloch(tag, ca, cb), fidelity_chart(tag, ca, cb)

    batch = routes(tuple(xa.T), tuple(xb.T))
    single = np.array([routes(tuple(a.tolist()), tuple(b.tolist())) for a, b in zip(xa, xb)]).T
    for kind, results in (("batch", batch), ("single", single)):
        for name, got in zip(("bracket", "sandwich", "closed form"), results):
            worst = np.argmax(np.abs(got - want) / unit)
            assert abs(got[worst] - want[worst]) <= unit[worst], (kind, name, xa[worst], xb[worst])


@pytest.mark.parametrize("cb", [(0.0, 0.0), (-1e-8, 0.0)])
@pytest.mark.parametrize("ca", [(1e8, 0.0), (1e154, 0.0)])
def test_closed_form_keeps_a_small_fidelity(ca, cb):
    # F far below 1: the closed form has the bracket's value, within 4 eps of
    # the exact F, where 1 - |x_a - x_b|^2 / (m_a^2 m_b^2) read 0 or -2.2e-16;
    # 1 + a p rounds by eps |a p| at most, which m_a^2 m_b^2 divides squared
    tag = AlgebraTag.PAULI3
    got = fidelity_chart(tag, ca, cb)
    assert got == fidelity(IdealSpinor.from_chart(tag, ca), IdealSpinor.from_chart(tag, cb))
    eps, ap = np.finfo(float).eps, abs(ca[0] * cb[0])
    floor = (eps * ap) ** 2 / ((1.0 + ca[0] ** 2) * (1.0 + cb[0] ** 2))
    assert 0.0 <= got and abs(got - exact.fidelity(tag, ca, cb)) <= 4 * eps * got + floor


@pytest.mark.parametrize("ca, cb", [((1.0, 0.0), (0.0, 0.0)), ((1.5, 0.0), (0.1, 0.0))])
def test_every_fidelity_route_refuses_a_chart_point_off_the_hyperboloid(ca, cb):
    # the closed form once divided by m^2 = 0 at |x| = 1 and gave -0.58 at 1.5
    tag = AlgebraTag.MINKOWSKI12
    for a, b in ((ca, cb), (cb, ca)):
        psi, chi = IdealSpinor.from_chart(tag, a), IdealSpinor.from_chart(tag, b)
        for route in (lambda: fidelity(psi, chi), lambda: fidelity_bloch(tag, a, b),
                      lambda: fidelity_chart(tag, a, b)):
            with pytest.raises(NonTimelike):
                route()
    # in a batch the message names the bad case
    rows = (np.array([0.1, 0.2, -0.3, ca[0], 0.4]), np.array([0.0, 0.1, 0.2, ca[1], -0.5]))
    with pytest.raises(NonTimelike, match=r"\(case 3\)$"):
        fidelity_chart(tag, rows, cb)
    with pytest.raises(NonTimelike, match=r"\(case 3\)$"):
        fidelity_chart(tag, cb, rows)


def test_fidelity_errors():
    with pytest.raises(TagMismatch):
        fidelity(
            ideal(AlgebraTag.PAULI3, 1.0, 0.0),
            ideal(AlgebraTag.MINKOWSKI12, 1.0, 0.0),
        )
    with pytest.raises(DegenerateState):
        fidelity(
            ideal(AlgebraTag.PAULI3, 0.0, 0.0),
            ideal(AlgebraTag.PAULI3, 1.0, 0.0),
        )
    with pytest.raises(NonTimelike):
        fidelity(
            ideal(AlgebraTag.MINKOWSKI12, 1.0, 2.0),
            ideal(AlgebraTag.MINKOWSKI12, 1.0, 0.0),
        )


@pytest.mark.parametrize("k", (300, 500, -300))
@pytest.mark.parametrize("tag", TAGS)
def test_fidelity_outside_the_float_range_is_nonfinite(k, tag):
    # |z|^2 and the product of the norms overflow (or underflow to 0/0)
    # together: a typed error, with no RuntimeWarning on the way
    base = IdealSpinor.from_chart(tag, (0.3, 0.2))
    lam = CenterScalar(2.0 ** k, 0.0)
    scaled = IdealSpinor(tag, base.a0 * lam, base.a1 * lam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue):
            fidelity(scaled, scaled)


@pytest.mark.parametrize("tag, error", [(AlgebraTag.PAULI3, DegenerateState),
                                        (AlgebraTag.MINKOWSKI12, NonFiniteValue)])
def test_fidelity_past_the_range_of_the_norms_warns_nothing(tag, error):
    # at 2^520 the norms overflow in the admissibility check, before the
    # bracket: a typed error, with no RuntimeWarning on the way (the Pauli3
    # norm is inf, within tolerance of its inf scale: a "zero state")
    base = IdealSpinor.from_chart(tag, (0.3, 0.2))
    lam = CenterScalar(2.0 ** 520, 0.0)
    scaled = IdealSpinor(tag, base.a0 * lam, base.a1 * lam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            fidelity(scaled, scaled)


# ------------------------------------------------------------------ antipode


def test_antipodal_examples():
    assert antipodal_chart((1.0, 0.0)) == (-1.0, 0.0)
    assert antipodal_chart((0.0, 2.0)) == (0.0, -0.5)
    with pytest.raises(DegenerateState):
        antipodal_chart((0.0, 0.0))
    # |x| = 5e-160: x^2 is subnormal, the partner -x / x^2 is not
    assert antipodal_chart((3e-160, 4e-160)) == pytest.approx((-1.2e159, -1.6e159), rel=1e-15)


def test_antipodal_geometry(rng):
    for _ in range(200):
        ca = tuple(rng.uniform(-2, 2, size=2))
        if sum(c * c for c in ca) < 1e-3:
            continue
        cb = antipodal_chart(ca)
        tag = AlgebraTag.PAULI3
        # b^ = -a^ on the Bloch sphere
        assert residual(chart_lift(tag, cb), -1.0 * chart_lift(tag, ca)) <= 1e-12
        # m_b . m_a = 0
        assert abs(dot(m_vector(tag, ca), m_vector(tag, cb))) <= 1e-12
        psi = IdealSpinor.from_chart(tag, ca)
        chi = IdealSpinor.from_chart(tag, cb)
        assert fidelity(psi, chi) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(
    st.integers(-100, 100),
    st.sampled_from((AlgebraTag.PAULI3, AlgebraTag.MINKOWSKI12)),
    st.tuples(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)),
    st.tuples(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)),
)
def test_fidelity_is_scale_invariant(k, tag, ca, cb):
    # fidelity normalizes internally: scaling one state by 10^k changes nothing
    psi = IdealSpinor.from_chart(tag, ca)
    chi = IdealSpinor.from_chart(tag, cb)
    lam = CenterScalar(10.0 ** k, 0.0)
    scaled = IdealSpinor(tag, psi.a0 * lam, psi.a1 * lam)
    f = fidelity(psi, chi)
    assert abs(fidelity(scaled, chi) - f) <= 1e-12 * f
    assert abs(fidelity(chi, scaled) - f) <= 1e-12 * f
