import math

import numpy as np
import pytest

from gaspin.core import (
    MINKOWSKI12,
    PAULI3,
    Multivector,
    allclose,
    dot,
    geometric_product,
    pseudoscalar,
    residual,
    reverse,
)
from gaspin.cli import _rand_chart as rand_chart
from gaspin.errors import DegenerateState, NonTimelike, NotInIdeal, TagMismatch
from gaspin.isomap import AlgebraTag
from gaspin.spinors import (
    CenterScalar,
    IdealSpinor,
    antipodal_chart,
    braket,
    canonical_form,
    chart_lift,
    fidelity,
    fidelity_bloch,
    fidelity_chart,
    from_multivector,
    idempotent,
    inner,
    m_vector,
    norm2,
    pole_vector,
    to_multivector,
)

TAGS = (AlgebraTag.PAULI3, AlgebraTag.MINKOWSKI12)


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
        assert residual(a.conj().embed(tag), reverse(a.embed(tag))) == 0.0
    assert (a * a.conj()).s == pytest.approx(a.abs2(), abs=1e-15)


# -------------------------------------------------------------- ideal carrier


def test_to_multivector_examples():
    u = idempotent(AlgebraTag.PAULI3)
    psi = IdealSpinor.of(AlgebraTag.PAULI3, 1.0, 0.0)
    assert allclose(to_multivector(psi), u)
    e1 = Multivector.basis(PAULI3, 0)
    psi = IdealSpinor.of(AlgebraTag.PAULI3, 0.0, 1.0)
    assert allclose(to_multivector(psi), geometric_product(e1, u))
    v = idempotent(AlgebraTag.MINKOWSKI12)
    psi = IdealSpinor.of(AlgebraTag.MINKOWSKI12, 1.0, 0.0)
    assert allclose(to_multivector(psi), v)


def test_ideal_closure_and_roundtrip(rng):
    for tag in TAGS:
        u = idempotent(tag)
        for _ in range(1000):
            psi = rand_spinor(rng, tag, admissible=False)
            m = to_multivector(psi)
            assert residual(geometric_product(m, u), m) <= 1e-13
            back = from_multivector(m, tag)
            assert back.a0.s == pytest.approx(psi.a0.s, abs=1e-12)
            assert back.a0.p == pytest.approx(psi.a0.p, abs=1e-12)
            assert back.a1.s == pytest.approx(psi.a1.s, abs=1e-12)
            assert back.a1.p == pytest.approx(psi.a1.p, abs=1e-12)


def test_from_multivector_rejects_non_ideal():
    with pytest.raises(NotInIdeal):
        from_multivector(Multivector.basis(PAULI3, 0), AlgebraTag.PAULI3)
    with pytest.raises(TagMismatch):
        from_multivector(Multivector.scalar(PAULI3, 1.0), AlgebraTag.MINKOWSKI12)


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


def test_braket_unit_example():
    ket, bra = braket(IdealSpinor.of(AlgebraTag.PAULI3, 1.0, 0.0))
    u = idempotent(AlgebraTag.PAULI3)
    s2 = math.sqrt(2.0)
    assert allclose(ket, s2 * u)
    assert allclose(bra, s2 * u)


def test_ket_bra_is_twice_projector(rng):
    # |psi><psi| = 2 rho^2 a+ with a+ = m^ u+ m^, for unit-normalized psi.
    for tag in TAGS:
        for _ in range(200):
            psi = rand_spinor(rng, tag)
            can = canonical_form(psi)
            ket, bra = braket(psi)
            lhs = geometric_product(ket, bra)
            a_plus = geometric_product(
                geometric_product(can.m_hat, idempotent(tag)), can.m_hat
            )
            assert residual(lhs, 2.0 * can.rho**2 * a_plus) <= 1e-10


# ----------------------------------------------------------- canonical forms


def test_canonical_form_pauli_examples():
    can = canonical_form(IdealSpinor.of(AlgebraTag.PAULI3, 1.0, 0.0))
    assert can.rho == pytest.approx(1.0)
    assert can.theta == 0.0
    assert allclose(can.m_hat, pole_vector(AlgebraTag.PAULI3))
    assert can.chart == (0.0, 0.0)

    can = canonical_form(IdealSpinor.of(AlgebraTag.PAULI3, 1.0, 1.0))
    assert can.rho == pytest.approx(math.sqrt(2.0))
    assert can.theta == 0.0
    assert can.chart == (1.0, 0.0)
    want = (Multivector.basis(PAULI3, 0) + Multivector.basis(PAULI3, 2)) / math.sqrt(2)
    assert residual(can.m_hat, want) <= 1e-15

    with pytest.raises(DegenerateState):
        canonical_form(IdealSpinor.of(AlgebraTag.PAULI3, 0.0, 1.0))


def test_canonical_form_minkowski_chart_sign():
    # The ratio i*g1*v+ = -g2*v+ fixes the chart map (a+bi -> a g1 - b g2);
    # determined numerically here rather than assumed.
    sig = MINKOWSKI12
    i = pseudoscalar(sig)
    g1 = Multivector.basis(sig, 1)
    g2 = Multivector.basis(sig, 2)
    v = idempotent(AlgebraTag.MINKOWSKI12)
    assert allclose(i * g1 * v, -1.0 * (g2 * v))
    psi = IdealSpinor.of(AlgebraTag.MINKOWSKI12, 1.0, (0.0, 0.5))  # a1 = 0.5 i
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
        canonical_form(IdealSpinor.of(AlgebraTag.MINKOWSKI12, 1.0, 2.0))


# -------------------------------------------------------------- inner product


def test_inner_examples():
    one = IdealSpinor.of(AlgebraTag.PAULI3, 1.0, 0.0)
    other = IdealSpinor.of(AlgebraTag.PAULI3, 0.0, 1.0)
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
            want = psi.a0.conj() * chi.a0 + (psi.a1.conj() * chi.a1).scale(sign)
            assert abs(z.s - want.s) <= 1e-13
            assert abs(z.p - want.p) <= 1e-13


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


def test_inner_tag_mismatch():
    with pytest.raises(TagMismatch):
        inner(
            IdealSpinor.of(AlgebraTag.PAULI3, 1.0, 0.0),
            IdealSpinor.of(AlgebraTag.MINKOWSKI12, 1.0, 0.0),
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
    # random phases and scales on the spinor route.
    for tag in TAGS:
        for _ in range(500):
            ca, cb = rand_chart(rng, tag), rand_chart(rng, tag)
            psi = IdealSpinor.from_chart(tag, ca)
            chi = IdealSpinor.from_chart(tag, cb)
            # decorate with random phases and scales; fidelity normalizes
            pa, pb = rng.uniform(0, 2 * math.pi, size=2)
            sa, sb = rng.uniform(0.2, 2.0, size=2)
            psi = IdealSpinor(
                tag,
                psi.a0 * CenterScalar(sa * math.cos(pa), sa * math.sin(pa)),
                psi.a1 * CenterScalar(sa * math.cos(pa), sa * math.sin(pa)),
            )
            chi = IdealSpinor(
                tag,
                chi.a0 * CenterScalar(sb * math.cos(pb), sb * math.sin(pb)),
                chi.a1 * CenterScalar(sb * math.cos(pb), sb * math.sin(pb)),
            )
            f1 = fidelity(psi, chi)
            f2 = fidelity_bloch(tag, ca, cb)
            f3 = fidelity_chart(tag, ca, cb)
            assert abs(f1 - f2) <= 1e-10 * max(1.0, abs(f1))
            assert abs(f2 - f3) <= 1e-10 * max(1.0, abs(f2))
            if tag is AlgebraTag.PAULI3:
                assert -1e-12 <= f1 <= 1.0 + 1e-12
            else:
                assert f1 >= 1.0 - 1e-12


def test_fidelity_errors():
    with pytest.raises(TagMismatch):
        fidelity(
            IdealSpinor.of(AlgebraTag.PAULI3, 1.0, 0.0),
            IdealSpinor.of(AlgebraTag.MINKOWSKI12, 1.0, 0.0),
        )
    with pytest.raises(DegenerateState):
        fidelity(
            IdealSpinor.of(AlgebraTag.PAULI3, 0.0, 0.0),
            IdealSpinor.of(AlgebraTag.PAULI3, 1.0, 0.0),
        )
    with pytest.raises(NonTimelike):
        fidelity(
            IdealSpinor.of(AlgebraTag.MINKOWSKI12, 1.0, 2.0),
            IdealSpinor.of(AlgebraTag.MINKOWSKI12, 1.0, 0.0),
        )


# ------------------------------------------------------------------ antipode


def test_antipodal_examples():
    assert antipodal_chart((1.0, 0.0)) == (-1.0, 0.0)
    assert antipodal_chart((0.0, 2.0)) == (0.0, -0.5)
    with pytest.raises(DegenerateState):
        antipodal_chart((0.0, 0.0))


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
