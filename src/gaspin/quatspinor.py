"""Quaternion-valued 2-component spinors in Cl(4,0) and Cl(1,3).

The carrier is (q0 + q1*i) v+ with i = e123 = g0123 and v+ = (1 + pole)/2.
All identities are asserted in Cl(1,3), where the natural involution is the
spacetime reverse (it fixes i and v+ and conjugates quaternions, which is
what makes the Minkowski norm q0 q0* - q1 q1* come out of <a~ a>); the
Cl(4,0) versions are obtained through the algebra isomorphism, never
re-derived, because no native Cl(4,0) involution reproduces that norm.

The canonical form is rho * exp(theta i xhat) * Mhat * v+, where M is
pole + center and mixed terms built from the quaternion q0* q1; M
squares to the real scalar 1 - |q1|^2/|q0|^2, and rho^2 = |q0|^2 - |q1|^2
must be positive (timelike states only).  When the scalar part of q0* q1
vanishes the spinor is orthogonal and M collapses to pole + x_m with x_m a
plain spacelike vector: the Bloch-point chart of the state.

The carrier (over q0.s, q0.v, q1.s, q1.v), the embedding of a quaternion in
Cl(1,3) and M are linear in quaternion coordinates, so each is one product
with a cached frame, derived once from the geometric products it replaces.

Quaternions and spinors may hold arrays of one shape: a batch of states, on
which every function acts case by case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    EUCLIDEAN4,
    SPACETIME13,
    Multivector,
    close,
    column_matrix,
    fields_equal,
    frame,
    geometric_product,
    grade_select,
    pseudoscalar,
    require,
    residual,
    reverse,
    stack_cases,
    unstack,
)
from .errors import (NonTimelike, NotInIdeal, NotInSubalgebra, NotOrthogonal, TagMismatch,
                     VerificationFailure, ZeroQ0)
from .isomap import AlgebraTag, euclidean_to_spacetime, spacetime_to_euclidean
from .quatrep import Quaternion, cross, quat_mul
from .spinors import CenterScalar, IdealSpinor

_VALID_TAGS = (AlgebraTag.EUCLIDEAN4, AlgebraTag.SPACETIME13)


@dataclass(frozen=True)
class QuatSpinor:
    """Quaternion pair (q0, q1) in the v+ ideal of Cl(4,0) or Cl(1,3)."""

    q0: Quaternion
    q1: Quaternion
    tag: AlgebraTag = AlgebraTag.SPACETIME13

    def __post_init__(self) -> None:
        if self.tag not in _VALID_TAGS:
            raise TagMismatch(f"quaternion spinors live in Cl(4,0)/Cl(1,3), not {self.tag}")

    @staticmethod
    def from_bloch_point(x, tag: AlgebraTag = AlgebraTag.SPACETIME13) -> "QuatSpinor":
        """Orthogonal unit-leading spinor whose Bloch point is x (3 reals, or
        an array with them on the last axis)."""
        x = np.asarray(x, dtype=float)
        return QuatSpinor(Quaternion.one(), Quaternion(0.0, unstack(-x)), tag)


# ------------------------------------------------------------ small helpers


def embed_spacetime(q: Quaternion) -> Multivector:
    """Quaternion as a Cl(1,3) element (through the algebra isomorphism)."""
    return Multivector(SPACETIME13, q.coords().dot(_spacetime_units().T))


@lru_cache(maxsize=None)
def _spacetime_units() -> np.ndarray:
    """Columns: the images of 1, i e1, i e2, i e3 under the algebra isomorphism."""
    units = map(Quaternion.from_coords, np.eye(4))
    return column_matrix([euclidean_to_spacetime(q.to_multivector()) for q in units])


@lru_cache(maxsize=None)
def _pole(tag: AlgebraTag) -> Multivector:
    return Multivector.basis(tag.signature, 0)


@lru_cache(maxsize=None)
def spinor_unit(tag: AlgebraTag) -> Multivector:
    """The central-on-quaternions unit i = e123 = g0123 in the tag's algebra.

    In Cl(1,3) this is the pseudoscalar; in Cl(4,0) it is the grade-3
    element e123 (the Cl(4,0) pseudoscalar e0123 maps to g123 instead).
    """
    if tag is AlgebraTag.SPACETIME13:
        return pseudoscalar(SPACETIME13)
    return Multivector.blade(EUCLIDEAN4, 0b1110)


@lru_cache(maxsize=None)
def idempotent_plus(tag: AlgebraTag) -> Multivector:
    """v+ = (1 + pole)/2 in the tag's algebra."""
    sig = tag.signature
    return (Multivector.scalar(sig, 1.0) + _pole(tag)) * 0.5


def spinor_reverse(m: Multivector, tag: AlgebraTag) -> Multivector:
    """The involution of the spinor formalism: the Cl(1,3) reverse.

    For Cl(4,0) elements this is the transported map through the
    isomorphism, which differs from the native Cl(4,0) reverse (it fixes
    e123 and flips e.g. e1); the native reverse would produce |q0|^2+|q1|^2
    instead of the Minkowski norm.
    """
    if tag is AlgebraTag.SPACETIME13:
        return reverse(m)
    return spacetime_to_euclidean(reverse(euclidean_to_spacetime(m)))


def image(psi: QuatSpinor) -> Multivector:
    """Carrier multivector (q0 + q1 i) v+ in the tag's algebra."""
    q0, q1 = psi.q0, psi.q1
    mat, _ = carrier_frame(psi.tag)
    return Multivector(psi.tag.signature, stack_cases((q0.s, *q0.v, q1.s, *q1.v)).dot(mat.T))


@lru_cache(maxsize=None)
def carrier_frame(tag: AlgebraTag) -> tuple[np.ndarray, np.ndarray]:
    """Frame of (q0 + q1 i) v+ over the coordinates (q0.s, q0.v, q1.s, q1.v)."""
    vp = idempotent_plus(tag)
    i = spinor_unit(tag)
    units = [Quaternion.from_coords(row) for row in np.eye(4)]
    if tag is AlgebraTag.SPACETIME13:
        embeds = [embed_spacetime(q) for q in units]
    else:
        embeds = [q.to_multivector() for q in units]
    return frame([e * vp for e in embeds] + [e * i * vp for e in embeds])


def from_image(m: Multivector, tag: AlgebraTag) -> QuatSpinor:
    """Extract (q0, q1) from a carrier element; NotInIdeal off the ideal."""
    if m.signature != tag.signature:
        raise TagMismatch("multivector signature does not match the tag")
    scale = m.abs_sum()
    require(close(residual(m * idempotent_plus(tag), m), scale), NotInIdeal,
            "element is not fixed by right multiplication with v+")
    _, pinv = carrier_frame(tag)
    psi = from_carrier_coords(m.coeffs @ pinv.T, tag)
    require(close(residual(image(psi), m), scale), NotInIdeal,
            "element has components outside the spinor ideal")
    return psi


def from_carrier_coords(sol: np.ndarray, tag: AlgebraTag) -> QuatSpinor:
    """Spinor of the coordinates (q0.s, q0.v, q1.s, q1.v) on the last axis."""
    return QuatSpinor(Quaternion.from_coords(sol[..., :4]), Quaternion.from_coords(sol[..., 4:]),
                      tag)


# -------------------------------------------------- product decompositions


def circ(a: Quaternion, b: Quaternion) -> Quaternion:
    """Symmetric half (ab + ba)/2 of the quaternion product."""
    return (quat_mul(a, b) + quat_mul(b, a)).scale(0.5)


def otimes(a: Quaternion, b: Quaternion) -> Quaternion:
    """Antisymmetric half (ab - ba)/2; circ + otimes = ab."""
    return (quat_mul(a, b) - quat_mul(b, a)).scale(0.5)


def grade_parts(a: Quaternion, b: Quaternion) -> tuple[float, Quaternion]:
    """Scalar and vector parts of b a*: ((ba* + ab*)/2, (ba* - ab*)/2)."""
    ba = quat_mul(b, a.conjugate())
    ab = quat_mul(a, b.conjugate())
    g0 = (ba + ab).scale(0.5)
    g1 = (ba - ab).scale(0.5)
    return g0.s, g1


# ------------------------------------------------------------ canonical form


@dataclass(frozen=True)
class CanonicalQ:
    """rho * exp(theta i xhat) * Mhat * v+ data for a quaternion spinor."""

    rho: float
    theta: float
    x_dir: tuple[float, float, float]
    M: Multivector
    M_hat: Multivector
    __eq__ = fields_equal


def norm2_q(psi: QuatSpinor) -> float:
    """rho^2 = |q0|^2 - |q1|^2 (Minkowski-style)."""
    return psi.q0.norm2() - psi.q1.norm2()


def phase_axis(q0: Quaternion) -> tuple[float, tuple[float, float, float]]:
    """Polar split q0 = |q0| exp(theta i xhat) with theta in [0, pi].

    A real-negative q0 gives theta = pi with the axis fixed at e3 by
    convention (the branch is otherwise undetermined).
    """
    n = q0.norm()
    require(n != 0.0, ZeroQ0, "zero leading quaternion has no phase")
    vlen = np.sqrt(sum(c * c for c in q0.v))
    theta = np.arctan2(vlen, q0.s)
    real = close(vlen, n)  # no axis: e3 by convention
    safe = np.where(real, 1.0, vlen)
    axis = (np.where(real, fixed, c / safe)[()] for fixed, c in zip((0.0, 0.0, 1.0), q0.v))
    return theta, tuple(axis)


def _spacetime_m(q0: Quaternion, q1: Quaternion) -> Multivector:
    """M = g0 + (c i + w~ i g0) / |q0|^2 in Cl(1,3), with w = q0* q1, c its
    scalar part and w~ the embedding of its vector part."""
    n0 = q0.norm2()
    w = quat_mul(q0.conjugate(), q1)
    inv = 1.0 / n0  # c / n0 and (1 / n0) w_k round as the products did
    coords = stack_cases((1.0, w.s / n0, *(inv * x for x in w.v)))
    return Multivector(SPACETIME13, coords.dot(_m_frame().T))


@lru_cache(maxsize=None)
def _m_frame() -> np.ndarray:
    """Frame of M over (1, c / |q0|^2, w_k / |q0|^2): the columns g0, i and
    the embedded i e_k times i g0, from the products."""
    i13, g0 = pseudoscalar(SPACETIME13), _pole(AlgebraTag.SPACETIME13)
    units = map(Quaternion.from_vector, np.eye(3))
    return column_matrix([g0, i13, *(embed_spacetime(q) * i13 * g0 for q in units)])


def spacetime_m_display(q0: Quaternion, q1: Quaternion) -> Multivector:
    """M written out over spacetime components: an independent route.

    With q0 = x0 + i x and q1 = y0 + i y (x, y the spacelike vectors),

        M = g0 + (y0 x - x0 y + g123 (x wedge y)) / (x0^2 - x^2)
               + g0123 (x0 y0 - x . y) / (x0^2 - x^2).

    The sign on the g123 term is fixed by requiring agreement with the
    canonical construction (reconstruction holds for +, not -).
    """
    den = q0.norm2()  # x0^2 - x^2 with the spacetime square
    xv = Multivector.vector(SPACETIME13, (0.0, *q0.v))
    yv = Multivector.vector(SPACETIME13, (0.0, *q1.v))
    wedge = grade_select(xv * yv, {2})
    xdoty = 0.5 * (xv * yv + yv * xv).scalar_part
    g123 = Multivector.blade(SPACETIME13, 0b1110)
    g0 = _pole(AlgebraTag.SPACETIME13)
    i13 = pseudoscalar(SPACETIME13)
    vec_term = q1.s * xv - q0.s * yv + g123 * wedge
    return g0 + vec_term / den + ((q0.s * q1.s - xdoty) / den) * i13


def canonical_q(psi: QuatSpinor) -> CanonicalQ:
    """Canonical polar data; ZeroQ0 / NonTimelike outside the chart."""
    _admissible(psi)
    theta, x_dir = phase_axis(psi.q0)
    m13 = _spacetime_m(psi.q0, psi.q1)
    root = np.sqrt(geometric_product(m13, m13).scalar_part)
    mhat13 = m13 / root
    if psi.tag is AlgebraTag.SPACETIME13:
        m, mhat = m13, mhat13
    else:
        m, mhat = spacetime_to_euclidean(m13), spacetime_to_euclidean(mhat13)
    # rho = |q0| sqrt(M^2) shares the rounding of M^2 with Mhat, so rho Mhat
    # keeps full accuracy near the light cone (|q1| -> |q0|)
    return CanonicalQ(psi.q0.norm() * root, theta, x_dir, m, mhat)


def reconstruct(can: CanonicalQ, tag: AlgebraTag) -> Multivector:
    """rho * exp(theta i xhat) * Mhat * v+ assembled in the tag's algebra."""
    phase_quat = Quaternion(np.cos(can.theta), tuple(np.sin(can.theta) * c for c in can.x_dir))
    if tag is AlgebraTag.SPACETIME13:
        phase = embed_spacetime(phase_quat)
    else:
        phase = phase_quat.to_multivector()
    return can.rho * (phase * can.M_hat * idempotent_plus(tag))


# ---------------------------------------------------------- orthogonal case


def is_orthogonal(psi: QuatSpinor) -> bool:
    """True when the scalar part of q0* q1 vanishes to rounding."""
    return close(abs(quat_mul(psi.q0.conjugate(), psi.q1).s), psi.q0.norm() * psi.q1.norm())


def bloch_point(psi: QuatSpinor) -> tuple[float, float, float]:
    """x_m = (y0 x - x0 y - x cross y) / |q0|^2 for an orthogonal spinor."""
    (x0, x), (y0, y) = (psi.q0.s, psi.q0.v), (psi.q1.s, psi.q1.v)
    n0 = psi.q0.norm2()
    return tuple((y0 * xk - x0 * yk - ck) / n0 for xk, yk, ck in zip(x, y, cross(x, y)))


def canonical_orthogonal(psi: QuatSpinor) -> tuple[CanonicalQ, tuple[float, float, float]]:
    """Canonical data via the simplified M = pole + x_m; orthogonal only."""
    require(is_orthogonal(psi), NotOrthogonal, "scalar part of q0* q1 is nonzero")
    can = canonical_q(psi)
    xm = bloch_point(psi)
    m13 = Multivector.vector(SPACETIME13, (1.0, *xm))
    m = m13 if psi.tag is AlgebraTag.SPACETIME13 else spacetime_to_euclidean(m13)
    require(residual(m, can.M) <= 1e-10 * np.maximum(1.0, m.max_abs()), NotOrthogonal,
            "simplified M disagrees with the canonical form")
    return can, xm


# ------------------------------------------------------- brakets, projector


def braket_q(psi: QuatSpinor) -> tuple[Multivector, Multivector]:
    """(ket, bra) = (sqrt2 * image, sqrt2 * reversed image)."""
    ket = math.sqrt(2.0) * image(psi)
    return ket, spinor_reverse(ket, psi.tag)


def projector(psi: QuatSpinor) -> Multivector:
    """|psi><psi| = 2 * image * reversed image."""
    ket, bra = braket_q(psi)
    return ket * bra


def projector_closed_orthogonal(psi: QuatSpinor) -> Multivector:
    """Closed form of the projector for orthogonal spinors.

    rho^2 + (|q0|^2 + |q1|^2) pole - 2 (x0 y - y0 x - x cross y), with the
    last term a spacelike vector; the coefficients follow from
    2 a a~ = rho^2 (1 + A').
    """
    require(is_orthogonal(psi), NotOrthogonal, "closed form asserted only for orthogonal spinors")
    (x0, x), (y0, y) = (psi.q0.s, psi.q0.v), (psi.q1.s, psi.q1.v)
    z = tuple(x0 * yk - y0 * xk - ck for xk, yk, ck in zip(x, y, cross(x, y)))
    rho2 = norm2_q(psi)
    total = psi.q0.norm2() + psi.q1.norm2()
    out13 = (
        Multivector.scalar(SPACETIME13, rho2)
        + total * _pole(AlgebraTag.SPACETIME13)
        - 2.0 * Multivector.vector(SPACETIME13, (0.0, *z))
    )
    if psi.tag is AlgebraTag.SPACETIME13:
        return out13
    return spacetime_to_euclidean(out13)


# ------------------------------------------------------------------ fidelity


def _chain_inner(am: Multivector, bm: Multivector) -> Multivector:
    """2 <rev(a) b>_{0+3} in Cl(1,3)."""
    return 2.0 * grade_select(reverse(am) * bm, {0, 3})


def _sta_pair(psi: QuatSpinor) -> Multivector:
    return image(QuatSpinor(psi.q0, psi.q1, AlgebraTag.SPACETIME13))


def fidelity_q(psi: QuatSpinor, chi: QuatSpinor) -> float:
    """<chi|psi><psi|chi> for internally normalized quaternion spinors.

    Evaluated as the bra-ket chain in Cl(1,3); ZeroQ0/NonTimelike propagate
    from the admissibility check.
    """
    if psi.tag is not chi.tag:
        raise TagMismatch(f"{psi.tag} vs {chi.tag}")
    rho2_psi, size_psi = _admissible(psi)
    rho2_chi, size_chi = _admissible(chi)
    am, bm = _sta_pair(psi), _sta_pair(chi)
    z_ab = _chain_inner(am, bm)
    z_ba = _chain_inner(bm, am)
    prod = z_ba * z_ab
    # every term of the chain is a product of two components of each state
    require(close((prod - prod.scalar_part).max_abs(), size_psi * size_chi), VerificationFailure,
            "fidelity chain did not reduce to a scalar")
    return prod.scalar_part / (rho2_psi * rho2_chi)


def _admissible(psi: QuatSpinor) -> tuple[float, float]:
    """(rho^2, |q0|^2 + |q1|^2): ZeroQ0 when q0 vanishes and NonTimelike when
    rho^2 is not positive, both relative to the size of the state."""
    n0 = psi.q0.norm2()
    size = n0 + psi.q1.norm2()
    require(np.logical_not(close(n0, size)), ZeroQ0, "canonical form divides by q0")
    rho2 = norm2_q(psi)
    require(np.logical_not(close(rho2, size)), NonTimelike,
            lambda k: f"rho^2 = {np.asarray(rho2)[k]:g} must be positive")
    return rho2, size


def fidelity_q_circ_route(psi: QuatSpinor, chi: QuatSpinor) -> float:
    """(1 + A' o B')/2 with A' = M'^ g0 M'^ built from phase-conjugated M'.

    Independent of the bra-ket chain; the two must agree to 1e-10.
    """
    if psi.tag is not chi.tag:
        raise TagMismatch(f"{psi.tag} vs {chi.tag}")
    _admissible(psi)
    _admissible(chi)
    g0 = _pole(AlgebraTag.SPACETIME13)

    def a_primed(s: QuatSpinor) -> Multivector:
        m13 = _spacetime_m(s.q0, s.q1)
        mhat = m13 / np.sqrt(geometric_product(m13, m13).scalar_part)
        u = embed_spacetime(s.q0.scale(1.0 / s.q0.norm()))
        m_primed = u * mhat * reverse(u)
        return m_primed * g0 * m_primed

    a = a_primed(psi)
    b = a_primed(chi)
    return 0.5 * (1.0 + 0.5 * (a * b + b * a).scalar_part)


# ------------------------------------------------- reduction to 2-component


def reduce_restricted(psi: QuatSpinor) -> IdealSpinor:
    """Collapse a spinor whose quaternions lie in span{1, i e3} to G1,2.

    Such quaternions form a commutative complex line, and the Minkowski
    norm and inner products match the G1,2 spinor formulas term for term,
    so fidelities agree across the two modules.
    """
    for q in (psi.q0, psi.q1):
        require(close(np.hypot(q.v[0], q.v[1]), q.norm()), NotInSubalgebra,
                "restricted form requires vector parts along e3")
    return IdealSpinor(
        AlgebraTag.MINKOWSKI12,
        CenterScalar(psi.q0.s, psi.q0.v[2]),
        CenterScalar(psi.q1.s, psi.q1.v[2]),
    )
