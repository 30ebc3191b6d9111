"""Quaternion-valued 2-component spinors in Cl(4,0) and Cl(1,3).

The carrier is (q0 + q1*i) v+ with i = e123 = g0123 and v+ = (1 + pole)/2.
Everything is computed in Cl(1,3), where the natural involution is the
spacetime reverse (it fixes i and v+ and conjugates quaternions, which is
what makes the Minkowski norm q0 q0* - q1 q1* come out of <a~ a>).  A
Cl(4,0)-tagged result is the image of the Cl(1,3) one under the algebra
isomorphism (:func:`_in_tag`), never re-derived, because no native Cl(4,0)
involution reproduces that norm.

The canonical form is rho * exp(theta i xhat) * Mhat * v+, where M is
pole + center and mixed terms built from the quaternion q0* q1; M
squares to the real scalar 1 - |q1|^2/|q0|^2, and rho^2 = |q0|^2 - |q1|^2
must be positive (timelike states only).  When the scalar part of q0* q1
vanishes the spinor is orthogonal and M collapses to pole + x_m with x_m a
plain spacelike vector, :func:`bloch_point`.  It is the chart point that the
fidelity and the projector see only for real q0: they see q0 x_m q0^-1.

The embedding of a quaternion in Cl(1,3) is the two fixed maps composed, into
Cl(4,0) and through the isomorphism.  The carrier (over q0.s, q0.v, q1.s, q1.v)
and M are linear in quaternion coordinates, each one product with a cached
frame; the fidelity's bracket z = 2 <rev(a) b>_{0+3} and the projector
2 a rev(a) are bilinear in them, each a cached table; all are read once off the
geometric products they replace.  The carrier frame's columns are orthogonal
with squared norm exactly 1/2, so its transpose reads the coordinates back,
exactly.  :func:`fidelity_q_circ_route` and :func:`projector_closed_orthogonal`
stay independent second routes; the first takes u M u~ (u = q0/|q0| commutes
with g0 and i) as M over q1 q0*, no bracket.

A quaternion holds its coordinates on the last axis of one array; leading
axes index a batch of states, on which every function acts case by case.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    SPACETIME13,
    Multivector,
    bilinear,
    bilinear_table,
    bracket_ratio,
    close,
    column_matrix,
    fields_equal,
    fixed,
    idempotent,
    pseudoscalar,
    require,
    reverse,
    scalar_product,
)
from .errors import NonTimelike, NotOrthogonal, TagMismatch, VerificationFailure, ZeroQ0
from .isomap import AlgebraTag, euclidean_to_spacetime, spacetime_to_euclidean
from .quatrep import Quaternion, quat_mul

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
        x = np.asarray(x)
        q1 = np.concatenate([np.zeros_like(x[..., :1]), -x], axis=-1)
        return QuatSpinor(Quaternion.one(), Quaternion(q1), tag)


# ------------------------------------------------------------ small helpers


def embed_spacetime(q: Quaternion) -> Multivector:
    """Quaternion as a Cl(1,3) element (through the algebra isomorphism)."""
    return euclidean_to_spacetime(q.to_multivector())


def _in_tag(m13: Multivector, tag: AlgebraTag) -> Multivector:
    """A Cl(1,3) result in the tag's algebra: itself, or its Cl(4,0) image."""
    return m13 if tag is AlgebraTag.SPACETIME13 else spacetime_to_euclidean(m13)


def image(psi: QuatSpinor) -> Multivector:
    """Carrier multivector (q0 + q1 i) v+ in the tag's algebra."""
    return _in_tag(Multivector(SPACETIME13, carrier_coords(psi) @ carrier_frame().T), psi.tag)


def carrier_coords(psi: QuatSpinor) -> np.ndarray:
    """The coordinates (q0.s, q0.v, q1.s, q1.v) on the last axis, the batch
    axes of q0 and q1 broadcast against each other."""
    q0, q1 = psi.q0.coeffs, psi.q1.coeffs
    out = np.empty((*np.broadcast(q0, q1).shape[:-1], 8))
    out[..., :4], out[..., 4:] = q0, q1
    return out


@fixed
def carrier_frame() -> np.ndarray:
    """Frame of (q0 + q1 i) v+ in Cl(1,3) over the coordinates (q0.s, q0.v,
    q1.s, q1.v), from the products.  Its columns are orthogonal with squared
    norm exactly 1/2, so ``2 * (m.coeffs @ frame)`` are the coordinates of
    the orthogonal projection of m onto the span (callers that take them
    from an arbitrary m check the reconstruction)."""
    vp, i = idempotent(SPACETIME13, 0b0001), pseudoscalar(SPACETIME13)
    embeds = [embed_spacetime(q) for q in map(Quaternion, np.eye(4))]
    return column_matrix([e * vp for e in embeds] + [e * i * vp for e in embeds])


def from_carrier_coords(sol: np.ndarray, tag: AlgebraTag) -> QuatSpinor:
    """Spinor of the coordinates (q0.s, q0.v, q1.s, q1.v) on the last axis."""
    return QuatSpinor(Quaternion(sol[..., :4]), Quaternion(sol[..., 4:]), tag)


# ------------------------------------------------------------ canonical form


@dataclass(frozen=True)
class CanonicalQ:
    """rho * exp(theta i xhat) * Mhat * v+ data for a quaternion spinor."""

    rho: float
    theta: float
    x_dir: np.ndarray  # (..., 3)
    M: Multivector
    M_hat: Multivector
    __eq__ = fields_equal


def phase_axis(q0: Quaternion, n: float) -> tuple[float, np.ndarray]:
    """Polar split q0 = n exp(theta i xhat), theta in [0, pi], n = |q0| > 0 from _admissible.

    A real-negative q0 gives theta = pi with the axis fixed at e3 by
    convention (the branch is otherwise undetermined).
    """
    vlen = np.sqrt(np.vecdot(q0.v, q0.v))
    theta = np.arctan2(vlen, q0.s)
    real = close(vlen, n)[..., None]  # no axis: e3 by convention
    return theta, np.where(real, (0.0, 0.0, 1.0), q0.v / np.where(real, 1.0, vlen[..., None]))


def _spacetime_m(n0: float, w: Quaternion) -> Multivector:
    """M = g0 + (c i + w~ i g0) / n0 in Cl(1,3), with n0 = |q0|^2 from :func:`_admissible`,
    w = q0* q1 or q1 q0*, c its scalar part and w~ the embedding of its vector part."""
    frame, g0 = _m_frame()
    return Multivector(SPACETIME13, (w.coeffs / n0[..., None]) @ frame.T + g0)


@fixed
def _m_frame() -> tuple[np.ndarray, np.ndarray]:
    """Frame of M - g0 over (c, w_k) / |q0|^2: the columns i and the embedded
    i e_k times i g0, from the products; and the coefficients of g0."""
    i13, g0 = pseudoscalar(SPACETIME13), Multivector.basis(SPACETIME13, 0)
    units = map(Quaternion, np.eye(4)[1:])
    return column_matrix([i13, *(embed_spacetime(q) * i13 * g0 for q in units)]), g0.coeffs


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # typed errors only
def canonical_q(psi: QuatSpinor) -> CanonicalQ:
    """Canonical polar data; ZeroQ0 / NonTimelike outside the chart."""
    n0, _ = _admissible(psi)
    n = np.sqrt(n0)
    theta, x_dir = phase_axis(psi.q0, n)
    m13 = _spacetime_m(n0, quat_mul(psi.q0.conjugate(), psi.q1))
    root = np.sqrt(scalar_product(m13, m13))
    mhat13 = m13 / root
    # rho = |q0| sqrt(M^2) shares the rounding of M^2 with Mhat, so rho Mhat
    # keeps full accuracy near the light cone (|q1| -> |q0|)
    return CanonicalQ(n * root, theta, x_dir, _in_tag(m13, psi.tag),
                      _in_tag(mhat13, psi.tag))


def reconstruct(can: CanonicalQ, tag: AlgebraTag) -> Multivector:
    """rho * exp(theta i xhat) * Mhat * v+ assembled in the tag's algebra
    (v+ = (1 + pole)/2 there, the pole being generator 0 in both)."""
    theta = np.asarray(can.theta)[..., None]
    phase_quat = Quaternion(np.concatenate([np.cos(theta), np.sin(theta) * can.x_dir], axis=-1))
    phase = _in_tag(embed_spacetime(phase_quat), tag)
    return can.rho * (phase * can.M_hat * idempotent(tag.signature, 0b0001))


# ---------------------------------------------------------- orthogonal case


def is_orthogonal(psi: QuatSpinor) -> bool:
    """True when the scalar part of q0* q1 vanishes to rounding."""
    return close(abs(quat_mul(psi.q0.conjugate(), psi.q1).s), psi.q0.norm() * psi.q1.norm())


def bloch_point(psi: QuatSpinor) -> np.ndarray:
    """x_m = vec(q1* q0) / |q0|^2 of an orthogonal spinor, on the last axis; u psi has the
    x_m of psi for a unit u.  The fidelity's Bloch point is -vec(q1 q0^-1) = q0 x_m q0^-1."""
    return quat_mul(psi.q1.conjugate(), psi.q0).v / psi.q0.norm2()[..., None]


# ------------------------------------------------------- brakets, projector


@fixed
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """Bracket tables over the carrier coordinates, from the products: of the
    projector 2 a rev(a), (8, 16, 8), and of z = 2 <rev(a) b>_{0+3}, (8, 4, 8)
    on the scalar and the trivectors g012, g013, g023.  The fourth trivector
    g123 must vanish: it is what makes rev(z) z the scalar sum of z_k^2."""
    cols = Multivector(SPACETIME13, carrier_frame().T)
    g123 = bilinear_table(reverse(cols), cols, (0b1110,))
    require(not g123.any(), VerificationFailure, "bra-ket chain has a g123 part")
    return (bilinear_table(2.0 * cols, reverse(cols), range(SPACETIME13.dim)),
            bilinear_table(2.0 * reverse(cols), cols, (0, 0b0111, 0b1011, 0b1101)))


@np.errstate(over="ignore", invalid="ignore")  # typed errors only
def projector(psi: QuatSpinor) -> Multivector:
    """|psi><psi| = 2 * image * reversed image, reversed in Cl(1,3) and then
    mapped like the ket: x^T T x over the carrier coordinates x."""
    x = carrier_coords(psi)
    return _in_tag(Multivector(SPACETIME13, bilinear(x, _tables()[0], x)), psi.tag)


def projector_closed_orthogonal(psi: QuatSpinor) -> Multivector:
    """Closed form of the projector for orthogonal spinors.

    rho^2 + (|q0|^2 + |q1|^2) pole - 2 (x0 y - y0 x - x cross y), with the
    last term a spacelike vector; the coefficients follow from
    2 a a~ = rho^2 (1 + A').
    """
    require(is_orthogonal(psi), NotOrthogonal, "closed form asserted only for orthogonal spinors")
    z = quat_mul(psi.q1, psi.q0.conjugate()).v  # x0 y - y0 x - x cross y
    n0, n1 = psi.q0.norm2(), psi.q1.norm2()
    out13 = (
        Multivector.scalar(SPACETIME13, n0 - n1)
        + (n0 + n1) * Multivector.basis(SPACETIME13, 0)
        - 2.0 * Multivector.vector(SPACETIME13, (0.0, *np.moveaxis(z, -1, 0)))
    )
    return _in_tag(out13, psi.tag)


# ------------------------------------------------------------------ fidelity


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # typed errors only
def fidelity_q(psi: QuatSpinor, chi: QuatSpinor) -> float:
    """<chi|psi><psi|chi> for internally normalized quaternion spinors.

    The bra-ket chain rev(z) z in Cl(1,3), the sum of z_k^2 over the cached
    table; ZeroQ0/NonTimelike propagate from the admissibility check.
    """
    if psi.tag is not chi.tag:
        raise TagMismatch(f"{psi.tag} vs {chi.tag}")
    return bracket_ratio(carrier_coords(psi), _tables()[1], carrier_coords(chi),
                         _admissible(psi)[1], _admissible(chi)[1])


def _admissible(psi: QuatSpinor) -> tuple[float, float]:
    """(|q0|^2, rho^2 = |q0|^2 - |q1|^2), the one place the norms are squared: ZeroQ0
    when |q0|^2 is zero, NonTimelike when rho^2 is not positive relative to |q0|^2 + |q1|^2."""
    n0, n1 = psi.q0.norm2(), psi.q1.norm2()
    require(n0 != 0.0, ZeroQ0, "canonical form divides by q0")
    rho2 = n0 - n1
    require(np.logical_not(close(rho2, n0 + n1)), NonTimelike,
            lambda k: f"rho^2 = {np.asarray(rho2)[k]:g} must be positive")
    return n0, rho2


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # typed errors only
def fidelity_q_circ_route(psi: QuatSpinor, chi: QuatSpinor) -> float:
    """(1 + A' o B')/2 with A' = M'^ g0 M'^ and M' = u M u~, u = q0/|q0| embedded, a
    spatial rotor: it commutes with g0 and i, and u w~ u~ embeds q0 w q0* / |q0|^2, so M'
    is M over q1 q0* in place of q0* q1.  Through M and a sandwich, never the bracket
    table, the route stays independent of :func:`fidelity_q`; the two agree to 100 core.TOL."""
    if psi.tag is not chi.tag:
        raise TagMismatch(f"{psi.tag} vs {chi.tag}")
    n_psi, n_chi = _admissible(psi)[0], _admissible(chi)[0]
    g0 = Multivector.basis(SPACETIME13, 0)

    def a_primed(s: QuatSpinor, n0: float) -> Multivector:
        m_primed = _spacetime_m(n0, quat_mul(s.q1, s.q0.conjugate()))  # u M u~
        mhat = m_primed / np.sqrt(scalar_product(m_primed, m_primed))
        return mhat * g0 * mhat

    return 0.5 * (1.0 + scalar_product(a_primed(psi, n_psi), a_primed(chi, n_chi)))
