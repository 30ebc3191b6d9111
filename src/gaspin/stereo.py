"""Stereographic projection onto the unit 3-sphere and the hyperboloid.

Both charts share one formula, m = 2/(a + pole) = x_m + pole, projecting
from the point opposite the pole.  On S^3 in Cl(4,0) the pole is e0 and the
chart covers everything but -e0; on the hyperboloid L^3 in Cl(1,3) the pole
is g0 and the chart is the open unit ball |x| < 1 (the Poincare ball).  The
rotor exp(theta xhat e0 / 2) rotates the pole onto the lifted point; the
boost exp(phi xhat / 2) does the same hyperbolically.  Induced metrics come
from the closed-form differential of the lift; finite differences are kept
out of this module so tests can compare two independent routes.

The pole is always generator 0 of the active signature.  Other pole
conventions (e.g. the Riemann sphere with pole e3) are reached through
:func:`permute_generators` rather than a second code path.

Every function takes batches, as the core does: the fields of
``PlanePoint.x`` (and of a metric's ``dx``) are Python floats for one case
or arrays of one shape for a batch, and a lifted point or rotor is then a
batch of multivectors with those leading axes.  A single case keeps Python
numbers throughout.  Domain checks (the open ball, the south pole, the
unit square, a0 > 0 on the hyperboloid) go through :func:`core.require`, so
a batch raises what the single call raises and names the first failing
case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from .core import (
    EUCLIDEAN4,
    SPACETIME13,
    Multivector,
    Signature,
    as_cases,
    close,
    fields_equal,
    geometric_product,
    require,
    reverse,
    unstack,
    vector_square,
)
from .errors import DomainViolation, NotAVector, PoleSingularity


@dataclass(frozen=True)
class PlanePoint:
    """Chart point: components on the non-pole generators, Python floats
    for one case or arrays of one shape for a batch."""

    x: tuple
    __eq__ = fields_equal

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", as_cases(self.x))

    @staticmethod
    def of(*components: float) -> "PlanePoint":
        return PlanePoint(components)

    @property
    def norm2(self) -> float:
        return sum(c * c for c in self.x)

    def as_vector(self, signature: Signature) -> Multivector:
        """Grade-1 element with zero pole component."""
        return Multivector.vector(signature, (0.0, *self.x))


@dataclass(frozen=True)
class SpherePoint:
    """Unit vector on S^3 in Cl(4,0)."""

    a_hat: Multivector

    def __post_init__(self) -> None:
        _check_unit_vector(self.a_hat, EUCLIDEAN4)


@dataclass(frozen=True)
class HyperPoint:
    """Unit timelike vector on the upper hyperboloid L^3 in Cl(1,3)."""

    a_hat: Multivector

    def __post_init__(self) -> None:
        _check_unit_vector(self.a_hat, SPACETIME13)
        # a unit timelike vector has pole component >= 1 or <= -1
        require(self.a_hat.coefficient(1) > 0.0, DomainViolation,
                "hyperboloid points need pole component >= 1")


def _check_unit_vector(a: Multivector, signature: Signature) -> None:
    if a.signature is not signature and a.signature != signature:
        raise NotAVector(f"expected a vector in {signature.generator_labels}")
    sq, scale = vector_square(a)
    require(close(abs(sq - 1.0), 1.0 + scale), NotAVector,
            lambda k: f"vector square {np.asarray(sq)[k].item()!r} is not 1")


#: Blade masks of the three chart generators (all but the pole, generator 0).
_CHART_MASKS = np.array([2, 4, 8])


def _pole(signature: Signature) -> Multivector:
    return Multivector.basis(signature, 0)


# ------------------------------------------------------------------ sphere


def lift_sphere(x: PlanePoint) -> SpherePoint:
    """x in R^3 -> ((1 - x^2) e0 + 2x) / (1 + x^2) on S^3, as ((s^2 - y^2) e0 +
    2 s y) / (s^2 + y^2) on y = s x, with s <= 1 the power of two that brings the
    largest |x_k| below 1: every rounding is the unscaled form's, but y^2 cannot
    overflow (|x| = 1e200 lifts to -e0 + 2e-200 e1)."""
    if isinstance(x.x[0], np.ndarray):
        s = np.ldexp(1.0, -np.maximum(np.frexp(reduce(np.maximum, map(np.abs, x.x)))[1], 0))
    else:
        s = math.ldexp(1.0, -max(math.frexp(max(map(abs, x.x)))[1], 0))
    y = tuple(s * c for c in x.x)
    s2, r2 = s * s, sum(c * c for c in y)
    d = s2 + r2
    comps = ((s2 - r2) / d, *(2.0 * c * s / d for c in y))
    return SpherePoint(Multivector.vector(EUCLIDEAN4, comps))


def project_sphere(a: SpherePoint) -> PlanePoint:
    """Stereographic projection from -e0; the chart point a / (1 + a0).

    On the southern half 1 + a0 cancels, so it is taken as |a|^2 / (1 - a0),
    which keeps full relative accuracy up to the pole, where it is 0.
    """
    c = a.a_hat.coeffs
    rest = c.take(_CHART_MASKS, -1)
    if c.ndim == 1:  # one case in Python numbers
        a0 = c.item(1)
        denom = 1.0 + a0 if a0 >= 0.0 else float(rest @ rest) / (1.0 - a0)
    else:  # each (1, 3) @ (3, 1) product sums as one case's rest @ rest does
        a0 = c[..., 1]
        r2 = (rest[..., None, :] @ rest[..., :, None])[..., 0, 0]
        denom = np.where(a0 >= 0.0, 1.0 + a0, r2 / (1.0 + np.abs(a0)))
    require(denom != 0.0, PoleSingularity, "projection undefined at the south pole")
    return PlanePoint(tuple(r / denom for r in unstack(rest)))


def sphere_angle(x: PlanePoint) -> float:
    """Angle theta = 2 atan|x| in [0, pi] from the pole to the lifted point
    (atan2(2|x|, 1 - x^2) gives 3 pi/4 once x^2 overflows)."""
    if isinstance(x.x[0], np.ndarray):
        return 2.0 * np.arctan(reduce(np.hypot, x.x))
    return 2.0 * math.atan(math.hypot(*x.x))


def _pole_rotor(x: PlanePoint, signature: Signature, norm: float) -> Multivector:
    """(1 + x pole) / norm with norm = sqrt(1 + x^2) on the sphere and
    sqrt(1 - x^2) on the hyperboloid: the closed form of exp(angle xhat pole / 2).
    It shares the lift's denominator, so R pole R~ matches the lift to the
    edge of the ball, where the angle route loses 1 - |x| to rounding."""
    return (1.0 + geometric_product(x.as_vector(signature), _pole(signature))) / norm


def sphere_rotor(x: PlanePoint) -> Multivector:
    """Rotor R with R e0 R~ = lift_sphere(x); identity at the origin."""
    if isinstance(x.x[0], np.ndarray):  # nested hypot: no overflow for huge |x|
        return _pole_rotor(x, EUCLIDEAN4, reduce(np.hypot, x.x, 1.0))
    return _pole_rotor(x, EUCLIDEAN4, math.hypot(1.0, *x.x))


def sphere_metric(x: PlanePoint, dx: Sequence[float]) -> tuple[Multivector, float]:
    """Closed-form differential of the lift and its square.

    da = (2 (1+x^2) dx - 4 (x + e0) (x . dx)) / (1+x^2)^2 and
    (da)^2 = 4 dx^2 / (1+x^2)^2.
    """
    return _lift_differential(x, dx, EUCLIDEAN4, 1.0)


def _lift_differential(x: PlanePoint, dx: Sequence[float], signature: Signature, s: float):
    """da = (2 d dx - 4 s (x + pole) (x . dx)) / d^2 with d = 1 + s x^2, and
    (da)^2; s = 1 on the sphere, -1 on the hyperboloid.  The components of
    dx are numbers or per-case arrays, as those of x."""
    d = 1.0 + s * x.norm2
    dxp = PlanePoint(tuple(dx))
    xdx = sum(a * b for a, b in zip(x.x, dxp.x))
    m = x.as_vector(signature) + _pole(signature)
    dxv = dxp.as_vector(signature)
    da = (2.0 * d * dxv - (4.0 * s * xdx) * m) / (d * d)  # d ** 2 raises on overflow
    return da, geometric_product(da, da).scalar_part


# -------------------------------------------------------------- hyperboloid


def _check_open_ball(x: PlanePoint) -> None:
    require(np.logical_not(x.norm2 >= 1.0), DomainViolation,
            "hyperbolic chart requires |x| < 1 strictly")


def lift_hyper(x: PlanePoint) -> HyperPoint:
    """x in the open unit ball -> ((1 + x^2) g0 + 2x) / (1 - x^2) on L^3."""
    _check_open_ball(x)
    r2 = x.norm2
    d = 1.0 - r2
    comps = ((1.0 + r2) / d, *(2.0 * c / d for c in x.x))
    return HyperPoint(Multivector.vector(SPACETIME13, comps))


def project_hyper(a: HyperPoint) -> PlanePoint:
    """Chart point a / (1 + a0) of a hyperboloid point; total on L^3."""
    d = 1.0 + a.a_hat.coefficient(1)
    return PlanePoint(tuple(r / d for r in unstack(a.a_hat.coeffs.take(_CHART_MASKS, -1))))


def hyper_angle(x: PlanePoint) -> float:
    """Hyperbolic angle phi = 2 atanh|x| >= 0 between g0 and the lifted point
    (the form atanh(2|x|/(1+x^2)) rounds its argument to 1 near the edge)."""
    _check_open_ball(x)
    r2 = x.norm2
    if isinstance(r2, np.ndarray):
        return 2.0 * np.arctanh(np.sqrt(r2))
    return 2.0 * math.atanh(math.sqrt(r2))


def hyper_boost(x: PlanePoint) -> Multivector:
    """Boost R with R g0 R~ = lift_hyper(x); identity at the origin."""
    _check_open_ball(x)
    return _pole_rotor(x, SPACETIME13, np.sqrt(1.0 - x.norm2))


def hyper_metric(x: PlanePoint, dx: Sequence[float]) -> tuple[Multivector, float]:
    """Closed-form differential of the hyperbolic lift and its square.

    da = (2 (1-x^2) dx + 4 (x + g0) (x . dx)) / (1-x^2)^2 and
    (da)^2 = -4 dx^2 / (1-x^2)^2; the sign flip is the hyperbolic metric.
    """
    _check_open_ball(x)
    return _lift_differential(x, dx, SPACETIME13, -1.0)


def rotor_apply(rotor: Multivector, a: Multivector) -> Multivector:
    """Two-sided sandwich R a R~."""
    return geometric_product(geometric_product(rotor, a), reverse(rotor))


# ----------------------------------------------------- generator permutation


@lru_cache(maxsize=None)
def _relabeling(sig: Signature, perm: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(source, signs) such that relabeling generator k as perm[k] sends
    coefficients c to signs * c[..., source].

    Blade m goes to the blade of the relabeled generators, with the parity
    of the permutation restricted to m: the pairs k < l in m with
    perm[k] > perm[l].
    """
    if sorted(perm) != list(range(sig.n)):
        raise ValueError("perm must be a permutation of the generator indices")
    if any(sig.metric(perm[k]) != sig.metric(k) for k in range(sig.n)):
        raise ValueError("permutation must preserve generator squares")
    p = np.array(perm)
    bits = np.arange(sig.dim)[:, None] >> np.arange(sig.n) & 1  # (blade, generator)
    inverted = np.triu(p[:, None] > p[None, :], 1)  # k < l with perm[k] > perm[l]
    flips = np.einsum("mk,kl,ml->m", bits, inverted, bits)
    source = np.argsort(bits @ (1 << p))
    signs = (1.0 - 2.0 * (flips & 1))[source]
    source.setflags(write=False)
    signs.setflags(write=False)
    return source, signs


def permute_generators(a: Multivector, perm: Sequence[int]) -> Multivector:
    """Relabel generator k as perm[k], with the blade reordering sign.

    Only metric-preserving permutations are allowed (perm[k] must square
    like k), so the result lives in the same algebra.  One cached signed
    permutation of the blades per (signature, perm), applied to every case.
    """
    source, signs = _relabeling(a.signature, tuple(perm))
    return Multivector(a.signature, signs * a.coeffs.take(source, -1))
