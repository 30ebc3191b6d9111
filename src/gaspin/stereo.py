"""Stereographic projection onto the unit 3-sphere and the hyperboloid.

Both charts share one formula, m = 2/(a + pole) = x_m + pole, projecting
from the point opposite the pole.  On S^3 in Cl(4,0) the pole is e0 and the
chart covers everything but -e0; on the hyperboloid L^3 in Cl(1,3) the pole
is g0 and the chart is the open unit ball |x| < 1 (the Poincare ball).  The
rotor exp(theta xhat e0 / 2) rotates the pole onto the lifted point; the
boost exp(phi xhat / 2) does the same hyperbolically.  Induced metrics come
from the closed-form differential of the lift; finite differences are kept
out of this module so tests can compare two independent routes.

The pole is always generator 0 of the active signature.  A chart with its
pole elsewhere reads the same components in another order: the Riemann
sphere, pole e3, takes ``vector_components()[..., [1, 2, 0]]`` of a lift
(e1, e2, then e0 read as e3), with no second code path.

Every function takes batches, as the core does: ``PlanePoint.x`` (and a
metric's ``dx``) holds the three chart components on the last axis of one
array, leading axes index the cases, and a lifted point or rotor is then a
batch of multivectors with those leading axes; one case is a (3,) array and
goes through the same code.  Domain checks (the open ball, the south pole,
the unit square, a0 > 0 on the hyperboloid) go through
:func:`core.require`, so a batch raises what the single call raises and
names the first failing case.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    EUCLIDEAN4,
    SPACETIME13,
    Multivector,
    Signature,
    close,
    exponent,
    fields_equal,
    freeze,
    geometric_product,
    require,
    reverse,
    scalar_product,
    vector_square,
)
from .errors import DomainViolation, NonFiniteValue, NotAVector, PoleSingularity


@dataclass(frozen=True)
class PlanePoint:
    """Chart point: ``x[..., :]`` holds the components on the three non-pole
    generators in one read-only array, a view of the array it is given;
    leading axes index the cases of a batch."""

    x: np.ndarray
    __eq__ = fields_equal

    def __post_init__(self) -> None:
        freeze(self, "x", self.x, (3,))

    @staticmethod
    def of(*components: float) -> "PlanePoint":
        """From three components, numbers or per-case arrays that broadcast."""
        x = np.empty((*np.broadcast_shapes(*map(np.shape, components)), 3))
        x[..., 0], x[..., 1], x[..., 2] = components
        return PlanePoint(x)

    @property
    def norm2(self) -> float:
        return np.vecdot(self.x, self.x)

    def as_vector(self, signature: Signature) -> Multivector:
        """Grade-1 element with zero pole component."""
        return Multivector(signature, self.x @ _VECTOR[1:])


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
#: Row k is the blade of generator k: ``comps @ _VECTOR`` is the vector with
#: components ``comps`` (pole first) in either 16-blade algebra.
_VECTOR = np.eye(16)[[1, 2, 4, 8]]
_VECTOR.setflags(write=False)
#: Row k is e_k pole = -e_0k in Cl(4,0) and Cl(1,3) alike (distinct generators anticommute).
_POLE = 0.0 - np.eye(16)[[3, 5, 9]]  # +0.0 off the blades, as the products give
_POLE.setflags(write=False)


# ------------------------------------------------------------------ sphere


def lift_sphere(x: PlanePoint) -> SpherePoint:
    """x in R^3 -> ((1 - x^2) e0 + 2x) / (1 + x^2) on S^3, as ((s^2 - y^2) e0 +
    2 s y) / (s^2 + y^2) on y = s x, with s <= 1 the power of two that brings the
    largest |x_k| below 1: every rounding is the unscaled form's, but y^2 cannot
    overflow (|x| = 1e200 lifts to -e0 + 2e-200 e1)."""
    n = np.minimum(-exponent(x.x), 0)  # s = 2^n
    s, y = np.ldexp(1.0, n), np.ldexp(x.x, n)
    s2, r2 = s * s, np.vecdot(y, y, keepdims=True)
    d = s2 + r2
    comps = np.concatenate([s2 - r2, 2.0 * y * s], axis=-1) / d
    return SpherePoint(Multivector(EUCLIDEAN4, comps @ _VECTOR))


def project_sphere(a: SpherePoint) -> PlanePoint:
    """Stereographic projection from -e0; the chart point a / (1 + a0).

    On the southern half 1 + a0 cancels, so it is taken as |a|^2 / (1 - a0),
    which keeps full relative accuracy up to the pole, where it is 0.  There
    the chart point is (y 2^n) / (y^2 / (1 - a0)) on y = a 2^n, with -n the
    :func:`core.exponent` of the a_k: the roundings are the unscaled form's,
    but y^2 does not underflow for lifts of |x| beyond 1e154.
    """
    c = a.a_hat.coeffs
    rest = c.take(_CHART_MASKS, -1)
    a0 = c[..., 1:2]
    north = a0 >= 0.0
    n = np.where(north, 0, -exponent(rest))
    y = np.ldexp(rest, n)
    denom = np.where(north, 1.0 + a0, np.vecdot(y, y, keepdims=True) / (1.0 + np.abs(a0)))
    require(denom[..., 0] != 0.0, PoleSingularity, "projection undefined at the south pole")
    return PlanePoint(np.ldexp(y, n) / denom)


def sphere_angle(x: PlanePoint) -> float:
    """Angle theta = 2 atan|x| in [0, pi] from the pole to the lifted point
    (atan2(2|x|, 1 - x^2) gives 3 pi/4 once x^2 overflows)."""
    return 2.0 * np.arctan(np.hypot.reduce(x.x, axis=-1))


def _pole_rotor(x: PlanePoint, signature: Signature, norm: float) -> Multivector:
    """(1 + x pole) / norm, x pole over the rows of ``_POLE``, with norm =
    sqrt(1 + x^2) on the sphere and sqrt(1 - x^2) on the hyperboloid: the closed
    form of exp(angle xhat pole / 2).  It shares the lift's denominator, so R pole R~
    matches the lift to the edge of the ball, where the angle route loses 1 - |x|."""
    c = x.x @ _POLE
    c[..., 0] = 1.0
    return Multivector(signature, c / np.asarray(norm)[..., None])


def sphere_rotor(x: PlanePoint) -> Multivector:
    """Rotor R with R e0 R~ = lift_sphere(x); identity at the origin."""
    # nested hypot: no overflow for huge |x|
    return _pole_rotor(x, EUCLIDEAN4, np.hypot.reduce(x.x, axis=-1, initial=1.0))


@np.errstate(over="ignore", invalid="ignore")  # NonFiniteValue past the float range, not a warning
def sphere_metric(x: PlanePoint, dx: Sequence[float]) -> tuple[Multivector, float]:
    """Closed-form differential of the lift and its square.

    da = (2 (1+x^2) dx - 4 (x + e0) (x . dx)) / (1+x^2)^2 and
    (da)^2 = 4 dx^2 / (1+x^2)^2, on the scaled y = k x of :func:`lift_sphere`.
    """
    n = np.minimum(-exponent(x.x), 0)
    y = PlanePoint(np.ldexp(x.x, n))
    return _lift_differential(y, np.ldexp(1.0, n[..., 0]), y.norm2, dx, EUCLIDEAN4, 1.0)


def _lift_differential(y: PlanePoint, k: float, r2: float, dx: Sequence[float],
                       signature: Signature, s: float):
    """da = k^2 (2 d dx - 4 s (y + k pole) (y . dx)) / d^2 and (da)^2, d = k^2 + s r2, r2 = y^2:
    the lift's differential at x = y / k, every term scaled exactly by the power of two k; s = 1
    on the sphere, -1 on the hyperboloid; dx on the last axis; NonFiniteValue on overflow."""
    d = k * k + s * r2
    dx = PlanePoint(dx)
    m = y.as_vector(signature) + Multivector.basis(signature, 0) * k
    num = 2.0 * d * dx.as_vector(signature) - (4.0 * s * np.vecdot(y.x, dx.x)) * m
    da = k * (k * num / (d * d))  # one rounding where da is subnormal
    sq = scalar_product(da, da)
    require(np.isfinite(sq), NonFiniteValue, "(da)^2 overflows")
    return da, sq


# -------------------------------------------------------------- hyperboloid


@np.errstate(over="ignore")  # an overflowing x^2 is outside the ball, not a warning
def _check_open_ball(x: PlanePoint) -> float:
    """x^2, the hyperbolic chart's one square of x: DomainViolation unless x^2 < 1."""
    r2 = x.norm2
    require(r2 < 1.0, DomainViolation, "hyperbolic chart requires |x| < 1 strictly")  # x is finite
    return r2


def lift_hyper(x: PlanePoint) -> HyperPoint:
    """x in the open unit ball -> ((1 + x^2) g0 + 2x) / (1 - x^2) on L^3."""
    r2 = _check_open_ball(x)[..., None]
    comps = np.concatenate([1.0 + r2, 2.0 * x.x], axis=-1) / (1.0 - r2)
    return HyperPoint(Multivector(SPACETIME13, comps @ _VECTOR))


def project_hyper(a: HyperPoint) -> PlanePoint:
    """Chart point a / (1 + a0) of a hyperboloid point; total on L^3."""
    c = a.a_hat.coeffs
    return PlanePoint(c.take(_CHART_MASKS, -1) / (1.0 + c[..., 1:2]))


def hyper_angle(x: PlanePoint) -> float:
    """Hyperbolic angle phi = 2 atanh|x| >= 0 between g0 and the lifted point
    (the form atanh(2|x|/(1+x^2)) rounds its argument to 1 near the edge)."""
    _check_open_ball(x)
    return 2.0 * np.arctanh(np.hypot.reduce(x.x, axis=-1))


def hyper_boost(x: PlanePoint) -> Multivector:
    """Boost R with R g0 R~ = lift_hyper(x); identity at the origin."""
    return _pole_rotor(x, SPACETIME13, np.sqrt(1.0 - _check_open_ball(x)))


def hyper_metric(x: PlanePoint, dx: Sequence[float]) -> tuple[Multivector, float]:
    """Closed-form differential of the hyperbolic lift and its square.

    da = (2 (1-x^2) dx + 4 (x + g0) (x . dx)) / (1-x^2)^2 and
    (da)^2 = -4 dx^2 / (1-x^2)^2; the sign flip is the hyperbolic metric.
    """
    return _lift_differential(x, 1.0, _check_open_ball(x), dx, SPACETIME13, -1.0)


def rotor_apply(rotor: Multivector, a: Multivector) -> Multivector:
    """Two-sided sandwich R a R~."""
    return geometric_product(geometric_product(rotor, a), reverse(rotor))
