import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaspin.core import (
    EUCLIDEAN4,
    SPACETIME13,
    Multivector,
    dot,
    exp_blade,
    geometric_product,
    residual,
    reverse,
)
from gaspin.errors import DomainViolation, PoleSingularity
from gaspin.stereo import (
    PlanePoint,
    SpherePoint,
    hyper_angle,
    hyper_boost,
    hyper_metric,
    lift_hyper,
    lift_sphere,
    project_hyper,
    project_sphere,
    rotor_apply,
    sphere_angle,
    sphere_metric,
    sphere_rotor,
)

from conftest import allclose


def rand_ball(rng, rmax=0.95):
    v = rng.uniform(-1, 1, size=3)
    n = np.linalg.norm(v)
    r = rmax * rng.uniform(0.01, 1.0)
    return PlanePoint(v / n * r)


_DIRECTIONS = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda d: sum(c * c for c in d) > 1e-2
)


def on_ray(direction, r):
    n = math.sqrt(sum(c * c for c in direction))
    return PlanePoint(tuple(c / n * r for c in direction))


def rand_plane(rng, scale=3.0):
    return PlanePoint(rng.uniform(-scale, scale, size=3))


E0 = Multivector.basis(EUCLIDEAN4, 0)
G0 = Multivector.basis(SPACETIME13, 0)


# -------------------------------------------------------------------- sphere


def test_lift_sphere_examples():
    assert allclose(lift_sphere(PlanePoint.of(0, 0, 0)).a_hat, E0)
    assert allclose(
        lift_sphere(PlanePoint.of(1, 0, 0)).a_hat, Multivector.basis(EUCLIDEAN4, 1)
    )
    got = lift_sphere(PlanePoint.of(0, 3, 0)).a_hat
    want = Multivector.vector(EUCLIDEAN4, [-0.8, 0.0, 0.6, 0.0])
    assert residual(got, want) <= 1e-15
    assert abs(geometric_product(got, got).scalar_part - 1.0) <= 1e-15


def test_project_sphere_examples():
    assert project_sphere(SpherePoint(E0)) == PlanePoint.of(0, 0, 0)
    e1 = Multivector.basis(EUCLIDEAN4, 1)
    assert project_sphere(SpherePoint(e1)) == PlanePoint.of(1, 0, 0)
    with pytest.raises(PoleSingularity):
        project_sphere(SpherePoint(-E0))


def test_full_projection_point_m(rng):
    # m = 2/(a^ + pole) = x_m + pole satisfies m . pole = 1; the inverse is
    # evaluated with the core vector inverse as an independent route.
    from gaspin.core import vector_inverse

    for _ in range(100):
        x = rand_plane(rng)
        a = lift_sphere(x).a_hat
        m = 2.0 * vector_inverse(a + E0)
        assert abs(dot(m, E0) - 1.0) <= 1e-12
        assert np.allclose(m.vector_components()[1:], x.x, atol=1e-10)
        xh = rand_ball(rng)
        ah = lift_hyper(xh).a_hat
        mh = 2.0 * vector_inverse(ah + G0)
        assert abs(dot(mh, G0) - 1.0) <= 1e-12
        assert np.allclose(mh.vector_components()[1:], xh.x, atol=1e-10)


def test_trig_identities_exact_rational():
    # With rational |x| the closed forms are rational and the identities
    # hold exactly, not just to float tolerance.
    from fractions import Fraction

    for r in (Fraction(1, 2), Fraction(3, 4), Fraction(7, 3), Fraction(12, 5)):
        r2 = r * r
        c = (1 - r2) / (1 + r2)
        s = 2 * r / (1 + r2)
        assert c * c + s * s == 1
        if r < 1:
            ch = (1 + r2) / (1 - r2)
            sh = 2 * r / (1 - r2)
            assert ch * ch - sh * sh == 1


def test_sphere_roundtrips(rng):
    for _ in range(500):
        x = rand_plane(rng)
        back = project_sphere(lift_sphere(x))
        assert max(abs(a - b) for a, b in zip(back.x, x.x)) <= 1e-10
        a = lift_sphere(x).a_hat
        assert abs(geometric_product(a, a).scalar_part - 1.0) <= 1e-12


def test_sphere_rotor_examples():
    assert allclose(sphere_rotor(PlanePoint.of(0, 0, 0)), Multivector.scalar(EUCLIDEAN4, 1.0))
    x = PlanePoint.of(1, 0, 0)
    assert abs(sphere_angle(x) - math.pi / 2) <= 1e-15
    r = sphere_rotor(x)
    e1e0 = geometric_product(Multivector.basis(EUCLIDEAN4, 1), E0)
    want = (Multivector.scalar(EUCLIDEAN4, 1.0) + e1e0) / math.sqrt(2.0)
    assert residual(r, want) <= 1e-15
    assert allclose(rotor_apply(r, E0), Multivector.basis(EUCLIDEAN4, 1))


def test_sphere_rotor_sandwich_and_unitarity(rng):
    for _ in range(500):
        x = rand_plane(rng)
        r = sphere_rotor(x)
        assert residual(rotor_apply(r, E0), lift_sphere(x).a_hat) <= 1e-10
        assert residual(r * reverse(r), Multivector.scalar(EUCLIDEAN4, 1.0)) <= 1e-12


def test_sphere_one_sided_and_two_sided_rotor_forms_agree(rng):
    # a = m^ e0 m^ = exp(theta B) e0 = ((m^ e0)^2) e0 = R e0 R~ ; all four
    # routes are computed independently and compared.
    for _ in range(200):
        x = rand_plane(rng)
        m = x.as_vector(EUCLIDEAN4) + E0
        mhat = m / math.sqrt(geometric_product(m, m).scalar_part)
        via_mhat = geometric_product(geometric_product(mhat, E0), mhat)
        r = math.sqrt(x.norm2)
        xhat = PlanePoint(x.x / r).as_vector(EUCLIDEAN4)
        B = geometric_product(xhat, E0)
        via_exp = geometric_product(exp_blade(sphere_angle(x) * B), E0)
        me0 = geometric_product(mhat, E0)
        via_square = geometric_product(geometric_product(me0, me0), E0)
        via_sandwich = rotor_apply(sphere_rotor(x), E0)
        for got in (via_exp, via_square, via_sandwich):
            assert residual(via_mhat, got) <= 1e-12


def test_sphere_metric_examples():
    _, ds2 = sphere_metric(PlanePoint.of(0, 0, 0), (1, 0, 0))
    assert abs(ds2 - 4.0) <= 1e-15
    _, ds2 = sphere_metric(PlanePoint.of(1, 0, 0), (0, 1, 0))
    assert abs(ds2 - 1.0) <= 1e-15


def test_sphere_metric_tangency_and_fd(rng):
    h = 1e-5
    for _ in range(200):
        x = rand_plane(rng, scale=2.0)
        dx = rng.uniform(-1, 1, size=3)
        da, ds2 = sphere_metric(x, dx)
        a = lift_sphere(x).a_hat
        assert abs(dot(da, a)) <= 1e-12
        # closed form vs rational formula
        want = 4.0 * float(dx @ dx) / (1.0 + x.norm2) ** 2
        assert abs(ds2 - want) <= 1e-12 * max(1.0, abs(want))
        # central finite differences of the lift
        xp, xm = PlanePoint(x.x + h * dx), PlanePoint(x.x - h * dx)
        da_fd = (lift_sphere(xp).a_hat - lift_sphere(xm).a_hat) / (2.0 * h)
        ds2_fd = geometric_product(da_fd, da_fd).scalar_part
        assert abs(ds2_fd - ds2) <= 1e-6 * max(1.0, abs(ds2))
        assert residual(da_fd, da) <= 1e-6 * max(1.0, da.max_abs())


# --------------------------------------------------------------- hyperboloid


def test_lift_hyper_examples():
    assert allclose(lift_hyper(PlanePoint.of(0, 0, 0)).a_hat, G0)
    got = lift_hyper(PlanePoint.of(0.5, 0, 0)).a_hat
    want = Multivector.vector(SPACETIME13, [5.0 / 3.0, 4.0 / 3.0, 0.0, 0.0])
    assert residual(got, want) <= 1e-15
    assert abs(geometric_product(got, got).scalar_part - 1.0) <= 1e-15
    with pytest.raises(DomainViolation):
        lift_hyper(PlanePoint.of(1, 0, 0))
    with pytest.raises(DomainViolation):
        lift_hyper(PlanePoint.of(0.8, 0.8, 0))


def test_hyper_roundtrips(rng):
    for _ in range(500):
        x = rand_ball(rng)
        back = project_hyper(lift_hyper(x))
        assert max(abs(a - b) for a, b in zip(back.x, x.x)) <= 1e-10
        a = lift_hyper(x).a_hat
        assert abs(geometric_product(a, a).scalar_part - 1.0) <= 1e-12
        assert a.coefficient(1) >= 1.0


def test_hyper_boost_examples():
    assert allclose(hyper_boost(PlanePoint.of(0, 0, 0)), Multivector.scalar(SPACETIME13, 1.0))
    phi = hyper_angle(PlanePoint.of(0.5, 0, 0))
    assert abs(math.cosh(phi) - 5.0 / 3.0) <= 1e-12
    assert abs(math.sinh(phi) - 4.0 / 3.0) <= 1e-12
    r = hyper_boost(PlanePoint.of(0.5, 0, 0))
    assert allclose(rotor_apply(r, G0), lift_hyper(PlanePoint.of(0.5, 0, 0)).a_hat)


def test_hyper_boost_sandwich_and_identities(rng):
    for _ in range(500):
        x = rand_ball(rng)
        r = hyper_boost(x)
        assert residual(rotor_apply(r, G0), lift_hyper(x).a_hat) <= 1e-10
        assert residual(r * reverse(r), Multivector.scalar(SPACETIME13, 1.0)) <= 1e-12
        r2 = x.norm2
        ch = (1.0 + r2) / (1.0 - r2)
        sh = 2.0 * math.sqrt(r2) / (1.0 - r2)
        assert abs(ch * ch - sh * sh - 1.0) <= 1e-12 * max(1.0, ch * ch)


def test_hyper_one_sided_and_two_sided_forms_agree(rng):
    for _ in range(200):
        x = rand_ball(rng)
        m = x.as_vector(SPACETIME13) + G0
        msq = geometric_product(m, m).scalar_part
        mhat = m / math.sqrt(msq)
        via_mhat = geometric_product(geometric_product(mhat, G0), mhat)
        mg0 = geometric_product(mhat, G0)
        via_square = geometric_product(geometric_product(mg0, mg0), G0)
        via_sandwich = rotor_apply(hyper_boost(x), G0)
        assert residual(via_mhat, via_square) <= 1e-12
        assert residual(via_mhat, via_sandwich) <= 1e-12


def test_hyper_metric_examples():
    _, ds2 = hyper_metric(PlanePoint.of(0, 0, 0), (1, 0, 0))
    assert abs(ds2 + 4.0) <= 1e-15
    _, ds2 = hyper_metric(PlanePoint.of(0.5, 0, 0), (0, 1, 0))
    assert abs(ds2 + 64.0 / 9.0) <= 1e-12
    with pytest.raises(DomainViolation):
        hyper_metric(PlanePoint.of(1.2, 0, 0), (1, 0, 0))


def test_hyper_metric_tangency_and_fd(rng):
    h = 1e-5
    for _ in range(200):
        x = rand_ball(rng, rmax=0.8)
        dx = rng.uniform(-1, 1, size=3)
        da, ds2 = hyper_metric(x, dx)
        a = lift_hyper(x).a_hat
        assert abs(dot(da, a)) <= 1e-10 * max(1.0, da.max_abs()) ** 2
        want = -4.0 * float(dx @ dx) / (1.0 - x.norm2) ** 2
        assert abs(ds2 - want) <= 1e-12 * max(1.0, abs(want))
        xp, xm = PlanePoint(x.x + h * dx), PlanePoint(x.x - h * dx)
        da_fd = (lift_hyper(xp).a_hat - lift_hyper(xm).a_hat) / (2.0 * h)
        ds2_fd = geometric_product(da_fd, da_fd).scalar_part
        assert abs(ds2_fd - ds2) <= 1e-6 * max(1.0, abs(ds2))


# ------------------------------------------------------------- chart edges


@pytest.mark.parametrize("r", [0.5, 1e-100, 1e-160, 1e-170, 1e-300, 5e-324])
def test_hyper_angle_near_the_origin(r):
    # |x| is read unsquared: below 1e-154, where x^2 underflows, 2 atanh|x| = 2|x| > 0
    for x in (PlanePoint.of(r, 0, 0), PlanePoint.of(0, r, r)):
        want = 2.0 * math.atanh(math.hypot(*x.x))
        assert hyper_angle(x) == pytest.approx(want, rel=1e-15, abs=0) and want > 0


@settings(max_examples=100, deadline=None)
@given(st.floats(-10.0, math.log10(5e-2)), _DIRECTIONS)
def test_hyper_roundtrip_to_the_edge(log_gap, direction):
    # 1 - |x| from 1e-10 to 5e-2: the lift is accepted and the round trip
    # is exact to 4 ulp of 1, although a0 = (1 + x^2)/(1 - x^2) reaches 1e10
    x = on_ray(direction, 1.0 - 10.0 ** log_gap)
    back = project_hyper(lift_hyper(x))
    assert max(abs(a - b) for a, b in zip(back.x, x.x)) <= 4 * math.ulp(1.0)
    assert hyper_angle(x) == pytest.approx(math.acosh(lift_hyper(x).a_hat.coefficient(1)), rel=1e-6)
    # the boost shares the lift's 1 - x^2, so the sandwich is exact to rounding
    a = lift_hyper(x).a_hat
    assert residual(rotor_apply(hyper_boost(x), G0), a) <= 4 * math.ulp(1.0) * a.abs_sum()


@settings(max_examples=100, deadline=None)
@given(st.floats(math.log10(5.0), 8.0), _DIRECTIONS)
def test_sphere_roundtrip_near_the_pole(log_r, direction):
    # |x| from 5 to 1e8 lifts next to the south pole; 1 + a0 is taken
    # without cancellation, so the round trip is relatively exact to 4 ulp
    x = on_ray(direction, 10.0 ** log_r)
    back = project_sphere(lift_sphere(x))
    r = math.sqrt(x.norm2)
    assert max(abs(a - b) for a, b in zip(back.x, x.x)) <= 4 * math.ulp(1.0) * r
    a = lift_sphere(x).a_hat
    assert residual(rotor_apply(sphere_rotor(x), E0), a) <= 4 * math.ulp(1.0) * a.abs_sum()


@settings(max_examples=100, deadline=None)
@given(st.floats(150.0, 300.0), _DIRECTIONS)
def test_sphere_lift_where_x_squared_overflows(log_r, direction):
    # |x| from 1e150 to 1e300, where x^2 overflows above 1.3e154: the lift
    # matches ((1 - x^2) e0 + 2x) / (1 + x^2) in exact rationals to 4 ulp, and
    # the angle from the pole is pi
    x = on_ray(direction, 10.0 ** log_r)
    d = 1 + sum(Fraction(c) ** 2 for c in x.x)
    want = [float((2 - d) / d)] + [float(2 * Fraction(c) / d) for c in x.x]
    a = lift_sphere(x).a_hat
    got = a.vector_components()
    assert got[0] == want[0] == -1.0
    assert all(abs(g - w) <= 4 * math.ulp(w) for g, w in zip(got[1:], want[1:]))
    assert sphere_angle(x) == math.pi
    assert residual(rotor_apply(sphere_rotor(x), E0), a) <= 4 * math.ulp(1.0) * a.abs_sum()


def pole_rotor_by_products(x, signature, norm):
    """(1 + x pole) / norm with the product x pole formed: the route the fixed
    pole frame replaces."""
    return (1.0 + geometric_product(x.as_vector(signature), Multivector.basis(signature, 0))) / norm


def test_pole_rotors_have_the_bits_of_the_products(rng):
    # one case and a (50, 3) batch; the origin, |x| = 1e200 on the sphere and
    # 1 - |x| = 1e-10 in the ball
    d = rng.normal(size=(50, 3))
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    plane = [np.zeros(3), np.array([1e200, 0.0, 0.0]), 1e200 * d[0], rng.uniform(-3, 3, 3),
             rng.uniform(-3, 3, (50, 3)), 1e200 * d]
    ball = [np.zeros(3), (1.0 - 1e-10) * d[0], 0.9 * d[1], rng.uniform(-0.5, 0.5, (50, 3)),
            (1.0 - 1e-10) * d]
    for x in map(PlanePoint, plane):
        want = pole_rotor_by_products(x, EUCLIDEAN4, np.hypot.reduce(x.x, axis=-1, initial=1.0))
        assert np.array_equal(sphere_rotor(x).coeffs.view(np.int64), want.coeffs.view(np.int64))
    for x in map(PlanePoint, ball):
        want = pole_rotor_by_products(x, SPACETIME13, np.sqrt(1.0 - x.norm2))
        assert np.array_equal(hyper_boost(x).coeffs.view(np.int64), want.coeffs.view(np.int64))


def test_sphere_roundtrip_where_the_lift_underflows():
    # the lift of |x| beyond about 1.3e154 has |a - a0 e0|^2 below the
    # smallest double; the projection scales those components by a power of
    # two first, so the round trip holds to 1e-15 relative, case by case and
    # as one batch
    radii = np.array([1e150, 1e155, 1e160, 1e200, 1e300])
    directions = np.array([[1.0, 0.0, 0.0], [0.6, -0.8, 0.0], [0.0, 0.28, 0.96]])
    points = (radii[:, None, None] * directions).reshape(-1, 3)
    bound = 1e-15 * np.repeat(radii, len(directions))
    for p, b in zip(points, bound):
        back = project_sphere(lift_sphere(PlanePoint(p))).x
        assert np.max(np.abs(back - p)) <= b
    back = project_sphere(lift_sphere(PlanePoint(points))).x
    assert np.all(np.max(np.abs(back - points), axis=1) <= bound)


@pytest.mark.parametrize("components", [
    (0.5, -0.25, 0.5),
    (1, 0, 0),
    (np.linspace(-2.0, 2.0, 5), 0.0, 0.0),
    (np.arange(3.0)[:, None], np.arange(4.0), 2.0),
    ([0.1, 0.2], [[1.0], [2.0], [3.0]], np.float32(0.3)),
    (np.ones((2, 1, 3)), np.zeros((4, 1)), np.arange(3)),
])
def test_plane_point_of_is_the_stacked_broadcast(components):
    x = PlanePoint.of(*components).x
    want = np.stack(np.broadcast_arrays(*components), axis=-1).astype(float)
    assert x.dtype == want.dtype and x.shape == want.shape and np.array_equal(x, want)
    assert not x.flags.writeable


@pytest.mark.parametrize("components", [(0.5, 0.5), (1.0, 0.0, 0.0, 0.0),
                                        (np.ones(3), np.ones(3)), (np.ones(2),) * 4])
def test_plane_point_of_needs_three_components(components):
    with pytest.raises(ValueError):
        PlanePoint.of(*components)
