"""Batch semantics: a batch of N cases equals N single calls, at every layer.

Exact where the arithmetic is exact (integer and Gaussian-integer operands,
elementwise maps); within 4 ulp of the operand scale where a batch sums in
another order than a single call.  The blade-product sums stay the
independent route for the batched product.  A batch with one out-of-domain
case raises what the single call on that case raises, and names the case.
"""
import numpy as np
import pytest

from conftest import ALL_SIGNATURES
from gaspin import dirac, quatspinor, spinors, stereo
from gaspin.core import (
    EUCLIDEAN4,
    PAULI3,
    SPACETIME13,
    Multivector,
    blade_product,
    exp_blade,
    geometric_product,
    grade_select,
    reverse,
    unstack,
    vector_inverse,
    vector_square,
)
from gaspin.errors import (
    DegenerateState,
    DomainViolation,
    NonFiniteValue,
    NonScalarSquare,
    NonTimelike,
    NotAVector,
    NotInIdeal,
    NotInSubalgebra,
    NotOrthogonal,
    NullVector,
    PoleSingularity,
    ZeroQ0,
)
from gaspin.isomap import AlgebraTag, euclidean_to_spacetime, spacetime_to_euclidean
from gaspin.quatrep import (QuatMatrix2, Quaternion, quat_mul, rep_pss, rep_vec, unrep_pss,
                            unrep_vec)

EPS = np.finfo(float).eps
SHAPES = ((7,), (3, 4))
KINDS = ("integer", "gaussian", "float")


def operands(rng, shape, width, kind):
    size = (*shape, width)
    if kind == "integer":
        return rng.integers(-3, 4, size).astype(float)
    if kind == "gaussian":
        return rng.integers(-3, 4, size) + 1j * rng.integers(-3, 4, size)
    return rng.uniform(-1.0, 1.0, size)


def per_case(fn, shape, *batches):
    """fn applied to each case on its own; an operand with one axis fewer
    than the batch is the same single case for every case."""
    out = None
    for k in np.ndindex(*shape):
        value = np.asarray(fn(*(b[k] if b.ndim > 1 else b for b in batches)))
        if out is None:
            out = np.empty((*shape, *value.shape), dtype=value.dtype)
        out[k] = value
    return out


def assert_matches(got, want, kind, scale):
    if kind == "float":
        assert np.all(np.abs(got - want) <= 4 * EPS * scale)
    else:
        assert np.array_equal(got, want)


def scale_of(*batches):
    """Operand scale per case: the product of the coefficient sums."""
    out = 1.0
    for b in batches:
        out = out * np.sum(np.abs(b), axis=-1)
    return np.asarray(out)[..., None]


@pytest.mark.parametrize("sig", ALL_SIGNATURES, ids=lambda s: "".join(s.generator_labels))
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("kind", KINDS)
def test_product_batch_equals_single_calls(rng, sig, shape, kind):
    a, b = operands(rng, shape, sig.dim, kind), operands(rng, shape, sig.dim, kind)
    single_a, single_b = a[(0,) * len(shape)], b[(0,) * len(shape)]
    for x, y in ((a, b), (a, single_b), (single_a, b)):
        got = geometric_product(Multivector(sig, x), Multivector(sig, y)).coeffs
        want = per_case(lambda u, v: (Multivector(sig, u) * Multivector(sig, v)).coeffs,
                        shape, x, y)
        assert got.shape == (*shape, sig.dim)
        assert_matches(got, want, kind, scale_of(x, y))


@pytest.mark.parametrize("sig", ALL_SIGNATURES, ids=lambda s: "".join(s.generator_labels))
@pytest.mark.parametrize("kind", ("integer", "gaussian"))
def test_batch_product_matches_blade_sums(rng, sig, kind):
    a, b = operands(rng, (5,), sig.dim, kind), operands(rng, (5,), sig.dim, kind)
    got = geometric_product(Multivector(sig, a), Multivector(sig, b)).coeffs
    for n in range(5):
        want = np.zeros(sig.dim, dtype=got.dtype)
        for i in range(sig.dim):
            for j in range(sig.dim):
                sign, mask = blade_product(i, j, sig)
                want[mask] += sign * a[n, i] * b[n, j]
        assert np.array_equal(got[n], want)


def test_product_blocks_cover_large_batches(rng):
    # more cases than one 128 KB block holds, complex and real
    for kind in ("integer", "gaussian"):
        a, b = operands(rng, (300,), 16, kind), operands(rng, (300,), 16, kind)
        got = geometric_product(Multivector(SPACETIME13, a), Multivector(SPACETIME13, b)).coeffs
        want = per_case(lambda u, v: geometric_product(Multivector(SPACETIME13, u),
                                                       Multivector(SPACETIME13, v)).coeffs,
                        (300,), a, b)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("sig", ALL_SIGNATURES, ids=lambda s: "".join(s.generator_labels))
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("kind", KINDS)
def test_reverse_and_grade_select_batch_equals_single_calls(rng, sig, shape, kind):
    a = operands(rng, shape, sig.dim, kind)
    assert np.array_equal(reverse(Multivector(sig, a)).coeffs,
                          per_case(lambda u: reverse(Multivector(sig, u)).coeffs, shape, a))
    for grades in ({0}, {1, 2}, set(range(sig.n + 1))):
        got = grade_select(Multivector(sig, a), grades).coeffs
        want = per_case(lambda u: grade_select(Multivector(sig, u), grades).coeffs, shape, a)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("kind", KINDS)
def test_fixed_maps_batch_equal_single_calls(rng, shape, kind):
    maps = (
        (EUCLIDEAN4, euclidean_to_spacetime),
        (SPACETIME13, spacetime_to_euclidean),
    )
    for sig, f in maps:
        g = operands(rng, shape, sig.dim, kind)
        got = f(Multivector(sig, g)).coeffs
        assert_matches(got, per_case(lambda u: f(Multivector(sig, u)).coeffs, shape, g), kind,
                       scale_of(g))
    if kind == "gaussian":  # the quaternion matrices are real
        return
    g = operands(rng, shape, 16, kind)
    for rep, unrep in ((rep_vec, unrep_vec), (rep_pss, unrep_pss)):
        got = rep(Multivector(EUCLIDEAN4, g)).coeffs
        want = per_case(lambda u: rep(Multivector(EUCLIDEAN4, u)).coeffs, shape, g)
        assert got.shape == (*shape, 2, 2, 4)
        assert_matches(got, want, kind, scale_of(g)[..., None, None])
        m = operands(rng, shape, 16, kind).reshape(*shape, 2, 2, 4)
        got = unrep(QuatMatrix2(m)).coeffs
        want = per_case(lambda u: unrep(QuatMatrix2(u.reshape(2, 2, 4))).coeffs, shape,
                        m.reshape(*shape, 16))
        assert_matches(got, want, kind, scale_of(m.reshape(*shape, 16)))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("kind", ("integer", "float"))
def test_quaternions_batch_equal_single_calls(rng, shape, kind):
    a, b = operands(rng, shape, 4, kind), operands(rng, shape, 4, kind)
    single_a = a[(0,) * len(shape)]

    def mul(u, v):
        return quat_mul(Quaternion.from_coords(u), Quaternion.from_coords(v)).coords()

    for x, y in ((a, b), (single_a, b)):
        got = quat_mul(Quaternion.from_coords(x), Quaternion.from_coords(y)).coords()
        assert np.array_equal(got, per_case(mul, shape, x, y))
    got = Quaternion.from_coords(a).to_multivector().coeffs
    want = per_case(lambda u: Quaternion.from_coords(u).to_multivector().coeffs, shape, a)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("kind", ("integer", "float"))
def test_spinor_carriers_batch_equal_single_calls(rng, shape, kind):
    # the fixed maps on batches; from_chart (a0 = 1), from_bloch_point (q0 = 1)
    # and the rows with a literal leave a field one number for every case
    def check(fn, width):
        c = operands(rng, shape, width, kind)
        assert_matches(fn(c), per_case(fn, shape, c), kind, scale_of(c))

    for tag in (AlgebraTag.PAULI3, AlgebraTag.MINKOWSKI12):
        def carrier(a0, a1):
            return spinors.to_multivector(spinors.IdealSpinor(tag, a0, a1)).coeffs

        check(lambda u: carrier(spinors.CenterScalar(u[..., 0], u[..., 1]),
                                spinors.CenterScalar(u[..., 2], u[..., 3])), 4)
        check(lambda u: carrier(spinors.CenterScalar(0.5, u[..., 0]),
                                spinors.CenterScalar(u[..., 1], u[..., 2])), 3)
        check(lambda u: spinors.to_multivector(
            spinors.IdealSpinor.from_chart(tag, unstack(u))).coeffs, 2)
        check(lambda u: spinors.CenterScalar(*unstack(u)).embed(tag).coeffs, 2)
        check(lambda u: spinors.CenterScalar(u[..., 0], -0.5).embed(tag).coeffs, 1)
    for tag in (AlgebraTag.SPACETIME13, AlgebraTag.EUCLIDEAN4):
        check(lambda u: quatspinor.image(quatspinor.from_carrier_coords(u, tag)).coeffs, 8)
        check(lambda u: quatspinor.image(quatspinor.QuatSpinor.from_bloch_point(u, tag)).coeffs, 3)
    check(lambda u: quatspinor.embed_spacetime(Quaternion.from_coords(u)).coeffs, 4)
    check(lambda u: quatspinor.embed_spacetime(Quaternion(0.5, (u[..., 0], 0.0, u[..., 1]))).coeffs,
          2)
    check(lambda u: dirac.dirac_to_geometric(dirac.DiracSpinor.from_reals(u)).coeffs, 8)
    check(lambda u: dirac.qspinor_to_geometric(quatspinor.QuatSpinor.from_bloch_point(u)).coeffs, 3)


def _chart(c):
    """Chart points from rows of three components (one row: one case)."""
    return stereo.PlanePoint(unstack(np.asarray(c, dtype=float)))


def _ball(rng, shape, rmax):
    v = rng.uniform(-1.0, 1.0, (*shape, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True) * rng.uniform(0.0, rmax, (*shape, 1))


@pytest.mark.parametrize("shape", SHAPES)
def test_stereo_batch_equals_single_calls(rng, shape):
    # the sphere chart box reaches the southern half (|x| > 1); the ball
    # reaches 1 - |x| = 1e-3
    x, xh = rng.uniform(-3.0, 3.0, (*shape, 3)), _ball(rng, shape, 0.999)
    dx = rng.uniform(-1.0, 1.0, (*shape, 3))
    charts = (
        (x, EUCLIDEAN4, stereo.lift_sphere, stereo.SpherePoint, stereo.project_sphere,
         stereo.sphere_rotor, stereo.sphere_angle, stereo.sphere_metric),
        (xh, SPACETIME13, stereo.lift_hyper, stereo.HyperPoint, stereo.project_hyper,
         stereo.hyper_boost, stereo.hyper_angle, stereo.hyper_metric),
    )
    for u, sig, lift, point, project, rotor, angle, metric in charts:
        def lifted(v):
            return lift(_chart(v)).a_hat.coeffs

        def back(c):
            return np.stack(project(point(Multivector(sig, c))).x, axis=-1)

        def rotor_of(v):
            return rotor(_chart(v)).coeffs

        def metric_of(v, w):
            da, ds2 = metric(_chart(v), unstack(w))
            return np.concatenate([da.coeffs, np.asarray(ds2)[..., None]], axis=-1)

        def sandwich(rc, ac):
            return stereo.rotor_apply(Multivector(sig, rc), Multivector(sig, ac)).coeffs

        a = lifted(u)
        assert np.array_equal(a, per_case(lifted, shape, u))
        assert_matches(back(a), per_case(back, shape, a), "float", scale_of(u))
        r = rotor_of(u)
        assert_matches(r, per_case(rotor_of, shape, u), "float", scale_of(r))
        want = per_case(lambda v: angle(_chart(v)), shape, u)
        assert_matches(angle(_chart(u)), want, "float", 1.0 + np.abs(want))
        got, want = metric_of(u, dx), per_case(metric_of, shape, u, dx)
        assert np.array_equal(got[..., :-1], want[..., :-1])  # da is elementwise
        assert_matches(got[..., -1:], want[..., -1:], "float", scale_of(got[..., :-1]) ** 2)
        # the pole against the batch, and two batches
        for b in (Multivector.basis(sig, 0).coeffs, a):
            assert_matches(sandwich(r, b), per_case(sandwich, shape, r, b), "float",
                           scale_of(r, b, r))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("sig", ALL_SIGNATURES, ids=lambda s: "".join(s.generator_labels))
def test_permute_generators_batch_equals_single_calls(rng, shape, sig):
    perm = tuple(range(sig.plus_count))[::-1] + tuple(range(sig.plus_count, sig.n))[::-1]
    a = operands(rng, shape, sig.dim, "float")

    def permute(c):
        return stereo.permute_generators(Multivector(sig, c), perm).coeffs

    assert np.array_equal(permute(a), per_case(permute, shape, a))


# ----------------------------------------------------- one bad case in a batch

def _vector(sig, comps):
    return Multivector.vector(sig, comps).coeffs


def _pauli_carrier(chart):
    return spinors.to_multivector(spinors.IdealSpinor.from_chart(AlgebraTag.PAULI3, chart)).coeffs


def _dirac_carrier(k):
    return dirac.dirac_to_geometric(dirac.DiracSpinor.from_reals(np.eye(8)[k])).coeffs


def _center_pair(c):
    return spinors.IdealSpinor(AlgebraTag.PAULI3, spinors.CenterScalar(c[..., 0], c[..., 1]),
                               spinors.CenterScalar(c[..., 2], c[..., 3]))


def _qspinor(c):
    return quatspinor.from_carrier_coords(np.asarray(c, dtype=float), AlgebraTag.SPACETIME13)


_TIMELIKE = [[1, 0, 0, 0, 0.1, 0, 0, 0], [0.5, 0.2, 0, 0, 0, 0.1, 0, 0],
             [1, 0, 0.3, 0, 0, 0, 0.2, 0], [0.8, 0, 0, 0.1, 0, 0, 0, 0.3]]
_BALL = [[0.1, 0.2, 0.3], [0.5, 0, 0], [0, 0, 0.99], [-0.3, 0.3, 0.3]]
# unit vectors on S^3, two of them on the southern half (a0 < 0)
_SPHERE = [stereo.lift_sphere(_chart(u)).a_hat.coeffs
           for u in ([0, 0, 0], [1, 0, 0], [3, 1, 0], [0.2, -5, 1])]
# name: (error, call on one case or a batch, four cases in the domain, one outside)
_BAD_CASES = {
    "non-finite coefficients": (
        NonFiniteValue, lambda c: Multivector(EUCLIDEAN4, c),
        np.ones((4, 16)), np.where(np.arange(16) == 5, np.nan, 1.0)),
    "null vector": (
        NullVector, lambda c: vector_inverse(Multivector(SPACETIME13, c)),
        [_vector(SPACETIME13, v)
         for v in ([1, 0, 0, 0], [2, 0.5, 0, 0], [1, 0.2, 0.3, 0], [3, 0, 0, 1])],
        _vector(SPACETIME13, [1, 1, 0, 0])),
    "not a vector": (
        NotAVector, lambda c: vector_square(Multivector(EUCLIDEAN4, c)),
        [_vector(EUCLIDEAN4, [1, k, 0, 2]) for k in range(4)],
        _vector(EUCLIDEAN4, [1, 1, 1, 1]) + np.eye(16)[0]),
    "non-scalar square": (
        NonScalarSquare, lambda c: exp_blade(Multivector(EUCLIDEAN4, c)),
        np.eye(16)[[3, 5, 6, 12]], np.eye(16)[1] + np.eye(16)[6]),
    "quaternion off the subalgebra": (
        NotInSubalgebra, lambda c: Quaternion.from_multivector(Multivector(EUCLIDEAN4, c)),
        np.eye(16)[[0, 12, 10, 6]], np.eye(16)[1]),
    "spinor a0 = 0": (
        DegenerateState, lambda c: spinors.canonical_form(_center_pair(c)),
        [[1, 0, 0.5, 0], [0, 1, 0, 0], [2, 1, 1, 1], [1, 1, 0, 0]], [0, 0, 1, 0]),
    "spacelike Minkowski state": (
        NonTimelike,
        lambda c: spinors.fidelity(
            spinors.IdealSpinor.from_chart(AlgebraTag.MINKOWSKI12, (c[..., 0], c[..., 1])),
            spinors.IdealSpinor.from_chart(AlgebraTag.MINKOWSKI12, (0.1, 0.2))),
        [[0.1, 0.1], [0.5, 0], [0, 0.9], [-0.3, 0.3]], [1.5, 0]),
    "antipode of the pole": (
        DegenerateState, lambda c: spinors.antipodal_chart((c[..., 0], c[..., 1])),
        [[1, 0], [0.5, 0.5], [0, 2], [1, 1]], [0, 0]),
    "off the Pauli ideal": (
        NotInIdeal, lambda c: spinors.from_multivector(Multivector(PAULI3, c), AlgebraTag.PAULI3),
        [_pauli_carrier(x) for x in ((0.1, 0.2), (1, 0), (0, 0), (0.5, 0.5))], np.eye(8)[1]),
    "zero leading quaternion": (
        ZeroQ0, lambda c: quatspinor.canonical_q(_qspinor(c)),
        _TIMELIKE, [0, 0, 0, 0, 0.5, 0, 0, 0]),
    "spacelike quaternion spinor": (
        NonTimelike, lambda c: quatspinor.canonical_q(_qspinor(c)),
        _TIMELIKE, [1, 0, 0, 0, 2, 0, 0, 0]),
    "non-orthogonal spinor": (
        NotOrthogonal, lambda c: quatspinor.projector_closed_orthogonal(_qspinor(c)),
        [[1, 0, 0, 0, 0, x, 0.1, 0] for x in (0.1, 0.2, 0.3, 0.4)], [1, 0, 0, 0, 0.3, 0.1, 0.1, 0]),
    "restricted reduction off span{1, i e3}": (
        NotInSubalgebra, lambda c: quatspinor.reduce_restricted(_qspinor(c)),
        [[1, 0, 0, x, 0.1, 0, 0, 0] for x in (0.1, 0.2, 0.3, 0.4)], [1, 0.3, 0, 0.1, 0.1, 0, 0, 0]),
    "off the Dirac ideal": (
        NotInIdeal, lambda c: dirac.geometric_to_qspinor(Multivector(SPACETIME13, c)),
        [_dirac_carrier(k) for k in (0, 3, 5, 6)], np.eye(16)[0] + 0j),
    "non-finite Dirac column": (
        NonFiniteValue, dirac.DiracSpinor.from_reals,
        np.full((4, 8), 0.5), np.where(np.arange(8) == 3, np.inf, 0.5)),
    "chart point outside the ball (lift)": (
        DomainViolation, lambda c: stereo.lift_hyper(_chart(c)), _BALL, [1.0, 0.0, 0.0]),
    "chart point outside the ball (boost)": (
        DomainViolation, lambda c: stereo.hyper_boost(_chart(c)), _BALL, [0.6, 0.6, 0.6]),
    "chart point outside the ball (metric)": (
        DomainViolation, lambda c: stereo.hyper_metric(_chart(c), (0.1, 0.2, 0.3)), _BALL,
        [0.0, -2.0, 0.0]),
    "projection from the south pole": (
        PoleSingularity,
        lambda c: stereo.project_sphere(stereo.SpherePoint(Multivector(EUCLIDEAN4, c))),
        _SPHERE, _vector(EUCLIDEAN4, [-1, 0, 0, 0])),
    "non-unit sphere vector": (
        NotAVector, lambda c: stereo.SpherePoint(Multivector(EUCLIDEAN4, c)),
        _SPHERE, _vector(EUCLIDEAN4, [0, 2, 0, 0])),
    "lower hyperboloid sheet": (
        DomainViolation, lambda c: stereo.HyperPoint(Multivector(SPACETIME13, c)),
        [stereo.lift_hyper(_chart(u)).a_hat.coeffs for u in _BALL],
        _vector(SPACETIME13, [-1, 0, 0, 0])),
}


@pytest.mark.parametrize("name", sorted(_BAD_CASES))
def test_one_bad_case_in_a_batch_raises_like_the_single_call(name):
    error, call, good, bad = _BAD_CASES[name]
    good, bad = np.asarray(good), np.asarray(bad)
    for case in good:
        call(case)
    with pytest.raises(error) as single:
        call(bad)
    rows = np.concatenate([good[:3], bad[None], good[3:]])
    with pytest.raises(error, match=r"\(case 3\)$") as batch:
        call(rows)
    assert type(batch.value) is type(single.value)
    # with more leading axes the message names the case by its index tuple
    with pytest.raises(error, match=r"\(case \(1, 1\)\)$"):
        call(rows[:4].reshape(2, 2, *rows.shape[1:]))


# ------------------------------------------------------------- exact equality

def _canonical_q(c):
    return quatspinor.CanonicalQ(c[..., 0], c[..., 1], unstack(c[..., 2:5]),
                                 Multivector(SPACETIME13, c[..., 5:21]),
                                 Multivector(SPACETIME13, c[..., 21:37]))


# name: (coordinates per case, the value built from them on the last axis)
_EQUAL_CASES = {
    "Multivector": (16, lambda c: Multivector(EUCLIDEAN4, c)),
    "PlanePoint": (3, _chart),
    "Quaternion": (4, Quaternion.from_coords),
    "QuatMatrix2": (16, lambda c: QuatMatrix2(c.reshape(*c.shape[:-1], 2, 2, 4))),
    "CenterScalar": (2, lambda c: spinors.CenterScalar(*unstack(c))),
    "IdealSpinor": (4, _center_pair),
    "CanonicalIdeal": (12, lambda c: spinors.CanonicalIdeal(
        c[..., 0], c[..., 1], Multivector(PAULI3, c[..., 2:10]), (c[..., 10], c[..., 11]))),
    "QuatSpinor": (8, _qspinor),
    "CanonicalQ": (37, _canonical_q),
    "DiracSpinor": (8, dirac.DiracSpinor.from_reals),
}


@pytest.mark.parametrize("name", sorted(_EQUAL_CASES))
def test_equality_of_batches_is_exact(rng, name):
    width, build = _EQUAL_CASES[name]
    c = rng.uniform(-1.0, 1.0, (3, 4, width))
    a = build(c)
    assert (a == build(c.copy())) is True
    one_ulp = c.copy()
    one_ulp[2, 1, -1] = np.nextafter(one_ulp[2, 1, -1], 2.0)
    assert (a == build(one_ulp)) is False
    assert (a == build(c[:2])) is False  # other batch shape
    assert (a == build(c[0, 0])) is False  # one case
    assert (build(c[0, 0]) == build(c[0, 0].copy())) is True
