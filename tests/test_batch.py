"""Batch semantics: a batch of N cases equals N single calls, at every layer.

Exact where the arithmetic is exact (integer operands, uniform or rounded
normal draws, and elementwise maps); within 4 ulp of the operand scale where a batch sums in
another order than a single call.  The blade-product sums stay the
independent route for the batched product.  A batch with one out-of-domain
case raises what the single call on that case raises, and names the case.
"""
import re
import warnings

import numpy as np
import pytest

from conftest import ALL_SIGNATURES, blade_product, hamilton, quat_cells
from gaspin import core, dirac, quatrep, quatspinor, spinors, stereo
from gaspin.core import (
    EUCLIDEAN4,
    PAULI3,
    SPACETIME13,
    Multivector,
    exp_blade,
    geometric_product,
    grade_of,
    grade_select,
    product_part,
    reverse,
    scalar_product,
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
    SignatureMismatch,
    TagMismatch,
    ZeroQ0,
)
from gaspin.isomap import AlgebraTag, euclidean_to_spacetime, spacetime_to_euclidean
from gaspin.quatrep import (QuatMatrix2, Quaternion, basis_change_matrix, quat_mul, rep_pss,
                            rep_vec, unrep_pss, unrep_vec)

EPS = np.finfo(float).eps
SHAPES = ((7,), (3, 4))
#: Operand shapes of a product: 200 cases cross the 64-case block of the
#: table contraction; a single factor and a (4,) factor broadcast against
#: the other's batch.
PAIR_SHAPES = (((200,), (200,)), ((), (7,)), ((7,), ()), ((3, 4), (4,)))
KINDS = ("integer", "gaussian", "float")


def operands(rng, shape, width, kind):
    size = (*shape, width)
    if kind == "integer":
        return rng.integers(-3, 4, size).astype(float)
    if kind == "gaussian":  # integers rounded from N(0, 2^2) draws, a fifth of them zero
        return np.rint(rng.normal(0.0, 2.0, size))
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


def blade_sums(sig, a, b, masks):
    """Coefficients of ab on ``masks`` for one case, summed blade pair by
    blade pair over ``blade_product``."""
    out = dict.fromkeys(masks, 0)
    for i in range(sig.dim):
        for j in range(sig.dim):
            sign, mask = blade_product(i, j, sig)
            if mask in out:
                out[mask] += sign * a[i] * b[j]
    return np.array([out[m] for m in masks])


@pytest.mark.parametrize("sig", ALL_SIGNATURES, ids=lambda s: "".join(s.generator_labels))
@pytest.mark.parametrize("kind", ("integer", "gaussian"))
def test_batch_product_matches_blade_sums(rng, sig, kind):
    a, b = operands(rng, (5,), sig.dim, kind), operands(rng, (5,), sig.dim, kind)
    got = geometric_product(Multivector(sig, a), Multivector(sig, b)).coeffs
    for n in range(5):
        assert np.array_equal(got[n], blade_sums(sig, a[n], b[n], range(sig.dim)))


def test_product_blocks_cover_large_batches(rng):
    # more cases than one 128 KB block holds, for both integer kinds
    for kind in ("integer", "gaussian"):
        a, b = operands(rng, (300,), 16, kind), operands(rng, (300,), 16, kind)
        got = geometric_product(Multivector(SPACETIME13, a), Multivector(SPACETIME13, b)).coeffs
        want = per_case(lambda u, v: geometric_product(Multivector(SPACETIME13, u),
                                                       Multivector(SPACETIME13, v)).coeffs,
                        (300,), a, b)
        assert np.array_equal(got, want)


#: Operand shapes of a part product: single cases, a batch, a single case
#: against a batch, and (3, 4) against (4,).
PART_SHAPES = (((), ()), ((5,), (5,)), ((), (5,)), ((3, 4), (4,)))


@pytest.mark.parametrize("sig", ALL_SIGNATURES, ids=lambda s: "".join(s.generator_labels))
@pytest.mark.parametrize("shapes", PART_SHAPES, ids=str)
@pytest.mark.parametrize("kind", ("integer", "gaussian"))
def test_product_part_is_the_full_products_coefficients(rng, sig, shapes, kind):
    a, b = (operands(rng, shape, sig.dim, kind) for shape in shapes)
    ma, mb = Multivector(sig, a), Multivector(sig, b)
    full = geometric_product(ma, mb).coeffs
    for masks in ((0,), (0, sig.dim - 1), tuple(range(sig.dim)),
                  tuple(m for m in range(sig.dim) if grade_of(m) in (0, 3)), (5, 2)):
        got = product_part(ma, mb, masks)
        assert got.shape == (*np.broadcast_shapes(*shapes), len(masks))
        assert np.array_equal(got, full[..., list(masks)])
        want = per_case(lambda u, v: blade_sums(sig, u, v, masks), full.shape[:-1],
                        *(np.broadcast_to(x, full.shape) for x in (a, b)))
        assert np.array_equal(got, want)
    assert np.array_equal(scalar_product(ma, mb), geometric_product(ma, mb).scalar_part)


@pytest.mark.parametrize("kind", KINDS)
def test_scalar_product_gives_numbers_as_scalar_part_does(rng, kind):
    a, b = operands(rng, (2,), SPACETIME13.dim, kind)
    one = scalar_product(Multivector(SPACETIME13, a), Multivector(SPACETIME13, b))
    want = (Multivector(SPACETIME13, a) * Multivector(SPACETIME13, b)).scalar_part
    assert type(one) is type(want) is float
    assert one == want or kind == "float" and abs(one - want) <= 4 * EPS * scale_of(a, b)[0]
    batch = scalar_product(Multivector(SPACETIME13, operands(rng, (3, 4), 16, kind)),
                           Multivector(SPACETIME13, b))
    assert isinstance(batch, np.ndarray) and batch.shape == (3, 4)


def test_part_products_raise_on_overflow_as_the_product_does():
    m = Multivector.vector(PAULI3, (1e200, 0.0, 1.0))
    batch = Multivector.vector(PAULI3, (np.array([1.0, 1e200]), 0.0, 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        for fn in (geometric_product, scalar_product,
                   lambda x, y: product_part(x, y, (0, 7))):
            with pytest.raises(NonFiniteValue):
                fn(m, m)
            with pytest.raises(NonFiniteValue, match=r"\(case 1\)$"):
                fn(batch, batch)
        # the overflowing m^2 is not taken for a chart point off the hyperboloid
        with pytest.raises(NonFiniteValue):
            spinors.chart_lift(AlgebraTag.PAULI3, (1e200, 0.0))


def _structured(rng, sig, n, grades, kind):
    """n cases with coefficients only on the blades of ``grades``; "first full"
    has no zero in its first case and none but zeros on the odd blades after
    it, "first gap" one zero in its first case and none after it."""
    if grades == "first full":
        c = _structured(rng, sig, n, set(range(0, sig.n + 1, 2)), kind)
        c[0] = operands(rng, (), sig.dim, kind)
        c[0][c[0] == 0] = 1
        return c
    if grades == "first gap":
        c = operands(rng, (n,), sig.dim, kind)
        c[c == 0] = 1
        c[0, -1] = 0
        return c
    keep = np.array([grade_of(m) in grades for m in range(sig.dim)])
    return np.where(keep, operands(rng, (n,), sig.dim, kind), 0)


@pytest.mark.parametrize("sig", ALL_SIGNATURES, ids=lambda s: "".join(s.generator_labels))
@pytest.mark.parametrize("kind", KINDS)
def test_structured_batch_products_equal_the_dense_contraction(rng, sig, kind):
    # vectors times vectors, an even element (a rotor's blades) times a
    # vector, an even element times a general one and two general ones; 600
    # cases cross the block of the widest of them in every signature; the
    # floats' sums keep their bits when the zero terms are dropped.  Every
    # blade of "first full" is read off its first case, without the pass over
    # the batch that "first gap" takes; both meet each other and the others.
    even, every = set(range(0, sig.n + 1, 2)), set(range(sig.n + 1))
    table = core._outer_table(sig.plus_count, sig.minus_count)
    widest = 0
    for left, right in (({1}, {1}), (even, {1}), (even, every), (every, every),
                        ("first full", {1}), (even, "first full"), ("first full", "first full"),
                        ("first gap", {1}), (every, "first gap"), ("first gap", "first full")):
        a, b = _structured(rng, sig, 600, left, kind), _structured(rng, sig, 600, right, kind)
        got = geometric_product(Multivector(sig, a), Multivector(sig, b)).coeffs
        dense = (a[:, :, None] * b[:, None, :]).reshape(600, -1) @ table
        assert np.array_equal(got, dense)
        terms = np.count_nonzero(a.any(axis=0)) * np.count_nonzero(b.any(axis=0))
        widest = max(widest, terms * got.itemsize)
    assert core._BLOCK_BYTES // widest < 600


def test_contract_reads_a_dense_operand_off_its_first_case(rng):
    # an operand whose first case has no zero skips the occupancy pass (any),
    # and two such take the whole table (no take); a first case with a zero,
    # a sparse operand or an empty batch keeps the pass; the values do not move
    calls = []

    class Counted(np.ndarray):
        def any(self, *args, **kwargs):
            calls.append("any")
            return np.asarray(self).any(*args, **kwargs)

        def take(self, *args, **kwargs):
            calls.append("take")
            return np.asarray(self).take(*args, **kwargs)

    table = core._outer_table(1, 3)
    dense = rng.uniform(0.5, 1.0, (6, 16))
    gap = dense.copy()
    gap[0, 3] = 0.0
    vector = np.where(np.isin(np.arange(16), (1, 2, 4, 8)), dense, 0.0)
    empty = np.zeros((0, 16))
    for a, b, want in ((dense, dense, []), (gap, dense, ["any"]), (dense, gap, ["any"]),
                       (dense, vector, ["any", "take"]), (vector, vector, ["any", "any", "take"]),
                       (empty, empty, ["any", "any", "take"])):
        calls.clear()
        got = core.contract(a.view(Counted), b.view(Counted), table.view(Counted))
        assert calls == want
        want_values = (a[:, :, None] * b[:, None, :]).reshape(len(a), 256) @ table
        assert np.array_equal(np.asarray(got), want_values)


def test_an_all_zero_batch_factor_gives_zeros(rng):
    zero = Multivector(SPACETIME13, np.zeros((6, SPACETIME13.dim)))
    other = Multivector(SPACETIME13, operands(rng, (6,), SPACETIME13.dim, "float"))
    for x, y in ((zero, other), (other, zero), (zero, zero)):
        assert np.array_equal(geometric_product(x, y).coeffs, np.zeros((6, 16)))
    m = QuatMatrix2(operands(rng, (6,), 16, "float").reshape(6, 2, 2, 4))
    assert np.array_equal((QuatMatrix2(np.zeros((6, 2, 2, 4))) * m).coeffs, np.zeros((6, 2, 2, 4)))


@pytest.mark.parametrize("shapes", (((0,), (0,)), ((2, 0), (2, 0)), ((1,), (3,)), ((3, 1), (4,))),
                         ids=str)
@pytest.mark.parametrize("kind", ("integer", "float"))
def test_contract_shape_paths_equal_the_dense_contraction(rng, shapes, kind):
    # equal leading shapes are reshaped and others broadcast: both paths,
    # empty batches included, give the dense contraction's shape and values,
    # for the geometric product and the QuatMatrix2 one
    a, b = (operands(rng, shape, 16, kind) for shape in shapes)
    outer = (a[..., :, None] * b[..., None, :]).reshape(*np.broadcast_shapes(*shapes), 256)
    got = geometric_product(Multivector(SPACETIME13, a), Multivector(SPACETIME13, b)).coeffs
    dense = outer @ core._outer_table(1, 3)
    assert got.shape == dense.shape and np.array_equal(got, dense)
    ma, mb = (QuatMatrix2(x.reshape(*x.shape[:-1], 2, 2, 4)) for x in (a, b))
    dense = (outer @ quatrep._product_table()).reshape(*outer.shape[:-1], 2, 2, 4)
    got = (ma * mb).coeffs
    assert got.shape == dense.shape and np.array_equal(got, dense)


@pytest.mark.parametrize("kind", ("integer", "float"))
def test_quat_matrix_product_with_a_sparse_factor(rng, kind):
    # A = [[1, 1], [-1, 1]] / sqrt2 has one nonzero coordinate per entry
    A = basis_change_matrix()
    m = operands(rng, (300,), 16, kind).reshape(300, 2, 2, 4)
    for x, y in ((A.coeffs, m), (m, A.conjugate_transpose().coeffs),
                 (np.broadcast_to(A.coeffs, m.shape), m)):
        assert np.array_equal((QuatMatrix2(x) * QuatMatrix2(y)).coeffs, quat_cells(x, y))


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
        return quat_mul(Quaternion(u), Quaternion(v)).coeffs

    for x, y in ((a, b), (single_a, b)):
        got = quat_mul(Quaternion(x), Quaternion(y)).coeffs
        assert np.array_equal(got, per_case(mul, shape, x, y))
    got = Quaternion(a).to_multivector().coeffs
    want = per_case(lambda u: Quaternion(u).to_multivector().coeffs, shape, a)
    assert np.array_equal(got, want)


def test_batch_fields_are_read_only_views_of_their_inputs(rng):
    # a value views the array it is given, and its parts view that array;
    # each shares the caller's memory and cannot write to it
    c = rng.uniform(-1.0, 1.0, (3, 4, 4))
    z = c + 1j * c
    q, x, phi = Quaternion(c), stereo.PlanePoint(c[..., :3]), dirac.DiracSpinor(z)
    for field, source in ((q.coeffs, c), (q.s, c), (q.v, c), (x.x, c), (phi.components, z)):
        assert field.shape[:2] == (3, 4) and np.shares_memory(field, source)
        with pytest.raises(ValueError):
            field[0, 0] = 1.0
    assert c.flags.writeable and z.flags.writeable


@pytest.mark.parametrize("shapes", PAIR_SHAPES, ids=str)
@pytest.mark.parametrize("kind", ("integer", "float"))
def test_quat_mul_matches_the_hamilton_product(rng, shapes, kind):
    a, b = (operands(rng, shape, 4, kind) for shape in shapes)
    got = quat_mul(Quaternion(a), Quaternion(b)).coeffs
    assert got.shape == (*np.broadcast_shapes(*shapes), 4)
    assert_matches(got, hamilton(Quaternion(a), Quaternion(b)).coeffs, kind, scale_of(a, b))


@pytest.mark.parametrize("shapes", PAIR_SHAPES, ids=str)
@pytest.mark.parametrize("kind", ("integer", "float"))
def test_quat_matrix_product_matches_the_cell_formula(rng, shapes, kind):
    a, b = (operands(rng, shape, 16, kind) for shape in shapes)
    ma, mb = (x.reshape(*x.shape[:-1], 2, 2, 4) for x in (a, b))
    got = (QuatMatrix2(ma) * QuatMatrix2(mb)).coeffs
    assert got.shape == (*np.broadcast_shapes(*shapes), 2, 2, 4)
    assert_matches(got, quat_cells(ma, mb), kind, scale_of(a, b)[..., None, None])


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("kind", ("integer", "float"))
def test_spinor_carriers_batch_equal_single_calls(rng, shape, kind):
    # the fixed maps on batches; from_chart (a0 = 1), from_bloch_point (q0 = 1)
    # and the center scalars with a literal part leave one number for every case
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
            spinors.IdealSpinor.from_chart(tag, (u[..., 0], u[..., 1]))).coeffs, 2)
        check(lambda u: spinors.CenterScalar(u[..., 0], u[..., 1]).embed(tag).coeffs, 2)
        check(lambda u: spinors.CenterScalar(u[..., 0], -0.5).embed(tag).coeffs, 1)
    for tag in (AlgebraTag.SPACETIME13, AlgebraTag.EUCLIDEAN4):
        check(lambda u: quatspinor.image(quatspinor.from_carrier_coords(u, tag)).coeffs, 8)
        check(lambda u: quatspinor.image(quatspinor.QuatSpinor.from_bloch_point(u, tag)).coeffs, 3)
    check(lambda u: quatspinor.embed_spacetime(Quaternion(u)).coeffs, 4)
    check(lambda u: quatspinor.embed_spacetime(
        Quaternion(np.insert(u, [0, 1], (0.5, 0.0), axis=-1))).coeffs, 2)
    check(lambda u: dirac.dirac_to_geometric(dirac.DiracSpinor.from_reals(u)).re.coeffs, 8)
    check(lambda u: dirac.qspinor_to_geometric(
        quatspinor.QuatSpinor.from_bloch_point(u)).re.coeffs, 3)


@pytest.mark.parametrize("shape", SHAPES)
def test_spinor_brackets_batch_equal_single_calls_bit_for_bit(rng, shape):
    # the bracket tables run one path, so a case keeps its bits in a batch;
    # from_chart (a0 = 1) and from_bloch_point (q0 = 1) broadcast one number
    def check(fn, low, high, width):
        u, v = (rng.uniform(low, high, (*shape, width)) for _ in "uv")
        assert np.array_equal(fn(u, v), per_case(fn, shape, u, v))

    lead = np.eye(8)[0]  # |q0|^2 >= 1 > |q1|^2 and |a0|^2 >= 1 > |a1|^2
    for tag in (AlgebraTag.SPACETIME13, AlgebraTag.EUCLIDEAN4):
        def coords(a):
            return quatspinor.from_carrier_coords(a + lead, tag)

        def bloch(a):
            return quatspinor.QuatSpinor.from_bloch_point(a, tag)

        for make, low, high, width in ((coords, -0.3, 0.3, 8), (bloch, -0.5, 0.5, 3)):
            check(lambda a, b: quatspinor.fidelity_q(make(a), make(b)), low, high, width)
            check(lambda a, b: quatspinor.projector(make(a)).coeffs, low, high, width)
    for tag in (AlgebraTag.PAULI3, AlgebraTag.MINKOWSKI12):
        def components(a):
            a = a + lead[:4]
            return spinors.IdealSpinor(tag, spinors.CenterScalar(a[..., 0], a[..., 1]),
                                       spinors.CenterScalar(a[..., 2], a[..., 3]))

        def chart(a):
            return spinors.IdealSpinor.from_chart(tag, (a[..., 0], a[..., 1]))

        for make, low, high, width in ((components, -0.3, 0.3, 4), (chart, -0.6, 0.6, 2)):
            check(lambda a, b: spinors.fidelity(make(a), make(b)), low, high, width)
            check(lambda a, b: spinors.inner(make(a), make(b)).z, low, high, width)


def _chart(c):
    """Chart points from rows of three components (one row: one case)."""
    return stereo.PlanePoint(c)


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
            return project(point(Multivector(sig, c))).x

        def rotor_of(v):
            return rotor(_chart(v)).coeffs

        def metric_of(v, w):
            da, ds2 = metric(_chart(v), w)
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


# ----------------------------------------------------- one bad case in a batch

def _vector(sig, comps):
    return Multivector.vector(sig, comps).coeffs


def _dirac_carrier(k):
    return dirac.dirac_to_geometric(dirac.DiracSpinor.from_reals(np.eye(8)[k])).re.coeffs


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
    "zero leading quaternion": (
        ZeroQ0, lambda c: quatspinor.canonical_q(_qspinor(c)),
        _TIMELIKE, [0, 0, 0, 0, 0.5, 0, 0, 0]),
    "spacelike quaternion spinor": (
        NonTimelike, lambda c: quatspinor.canonical_q(_qspinor(c)),
        _TIMELIKE, [1, 0, 0, 0, 2, 0, 0, 0]),
    # q0 = 1 is no zero quaternion, however large q1 is
    "spacelike quaternion spinor far from the cone": (
        NonTimelike, lambda c: quatspinor.canonical_q(_qspinor(c)),
        _TIMELIKE, [1, 0, 0, 0, 1e7, 0, 0, 0]),
    "non-orthogonal spinor": (
        NotOrthogonal, lambda c: quatspinor.projector_closed_orthogonal(_qspinor(c)),
        [[1, 0, 0, 0, 0, x, 0.1, 0] for x in (0.1, 0.2, 0.3, 0.4)], [1, 0, 0, 0, 0.3, 0.1, 0.1, 0]),
    "off the Dirac ideal": (
        NotInIdeal, lambda c: dirac.geometric_to_qspinor(dirac.DiracCarrier(
            Multivector(SPACETIME13, c))), [_dirac_carrier(k) for k in (0, 3, 5, 6)], np.eye(16)[0]),
    "non-finite chart point": (
        NonFiniteValue, _chart, np.full((4, 3), 0.5), [0.5, np.inf, 0.5]),
    "non-finite quaternion": (
        NonFiniteValue, Quaternion, np.ones((4, 4)), [1.0, 0.0, np.nan, 0.0]),
    # the case index counts the batch axes only, not the matrix's (2, 2, 4)
    "non-finite quaternion matrix": (
        NonFiniteValue, QuatMatrix2, np.ones((4, 2, 2, 4)),
        np.where(np.arange(16).reshape(2, 2, 4) == 9, -np.inf, 1.0)),
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


# name: (call on one value, the values): before every value type refused
# non-finite entries, each call warned or returned NaN
_NON_FINITE_CALLS = {
    "sphere_angle": (lambda v: stereo.sphere_angle(_chart([v, 0.0, 0.0])), (np.nan,)),
    "hyper_angle": (lambda v: stereo.hyper_angle(_chart([v, 0.0, 0.0])), (np.nan,)),
    "lift_sphere": (lambda v: stereo.lift_sphere(_chart([v, 0.0, 0.0])), (np.inf, -np.inf)),
    "sphere_rotor": (lambda v: stereo.sphere_rotor(_chart([v, 0.0, 0.0])), (np.inf, -np.inf)),
    "bloch_point": (lambda v: quatspinor.bloch_point(_qspinor([1, 0, 0, 0, 0, v, 0, 0])),
                    (np.inf, -np.inf, np.nan)),
    "qspinor_to_dirac": (lambda v: dirac.qspinor_to_dirac(_qspinor([1, 0, 0, 0, 0, 0, v, 0])),
                         (np.inf, -np.inf)),  # a NaN column was refused without a warning
    # B^2 = 1e310 overflows in the product, before any branch
    "exp_blade g01 in Cl(1,3)": (
        lambda v: exp_blade(Multivector.blade(SPACETIME13, 0b0011, v)), (1e155,)),
}


@pytest.mark.parametrize("name, value", [(name, v) for name, (_, values)
                                         in sorted(_NON_FINITE_CALLS.items()) for v in values])
def test_non_finite_input_raises_nonfinitevalue_without_a_warning(name, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue):
            _NON_FINITE_CALLS[name][0](value)


# name: (error, start of its message, call) for input that no case of any
# batch could make valid: the wrong shape, signature or tag, raised before
# any case is read
_MALFORMED = {
    "Multivector of 8 coefficients in Cl(4,0)": (
        ValueError, "Multivector needs (..., 16) values, got (3, 8)",
        lambda: Multivector(EUCLIDEAN4, np.ones((3, 8)))),
    "Quaternion of 3 coordinates": (
        ValueError, "Quaternion needs (..., 4) values, got (3, 3)",
        lambda: Quaternion(np.ones((3, 3)))),
    "QuatMatrix2 of 2 x 4 coordinates": (
        ValueError, "QuatMatrix2 needs (..., 2, 2, 4) values, got (3, 2, 4)",
        lambda: QuatMatrix2(np.ones((3, 2, 4)))),
    "PlanePoint of 2 components": (
        ValueError, "PlanePoint needs (..., 3) values, got (3, 2)",
        lambda: stereo.PlanePoint(np.ones((3, 2)))),
    "DiracSpinor of 3 components": (
        ValueError, "DiracSpinor needs (..., 4) values, got (3, 3)",
        lambda: dirac.DiracSpinor(np.ones((3, 3)))),
    "blade mask past the last blade": (
        ValueError, "blade mask 16 out of range", lambda: Multivector.blade(EUCLIDEAN4, 16)),
    "negative blade mask": (
        ValueError, "blade mask -1 out of range", lambda: Multivector.blade(EUCLIDEAN4, -1)),
    "vector of 3 components in Cl(4,0)": (
        ValueError, "one component per generator",
        lambda: Multivector.vector(EUCLIDEAN4, [np.ones(3)] * 3)),
    "quaternion read off a Cl(1,3) element": (
        SignatureMismatch, "quaternions live in Cl(4,0)",
        lambda: Quaternion.from_multivector(Multivector.scalar(SPACETIME13, 1.0))),
    "quaternion spinor tagged Cl(3,0)": (
        TagMismatch, "quaternion spinors live in",
        lambda: quatspinor.QuatSpinor(Quaternion.one(), Quaternion.zero(), AlgebraTag.PAULI3)),
    "ideal spinor tagged Cl(1,3)": (
        TagMismatch, "ideal spinors live in",
        lambda: spinors.IdealSpinor(AlgebraTag.SPACETIME13,
                                    *[spinors.CenterScalar(1.0, 0.0)] * 2)),
    "circle-route fidelity of mixed tags": (
        TagMismatch, f"{AlgebraTag.SPACETIME13} vs {AlgebraTag.EUCLIDEAN4}",
        lambda: quatspinor.fidelity_q_circ_route(*(
            quatspinor.QuatSpinor(Quaternion.one(), Quaternion.zero(), tag)
            for tag in (AlgebraTag.SPACETIME13, AlgebraTag.EUCLIDEAN4)))),
    "sphere point from a Cl(1,3) vector": (
        NotAVector, "expected a vector in",
        lambda: stereo.SpherePoint(Multivector.basis(SPACETIME13, 0))),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_input_raises_its_error(name):
    error, message, call = _MALFORMED[name]
    with pytest.raises(error, match="^" + re.escape(message)):
        call()


# ------------------------------------------------------------- exact equality

def _canonical_q(c):
    return quatspinor.CanonicalQ(c[..., 0], c[..., 1], c[..., 2:5],
                                 Multivector(SPACETIME13, c[..., 5:21]),
                                 Multivector(SPACETIME13, c[..., 21:37]))


# name: (coordinates per case, the value built from them on the last axis)
_EQUAL_CASES = {
    "Multivector": (16, lambda c: Multivector(EUCLIDEAN4, c)),
    "PlanePoint": (3, _chart),
    "Quaternion": (4, Quaternion),
    "QuatMatrix2": (16, lambda c: QuatMatrix2(c.reshape(*c.shape[:-1], 2, 2, 4))),
    "CenterScalar": (2, lambda c: spinors.CenterScalar(c[..., 0], c[..., 1])),
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
    assert (a == 3) is False  # another type
    assert (build(c[0, 0]) == build(c[0, 0].copy())) is True
