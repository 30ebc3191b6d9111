import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaspin import core
from gaspin.core import (
    EUCLIDEAN4,
    MINKOWSKI12,
    PAULI3,
    SPACETIME13,
    Multivector,
    Signature,
    allclose,
    blade_product,
    dot,
    exp_blade,
    geometric_product,
    grade_select,
    residual,
    reverse,
    vector_inverse,
)
from gaspin.errors import (
    GradeOutOfRange,
    NonFiniteValue,
    NonScalarSquare,
    NotAVector,
    NullVector,
    SignatureMismatch,
)

from conftest import ALL_SIGNATURES, random_mv


def mv_blade(sig, *gens):
    m = 0
    for g in gens:
        m |= 1 << g
    return Multivector.blade(sig, m)


def exp_series(B, terms=60):
    """Independent oracle: exponential by direct power-series summation."""
    acc = Multivector.scalar(B.signature, 1.0)
    term = Multivector.scalar(B.signature, 1.0)
    for k in range(1, terms):
        term = geometric_product(term, B) / k
        acc = acc + term
    return acc


# ---------------------------------------------------------------- signatures


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(0, 0, ())
    with pytest.raises(ValueError):
        Signature(4, 3, tuple("abcdefg"))
    with pytest.raises(ValueError):
        Signature(2, 0, ("a",))


def test_metric_ordering():
    assert [SPACETIME13.metric(k) for k in range(4)] == [1, -1, -1, -1]
    assert [EUCLIDEAN4.metric(k) for k in range(4)] == [1, 1, 1, 1]


def test_blade_names():
    assert EUCLIDEAN4.blade_name(0) == "1"
    assert EUCLIDEAN4.blade_name(0b0110) == "e12"
    assert SPACETIME13.blade_name(0b1111) == "g0123"


# ------------------------------------------------------------------- product


def test_generator_squares():
    e1 = Multivector.basis(EUCLIDEAN4, 1)
    assert allclose(e1 * e1, Multivector.scalar(EUCLIDEAN4, 1.0))
    g1 = Multivector.basis(SPACETIME13, 1)
    assert allclose(g1 * g1, Multivector.scalar(SPACETIME13, -1.0))


def test_anticommutation():
    e1 = Multivector.basis(EUCLIDEAN4, 1)
    e2 = Multivector.basis(EUCLIDEAN4, 2)
    e12 = mv_blade(EUCLIDEAN4, 1, 2)
    assert allclose(e1 * e2, e12)
    assert allclose(e2 * e1, -e12)


def test_generator_contract_all_signatures():
    for sig in ALL_SIGNATURES:
        for i in range(sig.n):
            gi = Multivector.basis(sig, i)
            assert (gi * gi).scalar_part == sig.metric(i)
            for j in range(i + 1, sig.n):
                gj = Multivector.basis(sig, j)
                assert residual(gi * gj, -(gj * gi)) == 0.0


def test_signature_mismatch_raises():
    with pytest.raises(SignatureMismatch):
        geometric_product(
            Multivector.scalar(EUCLIDEAN4, 1.0), Multivector.scalar(SPACETIME13, 1.0)
        )


def test_blade_product_against_permutation_sign_oracle():
    """blade_product sign equals the parity of the sorting permutation times
    the metric signs, checked by brute-force bubble sort on generator lists."""
    for sig in (EUCLIDEAN4, SPACETIME13):
        for a in range(sig.dim):
            for b in range(sig.dim):
                seq = [k for k in range(sig.n) if a >> k & 1] + [
                    k for k in range(sig.n) if b >> k & 1
                ]
                sign = 1
                changed = True
                while changed:  # bubble sort counting swaps
                    changed = False
                    for t in range(len(seq) - 1):
                        if seq[t] > seq[t + 1]:
                            seq[t], seq[t + 1] = seq[t + 1], seq[t]
                            sign = -sign
                            changed = True
                out = []
                for g in seq:
                    if out and out[-1] == g:
                        sign *= sig.metric(g)
                        out.pop()
                    else:
                        out.append(g)
                mask = 0
                for g in out:
                    mask |= 1 << g
                assert blade_product(a, b, sig) == (sign, mask)


def _all_signatures(max_n):
    """Every Cl(p,q) with 1 <= p+q <= max_n."""
    return [
        Signature(p, n - p, tuple(f"x{k}" for k in range(n)))
        for n in range(1, max_n + 1)
        for p in range(n + 1)
    ]


def test_sign_table_matches_blade_product():
    for sig in _all_signatures(6):
        table = core.sign_table(sig.plus_count, sig.minus_count)
        assert table.shape == (sig.dim, sig.dim)
        for i in range(sig.dim):
            for j in range(sig.dim):
                assert (int(table[i, j]), i ^ j) == blade_product(i, j, sig)
    for sig in ALL_SIGNATURES:
        assert core.cayley_table(sig) == [
            [blade_product(i, j, sig) for j in range(sig.dim)] for i in range(sig.dim)
        ]


def test_geometric_product_matches_blade_sum(rng):
    """The table kernel against a direct sum of blade_product terms; integer
    and Gaussian-integer operands make both routes exact."""
    for sig in (*ALL_SIGNATURES, *_all_signatures(5)):
        terms = [
            (i, j, *blade_product(i, j, sig)) for i in range(sig.dim) for j in range(sig.dim)
        ]
        for k in range(8):
            a = random_mv(rng, sig, integer=True)
            b = random_mv(rng, sig, integer=True)
            if k % 2:
                a = a + 1j * random_mv(rng, sig, integer=True)
                b = b + 1j * random_mv(rng, sig, integer=True)
            expected = np.zeros(sig.dim, dtype=a.coeffs.dtype)
            for i, j, sign, mask in terms:
                expected[mask] += sign * a.coeffs[i] * b.coeffs[j]
            product = geometric_product(a, b).coeffs
            assert product.dtype == expected.dtype
            assert np.array_equal(product, expected)


def test_associativity_exact_integer(rng):
    for sig in ALL_SIGNATURES:
        for _ in range(200):
            a = random_mv(rng, sig, integer=True)
            b = random_mv(rng, sig, integer=True)
            c = random_mv(rng, sig, integer=True)
            assert residual((a * b) * c, a * (b * c)) == 0.0


def test_associativity_float(rng):
    for sig in ALL_SIGNATURES:
        for _ in range(200):
            a = random_mv(rng, sig)
            b = random_mv(rng, sig)
            c = random_mv(rng, sig)
            assert residual((a * b) * c, a * (b * c)) <= 1e-12


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=16, max_size=16),
    st.lists(st.integers(-4, 4), min_size=16, max_size=16),
    st.lists(st.integers(-4, 4), min_size=16, max_size=16),
)
def test_associativity_hypothesis(xs, ys, zs):
    a = Multivector(SPACETIME13, np.array(xs, dtype=float))
    b = Multivector(SPACETIME13, np.array(ys, dtype=float))
    c = Multivector(SPACETIME13, np.array(zs, dtype=float))
    assert residual((a * b) * c, a * (b * c)) == 0.0


def test_bilinearity(rng):
    sig = EUCLIDEAN4
    a, b, c = (random_mv(rng, sig) for _ in range(3))
    lam = 0.37
    assert residual((a + lam * b) * c, a * c + lam * (b * c)) <= 1e-12
    assert residual(c * (a + lam * b), c * a + lam * (c * b)) <= 1e-12


# ------------------------------------------------------------------- reverse


def test_reverse_examples():
    e12 = mv_blade(EUCLIDEAN4, 1, 2)
    assert allclose(reverse(e12), -e12)
    e123 = mv_blade(EUCLIDEAN4, 1, 2, 3)
    assert allclose(reverse(e123), -e123)
    one_e0 = Multivector.scalar(EUCLIDEAN4, 1.0) + Multivector.basis(EUCLIDEAN4, 0)
    assert allclose(reverse(one_e0), one_e0)


def test_reverse_antiautomorphism(rng):
    for sig in ALL_SIGNATURES:
        for _ in range(1000):
            a = random_mv(rng, sig)
            b = random_mv(rng, sig)
            assert residual(reverse(a * b), reverse(b) * reverse(a)) <= 1e-12


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=8, max_size=8),
    st.lists(st.integers(-4, 4), min_size=8, max_size=8),
)
def test_reverse_antiautomorphism_hypothesis(xs, ys):
    a = Multivector(PAULI3, np.array(xs, dtype=float))
    b = Multivector(PAULI3, np.array(ys, dtype=float))
    assert residual(reverse(a * b), reverse(b) * reverse(a)) == 0.0


# -------------------------------------------------------------- grade select


def test_grade_select_examples():
    sig = EUCLIDEAN4
    a = (
        Multivector.scalar(sig, 1.0)
        + Multivector.basis(sig, 1)
        + mv_blade(sig, 1, 2, 3)
    )
    picked = grade_select(a, {0, 3})
    assert allclose(picked, Multivector.scalar(sig, 1.0) + mv_blade(sig, 1, 2, 3))
    assert allclose(grade_select(a, range(sig.n + 1)), a)
    assert grade_select(mv_blade(sig, 1, 2), {0, 3}).max_abs() == 0.0


def test_grade_select_idempotent_and_partition(rng):
    for sig in ALL_SIGNATURES:
        a = random_mv(rng, sig)
        for g in range(sig.n + 1):
            part = grade_select(a, {g})
            assert residual(grade_select(part, {g}), part) == 0.0
        total = Multivector.zero(sig)
        for g in range(sig.n + 1):
            total = total + grade_select(a, {g})
        assert residual(total, a) == 0.0


def test_grade_select_out_of_range():
    with pytest.raises(GradeOutOfRange):
        grade_select(Multivector.scalar(PAULI3, 1.0), {4})


# ------------------------------------------------------------ vector inverse


def test_vector_inverse_examples():
    v = Multivector.vector(EUCLIDEAN4, [1, 1, 0, 0])
    assert allclose(vector_inverse(v), v / 2)
    w = Multivector.vector(EUCLIDEAN4, [0, 0, 0, 2])
    assert allclose(vector_inverse(w), w / 4)  # e3/2
    assert allclose(vector_inverse(w) * w, Multivector.scalar(EUCLIDEAN4, 1.0))
    null = Multivector.vector(SPACETIME13, [1, 1, 0, 0])
    with pytest.raises(NullVector):
        vector_inverse(null)
    with pytest.raises(NotAVector):
        vector_inverse(Multivector.scalar(EUCLIDEAN4, 1.0) + v)


# ----------------------------------------------------------------------- exp


def test_exp_zero():
    z = Multivector.zero(EUCLIDEAN4)
    assert allclose(exp_blade(z), Multivector.scalar(EUCLIDEAN4, 1.0))


def test_exp_circular_against_series():
    # B = (pi/2) e1e0 squares to -(pi/2)^2.
    B = (math.pi / 2) * mv_blade(EUCLIDEAN4, 0, 1)
    got = exp_blade(B)
    assert residual(got, exp_series(B)) <= 1e-12
    # cos(pi/2) + e1e0 sin(pi/2) = e1e0
    assert residual(got, mv_blade(EUCLIDEAN4, 0, 1)) <= 1e-12


def test_exp_hyperbolic_against_series():
    # B = phi g1g0 with phi = ln 3 squares to +phi^2.
    phi = math.log(3.0)
    B = phi * mv_blade(SPACETIME13, 0, 1)
    got = exp_blade(B)
    assert residual(got, exp_series(B)) <= 1e-12
    expected = Multivector.scalar(SPACETIME13, 5.0 / 3.0) + (4.0 / 3.0) * mv_blade(
        SPACETIME13, 0, 1
    )
    assert residual(got, expected) <= 1e-12


def test_exp_parabolic_nilpotent():
    # g0 + g1 squares to zero in Cl(1,3): exp = 1 + B, matching the series.
    B = Multivector.vector(SPACETIME13, [1, 1, 0, 0])
    got = exp_blade(B)
    assert residual(got, exp_series(B)) <= 1e-12
    assert residual(got, Multivector.scalar(SPACETIME13, 1.0) + B) == 0.0


def test_exp_inverse_property(rng):
    one4 = Multivector.scalar(EUCLIDEAN4, 1.0)
    one13 = Multivector.scalar(SPACETIME13, 1.0)
    for _ in range(200):
        theta = rng.uniform(-3, 3)
        x = rng.uniform(-1, 1, size=3)
        x /= np.linalg.norm(x)
        xhat = Multivector.vector(EUCLIDEAN4, [0.0, *x])
        B = theta * (xhat * Multivector.basis(EUCLIDEAN4, 0))
        assert residual(exp_blade(B) * exp_blade(-B), one4) <= 1e-12
        phi = rng.uniform(-2, 2)
        xb = Multivector.vector(SPACETIME13, [0.0, *x]) * Multivector.basis(
            SPACETIME13, 0
        )
        assert residual(exp_blade(phi * xb) * exp_blade(-phi * xb), one13) <= 1e-12


def test_exp_rejects_non_scalar_square():
    bad = Multivector.scalar(EUCLIDEAN4, 1.0) + Multivector.basis(EUCLIDEAN4, 0)
    with pytest.raises(NonScalarSquare):
        exp_blade(bad)  # (1+e0)^2 = 2 + 2e0


# ----------------------------------------------------------------------- dot


def test_dot_examples():
    e0 = Multivector.basis(EUCLIDEAN4, 0)
    e1 = Multivector.basis(EUCLIDEAN4, 1)
    g1 = Multivector.basis(SPACETIME13, 1)
    assert dot(e0, e0) == 1.0
    assert dot(g1, g1) == -1.0
    assert dot(e0, e1) == 0.0
    with pytest.raises(NotAVector):
        dot(e0, Multivector.scalar(EUCLIDEAN4, 2.0))


def test_dot_symmetric(rng):
    for _ in range(100):
        a = Multivector.vector(SPACETIME13, rng.uniform(-1, 1, size=4))
        b = Multivector.vector(SPACETIME13, rng.uniform(-1, 1, size=4))
        assert abs(dot(a, b) - dot(b, a)) <= 1e-15


# ------------------------------------------------------------- odds and ends


def test_immutability():
    a = Multivector.scalar(EUCLIDEAN4, 1.0)
    with pytest.raises(ValueError):
        a.coeffs[0] = 2.0


def test_equality_is_exact_and_multivectors_are_unhashable():
    from gaspin.stereo import PlanePoint, lift_hyper, lift_sphere

    one = Multivector.scalar(EUCLIDEAN4, 1.0)
    assert (one == Multivector.scalar(EUCLIDEAN4, 1.0)) is True  # distinct objects
    assert one != Multivector.scalar(EUCLIDEAN4, np.nextafter(1.0, 2.0))
    assert one != Multivector.scalar(SPACETIME13, 1.0)  # same dim, other signature
    assert one != Multivector.scalar(PAULI3, 1.0)
    batch = Multivector(EUCLIDEAN4, np.ones((3, 16)))
    assert (batch == Multivector(EUCLIDEAN4, np.ones((3, 16)))) is True
    assert batch != Multivector(EUCLIDEAN4, np.ones(16))  # other shape
    x = PlanePoint.of(0.5, -0.25, 0.5)
    assert lift_sphere(x) == lift_sphere(x)
    assert lift_hyper(x) == lift_hyper(x)
    with pytest.raises(TypeError):
        hash(one)


def test_finiteness_check_is_exact():
    # Finite coefficients whose sum overflows are accepted, although a check
    # on the sum alone would reject them.
    big = np.zeros(EUCLIDEAN4.dim)
    big[:2] = 1e308
    for coeffs in (big, -big):
        with np.errstate(over="ignore"):
            assert not math.isfinite(np.add.reduce(coeffs))
            assert np.array_equal(Multivector(EUCLIDEAN4, coeffs).coeffs, coeffs)
    for bad in (math.nan, math.inf, -math.inf):
        for slot in range(EUCLIDEAN4.dim):
            for value in (bad, complex(0.0, bad), complex(1.0, bad)):
                coeffs = np.zeros(EUCLIDEAN4.dim, dtype=type(value))
                coeffs[slot] = value
                with pytest.raises(NonFiniteValue):
                    Multivector(EUCLIDEAN4, coeffs)


# Leading coefficients of one case and whether the constructor accepts them.
_FINITENESS_ROWS = {
    "nan": ([math.nan], False),
    "inf": ([math.inf], False),
    "-inf": ([-math.inf], False),
    "inf and -inf": ([math.inf, -math.inf], False),  # they sum to nan
    "finite, sum overflows": ([1e308, 1e308], True),
}


@pytest.mark.parametrize("shape", ((), (5,), (3, 4)), ids=str)
@pytest.mark.parametrize("name", sorted(_FINITENESS_ROWS))
def test_finiteness_semantics_for_single_cases_and_batches(name, shape):
    # the row sits in the last case of a batch, the other cases are zero; the
    # sum over the coefficients overflows or is nan, hence the errstate
    head, accepted = _FINITENESS_ROWS[name]
    coeffs = np.zeros((*shape, EUCLIDEAN4.dim))
    coeffs[(*(n - 1 for n in shape), slice(len(head)))] = head
    with np.errstate(over="ignore", invalid="ignore"):
        if accepted:
            assert np.array_equal(Multivector(EUCLIDEAN4, coeffs).coeffs, coeffs)
            return
        with pytest.raises(NonFiniteValue) as info:
            Multivector(EUCLIDEAN4, coeffs)
    if shape:
        last = shape[0] - 1 if len(shape) == 1 else tuple(n - 1 for n in shape)
        assert str(info.value).endswith(f"(case {last})")


def test_coefficient_dtypes():
    # Integer and float input is real; complex input stays complex.
    for coeffs in (range(16), [0.5] * 16, np.arange(16, dtype=np.float32)):
        assert Multivector(EUCLIDEAN4, coeffs).coeffs.dtype == np.float64
    for coeffs in ([1j] * 16, np.arange(16) * (1 + 2j), np.ones(16, dtype=np.complex64)):
        assert Multivector(EUCLIDEAN4, coeffs).coeffs.dtype == np.complex128
    m = Multivector(EUCLIDEAN4, np.arange(16) + 1j * np.arange(16, 32))
    assert np.array_equal(m.re.coeffs, np.arange(16.0))
    assert np.array_equal(m.im.coeffs, np.arange(16.0, 32.0))
    assert m.re.coeffs.dtype == m.im.coeffs.dtype == np.float64
    assert residual(m.re + 1j * m.im, m) == 0.0
    assert (2j * m).coeffs.dtype == (m * 0.5).coeffs.dtype == np.complex128
    assert (m.scalar_part, m.coefficient(3)) == (16j, 3 + 19j)
    assert type(m.re.scalar_part) is float
    # complex scalars, blades and exponentials of C (x) Cl(p,q)
    g12 = Multivector.blade(SPACETIME13, 0b0110)
    j12 = Multivector.blade(SPACETIME13, 0b0110, 1j)
    assert residual(j12, 1j * g12) == 0.0 and j12.coeffs.dtype == np.complex128
    assert residual(Multivector.scalar(SPACETIME13, 2j) + g12, g12 + 2j) == 0.0
    assert ((g12 + 1j).scalar_part, (g12 - 1j).scalar_part, (1j - g12).scalar_part) == (1j, -1j, 1j)
    assert (1j - g12).coefficient(0b0110) == -1.0
    assert (j12 * j12).scalar_part == 1.0  # (j g12)^2 = +1: the hyperbolic branch
    want = math.cosh(1.0) + math.sinh(1.0) * j12
    assert residual(exp_blade(j12), want) == 0.0
    B = 0.5j * core.pseudoscalar(EUCLIDEAN4)  # squares to -1/4: the circular branch
    assert residual(exp_blade(B), math.cos(0.5) + (math.sin(0.5) / 0.5) * B) == 0.0
    with pytest.raises(NonScalarSquare):
        exp_blade((1 + 1j) * g12)  # squares to -2j


def test_cayley_table_shape_and_entries():
    table = core.cayley_table(PAULI3)
    assert len(table) == 8 and all(len(row) == 8 for row in table)
    assert table[0b001][0b001] == (1, 0)  # e1*e1 = +1
    t13 = core.cayley_table(SPACETIME13)
    assert t13[0b0010][0b0010] == (-1, 0)  # g1*g1 = -1


def test_pseudoscalar_squares():
    # e123 in Pauli3 and g012 in Minkowski12 both square to -1.
    for sig in (PAULI3, MINKOWSKI12):
        i = core.pseudoscalar(sig)
        assert (i * i).scalar_part == -1.0
    # g0123 squares to -1, e0123 to +1.
    assert (core.pseudoscalar(SPACETIME13) * core.pseudoscalar(SPACETIME13)).scalar_part == -1.0
    assert (core.pseudoscalar(EUCLIDEAN4) * core.pseudoscalar(EUCLIDEAN4)).scalar_part == 1.0
