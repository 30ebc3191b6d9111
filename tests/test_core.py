import math
import warnings
from dataclasses import fields

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
    dot,
    exp_blade,
    geometric_product,
    grade_select,
    residual,
    reverse,
    vector_inverse,
)
from gaspin.dirac import DiracSpinor
from gaspin.errors import (
    GradeOutOfRange,
    NonFiniteValue,
    NonScalarSquare,
    NotAVector,
    NullVector,
    SignatureMismatch,
)
from gaspin.quatrep import QuatMatrix2, Quaternion
from gaspin.stereo import PlanePoint

from conftest import ALL_SIGNATURES, allclose, blade_product, random_mv


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
    # labels with no common letter prefix and digit suffix are joined whole
    assert Signature(2, 1, ("x", "y", "t")).blade_name(0b011) == "xy"
    assert Signature(2, 0, ("e1", "g2")).blade_name(0b11) == "e1g2"


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


def test_blade_images_of_the_generators_are_the_blades():
    # the identity map on generators extends to every blade with sign +1,
    # since each mask's generators multiply in ascending order
    for sig in ALL_SIGNATURES:
        gens = Multivector(sig, np.eye(sig.dim)[1 << np.arange(sig.n)])
        images = core.blade_images(gens, Multivector.scalar(sig, 1.0))
        assert np.array_equal(images.coeffs, np.eye(sig.dim))


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


def test_geometric_product_matches_blade_sum(rng):
    """The table kernel against a direct sum of blade_product terms; integer
    operands, dense or with about half their blades zero, make both routes
    exact."""
    for sig in (*ALL_SIGNATURES, *_all_signatures(5)):
        terms = [
            (i, j, *blade_product(i, j, sig)) for i in range(sig.dim) for j in range(sig.dim)
        ]
        for k in range(8):
            a = random_mv(rng, sig, integer=True)
            b = random_mv(rng, sig, integer=True)
            if k % 2:
                a, b = (Multivector(sig, x.coeffs * rng.integers(0, 2, sig.dim)) for x in (a, b))
            expected = np.zeros(sig.dim)
            for i, j, sign, mask in terms:
                expected[mask] += sign * a.coeffs[i] * b.coeffs[j]
            product = geometric_product(a, b).coeffs
            assert product.dtype == np.float64
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
    mixed = Multivector.scalar(EUCLIDEAN4, 1.0) + v
    with pytest.raises(NotAVector):
        vector_inverse(mixed)
    # the message quotes the failing case, alone or in a batch
    text = r"^non-vector parts present: 1\*1 \+ 1\*e0 \+ 1\*e1"
    with pytest.raises(NotAVector, match=text + "$"):
        core.vector_square(mixed)
    with pytest.raises(NotAVector, match=text + r" \(case 1\)$"):
        core.vector_square(Multivector(EUCLIDEAN4, np.stack([v.coeffs, mixed.coeffs])))


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


@pytest.mark.parametrize("sig", ALL_SIGNATURES, ids=lambda s: "".join(s.generator_labels))
def test_core_results_are_read_only_and_share_no_operand_memory(rng, sig):
    # core's own results skip the constructor's copy; each still owns its
    # coefficients and cannot be written, for one case and for a batch (a
    # complex factor still reaches the constructor's TypeError: see
    # test_complex_input_is_a_type_error)
    one = Multivector(sig, rng.uniform(-1.0, 1.0, sig.dim))
    batch = Multivector(sig, rng.uniform(-1.0, 1.0, (5, sig.dim)))
    per_case = rng.uniform(0.5, 1.0, 5)
    components = [rng.uniform(-1.0, 1.0, 5) for _ in range(sig.n)]
    results = [
        ("zero", Multivector.zero(sig), ()),
        ("blade", Multivector.blade(sig, 1, per_case), (per_case,)),
        ("vector", Multivector.vector(sig, components), components),
        ("per-case mul", per_case * batch, (per_case, batch.coeffs)),
    ]
    for a, b in ((one, batch), (batch, one), (batch, batch), (one, one)):
        results += [
            ("add", a + b, (a.coeffs, b.coeffs)),
            ("neg", -a, (a.coeffs,)),
            ("scalar mul", a * 2.5, (a.coeffs,)),
            ("div", a / 3.0, (a.coeffs,)),
            ("product", geometric_product(a, b), (a.coeffs, b.coeffs)),
            ("reverse", reverse(a), (a.coeffs,)),
            ("grade_select", grade_select(a, (0, 2)), (a.coeffs,)),
        ]
    for name, m, sources in results:
        assert m.coeffs.dtype == np.float64 and not m.coeffs.flags.writeable, name
        assert not any(np.shares_memory(m.coeffs, x) for x in sources), name


def test_repr_of_one_case_and_of_a_batch():
    assert repr(Multivector.vector(EUCLIDEAN4, [1.0, 0.0, -2.5, 0.0])) == "1*e0 + -2.5*e2"
    assert repr(Multivector.zero(PAULI3)) == "0"
    batch = Multivector(PAULI3, np.ones((3, 4, 8)))
    assert repr(batch) == "<batch (3, 4) of ('e1', 'e2', 'e3')>"


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
        assert not math.isfinite(sum(coeffs.tolist()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and without a RuntimeWarning
            assert np.array_equal(Multivector(EUCLIDEAN4, coeffs).coeffs, coeffs)
    for bad in (math.nan, math.inf, -math.inf):
        for slot in range(EUCLIDEAN4.dim):
            for other in (0.0, 1.0, -1e308):
                coeffs = np.full(EUCLIDEAN4.dim, other)
                coeffs[slot] = bad
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


# Value type: (the float entries of one case, its constructor on them).  Every
# value type builds its array by ``core.freeze``, so every one keeps these rows.
_VALUE_TYPES = {
    "Multivector": ((EUCLIDEAN4.dim,), lambda c: Multivector(EUCLIDEAN4, c)),
    "PlanePoint": ((3,), PlanePoint),
    "Quaternion": ((4,), Quaternion),
    "QuatMatrix2": ((2, 2, 4), QuatMatrix2),
    "DiracSpinor": ((8,), lambda c: DiracSpinor(c.view(complex))),  # a row's (re, im) pairs
}
_ROWS_BY_TYPE = [(name, kind) for kind in _VALUE_TYPES for name in sorted(_FINITENESS_ROWS)]


@pytest.mark.parametrize("shape", ((), (5,), (3, 4)), ids=str)
@pytest.mark.parametrize(  # Multivector rows keep the ids they had before the other types
    "name, kind", _ROWS_BY_TYPE,
    ids=[name if kind == "Multivector" else f"{kind} {name}" for name, kind in _ROWS_BY_TYPE])
def test_finiteness_semantics_for_single_cases_and_batches(name, kind, shape):
    # the row sits in the last case of a batch, the other cases are zero; the
    # sum over the entries overflows or is nan, and no warning is raised
    head, accepted = _FINITENESS_ROWS[name]
    case, build = _VALUE_TYPES[kind]
    coeffs = np.zeros((*shape, math.prod(case)))
    coeffs[(*(n - 1 for n in shape), slice(len(head)))] = head
    coeffs = coeffs.reshape(*shape, *case)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if accepted:
            value = build(coeffs)
            assert np.array_equal(getattr(value, fields(value)[-1].name).view(float), coeffs)
            return
        with pytest.raises(NonFiniteValue) as info:
            build(coeffs)
    if shape:
        last = shape[0] - 1 if len(shape) == 1 else tuple(n - 1 for n in shape)
        assert str(info.value).endswith(f"(case {last})")


def test_coefficient_dtypes():
    # Integer, boolean and float input is float64, and so is every result.
    for coeffs in (range(16), [0.5] * 16, np.arange(16, dtype=np.float32), np.ones(16, bool)):
        assert Multivector(EUCLIDEAN4, coeffs).coeffs.dtype == np.float64
    m = Multivector(EUCLIDEAN4, np.arange(16))
    assert (2 * m).coeffs.dtype == (m * 0.5).coeffs.dtype == (m * m).coeffs.dtype == np.float64
    assert type(m.scalar_part) is float and m.coefficient(3) == 3.0
    assert Multivector.blade(EUCLIDEAN4, 3, 2).coeffs.dtype == np.float64
    assert not hasattr(m, "re") and not hasattr(m, "im")


_CL41 = Signature(4, 1, ("e1", "e2", "e3", "e4", "e5"))


def test_complex_input_is_a_type_error():
    # the constructor's same-kind cast refuses complex input before numpy
    # could warn and drop the imaginary part, so no warning is raised either
    m = Multivector.basis(EUCLIDEAN4, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for make in (lambda: Multivector(EUCLIDEAN4, [1j] * 16),
                     lambda: Multivector(EUCLIDEAN4, np.arange(16) * (1 + 2j)),
                     lambda: Multivector(EUCLIDEAN4, np.ones((3, 16), dtype=np.complex64)),
                     lambda: m * 1j, lambda: 1j * m, lambda: m + 1j, lambda: m - 1j,
                     lambda: m * np.array(2j), lambda: m + np.array([1j, 0]),
                     lambda: Multivector.blade(EUCLIDEAN4, 3, 1j),
                     lambda: Multivector.blade(EUCLIDEAN4, 3, np.array([1.0, 1j])),
                     lambda: Multivector.scalar(EUCLIDEAN4, 2j),
                     lambda: m / 1j):
            with pytest.raises(TypeError):
                make()


def test_exp_blade_in_cl41_where_the_pseudoscalar_plays_j():
    # Cl(4,1) is the complexified Cl(1,3): I = e12345 is central with I^2 = -1,
    # so I e23 (the image of j g12) squares to +1 and takes the hyperbolic
    # branch, 0.5 I the circular one; e12 + I squares to -2 + 2 I e12
    i5 = core.pseudoscalar(_CL41)
    e23, e12 = Multivector.blade(_CL41, 0b00110), Multivector.blade(_CL41, 0b00011)
    for k in range(5):
        assert residual(i5 * mv_blade(_CL41, k), mv_blade(_CL41, k) * i5) == 0.0
    jb = i5 * e23
    assert (jb * jb).scalar_part == 1.0
    assert residual(exp_blade(jb), math.cosh(1.0) + math.sinh(1.0) * jb) == 0.0
    B = 0.5 * i5  # squares to -1/4
    assert residual(exp_blade(B), math.cos(0.5) + (math.sin(0.5) / 0.5) * B) == 0.0
    with pytest.raises(NonScalarSquare):
        exp_blade(e12 + i5)


def test_pseudoscalar_squares():
    # e123 in Pauli3 and g012 in Minkowski12 both square to -1.
    for sig in (PAULI3, MINKOWSKI12):
        i = core.pseudoscalar(sig)
        assert (i * i).scalar_part == -1.0
    # g0123 squares to -1, e0123 to +1.
    assert (core.pseudoscalar(SPACETIME13) * core.pseudoscalar(SPACETIME13)).scalar_part == -1.0
    assert (core.pseudoscalar(EUCLIDEAN4) * core.pseudoscalar(EUCLIDEAN4)).scalar_part == 1.0
