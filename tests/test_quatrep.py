import numpy as np
import pytest

from gaspin.core import EUCLIDEAN4, Multivector, allclose, geometric_product, residual
from gaspin.errors import NotInSubalgebra, SignatureMismatch
from gaspin.quatrep import (
    QuatMatrix2,
    Quaternion,
    basis_change_matrix,
    change_of_basis,
    idempotent_identities,
    matrix_residual,
    quat_mul,
    rep_pss,
    rep_vec,
    unrep_pss,
    unrep_vec,
)

from conftest import random_mv


def rand_quat(rng, integer=False):
    if integer:
        vals = rng.integers(-4, 5, size=4).astype(float)
    else:
        vals = rng.uniform(-1, 1, size=4)
    return Quaternion(vals[0], tuple(vals[1:]))


def quat_matrix(rng):
    return QuatMatrix2.from_entries(*(rand_quat(rng) for _ in range(4)))


# ----------------------------------------------------------- quaternion ring


def test_quat_mul_matches_core_product(rng):
    for _ in range(1000):
        a = rand_quat(rng, integer=True)
        b = rand_quat(rng, integer=True)
        lhs = quat_mul(a, b).to_multivector()
        rhs = geometric_product(a.to_multivector(), b.to_multivector())
        assert residual(lhs, rhs) == 0.0


def test_unit_bivector_products():
    # i = e23, j = e13, k = e12; the embedded triple gives i*j = k at the
    # multivector level, fixed by the core-algebra oracle.
    i_b = Multivector.blade(EUCLIDEAN4, 0b1100)
    j_b = Multivector.blade(EUCLIDEAN4, 0b1010)
    k_b = Multivector.blade(EUCLIDEAN4, 0b0110)
    assert allclose(geometric_product(i_b, j_b), k_b)
    qi = Quaternion.from_multivector(i_b)
    qj = Quaternion.from_multivector(j_b)
    assert residual(quat_mul(qi, qj).to_multivector(), k_b) == 0.0


def test_quat_identity_and_unit_vector_square(rng):
    q = rand_quat(rng)
    assert quat_mul(q, Quaternion.one()) == q
    ie1 = Quaternion.from_vector((1.0, 0.0, 0.0))
    assert quat_mul(ie1, ie1) == Quaternion.from_scalar(-1.0)


def test_quat_norm_positive(rng):
    q = rand_quat(rng)
    n2 = quat_mul(q, q.conjugate())
    assert n2.v == (0.0, 0.0, 0.0)
    assert n2.s == pytest.approx(q.norm2(), abs=1e-15)
    assert Quaternion.zero().norm2() == 0.0


def test_embedding_roundtrip(rng):
    q = rand_quat(rng)
    assert Quaternion.from_multivector(q.to_multivector()) == q
    with pytest.raises(ValueError):
        Quaternion.from_multivector(Multivector.basis(EUCLIDEAN4, 0))
    # the check is relative: a part outside the subalgebra 1e-9 of the size
    # is refused at every scale, and a quaternion is accepted at every scale
    for lam in (1e-200, 1.0, 1e200):
        q_lam = q.scale(lam)
        assert Quaternion.from_multivector(q_lam.to_multivector()) == q_lam
        off = q_lam.to_multivector() + (1e-9 * lam * q.max_abs()) * Multivector.basis(EUCLIDEAN4, 0)
        with pytest.raises(NotInSubalgebra):
            Quaternion.from_multivector(off)


def test_matrix_ops_match_entrywise_oracle(rng):
    # Reference: the row-into-column cell formula over quat_mul, and the
    # entrywise Quaternion.conjugate of the transpose; exact on integers.
    for integer, tol in [(True, 0.0)] * 200 + [(False, 1e-14)] * 200:
        a = QuatMatrix2.from_entries(*(rand_quat(rng, integer) for _ in range(4)))
        b = QuatMatrix2.from_entries(*(rand_quat(rng, integer) for _ in range(4)))
        cells = [
            quat_mul(a.entry(j, 0), b.entry(0, k)) + quat_mul(a.entry(j, 1), b.entry(1, k))
            for j in range(2)
            for k in range(2)
        ]
        assert matrix_residual(a * b, QuatMatrix2.from_entries(*cells)) <= tol
        conj = [a.entry(k, j).conjugate() for j in range(2) for k in range(2)]
        assert matrix_residual(a.conjugate_transpose(), QuatMatrix2.from_entries(*conj)) == 0.0
    # rep inverts unrep exactly on the 16 matrix units of both bases.
    for unit in np.eye(16).reshape(16, 2, 2, 4):
        U = QuatMatrix2(unit)
        assert matrix_residual(rep_vec(unrep_vec(U)), U) == 0.0
        assert matrix_residual(rep_pss(unrep_pss(U)), U) == 0.0


# ------------------------------------------------------------ representation


def _mv(coeff_map):
    c = np.zeros(EUCLIDEAN4.dim)
    for mask, val in coeff_map.items():
        c[mask] = val
    return Multivector(EUCLIDEAN4, c)


def test_rep_vec_generator_matrices():
    got = rep_vec(Multivector.basis(EUCLIDEAN4, 0))
    want = QuatMatrix2.from_entries(
        Quaternion.one(), Quaternion.zero(), Quaternion.zero(), -Quaternion.one()
    )
    assert matrix_residual(got, want) == 0.0
    # [e_k] = [[0, i e_k], [-i e_k, 0]]
    for k in range(3):
        unit = Quaternion.from_vector(tuple(1.0 if t == k else 0.0 for t in range(3)))
        got = rep_vec(Multivector.basis(EUCLIDEAN4, k + 1))
        want = QuatMatrix2.from_entries(Quaternion.zero(), unit, -unit, Quaternion.zero())
        assert matrix_residual(got, want) == 0.0


def test_rep_vec_of_i_and_quaternion(rng):
    # [i] = [[0, -1], [1, 0]]
    got = rep_vec(Multivector.blade(EUCLIDEAN4, 0b1110))
    want = QuatMatrix2.from_entries(
        Quaternion.zero(), -Quaternion.one(), Quaternion.one(), Quaternion.zero()
    )
    assert matrix_residual(got, want) == 0.0
    # [q] = [[q, 0], [0, q]]
    q = rand_quat(rng)
    got = rep_vec(q.to_multivector())
    want = QuatMatrix2.from_entries(q, Quaternion.zero(), Quaternion.zero(), q)
    assert matrix_residual(got, want) <= 1e-15


def test_rep_vec_position_vector(rng):
    x0 = 0.7
    x = (0.3, -0.2, 1.1)
    g = _mv({0b0001: x0, 0b0010: x[0], 0b0100: x[1], 0b1000: x[2]})
    q = Quaternion.from_vector(x)
    want = QuatMatrix2.from_entries(Quaternion.from_scalar(x0), q, -q, Quaternion.from_scalar(-x0))
    assert matrix_residual(rep_vec(g), want) == 0.0


def test_rep_pss_position_vector():
    x0 = -0.4
    x = (0.5, 0.25, -1.5)
    g = _mv({0b0001: x0, 0b0010: x[0], 0b0100: x[1], 0b1000: x[2]})
    want = QuatMatrix2.from_entries(
        Quaternion.zero(),
        Quaternion(x0, x),
        Quaternion(x0, tuple(-c for c in x)),
        Quaternion.zero(),
    )
    assert matrix_residual(rep_pss(g), want) == 0.0
    got_e0 = rep_pss(Multivector.basis(EUCLIDEAN4, 0))
    want_e0 = QuatMatrix2.from_entries(
        Quaternion.zero(), Quaternion.one(), Quaternion.one(), Quaternion.zero()
    )
    assert matrix_residual(got_e0, want_e0) == 0.0


def test_rep_rejects_other_signature():
    from gaspin.core import SPACETIME13

    with pytest.raises(SignatureMismatch):
        rep_vec(Multivector.scalar(SPACETIME13, 1.0))


def test_unrep_examples(rng):
    assert allclose(unrep_vec(QuatMatrix2.identity()), Multivector.scalar(EUCLIDEAN4, 1.0))
    m_e0 = QuatMatrix2.from_entries(
        Quaternion.one(), Quaternion.zero(), Quaternion.zero(), -Quaternion.one()
    )
    assert allclose(unrep_vec(m_e0), Multivector.basis(EUCLIDEAN4, 0))
    g = _mv({0b0001: 1.0, 0b0110: 2.0})  # e0 + 2 e12
    assert residual(unrep_vec(rep_vec(g)), g) == 0.0
    assert residual(unrep_pss(rep_pss(g)), g) == 0.0
    g = random_mv(rng, EUCLIDEAN4)
    assert residual(unrep_pss(rep_pss(g)), g) <= 1e-15


# ------------------------------------------------------------ change of basis


def test_change_of_basis_on_generators_and_random(rng):
    e0 = Multivector.basis(EUCLIDEAN4, 0)
    assert matrix_residual(change_of_basis(rep_pss(e0)), rep_vec(e0)) <= 1e-15
    assert matrix_residual(
        change_of_basis(QuatMatrix2.identity()), QuatMatrix2.identity()
    ) <= 1e-15
    for _ in range(100):
        g = random_mv(rng, EUCLIDEAN4)
        assert matrix_residual(change_of_basis(rep_pss(g)), rep_vec(g)) <= 1e-12


def test_basis_change_matrix_unitary():
    A = basis_change_matrix()
    assert matrix_residual(A * A.conjugate_transpose(), QuatMatrix2.identity()) <= 1e-15
    assert matrix_residual(A.conjugate_transpose() * A, QuatMatrix2.identity()) <= 1e-15


def test_idempotent_identities_exact_and_b_singular():
    report = idempotent_identities()
    assert report["pseudoscalar_idempotent_from_vec"] == 0.0
    assert report["vec_idempotent_from_pseudoscalar"] == 0.0
    # the B-form picks up (sqrt2/2)^2 rounding; the outer form is dyadic
    assert report["spectral_basis_relation"] <= 1e-15
    assert report["spectral_basis_outer_form"] == 0.0
    assert report["b_times_b_star_max_deviation"] >= 0.5
