import numpy as np
import pytest

from gaspin import cli, isomap, quatrep
from gaspin.core import (EUCLIDEAN4, SPACETIME13, Multivector, column_matrix, geometric_product,
                         idempotent, residual, reverse)
from gaspin.errors import GAError, NotInSubalgebra, SignatureMismatch
from gaspin.quatrep import (
    QuatMatrix2,
    Quaternion,
    basis_change_matrix,
    change_of_basis,
    matrix_residual,
    quat_mul,
    rep_pss,
    rep_vec,
    unrep_pss,
    unrep_vec,
)

from conftest import allclose, blade_loop, quat_cells, random_mv, stack_entries


def rand_quat(rng, integer=False):
    if integer:
        vals = rng.integers(-4, 5, size=4).astype(float)
    else:
        vals = rng.uniform(-1, 1, size=4)
    return Quaternion(vals)


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
    ie1 = Quaternion([0.0, 1.0, 0.0, 0.0])
    assert quat_mul(ie1, ie1) == Quaternion([-1.0, 0.0, 0.0, 0.0])


def test_quat_norm_positive(rng):
    q = rand_quat(rng)
    n2 = quat_mul(q, q.conjugate())
    assert np.all(n2.v == 0.0)
    assert n2.s == pytest.approx(q.norm2(), abs=1e-15)
    assert Quaternion.zero().norm2() == 0.0


def test_embedding_roundtrip(rng):
    q = rand_quat(rng)
    assert Quaternion.from_multivector(q.to_multivector()) == q
    # a typed error, also a ValueError, for elements off the subalgebra
    assert issubclass(NotInSubalgebra, GAError) and issubclass(NotInSubalgebra, ValueError)
    with pytest.raises(ValueError):
        Quaternion.from_multivector(Multivector.basis(EUCLIDEAN4, 0))
    # the check is relative: a part outside the subalgebra 1e-9 of the size
    # is refused at every scale, and a quaternion is accepted at every scale
    for lam in (1e-200, 1.0, 1e200):
        q_lam = q.scale(lam)
        assert Quaternion.from_multivector(q_lam.to_multivector()) == q_lam
        off = q_lam.to_multivector() + (1e-9 * lam * np.abs(q.coeffs).max()) * Multivector.basis(EUCLIDEAN4, 0)
        with pytest.raises(NotInSubalgebra):
            Quaternion.from_multivector(off)


def test_matrix_ops_match_entrywise_oracle(rng):
    # Reference: the row-into-column cell formula over quat_mul, and the
    # entrywise Quaternion.conjugate of the transpose; exact on integers.
    # 200 integer and 200 float cases, each set as one batch.
    size = (200, 2, 2, 4)
    for integer, tol in ((True, 0.0), (False, 1e-14)):
        a, b = (QuatMatrix2(rng.integers(-4, 5, size).astype(float) if integer
                            else rng.uniform(-1, 1, size)) for _ in range(2))
        assert np.all(matrix_residual(a * b, QuatMatrix2(quat_cells(a.coeffs, b.coeffs))) <= tol)
        conj = stack_entries([[Quaternion(a.coeffs[..., k, j, :]).conjugate() for k in range(2)]
                              for j in range(2)])
        assert np.all(matrix_residual(a.conjugate_transpose(), QuatMatrix2(conj)) == 0.0)
    # rep inverts unrep exactly on the 16 matrix units of both bases.
    for unit in np.eye(16).reshape(16, 2, 2, 4):
        U = QuatMatrix2(unit)
        assert matrix_residual(rep_vec(unrep_vec(U)), U) == 0.0
        assert matrix_residual(rep_pss(unrep_pss(U)), U) == 0.0


# --------------------------------------------------- the cached fixed maps


def _columns(values):
    return np.stack([v.coeffs.ravel() for v in values], axis=1)


def _isomap_reference(target):
    """Generator images t0 and t_k t0, extended blade by blade."""
    t = [Multivector.basis(target, k) for k in range(4)]
    gens = [t[0]] + [geometric_product(t[k], t[0]) for k in (1, 2, 3)]
    return _columns(blade_loop(gens, Multivector.scalar(target, 1.0)))


def _rep_reference(basis):
    """[e0] = diag(1, -1) over (1 +- e0)/2, [[0, 1], [1, 0]] over
    (1 +- e0123)/2; [ek] = [[0, i ek], [-i ek, 0]]; extended blade by blade."""
    z, one = Quaternion.zero(), Quaternion.one()
    e0 = (one, z, z, -one) if basis == "vec" else (z, one, one, z)
    ek = ((z, q, -q, z) for q in map(Quaternion, np.eye(4)[1:]))
    gens = [QuatMatrix2.from_entries(*entries) for entries in (e0, *ek)]
    return _columns(blade_loop(gens, QuatMatrix2.identity()))


def _unrep_reference(basis):
    """The sandwich sum over (j, k) of row[j] idem M[j, k] col[k], one matrix
    unit M and one single product at a time."""
    one = Multivector.scalar(EUCLIDEAN4, 1.0)
    e0, i = Multivector.basis(EUCLIDEAN4, 0), Multivector.blade(EUCLIDEAN4, 0b1110)
    if basis == "vec":
        row, idem, col = (one, i), idempotent(EUCLIDEAN4, 0b0001), (one, -i)
    else:
        row, idem, col = (one, e0), idempotent(EUCLIDEAN4, 0b1111), (one, e0)
    images = []
    for unit in np.eye(16).reshape(16, 2, 2, 4):
        out = Multivector.zero(EUCLIDEAN4)
        for j in range(2):
            for k in range(2):
                out = out + row[j] * idem * Quaternion(unit[j, k]).to_multivector() * col[k]
        images.append(out)
    return _columns(images)


def test_cached_maps_equal_their_loop_references():
    # every cached matrix, read off one batch, against the loop of single
    # products it replaced: exactly, entry by entry
    pairs = [(isomap._map_matrix("e4_to_sta"), _isomap_reference(SPACETIME13)),
             (isomap._map_matrix("sta_to_e4"), _isomap_reference(EUCLIDEAN4))]
    for basis in ("vec", "pss"):
        pairs.append((quatrep._rep_matrix(basis), _rep_reference(basis)))
        pairs.append((quatrep._unrep_matrix(basis), _unrep_reference(basis)))
    for cached, reference in pairs:
        assert np.array_equal(cached, reference)
        assert not cached.flags.writeable
    # a batch's first axis alone indexes the columns; the rest of a case is flattened
    batch = QuatMatrix2(np.arange(256.0).reshape(16, 2, 2, 4))
    assert np.array_equal(column_matrix(batch), batch.coeffs.reshape(16, 16).T)


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
        unit = Quaternion(np.eye(4)[k + 1])
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
    q = Quaternion([0.0, *x])
    want = QuatMatrix2.from_entries(Quaternion([x0, 0, 0, 0]), q, -q, Quaternion([-x0, 0, 0, 0]))
    assert matrix_residual(rep_vec(g), want) == 0.0


def test_rep_pss_position_vector():
    x0 = -0.4
    x = (0.5, 0.25, -1.5)
    g = _mv({0b0001: x0, 0b0010: x[0], 0b0100: x[1], 0b1000: x[2]})
    want = QuatMatrix2.from_entries(
        Quaternion.zero(),
        Quaternion([x0, *x]),
        Quaternion([x0, *(-c for c in x)]),
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


def _tuple_route_identities():
    """The relations of the ``quatrep.idempotent_relations`` suite on 2x2
    matrices held as tuples of tuples of multivectors, one single product at a
    time."""
    def matmul(a, b):
        return tuple(tuple(a[j][0] * b[0][k] + a[j][1] * b[1][k] for k in range(2))
                     for j in range(2))

    def star(a):
        return tuple(tuple(reverse(a[k][j]) for k in range(2)) for j in range(2))

    def worst(a, b):
        return max(residual(a[j][k], b[j][k]) for j in range(2) for k in range(2))

    e0, i, big_i = (Multivector.blade(EUCLIDEAN4, m) for m in (0b0001, 0b1110, 0b1111))
    ip, im = idempotent(EUCLIDEAN4, 0b1110, +1), idempotent(EUCLIDEAN4, 0b1110, -1)
    ep, em = idempotent(EUCLIDEAN4, 0b0001, +1), idempotent(EUCLIDEAN4, 0b0001, -1)
    Ip, Im = idempotent(EUCLIDEAN4, 0b1111, +1), idempotent(EUCLIDEAN4, 0b1111, -1)
    s = 1.0 / np.sqrt(2.0)
    lhs = ((ep, -1.0 * (i * em)), (i * ep, em))
    B = ((ip * s, im * s), ((-1.0 * im) * s, ip * s))
    pss = ((Ip, e0 * Im), (e0 * Ip, Im))
    col, row = (ip, -1.0 * im), (im, -1.0 * ip)
    outer = tuple(tuple(2.0 * (col[j] * Ip * row[k]) for k in range(2)) for j in range(2))
    one, zero = Multivector.scalar(EUCLIDEAN4, 1.0), Multivector.zero(EUCLIDEAN4)
    return {
        "pseudoscalar_idempotent_from_vec": residual(Ip, 2.0 * (im * ep * ip)),
        "vec_idempotent_from_pseudoscalar": residual(ep, 2.0 * (ip * Ip * im)),
        "spectral_basis_relation": worst(lhs, matmul(matmul(B, pss), star(B))),
        "spectral_basis_outer_form": worst(lhs, outer),
        "b_times_b_star_max_deviation": worst(matmul(B, star(B)), ((one, zero), (zero, one))),
    }


def test_idempotent_identities_exact_and_b_singular():
    # the suite's batched parts equal the tuple route key by key, to the bit;
    # the suite reports B Bstar's deviation as its headroom over 0.5
    report, _ = cli.SUITES["quatrep.idempotent_relations"](np.random.default_rng(0), 1)
    report["b_times_b_star_max_deviation"] = 0.5 - report["b_times_b_star_max_deviation"]
    assert report == _tuple_route_identities()
    assert all(type(v) is float for v in report.values())
    assert report["pseudoscalar_idempotent_from_vec"] == 0.0
    assert report["vec_idempotent_from_pseudoscalar"] == 0.0
    # the B-form picks up (sqrt2/2)^2 rounding; the outer form is dyadic
    assert report["spectral_basis_relation"] == 1.1102230246251565e-16
    assert report["spectral_basis_outer_form"] == 0.0
    assert report["b_times_b_star_max_deviation"] >= 0.5
