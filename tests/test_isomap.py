import numpy as np
import pytest

from gaspin.core import (
    EUCLIDEAN4,
    SPACETIME13,
    Multivector,
    allclose,
    geometric_product,
    grade_of,
    residual,
)
from gaspin import isomap
from gaspin.errors import SignatureMismatch, VerificationFailure
from gaspin.isomap import (
    AlgebraTag,
    blade_image_table,
    euclidean_to_spacetime,
    spacetime_to_euclidean,
)

from conftest import random_mv

# Derived mechanically from the generator identification and frozen as a
# regression table: (blade mask in Cl(4,0), sign, image mask in Cl(1,3)).
GOLDEN_TABLE = [
    (0, +1, 0),    # 1      -> +1
    (1, +1, 1),    # e0     -> +g0
    (2, -1, 3),    # e1     -> -g01  (= +g10)
    (3, -1, 2),    # e01    -> -g1
    (4, -1, 5),    # e2     -> -g02
    (5, -1, 4),    # e02    -> -g2
    (6, -1, 6),    # e12    -> -g12
    (7, -1, 7),    # e012   -> -g012
    (8, -1, 9),    # e3     -> -g03
    (9, -1, 8),    # e03    -> -g3
    (10, -1, 10),  # e13    -> -g13
    (11, -1, 11),  # e013   -> -g013
    (12, -1, 12),  # e23    -> -g23
    (13, -1, 13),  # e023   -> -g023
    (14, +1, 15),  # e123   -> +g0123
    (15, +1, 14),  # e0123  -> +g123
]


def test_tag_signatures():
    assert AlgebraTag.EUCLIDEAN4.signature == EUCLIDEAN4
    assert AlgebraTag.SPACETIME13.signature == SPACETIME13
    assert AlgebraTag.PAULI3.signature.n == 3
    assert AlgebraTag.MINKOWSKI12.signature.minus_count == 2


def test_generator_images():
    e0 = Multivector.basis(EUCLIDEAN4, 0)
    assert allclose(euclidean_to_spacetime(e0), Multivector.basis(SPACETIME13, 0))
    e1 = Multivector.basis(EUCLIDEAN4, 1)
    g1g0 = geometric_product(
        Multivector.basis(SPACETIME13, 1), Multivector.basis(SPACETIME13, 0)
    )
    assert allclose(euclidean_to_spacetime(e1), g1g0)
    g0 = Multivector.basis(SPACETIME13, 0)
    assert allclose(spacetime_to_euclidean(g0), e0)
    g1 = Multivector.basis(SPACETIME13, 1)
    e1e0 = geometric_product(e1, e0)
    assert allclose(spacetime_to_euclidean(g1), e1e0)


def test_golden_blade_table_frozen():
    assert blade_image_table() == GOLDEN_TABLE


def test_blade_table_rejects_a_multi_blade_image(monkeypatch):
    two_blades = Multivector.basis(SPACETIME13, 0) + Multivector.basis(SPACETIME13, 1)
    monkeypatch.setattr(isomap, "_g4_blade_images", lambda: (two_blades,))
    with pytest.raises(VerificationFailure):
        blade_image_table()


def test_grade_images_not_preserved():
    # e1 (grade 1) maps to a grade-2 blade; the 4-volume maps to grade 3.
    for mask, _, img in GOLDEN_TABLE:
        got = euclidean_to_spacetime(Multivector.blade(EUCLIDEAN4, mask))
        assert {grade_of(int(m)) for m in np.flatnonzero(got.coeffs)} == ({grade_of(img)} if img or mask == 0 else set())
    assert grade_of(GOLDEN_TABLE[2][2]) == 2
    assert grade_of(GOLDEN_TABLE[15][2]) == 3


def test_linear(rng):
    a = random_mv(rng, EUCLIDEAN4)
    b = random_mv(rng, EUCLIDEAN4)
    lhs = euclidean_to_spacetime(a + 0.25 * b)
    rhs = euclidean_to_spacetime(a) + 0.25 * euclidean_to_spacetime(b)
    assert residual(lhs, rhs) <= 1e-15


def test_refuses_wrong_signature():
    with pytest.raises(SignatureMismatch):
        euclidean_to_spacetime(Multivector.scalar(SPACETIME13, 1.0))
    with pytest.raises(SignatureMismatch):
        spacetime_to_euclidean(Multivector.scalar(EUCLIDEAN4, 1.0))
