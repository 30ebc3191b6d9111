import pathlib
import re

import numpy as np
import pytest

from gaspin.core import (EUCLIDEAN4, MINKOWSKI12, PAULI3, SPACETIME13, TOL, Multivector,
                         column_matrix, residual)
from gaspin.quatrep import Quaternion
from gaspin.spinors import CenterScalar, IdealSpinor

ALL_SIGNATURES = (EUCLIDEAN4, SPACETIME13, PAULI3, MINKOWSKI12)

README = pathlib.Path(__file__).parents[1] / "README.md"


def readme_cli_lines():
    """The argv of each ``gaspin`` line in README's CLI usage block."""
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    assert block, "README.md has no CLI usage block"
    return [line.split("#")[0].split()[1:] for line in block.group(1).splitlines()
            if line.startswith("gaspin ")]


def random_mv(rng, signature, integer=False, scale=1.0):
    if integer:
        coeffs = rng.integers(-3, 4, size=signature.dim).astype(float)
    else:
        coeffs = rng.uniform(-scale, scale, size=signature.dim)
    return Multivector(signature, coeffs)


def allclose(a, b):
    return residual(a, b) <= TOL


def _indices(mask):
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def blade_product(mask_a, mask_b, signature):
    """Product of two basis blades -> (sign, result mask): the loop reference
    for ``core.sign_table``.

    Sign counts the transpositions needed to sort the concatenated
    generator lists, then applies one metric sign per repeated generator.
    """
    factors = _indices(mask_a)
    sign = 1
    for gen in _indices(mask_b):
        swaps = sum(1 for g in factors if g > gen)
        if swaps % 2:
            sign = -sign
        if gen in factors:
            factors.remove(gen)
            sign *= signature.metric(gen)
        else:
            factors.append(gen)
    mask = 0
    for g in factors:
        mask |= 1 << g
    return sign, mask


def blade_loop(gens, one):
    """Images of the blade masks, indexed by mask, under the multiplicative
    map sending generator k to ``gens[k]``: each the ordered product of its
    generator images, one single product at a time.  The loop reference for
    ``core.blade_images``; serves Multivector and QuatMatrix2 alike."""
    out = []
    for mask in range(1 << len(gens)):
        acc = one
        for k, g in enumerate(gens):
            if mask >> k & 1:
                acc = acc * g
        out.append(acc)
    return out


def hamilton(a, b):
    """The Hamilton product written out: s1 s2 - v1 . v2 and
    s1 v2 + s2 v1 - v1 x v2, the minus on the cross product because the
    embedded triple (e23, -e13, e12) is left-handed.  The independent route
    for ``quat_mul``, which contracts against a table read off Cl(4,0);
    leading axes of the two Quaternions broadcast."""
    (s1, v1), (s2, v2) = (a.s, a.v), (b.s, b.v)
    s = s1 * s2 - np.sum(v1 * v2, axis=-1)
    v = s1[..., None] * v2 + s2[..., None] * v1 - np.cross(v1, v2)
    return Quaternion(np.concatenate([s[..., None], v], axis=-1))


def stack_entries(rows):
    """(..., 2, 2, 4) coordinates of a 2x2 quaternion matrix given as two rows
    of (batched) Quaternions."""
    return np.stack([np.stack([q.coeffs for q in row], axis=-2) for row in rows], axis=-3)


def quat_cells(a, b):
    """Row into column over the Hamilton product, cell by cell, for
    (..., 2, 2, 4) coordinate arrays whose leading axes broadcast: the
    independent route for the QuatMatrix2 product, which contracts against
    a table."""
    def entry(x, j, k):
        return Quaternion(x[..., j, k, :])

    return stack_entries([[Quaternion(hamilton(entry(a, j, 0), entry(b, 0, k)).coeffs
                                      + hamilton(entry(a, j, 1), entry(b, 1, k)).coeffs)
                           for k in range(2)] for j in range(2)])


def conj(z):
    """Complex conjugate s - p i of a CenterScalar."""
    return CenterScalar(z.s, -z.p)


def ideal(tag, a0, a1):
    """The IdealSpinor of two complex numbers."""
    return IdealSpinor(tag, *(CenterScalar(complex(a).real, complex(a).imag) for a in (a0, a1)))


def frame_coords(m, columns):
    """Coordinates of ``m`` (one case or a batch) over the frame ``columns``:
    the least-squares solution, which must rebuild ``m`` to rounding, so that
    ``m`` lies in the span.  The one ideal-coordinate extraction of the tests."""
    mat = column_matrix(columns)
    sol = m.coeffs @ np.linalg.pinv(mat).T
    rebuilt = Multivector(m.signature, sol @ mat.T)
    assert np.all(residual(rebuilt, m) <= TOL * m.abs_sum()), "m is not in the frame's span"
    return sol


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
