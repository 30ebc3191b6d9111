"""Algebra isomorphism between Cl(4,0) and Cl(1,3).

The identification sends e0 to g0 and e_k to the bivector g_k g_0; in the
other direction g0 goes back to e0 and the spacelike g_k become e_k e_0.
Each map is defined on generators and extended multiplicatively blade by
blade (products sorted into canonical form by the core engine), which makes
it an algebra homomorphism by construction; the blade images are stacked
into one cached signed-permutation matrix per direction, applied to the last
axis so batches map case by case.  Grade is not preserved: vectors become
bivectors and the two pseudoscalars swap with the grade-3 units.

Mixed-signature arithmetic is refused everywhere; callers must map
explicitly, so sign conventions stay visible.
"""
from __future__ import annotations

from enum import Enum
from functools import lru_cache

import numpy as np

from .core import (
    EUCLIDEAN4,
    MINKOWSKI12,
    PAULI3,
    SPACETIME13,
    Multivector,
    Signature,
    geometric_product,
)
from .errors import SignatureMismatch


class AlgebraTag(Enum):
    """Names for the four algebras the library works in."""

    EUCLIDEAN4 = "euclidean4"
    SPACETIME13 = "spacetime13"
    PAULI3 = "pauli3"
    MINKOWSKI12 = "minkowski12"

    @property
    def signature(self) -> Signature:
        return _TAG_SIGNATURES[self]


_TAG_SIGNATURES = {
    AlgebraTag.EUCLIDEAN4: EUCLIDEAN4,
    AlgebraTag.SPACETIME13: SPACETIME13,
    AlgebraTag.PAULI3: PAULI3,
    AlgebraTag.MINKOWSKI12: MINKOWSKI12,
}


def _extend_on_blades(images: list[Multivector], dim: int) -> tuple[Multivector, ...]:
    out = []
    for mask in range(dim):
        acc = Multivector.scalar(images[0].signature, 1.0)
        for k in range(dim.bit_length()):
            if mask >> k & 1:
                acc = geometric_product(acc, images[k])
        out.append(acc)
    return tuple(out)


@lru_cache(maxsize=None)
def _g4_blade_images() -> tuple[Multivector, ...]:
    g = [Multivector.basis(SPACETIME13, k) for k in range(4)]
    gen_images = [g[0]] + [geometric_product(g[k], g[0]) for k in (1, 2, 3)]
    return _extend_on_blades(gen_images, EUCLIDEAN4.dim)


@lru_cache(maxsize=None)
def _sta_blade_images() -> tuple[Multivector, ...]:
    e = [Multivector.basis(EUCLIDEAN4, k) for k in range(4)]
    gen_images = [e[0]] + [geometric_product(e[k], e[0]) for k in (1, 2, 3)]
    return _extend_on_blades(gen_images, SPACETIME13.dim)


@lru_cache(maxsize=None)
def _map_matrix(direction: str) -> np.ndarray:
    """Signed permutation matrix: column b is the image of blade b."""
    images = _g4_blade_images() if direction == "e4_to_sta" else _sta_blade_images()
    mat = np.stack([img.coeffs for img in images], axis=1)
    mat.setflags(write=False)
    return mat


def euclidean_to_spacetime(g: Multivector) -> Multivector:
    """Image of a Cl(4,0) element in Cl(1,3)."""
    if g.signature != EUCLIDEAN4:
        raise SignatureMismatch("expected a Cl(4,0) element")
    return Multivector(SPACETIME13, g.coeffs @ _map_matrix("e4_to_sta").T)


def spacetime_to_euclidean(g: Multivector) -> Multivector:
    """Image of a Cl(1,3) element in Cl(4,0); inverse of the map above."""
    if g.signature != SPACETIME13:
        raise SignatureMismatch("expected a Cl(1,3) element")
    return Multivector(EUCLIDEAN4, g.coeffs @ _map_matrix("sta_to_e4").T)

