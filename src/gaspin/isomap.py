"""Algebra isomorphism between Cl(4,0) and Cl(1,3).

The identification sends e0 to g0 and e_k to the bivector g_k g_0; in the
other direction g0 goes back to e0 and the spacelike g_k become e_k e_0.
Each map is defined on generators and extended multiplicatively over the
blades: its matrix is read off one ``core.blade_images`` batch, the images of
all 16 blade masks as ordered products of generator images, which makes it
an algebra homomorphism by construction.  The result is one cached
signed-permutation matrix per direction, applied to the last axis so batches
map case by case.  Grade is not preserved: vectors become bivectors and the
two pseudoscalars swap with the grade-3 units.

Mixed-signature arithmetic is refused everywhere; callers must map
explicitly, so sign conventions stay visible.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from . import core
from .core import (
    EUCLIDEAN4,
    SPACETIME13,
    Multivector,
    Signature,
    blade_images,
    column_matrix,
    fixed,
)
from .errors import SignatureMismatch


class AlgebraTag(Enum):
    """The four algebras the library works in; a tag's signature is core's constant of its name."""

    EUCLIDEAN4 = "euclidean4"
    SPACETIME13 = "spacetime13"
    PAULI3 = "pauli3"
    MINKOWSKI12 = "minkowski12"

    @property
    def signature(self) -> Signature:
        return getattr(core, self._name_)


@fixed
def _map_matrix(direction: str) -> np.ndarray:
    """Signed permutation matrix: column b is the image of blade b, read off
    one :func:`core.blade_images` batch of the generator images t0 and
    t_k t0 in the target algebra."""
    target = SPACETIME13 if direction == "e4_to_sta" else EUCLIDEAN4
    unit = np.eye(target.dim)
    # t0, t1 t0, t2 t0, t3 t0: the four generators times (1, t0, t0, t0)
    gens = Multivector(target, unit[[1, 2, 4, 8]]) * Multivector(target, unit[[0, 1, 1, 1]])
    return column_matrix(blade_images(gens, Multivector.scalar(target, 1.0)))


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

