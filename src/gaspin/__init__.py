"""Verified geometric algebra for Cl(4,0)/Cl(1,3): quaternion matrix
representations, stereographic charts on the 3-sphere and the hyperboloid,
and the tower of 2-component, quaternion, and Dirac spinors."""

import types

from .core import (EUCLIDEAN4, MINKOWSKI12, PAULI3, SPACETIME13, Multivector, Signature, dot,
                   exp_blade, geometric_product, grade_select, reverse, vector_inverse)
from .errors import GAError
from .isomap import AlgebraTag, euclidean_to_spacetime, spacetime_to_euclidean
from .quatrep import QuatMatrix2, Quaternion, quat_mul, rep_pss, rep_vec, unrep_pss, unrep_vec
from .spinors import CenterScalar, IdealSpinor, fidelity, inner
from .quatspinor import QuatSpinor, canonical_q, fidelity_q
from .dirac import (DiracCarrier, DiracSpinor, dirac_to_geometric, geometric_to_qspinor,
                    qspinor_to_dirac, qspinor_to_geometric)

#: Every public name imported above, sorted: the API, stated once.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))

__version__ = "0.1.0"
