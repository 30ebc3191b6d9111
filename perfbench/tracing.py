"""Per-module attribution of a cProfile trace, and counters at module boundaries.

Self time of a Python function goes to the bucket of the file that defines
it: one bucket per ``gaspin`` module, ``numpy``, ``bench`` (this package)
and ``python`` (the standard library).  Entries without a file of their own
(C functions, and the ``__init__`` that dataclasses generate) are charged to
the bucket of the Python code that called them, split by the per-caller time
cProfile records; numpy's C functions called from the library go to
``numpy``.  The buckets then add up to the profiled time.
"""
from __future__ import annotations

import os
import sys
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import gaspin
from gaspin import core, quatrep

GASPIN_DIR = os.path.dirname(os.path.abspath(gaspin.__file__))
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
NUMPY_DIR = os.path.dirname(os.path.abspath(np.__file__))
MODULES = ("core", "isomap", "quatrep", "stereo", "spinors", "quatspinor", "dirac", "cli")
BUCKETS = (*MODULES, "gaspin.other", "numpy", "python", "bench")
# Taken before sparse_counter can replace the module attribute, so that the
# profile entry read is the library's function, not the counting wrapper.
PRODUCT_CODE = core.geometric_product.__code__


def _file_bucket(filename: str) -> str | None:
    """Bucket of a function defined in ``filename``; None if it has no file."""
    if filename == "~" or filename.startswith("<"):
        return None
    path = os.path.abspath(filename)
    if path.startswith(GASPIN_DIR + os.sep):
        module = os.path.splitext(os.path.basename(path))[0]
        return module if module in MODULES else "gaspin.other"
    if path.startswith(NUMPY_DIR + os.sep):
        return "numpy"
    if path.startswith(BENCH_DIR + os.sep):
        return "bench"
    return "python"


class Attribution:
    """Self time and call counts per bucket from ``cProfile`` stats."""

    def __init__(self, stats: dict):
        self.stats = stats
        self._weights: dict = {}

    def weights(self, func, seen=frozenset()) -> dict[str, float]:
        """Share of ``func``'s time that belongs to each bucket."""
        if func in self._weights:
            return self._weights[func]
        bucket = _file_bucket(func[0])
        if bucket is not None:
            return {bucket: 1.0}
        callers = self.stats[func][4] if func in self.stats else {}
        total = sum(c[3] for c in callers.values())
        out: dict[str, float] = defaultdict(float)
        for caller, (_, _, _, ct) in callers.items():
            if caller in seen or total <= 0.0:
                continue
            for b, w in self.weights(caller, seen | {func}).items():
                out[b] += w * ct / total
        result = dict(out) or {"python": 1.0}
        self._weights[func] = result
        return result

    def self_seconds(self) -> dict[str, float]:
        out = dict.fromkeys(BUCKETS, 0.0)
        for func, (_, _, tt, _, callers) in self.stats.items():
            bucket = _file_bucket(func[0])
            if bucket is not None:
                out[bucket] += tt
                continue
            numpy_c = "numpy" in func[2]
            for caller, (_, _, ctt, _) in callers.items():
                for b, w in self.weights(caller).items():
                    out["numpy" if numpy_c and b != "bench" else b] += w * ctt
            if not callers:  # called from where profiling was switched on
                out["bench"] += tt
        return out

    def calls(self) -> dict[str, int]:
        out = dict.fromkeys(MODULES, 0)
        for func, (_, nc, *_rest) in self.stats.items():
            bucket = _file_bucket(func[0])
            if bucket in out:
                out[bucket] += nc
        return out

    def function(self, code) -> tuple[int, float]:
        """(calls, self seconds) of the function with this code object."""
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        entry = self.stats.get(key)
        return (entry[1], entry[2]) if entry else (0, 0.0)

    def numpy_function(self, module_part: str, name: str) -> int:
        """Calls of the numpy Python function ``name`` defined in a file
        whose path contains ``module_part``."""
        return sum(
            v[1] for (fn, _, n), v in self.stats.items()
            if n == name and fn.startswith(NUMPY_DIR) and module_part in fn
        )

    def counts(self) -> dict[str, float]:
        """The named per-function counters of the benchmark."""
        mv_new, _ = self.function(core.Multivector.__post_init__.__code__)
        gp_calls, gp_self = self.function(PRODUCT_CODE)
        q_new, _ = self.function(quatrep.Quaternion.__post_init__.__code__)
        return {
            "core.multivector_new.calls": mv_new,
            "core.geometric_product.calls": gp_calls,
            "core.geometric_product.self_s": gp_self,
            "quatrep.quaternion_new.calls": q_new,
            "linalg.lstsq.calls": self.numpy_function("linalg", "lstsq"),
        }


@contextmanager
def sparse_counter():
    """Wrap ``core.geometric_product`` wherever a gaspin module bound it, and
    count left operands with at most 4 nonzero coefficients.  Yields
    [products, sparse products]."""
    original = core.geometric_product
    counts = [0, 0]

    def geometric_product(a, b):
        counts[0] += 1
        if np.count_nonzero(a.coeffs) <= 4:
            counts[1] += 1
        return original(a, b)

    bound = [
        module for name, module in list(sys.modules.items())
        if (name == "gaspin" or name.startswith("gaspin."))
        and getattr(module, "geometric_product", None) is original
    ]
    for module in bound:
        module.geometric_product = geometric_product
    try:
        yield counts
    finally:
        for module in bound:
            module.geometric_product = original
