"""Every function under ``src/gaspin`` runs when the CLI runs.

The ``unrun`` fixture clears every ``core.fixed`` cache, runs the CLI's
flows under ``sys.setprofile`` and lists each module-level function, method,
property and arithmetic operator of the package that did not run; one test
reads the operators off it, the other the rest.  Static methods, properties
and fixed maps are unwrapped to the code of the function they hold, so a
cached builder counts only when it builds.  What runs under ``cli.main`` has
a caller in the package; what only tests, or a branch no flow takes, reach
fails.  Exempt, each for its reason:

- the exports in ``gaspin.__all__``: the library's API, which users call;
- dunders other than the operators, including a function bound under one
  (``fields_equal`` as ``__eq__``): Python calls them, and README documents
  exact ``==`` on every value type;
- ``core.fixed``: it runs at import, as each builder is defined, and
  ``test_every_cache_is_a_fixed_map`` checks what it makes.
"""
import importlib
import inspect
import pkgutil
import sys

import numpy as np
import pytest

import gaspin
from gaspin import cli, core

from conftest import readme_cli_lines

#: The arithmetic operators a package class may define.
OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__neg__")


def _cli_flows():
    """The CLI flows every function must serve: ``verify`` on one case, the
    README's CLI lines (``verify`` aside) and the three figures."""
    readme = [argv for argv in readme_cli_lines() if argv[0] != "verify"]
    assert readme, "README.md's CLI block has no gaspin line"
    figures = [["figure", name, "--samples", "101", "--out", f"{name}.csv"]
               for name in cli.FIGURES]
    return [["verify", "--seed", "0", "--cases", "1"], *readme, *figures]


def _caches(namespace):
    """The ``lru_cache`` functions among a namespace's values, static
    methods unwrapped."""
    for value in namespace.values():
        value = getattr(value, "__func__", value)
        if hasattr(value, "cache_clear"):
            yield value


def _modules():
    """(module, the classes it defines) for every module of the package."""
    for info in pkgutil.iter_modules(gaspin.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"gaspin.{info.name}")
        yield module, [obj for obj in vars(module).values()
                       if isinstance(obj, type) and obj.__module__ == module.__name__]


def test_every_cache_is_a_fixed_map():
    # one rule for fixed maps: each cached function is made by core.fixed,
    # unbounded, and freezes every array it builds, alone or in a tuple
    made_by_fixed = core.fixed(lambda: None).__wrapped__.__code__
    found = set()
    for module, classes in _modules():
        for namespace in (vars(module), *map(vars, classes)):
            for fn in _caches(namespace):
                found.add(fn.__qualname__)
                assert fn.__wrapped__.__code__ is made_by_fixed, fn.__qualname__
                assert fn.cache_parameters()["maxsize"] is None, fn.__qualname__
    assert {"_part_rows", "Multivector.basis", "Quaternion.one", "build_parser"} <= found
    alone = core.fixed(lambda n: np.arange(n))
    pair = core.fixed(lambda n: (np.arange(n), np.ones(n), "label"))
    assert alone(3) is alone(3) and not alone(3).flags.writeable
    assert not any(x.flags.writeable for x in pair(3)[:2])
    assert not core._reverse_signs(4).flags.writeable
    assert not core._vector_masks(4).flags.writeable


def _code(value):
    """The code object a namespace value runs: a property's getter, a static
    or class method's function, a fixed map's builder; None for the rest."""
    if isinstance(value, property):
        value = value.fget
    value = inspect.unwrap(getattr(value, "__func__", value))
    return value.__code__ if inspect.isfunction(value) else None


def _functions():
    """{code: name} of every function the rule covers."""
    defined = {}
    exempt = {_code(getattr(gaspin, name)) for name in gaspin.__all__} | {core.fixed.__code__}
    for module, classes in _modules():
        for owner in (module, *classes):
            for name, value in vars(owner).items():
                code = _code(value)
                if code is None or code.co_filename != module.__file__:
                    continue
                if name.startswith("__") and name not in OPERATORS:
                    exempt.add(code)
                else:
                    defined.setdefault(code, f"{owner.__name__.removeprefix('gaspin.')}.{name}")
    return {code: name for code, name in defined.items() if code not in exempt}


@pytest.fixture(scope="module")
def unrun(tmp_path_factory):
    """The names the rule covers whose code no CLI flow ran."""
    for module, classes in _modules():
        # a cached builder that already ran would hide what it calls
        for namespace in (vars(module), *map(vars, classes)):
            for fn in _caches(namespace):
                fn.cache_clear()
    ran, previous = set(), sys.getprofile()
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("flows"))  # the figures write their files here
        sys.setprofile(lambda frame, event, arg: event == "call" and ran.add(frame.f_code))
        try:
            for argv in _cli_flows():
                assert cli.main(argv) == 0, argv
        finally:
            sys.setprofile(previous)
    return sorted(name for code, name in _functions().items() if code not in ran)


def test_every_function_has_a_caller_in_the_package(unrun):
    unrun = [name for name in unrun if name.rpartition(".")[2] not in OPERATORS]
    assert not unrun, f"functions that no CLI flow runs: {unrun}"


def test_every_operator_runs_under_the_cli(unrun):
    unrun = [name for name in unrun if name.rpartition(".")[2] in OPERATORS]
    assert not unrun, f"operators that no CLI flow runs: {unrun}"
