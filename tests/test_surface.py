"""Every function under ``src/gaspin`` has a caller there.

The functions are the module-level ones and the methods and properties of
module-level classes.  Dunders are not found by name, since Python calls
them; the arithmetic operators among them must instead run when the CLI's
own flows run (``test_every_operator_runs_under_the_cli``).  A function is
kept when a name node in the package refers to it (bare, in a module that
defines it or imports it, or as a module attribute), when it is exported in
``gaspin.__all__``, or when it is the CLI entry point ``cli.main``.  So a
local variable of one module does not keep a function of another module of
the same name.  AST nodes are counted, so a mention in a docstring or
comment keeps nothing alive.

A method is kept by an attribute node that names it on a receiver of its
class.  The receiver's class is resolved where the code states it: a class
name (``Quaternion.one()``), ``self``, annotated parameters, annotated
fields of a resolved class, calls of classes and of functions or methods
with an annotated return class, binary operators whose dunder is annotated,
and local names every binding of which resolves to one class.
Where the class stays unknown, the attribute keeps every method of its name.
That hides a dead method behind a live one of another class, so a name
defined on more than one class and met on an unknown receiver fails the
test unless it is in ``AMBIGUOUS``.
"""
import ast
import importlib
import pathlib
import pkgutil
import re

import numpy as np

import gaspin
from gaspin import cli, core

PACKAGE = pathlib.Path(gaspin.__file__).parent
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (*_FUNCTIONS, ast.Lambda)

#: Names defined on more than one class that some receiver of unknown class
#: still uses; each keeps every method of its name alive.
AMBIGUOUS = set()

_DUNDERS = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "truediv"}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _methods(cls):
    return {item.name: item for item in cls.body if isinstance(item, _FUNCTIONS)}


def _decorators(fn):
    return {d.id for d in fn.decorator_list if isinstance(d, ast.Name)}


class Package:
    """The classes, module functions and module aliases of the package."""

    def __init__(self, trees):
        self.trees = trees
        self.classes = {}
        self.functions = {}
        self.aliases = {}  # (module, local name) of ``from . import x [as y]``
        self.imports = {}  # (module, local name) -> (module, name) of ``from .x import y``
        for module, tree in trees.items():
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    assert node.name not in self.classes, f"class {node.name} defined twice"
                    self.classes[node.name] = node
                elif isinstance(node, _FUNCTIONS):
                    self.functions.setdefault(node.name, []).append(node)
                elif isinstance(node, ast.ImportFrom) and node.level == 1:
                    for alias in node.names:
                        local = module, alias.asname or alias.name
                        if node.module:
                            self.imports[local] = node.module, alias.name
                        else:
                            self.aliases[local] = alias.name

    def origin(self, module, name):
        """(defining module, name) of a bare name used in ``module``, its
        imports followed."""
        while (module, name) in self.imports:
            module, name = self.imports[module, name]
        return module, name

    def annotated(self, node):
        """The package class an annotation names, or None."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node = ast.parse(node.value, mode="eval").body
        if isinstance(node, ast.Name) and node.id in self.classes:
            return node.id
        return None

    def returns(self, fn):
        return self.annotated(fn.returns) if fn.returns is not None else None

    def fields(self, cls):
        """The annotated fields of a class: name -> class."""
        return {item.target.id: self.annotated(item.annotation) for item in self.classes[cls].body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}


class Resolver:
    """The class of an expression in one scope: ("instance" | "class", name)."""

    def __init__(self, package, module, env):
        self.package, self.module, self.env = package, module, env

    def module_of(self, node):
        """The module a name refers to, for ``stereo.lift_sphere`` and the like."""
        if isinstance(node, ast.Name) and node.id not in self.env:
            return self.package.aliases.get((self.module, node.id))
        return None

    def named(self, name):
        """What a bare name or a module attribute refers to."""
        if name in self.package.classes:
            return "class", name
        return None

    def method(self, owner, name):
        """The method ``name`` of a resolved receiver, or None."""
        if owner is None:
            return None
        return _methods(self.package.classes[owner[1]]).get(name)

    def instance(self, fn):
        """An instance of the class ``fn`` is annotated to return, or None."""
        cls = self.package.returns(fn) if fn is not None else None
        return ("instance", cls) if cls else None

    def __call__(self, node):
        pkg = self.package
        if isinstance(node, ast.Name):
            if node.id in self.env:
                cls = self.env[node.id]
                return ("instance", cls) if cls else None
            return self.named(node.id)
        if isinstance(node, ast.Attribute):
            if self.module_of(node.value):
                return self.named(node.attr)
            owner = self(node.value)
            if owner and owner[0] == "instance":
                cls = pkg.fields(owner[1]).get(node.attr)
                return ("instance", cls) if cls else None
            return None
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id not in self.env:
                if func.id in pkg.classes:
                    return "instance", func.id
                defs = pkg.functions.get(func.id, [])
                cls = {pkg.returns(fn) for fn in defs}
                return ("instance", cls.pop()) if len(cls) == 1 and None not in cls else None
            if isinstance(func, ast.Attribute):
                if self.module_of(func.value):
                    return self(ast.Call(ast.Name(func.attr), node.args, node.keywords))
                return self.instance(self.method(self(func.value), func.attr))
            return None
        if isinstance(node, ast.BinOp) and type(node.op) in _DUNDERS:
            op = _DUNDERS[type(node.op)]
            for side, dunder in ((node.left, f"__{op}__"), (node.right, f"__r{op}__")):
                owner = self(side)
                if owner and owner[0] == "instance" and self.method(owner, dunder):
                    return self.instance(self.method(owner, dunder))
            return None
        return None


def _bindings(scope):
    """(name, value or None) of each binding made in a scope's own body,
    nested scopes excluded; None where the bound value is not one expression."""
    stack = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while stack:
        node = stack.pop()
        if isinstance(node, (*_SCOPES, ast.ClassDef)):
            if not isinstance(node, ast.Lambda):
                yield node.name, None
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id, None  # a loop, with, comprehension or starred target
            continue
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)) and node.value:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple) and len(
                        target.elts) == len(node.value.elts):
                    pairs = zip(target.elts, node.value.elts)  # a, b = x, y
                for name, value in pairs:
                    if isinstance(name, ast.Name):
                        yield name.id, value
                    else:
                        stack.append(name)
            stack.append(node.value)
            continue
        stack.extend(ast.iter_child_nodes(node))


def _scope_env(package, module, scope, outer, owner):
    """Class of each name of a function scope, None where unknown.  A
    parameter has its annotation's class (``self`` its method's); a name the
    body binds keeps a class only if every binding, its parameter included,
    resolves to that class."""
    env = dict(outer)
    args = scope.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    params += [a for a in (args.vararg, args.kwarg) if a is not None]
    method = owner and not isinstance(scope, ast.Lambda) and not (
        _decorators(scope) & {"staticmethod", "classmethod"})
    for k, arg in enumerate(params):
        env[arg.arg] = owner if method and k == 0 else package.annotated(arg.annotation)
    local = {}
    for name, value in _bindings(scope):
        local.setdefault(name, []).append(value)
    given = {arg.arg: {env[arg.arg]} for arg in params if arg.arg in local}

    def classes(name):
        found = {Resolver(package, module, env)(v) if v is not None else None
                 for v in local[name]}
        found = {c[1] if c and c[0] == "instance" else None for c in found}
        return found | given.get(name, set())

    # guess a class for each name from any binding that resolves, then drop
    # each name whose bindings do not all resolve to it, until none is dropped
    env.update(dict.fromkeys(local))
    guessed = True
    while guessed:
        guessed = False
        for name in local:
            if env[name] is None:
                env[name] = next(iter(classes(name) - {None}), None)
                guessed = guessed or env[name] is not None
    while True:
        dropped = [name for name in local
                   if env[name] is not None and classes(name) != {env[name]}]
        if not dropped:
            return env
        env.update(dict.fromkeys(dropped))


def _references(package):
    """Resolved method references {(class, name)}, names met on unknown
    receivers {name: [where]}, and the (module, name) that bare names and
    module attributes refer to."""
    resolved, unknown, names = set(), {}, set()

    def visit(module, node, env, owner):
        if isinstance(node, _SCOPES):
            env, owner = _scope_env(package, module, node, env, owner), None
        elif isinstance(node, ast.ClassDef):
            owner = node.name
        resolve = Resolver(package, module, env)
        if isinstance(node, ast.Name):
            names.add(package.origin(module, node.id))
        elif isinstance(node, ast.Attribute):
            target = resolve.module_of(node.value)
            receiver = None if target else resolve(node.value)
            if target:
                names.add(package.origin(target, node.attr))
            elif receiver:
                resolved.add((receiver[1], node.attr))
            else:
                unknown.setdefault(node.attr, []).append(f"{module}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(module, child, env, owner)

    for module, tree in package.trees.items():
        visit(module, tree, {}, None)
    return resolved, unknown, names


def _package():
    return Package({path.stem: ast.parse(path.read_text())
                    for path in sorted(PACKAGE.glob("*.py"))})


def _class_methods(package):
    """{method name: [classes defining it]}, dunders excluded."""
    out = {}
    for cls, node in package.classes.items():
        for name in _methods(node):
            if not _is_dunder(name):
                out.setdefault(name, []).append(cls)
    return out


def test_every_function_has_a_caller_in_the_package():
    package = _package()
    resolved, unknown, names = _references(package)
    kept = set(unknown) | set(gaspin.__all__)
    uncalled = [
        f"{module}.{node.name}"
        for module, tree in package.trees.items()
        for node in tree.body
        if isinstance(node, _FUNCTIONS) and node.name not in kept
        and (module, node.name) not in names and f"{module}.{node.name}" != "cli.main"
    ]
    uncalled += [
        f"{cls}.{name}"
        for name, classes in _class_methods(package).items()
        for cls in classes
        if (cls, name) not in resolved and name not in unknown
    ]
    assert not uncalled, f"functions with no caller in the package: {uncalled}"


def test_no_method_name_is_ambiguous_on_an_unknown_receiver():
    package = _package()
    _, unknown, _ = _references(package)
    shared = {name: classes for name, classes in _class_methods(package).items()
              if len(classes) > 1}
    hidden = {f"{name} (on {', '.join(shared[name])}): {', '.join(unknown[name])}"
              for name in shared.keys() & unknown.keys() - AMBIGUOUS}
    assert not hidden, f"method names matched by name alone: {sorted(hidden)}"
    # an entry that no longer needs its place leaves the allowlist
    stale = AMBIGUOUS - (shared.keys() & unknown.keys())
    assert not stale, f"allowlisted names no longer matched by name alone: {stale}"


#: The arithmetic operators a package class may define.  ``__eq__`` is not
#: among them: README documents exact ``==`` on every value type.
OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__neg__")

README = PACKAGE.parents[1] / "README.md"


def _readme_cli_lines():
    """The argv of each ``gaspin`` line in README's CLI usage block."""
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    assert block, "README.md has no CLI usage block"
    return [line.split("#")[0].split()[1:] for line in block.group(1).splitlines()
            if line.startswith("gaspin ")]


def _cli_flows():
    """The CLI flows every operator must serve: ``verify`` on one case, the
    README's CLI lines (``verify`` aside) and the three figures."""
    readme = [argv for argv in _readme_cli_lines() if argv[0] != "verify"]
    assert readme, "README.md's CLI block has no gaspin line"
    figures = [["figure", name, "--samples", "101", "--out", f"{name}.csv"]
               for name in cli.FIGURES]
    return [["verify", "--seed", "0", "--cases", "1"], *readme, *figures]


def _counting(fn, key, ran):
    def operator(*args):
        ran.add(key)
        return fn(*args)
    return operator


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


def test_every_operator_runs_under_the_cli(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)  # the figures write their files here
    ran, defined = set(), []
    for module, classes in _modules():
        # a cached builder that already ran would hide the operators it calls
        for namespace in (vars(module), *map(vars, classes)):
            for fn in _caches(namespace):
                fn.cache_clear()
        for cls in classes:
            for name in OPERATORS:
                if name in vars(cls):
                    defined.append(f"{cls.__name__}.{name}")
                    monkeypatch.setattr(cls, name, _counting(vars(cls)[name], defined[-1], ran))
    for argv in _cli_flows():
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    unrun = sorted(set(defined) - ran)
    assert not unrun, f"operators that no CLI flow calls: {unrun}"
