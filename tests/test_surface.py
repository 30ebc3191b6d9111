"""Every function under ``src/gaspin`` has a caller there.

The functions are the module-level ones and the methods and properties of
module-level classes, dunders excluded (Python calls those).  One is kept
when some name or attribute node in the package refers to it, when it is
exported in ``gaspin.__all__``, or when it is the CLI entry point
``cli.main``.  AST nodes are counted, so a mention in a docstring or comment
keeps nothing alive; a method is matched by its name alone, so a reference
to a same-named method of another class keeps it too.
"""
import ast
import pathlib

import gaspin

PACKAGE = pathlib.Path(gaspin.__file__).parent
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree):
    """(qualified name, name) of each module-level function and of each
    non-dunder method or property of a module-level class."""
    for node in tree.body:
        if isinstance(node, _FUNCTIONS):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCTIONS) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name


def test_every_function_has_a_caller_in_the_package():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    kept = referenced | set(gaspin.__all__)
    uncalled = [
        f"{module}.{qualified}"
        for module, tree in trees.items()
        for qualified, name in _definitions(tree)
        if name not in kept and f"{module}.{qualified}" != "cli.main"
    ]
    assert not uncalled, f"functions with no caller in the package: {uncalled}"
