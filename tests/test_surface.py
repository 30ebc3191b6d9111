"""Every module-level function under ``src/gaspin`` has a caller there.

A function is kept when some name or attribute node in the package refers
to it, when it is exported in ``gaspin.__all__``, or when it is the CLI
entry point ``cli.main``.  AST nodes are counted, so a mention in a
docstring or comment keeps nothing alive.  Methods are out of scope.
"""
import ast
import pathlib

import gaspin

PACKAGE = pathlib.Path(gaspin.__file__).parent


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
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name not in kept
        and f"{module}.{node.name}" != "cli.main"
    ]
    assert not uncalled, f"functions with no caller in the package: {uncalled}"
