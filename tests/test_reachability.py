"""Every public top-level function and class in src/cuspwave is used by the
package itself, not only by the tests.

A name counts as used when some module of the package loads it (as a bare
name or as an attribute) outside its own definition.  Imports, __all__
strings and message text are not loads.  The only exceptions are the
console entry point and the oracles that the acceptance tests need.
"""

import ast
import pathlib

import cuspwave

PACKAGE = pathlib.Path(cuspwave.__file__).parent

ALLOWED = {
    ("cli.py", "main"),
    ("linear_solver.py", "rk4_oracle"),
    ("propagator.py", "ode_residual"),
    ("probe.py", "surface_distance"),
    ("probe.py", "CharSurface"),
}

_DEFS = (ast.FunctionDef, ast.ClassDef)


def _loads(tree, skip=None):
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_public_definition_is_used_by_the_package():
    trees = {path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text())
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert "cli.py" in trees
    loads = {module: _loads(tree) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        elsewhere = set().union(*(names for other, names in loads.items()
                                  if other != module))
        for node in tree.body:
            if not isinstance(node, _DEFS) or node.name.startswith("_"):
                continue
            if (module, node.name) in ALLOWED:
                continue
            if node.name not in elsewhere | _loads(tree, skip=node):
                unused.append(f"{module}:{node.name}")
    assert unused == []
