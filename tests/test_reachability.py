"""Every public top-level function and class in src/cuspwave is used by the
package itself, not only by the tests, and so is every public method and
property of its classes.

A definition counts as used only through a load that resolves to it: a bare
name in its own module (outside the definition itself), a name imported
relatively from its module and then loaded (following re-exports such as
opalg/__init__), or `alias.name` where alias is bound to its module.
Imports, __all__ strings and message text are not loads, and a same-named
attribute of some other object is not a use.  The only exception is the
console entry point.

A method or property counts as used by name: through any attribute load
of that name in the package outside its own body.

A public top-level function's parameter that has a default is passed, by
keyword or by position, by some call of the package outside the
function's own body, unless the function is also loaded as a value (such
as `parse_data_spec`, which cli._read is handed and calls), whose calls
the check cannot see, or is the console entry point.
"""

import ast
import pathlib

import cuspwave

PACKAGE = pathlib.Path(cuspwave.__file__).parent

ALLOWED = {("cli.py", "main")}

_DEFS = (ast.FunctionDef, ast.ClassDef)


def _dotted(module):
    """("opalg", "diffop") for "opalg/diffop.py", ("opalg",) for its package."""
    parts = tuple(module[:-3].split("/"))
    return parts[:-1] if parts[-1] == "__init__" else parts


def _bindings(module, tree, files):
    """Names bound by relative imports (the package imports itself only
    that way): alias -> (module, name) for an imported object, alias ->
    module for an imported module."""
    names, modules = {}, {}
    package = tuple(module.split("/")[:-1])
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level):
            continue
        target = package[:len(package) - node.level + 1]
        if node.module:
            target += tuple(node.module.split("."))
        for alias in node.names:
            bound = alias.asname or alias.name
            if target + (alias.name,) in files:
                modules[bound] = files[target + (alias.name,)]
            else:
                names[bound] = (files[target], alias.name)
    return names, modules


def _trees():
    return {path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text())
            for path in sorted(PACKAGE.rglob("*.py"))}


def _uses(trees):
    """(the top-level definitions, keyed by (module, name); and a list of
    (definition, node) for every load of the package that resolves to a
    definition, outside the definition itself)."""
    files = {_dotted(module): module for module in trees}
    defined = {(module, node.name): node for module, tree in trees.items()
               for node in tree.body if isinstance(node, _DEFS)}
    assert ALLOWED <= defined.keys()
    bindings = {module: _bindings(module, tree, files)
                for module, tree in trees.items()}

    def resolve(module, name):
        while (module, name) not in defined:
            if name not in bindings[module][0]:
                return None
            module, name = bindings[module][0][name]
        return module, name

    uses = []
    for module, tree in trees.items():
        modules = bindings[module][1]
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(getattr(node, "ctx", None), ast.Load):
                    continue
                if isinstance(node, ast.Name):
                    owner = resolve(module, node.id)
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id in modules):
                    owner = resolve(modules[node.value.id], node.attr)
                else:
                    continue
                if owner and not (isinstance(top, _DEFS)
                                  and owner == (module, top.name)):
                    uses.append((owner, node))
    return defined, uses


def test_every_public_definition_is_used_by_the_package():
    defined, uses = _uses(_trees())
    used = {owner for owner, _ in uses}
    unused = sorted(f"{module}:{name}"
                    for module, name in defined.keys() - used - ALLOWED
                    if not name.startswith("_"))
    assert unused == []


def _passes(call, index, name):
    """Whether call passes the parameter name, at position index (None for
    a keyword-only one); a *args or **kwargs passes every parameter."""
    if any(keyword.arg in (name, None) for keyword in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return index is not None and index < len(call.args)


def test_every_optional_parameter_is_passed_by_the_package():
    trees = _trees()
    defined, uses = _uses(trees)
    called = {id(node.func): node for tree in trees.values()
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    calls, values = {}, set()
    for owner, node in uses:
        if id(node) in called:
            calls.setdefault(owner, []).append(called[id(node)])
        else:
            values.add(owner)
    unpassed = []
    for owner, fn in sorted(defined.items()):
        if (not isinstance(fn, ast.FunctionDef) or owner[1].startswith("_")
                or owner in values | ALLOWED):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        optional = [(i, arg.arg) for i, arg in enumerate(positional) if i >= first]
        optional += [(None, arg.arg) for arg, default
                     in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
        unpassed += [f"{owner[0]}:{owner[1]}({name})" for index, name in optional
                     if not any(_passes(call, index, name)
                                for call in calls.get(owner, ()))]
    assert unpassed == []


def test_every_public_method_is_read_by_the_package():
    trees = _trees()
    loads = [(module, node.lineno, node.attr)
             for module, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    unread = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                    continue
                if not any(attr == fn.name and not (
                        where == module and fn.lineno <= line <= fn.end_lineno)
                        for where, line, attr in loads):
                    unread.append(f"{module}:{cls.name}.{fn.name}")
    assert unread == []
