"""No module of the package imports sympy, in any form: the exact
coefficients live on the package's own integer polynomial ring
(opalg/poly.py), and sympy is a test dependency, the tests' oracle.  Only
opalg/coeff.py knows how an exact coefficient is stored: no other module
touches a coefficient's polynomials through the attributes frac, num, den,
numer, denom or poly_ring.  The operator algebra and the catalog use the
API of CoeffContext and CoeffExpr alone, so the polynomial ring under them
can be replaced in that one file.

Like test_fft_confinement, this reads the package's source.  An import
counts in every spelling: `import sympy[.x] [as y]`, `from sympy[.x] import
...`, and `__import__` or `importlib.import_module` of a constant name; an
attribute counts as `obj.name` and as `getattr(obj, "name"[, default])`.
"""

import ast
import pathlib

import cuspwave

PACKAGE = pathlib.Path(cuspwave.__file__).parent

COEFF_MODULE = "opalg/coeff.py"
POLY_ATTRS = {"frac", "num", "den", "numer", "denom", "poly_ring"}
IMPORTERS = {"__import__", "import_module"}


def _is_sympy(name):
    return name == "sympy" or name.startswith("sympy.")


def _callee(node):
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _first_constant(node, index=0):
    args = node.args
    if len(args) > index and isinstance(args[index], ast.Constant) \
            and isinstance(args[index].value, str):
        return args[index].value
    return None


def _sympy_imports(tree):
    """(line, text) of every sympy import in the module tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, "import " + alias.name)
                      for alias in node.names if _is_sympy(alias.name)]
        elif isinstance(node, ast.ImportFrom):
            if not node.level and node.module and _is_sympy(node.module):
                found.append((node.lineno, "from " + node.module))
        elif isinstance(node, ast.Call) and _callee(node) in IMPORTERS:
            name = _first_constant(node)
            if name and _is_sympy(name):
                found.append((node.lineno, "%s(%r)" % (_callee(node), name)))
    return found


def _poly_attributes(tree):
    """(line, text) of every use of a polynomial attribute in the module
    tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr in POLY_ATTRS:
                found.append((node.lineno, "." + node.attr))
        elif isinstance(node, ast.Call) and _callee(node) == "getattr":
            name = _first_constant(node, 1)
            if name in POLY_ATTRS:
                found.append((node.lineno, "getattr(..., %r)" % name))
    return found


def _references(tree):
    return _sympy_imports(tree) + _poly_attributes(tree)


def test_sympy_and_polynomials_stay_in_the_coefficient_module():
    # sympy stays out of every module, opalg/coeff.py included; the
    # polynomial attributes stay in opalg/coeff.py
    trees = {path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text())
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert COEFF_MODULE in trees
    imports = ["%s:%d %s" % (module, line, text)
               for module, tree in trees.items()
               for line, text in _sympy_imports(tree)]
    assert imports == []
    assert _poly_attributes(trees[COEFF_MODULE])
    outside = ["%s:%d %s" % (module, line, text)
               for module, tree in trees.items() if module != COEFF_MODULE
               for line, text in _poly_attributes(tree)]
    assert outside == []


def test_the_guard_sees_each_form():
    sources = {
        "import sympy": 1,
        "import sympy.polys.rings as rings": 1,
        "import os, sympy": 1,
        "from sympy import ZZ": 1,
        "from sympy.polys.fields import field": 1,
        "__import__('sympy')": 1,
        "importlib.import_module('sympy.polys')": 1,
        "c.frac.numer": 2,
        "w.num * w.den": 2,
        "ctx.poly_ring.gens": 1,
        "x.denom = 1": 1,
        "getattr(c, 'num')": 1,
        "import sympathy\nfrom .sympy import x\nc.numerator": 0,
        "getattr(c, 'size')": 0,
    }
    for source, count in sources.items():
        assert len(_references(ast.parse(source))) == count, source
