"""Every Fourier transform of the package lives in spectral.py, and all of
them are transforms of real fields: no other module refers to numpy.fft,
and no module calls the complex n-dimensional fftn or ifftn.

Like test_reachability, this reads the package's source, so a reference
counts whatever it is bound to: `np.fft.x` and `numpy.fft.x` after
`import numpy [as np]`, `import numpy.fft` and `from numpy import fft`,
`from numpy.fft import ...`, and any name or attribute fftn or ifftn.
"""

import ast
import pathlib

import cuspwave

PACKAGE = pathlib.Path(cuspwave.__file__).parent

FFT_MODULE = "spectral.py"
COMPLEX_ND = {"fftn", "ifftn"}


def _fft_references(tree):
    """(line, text, complex_nd) of every reference to numpy.fft and of
    every fftn or ifftn (complex_nd true) in the module tree."""
    numpy_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy_names.update(alias.asname or alias.name for alias in node.names
                               if alias.name == "numpy")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, "import " + alias.name, False)
                      for alias in node.names if alias.name.startswith("numpy.fft")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [alias.name for alias in node.names]
            if node.module.startswith("numpy.fft") or (
                    node.module == "numpy" and "fft" in names):
                found.append((node.lineno, "from %s import %s"
                              % (node.module, ", ".join(names)), False))
            found += [(node.lineno, "import " + name, True) for name in names
                      if name in COMPLEX_ND]
        elif (isinstance(node, ast.Attribute) and node.attr == "fft"
              and isinstance(node.value, ast.Name) and node.value.id in numpy_names):
            found.append((node.lineno, node.value.id + ".fft", False))
        if isinstance(node, ast.Attribute) and node.attr in COMPLEX_ND:
            found.append((node.lineno, node.attr, True))
        elif isinstance(node, ast.Name) and node.id in COMPLEX_ND:
            found.append((node.lineno, node.id, True))
    return found


def test_ffts_stay_in_the_spectral_module():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert FFT_MODULE in {p.name for p in modules}
    outside, complex_nd = [], []
    for path in modules:
        module = path.relative_to(PACKAGE).as_posix()
        for line, text, nd in _fft_references(ast.parse(path.read_text())):
            where = "%s:%d %s" % (module, line, text)
            if nd:
                complex_nd.append(where)
            elif module != FFT_MODULE:
                outside.append(where)
    assert outside == []
    assert complex_nd == []


def test_the_guard_sees_each_form():
    sources = {
        "import numpy as np\nnp.fft.rfft(x)": 1,
        "import numpy\nnumpy.fft.irfft(x)": 1,
        "import numpy.fft": 1,
        "from numpy import fft": 1,
        "from numpy.fft import rfft": 1,
        "from scipy.fft import fftn": 1,
        "import numpy as np\nnp.fft.fftn(x)": 2,
        "x.fft(y)": 0,
    }
    for source, count in sources.items():
        assert len(_fft_references(ast.parse(source))) == count, source
