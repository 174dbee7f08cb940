"""The edge columns 0 and N/2 of a half spectrum are made exactly Hermitian
only where a half spectrum is born, in spectral.py (half_forward and
real_half); every other module relies on operations that keep them so.
So no module but spectral.py names the routine that makes them, whether
to call it, import it or explain it.
"""

import pathlib

import cuspwave

PACKAGE = pathlib.Path(cuspwave.__file__).parent

EDGE_MODULE = "spectral.py"
EDGE_ROUTINE = "hermitian_edges"  # also matches the private _hermitian_edges


def test_edge_routine_stays_in_the_spectral_module():
    assert EDGE_ROUTINE in (PACKAGE / EDGE_MODULE).read_text()
    outside = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for line, text in enumerate(path.read_text().splitlines(), 1):
            if EDGE_ROUTINE in text and module != EDGE_MODULE:
                outside.append("%s:%d" % (module, line))
    assert outside == []
