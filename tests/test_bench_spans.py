"""The benchmark's per-layer spans still measure: every (module, function)
pair that perfbench/spans.py wraps names a function of the package.

The benchmark skips a target its package version no longer has, and that
layer's metrics then read zero without an error, so a rename in the
package would blind a span silently.  The file is only read (as source),
never imported.
"""

import ast
import importlib
import inspect
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# targets whose functions left the package before this check existed
GONE = {("cuspwave.kummer", "kummer_m_array"),
        ("cuspwave.spectral", "dft_forward"),
        ("cuspwave.spectral", "dft_inverse")}


def _targets():
    """(module, function) of each entry of the TARGETS tuple."""
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [(entry.elts[0].value, entry.elts[1].value)
                    for entry in node.value.elts]
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def _resolves(module, name):
    try:
        return inspect.isfunction(getattr(importlib.import_module(module), name, None))
    except ImportError:
        return False


def test_every_span_target_is_a_package_function():
    targets = _targets()
    assert GONE <= set(targets)
    missing = [pair for pair in targets if pair not in GONE and not _resolves(*pair)]
    assert missing == []
    # an allowlisted target that comes back is measured again; drop it here
    assert not any(_resolves(*pair) for pair in GONE)
