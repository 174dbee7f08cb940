import os
import subprocess
import sys

import pytest

import cuspwave
from cuspwave.fields import VectorFieldId, parse_fields


def alphabet(n, m):
    """Every member of the alphabet in n space dimensions."""
    fields = [VectorFieldId(name, (), m)
              for name in ("V0", "Vhalf", "TDt", "N1", "N3", "N4")]
    fields += [VectorFieldId("N2", (sign,), m) for sign in (1, -1)]
    fields += [VectorFieldId(name, (l,), m) for name in ("Vbar", "Rl")
               for l in range(n)]
    fields += [VectorFieldId("L", (i, j), m)
               for i in range(n) for j in range(n) if i != j]
    return fields


@pytest.mark.parametrize("n", [1, 2, 3])
def test_parse_fields_inverts_label(n):
    for m in (1, 2, 3):
        fields = alphabet(n, m)
        assert parse_fields(",".join(f.label() for f in fields), m, n) == fields


def test_singular_at_zero_is_a_negative_power_of_t():
    for n in (1, 2, 3):
        singular = {f.label() for f in alphabet(n, 2) if f.singular_at_zero}
        assert singular == {"Vbar[%d]" % l for l in range(n)}


def test_fields_import_loads_neither_numpy_nor_sympy():
    # the exact catalog and the probe share this module; it must not make
    # either half pay for the other's libraries
    src = os.path.dirname(os.path.dirname(os.path.abspath(cuspwave.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, cuspwave.fields; "
            "print(sorted({'numpy', 'sympy'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
