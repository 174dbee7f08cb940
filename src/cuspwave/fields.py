"""The tangent-field alphabet shared by the conormal probe and the exact
operator catalog.

Each field is a finite sum of terms c * t^(p/2) * x_axis * d_slot with an
exact constant c (an int or a Fraction), an integer half-power p of t, an
optional coordinate factor x_axis and a slot that is a space axis or 't'.
Axes count from 0.  probe evaluates the terms in floats on a trajectory's
grid; opalg builds them as exact differential operators.  This module
imports neither numpy nor sympy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError

_FIELD_ARITY = {
    "V0": 0, "Vbar": 1, "L": 2, "Vhalf": 0, "TDt": 0, "Rl": 1,
    "N1": 0, "N2": 1, "N3": 0, "N4": 0,
}


@dataclass(frozen=True)
class VectorFieldId:
    """One member of the tangent-field alphabet.

    V0    = 2t dt + (m+2) sum_i x_i d_i        (radial scaling field)
    Vbar  = 2 t^(m/2+1) d_l + (m+2) x_l t^(-m/2) dt
    L     = x_i d_j - x_j d_i                   (rotation)
    Vhalf = 2t dt + (m+2) x1 d1                 (half-space scaling field)
    TDt   = t dt;  Rl = d_l
    N1    = x1 dt;  N2 = (x1 -/+ 2 t^((m+2)/2)/(m+2)) d1 (index +1/-1)
    N3    = t dt;   N4 = t^((m+2)/2) d1

    V0, Vbar, L and TDt are tangent to the cusp cone, Vhalf, Vbar[0] and
    Rl to the cusp planes; N1-N4 are the plane normal fields.
    """

    name: str
    indices: tuple = ()
    m: int = 1

    def __post_init__(self):
        if self.name not in _FIELD_ARITY:
            raise ParameterError(f"unknown vector field {self.name!r}")
        object.__setattr__(self, "indices", tuple(self.indices))
        if len(self.indices) != _FIELD_ARITY[self.name]:
            raise ParameterError(
                f"{self.name} takes {_FIELD_ARITY[self.name]} indices, "
                f"got {len(self.indices)}"
            )
        if self.name == "L" and self.indices[0] == self.indices[1]:
            raise ParameterError("L needs two distinct axes")
        if self.name == "N2" and self.indices[0] not in (1, -1):
            raise ParameterError("N2 index is the branch sign +1 or -1")
        if self.m < 1:
            raise ParameterError("m must be a positive integer")

    @property
    def singular_at_zero(self) -> bool:
        """Whether some coefficient carries a negative power of t."""
        # the powers of t do not depend on n: take the least n the axes fit
        n = 1 + max((abs(i) for i in self.indices), default=0)
        return any(p < 0 for _, p, _, _ in self.terms(n))

    def label(self) -> str:
        idx = ",".join(str(i) for i in self.indices)
        return f"{self.name}[{idx}]" if idx else self.name

    def terms(self, n: int):
        """List of (c, p, axis, slot), one per term c * t^(p/2) * x_axis * d_slot.

        axis is None when the term has no x factor; slot is an axis or 't'.
        Every axis must lie in range(n).
        """
        m, name = self.m, self.name
        axes = () if name == "N2" else self.indices   # N2's index is a sign
        if not all(0 <= i < n for i in axes):
            raise ParameterError(f"{name} axes {self.indices} out of range for n={n}")
        if name == "V0":
            return [(2, 2, None, "t")] + [(m + 2, 0, i, i) for i in range(n)]
        if name == "Vbar":
            l = self.indices[0]
            return [(2, m + 2, None, l), (m + 2, -m, l, "t")]
        if name == "L":
            i, j = self.indices
            return [(1, 0, i, j), (-1, 0, j, i)]
        if name == "Vhalf":
            return [(2, 2, None, "t"), (m + 2, 0, 0, 0)]
        if name in ("TDt", "N3"):
            return [(1, 2, None, "t")]
        if name == "Rl":
            return [(1, 0, None, self.indices[0])]
        if name == "N1":
            return [(1, 0, 0, "t")]
        if name == "N2":
            return [(1, 0, 0, 0),
                    (Fraction(-2 * self.indices[0], m + 2), m + 2, None, 0)]
        # N4
        return [(1, m + 2, None, 0)]


_LABEL = re.compile(r"(\w+)(?:\[(-?\d+(?:,-?\d+)*)\])?")


def parse_fields(text, m, n):
    """Parse "V0,TDt,L[0,1]", the comma-joined label()s of an alphabet:
    commas inside brackets separate indices.

    A label is Name or Name[i,...] with integer indices, a field of the
    alphabet checked against the spatial dimension n; any other is a
    ParameterError that starts with "fields:" and quotes the label.
    """
    fields = []
    for label in re.split(r",(?![^\[]*\])", str(text)):
        label = label.strip()
        if not label:
            continue
        match = _LABEL.fullmatch(label)
        if match is None:
            raise ParameterError(f"fields: {label!r} is not Name or Name[i,...] "
                                 "with integer indices")
        name, indices = match.groups()
        indices = tuple(map(int, indices.split(","))) if indices else ()
        try:
            fid = VectorFieldId(name, indices, m)
            fid.terms(n)
        except ParameterError as exc:
            raise ParameterError(f"fields: {label!r}: {exc}") from None
        fields.append(fid)
    if not fields:
        raise ParameterError("fields: empty vector field alphabet")
    return fields
