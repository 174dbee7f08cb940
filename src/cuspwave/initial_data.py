"""Discontinuous data families: half-space jumps across x1 = 0 and
angle-dependent profiles homogeneous of degree zero near the origin.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, ParseError
from .spectral import Field, Grid


def bump(r, width, amplitude=1.0):
    """Smooth compactly supported bump exp(1 - 1/(1 - (r/w)^2)) on |r|<w."""
    s = np.asarray(r, dtype=float) / width
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


@dataclass(frozen=True)
class BumpSpec:
    """One radial bump component: amplitude * exp(1 - 1/(1-(r/w)^2))."""

    amplitude: float = 1.0
    width: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.amplitude):
            raise ParameterError(f"bump amplitude must be finite, got {self.amplitude}")
        if not (np.isfinite(self.width) and self.width > 0):
            raise ParameterError(f"bump width must be positive and finite, got {self.width}")

    def sample(self, coords) -> np.ndarray:
        r2 = sum(x ** 2 for x in coords)
        return bump(np.sqrt(r2), self.width, self.amplitude)


@dataclass(frozen=True)
class AngularTerm:
    """One term amplitude * cos(k*theta + phase) of an angular profile with
    theta = atan2(x2, x1), or 0 and pi by the sign of x1 in 1-D: so k=1
    gives x1/sqrt(x1^2 + x2^2), which in 3-D is not x1/|x|."""

    k: int
    amplitude: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.amplitude) and np.isfinite(self.phase)):
            raise ParameterError("angular amplitude and phase must be finite, "
                                 f"got {self.amplitude} and {self.phase}")


@dataclass(frozen=True)
class InitialDataSpec:
    family: str  # "A1" | "A2" | "smooth"
    left: BumpSpec | None = None
    right: BumpSpec | None = None
    smooth: BumpSpec | None = None
    angular: tuple = ()  # AngularTerm sequence, used by A2
    radial: BumpSpec | None = None

    def __post_init__(self):
        if self.family not in ("A1", "A2", "smooth"):
            raise ParameterError(f"unknown data family {self.family!r}")
        if self.family == "A1" and (self.left is None or self.right is None):
            raise ParameterError("A1 data needs left and right components")
        if self.family == "A2" and self.radial is None:
            raise ParameterError("A2 data needs a radial component")
        if self.family == "smooth" and self.smooth is None:
            raise ParameterError("smooth data needs a smooth component")


def _origin(grid: Grid) -> tuple:
    """Index of the grid point nearest x = 0."""
    return tuple(np.argmin(np.abs(grid.axis_coords(a))) for a in range(grid.n))


def _check_margin(spec_width, grid: Grid) -> None:
    if spec_width > grid.L / 2:
        warnings.warn(
            f"data support width {spec_width} exceeds half the box half-length "
            f"{grid.L}; periodization may wrap around",
            stacklevel=3,
        )


def make_smooth(spec: InitialDataSpec, grid: Grid) -> Field:
    if spec.family != "smooth":
        raise DomainError("make_smooth requires a smooth-family spec")
    _check_margin(spec.smooth.width, grid)
    return Field(grid, spec.smooth.sample(grid.coords()))


def make_a1(spec: InitialDataSpec, grid: Grid) -> Field:
    """Sample left + (right - left) * E(x1) with E(0) = 1 (right limit)."""
    if spec.family != "A1":
        raise DomainError("make_a1 requires an A1-family spec")
    coords = grid.coords()
    left = spec.left.sample(coords)
    right = spec.right.sample(coords)
    origin = _origin(grid)
    if abs(left[origin] - right[origin]) < 1e-14:
        warnings.warn("A1 components agree at x=0; the data carries no jump")
    _check_margin(max(spec.left.width, spec.right.width), grid)
    step = (coords[0] >= 0.0).astype(float)
    return Field(grid, left + (right - left) * step)


def _angular_profile(spec: InitialDataSpec, coords):
    r2 = sum(x * x for x in coords)
    r = np.sqrt(r2)
    if len(coords) == 1:
        theta = np.where(coords[0] >= 0, 0.0, np.pi)
    else:
        theta = np.arctan2(coords[1], coords[0])
    g = np.zeros_like(r)
    avg = 0.0
    for term in spec.angular:
        g += term.amplitude * np.cos(term.k * theta + term.phase)
        if term.k == 0:
            avg += term.amplitude * np.cos(term.phase)
    return g, avg, r


def make_a2(spec: InitialDataSpec, grid: Grid) -> Field:
    """Sample g(x/|x|) * radial bump; the origin takes the angular average."""
    if spec.family != "A2":
        raise DomainError("make_a2 requires an A2-family spec")
    _check_margin(spec.radial.width, grid)
    coords = grid.coords()
    g, avg, r = _angular_profile(spec, coords)
    vals = g * spec.radial.sample(coords)
    origin = _origin(grid)
    if max(abs(float(grid.axis_coords(a)[origin[a]])) for a in range(grid.n)) > 1e-12:
        raise DomainError("A2 sampling needs the origin on the grid")
    vals[origin] = avg * spec.radial.sample(tuple(np.zeros(1) for _ in coords))[0]
    return Field(grid, vals)


def read_key_values(text: str, path=None) -> dict:
    """key -> (value, line, key column, value column) of each `key = value`
    line of text.  '#' starts a comment; a line without '=' and a key given
    twice are ParseErrors at their place in path, the file text came from."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "=" not in line:
            raise ParseError(f"expected key = value, got {line.strip()!r}", line=lineno,
                             column=1, expected="key = value", path=path)
        key, value = (s.strip() for s in line.split("=", 1))
        at = raw.index(key) + 1
        if key in entries:
            raise ParseError(f"{key!r} given twice, first on line {entries[key][1]}",
                             line=lineno, column=at, expected="each key once", path=path)
        entries[key] = (value, lineno, at, raw.find(value, raw.index("=")) + 1)
    return entries


def _angular_terms(text) -> tuple:
    """AngularTerms of k:amp:phase[,k:amp:phase...]."""
    terms = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ValueError(f"{chunk!r} is not k:amp:phase")
        terms.append(AngularTerm(int(parts[0]), float(parts[1]), float(parts[2])))
    return tuple(terms)


def _bump_keys(component, amp="1.0") -> dict:
    return {f"{component}_amp": (float, amp), f"{component}_width": (float, "1.0")}


# family -> (maker, the keys its spec reads: key -> (parser of the key's
# text, default text)); <component>_amp and <component>_width give the
# BumpSpec of an InitialDataSpec component, angular gives its angular terms
FAMILIES = {
    "A1": (make_a1, {**_bump_keys("left", "0.0"), **_bump_keys("right")}),
    "A2": (make_a2, {**_bump_keys("radial"), "angular": (_angular_terms, "0:1:0")}),
    "smooth": (make_smooth, _bump_keys("smooth")),
}


def parse_data_spec(text: str, path=None) -> InitialDataSpec:
    """The spec of a `key = value` text: family and the keys that FAMILIES
    gives it.  An unknown family, a key the family does not read and a value
    its key cannot read are ParseErrors at their place in path."""
    entries = read_key_values(text, path)
    if "family" not in entries:
        raise ParseError("missing 'family' key", expected="family = ...", path=path)
    family, line, _, column = entries.pop("family")
    if family not in FAMILIES:
        raise ParseError(f"unknown family {family!r}", line=line, column=column,
                         expected="|".join(FAMILIES), path=path)
    keys = FAMILIES[family][1]
    values = {key: parse(default) for key, (parse, default) in keys.items()}
    for key, (value, line, key_column, column) in entries.items():
        if key not in keys:
            raise ParseError(f"{family} data reads no key {key!r}", line=line,
                             column=key_column, expected="|".join(keys), path=path)
        try:
            values[key] = keys[key][0](value)
        except ValueError as exc:
            raise ParseError(f"{key}: cannot read {value!r} ({exc})", line=line, column=column,
                             expected=f"{key} = {keys[key][1]}", path=path) from None
    bumps = {c: BumpSpec(values[c + "_amp"], values[c + "_width"])
             for c in (key[:-len("_amp")] for key in keys if key.endswith("_amp"))}
    return InitialDataSpec(family, angular=values.get("angular", ()), **bumps)
