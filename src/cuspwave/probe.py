"""Singular-support diagnostics: characteristic-surface geometry, discrete
tangent vector fields, conormal-norm scans, gradient-ridge extraction, and
power-law rate fitting.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .spectral import (
    Field,
    SpectralTrajectory,
    dft_forward,
    dft_inverse,
    sobolev_norm,
    spectral_derivative,
)

# characteristic sets -------------------------------------------------------


@dataclass(frozen=True)
class CharSurface:
    """Cusp-forming characteristic sets of the degenerate operator.

    GammaPM: x1 = +/- 2 t^((m+2)/2) / (m+2)      (half-space jump geometry)
    Gamma:   |x| = 2 t^((m+2)/2) / (m+2)          (point-singularity cone)
    Gamma0:  x1 = 0;  L0: x = 0;  Sigma0: t = 0
    """

    kind: str
    m: int = 1
    sign: str = "n/a"

    def __post_init__(self):
        if self.kind not in ("GammaPM", "Gamma", "Gamma0", "L0", "Sigma0"):
            raise ParameterError(f"unknown surface kind {self.kind!r}")
        if self.kind == "GammaPM":
            if self.sign not in ("+", "-"):
                raise ParameterError("GammaPM needs sign '+' or '-'")
        elif self.sign != "n/a":
            raise ParameterError(f"{self.kind} does not take a sign")
        if self.kind in ("GammaPM", "Gamma") and self.m < 1:
            raise ParameterError("m must be a positive integer")

    def radius(self, t) -> np.ndarray:
        """The cusp radius 2 t^((m+2)/2) / (m+2)."""
        return 2.0 * np.asarray(t, dtype=float) ** ((self.m + 2) / 2) / (self.m + 2)


def surface_distance(s: CharSurface, t, x) -> float:
    """Defining-function residual of the surface at the point (t, x)."""
    if np.any(np.asarray(t) < 0):
        raise DomainError("surface_distance needs t >= 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if s.kind == "GammaPM":
        sgn = 1.0 if s.sign == "+" else -1.0
        return float(np.abs(x[0] - sgn * s.radius(t)))
    if s.kind == "Gamma":
        return float(np.abs(np.linalg.norm(x) - s.radius(t)))
    if s.kind == "Gamma0":
        return float(np.abs(x[0]))
    if s.kind == "L0":
        return float(np.linalg.norm(x))
    return float(t)  # Sigma0


# vector fields -------------------------------------------------------------

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
        return self.name == "Vbar"

    def label(self) -> str:
        idx = ",".join(str(i) for i in self.indices)
        return f"{self.name}[{idx}]" if idx else self.name

    def terms(self, n: int):
        """List of (time_factor(t), coord_axis, slot) triples.

        Each term is time_factor(t) * x_{coord_axis} * d_slot, with
        coord_axis None when the term has no x factor and slot either an
        axis index or 't'.  t is an array of shape (n_t, 1, ..., 1);
        time_factor returns a scalar or an array that broadcasts against
        it.
        """
        m = self.m
        if self.name == "V0":
            return [(lambda t: 2.0 * t, None, "t")] + [
                (lambda t: m + 2.0, i, i) for i in range(n)
            ]
        if self.name == "Vbar":
            l = self.indices[0]
            if not 0 <= l < n:
                raise ParameterError(f"Vbar axis {l} out of range for n={n}")
            return [
                (lambda t: 2.0 * t ** (m / 2 + 1), None, l),
                (lambda t: (m + 2) * t ** (-m / 2), l, "t"),
            ]
        if self.name == "L":
            i, j = self.indices
            if not (0 <= i < n and 0 <= j < n):
                raise ParameterError(f"L axes {self.indices} out of range for n={n}")
            return [(lambda t: 1.0, i, j), (lambda t: -1.0, j, i)]
        if self.name == "Vhalf":
            return [(lambda t: 2.0 * t, None, "t"), (lambda t: m + 2.0, 0, 0)]
        if self.name in ("TDt", "N3"):
            return [(lambda t: t, None, "t")]
        if self.name == "Rl":
            l = self.indices[0]
            if not 0 <= l < n:
                raise ParameterError(f"Rl axis {l} out of range for n={n}")
            return [(lambda t: 1.0, None, l)]
        if self.name == "N1":
            return [(lambda t: 1.0, 0, "t")]
        if self.name == "N2":
            sgn = float(self.indices[0])
            return [
                (lambda t: 1.0, 0, 0),
                (lambda t: -sgn * 2.0 / (m + 2) * t ** ((m + 2) / 2), None, 0),
            ]
        # N4
        return [(lambda t: t ** ((m + 2) / 2), None, 0)]


def _time_derivative(stack: np.ndarray, h: float) -> np.ndarray:
    """4th-order finite differences along axis 0 on a uniform grid."""
    nt = stack.shape[0]
    if nt < 5:
        raise DomainError("need at least 5 snapshots for 4th-order time differences")
    out = np.empty_like(stack)
    out[2:-2] = (-stack[4:] + 8 * stack[3:-1] - 8 * stack[1:-3] + stack[:-4]) / (12 * h)
    fwd = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12 * h)
    for i in (0, 1):
        out[i] = sum(c * stack[i + k] for k, c in enumerate(fwd))
        out[nt - 1 - i] = -sum(c * stack[nt - 1 - i - k] for k, c in enumerate(fwd))
    return out


class _Jet:
    """The derivatives of one trajectory, each computed once when a field
    first needs it and then shared by every field applied to it.

    spectral(slot) is d_slot u in spectral space: for 't' the 4th-order
    time difference of u (memoised; it commutes with the spatial FFT), for
    an axis the multiplier i xi (not memoised).  physical(slot) is one
    dft_inverse of it, memoised per slot.
    """

    def __init__(self, traj: SpectralTrajectory):
        h = np.diff(traj.times)
        if len(h) == 0 or np.max(np.abs(h - h[0])) > 1e-10 * h[0]:
            raise DomainError("apply_vector_field needs a uniform time grid")
        self.traj = traj
        self.h = float(h[0])
        self._dt = None
        self._physical = {}

    def spectral(self, slot) -> np.ndarray:
        if slot != "t":
            return spectral_derivative(self.traj.as_field(), slot).values
        if self._dt is None:
            self._dt = _time_derivative(self.traj.u, self.h)
        return self._dt

    def physical(self, slot) -> np.ndarray:
        if slot not in self._physical:
            self._physical[slot] = dft_inverse(
                Field(self.traj.grid, self.spectral(slot), "spectral")).values
        return self._physical[slot]


def apply_vector_field(fid: VectorFieldId, traj: SpectralTrajectory,
                       t_floor: float | None = None) -> SpectralTrajectory:
    """Z u on the trajectory's own (t, x) grid.

    Spatial derivatives are spectral and the time derivative is a
    4th-order finite difference.  A term without an x factor (such as
    2t dt in V0, 2 t^(m/2+1) d_l in Vbar, TDt, N3, N4 and Rl) acts in
    spectral space as one multiply.  The terms with an x factor multiply
    pointwise in physical space and are summed there, which costs one
    dft_forward per field.  traj is a SpectralTrajectory or the derivative
    jet of one; conormal_scan passes a jet so that all fields applied to
    one input share one dft_inverse per derivative slot.

    Fields with a t^(-m/2) coefficient are evaluated only for
    t >= t_floor (default 4 time steps); earlier snapshots are zeroed.
    Passing t_floor = 0 for such a field raises a domain error.
    """
    jet = traj if isinstance(traj, _Jet) else _Jet(traj)
    grid, times = jet.traj.grid, jet.traj.times
    if t_floor is None:
        t_floor = 4.0 * jet.h
    if fid.singular_at_zero and t_floor <= 0:
        raise DomainError(
            f"{fid.label()} carries a negative power of t and needs t_floor > 0"
        )

    # fields singular at t = 0 act only from the first time >= t_floor on
    start = int(np.searchsorted(times, t_floor)) if fid.singular_at_zero else 0
    t = times[start:].reshape((-1,) + (1,) * grid.n)
    terms = fid.terms(grid.n)
    weighted = [term for term in terms if term[1] is not None]
    if weighted:
        coords = grid.coords()
        phys = np.zeros_like(jet.traj.u)
        for time_factor, axis, slot in weighted:
            phys[start:] += time_factor(t) * coords[axis] * jet.physical(slot)[start:]
        out = dft_forward(Field(grid, phys)).values
        del phys
    else:
        out = np.zeros_like(jet.traj.u)
    for time_factor, axis, slot in terms:
        if axis is None:
            out[start:] += time_factor(t) * jet.spectral(slot)[start:]
    return SpectralTrajectory(grid, times, out)


def conormal_scan(traj: SpectralTrajectory, fields, depth: int, s: float,
                  t_floor: float | None = None):
    """Sup-in-t H^s norms of Z_1 ... Z_k u over all words up to the depth.

    Returns a dict mapping word labels (comma-joined field labels, '' for
    the empty word) to the sup norm over snapshots with t >= t_floor,
    ordered by word length.  Words are computed depth first: each input
    gets one derivative jet that all fields share, a word of the last
    depth is kept only as its norm, and a shorter word is released once
    its extensions are scanned.
    """
    if depth < 0 or depth > 2:
        raise ParameterError("scan depth must be 0, 1 or 2")
    h = float(traj.times[1] - traj.times[0]) if len(traj.times) > 1 else 0.0
    if t_floor is None:
        t_floor = 4.0 * h
    keep = traj.times >= t_floor

    def sup_norm(tr):
        return float(np.max(sobolev_norm(tr, s)[keep]))

    def label(word):
        return ",".join(f.label() for f in word)

    table = dict.fromkeys(
        label(word) for k in range(depth + 1)
        for word in itertools.product(fields, repeat=k))
    table[""] = sup_norm(traj)

    def scan(jet, word):
        for fid in fields:
            longer = word + (fid,)
            applied = apply_vector_field(fid, jet, t_floor=t_floor)
            table[label(longer)] = sup_norm(applied)
            if len(longer) < depth:
                scan(_Jet(applied), longer)
            del applied

    if depth:
        scan(_Jet(traj), ())
    return table


# ridge extraction ----------------------------------------------------------


def gradient_magnitude(snapshot: Field) -> np.ndarray:
    """|grad u| in physical space, per time level for a stacked Field."""
    total = np.zeros(snapshot.values.shape)
    for axis in range(snapshot.grid.n):
        d = dft_inverse(spectral_derivative(snapshot, axis)).values
        total += np.abs(d) ** 2
    return np.sqrt(total)


def ridge_extract(traj: SpectralTrajectory, threshold: float = 0.5):
    """Local maxima of |grad u| above threshold x per-snapshot max.

    Returns a list of (t, coordinates tuple, strength) records.
    """
    grid = traj.grid
    mag = gradient_magnitude(traj.as_field())
    peak = np.max(mag, axis=grid.axes, keepdims=True)
    is_max = mag > threshold * peak
    for axis in grid.axes:
        is_max &= mag >= np.roll(mag, 1, axis=axis)
        is_max &= mag >= np.roll(mag, -1, axis=axis)
    coords = [grid.axis_coords(a) for a in range(grid.n)]
    return [
        (float(traj.times[idx[0]]),
         tuple(float(coords[a][i]) for a, i in enumerate(idx[1:])),
         float(mag[tuple(idx)]))
        for idx in np.argwhere(is_max)
    ]


# rate fitting --------------------------------------------------------------


@dataclass(frozen=True)
class EstimateFit:
    exponent: float
    r2: float
    intercept: float


def fit_power_law(ts, values) -> EstimateFit:
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(ts) < 5:
        raise DomainError("fit_power_law needs at least 5 samples")
    if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(values))):
        raise DomainError("fit_power_law needs finite inputs")
    if np.any(ts <= 0) or np.any(values <= 0):
        raise DomainError("fit_power_law needs positive inputs")
    lx, ly = np.log(ts), np.log(values)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return EstimateFit(float(slope), r2, float(intercept))


# rate catalog --------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    lemma: str
    exponent: float
    tolerance: float = 0.15


def estimate_catalog(m: int, s1: float | None = None):
    """Closed-form rate exponents for concrete (m, s1)."""
    if s1 is None:
        s1 = m / (2 * (m + 2))
    return [
        CatalogEntry("homogeneous-derivative-loss", -s1 * (m + 2) / 2, tolerance=0.10),
    ]


# exports -------------------------------------------------------------------


def export_ridge_csv(path, points):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "coords", "strength"])
        for t, xs, strength in points:
            w.writerow([repr(t), " ".join(repr(x) for x in xs), repr(strength)])
    plot = str(path) + ".gp"
    with open(plot, "w") as fh:
        fh.write(
            'set datafile separator ","\n'
            f'plot "{path}" using 1:2 with points title "ridge"\n'
        )


def export_scan_csv(path, table, s: float):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["word", "s", "sup_norm"])
        for word, norm in table.items():
            w.writerow([word or "(id)", repr(s), repr(norm)])


def export_fit_csv(path, entries, fits):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["lemma", "expected", "fitted", "r2"])
        for e, f in zip(entries, fits):
            w.writerow([e.lemma, repr(e.exponent), repr(f.exponent), repr(f.r2)])
