"""Singular-support diagnostics: the tangent fields of cuspwave.fields
applied to trajectories, conormal-norm scans, gradient-ridge extraction,
and power-law rate fitting.

A trajectory holds the half spectra of a real u (spectral), and every
word Z_1 ... Z_k u is held and measured as a half spectrum too.  A word
has exactly Hermitian edge columns when u has: each term is a real time
factor times a derivative, the x-weighted ones summed in a real array
that half_forward transforms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .fields import VectorFieldId
from .spectral import (
    Grid,
    SpectralTrajectory,
    half_forward,
    half_inverse,
    sobolev_norm,
    spectral_derivative,
)

# vector fields -------------------------------------------------------------


def _factor(c, p: int, t: np.ndarray):
    """c * t^(p/2) in floats; a constant stays a Python scalar, so that
    _weigh folds it into the coordinate once."""
    return float(c) * t ** (p / 2) if p else float(c)


def _time_derivative(stack: np.ndarray, h: float, out: np.ndarray,
                     work: np.ndarray) -> np.ndarray:
    """4th-order finite differences along axis 0 on a uniform grid.

    The result goes to out; work is scratch of the same shape.  The
    interior stencil ((u[i-2] - u[i+2]) + 8 (u[i+1] - u[i-1])) / 12h takes
    five whole-buffer passes, in place.
    """
    nt = stack.shape[0]
    if nt < 6:
        raise DomainError("need at least 6 snapshots for 4th-order time differences")
    mid, eight = out[2:-2], work[2:-2]
    np.subtract(stack[:-4], stack[4:], out=mid)
    np.subtract(stack[3:-1], stack[1:-3], out=eight)
    eight *= 8
    mid += eight
    mid /= 12 * h
    fwd = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12 * h)
    for i in (0, 1):
        out[i] = sum(c * stack[i + k] for k, c in enumerate(fwd))
        out[nt - 1 - i] = -sum(c * stack[nt - 1 - i - k] for k, c in enumerate(fwd))
    return out


def _weigh(factor, coord: np.ndarray, src: np.ndarray, out: np.ndarray) -> None:
    """out = (factor * coord) * src.  A factor that varies in t is
    multiplied by coord one time level at a time, so that no product of
    the trajectory's size is allocated."""
    if np.ndim(factor) == 0:
        np.multiply(factor * coord, src, out=out)
        return
    for f, s, o in zip(factor, src, out):
        np.multiply(f * coord, s, out=o)


class _Level:
    """A word of a vector-field scan, as the half spectrum of a real field,
    held in buffers that later words overwrite.

    Besides the word u (the trajectory's own half spectrum at depth 0) it
    holds time_diff, the 4th-order time difference of u when a field reads
    the t slot, and dest, the half spectrum that receives Z u (the next
    level's word, or the scan's last buffer).  All levels of a scan share
    three more arrays: acc, the real array in which the x-weighted terms
    are summed; phys, through which each physical derivative and weighted
    product streams; and spec, the half-spectrum scratch of the
    derivatives and of the terms without an x factor.
    """

    def __init__(self, grid, times, u, dest, shared_buffers, h: float,
                 reads_t: bool):
        self.grid, self.times, self.h = grid, times, h
        self.u, self.dest = u, dest
        self.acc, self.phys, self.spec = shared_buffers
        self.time_diff = np.empty(u.shape, dtype=complex) if reads_t else None

    def refresh(self) -> None:
        """Recompute time_diff from the word."""
        if self.time_diff is not None:
            _time_derivative(self.u, self.h, self.time_diff, self.spec)

    def physical(self, slot) -> np.ndarray:
        """d_slot u in physical space, written into the real scratch phys."""
        if slot == "t":
            return half_inverse(self.time_diff, self.grid, self.phys, work=self.spec)
        spectral_derivative(self.u, self.grid, slot, out=self.spec)
        return half_inverse(self.spec, self.grid, self.phys, work=self.spec)


def _levels(traj: SpectralTrajectory, fields, depth: int) -> list[_Level]:
    """The levels of a scan of fields to the given depth over traj, each
    array allocated once, with level 0 refreshed.  Level k writes into
    level k+1's word; the last level writes into one more half spectrum."""
    grid = traj.grid
    h = np.diff(traj.times)
    if len(h) == 0 or np.max(np.abs(h - h[0])) > 1e-10 * h[0]:
        raise DomainError("apply_vector_field needs a uniform time grid")
    reads_t = any(slot == "t" for fid in fields for *_, slot in fid.terms(grid.n))
    half_shape = (len(traj.times),) + grid.half_sizes
    words = [traj.u]
    words += [np.empty(half_shape, dtype=complex) for _ in range(depth)]
    real_shape = (len(traj.times),) + grid.sizes
    shared = (np.empty(real_shape), np.empty(real_shape),
              np.empty(half_shape, dtype=complex))
    levels = [_Level(grid, traj.times, words[k], words[k + 1], shared,
                     float(h[0]), reads_t) for k in range(depth)]
    levels[0].refresh()
    return levels


def apply_vector_field(fid: VectorFieldId, traj: SpectralTrajectory,
                       t_floor: float | None = None
                       ) -> SpectralTrajectory | np.ndarray:
    """Z u on the trajectory's own (t, x) grid, as a trajectory of half
    spectra.  Spatial derivatives are spectral and the time derivative is
    a 4th-order finite difference, which needs a uniform grid of at least
    6 times.

    The field's terms come from VectorFieldId.terms.  A term without an x
    factor (the t term of V0, the d_l term of Vbar, TDt, N3, N4 and Rl)
    acts in spectral space as one multiply.  The terms with an x factor
    multiply pointwise in physical space and are summed there, in a real
    array, which costs one half_inverse per term and one half_forward per
    field.  Besides the result, the call allocates arrays of the
    trajectory's size: a real accumulator and scratch, a half-spectrum
    scratch and, when the field reads the t slot, a time difference.
    Given one of conormal_scan's levels instead of a trajectory, Z u
    overwrites the scan's next word, which the call returns as an array.

    Fields with a negative power of t (Vbar) are evaluated only for
    t >= t_floor (default 4 time steps); earlier snapshots are zeroed.
    Passing t_floor = 0 for such a field raises a domain error.
    """
    if isinstance(traj, _Level):
        level = traj
    else:
        level = _levels(traj, [fid], 1)[0]
    grid, times, dest = level.grid, level.times, level.dest
    if t_floor is None:
        t_floor = 4.0 * level.h
    if fid.singular_at_zero and t_floor <= 0:
        raise DomainError(
            f"{fid.label()} carries a negative power of t and needs t_floor > 0"
        )

    # fields singular at t = 0 act only from the first time >= t_floor on
    start = int(np.searchsorted(times, t_floor)) if fid.singular_at_zero else 0
    t = times[start:].reshape((-1,) + (1,) * grid.n)
    coords = grid.coords()
    terms = fid.terms(grid.n)
    weighted = [term for term in terms if term[2] is not None]
    # in each of the two sums below, the first term goes straight into the
    # sum's array and the others through scratch
    if weighted:
        acc = level.acc
        acc[:start] = 0
        for i, (c, p, axis, slot) in enumerate(weighted):
            phys = level.physical(slot)
            product = level.phys[start:] if i else acc[start:]
            _weigh(_factor(c, p, t), coords[axis], phys[start:], product)
            if i:
                acc[start:] += product
        half_forward(acc, grid, out=dest)
    else:
        dest[:start] = 0
    spec = level.spec[start:]
    for i, (c, p, _, slot) in enumerate(term for term in terms if term[2] is None):
        if slot == "t":
            spectral = level.time_diff[start:]
        else:
            spectral = spectral_derivative(level.u[start:], grid, slot, out=spec)
        first = not (weighted or i)
        np.multiply(_factor(c, p, t), spectral, out=dest[start:] if first else spec)
        if not first:
            dest[start:] += spec
    if traj is level:
        return dest
    return SpectralTrajectory(grid, times, dest)


def _words(levels: list[_Level], fields, depth: int, k=0, word=()):
    """Depth first from level k, each word longer than word with Z u in
    the scan's buffers, which the next word overwrites."""
    for fid in fields:
        longer = word + (fid,)
        yield longer, apply_vector_field(fid, levels[k])
        if len(longer) < depth:
            levels[k + 1].refresh()
            yield from _words(levels, fields, depth, k + 1, longer)


def conormal_scan(traj: SpectralTrajectory, fields, depth: int, s: float):
    """Sup-in-t H^s norms of Z_1 ... Z_k u over all words up to the depth.

    Returns a dict mapping word labels (comma-joined field labels, '' for
    the empty word) to the sup norm over snapshots with t >= 4h (h the
    first time step), ordered by word length; fields singular at t = 0
    act from apply_vector_field's default floor, the same 4h.  Words are
    computed depth first by apply_vector_field, in arrays allocated once
    per scan and overwritten word after word: per depth below the last
    one word (the trajectory itself at depth 0) and its time difference;
    one half spectrum for the last depth's words; and the shared real
    accumulator, real scratch and half-spectrum scratch.  Each of these
    is about the size of u, so at depth 2 they add up to about 7 times
    u's bytes.  They are freed when the call returns.
    """
    if depth < 0 or depth > 2:
        raise ParameterError("scan depth must be 0, 1 or 2")
    if not np.isfinite(s):
        raise ParameterError(f"scan needs a finite Sobolev index, got s={s}")
    grid = traj.grid
    h = float(traj.times[1] - traj.times[0]) if len(traj.times) > 1 else 0.0
    keep = traj.times >= 4.0 * h

    def sup_norm(half):
        return float(np.max(sobolev_norm(half, grid, s)[keep]))

    def label(word):
        return ",".join(f.label() for f in word)

    table = dict.fromkeys(
        label(word) for k in range(depth + 1)
        for word in itertools.product(fields, repeat=k))
    table[""] = sup_norm(traj.u)
    if depth:
        levels = _levels(traj, fields, depth)
        for word, applied in _words(levels, fields, depth):
            table[label(word)] = sup_norm(applied)
    return table


# ridge extraction ----------------------------------------------------------


def gradient_magnitude(half: np.ndarray, grid: Grid) -> np.ndarray:
    """|grad u| in physical space of a real u, given by its half spectrum
    half on grid (per time level for a stack)."""
    # every derivative is taken and inverted in one half-spectrum buffer d
    # and one real buffer d_phys
    total = np.zeros(half.shape[:-1] + grid.sizes[-1:])
    d_phys = np.empty_like(total)
    d = np.empty(half.shape, dtype=complex)
    for axis in range(grid.n):
        spectral_derivative(half, grid, axis, out=d)
        half_inverse(d, grid, d_phys, work=d)
        np.square(d_phys, out=d_phys)
        total += d_phys
    return np.sqrt(total, out=total)


def ridge_extract(traj: SpectralTrajectory, threshold: float = 0.5):
    """Local maxima of |grad u| above threshold x per-snapshot max.

    Returns a list of (t, coordinates tuple, strength) records.
    """
    if not np.isfinite(threshold):
        raise ParameterError(f"ridge threshold must be finite, got {threshold}")
    grid = traj.grid
    mag = gradient_magnitude(traj.u, grid)
    peak = np.max(mag, axis=grid.axes, keepdims=True)
    is_max = mag > threshold * peak
    for axis in grid.axes:
        # each point against both periodic neighbours, on views of mag: the
        # interior pairs, then the pair that wraps; axes count from the end
        rest = (slice(None),) * (-1 - axis)
        for left, right in ((slice(None, -1), slice(1, None)),
                            (slice(-1, None), slice(0, 1))):
            left, right = (..., left) + rest, (..., right) + rest
            is_max[left] &= mag[left] >= mag[right]
            is_max[right] &= mag[right] >= mag[left]
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


def decay_exponent(m: int) -> float:
    """Closed-form rate exponents at exponent m.

    homogeneous-derivative-loss: the H^(s1+1) norm of u = V1 phi for jump
    data (|phi_hat| ~ 1/|xi|) decays like t^(-m/4), whatever s1.  For
    large phase phi = 2 t^((m+2)/2) |xi| / (m+2), |V1| has the envelope
    phi^(nu-1/2) with nu = 1/(m+2), so the squared norm is a sum of
    |xi|^(2 s1 + 2 nu - 1) times t^((m+2)(nu-1/2)).  When s1 > -1/(m+2)
    that sum is dominated by the grid cutoff and the norm goes like
    t^((m+2)(2 nu - 1)/4) = t^(-m/4).  Below it, and while the phase at
    the cutoff is small, the law does not hold.
    """
    return -m / 4
