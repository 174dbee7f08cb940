"""Exact per-mode solvers for d_t^2 u - t^m Lap u = F on a periodic grid.

Every Fourier mode decouples into u'' + t^m rho^2 u = F_hat with rho = |xi|,
solved by the fundamental pair (V1, V2).  The particular solution uses the
variation-of-constants kernel V2(t)V1(tau) - V1(t)V2(tau) (the Wronskian is
one), evaluated with cumulative Simpson so a whole trajectory costs O(N_t).
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import GridMismatchError, ParameterError, QuadratureError
from .propagator import sample_arrays
from .spectral import Field, SpectralTrajectory, require_same_grid, save_field, sobolev_norm


def _check_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 1 or times[0] != 0.0:
        raise ParameterError("times must be a 1-d array starting at 0")
    if np.any(np.diff(times) <= 0):
        raise ParameterError("times must be strictly increasing")
    return times


def cumulative_simpson(y, times) -> np.ndarray:
    """Running composite-Simpson integral of y along axis 0, zero at times[0].

    The time grid must be uniform with an odd number of nodes.  Each
    two-step panel is split at its middle node, the first half weighted
    h/12 * (5, 8, -1) and the second h/12 * (-1, 8, 5), which is the rule
    scipy's cumulative_simpson applies on a uniform grid.
    """
    y = np.asarray(y)
    times = np.asarray(times, dtype=float)
    n = len(times)
    if y.shape[0] != n:
        raise ParameterError(f"y has {y.shape[0]} rows for {n} times")
    if n < 3 or n % 2 == 0:
        raise QuadratureError(f"Simpson needs an odd number of at least 3 times, got {n}")
    steps = np.diff(times)
    h = steps[0]
    if np.max(np.abs(steps - h)) > 1e-10 * h:
        raise QuadratureError("Simpson needs a uniform time grid")
    a, b, c = y[:-2:2], y[1:-1:2], y[2::2]
    parts = np.empty(y.shape, dtype=np.result_type(y, float))
    parts[0] = 0.0
    parts[1::2] = h / 12 * (5 * a + 8 * b - c)
    parts[2::2] = h / 12 * (-a + 8 * b + 5 * c)
    return np.cumsum(parts, axis=0)


_TABLE_CACHE = {}
_TABLE_CACHE_LIMIT = 8


def propagator_table(m: int, times, rho: np.ndarray):
    """(v1, v2, dt_v1, dt_v2) arrays of shape (n_times,) + rho.shape, cached.

    The pair depends on xi only through rho = |xi|, so it is evaluated once
    per distinct rho (radial shell) and gathered back onto the grid.  Picard
    iteration calls the linear solvers many times on one fixed (m, time
    grid, frequency set), so the table is memoised on those keys.
    """
    times = np.asarray(times, dtype=float)
    key = (m, times.tobytes(), rho.shape, rho.tobytes())
    hit = _TABLE_CACHE.get(key)
    if hit is not None:
        return hit
    shells, where = np.unique(rho, return_inverse=True)
    where = where.reshape(rho.shape)
    table = tuple(a[:, where] for a in sample_arrays(m, times[:, None], shells[None, :]))
    if len(_TABLE_CACHE) >= _TABLE_CACHE_LIMIT:
        _TABLE_CACHE.pop(next(iter(_TABLE_CACHE)))
    _TABLE_CACHE[key] = table
    return table


def solve_homogeneous(m: int, phi1: Field, phi2: Field, times) -> SpectralTrajectory:
    """u_hat(t) = V1(t,|xi|) phi1_hat + V2(t,|xi|) phi2_hat per mode."""
    grid = require_same_grid(phi1, phi2)
    for f in (phi1, phi2):
        if f.space != "spectral":
            raise ParameterError("solve_homogeneous expects spectral data")
    times = _check_times(times)
    v1, v2, dt_v1, dt_v2 = propagator_table(m, times, grid.xi_norm())
    return SpectralTrajectory(grid, times,
                              v1 * phi1.values + v2 * phi2.values,
                              dt_v1 * phi1.values + dt_v2 * phi2.values)


def duhamel(m: int, forcing: SpectralTrajectory) -> SpectralTrajectory:
    """Zero-data response to the forcing trajectory.

    u_hat(t) = V2(t) I1(t) - V1(t) I2(t) with I1 = int_0^t V1 F_hat dtau and
    I2 = int_0^t V2 F_hat dtau; differentiating in t only hits the outer
    factors because the kernel vanishes on the diagonal.
    """
    times = _check_times(forcing.times)
    v1, v2, dt_v1, dt_v2 = propagator_table(m, times, forcing.grid.xi_norm())
    i1 = cumulative_simpson(v1 * forcing.u, times)
    i2 = cumulative_simpson(v2 * forcing.u, times)
    return SpectralTrajectory(forcing.grid, times,
                              v2 * i1 - v1 * i2, dt_v2 * i1 - dt_v1 * i2)


def solve_inhomogeneous(m: int, phi1: Field, phi2: Field,
                        forcing: SpectralTrajectory) -> SpectralTrajectory:
    hom = solve_homogeneous(m, phi1, phi2, forcing.times)
    par = duhamel(m, forcing)
    if hom.grid != par.grid:
        raise GridMismatchError("data and forcing grids differ")
    return SpectralTrajectory(hom.grid, hom.times, hom.u + par.u, hom.dt + par.dt)


def export_trajectory(directory, traj: SpectralTrajectory, s_list=(0.0,)):
    """Write one grid file per snapshot plus a CSV manifest of H^s norms."""
    import os

    os.makedirs(directory, exist_ok=True)
    manifest = os.path.join(directory, "manifest.csv")
    norms = [sobolev_norm(traj, s) for s in s_list]
    with open(manifest, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "file"] + [f"h{s}" for s in s_list])
        for i, t in enumerate(traj.times):
            name = f"snapshot_{i:05d}.cwgrid"
            save_field(os.path.join(directory, name),
                       Field(traj.grid, traj.u[i], "spectral"))
            w.writerow([repr(float(t)), name] + [repr(float(v[i])) for v in norms])
    return manifest
