"""Exact per-mode solvers for d_t^2 u - t^m Lap u = F on a periodic grid.

Every Fourier mode decouples into u'' + t^m rho^2 u = F_hat with rho = |xi|,
solved by the fundamental pair (V1, V2).  The particular solution uses the
variation-of-constants kernel V2(t)V1(tau) - V1(t)V2(tau) (the Wronskian is
one), evaluated with cumulative Simpson so a whole trajectory costs O(N_t).
Both solves read a propagator table that the caller builds once per solve.

An export directory holds one snapshot_%05d.cwgrid file per time level and
a manifest.csv of times, file names and H^s norms; export_trajectory writes
it and load_trajectory reads it back.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from .errors import GridMismatchError, ParameterError, QuadratureError
from .propagator import sample_arrays
from .spectral import (
    Field,
    SpectralTrajectory,
    load_field,
    require_same_grid,
    save_field,
    sobolev_norm,
)


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


def propagator_table(m: int, times, rho: np.ndarray):
    """(v1, v2, dt_v1, dt_v2) arrays of shape (n_times,) + rho.shape.

    The pair depends on xi only through rho = |xi|, so it is evaluated once
    per distinct rho (radial shell) and gathered back onto the grid.  A
    solver builds the table once and passes it to every solve_homogeneous
    and duhamel call on that (m, time grid, frequency set).
    """
    times = np.asarray(times, dtype=float)
    shells, where = np.unique(rho, return_inverse=True)
    where = where.reshape(rho.shape)
    # np.take gathers in C order; a[:, where] would put the time axis fastest
    return tuple(np.take(a, where, axis=1)
                 for a in sample_arrays(m, times[:, None], shells[None, :]))


def _require_table(table, grid, times) -> None:
    shape = (len(times),) + grid.sizes
    if table[0].shape != shape:
        raise GridMismatchError(
            f"propagator table has shape {table[0].shape}, the solve needs {shape}")


def solve_homogeneous(table, phi1: Field, phi2: Field, times) -> SpectralTrajectory:
    """u_hat(t) = V1(t,|xi|) phi1_hat + V2(t,|xi|) phi2_hat per mode."""
    grid = require_same_grid(phi1, phi2)
    for f in (phi1, phi2):
        if f.space != "spectral":
            raise ParameterError("solve_homogeneous expects spectral data")
    times = _check_times(times)
    _require_table(table, grid, times)
    v1, v2, dt_v1, dt_v2 = table
    return SpectralTrajectory(grid, times,
                              v1 * phi1.values + v2 * phi2.values,
                              dt_v1 * phi1.values + dt_v2 * phi2.values)


def duhamel(table, forcing: SpectralTrajectory) -> SpectralTrajectory:
    """Zero-data response to the forcing trajectory.

    u_hat(t) = V2(t) I1(t) - V1(t) I2(t) with I1 = int_0^t V1 F_hat dtau and
    I2 = int_0^t V2 F_hat dtau; differentiating in t only hits the outer
    factors because the kernel vanishes on the diagonal.
    """
    times = _check_times(forcing.times)
    _require_table(table, forcing.grid, times)
    v1, v2, dt_v1, dt_v2 = table
    i1 = cumulative_simpson(v1 * forcing.u, times)
    i2 = cumulative_simpson(v2 * forcing.u, times)
    return SpectralTrajectory(forcing.grid, times,
                              v2 * i1 - v1 * i2, dt_v2 * i1 - dt_v1 * i2)


def export_trajectory(directory, traj: SpectralTrajectory, s_list=(0.0,)):
    """Write one grid file per snapshot plus a CSV manifest of H^s norms."""
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


def load_trajectory(directory) -> SpectralTrajectory:
    """Rebuild a trajectory from an export directory's manifest.

    Only u is stored, so the loaded trajectory has dt = None.
    """
    manifest = os.path.join(directory, "manifest.csv")
    with open(manifest, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ParameterError("trajectory manifest %r is empty" % manifest)
    for column in ("time", "file"):
        if column not in rows[0]:
            raise ParameterError("trajectory manifest %r has no %r column"
                                 % (manifest, column))
    grid = None
    for i, row in enumerate(rows):
        f = load_field(os.path.join(directory, row["file"]), space="spectral")
        if grid is None:
            grid = f.grid
            u = np.empty((len(rows),) + grid.sizes, dtype=complex)
        elif f.grid != grid:
            raise GridMismatchError("%s: grid differs from the first snapshot"
                                    % row["file"])
        u[i] = f.values
    return SpectralTrajectory(grid, [float(r["time"]) for r in rows], u)
