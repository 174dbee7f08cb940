"""Exact per-mode solvers for d_t^2 u - t^m Lap u = F on a periodic grid.

Every Fourier mode decouples into u'' + t^m rho^2 u = F_hat with rho = |xi|,
solved by the fundamental pair (V1, V2).  The particular solution uses the
variation-of-constants kernel V2(t)V1(tau) - V1(t)V2(tau) (the Wronskian is
one), evaluated with cumulative Simpson so a whole trajectory costs O(N_t).
Both solves read a propagator table that the caller builds once per solve.

The data and the solutions are real, and every solve works on rfft half
spectra, arrays passed with their Grid: the data enter as physical Fields
(float64 samples), which half_data checks and transforms, the table is
gathered onto the half grid (Grid.half_xi_norm), and duhamel writes into
arrays the caller may allocate once (out=).  solve_linear returns the
linear solution as a SpectralTrajectory.

An export directory holds one snapshot_%05d.cwgrid file per time level and
a manifest.csv of times, file names and H^s norms.  The files hold full
spectra: export_trajectory completes each level as it writes it, and
load_trajectory checks that each level it reads is the spectrum of a real
field and keeps its half (spectral.real_half).
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
    check_times,
    half_forward,
    hermitian_completion,
    load_field,
    real_half,
    require_same_grid,
    save_field,
    sobolev_norm,
)


def cumulative_simpson(y, times, out=None) -> np.ndarray:
    """Running composite-Simpson integral of y along axis 0, zero at times[0].

    The time grid must be uniform with an odd number of nodes.  Each
    two-step panel is split at its middle node, the first half weighted
    h/12 * (5, 8, -1) and the second h/12 * (-1, 8, 5), which is the rule
    scipy's cumulative_simpson applies on a uniform grid.  out, an array
    of y's shape other than y itself, receives the result; the halves are
    formed in its rows, so nothing else is allocated.
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
    if out is None:
        out = np.empty(y.shape, dtype=np.result_type(y, float))
    a, b, c = y[:-2:2], y[1:-1:2], y[2::2]
    first, second = out[1::2], out[2::2]
    # with S = a + 4b + c the halves are 2S + 3(a - c) and 2S - 3(a - c)
    np.multiply(b, 4, out=first)
    np.add(a, c, out=second)
    second += first  # S
    second *= 2
    np.subtract(a, c, out=first)
    first *= 3
    first += second  # 2S + 3(a - c)
    second *= 2
    second -= first  # 4S - (2S + 3(a - c))
    out[0] = 0.0
    out[1:] *= h / 12
    return np.cumsum(out, axis=0, out=out)


def propagator_table(m: int, times, rho: np.ndarray):
    """(v1, v2, dt_v1, dt_v2) arrays of shape (n_times,) + rho.shape.

    The pair depends on xi only through rho = |xi|, so it is evaluated once
    per distinct rho (radial shell) and gathered back onto rho, the grid's
    half_xi_norm for the solves here.  A solver builds the table once and
    passes it to every solve_homogeneous and duhamel call on that (m, time
    grid, frequency set).
    """
    times = np.asarray(times, dtype=float)
    shells, where = np.unique(rho, return_inverse=True)
    where = where.reshape(rho.shape)
    # np.take gathers in C order; a[:, where] would put the time axis fastest
    return tuple(np.take(a, where, axis=1)
                 for a in sample_arrays(m, times[:, None], shells[None, :]))


def _require_table(table, shape) -> None:
    if table[0].shape != shape:
        raise GridMismatchError(
            f"propagator table has shape {table[0].shape}, the solve needs {shape}")


def half_data(**data):
    """The grid and the half spectra (half_forward) of the named data, in
    order.  Every datum must be one level of a physical Field, all on one
    grid; any other raises a ParameterError with its name in front before
    anything is transformed."""
    for name, f in data.items():
        if not (isinstance(f, Field) and f.space == "physical"
                and f.values.shape == f.grid.sizes):
            got = (f"a {f.space} Field of shape {f.values.shape}"
                   if isinstance(f, Field) else type(f).__name__)
            raise ParameterError(f"{name}: expected the samples of a real field "
                                 f"(one level of a physical Field), got {got}")
    grid = require_same_grid(*data.values())
    return grid, [half_forward(f.values, grid) for f in data.values()]


def solve_homogeneous(table, phi1: np.ndarray, phi2: np.ndarray, times):
    """u_hat(t) = V1(t,|xi|) phi1_hat + V2(t,|xi|) phi2_hat per mode, and
    d_t u_hat = dt_V1 phi1_hat + dt_V2 phi2_hat.

    The data are half spectra and the table is on the grid's half_xi_norm.
    Returns the pair (u_hat, d_t u_hat) of half-spectrum arrays.
    """
    times = check_times(times)
    shape = (len(times),) + phi1.shape
    _require_table(table, shape)
    v1, v2, dt_v1, dt_v2 = table
    u, dt = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
    np.multiply(v2, phi2, out=dt)
    np.multiply(v1, phi1, out=u)
    u += dt
    np.multiply(dt_v1, phi1, out=dt)
    dt += dt_v2 * phi2
    return u, dt


def solve_linear(m: int, phi1: Field, phi2: Field, times) -> SpectralTrajectory:
    """The solution of d_t^2 u - t^m Lap u = 0 with the real data u = phi1
    and d_t u = phi2 at t = 0, given as physical Fields, as half spectra."""
    grid, (h1, h2) = half_data(phi1=phi1, phi2=phi2)
    times = check_times(times)
    table = propagator_table(m, times, grid.half_xi_norm())
    return SpectralTrajectory(grid, times, *solve_homogeneous(table, h1, h2, times))


def duhamel(table, forcing, times, out=None):
    """Zero-data response to the forcing F_hat, an array of half spectra
    on the table's modes, one per entry of times.

    u_hat(t) = V2(t) I1(t) - V1(t) I2(t) with I1 = int_0^t V1 F_hat dtau and
    I2 = int_0^t V2 F_hat dtau; differentiating in t only hits the outer
    factors because the kernel vanishes on the diagonal (duhamel_dt).
    Returns (u_hat, I1, I2), written into out = (u, i1, i2) when it is
    given; forcing is overwritten as scratch.
    """
    times = check_times(times)
    _require_table(table, (len(times),) + forcing.shape[1:])
    v1, v2, _, _ = table
    u, i1, i2 = out or [np.empty_like(forcing) for _ in range(3)]
    np.multiply(v1, forcing, out=u)
    cumulative_simpson(u, times, out=i1)
    np.multiply(v2, forcing, out=u)
    cumulative_simpson(u, times, out=i2)
    np.multiply(v2, i1, out=u)
    u -= np.multiply(v1, i2, out=forcing)
    return u, i1, i2


def duhamel_dt(table, i1, i2) -> np.ndarray:
    """d_t u_hat = dt_V2 I1 - dt_V1 I2 of a Duhamel response, from its
    integrals (duhamel's out); formed in i1, with i2 overwritten."""
    _, _, dt_v1, dt_v2 = table
    i1 *= dt_v2
    i2 *= dt_v1
    i1 -= i2
    return i1


def export_trajectory(directory, traj: SpectralTrajectory, s_list=(0.0,)):
    """Write one grid file per snapshot plus a CSV manifest of H^s norms.

    Each file holds the full spectrum of its level, the completion of its
    half spectrum (spectral.hermitian_completion).  Levels are completed in
    blocks of about 1 MB as they are written, so no full stack is held and
    small levels do not pay two calls each.
    """
    os.makedirs(directory, exist_ok=True)
    manifest = os.path.join(directory, "manifest.csv")
    grid = traj.grid
    norms = [sobolev_norm(traj.u, grid, s) for s in s_list]
    block = max(1, 2**20 // (16 * int(np.prod(grid.sizes))))
    with open(manifest, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "file"] + [f"h{s}" for s in s_list])
        for start in range(0, len(traj.times), block):
            full = hermitian_completion(traj.u[start : start + block], grid)
            for i, level in enumerate(full, start):
                name = f"snapshot_{i:05d}.cwgrid"
                save_field(os.path.join(directory, name), Field(grid, level, "spectral"))
                w.writerow([repr(float(traj.times[i])), name]
                           + [repr(float(v[i])) for v in norms])
    return manifest


def load_trajectory(directory) -> SpectralTrajectory:
    """Rebuild a trajectory from an export directory's manifest.

    The files are read one at a time, and each level must be the spectrum
    of a real field, of which only the half spectrum is kept
    (spectral.real_half, which raises a DomainError naming the worst
    level).  Only u is stored, so the loaded trajectory has dt = None.
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
    times = []
    for level, row in enumerate(rows):
        if not row["file"]:
            raise ParameterError("trajectory manifest %r: level %d names no file"
                                 % (manifest, level))
        try:
            times.append(float(row["time"]))
        except (TypeError, ValueError):
            raise ParameterError("trajectory manifest %r: the time %r of level %d"
                                 " (file %r) is not a number"
                                 % (manifest, row["time"], level, row["file"])) from None
    first = load_field(os.path.join(directory, rows[0]["file"]), space="spectral")
    grid = first.grid

    def levels():
        yield first.values
        for row in rows[1:]:
            f = load_field(os.path.join(directory, row["file"]), space="spectral")
            if f.grid != grid:
                raise GridMismatchError("%s: grid differs from the first snapshot"
                                        % row["file"])
            yield f.values

    return SpectralTrajectory(grid, times, real_half(levels(), grid, times))
