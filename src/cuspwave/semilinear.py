"""Picard fixed-point solvers for the semilinear problems.

Every shape is the fixed point u = flow + K(f(u)) of one iteration,
started from u = flow.  The flow is the linear response to all of the
data and K the zero-data solution operator, both built from the
second-order Duhamel map D_m:

* second order:  d_t^2 u - t^m Lap u = f(u);
  flow = V(phi0, phi1), K = D_m
* third order:   d_t (d_t^2 - t^m Lap) u = f(u), that is the second-order
  equation with the forcing phi2 + int_0^t f ds;
  flow = V(phi0, phi1) + D_m(phi2), K = D_m of the running integral
* fourth order:  (d_t^2 - t^m1 Lap)(d_t^2 - t^m2 Lap) u = f(u);
  flow = V_m2(psi0, psi1) + D_m2(V_m1(psi2, psi3)), K = D_m2 D_m1

Each solve builds its propagator table once per order.  Each nonlinearity
evaluation happens pointwise in physical space with 2/3 dealiasing before
the result re-enters the mode-wise linear solve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ParameterError
from .linear_solver import (
    cumulative_simpson,
    duhamel,
    propagator_table,
    solve_homogeneous,
)
from .spectral import (
    Field,
    SpectralTrajectory,
    dealias,
    dft_forward,
    dft_inverse,
    require_same_grid,
    sobolev_norm,
)


@dataclass(frozen=True)
class NonlinearitySpec:
    """Pointwise polynomial source term f(u) = sum c_k u^k.

    evaluate receives a whole trajectory of physical values u at once and
    returns an array of the same shape.
    """

    coefficients: tuple = ()

    def __post_init__(self):
        if not np.all(np.isfinite(self.coefficients)):
            raise ParameterError(
                f"nonlinearity coefficients must be finite, got {self.coefficients}")

    def evaluate(self, u):
        out = np.zeros_like(u)
        for k, c in enumerate(self.coefficients):
            if c:
                out = out + c * u**k
        return out


@dataclass(frozen=True)
class PicardConfig:
    T: float = 0.5
    n_t: int = 65
    max_iters: int = 40
    tol: float = 1e-10
    s_mon: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0):
            raise ParameterError(f"horizon T must be positive and finite, got {self.T}")
        if self.n_t < 9 or self.n_t % 2 == 0:
            raise ParameterError("n_t must be odd and at least 9")
        if self.max_iters < 1:
            raise ParameterError("max_iters must be at least 1")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ParameterError(f"tolerance must be positive and finite, got {self.tol}")
        if not np.isfinite(self.s_mon):
            raise ParameterError(f"monitor index s_mon must be finite, got {self.s_mon}")

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_t)


@dataclass
class PicardReport:
    iterate_distances: list = field(default_factory=list)
    converged: bool = False
    wall_times: list = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.iterate_distances)

    @property
    def contraction_ratio(self) -> float:
        """max d_i / d_(i-1) over i >= 2 with d_(i-1) > 0; NaN if none."""
        ds = self.iterate_distances
        ratios = [ds[i] / ds[i - 1] for i in range(2, len(ds)) if ds[i - 1] > 0]
        return max(ratios) if ratios else float("nan")

    def record(self, distance: float, wall: float) -> None:
        self.iterate_distances.append(distance)
        self.wall_times.append(wall)


def _sup_norm_distance(a: SpectralTrajectory, b: SpectralTrajectory, s: float) -> float:
    return float(np.max(sobolev_norm(Field(a.grid, a.u - b.u, "spectral"), s)))


def _plus(a: SpectralTrajectory, b: SpectralTrajectory) -> SpectralTrajectory:
    return SpectralTrajectory(a.grid, a.times, a.u + b.u, a.dt + b.dt)


def evaluate_forcing(f: NonlinearitySpec, traj: SpectralTrajectory) -> SpectralTrajectory:
    """Trajectory of f(u), dealiased, in spectral space."""
    grid = traj.grid
    u_phys = dft_inverse(Field(grid, traj.u, "spectral")).values
    f_hat = dealias(dft_forward(Field(grid, f.evaluate(u_phys)))).values
    return SpectralTrajectory(grid, traj.times, f_hat)


def _picard(flow: SpectralTrajectory, kernel, f: NonlinearitySpec, cfg: PicardConfig):
    """Iterate u <- flow + kernel(f(u)) from u = flow until the monitored
    distance between successive iterates drops below tol."""
    report = PicardReport()
    u = flow
    for _ in range(cfg.max_iters):
        t0 = time.perf_counter()
        u_next = _plus(flow, kernel(evaluate_forcing(f, u)))
        dist = _sup_norm_distance(u_next, u, cfg.s_mon)
        report.record(dist, time.perf_counter() - t0)
        u = u_next
        if dist <= cfg.tol:
            report.converged = True
            break
    return u, report


def solve_second_order(m: int, f: NonlinearitySpec, phi0: Field, phi1: Field,
                       cfg: PicardConfig):
    """Fixed point of u -> V(phi0, phi1) + D_m(f(u))."""
    grid = require_same_grid(phi0, phi1)
    times = cfg.times()
    table = propagator_table(m, times, grid.xi_norm())
    flow = solve_homogeneous(table, phi0, phi1, times)
    return _picard(flow, lambda g: duhamel(table, g), f, cfg)


def solve_third_order(m: int, f: NonlinearitySpec, phi0: Field, phi1: Field,
                      phi2: Field, cfg: PicardConfig):
    """Fixed point of u -> V(phi0, phi1) + D_m(phi2 + int_0^t f(u) ds)."""
    grid = require_same_grid(phi0, phi1, phi2)
    times = cfg.times()
    table = propagator_table(m, times, grid.xi_norm())
    data = np.broadcast_to(phi2.values, (len(times),) + grid.sizes)
    flow = _plus(solve_homogeneous(table, phi0, phi1, times),
                 duhamel(table, SpectralTrajectory(grid, times, data)))

    def kernel(g):
        return duhamel(table, SpectralTrajectory(grid, times,
                                                 cumulative_simpson(g.u, times)))

    return _picard(flow, kernel, f, cfg)


def solve_fourth_order(m1: int, m2: int, f: NonlinearitySpec,
                       psi0: Field, psi1: Field, psi2: Field, psi3: Field,
                       cfg: PicardConfig):
    """Solve the factored problem Q_{m1} Q_{m2} u = f(u).

    The inner unknown Q_{m2} u has data (psi2, psi3) and solves
    Q_{m1} v = f(u); u itself has data (psi0, psi1), so u is the fixed
    point of u -> V_m2(psi0, psi1) + D_m2(V_m1(psi2, psi3) + D_m1(f(u))).
    """
    if m1 == m2:
        raise ParameterError("the factored solver needs distinct orders m1 != m2")
    grid = require_same_grid(psi0, psi1, psi2, psi3)
    times = cfg.times()
    table1 = propagator_table(m1, times, grid.xi_norm())
    table2 = propagator_table(m2, times, grid.xi_norm())
    flow = _plus(solve_homogeneous(table2, psi0, psi1, times),
                 duhamel(table2, solve_homogeneous(table1, psi2, psi3, times)))
    return _picard(flow, lambda g: duhamel(table2, duhamel(table1, g)), f, cfg)


def require_converged(report: PicardReport) -> None:
    if not report.converged:
        raise ConvergenceError(
            f"Picard iteration did not converge in {report.iterations} steps "
            f"(last distance {report.iterate_distances[-1]:.3e}); "
            "shrink the horizon T and retry",
            report=report,
        )
