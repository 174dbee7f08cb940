"""Picard fixed-point solvers for the semilinear problems.

Three shapes are covered, all sharing the same iteration engine:

* second order:  d_t^2 u - t^m Lap u = f(u)
* third order:   d_t (d_t^2 - t^m Lap) u = f(u), recast as the
  second-order equation with the nonlocal forcing phi2 + int_0^t f ds
* fourth order:  (d_t^2 - t^m1 Lap)(d_t^2 - t^m2 Lap) u = f(u),
  solved as a cascade of two second-order problems

Each nonlinearity evaluation happens pointwise in physical space with 2/3
dealiasing before the result re-enters the mode-wise linear solve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ParameterError
from .linear_solver import (
    cumulative_simpson,
    duhamel,
    solve_homogeneous,
    solve_inhomogeneous,
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

    def is_zero(self) -> bool:
        return not any(self.coefficients)


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
    contraction_ratio: float = float("nan")
    converged: bool = False
    iterations: int = 0
    wall_times: list = field(default_factory=list)

    def record(self, distance: float, wall: float) -> None:
        self.iterate_distances.append(distance)
        self.wall_times.append(wall)
        self.iterations += 1
        ds = self.iterate_distances
        ratios = [ds[i] / ds[i - 1] for i in range(2, len(ds)) if ds[i - 1] > 0]
        if ratios:
            self.contraction_ratio = max(ratios)

    def write_manifest(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iteration", "distance", "ratio", "wall_seconds"])
            prev = None
            for i, (d, wt) in enumerate(zip(self.iterate_distances, self.wall_times)):
                ratio = "" if not prev else repr(d / prev)
                w.writerow([i, repr(d), ratio, repr(wt)])
                prev = d


def _sup_norm_distance(a: SpectralTrajectory, b: SpectralTrajectory, s: float) -> float:
    return float(np.max(sobolev_norm(Field(a.grid, a.u - b.u, "spectral"), s)))


def evaluate_forcing(f: NonlinearitySpec, traj: SpectralTrajectory,
                     offset: SpectralTrajectory | None = None,
                     subtract_at_zero: bool = False) -> SpectralTrajectory:
    """Trajectory of f(u), dealiased, in spectral space.

    With subtract_at_zero the value f(0) = c_0 is removed, which is the
    nonlinear increment the third-order fixed point iterates on.
    """
    grid = traj.grid
    u = traj.u if offset is None else traj.u + offset.u
    u_phys = dft_inverse(Field(grid, u, "spectral")).values
    vals = f.evaluate(u_phys)
    if subtract_at_zero and f.coefficients:
        vals = vals - f.coefficients[0]
    f_hat = dealias(dft_forward(Field(grid, vals))).values
    return SpectralTrajectory(grid, traj.times, f_hat)


def _picard(apply_map, initial: SpectralTrajectory, cfg: PicardConfig):
    """Iterate w <- apply_map(w) until the monitored distance drops below tol."""
    report = PicardReport()
    w = initial
    for _ in range(cfg.max_iters):
        t0 = time.perf_counter()
        w_next = apply_map(w)
        dist = _sup_norm_distance(w_next, w, cfg.s_mon)
        report.record(dist, time.perf_counter() - t0)
        w = w_next
        if dist <= cfg.tol:
            report.converged = True
            break
    return w, report


def solve_second_order(m: int, f: NonlinearitySpec, phi0: Field, phi1: Field,
                       cfg: PicardConfig):
    """Fixed point of w -> Duhamel(m, f(u_hom + w)) around the linear flow."""
    require_same_grid(phi0, phi1)
    times = cfg.times()
    u_hom = solve_homogeneous(m, phi0, phi1, times)
    if f.is_zero():
        report = PicardReport(converged=True, iterations=1, iterate_distances=[0.0],
                              wall_times=[0.0])
        return u_hom, report

    def step(w):
        return duhamel(m, evaluate_forcing(f, w, offset=u_hom))

    zero = SpectralTrajectory(u_hom.grid, times, np.zeros_like(u_hom.u))
    w, report = _picard(step, zero, cfg)
    return SpectralTrajectory(u_hom.grid, times, u_hom.u + w.u, u_hom.dt + w.dt), report


def apply_E(m: int, g: SpectralTrajectory) -> SpectralTrajectory:
    """Duhamel image of the running time integral of g.

    E(g)(t) solves d_t (d_t^2 - t^m Lap) v = g with zero data: first
    integrate g cumulatively in t, then apply the second-order kernel.
    """
    big_g = cumulative_simpson(g.u, g.times)
    return duhamel(m, SpectralTrajectory(g.grid, g.times, big_g))


def solve_third_order(m: int, f: NonlinearitySpec, phi0: Field, phi1: Field,
                      phi2: Field, cfg: PicardConfig):
    """Solve d_t^2 u - t^m Lap u = phi2 + int_0^t f(u) ds.

    Splitting: u1 carries (phi0, phi1), u2 carries phi2 plus the
    u-independent part of the source, and w is the fixed point of
    w -> E(f(u1 + u2 + w) - f(0)).
    """
    require_same_grid(phi0, phi1, phi2)
    times = cfg.times()
    grid = phi0.grid
    u1 = solve_homogeneous(m, phi0, phi1, times)

    zero = SpectralTrajectory(grid, times, np.zeros_like(u1.u))
    accum = cumulative_simpson(evaluate_forcing(f, zero).u, times)
    u2 = duhamel(m, SpectralTrajectory(grid, times, phi2.values + accum))
    background = SpectralTrajectory(grid, times, u1.u + u2.u, u1.dt + u2.dt)

    def step(w):
        return apply_E(m, evaluate_forcing(f, w, offset=background,
                                           subtract_at_zero=True))

    w, report = _picard(step, zero, cfg)
    return SpectralTrajectory(grid, times, background.u + w.u,
                              background.dt + w.dt), report


def solve_fourth_order(m1: int, m2: int, f: NonlinearitySpec,
                       psi0: Field, psi1: Field, psi2: Field, psi3: Field,
                       cfg: PicardConfig):
    """Solve the factored problem Q_{m1} Q_{m2} u = f(u).

    v1 is the homogeneous Q_{m1} flow of the data pair (psi2, psi3) seen by
    the outer factor; the iteration feeds v1 plus the Duhamel image of
    f(u) under Q_{m1} into an inhomogeneous Q_{m2} solve with (psi0, psi1).
    """
    if m1 == m2:
        raise ParameterError("the factored solver needs distinct orders m1 != m2")
    require_same_grid(psi0, psi1, psi2, psi3)
    times = cfg.times()
    v1 = solve_homogeneous(m1, psi2, psi3, times)

    def step(u):
        v2 = duhamel(m1, evaluate_forcing(f, u))
        return solve_inhomogeneous(
            m2, psi0, psi1, SpectralTrajectory(v1.grid, times, v1.u + v2.u))

    return _picard(step, SpectralTrajectory(v1.grid, times, np.zeros_like(v1.u)), cfg)


def require_converged(report: PicardReport) -> None:
    if not report.converged:
        raise ConvergenceError(
            f"Picard iteration did not converge in {report.iterations} steps "
            f"(last distance {report.iterate_distances[-1]:.3e}); "
            "shrink the horizon T and retry",
            report=report,
        )
