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

The data and the solution are real.  The data enter as physical Fields
(float64 samples), which each solver checks and transforms to their rfft
half spectra (linear_solver.half_data) before any table is built, and the
solver iterates on half spectra, as arrays: each order's propagator table
is gathered onto the half grid (Grid.half_xi_norm), and each nonlinearity
evaluation (evaluate_forcing) happens pointwise in one real physical
array, between half_inverse and half_forward, with 2/3 dealiasing on the
half grid before the result re-enters the mode-wise linear solve.  The
loop's arrays are allocated once per solve and the Duhamel and Simpson
steps write into them.  Iterates carry only u; d_t u is formed once, from
the flow and the last step's Duhamel integrals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ParameterError
from .linear_solver import (
    cumulative_simpson,
    duhamel,
    duhamel_dt,
    half_data,
    propagator_table,
    solve_homogeneous,
)
from .spectral import (
    Field,
    Grid,
    SpectralTrajectory,
    dealias,
    half_forward,
    half_inverse,
    sobolev_norm,
)


@dataclass(frozen=True)
class NonlinearitySpec:
    """Pointwise polynomial source term f(u) = sum c_k u^k.

    evaluate receives a whole trajectory of physical values u at once.
    """

    coefficients: tuple = ()

    def __post_init__(self):
        if not np.all(np.isfinite(self.coefficients)):
            raise ParameterError(
                f"nonlinearity coefficients must be finite, got {self.coefficients}")

    def evaluate(self, u, out=None):
        """sum c_k u^k, summed in increasing k, into out (which may be u
        itself) or a new array.  Only the terms below the top one take
        arrays of their own."""
        terms = [(k, c) for k, c in enumerate(self.coefficients) if c]
        if not terms:
            out = np.empty_like(u) if out is None else out
            out[...] = 0
            return out
        lower = sum(c * u**k for k, c in terms[:-1])
        k, c = terms[-1]
        out = np.power(u, k, out=out)
        out *= c
        if len(terms) > 1:
            out += lower
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

    def record(self, distance: float, wall: float) -> None:
        self.iterate_distances.append(distance)
        self.wall_times.append(wall)


def evaluate_forcing(f: NonlinearitySpec, half: np.ndarray, grid: Grid, out=None):
    """f(u), 2/3-dealiased, for the half spectrum half of a real u on grid
    (stacked over time or not).

    Returns the pair (g, phys), written into out when it is given: g
    receives the half spectrum of f(u) and is also the work array of
    half_inverse, phys is the real physical array in which f is evaluated.
    """
    g, phys = out or (np.empty(half.shape, dtype=complex),
                      np.empty(half.shape[:-1] + grid.sizes[-1:]))
    half_inverse(half, grid, phys, work=g)
    f.evaluate(phys, out=phys)
    dealias(half_forward(phys, grid, out=g), grid, out=g)
    return g, phys


def _half_arrays(grid, times, count: int) -> list:
    shape = (len(times),) + grid.half_sizes
    return [np.empty(shape, dtype=complex) for _ in range(count)]


def _add_duhamel(table, flow, g, times) -> None:
    """flow += D(g), both u and dt, in place; g is overwritten."""
    u, dt = flow
    d, i1, i2 = duhamel(table, g, times)
    u += d
    dt += duhamel_dt(table, i1, i2)


def _picard(grid, times, flow, kernel, table, f: NonlinearitySpec,
            cfg: PicardConfig):
    """Iterate u <- flow + kernel(f(u)) from u = flow until the monitored
    distance between successive iterates drops below tol.

    Everything runs on half spectra.  flow is the pair (u, dt) of the
    flow's; kernel(g, spare, i1, i2) overwrites g and spare, leaves K(g) in
    one of them, which it returns, and the integrals of its last Duhamel
    map, whose table is table, in i1 and i2.  The iterates carry only u:
    dt is formed once, from flow's dt and the last step's integrals.
    """
    report = PicardReport()
    flow_u, flow_dt = flow
    u = flow_u.copy()
    g, spare, i1, i2 = _half_arrays(grid, times, 4)
    phys = np.empty((len(times),) + grid.sizes)
    for _ in range(cfg.max_iters):
        t0 = time.perf_counter()
        evaluate_forcing(f, u, grid, out=(g, phys))
        u_next = kernel(g, spare, i1, i2)
        u_next += flow_u
        u -= u_next  # the step, in the old iterate's array
        dist = float(np.max(sobolev_norm(u, grid, cfg.s_mon)))
        report.record(dist, time.perf_counter() - t0)
        g, spare = (u, spare) if u_next is g else (g, u)
        u = u_next
        if dist <= cfg.tol:
            report.converged = True
            break
    dt = duhamel_dt(table, i1, i2)
    dt += flow_dt
    return SpectralTrajectory(grid, times, u, dt), report


def solve_second_order(m: int, f: NonlinearitySpec, phi0: Field, phi1: Field,
                       cfg: PicardConfig):
    """Fixed point of u -> V(phi0, phi1) + D_m(f(u))."""
    grid, (h0, h1) = half_data(phi0=phi0, phi1=phi1)
    times = cfg.times()
    table = propagator_table(m, times, grid.half_xi_norm())
    flow = solve_homogeneous(table, h0, h1, times)

    def kernel(g, spare, i1, i2):
        return duhamel(table, g, times, out=(spare, i1, i2))[0]

    return _picard(grid, times, flow, kernel, table, f, cfg)


def solve_third_order(m: int, f: NonlinearitySpec, phi0: Field, phi1: Field,
                      phi2: Field, cfg: PicardConfig):
    """Fixed point of u -> V(phi0, phi1) + D_m(phi2 + int_0^t f(u) ds)."""
    grid, (h0, h1, h2) = half_data(phi0=phi0, phi1=phi1, phi2=phi2)
    times = cfg.times()
    table = propagator_table(m, times, grid.half_xi_norm())
    flow = solve_homogeneous(table, h0, h1, times)
    data = np.broadcast_to(h2, (len(times),) + grid.half_sizes)
    _add_duhamel(table, flow, data.copy(), times)

    def kernel(g, spare, i1, i2):
        cumulative_simpson(g, times, out=spare)
        return duhamel(table, spare, times, out=(g, i1, i2))[0]

    return _picard(grid, times, flow, kernel, table, f, cfg)


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
    grid, (h0, h1, h2, h3) = half_data(psi0=psi0, psi1=psi1, psi2=psi2, psi3=psi3)
    times = cfg.times()
    table1 = propagator_table(m1, times, grid.half_xi_norm())
    table2 = propagator_table(m2, times, grid.half_xi_norm())
    flow = solve_homogeneous(table2, h0, h1, times)
    inner = solve_homogeneous(table1, h2, h3, times)[0]
    _add_duhamel(table2, flow, inner, times)
    del inner

    def kernel(g, spare, i1, i2):
        duhamel(table1, g, times, out=(spare, i1, i2))
        return duhamel(table2, spare, times, out=(g, i1, i2))[0]

    return _picard(grid, times, flow, kernel, table2, f, cfg)


def require_converged(report: PicardReport) -> None:
    if not report.converged:
        raise ConvergenceError(
            f"Picard iteration did not converge in {report.iterations} steps "
            f"(last distance {report.iterate_distances[-1]:.3e}); "
            "shrink the horizon T and retry",
            report=report,
        )
