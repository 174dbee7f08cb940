"""Picard solvers checked against independent RK4 oracles on the per-mode
first-order systems (which never touch the Duhamel machinery)."""

import tracemalloc

import numpy as np
import pytest

from cuspwave.errors import ConvergenceError, ParameterError
from cuspwave.initial_data import make_a2, parse_data_spec
from cuspwave.semilinear import (
    NonlinearitySpec,
    PicardConfig,
    PicardReport,
    evaluate_forcing,
    require_converged,
    solve_fourth_order,
    solve_second_order,
    solve_third_order,
)
from cuspwave.linear_solver import (
    cumulative_simpson,
    duhamel,
    propagator_table,
    solve_homogeneous,
)
from cuspwave.spectral import (
    Field,
    Grid,
    half_forward,
    hermitian_completion,
    sobolev_norm,
)

from oracles import (
    contraction_ratio,
    dft_forward,
    dft_inverse,
    negated,
    physical,
    real_mode,
    snapshot,
    xi_norm,
    zero_field,
)


def gaussian_field(grid, amp=1.0, width=0.5):
    (x,) = grid.coords()
    return Field(grid, amp * np.exp(-((x / width) ** 2)))


def table(m, grid, times):
    return propagator_table(m, times, grid.half_xi_norm())


def flow(m, grid, times, phi1, phi2):
    """u of the linear flow of the physical data (phi1, phi2)."""
    return solve_homogeneous(table(m, grid, times), half_forward(phi1.values, grid),
                             half_forward(phi2.values, grid), times)[0]


def response(m, grid, times, g):
    """Zero-data solution of (d_t^2 - t^m Lap) v = g, for half spectra g."""
    return duhamel(table(m, grid, times), g.copy(), times)[0]


def integrated_duhamel(m, grid, times, g):
    """Zero-data solution of d_t (d_t^2 - t^m Lap) v = g."""
    return response(m, grid, times, cumulative_simpson(g, times))


def completed(grid, half):
    return hermitian_completion(half, grid)


def rk4_system(rhs, y0, t_end, n_steps):
    y = [v.astype(complex).copy() for v in y0]
    h = t_end / n_steps
    t = 0.0
    for _ in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, [a + h / 2 * b for a, b in zip(y, k1)])
        k3 = rhs(t + h / 2, [a + h / 2 * b for a, b in zip(y, k2)])
        k4 = rhs(t + h, [a + h * b for a, b in zip(y, k3)])
        y = [a + h / 6 * (b + 2 * c + 2 * d + e)
             for a, b, c, d, e in zip(y, k1, k2, k3, k4)]
        t += h
    return y


def test_zero_nonlinearity_is_linear_flow():
    g = Grid(1, (64,), 4.0)
    cfg = PicardConfig(T=0.5, n_t=17)
    f = NonlinearitySpec((0.0,))
    tr, rep = solve_second_order(1, f, gaussian_field(g), zero_field(g), cfg)
    assert rep.converged and rep.iterations == 1
    assert rep.iterate_distances == [0.0]
    times = cfg.times()
    hom = flow(1, g, times, gaussian_field(g), zero_field(g))
    # columns 1..N/2-1 are the flow's bit for bit, columns 0 and N/2 its
    # exactly real part
    assert np.array_equal(tr.u[:, 1:32], hom[:, 1:32])
    assert np.array_equal(tr.u[:, [0, 32]], hom[:, [0, 32]].real)


def test_constant_source_zero_mode():
    g = Grid(1, (16,), 2.0)
    cfg = PicardConfig(T=1.0, n_t=33)
    c = 0.75
    f = NonlinearitySpec((c,))
    tr, rep = solve_second_order(1, f, zero_field(g), zero_field(g), cfg)
    require_converged(rep)
    # physical constant c transforms to a pure zero mode; u_hat(0) = c_hat t^2/2
    c_hat = np.sqrt(16) * c  # orthonormal DFT of a constant
    assert tr.u[-1][0] == pytest.approx(c_hat / 2, rel=1e-10)


def test_second_order_matches_rk4():
    # f(u) = -u keeps the problem linear per mode, so an independent RK4
    # integration of u'' = -(t^m rho^2 + 1) u is an exact oracle
    g = Grid(1, (64,), 4.0)
    cfg = PicardConfig(T=0.5, n_t=129, tol=1e-12)
    f = NonlinearitySpec((0.0, -1.0))
    phi0 = gaussian_field(g)
    tr, rep = solve_second_order(1, f, phi0, zero_field(g), cfg)
    require_converged(rep)

    rho2 = xi_norm(g) ** 2

    def rhs(t, y):
        u, v = y
        return [v, -(t * rho2 + 1.0) * u]

    u_ref, _ = rk4_system(rhs, [dft_forward(phi0.values, g), np.zeros(64, dtype=complex)],
                          0.5, 4000)
    err = np.linalg.norm(completed(g, tr.u[-1]) - u_ref) / np.linalg.norm(u_ref)
    assert err < 1e-5


def test_third_order_kernel_cubic():
    g = Grid(1, (16,), 2.0)
    times = np.linspace(0, 1, 33)
    vals = np.zeros(9, dtype=complex)
    vals[0] = 6.0
    out = integrated_duhamel(1, g, times, np.tile(vals, (33, 1)))
    # zero mode: d_t^3 u = 6 with zero data gives t^3, Simpson-exact
    for i, t in enumerate(times):
        assert out[i][0] == pytest.approx(t**3, abs=1e-12)


def test_third_order_kernel_single_mode_oracle():
    g = Grid(1, (32,), 4.0)
    times = np.linspace(0, 0.8, 161)
    mode = real_mode(g, 4)
    out = integrated_duhamel(1, g, times,
                             np.tile(mode.values[:17], (len(times), 1)))

    rho2 = xi_norm(g) ** 2

    def rhs(t, y):
        u, v, w = y  # w = u_tt + t^m rho^2 u; w' = g
        return [v, w - t * rho2 * u, mode.values]

    z = np.zeros(32, dtype=complex)
    u_ref, _, _ = rk4_system(rhs, [z, z, z], 0.8, 4000)
    err = abs(completed(g, out[-1])[4] - u_ref[4]) / abs(u_ref[4])
    assert err < 1e-5


def test_third_order_polynomial_exact():
    g = Grid(1, (16,), 2.0)
    cfg = PicardConfig(T=1.0, n_t=33)
    f = NonlinearitySpec((6.0,))
    tr, rep = solve_third_order(1, f, zero_field(g), zero_field(g), zero_field(g), cfg)
    require_converged(rep)
    # from u = flow = 0 the first step reaches t^3 and the second confirms it
    assert rep.iterations == 2
    # f identically 6 gives u(t, x) = t^3; check at the final time t=1
    u_phys = dft_inverse(snapshot(tr, cfg.T), g).real
    assert np.max(np.abs(u_phys - 1.0)) < 1e-9


def test_iteration_starts_at_the_flow():
    # the iteration starts at u = flow, so f(0) != 0 costs one step to
    # reach the lift of f(0), and f(0) = 0 spends none on the flow itself
    g = Grid(1, (16,), 2.0)
    cfg = PicardConfig(T=1.0, n_t=33, tol=1e-12)
    z = zero_field(g)
    _, rep = solve_third_order(1, NonlinearitySpec((1.0, 1.0)), z, z, z, cfg)
    require_converged(rep)
    assert rep.iterations == 6
    psi0 = gaussian_field(g, amp=0.5)
    _, rep = solve_fourth_order(2, 1, NonlinearitySpec((0.0, 0.0, 1.0)),
                                psi0, z, z, z, cfg)
    require_converged(rep)
    assert rep.iterations == 4
    assert rep.iterate_distances[0] < 1e-2


def test_third_order_linear_reduction():
    g = Grid(1, (16,), 2.0)
    cfg = PicardConfig(T=1.0, n_t=33)
    f = NonlinearitySpec((0.0,))
    vals = np.zeros(9, dtype=complex)
    vals[0] = 1.5
    phi2 = physical(vals, g)
    phi0 = physical(2.0 * vals, g)
    phi1 = physical(-1.0 * vals, g)
    tr, _ = solve_third_order(2, f, phi0, phi1, phi2, cfg)
    t = 1.0
    expected = 3.0 + (-1.5) * t + 1.5 * t * t / 2
    assert tr.u[-1][0] == pytest.approx(expected, abs=1e-10)


def test_third_order_quadratic_matches_rk4():
    g = Grid(1, (64,), 4.0)
    cfg = PicardConfig(T=0.4, n_t=129, tol=1e-12)
    f = NonlinearitySpec((0.0, 0.0, 1.0))
    phi0 = gaussian_field(g, amp=0.2)
    tr, rep = solve_third_order(1, f, phi0, zero_field(g), zero_field(g), cfg)
    require_converged(rep)

    rho2 = xi_norm(g) ** 2
    n = 64

    def rhs(t, y):
        u, v, w = y
        u_phys = np.fft.ifft(u, norm="ortho")
        f_hat = np.fft.fft(u_phys**2, norm="ortho")
        return [v, w - t * rho2 * u, f_hat]

    z = np.zeros(n, dtype=complex)
    u_ref, _, _ = rk4_system(rhs, [dft_forward(phi0.values, g), z, z], 0.4, 2000)
    err = np.linalg.norm(completed(g, tr.u[-1]) - u_ref) / np.linalg.norm(u_ref)
    assert err < 1e-4


def test_fourth_order_polynomial_exact():
    g = Grid(1, (16,), 2.0)
    cfg = PicardConfig(T=1.0, n_t=33)
    f = NonlinearitySpec((24.0,))
    z = zero_field(g)
    tr, rep = solve_fourth_order(2, 1, f, z, z, z, z, cfg)
    require_converged(rep)
    u_phys = dft_inverse(snapshot(tr, cfg.T), g).real
    assert np.max(np.abs(u_phys - 1.0)) < 1e-8


def test_fourth_order_zero_f_reduces():
    g = Grid(1, (32,), 4.0)
    cfg = PicardConfig(T=0.5, n_t=17)
    f = NonlinearitySpec((0.0,))
    psi0, psi1 = gaussian_field(g), gaussian_field(g, 0.5, 0.3)
    z = zero_field(g)
    tr, _ = solve_fourth_order(2, 1, f, psi0, psi1, z, z, cfg)
    times = cfg.times()
    hom = flow(1, g, times, psi0, psi1)
    err = np.linalg.norm(completed(g, tr.u[-1]) - completed(g, hom[-1]))
    assert err < 1e-9


def test_fourth_order_matches_rk4():
    g = Grid(1, (32,), 4.0)
    cfg = PicardConfig(T=0.5, n_t=129, tol=1e-12)
    f = NonlinearitySpec((0.0, 1.0))
    mode = real_mode(g, 3)
    z = zero_field(g)
    tr, rep = solve_fourth_order(2, 1, f, physical(mode.values, g), z, z, z, cfg)
    require_converged(rep)

    rho2 = xi_norm(g) ** 2

    def rhs(t, y):
        # q = Q_{m2} u; then Q_{m1} q = f(u) = u
        u, v, q, qd = y
        return [v, q - t**1 * rho2 * u, qd, u - t**2 * rho2 * q]

    zv = np.zeros(32, dtype=complex)
    u_ref = rk4_system(rhs, [mode.values, zv, zv, zv], 0.5, 4000)[0]
    err = np.linalg.norm(completed(g, tr.u[-1]) - u_ref) / np.linalg.norm(u_ref)
    assert err < 1e-4


def test_fourth_order_rejects_equal_orders():
    g = Grid(1, (16,), 2.0)
    z = zero_field(g)
    with pytest.raises(ParameterError):
        solve_fourth_order(1, 1, NonlinearitySpec((1.0,)),
                           z, z, z, z, PicardConfig())


def test_fixed_point_residual():
    # re-applying each order's map u -> flow + K(f(u)) moves the converged
    # iterate by at most 2 tol
    g = Grid(1, (64,), 4.0)
    cfg = PicardConfig(T=0.4, n_t=65, tol=1e-11)
    times = cfg.times()
    f = NonlinearitySpec((0.0, 0.0, 0.5))
    phi0, z = gaussian_field(g, amp=0.3), zero_field(g)
    phi2 = gaussian_field(g, amp=0.2, width=0.3)

    def residual(tr, again):
        return np.max(sobolev_norm(again - tr.u, g, 0.0))

    def forcing(tr):
        return evaluate_forcing(f, tr.u, g)[0]

    tr, rep = solve_second_order(1, f, phi0, z, cfg)
    require_converged(rep)
    again = flow(1, g, times, phi0, z) + response(1, g, times, forcing(tr))
    assert residual(tr, again) <= 2 * cfg.tol

    tr, rep = solve_third_order(1, f, phi0, z, phi2, cfg)
    require_converged(rep)
    data = np.tile(half_forward(phi2.values, g), (len(times), 1))
    again = (flow(1, g, times, phi0, z) + response(1, g, times, data)
             + integrated_duhamel(1, g, times, forcing(tr)))
    assert residual(tr, again) <= 2 * cfg.tol

    tr, rep = solve_fourth_order(2, 1, f, phi0, z, phi2, z, cfg)
    require_converged(rep)
    again = (flow(1, g, times, phi0, z)
             + response(1, g, times, flow(2, g, times, phi2, z))
             + response(1, g, times, response(2, g, times, forcing(tr))))
    assert residual(tr, again) <= 2 * cfg.tol


def test_time_refinement_order():
    g = Grid(1, (32,), 4.0)
    f = NonlinearitySpec((0.0, 0.0, 1.0))
    phi0 = gaussian_field(g, amp=0.3)
    finals = []
    for n_t in (17, 33, 65):
        cfg = PicardConfig(T=0.5, n_t=n_t, tol=1e-13)
        tr, rep = solve_second_order(1, f, phi0, zero_field(g), cfg)
        require_converged(rep)
        finals.append(completed(g, tr.u[-1]))
    d1 = np.linalg.norm(finals[1] - finals[0])
    d2 = np.linalg.norm(finals[2] - finals[1])
    assert np.log2(d1 / d2) >= 3.5


def test_nonconvergence_reported_honestly():
    g = Grid(1, (32,), 4.0)
    cfg = PicardConfig(T=1.0, n_t=33, max_iters=5)
    f = NonlinearitySpec((0.0, 0.0, 0.0, 8.0))
    phi0 = gaussian_field(g, amp=3.0)
    tr, rep = solve_second_order(1, f, phi0, zero_field(g), cfg)
    assert not rep.converged
    with pytest.raises(ConvergenceError) as ei:
        require_converged(rep)
    assert ei.value.report is rep


def test_config_validation():
    with pytest.raises(ParameterError):
        PicardConfig(T=-1.0)
    with pytest.raises(ParameterError):
        PicardConfig(n_t=8)
    with pytest.raises(ParameterError):
        PicardConfig(n_t=7)
    with pytest.raises(ParameterError):
        PicardConfig(tol=0.0)
    with pytest.raises(ParameterError):
        PicardConfig(max_iters=0)
    for bad in ({"T": np.inf}, {"tol": np.inf}, {"s_mon": np.nan},
                {"s_mon": -np.inf}):
        with pytest.raises(ParameterError):
            PicardConfig(**bad)
    for coefficients in ((0.0, 0.0, np.nan), (np.inf,)):
        with pytest.raises(ParameterError):
            NonlinearitySpec(coefficients)


def test_report_derives_iterations_and_ratio():
    rep = PicardReport()
    rep.record(1.0, 0.1)
    rep.record(0.1, 0.1)
    # the first ratio d_1 / d_0 does not count
    assert rep.iterations == 2 and np.isnan(contraction_ratio(rep))
    rep.record(0.02, 0.1)
    assert rep.iterations == 3
    assert contraction_ratio(rep) == pytest.approx(0.2)
    rep.record(0.0, 0.1)
    rep.record(0.5, 0.1)  # after a zero distance there is no ratio
    assert contraction_ratio(rep) == pytest.approx(0.2)


def _a2_solve(order, grid, max_iters):
    """One solve of each order on A2 data (angular modes 1 and 3) with
    f = u^2/2: the data in every first slot, zero elsewhere."""
    spec = parse_data_spec("family = A2\nangular = 1:1:0, 3:0.5:0\n")
    phi, z = make_a2(spec, grid), zero_field(grid)
    f = NonlinearitySpec((0.0, 0.0, 0.5))
    cfg = PicardConfig(T=1.0, n_t=33, max_iters=max_iters)
    return {"second": lambda: solve_second_order(1, f, phi, z, cfg),
            "third": lambda: solve_third_order(1, f, phi, z, z, cfg),
            "fourth": lambda: solve_fourth_order(2, 1, f, phi, z, z, z, cfg)}[order]


# the peak per byte of the full spectra of the returned u, n_t * 64^2 * 16
# (the denominator these bounds were set against), with the margin of each
# bound: the half-grid tables (4 real arrays per order, about 1/2 each),
# the flow's u and dt, the iterate, the forcing, a spare and the two
# Duhamel integrals (1/2 each) and one real physical array.  Before the
# solvers returned half spectra the peaks were 5.66, 5.64 and 6.68.
_SOLVE_PEAKS = {"second": (5.44, 1.06), "third": (5.44, 1.06),
                "fourth": (6.47, 1.53)}


@pytest.mark.parametrize("order", sorted(_SOLVE_PEAKS))
def test_solve_memory_is_bounded(order):
    g = Grid(2, (64, 64), np.pi)
    solve = _a2_solve(order, g, 4)
    g.half_xi_norm()  # warm the grid cache
    tracemalloc.start()
    try:
        tr, rep = solve()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.iterations >= 3
    measured, margin = _SOLVE_PEAKS[order]
    assert peak / (len(tr.times) * 64 * 64 * 16) <= measured + margin


_REAL_SIZES = {1: (16,), 2: (16, 8), 3: (8, 8, 8)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_real_data_in_exactly_real_solutions_out(n, monkeypatch):
    import cuspwave.semilinear as semilinear

    g = Grid(n, _REAL_SIZES[n], 2.0)
    rng = np.random.default_rng(n)
    data = [Field(g, 0.3 * rng.standard_normal(g.sizes)) for _ in range(4)]
    f = NonlinearitySpec((0.0, 0.0, 0.5))
    cfg = PicardConfig(T=0.3, n_t=17)
    solves = {"second": (lambda *d: solve_second_order(1, f, *d, cfg),
                         ("phi0", "phi1")),
              "third": (lambda *d: solve_third_order(1, f, *d, cfg),
                        ("phi0", "phi1", "phi2")),
              "fourth": (lambda *d: solve_fourth_order(2, 1, f, *d, cfg),
                         ("psi0", "psi1", "psi2", "psi3"))}
    edges = (slice(None),) * n + (slice(None, None, g.sizes[-1] // 2),)
    for solve, names in solves.values():
        tr, rep = solve(*data[:len(names)])
        require_converged(rep)
        # the half spectra's edge columns 0 and N/2, which have no twin in
        # the half, are exactly Hermitian in the other axes
        for a in (tr.u, tr.dt):
            e = a[edges]
            assert np.array_equal(e, np.conj(negated(e, g.axes[:-1])))
    # data that are not one level of physical samples (a full spectrum, a
    # half spectrum array, a stack of two levels) are rejected, by name,
    # before the propagator table is built
    monkeypatch.setattr(semilinear, "propagator_table",
                        lambda *args: pytest.fail("table built for bad data"))
    for solve, names in solves.values():
        for i, name in enumerate(names):
            for wrong in (Field(g, dft_forward(data[i].values, g), "spectral"),
                          half_forward(data[i].values, g),
                          Field(g, np.stack([data[i].values] * 2))):
                bad = list(data[:len(names)])
                bad[i] = wrong
                with pytest.raises(ParameterError,
                                   match="^%s: expected the samples of a real field"
                                   % name):
                    solve(*bad)
