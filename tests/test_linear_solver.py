"""Linear Cauchy solver checked against the independent RK4 oracle and the
closed-form small-time rates of the fundamental pair."""

import numpy as np
import pytest
from cuspwave.errors import GridMismatchError, ParameterError, QuadratureError
from cuspwave.linear_solver import (
    cumulative_simpson,
    duhamel,
    export_trajectory,
    propagator_table,
    solve_homogeneous,
)
from cuspwave.propagator import sample_arrays
from cuspwave.spectral import Field, Grid, SpectralTrajectory, dft_forward

from oracles import rk4_oracle


def gaussian_field(grid, width=0.5):
    (x,) = grid.coords()
    return dft_forward(Field(grid, np.exp(-((x / width) ** 2))))


def zero_field(grid):
    return Field(grid, np.zeros(grid.sizes, dtype=complex), "spectral")


def relative_l2_distance(a, b, t):
    fa, fb = a.snapshot_at(t).values, b.snapshot_at(t).values
    return np.linalg.norm(fa - fb) / np.linalg.norm(fb)


def table(m, grid, times):
    return propagator_table(m, times, grid.xi_norm())


def homogeneous(m, phi1, phi2, times):
    return solve_homogeneous(table(m, phi1.grid, times), phi1, phi2, times)


def zero_data_response(m, forcing):
    return duhamel(table(m, forcing.grid, forcing.times), forcing)


def constant_forcing(grid, times, value=1.0):
    vals = np.zeros((len(times),) + grid.sizes, dtype=complex)
    vals[(slice(None),) + (0,) * grid.n] = value
    return SpectralTrajectory(grid, times, vals)


def test_homogeneous_zero_mode():
    g = Grid(1, (16,), 2.0)
    times = np.linspace(0, 1, 5)
    phi1 = zero_field(g)
    vals = np.zeros(16, dtype=complex)
    vals[0] = 2.0
    phi2 = Field(g, vals, "spectral")
    tr = homogeneous(1, phi1, phi2, times)
    # V2(t, 0) = t so the zero mode is 2t
    for i, t in enumerate(times):
        assert tr.u[i][0] == pytest.approx(2.0 * t)
        assert tr.dt[i][0] == pytest.approx(2.0)
    tr2 = homogeneous(1, phi2, phi1, times)
    for i in range(len(times)):
        assert tr2.u[i][0] == pytest.approx(2.0)


def test_data_reproduced_at_zero():
    g = Grid(1, (64,), 4.0)
    phi1 = gaussian_field(g)
    phi2 = gaussian_field(g, 0.3)
    tr = homogeneous(2, phi1, phi2, np.linspace(0, 1, 9))
    assert np.array_equal(tr.u[0], phi1.values)
    assert np.array_equal(tr.dt[0], phi2.values)


def test_duhamel_zero_mode_quadratic():
    g = Grid(1, (16,), 2.0)
    times = np.linspace(0, 1, 33)
    tr = zero_data_response(1, constant_forcing(g, times))
    # at xi = 0 the response to F=1 is t^2/2, and Simpson is exact on it
    for i, t in enumerate(times):
        assert tr.u[i][0] == pytest.approx(t * t / 2, abs=1e-12)
        assert tr.dt[i][0] == pytest.approx(t, abs=1e-12)


def test_duhamel_zero_forcing():
    g = Grid(1, (16,), 2.0)
    times = np.linspace(0, 1, 9)
    z = np.zeros((9, 16), dtype=complex)
    tr = zero_data_response(2, SpectralTrajectory(g, times, z))
    for s in tr.u:
        assert np.all(s == 0)


def test_duhamel_needs_three_points():
    g = Grid(1, (16,), 2.0)
    z = np.zeros((2, 16), dtype=complex)
    with pytest.raises(QuadratureError):
        zero_data_response(1, SpectralTrajectory(g, [0.0, 1.0], z))


@pytest.mark.parametrize("m", [1, 2])
def test_homogeneous_matches_rk4(m):
    g = Grid(1, (128,), 4.0)
    phi1 = gaussian_field(g)
    phi2 = gaussian_field(g, 0.7)
    times = np.linspace(0, 1, 65)
    spec_tr = homogeneous(m, phi1, phi2, times)
    rk_tr = rk4_oracle(m, phi1, phi2, None, times)
    assert relative_l2_distance(spec_tr, rk_tr, 1.0) < 1e-6
    assert relative_l2_distance(spec_tr, rk_tr, 0.5) < 1e-6


def test_single_mode_forcing_matches_rk4():
    g = Grid(1, (64,), 4.0)
    times = np.linspace(0, 1, 257)
    vals = np.zeros(64, dtype=complex)
    vals[5] = 1.0
    forcing = SpectralTrajectory(g, times, np.tile(vals, (len(times), 1)))
    spec_tr = zero_data_response(1, forcing)
    rk_tr = rk4_oracle(1, zero_field(g), zero_field(g), forcing, times)
    assert relative_l2_distance(spec_tr, rk_tr, 1.0) < 1e-6


def test_inhomogeneous_superposition():
    g = Grid(1, (64,), 4.0)
    times = np.linspace(0, 1, 33)
    phi1, phi2 = gaussian_field(g), gaussian_field(g, 0.3)
    forcing = constant_forcing(g, times)
    hom = homogeneous(2, phi1, phi2, times)
    par = zero_data_response(2, forcing)
    full = SpectralTrajectory(g, times, hom.u + par.u)
    rk = rk4_oracle(2, phi1, phi2, forcing, times)
    assert relative_l2_distance(full, rk, 1.0) < 1e-6


def test_rk4_convergence_order():
    g = Grid(1, (8,), 2.0)
    vals = np.zeros(8, dtype=complex)
    vals[3] = 1.0
    phi1 = Field(g, vals, "spectral")
    times = np.array([0.0, 1.0])
    errs = []
    ref = rk4_oracle(1, phi1, zero_field(g), None, times, substeps=4096)
    for n in (64, 128, 256):
        tr = rk4_oracle(1, phi1, zero_field(g), None, times, substeps=n)
        errs.append(abs(tr.u[-1][3] - ref.u[-1][3]))
    order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert order[0] == pytest.approx(4.0, abs=0.2)
    assert order[1] == pytest.approx(4.0, abs=0.2)


def test_rk4_requires_uniform_times():
    g = Grid(1, (8,), 2.0)
    z = zero_field(g)
    with pytest.raises(ParameterError):
        rk4_oracle(1, z, z, None, np.array([0.0, 0.1, 0.5]))


@pytest.mark.parametrize("m,s1", [
    (1, 1.0 / 6.0), (1, 1.0 / 12.0), (2, 1.0 / 4.0), (2, 1.0 / 8.0),
])
def test_small_time_derivative_loss_rate(m, s1):
    # sup over rho of (1+rho^2)^(s1/2) |V1(t, rho)| behaves like
    # t^(-s1(m+2)/2); the sup concentrates at rho ~ t^(-(m+2)/2)
    ts = np.geomspace(1e-3, 1e-1, 25)
    ratios = []
    for t in ts:
        rho = np.geomspace(1e-1, 10.0, 400) * t ** (-(m + 2) / 2)
        v1, _, _, _ = sample_arrays(m, np.full_like(rho, t), rho)
        ratios.append(np.max((1 + rho**2) ** (s1 / 2) * np.abs(v1)))
    slope = np.polyfit(np.log(ts), np.log(ratios), 1)[0]
    expected = -s1 * (m + 2) / 2
    assert slope == pytest.approx(expected, rel=0.10)


@pytest.mark.parametrize("m", [1, 2])
def test_zero_data_gain_rate(m):
    # response to forcing that is marginally H^s gains p3 = 1/(m+2)
    # derivatives at the cost of the factor t^(2 - p3(m+2)/2) = t^(3/2)
    p3 = 1.0 / (m + 2)
    s = 0.0
    rho_max = 1e5
    rho = np.geomspace(1.0, rho_max, 1400)
    f_hat = (1.0 + rho**2) ** (-(2 * s + 1.02) / 4)
    # start where the turning-point frequency t^(-(m+2)/2) sits inside the
    # resolved band, otherwise the low-frequency t^2 behavior dominates
    t_lo = (0.1 * rho_max) ** (-2.0 / (m + 2))
    ts = np.geomspace(t_lo, 10 * t_lo, 12)
    norms = []
    for t in ts:
        tau = np.linspace(0.0, t, 257)
        v1, v2, _, _ = sample_arrays(m, tau[:, None], rho[None, :])
        i1 = cumulative_simpson(v1, tau)[-1]
        i2 = cumulative_simpson(v2, tau)[-1]
        u_hat = (v2[-1] * i1 - v1[-1] * i2) * f_hat
        w = (1 + rho**2) ** (s + p3)
        norms.append(np.sqrt(np.trapezoid(w * np.abs(u_hat) ** 2, rho)))
    slope = np.polyfit(np.log(ts), np.log(norms), 1)[0]
    expected = 2.0 - p3 * (m + 2) / 2
    assert slope == pytest.approx(expected, rel=0.15)


def test_propagator_table_once_per_solve(monkeypatch):
    import cuspwave.linear_solver as linear_solver
    from cuspwave.semilinear import (
        NonlinearitySpec,
        PicardConfig,
        solve_fourth_order,
        solve_second_order,
        solve_third_order,
    )

    calls = []

    def counting(*args):
        calls.append(args[0])
        return sample_arrays(*args)

    monkeypatch.setattr(linear_solver, "sample_arrays", counting)
    g = Grid(1, (32,), 4.0)
    cfg = PicardConfig(T=0.4, n_t=17)
    f = NonlinearitySpec((0.0, 0.0, 0.5))
    phi, z = gaussian_field(g), zero_field(g)
    for solve, data, orders in ((solve_second_order, (1, f, phi, z), [1]),
                                (solve_third_order, (1, f, phi, z, z), [1]),
                                (solve_fourth_order, (2, 1, f, phi, z, z, z), [2, 1])):
        calls.clear()
        _, rep = solve(*data, cfg)
        assert rep.iterations > 1
        assert sorted(calls) == sorted(orders)
    # evaluated once per radial shell |xi| and gathered back onto the grid
    times = np.linspace(0, 1, 9)
    g2 = Grid(2, (16, 8), 2.0)
    tab = propagator_table(2, times, g2.xi_norm())
    direct = sample_arrays(2, times[:, None, None], g2.xi_norm()[None])
    for got, ref in zip(tab, direct):
        assert got.shape == (9, 16, 8)
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=1e-14)



def test_propagator_table_is_c_contiguous():
    # the products of the solves and the sums of the norms run in memory order
    times = np.linspace(0, 1, 9)
    for g in (Grid(1, (16,), 2.0), Grid(2, (16, 8), 2.0)):
        for a in propagator_table(1, times, g.xi_norm()):
            assert a.flags.c_contiguous, a.strides

def test_table_of_wrong_shape_is_rejected():
    g = Grid(1, (16,), 2.0)
    times = np.linspace(0, 1, 9)
    phi = gaussian_field(g)
    forcing = constant_forcing(g, times)
    for bad in (table(1, Grid(1, (32,), 2.0), times),
                table(1, g, np.linspace(0, 1, 17))):
        with pytest.raises(GridMismatchError):
            solve_homogeneous(bad, phi, phi, times)
        with pytest.raises(GridMismatchError):
            duhamel(bad, forcing)


def test_export_trajectory(tmp_path):
    g = Grid(1, (16,), 2.0)
    times = np.linspace(0, 1, 5)
    tr = homogeneous(1, gaussian_field(g), zero_field(g), times)
    manifest = export_trajectory(tmp_path / "run", tr, s_list=(0.0, 1.0))
    rows = open(manifest).read().strip().splitlines()
    assert rows[0] == "time,file,h0.0,h1.0"
    assert len(rows) == 6
    from cuspwave.spectral import load_field
    f0 = load_field(tmp_path / "run" / "snapshot_00000.cwgrid", "spectral")
    assert np.array_equal(f0.values, tr.u[0])


def test_cumulative_simpson_matches_scipy():
    from scipy.integrate import cumulative_simpson as scipy_cumulative_simpson

    rng = np.random.default_rng(3)
    times = np.linspace(0.0, 1.7, 33)
    y = rng.standard_normal((33, 5, 4)) + 1j * rng.standard_normal((33, 5, 4))
    ours = cumulative_simpson(y, times)
    ref = (scipy_cumulative_simpson(y.real, x=times, axis=0, initial=0.0)
           + 1j * scipy_cumulative_simpson(y.imag, x=times, axis=0, initial=0.0))
    assert ours.shape == y.shape
    assert np.max(np.abs(ours - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_cumulative_simpson_rejects_bad_grids():
    y = np.ones(9)
    with pytest.raises(QuadratureError):
        cumulative_simpson(y, np.array([0.0, 0.1, 0.2, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9]))
    with pytest.raises(QuadratureError):
        cumulative_simpson(y[:8], np.linspace(0.0, 1.0, 8))
