"""Linear Cauchy solver checked against the independent RK4 oracle and the
closed-form small-time rates of the fundamental pair."""

import numpy as np
import pytest
from cuspwave.errors import GridMismatchError, ParameterError, QuadratureError
from cuspwave.linear_solver import (
    cumulative_simpson,
    duhamel,
    duhamel_dt,
    export_trajectory,
    load_trajectory,
    propagator_table,
    solve_homogeneous,
    solve_linear,
)
from cuspwave.propagator import sample_arrays
from cuspwave.spectral import (
    Field,
    Grid,
    half_forward,
    hermitian_completion,
    load_field,
)

from oracles import (
    negated,
    physical,
    real_mode,
    rk4_oracle,
    write_full_spectra,
    xi_norm,
    zero_field,
)


def gaussian_field(grid, width=0.5):
    (x,) = grid.coords()
    return Field(grid, np.exp(-((x / width) ** 2)))


def relative_l2_distance(grid, a, b, i):
    """|a[i] - b[i]| / |b[i]| of the half spectra a of a real solution,
    completed exactly, against the full spectra b."""
    fa = hermitian_completion(a[i], grid)
    return np.linalg.norm(fa - b[i]) / np.linalg.norm(b[i])


def table(m, grid, times):
    return propagator_table(m, times, grid.half_xi_norm())


def zero_data_response(m, grid, times, forcing):
    """(u, d_t u) of the Duhamel response to the half spectra forcing."""
    tab = table(m, grid, times)
    u, i1, i2 = duhamel(tab, forcing.copy(), times)
    return u, duhamel_dt(tab, i1, i2)


def constant_forcing(grid, times, value=1.0):
    """The full spectra of the forcing F = value."""
    vals = np.zeros((len(times),) + grid.sizes, dtype=complex)
    vals[(slice(None),) + (0,) * grid.n] = value
    return vals


def half(full, grid):
    return full[..., : grid.half_sizes[-1]]


def test_homogeneous_zero_mode():
    g = Grid(1, (16,), 2.0)
    times = np.linspace(0, 1, 5)
    phi1 = zero_field(g)
    vals = np.zeros(9, dtype=complex)
    vals[0] = 2.0
    phi2 = physical(vals, g)
    tr = solve_linear(1, phi1, phi2, times)
    # V2(t, 0) = t so the zero mode is 2t
    for i, t in enumerate(times):
        assert tr.u[i][0] == pytest.approx(2.0 * t)
        assert tr.dt[i][0] == pytest.approx(2.0)
    tr2 = solve_linear(1, phi2, phi1, times)
    for i in range(len(times)):
        assert tr2.u[i][0] == pytest.approx(2.0)


def test_data_reproduced_at_zero():
    g = Grid(1, (64,), 4.0)
    phi1 = gaussian_field(g)
    phi2 = gaussian_field(g, 0.3)
    tr = solve_linear(2, phi1, phi2, np.linspace(0, 1, 9))
    assert np.array_equal(tr.u[0], half_forward(phi1.values, g))
    assert np.array_equal(tr.dt[0], half_forward(phi2.values, g))


def test_duhamel_zero_mode_quadratic():
    g = Grid(1, (16,), 2.0)
    times = np.linspace(0, 1, 33)
    u, dt = zero_data_response(1, g, times, half(constant_forcing(g, times), g))
    # at xi = 0 the response to F=1 is t^2/2, and Simpson is exact on it
    for i, t in enumerate(times):
        assert u[i][0] == pytest.approx(t * t / 2, abs=1e-12)
        assert dt[i][0] == pytest.approx(t, abs=1e-12)


def test_duhamel_zero_forcing():
    g = Grid(1, (16,), 2.0)
    times = np.linspace(0, 1, 9)
    z = np.zeros((9, 9), dtype=complex)
    u, _ = zero_data_response(2, g, times, z)
    for s in u:
        assert np.all(s == 0)


def test_duhamel_needs_three_points():
    g = Grid(1, (16,), 2.0)
    z = np.zeros((2, 9), dtype=complex)
    with pytest.raises(QuadratureError):
        zero_data_response(1, g, np.array([0.0, 1.0]), z)


@pytest.mark.parametrize("m", [1, 2])
def test_homogeneous_matches_rk4(m):
    g = Grid(1, (128,), 4.0)
    phi1 = gaussian_field(g)
    phi2 = gaussian_field(g, 0.7)
    times = np.linspace(0, 1, 65)
    spec_tr = solve_linear(m, phi1, phi2, times)
    rk_u, _ = rk4_oracle(m, phi1, phi2, None, times)
    assert relative_l2_distance(g, spec_tr.u, rk_u, 64) < 1e-6  # t = 1
    assert relative_l2_distance(g, spec_tr.u, rk_u, 32) < 1e-6  # t = 0.5


def test_single_mode_forcing_matches_rk4():
    g = Grid(1, (64,), 4.0)
    times = np.linspace(0, 1, 257)
    forcing = np.tile(real_mode(g, 5).values, (len(times), 1))
    u, _ = zero_data_response(1, g, times, half(forcing, g))
    z = zero_field(g, "spectral")
    rk_u, _ = rk4_oracle(1, z, z, forcing, times)
    assert relative_l2_distance(g, u, rk_u, -1) < 1e-6


def test_inhomogeneous_superposition():
    g = Grid(1, (64,), 4.0)
    times = np.linspace(0, 1, 33)
    phi1, phi2 = gaussian_field(g), gaussian_field(g, 0.3)
    forcing = constant_forcing(g, times)
    hom = solve_linear(2, phi1, phi2, times)
    par, _ = zero_data_response(2, g, times, half(forcing, g))
    rk_u, _ = rk4_oracle(2, phi1, phi2, forcing, times)
    assert relative_l2_distance(g, hom.u + par, rk_u, -1) < 1e-6


def test_rk4_convergence_order():
    g = Grid(1, (8,), 2.0)
    vals = np.zeros(8, dtype=complex)
    vals[3] = 1.0
    phi1 = Field(g, vals, "spectral")
    z = zero_field(g, "spectral")
    times = np.array([0.0, 1.0])
    errs = []
    ref, _ = rk4_oracle(1, phi1, z, None, times, substeps=4096)
    for n in (64, 128, 256):
        u, _ = rk4_oracle(1, phi1, z, None, times, substeps=n)
        errs.append(abs(u[-1][3] - ref[-1][3]))
    order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert order[0] == pytest.approx(4.0, abs=0.2)
    assert order[1] == pytest.approx(4.0, abs=0.2)


def test_rk4_requires_uniform_times():
    g = Grid(1, (8,), 2.0)
    z = zero_field(g, "spectral")
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
    tab = propagator_table(2, times, xi_norm(g2))
    direct = sample_arrays(2, times[:, None, None], xi_norm(g2)[None])
    for got, ref in zip(tab, direct):
        assert got.shape == (9, 16, 8)
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=1e-14)



def test_propagator_table_is_c_contiguous():
    # the products of the solves and the sums of the norms run in memory order
    times = np.linspace(0, 1, 9)
    for g in (Grid(1, (16,), 2.0), Grid(2, (16, 8), 2.0)):
        for a in propagator_table(1, times, xi_norm(g)):
            assert a.flags.c_contiguous, a.strides

def test_table_of_wrong_shape_is_rejected():
    g = Grid(1, (16,), 2.0)
    times = np.linspace(0, 1, 9)
    phi = half_forward(gaussian_field(g).values, g)
    forcing = half(constant_forcing(g, times), g)
    for bad in (table(1, Grid(1, (32,), 2.0), times),
                table(1, g, np.linspace(0, 1, 17))):
        with pytest.raises(GridMismatchError):
            solve_homogeneous(bad, phi, phi, times)
        with pytest.raises(GridMismatchError):
            duhamel(bad, forcing, times)


_SIZES = {1: (16,), 2: (16, 8), 3: (8, 8, 8)}


def test_export_trajectory(tmp_path):
    # a solve's half spectra come back bit for bit in 1-3 D; each file
    # holds the completed full spectrum of its level.  The export completes
    # levels in blocks of about 1 MB, one level per block on the 256^2 grid
    times = np.linspace(0, 1, 5)
    for n, sizes in [*_SIZES.items(), (2, (256, 256))]:
        g = Grid(n, sizes, 2.0)
        rng = np.random.default_rng(n)
        data = [Field(g, rng.standard_normal(sizes)) for _ in range(2)]
        tr = solve_linear(1, *data, times)
        run = tmp_path / ("run%d_%d" % (n, sizes[-1]))
        manifest = export_trajectory(run, tr, s_list=(0.0, 1.0))
        rows = open(manifest).read().strip().splitlines()
        assert rows[0] == "time,file,h0.0,h1.0"
        assert len(rows) == 6
        for i in range(len(times)):
            f = load_field(run / ("snapshot_%05d.cwgrid" % i), "spectral")
            assert np.array_equal(f.values, hermitian_completion(tr.u[i], g))
        back = load_trajectory(run)
        assert back.grid == g and back.dt is None
        assert np.array_equal(back.times, times)
        assert np.array_equal(back.u, tr.u)


def test_load_keeps_the_half_of_full_spectra(tmp_path):
    # the layout of the probe-2d benchmark input, per level np.fft.fftn of
    # a real field: the load keeps exactly the columns 0..N/2 of each, with
    # the edge columns 0 and N/2 made exactly Hermitian
    g = Grid(2, (32, 32), np.pi)
    x, y = g.coords()
    r = np.hypot(x, y)
    times = np.linspace(0.0, 1.0, 9)
    levels = np.stack([np.fft.fftn(np.exp(-r ** 2) * (r < t), norm="ortho")
                       for t in times])
    write_full_spectra(str(tmp_path / "run"), g, times, levels)
    tr = load_trajectory(tmp_path / "run")
    half = levels[..., :17].copy()
    edges = half[..., ::16]
    edges[:] = 0.5 * (edges + np.conj(negated(edges, g.axes[:-1])))
    assert np.array_equal(tr.u, half)


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
