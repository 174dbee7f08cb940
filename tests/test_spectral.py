import struct

import numpy as np
import pytest

from cuspwave.errors import DomainError, GridMismatchError, ParameterError
from cuspwave.spectral import (
    Field,
    Grid,
    SpectralTrajectory,
    dealias,
    dft_forward,
    half_forward,
    half_inverse,
    hermitian_completion,
    load_field,
    real_half,
    require_same_grid,
    save_field,
    sobolev_norm,
    spectral_derivative,
)

from oracles import dft_inverse


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.sizes) + 1j * rng.standard_normal(grid.sizes)
    return Field(grid, v)


def l2_norm(f):
    """sqrt(sum |v|^2 * cell) over the spatial axes, one per time level."""
    return np.sqrt(np.sum(np.abs(f.values) ** 2, axis=f.grid.axes)
                   * f.grid.cell_measure)


def test_grid_validation():
    with pytest.raises(ParameterError):
        Grid(4, (8, 8, 8, 8), 1.0)
    with pytest.raises(ParameterError):
        Grid(1, (12,), 1.0)
    with pytest.raises(ParameterError):
        Grid(1, (4,), 1.0)
    with pytest.raises(ParameterError):
        Grid(2, (8,), 1.0)
    with pytest.raises(ParameterError):
        Grid(1, (8,), -1.0)
    with pytest.raises(ParameterError):
        Grid(1, (8,), np.inf)


def test_roundtrip_identity():
    g = Grid(2, (16, 32), 3.0)
    f = random_field(g)
    back = dft_inverse(dft_forward(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_constant_and_single_mode():
    g = Grid(1, (64,), 2.0)
    c = Field(g, np.full(64, 3.5 + 0j))
    ch = dft_forward(c)
    assert abs(ch.values[0]) > 1.0
    assert np.max(np.abs(ch.values[1:])) < 1e-12

    x = g.axis_coords(0)
    mode = Field(g, np.exp(1j * np.pi * x / g.L))
    mh = dft_forward(mode).values
    assert abs(mh[1]) > 1.0
    mh[1] = 0.0
    assert np.max(np.abs(mh)) < 1e-12


def test_parseval():
    g = Grid(3, (8, 16, 8), 1.5)
    f = random_field(g, 3)
    assert l2_norm(f) == pytest.approx(l2_norm(dft_forward(f)), abs=1e-10)


def test_sobolev_norm_basics():
    g = Grid(1, (128,), 4.0)
    f = dft_forward(random_field(g, 1))
    assert sobolev_norm(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-13)
    # single mode amplitude A at frequency xi
    vals = np.zeros(128, dtype=complex)
    vals[5] = 2.0
    xi = g.axis_xi(0)[5]
    one = Field(g, vals, "spectral")
    expected = 2.0 * (1 + xi**2) ** 0.75 * np.sqrt(g.cell_measure)
    assert sobolev_norm(one, 1.5) == pytest.approx(expected, rel=1e-13)
    # monotone in s
    norms = [sobolev_norm(f, s) for s in (-1.0, 0.0, 0.5, 2.0)]
    assert norms == sorted(norms)


def test_heaviside_threshold_ratio_grows():
    # a jump has Fourier tail |xi|^{-1}; the H^0.49 norm stays bounded while
    # H^0.6 blows up under refinement, so the ratio 0.6/0.49 must grow
    ratios = []
    for N in (128, 512, 2048):
        g = Grid(1, (N,), 4.0)
        x = g.axis_coords(0)
        jump = np.where(x >= 0, 1.0, 0.0) * np.exp(-(x**2))
        fh = dft_forward(Field(g, jump))
        ratios.append(sobolev_norm(fh, 0.6) / sobolev_norm(fh, 0.49))
    assert ratios[1] > ratios[0] and ratios[2] > ratios[1]


def test_derivatives():
    g = Grid(2, (32, 32), np.pi)
    X, Y = g.coords()
    f = dft_forward(Field(g, np.sin(3 * X) * np.cos(2 * Y)))
    dx = dft_inverse(spectral_derivative(f, 0)).values.real
    assert np.max(np.abs(dx - 3 * np.cos(3 * X) * np.cos(2 * Y))) < 1e-10
    lap = sum(dft_inverse(spectral_derivative(spectral_derivative(f, a), a))
              .values.real for a in (0, 1))
    assert np.max(np.abs(lap + 13 * np.sin(3 * X) * np.cos(2 * Y))) < 1e-9
    with pytest.raises(ParameterError):
        spectral_derivative(f, 2)
    # spectral ops reject physical input
    with pytest.raises(ParameterError):
        spectral_derivative(Field(g, X), 0)


def test_odd_derivative_zeroes_nyquist():
    g = Grid(2, (16, 8), 1.5)
    X, Y = g.coords()
    # a real field with energy on both Nyquist planes
    f = dft_forward(Field(g, np.cos(16 * np.pi / 3 * X) + np.cos(8 * np.pi / 3 * Y)
                          + np.exp(np.sin(X) * np.cos(2 * Y))))
    assert np.abs(f.values[8]).max() > 0.1 and np.abs(f.values[:, 4]).max() > 0.1
    for axis, size in enumerate(g.sizes):
        d = spectral_derivative(f, axis).values
        assert not np.any(np.take(d, size // 2, axis=axis))
        phys = dft_inverse(Field(g, d, "spectral")).values
        assert np.max(np.abs(phys.imag)) <= 1e-14 * np.max(np.abs(phys.real))


@pytest.mark.parametrize("sizes", [(16,), (8, 16), (8, 16, 8)])
def test_half_spectrum_matches_full(sizes):
    g = Grid(len(sizes), sizes, 1.5)
    real = np.random.default_rng(3).standard_normal((2,) + sizes)
    f = dft_forward(Field(g, real))
    h = real_half(f)
    assert h.space == "half" and h.values.shape == (2,) + g.half_sizes
    np.testing.assert_allclose(sobolev_norm(h, 0.7), sobolev_norm(f, 0.7),
                               rtol=1e-14)
    cols = g.half_sizes[-1]
    for axis in range(g.n):
        assert np.array_equal(spectral_derivative(h, axis).values,
                              spectral_derivative(f, axis).values[..., :cols])
    back = half_inverse(h.values, g, np.empty(real.shape), work=h.values.copy())
    np.testing.assert_allclose(back, real, atol=1e-14 * np.abs(real).max())
    fwd = half_forward(real, g)
    np.testing.assert_allclose(fwd, h.values, atol=1e-14 * np.abs(fwd).max())
    full = hermitian_completion(fwd, g)
    np.testing.assert_allclose(full, f.values, atol=1e-14 * np.abs(fwd).max())
    assert np.array_equal(full[..., :cols], fwd)


def test_real_half_rejects_a_complex_field():
    g = Grid(1, (16,), 1.0)
    # a single Field has no time axis, so the message names no time level
    with pytest.raises(DomainError, match=r"of max\|u\|$") as info:
        real_half(dft_forward(random_field(g)))
    assert "time level" not in str(info.value)


def test_dealias():
    g = Grid(1, (32,), 1.0)
    f = dft_forward(random_field(g, 9))
    d = dealias(f)
    k = np.abs(np.fft.fftfreq(32, d=1 / 32))
    assert np.all(d.values[k > 32 / 3] == 0)
    assert np.all(d.values[k <= 32 / 3] == f.values[k <= 32 / 3])
    dd = dealias(d)
    assert np.array_equal(dd.values, d.values)


def test_trajectory_validation():
    g = Grid(1, (8,), 1.0)
    f = dft_forward(random_field(g)).values
    two = np.stack([f, f])
    with pytest.raises(ParameterError):
        SpectralTrajectory(g, [0.0, 1.0], f[None], f[None])
    with pytest.raises(ParameterError):
        SpectralTrajectory(g, [0.0, 1.0], two, f[None])
    with pytest.raises(ParameterError):
        SpectralTrajectory(g, [0.1, 1.0], two, two)
    with pytest.raises(ParameterError):
        SpectralTrajectory(g, [0.0, 0.0], two, two)
    tr = SpectralTrajectory(g, [0.0, 0.5], two, two)
    snap = tr.snapshot_at(0.5)
    assert snap.space == "spectral" and np.array_equal(snap.values, tr.u[1])
    with pytest.raises(DomainError):
        tr.snapshot_at(0.3)


def test_grid_mismatch():
    a = random_field(Grid(1, (8,), 1.0))
    b = random_field(Grid(1, (16,), 1.0))
    with pytest.raises(GridMismatchError):
        require_same_grid(a, b)


def test_binary_roundtrip(tmp_path):
    g = Grid(2, (8, 16), 2.5)
    f = random_field(g, 11)
    p = tmp_path / "f.cwgrid"
    save_field(p, f)
    back = load_field(p)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)
    with pytest.raises(ParameterError):
        save_field(p, Field(g, np.stack([f.values, f.values])))
    # magic check
    (tmp_path / "bad.cwgrid").write_bytes(b"NOTMAGIC" + b"\0" * 64)
    with pytest.raises(DomainError):
        load_field(tmp_path / "bad.cwgrid")


def test_binary_layout(tmp_path):
    # CWGRID1: magic, <u4 dimension, <u4 sizes, <f8 L, then re/im as
    # interleaved <f8 in C order
    g = Grid(2, (8, 16), 1.5)
    vals = random_field(Grid(2, (16, 8), 1.5), 3).values.T  # not C-contiguous
    inter = np.empty(2 * vals.size)
    inter[0::2] = vals.real.ravel()
    inter[1::2] = vals.imag.ravel()
    header = b"CWGRID1" + struct.pack("<I", 2) + struct.pack("<2I", 8, 16) \
        + struct.pack("<d", 1.5)
    p = tmp_path / "f.cwgrid"
    save_field(p, Field(g, vals))
    assert p.read_bytes() == header + inter.astype("<f8").tobytes()
    back = load_field(p, "spectral")
    assert np.array_equal(back.values, vals) and back.space == "spectral"
    back.values[0, 0] = 0.0  # a writable copy, not a view of the file
    for cut in (16, 5):
        (tmp_path / "short.cwgrid").write_bytes(p.read_bytes()[:-cut])
        with pytest.raises(DomainError):
            load_field(tmp_path / "short.cwgrid")


def test_stacked_field_matches_per_snapshot():
    g = Grid(2, (8, 16), 2.0)
    stack = np.stack([random_field(g, seed).values for seed in range(5)])
    spec = dft_forward(Field(g, stack))
    for i in range(5):
        one = dft_forward(Field(g, stack[i]))
        assert np.array_equal(spec.values[i], one.values)
        assert np.array_equal(dft_inverse(spec).values[i], dft_inverse(one).values)
        assert sobolev_norm(spec, 1.5)[i] == pytest.approx(sobolev_norm(one, 1.5),
                                                           rel=1e-14)
        assert l2_norm(spec)[i] == pytest.approx(l2_norm(one), rel=1e-14)
    tr = SpectralTrajectory(g, np.arange(5.0), spec.values)
    assert np.array_equal(sobolev_norm(tr, 1.5), sobolev_norm(spec, 1.5))


def test_frequency_tables_built_once_and_read_only():
    g = Grid(2, (8, 16), 2.0)
    assert g.xi_norm() is g.xi_norm()
    assert g.derivative_symbol(1) is g.derivative_symbol(1)
    with pytest.raises(ValueError):
        g.xi_norm()[0, 0] = 1.0
    with pytest.raises(ValueError):
        g.derivative_symbol(0, half=True)[1] = 1.0
    assert Grid(2, (8, 16), 2.0) == g
