import struct

import numpy as np
import pytest

from cuspwave.errors import DomainError, GridMismatchError, ParameterError
from cuspwave.spectral import (
    Field,
    Grid,
    SpectralTrajectory,
    dealias,
    half_field,
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

from oracles import (
    dft_forward,
    dft_inverse,
    full_derivative,
    full_sobolev_norm,
    half_of,
)


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.sizes) + 1j * rng.standard_normal(grid.sizes)
    return Field(grid, v)


def real_field(grid, seed=0, shape=()):
    """Real random samples, stacked over shape."""
    rng = np.random.default_rng(seed)
    return Field(grid, rng.standard_normal(shape + grid.sizes))


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
    f = real_field(g)
    h = half_field(f)
    back = half_inverse(h.values, g, np.empty(g.sizes), work=h.values.copy())
    assert np.max(np.abs(back - f.values.real)) < 1e-12
    # and the oracles' full pair
    f = random_field(g)
    back = dft_inverse(dft_forward(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_constant_and_single_mode():
    g = Grid(1, (64,), 2.0)
    ch = half_field(Field(g, np.full(64, 3.5)))
    assert abs(ch.values[0]) > 1.0
    assert np.max(np.abs(ch.values[1:])) < 1e-12

    x = g.axis_coords(0)
    mh = half_field(Field(g, np.cos(np.pi * x / g.L))).values
    assert abs(mh[1]) > 1.0
    mh[1] = 0.0
    assert np.max(np.abs(mh)) < 1e-12


def test_parseval():
    g = Grid(3, (8, 16, 8), 1.5)
    f = real_field(g, 3)
    assert l2_norm(f) == pytest.approx(sobolev_norm(half_field(f), 0.0), abs=1e-10)
    f = random_field(g, 3)
    assert l2_norm(f) == pytest.approx(l2_norm(dft_forward(f)), abs=1e-10)


def test_sobolev_norm_basics():
    g = Grid(1, (128,), 4.0)
    phys = real_field(g, 1)
    f = half_field(phys)
    assert sobolev_norm(f, 0.0) == pytest.approx(l2_norm(phys), rel=1e-13)
    # the real mode of amplitude A at +-xi: its half spectrum holds one of
    # the two, which counts twice
    vals = np.zeros(65, dtype=complex)
    vals[5] = 2.0
    xi = g.axis_xi(0)[5]
    one = Field(g, vals, "half")
    expected = np.sqrt(2) * 2.0 * (1 + xi**2) ** 0.75 * np.sqrt(g.cell_measure)
    assert sobolev_norm(one, 1.5) == pytest.approx(expected, rel=1e-13)
    with pytest.raises(ParameterError):
        sobolev_norm(dft_forward(phys), 0.0)  # a full spectrum
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
        fh = half_field(Field(g, jump))
        ratios.append(sobolev_norm(fh, 0.6) / sobolev_norm(fh, 0.49))
    assert ratios[1] > ratios[0] and ratios[2] > ratios[1]


def test_derivatives():
    g = Grid(2, (32, 32), np.pi)
    X, Y = g.coords()
    f = half_field(Field(g, np.sin(3 * X) * np.cos(2 * Y)))
    dx = dft_inverse(spectral_derivative(f, 0)).values.real
    assert np.max(np.abs(dx - 3 * np.cos(3 * X) * np.cos(2 * Y))) < 1e-10
    lap = sum(dft_inverse(spectral_derivative(spectral_derivative(f, a), a))
              .values.real for a in (0, 1))
    assert np.max(np.abs(lap + 13 * np.sin(3 * X) * np.cos(2 * Y))) < 1e-9
    with pytest.raises(ParameterError):
        spectral_derivative(f, 2)
    # spectral ops take half spectra only, not physical input or a full
    # spectrum
    with pytest.raises(ParameterError):
        spectral_derivative(Field(g, X), 0)
    with pytest.raises(ParameterError):
        spectral_derivative(dft_forward(Field(g, X)), 0)


def test_odd_derivative_zeroes_nyquist():
    g = Grid(2, (16, 8), 1.5)
    X, Y = g.coords()
    # a real field with energy on both Nyquist planes
    f = half_field(Field(g, np.cos(16 * np.pi / 3 * X) + np.cos(8 * np.pi / 3 * Y)
                         + np.exp(np.sin(X) * np.cos(2 * Y))))
    assert np.abs(f.values[8]).max() > 0.1 and np.abs(f.values[:, 4]).max() > 0.1
    for axis, size in enumerate(g.sizes):
        d = spectral_derivative(f, axis).values
        assert not np.any(np.take(d, size // 2, axis=axis))
        phys = dft_inverse(Field(g, d, "half")).values
        assert np.max(np.abs(phys.imag)) <= 1e-14 * np.max(np.abs(phys.real))


@pytest.mark.parametrize("sizes", [(16,), (8, 16), (8, 16, 8)])
def test_half_spectrum_matches_full(sizes):
    # the package's half spectra against the oracles' full ones
    g = Grid(len(sizes), sizes, 1.5)
    real = np.random.default_rng(3).standard_normal((2,) + sizes)
    f = dft_forward(Field(g, real))
    h = half_of(f)
    assert h.space == "half" and h.values.shape == (2,) + g.half_sizes
    np.testing.assert_allclose(sobolev_norm(h, 0.7), full_sobolev_norm(g, f.values, 0.7),
                               rtol=1e-14)
    cols = g.half_sizes[-1]
    for axis in range(g.n):
        assert np.array_equal(spectral_derivative(h, axis).values,
                              full_derivative(g, f.values, axis)[..., :cols])
    back = half_inverse(h.values, g, np.empty(real.shape), work=h.values.copy())
    np.testing.assert_allclose(back, real, atol=1e-14 * np.abs(real).max())
    fwd = half_forward(real, g)
    np.testing.assert_allclose(fwd, h.values, atol=1e-14 * np.abs(fwd).max())
    assert np.array_equal(half_field(Field(g, real)).values, fwd)
    full = hermitian_completion(fwd, g)
    np.testing.assert_allclose(full, f.values, atol=1e-14 * np.abs(fwd).max())
    assert np.array_equal(full[..., :cols], fwd)


def test_real_half_rejects_a_complex_field():
    # real_half reads full spectra level by level and keeps their halves
    g = Grid(2, (8, 16), 1.0)
    real = dft_forward(real_field(g, 4, (3,))).values
    times = [0.0, 0.25, 0.5]
    assert np.array_equal(real_half(iter(real), g, times), real[..., :9])
    levels = real.copy()
    levels[1] = dft_forward(random_field(g)).values
    with pytest.raises(DomainError,
                       match=r"of max\|u\| at time level 1 \(t = 0\.25\)$"):
        real_half(iter(levels), g, times)
    # and half_field takes real samples only
    with pytest.raises(DomainError, match="not a real field"):
        half_field(random_field(g))


def test_dealias():
    g = Grid(1, (32,), 1.0)
    f = half_field(real_field(g, 9))
    d = dealias(f)
    k = np.abs(np.fft.fftfreq(32, d=1 / 32))[:17]
    assert np.all(d.values[k > 32 / 3] == 0)
    assert np.all(d.values[k <= 32 / 3] == f.values[k <= 32 / 3])
    dd = dealias(d)
    assert np.array_equal(dd.values, d.values)


def test_trajectory_validation():
    g = Grid(1, (8,), 1.0)
    f = half_field(real_field(g)).values
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
    assert snap.space == "half" and np.array_equal(snap.values, tr.u[1])
    with pytest.raises(ParameterError):  # full spectra
        SpectralTrajectory(g, [0.0, 0.5], np.zeros((2, 8), dtype=complex))
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
    stack = np.stack([real_field(g, seed).values for seed in range(5)])
    spec = half_field(Field(g, stack))
    for i in range(5):
        one = half_field(Field(g, stack[i]))
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
        g.derivative_symbol(1)[1] = 1.0
    assert Grid(2, (8, 16), 2.0) == g
