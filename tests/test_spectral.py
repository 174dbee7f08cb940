import struct

import numpy as np
import pytest

from cuspwave.errors import DomainError, GridMismatchError, ParameterError
from cuspwave.spectral import (
    Field,
    Grid,
    SpectralTrajectory,
    dealias,
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
    negated,
    xi_norm,
)


def random_values(grid, seed=0):
    """Complex random samples, such as no real field has."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.sizes) + 1j * rng.standard_normal(grid.sizes)


def real_values(grid, seed=0, shape=()):
    """Real random samples, stacked over shape."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape + grid.sizes)


def l2_norm(values, grid):
    """sqrt(sum |v|^2 * cell) over the spatial axes, one per time level."""
    return np.sqrt(np.sum(np.abs(values) ** 2, axis=grid.axes) * grid.cell_measure)


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


def test_physical_field_holds_real_float64_samples(tmp_path):
    g = Grid(2, (8, 8), 1.0)
    real = real_values(g)
    f = Field(g, real.astype(complex))
    assert f.values.dtype == np.float64 and np.array_equal(f.values, real)
    assert Field(g, np.ones(g.sizes, dtype=int)).values.dtype == np.float64
    assert Field(g, random_values(g), "spectral").values.dtype == np.complex128
    with pytest.raises(DomainError, match="not a real field"):
        Field(g, random_values(g))
    with pytest.raises(ParameterError, match="physical or spectral"):
        Field(g, real, "half")
    # the same check reads a file's samples as a physical Field
    p = tmp_path / "complex.cwgrid"
    save_field(p, Field(g, random_values(g), "spectral"))
    with pytest.raises(DomainError, match="not a real field"):
        load_field(p)


def test_field_rejects_values_of_another_shape():
    with pytest.raises(ParameterError, match=r"trailing shape \(8, 8\)"):
        Field(Grid(2, (8, 8), 1.0), np.zeros(64))
    with pytest.raises(ParameterError, match=r"trailing shape \(16,\)"):
        Field(Grid(1, (16,), 1.0), np.zeros((3, 10)))
    with pytest.raises(ParameterError, match=r"trailing shape \(8, 16\)"):
        Field(Grid(2, (8, 16), 1.0), np.zeros((16, 8), dtype=complex), "spectral")
    # a stack of levels keeps its leading axis
    assert Field(Grid(1, (16,), 1.0), np.zeros((3, 16))).values.shape == (3, 16)


def test_roundtrip_identity():
    g = Grid(2, (16, 32), 3.0)
    f = real_values(g)
    h = half_forward(f, g)
    back = half_inverse(h, g, np.empty(g.sizes), work=h.copy())
    assert np.max(np.abs(back - f)) < 1e-12
    # and the oracles' full pair
    f = random_values(g)
    back = dft_inverse(dft_forward(f, g), g)
    assert np.max(np.abs(back - f)) < 1e-12


def test_constant_and_single_mode():
    g = Grid(1, (64,), 2.0)
    ch = half_forward(np.full(64, 3.5), g)
    assert abs(ch[0]) > 1.0
    assert np.max(np.abs(ch[1:])) < 1e-12

    x = g.axis_coords(0)
    mh = half_forward(np.cos(np.pi * x / g.L), g)
    assert abs(mh[1]) > 1.0
    mh[1] = 0.0
    assert np.max(np.abs(mh)) < 1e-12


def test_parseval():
    g = Grid(3, (8, 16, 8), 1.5)
    f = real_values(g, 3)
    assert l2_norm(f, g) == pytest.approx(sobolev_norm(half_forward(f, g), g, 0.0),
                                          abs=1e-10)
    f = random_values(g, 3)
    assert l2_norm(f, g) == pytest.approx(l2_norm(dft_forward(f, g), g), abs=1e-10)


def test_sobolev_norm_basics():
    g = Grid(1, (128,), 4.0)
    phys = real_values(g, 1)
    f = half_forward(phys, g)
    assert sobolev_norm(f, g, 0.0) == pytest.approx(l2_norm(phys, g), rel=1e-13)
    # the real mode of amplitude A at +-xi: its half spectrum holds one of
    # the two, which counts twice
    one = np.zeros(65, dtype=complex)
    one[5] = 2.0
    xi = g.axis_xi(0)[5]
    expected = np.sqrt(2) * 2.0 * (1 + xi**2) ** 0.75 * np.sqrt(g.cell_measure)
    assert sobolev_norm(one, g, 1.5) == pytest.approx(expected, rel=1e-13)
    # monotone in s
    norms = [sobolev_norm(f, g, s) for s in (-1.0, 0.0, 0.5, 2.0)]
    assert norms == sorted(norms)


def test_heaviside_threshold_ratio_grows():
    # a jump has Fourier tail |xi|^{-1}; the H^0.49 norm stays bounded while
    # H^0.6 blows up under refinement, so the ratio 0.6/0.49 must grow
    ratios = []
    for N in (128, 512, 2048):
        g = Grid(1, (N,), 4.0)
        x = g.axis_coords(0)
        jump = np.where(x >= 0, 1.0, 0.0) * np.exp(-(x**2))
        fh = half_forward(jump, g)
        ratios.append(sobolev_norm(fh, g, 0.6) / sobolev_norm(fh, g, 0.49))
    assert ratios[1] > ratios[0] and ratios[2] > ratios[1]


def test_derivatives():
    g = Grid(2, (32, 32), np.pi)
    X, Y = g.coords()
    f = half_forward(np.sin(3 * X) * np.cos(2 * Y), g)
    dx = dft_inverse(spectral_derivative(f, g, 0), g).real
    assert np.max(np.abs(dx - 3 * np.cos(3 * X) * np.cos(2 * Y))) < 1e-10
    lap = sum(dft_inverse(spectral_derivative(spectral_derivative(f, g, a), g, a), g)
              .real for a in (0, 1))
    assert np.max(np.abs(lap + 13 * np.sin(3 * X) * np.cos(2 * Y))) < 1e-9
    with pytest.raises(ParameterError):
        spectral_derivative(f, g, 2)


def test_odd_derivative_zeroes_nyquist():
    g = Grid(2, (16, 8), 1.5)
    X, Y = g.coords()
    # a real field with energy on both Nyquist planes
    f = half_forward(np.cos(16 * np.pi / 3 * X) + np.cos(8 * np.pi / 3 * Y)
                     + np.exp(np.sin(X) * np.cos(2 * Y)), g)
    assert np.abs(f[8]).max() > 0.1 and np.abs(f[:, 4]).max() > 0.1
    for axis, size in enumerate(g.sizes):
        d = spectral_derivative(f, g, axis)
        assert not np.any(np.take(d, size // 2, axis=axis))
        phys = dft_inverse(d, g)
        assert np.max(np.abs(phys.imag)) <= 1e-14 * np.max(np.abs(phys.real))


@pytest.mark.parametrize("sizes", [(16,), (8, 16), (8, 16, 8), (16, 32)])
def test_half_spectrum_matches_full(sizes):
    # the package's half spectra against the oracles' full ones
    g = Grid(len(sizes), sizes, 1.5)
    real = np.random.default_rng(3).standard_normal((2,) + sizes)
    f = dft_forward(real, g)
    cols = g.half_sizes[-1]
    h = f[..., :cols]
    assert h.shape == (2,) + g.half_sizes
    np.testing.assert_allclose(sobolev_norm(h, g, 0.7), full_sobolev_norm(g, f, 0.7),
                               rtol=1e-14)
    for axis in range(g.n):
        assert np.array_equal(spectral_derivative(h, g, axis),
                              full_derivative(g, f, axis)[..., :cols])
    back = half_inverse(h, g, np.empty(real.shape), work=h.copy())
    np.testing.assert_allclose(back, real, atol=1e-14 * np.abs(real).max())
    fwd = half_forward(real, g)
    np.testing.assert_allclose(fwd, h, atol=1e-14 * np.abs(fwd).max())
    # the edge columns 0 and N/2 are exactly Hermitian in the other axes,
    # for a stack, for one level and into out (rfftn leaves them so only
    # to rounding from 16 points on the other axes)
    edges = (..., slice(None, None, sizes[-1] // 2))
    one = np.empty(g.half_sizes, dtype=complex)
    for a in (fwd, half_forward(real[1], g), half_forward(real[1], g, out=one)):
        e = a[edges]
        assert np.array_equal(e, np.conj(negated(e, g.axes[:-1])))
    assert np.array_equal(one, fwd[1])
    full = hermitian_completion(fwd, g)
    np.testing.assert_allclose(full, f, atol=1e-14 * np.abs(fwd).max())
    assert np.array_equal(full[..., :cols], fwd)


def test_real_half_rejects_a_complex_field():
    # real_half reads full spectra level by level and keeps their halves
    g = Grid(2, (8, 16), 1.0)
    real = dft_forward(real_values(g, 4, (3,)), g)
    times = [0.0, 0.25, 0.5]
    assert np.array_equal(real_half(iter(real), g, times), real[..., :9])
    levels = real.copy()
    levels[1] = dft_forward(random_values(g), g)
    with pytest.raises(DomainError,
                       match=r"of max\|u\| at time level 1 \(t = 0\.25\)$"):
        real_half(iter(levels), g, times)


def test_dealias():
    g = Grid(1, (32,), 1.0)
    f = half_forward(real_values(g, 9), g)
    d = dealias(f, g)
    k = np.abs(np.fft.fftfreq(32, d=1 / 32))[:17]
    assert np.all(d[k > 32 / 3] == 0)
    assert np.all(d[k <= 32 / 3] == f[k <= 32 / 3])
    dd = dealias(d, g)
    assert np.array_equal(dd, d)


def test_trajectory_validation():
    g = Grid(1, (8,), 1.0)
    f = half_forward(real_values(g), g)
    two = np.stack([f, f])
    with pytest.raises(ParameterError):
        SpectralTrajectory(g, [0.0, 1.0], f[None], f[None])
    with pytest.raises(ParameterError):
        SpectralTrajectory(g, [0.0, 1.0], two, f[None])
    with pytest.raises(ParameterError):
        SpectralTrajectory(g, [0.1, 1.0], two, two)
    with pytest.raises(ParameterError):
        SpectralTrajectory(g, [0.0, 0.0], two, two)
    for bad in ([0.0, np.nan], [0.0, np.inf]):
        with pytest.raises(ParameterError, match="finite"):
            SpectralTrajectory(g, bad, two, two)
    SpectralTrajectory(g, [0.0, 0.5], two, two)
    with pytest.raises(ParameterError):  # full spectra
        SpectralTrajectory(g, [0.0, 0.5], np.zeros((2, 8), dtype=complex))


def test_grid_mismatch():
    a = Field(Grid(1, (8,), 1.0), real_values(Grid(1, (8,), 1.0)))
    b = Field(Grid(1, (16,), 1.0), real_values(Grid(1, (16,), 1.0)))
    with pytest.raises(GridMismatchError):
        require_same_grid(a, b)


def test_binary_roundtrip(tmp_path):
    g = Grid(2, (8, 16), 2.5)
    f = Field(g, random_values(g, 11), "spectral")
    p = tmp_path / "f.cwgrid"
    save_field(p, f)
    back = load_field(p, "spectral")
    assert back.grid == g
    assert np.array_equal(back.values, f.values)
    # a physical Field is stored with zero imaginary parts and comes back
    # as the same float64 samples
    real = Field(g, real_values(g, 11))
    save_field(p, real)
    back = load_field(p)
    assert back.values.dtype == np.float64
    assert np.array_equal(back.values, real.values)
    with pytest.raises(ParameterError):
        save_field(p, Field(g, np.stack([f.values, f.values]), "spectral"))
    # magic check
    (tmp_path / "bad.cwgrid").write_bytes(b"NOTMAGIC" + b"\0" * 64)
    with pytest.raises(DomainError):
        load_field(tmp_path / "bad.cwgrid")


def test_binary_layout(tmp_path):
    # CWGRID1: magic, <u4 dimension, <u4 sizes, <f8 L, then re/im as
    # interleaved <f8 in C order
    g = Grid(2, (8, 16), 1.5)
    vals = random_values(Grid(2, (16, 8), 1.5), 3).T  # not C-contiguous
    inter = np.empty(2 * vals.size)
    inter[0::2] = vals.real.ravel()
    inter[1::2] = vals.imag.ravel()
    header = b"CWGRID1" + struct.pack("<I", 2) + struct.pack("<2I", 8, 16) \
        + struct.pack("<d", 1.5)
    p = tmp_path / "f.cwgrid"
    save_field(p, Field(g, vals, "spectral"))
    assert p.read_bytes() == header + inter.astype("<f8").tobytes()
    back = load_field(p, "spectral")
    assert np.array_equal(back.values, vals) and back.space == "spectral"
    back.values[0, 0] = 0.0  # a writable copy, not a view of the file
    for cut in (16, 5):
        (tmp_path / "short.cwgrid").write_bytes(p.read_bytes()[:-cut])
        with pytest.raises(DomainError):
            load_field(tmp_path / "short.cwgrid")
    # a header whose sizes claim far more than the file holds is a short
    # file too: nothing of the claimed size is read or allocated
    claims = b"CWGRID1" + struct.pack("<4I", 3, *(2 ** 20,) * 3) \
        + struct.pack("<d", 1.5) + bytes(64)
    (tmp_path / "claims.cwgrid").write_bytes(claims)
    with pytest.raises(DomainError, match="truncated sample payload"):
        load_field(tmp_path / "claims.cwgrid")
    # a header no Grid takes is named with its file
    (tmp_path / "seven.cwgrid").write_bytes(
        b"CWGRID1" + struct.pack("<2I", 1, 7) + struct.pack("<d", 1.5) + bytes(112))
    with pytest.raises(DomainError, match="seven.cwgrid: grid sizes must be powers of two"):
        load_field(tmp_path / "seven.cwgrid")


def test_stacked_field_matches_per_snapshot():
    g = Grid(2, (8, 16), 2.0)
    stack = np.stack([real_values(g, seed) for seed in range(5)])
    spec = half_forward(stack, g)
    for i in range(5):
        one = half_forward(stack[i], g)
        assert np.array_equal(spec[i], one)
        assert np.array_equal(dft_inverse(spec, g)[i], dft_inverse(one, g))
        assert sobolev_norm(spec, g, 1.5)[i] == pytest.approx(sobolev_norm(one, g, 1.5),
                                                              rel=1e-14)
        assert l2_norm(spec, g)[i] == pytest.approx(l2_norm(one, g), rel=1e-14)


def test_frequency_tables_built_once_and_read_only():
    g = Grid(2, (8, 16), 2.0)
    assert g.half_xi_norm() is g.half_xi_norm()
    assert g.derivative_symbol(1) is g.derivative_symbol(1)
    with pytest.raises(ValueError):
        g.half_xi_norm()[0, 0] = 1.0
    # the half of the full |xi|, bit for bit
    assert np.array_equal(g.half_xi_norm(), xi_norm(g)[..., :9])
    with pytest.raises(ValueError):
        g.derivative_symbol(1)[1] = 1.0
    assert Grid(2, (8, 16), 2.0) == g
