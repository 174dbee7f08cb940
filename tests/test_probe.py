import gc
import tracemalloc

import numpy as np
import pytest

from cuspwave.cli import main
from cuspwave.errors import DomainError, ParameterError
from cuspwave.fields import VectorFieldId
from cuspwave.probe import (
    apply_vector_field,
    conormal_scan,
    decay_exponent,
    fit_power_law,
    gradient_magnitude,
    ridge_extract,
)
from cuspwave.linear_solver import load_trajectory
from cuspwave.spectral import (
    Grid,
    SpectralTrajectory,
    half_forward,
    hermitian_completion,
    sobolev_norm,
)

from oracles import (
    CharSurface,
    dft_forward,
    dft_inverse,
    full_derivative,
    full_sobolev_norm,
    negated,
    snapshot,
    surface_distance,
    write_full_spectra,
)


def make_trajectory(grid, times, func):
    """Trajectory whose snapshots sample func(t, *coords)."""
    coords = grid.coords()
    snaps, dts = [], []
    eps = 1e-6
    for t in times:
        snaps.append(half_forward(func(t, *coords), grid))
        dts.append(half_forward(
            (func(t + eps, *coords) - func(t - eps, *coords)) / (2 * eps), grid))
    return SpectralTrajectory(grid, times, np.stack(snaps), np.stack(dts))


def test_surface_distances():
    gp = CharSurface("GammaPM", m=1, sign="+")
    assert surface_distance(gp, 1.0, [2.0 / 3.0]) == pytest.approx(0.0, abs=1e-14)
    gm = CharSurface("GammaPM", m=1, sign="-")
    assert surface_distance(gm, 1.0, [-2.0 / 3.0]) == pytest.approx(0.0, abs=1e-14)
    gam = CharSurface("Gamma", m=2)
    assert surface_distance(gam, 1.0, [0.3, 0.4]) == pytest.approx(0.0, abs=1e-14)
    assert surface_distance(CharSurface("Gamma0"), 0.7, [0.0, 2.0]) == 0.0
    assert surface_distance(CharSurface("L0"), 0.7, [0.3, 0.4]) == pytest.approx(0.5)
    assert surface_distance(CharSurface("Sigma0"), 0.7, [1.0]) == pytest.approx(0.7)
    with pytest.raises(DomainError):
        surface_distance(gp, -0.1, [0.0])


def test_surface_validation():
    with pytest.raises(ParameterError):
        CharSurface("Gamma9")
    with pytest.raises(ParameterError):
        CharSurface("GammaPM", m=1)
    with pytest.raises(ParameterError):
        CharSurface("Gamma0", sign="+")


def test_field_id_validation():
    with pytest.raises(ParameterError):
        VectorFieldId("bogus")
    with pytest.raises(ParameterError):
        VectorFieldId("L", (1, 1))
    with pytest.raises(ParameterError):
        VectorFieldId("Vbar")
    with pytest.raises(ParameterError):
        VectorFieldId("N2", (2,))
    assert VectorFieldId("L", (0, 1)).label() == "L[0,1]"


def test_scaling_field_on_power_of_t():
    # V0 on the x-independent function t^3 gives 2*3*t^3
    g = Grid(1, (32,), 2.0)
    times = np.linspace(0, 1, 33)
    tr = make_trajectory(g, times, lambda t, x: np.full_like(x, t**3))
    out = apply_vector_field(VectorFieldId("V0", m=1), tr)
    mid = 16
    got = out.u[mid][0].real / np.sqrt(32)
    assert got == pytest.approx(6.0 * times[mid] ** 3, rel=1e-6)


def test_tdt_on_t_squared():
    g = Grid(1, (32,), 2.0)
    times = np.linspace(0, 1, 33)
    tr = make_trajectory(g, times, lambda t, x: np.full_like(x, t * t))
    out = apply_vector_field(VectorFieldId("TDt"), tr)
    got = out.u[-1][0].real / np.sqrt(32)
    assert got == pytest.approx(2.0, rel=1e-8)


def test_rotation_annihilates_radial():
    g = Grid(2, (64, 64), 3.0)
    times = np.linspace(0, 0.5, 9)
    tr = make_trajectory(
        g, times, lambda t, x, y: np.exp(-4 * (x**2 + y**2)) * (1 + t))
    out = apply_vector_field(VectorFieldId("L", (0, 1)), tr)
    base = np.max(np.abs(tr.u[-1]))
    assert np.max(np.abs(out.u[-1])) < 1e-10 * base


def test_linearity():
    g = Grid(1, (32,), 2.0)
    times = np.linspace(0, 1, 17)
    tr_a = make_trajectory(g, times, lambda t, x: np.sin(x) * (1 + t))
    tr_b = make_trajectory(g, times, lambda t, x: np.cos(2 * x) * t * t)
    tr_ab = make_trajectory(
        g, times, lambda t, x: 2 * np.sin(x) * (1 + t) - 3 * np.cos(2 * x) * t * t)
    fid = VectorFieldId("Vhalf", m=2)
    za = apply_vector_field(fid, tr_a)
    zb = apply_vector_field(fid, tr_b)
    zab = apply_vector_field(fid, tr_ab)
    diff = zab.u[8] - 2 * za.u[8] + 3 * zb.u[8]
    assert np.max(np.abs(diff)) < 1e-10


def test_tangency_smoke():
    # the tangent fields annihilate F(x1 - 2 t^((m+2)/2)/(m+2)) on the
    # characteristic surface itself (where the gradient of F peaks), while
    # the transversal d_1 is large there
    m = 2
    g = Grid(1, (256,), 4.0)
    times = np.linspace(0, 1, 65)
    c = 2.0 / (m + 2)

    def f(t, x):
        return np.exp(-4.0 * (x - c * t ** ((m + 2) / 2)) ** 2)

    tr = make_trajectory(g, times, f)
    dx = apply_vector_field(VectorFieldId("Rl", (0,), m=m), tr)
    x = g.axis_coords(0)
    for fid in (
        VectorFieldId("Vhalf", m=m),
        VectorFieldId("N2", (1,), m=m),
        VectorFieldId("Vbar", (0,), m=m),
    ):
        z = apply_vector_field(fid, tr)
        i = 48  # away from both time-grid ends and the Vbar t-floor
        j = int(np.argmin(np.abs(x - c * times[i] ** ((m + 2) / 2))))
        z_phys = dft_inverse(snapshot(z, times[i]), g)
        dx_phys = dft_inverse(snapshot(dx, times[i]), g)
        assert abs(z_phys[j]) < 0.05 * np.max(np.abs(dx_phys)), fid.label()


def test_vbar_floor_handling():
    g = Grid(1, (64,), 2.0)
    times = np.linspace(0, 1, 33)
    tr = make_trajectory(g, times, lambda t, x: np.sin(x) * (1 + t))
    fid = VectorFieldId("Vbar", (0,), m=1)
    out = apply_vector_field(fid, tr)
    assert np.all(out.u[:4] == 0)  # below 4 dt
    assert np.any(out.u[4] != 0) and np.any(out.u[10] != 0)


def test_conormal_scan_depth():
    g = Grid(1, (64,), 2.0)
    times = np.linspace(0, 1, 33)
    tr = make_trajectory(g, times, lambda t, x: np.sin(x) * (1 + t))
    fields = [VectorFieldId("TDt"), VectorFieldId("Rl", (0,))]
    table = conormal_scan(tr, fields, depth=2, s=0.0)
    # empty word + 2 words of length 1 + 4 of length 2
    assert len(table) == 7
    assert "" in table and "TDt,Rl[0]" in table
    base = conormal_scan(tr, fields, depth=0, s=0.0)
    assert set(base) == {""}
    with pytest.raises(ParameterError):
        conormal_scan(tr, fields, depth=3, s=0.0)


def test_smooth_scan_entries_comparable():
    g = Grid(1, (64,), 4.0)
    times = np.linspace(0, 1, 33)
    tr = make_trajectory(g, times, lambda t, x: np.exp(-(x**2)) * (1 + 0.5 * t))
    fields = [VectorFieldId("Vhalf", m=1), VectorFieldId("TDt")]
    table = conormal_scan(tr, fields, depth=2, s=0.0)
    base = table[""]
    for word, norm in table.items():
        depth = 0 if not word else word.count(",") + 1
        bound = 10 if depth <= 1 else 50
        assert norm < bound * base, word


def test_ridge_extract_peaks():
    g = Grid(1, (256,), 4.0)
    times = np.array([0.0, 0.5, 1.0])

    def two_bumps(t, x):
        # periodic-compatible well with steep walls at x = +/- 1
        return np.tanh(20 * (x - 1.0)) - np.tanh(20 * (x + 1.0))

    tr = make_trajectory(g, times, two_bumps)
    pts = ridge_extract(tr)
    xs = sorted({round(p[1][0], 2) for p in pts})
    cell = 2 * g.L / 256
    assert any(abs(x - 1.0) <= 2 * cell for x in xs)
    assert any(abs(x + 1.0) <= 2 * cell for x in xs)
    # smooth wide data has no sharp ridge above threshold besides its maxima;
    # a constant snapshot yields no points at all
    flat = make_trajectory(g, times, lambda t, x: np.ones_like(x))
    assert ridge_extract(flat) == []


def test_fit_power_law():
    ts = np.geomspace(1e-3, 1.0, 20)
    fit = fit_power_law(ts, ts**-0.5)
    assert fit.exponent == pytest.approx(-0.5, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    flat = fit_power_law(ts, np.full(20, 2.0))
    assert flat.exponent == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DomainError):
        fit_power_law(ts[:3], ts[:3])
    with pytest.raises(DomainError):
        fit_power_law(ts, -(ts**2))


def test_fit_power_law_rejects_non_finite():
    ts = np.geomspace(1e-3, 1.0, 20)
    for bad in (np.nan, np.inf):
        values = ts**-0.5
        values[7] = bad
        with pytest.raises(DomainError):
            fit_power_law(ts, values)
        times = ts.copy()
        times[7] = bad
        with pytest.raises(DomainError):
            fit_power_law(times, ts**-0.5)


def test_threshold_formulas():
    assert decay_exponent(2) == pytest.approx(-0.5)


def test_exports(tmp_path):
    # the ridge, the scan and the fit are exported by the CLI subcommands
    spec = tmp_path / "smooth.txt"
    spec.write_text("family = smooth\nsmooth_amp = 1.0\nsmooth_width = 0.4\n")
    run, probe, rates = (str(tmp_path / d) for d in ("run", "probe", "rates"))
    assert main(["solve", "linear", "--N", "16", "--n-t", "9",
                 "--data", str(spec), "--out", run]) == 0
    assert main(["probe", "--traj", run, "--out", probe,
                 "--fields", "TDt"]) == 0
    assert (tmp_path / "probe" / "ridge.csv").exists()
    assert (tmp_path / "probe" / "ridge.csv.gp").exists()
    text = (tmp_path / "probe" / "scan.csv").read_text()
    assert "(id)" in text and "TDt" in text
    assert main(["rates", "--N", "64", "--n-t", "7", "--out", rates]) == 0
    assert len((tmp_path / "rates" / "fits.csv").read_text().strip()
               .splitlines()) == 2


# reference: Z u applied term by term in physical space --------------------


def _reference_terms(fid, n):
    """(coefficient(t, coords), slot) pairs of each field, written out."""
    m = fid.m
    if fid.name == "V0":
        return [(lambda t, c: 2.0 * t, "t")] + [
            (lambda t, c, i=i: (m + 2) * c[i], i) for i in range(n)]
    if fid.name == "Vbar":
        l = fid.indices[0]
        return [(lambda t, c: 2.0 * t ** (m / 2 + 1), l),
                (lambda t, c: (m + 2) * c[l] * t ** (-m / 2), "t")]
    if fid.name == "L":
        i, j = fid.indices
        return [(lambda t, c: c[i], j), (lambda t, c: -c[j], i)]
    if fid.name == "Vhalf":
        return [(lambda t, c: 2.0 * t, "t"), (lambda t, c: (m + 2) * c[0], 0)]
    if fid.name in ("TDt", "N3"):
        return [(lambda t, c: t, "t")]
    if fid.name == "Rl":
        return [(lambda t, c: np.ones_like(c[0]), fid.indices[0])]
    if fid.name == "N1":
        return [(lambda t, c: c[0], "t")]
    if fid.name == "N2":
        sgn = float(fid.indices[0])
        return [(lambda t, c: c[0] - sgn * 2.0 / (m + 2) * t ** ((m + 2) / 2), 0)]
    return [(lambda t, c: t ** ((m + 2) / 2), 0)]  # N4


def _reference_time_derivative(stack, h):
    nt = stack.shape[0]
    out = np.empty_like(stack)
    out[2:-2] = (-stack[4:] + 8 * stack[3:-1] - 8 * stack[1:-3] + stack[:-4]) / (12 * h)
    fwd = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12 * h)
    for i in (0, 1):
        out[i] = sum(c * stack[i + k] for k, c in enumerate(fwd))
        out[nt - 1 - i] = -sum(c * stack[nt - 1 - i - k] for k, c in enumerate(fwd))
    return out


def _reference_apply(fid, traj, full=None):
    """The full spectra of Z u: every term's derivative through its own
    inverse FFT, the t-slot by differencing u in physical space, one
    forward FFT per field.  u is given by full, its full spectra, or else
    by traj's half spectra completed exactly.  A field singular at t = 0
    acts from the first time >= 4h on."""
    grid, times = traj.grid, traj.times
    if full is None:
        full = hermitian_completion(traj.u, grid)
    h = float(times[1] - times[0])
    start = int(np.searchsorted(times, 4.0 * h)) if fid.singular_at_zero else 0
    t = times[start:].reshape((-1,) + (1,) * grid.n)
    coords = grid.coords()
    dt_phys = _reference_time_derivative(dft_inverse(full, grid), h)[start:]
    out = np.zeros_like(full)
    for coeff, slot in _reference_terms(fid, grid.n):
        if slot == "t":
            d = dt_phys
        else:
            d = dft_inverse(full_derivative(grid, full[start:], slot), grid)
        out[start:] += coeff(t, coords) * d
    return dft_forward(out, grid)


def _applied(fid, traj):
    """The full spectra of apply_vector_field's half word, completed."""
    return hermitian_completion(apply_vector_field(fid, traj).u, traj.grid)


def _busy_trajectory(n, N, n_t):
    """A drifting bump with a t-dependent ripple: every slot is non-zero."""
    g = Grid(n, (N,) * n, 2.0)
    c = g.coords()
    times = np.linspace(0.0, 1.0, n_t)
    u = np.stack([
        half_forward(np.exp(-sum((x - 0.3 * t) ** 2 for x in c)) * (1 + t * t)
                     + 0.1 * np.sin(c[0]) * t ** 3, g)
        for t in times])
    return SpectralTrajectory(g, times, u)


def _full_bytes(tr):
    """The bytes of tr's full spectra, n_t * prod(sizes) * 16: the memory
    bounds below were set against this denominator."""
    return len(tr.times) * int(np.prod(tr.grid.sizes)) * 16


def _alphabet(n, m):
    fields = [VectorFieldId("V0", m=m), VectorFieldId("Vhalf", m=m),
              VectorFieldId("TDt", m=m), VectorFieldId("N1", m=m),
              VectorFieldId("N2", (1,), m=m), VectorFieldId("N2", (-1,), m=m),
              VectorFieldId("N3", m=m), VectorFieldId("N4", m=m)]
    fields += [VectorFieldId("Vbar", (l,), m=m) for l in range(n)]
    fields += [VectorFieldId("Rl", (l,), m=m) for l in range(n)]
    if n > 1:
        fields.append(VectorFieldId("L", (0, n - 1), m=m))
    return fields


_SIZES = {1: 64, 2: 32, 3: 16}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_apply_vector_field_matches_reference(n):
    tr = _busy_trajectory(n, _SIZES[n], 17)
    for m in (1, 2):
        for fid in _alphabet(n, m):
            got = _applied(fid, tr)
            ref = _reference_apply(fid, tr)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), \
                (m, fid.label())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_conormal_scan_matches_reference(n):
    # a depth-2 word differences twice in t, which scales round-off by about
    # 1/h^2, so the time grid stays coarse enough for a 1e-12 comparison
    tr = _busy_trajectory(n, _SIZES[n], 9)
    fields = [VectorFieldId("V0", m=1), VectorFieldId("Vbar", (n - 1,), m=1),
              VectorFieldId("N1", m=1), VectorFieldId("N2", (-1,), m=1),
              VectorFieldId("Rl", (0,), m=1)]
    if n > 1:
        fields.append(VectorFieldId("L", (0, 1), m=1))
    table = conormal_scan(tr, fields, depth=2, s=0.5)
    keep = tr.times >= 4.0 * (tr.times[1] - tr.times[0])
    level1 = {f.label(): _reference_apply(f, tr) for f in fields}
    level2 = {a + "," + f.label(): _reference_apply(f, tr, full=z)
              for a, z in level1.items() for f in fields}
    expected = {"": hermitian_completion(tr.u, tr.grid), **level1, **level2}
    assert list(table) == list(expected)  # words by length, as they always were
    for word, ref in expected.items():
        want = float(np.max(full_sobolev_norm(tr.grid, ref, 0.5)[keep]))
        assert table[word] == pytest.approx(want, rel=1e-12, abs=0.0), word


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scan_words_equal_fresh_applications(n):
    # the scan overwrites its buffers word after word; every norm must be
    # the one of the same word built by fresh one-field applications
    tr = _busy_trajectory(n, _SIZES[n] // 2, 9)
    fields = [VectorFieldId("V0"), VectorFieldId("TDt"),
              VectorFieldId("Vbar", (0,)), VectorFieldId("N2", (1,)),
              VectorFieldId("Rl", (n - 1,))]
    if n > 1:
        fields.append(VectorFieldId("L", (0, 1)))
    table = conormal_scan(tr, fields, depth=2, s=0.5)
    keep = tr.times >= 4.0 * (tr.times[1] - tr.times[0])

    def sup(z):  # the scan's own norm, on the half spectrum
        return float(np.max(sobolev_norm(z.u, z.grid, 0.5)[keep]))

    for a in fields:
        za = apply_vector_field(a, tr)
        assert table[a.label()] == sup(za)
        for b in fields:
            assert table[a.label() + "," + b.label()] \
                == sup(apply_vector_field(b, za))


_PROBE_2D_FIELDS = [VectorFieldId("V0"), VectorFieldId("TDt"),
                    VectorFieldId("Vbar", (0,)), VectorFieldId("Rl", (1,))]
# V0 and L[0,1] both read d0 and d1 with an x factor
_SHARED_FIELDS = [VectorFieldId("V0"), VectorFieldId("L", (0, 1)),
                  VectorFieldId("Vbar", (0,))]


def _count_transforms(monkeypatch, fields):
    """Every half_inverse and half_forward of a depth-2 2-D scan."""
    import cuspwave.probe as probe

    calls = []
    for name in ("half_inverse", "half_forward"):
        real = getattr(probe, name)
        monkeypatch.setattr(
            probe, name,
            lambda *args, real=real, name=name, **kwargs:
            calls.append(name) or real(*args, **kwargs))
    conormal_scan(_busy_trajectory(2, 16, 9), fields, depth=2, s=0.0)
    return len(calls)


def test_scan_transform_count(monkeypatch):
    # the probe-2d alphabet: one inverse FFT per derivative slot per input
    # (d0, d1, dt) and one forward FFT per x-weighted field (V0, Vbar)
    assert _count_transforms(monkeypatch, _PROBE_2D_FIELDS) <= 25


def test_scan_transform_count_with_shared_slots(monkeypatch):
    # each x-weighted term inverts its own derivative: 5 inverse FFTs (d0
    # and d1 for V0, d1 and d0 for L, dt for Vbar) and 3 forward FFTs (V0,
    # L, Vbar) for the trajectory and each of its 3 first words
    assert _count_transforms(monkeypatch, _SHARED_FIELDS) == 32


def _scan_peak(fields):
    """Peak traced bytes of a depth-2 2-D scan over the bytes of the
    trajectory's full spectra."""
    tr = _busy_trajectory(2, 32, 33)
    conormal_scan(tr, fields, depth=1, s=0.0)  # warm the grid caches
    tracemalloc.start()
    try:
        conormal_scan(tr, fields, depth=2, s=0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / _full_bytes(tr)


def test_scan_memory_is_bounded():
    # arrays of half the full spectra's size: the time difference of the
    # input, one first-level word and its time difference, the last words'
    # half spectrum, the real accumulator and scratch, the half-spectrum
    # scratch and the norm's real temporary, with numpy's fixed 64 kB ufunc
    # buffer: 4.08 full trajectories measured (4.2 when the probe checked
    # its input itself), bound with a margin of 0.9
    assert _scan_peak(_PROBE_2D_FIELDS) <= 5


def test_scan_memory_with_shared_slots():
    # each x-weighted term inverts its derivative into the shared scratch,
    # so slots read by two terms add no array: 4.07 measured
    assert _scan_peak(_SHARED_FIELDS) <= 5 + 2 * 2 * 0.5


def test_scan_frees_its_buffers_on_return():
    # the scan's buffers go when it returns, without waiting for the cyclic
    # garbage collector: of two scans 0.04 trajectories are left (their
    # results and tracemalloc's own records), where buffers kept alive by
    # a reference cycle leave 7.4
    tr = _busy_trajectory(2, 32, 33)
    conormal_scan(tr, _PROBE_2D_FIELDS, depth=2, s=0.0)  # warm the grid caches
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for _ in range(2):
            conormal_scan(tr, _PROBE_2D_FIELDS, depth=2, s=0.0)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert current < 0.1 * _full_bytes(tr)


def test_ridge_memory_is_bounded():
    # |grad u| accumulates in one real array while each derivative is taken
    # in one half-spectrum buffer and inverted into one real buffer, where it
    # is squared: 1.58 full trajectories measured (1.64 when the ridge
    # checked its input itself), bound with a margin of 0.42
    tr = _busy_trajectory(2, 64, 33)
    ridge_extract(tr)  # warm the grid caches
    tracemalloc.start()
    try:
        ridge_extract(tr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / _full_bytes(tr) <= 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_applied_words_are_exactly_hermitian(n):
    # every field works on the half spectrum and keeps its exactly
    # Hermitian edge columns, so the completed words and words of words of
    # a real trajectory are spectra of real fields
    tr = _busy_trajectory(n, _SIZES[n] // 2, 9)
    for fid in _alphabet(n, 1):
        z = apply_vector_field(fid, tr)
        for word in (z, apply_vector_field(VectorFieldId("V0"), z)):
            full = hermitian_completion(word.u, tr.grid)
            assert np.array_equal(full, np.conj(negated(full, tr.grid.axes))), \
                fid.label()


def test_non_real_trajectory_is_rejected(tmp_path):
    # a stored trajectory is checked as it is loaded, before any probe
    tr = _busy_trajectory(2, 16, 9)
    full = hermitian_completion(tr.u, tr.grid)
    bad = full.copy()
    bad[5, 1, 2] += 1e-6 * np.max(np.abs(full))  # its twin at (-1, -2) stays
    write_full_spectra(str(tmp_path / "bad"), tr.grid, tr.times, bad)
    with pytest.raises(DomainError, match=r"time level 5 \(t = 0\.625\)"):
        load_trajectory(tmp_path / "bad")
    # rounding stays below the 1e-12 tolerance
    bad[5, 1, 2] = full[5, 1, 2] + 1e-14 * np.max(np.abs(full))
    write_full_spectra(str(tmp_path / "ok"), tr.grid, tr.times, bad)
    loaded = load_trajectory(tmp_path / "ok")
    assert np.array_equal(loaded.u, bad[..., :9])
    ridge_extract(loaded)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ridge_neighbours_wrap_periodically(n):
    # the rolled-copy neighbour test is the reference; the data are shifted
    # so that the last level's strongest gradient sits in the grid's corner
    tr = _busy_trajectory(n, _SIZES[n], 5)
    mag = gradient_magnitude(tr.u, tr.grid)
    corner = np.unravel_index(np.argmax(mag[-1]), mag.shape[1:])
    phys = np.roll(dft_inverse(tr.u, tr.grid).real,
                   [-k for k in corner], axis=tr.grid.axes)
    tr = SpectralTrajectory(tr.grid, tr.times, half_forward(phys, tr.grid))
    mag = gradient_magnitude(tr.u, tr.grid)
    is_max = mag > 0.1 * np.max(mag, axis=tr.grid.axes, keepdims=True)
    for axis in tr.grid.axes:
        is_max &= (mag >= np.roll(mag, 1, axis=axis)) \
            & (mag >= np.roll(mag, -1, axis=axis))
    coords = [tr.grid.axis_coords(a) for a in range(n)]
    want = [(float(tr.times[i[0]]),
             tuple(float(coords[a][k]) for a, k in enumerate(i[1:])))
            for i in np.argwhere(is_max)]
    got = [(t, x) for t, x, _ in ridge_extract(tr, threshold=0.1)]
    assert got == want
    assert (1.0, tuple(float(c[0]) for c in coords)) in want


@pytest.mark.parametrize("n_t, ok", [(5, False), (6, True)])
def test_time_derivative_needs_six_levels(n_t, ok):
    tr = _busy_trajectory(1, 16, n_t)
    if not ok:
        with pytest.raises(DomainError, match="6 snapshots"):
            apply_vector_field(VectorFieldId("TDt"), tr)
        return
    got = _applied(VectorFieldId("TDt"), tr)
    ref = _reference_apply(VectorFieldId("TDt"), tr)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_scan_checks_its_time_grid_at_every_depth(depth):
    # words are measured from level 4 on, so a scan needs 5 uniform levels
    # before it takes any norm, also at depth 0
    fields = [VectorFieldId("Rl", (0,)), VectorFieldId("Vbar", (0,))]
    for n_t in (1, 2, 3, 4):
        with pytest.raises(DomainError, match=f"at least 5 time levels, got {n_t}$"):
            conormal_scan(_busy_trajectory(1, 16, n_t), fields, depth, s=0.0)
    tr = _busy_trajectory(1, 16, 9)
    uneven = SpectralTrajectory(tr.grid, np.linspace(0.0, 1.0, 9) ** 2, tr.u)
    with pytest.raises(DomainError, match="time steps differ"):
        conormal_scan(uneven, fields, depth, s=0.0)
    tr = _busy_trajectory(1, 16, 5)  # too few for Vbar's time difference
    table = conormal_scan(tr, fields[:1], depth, s=0.0)
    assert table[""] == pytest.approx(sobolev_norm(tr.u[4], tr.grid, 0.0), rel=1e-15)


def test_field_checks_its_time_grid():
    fid = VectorFieldId("Vbar", (0,))
    with pytest.raises(DomainError, match="at least 5 time levels, got 3"):
        apply_vector_field(fid, _busy_trajectory(1, 16, 3))
    tr = _busy_trajectory(1, 16, 9)
    uneven = SpectralTrajectory(tr.grid, np.linspace(0.0, 1.0, 9) ** 2, tr.u)
    with pytest.raises(DomainError, match="time steps differ"):
        apply_vector_field(fid, uneven)


def test_scan_rejects_non_finite_index():
    tr = _busy_trajectory(1, 16, 9)
    for s in (np.nan, np.inf):
        with pytest.raises(ParameterError):
            conormal_scan(tr, _PROBE_2D_FIELDS[:2], depth=1, s=s)
        with pytest.raises(ParameterError):
            ridge_extract(tr, threshold=s)
