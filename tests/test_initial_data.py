import tracemalloc

import numpy as np
import pytest

from cuspwave.errors import DomainError, ParameterError, ParseError
from cuspwave.initial_data import (
    FAMILIES,
    AngularTerm,
    BumpSpec,
    InitialDataSpec,
    bump,
    make_a1,
    make_a2,
    make_smooth,
    parse_data_spec,
)
from cuspwave.spectral import Grid, half_forward, sobolev_norm

from oracles import dft_forward, xi_norm


def a1_spec(left_amp=0.0, right_amp=1.0, width=1.0):
    return InitialDataSpec(
        "A1",
        left=BumpSpec(amplitude=left_amp, width=width),
        right=BumpSpec(amplitude=right_amp, width=width),
    )


def test_bump_support_and_smoothness():
    r = np.linspace(-2, 2, 401)
    v = bump(r, 1.0)
    assert np.all(v[np.abs(r) >= 1.0] == 0)
    assert v[200] == pytest.approx(1.0)  # value at center equals amplitude
    assert np.all(v >= 0)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_maker_field_holds_eight_bytes_per_sample(family):
    # the samples of real data are float64, not a complex copy of twice
    # the size: what the returned Field keeps alive is its samples
    g = Grid(2, (256, 256), 4.0)
    spec = parse_data_spec("family = %s\n" % family)
    tracemalloc.start()
    try:
        f = FAMILIES[family][0](spec, g)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    samples = 256 * 256
    assert f.values.dtype == np.float64 and f.values.nbytes == 8 * samples
    assert kept <= 8 * samples + 4096


def test_a1_jump_height():
    g = Grid(1, (256,), 4.0)
    f = make_a1(a1_spec(), g)
    x = g.axis_coords(0)
    i0 = int(np.argmin(np.abs(x)))
    # x=0 carries the right-limit value and the left neighbor the left value
    assert f.values[i0].real == pytest.approx(bump(0.0, 1.0), rel=1e-12)
    assert abs(f.values[i0 - 1]) < 0.05  # left side near 0 is tiny but smooth
    # jump magnitude equals the component difference at the interface
    jump = f.values[i0].real - bump(x[i0 - 1], 1.0, 0.0)
    assert jump == pytest.approx(1.0, abs=1e-10)


def test_a1_no_jump_warns():
    g = Grid(1, (64,), 4.0)
    same = InitialDataSpec("A1", left=BumpSpec(1.0, 1.0), right=BumpSpec(1.0, 1.0))
    with pytest.warns(UserWarning):
        make_a1(same, g)


def test_a1_sobolev_threshold():
    # under refinement the H^0.45 increments shrink (convergent tail) while
    # the H^0.55 increments grow (divergent tail past the jump threshold)
    n45, n55 = [], []
    for N in (256, 1024, 4096, 16384):
        g = Grid(1, (N,), 4.0)
        fh = half_forward(make_a1(a1_spec(), g).values, g)
        n45.append(sobolev_norm(fh, g, 0.45))
        n55.append(sobolev_norm(fh, g, 0.55))
    d45 = np.diff(n45)
    d55 = np.diff(n55)
    assert np.all(d45 > 0) and np.all(np.diff(d45) < 0)
    assert np.all(d55 > 0) and np.all(np.diff(d55) > 0)


def test_a2_constant_profile_is_radial():
    g = Grid(2, (64, 64), 4.0)
    spec = InitialDataSpec(
        "A2", radial=BumpSpec(2.0, 1.5), angular=(AngularTerm(0, 1.0, 0.0),)
    )
    f = make_a2(spec, g)
    X, Y = g.coords()
    ref = 2.0 * bump(np.sqrt(X**2 + Y**2), 1.5)
    assert np.max(np.abs(f.values.real - ref)) < 1e-12


def test_a2_origin_average_and_refinement():
    spec = InitialDataSpec(
        "A2", radial=BumpSpec(1.0, 1.5), angular=(AngularTerm(1, 1.0, 0.0),)
    )
    g = Grid(2, (64, 64), 4.0)
    f = make_a2(spec, g)
    o = (np.argmin(np.abs(g.axis_coords(0))), np.argmin(np.abs(g.axis_coords(1))))
    assert f.values[o] == 0.0  # mean of cos(theta) over the circle
    # pointwise sampling is grid-independent away from the origin
    g2 = Grid(2, (128, 128), 4.0)
    f2 = make_a2(spec, g2)
    x = g.axis_coords(0)[40]
    y = g.axis_coords(1)[44]
    i2 = (np.argmin(np.abs(g2.axis_coords(0) - x)), np.argmin(np.abs(g2.axis_coords(1) - y)))
    assert f2.values[i2] == pytest.approx(f.values[40, 44], rel=1e-12)


def test_a2_fourier_decay_exponent():
    # |phi_hat| should fall off like (1+ln|xi|)/|xi|^n in n=2
    spec = InitialDataSpec(
        "A2", radial=BumpSpec(1.0, 1.5), angular=(AngularTerm(1, 1.0, 0.0),)
    )
    g = Grid(2, (512, 512), 4.0)
    fh = dft_forward(make_a2(spec, g).values, g)
    rho = xi_norm(g)
    mag = np.abs(fh)
    sel = (rho >= 10.0) & (rho <= 100.0) & (mag > 0)
    logr = np.log(rho[sel])
    # remove the logarithmic factor before fitting the power
    logm = np.log(mag[sel]) - np.log1p(logr)
    # bin-average to tame angular oscillation
    nb = 20
    edges = np.linspace(np.log(10), np.log(100), nb + 1)
    idx = np.digitize(logr, edges) - 1
    lx, ly = [], []
    for b in range(nb):
        m = idx == b
        if m.sum() > 5:
            lx.append(logr[m].mean())
            ly.append(logm[m].mean())
    slope = np.polyfit(lx, ly, 1)[0]
    assert slope == pytest.approx(-2.0, rel=0.15)


def test_heaviside_split_no_jump():
    # the grid is symmetric about x = 0, so the odd part of real data is
    # the imaginary part of its spectrum
    g = Grid(1, (256,), 4.0)
    spec = InitialDataSpec("A1", left=BumpSpec(1.0, 1.0), right=BumpSpec(1.0, 1.0))
    with pytest.warns(UserWarning, match="no jump"):
        odd = dft_forward(make_a1(spec, g).values, g).imag
    assert np.max(np.abs(odd)) < 1e-12


def test_heaviside_split_tail():
    # the odd part sign(x1) (phi1 - phi2)/2 carries the slow 1/xi tail of
    # the jump
    g = Grid(1, (2048,), 4.0)
    odd = dft_forward(make_a1(a1_spec(), g).values, g).imag
    xi = g.axis_xi(0)
    sel = (xi > 20) & (xi < 200)
    slope = np.polyfit(np.log(xi[sel]), np.log(np.abs(odd[sel])), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.15)


def test_spec_validation():
    with pytest.raises(ParameterError):
        InitialDataSpec("A5")
    with pytest.raises(ParameterError):
        InitialDataSpec("A1", left=BumpSpec())
    with pytest.raises(DomainError):
        make_a1(InitialDataSpec("smooth", smooth=BumpSpec()), Grid(1, (8,), 1.0))
    for amplitude, width in [(np.nan, 1.0), (np.inf, 1.0), (1.0, 0.0),
                             (1.0, -1.0), (1.0, np.nan), (1.0, np.inf)]:
        with pytest.raises(ParameterError):
            BumpSpec(amplitude, width)


def test_smooth_family():
    g = Grid(1, (128,), 4.0)
    f = make_smooth(InitialDataSpec("smooth", smooth=BumpSpec(2.0, 1.0)), g)
    x = g.axis_coords(0)
    assert np.max(np.abs(f.values.real - bump(x, 1.0, 2.0))) < 1e-14


def test_parse_data_spec():
    spec = parse_data_spec(
        """
        # jump data
        family = A1
        right_amp = 2.0
        right_width = 0.5
        """
    )
    assert spec.family == "A1"
    assert spec.right.amplitude == 2.0 and spec.right.width == 0.5
    assert spec.left.amplitude == 0.0

    a2 = parse_data_spec("family=A2\nradial_width=1.5\nangular=1:1.0:0.0,3:0.5:0.2")
    assert a2.family == "A2" and len(a2.angular) == 2
    assert a2.angular[1] == AngularTerm(3, 0.5, 0.2)

    # each error names the line and column it found, or None where the
    # error has no place (a missing key), and the file it was given
    for text, place in [("family", (1, 1)),
                        ("# comment\n  family = A9", (2, 12)),
                        ("family=A2\nangular=1:2", (2, 9)),
                        ("right_amp=1.0", (None, None))]:
        with pytest.raises(ParseError) as ei:
            parse_data_spec(text, path="spec.txt")
        assert (ei.value.line, ei.value.column) == place
        assert ei.value.path == "spec.txt"


_ALL_KEYS = set().union(*(keys for _, keys in FAMILIES.values()))
# each family with every key of another family, and a misspelt key of none
_FOREIGN = [(family, key) for family, (_, keys) in FAMILIES.items()
            for key in sorted(_ALL_KEYS - set(keys)) + ["rigth_amp"]]


@pytest.mark.parametrize("family, key", _FOREIGN,
                         ids=["%s-%s" % pair for pair in _FOREIGN])
def test_key_of_another_family_is_rejected_at_its_line(family, key):
    text = "family = %s\n# not this family's\n  %s = 1.0\n" % (family, key)
    with pytest.raises(ParseError) as ei:
        parse_data_spec(text, path="spec.txt")
    assert (ei.value.line, ei.value.column, ei.value.path) == (3, 3, "spec.txt")
    assert repr(key) in str(ei.value)

