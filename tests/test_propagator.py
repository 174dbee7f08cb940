"""Fundamental-pair sampler checked against three independent oracles:
a per-mode RK4 integration of u'' + t^m rho^2 u = 0, the Bessel-J
closed form for V1 (scipy's jv), and the confluent hypergeometric form
e^(-z/2) Phi(a, 2a; z) evaluated by mpmath at 60 digits.  The numpy
Bessel evaluator behind the sampler is checked against mpmath's besselj."""

import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gamma, jv

from cuspwave.errors import DomainError, ParameterError
from cuspwave.propagator import _j_pair, sample_arrays

from oracles import ode_residual


def rk4_pair(m, t_end, rho, n_steps=20000):
    """Integrate the pair ODE from 0 with classical RK4; returns V1, V2, dots."""

    def rhs(t, y):
        u1, du1, u2, du2 = y
        acc = -(t**m) * rho * rho
        return np.array([du1, acc * u1, du2, acc * u2])

    y = np.array([1.0, 0.0, 0.0, 1.0])
    h = t_end / n_steps
    t = 0.0
    for _ in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


CASES = [(1, 0.8, 4.0), (2, 0.5, 10.0), (3, 1.2, 3.0), (5, 0.9, 6.0)]


@pytest.mark.parametrize("m,t,rho", CASES)
def test_against_rk4(m, t, rho):
    v1, v2, dt_v1, dt_v2 = sample_arrays(m, t, rho)
    r1, dr1, r2, dr2 = rk4_pair(m, t, rho)
    assert v1.real == pytest.approx(r1, abs=2e-8)
    assert v2.real == pytest.approx(r2, abs=2e-8)
    assert dt_v1.real == pytest.approx(dr1, abs=2e-7)
    assert dt_v2.real == pytest.approx(dr2, abs=2e-7)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_bessel_identity(m):
    # V1(t, rho) = Gamma(1 - nu) (w/2)^nu J_{-nu}(w), nu = 1/(m+2),
    # w = (2/(m+2)) t^((m+2)/2) rho
    nu = 1.0 / (m + 2)
    for t, rho in [(0.4, 2.0), (1.0, 15.0), (0.3, 120.0)]:
        w = 2.0 / (m + 2) * t ** ((m + 2) / 2) * rho
        ref = gamma(1 - nu) * (w / 2) ** nu * jv(-nu, w)
        v1 = sample_arrays(m, t, rho)[0]
        assert v1.real == pytest.approx(ref, rel=1e-9, abs=1e-9)
        assert abs(v1.imag) < 1e-10 * max(1.0, abs(ref))


# log-spaced and uniform arguments, both sides of the regime switches at
# x = 2 and 30, and x near 4.5e6, where a phase formed as cos(x - c)
# loses 1e-10 to the rounding of x - c
BESSEL_X = np.unique(np.concatenate([
    np.geomspace(1e-12, 5e6, 90),
    np.linspace(0.0, 60.0, 121)[1:],
    [np.nextafter(c, c + d) for c in (2.0, 30.0) for d in (-1.0, 0.0, 1.0)],
    [4.5e6 - 0.3, 4.5e6, 4.5e6 + 0.7],
]))


@pytest.mark.parametrize("m", range(1, 9))
def test_j_pair_against_mpmath(m):
    # the error is measured against max(|J|, sqrt(2/(pi x))), the envelope
    # of J, so that zeros of J do not demand an infinite relative accuracy
    nu = 1.0 / (m + 2)
    with mp.workdps(40):
        for mu in (nu, 1 - nu):
            for order, got in zip((mu, mu + 1), _j_pair(mu, BESSEL_X)):
                for x, g in zip(BESSEL_X, got):
                    ref = mp.besselj(mp.mpf(order), mp.mpf(x))
                    env = max(abs(float(ref)), np.sqrt(2 / (np.pi * x)))
                    err = abs(float(mp.mpf(float(g)) - ref))
                    assert err <= 2e-14 * env, (m, order, x, g, ref)


def test_wronskian_normalisation():
    rng = np.random.default_rng(7)
    for m in (1, 2, 4):
        for _ in range(20):
            t = rng.uniform(0.05, 2.0)
            rho = rng.uniform(0.0, 200.0)
            v1, v2, dt_v1, dt_v2 = sample_arrays(m, t, rho)
            w = v1 * dt_v2 - v2 * dt_v1
            assert abs(w - 1.0) < 5e-9, (m, t, rho, w)


def test_degenerate_points():
    assert sample_arrays(3, 0.0, 9.0) == (1.0, 0.0, 0.0, 1.0)
    v1, v2, _, dt_v2 = sample_arrays(2, 1.7, 0.0)
    assert v1 == 1.0 and v2 == pytest.approx(1.7) and dt_v2 == 1.0


def test_vectorised_shapes_and_agreement():
    m = 2
    t = np.linspace(0.0, 1.0, 7)[:, None]
    rho = np.array([0.0, 3.0, 40.0])[None, :]
    v1, v2, dt_v1, dt_v2 = sample_arrays(m, t, rho)
    assert v1.shape == (7, 3)
    p1, _, _, p4 = sample_arrays(m, float(t[4, 0]), float(rho[0, 2]))
    assert v1[4, 2] == pytest.approx(p1, rel=1e-14)
    assert dt_v2[4, 2] == pytest.approx(p4, rel=1e-14)


def test_large_frequency_decay():
    # |V1| decays like (t^((m+2)/2) rho)^(-m/(2(m+2))); fit the exponent
    m = 2
    t = 1.0
    rhos = np.geomspace(1e4, 1e7, 5000)
    v1, _, _, _ = sample_arrays(m, np.full_like(rhos, t), rhos)
    mag = np.abs(v1)
    # RMS over log-spaced bins averages out the cosine oscillation
    nb = 30
    edges = np.linspace(np.log(rhos[0]), np.log(rhos[-1]), nb + 1)
    idx = np.digitize(np.log(rhos), edges) - 1
    lx, ly = [], []
    for b in range(nb):
        sel = idx == b
        if sel.sum() > 3:
            lx.append(np.log(rhos[sel]).mean())
            ly.append(0.5 * np.log((mag[sel] ** 2).mean()))
    slope = np.polyfit(lx, ly, 1)[0]
    assert slope == pytest.approx(-m / (2 * (m + 2)), abs=0.02)


def test_ode_residual_diagnostic():
    assert ode_residual(1, 0.6, 8.0, "v1") < 1e-5
    assert ode_residual(4, 1.1, 3.0, "v2") < 1e-5
    with pytest.raises(DomainError):
        ode_residual(1, 1e-6, 1.0)
    with pytest.raises(ParameterError):
        ode_residual(1, 0.5, 1.0, "v3")


def test_argument_validation():
    with pytest.raises(ParameterError):
        sample_arrays(0, 0.5, 1.0)
    with pytest.raises(DomainError):
        sample_arrays(1, -0.5, 1.0)
    with pytest.raises(DomainError):
        sample_arrays(1, 0.5, -1.0)
    for t, rho in ((np.nan, 1.0), (0.5, np.inf), (np.inf, 0.0), (0.5, np.nan)):
        with pytest.raises(DomainError):
            sample_arrays(1, t, rho)
    with pytest.raises(DomainError):
        sample_arrays(2, np.array([0.1, np.nan]), 3.0)
    with pytest.raises(DomainError):
        ode_residual(1, np.inf, 1.0)


# --- the confluent form, V = e^(-z/2) Phi(a, 2a; z) with z = 2i phi -----------
#
# V1 has a = m/(2(m+2)) and V2/t has a = (m+4)/(2(m+2)); the argument is
# z = (4i/(m+2)) t^((m+2)/2) rho.  The oracle is mpmath's hyp1f1 at 60 digits,
# evaluated at the exact double (t, rho) the sampler receives.

mp.mp.dps = 60

# imaginary-axis arguments z = iy, including both sides of |z| = 4 and 60,
# where _j_pair switches method (at phi = |z|/2 = 2 and 30), and of |z| = 8
# and 40, where a series/quadrature/asymptotic evaluator of Phi would switch
AXIS = [0.0, 4 / 3, -4 / 3, 5.0, 7.9, 8.1, 12.0, 25.0, 39.9, 40.1, 60.0, 100.0,
        1e4, -25.0, -100.0, 8 - 1e-6, 8 + 1e-6, 40 - 1e-6, 40 + 1e-6,
        4 - 1e-6, 4 + 1e-6, 60 - 1e-6, 60 + 1e-6]


def _confluent(m, t, rho, y):
    """(V1, V2/t, dt_V1, dt_V2) from hyp1f1, on the lower half axis if y < 0.

    dPhi/dz = (a/b) Phi(a+1, b+1; z), which is Phi(a+1, 2a+1; z)/2 here.
    """
    sign = -1 if y < 0 else 1
    tt, rr = mp.mpf(t), mp.mpf(rho)
    z = sign * 4j / (m + 2) * tt ** (mp.mpf(m + 2) / 2) * rr
    dz_dt = sign * 2j * tt ** (mp.mpf(m) / 2) * rr
    out = []
    for a in (mp.mpf(m) / (2 * (m + 2)), mp.mpf(m + 4) / (2 * (m + 2))):
        damp, f = mp.exp(-z / 2), mp.hyp1f1(a, 2 * a, z)
        df = mp.hyp1f1(a + 1, 2 * a + 1, z) / 2
        out.append((damp * f, damp * (df - f / 2) * dz_dt))
    (v1, dt_v1), (w2, dw2) = out
    return v1, w2, dt_v1, w2 + tt * dw2


def _axis_points(m):
    for t in (1.0, 0.37):
        for y in AXIS:
            yield t, abs(y) * (m + 2) / (4 * t ** ((m + 2) / 2)), y


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
def test_against_mpmath_on_axis(m):
    for t, rho, y in _axis_points(m):
        s_v1, s_v2, s_dt_v1, s_dt_v2 = sample_arrays(m, t, rho)
        v1, w2, dt_v1, dt_v2 = (complex(x) for x in _confluent(m, t, rho, y))
        assert abs(s_v1 - v1) <= 1e-12 * max(1.0, abs(v1)), (t, rho, s_v1, v1)
        assert abs(s_v2 / t - w2) <= 1e-12 * max(1.0, abs(w2)), (t, rho, s_v2, w2)
        # a derivative's size is set by omega = t^(m/2) rho times that of V,
        # so compare it at that envelope
        omega = t ** (m / 2) * rho
        for got, ref in ((s_dt_v1, dt_v1), (s_dt_v2, dt_v2)):
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref), omega), (t, rho, got, ref)


def test_pinned_value_a_sixth():
    # Phi(1/6, 1/3; 4i/3) computed with mpmath at 60 digits; V1 at m = 1,
    # t = 1, rho = 1 is e^(-2i/3) times it
    ref = complex(mp.hyp1f1(mp.mpf(1) / 6, mp.mpf(1) / 3, mp.mpc(0, mp.mpf(4) / 3)))
    val = np.exp(-2j / 3) * ref
    # the e^(-z/2) combination is real on the imaginary axis
    assert abs(val.imag) < 1e-13
    v1 = sample_arrays(1, 1.0, 1.0)[0]
    assert abs(v1 - val.real) < 1e-13
    assert abs(np.exp(2j / 3) * v1 - ref) < 1e-13


def test_pair_is_real_on_axis():
    # e^(-z/2) Phi(a, 2a; z) is real on the imaginary axis, which is what
    # lets the sampler return float64 arrays
    for m in (1, 2, 8):
        for t, rho, y in _axis_points(m):
            for ref in _confluent(m, t, rho, y):
                assert abs(ref.imag) <= 1e-40 * max(1.0, abs(ref)), (m, t, rho, ref)
    t = np.linspace(0.0, 1.0, 5)[:, None]
    for arr in sample_arrays(3, t, np.array([0.0, 2.0, 50.0])):
        assert arr.dtype == np.float64


def test_table_memory_is_bounded():
    # a (points x nodes) complex work array once made long solves run out
    # of memory; the closed form needs a few float arrays per point
    t = np.linspace(0.0, 1.0, 65)
    rho = np.linspace(0.0, 30.0, 400)
    sample_arrays(1, t[:, None], rho[None, :])  # warm up numpy
    tracemalloc.start()
    try:
        out = sample_arrays(1, t[:, None], rho[None, :])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out[0].shape == (65, 400)
    assert peak / (65 * 400) <= 256
