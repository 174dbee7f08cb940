"""Per-frequency fundamental pair of d_t^2 + t^m rho^2 on the Fourier side.

V1 and V2 are the solutions normalized to data (1, 0) and (0, 1) at t=0.
With nu = 1/(m+2) and phi = 2 t^((m+2)/2) rho/(m+2) they are real Bessel
functions (the Kummer-Bessel relation of DLMF 13.6 for Phi(a, 2a; 2i phi)):

    V1 = Gamma(1-nu) (phi/2)^nu J_{-nu}(phi)
    V2 = t Gamma(1+nu) (phi/2)^(-nu) J_nu(phi)

and the time derivatives follow from d/dphi [phi^(-mu) J_mu] =
-phi^(-mu) J_{mu+1} with dphi/dt = t^(m/2) rho.  The pair depends on the
frequency only through rho = |xi|, so a grid table is evaluated once per
radial shell (see linear_solver.propagator_table).  The Bessel functions
are evaluated in numpy by _j_pair.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ParameterError


def _check_args(m: int, t, rho) -> None:
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise ParameterError(f"degeneracy order m must be a positive integer, got {m!r}")
    for name, x in (("t", t), ("rho", rho)):
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise DomainError(f"{name} must be finite")
        if np.any(x < 0):
            raise DomainError(f"{name} must be nonnegative")


# _j_pair's regimes: the power series for x <= _SERIES_MAX, Miller's backward
# recurrence up to _MILLER_MAX, Hankel's expansion above it
_SERIES_MAX, _MILLER_MAX = 2.0, 30.0
_SERIES_TERMS, _HANKEL_TERMS = 20, 24


def _series(mu: float, x: np.ndarray) -> np.ndarray:
    """J_mu(x) by its power series (DLMF 10.2.2), summed by Horner's rule."""
    z = -0.25 * x * x
    acc = np.ones_like(x)
    for k in range(_SERIES_TERMS, 0, -1):
        acc *= z / (k * (mu + k))
        acc += 1.0
    return (0.5 * x) ** mu / math.gamma(mu + 1) * acc


def _miller(mu: float, x: np.ndarray):
    """(J_mu(x), J_{mu+1}(x)) by Miller's algorithm: the backward recurrence
    J_{n-1} = (2n/x) J_n - J_{n+1} (DLMF 10.6.1), started from 0 and 1 at
    orders mu + K + 1 and mu + K for an even K >= max x + 40, normalised by
    the Neumann sum (x/2)^mu = sum_k (mu+2k) Gamma(mu+k)/k! J_{mu+2k}(x)
    (DLMF 10.23.15).  For 2 < x <= 30 the unnormalised values stay below
    about 1e100."""
    top = 2 * math.ceil((float(np.max(x)) + 40) / 2)
    # weights[k] = (mu+2k) Gamma(mu+k)/k!, with Gamma(mu+k)/k! updated by
    # the factor (mu+k)/(k+1)
    weights, g = [], math.gamma(mu)
    for k in range(top // 2 + 1):
        weights.append((mu + 2 * k) * g)
        g *= (mu + k) / (k + 1)
    two_over_x = 2.0 / x
    above, level = np.zeros_like(x), np.ones_like(x)  # offsets K+1 and K
    norm = weights[top // 2] * level
    for k in range(top, 0, -1):
        above, level = level, (mu + k) * two_over_x * level - above
        if k % 2 == 1:  # level now has the even offset k - 1
            norm += weights[(k - 1) // 2] * level
    scale = (0.5 * x) ** mu / norm
    return level * scale, above * scale


def _hankel_coefficients(mu: float) -> list[float]:
    """a_k(mu) = prod_{j=1..k} (4 mu^2 - (2j-1)^2) / (k! 8^k) (DLMF 10.17.1)."""
    out, a = [1.0], 1.0
    for k in range(1, _HANKEL_TERMS):
        a *= (4 * mu * mu - (2 * k - 1) ** 2) / (8 * k)
        out.append(a)
    return out


def _hankel(mu: float, x: np.ndarray):
    """(J_mu(x), J_{mu+1}(x)) by Hankel's expansion (DLMF 10.17.3)
    sqrt(2/(pi x)) (P cos w - Q sin w) with w = x - c, c = mu pi/2 + pi/4.

    cos w and sin w are formed from cos x and sin x, not from a rounded
    x - c, whose error grows with x (4.5e-10 at x = 4.5e6).  J_{mu+1} has
    phase w - pi/2, so its cos is sin w and its sin is -cos w.
    """
    y = 1.0 / x
    y2 = y * y
    c = 0.5 * math.pi * mu + 0.25 * math.pi
    cos_c, sin_c = math.cos(c), math.sin(c)
    cos_x, sin_x = np.cos(x), np.sin(x)
    cos_w = cos_x * cos_c + sin_x * sin_c
    sin_w = sin_x * cos_c - cos_x * sin_c
    amp = np.sqrt(2 / math.pi * y)
    out = []
    for order in (mu, mu + 1):
        a = _hankel_coefficients(order)
        p, q = np.zeros_like(x), np.zeros_like(x)
        for k in range(_HANKEL_TERMS // 2 - 1, -1, -1):
            sign = -1.0 if k % 2 else 1.0
            p *= y2
            p += sign * a[2 * k]
            q *= y2
            q += sign * a[2 * k + 1]
        q *= y
        out.append((p, q))
    (p0, q0), (p1, q1) = out
    return (amp * (p0 * cos_w - q0 * sin_w),
            amp * (p1 * sin_w + q1 * cos_w))


def _j_pair(mu: float, x: np.ndarray):
    """(J_mu(x), J_{mu+1}(x)) for 0 < mu < 2 and an array x > 0, in numpy
    only: the power series for x <= 2, Miller's algorithm for 2 < x <= 30
    and Hankel's expansion above."""
    x = np.asarray(x, dtype=float)
    j, j1 = np.empty_like(x), np.empty_like(x)
    low = x <= _SERIES_MAX
    high = x > _MILLER_MAX
    mid = ~(low | high)
    if np.any(low):
        j[low] = _series(mu, x[low])
        j1[low] = _series(mu + 1, x[low])
    if np.any(mid):
        j[mid], j1[mid] = _miller(mu, x[mid])
    if np.any(high):
        j[high], j1[high] = _hankel(mu, x[high])
    return j, j1


def sample_arrays(m: int, t, rho):
    """Vectorised real (v1, v2, dt_v1, dt_v2) over broadcastable t, rho arrays."""
    _check_args(m, t, rho)
    t, rho = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(rho, dtype=float))
    nu = 1.0 / (m + 2)
    s = t ** (0.5 * (m + 2)) * rho
    phi = 2 * nu * s
    # rho = 0 or t = 0 gives the exact pair (1, t), and so does phi below the
    # smallest normal double, to double precision; 2(1-nu)/phi overflows
    # there.  phi = 1 keeps the discarded values finite
    zero = phi < np.finfo(float).tiny
    phi = np.where(zero, 1.0, phi)
    up = math.gamma(1 - nu) * (0.5 * phi) ** nu
    down = math.gamma(1 + nu) * (0.5 * phi) ** -nu
    j, j_up = _j_pair(nu, phi)  # J_nu, J_{1+nu}
    j1, j2 = _j_pair(1 - nu, phi)  # J_{1-nu}, J_{2-nu}
    # J_{-nu} = (2(1-nu)/phi) J_{1-nu} - J_{2-nu} (DLMF 10.6.1), which spares
    # a negative-order evaluation
    v1 = up * (2 * (1 - nu) / phi * j1 - j2)
    v2 = t * down * j
    dt_v1 = -up * j1 * t ** (0.5 * m) * rho
    dt_v2 = down * (j - s * j_up)
    if np.any(zero):
        v1 = np.where(zero, 1.0, v1)
        v2 = np.where(zero, t, v2)
        dt_v1 = np.where(zero, 0.0, dt_v1)
        dt_v2 = np.where(zero, 1.0, dt_v2)
    return v1, v2, dt_v1, dt_v2
