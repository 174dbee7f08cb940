"""Per-frequency fundamental pair of d_t^2 + t^m rho^2 on the Fourier side.

V1 and V2 are the solutions normalized to data (1, 0) and (0, 1) at t=0.
With nu = 1/(m+2) and phi = 2 t^((m+2)/2) rho/(m+2) they are real Bessel
functions (the Kummer-Bessel relation of DLMF 13.6 for Phi(a, 2a; 2i phi)):

    V1 = Gamma(1-nu) (phi/2)^nu J_{-nu}(phi)
    V2 = t Gamma(1+nu) (phi/2)^(-nu) J_nu(phi)

and the time derivatives follow from d/dphi [phi^(-mu) J_mu] =
-phi^(-mu) J_{mu+1} with dphi/dt = t^(m/2) rho.  The pair depends on the
frequency only through rho = |xi|, so a grid table is evaluated once per
radial shell (see linear_solver.propagator_table).
"""

from __future__ import annotations

import numpy as np
from scipy.special import gamma, jv

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


def sample_arrays(m: int, t, rho):
    """Vectorised real (v1, v2, dt_v1, dt_v2) over broadcastable t, rho arrays."""
    _check_args(m, t, rho)
    t, rho = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(rho, dtype=float))
    nu = 1.0 / (m + 2)
    s = t ** (0.5 * (m + 2)) * rho
    phi = 2 * nu * s
    # rho = 0 or t = 0 gives the exact pair (1, t), and so does phi below the
    # smallest normal double, to double precision; jv underflows there.
    # phi = 1 keeps the discarded values finite
    zero = phi < np.finfo(float).tiny
    phi = np.where(zero, 1.0, phi)
    up = gamma(1 - nu) * (0.5 * phi) ** nu
    down = gamma(1 + nu) * (0.5 * phi) ** -nu
    j = jv(nu, phi)
    j1 = jv(1 - nu, phi)
    # J_{-nu} = (2(1-nu)/phi) J_{1-nu} - J_{2-nu} (DLMF 10.6.1), which spares
    # the slower negative-order evaluation
    v1 = up * (2 * (1 - nu) / phi * j1 - jv(2 - nu, phi))
    v2 = t * down * j
    dt_v1 = -up * j1 * t ** (0.5 * m) * rho
    dt_v2 = down * (j - s * jv(1 + nu, phi))
    if np.any(zero):
        v1 = np.where(zero, 1.0, v1)
        v2 = np.where(zero, t, v2)
        dt_v1 = np.where(zero, 0.0, dt_v1)
        dt_v2 = np.where(zero, 1.0, dt_v2)
    return v1, v2, dt_v1, dt_v2
