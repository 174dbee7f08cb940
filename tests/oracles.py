"""Independent oracles the tests check the package against, and the
helpers the tests share.

None of these is reached by a `cuspwave` command, so they live with the
tests: an RK4 integration of each Fourier mode, the finite-difference
residual of the propagator's ODE, the defining functions of the
characteristic sets where the paper places the singular support, the
self-similar plane front of the linear problem, the digests of the exact
catalog's rows and certificates, and the full complex DFT and its inverse
(the package itself transforms only real fields, to and from half
spectra).  The
oracles work on full spectra, as arrays; a test compares the package's
half spectra with them after spectral.hermitian_completion, which is
exact.
"""

from __future__ import annotations

import csv
import hashlib
import os
from dataclasses import dataclass

import numpy as np

from cuspwave.errors import DomainError, GridMismatchError, ParameterError
from cuspwave.opalg import certificate_text
from cuspwave.propagator import _check_args, sample_arrays
from cuspwave.spectral import (
    Field,
    check_times,
    hermitian_completion,
    require_same_grid,
    save_field,
)


def xi_norm(grid) -> np.ndarray:
    """|xi| on the full spectral grid (the package keeps only its half,
    Grid.half_xi_norm)."""
    mesh = np.meshgrid(*(grid.axis_xi(a) for a in range(grid.n)), indexing="ij")
    return np.sqrt(sum(x * x for x in mesh))


def dft_forward(values, grid) -> np.ndarray:
    """The orthonormal DFT of the samples values over grid's spatial axes:
    their full spectrum."""
    return np.fft.fftn(values, axes=grid.axes, norm="ortho")


def dft_inverse(values, grid) -> np.ndarray:
    """Inverse of dft_forward: the complex samples of the full spectrum
    values, or of a half spectrum, which is completed exactly first
    (spectral.hermitian_completion)."""
    if values.shape[-1] != grid.sizes[-1]:
        values = hermitian_completion(values, grid)
    return np.fft.ifftn(values, axes=grid.axes, norm="ortho")


def physical(values, grid) -> Field:
    """The physical Field of the real field whose full or half spectrum is
    values."""
    return Field(grid, dft_inverse(values, grid).real)


def snapshot(traj, t: float) -> np.ndarray:
    """The half spectrum of traj.u at the time t, which must be one of
    traj.times to 1e-12."""
    i = int(np.argmin(np.abs(traj.times - t)))
    if abs(traj.times[i] - t) > 1e-12 * max(1.0, abs(t)):
        raise DomainError(f"no snapshot at t={t}; nearest is {traj.times[i]}")
    return traj.u[i]


def contraction_ratio(report) -> float:
    """max d_i / d_(i-1) over i >= 2 with d_(i-1) > 0 of a PicardReport's
    iterate distances; NaN if there is none."""
    ds = report.iterate_distances
    ratios = [ds[i] / ds[i - 1] for i in range(2, len(ds)) if ds[i - 1] > 0]
    return max(ratios) if ratios else float("nan")


def zero_field(grid, space: str = "physical") -> Field:
    """The zero Field of the given space on grid."""
    return Field(grid, np.zeros(grid.sizes), space)


def real_mode(grid, k) -> Field:
    """The full spectrum of the real field cos(xi_k . x): the modes k and
    -k (the index tuple k negated modulo the sizes) each 1/2."""
    vals = np.zeros(grid.sizes, dtype=complex)
    k = tuple(np.atleast_1d(k))
    vals[k] += 0.5
    vals[tuple(-i % s for i, s in zip(k, grid.sizes))] += 0.5
    return Field(grid, vals, "spectral")


def full_derivative(grid, values, axis: int) -> np.ndarray:
    """i xi_axis * values for full spectra values, zero on the axis's
    Nyquist mode k = -N/2."""
    xi = grid.axis_xi(axis)
    xi[grid.sizes[axis] // 2] = 0.0
    shape = [1] * grid.n
    shape[axis] = len(xi)
    return 1j * xi.reshape(shape) * values


def full_sobolev_norm(grid, values, s: float):
    """The discrete H^s norm of full spectra values (one per time level of
    a stack): sqrt(sum (1+|xi|^2)^s |v|^2 * cell measure)."""
    density = (1.0 + xi_norm(grid) ** 2) ** s * np.abs(values) ** 2
    return np.sqrt(np.sum(density, axis=grid.axes) * grid.cell_measure)


def write_full_spectra(directory, grid, times, levels) -> None:
    """An export directory of the full spectra levels at times, one
    CWGRID1 file per level plus manifest.csv, in the layout that the
    probe-2d benchmark input is written in."""
    os.makedirs(directory)
    with open(os.path.join(directory, "manifest.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "file"])
        for i, (t, level) in enumerate(zip(times, levels)):
            name = "snapshot_%05d.cwgrid" % i
            save_field(os.path.join(directory, name), Field(grid, level, "spectral"))
            w.writerow([repr(float(t)), name])


def negated(a, axes):
    """a at the wavenumbers -k on the given axes."""
    for axis in axes:
        a = np.take(a, -np.arange(a.shape[axis]), axis=axis)
    return a


def rk4_oracle(m: int, phi1: Field, phi2: Field, forcing, times,
               substeps: int | None = None):
    """Independent check: classical RK4 on (u, v)' = (v, -t^m rho^2 u + F).

    phi1 and phi2 are Fields: full spectra, or physical data, which are
    transformed with dft_forward first; forcing is None or
    the full spectra of F at times, an array of shape (n_t, *sizes).  The
    forcing between stored samples is interpolated linearly in t.  The
    number of internal substeps per stored interval defaults to enough to
    resolve the fastest mode (period ~ 2 pi / (t^(m/2) rho_max)).  Returns
    the full spectra (u, d_t u) at times.
    """
    times = check_times(times)
    if len(times) < 2:
        raise ParameterError("rk4_oracle needs at least two time points")
    h0 = np.diff(times)
    if np.max(np.abs(h0 - h0[0])) > 1e-12 * h0[0]:
        raise ParameterError("rk4_oracle requires uniform times")
    grid = phi1.grid
    require_same_grid(phi1, phi2)
    rho = xi_norm(grid)
    rho2 = rho * rho
    t_end = times[-1]
    omega_max = t_end ** (m / 2) * float(np.max(rho))
    if substeps is None:
        substeps = int(max(16, min(4096, 40 * omega_max * h0[0])))

    if forcing is not None:
        if forcing.shape != (len(times),) + grid.sizes:
            raise GridMismatchError("forcing shape differs from the data's")
        f_times = times
        f_vals = forcing

        def f_at(t):
            i = np.searchsorted(f_times, t) - 1
            i = min(max(i, 0), len(f_times) - 2)
            w = (t - f_times[i]) / (f_times[i + 1] - f_times[i])
            return (1 - w) * f_vals[i] + w * f_vals[i + 1]
    else:
        zero = np.zeros(grid.sizes, dtype=complex)

        def f_at(t):
            return zero

    u, v = (f.values.copy() if f.space == "spectral" else dft_forward(f.values, grid)
            for f in (phi1, phi2))
    u_out = np.empty((len(times),) + grid.sizes, dtype=complex)
    dt_out = np.empty_like(u_out)
    u_out[0], dt_out[0] = u, v

    def acc(t, u):
        return -np.clip(t, 0.0, None) ** m * rho2 * u + f_at(t)

    for i in range(len(times) - 1):
        h = (times[i + 1] - times[i]) / substeps
        t = times[i]
        for _ in range(substeps):
            k1u, k1v = v, acc(t, u)
            k2u, k2v = v + h / 2 * k1v, acc(t + h / 2, u + h / 2 * k1u)
            k3u, k3v = v + h / 2 * k2v, acc(t + h / 2, u + h / 2 * k2u)
            k4u, k4v = v + h * k3v, acc(t + h, u + h * k3u)
            u = u + h / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
            v = v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
            t += h
        u_out[i + 1], dt_out[i + 1] = u, v
    return u_out, dt_out


def ode_residual(m: int, t: float, rho: float, which: str = "v1") -> float:
    """|d_t^2 V + t^m rho^2 V| via a 5-point central stencil."""
    if which not in ("v1", "v2"):
        raise ParameterError(f"which must be 'v1' or 'v2', got {which!r}")
    _check_args(m, t, rho)
    h = 1e-4 * max(t, 1.0)
    if t - 2 * h <= 0:
        raise DomainError(f"t={t} too small for the finite-difference stencil (h={h})")
    ts = t + h * np.arange(-2.0, 3.0)
    v1, v2, _, _ = sample_arrays(m, ts, np.full(5, float(rho)))
    v = v1 if which == "v1" else v2
    d2 = (-v[0] + 16 * v[1] - 30 * v[2] + 16 * v[3] - v[4]) / (12 * h * h)
    return abs(d2 + t**m * rho**2 * v[2])


@dataclass(frozen=True)
class CharSurface:
    """Cusp-forming characteristic sets of the degenerate operator.

    GammaPM: x1 = +/- 2 t^((m+2)/2) / (m+2)      (half-space jump geometry)
    Gamma:   |x| = 2 t^((m+2)/2) / (m+2)          (point-singularity cone)
    Gamma0:  x1 = 0;  L0: x = 0;  Sigma0: t = 0
    """

    kind: str
    m: int = 1
    sign: str = "n/a"

    def __post_init__(self):
        if self.kind not in ("GammaPM", "Gamma", "Gamma0", "L0", "Sigma0"):
            raise ParameterError(f"unknown surface kind {self.kind!r}")
        if self.kind == "GammaPM":
            if self.sign not in ("+", "-"):
                raise ParameterError("GammaPM needs sign '+' or '-'")
        elif self.sign != "n/a":
            raise ParameterError(f"{self.kind} does not take a sign")
        if self.kind in ("GammaPM", "Gamma") and self.m < 1:
            raise ParameterError("m must be a positive integer")

    def radius(self, t) -> np.ndarray:
        """The cusp radius 2 t^((m+2)/2) / (m+2)."""
        return 2.0 * np.asarray(t, dtype=float) ** ((self.m + 2) / 2) / (self.m + 2)


def surface_distance(s: CharSurface, t, x) -> float:
    """Defining-function residual of the surface at the point (t, x)."""
    if np.any(np.asarray(t) < 0):
        raise DomainError("surface_distance needs t >= 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if s.kind == "GammaPM":
        sgn = 1.0 if s.sign == "+" else -1.0
        return float(np.abs(x[0] - sgn * s.radius(t)))
    if s.kind == "Gamma":
        return float(np.abs(np.linalg.norm(x) - s.radius(t)))
    if s.kind == "Gamma0":
        return float(np.abs(x[0]))
    if s.kind == "L0":
        return float(np.linalg.norm(x))
    return float(t)  # Sigma0


def plane_front(m: int, s) -> np.ndarray:
    """The self-similar profile G(s) of the linear solution with Heaviside
    data H(x1): u(t, x) = G(x1 / rho_m(t)), rho_m = 2 t^((m+2)/2) / (m+2).

    G(s) = 1/2 + sign(s)/2 * I_{min(s^2, 1)}(1/2, 1/2 - nu), nu = 1/(m+2),
    the regularized incomplete beta function (DLMF 8.17), which solves
    D^2 G + 2 nu D G - G'' = 0 with D = s d/ds: 0 for s <= -1 and 1 for
    s >= 1, with the cusp front 1 - G ~ (1 - s)^(1/2 - nu) at s = 1.
    """
    from scipy.special import betainc

    s = np.asarray(s, dtype=float)
    nu = 1.0 / (m + 2)
    return 0.5 + 0.5 * np.sign(s) * betainc(0.5, 0.5 - nu, np.minimum(s * s, 1.0))


# -- the exact catalog --------------------------------------------------------

def catalog_digest(rows) -> str:
    """sha256 of the columns `opalg verify` writes to catalog.csv (name,
    status, residual_terms, expected, ok, detail), over every row."""
    text = repr([(r.name, r.status, r.residual_terms, r.expected, r.ok,
                  r.detail) for r in rows])
    return hashlib.sha256(text.encode()).hexdigest()


# catalog_digest of catalog_verify(selector, n), recorded from the catalog
# before its operator alphabet was shared.  No row of a single-exponent run
# names m and every row passes, so those runs share one digest per n; a pair
# run's one row names both exponents.
_SINGLE_SHA256 = {
    1: "63c21ec38e42bbb1c9b240b333768cb2831ba6516ff3e8d418ee0147d605d775",
    2: "cb5cc10d18acedbe87102561923b46d68a2752b536133d3b85d76ff471be4831",
    3: "cb30cfddbe3a063c777eaec95cd56eb805f7fc91a65a2403b7c07b3969d947b7",
}
_PAIR_SHA256 = {
    (2, 1): "93929788e54d9b833383a00e82145c2d1246e065c9ab06f5b841c01085c76ee8",
    (3, 1): "a30182b77fe28fd649a152965f28374dd7d25e4f2da16f58e45faa97cc995ff3",
    (4, 2): "934639d74cb6a6b875cfee0fd4175752a8ebb6a2d7b4dadf3176abb1bc8c485e",
}
CATALOG_SHA256 = {(m, n): digest for n, digest in _SINGLE_SHA256.items()
                  for m in range(1, 9)}
CATALOG_SHA256.update({(pair, n): digest
                       for pair, digest in _PAIR_SHA256.items()
                       for n in (1, 2, 3)})


def certificate_digest(rows) -> str:
    """sha256 of certificates.txt as `opalg verify` writes it for rows."""
    return hashlib.sha256(certificate_text(rows).encode()).hexdigest()


# certificate_digest of catalog_verify(selector, n), recorded over sympy's
# integer polynomial ring, before the package had a ring of its own.  The
# weights and null vectors of the square rows carry m, so at n = 2 and 3
# every exponent has its own digest.  At n = 1 there are no square rows and
# every residual is zero but the negative control's, which does not depend
# on m, so those runs share one digest; so do a pair run's at every n.
_CERTIFICATE_N1_SHA256 = \
    "b956773aee34d2372b82f4cbe8ca7db247e87ce0b46af54299ee10ef1c8947bb"
CERTIFICATE_SHA256 = {(m, 1): _CERTIFICATE_N1_SHA256 for m in range(1, 9)}
CERTIFICATE_SHA256.update({
    (1, 2): "e80efd67dfb5f11b159d4d4deb99316ba52141bb6cecef4143761aab6c7013c0",
    (2, 2): "7e086bea2996e0a64ddaad0220d36628aad7d9edb7ec8221ac670dc4914bf1a7",
    (3, 2): "126dd8bb1d969040e70fe9d2034ae86ae5e660d1432847eee07381702f4a1159",
    (4, 2): "ba3c55bdbd3b8a8dd57c270b20ee7323c98c81a9af4550cba59c52418675915a",
    (5, 2): "9fcd17bea1b9b3432f86cdfbcca9706ea701741f385522755192031910597b01",
    (6, 2): "77f7832379eacba9cb4c47c0578bccd7813830b0114569d6e2c8a12c5462d583",
    (7, 2): "bb4bbcb1b86a4ed6de19fce9f1d4136164e6e6ad6e2d46c6ffcba79ad1182ec4",
    (8, 2): "beb28926a806f82f146aa3fee21f311fde759fd95ef330054db8eba54297a9ed",
    (1, 3): "ef27bce87b1431482318a2609ecf87e837d6635ef3eac34e2e9335c7b1e4e13f",
    (2, 3): "8ef84211dabd3aec0446db6ff684078a1184c74424caf087349cf407cb5b0788",
    (3, 3): "21a20f366099d118bae0d6fd69bd3ccca24e252b58e5d096387986fec210feac",
    (4, 3): "84323bb80f7c32ff216ce4da3a2024a61dcb2d7e0c231664e97dd020faecd4cd",
    (5, 3): "3ed7950454ba3ff576768686e744c17c4a9bab1d1ca198a3a025b454f92fecc6",
    (6, 3): "f15f26ec5b4e6a359a8dc702de2e083e9f5b92451c5d0678689caa779f51afce",
    (7, 3): "18215fd5bfa70b2a5b0d49995110d04ae9678ac6fc4664d4337d969951bd43ec",
    (8, 3): "b3a20fbbeaa91bbd69313bc7dfae92c38963e5adb7f96a29f5faef4b6a55ad04",
})
_CERTIFICATE_PAIR_SHA256 = {
    (2, 1): "880218cc8d92a3d5ab7b9b742d1080084c5574fb3bf9edb9a8a0dedc3d9ae4d0",
    (3, 1): "eb90ed6c708bd050e3b064ca778787e556c05bd2a15eb4a82d2eb10d9e52fc62",
    (4, 2): "f4422c3e58b81e385d28712a706257044447a6bd5c0c4123773d97f6caa859d2",
}
CERTIFICATE_SHA256.update({(pair, n): digest
                           for pair, digest in _CERTIFICATE_PAIR_SHA256.items()
                           for n in (1, 2, 3)})

