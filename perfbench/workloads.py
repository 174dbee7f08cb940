"""The three benchmark workloads: inputs, command line, work units and gates.

Each workload is one `cuspwave` CLI command.  `prepare` writes the seeded
inputs and computes the reference the gate compares against; both happen
before any job is timed.  The seed perturbs only data amplitudes and widths
(by at most 2 %), never a grid size or a time-level count, so every seed
does the same amount of work and takes the same Picard path.  The sizes keep
each numeric job to a few seconds, so that one run holds about ten of them.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

# Error gates.  The seed code's errors sit at least 8 times below them (see
# perfbench/README.md), so a gate trips on a defect, not on round-off.
PICARD_TOL = 1e-9          # relative L2 error against RK4, all modes
PICARD_BAND_TOL = 1e-8     # the same restricted to |xi| > N/4
RIDGE_OFF_TOL = 0.01       # share of ridge points > 2 cells off the cone
# Last Picard distance, passed as --tol.  Every seed's eighth distance is
# above it (8.5e-11 or more) and its ninth below (1.5e-12 or less), so every
# seed takes nine steps.
PICARD_DIST_TOL = 1e-11


@dataclass(frozen=True)
class Check:
    """Outcome of one job's correctness gate."""

    ok: bool
    ref_err: float
    band_err: float = 0.0
    detail: str = ""
    picard_iters: int = 0


def _jitter(rng, value):
    return value * (1.0 + 0.02 * (2.0 * rng.random() - 1.0))


def _load_snapshots(directory):
    """(times, stacked spectral snapshots) of an exported trajectory."""
    from cuspwave.spectral import load_field

    with open(os.path.join(directory, "manifest.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    times = np.array([float(r["time"]) for r in rows])
    snaps = np.stack([load_field(os.path.join(directory, r["file"]),
                                 space="spectral").values for r in rows])
    return times, snaps


class PicardSolve1D:
    """`solve second` in 1-D with jump (A1) data and f(u) = u^2.

    Chosen because the nine Picard steps (Duhamel quadrature, forcing FFTs,
    sup-norm distances) do about half of the work and the propagator table
    (Kummer evaluation) most of the rest, so both layers show here; it also
    writes 1025 snapshots, the write side of spectral I/O.  A quadrature
    gain shows only here.
    T = 2 with N = 64 and n_t = 1025 reaches omega*dt ~ 0.09 on the top
    mode, so the band |xi| > N/4 that carries the cusps is resolved and
    band_err means something.
    """

    name = "picard-1d"
    work_unit = "grid points x time levels"

    def __init__(self, smoke=False):
        self.m, self.T = 1, 0.5 if smoke else 2.0
        self.N, self.n_t = (16, 257) if smoke else (64, 1025)

    def prepare(self, workdir, rng):
        amps = (_jitter(rng, 1.0), _jitter(rng, -1.0))
        widths = (_jitter(rng, 1.2), _jitter(rng, 0.9))
        self.spec = os.path.join(workdir, "a1.txt")
        with open(self.spec, "w") as fh:
            fh.write("family = A1\nleft_amp = %r\nleft_width = %r\n"
                     "right_amp = %r\nright_width = %r\n"
                     % (amps[0], widths[0], amps[1], widths[1]))
        x = -np.pi + 2.0 * np.pi / self.N * np.arange(self.N)
        left = _bump(np.abs(x), widths[0], amps[0])
        right = _bump(np.abs(x), widths[1], amps[1])
        u0 = np.fft.fft(np.where(x >= 0.0, right, left), norm="ortho")
        coarse, fine = self._rk4(u0, 4), self._rk4(u0, 8)
        # one Richardson step: RK4 is fourth order in the step
        self.ref = (16.0 * fine - coarse) / 15.0

    def _rk4(self, u0, substeps):
        """Method of lines for u'' = t^m u_xx + u^2, 2/3-dealiased forcing."""
        k = np.fft.fftfreq(self.N, d=1.0 / self.N)
        xi2 = k * k
        keep = np.abs(k) <= self.N / 3.0
        m = self.m

        def acc(t, u):
            phys = np.fft.ifft(u, norm="ortho")
            return -t ** m * xi2 * u + keep * np.fft.fft(phys * phys, norm="ortho")

        times = np.linspace(0.0, self.T, self.n_t)
        out = np.empty((self.n_t, self.N), dtype=complex)
        u, v = u0.astype(complex), np.zeros(self.N, dtype=complex)
        out[0] = u
        h = (times[1] - times[0]) / substeps
        for i in range(self.n_t - 1):
            for j in range(substeps):
                t = times[i] + j * h
                k1u, k1v = v, acc(t, u)
                k2u, k2v = v + h / 2 * k1v, acc(t + h / 2, u + h / 2 * k1u)
                k3u, k3v = v + h / 2 * k2v, acc(t + h / 2, u + h / 2 * k2u)
                k4u, k4v = v + h * k3v, acc(t + h, u + h * k3u)
                u = u + h / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
                v = v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
            out[i + 1] = u
        return out

    def argv(self, out):
        return ["solve", "second", "--m", str(self.m), "--n", "1",
                "--N", str(self.N), "--n-t", str(self.n_t), "--T", repr(self.T),
                "--tol", repr(PICARD_DIST_TOL), "--f-coefficients", "0,0,1",
                "--data", self.spec, "--out", out]

    def work(self):
        return float(self.N * self.n_t)

    def check(self, out):
        with open(os.path.join(out, "picard.csv"), newline="") as fh:
            dists = [float(r["distance"]) for r in csv.DictReader(fh)]
        times, snaps = _load_snapshots(out)
        if snaps.shape != self.ref.shape:
            return Check(False, 1.0, 1.0, "wrong trajectory shape")
        band = np.abs(np.fft.fftfreq(self.N, d=1.0 / self.N)) > self.N / 4
        diff = snaps[1:] - self.ref[1:]
        ref_err = float(np.max(np.linalg.norm(diff, axis=1)
                               / np.linalg.norm(self.ref[1:], axis=1)))
        band_err = float(np.max(np.linalg.norm(diff[:, band], axis=1)
                                / np.linalg.norm(self.ref[1:, band], axis=1)))
        ok = (bool(dists) and dists[-1] <= PICARD_DIST_TOL
              and ref_err <= PICARD_TOL and band_err <= PICARD_BAND_TOL)
        detail = "" if ok else "last distance %r, errors %.3g / %.3g" % (
            dists[-1] if dists else None, ref_err, band_err)
        return Check(ok, ref_err, band_err, detail, picard_iters=len(dists))


def _bump(r, width, amp):
    """amp * exp(1 - 1/(1 - (r/width)^2)) on |r| < width, else 0."""
    s = r / width
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


class ProbeScan2D:
    """`probe` at depth 2 on a synthetic 2-D trajectory.

    Chosen as the only workload for `probe` and the read side of spectral
    I/O.  The trajectory is a closed-form jump on the cusp cone
    |x| = 2 t^(3/2)/3, written here, so probe timings do not depend on
    solver speed and the ridge gate knows where the singularities are.
    The field list leaves out L[i,j]: the CLI splits on commas before
    brackets, so it cannot parse L[0,1].  N = 64 and n_t = 97 keep a job
    near 2 s and under 400 MB.
    """

    name = "probe-2d"
    work_unit = "vector-field applications"
    fields = ("V0", "TDt", "Vbar[0]", "Rl[1]")

    def __init__(self, smoke=False):
        self.m, self.T = 1, 1.5
        self.N, self.n_t, self.depth = (16, 17, 1) if smoke else (64, 97, 2)

    def prepare(self, workdir, rng):
        from cuspwave.spectral import Field, Grid, save_field

        self.traj = os.path.join(workdir, "traj")
        os.makedirs(self.traj, exist_ok=True)
        amp, width = _jitter(rng, 1.0), _jitter(rng, 1.5)
        grid = Grid(2, (self.N, self.N), np.pi)
        x, y = grid.coords()
        r = np.hypot(x, y)
        with open(os.path.join(self.traj, "manifest.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["time", "file"])
            for i, t in enumerate(np.linspace(0.0, self.T, self.n_t)):
                u = amp * np.exp(-(r / width) ** 2) * (r < self._cone(t))
                name = "snapshot_%05d.cwgrid" % i
                save_field(os.path.join(self.traj, name),
                           Field(grid, np.fft.fftn(u, norm="ortho"), "spectral"))
                w.writerow([repr(float(t)), name])

    def _cone(self, t):
        return 2.0 * t ** ((self.m + 2) / 2) / (self.m + 2)

    def argv(self, out):
        return ["probe", "--traj", self.traj, "--m", str(self.m),
                "--depth", str(self.depth), "--fields", ",".join(self.fields),
                "--out", out]

    def work(self):
        k = len(self.fields)
        return float(sum(k ** d for d in range(1, self.depth + 1)))

    def check(self, out):
        cell = 2.0 * np.pi / self.N
        off = []
        with open(os.path.join(out, "ridge.csv"), newline="") as fh:
            for row in csv.DictReader(fh):
                x = np.array([float(v) for v in row["coords"].split()])
                off.append(abs(np.linalg.norm(x) - self._cone(float(row["t"]))))
        with open(os.path.join(out, "scan.csv"), newline="") as fh:
            norms = [float(r["sup_norm"]) for r in csv.DictReader(fh)]
        share = float(np.mean(np.array(off) > 2.0 * cell)) if off else 1.0
        ok = (share <= RIDGE_OFF_TOL and len(norms) == 1 + self.work()
              and all(math.isfinite(v) for v in norms))
        return Check(ok, share, 0.0, "" if ok else
                     "%d ridge points, off-cone share %.3g, %d scan rows"
                     % (len(off), share, len(norms)))


class OpalgCatalog:
    """`opalg verify --m 2 --n 2`: the exact half of the package.

    Chosen because span_decompose takes about 85 % of it and it is the
    only workload that needs sympy, so a lazy-import change moves cost
    from setup_s into job_s here while it only removes cost elsewhere.
    It has no data; the seed changes nothing.
    """

    name = "opalg-catalog"
    work_unit = "identities checked"

    def __init__(self, smoke=False):
        # checked-row counts of the seed catalog; a dropped row fails the gate
        self.m, self.n, self.checked = (1, 1, 16) if smoke else (2, 2, 48)

    def prepare(self, workdir, rng):
        pass

    def argv(self, out):
        return ["opalg", "verify", "--m", str(self.m), "--n", str(self.n),
                "--out", out]

    def work(self):
        return float(self.checked)

    def check(self, out):
        with open(os.path.join(out, "catalog.csv"), newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["expected"] != "asserted"]
        failed = [r["name"] for r in rows if r["ok"] != "True"]
        share = len(failed) / len(rows) if rows else 1.0
        ok = not failed and len(rows) == self.checked
        return Check(ok, share, 0.0, "" if ok else
                     "%d checked rows, failed: %s" % (len(rows), failed))


WORKLOADS = {w.name: w for w in (PicardSolve1D, ProbeScan2D, OpalgCatalog)}

