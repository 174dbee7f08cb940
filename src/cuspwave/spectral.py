"""Periodic-grid fields on [-L, L)^n with spectral calculus.

The convention throughout: integer wavenumbers k (numpy fft ordering) map to
continuous frequencies xi = pi * k / L, and the DFT is orthonormal so Parseval
holds without extra factors.  Physical norms carry the cell measure (2L/N)^n.
Transforms, derivatives and norms act on the trailing (spatial) axes only, so
they apply unchanged to a Field stacked over a leading time axis.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, GridMismatchError, ParameterError


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the box [-L, L) per axis."""

    n: int
    sizes: tuple
    L: float

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ParameterError(f"dimension must be 1, 2 or 3, got {self.n}")
        sizes = tuple(int(s) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if len(sizes) != self.n:
            raise ParameterError("sizes must have one entry per dimension")
        for s in sizes:
            if s < 8 or s & (s - 1):
                raise ParameterError(f"grid sizes must be powers of two >= 8, got {s}")
        if not (np.isfinite(self.L) and self.L > 0):
            raise ParameterError(f"box half-length must be positive and finite, got {self.L}")

    @property
    def cell_measure(self) -> float:
        out = 1.0
        for s in self.sizes:
            out *= 2.0 * self.L / s
        return out

    def axis_coords(self, axis: int) -> np.ndarray:
        s = self.sizes[axis]
        return -self.L + (2.0 * self.L / s) * np.arange(s)

    def coords(self):
        """Meshgrid of physical coordinates, one array per axis."""
        return np.meshgrid(*(self.axis_coords(a) for a in range(self.n)), indexing="ij")

    def axis_xi(self, axis: int) -> np.ndarray:
        s = self.sizes[axis]
        return np.pi / self.L * np.fft.fftfreq(s, d=1.0 / s)

    @cached_property
    def _xi(self):
        mesh = np.meshgrid(*(self.axis_xi(a) for a in range(self.n)), indexing="ij")
        norm = np.sqrt(sum(x * x for x in mesh))
        for a in (*mesh, norm):
            a.flags.writeable = False
        return tuple(mesh), norm

    def xi_mesh(self):
        """Frequency meshgrid, one array per axis; built once, read-only."""
        return self._xi[0]

    def xi_norm(self) -> np.ndarray:
        """|xi| on the spectral grid; built once, read-only."""
        return self._xi[1]

    @property
    def axes(self) -> tuple:
        """The spatial axes of an array whose trailing shape is sizes."""
        return tuple(range(-self.n, 0))


@dataclass(frozen=True)
class Field:
    """Complex samples on a grid, in either physical or spectral space.

    values has shape grid.sizes, or (n_t, *grid.sizes) for a stack of time
    levels.
    """

    grid: Grid
    values: np.ndarray
    space: str = "physical"

    def __post_init__(self):
        if self.space not in ("physical", "spectral"):
            raise ParameterError(f"space must be physical or spectral, got {self.space!r}")
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape[vals.ndim - self.grid.n:] != self.grid.sizes:
            vals = vals.reshape(self.grid.sizes)
        object.__setattr__(self, "values", vals)

    def copy_with(self, values, space=None) -> "Field":
        return Field(self.grid, values, space or self.space)


@dataclass
class SpectralTrajectory:
    """Spectral samples of u, and of d_t u when a solver produces it.

    u and dt are complex arrays of shape (n_t, *grid.sizes), one row per
    entry of times; dt is None when the time derivative is not known.
    """

    grid: Grid
    times: np.ndarray
    u: np.ndarray
    dt: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        shape = (len(self.times),) + self.grid.sizes
        self.u = np.asarray(self.u, dtype=complex)
        if self.dt is not None:
            self.dt = np.asarray(self.dt, dtype=complex)
        if self.u.shape != shape or (self.dt is not None and self.dt.shape != shape):
            raise ParameterError(f"u and dt must have shape {shape}")
        if len(self.times) and self.times[0] != 0.0:
            raise ParameterError("trajectory times must start at 0")
        if np.any(np.diff(self.times) <= 0):
            raise ParameterError("trajectory times must be strictly increasing")

    def snapshot_at(self, t: float) -> Field:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-12 * max(1.0, abs(t)):
            raise DomainError(f"no snapshot at t={t}; nearest is {self.times[i]}")
        return Field(self.grid, self.u[i], "spectral")

    def as_field(self) -> Field:
        """u as one spectral Field stacked over the time axis."""
        return Field(self.grid, self.u, "spectral")


def _require_space(f: Field, space: str) -> None:
    if f.space != space:
        raise ParameterError(f"expected a {space} field, got {f.space}")


def require_same_grid(*fields) -> Grid:
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise GridMismatchError(f"grids differ: {f.grid} vs {g}")
    return g


def dft_forward(f: Field, out: np.ndarray | None = None) -> Field:
    """Orthonormal DFT of the spatial axes; out (which may be f.values)
    receives the result instead of a new array."""
    _require_space(f, "physical")
    return f.copy_with(
        np.fft.fftn(f.values, axes=f.grid.axes, norm="ortho", out=out), "spectral")


def dft_inverse(f: Field, out: np.ndarray | None = None) -> Field:
    """Inverse of dft_forward, with the same out."""
    _require_space(f, "spectral")
    return f.copy_with(
        np.fft.ifftn(f.values, axes=f.grid.axes, norm="ortho", out=out), "physical")


def sobolev_norm(f, s: float):
    """Discrete H^s norm with the exact multiplier (1+|xi|^2)^(s/2).

    f is a spectral Field (one float, or one per time level of a stacked
    Field) or a SpectralTrajectory (an array with one norm per time).
    """
    if isinstance(f, SpectralTrajectory):
        f = f.as_field()
    _require_space(f, "spectral")
    w = (1.0 + f.grid.xi_norm() ** 2) ** s
    # w * |v|^2 in one real array, squared and weighted in place
    density = np.abs(f.values)
    np.square(density, out=density)
    density *= w
    out = np.sqrt(np.sum(density, axis=f.grid.axes) * f.grid.cell_measure)
    return float(out) if out.ndim == 0 else out


def spectral_derivative(f: Field, axis: int, out: np.ndarray | None = None) -> Field:
    """i xi_axis * f; out, as in dft_forward, receives the result."""
    _require_space(f, "spectral")
    if not 0 <= axis < f.grid.n:
        raise ParameterError(f"axis {axis} out of range for n={f.grid.n}")
    xi = f.grid.xi_mesh()[axis]
    return f.copy_with(np.multiply(1j * xi, f.values, out=out))


def dealias(f: Field) -> Field:
    """Zero every mode with any |k| > size/3 (the 2/3 rule)."""
    _require_space(f, "spectral")
    vals = f.values.copy()
    for axis, s in enumerate(f.grid.sizes):
        k = np.abs(np.fft.fftfreq(s, d=1.0 / s))
        shape = [1] * f.grid.n
        shape[axis] = s
        vals = vals * (k <= s / 3.0).reshape(shape)
    return f.copy_with(vals)


_MAGIC = b"CWGRID1"


def save_field(path, f: Field) -> None:
    """Write the self-describing little-endian binary layout."""
    if f.values.shape != f.grid.sizes:
        raise ParameterError("save_field writes a single time level")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", f.grid.n))
        fh.write(struct.pack(f"<{f.grid.n}I", *f.grid.sizes))
        fh.write(struct.pack("<d", f.grid.L))
        fh.write(np.ascontiguousarray(f.values, dtype="<c16").tobytes())


def load_field(path, space: str = "physical") -> Field:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise DomainError(f"{path}: not a CWGRID1 file")
        try:
            (n,) = struct.unpack("<I", fh.read(4))
            if n not in (1, 2, 3):
                raise DomainError(f"{path}: bad dimension {n}")
            sizes = struct.unpack(f"<{n}I", fh.read(4 * n))
            (L,) = struct.unpack("<d", fh.read(8))
        except struct.error:
            raise DomainError(f"{path}: truncated header") from None
        count = int(np.prod(sizes))
        payload = fh.read(16 * count)
        if len(payload) != 16 * count:
            raise DomainError(f"{path}: truncated sample payload")
    vals = np.frombuffer(payload, dtype="<c16").astype(complex)
    return Field(Grid(n, tuple(sizes), L), vals.reshape(sizes), space)
