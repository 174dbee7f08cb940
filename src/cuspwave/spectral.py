"""Periodic-grid fields on [-L, L)^n with spectral calculus.

The convention throughout: integer wavenumbers k (numpy fft ordering) map to
continuous frequencies xi = pi * k / L, and the DFT is orthonormal so Parseval
holds without extra factors.  Physical norms carry the cell measure (2L/N)^n.
Transforms, derivatives and norms act on the trailing (spatial) axes only, so
they apply unchanged to arrays stacked over a leading time axis.

Every field the package computes on is real, and is carried by its rfft
half spectrum: the modes 0..N/2 of the last axis (shape Grid.half_sizes),
a complex array passed with its Grid.  half_forward and half_inverse
transform to and from real arrays; spectral_derivative, sobolev_norm and
dealias act on half spectra.  An odd derivative zeroes the Nyquist mode
k = -N/2 of the axis it differentiates, so that the derivative of a real
field is real.

The edge columns 0 and N/2 of the last axis have no twin in a half
spectrum, so they must be Hermitian in the other axes by themselves.
half_forward and real_half, where half spectra are born, make them
exactly so, and every later operation keeps them so bit for bit: real
multipliers equal at k and -k, i xi with its Nyquist mode zeroed, and
real linear combinations.

A Field is the type of the package's two edges only: the float64 samples
of a real field (space "physical"), as the data enter, and the full
spectrum of a snapshot file (space "spectral"; save_field / load_field).
hermitian_completion builds a full spectrum from a half spectrum, and
real_half checks stored ones and keeps their halves.  This module is the
only one that calls numpy's FFTs.
"""

from __future__ import annotations

import math
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
    def _half_xi_norm(self):
        mesh = np.meshgrid(*(self.axis_xi(a)[:s] for a, s in enumerate(self.half_sizes)),
                           indexing="ij")
        norm = np.sqrt(sum(x * x for x in mesh))
        norm.flags.writeable = False
        return norm

    def half_xi_norm(self) -> np.ndarray:
        """|xi| on the modes of a half spectrum (half_sizes); built once,
        read-only."""
        return self._half_xi_norm

    @property
    def axes(self) -> tuple:
        """The spatial axes of an array whose trailing shape is sizes."""
        return tuple(range(-self.n, 0))

    @property
    def half_sizes(self) -> tuple:
        """Trailing shape of an rfft half spectrum: modes 0..N/2 of the
        last axis."""
        return self.sizes[:-1] + (self.sizes[-1] // 2 + 1,)

    @cached_property
    def _symbols(self):
        symbols = []
        for a, s in enumerate(self.half_sizes):
            xi = self.axis_xi(a)[:s]
            xi[self.sizes[a] // 2] = 0.0  # the Nyquist mode k = -N/2
            shape = [1] * self.n
            shape[a] = s
            symbol = (1j * xi).reshape(shape)
            symbol.flags.writeable = False
            symbols.append(symbol)
        return symbols

    def derivative_symbol(self, axis: int) -> np.ndarray:
        """i xi_axis with the Nyquist mode zeroed, shaped to broadcast over
        half_sizes; built once, read-only."""
        if not 0 <= axis < self.n:
            raise ParameterError(f"axis {axis} out of range for n={self.n}")
        return self._symbols[axis]


@dataclass(frozen=True)
class Field:
    """Samples on a grid at the package's edges: the float64 samples of a
    real field (space "physical") or the complex full spectrum of a
    snapshot file (space "spectral").

    values has shape grid.sizes, or that shape behind leading axes for a
    stack of time levels; any other shape is a ParameterError.  Physical
    samples with a nonzero imaginary part are a DomainError.
    """

    grid: Grid
    values: np.ndarray
    space: str = "physical"

    def __post_init__(self):
        if self.space not in ("physical", "spectral"):
            raise ParameterError(
                f"space must be physical or spectral, got {self.space!r}")
        vals = np.asarray(self.values)
        if vals.shape[-self.grid.n:] != self.grid.sizes:
            raise ParameterError(f"{self.space} values must have the trailing shape "
                                 f"{self.grid.sizes}, got {vals.shape}")
        if self.space == "spectral":
            vals = vals.astype(complex, copy=False)
        else:
            if np.iscomplexobj(vals):
                if np.any(vals.imag):
                    raise DomainError("not a real field: the samples have imaginary parts")
                vals = vals.real
            vals = np.ascontiguousarray(vals, dtype=float)
        object.__setattr__(self, "values", vals)


@dataclass
class SpectralTrajectory:
    """Half spectra of a real u, and of d_t u when a solver produces it.

    u and dt are complex arrays of shape (n_t, *grid.half_sizes), one row
    per entry of times (check_times); dt is None when the time derivative
    is not known.  Their edge columns 0 and N/2 are exactly Hermitian, like
    those of every half spectrum the package makes.
    """

    grid: Grid
    times: np.ndarray
    u: np.ndarray
    dt: np.ndarray | None = None

    def __post_init__(self):
        self.times = check_times(self.times)
        shape = (len(self.times),) + self.grid.half_sizes
        self.u = np.asarray(self.u, dtype=complex)
        if self.dt is not None:
            self.dt = np.asarray(self.dt, dtype=complex)
        if self.u.shape != shape or (self.dt is not None and self.dt.shape != shape):
            raise ParameterError(f"u and dt must have shape {shape}")


def check_times(times) -> np.ndarray:
    """times as a float array, which must be a finite, strictly increasing
    1-d grid that starts at 0; otherwise a ParameterError."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 1 or times[0] != 0.0:
        raise ParameterError("times must be a 1-d array starting at 0")
    if not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)):
        raise ParameterError("times must be finite and strictly increasing")
    return times


def require_same_grid(*fields) -> Grid:
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise GridMismatchError(f"grids differ: {f.grid} vs {g}")
    return g


def sobolev_norm(half: np.ndarray, grid: Grid, s: float):
    """Discrete H^s norm with the exact multiplier (1+|xi|^2)^(s/2) of the
    half spectrum half on grid: one float, or one per time level of a
    stack.  The columns 1..N/2-1 of the last axis stand for their
    conjugate twins too and count twice.
    """
    w = (1.0 + grid.half_xi_norm() ** 2) ** s
    w[..., 1 : grid.sizes[-1] // 2] *= 2.0
    # w * |v|^2 in one real array, squared and weighted in place
    density = np.abs(half)
    np.square(density, out=density)
    density *= w
    out = np.sqrt(np.sum(density, axis=grid.axes) * grid.cell_measure)
    return float(out) if out.ndim == 0 else out


def spectral_derivative(half: np.ndarray, grid: Grid, axis: int,
                        out: np.ndarray | None = None) -> np.ndarray:
    """i xi_axis * half, zero on the axis's Nyquist mode, for a half
    spectrum; out (which may be half) receives the result instead of a
    new array."""
    return np.multiply(grid.derivative_symbol(axis), half, out=out)


# half and full spectra ---------------------------------------------------------

_HERMITIAN_TOL = 1e-12


def _negate(a: np.ndarray, axes: tuple) -> np.ndarray:
    """a at the wavenumbers -k on the given axes (a copy; a itself when
    there are none)."""
    return np.roll(np.flip(a, axes), 1, axes) if axes else a


def real_half(levels, grid: Grid, times) -> np.ndarray:
    """The half spectra, shape (n_t, *grid.half_sizes), of the full spectra
    that the iterable levels yields, one per entry of times.

    Each level must be Hermitian, u(-k) = conj u(k), to 1e-12 of the
    largest |u| of all levels in the real and imaginary parts; otherwise
    it is not the spectrum of a real field and the call raises a
    DomainError that names the worst time level and its t.  Levels are
    read, checked and halved one at a time, so no full stack is held; the
    halves' edge columns are then made exactly Hermitian.
    """
    half = np.empty((len(times),) + grid.half_sizes, dtype=complex)
    defect, scale = np.empty(len(times)), np.empty(len(times))
    for i, level in enumerate(levels):
        diff = np.conj(_negate(level, grid.axes), order="C")
        diff -= level
        parts = diff.view(float)  # the defect's largest real or imaginary part
        defect[i] = np.max(np.abs(parts, out=parts))
        scale[i] = np.max(np.abs(level))
        half[i] = level[..., : grid.half_sizes[-1]]
    worst, scale = int(np.argmax(defect)), np.max(scale)
    if defect[worst] > _HERMITIAN_TOL * scale:
        raise DomainError(
            f"not the spectrum of a real field: Hermitian defect "
            f"{defect[worst] / scale:.3g} of max|u| at time level {worst} "
            f"(t = {float(times[worst])!r})")
    _hermitian_edges(half, grid)
    return half


def half_forward(phys: np.ndarray, grid: Grid,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal rfft of the real array phys over the spatial axes, with
    exactly Hermitian edge columns; out, of shape (..., *grid.half_sizes),
    receives the half spectrum."""
    half = np.fft.rfftn(phys, s=grid.sizes, axes=grid.axes, norm="ortho", out=out)
    _hermitian_edges(half, grid)
    return half


def half_inverse(half: np.ndarray, grid: Grid, out: np.ndarray,
                 work: np.ndarray) -> np.ndarray:
    """Inverse of half_forward, from the half spectrum array half into the
    real array out.  The complex passes over the leading spatial axes run
    in work, which may be half itself."""
    for axis in grid.axes[:-1]:
        half = np.fft.ifft(half, axis=axis, norm="ortho", out=work)
    return np.fft.irfft(half, n=grid.sizes[-1], axis=-1, norm="ortho", out=out)


def _hermitian_edges(half: np.ndarray, grid: Grid) -> None:
    """Make the columns 0 and N/2 of the last axis, which have no twin in
    the half spectrum, exactly Hermitian in the other spatial axes, in
    place; rfft leaves them so only to rounding."""
    edges = half[..., :: grid.sizes[-1] // 2]  # a view of both columns
    edges += np.conj(_negate(edges, grid.axes[:-1]))
    edges *= 0.5


def hermitian_completion(half: np.ndarray, grid: Grid) -> np.ndarray:
    """The full spectrum whose half spectrum is half: column N-j of the
    last axis is the conjugate of column j at -k on the other axes."""
    n_last = grid.sizes[-1]
    full = np.empty(half.shape[:-1] + (n_last,), dtype=complex)
    full[..., : n_last // 2 + 1] = half
    twins = _negate(half[..., n_last // 2 - 1 : 0 : -1], grid.axes[:-1])
    np.conj(twins, out=full[..., n_last // 2 + 1 :])
    return full


def dealias(half: np.ndarray, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """Zero every mode with any |k| > size/3 (the 2/3 rule) of a half
    spectrum; out, as in spectral_derivative, receives the result."""
    for axis, (s, h) in enumerate(zip(grid.sizes, grid.half_sizes)):
        k = np.abs(np.fft.fftfreq(s, d=1.0 / s))[:h]
        shape = [1] * grid.n
        shape[axis] = h
        half = out = np.multiply(half, (k <= s / 3.0).reshape(shape), out=out)
    return half


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
        try:
            grid = Grid(n, sizes, L)
        except ParameterError as exc:
            raise DomainError(f"{path}: {exc}") from None
        # the read is bounded by the file, not by the sizes its header claims
        payload = fh.read()
    count = math.prod(grid.sizes)
    if len(payload) < 16 * count:
        raise DomainError(f"{path}: truncated sample payload")
    vals = np.frombuffer(payload, dtype="<c16", count=count).astype(complex)
    return Field(grid, vals.reshape(grid.sizes), space)
