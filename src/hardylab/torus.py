"""Single-coordinate layer: shifted circle grid, spectra, Hilbert transform.

The grid places N sample points at angles theta_j = 2*pi*(j + 1/2)/N.  With
N divisible by four, the half-step shift keeps cos(theta_j) bounded away
from zero, makes the reflection j -> N-1-j fixed-point free, and
splits the sign function sign(cos theta) into exactly N/2 positive and N/2
negative samples.  On this grid the classical circle identities used
downstream (Hilbert isometry, recovery of an analytic function from its
imaginary part, orthogonality of even and odd parts) hold to round-off.

All frequencies live in m = -N/2 .. N/2-1.  The unpaired bucket m = -N/2
is treated as non-analytic: the Hilbert multiplier zeroes it and generated
analytic data never excites it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi
MEMORY_GUARD_ENTRIES = 2**24  # largest array, in entries, that any layer builds


@dataclass(frozen=True, eq=False)
class TorusGrid:
    """Uniform half-step-shifted discretization of the circle with N points."""

    n_points: int

    def __post_init__(self):
        _check_grid_size(self.n_points)

    @cached_property
    def angles(self) -> np.ndarray:
        th = TWO_PI * (np.arange(self.n_points) + 0.5) / self.n_points
        th.setflags(write=False)
        return th

    @cached_property
    def sign_values(self) -> np.ndarray:
        """sign(cos theta_j) as floats, derived from indices (exact)."""
        n = self.n_points
        j = np.arange(n)
        s = np.where((j < n // 4) | (j >= 3 * n // 4), 1.0, -1.0)
        s.setflags(write=False)
        return s

    @cached_property
    def frequencies(self) -> np.ndarray:
        m = np.arange(-self.n_points // 2, self.n_points // 2)
        m.setflags(write=False)
        return m

    @cached_property
    def characters(self) -> np.ndarray:
        """The grid's one trigonometric table: row m + N/2 holds e^{im theta_j}.

        Refused, before anything is allocated, when N^2 exceeds MEMORY_GUARD_ENTRIES."""
        n = self.n_points
        if n * n > MEMORY_GUARD_ENTRIES:
            raise ValueError(f"memory guard: the {n}x{n} character table exceeds "
                             f"{MEMORY_GUARD_ENTRIES} entries")
        table = np.exp(1j * np.outer(self.frequencies, self.angles))
        table.setflags(write=False)
        return table

    def analytic_modes(self, degree: int) -> np.ndarray:
        """Rows e^{im theta_j} for m = 1..degree, a read-only slice of the table."""
        first = self.n_points // 2 + 1
        return self.characters[first : first + degree]

    @cached_property
    def hilbert_multiplier(self) -> np.ndarray:
        """-i*sign(m) on paired frequencies, zero at m = 0 and m = -N/2."""
        mult = -1j * np.sign(self.frequencies).astype(np.complex128)
        mult[0] = 0.0  # Nyquist bucket m = -N/2 is never analytic data
        mult.setflags(write=False)
        return mult


def _is_integer(value) -> bool:
    """True for Python and numpy integers; False for bools, floats and strings."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_grid_size(n_points) -> None:
    if not _is_integer(n_points) or n_points < 4 or n_points % 4 != 0:
        raise ValueError(
            f"n_points must be an integer multiple of 4, at least 4; got {n_points!r}"
        )


def make_grid(n_points: int) -> TorusGrid:
    """The shifted grid of that size, rejecting sizes that break its symmetries.

    Grids are immutable, so one instance per size is shared and its cached
    matrices are built once per process.  The size is checked before the
    cache is consulted, which would take 8.0 or True for the integer key.
    """
    _check_grid_size(n_points)
    return _interned_grid(int(n_points))


@lru_cache(maxsize=64)
def _interned_grid(n_points: int) -> TorusGrid:
    return TorusGrid(n_points)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Complex-valued function sampled on one grid copy."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.grid.n_points,):
            raise ValueError(
                f"values must have shape ({self.grid.n_points},); got {vals.shape}"
            )
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Fourier coefficients indexed by m = -N/2 .. N/2-1 (ascending)."""

    grid: TorusGrid
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=np.complex128)
        if coeffs.shape != (self.grid.n_points,):
            raise ValueError(
                f"coefficients must have shape ({self.grid.n_points},); got {coeffs.shape}"
            )
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    def coefficient(self, m: int) -> complex:
        n = self.grid.n_points
        if not -n // 2 <= m < n // 2:
            raise ValueError(f"frequency {m} outside -{n // 2} .. {n // 2 - 1}")
        return complex(self.coefficients[m + n // 2])


def _require_same_grid(f: GridFunction, g: GridFunction) -> None:
    if f.grid.n_points != g.grid.n_points:
        raise ValueError("grid mismatch between operands")


def analyze(f: GridFunction) -> Spectrum:
    """Expand f in the grid characters: c(m) = (1/N) sum_j f(j) e^{-im theta_j}."""
    return Spectrum(f.grid, f.grid.characters.conj() @ f.values / f.grid.n_points)


def synthesize(s: Spectrum) -> GridFunction:
    """Evaluate sum_m c(m) e^{im theta_j}; exact inverse of analyze up to round-off."""
    return GridFunction(s.grid, s.coefficients @ s.grid.characters)


def hilbert(f: GridFunction) -> GridFunction:
    """Fourier multiplier -i*sign(m); the mean and the Nyquist bucket map to 0."""
    spec = analyze(f)
    return synthesize(Spectrum(f.grid, spec.coefficients * f.grid.hilbert_multiplier))


def sigma(grid: TorusGrid) -> GridFunction:
    """The sign function sign(Re z): values +-1, exactly mean-zero, flip-invariant."""
    return GridFunction(grid, grid.sign_values.astype(np.complex128))


def inner_product(f: GridFunction, g: GridFunction) -> complex:
    """<f, g> = (1/N) sum_j f(j) conj(g(j))."""
    _require_same_grid(f, g)
    return complex(np.vdot(g.values, f.values) / f.grid.n_points)


def l2_norm(f: GridFunction) -> float:
    return float(np.sqrt(np.mean(np.abs(f.values) ** 2)))


def mean(f: GridFunction) -> complex:
    return complex(np.mean(f.values))


def _rows_are_hardy(grid: TorusGrid, rows: np.ndarray, tol: float, scale: float | None = None,
                    zero_floor: float = -np.inf) -> bool:
    """The spectral Hardy energy test, row-wise over rows of shape (M, N).

    The rows are divided by scale (default: their largest modulus) before
    squaring, so the verdict is the same at every magnitude.  A row passes iff
    its mean energy is at most zero_floor (in units of scale^2), or the energy
    at m <= 0 (mean, negatives, Nyquist) is at most tol^2 times it.  A NaN row
    or a non-finite scale fails.  The default floor admits no row by energy alone.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if scale is None:
        scale = np.abs(rows).max(initial=0.0)
    if not math.isfinite(scale):
        return False
    n = grid.n_points
    rows = rows / scale if scale > 0 else rows
    coeffs = rows @ grid.characters[: n // 2 + 1].conj().T / n  # m = -N/2 .. 0
    bad = np.sum(np.abs(coeffs) ** 2, axis=1)
    total = np.sum(np.abs(rows) ** 2, axis=1) / n
    return bool(((bad <= tol * tol * total) | (total <= zero_floor)).all())


def is_hardy(f: GridFunction, tol: float) -> bool:
    """True iff the energy at m <= 0 (mean, negatives, Nyquist) is below tol^2 * ||f||^2.

    The zero function passes.
    """
    return _rows_are_hardy(f.grid, f.values[np.newaxis], tol)


def from_imaginary_part(y: GridFunction) -> GridFunction:
    """Recover the analytic function with imaginary part y: h = -Hy + i*y.

    Requires y real-valued, mean-zero, and free of Nyquist content; then
    is_hardy(h) holds and ||h||_2 = sqrt(2) * ||y||_2 exactly on the grid.
    """
    scale = max(1.0, float(np.max(np.abs(y.values), initial=0.0)))
    if float(np.max(np.abs(y.values.imag), initial=0.0)) > 1e-12 * scale:
        raise ValueError("imaginary-part input must be real-valued")
    if abs(np.mean(y.values)) > 1e-12 * scale:
        raise ValueError("imaginary-part input must have zero mean")
    if abs(analyze(y).coefficient(-y.grid.n_points // 2)) > 1e-12 * scale:
        raise ValueError("imaginary-part input must not carry the Nyquist frequency")
    yr = y.values.real
    hy = hilbert(GridFunction(y.grid, yr))
    return GridFunction(y.grid, -hy.values + 1j * yr)
