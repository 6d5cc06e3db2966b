"""Single-coordinate layer: shifted circle grid, spectra, Hilbert transform.

The grid places N sample points at angles theta_j = 2*pi*(j + 1/2)/N.  With
N divisible by four, the half-step shift keeps cos(theta_j) bounded away
from zero, makes the reflection kappa(j) = N-1-j fixed-point free, and
splits the sign function sign(cos theta) into exactly N/2 positive and N/2
negative samples.  On this grid the classical circle identities used
downstream (Hilbert isometry, recovery of an analytic function from its
imaginary part, orthogonality of even and odd parts) hold to round-off.

All frequencies live in m = -N/2 .. N/2-1.  The unpaired bucket m = -N/2
is treated as non-analytic: the Hilbert multiplier zeroes it and generated
analytic data never excites it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, eq=False)
class TorusGrid:
    """Uniform half-step-shifted discretization of the circle with N points."""

    n_points: int

    def __post_init__(self):
        n = self.n_points
        if not isinstance(n, (int, np.integer)) or n < 4 or n % 4 != 0:
            raise ValueError(
                f"n_points must be an integer multiple of 4, at least 4; got {n!r}"
            )

    @cached_property
    def angles(self) -> np.ndarray:
        th = TWO_PI * (np.arange(self.n_points) + 0.5) / self.n_points
        th.setflags(write=False)
        return th

    @cached_property
    def points(self) -> np.ndarray:
        """The sample points exp(i theta_j)."""
        z = np.exp(1j * self.angles)
        z.setflags(write=False)
        return z

    @cached_property
    def kappa(self) -> np.ndarray:
        """Index form of the conjugation z -> conj(z): kappa(j) = N-1-j."""
        k = np.arange(self.n_points - 1, -1, -1)
        k.setflags(write=False)
        return k

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
    def _analysis_matrix(self) -> np.ndarray:
        # coefficients c(m) = (1/N) sum_j f(j) exp(-i m theta_j)
        mat = np.exp(-1j * np.outer(self.frequencies, self.angles)) / self.n_points
        mat.setflags(write=False)
        return mat

    @cached_property
    def _synthesis_matrix(self) -> np.ndarray:
        mat = np.exp(1j * np.outer(self.angles, self.frequencies))
        mat.setflags(write=False)
        return mat

    @cached_property
    def hilbert_multiplier(self) -> np.ndarray:
        """-i*sign(m) on paired frequencies, zero at m = 0 and m = -N/2."""
        mult = -1j * np.sign(self.frequencies).astype(np.complex128)
        mult[0] = 0.0  # Nyquist bucket m = -N/2 is never analytic data
        mult.setflags(write=False)
        return mult

    @cached_property
    def dyadic_projector(self) -> np.ndarray:
        """Matrix averaging a function over the two half-circles sign(cos) = +-1."""
        s = self.sign_values
        same = (s[:, None] == s[None, :]).astype(float)
        proj = 2.0 * same / self.n_points
        proj.setflags(write=False)
        return proj


def make_grid(n_points: int) -> TorusGrid:
    """The shifted grid of that size, rejecting sizes that break its symmetries.

    Grids are immutable, so one instance per size is shared and its cached
    matrices are built once per process.
    """
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

    def __add__(self, other: "GridFunction") -> "GridFunction":
        _require_same_grid(self, other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        _require_same_grid(self, other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar) -> "GridFunction":
        return GridFunction(self.grid, self.values * scalar)

    __rmul__ = __mul__


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
    return Spectrum(f.grid, f.grid._analysis_matrix @ f.values)


def synthesize(s: Spectrum) -> GridFunction:
    """Evaluate sum_m c(m) e^{im theta_j}; exact inverse of analyze up to round-off."""
    return GridFunction(s.grid, s.grid._synthesis_matrix @ s.coefficients)


def batch_analyze(grid: TorusGrid, rows: np.ndarray) -> np.ndarray:
    """Spectra of many samples at once; rows has shape (M, N)."""
    return rows @ grid._analysis_matrix.T


def hilbert(f: GridFunction) -> GridFunction:
    """Fourier multiplier -i*sign(m); the mean and the Nyquist bucket map to 0."""
    spec = analyze(f)
    return synthesize(Spectrum(f.grid, spec.coefficients * f.grid.hilbert_multiplier))


def conjugate_flip(f: GridFunction) -> GridFunction:
    """Evaluation at the conjugated point: (flip f)(j) = f(N-1-j)."""
    return GridFunction(f.grid, f.values[::-1])


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


def is_hardy(f: GridFunction, tol: float) -> bool:
    """True iff the energy at m <= 0 (mean, negatives, Nyquist) is below tol^2 * ||f||^2.

    The zero function passes.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    coeffs = analyze(f).coefficients
    bad = float(np.sum(np.abs(coeffs[f.grid.frequencies <= 0]) ** 2))
    total = float(np.mean(np.abs(f.values) ** 2))
    return bad <= tol * tol * total


def nyquist_energy(f: GridFunction) -> float:
    """|c(-N/2)|^2, the energy in the unpaired frequency bucket."""
    return float(np.abs(analyze(f).coefficient(-f.grid.n_points // 2)) ** 2)


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
    if nyquist_energy(y) > (1e-12 * scale) ** 2:
        raise ValueError("imaginary-part input must not carry the Nyquist frequency")
    yr = y.values.real
    hy = hilbert(GridFunction(y.grid, yr))
    return GridFunction(y.grid, -hy.values + 1j * yr)
