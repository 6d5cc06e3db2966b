"""Single-coordinate layer: shifted circle grid, character table, Hardy gate.

The grid places N sample points at angles theta_j = 2*pi*(j + 1/2)/N.  With
N divisible by four, the half-step shift keeps cos(theta_j) bounded away
from zero, makes the reflection j -> N-1-j fixed-point free, and
splits the sign function sign(cos theta) into exactly N/2 positive and N/2
negative samples.  On this grid the circle identities used downstream
(orthogonality of even and odd parts, ||h|| = sqrt(2) * ||Im(w h)|| for
analytic h and unimodular w) hold to round-off.

All frequencies live in m = -N/2 .. N/2-1, one row each of the grid's
character table.  The unpaired bucket m = -N/2 is non-analytic: the Hardy
gate counts its energy with the mean and the negative frequencies, and
generated analytic data never excites it.  The input guards that every
layer shares live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from numbers import Real

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
        return _frozen(TWO_PI * (np.arange(self.n_points) + 0.5) / self.n_points)

    @cached_property
    def sign_values(self) -> np.ndarray:
        """sign(cos theta_j) as floats, derived from indices (exact)."""
        n = self.n_points
        j = np.arange(n)
        return _frozen(np.where((j < n // 4) | (j >= 3 * n // 4), 1.0, -1.0))

    @cached_property
    def frequencies(self) -> np.ndarray:
        return _frozen(np.arange(-self.n_points // 2, self.n_points // 2))

    @cached_property
    def characters(self) -> np.ndarray:
        """The grid's one trigonometric table: row m + N/2 holds e^{im theta_j}.

        Refused, before anything is allocated, when N^2 exceeds MEMORY_GUARD_ENTRIES."""
        _check_table(self.n_points)
        return _frozen(np.exp(1j * np.outer(self.frequencies, self.angles)))

    @cached_property
    def gate_table(self) -> np.ndarray:
        """The Hardy gate's product table, shape (N, N/2 + 1): column m + N/2 holds
        e^{-im theta_j} for m = -N/2 .. 0, so that rows @ gate_table are N times
        their coefficients at m <= 0.  Built on first use, as the character table is."""
        return _frozen(np.ascontiguousarray(self.characters[: self.n_points // 2 + 1].conj().T))

    def analytic_modes(self, degree: int) -> np.ndarray:
        """Rows e^{im theta_j} for m = 1..degree, a read-only slice of the table."""
        first = self.n_points // 2 + 1
        return self.characters[first : first + degree]


def _is_integer(value) -> bool:
    """True for Python and numpy integers; False for bools, floats and strings."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_integer(value, name: str, least: int, most: int | None = None) -> int:
    """The integer rule: a Python or numpy integer, not a bool, in least..most
    (no upper end when most is None); returned as a plain int."""
    if not _is_integer(value) or value < least or (most is not None and value > most):
        span = f">= {least}" if most is None else f"in {least}..{most}"
        raise ValueError(f"{name} must be an integer {span}; got {value!r}")
    return int(value)


def _check_tolerance(value, name: str = "tol") -> float:
    """The tolerance rule (a finite nonnegative real number, not a bool), as a plain float."""
    try:
        tol = float(value) if isinstance(value, Real) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an int such as 10**400
        tol = math.inf
    if not 0 <= tol < math.inf:
        raise ValueError(f"{name} must be a finite nonnegative real number; got {value!r}")
    return tol


def _check_table(n: int) -> None:
    """The memory guard on the N x N character table, checked before anything is allocated."""
    if n * n > MEMORY_GUARD_ENTRIES:
        raise ValueError(f"memory guard: the {n}x{n} character table exceeds "
                         f"{MEMORY_GUARD_ENTRIES} entries")


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr itself, marked read-only."""
    arr.setflags(write=False)
    return arr


def _stored(values, shape: tuple, what: str) -> np.ndarray:
    """A read-only complex copy of values, which must have the given shape."""
    arr = np.array(values, dtype=np.complex128)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}; got {arr.shape}")
    return _frozen(arr)


def _check_grid_size(n_points) -> None:
    if not _is_integer(n_points) or n_points < 4 or n_points % 4 != 0:
        raise ValueError(
            f"n_points must be an integer multiple of 4, at least 4; got {n_points!r}"
        )
    if n_points > MEMORY_GUARD_ENTRIES:  # the grid's own arrays hold N entries
        raise ValueError(f"memory guard: n_points = {n_points} exceeds "
                         f"{MEMORY_GUARD_ENTRIES} entries")


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
        object.__setattr__(self, "values", _stored(self.values, (self.grid.n_points,), "values"))


def _require_same_grid(a: TorusGrid, b: TorusGrid, what: str) -> None:
    """The same-grid rule for two operands of one operation."""
    if a.n_points != b.n_points:
        raise ValueError(f"grid mismatch between {what}")


def sigma(grid: TorusGrid) -> GridFunction:
    """The sign function sign(Re z): values +-1, exactly mean-zero, flip-invariant."""
    return GridFunction(grid, grid.sign_values.astype(np.complex128))


def inner_product(f: GridFunction, g: GridFunction) -> complex:
    """<f, g> = (1/N) sum_j f(j) conj(g(j))."""
    _require_same_grid(f.grid, g.grid, "operands")
    return complex(np.vdot(g.values, f.values) / f.grid.n_points)


class _WorkingSet:
    """Arrays that a loop holds from one chunk to the next, one buffer per name.

    take(name, shape, dtype) is a C-contiguous array of that shape over the start
    of the name's buffer, which is allocated at the first take and again only when
    a take outgrows it.  A loop over chunks thus sizes its buffers at its first,
    full chunk, a shorter chunk gets leading views, and nothing is allocated or
    freed from chunk to chunk.  A take keeps none of the values of an earlier one
    under its name.  Most names hold one array of a chunk; "real" and "complex"
    are scratch, each in use by one step at a time (the moduli and parts of a
    slab, the scaled rows and coefficients of a gate)."""

    def __init__(self):
        self._buffers = {}

    def take(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        buffer = self._buffers.get(name)
        if buffer is None or len(buffer) < size:
            buffer = self._buffers[name] = np.empty(size, np.uint8)
        return buffer[:size].view(dtype).reshape(shape)


def _rows_are_hardy(grid: TorusGrid, rows: np.ndarray, tol: float, scale=None,
                    zero_floor: float = -np.inf, work: _WorkingSet | None = None) -> np.ndarray:
    """The spectral Hardy energy test: one verdict per row of rows, shape lead + (N,).

    Each row is divided by its scale before squaring, so the verdict is the
    same at every magnitude.  The default scale is the row's largest modulus;
    a given scale (one per sample, say) broadcasts over lead.  A row passes
    the gate rule (_gate_rule) with its energy at m <= 0 (mean, negatives,
    Nyquist) and its mean energy, in units of scale^2.  A row with an inf or a
    NaN fails (its mean coefficient is NaN), and so does a row with a
    non-finite scale.  The default floor admits no row by energy alone.  The
    scaled rows and their coefficients are taken from work's "complex" and
    "real" buffers (a new working set by default).
    """
    if not 0 < tol < np.inf:  # a NaN tol would fail every row, an infinite one pass e^{-i theta}
        raise ValueError(f"tol must be positive and finite; got {tol!r}")
    if scale is None:
        scale = np.abs(rows).max(axis=-1, initial=0.0)
    scale = np.asarray(scale, dtype=float)[..., np.newaxis]
    finite = np.isfinite(scale)
    n = grid.n_points
    work = _WorkingSet() if work is None else work
    # divided and squared as (re, im) pairs of reals: a complex division would
    # multiply by 1/scale, which overflows at a subnormal scale.  The squares
    # are summed by matmul, not by a numpy reduction along the short last axis:
    # on OpenBLAS hosts such a reduction run straight after a BLAS product
    # takes about 7x as long (160 against 21 us over (3, 273, 16) reals), until
    # a dispatched loop such as np.add or np.max over an array has run.
    pairs = np.ascontiguousarray(rows, dtype=np.complex128).view(np.float64)
    parts = work.take("complex", pairs.shape)
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite rows and scales fail below
        np.divide(pairs, np.where(finite & (scale > 0), scale, 1.0), out=parts)
        scaled = parts.view(np.complex128)
        bad = _gate_energy(np.matmul(scaled, grid.gate_table, out=work.take(
            "real", scaled.shape[:-1] + (n // 2 + 1,), complex)), n)
        total = (np.square(parts, out=parts) @ np.ones(2 * n)) / n  # each squared in place
    return _gate_rule(bad, total, tol, zero_floor) & finite[..., 0]


def _gate_energy(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Per row, the energy at m <= 0 (m = -N/2 .. 0) from coeffs, the rows'
    product with grid.gate_table (N times those coefficients), which it
    squares in place: shape coeffs.shape[:-1]."""
    pairs = coeffs.view(float)
    return (np.square(pairs, out=pairs) @ np.ones(n + 2)) / (n * n)


def _gate_rule(bad, total, tol: float, zero_floor=-np.inf):
    """The Hardy gate's rule, per row: a row passes iff its energy at m <= 0,
    bad (_gate_energy), is at most tol^2 times its mean energy, total, or
    total is at most zero_floor (in the same units).  A NaN fails."""
    return (bad <= tol * tol * total) | (total <= zero_floor)


def is_hardy(f: GridFunction, tol: float) -> bool:
    """True iff the energy at m <= 0 (mean, negatives, Nyquist) is below tol^2 * ||f||^2.

    The zero function passes.
    """
    return bool(_rows_are_hardy(f.grid, f.values, tol).all())
