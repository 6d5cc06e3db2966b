"""Finite-depth martingales on grid products, stored by their differences.

A depth-n martingale is kept as its level-0 constant plus, per level k, a
complex difference over grid^k (coordinate 1 slowest) whose mean over the
newest coordinate is checked to be zero, so the filtration structure holds
by construction.  Levels and the terminal array over grid^n are partial sums
built on request.  Only MartingaleField(grid, depth, terminal) averages; the
operations (conjugation-even and -odd parts, dyadic projection, transform)
map stored differences to new ones.

The mean check, the Hardy gate and the transform isometry run over rows:
the differences of M samples (diffs[k-1] of shape (M,) + (N,)*k) laid out as
one (M, R, N) array, R = 1 + N + ... + N^(depth-1), whose rows are the
newest-coordinate slices of level 1, then of level 2, and so on (_rows).
Every per-slice step is then one numpy call over the whole array, and
per-level quantities are reductions over a level's run of rows.  Each
sample keeps its own scale (_scale_bound).  A field is the block of one
sample; a block's norms equal each sample's own bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .torus import (
    MEMORY_GUARD_ENTRIES,
    TorusGrid,
    _check_integer,
    _check_table,
    _require_same_grid,
    _rows_are_hardy,
    _stored,
)

HARDY_GATE_TOL = 1e-8  # Hardy gate tol of check_transform_isometry and stability_report


def _check_size(grid: TorusGrid, depth) -> int:
    """The depth rule (an integer >= 1) and the memory guard on N^max(depth, 2):
    every Hardy gate and generator reads the N x N character table."""
    depth = _check_integer(depth, "depth", 1)
    n = grid.n_points
    _check_table(n)
    if n**depth > MEMORY_GUARD_ENTRIES:
        raise ValueError(f"memory guard: {n}^{depth} exceeds {MEMORY_GUARD_ENTRIES} entries")
    return n


def _check_degree(grid: TorusGrid, degree, name: str = "max_degree") -> None:
    """The degree rule 1 <= d <= N/2 - 1: analytic modes stop below Nyquist."""
    _check_integer(degree, f"{name} (Nyquist exclusion)", 1, grid.n_points // 2 - 1)


def _coefficient_blocks(grid: TorusGrid, coefficients) -> list:
    """Validate per-level analytic coefficient blocks; return them as complex arrays.

    coefficients[k-1] has shape (N^(k-1), d_k) with 1 <= d_k <= N/2 - 1: one row
    of mode-1..d_k weights for every base point of level k.  Such rows define
    Hardy differences by construction; the memory guard bounds N^depth.  Like a
    martingale's values, every coefficient must be finite.
    """
    blocks = [np.asarray(c, dtype=np.complex128) for c in coefficients]
    n = _check_size(grid, len(blocks))
    for k, c in enumerate(blocks, start=1):
        if c.ndim != 2 or c.shape[0] != n ** (k - 1):
            raise ValueError(f"level {k} coefficients must have {n ** (k - 1)} rows; got {c.shape}")
        _check_degree(grid, c.shape[1], f"level {k} degree")
        if not np.isfinite(c).all():
            raise ValueError(f"level {k} coefficients must be finite")
    return blocks


def _stack(parts) -> list:
    """One sample's arrays as a stack of M = 1 samples."""
    return [p[np.newaxis] for p in parts]


def _rows(diffs) -> np.ndarray:
    """Differences stacked along a leading axis of M samples, diffs[k-1] of shape
    (M,) + (N,)*k, as one (M, R, N) array of newest-coordinate slices, level
    after level."""
    count, n = len(diffs[0]), diffs[0].shape[-1]
    return np.concatenate([d.reshape(count, -1, n) for d in diffs], axis=1)


def _level_starts(n: int, r: int) -> list:
    """The first row of every level among R rows of N-point slices: 0, 1, 1 + N, ..."""
    starts = [0]
    while starts[-1] * n + 1 < r:
        starts.append(starts[-1] * n + 1)
    return starts


def _levels(x: np.ndarray, n: int) -> list:
    """Per level k, the level's entries along the last axis (one per row) of x,
    as a view of shape lead + (N,)*(k-1)."""
    bounds = _level_starts(n, x.shape[-1]) + [x.shape[-1]]
    return [x[..., a:b].reshape(x.shape[:-1] + (n,) * k) for k, (a, b) in
            enumerate(zip(bounds, bounds[1:]))]


def _scale_bound(base: complex, moduli: np.ndarray) -> np.ndarray:
    """|base| + sum_k max|diff_k| per sample, an upper bound on max|terminal|,
    from the moduli of rows, shape (M, R, N): shape (M,)."""
    count, r, n = moduli.shape
    # one long reduction per level, much faster than one per row; max is exact
    maxima = np.maximum.reduceat(moduli.reshape(count, -1), [n * s for s in _level_starts(n, r)],
                                 axis=1)
    return abs(base) + sum(maxima.T)  # in level order


def _check_means(rows: np.ndarray, scale) -> None:
    """Per sample of rows, every mean over the newest axis must be within
    1e-12*scale + 8*2^-1074, for scale of shape (M,).

    An inf or a NaN makes _scale_bound's scale, or else the drift, non-finite,
    so such parts are rejected without a separate pass over the data."""
    # averaging leaves a few ulps of mean; subnormal values round absolutely,
    # so a few units of 2^-1074 are slack too
    tol = 1e-12 * scale + 8 * math.ulp(0.0)
    if not np.isfinite(tol).all():
        raise ValueError("martingale values must be finite")
    # the mean over the newest axis, largest per sample and level
    n = rows.shape[-1]
    drift = np.maximum.reduceat(np.abs(rows.sum(axis=-1)), _level_starts(n, rows.shape[1]),
                                axis=1) / n
    held = drift <= tol[:, np.newaxis]
    if not held.all():
        k = int(np.argmin(held.all(axis=0)))  # the first failing level, at its first failing sample
        raise ValueError(f"difference {k + 1} has mean {drift[np.argmin(held[:, k]), k]:.3g} "
                         f"over its newest axis, not 0")


@dataclass(frozen=True, eq=False, init=False)
class MartingaleField:
    """Depth-n martingale: level-0 constant `base` and read-only differences,
    diffs[k-1] of shape (N,)*k.  The constructor splits a terminal array into
    these; field_from_differences stores given ones."""

    grid: TorusGrid
    depth: int
    base: complex
    diffs: tuple

    def __init__(self, grid: TorusGrid, depth: int, terminal):
        n = _check_size(grid, depth)
        levels = [np.asarray(terminal, dtype=np.complex128)]
        if levels[0].shape != (n,) * depth:
            raise ValueError(f"terminal must have shape {(n,) * depth}; got {levels[0].shape}")
        for _ in range(depth):
            levels.insert(0, levels[0].mean(axis=-1))  # levels[k] is level k
        self._store(grid, depth, levels[0], [f - c[..., None] for c, f in zip(levels, levels[1:])])

    def _store(self, grid: TorusGrid, depth: int, base, diffs, scale=None) -> None:
        """Store read-only copies of the parts after _check_means at scale, which
        defaults to the parts' own _scale_bound."""
        n = _check_size(grid, depth)
        diffs = tuple(_stored(d, (n,) * k, f"difference {k}") for k, d in enumerate(diffs, start=1))
        if len(diffs) != depth:
            raise ValueError(f"expected {depth} difference arrays; got {len(diffs)}")
        base = complex(base)
        rows = _rows(_stack(diffs))
        _check_means(rows, _scale_bound(base, np.abs(rows)) if scale is None else scale)
        self.__dict__.update(grid=grid, depth=depth, base=base, diffs=diffs)  # frozen dataclass

    @property
    def terminal(self) -> np.ndarray:
        """Values over grid^depth, assembled on every access and never stored."""
        return level(self, self.depth)


def _unimodular(w):
    """Where |w| (scalar or array) is within 1e-12 of 1; not at a NaN."""
    return abs(abs(w) - 1.0) <= 1e-12


def _require_unimodular(w, what: str):
    """w itself, once every |w| (scalar or array) is within 1e-12 of 1; a NaN fails."""
    if not np.logical_and.reduce(_unimodular(w), axis=None):
        raise ValueError(f"{what} is not unimodular")
    return w


@dataclass(frozen=True, eq=False)
class AdaptedPhases:
    """Unimodular transform multipliers; terms[k] lives on grid^k."""

    grid: TorusGrid
    terms: tuple

    def __post_init__(self):
        n = self.grid.n_points
        terms = tuple(_require_unimodular(_stored(w, (n,) * k, f"term {k}"), f"term {k}")
                      for k, w in enumerate(self.terms))
        if not terms:
            raise ValueError("at least one multiplier term is required")
        object.__setattr__(self, "terms", terms)

    @property
    def depth(self) -> int:
        return len(self.terms)


def _check_phases(phases: AdaptedPhases, grid: TorusGrid, depth: int) -> None:
    """Phases must live on the same grid and cover every level up to depth."""
    _require_same_grid(phases.grid, grid, "field and phases")
    if phases.depth < depth:
        raise ValueError(f"phases depth {phases.depth} shorter than field depth {depth}")


@dataclass(frozen=True, eq=False)
class SquareFunctionProfile:
    """Per-level conditional second moments q_k = E_{k-1}|diff_k|^2."""

    level_moments: tuple


def level(field: MartingaleField, k: int) -> np.ndarray:
    """Level k: the constant plus differences 1..k; shape (N,)*k."""
    k = _check_integer(k, "level index k", 0, field.depth)
    out = np.full((field.grid.n_points,) * k, field.base, dtype=np.complex128)
    for j, d in enumerate(field.diffs[:k], start=1):
        out += d.reshape(d.shape + (1,) * (k - j))
    return out


def field_from_differences(grid: TorusGrid, depth: int, base: complex, diffs) -> MartingaleField:
    """Field with level-0 constant `base` and the given differences, stored as
    read-only copies; each must have mean zero over its newest coordinate."""
    field = object.__new__(MartingaleField)
    field._store(grid, depth, base, diffs)
    return field


def _derive(field: MartingaleField, base: complex, diffs) -> MartingaleField:
    """Result of an operation on `field`.  Its differences keep the source's round-off
    mean, which may dwarf their own size, so the check uses the source's scale."""
    out = object.__new__(MartingaleField)
    scale = _scale_bound(field.base, np.abs(_rows(_stack(field.diffs))))
    out._store(field.grid, field.depth, base, diffs, scale)
    return out


def _broadcast_sum(moments, depth: int, n: int) -> np.ndarray:
    """Sum per-level arrays (shape lead + (N,)*(k-1)) over the grid^(n-1) base.

    lead is the shape of the level-1 moment: () for one martingale, (M,) for M samples."""
    total = np.zeros(np.shape(moments[0]) + (n,) * (depth - 1))
    for k, q in enumerate(moments, start=1):
        total += q.reshape(q.shape + (1,) * (depth - k))
    return total


def _root_mean(moments, depth: int, n: int) -> np.ndarray:
    """Per sample, the mean over grid^(n-1) of the root of the summed per-level
    moments, for moments of shape lead + (N,)*(k-1): shape lead."""
    lead = np.shape(moments[0])
    return np.mean(np.sqrt(_broadcast_sum(moments, depth, n)).reshape(lead + (-1,)), axis=-1)


def _level_moments(diffs) -> tuple:
    """q_k = mean |diff_k|^2 over the newest axis, for any leading axes."""
    return tuple(np.mean(np.abs(d) ** 2, axis=-1) for d in diffs)


def cond_square_profile(field: MartingaleField) -> SquareFunctionProfile:
    """Conditional second moments q_k = E_{k-1}|diff_k|^2."""
    return SquareFunctionProfile(_level_moments(field.diffs))


def previsible_norm(field: MartingaleField) -> float:
    """L^1 norm of the conditional square function sqrt(sum_k q_k)."""
    moments = _level_moments(_stack(field.diffs))
    return float(_root_mean(moments, field.depth, field.grid.n_points)[0])


def _even_part(diff: np.ndarray) -> np.ndarray:
    """Average of diff and its conjugation (newest coordinate reversed)."""
    return 0.5 * (diff + diff[..., ::-1])


def _odd_part(diff: np.ndarray) -> np.ndarray:
    # exact antisymmetry: reversing negates these values bit-for-bit
    return 0.5 * (diff - diff[..., ::-1])


def _turned(w: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Im(w * diff), with w constant along the newest axis of diff."""
    return (w[..., np.newaxis] * diff).imag


def cosine_part(field: MartingaleField) -> MartingaleField:
    """Differences averaged over conjugation of their newest coordinate."""
    return _derive(field, field.base, [_even_part(d) for d in field.diffs])


def sine_part(field: MartingaleField) -> MartingaleField:
    """Remainder of the even/odd split; differences are conjugation-odd."""
    return _derive(field, 0.0, [_odd_part(d) for d in field.diffs])


def transform(field: MartingaleField, phases: AdaptedPhases) -> MartingaleField:
    """Real martingale with differences Im(w_{k-1} * diff_k)."""
    _check_phases(phases, field.grid, field.depth)
    return _derive(field, 0.0, [_turned(w, d) for w, d in zip(phases.terms, field.diffs)])


def is_hardy_martingale(field: MartingaleField, tol: float) -> bool:
    """True iff every newest-coordinate slice of every difference is analytic.

    Each slice y -> diff_k(x, y) must pass the spectral test of is_hardy.
    Slices whose energy sits at round-off scale of the field (_scale_bound)
    count as zero: splitting a terminal array by averaging leaves ~1e-16 junk
    in vanishing differences, and junk carries no frequency information.
    The floor is (1e-13 * scale)^2, and a field with an inf or NaN fails.
    """
    rows = _rows(_stack(field.diffs))
    return bool(_are_hardy(field.grid, rows, _scale_bound(field.base, np.abs(rows)), tol).all())


def _are_hardy(grid: TorusGrid, rows: np.ndarray, scale: np.ndarray, tol: float) -> np.ndarray:
    """is_hardy_martingale per sample of rows, each sample at its own scale
    (shape (M,)): one scale for the whole block would put a small sample's junk
    under the zero floor.  Returns (M,) verdicts."""
    return _rows_are_hardy(grid, rows, tol, scale[:, np.newaxis], 1e-13**2).all(axis=1)


def check_transform_isometry(field: MartingaleField, phases: AdaptedPhases):
    """Previsible norms of the cosine part and of the transform.

    For a Hardy martingale the two agree to round-off: conditioned on the
    past, the newest slice is analytic, and both the even part and
    Im(w * slice) carry exactly half its energy.
    """
    _check_phases(phases, field.grid, field.depth)
    cosine, transformed, _ = _isometry_norms(field.grid, _rows(_stack(field.diffs)),
                                             _stack(phases.terms), field.base)
    return float(cosine[0]), float(transformed[0])


def _isometry_norms(grid: TorusGrid, rows: np.ndarray, terms, base: complex = 0.0) -> tuple:
    """check_transform_isometry over M samples, plus each sample's previsible norm.

    rows, of shape (M, R, N), holds the samples' differences (_rows; their
    level-0 constant is base) and terms[k], of shape (M,) + (N,)*k, their
    multipliers; terms beyond the depth of the rows are not used.  Each
    sample gets the checks of its own MartingaleField, AdaptedPhases, Hardy
    gate, cosine_part and transform, at its own scale.  Each step is one
    numpy call over the rows, with the multipliers as one (M, R) array, and
    the three moment arrays share one (3, M, R) buffer, each square taken
    alone.  Returns the previsible norms of the cosine parts, of the
    transforms and of the martingales themselves, each of shape (M,).
    """
    n = grid.n_points
    depth = len(_level_starts(n, rows.shape[1]))
    moduli = np.abs(rows)
    scale = _scale_bound(base, moduli)
    # sums of squares over the newest axis, as np.mean adds them: the cosine
    # part, the transform and the martingale itself
    moments = np.empty((3,) + rows.shape[:-1])
    np.add.reduce(np.square(moduli, out=moduli), axis=-1, out=moments[2])
    del moduli
    _check_means(rows, scale)
    w = np.concatenate([t.reshape(len(t), -1) for t in terms[:depth]], axis=1)
    held = _unimodular(w).all(axis=0)
    if not held.all():
        k = np.searchsorted(_level_starts(n, len(held)), np.argmin(held), side="right") - 1
        raise ValueError(f"term {k} is not unimodular")
    if not _are_hardy(grid, rows, scale, HARDY_GATE_TOL).all():
        raise ValueError("transform isometry requires a Hardy martingale")

    def add_moments(i: int, part: np.ndarray) -> None:
        _check_means(part, scale)  # as _derive does, at the source's scale
        squares = np.abs(part)
        np.add.reduce(np.square(squares, out=squares), axis=-1, out=moments[i])

    add_moments(0, _even_part(rows))  # one part held at a time
    add_moments(1, _turned(w, rows))
    moments /= n  # the means, divided as np.mean divides
    return tuple(_root_mean(_levels(moments, n), depth, n))


def project_dyadic_cells(grid: TorusGrid, arr: np.ndarray) -> np.ndarray:
    """Average over the sign cells of every coordinate of arr.

    Both cells hold N/2 points and s^2 = 1, so per axis the average is the
    rank-2 projection mean(f) + s*mean(s*f) onto span{1, s}.  Each axis is
    first symmetrized over the pairing j <-> N-1-j (the cells are closed
    under it), so conjugation-odd input projects to exact zero.  Every axis
    of arr must have length N.
    """
    arr = np.asarray(arr)
    if any(length != grid.n_points for length in arr.shape):
        raise ValueError(f"arr must have length {grid.n_points} on every axis; got {arr.shape}")
    return _project_trailing_cells(grid, arr, arr.ndim)


def _project_trailing_cells(grid: TorusGrid, arr: np.ndarray, n_axes: int) -> np.ndarray:
    """project_dyadic_cells over the last n_axes axes of arr only; the axes
    before them (a sample axis) are carried along."""
    for axis in range(arr.ndim - n_axes, arr.ndim):
        arr = 0.5 * (arr + np.flip(arr, axis=axis))
        s = grid.sign_values.reshape((-1,) + (1,) * (arr.ndim - 1 - axis))
        arr = arr.mean(axis, keepdims=True) + s * (s * arr).mean(axis, keepdims=True)
    return arr if n_axes else arr.copy()  # a new array at every shape, 0-d too


def dyadic_project(field: MartingaleField) -> MartingaleField:
    """Difference-wise conditional expectation given all coordinate signs."""
    return _derive(field, field.base, [project_dyadic_cells(field.grid, d) for d in field.diffs])
