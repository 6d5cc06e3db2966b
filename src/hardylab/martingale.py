"""Finite-depth martingales on grid products, stored by their differences.

A depth-n martingale is kept as its level-0 constant plus, per level k, a
complex difference over grid^k (coordinate 1 slowest) whose mean over the
newest coordinate is checked to be zero, so the filtration structure holds
by construction.  Levels and the terminal array over grid^n are partial sums
built on request.  Only MartingaleField(grid, depth, terminal) averages; the
operations (conjugation-even and -odd parts, dyadic projection, transform)
map stored differences to new ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .torus import MEMORY_GUARD_ENTRIES, TorusGrid, _is_integer, _rows_are_hardy

HARDY_GATE_TOL = 1e-8  # Hardy gate tol of check_transform_isometry and stability_report


def _check_size(grid: TorusGrid, depth) -> int:
    """The depth rule (a positive integer) and the memory guard on N^max(depth, 2):
    every Hardy gate and generator reads the N x N character table."""
    if not _is_integer(depth) or depth < 1:
        raise ValueError(f"depth must be a positive integer; got {depth!r}")
    n = grid.n_points
    if n ** max(depth, 2) > MEMORY_GUARD_ENTRIES:
        what = f"{n}^{depth}" if depth > 1 else f"the {n}x{n} character table"
        raise ValueError(f"memory guard: {what} exceeds {MEMORY_GUARD_ENTRIES} entries")
    return n


def _check_degree(grid: TorusGrid, degree, name: str = "max_degree") -> None:
    """The degree rule 1 <= d <= N/2 - 1: analytic modes stop below Nyquist."""
    top = grid.n_points // 2 - 1
    if not _is_integer(degree) or not 1 <= degree <= top:
        raise ValueError(f"{name} must lie in 1..{top} (Nyquist exclusion); got {degree!r}")


def _coefficient_blocks(grid: TorusGrid, coefficients) -> list:
    """Validate per-level analytic coefficient blocks; return them as complex arrays.

    coefficients[k-1] has shape (N^(k-1), d_k) with 1 <= d_k <= N/2 - 1: one row
    of mode-1..d_k weights for every base point of level k.  Such rows define
    Hardy differences by construction; the memory guard bounds N^depth.
    """
    blocks = [np.asarray(c, dtype=np.complex128) for c in coefficients]
    n = _check_size(grid, len(blocks))
    for k, c in enumerate(blocks, start=1):
        if c.ndim != 2 or c.shape[0] != n ** (k - 1):
            raise ValueError(f"level {k} coefficients must have {n ** (k - 1)} rows; got {c.shape}")
        _check_degree(grid, c.shape[1], f"level {k} degree")
    return blocks


def _scale_bound(base: complex, diffs) -> float:
    """|base| + sum_k max|diff_k|, an upper bound on max|terminal|."""
    return abs(base) + sum(float(np.abs(d).max(initial=0.0)) for d in diffs)


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
        """Validate the parts (mean tolerance 1e-12*scale + 8*2^-1074), then keep read-only copies.

        An inf or a NaN makes the default scale, or else the drift, non-finite,
        so such parts are rejected without a separate pass over the data."""
        n = _check_size(grid, depth)
        diffs = [np.asarray(d) for d in diffs]
        if len(diffs) != depth:
            raise ValueError(f"expected {depth} difference arrays; got {len(diffs)}")
        base = complex(base)
        # averaging leaves a few ulps of mean; scale defaults to the parts' own.
        # Subnormal values round absolutely, so a few units of 2^-1074 are slack too.
        tol = 1e-12 * (_scale_bound(base, diffs) if scale is None else scale) + 8 * math.ulp(0.0)
        if not math.isfinite(tol):
            raise ValueError("martingale values must be finite")
        for k, d in enumerate(diffs, start=1):
            if d.shape != (n,) * k:
                raise ValueError(f"difference {k} must have shape {(n,) * k}; got {d.shape}")
            drift = float(np.abs(d.sum(axis=-1)).max()) / n  # mean over the newest axis
            if not drift <= tol:
                raise ValueError(f"difference {k} has mean {drift:.3g} over its newest axis, not 0")
        diffs = tuple(np.array(d, dtype=np.complex128) for d in diffs)
        for d in diffs:
            d.setflags(write=False)
        self.__dict__.update(grid=grid, depth=depth, base=base, diffs=diffs)  # frozen dataclass

    @property
    def terminal(self) -> np.ndarray:
        """Values over grid^depth, assembled on every access and never stored."""
        return level(self, self.depth)


def _require_unimodular(w, what: str):
    """w itself, once every |w| (scalar or array) is within 1e-12 of 1; a NaN fails."""
    if not np.logical_and.reduce(abs(abs(w) - 1.0) <= 1e-12, axis=None):
        raise ValueError(f"{what} is not unimodular")
    return w


@dataclass(frozen=True, eq=False)
class AdaptedPhases:
    """Unimodular transform multipliers; terms[k] lives on grid^k."""

    grid: TorusGrid
    terms: tuple

    def __post_init__(self):
        n = self.grid.n_points
        cleaned = []
        for k, w in enumerate(self.terms):
            arr = np.asarray(w, dtype=np.complex128)
            if arr.shape != (n,) * k:
                raise ValueError(f"term {k} must have shape {(n,) * k}; got {arr.shape}")
            arr = _require_unimodular(arr, f"term {k}").copy()
            arr.setflags(write=False)
            cleaned.append(arr)
        if not cleaned:
            raise ValueError("at least one multiplier term is required")
        object.__setattr__(self, "terms", tuple(cleaned))

    @property
    def depth(self) -> int:
        return len(self.terms)


def _check_phases(phases: AdaptedPhases, grid: TorusGrid, depth: int) -> None:
    """Phases must live on the same grid and cover every level up to depth."""
    if phases.grid.n_points != grid.n_points:
        raise ValueError("grid mismatch between field and phases")
    if phases.depth < depth:
        raise ValueError(f"phases depth {phases.depth} shorter than field depth {depth}")


@dataclass(frozen=True, eq=False)
class SquareFunctionProfile:
    """Per-level conditional second moments and the combined square function."""

    level_moments: tuple
    combined: np.ndarray


def level(field: MartingaleField, k: int) -> np.ndarray:
    """Level k: the constant plus differences 1..k; shape (N,)*k."""
    if not 0 <= k <= field.depth:
        raise ValueError(f"level index {k} outside 0..{field.depth}")
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
    out._store(field.grid, field.depth, base, diffs, _scale_bound(field.base, field.diffs))
    return out


def _broadcast_sum(moments, depth: int, n: int) -> np.ndarray:
    """Sum per-level arrays (shape lead + (N,)*(k-1)) over the grid^(n-1) base.

    lead is the shape of the level-1 moment: () for one martingale, (M,) for M samples."""
    total = np.zeros(np.shape(moments[0]) + (n,) * (depth - 1))
    for k, q in enumerate(moments, start=1):
        total += q.reshape(q.shape + (1,) * (depth - k))
    return total


def cond_square_profile(field: MartingaleField) -> SquareFunctionProfile:
    """Conditional second moments q_k = E_{k-1}|diff_k|^2 and their combined root."""
    moments = tuple(np.mean(np.abs(d) ** 2, axis=-1) for d in field.diffs)
    combined = np.sqrt(_broadcast_sum(moments, field.depth, field.grid.n_points))
    return SquareFunctionProfile(moments, combined)


def previsible_norm(field: MartingaleField) -> float:
    """L^1 norm of the conditional square function."""
    return float(np.mean(cond_square_profile(field).combined))


def _even_part(diff: np.ndarray) -> np.ndarray:
    """Average of diff and its conjugation (newest coordinate reversed)."""
    return 0.5 * (diff + diff[..., ::-1])


def _odd_part(diff: np.ndarray) -> np.ndarray:
    # exact antisymmetry: reversing negates these values bit-for-bit
    return 0.5 * (diff - diff[..., ::-1])


def cosine_part(field: MartingaleField) -> MartingaleField:
    """Differences averaged over conjugation of their newest coordinate."""
    return _derive(field, field.base, [_even_part(d) for d in field.diffs])


def sine_part(field: MartingaleField) -> MartingaleField:
    """Remainder of the even/odd split; differences are conjugation-odd."""
    return _derive(field, 0.0, [_odd_part(d) for d in field.diffs])


def transform(field: MartingaleField, phases: AdaptedPhases) -> MartingaleField:
    """Real martingale with differences Im(w_{k-1} * diff_k)."""
    _check_phases(phases, field.grid, field.depth)
    return _derive(field, 0.0, [(w[..., None] * d).imag for w, d in zip(phases.terms, field.diffs)])


def is_hardy_martingale(field: MartingaleField, tol: float) -> bool:
    """True iff every newest-coordinate slice of every difference is analytic.

    Each slice y -> diff_k(x, y) must pass the spectral test of is_hardy.
    Slices whose energy sits at round-off scale of the field (_scale_bound)
    count as zero: splitting a terminal array by averaging leaves ~1e-16 junk
    in vanishing differences, and junk carries no frequency information.
    The floor is (1e-13 * scale)^2, and a field with an inf or NaN fails.
    """
    scale = _scale_bound(field.base, field.diffs)
    return all(_rows_are_hardy(field.grid, d.reshape(-1, field.grid.n_points), tol, scale, 1e-13**2)
               for d in field.diffs)


def check_transform_isometry(field: MartingaleField, phases: AdaptedPhases):
    """Previsible norms of the cosine part and of the transform.

    For a Hardy martingale the two agree to round-off: conditioned on the
    past, the newest slice is analytic, and both the even part and
    Im(w * slice) carry exactly half its energy.
    """
    if not is_hardy_martingale(field, HARDY_GATE_TOL):
        raise ValueError("transform isometry requires a Hardy martingale")
    return previsible_norm(cosine_part(field)), previsible_norm(transform(field, phases))


def project_dyadic_cells(grid: TorusGrid, arr: np.ndarray) -> np.ndarray:
    """Average over the sign cells of every coordinate of arr.

    Both cells hold N/2 points and s^2 = 1, so per axis the average is the
    rank-2 projection mean(f) + s*mean(s*f) onto span{1, s}.  Each axis is
    first symmetrized over the pairing j <-> N-1-j (the cells are closed
    under it), so conjugation-odd input projects to exact zero.
    """
    return _project_trailing_cells(grid, arr, arr.ndim)


def _project_trailing_cells(grid: TorusGrid, arr: np.ndarray, n_axes: int) -> np.ndarray:
    """project_dyadic_cells over the last n_axes axes of arr only; the axes
    before them (a sample axis) are carried along."""
    for axis in range(arr.ndim - n_axes, arr.ndim):
        arr = 0.5 * (arr + np.flip(arr, axis=axis))
        s = grid.sign_values.reshape((-1,) + (1,) * (arr.ndim - 1 - axis))
        arr = arr.mean(axis, keepdims=True) + s * (s * arr).mean(axis, keepdims=True)
    return arr


def dyadic_project(field: MartingaleField) -> MartingaleField:
    """Difference-wise conditional expectation given all coordinate signs."""
    return _derive(field, field.base, [project_dyadic_cells(field.grid, d) for d in field.diffs])
