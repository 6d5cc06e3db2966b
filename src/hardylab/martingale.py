"""Finite-depth martingales on grid products, stored by their differences.

A depth-n martingale is kept as its level-0 constant plus, per level k, a
complex difference over grid^k (coordinate 1 slowest) whose mean over the
newest coordinate is checked to be zero, so the filtration structure holds
by construction.  The differences live in one read-only (R, N) array of rows,
R = 1 + N + ... + N^(depth-1): the newest-coordinate slices of level 1, then
of level 2, and so on; diffs[k-1], of shape (N,)*k, views level k's run of
rows (_levels).  Levels and the terminal array over grid^n are partial sums
built on request.  Only MartingaleField(grid, depth, terminal) averages; the
operations (conjugation-even and -odd parts, dyadic projection, transform)
map the rows to new ones, only checked finite (_derive): means are checked
once, where rows come in (_owning, which builds every field; _isometry_norms).

The mean check, the Hardy gate and the transform isometry run over the rows
of M samples as one (M, R, N) array, a field's being rows[np.newaxis].  The
scale, the gate and the isometry walk it in contiguous slabs of at most
_SLAB_ENTRIES entries (_slabs): whole samples where one fits, else runs of
rows of one sample.  Each slab's moduli give every sample's largest modulus
per level, one np.max per level and slab (_fold_maxima), and the isometry's
sums per row, kept as an (M, R) array.  The isometry and the gate take their
arrays, one real and one complex slab buffer among them, from a working set
(torus._WorkingSet): a new one per call, or the one that a loop over chunks
holds for a whole run, so that its chunks allocate nothing.  Each sample
keeps its own scale (_scale_bound); a block's norms equal each sample's own
bit for bit, wherever the slabs fall.  Sums and squares of a sample whose
scale lies beyond a fixed window are taken at a power of two and scaled
back (_unit_scaled, the one scale rule); within it, rows are taken as they are.
The terminal split, the mean check, previsible_norm and
check_transform_isometry each take that step first and reduce the stepped
rows once; the batch isometry (_isometry_norms) refuses a sample beyond the
window.
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
    _frozen,
    _rows_are_hardy,
    _stored,
    _WorkingSet,
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


def _row_count(n: int, depth: int) -> int:
    """R = 1 + N + ... + N^(depth-1), the newest-coordinate slices of a depth-n martingale."""
    return sum(n**k for k in range(depth))


def _level_bounds(n: int, r: int) -> list:
    """The first row of every level among R rows of N-point slices, then R:
    0, 1, 1 + N, ..., R."""
    bounds = [0]
    while bounds[-1] * n + 1 < r:
        bounds.append(bounds[-1] * n + 1)
    return bounds + [r]


def _levels(x: np.ndarray, n: int) -> list:
    """Per level k, the level's run of rows of x, of shape lead + (R, T), as a
    view of shape lead + (N,)*(k-1) + (T,): for T = N, the level's differences."""
    bounds = _level_bounds(n, x.shape[-2])
    return [x[..., a:b, :].reshape(x.shape[:-2] + (n,) * k + x.shape[-1:]) for k, (a, b) in
            enumerate(zip(bounds, bounds[1:]))]


# Grid entries per slab of rows: the scale, the Hardy gate and the transform
# isometry walk their rows a slab at a time, so their temporaries stay near
# one slab whatever the rows' size.  The chain's node quantities
# (inequalities._chain_fold) walk a level's nodes in slabs of as many
# coefficients, cut the same way: a parent node, with its N children of d
# coefficients each, stands for a row.
_SLAB_ENTRIES = 2**14


def _slabs(shape: tuple) -> list:
    """Index pairs (samples, rows) that cut an array of shape (M, R, N) into
    contiguous slabs of at most _SLAB_ENTRIES entries, in order: whole samples
    where one fits, else runs of rows of one sample (at least one row)."""
    count, r, n = shape
    if r * n <= _SLAB_ENTRIES:
        return [(samples, slice(None)) for samples in _node_slabs(count, r * n)]
    return [(slice(i, i + 1), part) for i in range(count) for part in _node_slabs(r, n)]


def _node_slabs(nodes: int, width: int) -> list:
    """Slices that cut a flattened axis of `nodes` items of `width` entries each
    (a node's coefficient row) into slabs of at most _SLAB_ENTRIES entries, in
    order (at least one item per slab)."""
    step = max(1, _SLAB_ENTRIES // width)
    return [slice(i, i + step) for i in range(0, nodes, step)]


def _fold_maxima(maxima: np.ndarray, s: tuple, moduli: np.ndarray, bounds: list) -> None:
    """Fold the moduli of slab s of an (M, R, N) rows array into maxima, each
    sample's largest modulus per level so far, shape (M, levels): one np.max
    over each level's run of rows in the slab.  bounds are the levels' first
    rows, then R.  Max is exact and keeps a NaN, so the maxima do not depend
    on where the slabs fall."""
    samples, part = s
    first = part.start or 0
    for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
        a, b = max(a - first, 0), min(b - first, moduli.shape[1])
        if a < b:
            top = maxima[samples, k]  # a view
            np.maximum(top, np.max(moduli[:, a:b], axis=(1, 2)), out=top)


def _scale_bound(base: complex, rows: np.ndarray) -> np.ndarray:
    """|base| + sum_k max|diff_k| per sample, an upper bound on max|terminal|,
    for rows of shape (M, R, N), from their level maxima (_summed_scale): shape (M,)."""
    bounds = _level_bounds(rows.shape[-1], rows.shape[1])
    maxima = np.zeros((len(rows), len(bounds) - 1))
    for s in _slabs(rows.shape):
        _fold_maxima(maxima, s, np.abs(rows[s]), bounds)
    return _summed_scale(base, maxima)


def _summed_scale(base: complex, maxima: np.ndarray) -> np.ndarray:
    """|base| plus each sample's level maxima (shape (M, levels)), added in level
    order: shape (M,).  Where that sum overflows though |base| and every maximum
    are finite, the largest double stands for it, so a finite martingale keeps a
    finite scale; an inf or a NaN among them still gives a non-finite one."""
    with np.errstate(over="ignore"):
        scale = abs(base) + sum(maxima.T)
    past = np.isinf(scale) & np.isfinite(maxima).all(axis=1) & np.isfinite(abs(base))
    scale[past] = np.finfo(float).max
    return scale


# A sample's sums and squares are taken at 2^-e, 2^e just above its scale,
# only where |e| > _SCALE_WINDOW (_unit_scaled).  Within the window its
# moduli lie below 2^400, their squares below 2^800 and a sum of up to
# MEMORY_GUARD_ENTRIES = 2^24 of them below 2^824, short of float64's 2^1024;
# and a modulus within 2^-100 of the scale (2^-501 at least) squares to a
# normal double (2^-1002 > 2^-1022), while a smaller one's square lies 2^-200
# below the largest, under the rounding of any norm it enters.  So the step
# would change no square or sum there, and the rows are taken as they are.
_SCALE_WINDOW = 400

# The Hardy gate passes a row whose mean energy is at most _ZERO_FLOOR times
# its sample's scale squared untested, as junk at round-off of the field
# (_are_hardy).  The isometry's norms read such a row as the gate does: where
# it fails the gate's test at its own scale, it enters each of the three norms
# as 0 (_isometry_norms).  The isometry holds for analytic rows only, and
# 1 + 1e-170 e^{i theta} rounds to 1 + 1e-170 i sin(theta), whose cosine part
# vanishes while its transform does not; an analytic row below the floor
# keeps its norms, which agree.
_ZERO_FLOOR = 1e-13**2


def _unit_scaled(x: np.ndarray, scale: np.ndarray) -> tuple:
    """x at 2^-e per sample, and e (shape (M,)), for x of shape (M, ...) and the
    samples' scales, shape (M,) (or one scale, shape (1,), for any x): e is the
    frexp exponent of a scale beyond the window, so that the sample's moduli
    fall below 1, and 0 at every other scale, where x is taken as it is."""
    e = np.frexp(scale)[1]
    e[abs(e) <= _SCALE_WINDOW] = 0
    return _ldexp(x, -e), e


def _ldexp(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """x * 2^e per sample, for a C-contiguous complex x of shape (M, ...) and e
    of shape (M,) (or shape (1,), for any x): each part scaled as a real, so
    exactly wherever it stays normal, into a new array; x itself where every
    e is 0."""
    if not e.any():
        return x
    return np.ldexp(x.view(np.float64), e.reshape((-1,) + (1,) * (x.ndim - 1))).view(np.complex128)


def _check_means(rows: np.ndarray, scale: np.ndarray) -> None:
    """Per sample of rows, shape (M, R, N), every mean over the newest axis must
    be within 1e-12*scale + 8*2^-1074 of 0, for scale of shape (M,), the rows'
    _scale_bound.  An inf or a NaN in the rows makes that scale non-finite, so
    they are rejected before any sum over them.  The means are taken at the
    rows' _unit_scaled step and scaled back."""
    # averaging leaves a few ulps of mean; subnormal values round absolutely,
    # so a few units of 2^-1074 are slack too
    tol = 1e-12 * scale + 8 * math.ulp(0.0)
    if not np.isfinite(tol).all():
        raise ValueError("martingale values must be finite")
    x, e = _unit_scaled(rows, scale)
    starts = _level_bounds(rows.shape[-1], rows.shape[1])[:-1]
    # the mean over the newest axis, largest per sample and level
    drift = np.maximum.reduceat(np.abs(x.sum(axis=-1)), starts, axis=1) / x.shape[-1]
    drift = np.ldexp(drift, e[:, np.newaxis])
    held = drift <= tol[:, np.newaxis]
    if not held.all():
        k = int(np.argmin(held.all(axis=0)))  # the first failing level, at its first failing sample
        raise ValueError(f"difference {k + 1} has mean {drift[np.argmin(held[:, k]), k]:.3g} "
                         f"over its newest axis, not 0")


@dataclass(frozen=True, eq=False, init=False)
class MartingaleField:
    """Depth-n martingale: level-0 constant `base` and its differences as one read-only
    (R, N) array `rows` that it owns; diffs are views of it.  The constructor splits a
    terminal array into these; field_from_differences copies given differences."""

    grid: TorusGrid
    depth: int
    base: complex
    rows: np.ndarray

    def __init__(self, grid: TorusGrid, depth: int, terminal):
        n = _check_size(grid, depth)
        terminal = np.asarray(terminal, dtype=np.complex128)
        if terminal.shape != (n,) * depth:
            raise ValueError(f"terminal must have shape {(n,) * depth}; got {terminal.shape}")
        # averaged at the _unit_scaled step of the largest part (|z| itself can
        # overflow), so that no sum overflows; exact in the normal range
        parts = np.ascontiguousarray(terminal).view(np.float64)
        *levels, e = _unit_scaled(parts.view(np.complex128),
                                  np.array([max(parts.max(), -parts.min())]))
        for _ in range(depth):
            levels.insert(0, levels[0].mean(axis=-1))  # levels[k] is level k
        rows = np.empty((_row_count(n, depth), n), dtype=np.complex128)
        for out, c, f in zip(_levels(rows, n), levels, levels[1:]):
            np.subtract(f, c[..., np.newaxis], out=out)
        _owning(grid, depth, _ldexp(levels[0].reshape(1), e)[0], _ldexp(rows, e), field=self)

    @property
    def diffs(self) -> tuple:
        """Read-only views of the rows: diffs[k-1], of shape (N,)*k, is difference k."""
        return tuple(_levels(self.rows, self.grid.n_points))

    @property
    def terminal(self) -> np.ndarray:
        """Values over grid^depth, assembled on every access and never stored."""
        return level(self, self.depth)


def _owning(grid: TorusGrid, depth: int, base, rows, field=None) -> MartingaleField:
    """The field (by default a new instance) of base and rows, a new (R, N) array that it
    takes over read-only once _check_means holds at the rows' own scale."""
    base, block = complex(base), rows[np.newaxis]
    _check_means(block, _scale_bound(base, block))
    return _assembled(grid, depth, base, rows, field)


def _assembled(grid: TorusGrid, depth: int, base, rows, field=None) -> MartingaleField:
    """The field (by default a new instance) of base and rows, which it takes over
    read-only, unchecked."""
    field = object.__new__(MartingaleField) if field is None else field
    # a frozen dataclass
    field.__dict__.update(grid=grid, depth=depth, base=complex(base), rows=_frozen(rows))
    return field


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
    """Field with level-0 constant `base` and the given differences, any iterable of
    them, copied into its rows; each must have mean zero over its newest coordinate."""
    n = _check_size(grid, depth)
    rows = np.empty((_row_count(n, depth), n), dtype=np.complex128)
    levels, count = _levels(rows, n), 0
    for count, d in enumerate(diffs, start=1):
        d = np.asarray(d, dtype=np.complex128)
        if d.shape != (n,) * count:
            raise ValueError(f"difference {count} must have shape {(n,) * count}; got {d.shape}")
        if count <= depth:
            levels[count - 1][...] = d
    if count != depth:
        raise ValueError(f"expected {depth} difference arrays; got {count}")
    return _owning(grid, depth, base, rows)


def _derive(field: MartingaleField, base: complex, rows: np.ndarray) -> MartingaleField:
    """Result of an operation on `field`, with new rows that it takes over read-only, only
    checked finite (values near 1e308 can overflow): their means are the source's, mapped,
    plus rounding that a second check at the tolerance's edge can reject.  Operations form
    rows with overflow warnings off, so an overflow raises here whatever the filters."""
    if not np.isfinite(rows).all():
        raise ValueError("martingale values must be finite")
    return _assembled(field.grid, field.depth, base, rows)


def _root_mean(moments, out=None) -> np.ndarray:
    """Per sample, the mean over grid^(n-1) of the root of the summed per-level moments
    (level k's of shape lead + (N,)*(k-1)): shape lead, () for one martingale and (M,)
    for M samples.  Each partial sum lives on its own level's grid and is spread over
    the next level's newest axis, so every point adds the same terms in the same order
    as a sum held over grid^(n-1) throughout.  Only the last sum spans grid^(n-1); it
    is written into out (a new array by default), which may be the last level's
    moments themselves."""
    *shallow, deepest = moments
    total = 0.0
    for q in shallow:
        total = (total + q)[..., np.newaxis]
    total = np.add(total, deepest, out=np.empty(np.shape(deepest)) if out is None else out)
    return np.mean(np.sqrt(total, out=total).reshape(np.shape(moments[0]) + (-1,)), axis=-1)


def cond_square_profile(field: MartingaleField) -> SquareFunctionProfile:
    """Conditional second moments q_k = E_{k-1}|diff_k|^2."""
    return SquareFunctionProfile(tuple(np.mean(np.abs(d) ** 2, axis=-1) for d in field.diffs))


def previsible_norm(field: MartingaleField) -> float:
    """L^1 norm of the conditional square function sqrt(sum_k q_k).

    The differences are squared at the _unit_scaled step of their own scale
    (the base takes no part in the norm), and the norm is scaled back: a norm
    near 1e308 stays finite, one near 1e-308 keeps its digits, and within the
    window every bit is the unscaled computation's."""
    rows, e = _unit_scaled(field.rows, _scale_bound(0.0, field.rows[np.newaxis]))
    moments = [np.mean(np.abs(d) ** 2, axis=-1) for d in _levels(rows, field.grid.n_points)]
    return float(np.ldexp(_root_mean(moments), e[0]))


def _even_part(diff: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Average of diff and its conjugation (newest coordinate reversed), written
    into out (a new array by default)."""
    total = np.add(diff, diff[..., ::-1], out=out)
    return np.multiply(0.5, total, out=total)


def _odd_part(diff: np.ndarray) -> np.ndarray:
    # exact antisymmetry: reversing negates these values bit-for-bit
    return 0.5 * (diff - diff[..., ::-1])


def cosine_part(field: MartingaleField) -> MartingaleField:
    """Differences averaged over conjugation of their newest coordinate."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _derive(field, field.base, _even_part(field.rows))


def sine_part(field: MartingaleField) -> MartingaleField:
    """Remainder of the even/odd split; differences are conjugation-odd."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _derive(field, 0.0, _odd_part(field.rows))


def transform(field: MartingaleField, phases: AdaptedPhases) -> MartingaleField:
    """Real martingale with differences Im(w_{k-1} * diff_k)."""
    _check_phases(phases, field.grid, field.depth)
    w = np.concatenate([t.ravel() for t in phases.terms[:field.depth]])  # one per row
    with np.errstate(over="ignore", invalid="ignore"):
        rows = w[:, np.newaxis] * field.rows
    # Im(w * diff), in the product's own buffer: a ufunc sees that the parts do
    # not overlap, where an assignment would copy the imaginary parts first
    np.positive(rows.imag, out=rows.real)
    rows.imag = 0.0
    return _derive(field, 0.0, rows)


def is_hardy_martingale(field: MartingaleField, tol: float) -> bool:
    """True iff every newest-coordinate slice of every difference is analytic.

    Each slice y -> diff_k(x, y) must pass the spectral test of is_hardy.
    Slices whose energy sits at round-off scale of the field (_scale_bound)
    count as zero: splitting a terminal array by averaging leaves ~1e-16 junk
    in vanishing differences, and junk carries no frequency information.
    The floor is _ZERO_FLOOR, (1e-13 * scale)^2, and a field with an inf or
    NaN fails.
    """
    rows = field.rows[np.newaxis]
    return bool(_are_hardy(field.grid, rows, _scale_bound(field.base, rows), tol).all())


def _are_hardy(grid: TorusGrid, rows: np.ndarray, scale: np.ndarray, tol: float,
               work: _WorkingSet | None = None, floored: np.ndarray | None = None) -> np.ndarray:
    """is_hardy_martingale per sample of rows, each sample at its own scale
    (shape (M,)): one scale for the whole block would put a small sample's junk
    under the zero floor.  The rows are gated slab by slab, in work's slab
    buffers (a new working set by default); returns (M,) verdicts.  Given
    floored, of shape (M, R), it is set where a row passed by the zero floor."""
    work = _WorkingSet() if work is None else work
    held = np.ones(len(rows), dtype=bool)
    for s in _slabs(rows.shape):
        samples = s[0]
        held[samples] &= _rows_are_hardy(grid, rows[s], tol, scale[samples, np.newaxis],
                                         _ZERO_FLOOR, work,
                                         None if floored is None else floored[s]).all(axis=1)
    return held


def check_transform_isometry(field: MartingaleField, phases: AdaptedPhases):
    """Previsible norms of the cosine part and of the transform.

    For a Hardy martingale the two agree to round-off: conditioned on the
    past, the newest slice is analytic, and both the even part and
    Im(w * slice) carry exactly half its energy.  The differences are taken
    at the _unit_scaled step of their own scale, with |base| at the same step
    (the largest double where that overflows), and the norms are scaled back.
    """
    _check_phases(phases, field.grid, field.depth)
    rows, e = _unit_scaled(field.rows[np.newaxis], _scale_bound(0.0, field.rows[np.newaxis]))
    with np.errstate(over="ignore"):
        base = min(np.ldexp(abs(field.base), -e[0]), np.finfo(float).max)
    cosine, transformed, _ = _isometry_norms(field.grid, rows,
                                             [t[np.newaxis] for t in phases.terms], base)
    return float(np.ldexp(cosine[0], e[0])), float(np.ldexp(transformed[0], e[0]))


def _isometry_norms(grid: TorusGrid, rows: np.ndarray, terms, base: complex = 0.0,
                    work: _WorkingSet | None = None) -> tuple:
    """check_transform_isometry over M samples, plus each sample's previsible norm.

    rows, of shape (M, R, N), holds the samples' differences (their level-0
    constant is base) and terms[k], of shape (M,) + (N,)*k, their
    multipliers; terms beyond the depth of the rows are not used.  Each
    sample gets the checks of its own MartingaleField, AdaptedPhases, Hardy
    gate, cosine_part and transform, at its own scale, and the error of the
    first check that fails over all samples, in that order.

    The rows are walked twice in _slabs.  Pass 1 takes each slab's moduli,
    their sums of squares per row and each sample's largest modulus per level;
    from those maxima follow the scale, equal to _scale_bound's, and then the
    mean check, the window check and, level by level, the multipliers' check.
    A sample whose differences' scale lies beyond the window, where the
    passes' squares can overflow or underflow, fails the window check with a
    ValueError: such rows are taken at their _unit_scaled step first
    (check_transform_isometry), so no batch reads the vacuous norms of
    squares taken unscaled.  After the gate,
    pass 2 takes each slab's even part and then its turned part, one at a
    time, with their sums of squares (unchecked means, as in _derive).  The
    three sums of every row that the gate passed by its zero floor and that is
    not analytic at its own scale are then set to 0 (_ZERO_FLOOR).  Every
    array the passes fill is taken from work (a new working set by default):
    the (3, M, R) sums, the (M, levels) maxima, the multipliers, the (M, R)
    mask of those rows, and one real and one complex slab buffer that the
    gate shares.  Returns the previsible norms of the cosine parts, of the
    transforms and of the martingales themselves, each of shape (M,).
    """
    n = grid.n_points
    count, r = rows.shape[:2]
    bounds = _level_bounds(n, r)
    work = _WorkingSet() if work is None else work
    slabs = _slabs(rows.shape)
    # per row, in the order cosine part, transform, martingale: the sum of
    # squares over the newest axis, as np.mean adds them
    moments = work.take("moments", (3, count, r))
    maxima = work.take("maxima", (count, len(bounds) - 1))
    maxima[...] = 0.0
    # squares that overflow lie beyond the window, whose samples are refused
    # below; within it, squares of the smallest moduli may underflow
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for s in slabs:
            moduli = np.abs(rows[s], out=work.take("real", rows[s].shape))
            _fold_maxima(maxima, s, moduli, bounds)
            np.add.reduce(np.square(moduli, out=moduli), axis=-1, out=moments[2][s])
    scale = _summed_scale(base, maxima)
    _check_means(rows, scale)
    if _unit_scaled(rows, _summed_scale(0.0, maxima))[1].any():
        raise ValueError("isometry rows must lie within the scale window (_unit_scaled)")
    terms = terms[:len(bounds) - 1]
    w = np.concatenate([_require_unimodular(t, f"term {k}").reshape(count, -1)
                        for k, t in enumerate(terms)], axis=1,
                       out=work.take("multipliers", (count, r), complex))
    junk = work.take("junk", (count, r), bool)  # passed by the floor, then not analytic
    if not _are_hardy(grid, rows, scale, HARDY_GATE_TOL, work, junk).all():
        raise ValueError("transform isometry requires a Hardy martingale")
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for s in slabs:  # one part held at a time, in the complex slab buffer
            part = work.take("complex", rows[s].shape, complex)
            squares = work.take("real", rows[s].shape)
            _even_part(rows[s], out=part)
            np.add.reduce(np.square(np.abs(part, out=squares), out=squares), axis=-1,
                          out=moments[0][s])
            np.multiply(w[s][..., np.newaxis], rows[s], out=part)  # Im(w * diff) is part.imag
            # |x|^2 is x * x bit for bit for a real x
            np.add.reduce(np.square(part.imag, out=squares), axis=-1, out=moments[1][s])
    if junk.any():
        junk[junk] = ~_rows_are_hardy(grid, rows[junk], HARDY_GATE_TOL)
        np.copyto(moments, 0.0, where=junk)
    moments /= n  # the means, divided as np.mean divides
    levels = [q[..., 0] for q in _levels(moments[..., np.newaxis], n)]
    return tuple(_root_mean(levels, out=work.take("real", levels[-1].shape)))


def project_dyadic_cells(grid: TorusGrid, arr: np.ndarray) -> np.ndarray:
    """Average over the sign cells of every coordinate of arr, as a new array.

    Per axis the average is the rank-2 projection onto span{1, s}: each point
    takes the mean of its cell, the N/2 points of its sign.  The cells are
    closed under the pairing j <-> N-1-j, so each axis is first folded over it
    (its first half plus its reversed second half), which leaves exact zeros
    for conjugation-odd input, and the folded half's two quarters are then
    summed into the two cell means.  So every axis shrinks from N to 2 before
    any is spread back, and no step handles more than half of arr.  Every axis
    of arr must have length N.
    """
    arr = np.asarray(arr)
    if any(length != grid.n_points for length in arr.shape):
        raise ValueError(f"arr must have length {grid.n_points} on every axis; got {arr.shape}")
    return _project_trailing_cells(grid, arr, arr.ndim)


def _project_trailing_cells(grid: TorusGrid, arr: np.ndarray, n_axes: int,
                            out: np.ndarray | None = None) -> np.ndarray:
    """project_dyadic_cells over the last n_axes axes of arr only; the axes
    before them (a sample axis) are carried along.  The result is written
    into out, of arr's shape, when given."""
    means, first = _cell_means(grid, arr, n_axes), arr.ndim - n_axes
    # spread back, innermost axis first, so the widest copies come last
    cell = _cells(grid)
    out = np.empty(arr.shape, means.dtype) if out is None else out
    for axis in range(arr.ndim - 1, first - 1, -1):
        means = np.take(means, cell, axis=axis, out=out if axis == first else None, mode="clip")
    if not n_axes:  # nothing to average: the identity, still a new array
        out[...] = means
    return out


def _cells(grid: TorusGrid) -> np.ndarray:
    """The sign cell of every grid point along one axis: 0 positive, 1 negative."""
    return (grid.sign_values < 0).astype(np.intp)


def _cell_means(grid: TorusGrid, arr: np.ndarray, n_axes: int) -> np.ndarray:
    """The means of arr over the sign cells of its last n_axes axes, shape
    arr.shape[:-n_axes] + (2,)*n_axes, index 0 the positive cell and 1 the
    negative one along each axis: what _project_trailing_cells spreads back.
    Given no axes, arr itself (as floats)."""
    n = grid.n_points
    half, quarter = n // 2, n // 4
    means = arr.astype(np.result_type(arr, 1.0), copy=False)  # integers average to floats
    for axis in range(arr.ndim - n_axes, arr.ndim):  # fold, then sum each quarter: N -> 2
        lead, shape = (slice(None),) * axis, means.shape
        quarters = shape[:axis] + (2, quarter) + shape[axis + 1:]
        means = (means[lead + (slice(half),)] + means[lead + (slice(n - 1, half - 1, -1),)]
                 ).reshape(quarters).sum(axis=axis + 1)
        means /= half  # [positive cell, negative cell] along axis
    return means


def dyadic_project(field: MartingaleField) -> MartingaleField:
    """Difference-wise conditional expectation given all coordinate signs."""
    rows = np.empty_like(field.rows)
    with np.errstate(over="ignore", invalid="ignore"):
        for out, d in zip(_levels(rows, field.grid.n_points), field.diffs):
            _project_trailing_cells(field.grid, d, d.ndim, out)
    return _derive(field, field.base, rows)
