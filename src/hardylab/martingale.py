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
scale and the gate walk it in contiguous slabs of at most _SLAB_ENTRIES
entries (_slabs): whole samples where one fits, else runs of rows of one
sample.  Each slab's moduli give every sample's largest modulus per level,
one reduceat per slab (_fold_maxima).  The transform isometry
(_isometry_norms) walks its rows once, in slabs of at most _WALK_ENTRIES cut
level by level: each slab gives the scale's maxima, the mean check's row
sums, the gate's verdicts and the three norms' sums per row, before any
check is made.  Its rows are either an (M, R, N) array or are built slab by
slab from the samples' coefficient blocks (_built_rows), so that the suite's
chunks never hold their rows whole.  _differences and the walk cut every
level's product on one grid of blocks (_product_rows), so that both issue
the same products and build the same bits.  The walk takes its arrays, one
real and two complex slab buffers among them, from a working set
(torus._WorkingSet): a new one per call, or the one that a loop over chunks
holds for a whole run, so that its chunks allocate nothing.  Each sample keeps its own scale
(_scale_bound); a block's norms equal each sample's own bit for bit,
wherever the slabs fall.  Sums and squares of a sample whose scale lies
beyond a fixed window are taken at a power of two and scaled back
(_unit_scaled, the one scale rule); within it, rows are taken as they are.
The terminal split, the mean check, previsible_norm and
check_transform_isometry each take that step first and reduce the stepped
rows once; the batch isometry refuses a sample beyond the window.  The mean
rule (_mean_rule), the gate rule (torus._gate_rule) and the gate's energy at
m <= 0 (torus._gate_energy) each have one home, which the field checks and
the walk share; the walk gates its rows unscaled, so its verdicts agree with
is_hardy_martingale's outside a band of rounding at the tolerance.
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
    _gate_energy,
    _gate_rule,
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


# Grid entries per slab of the transform isometry's walk (_isometry_norms),
# whose slabs take three arrays of 40 bytes an entry in all (the rows, one
# part, their squares).  Its per-slab calls cost about 100 us, as much as 4000
# entries' arithmetic; at 1.5 * 2^14 the slab arrays of a 10-sample N16 d3
# chunk (two slabs) hold less than its whole rows array and gate buffers did
# (1.2 MB), where 2^15 raised the peak RSS of identities N16 d3 by 0.6 MiB.
_WALK_ENTRIES = 3 * 2**13

# The isometry's complex matrix products (its rows from their coefficients,
# its gate's coefficients) are cut into blocks of rows of at most this many
# multiply-adds (rows * N * columns).  OpenBLAS (0.3.31 measured) runs a
# larger complex matrix product on its worker threads: (rows, 16) @ (16, 9)
# leaves the worker idle at 448 rows and wakes it at 456.  A woken worker
# competes for the second core of a 2-core host, and a product that waits on
# it can stall: one fresh identities run at N16 d3, 400 samples, took 0.92 s
# against 0.10 s.  The matrix-vector products are inequalities._PRODUCT_ENTRIES'.
_PRODUCT_MACS = 2**16


def _product_rows(n: int, degree: int) -> int:
    """Rows per block of a level's product from its coefficients (_built_rows):
    an even number, within _PRODUCT_MACS multiply-adds and one walk slab.  Every
    level is cut on this one grid from its first row, by _differences and by
    the walk's slabs alike, so both issue the same products and get the same
    bits from any BLAS.  That the rows also keep the bits of one product per
    level, as the pinned reports have them, rests on the BLAS kernel: with
    OpenBLAS 0.3.31's Haswell kernel (measured), blocks of an even number of
    rows at even offsets round as the whole level, and a lone row, which numpy
    gives its matrix-vector routine, rounds apart."""
    return max(2, min(_PRODUCT_MACS // degree, _WALK_ENTRIES) // n // 2 * 2)


def _slabs(shape: tuple, quanta: list | None = None) -> list:
    """Index pairs (samples, rows) that cut an array of shape (M, R, N) into
    contiguous slabs of at most _SLAB_ENTRIES entries, in order: whole samples
    where one fits, else runs of rows of one sample (at least one row).  Given
    quanta, one per level, the rows are a martingale's (R = 1 + N + ... +
    N^(n-1)), the slabs hold up to _WALK_ENTRIES entries, and a sample that
    does not fit is cut level by level: level k in runs of a multiple of
    quanta[k-1] rows (at least one) from its first row, so that a slab of
    rows built from coefficients holds whole product blocks (_product_rows)."""
    count, r, n = shape
    entries = _SLAB_ENTRIES if quanta is None else _WALK_ENTRIES
    if r * n <= entries:
        step = entries // (r * n)
        return [(slice(i, i + step), slice(None)) for i in range(0, count, step)]
    if quanta is None:
        step = max(1, entries // n)
        runs = [slice(i, i + step) for i in range(0, r, step)]
    else:
        bounds = _level_bounds(n, r)
        runs = [slice(i, min(i + step, b)) for q, a, b in zip(quanta, bounds, bounds[1:])
                for step in [max(q, entries // n // q * q)] for i in range(a, b, step)]
    return [(slice(i, i + 1), part) for i in range(count) for part in runs]


def _level_pieces(bounds: list, part: slice) -> list:
    """(k, rows, local) for each level k + 1 that the rows `part` of a slab
    meet: rows, the level's rows among them, as a slice of the level's own
    run, and local, where they lie in the slab.  bounds are the levels' first
    rows, then R."""
    first = part.start or 0
    stop = bounds[-1] if part.stop is None else min(part.stop, bounds[-1])
    return [(k, slice(lo - a, hi - a), slice(lo - first, hi - first))
            for k, (a, b) in enumerate(zip(bounds, bounds[1:]))
            for lo, hi in [(max(a, first), min(b, stop))] if lo < hi]


def _fold_maxima(maxima: np.ndarray, samples: slice, pieces: list, values: np.ndarray) -> None:
    """Fold the values of one slab, of shape (samples, rows, T), into maxima,
    each sample's largest value per level so far, shape (M, levels): one
    np.maximum.reduceat over the slab's level pieces (_level_pieces), then one
    np.maximum.  Max is exact and keeps a NaN, so the maxima do not depend on
    where the slabs fall."""
    width = values.shape[-1]
    top = maxima[samples, pieces[0][0]:pieces[-1][0] + 1]  # a view
    np.maximum(top, np.maximum.reduceat(values.reshape(len(values), -1),
                                        [local.start * width for _, _, local in pieces], axis=1),
               out=top)


def _differences(grid: TorusGrid, blocks, work: _WorkingSet | None = None) -> np.ndarray:
    """The Hardy differences sum_{m=1..d} c_m e^{im theta} of M samples' coefficient blocks,
    blocks[k-1] of shape (M, N^(k-1), d), as one (M, R, N) rows array, new or, given
    work, its "rows" buffer: every level's product in its blocks (_built_rows)."""
    n = grid.n_points
    shape = (len(blocks[0]), _row_count(n, len(blocks)), n)
    rows = np.empty(shape, complex) if work is None else work.take("rows", shape, complex)
    return _built_rows(grid, blocks, slice(None), _level_pieces(_level_bounds(n, shape[1]),
                                                                slice(None)), rows)


def _built_rows(grid: TorusGrid, blocks, samples: slice, pieces: list,
                out: np.ndarray) -> np.ndarray:
    """The rows that _differences builds from blocks, of the samples and level
    pieces (_level_pieces) of one slab, written into out, of the slab's shape.
    Each piece starts on its level's grid of product blocks (_product_rows) and
    ends on it or at the level's end, as _slabs cuts them, and is built block
    by block: the products, and so the bits, of _differences."""
    for k, rows, local in pieces:
        c = blocks[k][samples]
        modes, shift = grid.analytic_modes(c.shape[-1]), local.start - rows.start
        step = _product_rows(grid.n_points, c.shape[-1])
        for a in range(rows.start, rows.stop, step):
            b = min(a + step, rows.stop)
            np.matmul(c[:, a:b], modes, out=out[:, a + shift:b + shift])
    return out


def _scale_bound(base: complex, rows: np.ndarray) -> np.ndarray:
    """|base| + sum_k max|diff_k| per sample, an upper bound on max|terminal|,
    for rows of shape (M, R, N), from their level maxima (_summed_scale): shape (M,)."""
    bounds = _level_bounds(rows.shape[-1], rows.shape[1])
    maxima = np.zeros((len(rows), len(bounds) - 1))
    for samples, part in _slabs(rows.shape):
        _fold_maxima(maxima, samples, _level_pieces(bounds, part), np.abs(rows[samples, part]))
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
    samples' scales, shape (M,) (or one scale, shape (1,), for any x): e is
    _step's exponent, so that the moduli of a sample beyond the window fall
    below 1, and x is taken as it is at every other scale."""
    e = _step(scale)
    return _ldexp(x, -e), e


def _step(scale: np.ndarray) -> np.ndarray:
    """The frexp exponent of each scale beyond the window, and 0 at every other
    scale (a non-finite one too): the one scale rule's step."""
    e = np.frexp(scale)[1]
    e[abs(e) <= _SCALE_WINDOW] = 0
    return e


def _ldexp(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """x * 2^e per sample, for a C-contiguous complex x of shape (M, ...) and e
    of shape (M,) (or shape (1,), for any x): each part scaled as a real, so
    exactly wherever it stays normal, into a new array; x itself where every
    e is 0."""
    if not e.any():
        return x
    return np.ldexp(x.view(np.float64), e.reshape((-1,) + (1,) * (x.ndim - 1))).view(np.complex128)


def _check_means(rows: np.ndarray, scale: np.ndarray) -> None:
    """The mean rule (_mean_rule) for rows of shape (M, R, N) at scale, shape
    (M,), the rows' _scale_bound."""
    _mean_rule(_drifts(rows, scale), scale)


def _drifts(rows: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Per sample of rows, shape (M, R, N), and level, the largest modulus of a
    mean over the newest axis, taken at the rows' _unit_scaled step (by scale,
    shape (M,)) and scaled back: shape (M, levels)."""
    x, e = _unit_scaled(rows, scale)
    starts = _level_bounds(rows.shape[-1], rows.shape[1])[:-1]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite scale fails the rule first
        drift = np.maximum.reduceat(np.abs(x.sum(axis=-1)), starts, axis=1) / x.shape[-1]
    return np.ldexp(drift, e[:, np.newaxis])


def _mean_rule(drift: np.ndarray, scale: np.ndarray) -> None:
    """Per sample, every mean over the newest axis must be within 1e-12*scale +
    8*2^-1074 of 0: drift, of shape (M, levels), holds each sample's largest
    modulus of such a mean per level, and scale, shape (M,), is the samples'
    _scale_bound.  An inf or a NaN in the rows makes that scale non-finite, and
    such rows fail first, whatever their drift."""
    # averaging leaves a few ulps of mean; subnormal values round absolutely,
    # so a few units of 2^-1074 are slack too
    tol = 1e-12 * scale + 8 * math.ulp(0.0)
    if not np.isfinite(tol).all():
        raise ValueError("martingale values must be finite")
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
    moments themselves.  The sum before it is spread one newest-axis column at a
    time: numpy gives a broadcast operand iterator buffers of up to 8192 entries
    per call, while a strided column needs none, so with a contiguous last level
    and out the call allocates next to nothing."""
    *shallow, deepest = moments
    out = np.empty(np.shape(deepest)) if out is None else out
    if not shallow:
        np.add(0.0, deepest, out=out)
    total = shallow[0] if shallow else None
    for q in shallow[1:]:
        total = total[..., np.newaxis] + q
    for j in range(np.shape(deepest)[-1] if shallow else 0):
        np.add(total, deepest[..., j], out=out[..., j])
    return np.mean(np.sqrt(out, out=out).reshape(np.shape(moments[0]) + (-1,)), axis=-1)


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


def _are_hardy(grid: TorusGrid, rows: np.ndarray, scale: np.ndarray, tol: float) -> np.ndarray:
    """is_hardy_martingale per sample of rows, each sample at its own scale
    (shape (M,)): one scale for the whole block would put a small sample's junk
    under the zero floor.  The rows are gated slab by slab, in one working
    set's slab buffers; returns (M,) verdicts."""
    work = _WorkingSet()
    held = np.ones(len(rows), dtype=bool)
    for s in _slabs(rows.shape):
        samples = s[0]
        held[samples] &= _rows_are_hardy(grid, rows[s], tol, scale[samples, np.newaxis],
                                         _ZERO_FLOOR, work).all(axis=1)
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


def _isometry_norms(grid: TorusGrid, rows, terms, base: complex = 0.0,
                    work: _WorkingSet | None = None) -> tuple:
    """check_transform_isometry over M samples, plus each sample's previsible norm.

    rows holds the samples' differences (their level-0 constant is base): an
    (M, R, N) array, or the coefficient blocks that _differences takes, from
    which each slab's rows are built (_built_rows), so that no (M, R, N) array
    is ever held.  terms[k], of shape (M,) + (N,)*k, are their multipliers;
    terms beyond the depth of the rows are not used.  Each sample gets the
    checks of its own MartingaleField, AdaptedPhases, Hardy gate, cosine_part
    and transform, at its own scale, and the error of the first check that
    fails over all samples, in that order.

    The rows are walked once, in _slabs whose cuts fall on the levels' grids
    of product blocks (_product_rows).  Each slab gives its moduli, with each
    sample's largest modulus per level and the rows' sums of squares; its even
    part and then its turned part Im(w * row), one at a time in one buffer,
    with their sums of squares; its rows' sums over the newest axis, largest
    per sample and level; and the gate's product with the grid's gate_table,
    taken on the rows as they are (they lie within the scale window, so
    neither the product nor its squares overflow), whose energy at m <= 0
    (torus._gate_energy) marks each row analytic or not (_gate_rule).  Taken
    unscaled, against the mean energy of the rows' own sums of squares, these
    marks equal torus._rows_are_hardy's outside a band of rounding at the
    tolerance.  The steps are ordered so that no reduction along the newest
    axis directly follows a product (torus._rows_are_hardy says why).

    After the walk come the scale, equal to _scale_bound's; the mean rule
    (_mean_rule; a sample beyond the window at that scale has its means taken
    again at its _unit_scaled step, as _check_means takes them); the window
    check; the multipliers' check; and the gate, which passes a row that is
    analytic or whose mean energy is at most _ZERO_FLOOR times its sample's
    scale squared.  A sample whose differences' scale lies beyond the window,
    where the squares can overflow or underflow, fails the window check with a
    ValueError: such rows are taken at their _unit_scaled step first
    (check_transform_isometry), so no batch reads the vacuous norms of
    squares taken unscaled.  The three sums of every row that the floor passed
    and that is not analytic at its own scale (torus._rows_are_hardy, on the
    row rebuilt from its product block) are then set to 0 (_ZERO_FLOOR).
    Every array of the walk is taken from work (a new working set by
    default): the (3, M, R) sums, the deepest level's laid out on its own as
    one contiguous (3, M, N^(n-1)) array for _root_mean, the (2, M, levels)
    maxima, the (M, R) marks of the analytic and of the floored rows, and the
    slab buffers.  Returns the previsible norms of the cosine parts, of the
    transforms and of the martingales themselves, each of shape (M,).
    """
    n = grid.n_points
    built = not isinstance(rows, np.ndarray)
    count, r = (len(rows[0]), _row_count(n, len(rows))) if built else rows.shape[:2]
    bounds = _level_bounds(n, r)
    deep = bounds[-2]  # the deepest level's first row
    work = _WorkingSet() if work is None else work
    sums = work.take("moments", (3 * count * r,))
    shallow = sums[:3 * count * deep].reshape(3, count, deep)
    deepest = sums[3 * count * deep:].reshape(3, count, r - deep)
    maxima = work.take("maxima", (2, count, len(bounds) - 1))  # of the moduli and the row sums
    maxima[...] = 0.0
    analytic = work.take("analytic", (count, r), bool)
    terms = [t.reshape(count, -1) for t in terms[:len(bounds) - 1]]
    quanta = [_product_rows(n, c.shape[-1]) for c in rows] if built else [1] * (len(bounds) - 1)
    # squares that overflow lie beyond the window, whose samples are refused
    # below; within it, squares of the smallest moduli may underflow
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for samples, part in _slabs((count, r, n), quanta):
            pieces = _level_pieces(bounds, part)
            shape = (len(range(count)[samples]), len(range(r)[part]), n)
            x = (_built_rows(grid, rows, samples, pieces, work.take("rows", shape, complex))
                 if built else rows[samples, part])
            row_sums = work.take("sums", (3,) + shape[:2])  # cosine part, transform, martingale
            squares = np.abs(x, out=work.take("real", shape))
            _fold_maxima(maxima[0], samples, pieces, squares)
            np.add.reduce(np.square(squares, out=squares), axis=-1, out=row_sums[2])
            turned = work.take("complex", shape, complex)  # one part at a time
            _even_part(x, out=turned)
            np.add.reduce(np.square(np.abs(turned, out=squares), out=squares), axis=-1,
                          out=row_sums[0])
            w = work.take("w", shape[:2], complex)
            np.concatenate([terms[k][samples, level_rows] for k, level_rows, _ in pieces],
                           axis=1, out=w)
            np.multiply(w[..., np.newaxis], x, out=turned)  # Im(w * row) is turned.imag
            # |x|^2 is x * x bit for bit for a real x
            np.add.reduce(np.square(turned.imag, out=squares), axis=-1, out=row_sums[1])
            _fold_maxima(maxima[1], samples, pieces, np.abs(x.sum(axis=-1))[..., np.newaxis])
            bad = _gate_energy(_gate_product(grid, x.reshape(-1, n), work.take(
                "complex", (shape[0] * shape[1], n // 2 + 1), complex)), n)
            analytic[samples, part] = _gate_rule(bad.reshape(shape[:2]), row_sums[2] / n,
                                                 HARDY_GATE_TOL)
            lo = part.start or 0  # the slab's rows lo .. lo + shape[1]
            if lo < deep:
                shallow[:, samples, lo:lo + shape[1]] = row_sums[:, :, :deep - lo]
            if lo + shape[1] > deep:
                deepest[:, samples, max(lo - deep, 0):lo + shape[1] - deep] = \
                    row_sums[:, :, max(deep - lo, 0):]
    sums /= n  # the means, divided as np.mean divides
    _isometry_checks(grid, rows, terms, base, maxima, analytic, shallow, deepest, work)
    levels = [q[..., 0] for q in _levels(shallow[..., np.newaxis], n)] if deep else []
    levels.append(deepest.reshape((3, count) + (n,) * (len(bounds) - 2)))
    return tuple(_root_mean(levels, out=levels[-1]))


def _gate_product(grid: TorusGrid, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x @ grid.gate_table for rows x of shape (rows, N), written into out: as
    many blocks of equal rows as fit _PRODUCT_MACS, in one stacked product, then
    the rows left over."""
    table = grid.gate_table
    step = max(1, _PRODUCT_MACS // table.size)
    whole = len(x) // step * step
    np.matmul(x[:whole].reshape(-1, step, x.shape[-1]), table,
              out=out[:whole].reshape(-1, step, out.shape[-1]))
    if whole < len(x):
        np.matmul(x[whole:], table, out=out[whole:])
    return out


def _isometry_checks(grid: TorusGrid, rows, terms, base: complex, maxima: np.ndarray,
                     analytic: np.ndarray, shallow: np.ndarray, deepest: np.ndarray,
                     work: _WorkingSet) -> None:
    """The checks of _isometry_norms after its walk, in its order, from the
    walk's level maxima (of the moduli, then of the row sums), the rows'
    analytic marks and their mean squares, split at the deepest level as the
    walk lays them out; the mean squares of the junk rows are then set to 0."""
    n, (count, r) = grid.n_points, analytic.shape
    deep = shallow.shape[-1]
    scale = _summed_scale(base, maxima[0])
    drift = maxima[1] / n
    far = _step(scale) != 0
    if far.any():  # beyond the window the mean check takes its means at the step
        drift[far] = _drifts(rows[far] if isinstance(rows, np.ndarray)
                             else _differences(grid, [b[far] for b in rows]), scale[far])
    _mean_rule(drift, scale)
    if _step(_summed_scale(0.0, maxima[0])).any():
        raise ValueError("isometry rows must lie within the scale window (_unit_scaled)")
    for k, t in enumerate(terms):
        _require_unimodular(t, f"term {k}")
    floored = work.take("floored", (count, r), bool)
    with np.errstate(over="ignore", under="ignore"):  # a floor past float64's range
        limit = (_ZERO_FLOOR * scale * scale)[:, np.newaxis]
    np.less_equal(shallow[2], limit, out=floored[:, :deep])
    np.less_equal(deepest[2], limit, out=floored[:, deep:])
    if not np.logical_or(analytic, floored, out=analytic).all():
        raise ValueError("transform isometry requires a Hardy martingale")
    i, j = np.nonzero(floored)
    if len(i):
        alone = rows[i, j] if isinstance(rows, np.ndarray) else np.array(
            [_built_row(grid, rows, a, b) for a, b in zip(i, j)])
        junk = ~_rows_are_hardy(grid, alone, HARDY_GATE_TOL)
        i, j = i[junk], j[junk]
        shallow[:, i[j < deep], j[j < deep]] = 0.0
        deepest[:, i[j >= deep], j[j >= deep] - deep] = 0.0


def _built_row(grid: TorusGrid, blocks, i: int, j: int) -> np.ndarray:
    """Row j of sample i of the rows that _differences builds from blocks,
    taken from the product of its block (_product_rows), with its bits."""
    n = grid.n_points
    bounds = _level_bounds(n, _row_count(n, len(blocks)))
    k = int(np.searchsorted(bounds, j, side="right")) - 1  # the row's level, less one
    step = _product_rows(n, blocks[k].shape[-1])
    a = bounds[k] + (j - bounds[k]) // step * step
    b = min(a + step, bounds[k + 1])
    out = np.empty((1, b - a, n), complex)
    return _built_rows(grid, blocks, slice(i, i + 1), _level_pieces(bounds, slice(a, b)),
                       out)[0, j - a]


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
