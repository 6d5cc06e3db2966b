"""Identity and inequality evaluators for the dyadic-perturbation estimates.

Everything here evaluates both sides of an identity or bound numerically and
returns them; nothing is silently assumed.  The scalar envelope bounds feed
the per-level estimates, the single-coordinate identity feeds the integral
bounds, and the stability pipeline assembles the full chain ending in

    ||U - E(U|D)||_P <= CHAIN_CONSTANT * ||T_W(G - E(G|D))||_P^(1/2) * ||G||_P^(1/2)

for a Hardy martingale G with cosine part U and unimodular adapted W.

The chain has two entry points that return the same StabilityReport.  The
reference, stability_report(field, phases), gates any martingale over grid^n
and integrates over it.  stability_report_from_coefficients(grid,
coefficients, phases) reads each node's coefficient row once, for mu and r^2
(mu = c.sigma, one product through torus._blas_product, as every matrix
product of the lab is), and gets every other per-level quantity from the
sine-cosine identity.  Over a leading sample axis it is one route,
_chain_fold, which folds the chain level by level into the root means and
the pointwise step's worst: theorem and constant-search take those alone,
and _stability_batch keeps each level's arrays as well; a batch row equals
the one-sample report bit for bit.

Each formula of the single-coordinate decomposition has one home.  Three
slice integrals run over the last axis of (..., N) arrays, so they take one
row or a whole level, whose b and w then end in an axis of length 1:
_slice_parts (u, mu = <u,s> and r^2 = int |u - mu s|^2), _perturbed_moment
(int |u - b s|^2) and _transform_moment (int Im^2(w (g - b s))).  The grid
chain and the single-coordinate side functions use the integrals;
_chain_fold uses only their closed forms, the sine-cosine identity
_sincos_form (r^2 + Re^2(w mu) + Im^2(w(mu - b))) and the orthogonal split
|mu - b|^2 + r^2, so comparing the two chains checks the identities that the
closed forms stand for.  It evaluates them operation by operation, taking
each modulus and square of a level once, with the bits of each form taken as
one expression (tests/test_inequalities.py pins them), over slabs of a
level's nodes, so that its temporaries stay slab-sized.

The side functions evaluate a block of M rows at once, and the public
sincos_identity_sides, decomposition_sides and perturbation_bounds are the
block of one row.  _coordinate_rows gates the rows and shifts and runs the
slice integrals over (M, N).  The closed forms then take the (M,) columns
whole, with the bits of Python-number arithmetic on each row, which every
recorded side has: _pow2, _modulus and _product stand for Python's x ** 2,
complex abs and complex product, where numpy's own (x * x, its own modulus
and a product with fused multiply-adds) differ in the last bit.
The envelopes of perturbation_bounds take numpy's moduli of the whole
block (each row's own) and square |mu - b| with _pow2, as arith_envelope of
one scalar pair does.  A side whose squares overflow is inf, with numpy's
RuntimeWarning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .martingale import (
    HARDY_GATE_TOL,
    AdaptedPhases,
    MartingaleField,
    _check_phases,
    _coefficient_blocks,
    _cell_means,
    _cells,
    _even_part,
    _require_unimodular,
    _root_mean,
    _slabs,
    cond_square_profile,
    is_hardy_martingale,
    project_dyadic_cells,
)
from .torus import (
    GridFunction,
    TorusGrid,
    _check_tolerance,
    _frozen,
    _blas_product,
    _rows_are_hardy,
    _WorkingSet,
)

# Tracked constant of the stability chain.  Factors, in order of use:
# sqrt(8) from the square-function step, a further sqrt(8) entering under the
# square root from the per-level transform bound, and sqrt(4) from
# E(X + Y) <= 4 ||G||_P (envelope <= 2|coeff| + |dyadic coeff|, plus the
# dyadic-mean convexity bound).  Total 2^(3/2) * 2^(3/4) * 2 = 2^(13/4).
CHAIN_CONSTANT = 2.0 ** (13.0 / 4.0)

_ANALYTIC_GATE_TOL = 1e-9


@dataclass(frozen=True)
class CheckRecord:
    """One verified statement: both sides, a gap and the verdict.

    For an identity lhs = rhs the gap is the relative residual of
    residual_verdict; for an inequality lhs <= rhs it is the scale-normalised
    slack of slack_verdict, negative when lhs exceeds rhs.
    """

    check_id: str
    lhs: float
    rhs: float
    gap: float
    passed: bool


def slack_verdict(lhs, rhs, tol: float) -> tuple:
    """(gap, passed) of lhs <= rhs, elementwise over arrays of samples:
    gap = (rhs - lhs) / max(1, |lhs|, |rhs|), passed where gap >= -tol.

    The scale floor 1 makes the test absolute for O(1) data; for large data
    it degrades gracefully to a relative test, which is the only float64-
    meaningful reading when both sides grow like the square of the inputs.
    """
    tol = _check_tolerance(tol)
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    gap = (rhs - lhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return gap, gap >= -tol


def residual_verdict(lhs, rhs, scale, tol: float) -> tuple:
    """(gap, passed) of lhs = rhs, elementwise over arrays of samples: gap =
    |lhs - rhs| / max(scale, 1e-300), passed where gap <= tol (finite, >= 0)."""
    tol = _check_tolerance(tol)
    gap = np.abs(np.subtract(lhs, rhs, dtype=float)) / np.maximum(scale, 1e-300)
    return gap, gap <= tol


def _slice_parts(values, sig) -> tuple:
    """The even part u of every slice, mu = <u,s> and r^2 = int |u - mu s|^2."""
    u = _even_part(values)
    mu = np.mean(u * sig, axis=-1)
    return u, mu, np.mean(np.abs(u - mu[..., np.newaxis] * sig) ** 2, axis=-1)


def _perturbed_moment(u, b, sig):
    """int |u - b s|^2 per slice; b is a scalar or ends in an axis of length 1."""
    return np.mean(np.abs(u - b * sig) ** 2, axis=-1)


def _transform_moment(g, b, w, sig):
    """int Im^2(w (g - b s)) per slice; b and w are scalars or end in an axis of length 1."""
    return np.mean((w * (g - b * sig)).imag ** 2, axis=-1)


def _sincos_form(mu, b, w, r_sq=0.0):
    """r^2 + Re^2(w mu) + Im^2(w(mu - b)), int Im^2(w (g - b s)) by the sine-cosine identity."""
    return r_sq + (w * mu).real ** 2 + (w * (mu - b)).imag ** 2


def _gap_form(a, b):
    return (a - abs(b)) ** 2


def _envelope_parts(mu, b) -> tuple:
    """|mu|, |mu - b|^2 and q = _envelope_share, elementwise.  The envelope of
    (mu, b) is |mu| + q.  An array's ** 2 is x * x, a scalar's is pow."""
    mu, b = np.asarray(mu, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    abs_mu = np.abs(mu)
    # named: numpy squares an unnamed modulus in place, which reorders the frees and
    # lets glibc serve a later array from its heap (+0.5 MiB for lemmas at 100,000)
    gap = np.abs(mu - b)
    gap_sq = gap ** 2
    return abs_mu, gap_sq, _envelope_share(abs_mu, np.abs(b), gap_sq)


def _envelope_share(abs_mu, abs_b, gap_sq) -> np.ndarray:
    """q = |mu - b|^2 / (|mu| + |b|) from |mu|, |b| and |mu - b|^2, elementwise,
    with q = 0 where |mu| + |b| is 0."""
    denom = abs_mu + abs_b
    return np.divide(gap_sq, denom, out=np.zeros_like(denom), where=denom > 0.0)


def _like_inputs(mu, b, *values) -> tuple:
    """values as floats when mu and b are both scalars, else as arrays."""
    return tuple(map(float, values)) if np.isscalar(mu) and np.isscalar(b) else values


def arith_envelope(mu, b):
    """|mu| + |mu - b|^2 / (|mu| + |b|), with the degenerate value 0 at mu = b = 0.

    Accepts scalars or arrays (elementwise).  Always >= |mu|.
    """
    abs_mu, _, q = _envelope_parts(mu, b)
    return _like_inputs(mu, b, abs_mu + q)[0]


def envelope_gap_sides(mu, b, w):
    """Sides of (a - |b|)^2 <= 4 * (Im^2(w(mu - b)) + Re^2(w mu)).

    Equality holds for every (mu, w) when b = 0.
    """
    mu_arr = np.asarray(mu, dtype=np.complex128)
    b_arr = np.asarray(b, dtype=np.complex128)
    w_arr = _require_unimodular(np.asarray(w, dtype=np.complex128), "multiplier")
    lhs = _gap_form(arith_envelope(mu_arr, b_arr), b_arr)
    rhs = 4.0 * _sincos_form(mu_arr, b_arr, w_arr)
    return _like_inputs(mu, b, lhs, rhs)


def envelope_excess_sides(mu, b):
    """Sides of |mu - b|^2 <= 2 * (a^2 - |mu|^2).

    The right side is evaluated as 2*q*(q + 2|mu|) with q = a - |mu|, which
    is the same quantity without the cancellation a^2 - |mu|^2.
    """
    abs_mu, gap_sq, q = _envelope_parts(mu, b)
    return _like_inputs(mu, b, gap_sq, 2.0 * q * (q + 2.0 * abs_mu))


def _coordinate_rows(grid: TorusGrid, values, b, w=None) -> tuple:
    """The row-block entry of the single-coordinate side functions.

    Gates every multiplier in w (unimodular; None for none), every shift in b
    (finite) and every row of values (analytic, no Nyquist content), for
    values of shape (M, N) and b and w of shape (M,).  Returns b as a complex
    array, mu = <u,s>, r^2 = int |u - mu s|^2, int |u - b s|^2 and, given w,
    int Im^2(w (h - b s)) (else None), each of shape (M,), for the even part
    u of each row h.
    """
    if w is not None:
        w = _require_unimodular(np.asarray(w, dtype=np.complex128), "multiplier")
    b = np.asarray(b, dtype=np.complex128)
    finite = np.isfinite(b)
    if not finite.all():
        raise ValueError(f"shift b must be finite; got {complex(b[~finite][0])!r}")
    if not _rows_are_hardy(grid, values, _ANALYTIC_GATE_TOL).all():
        raise ValueError("input must be analytic with vanishing mean (Hardy)")
    sig, b_col = grid.sign_values, b[:, np.newaxis]
    u, mu, r_sq = _slice_parts(values, sig)
    moment = None if w is None else _transform_moment(values, b_col, w[:, np.newaxis], sig)
    return b, mu, r_sq, _perturbed_moment(u, b_col, sig), moment


def _pow2(x) -> np.ndarray:
    """x ** 2 elementwise with a Python float's bits (libm's pow), inf past float64's range."""
    return np.float_power(x, 2.0)


def _modulus(z) -> np.ndarray:
    """abs(z) elementwise with a Python complex's bits: libm's hypot of its parts."""
    return np.hypot(z.real, z.imag)


def _product(w, z) -> tuple:
    """Re(w z) and Im(w z) elementwise with a Python complex product's bits (unfused)."""
    return w.real * z.real - w.imag * z.imag, w.real * z.imag + w.imag * z.real


@dataclass(frozen=True)
class IdentityReport:
    lhs: float
    rhs: float
    residual: float


def sincos_identity_sides(h: GridFunction, b: complex, w: complex) -> IdentityReport:
    """Both sides of the exact single-coordinate identity

        Im^2(w(<u,s> - b)) + Re^2(w <u,s>) + int |u - <u,s> s|^2
            = int Im^2(w (h - b s)),

    where u is the conjugation-even part of the analytic h and s the sign
    function.  Exact on the shifted grid, so the residual is round-off.
    """
    return _first_sample(_sincos_rows(h.grid, h.values[np.newaxis], [b], [w]))


def _sincos_rows(grid: TorusGrid, values, b, w) -> IdentityReport:
    """sincos_identity_sides for every row of values with its b and w (see
    _coordinate_rows), as a report of (M,) arrays."""
    b, mu, tail, _, rhs = _coordinate_rows(grid, values, b, w)
    w = np.asarray(w, dtype=np.complex128)
    # tail last: the recorded residuals round this way
    lhs = _pow2(_product(w, mu)[0]) + _pow2(_product(w, mu - b)[1]) + tail
    return IdentityReport(lhs, rhs, residual_verdict(lhs, rhs, rhs, 0.0)[0])


def decomposition_sides(h: GridFunction, b: complex):
    """Sides of the orthogonal split int |u - b s|^2 = |<u,s> - b|^2 + int |u - <u,s> s|^2."""
    return tuple(float(x[0]) for x in _split_rows(h.grid, h.values[np.newaxis], [b]))


def _split_rows(grid: TorusGrid, values, b) -> tuple:
    """decomposition_sides for every row of values with its b, as two (M,) arrays."""
    b, mu, tail, lhs, _ = _coordinate_rows(grid, values, b)
    return lhs, _pow2(_modulus(mu - b)) + tail


@dataclass(frozen=True)
class PerturbationReport:
    """Both integral bounds for one (h, b, w) sample plus the exact orthogonal
    split int |u - b s|^2 = split_rhs, whose left side is shift_lhs."""

    shift_lhs: float
    shift_rhs: float
    rotation_lhs: float
    rotation_rhs: float
    split_rhs: float
    split_residual: float


def perturbation_bounds(h: GridFunction, b: complex, w: complex) -> PerturbationReport:
    """Evaluate, for the even part u of analytic h and a = envelope(<u,s>, b):

        int |u - b s|^2             <= 8*(a^2 - |<u,s>|^2) + int |u - <u,s> s|^2
        (a - |b|)^2 + int |u-<u,s>s|^2 <= 8 * int Im^2(w (h - b s))

    and report the residual of the exact orthogonal split as a cross-check.
    """
    return _first_sample(_perturbation_rows(h.grid, h.values[np.newaxis], [b], [w]))


def _scalar_envelopes(mu, b) -> np.ndarray:
    """arith_envelope(mu_i, b_i) of each entry of the (M,) arrays called alone,
    bit for bit: numpy's moduli of the whole block, |mu - b| squared as pow."""
    abs_mu = np.abs(mu)
    return abs_mu + _envelope_share(abs_mu, np.abs(b), _pow2(np.abs(mu - b)))


def _perturbation_rows(grid: TorusGrid, values, b, w) -> PerturbationReport:
    """perturbation_bounds for every row of values with its b and w (see
    _coordinate_rows), as a report of (M,) arrays."""
    b, mu, tail, shift_lhs, moment = _coordinate_rows(grid, values, b, w)
    a = _scalar_envelopes(mu, b)
    split_rhs = _pow2(_modulus(mu - b)) + tail
    shift_rhs = 8.0 * (a * a - _pow2(_modulus(mu))) + tail
    rotation_lhs = _pow2(a - _modulus(b)) + tail
    return PerturbationReport(shift_lhs, shift_rhs, rotation_lhs, 8.0 * moment, split_rhs,
                              residual_verdict(shift_lhs, split_rhs, split_rhs, 0.0)[0])


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """All intermediate quantities of the dyadic-stability chain, from either
    stability_report or stability_report_from_coefficients.

    Per level k (tuples of arrays over grid^(k-1)): sigma_coeffs holds
    E_{k-1}(u_k s_k), dyadic_coeffs its projection onto the sign cells,
    envelopes the scalar envelope of the two, residual_rms the conditional
    L2 distance of u_k from its sigma component, perturbed_moments
    E_{k-1}|u_k - b_k s_k|^2, and transform_moments the conditional second
    moments of the transformed dyadic perturbation.

    That is the report of one sample.  Over a batch of M samples every
    per-level array carries a leading sample axis of length M and every
    mean, P-norm and ratio is an array of shape (M,).
    """

    sigma_coeffs: tuple
    dyadic_coeffs: tuple
    envelopes: tuple
    residual_rms: tuple
    perturbed_moments: tuple
    transform_moments: tuple
    envelope_mean: float       # E(X)
    coeff_mean: float          # E(Y)
    dyadic_mean: float         # E(Z)
    perturbation_pnorm: float  # ||U - E(U|D)||_P
    transform_pnorm: float     # ||T_W(G - E(G|D))||_P
    base_pnorm: float          # ||G||_P
    ratio: float


def stability_report(field: MartingaleField, phases: AdaptedPhases) -> StabilityReport:
    """Compute every quantity entering the stability chain for (G, W) from
    the differences of G over grid^n; G must pass the Hardy gate."""
    _check_phases(phases, field.grid, field.depth)
    if not is_hardy_martingale(field, HARDY_GATE_TOL):
        raise ValueError("stability quantities require a Hardy martingale")

    grid = field.grid
    sig = grid.sign_values

    levels, moments = [], []
    for w, g_k, q in zip(phases.terms, field.diffs, cond_square_profile(field).level_moments):
        u_k, mu_k, r_sq = _slice_parts(g_k, sig)
        b_k = project_dyadic_cells(grid, mu_k)
        b_col = b_k[..., np.newaxis]
        m, tq, mu, b, a, r = (np.asarray(x)[np.newaxis] for x in (
            _perturbed_moment(u_k, b_col, sig),
            _transform_moment(g_k, b_col, w[..., np.newaxis], sig),
            mu_k, b_k, arith_envelope(mu_k, b_k), np.sqrt(r_sq)))
        levels.append((mu, b, a, r, m, tq))
        moments.append(np.stack([m, tq, q[np.newaxis], *_node_moments(a, r, mu),
                                 np.abs(b) ** 2]))
    return _first_sample(_report(levels, _root_mean(moments)))


def _node_moments(a, r, mu) -> tuple:
    """a^2 + r^2 and |mu|^2 of whole node arrays: two of the chain's moments,
    which _node_slab takes operation by operation, with the same bits."""
    return a**2 + r**2, np.abs(mu) ** 2


# The six root means of the chain, in the row order of every level's moments:
# the perturbed, transform and base moments, a^2 + r^2, |mu|^2 and |b|^2.
_MEANS = ("perturbation_pnorm", "transform_pnorm", "base_pnorm", "envelope_mean", "coeff_mean",
          "dyadic_mean")


def _report(levels, means) -> StabilityReport:
    """The batch report of per-level (mu, b, a, r, perturbed moment, transform
    moment) arrays and the six root means, shape (6, M) in _MEANS order."""
    return StabilityReport(*zip(*levels), **dict(zip(_MEANS, means)), ratio=_ratio(*means[:3]))


def _ratio(perturbation, transform, base) -> np.ndarray:
    """||U - E(U|D)||_P / sqrt(||T_W(G - E(G|D))||_P ||G||_P) per sample.  A
    vanishing denominator (impossible for valid inputs; flagged by verify_chain)
    gives 0 for a vanishing perturbation and inf otherwise."""
    denom_sq = transform * base
    positive = denom_sq > 0.0
    return np.where(positive, perturbation / np.sqrt(np.where(positive, denom_sq, 1.0)),
                    np.where(perturbation == 0.0, 0.0, math.inf))


def _first_sample(batch):
    """Sample 0 of a batch report (a StabilityReport, IdentityReport or
    PerturbationReport of arrays) as a one-sample report: per-level arrays
    without the sample axis and floats."""
    parts = {}
    for f in fields(batch):
        value = getattr(batch, f.name)
        is_levels = isinstance(value, tuple)
        parts[f.name] = tuple(x[0, ...] for x in value) if is_levels else float(value[0])
    return type(batch)(**parts)


@lru_cache(maxsize=256)
def _sign_modes(grid: TorusGrid, degree: int) -> tuple:
    """sigma_m = mean(cos(m theta) s) for m = 1..degree, and the energy
    tau = mean((s - 2 sum_m sigma_m cos(m theta))^2) of s beyond those modes.

    Grids are immutable and interned, so the pair is kept per (grid, degree);
    sigma is read-only."""
    sig = grid.sign_values
    cos = grid.analytic_modes(degree).real
    sigma = _frozen(cos @ sig / grid.n_points)
    return sigma, float(np.mean((sig - 2.0 * sigma @ cos) ** 2))


def stability_report_from_coefficients(grid: TorusGrid, coefficients,
                                       phases: AdaptedPhases) -> StabilityReport:
    """stability_report(martingale_from_coefficients(grid, coefficients), phases),
    evaluated from the coefficient blocks in O(N^(n-1) d) without grid^n arrays.

    A node's row c enters only through mu = <u,s> = c.sigma and
    r^2 = int |u - mu s|^2, for u = sum_m c_m cos(m theta) the even part of
    g = sum_m c_m e^{im theta}.  With b the dyadic projection of mu, the
    perturbed moment is r^2 + |mu - b|^2, the base moment sum_m |c_m|^2 =
    2(r^2 + |mu|^2), and the transform moment int Im^2(w(g - b s)) is
    r^2 + Re^2(w mu) + Im^2(w(mu - b)) by the sine-cosine identity.
    """
    blocks = _coefficient_blocks(grid, coefficients)
    _check_phases(phases, grid, len(blocks))
    return _first_sample(_stability_batch(grid, [c[np.newaxis] for c in blocks],
                                          [w[np.newaxis] for w in phases.terms]))


def _stability_batch(grid: TorusGrid, blocks, terms) -> StabilityReport:
    """stability_report_from_coefficients for M samples at once, as a batch report.

    blocks[k-1], of shape (M, N^(k-1), d_k), holds every sample's level-k
    coefficient rows as _coefficient_blocks validates them, and terms[k-1], of
    shape (M,) + (N,)*(k-1), their level-k multipliers as AdaptedPhases
    validates them; terms may run deeper than blocks.  It is _chain_fold, which
    reduces the chunk level by level (mu in torus._blas_product's blocks, b
    from the level's cell means, every other node quantity slab by slab into
    running root-mean totals), with each level's node arrays kept in new
    arrays."""
    levels = []
    return _report(levels, _chain_fold(grid, blocks, terms, _WorkingSet(), levels=levels))


def _chain_fold(grid: TorusGrid, blocks, terms, work: _WorkingSet,
                pointwise: _Pointwise | None = None, levels: list | None = None) -> np.ndarray:
    """The stability chain of M samples (blocks and terms as _stability_batch
    takes them), folded level by level: the six root means, shape (6, M) in
    _MEANS order, and, given pointwise, the pointwise step's nodes added to it.

    Per level, mu is c @ sigma (torus._blas_product; what reads it next starts
    with _cell_means' dispatched add, so no reduction follows the product) and
    b is read from the level's cell means (martingale._cell_means).  Every
    other node quantity is formed over slabs of whole samples or of runs of one
    sample's nodes that share parents (martingale._slabs: a parent is a node of
    the level above, with N children), with slab-sized temporaries
    (_node_slab), and folded at once into the pointwise step and into the
    root-mean totals: each node's six moments plus its parent's total, the
    terms of _root_mean in its order.  Only the totals and each slab's worst
    node per sample outlive a level; the deepest level's totals take work's
    "rows" buffer, where draw_chunk leaves the dead normals.  Given levels, a list, each
    level's (mu, b, a, r, perturbed moment, transform moment) is appended in
    new arrays of shape (M,) + (N,)*(k-1)."""
    n, count, depth = grid.n_points, len(blocks[0]), len(blocks)
    total = np.zeros((6, count, 1))  # of level 0: one parent per sample
    parent_cells = child_cells = np.zeros(1, np.intp)
    for k, (w, c) in enumerate(zip(terms, blocks), start=1):
        sigma, tau = _sign_modes(grid, c.shape[-1])
        shape = (count,) + (n,) * (k - 1)
        parents, children = total.shape[-1], n if k > 1 else 1
        split = (count, parents, children)
        parent_cells = (2 * parent_cells[:, np.newaxis] + child_cells).reshape(-1)
        child_cells = _cells(grid) if k > 1 else child_cells
        mu = np.empty(split, complex) if levels is not None else work.take("mu", split, complex)
        _blas_product(c.reshape(count, -1, sigma.size), sigma, mu.reshape(count, -1))
        means = _cell_means(grid, mu.reshape(shape), k - 1).reshape(count, -1, min(children, 2))
        # b, a, r and the perturbed and transform moments, when kept
        kept = levels is not None and [np.empty(split, t) for t in (complex,) + (float,) * 4]
        level = work.take("rows" if k == depth else f"total {k % 2}", (6,) + split)
        nodes = (c.reshape(split + (-1,)), mu, w.reshape(split))
        for s, p in _slabs((count, parents, children * sigma.size)):
            c_s, mu_s, w_s = (x[s, p] for x in nodes)
            b, a, r = (x[s, p] for x in kept[:3]) if kept else (
                np.empty(mu_s.shape, t) for t in (complex, float, float))
            np.take(np.take(means[s], parent_cells[p], axis=1), child_cells, axis=2, out=b,
                    mode="clip")
            rows = level[:, s, p]
            _node_slab(c_s, sigma, tau, mu_s, b, w_s, a, r, rows)
            if pointwise is not None:
                pointwise.add(s, rows[0], _pointwise_rhs(rows[3], rows[4]))
            if kept:
                kept[3][s, p], kept[4][s, p] = rows[:2]
            np.add(total[:, s, p, np.newaxis], rows, out=rows)
        if kept:
            levels.append(tuple(x.reshape(shape) for x in [mu] + kept))
        total = level.reshape(6, count, -1)
    return np.mean(np.sqrt(total, out=total), axis=-1)


def _pointwise_rhs(envelope, coeff):
    """The pointwise step's right side 8 (a^2 + r^2 - |mu|^2) from a^2 + r^2 and |mu|^2."""
    return 8.0 * (envelope - coeff)


class _Pointwise:
    """The pointwise step's worst over M samples, folded in node order: per
    sample, the first node of largest excess m - rhs over all levels, a NaN
    excess taken first (as np.argmax over all the levels' nodes at once takes
    it), and that node's sides lhs = m and rhs (sides()).  Each add keeps only
    its slab's first worst node per sample."""

    def __init__(self, count: int):
        self.count, self.held = count, []

    def add(self, samples: slice, m, rhs) -> None:
        """Fold in the next nodes of the samples in `samples`, m and rhs of
        shape (samples,) + the nodes' shape."""
        m, rhs = m.reshape(len(m), -1), rhs.reshape(len(m), -1)
        excess = m - rhs
        at = (np.arange(len(m)), np.argmax(excess, axis=1))
        self.held.append((np.arange(self.count)[samples], excess[at], m[at], rhs[at]))

    def sides(self) -> tuple:
        """(lhs, rhs) of every sample's worst node, each of shape (M,).  A
        stable sort of the held nodes by sample, NaN first, then by excess,
        largest first, puts each sample's first worst node first."""
        index, excess, lhs, rhs = map(np.concatenate, zip(*self.held))
        nan = np.isnan(excess)
        order = np.lexsort((-np.where(nan, 0.0, excess), ~nan, index))
        first = order[np.flatnonzero(np.diff(index[order], prepend=-1))]
        return lhs[first], rhs[first]


def _node_slab(c, sigma, tau, mu, b, w, a, r, level) -> None:
    """One slab of _chain_fold's nodes: from the coefficient rows c, shape
    nodes + (d,), and the nodes' mu, b and w, write the envelope a, the
    residual r and the six moment rows of level, shape (6,) + nodes, in
    _MEANS order.

    The closed forms _sincos_form and |mu - b|^2 + r^2, the envelope and the
    moments are taken operation by operation, on the same
    operands as the forms, so every value equals theirs; each modulus and
    square is taken once, into the row of the moments that keeps it or, until
    that row is written, that lends it its buffer."""
    perturbed, transform, base, envelope, coeff, dyadic = level
    r_sq = _residual_sq(c, mu, sigma)
    abs_mu = np.abs(mu, out=envelope)
    r_sq += np.square(abs_mu, out=coeff) * tau
    np.square((w * mu).real, out=transform)  # r^2 + Re^2(w mu) + Im^2(w (mu - b))
    np.add(r_sq, transform, out=transform)
    gap = mu - b
    transform += np.square((w * gap).imag, out=dyadic)
    gap_sq = np.square(np.abs(gap, out=base), out=base)
    del gap
    np.add(gap_sq, r_sq, out=perturbed)  # |mu - b|^2 + r^2
    abs_b = np.abs(b, out=dyadic)
    np.add(_envelope_share(abs_mu, abs_b, gap_sq), abs_mu, out=a)  # the envelope |mu| + q
    np.square(abs_b, out=dyadic)
    np.sqrt(r_sq, out=r)
    np.square(a, out=envelope)
    envelope += np.square(r)
    np.add(r_sq, coeff, out=base)
    base *= 2.0  # sum_m |c_m|^2 = 2 (r^2 + |mu|^2)


def _residual_sq(c, mu, sigma) -> np.ndarray:
    """r^2 = mean|u - mu s|^2 of every node, from its coefficient row c (shape
    lead + (d,)) and mu = c.sigma, less |mu|^2 tau, which the caller adds.

    It is a sum of squares, 0.5 sum_m |c_m - 2 mu sigma_m|^2: the cos(m theta) are
    orthogonal with mean square 1/2.  Neither tau = 1 - 2|sigma|^2 nor r^2 =
    |c|^2/2 - |mu|^2 may replace it: at d = N/2 - 1 tau is 0, both cancel below
    0, and sqrt gives NaN.  The moduli are taken column by column, each product
    and difference rounding as the broadcast ones would, into a column-major
    (d,) + lead array, whose squares _pairwise_sum adds with the bits of np.sum
    over a last axis of length d (numpy's slow reduction over a short axis)."""
    twice = 2.0 * mu
    column = np.empty_like(twice)
    squares = np.empty(sigma.shape + mu.shape)
    for m, s in enumerate(sigma):
        np.subtract(c[..., m], np.multiply(twice, s, out=column), out=column)
        np.abs(column, out=squares[m])
    del twice, column
    return np.multiply(_pairwise_sum(np.square(squares, out=squares)), 0.5)


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """np.sum(x, axis=-1), bit for bit, of a C-contiguous x of nonnegative terms
    whose last axis is the first axis of terms, in numpy's pairwise order: below
    8 terms a left fold; up to 128, 8 accumulators, their fixed tree, then the
    remaining terms in order; above, the two halves, cut at a multiple of 8.
    The sums are taken in place in terms, into terms[0], which is returned."""
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return np.add(_pairwise_sum(terms[:half]), _pairwise_sum(terms[half:]), out=terms[0])
    total, rest = terms[0], 1
    if n >= 8:
        lanes, rest = terms[:8], n - n % 8
        for i in range(8, rest, 8):
            lanes += terms[i:i + 8]
        lanes[0::2] += lanes[1::2]  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        lanes[0::4] += lanes[2::4]
        total += lanes[4]
    for x in terms[rest:]:
        total += x
    return total


CHAIN_STEPS = ("dyadic-mean-convexity", "pointwise-perturbed-moment", "pnorm-envelope-split",
               "envelope-gap-transform", "stability-chain")


def verify_chain(report: StabilityReport, slack: float = 1e-10) -> list:
    """Numerically evaluate every inequality of the stability chain for a
    one-sample report.

    Violations are reported, never raised.  Returns one CheckRecord per step
    of CHAIN_STEPS, in that order, whose gap and verdict follow slack_verdict
    with the given slack, a finite nonnegative real number.
    """
    slack = _check_tolerance(slack, "slack")
    sides = (x[:, 0].tolist() for x in _chain_sides(report, slack))
    return [CheckRecord(*step) for step in zip(CHAIN_STEPS, *sides)]


def _chain_sides(report: StabilityReport, slack: float) -> tuple:
    """lhs, rhs, gap and passed of verify_chain as arrays of shape (5, M): one
    row per step of CHAIN_STEPS, one column per sample of a batch report (a
    one-sample report is the batch M = 1).  The pointwise step folds the
    report's levels, one slab each, as _chain_fold folds the nodes."""
    count = np.size(report.perturbation_pnorm)
    pointwise = _Pointwise(count)
    for m, a, r, mu in zip(report.perturbed_moments, report.envelopes, report.residual_rms,
                           report.sigma_coeffs):
        m, a, r, mu = (np.reshape(x, (count, -1)) for x in (m, a, r, mu))
        pointwise.add(slice(None), m, _pointwise_rhs(*_node_moments(a, r, mu)))
    means = np.reshape([getattr(report, name) for name in _MEANS], (6, count))
    return _step_sides(means, pointwise, slack)


def _step_sides(means, pointwise: _Pointwise, slack: float) -> tuple:
    """_chain_sides from the six root means, shape (6, M) in _MEANS order, and
    the pointwise step's worst."""
    pp, tp, bp, ex, ey, ez = means
    # Pointwise: E_{k-1}|u_k - b_k s_k|^2 <= 8*(a_k^2 + r_k^2 - |mu_k|^2), per sample at
    # its first entry of largest excess over all levels; a NaN entry is the one taken.
    gap_mean = np.maximum(ex - ey, 0.0)  # X >= Y pointwise; clamp round-off
    denom_sq = tp * bp
    positive = denom_sq > 0.0
    worst_lhs, worst_rhs = pointwise.sides()
    lhs = np.stack([ez, worst_lhs, pp, ex - ez, pp])
    rhs = np.stack([
        # averaging onto the sign cells can only shrink the mean of the
        # square-function of the sigma coefficients
        ey,
        worst_rhs,
        # ||U - E(U|D)||_P <= sqrt(8) * (E(X-Y))^(1/2) * (E(X+Y))^(1/2)
        np.sqrt(8.0) * np.sqrt(gap_mean) * np.sqrt(ex + ey),
        # E(X - Z) <= sqrt(8) * ||T_W(G - E(G|D))||_P
        np.sqrt(8.0) * tp,
        # the final bound with the tracked constant
        np.where(positive, CHAIN_CONSTANT * np.sqrt(np.where(positive, denom_sq, 0.0)), 0.0),
    ])
    gap, passed = slack_verdict(lhs, rhs, slack)
    # a vanishing denominator (not possible for valid inputs) passes only
    # with a vanishing perturbation
    passed[-1] = np.where(positive, passed[-1], pp == 0.0)
    return lhs, rhs, gap, passed
