"""Identity and inequality evaluators for the dyadic-perturbation estimates.

Everything here evaluates both sides of an identity or bound numerically and
returns them; nothing is silently assumed.  The scalar envelope bounds feed
the per-level estimates, the single-coordinate identity feeds the integral
bounds, and the stability pipeline assembles the full chain ending in

    ||U - E(U|D)||_P <= CHAIN_CONSTANT * ||T_W(G - E(G|D))||_P^(1/2) * ||G||_P^(1/2)

for a Hardy martingale G with cosine part U and unimodular adapted W.

The chain has two entry points that return the same StabilityReport:
stability_report(field, phases) works on the differences of any martingale
over grid^n that passes the numeric Hardy gate, and is the reference;
stability_report_from_coefficients(grid, coefficients, phases) takes the
per-level analytic coefficient blocks of martingale_from_coefficients, which
are Hardy by construction, and evaluates every per-level quantity in closed
form in O(N^(n-1) d) without building grid^n arrays.  The theorem and
constant-search commands use the second; theorem evaluates it over a leading
sample axis, one chunk of samples per call, of which the single-sample entry
point is the one-sample case.
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
    _broadcast_sum,
    _check_phases,
    _coefficient_blocks,
    _even_part,
    _project_trailing_cells,
    _require_unimodular,
    cond_square_profile,
    is_hardy_martingale,
    project_dyadic_cells,
)
from .torus import GridFunction, TorusGrid, is_hardy

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
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    gap = (rhs - lhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return gap, gap >= -tol


def residual_verdict(lhs, rhs, scale, tol: float) -> tuple:
    """(gap, passed) of lhs = rhs, elementwise over arrays of samples:
    gap = |lhs - rhs| / max(scale, 1e-300), passed where gap <= tol."""
    gap = np.abs(np.subtract(lhs, rhs, dtype=float)) / np.maximum(scale, 1e-300)
    return gap, gap <= tol


def _envelope_parts(mu, b) -> tuple:
    """|mu|, |mu - b|^2 and q = |mu - b|^2 / (|mu| + |b|), elementwise, with
    q = 0 at mu = b = 0.  The envelope of (mu, b) is |mu| + q."""
    mu, b = np.asarray(mu, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    abs_mu = np.abs(mu)
    denom = abs_mu + np.abs(b)
    gap_sq = np.abs(mu - b) ** 2
    return abs_mu, gap_sq, np.where(denom > 0.0, gap_sq / np.where(denom > 0.0, denom, 1.0), 0.0)


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
    lhs = (arith_envelope(mu_arr, b_arr) - np.abs(b_arr)) ** 2
    rhs = 4.0 * ((w_arr * (mu_arr - b_arr)).imag ** 2 + (w_arr * mu_arr).real ** 2)
    return _like_inputs(mu, b, lhs, rhs)


def envelope_excess_sides(mu, b):
    """Sides of |mu - b|^2 <= 2 * (a^2 - |mu|^2).

    The right side is evaluated as 2*q*(q + 2|mu|) with q = a - |mu|, which
    is the same quantity without the cancellation a^2 - |mu|^2.
    """
    abs_mu, gap_sq, q = _envelope_parts(mu, b)
    return _like_inputs(mu, b, gap_sq, 2.0 * q * (q + 2.0 * abs_mu))


def _coordinate_parts(h: GridFunction) -> tuple:
    """Gate h (analytic, no Nyquist content) and return its even part u,
    mu = <u,s> and the tail int |u - mu s|^2."""
    if not is_hardy(h, _ANALYTIC_GATE_TOL):
        raise ValueError("input must be analytic with vanishing mean (Hardy)")
    u, sig = _even_part(h.values), h.grid.sign_values
    mu = complex(np.mean(u * sig))
    return u, mu, float(np.mean(np.abs(u - mu * sig) ** 2))


def _split_sides(h: GridFunction, b: complex, u, mu: complex, tail: float) -> tuple:
    """Both sides of the orthogonal split int |u - b s|^2 = |mu - b|^2 + tail."""
    return float(np.mean(np.abs(u - b * h.grid.sign_values) ** 2)), abs(mu - b) ** 2 + tail


def _transform_moment(h: GridFunction, b: complex, w: complex) -> float:
    """int Im^2(w (h - b s))."""
    return float(np.mean((w * (h.values - b * h.grid.sign_values)).imag ** 2))


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
    w, b = _require_unimodular(complex(w), "multiplier"), complex(b)
    _, mu, tail = _coordinate_parts(h)
    lhs = (w * (mu - b)).imag ** 2 + (w * mu).real ** 2 + tail
    rhs = _transform_moment(h, b, w)
    return IdentityReport(lhs, rhs, float(residual_verdict(lhs, rhs, rhs, 0.0)[0]))


def decomposition_sides(h: GridFunction, b: complex):
    """Sides of the orthogonal split int |u - b s|^2 = |<u,s> - b|^2 + int |u - <u,s> s|^2."""
    return _split_sides(h, complex(b), *_coordinate_parts(h))


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
    w, b = _require_unimodular(complex(w), "multiplier"), complex(b)
    u, mu, tail = _coordinate_parts(h)
    shift_lhs, split_rhs = _split_sides(h, b, u, mu, tail)
    a = arith_envelope(mu, b)
    shift_rhs = 8.0 * (a * a - abs(mu) ** 2) + tail
    rotation_lhs = (a - abs(b)) ** 2 + tail
    rotation_rhs = 8.0 * _transform_moment(h, b, w)
    split_residual = float(residual_verdict(shift_lhs, split_rhs, split_rhs, 0.0)[0])
    return PerturbationReport(shift_lhs, shift_rhs, rotation_lhs, rotation_rhs, split_rhs,
                              split_residual)


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

    per_level = []
    for w, g_k in zip(phases.terms, field.diffs):
        u_k = _even_part(g_k)
        mu_k = np.asarray(np.mean(u_k * sig, axis=-1))
        b_k = project_dyadic_cells(grid, mu_k)
        v_k = u_k - mu_k[..., np.newaxis] * sig
        r_k = np.sqrt(np.mean(np.abs(v_k) ** 2, axis=-1))
        a_k = np.asarray(arith_envelope(mu_k, b_k))

        pert = u_k - b_k[..., np.newaxis] * sig
        m_k = np.asarray(np.mean(np.abs(pert) ** 2, axis=-1))

        t_k = (w[..., np.newaxis] * (g_k - b_k[..., np.newaxis] * sig)).imag
        tq_k = np.asarray(np.mean(t_k**2, axis=-1))

        per_level.append(tuple(np.asarray(x)[np.newaxis] for x in (mu_k, b_k, a_k, r_k, m_k, tq_k)))
    base_moments = [q[np.newaxis] for q in cond_square_profile(field).level_moments]
    return _first_sample(_chain_report(per_level, base_moments, field.depth, grid.n_points))


def _chain_report(per_level, base_moments, depth: int, n: int) -> StabilityReport:
    """Aggregate per-level (mu, b, a, r, m, tq) arrays and the conditional
    second moments of G, each with a leading axis of M samples, into the
    batch report's means, P-norms and ratio, one per sample."""
    (sigma_coeffs, dyadic_coeffs, envelopes, residual_rms, perturbed_moments,
     transform_moments) = zip(*per_level)

    def root_mean(moments) -> np.ndarray:
        """Per sample, the mean over grid^(n-1) of the root of the summed per-level moments."""
        roots = np.sqrt(_broadcast_sum(moments, depth, n))
        return np.mean(roots.reshape(len(roots), -1), axis=1)

    perturbation_pnorm = root_mean(perturbed_moments)
    transform_pnorm = root_mean(transform_moments)
    base_pnorm = root_mean(base_moments)

    # a vanishing denominator (impossible for valid inputs; flagged by
    # verify_chain) gives 0 for a vanishing perturbation and inf otherwise
    denom_sq = transform_pnorm * base_pnorm
    positive = denom_sq > 0.0
    ratio = np.where(positive, perturbation_pnorm / np.sqrt(np.where(positive, denom_sq, 1.0)),
                     np.where(perturbation_pnorm == 0.0, 0.0, math.inf))

    return StabilityReport(
        sigma_coeffs=sigma_coeffs,
        dyadic_coeffs=dyadic_coeffs,
        envelopes=envelopes,
        residual_rms=residual_rms,
        perturbed_moments=perturbed_moments,
        transform_moments=transform_moments,
        envelope_mean=root_mean([a**2 + r**2 for a, r in zip(envelopes, residual_rms)]),
        coeff_mean=root_mean([np.abs(m) ** 2 for m in sigma_coeffs]),
        dyadic_mean=root_mean([np.abs(b) ** 2 for b in dyadic_coeffs]),
        perturbation_pnorm=perturbation_pnorm,
        transform_pnorm=transform_pnorm,
        base_pnorm=base_pnorm,
        ratio=ratio,
    )


def _first_sample(batch: StabilityReport) -> StabilityReport:
    """Sample 0 of a batch report as a one-sample report: per-level arrays
    without the sample axis and float norms."""
    parts = {}
    for f in fields(batch):
        value = getattr(batch, f.name)
        is_levels = isinstance(value, tuple)
        parts[f.name] = tuple(x[0, ...] for x in value) if is_levels else float(value[0])
    return StabilityReport(**parts)


@lru_cache(maxsize=256)
def _sign_modes(grid: TorusGrid, degree: int) -> tuple:
    """sigma_m = mean(cos(m theta) s) for m = 1..degree, and the energy
    tau = mean((s - 2 sum_m sigma_m cos(m theta))^2) of s beyond those modes.

    Grids are immutable and interned, so the pair is kept per (grid, degree);
    sigma is read-only."""
    sig = grid.sign_values
    cos = grid.analytic_modes(degree).real
    sigma = cos @ sig / grid.n_points
    sigma.setflags(write=False)
    return sigma, float(np.mean((sig - 2.0 * sigma @ cos) ** 2))


def _cos_residual_sq(a, x, sigma, tau):
    """Row-wise mean over theta of |sum_m a_m cos(m theta) - x s|^2, with the modes
    m on the last axis of a and any leading axes, as a sum of squares: on the grid the cos(m theta), m <= N/2 - 1, are orthogonal with
    mean square 1/2, and s splits into its sigma modes plus a remainder of energy tau."""
    cos_part = 0.5 * np.sum(np.abs(a - 2.0 * x[..., np.newaxis] * sigma) ** 2, axis=-1)
    return cos_part + np.abs(x) ** 2 * tau


def stability_report_from_coefficients(grid: TorusGrid, coefficients,
                                       phases: AdaptedPhases) -> StabilityReport:
    """stability_report(martingale_from_coefficients(grid, coefficients), phases),
    evaluated from the coefficient blocks in O(N^(n-1) d) without grid^n arrays.

    A level-k difference with row c is g = sum_m c_m e^{im theta}; its even
    part is u = sum_m c_m cos(m theta) and its odd part i sum_m c_m sin(m theta).
    With mu = c.sigma and b its dyadic projection, every per-level moment is a
    sum of squares: r^2 = mean|u - mu s|^2, the perturbed moment r^2 + |mu - b|^2
    (u - mu s is orthogonal to s), and the transform moment splits Im(w(g - b s))
    into its odd part sum_m Re(w c_m) sin(m theta) and its even part
    sum_m Im(w c_m) cos(m theta) - Im(w b) s.  The base moment is sum_m |c_m|^2.
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
    validates them; terms may run deeper than blocks.
    """
    n, count = grid.n_points, len(blocks[0])
    per_level, base_moments = [], []
    for k, (w, c) in enumerate(zip(terms, blocks), start=1):
        shape = (count,) + (n,) * (k - 1)
        sigma, tau = _sign_modes(grid, c.shape[-1])
        mu = c @ sigma
        b = _project_trailing_cells(grid, mu.reshape(shape), k - 1).reshape(count, -1)
        w = w.reshape(count, -1)
        r_sq = _cos_residual_sq(c, mu, sigma, tau)
        wc = w[..., np.newaxis] * c
        tq = 0.5 * np.sum(wc.real**2, axis=-1) + _cos_residual_sq(wc.imag, (w * b).imag, sigma, tau)
        del wc  # the deepest level's is the largest array here; free it before the next
        level = (mu, b, arith_envelope(mu, b), np.sqrt(r_sq), r_sq + np.abs(mu - b) ** 2, tq)
        per_level.append(tuple(x.reshape(shape) for x in level))
        base_moments.append(np.sum(np.abs(c) ** 2, axis=-1).reshape(shape))
    return _chain_report(per_level, base_moments, len(blocks), n)


CHAIN_STEPS = ("dyadic-mean-convexity", "pointwise-perturbed-moment", "pnorm-envelope-split",
               "envelope-gap-transform", "stability-chain")


def verify_chain(report: StabilityReport, slack: float = 1e-10) -> list:
    """Numerically evaluate every inequality of the stability chain for a
    one-sample report.

    Violations are reported, never raised.  Returns one CheckRecord per step
    of CHAIN_STEPS, in that order, whose gap and verdict follow slack_verdict
    with the given slack.
    """
    sides = (x[:, 0].tolist() for x in _chain_sides(report, slack))
    return [CheckRecord(*step) for step in zip(CHAIN_STEPS, *sides)]


def _chain_sides(report: StabilityReport, slack: float) -> tuple:
    """lhs, rhs, gap and passed of verify_chain as arrays of shape (5, M): one
    row per step of CHAIN_STEPS, one column per sample of a batch report (a
    one-sample report is the batch M = 1)."""
    count = np.size(report.perturbation_pnorm)
    ex, ey, ez, pp, tp, bp = (np.reshape(x, count) for x in (
        report.envelope_mean, report.coeff_mean, report.dyadic_mean,
        report.perturbation_pnorm, report.transform_pnorm, report.base_pnorm))

    # Pointwise: E_{k-1}|u_k - b_k s_k|^2 <= 8*(a_k^2 + r_k^2 - |mu_k|^2), per sample at
    # its first entry of largest excess over all levels; a NaN entry is the one taken.
    m, a, r, mu = (np.concatenate([np.reshape(x, (count, -1)) for x in per_level], axis=1)
                   for per_level in (report.perturbed_moments, report.envelopes,
                                     report.residual_rms, report.sigma_coeffs))
    rhs_all = 8.0 * (a**2 + r**2 - np.abs(mu) ** 2)
    worst = (np.arange(count), np.argmax(m - rhs_all, axis=1))

    gap_mean = np.maximum(ex - ey, 0.0)  # X >= Y pointwise; clamp round-off
    denom_sq = tp * bp
    positive = denom_sq > 0.0
    lhs = np.stack([ez, m[worst], pp, ex - ez, pp])
    rhs = np.stack([
        # averaging onto the sign cells can only shrink the mean of the
        # square-function of the sigma coefficients
        ey,
        rhs_all[worst],
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
