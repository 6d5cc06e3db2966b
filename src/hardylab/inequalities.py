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
constant-search commands use the second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .martingale import (
    AdaptedPhases,
    MartingaleField,
    _broadcast_sum,
    _coefficient_blocks,
    _even_part,
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

_UNIMODULAR_TOL = 1e-9
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


def slack_within(lhs: float, rhs: float, tol: float) -> bool:
    """lhs <= rhs with tolerance tol, measured in units of the bound's scale."""
    return bool(slack_verdict(lhs, rhs, tol)[1])


def residual_verdict(lhs, rhs, scale, tol: float) -> tuple:
    """(gap, passed) of lhs = rhs, elementwise over arrays of samples:
    gap = |lhs - rhs| / max(scale, 1e-300), passed where gap <= tol."""
    gap = np.abs(np.subtract(lhs, rhs, dtype=float)) / np.maximum(scale, 1e-300)
    return gap, gap <= tol


def _require_unimodular(w: complex) -> complex:
    w = complex(w)
    if abs(abs(w) - 1.0) > _UNIMODULAR_TOL:
        raise ValueError(f"multiplier must be unimodular; |w| = {abs(w)!r}")
    return w


def arith_envelope(mu, b):
    """|mu| + |mu - b|^2 / (|mu| + |b|), with the degenerate value 0 at mu = b = 0.

    Accepts scalars or arrays (elementwise).  Always >= |mu|.
    """
    mu_arr = np.asarray(mu, dtype=np.complex128)
    b_arr = np.asarray(b, dtype=np.complex128)
    denom = np.abs(mu_arr) + np.abs(b_arr)
    safe = np.where(denom > 0.0, denom, 1.0)
    out = np.abs(mu_arr) + np.where(denom > 0.0, np.abs(mu_arr - b_arr) ** 2 / safe, 0.0)
    if np.isscalar(mu) and np.isscalar(b):
        return float(out)
    return out


@dataclass(frozen=True)
class EnvelopeWitness:
    """A scalar sample (mu, b, w) together with its envelope value."""

    mu: complex
    b: complex
    w: complex
    a: float

    def __post_init__(self):
        _require_unimodular(self.w)
        expected = arith_envelope(self.mu, self.b)
        if abs(self.a - expected) > 1e-12 * max(1.0, expected):
            raise ValueError(f"inconsistent envelope value {self.a!r}; expected {expected!r}")
        if self.a < 0.0:
            raise ValueError("envelope value must be nonnegative")

    @classmethod
    def build(cls, mu: complex, b: complex, w: complex) -> "EnvelopeWitness":
        return cls(complex(mu), complex(b), complex(w), arith_envelope(mu, b))


def envelope_gap_sides(mu, b, w):
    """Sides of (a - |b|)^2 <= 4 * (Im^2(w(mu - b)) + Re^2(w mu)).

    Equality holds for every (mu, w) when b = 0.
    """
    mu_arr = np.asarray(mu, dtype=np.complex128)
    b_arr = np.asarray(b, dtype=np.complex128)
    w_arr = np.asarray(w, dtype=np.complex128)
    if np.any(np.abs(np.abs(w_arr) - 1.0) > _UNIMODULAR_TOL):
        raise ValueError("multiplier must be unimodular")
    a = arith_envelope(mu_arr, b_arr)
    lhs = (a - np.abs(b_arr)) ** 2
    rhs = 4.0 * ((w_arr * (mu_arr - b_arr)).imag ** 2 + (w_arr * mu_arr).real ** 2)
    if np.isscalar(mu) and np.isscalar(b):
        return float(lhs), float(rhs)
    return lhs, rhs


def envelope_excess_sides(mu, b):
    """Sides of |mu - b|^2 <= 2 * (a^2 - |mu|^2).

    The right side is evaluated as 2*q*(q + 2|mu|) with q = a - |mu|, which
    is the same quantity without the cancellation a^2 - |mu|^2.
    """
    mu_arr = np.asarray(mu, dtype=np.complex128)
    b_arr = np.asarray(b, dtype=np.complex128)
    denom = np.abs(mu_arr) + np.abs(b_arr)
    safe = np.where(denom > 0.0, denom, 1.0)
    gap_sq = np.abs(mu_arr - b_arr) ** 2
    q = np.where(denom > 0.0, gap_sq / safe, 0.0)
    rhs = 2.0 * q * (q + 2.0 * np.abs(mu_arr))
    if np.isscalar(mu) and np.isscalar(b):
        return float(gap_sq), float(rhs)
    return gap_sq, rhs


def _analytic_even_part(h: GridFunction) -> tuple:
    """Validate h (analytic, no Nyquist content) and return (u values, mu)."""
    if not is_hardy(h, _ANALYTIC_GATE_TOL):
        raise ValueError("input must be analytic with vanishing mean (Hardy)")
    u = 0.5 * (h.values + h.values[::-1])
    sig = h.grid.sign_values
    mu = complex(np.mean(u * sig))
    return u, mu


@dataclass(frozen=True)
class IdentityReport:
    lhs: float
    rhs: float
    residual: float


def _identity_report(lhs: float, rhs: float) -> IdentityReport:
    return IdentityReport(lhs, rhs, float(residual_verdict(lhs, rhs, rhs, 0.0)[0]))


def sincos_identity_sides(h: GridFunction, b: complex, w: complex) -> IdentityReport:
    """Both sides of the exact single-coordinate identity

        Im^2(w(<u,s> - b)) + Re^2(w <u,s>) + int |u - <u,s> s|^2
            = int Im^2(w (h - b s)),

    where u is the conjugation-even part of the analytic h and s the sign
    function.  Exact on the shifted grid, so the residual is round-off.
    """
    w = _require_unimodular(w)
    b = complex(b)
    u, mu = _analytic_even_part(h)
    sig = h.grid.sign_values
    lhs = (
        (w * (mu - b)).imag ** 2
        + (w * mu).real ** 2
        + float(np.mean(np.abs(u - mu * sig) ** 2))
    )
    rhs = float(np.mean((w * (h.values - b * sig)).imag ** 2))
    return _identity_report(lhs, rhs)


def decomposition_sides(h: GridFunction, b: complex):
    """Sides of the orthogonal split int |u - b s|^2 = |<u,s> - b|^2 + int |u - <u,s> s|^2."""
    b = complex(b)
    u, mu = _analytic_even_part(h)
    sig = h.grid.sign_values
    lhs = float(np.mean(np.abs(u - b * sig) ** 2))
    rhs = abs(mu - b) ** 2 + float(np.mean(np.abs(u - mu * sig) ** 2))
    return lhs, rhs


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
    w = _require_unimodular(w)
    b = complex(b)
    u, mu = _analytic_even_part(h)
    sig = h.grid.sign_values
    tail = float(np.mean(np.abs(u - mu * sig) ** 2))

    a = arith_envelope(mu, b)
    excess = a * a - abs(mu) ** 2
    shift_lhs = float(np.mean(np.abs(u - b * sig) ** 2))
    shift_rhs = 8.0 * excess + tail

    rotation_lhs = (a - abs(b)) ** 2 + tail
    rotation_rhs = 8.0 * float(np.mean((w * (h.values - b * sig)).imag ** 2))

    split_rhs = abs(mu - b) ** 2 + tail
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


def stability_report(field: MartingaleField, phases: AdaptedPhases,
                     hardy_tol: float = 1e-8) -> StabilityReport:
    """Compute every quantity entering the stability chain for (G, W) from
    the differences of G over grid^n; G must pass the Hardy gate."""
    if phases.grid.n_points != field.grid.n_points:
        raise ValueError("grid mismatch between field and phases")
    if phases.depth < field.depth:
        raise ValueError("phases depth shorter than field depth")
    if not is_hardy_martingale(field, hardy_tol):
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

        per_level.append((mu_k, b_k, a_k, np.asarray(r_k), m_k, tq_k))
    base_moments = cond_square_profile(field).level_moments
    return _chain_report(per_level, base_moments, field.depth, grid.n_points)


def _chain_report(per_level, base_moments, depth: int, n: int) -> StabilityReport:
    """Aggregate per-level (mu, b, a, r, m, tq) arrays and the conditional
    second moments of G into the chain's means, P-norms and ratio."""
    (sigma_coeffs, dyadic_coeffs, envelopes, residual_rms, perturbed_moments,
     transform_moments) = zip(*per_level)

    big_x = np.sqrt(_broadcast_sum([a**2 + r**2 for a, r in zip(envelopes, residual_rms)], depth, n))
    big_y = np.sqrt(_broadcast_sum([np.abs(m) ** 2 for m in sigma_coeffs], depth, n))
    big_z = np.sqrt(_broadcast_sum([np.abs(b) ** 2 for b in dyadic_coeffs], depth, n))

    perturbation_pnorm = float(np.mean(np.sqrt(_broadcast_sum(perturbed_moments, depth, n))))
    transform_pnorm = float(np.mean(np.sqrt(_broadcast_sum(transform_moments, depth, n))))
    base_pnorm = float(np.mean(np.sqrt(_broadcast_sum(base_moments, depth, n))))

    denom_sq = transform_pnorm * base_pnorm
    if denom_sq > 0.0:
        ratio = perturbation_pnorm / math.sqrt(denom_sq)
    elif perturbation_pnorm == 0.0:
        ratio = 0.0
    else:
        ratio = math.inf  # impossible for valid inputs; flagged by verify_chain

    return StabilityReport(
        sigma_coeffs=sigma_coeffs,
        dyadic_coeffs=dyadic_coeffs,
        envelopes=envelopes,
        residual_rms=residual_rms,
        perturbed_moments=perturbed_moments,
        transform_moments=transform_moments,
        envelope_mean=float(np.mean(big_x)),
        coeff_mean=float(np.mean(big_y)),
        dyadic_mean=float(np.mean(big_z)),
        perturbation_pnorm=perturbation_pnorm,
        transform_pnorm=transform_pnorm,
        base_pnorm=base_pnorm,
        ratio=ratio,
    )


def _sign_modes(grid: TorusGrid, degree: int) -> tuple:
    """sigma_m = mean(cos(m theta) s) for m = 1..degree, and the energy
    tau = mean((s - 2 sum_m sigma_m cos(m theta))^2) of s beyond those modes."""
    sig = grid.sign_values
    cos = np.cos(np.outer(np.arange(1, degree + 1), grid.angles))
    sigma = cos @ sig / grid.n_points
    return sigma, float(np.mean((sig - 2.0 * sigma @ cos) ** 2))


def _cos_residual_sq(a, x, sigma, tau):
    """Row-wise mean over theta of |sum_m a_m cos(m theta) - x s|^2, as a sum of
    squares: on the grid the cos(m theta), m <= N/2 - 1, are orthogonal with
    mean square 1/2, and s splits into its sigma modes plus a remainder of energy tau."""
    cos_part = 0.5 * np.sum(np.abs(a - 2.0 * x[:, np.newaxis] * sigma) ** 2, axis=-1)
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
    depth, n = len(blocks), grid.n_points
    if phases.grid.n_points != n:
        raise ValueError("grid mismatch between coefficients and phases")
    if phases.depth < depth:
        raise ValueError("phases depth shorter than coefficient depth")

    per_level, base_moments = [], []
    for k, (w, c) in enumerate(zip(phases.terms, blocks), start=1):
        shape = (n,) * (k - 1)
        sigma, tau = _sign_modes(grid, c.shape[1])
        mu = c @ sigma
        b = project_dyadic_cells(grid, mu.reshape(shape)).reshape(-1)
        wc, wb = w.reshape(-1, 1) * c, w.reshape(-1) * b
        r_sq = _cos_residual_sq(c, mu, sigma, tau)
        tq = 0.5 * np.sum(wc.real**2, axis=-1) + _cos_residual_sq(wc.imag, wb.imag, sigma, tau)
        level = (mu, b, arith_envelope(mu, b), np.sqrt(r_sq), r_sq + np.abs(mu - b) ** 2, tq)
        per_level.append(tuple(x.reshape(shape) for x in level))
        base_moments.append(np.sum(np.abs(c) ** 2, axis=-1).reshape(shape))
    return _chain_report(per_level, base_moments, depth, n)


CHAIN_STEPS = ("dyadic-mean-convexity", "pointwise-perturbed-moment", "pnorm-envelope-split",
               "envelope-gap-transform", "stability-chain")


def verify_chain(report: StabilityReport, slack: float = 1e-10) -> list:
    """Numerically evaluate every inequality of the stability chain.

    Violations are reported, never raised.  Returns one CheckRecord per step
    of CHAIN_STEPS, in that order, whose gap and verdict follow slack_verdict
    with the given slack.
    """
    # Averaging onto the sign cells can only shrink the mean of the
    # square-function of the sigma coefficients.
    sides = [(report.dyadic_mean, report.coeff_mean)]

    # Pointwise: E_{k-1}|u_k - b_k s_k|^2 <= 8*(a_k^2 + r_k^2 - |mu_k|^2).
    worst_lhs, worst_rhs, worst_gap = 0.0, 0.0, -math.inf
    for m_k, a_k, r_k, mu_k in zip(
        report.perturbed_moments, report.envelopes, report.residual_rms, report.sigma_coeffs
    ):
        rhs_arr = 8.0 * (a_k**2 + r_k**2 - np.abs(mu_k) ** 2)
        gap = np.asarray(m_k - rhs_arr)
        idx = np.unravel_index(np.argmax(gap), gap.shape) if gap.ndim else ()
        if float(gap[idx]) > worst_gap:
            worst_gap = float(gap[idx])
            worst_lhs = float(np.asarray(m_k)[idx])
            worst_rhs = float(np.asarray(rhs_arr)[idx])
    sides.append((worst_lhs, worst_rhs))

    # ||U - E(U|D)||_P <= sqrt(8) * (E(X-Y))^(1/2) * (E(X+Y))^(1/2).
    ex, ey, ez = report.envelope_mean, report.coeff_mean, report.dyadic_mean
    gap_mean = max(ex - ey, 0.0)  # X >= Y pointwise; clamp round-off
    sides.append((report.perturbation_pnorm,
                  math.sqrt(8.0) * math.sqrt(gap_mean) * math.sqrt(ex + ey)))

    # E(X - Z) <= sqrt(8) * ||T_W(G - E(G|D))||_P.
    sides.append((ex - ez, math.sqrt(8.0) * report.transform_pnorm))

    # Final bound with the tracked constant; a vanishing denominator (not
    # possible for valid inputs) passes only with a vanishing perturbation.
    denom_sq = report.transform_pnorm * report.base_pnorm
    sides.append((report.perturbation_pnorm,
                  CHAIN_CONSTANT * math.sqrt(denom_sq) if denom_sq > 0.0 else 0.0))

    lhs, rhs = zip(*sides)
    gap, passed = slack_verdict(lhs, rhs, slack)
    passed = passed.tolist()
    if not denom_sq > 0.0:
        passed[-1] = report.perturbation_pnorm == 0.0
    return [CheckRecord(*step) for step in zip(CHAIN_STEPS, lhs, rhs, gap.tolist(), passed)]
