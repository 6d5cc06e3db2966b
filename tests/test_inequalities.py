import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import (
    CHAIN_CONSTANT,
    AdaptedPhases,
    EnsembleConfig,
    GridFunction,
    MartingaleField,
    arith_envelope,
    arith_sample_batch,
    decomposition_sides,
    envelope_excess_sides,
    envelope_gap_sides,
    make_grid,
    martingale_from_coefficients,
    perturbation_bounds,
    phases_from_angles,
    random_adapted_phases,
    random_coefficient_arrays,
    random_hardy_function,
    random_hardy_martingale,
    sincos_identity_sides,
    slack_verdict,
    stability_report,
    stability_report_from_coefficients,
    verify_chain,
)

from hardylab.inequalities import _chain_sides, _stability_batch

import oracles

complex_st = st.builds(
    complex,
    st.floats(-50, 50, allow_nan=False),
    st.floats(-50, 50, allow_nan=False),
)


def unit_phase(rng):
    w = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
    return w / abs(w)


class TestArithEnvelope:
    def test_examples(self):
        assert arith_envelope(1, 0) == pytest.approx(2.0, abs=0)
        assert arith_envelope(2 + 1j, 2 + 1j) == pytest.approx(abs(2 + 1j), abs=0)
        assert arith_envelope(0, 0) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(complex_st, complex_st)
    def test_dominates_modulus(self, mu, b):
        # measure |mu| with the same arithmetic the envelope uses
        assert arith_envelope(mu, b) >= float(np.abs(np.complex128(mu)))

    def test_elementwise(self):
        mu = np.array([1.0, 0.0, 3.0 + 4j])
        b = np.array([0.0, 0.0, 3.0 + 4j])
        np.testing.assert_allclose(arith_envelope(mu, b), [2.0, 0.0, 5.0])


class TestEnvelopeGapBound:
    def test_equality_case(self):
        assert envelope_gap_sides(1, 0, 1) == (4.0, 4.0)

    def test_mu_equals_b(self):
        lhs, rhs = envelope_gap_sides(1 + 1j, 1 + 1j, 1j)
        assert lhs == pytest.approx(0.0, abs=1e-15)
        assert rhs >= 0.0

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            envelope_gap_sides(1, 0, 0.5)

    @settings(max_examples=300, deadline=None)
    @given(complex_st, complex_st, st.floats(0, 2 * math.pi, allow_nan=False))
    def test_holds_on_random_samples(self, mu, b, phi):
        w = complex(np.exp(1j * phi))
        w /= abs(w)
        lhs, rhs = envelope_gap_sides(mu, b, w)
        assert bool(slack_verdict(lhs, rhs, 1e-12)[1])

    def test_vectorized_strata(self):
        cfg = EnsembleConfig(seed=5, n_points=8)
        mu, b, w = arith_sample_batch(cfg, 2000)
        lhs, rhs = envelope_gap_sides(mu, b, w)
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        assert np.min((rhs - lhs) / scale) >= -1e-12


@pytest.mark.parametrize("w", [complex(np.nan, 0.0), 1.0 + 1e-10])
@pytest.mark.parametrize("sides", [
    lambda h, w: sincos_identity_sides(h, 0.5, w),
    lambda h, w: perturbation_bounds(h, 0.5, w),
    lambda h, w: envelope_gap_sides(np.array([1.0, 2.0]), 0.5, np.array([1.0, w])),
], ids=["sincos_identity_sides", "perturbation_bounds", "envelope_gap_sides"])
def test_multiplier_rule_rejects_nan_and_off_circle(sides, w):
    # the same rule as AdaptedPhases: |w| within 1e-12 of 1, and a NaN fails
    grid = make_grid(8)
    h = GridFunction(grid, np.exp(1j * grid.angles))
    with pytest.raises(ValueError, match="unimodular"):
        sides(h, w)


class TestEnvelopeExcessBound:
    def test_example(self):
        assert envelope_excess_sides(1, 0) == (1.0, 6.0)

    def test_mu_equals_b(self):
        assert envelope_excess_sides(2j, 2j) == (0.0, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(complex_st, complex_st)
    def test_holds_on_random_samples(self, mu, b):
        lhs, rhs = envelope_excess_sides(mu, b)
        assert bool(slack_verdict(lhs, rhs, 1e-12)[1])


class TestSinCosIdentity:
    def test_first_mode_b_zero(self):
        grid = make_grid(4)
        h = GridFunction(grid, np.exp(1j * grid.angles))
        rep = sincos_identity_sides(h, 0.0, 1.0)
        assert rep.lhs == pytest.approx(0.5, abs=1e-14)
        assert rep.rhs == pytest.approx(0.5, abs=1e-14)
        assert rep.residual < 1e-12

    def test_first_mode_real_shift_invisible(self):
        grid = make_grid(4)
        h = GridFunction(grid, np.exp(1j * grid.angles))
        rep = sincos_identity_sides(h, math.sqrt(2) / 2, 1.0)
        assert rep.lhs == pytest.approx(0.5, abs=1e-14)
        assert rep.rhs == pytest.approx(0.5, abs=1e-14)

    def test_zero_function(self):
        grid = make_grid(8)
        h = GridFunction(grid, np.zeros(8))
        b, w = 1.5 - 2j, unit_phase(np.random.default_rng(0))
        rep = sincos_identity_sides(h, b, w)
        expected = (w * b).imag ** 2
        assert rep.lhs == pytest.approx(expected, rel=1e-12)
        assert rep.rhs == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_exact_for_random_data(self, n):
        rng = np.random.default_rng(n)
        for i in range(50):
            cfg = EnsembleConfig(seed=1000 * n + i, n_points=n,
                                 max_degree=n // 2 - 1)
            h = random_hardy_function(cfg)
            b = complex(rng.standard_normal() + 1j * rng.standard_normal())
            rep = sincos_identity_sides(h, b, unit_phase(rng))
            assert rep.residual <= 1e-10

    def test_rejects_non_hardy(self):
        grid = make_grid(8)
        with pytest.raises(ValueError):
            sincos_identity_sides(GridFunction(grid, np.cos(grid.angles)), 0.0, 1.0)
        nyquist = GridFunction(grid, np.exp(1j * grid.angles) + np.exp(-4j * grid.angles))
        with pytest.raises(ValueError):
            sincos_identity_sides(nyquist, 0.0, 1.0)


class TestPerturbationBounds:
    def test_shift_at_sigma_coefficient(self):
        # b equal to <u, sigma>: rotation lhs collapses to the tail term
        grid = make_grid(4)
        h = GridFunction(grid, np.exp(1j * grid.angles))
        rep = perturbation_bounds(h, math.sqrt(2) / 2, 1.0)
        assert rep.rotation_lhs == pytest.approx(0.0, abs=1e-14)
        assert rep.rotation_rhs == pytest.approx(4.0, abs=1e-12)

    def test_zero_everything(self):
        grid = make_grid(8)
        rep = perturbation_bounds(GridFunction(grid, np.zeros(8)), 0.0, 1.0)
        assert rep.shift_lhs == rep.shift_rhs == 0.0
        assert rep.rotation_lhs == rep.rotation_rhs == 0.0

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_random_ensemble(self, n):
        rng = np.random.default_rng(n + 100)
        for i in range(60):
            cfg = EnsembleConfig(seed=2000 * n + i, n_points=n,
                                 max_degree=n // 2 - 1)
            h = random_hardy_function(cfg)
            b = complex(rng.standard_normal() + 1j * rng.standard_normal())
            rep = perturbation_bounds(h, b, unit_phase(rng))
            assert bool(slack_verdict(rep.shift_lhs, rep.shift_rhs, 1e-10)[1])
            assert bool(slack_verdict(rep.rotation_lhs, rep.rotation_rhs, 1e-10)[1])
            assert rep.split_residual <= 1e-10

    def test_split_identity(self):
        cfg = EnsembleConfig(seed=77, n_points=16, max_degree=7)
        h = random_hardy_function(cfg)
        lhs, rhs = decomposition_sides(h, 0.3 - 0.8j)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_split_sides_match_decomposition_sides(self, n):
        # the harness takes the split from the report instead of a second
        # decomposition_sides call; the arithmetic must be the same
        rng = np.random.default_rng(n)
        for i in range(20):
            h = random_hardy_function(EnsembleConfig(seed=500 + i, n_points=n,
                                                     max_degree=n // 2 - 1))
            b = complex(rng.standard_normal() + 1j * rng.standard_normal())
            rep = perturbation_bounds(h, b, unit_phase(rng))
            assert (rep.shift_lhs, rep.split_rhs) == decomposition_sides(h, b)
            assert rep.split_residual == abs(rep.shift_lhs - rep.split_rhs) / rep.split_rhs


class TestStabilityReport:
    def test_single_mode_n4(self):
        grid = make_grid(4)
        G = MartingaleField(grid, 1, np.exp(1j * grid.angles))
        W = AdaptedPhases(grid, (np.asarray(1.0 + 0j),))
        rep = stability_report(G, W)
        assert complex(rep.sigma_coeffs[0]) == pytest.approx(math.sqrt(2) / 2, abs=1e-14)
        assert complex(rep.dyadic_coeffs[0]) == pytest.approx(math.sqrt(2) / 2, abs=1e-14)
        assert float(rep.residual_rms[0]) == pytest.approx(0.0, abs=1e-14)
        assert rep.perturbation_pnorm == pytest.approx(0.0, abs=1e-14)

    def test_single_mode_n8_oracle(self):
        oracle = oracles.oracle_single_step_stability(8)
        grid = make_grid(8)
        G = MartingaleField(grid, 1, np.exp(1j * grid.angles))
        W = AdaptedPhases(grid, (np.asarray(1.0 + 0j),))
        rep = stability_report(G, W)
        assert complex(rep.sigma_coeffs[0]).real == pytest.approx(oracle["mu"], abs=1e-13)
        assert rep.perturbation_pnorm == pytest.approx(oracle["lhs_p"], abs=1e-13)
        assert rep.transform_pnorm == pytest.approx(oracle["transform_p"], abs=1e-13)
        assert rep.base_pnorm == pytest.approx(oracle["base_p"], abs=1e-13)
        assert rep.ratio == pytest.approx(oracle["ratio"], abs=1e-13)
        # headline values
        assert rep.perturbation_pnorm == pytest.approx(0.27060, abs=5e-6)
        assert rep.transform_pnorm == pytest.approx(0.70711, abs=5e-6)
        assert rep.ratio == pytest.approx(0.32180, abs=5e-6)

    def test_zero_field(self):
        grid = make_grid(4)
        G = MartingaleField(grid, 1, np.zeros(4))
        W = AdaptedPhases(grid, (np.asarray(1.0 + 0j),))
        rep = stability_report(G, W)
        assert rep.ratio == 0.0
        assert rep.envelope_mean == rep.coeff_mean == rep.dyadic_mean == 0.0

    def test_rejects_non_hardy(self):
        grid = make_grid(4)
        G = MartingaleField(grid, 1, np.conj(np.exp(1j * grid.angles)))
        W = AdaptedPhases(grid, (np.asarray(1.0 + 0j),))
        with pytest.raises(ValueError, match="Hardy"):
            stability_report(G, W)

    def test_pointwise_envelope_dominates(self):
        cfg = EnsembleConfig(seed=30, n_points=8, depth=3, max_degree=3)
        rep = stability_report(
            random_hardy_martingale(cfg), random_adapted_phases(cfg)
        )
        for a_k, mu_k in zip(rep.envelopes, rep.sigma_coeffs):
            assert np.all(np.asarray(a_k) >= np.abs(np.asarray(mu_k)))
        assert rep.coeff_mean >= rep.dyadic_mean - 1e-12


class TestVerifyChain:
    def test_zero_field_all_pass(self):
        grid = make_grid(4)
        G = MartingaleField(grid, 1, np.zeros(4))
        W = AdaptedPhases(grid, (np.asarray(1.0 + 0j),))
        steps = verify_chain(stability_report(G, W))
        assert all(s.passed for s in steps)

    def test_single_mode_n8_all_pass(self):
        grid = make_grid(8)
        G = MartingaleField(grid, 1, np.exp(1j * grid.angles))
        W = AdaptedPhases(grid, (np.asarray(1.0 + 0j),))
        steps = verify_chain(stability_report(G, W))
        assert [s.check_id for s in steps] == [
            "dyadic-mean-convexity",
            "pointwise-perturbed-moment",
            "pnorm-envelope-split",
            "envelope-gap-transform",
            "stability-chain",
        ]
        assert all(s.passed for s in steps)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_ensemble(self, seed):
        cfg = EnsembleConfig(
            seed=seed, n_points=8, depth=2 + seed % 3, max_degree=3
        )
        rep = stability_report(random_hardy_martingale(cfg), random_adapted_phases(cfg))
        for step in verify_chain(rep):
            assert step.passed, step
        assert rep.ratio <= CHAIN_CONSTANT

    @pytest.mark.parametrize("nan_levels", [(0, 1), (1,)])
    def test_nan_moment_fails_pointwise_step(self, nan_levels):
        cfg = EnsembleConfig(seed=31, n_points=8, depth=2, max_degree=3)
        rep = stability_report_from_coefficients(
            make_grid(8), random_coefficient_arrays(cfg), random_adapted_phases(cfg))
        moments = [np.array(m, dtype=float) for m in rep.perturbed_moments]
        for k in nan_levels:
            moments[k].flat[-1] = np.nan
        records = verify_chain(dataclasses.replace(rep, perturbed_moments=tuple(moments)))
        step = {r.check_id: r for r in records}["pointwise-perturbed-moment"]
        assert math.isnan(step.lhs) and not step.passed

    def test_chain_constant_value(self):
        assert CHAIN_CONSTANT == pytest.approx(2.0 ** (13.0 / 4.0), abs=0)

    @pytest.mark.parametrize("tol", [0.0, 1e-10, 1.0])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4])
    def test_records_follow_the_slack_rule(self, tol, scale):
        # gap is the scale-normalised slack and passed is slack_verdict's, for
        # valid chains and for perturbed reports whose steps fail
        cfg = EnsembleConfig(seed=31, n_points=8, depth=2, max_degree=3)
        field = martingale_from_coefficients(
            make_grid(8), [scale * c for c in random_coefficient_arrays(cfg)])
        rep = stability_report(field, random_adapted_phases(cfg))
        for fake in (rep, dataclasses.replace(rep, dyadic_mean=3.0 * rep.coeff_mean + 1.0,
                                              perturbation_pnorm=5.0 * rep.perturbation_pnorm)):
            records = verify_chain(fake, slack=tol)
            assert len(records) == 5
            for r in records:
                assert r.gap == (r.rhs - r.lhs) / max(1.0, abs(r.lhs), abs(r.rhs)), r
                assert r.passed is bool(slack_verdict(r.lhs, r.rhs, tol)[1]), r
        assert all(r.passed for r in records) == (tol >= 1.0)  # rhs >= 0, so gap >= -1

    def test_degenerate_denominator_flagged_not_raised(self):
        # a vanishing transform norm with a nonzero perturbation norm cannot
        # come from valid inputs; the chain must report it as a failure
        from hardylab import StabilityReport

        zero = np.zeros(())
        fake = StabilityReport(
            sigma_coeffs=(zero,), dyadic_coeffs=(zero,), envelopes=(zero,),
            residual_rms=(zero,), perturbed_moments=(zero,),
            transform_moments=(zero,), envelope_mean=0.0, coeff_mean=0.0,
            dyadic_mean=0.0, perturbation_pnorm=0.5, transform_pnorm=0.0,
            base_pnorm=1.0, ratio=float("inf"),
        )
        steps = {s.check_id: s for s in verify_chain(fake)}
        assert not steps["stability-chain"].passed
        assert steps["stability-chain"].gap == -0.5  # the step's slack; passed needs 0
        fake = dataclasses.replace(fake, perturbation_pnorm=0.0, ratio=0.0)
        steps = {s.check_id: s for s in verify_chain(fake, slack=0.0)}
        assert steps["stability-chain"].passed and steps["stability-chain"].gap == 0.0


REPORT_ARRAYS = ("sigma_coeffs", "dyadic_coeffs", "envelopes", "residual_rms",
                 "perturbed_moments", "transform_moments")
REPORT_NORMS = ("envelope_mean", "coeff_mean", "dyadic_mean", "perturbation_pnorm",
                "transform_pnorm", "base_pnorm")


def assert_reports_agree(fast, ref, coeffs, rtol):
    """Every field of two reports on the same coefficients agrees within rtol
    relative to its natural scale floored at 1, and the chain verdicts match.

    Level-k arrays are compared elementwise against rho + |b|, with rho the
    2-norm of the row of coefficients and b the reference dyadic coefficient,
    squared for the moments: round-off in a nearly cancelling value such as
    residual_rms at u = mu s is of that size, not of the value's own.  The
    means and P-norms are compared against base_pnorm + dyadic_mean."""
    for k, c in enumerate(coeffs):
        shape = np.shape(ref.sigma_coeffs[k])
        size = np.linalg.norm(np.asarray(c), axis=-1).reshape(shape) + np.abs(ref.dyadic_coeffs[k])
        for name in REPORT_ARRAYS:
            x, y = getattr(fast, name)[k], getattr(ref, name)[k]
            assert x.shape == y.shape and x.dtype == y.dtype, (name, k)
            power = 2 if name.endswith("moments") else 1
            assert np.all(np.abs(x - y) <= rtol * np.maximum(1.0, size**power)), (name, k)
    scale = max(1.0, ref.base_pnorm + ref.dyadic_mean)
    for name in REPORT_NORMS:
        x, y = getattr(fast, name), getattr(ref, name)
        assert abs(x - y) <= rtol * scale, (name, x, y)
    assert abs(fast.ratio - ref.ratio) <= rtol * max(1.0, ref.ratio), (fast.ratio, ref.ratio)
    fast_steps, ref_steps = verify_chain(fast), verify_chain(ref)
    assert [(s.check_id, s.passed) for s in fast_steps] == [(s.check_id, s.passed) for s in ref_steps]


@st.composite
def coefficient_cases(draw):
    """(grid, coefficient blocks, phases) with row scales spread over 1e-6..1e4
    and, per level, no, some or all rows zero.  Above ~1e6 round-off alone can
    decide verify_chain steps whose exact sides are equal (its slack floor is
    absolute), so the two paths' verdicts could differ there."""
    n = draw(st.sampled_from([4, 8, 16]))
    depth = draw(st.integers(1, 3))
    degree = draw(st.integers(1, n // 2 - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = []
    for k in range(1, depth + 1):
        rows = n ** (k - 1)
        scale = 10.0 ** rng.uniform(-6.0, 4.0, size=(rows, 1))
        c = scale * (rng.standard_normal((rows, degree)) + 1j * rng.standard_normal((rows, degree)))
        c[rng.uniform(size=rows) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = 0.0
        coeffs.append(c)
    grid = make_grid(n)
    angles = [rng.uniform(0.0, 2.0 * np.pi, size=(n,) * k) for k in range(depth)]
    return grid, coeffs, phases_from_angles(grid, angles)


class TestStabilityFromCoefficients:
    @settings(max_examples=150, deadline=None)
    @given(coefficient_cases())
    def test_matches_grid_path(self, case):
        grid, coeffs, phases = case
        fast = stability_report_from_coefficients(grid, coeffs, phases)
        ref = stability_report(martingale_from_coefficients(grid, coeffs), phases)
        assert_reports_agree(fast, ref, coeffs, 1e-12)

    @pytest.mark.parametrize("angle", [0.0, 0.3, 2.0])
    def test_n4_degree_one_is_sign_proportional(self, angle):
        # on the N=4 grid cos(theta) = s / sqrt(2): u - mu s vanishes exactly
        grid = make_grid(4)
        phases = phases_from_angles(grid, [np.asarray(angle)])
        fast = stability_report_from_coefficients(grid, [[[1.0]]], phases)
        ref = stability_report(martingale_from_coefficients(grid, [[[1.0]]]), phases)
        assert_reports_agree(fast, ref, [[[1.0]]], 1e-13)
        assert float(fast.residual_rms[0]) <= 1e-15

    def test_vanishing_transform_moment_stays_nonnegative(self):
        # N=4, u = mu s and w = i: Im(w(g - b s)) = 0 on the grid, so the
        # transform moment is 0 up to round-off and must not round below it
        grid = make_grid(4)
        phases = phases_from_angles(grid, [np.asarray(math.pi / 2)])
        fast = stability_report_from_coefficients(grid, [[[1.0]]], phases)
        ref = stability_report(martingale_from_coefficients(grid, [[[1.0]]]), phases)
        assert float(fast.transform_moments[0]) >= 0.0
        assert 0.0 <= fast.transform_pnorm <= 1e-15 and ref.transform_pnorm <= 1e-15
        assert [(s.check_id, s.passed) for s in verify_chain(fast)] == \
            [(s.check_id, s.passed) for s in verify_chain(ref)]

    def test_single_mode_n8_oracle(self):
        oracle = oracles.oracle_single_step_stability(8)
        grid = make_grid(8)
        phases = AdaptedPhases(grid, (np.asarray(1.0 + 0j),))
        rep = stability_report_from_coefficients(grid, [np.ones((1, 1))], phases)
        assert complex(rep.sigma_coeffs[0]).real == pytest.approx(oracle["mu"], abs=1e-13)
        assert rep.perturbation_pnorm == pytest.approx(oracle["lhs_p"], abs=1e-13)
        assert rep.transform_pnorm == pytest.approx(oracle["transform_p"], abs=1e-13)
        assert rep.base_pnorm == pytest.approx(oracle["base_p"], abs=1e-13)
        assert rep.ratio == pytest.approx(oracle["ratio"], abs=1e-13)
        ref = stability_report(MartingaleField(grid, 1, np.exp(1j * grid.angles)), phases)
        assert_reports_agree(rep, ref, [np.ones((1, 1))], 1e-13)

    @pytest.mark.parametrize("coeffs, match", [
        ([np.ones((1, 2)), np.ones((4, 2))], "8 rows"),
        ([np.ones((1, 0))], "degree"),
        ([np.ones((1, 4))], "degree"),
        ([np.ones(2)], "1 rows"),
        ([], "depth"),
    ])
    def test_rejects_bad_layout(self, coeffs, match):
        # one validator serves both the fast path and the grid assembly
        grid = make_grid(8)
        phases = random_adapted_phases(EnsembleConfig(seed=1, n_points=8, depth=2))
        with pytest.raises(ValueError, match=match):
            stability_report_from_coefficients(grid, coeffs, phases)
        with pytest.raises(ValueError, match=match):
            martingale_from_coefficients(grid, coeffs)

    def test_rejects_short_phases_grid_mismatch_and_guard(self):
        phases = random_adapted_phases(EnsembleConfig(seed=1, n_points=8, depth=2))
        deep = [np.ones((8 ** k, 1)) for k in range(3)]
        with pytest.raises(ValueError, match="phases depth"):
            stability_report_from_coefficients(make_grid(8), deep, phases)
        with pytest.raises(ValueError, match="grid mismatch"):
            stability_report_from_coefficients(make_grid(4), [np.ones((1, 1))], phases)
        with pytest.raises(ValueError, match="memory guard"):
            stability_report_from_coefficients(make_grid(64), [np.ones((1, 1))] * 5, phases)


@st.composite
def batch_cases(draw):
    """(grid, per-sample coefficient blocks, per-sample phases, row kinds) for
    a batch of 1..7 samples with a degree per level.  A row is "plain", "zero"
    (all coefficients zero, so a vanishing denominator and ratio 0), "nan" (a
    NaN perturbed moment is written into its report) or "degenerate" (its
    transform P-norm is set to 0, so the final step must fail)."""
    n = draw(st.sampled_from([4, 8, 16]))
    depth = draw(st.integers(1, 3))
    degrees = draw(st.lists(st.integers(1, n // 2 - 1), min_size=depth, max_size=depth))
    kinds = draw(st.lists(st.sampled_from(["plain", "zero", "nan", "degenerate"]),
                          min_size=1, max_size=7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid, coeffs, phases = make_grid(n), [], []
    for kind in kinds:
        blocks = []
        for k, d in enumerate(degrees, start=1):
            scale = 10.0 ** rng.uniform(-6.0, 4.0, size=(n ** (k - 1), 1))
            c = scale * (rng.standard_normal((n ** (k - 1), d))
                         + 1j * rng.standard_normal((n ** (k - 1), d)))
            blocks.append(0.0 * c if kind == "zero" else c)
        coeffs.append(blocks)
        angles = [rng.uniform(0.0, 2.0 * np.pi, size=(n,) * k) for k in range(depth)]
        phases.append(phases_from_angles(grid, angles))
    return grid, coeffs, phases, kinds


def _spoil(report, row, kind):
    """The report with a NaN perturbed moment or a zero transform P-norm in
    sample `row`, as `kind` asks; a one-sample report is row 0 of a batch of one."""
    count = np.size(report.perturbation_pnorm)
    if kind == "nan":
        moments = [np.array(m, dtype=float) for m in report.perturbed_moments]
        moments[-1].reshape(count, -1)[row, -1] = np.nan
        return dataclasses.replace(report, perturbed_moments=tuple(moments))
    if kind == "degenerate":
        transform = np.array(report.transform_pnorm, dtype=float)
        transform.reshape(count)[row] = 0.0
        return dataclasses.replace(report, transform_pnorm=transform[()])
    return report


class TestBatchedChain:
    @settings(max_examples=150, deadline=None)
    @given(batch_cases())
    def test_matches_per_sample_loop(self, case):
        # the batch report and its (5, M) chain sides equal a loop over the
        # one-sample API, row by row, at 1e-12 relative; NaN equals NaN
        grid, coeffs, phases, kinds = case
        depth = len(coeffs[0])
        batch = _stability_batch(grid, [np.stack([c[k] for c in coeffs]) for k in range(depth)],
                                 [np.stack([p.terms[k] for p in phases]) for k in range(depth)])
        per_row = [stability_report_from_coefficients(grid, c, p) for c, p in zip(coeffs, phases)]
        for j, kind in enumerate(kinds):
            batch = _spoil(batch, j, kind)
            per_row[j] = _spoil(per_row[j], 0, kind)
        sides = _chain_sides(batch, 1e-10)

        def same(x, y):
            np.testing.assert_allclose(x, y, rtol=1e-12, atol=0.0, equal_nan=True)

        for j, rep in enumerate(per_row):
            for name in REPORT_ARRAYS:
                for x, y in zip(getattr(batch, name), getattr(rep, name)):
                    same(x[j], y)
            for name in REPORT_NORMS + ("ratio",):
                same(getattr(batch, name)[j], getattr(rep, name))
            records = verify_chain(rep)
            for s, record in enumerate(records):
                same([sides[0][s, j], sides[1][s, j], sides[2][s, j]],
                     [record.lhs, record.rhs, record.gap])
                assert bool(sides[3][s, j]) is record.passed, (kinds[j], record)
            verdicts = [r.passed for r in records]
            assert verdicts[1] is (kinds[j] != "nan")
            assert verdicts[4] is (kinds[j] != "degenerate")
            if kinds[j] == "zero":
                assert rep.ratio == 0.0 and all(verdicts)
