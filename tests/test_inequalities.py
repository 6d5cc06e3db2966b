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

from hardylab.ensembles import ARITH_STRATA, _unit
from hardylab.harness import HarnessConfig, UsageError
from hardylab.inequalities import (
    _chain_sides,
    _coordinate_rows,
    _envelope_parts,
    _modulus,
    _perturbation_rows,
    _pow2,
    _product,
    _residual_sq,
    _scalar_envelopes,
    _sign_modes,
    _sincos_form,
    _split_rows,
    _sincos_rows,
    _stability_batch,
    residual_verdict,
)
from hardylab.martingale import _project_trailing_cells

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


SIMD_TAILS = [(0, None), (1, None), (3, -2)]  # every SIMD tail


def envelope_cases(count, seed):
    """count (mu, b) pairs: standard complex normals at every pair of the
    ARITH_STRATA magnitudes, mu = b, mu = b = 0, subnormal and overflowing
    moduli, as two complex arrays."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2, count)) + 1j * rng.standard_normal((2, count))
    scales = np.array(ARITH_STRATA + (1e-310, 1e155, 1e160, 1e300))
    mu, b = z * scales[rng.integers(len(scales), size=(2, count))]
    b[::7] = mu[::7]
    mu[::11] = b[::11] = 0.0
    return mu, b


class TestRowEnvelope:
    def test_numpy_complex_abs_is_elementwise(self):
        # the row envelope takes |mu|, |b| and |mu - b| of a whole block: this
        # is the numpy property that keeps each row's bits those of its own call
        mu, b = envelope_cases(100_003, 1)
        z = np.concatenate([mu, b, mu - b])
        alone = np.array([np.abs(x) for x in z])
        for start, stop in SIMD_TAILS:
            assert np.array_equal(np.abs(z[start:stop]), alone[start:stop], equal_nan=True)

    def test_rows_equal_the_scalar_call(self):
        # the envelope of _perturbation_rows: numpy's moduli of the whole block,
        # |mu - b| squared as pow (inf where pow overflows)
        mu, b = envelope_cases(100_000, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            rows = _scalar_envelopes(mu, b)
            alone = [arith_envelope(complex(m), complex(s)) for m, s in zip(mu, b)]
        assert np.isinf(alone).any() and (np.array(alone) == 0.0).any()
        assert np.array_equal(rows, alone, equal_nan=True)

    def test_arrays_square_as_products(self):
        mu, b = envelope_cases(10_000, 3)
        with np.errstate(over="ignore", invalid="ignore"):
            gap = np.abs(mu - b)
            assert np.array_equal(_envelope_parts(mu, b)[1], gap * gap, equal_nan=True)


class TestPythonBitsOnArrays:
    """The single-coordinate sides take their closed forms over whole columns
    with a Python number's bits on every element: numpy's float_power and hypot
    call libm's pow and hypot per element, as Python's ** and complex abs do,
    and a complex product written part by part rounds as Python's."""

    def test_float_power_squares_as_python(self):
        mu, b = envelope_cases(100_003, 4)
        z = np.concatenate([mu, b, mu - b])
        x = np.concatenate([z.real, z.imag, np.abs(z)])
        alone, raised = [], []
        for v in x.tolist():
            try:
                alone.append(v ** 2)
            except OverflowError:
                alone.append(math.inf)
                raised.append(True)
            else:
                raised.append(False)
        alone, raised = np.array(alone), np.array(raised)
        assert raised.any() and (alone[~raised] > 0.0).any() and (alone == 0.0).any()
        with np.errstate(over="ignore"):
            for start, stop in SIMD_TAILS:
                assert np.array_equal(_pow2(x[start:stop]), alone[start:stop])

    def test_hypot_is_the_python_modulus(self):
        mu, b = envelope_cases(100_003, 5)
        z = np.concatenate([mu, b, mu - b])
        alone = np.array([abs(c) for c in z.tolist()])
        for start, stop in SIMD_TAILS:
            assert np.array_equal(_modulus(z[start:stop]), alone[start:stop])

    def test_parts_multiply_as_python(self):
        mu, b = envelope_cases(100_003, 6)
        z = np.concatenate([mu, b, mu - b])
        w = _unit(np.random.default_rng(6).uniform(0.0, 2.0 * np.pi, z.size))
        alone = np.array([v * c for v, c in zip(w.tolist(), z.tolist())])
        with np.errstate(over="ignore", invalid="ignore"):
            for start, stop in SIMD_TAILS:
                re, im = _product(w[start:stop], z[start:stop])
                assert np.array_equal(re, alone.real[start:stop], equal_nan=True)
                assert np.array_equal(im, alone.imag[start:stop], equal_nan=True)


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


class TestOverflow:
    """Squares past float64's range give inf in every single-coordinate side, as
    in the array paths; a Python float's ** 2 would raise OverflowError."""

    def h(self, scale):
        h = random_hardy_function(EnsembleConfig(seed=3, n_points=16, max_degree=7))
        return GridFunction(h.grid, scale * h.values)

    @pytest.mark.parametrize("scale", [1e155, 1e160])
    def test_sides_overflow_to_inf(self, scale):
        h, b, w = self.h(scale), 0.3 - 0.8j, 1j
        with pytest.warns(RuntimeWarning):
            rep = perturbation_bounds(h, b, w)
        with pytest.warns(RuntimeWarning):
            split = decomposition_sides(h, b)
        with pytest.warns(RuntimeWarning):
            identity = sincos_identity_sides(h, b, w)
        assert split == (math.inf, math.inf)
        assert (identity.lhs, identity.rhs) == (math.inf, math.inf)
        assert (rep.shift_lhs, rep.rotation_lhs, rep.rotation_rhs, rep.split_rhs) == (math.inf,) * 4
        # 8 (a^2 - |mu|^2) + tail is inf - inf, as the chain's pointwise bound is on arrays
        assert math.isnan(rep.shift_rhs)

    def test_finite_rows_keep_their_bits_beside_an_overflowing_one(self):
        grid, scales = make_grid(16), (1.0, 1e160, 1e150)
        rows = np.stack([self.h(scale).values for scale in scales])
        b, w = np.full(3, 0.3 - 0.8j), np.full(3, 1j)
        with np.errstate(over="ignore", invalid="ignore"):
            block = [dataclasses.astuple(_perturbation_rows(grid, rows, b, w)),
                     dataclasses.astuple(_sincos_rows(grid, rows, b, w)),
                     _split_rows(grid, rows, b)]
        assert all(any(np.isinf(x[1]) for x in sides) for sides in block)  # row 1 overflows
        for i in (0, 2):
            h = self.h(scales[i])
            alone = [dataclasses.astuple(perturbation_bounds(h, b[i], w[i])),
                     dataclasses.astuple(sincos_identity_sides(h, b[i], w[i])),
                     decomposition_sides(h, b[i])]
            assert [[x[i] for x in sides] for sides in block] == [list(x) for x in alone]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([4, 8, 16, 64]), st.integers(1, 256), st.floats(-150.0, 150.0),
       st.integers(0, 2**32 - 1))
def test_sides_equal_the_python_scalar_oracle(n, count, exponent, seed):
    # the closed forms over whole columns against the Python-number forms of
    # each row alone, bit for bit; rows of zeros (mu = 0), b = mu and b = 0 among them
    grid, rng, degree = make_grid(n), np.random.default_rng(seed), n // 2 - 1
    scale = 10.0 ** np.clip(exponent + rng.uniform(-5.0, 5.0, count), -150.0, 150.0)
    c = rng.standard_normal((count, degree)) + 1j * rng.standard_normal((count, degree))
    values = (c * scale[:, np.newaxis]) @ grid.analytic_modes(degree)
    values[::7] = 0.0
    b = (rng.standard_normal(count) + 1j * rng.standard_normal(count)) * scale
    b[::5] = _coordinate_rows(grid, values, b)[1][::5]
    b[::6] = 0.0
    w = _unit(rng.uniform(0.0, 2.0 * np.pi, count))
    _, mu, tail, _, _ = _coordinate_rows(grid, values, b, w)
    expected = [(oracles.oracle_sincos_lhs(m, s, v, t), *oracles.oracle_perturbation_forms(m, s, t))
                for m, s, v, t in zip(*(x.tolist() for x in (mu, b, w, tail)))]
    rep = _perturbation_rows(grid, values, b, w)
    got = [_sincos_rows(grid, values, b, w).lhs, _split_rows(grid, values, b)[1],
           rep.shift_rhs, rep.rotation_lhs]
    assert np.array_equal(bits(np.stack(got, axis=1)), bits(np.array(expected)))
    assert np.array_equal(bits(rep.split_rhs), bits(got[1]))


@pytest.mark.parametrize("b", [math.inf, -math.inf, math.nan, complex(0.0, math.inf)])
@pytest.mark.parametrize("side", [
    lambda h, b: sincos_identity_sides(h, b, 1.0),
    lambda h, b: decomposition_sides(h, b),
    lambda h, b: perturbation_bounds(h, b, 1.0),
], ids=["sincos", "decomposition", "perturbation"])
def test_side_functions_reject_non_finite_shift(side, b):
    grid = make_grid(8)
    with pytest.raises(ValueError, match="shift b must be finite"):
        side(GridFunction(grid, np.exp(1j * grid.angles)), b)


class TestStabilityReport:
    @pytest.mark.parametrize("n, depth, degree", [(4, 2, 1), (8, 2, 3), (16, 2, 5), (8, 3, 2)])
    @pytest.mark.parametrize("seed", range(3))
    def test_levels_equal_the_side_functions_on_every_slice(self, n, depth, degree, seed):
        # the grid chain and the side functions share the slice integrals, so
        # each level-k slice's moments are the side functions' values, bit for bit
        cfg = EnsembleConfig(seed=seed, n_points=n, depth=depth, max_degree=degree)
        field, phases = random_hardy_martingale(cfg), random_adapted_phases(cfg)
        rep = stability_report(field, phases)
        for k, diff in enumerate(field.diffs):
            b, w = rep.dyadic_coeffs[k].reshape(-1), phases.terms[k].reshape(-1)
            for j, row in enumerate(diff.reshape(-1, n)):
                h = GridFunction(field.grid, row)
                assert rep.transform_moments[k].reshape(-1)[j] == \
                    sincos_identity_sides(h, b[j], w[j]).rhs
                assert rep.perturbed_moments[k].reshape(-1)[j] == decomposition_sides(h, b[j])[0]

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


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, True, 10**400],
                         ids=["inf", "nan", "-1", "True", "10**400"])
def test_every_verdict_takes_a_finite_nonnegative_tolerance(tol):
    # an infinite tolerance passed 5 <= 1 and every violated chain step, a NaN
    # failed every check; each verdict now refuses them as the config does
    grid = make_grid(4)
    rep = stability_report(MartingaleField(grid, 1, np.zeros(4)),
                           AdaptedPhases(grid, (np.asarray(1.0 + 0j),)))
    for verdict, name in [(lambda: slack_verdict(5.0, 1.0, tol), "tol"),
                          (lambda: residual_verdict(5.0, 1.0, 1.0, tol), "tol"),
                          (lambda: verify_chain(rep, slack=tol), "slack")]:
        with pytest.raises(ValueError, match=f"{name} must be a finite nonnegative real number"):
            verdict()
    with pytest.raises(UsageError, match="tol must be a finite nonnegative real number"):
        HarnessConfig(tol=tol)
    assert not slack_verdict(5.0, 1.0, 0)[1] and not residual_verdict(5.0, 1.0, 1.0, 1)[1]


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
        """The coefficient path takes the transform moment from the sine-cosine
        identity in closed form, not from the grid; this comparison with the
        grid path is what guards that closed form."""
        grid, coeffs, phases = case
        fast = stability_report_from_coefficients(grid, coeffs, phases)
        ref = stability_report(martingale_from_coefficients(grid, coeffs), phases)
        assert_reports_agree(fast, ref, coeffs, 1e-12)

    @pytest.mark.parametrize("angle", [0.0, 0.3, 2.0])
    def test_n4_degree_one_is_sign_proportional(self, angle):
        # on the N=4 grid cos(theta) = s / sqrt(2), and at top degree d = N/2 - 1
        # (tau = 0) the row c = 2 sigma gives u = s: either way u - mu s vanishes.
        # sigma and tau carry O(N eps) round-off, so r does too (the grid path
        # gives 1.7e-15 at N = 16 for |c| = sqrt(2))
        for n, row in [(4, [1.0]), (8, 2.0 * _sign_modes(make_grid(8), 3)[0]),
                       (16, 2.0 * _sign_modes(make_grid(16), 7)[0])]:
            grid, coeffs = make_grid(n), [np.asarray([row], dtype=complex)]
            phases = phases_from_angles(grid, [np.asarray(angle)])
            fast = stability_report_from_coefficients(grid, coeffs, phases)
            ref = stability_report(martingale_from_coefficients(grid, coeffs), phases)
            assert_reports_agree(fast, ref, coeffs, 1e-13)
            bound = n * np.finfo(float).eps * np.linalg.norm(row)
            assert float(fast.residual_rms[0]) <= bound, n
            assert float(fast.transform_moments[0]) >= 0.0, n

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

    @pytest.mark.parametrize("n, depth, degree, seed",
                             [(4, 2, 1, 0), (8, 3, 3, 1), (16, 2, 7, 2)])
    def test_ratio_is_scale_free_over_280_decades(self, n, depth, degree, seed):
        """The ratio is homogeneous of degree 0 in the coefficients, and both paths
        keep it to 1e-12 relative at scales 10^k, k in -140..140.  Further out the
        squared moments underflow or overflow (ROADMAP item 5)."""
        cfg = EnsembleConfig(seed=seed, n_points=n, depth=depth, max_degree=degree)
        grid, coeffs = make_grid(n), random_coefficient_arrays(cfg)
        phases = random_adapted_phases(cfg)
        unit = stability_report_from_coefficients(grid, coeffs, phases).ratio
        for k in range(-140, 141):
            scaled = [10.0**k * c for c in coeffs]
            field = martingale_from_coefficients(grid, scaled)
            for ratio in (stability_report_from_coefficients(grid, scaled, phases).ratio,
                          stability_report(field, phases).ratio):
                assert abs(ratio - unit) <= 1e-12 * unit, (k, ratio, unit)

    def test_levels_share_no_memory(self):
        # level 1's dyadic coefficient is the projection of a 0-d mu: a new array
        cfg = EnsembleConfig(seed=3, n_points=8, depth=2, max_degree=3)
        grid, coeffs = make_grid(8), random_coefficient_arrays(cfg)
        phases = random_adapted_phases(cfg)
        for rep in (stability_report_from_coefficients(grid, coeffs, phases),
                    stability_report(martingale_from_coefficients(grid, coeffs), phases)):
            for b, mu in zip(rep.dyadic_coeffs, rep.sigma_coeffs):
                assert not np.shares_memory(b, mu)

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

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, complex(0.0, math.inf), math.nan])
    @pytest.mark.parametrize("level", [1, 2])
    def test_rejects_non_finite_coefficients(self, bad, level):
        # a ValueError, as for a martingale's values: not a RuntimeWarning from
        # a matmul, nor a report whose every step fails
        grid = make_grid(8)
        phases = random_adapted_phases(EnsembleConfig(seed=1, n_points=8, depth=2))
        coeffs = [np.ones((1, 2), dtype=complex), np.ones((8, 2), dtype=complex)]
        coeffs[level - 1][-1, 1] = bad
        with pytest.raises(ValueError, match=f"level {level} coefficients must be finite"):
            stability_report_from_coefficients(grid, coeffs, phases)
        with pytest.raises(ValueError, match=f"level {level} coefficients must be finite"):
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


def assert_rows_equal(batch, per_row):
    """Row j of a batch report equals the one-sample report per_row[j] in
    every field, bit for bit; NaN equals NaN."""
    for j, rep in enumerate(per_row):
        for name in REPORT_ARRAYS:
            for x, y in zip(getattr(batch, name), getattr(rep, name)):
                np.testing.assert_array_equal(x[j], y, err_msg=f"{name} row {j}")
        for name in REPORT_NORMS + ("ratio",):
            np.testing.assert_array_equal(getattr(batch, name)[j], getattr(rep, name),
                                          err_msg=f"{name} row {j}")


class TestBatchedChain:
    @settings(max_examples=150, deadline=None)
    @given(batch_cases())
    def test_matches_per_sample_loop(self, case):
        # the batch report and its (5, M) chain sides equal a loop over the
        # one-sample API, row by row, bit for bit; NaN equals NaN
        grid, coeffs, phases, kinds = case
        depth = len(coeffs[0])
        batch = _stability_batch(grid, [np.stack([c[k] for c in coeffs]) for k in range(depth)],
                                 [np.stack([p.terms[k] for p in phases]) for k in range(depth)])
        per_row = [stability_report_from_coefficients(grid, c, p) for c, p in zip(coeffs, phases)]
        for j, kind in enumerate(kinds):
            batch = _spoil(batch, j, kind)
            per_row[j] = _spoil(per_row[j], 0, kind)
        assert_rows_equal(batch, per_row)
        sides = _chain_sides(batch, 1e-10)
        for j, rep in enumerate(per_row):
            records = verify_chain(rep)
            for s, record in enumerate(records):
                np.testing.assert_array_equal([sides[0][s, j], sides[1][s, j], sides[2][s, j]],
                                              [record.lhs, record.rhs, record.gap])
                assert bool(sides[3][s, j]) is record.passed, (kinds[j], record)
            verdicts = [r.passed for r in records]
            assert verdicts[1] is (kinds[j] != "nan")
            assert verdicts[4] is (kinds[j] != "degenerate")
            if kinds[j] == "zero":
                assert rep.ratio == 0.0 and all(verdicts)

    @pytest.mark.parametrize("n", [8, 16])
    def test_rows_round_as_lone_samples(self, n):
        # level 1 holds one coefficient row per sample; multiplied by sigma as
        # one (M, d) block its rows would round differently from M = 1
        grid, rng, count = make_grid(n), np.random.default_rng(20), 5
        coeffs, phases = [], []
        for _ in range(count):
            coeffs.append([rng.standard_normal((n ** k, n // 2 - 1))
                           + 1j * rng.standard_normal((n ** k, n // 2 - 1)) for k in range(2)])
            angles = [rng.uniform(0.0, 2.0 * np.pi, size=(n,) * k) for k in range(2)]
            phases.append(phases_from_angles(grid, angles))
        batch = _stability_batch(grid, [np.stack(level) for level in zip(*coeffs)],
                                 [np.stack(level) for level in zip(*(p.terms for p in phases))])
        assert_rows_equal(batch, [stability_report_from_coefficients(grid, c, p)
                                  for c, p in zip(coeffs, phases)])


def bits(x):
    """x as uint64 words, so equal values compare bit for bit (signed zeros, NaNs)."""
    return np.ascontiguousarray(x, dtype=float if np.isrealobj(x) else complex).view(np.uint64)


def _split_form(mu, b, r_sq):
    """|mu - b|^2 + r^2, int |u - b s|^2 by the orthogonal split."""
    return abs(mu - b) ** 2 + r_sq


def closed_form_report(grid, blocks, terms) -> dict:
    """_stability_batch's fields with every closed form taken as one expression,
    each modulus and square where the form reads it, and each root mean summed
    over grid^(n-1) level by level: the reference for the level loop, which takes
    each of them once.  The projection b is the package's."""
    n, count = grid.n_points, len(blocks[0])
    per_level, base = [], []
    for k, (w, c) in enumerate(zip(terms, blocks), start=1):
        sigma, tau = _sign_modes(grid, c.shape[-1])
        mu = (c.reshape(count, -1, sigma.size) @ sigma).reshape((count,) + (n,) * (k - 1))
        c = c.reshape(mu.shape + sigma.shape)
        b = _project_trailing_cells(grid, mu, k - 1)
        r_sq = 0.5 * np.sum(np.abs(c - 2.0 * mu[..., np.newaxis] * sigma) ** 2, axis=-1)
        r_sq += np.abs(mu) ** 2 * tau
        per_level.append((mu, b, arith_envelope(mu, b), np.sqrt(r_sq), _split_form(mu, b, r_sq),
                          _sincos_form(mu, b, w, r_sq)))
        base.append(2.0 * (r_sq + np.abs(mu) ** 2))
    mu, b, a, r, m, tq = zip(*per_level)

    def root_mean(moments):
        total = np.zeros((count,) + (n,) * (len(moments) - 1))
        for k, q in enumerate(moments, start=1):
            total += q.reshape(q.shape + (1,) * (len(moments) - k))
        return np.mean(np.sqrt(total).reshape(count, -1), axis=-1)

    return dict(sigma_coeffs=mu, dyadic_coeffs=b, envelopes=a, residual_rms=r,
                perturbed_moments=m, transform_moments=tq,
                envelope_mean=root_mean([x**2 + y**2 for x, y in zip(a, r)]),
                coeff_mean=root_mean([np.abs(x) ** 2 for x in mu]),
                dyadic_mean=root_mean([np.abs(x) ** 2 for x in b]),
                perturbation_pnorm=root_mean(m), transform_pnorm=root_mean(tq),
                base_pnorm=root_mean(base))


class TestEachNodeQuantityOnce:
    @pytest.mark.parametrize("n, depth, degree, count", [
        (4, 4, 1, 6), (8, 1, 3, 5), (8, 3, 3, 9), (16, 2, 7, 4), (16, 3, 5, 2), (64, 2, 31, 3)])
    def test_batch_fields_equal_the_closed_forms(self, n, depth, degree, count):
        # every field and the pointwise step's sides, as uint64, against the forms
        # taken one expression at a time; sample 0 is all zeros (mu = b = 0)
        grid, rng = make_grid(n), np.random.default_rng(100 * n + 10 * depth + degree)
        blocks = [(rng.standard_normal((count, n ** k, degree))
                   + 1j * rng.standard_normal((count, n ** k, degree)))
                  * 10.0 ** rng.uniform(-3.0, 3.0, size=(count, n ** k, 1)) for k in range(depth)]
        for c in blocks:
            c[0] = 0.0
        terms = [_unit(rng.uniform(0.0, 2.0 * np.pi, size=(count,) + (n,) * k))
                 for k in range(depth)]
        batch = _stability_batch(grid, blocks, terms)
        expected = closed_form_report(grid, blocks, terms)
        for name, value in expected.items():
            got = getattr(batch, name)
            if isinstance(value, tuple):
                for k, (x, y) in enumerate(zip(got, value), start=1):
                    assert np.array_equal(bits(x), bits(y)), (name, k)
            else:
                assert np.array_equal(bits(got), bits(value)), name
        flat = [np.concatenate([np.reshape(x, (count, -1)) for x in expected[name]], axis=1)
                for name in ("perturbed_moments", "envelopes", "residual_rms", "sigma_coeffs")]
        m, a, r, mu = flat
        rhs = 8.0 * (a**2 + r**2 - np.abs(mu) ** 2)
        worst = (np.arange(count), np.argmax(m - rhs, axis=1))
        lhs_sides, rhs_sides = _chain_sides(batch, 1e-10)[:2]
        assert np.array_equal(bits(lhs_sides[1]), bits(m[worst]))
        assert np.array_equal(bits(rhs_sides[1]), bits(rhs[worst]))

    @pytest.mark.parametrize("degree, rows", [(1, 2**16), (3, 2**18), (7, 2**16), (31, 2**14)])
    def test_residual_columns_equal_the_broadcast_product(self, degree, rows):
        # about 10^6 coefficients in all; zeros of both signs, subnormal and
        # scaled entries, and rows of zeros among them
        sigma = _sign_modes(make_grid(64), degree)[0]
        rng = np.random.default_rng(degree)
        c = rng.standard_normal((1, rows, degree)) + 1j * rng.standard_normal((1, rows, degree))
        c *= 10.0 ** rng.integers(-150, 150, size=c.shape)
        special = np.array([0.0, -0.0, 5e-324, -2.0**-1070, 1e-310, 1.0, -3.5])
        c.real.flat[:special.size ** 2] = np.repeat(special, special.size)
        c.imag.flat[:special.size ** 2] = np.tile(special, special.size)
        c[0, -3:] = 0.0
        mu = c @ sigma
        old = 0.5 * np.sum(np.abs(c - 2.0 * mu[..., np.newaxis] * sigma) ** 2, axis=-1)
        assert np.array_equal(bits(_residual_sq(c, mu, sigma)), bits(old))

    @pytest.mark.parametrize("n", [8, 16, 64, 128, 512])
    def test_residual_sums_in_numpy_order_at_every_degree(self, n):
        # the column-major squares are added in np.sum's pairwise order over a last
        # axis: a left fold below 8 terms, 8 accumulators and their tree from 8 on,
        # halves from 129 on; rows scaled from 1e-150 to 1e150, each row's terms
        # within a few decades
        grid, rng = make_grid(n), np.random.default_rng(n)
        for degree in range(1, n // 2):
            sigma = _sign_modes(grid, degree)[0]
            c = rng.standard_normal((2, 67, degree)) + 1j * rng.standard_normal((2, 67, degree))
            c *= 10.0 ** (rng.uniform(-150.0, 150.0, size=(2, 67, 1))
                          + rng.uniform(-2.0, 2.0, size=c.shape))
            mu = c @ sigma
            moduli = np.abs(c - 2.0 * mu[..., np.newaxis] * sigma)
            expected = 0.5 * np.sum(moduli**2, axis=-1)
            assert np.array_equal(bits(_residual_sq(c, mu, sigma)), bits(expected)), degree
