import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hardylab import (
    AdaptedPhases,
    EnsembleConfig,
    GridFunction,
    MartingaleField,
    arith_sample_batch,
    check_transform_isometry,
    cond_square_profile,
    cosine_part,
    dyadic_project,
    field_from_differences,
    is_hardy,
    is_hardy_martingale,
    level,
    make_grid,
    martingale_from_coefficients,
    previsible_norm,
    project_dyadic_cells,
    random_adapted_phases,
    random_coefficient_arrays,
    random_hardy_martingale,
    sine_part,
    transform,
)
from hardylab import martingale
from hardylab.inequalities import _sign_modes, residual_verdict
from hardylab.martingale import _isometry_norms, _project_trailing_cells, _root_mean

import oracles


def single_mode_field(n, depth=1):
    """Terminal zeta_1 on grid^depth."""
    grid = make_grid(n)
    z = np.exp(1j * grid.angles)
    terminal = np.broadcast_to(z.reshape((n,) + (1,) * (depth - 1)), (n,) * depth)
    return MartingaleField(grid, depth, np.array(terminal))


def product_mode_field(n):
    """Terminal zeta_1 * zeta_2."""
    grid = make_grid(n)
    z = np.exp(1j * grid.angles)
    return MartingaleField(grid, 2, z[:, None] * z[None, :])


def constant_phases(grid, depth, value=1.0 + 0j):
    return AdaptedPhases(
        grid, tuple(np.full((grid.n_points,) * k, value) for k in range(depth))
    )


class TestFieldConstruction:
    def test_shape_validation(self):
        grid = make_grid(4)
        with pytest.raises(ValueError):
            MartingaleField(grid, 2, np.zeros((4, 8)))

    def test_depth_validation(self):
        grid = make_grid(4)
        with pytest.raises(ValueError):
            MartingaleField(grid, 0, np.zeros(()))

    def test_phases_validation(self):
        grid = make_grid(4)
        with pytest.raises(ValueError, match="at least one multiplier term is required"):
            AdaptedPhases(grid, ())
        with pytest.raises(ValueError, match=re.escape("term 1 must have shape (4,); got (5,)")):
            AdaptedPhases(grid, (np.ones(()), np.ones(5)))

    def test_a_terminal_near_the_largest_double_is_split(self):
        # averaged unscaled, the terminal 1e308 (s(theta_2) + i s(theta_1))
        # overflowed into inf and NaN levels, and the field was refused
        grid = make_grid(8)
        s = grid.sign_values
        terminal = 1e308 * (s[np.newaxis, :] + 1j * s[:, np.newaxis])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            F = MartingaleField(grid, 2, terminal)
            assert np.array_equal(F.terminal, terminal)
        for bad in (np.inf, np.nan):
            refused = terminal.copy()
            refused[3, 5] = bad
            with np.errstate(all="ignore"), pytest.raises(ValueError, match="must be finite"):
                MartingaleField(grid, 2, refused)

    @pytest.mark.parametrize("n, depth", [(4, 1), (8, 2), (8, 3), (16, 2)])
    def test_the_scaled_split_keeps_every_bit_in_the_normal_range(self, n, depth):
        # the terminal is averaged at a power of two, which scales exactly: the
        # base and rows are the unscaled averages' bit for bit, at every magnitude
        grid = make_grid(n)
        rng = np.random.default_rng(n + depth)
        for k in range(-300, 301, 24):
            shape = (n,) * depth
            terminal = 10.0**k * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            levels = [terminal]
            for _ in range(depth):
                levels.insert(0, levels[0].mean(axis=-1))
            F = MartingaleField(grid, depth, terminal)
            assert np.array_equal(np.array([F.base]).view(np.uint64), levels[0].reshape(1).view(np.uint64))
            for d, c, f in zip(F.diffs, levels, levels[1:]):
                expected = f - c[..., np.newaxis]
                assert np.array_equal(d.view(np.uint64), expected.view(np.uint64))

    def test_memory_guard(self):
        grid = make_grid(128)
        with pytest.raises(ValueError, match="memory guard"):
            MartingaleField(grid, 4, np.zeros((128,) * 4))
        # 8192^1 entries fit, but the gate would read an 8192 x 8192 table
        grid = make_grid(8192)
        with pytest.raises(ValueError, match="memory guard: the 8192x8192 character table"):
            MartingaleField(grid, 1, np.zeros(8192))
        assert "characters" not in grid.__dict__


class TestLevels:
    def test_product_mode_level1_vanishes(self):
        F = product_mode_field(4)
        assert np.max(np.abs(level(F, 1))) < 1e-14

    def test_top_level_is_terminal(self):
        F = product_mode_field(4)
        np.testing.assert_array_equal(level(F, 2), F.terminal)

    def test_constant_field(self):
        grid = make_grid(8)
        F = MartingaleField(grid, 2, np.full((8, 8), 3.5 - 1j))
        for k in range(3):
            np.testing.assert_allclose(level(F, k), 3.5 - 1j, atol=0)

    def test_out_of_range(self):
        F = product_mode_field(4)
        with pytest.raises(ValueError):
            level(F, 3)

    def test_differences_telescope(self):
        grid = make_grid(8)
        rng = np.random.default_rng(1)
        F = MartingaleField(grid, 3, rng.standard_normal((8, 8, 8)) * (1 + 1j))
        total = np.zeros((8, 8, 8), dtype=complex) + level(F, 0)
        for k, d in enumerate(F.diffs, start=1):
            total += d.reshape(d.shape + (1,) * (3 - k))
        np.testing.assert_allclose(total, F.terminal, atol=1e-13)

    def test_product_mode_differences(self):
        F = product_mode_field(4)
        d1, d2 = F.diffs
        assert np.max(np.abs(d1)) < 1e-14
        np.testing.assert_allclose(d2, F.terminal, atol=1e-14)

    def test_conditional_mean_zero(self):
        grid = make_grid(8)
        rng = np.random.default_rng(2)
        F = MartingaleField(grid, 3, rng.standard_normal((8, 8, 8)) * (1 - 2j))
        for d in F.diffs:
            assert np.max(np.abs(d.mean(axis=-1))) < 1e-13


class TestSquareFunction:
    def test_single_mode_pnorm(self):
        assert previsible_norm(single_mode_field(4)) == pytest.approx(1.0, abs=1e-14)

    def test_product_mode_pnorm(self):
        assert previsible_norm(product_mode_field(4)) == pytest.approx(1.0, abs=1e-14)

    def test_cosine_pnorm(self):
        grid = make_grid(4)
        F = MartingaleField(grid, 1, np.cos(grid.angles).astype(complex))
        prof = cond_square_profile(F)
        assert prof.level_moments[0] == pytest.approx(0.5, abs=1e-15)
        assert previsible_norm(F) == pytest.approx(1 / np.sqrt(2), abs=1e-14)

    def test_profile_invariants(self):
        cfg = EnsembleConfig(seed=9, n_points=8, depth=3, max_degree=3)
        F = random_hardy_martingale(cfg)
        prof = cond_square_profile(F)
        recomputed = np.zeros((8, 8))
        for k, q in enumerate(prof.level_moments, start=1):
            assert np.min(q) >= 0.0
            recomputed += q.reshape(q.shape + (1,) * (3 - k))
        assert previsible_norm(F) == pytest.approx(np.mean(np.sqrt(recomputed)), rel=1e-12)

    def test_zero_iff_constant(self):
        grid = make_grid(8)
        F = MartingaleField(grid, 2, np.full((8, 8), 2.0 + 1j))
        assert previsible_norm(F) == 0.0
        cfg = EnsembleConfig(seed=10, n_points=8, depth=2, max_degree=2)
        assert previsible_norm(random_hardy_martingale(cfg)) > 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-10, 10), st.floats(-10, 10))
    def test_scaling_homogeneous(self, re, im):
        scale = complex(re, im)
        cfg = EnsembleConfig(seed=11, n_points=8, depth=2, max_degree=2)
        F = random_hardy_martingale(cfg)
        scaled = MartingaleField(F.grid, F.depth, scale * F.terminal)
        assert previsible_norm(scaled) == pytest.approx(
            abs(scale) * previsible_norm(F), rel=1e-10, abs=1e-12
        )

    @pytest.mark.parametrize("scale", [2.2250738585e-313j, 5e-324, 1e-310 - 3e-311j])
    def test_subnormal_values_split(self, scale):
        # subnormals round by whole units of 2^-1074, which 1e-12*scale cannot absorb
        cfg = EnsembleConfig(seed=11, n_points=8, depth=2, max_degree=2)
        F = random_hardy_martingale(cfg)
        scaled = MartingaleField(F.grid, F.depth, scale * F.terminal)
        for part in (cosine_part(scaled), sine_part(scaled)):
            assert part.depth == 2

    def test_a_norm_near_the_largest_double_stays_finite(self):
        # the moduli are scaled by a power of two before they are squared;
        # squared unscaled, they overflowed and the norm read inf
        grid = make_grid(16)
        F = field_from_differences(grid, 1, 0.0, [1e160 * np.exp(1j * grid.angles)])
        assert previsible_norm(F) == pytest.approx(1e160, rel=1e-15)

    @pytest.mark.parametrize("scale", [1.0, 1e-100, 3e120])
    @pytest.mark.parametrize("n, depth, degree", [(8, 3, 3), (16, 2, 5), (4, 3, 1)])
    def test_scaling_keeps_every_bit_in_the_normal_range(self, n, depth, degree, scale):
        for seed in range(10):
            F = random_hardy_martingale(EnsembleConfig(seed, n, depth, degree))
            F = MartingaleField(F.grid, depth, scale * F.terminal)
            unscaled = _root_mean(cond_square_profile(F).level_moments)
            assert previsible_norm(F).hex() == float(unscaled).hex()

    def test_oracle_equivalence_small(self):
        cfg = EnsembleConfig(seed=12, n_points=4, depth=3, max_degree=1)
        F = random_hardy_martingale(cfg)
        prof = cond_square_profile(F)
        for k in range(1, 4):
            expected = oracles.oracle_cond_moment(F.terminal, 4, 3, k)
            got = prof.level_moments[k - 1]
            for x, val in expected.items():
                assert got[x] == pytest.approx(val, abs=1e-13)
        assert previsible_norm(F) == pytest.approx(
            oracles.oracle_previsible_norm(F.terminal, 4, 3), abs=1e-13
        )


class TestSineCosine:
    def test_single_mode_split(self):
        F = single_mode_field(8)
        U = cosine_part(F)
        V = sine_part(F)
        np.testing.assert_allclose(U.terminal, np.cos(F.grid.angles), atol=1e-14)
        np.testing.assert_allclose(V.terminal, 1j * np.sin(F.grid.angles), atol=1e-14)

    def test_split_reassembles(self):
        cfg = EnsembleConfig(seed=13, n_points=8, depth=3, max_degree=3)
        F = random_hardy_martingale(cfg)
        U, V = cosine_part(F), sine_part(F)
        scale = np.max(np.abs(F.terminal))
        assert np.max(np.abs(U.terminal + V.terminal - F.terminal)) < 1e-12 * scale

    def test_parity_of_differences(self):
        cfg = EnsembleConfig(seed=14, n_points=8, depth=2, max_degree=3)
        F = random_hardy_martingale(cfg)
        for d in cosine_part(F).diffs:
            scale = max(1.0, np.max(np.abs(d)))
            assert np.max(np.abs(d - np.flip(d, axis=-1))) < 1e-12 * scale
        for d in sine_part(F).diffs:
            scale = max(1.0, np.max(np.abs(d)))
            assert np.max(np.abs(d + np.flip(d, axis=-1))) < 1e-12 * scale

    def test_even_field_has_no_sine_part(self):
        grid = make_grid(8)
        F = MartingaleField(grid, 1, np.cos(grid.angles).astype(complex))
        assert np.max(np.abs(sine_part(F).terminal)) < 1e-14


class TestTransform:
    def test_single_mode_unit_phase(self):
        F = single_mode_field(4)
        T = transform(F, constant_phases(F.grid, 1))
        np.testing.assert_allclose(T.terminal, np.sin(F.grid.angles), atol=1e-14)
        assert previsible_norm(T) == pytest.approx(1 / np.sqrt(2), abs=1e-14)

    def test_single_mode_rotated_phase(self):
        F = single_mode_field(4)
        T = transform(F, constant_phases(F.grid, 1, 1j))
        np.testing.assert_allclose(T.terminal, np.cos(F.grid.angles), atol=1e-14)

    def test_real_field_with_i_phase(self):
        grid = make_grid(8)
        rng = np.random.default_rng(4)
        F = MartingaleField(grid, 2, rng.standard_normal((8, 8)).astype(complex))
        T = transform(F, constant_phases(grid, 2, 1j))
        np.testing.assert_allclose(
            T.terminal, F.terminal - level(F, 0), atol=1e-12
        )

    def test_transform_is_martingale(self):
        cfg = EnsembleConfig(seed=15, n_points=8, depth=3, max_degree=3)
        F = random_hardy_martingale(cfg)
        T = transform(F, random_adapted_phases(cfg))
        assert np.max(np.abs(T.terminal.imag)) == 0.0
        for d in T.diffs:
            assert np.max(np.abs(d.mean(axis=-1))) < 1e-12

    def test_non_unimodular_rejected(self):
        grid = make_grid(4)
        with pytest.raises(ValueError, match="unimodular"):
            AdaptedPhases(grid, (np.asarray(0.5 + 0j),))

    @pytest.mark.parametrize("w", [complex(np.nan, 0.0), 1.0 + 1e-10])
    def test_nan_and_near_unimodular_rejected(self, w):
        grid = make_grid(4)
        with pytest.raises(ValueError, match="unimodular"):
            AdaptedPhases(grid, (np.asarray(1.0 + 0j), np.full(4, 1.0 + 0j) * w))

    def test_depth_mismatch_rejected(self):
        F = product_mode_field(4)
        with pytest.raises(ValueError, match="depth"):
            transform(F, constant_phases(F.grid, 1))


class TestTransformIsometry:
    def test_single_mode_values(self):
        F = single_mode_field(4)
        lhs, rhs = check_transform_isometry(F, constant_phases(F.grid, 1))
        assert lhs == pytest.approx(1 / np.sqrt(2), abs=1e-14)
        assert rhs == pytest.approx(1 / np.sqrt(2), abs=1e-14)

    def test_zero_field(self):
        grid = make_grid(4)
        F = MartingaleField(grid, 1, np.zeros(4))
        assert check_transform_isometry(F, constant_phases(grid, 1)) == (0.0, 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_hardy(self, seed):
        cfg = EnsembleConfig(seed=seed, n_points=8, depth=3, max_degree=3)
        F = random_hardy_martingale(cfg)
        lhs, rhs = check_transform_isometry(F, random_adapted_phases(cfg))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, previsible_norm(F))

    def test_non_hardy_rejected(self):
        grid = make_grid(4)
        F = MartingaleField(grid, 1, np.exp(-1j * grid.angles))
        with pytest.raises(ValueError, match="Hardy"):
            check_transform_isometry(F, constant_phases(grid, 1))


def near_tolerance_difference(grid, seed, u):
    """A Hardy difference h on grid plus a constant of modulus (1 - 10^u) * 1e-12
    * max|h|, a mean just under the tolerance, and a unimodular multiplier."""
    rng = np.random.default_rng(seed)
    degree = grid.n_points // 2 - 1
    a = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
    h = a @ grid.analytic_modes(degree)
    c = (1 - 10.0**u) * 1e-12 * np.max(np.abs(h)) * np.exp(2j * np.pi * rng.random())
    return h + c, np.exp(2j * np.pi * rng.random())


# (seed, u) per N: valid fields whose cosine part, dyadic projection and
# transform isometry raised "difference 1 has mean ... not 0" while derived
# rows were checked again, their rounding past the tolerance the rows met
NEAR_TOLERANCE = {8: [(26, -4), (377, -5)], 16: [(6, -6), (74, -5)], 64: [(72, -6), (367, -4)]}


class TestMeansCheckedOnce:
    @pytest.mark.parametrize("n", sorted(NEAR_TOLERANCE))
    def test_every_operation_takes_a_mean_at_the_tolerance(self, n):
        grid = make_grid(n)
        fields, phases = [], []
        for seed, u in NEAR_TOLERANCE[n]:
            d, w = near_tolerance_difference(grid, seed, u)
            assert 0.999 < abs(d.mean()) / (1e-12 * np.max(np.abs(d))) < 1.0
            F, P = field_from_differences(grid, 1, 0.0, [d]), AdaptedPhases(grid, (np.array(w),))
            for op in (cosine_part, sine_part, dyadic_project, lambda X: transform(X, P)):
                op(F)
            fields.append(F)
            phases.append(P)
        alone = [(*check_transform_isometry(F, P), previsible_norm(F))
                 for F, P in zip(fields, phases)]
        block = _isometry_norms(grid, np.stack([F.rows for F in fields]),
                                [np.stack([P.terms[0] for P in phases])])
        assert np.array_equal(np.transpose(block).view(np.uint64),
                              np.array(alone).view(np.uint64))

    @pytest.mark.parametrize("scale, ops", [(5e307, (cosine_part, dyadic_project)),
                                            (6e307, (cosine_part, sine_part, dyadic_project))])
    def test_overflowing_parts_raise_under_the_warning_filter(self, scale, ops):
        # the parts of values near 1e308 overflow; with numpy's RuntimeWarnings
        # as errors (the repo's filter), each operation still raises its
        # ValueError, not the warning
        grid = make_grid(16)
        F = field_from_differences(grid, 1, 0.0, [
            scale * (np.exp(1j * grid.angles) + np.exp(3j * grid.angles))])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for op in ops:
                with pytest.raises(ValueError, match="martingale values must be finite"):
                    op(F)

    def test_overflowing_squares_leave_the_norms_finite(self):
        # at values near 5e307, as at 1e200, the isometry's squares overflow;
        # its norms are taken again at 2^-e, and cos t + cos 3t and sin t + sin 3t
        # have mean square 1, so both sides are the scale and pass the residual
        # verdict (squared unscaled, they were (inf, inf) and failed it)
        grid = make_grid(16)
        phases = constant_phases(grid, 1)
        for scale in (5e307, 1e200):
            F = field_from_differences(grid, 1, 0.0, [
                scale * (np.exp(1j * grid.angles) + np.exp(3j * grid.angles))])
            norms = check_transform_isometry(F, phases)
            assert norms == pytest.approx((scale, scale), rel=1e-15)
            assert residual_verdict(*norms, norms[1], 1e-10)[1]


def unscaled_norm(field):
    """previsible_norm of field with no power-of-two step."""
    return float(_root_mean(cond_square_profile(field).level_moments))


@st.composite
def scaled_cases(draw):
    """(config, k, base): a random Hardy martingale's shape and seed, the power
    k of the scale 10^k of its differences, and a base that is 0 or at least
    10^20 times that scale."""
    n, depth = draw(st.sampled_from([(4, 3), (8, 2), (16, 1)]))
    config = EnsembleConfig(seed=draw(st.integers(0, 2**32 - 1)), n_points=n, depth=depth,
                            max_degree=min(3, n // 2 - 1))
    k = draw(st.integers(-300, 300))
    large = k <= 280 and draw(st.booleans())
    return config, k, 10.0 ** draw(st.integers(k + 20, 300)) if large else 0.0


class TestOnePowerOfTwoStep:
    """Every sum and square of a field whose scale lies beyond
    martingale._SCALE_WINDOW is taken at 2^-e, e the frexp exponent of that
    scale, and scaled back; within the window nothing is scaled."""

    @pytest.mark.parametrize("base, scale", [(0.0, 1e160), (0.0, 1e-170), (1.0, 1e-170)])
    def test_far_differences_keep_their_norms(self, base, scale):
        # squared unscaled, e^{it} at 1e160 gave the isometry (inf, inf), and at
        # 1e-170 a vacuous (0, 0) that the residual verdict passed; under base 1
        # the previsible norm, scaled with the base, read 0 too
        grid = make_grid(16)
        F = field_from_differences(grid, 1, base, [scale * np.exp(1j * grid.angles)])
        norms = check_transform_isometry(F, constant_phases(grid, 1))
        assert norms == pytest.approx((scale / math.sqrt(2),) * 2, rel=1e-15, abs=0.0)
        assert previsible_norm(F) == pytest.approx(scale, rel=1e-15, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(scaled_cases())
    def test_every_reduction_scales_with_the_field(self, case):
        config, k, base = case
        scale = 10.0**k
        unit, phases = random_hardy_martingale(config), random_adapted_phases(config)
        grid, depth = unit.grid, config.depth
        split = MartingaleField(grid, depth, unit.terminal)
        # the differences at 10^k, under the base, and the terminal at 10^k
        F = field_from_differences(grid, depth, base, [scale * d for d in unit.diffs])
        T = MartingaleField(grid, depth, scale * unit.terminal)
        for field, at_unit in ((F, unit), (T, split)):
            got = (*check_transform_isometry(field, phases), previsible_norm(field))
            want = (*check_transform_isometry(at_unit, phases), previsible_norm(at_unit))
            assert np.isfinite(got).all()
            np.testing.assert_allclose(got, np.multiply(want, scale), rtol=1e-15, atol=0)
        largest = scale * np.max(np.abs(split.rows))
        assert np.max(np.abs(T.rows - scale * split.rows)) <= 1e-15 * largest
        rows = F.rows[np.newaxis]
        scaled, e = martingale._unit_scaled(rows, martingale._scale_bound(0.0, rows))
        if e[0] == 0:  # within the window: the unscaled bits, from the rows themselves
            assert scaled is rows
            want = (unscaled_norm(cosine_part(F)), unscaled_norm(transform(F, phases)),
                    unscaled_norm(F))
            got = (*check_transform_isometry(F, phases), previsible_norm(F))
            assert [x.hex() for x in got] == [x.hex() for x in want]


# newest-coordinate shapes of mean zero, as functions of the grid's angles
ANALYTIC_SHAPES = {"e^{it}": lambda t: np.exp(1j * t),
                   "e^{it} + 2i e^{3it}": lambda t: np.exp(1j * t) + 2j * np.exp(3j * t)}
OTHER_SHAPES = {"e^{-it}": lambda t: np.exp(-1j * t), "i sin t": lambda t: 1j * np.sin(t),
                "cos 2t": lambda t: np.cos(2 * t)}


class TestOneRoundOffFloor:
    """A row that the Hardy gate passes by its zero floor, untested, enters the
    isometry's norms as 0 where it is not analytic at its own scale, so a field
    that passes the gate never fails the isometry through such rows."""

    def test_a_rounded_terminal_reads_zero(self):
        # 1 + 1e-170 e^{i theta_2} rounds to 1 + 1e-170 i sin(theta_2): the gate
        # passes its differences by the floor, and the norms were (1.87e-186, 4.82e-171)
        grid = make_grid(8)
        F = MartingaleField(grid, 2, 1 + 1e-170 * np.exp(1j * grid.angles) * np.ones((8, 1)))
        phases = random_adapted_phases(EnsembleConfig(3, 8, 2, 3))
        assert is_hardy_martingale(F, 1e-8)
        lhs, rhs = check_transform_isometry(F, phases)
        assert (lhs, rhs) == (0.0, 0.0)
        assert residual_verdict(lhs, rhs, previsible_norm(F), 1e-10)[1]

    @settings(max_examples=80, deadline=None)
    @given(a=st.integers(-270, 300), drop=st.integers(14, 40), depth=st.integers(1, 2),
           shape=st.sampled_from(sorted(ANALYTIC_SHAPES) + sorted(OTHER_SHAPES)),
           turn=st.floats(0.0, 2.0 * np.pi), terminal=st.booleans())
    def test_differences_under_the_floor_never_fail_the_isometry(self, a, drop, depth, shape,
                                                                 turn, terminal):
        grid = make_grid(8)
        base, small = 10.0**a * np.exp(1j * turn), 10.0 ** (a - drop)
        row = small * {**ANALYTIC_SHAPES, **OTHER_SHAPES}[shape](grid.angles)
        if terminal:  # each level's difference the shape in its newest coordinate
            F = MartingaleField(grid, depth, base + sum(
                row.reshape((1,) * k + (8,) + (1,) * (depth - k - 1)) for k in range(depth)))
        else:
            F = field_from_differences(grid, depth, base, [
                np.broadcast_to(row, (8,) * k) for k in range(1, depth + 1)])
        assert is_hardy_martingale(F, 1e-8)
        lhs, rhs = check_transform_isometry(F, random_adapted_phases(EnsembleConfig(a % 7, 8,
                                                                                    depth)))
        assert residual_verdict(lhs, rhs, previsible_norm(F), 1e-10)[1], (lhs, rhs)
        if shape in OTHER_SHAPES and not terminal:
            assert (lhs, rhs) == (0.0, 0.0)


class TestPhasesDeeperThanTheField:
    """Phases may cover more levels than the field has; the levels beyond the
    field's depth are not used."""

    def setup_method(self):
        self.F = random_hardy_martingale(EnsembleConfig(1, 8, 1, 3))
        self.P = random_adapted_phases(EnsembleConfig(1, 8, 3, 3))
        self.P1 = AdaptedPhases(self.F.grid, self.P.terms[:1])

    def test_check_transform_isometry(self):
        sides = check_transform_isometry(self.F, self.P)
        assert sides == check_transform_isometry(self.F, self.P1)
        # the pair's sides, bit for bit
        assert [x.hex() for x in sides] == ['0x1.8453f1e3cd88fp-1', '0x1.8453f1e3cd890p-1']

    def test_transform(self):
        T, T1 = transform(self.F, self.P), transform(self.F, self.P1)
        assert T.depth == 1 and T.base == T1.base
        assert np.array_equal(T.diffs[0], T1.diffs[0])


class TestIsHardyMartingale:
    def test_product_mode_is_hardy(self):
        assert is_hardy_martingale(product_mode_field(4), 1e-10)

    def test_conjugate_mode_is_not(self):
        grid = make_grid(4)
        F = MartingaleField(grid, 1, np.conj(np.exp(1j * grid.angles)))
        assert not is_hardy_martingale(F, 1e-10)

    def test_cosine_part_is_not(self):
        F = cosine_part(single_mode_field(4))
        assert not is_hardy_martingale(F, 1e-10)

    @pytest.mark.parametrize("eps, hardy", [(0.5e-6, True), (2e-6, False)])
    def test_same_energy_rule_as_is_hardy(self, eps, hardy):
        # energy eps^2 at m = -1 against tol^2 = 1e-12 of the total
        grid = make_grid(8)
        values = np.exp(1j * grid.angles) + eps * np.exp(-1j * grid.angles)
        assert is_hardy(GridFunction(grid, values), 1e-6) is hardy
        assert is_hardy_martingale(MartingaleField(grid, 1, values), 1e-6) is hardy

    def test_nan_fails_both_gates(self):
        # the 1-D gate fails a NaN; a martingale holding one cannot be built
        grid = make_grid(4)
        values = np.exp(1j * grid.angles)
        values[1] = np.nan
        assert not is_hardy(GridFunction(grid, values), 1e-8)
        with pytest.raises(ValueError, match="finite"):
            MartingaleField(grid, 1, values)
        with pytest.raises(ValueError, match="finite"):
            field_from_differences(grid, 1, 0.0, [values])

    def test_tol_must_be_positive_and_finite(self):
        for tol in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                is_hardy_martingale(product_mode_field(4), tol)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-300, 300))
    def test_same_verdict_at_every_scale(self, k):
        # no overflow at 1e300, and no anti-analytic pass by underflow at 1e-300
        grid = make_grid(4)
        for sign, hardy in ((1, True), (-1, False)):
            values = 10.0**k * np.exp(sign * 1j * grid.angles)
            assert is_hardy(GridFunction(grid, values), 1e-8) is hardy
            assert is_hardy_martingale(MartingaleField(grid, 1, values), 1e-8) is hardy

    @pytest.mark.parametrize("sign, infinite", [(-1, {0: np.inf, 2: -np.inf}), (1, {1: np.inf})])
    def test_non_finite_differences_fail_the_gate(self, sign, infinite):
        grid = make_grid(4)
        values = np.exp(sign * 1j * grid.angles)
        for j, v in infinite.items():
            values[j] = v
        assert not is_hardy(GridFunction(grid, values), 1e-8)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            MartingaleField(grid, 1, values)
        with pytest.raises(ValueError, match="finite"):
            field_from_differences(grid, 1, 0.0, [values])


class TestDyadicProjection:
    def test_sign_field_fixed(self):
        grid = make_grid(8)
        F = MartingaleField(grid, 1, grid.sign_values.astype(complex))
        np.testing.assert_allclose(dyadic_project(F).terminal, F.terminal, atol=1e-14)

    def test_cosine_projection_n4(self):
        grid = make_grid(4)
        F = MartingaleField(grid, 1, np.cos(grid.angles).astype(complex))
        expected = (np.sqrt(2) / 2) * grid.sign_values
        np.testing.assert_allclose(dyadic_project(F).terminal, expected, atol=1e-14)

    def test_cosine_projection_n8(self):
        grid = make_grid(8)
        F = MartingaleField(grid, 1, np.cos(grid.angles).astype(complex))
        coeff = (np.cos(np.pi / 8) + np.cos(3 * np.pi / 8)) / 2
        np.testing.assert_allclose(
            dyadic_project(F).terminal, coeff * grid.sign_values, atol=1e-14
        )
        assert coeff == pytest.approx(0.65328, abs=5e-6)

    def test_idempotent(self):
        cfg = EnsembleConfig(seed=16, n_points=8, depth=3, max_degree=3)
        F = random_hardy_martingale(cfg)
        once = dyadic_project(F)
        twice = dyadic_project(once)
        assert np.max(np.abs(twice.terminal - once.terminal)) < 1e-12

    def test_annihilates_sine_parts(self):
        for seed in range(5):
            cfg = EnsembleConfig(seed=seed, n_points=8, depth=3, max_degree=3)
            F = random_hardy_martingale(cfg)
            projected = dyadic_project(sine_part(F))
            scale = max(1.0, np.max(np.abs(F.terminal)))
            assert np.max(np.abs(projected.terminal)) < 1e-13 * scale

    def test_perturbation_identity(self):
        cfg = EnsembleConfig(seed=17, n_points=8, depth=3, max_degree=3)
        F = random_hardy_martingale(cfg)
        U, V = cosine_part(F), sine_part(F)
        lhs = U.terminal - dyadic_project(U).terminal + V.terminal
        rhs = F.terminal - dyadic_project(F).terminal
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(F.terminal)))

    def test_commutes_with_cosine_part(self):
        cfg = EnsembleConfig(seed=18, n_points=8, depth=2, max_degree=3)
        F = random_hardy_martingale(cfg)
        a = dyadic_project(cosine_part(F))
        b = cosine_part(dyadic_project(F))
        assert np.max(np.abs(a.terminal - b.terminal)) < 1e-12

    def test_oracle_equivalence(self):
        cfg = EnsembleConfig(seed=19, n_points=4, depth=2, max_degree=1)
        F = random_hardy_martingale(cfg)
        projected = dyadic_project(F)
        expected = oracles.oracle_dyadic_terminal(F.terminal, 4, 2)
        for x in itertools.product(range(4), repeat=2):
            assert projected.terminal[x] == pytest.approx(expected[x], abs=1e-13)

    def test_result_is_martingale(self):
        cfg = EnsembleConfig(seed=20, n_points=8, depth=3, max_degree=3)
        F = random_hardy_martingale(cfg)
        for d in dyadic_project(F).diffs:
            assert np.max(np.abs(d.mean(axis=-1))) < 1e-12

    def test_oracle_equivalence_n8(self):
        cfg = EnsembleConfig(seed=21, n_points=8, depth=2, max_degree=3)
        F = random_hardy_martingale(cfg)
        projected = dyadic_project(F).terminal
        expected = oracles.oracle_dyadic_terminal(F.terminal, 8, 2)
        for x in itertools.product(range(8), repeat=2):
            assert projected[x] == pytest.approx(expected[x], abs=1e-12)

    @pytest.mark.parametrize("ndim", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [4, 8, 16, 64])
    def test_matches_dense_cell_projector(self, n, ndim):
        # the sign-cell average as a dense N x N matrix, applied axis by axis
        grid = make_grid(n)
        s = grid.sign_values
        dense = 2.0 * (s[:, None] == s[None, :]) / n
        rng = np.random.default_rng(100 * n + ndim)
        arr = rng.standard_normal((n,) * ndim) + 1j * rng.standard_normal((n,) * ndim)
        expected = arr
        for axis in range(ndim):
            expected = np.moveaxis(np.tensordot(dense, expected, axes=([1], [axis])), 0, axis)
        projected = project_dyadic_cells(grid, arr)
        assert projected.shape == arr.shape
        assert np.max(np.abs(projected - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("n, n_axes", [(n, k) for n in (4, 8, 16, 64) for k in range(8)
                                           if n**k <= 2**18])
    def test_folding_matches_the_symmetrised_means(self, n, n_axes, lead):
        # the folded projection against the per-axis symmetrise-and-mean form, within
        # 1e-15 of each sample's largest value; with a sample axis, by its trailing form
        grid = make_grid(n)
        rng = np.random.default_rng(1000 * n + 10 * n_axes + len(lead))
        shape = lead + (n,) * n_axes
        arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        arr *= 10.0 ** rng.integers(-3, 4, size=lead + (1,) * n_axes)  # a scale per sample
        expected = oracles.oracle_project_trailing_cells(n, arr, n_axes)
        projected = (_project_trailing_cells(grid, arr, n_axes) if lead
                     else project_dyadic_cells(grid, arr))
        assert projected.shape == arr.shape and not np.shares_memory(projected, arr)
        peak = np.max(np.abs(expected).reshape(lead + (-1,)), axis=-1, keepdims=True)
        error = np.max(np.abs(projected - expected).reshape(lead + (-1,)), axis=-1, keepdims=True)
        assert (error <= 1e-15 * peak).all(), float(np.max(error / peak))
        for axis in range(len(lead), arr.ndim):
            odd = arr - np.flip(arr, axis=axis)
            assert (_project_trailing_cells(grid, odd, n_axes) == 0).all()

    def test_writes_into_a_given_array(self):
        grid = make_grid(8)
        arr = np.random.default_rng(4).standard_normal((2, 8, 8))
        out = np.full(arr.shape, np.nan)
        assert _project_trailing_cells(grid, arr, 2, out) is out
        np.testing.assert_array_equal(out, _project_trailing_cells(grid, arr, 2))
        # integers average to floats: the cells hold 0, 1, 36, 49 and 4, 9, 16, 25
        np.testing.assert_array_equal(project_dyadic_cells(grid, np.arange(8) ** 2),
                                      np.where(grid.sign_values > 0, 21.5, 13.5))

    @pytest.mark.parametrize("odd_axis", [0, 1, 2])
    def test_conjugation_odd_input_projects_to_exact_zero(self, odd_axis):
        grid = make_grid(8)
        arr = np.random.default_rng(odd_axis).standard_normal((8, 8, 8)) + 0.5j
        odd = arr - np.flip(arr, axis=odd_axis)
        assert (project_dyadic_cells(grid, odd) == 0).all()

    @pytest.mark.parametrize("shape", [(), (8,), (8, 8)])
    def test_projection_is_a_new_array(self, shape):
        # with no axis to average the projection is the identity, but still a copy
        arr = np.full(shape, 1.0 + 2.0j)
        projected = project_dyadic_cells(make_grid(8), arr)
        assert not np.shares_memory(projected, arr)
        np.testing.assert_array_equal(projected, arr)


@pytest.mark.parametrize("call, name", [
    (lambda: level(product_mode_field(4), 1.5), "level index k"),
    (lambda: level(product_mode_field(4), True), "level index k"),
    (lambda: level(product_mode_field(4), 3), "level index k"),
    (lambda: arith_sample_batch(EnsembleConfig(seed=1, n_points=8), 2.5), "count"),
    (lambda: arith_sample_batch(EnsembleConfig(seed=1, n_points=8), True), "count"),
    (lambda: arith_sample_batch(EnsembleConfig(seed=1, n_points=8), 0), "count"),
    (lambda: project_dyadic_cells(make_grid(8), np.zeros((8, 6))), "arr"),
], ids=["level-float", "level-bool", "level-above-depth", "count-float", "count-bool",
        "count-zero", "arr-short-axis"])
def test_public_arguments_follow_the_shared_rules(call, name):
    with pytest.raises(ValueError, match=name):
        call()


def test_public_arguments_accept_numpy_integers_and_lists():
    F = product_mode_field(4)
    np.testing.assert_array_equal(level(F, np.int64(1)), level(F, 1))
    cfg = EnsembleConfig(seed=1, n_points=8)
    for x, y in zip(arith_sample_batch(cfg, np.int64(3)), arith_sample_batch(cfg, 3)):
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(project_dyadic_cells(make_grid(8), [1.0] * 8), np.ones(8))


class TestFieldFromDifferences:
    def test_round_trip(self):
        cfg = EnsembleConfig(seed=21, n_points=8, depth=2, max_degree=3)
        F = random_hardy_martingale(cfg)
        rebuilt = field_from_differences(F.grid, 2, complex(level(F, 0)), F.diffs)
        assert np.max(np.abs(rebuilt.terminal - F.terminal)) < 1e-13

    def test_wrong_count_rejected(self):
        grid = make_grid(4)
        with pytest.raises(ValueError):
            field_from_differences(grid, 2, 0.0, [np.zeros(4)])

    def test_wrong_shape_rejected(self):
        grid = make_grid(4)
        with pytest.raises(ValueError, match=re.escape("difference 2 must have shape (4, 4); got (4, 5)")):
            field_from_differences(grid, 2, 0.0, [np.zeros(4), np.zeros((4, 5))])

    def test_nonzero_conditional_mean_rejected(self):
        grid = make_grid(4)
        with pytest.raises(ValueError, match="mean"):
            field_from_differences(grid, 1, 0.0, [np.ones(4)])
        d2 = np.zeros((4, 4))
        d2[2] = [1.0, 1.0, 1.0, 2.0]
        with pytest.raises(ValueError, match="difference 2"):
            field_from_differences(grid, 2, 0.0, [np.zeros(4), d2])

    def test_means_near_the_top_of_float64_are_summed_scaled(self):
        # finite values whose row sums overflow: summed unscaled, a mean of
        # exactly 0 read inf and refused the field (a RuntimeWarning first
        # where warnings are errors)
        grid = make_grid(16)
        modes = np.exp(1j * grid.angles) + np.exp(3j * grid.angles)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            F = field_from_differences(grid, 1, 0.0, [8e307 * modes])
            assert np.array_equal(F.diffs[0], 8e307 * modes)
            with pytest.raises(ValueError, match=r"difference 1 has mean 8e\+307 "):
                field_from_differences(grid, 1, 0.0, [4e307 * (2.0 + modes)])

    def test_level_maxima_summing_past_float64_keep_a_finite_scale(self):
        # a finite field (its terminal 1e308 (s(theta_2) + i s(theta_1)) peaks at
        # sqrt(2) 1e308) whose level maxima sum past float64, to 2e308: its scale
        # must stay finite
        grid = make_grid(8)
        s = grid.sign_values
        diffs = [1e308j * s, 1e308 * np.broadcast_to(s, (8, 8))]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            F = field_from_differences(grid, 2, 0.0, diffs)
            assert previsible_norm(F) == pytest.approx(math.sqrt(2.0) * 1e308, rel=1e-15)
            # the isometry takes the same scale, then gates
            phases = AdaptedPhases(grid, (np.ones(()), np.ones(8)))
            with pytest.raises(ValueError, match="Hardy martingale"):
                check_transform_isometry(F, phases)
            for bad in (np.inf, np.nan):
                d2 = diffs[1].copy()
                d2[3] = bad
                with pytest.raises(ValueError, match="must be finite"):
                    field_from_differences(grid, 2, 0.0, [diffs[0], d2])

    def test_stored_copies_are_read_only(self):
        grid = make_grid(4)
        rng = np.random.default_rng(5)
        terminal = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        F = MartingaleField(grid, 2, terminal)
        d1 = np.cos(grid.angles).astype(complex)
        G = field_from_differences(grid, 1, 2.0, [d1])
        expected_f, expected_g = terminal.copy(), G.terminal
        terminal[:] = 99.0
        d1[:] = 7.0
        np.testing.assert_array_equal(G.terminal, expected_g)
        assert np.max(np.abs(F.terminal - expected_f)) < 1e-14
        assert not np.shares_memory(G.diffs[0], d1)
        for d in F.diffs + G.diffs:
            assert not d.flags.writeable
            with pytest.raises(ValueError):
                d[0] = 1.0
        # the multipliers W and the sign-mode weights follow the same rule
        terms = (np.asarray(1.0 + 0j), np.exp(1j * grid.angles))
        for stored, given in zip(AdaptedPhases(grid, terms).terms, terms):
            assert not stored.flags.writeable and not np.shares_memory(stored, given)
        assert not _sign_modes(grid, 1)[0].flags.writeable


def every_kind_of_field():
    """A depth-3 field from each constructor and from each operation."""
    grid = make_grid(8)
    cfg = EnsembleConfig(seed=17, n_points=8, depth=3, max_degree=3)
    F = random_hardy_martingale(cfg)
    terminal = np.random.default_rng(17).standard_normal((8, 8, 8)) + 0.5j
    return {
        "martingale_from_coefficients": F,
        "terminal": MartingaleField(grid, 3, terminal),
        "field_from_differences": field_from_differences(grid, 3, 1.5, F.diffs),
        "cosine_part": cosine_part(F),
        "sine_part": sine_part(F),
        "transform": transform(F, random_adapted_phases(cfg)),
        "dyadic_project": dyadic_project(F),
    }


class TestOneRowsArray:
    @pytest.mark.parametrize("kind", list(every_kind_of_field()))
    def test_diffs_are_read_only_views_of_the_rows(self, kind):
        F = every_kind_of_field()[kind]
        assert F.rows.shape == (1 + 8 + 64, 8) and F.rows.dtype == np.complex128
        assert not F.rows.flags.writeable
        for k, d in enumerate(F.diffs, start=1):
            assert d.shape == (8,) * k and np.shares_memory(d, F.rows)
            assert not d.flags.writeable
            with pytest.raises(ValueError):
                d[...] = 0.0

    def test_field_from_differences_copies_any_iterable(self):
        F = random_hardy_martingale(EnsembleConfig(seed=2, n_points=8, depth=3, max_degree=3))
        given = [d.copy() for d in F.diffs]
        for diffs in (given, iter(given), (d for d in given)):
            G = field_from_differences(F.grid, 3, F.base, diffs)
            np.testing.assert_array_equal(G.rows, F.rows)
            assert not any(np.shares_memory(G.rows, d) for d in given)
        with pytest.raises(ValueError, match="expected 3 difference arrays; got 2"):
            field_from_differences(F.grid, 3, 0.0, iter(given[:2]))
        with pytest.raises(ValueError, match="expected 3 difference arrays; got 4"):
            field_from_differences(F.grid, 3, 0.0, iter(given + [np.zeros((8,) * 4)]))

    @pytest.mark.parametrize("n, depth", [(16, 4), (8, 5)])
    def test_each_operation_holds_about_two_rows_arrays_at_most(self, n, depth):
        # the traced peak of each call, over the bytes of the one rows array.
        # transform takes Im(w * diff) in the product's own buffer, and dyadic_project
        # folds each level into its run of the new rows: with a copy of the product
        # and full-size symmetrised copies they read 2.06 and 3.99 times it at (16, 4)
        grid = make_grid(n)
        cfg = EnsembleConfig(seed=5, n_points=n, depth=depth, max_degree=3)
        coefficients, phases = random_coefficient_arrays(cfg), random_adapted_phases(cfg)
        F = martingale_from_coefficients(grid, coefficients)
        rows_bytes = sum(d.nbytes for d in F.diffs)
        calls = {
            "martingale_from_coefficients": (lambda: martingale_from_coefficients(grid, coefficients),
                                             2.25),
            "cosine_part": (lambda: cosine_part(F), 2.25),
            "is_hardy_martingale": (lambda: is_hardy_martingale(F, 1e-8), 2.25),
            "check_transform_isometry": (lambda: check_transform_isometry(F, phases), 2.25),
            "transform": (lambda: transform(F, phases), 1.5),
            "dyadic_project": (lambda: dyadic_project(F), 1.75),
        }
        for name, (call, bound) in calls.items():
            call()  # the grid's cached tables are built outside the trace
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * rows_bytes, (name, peak / rows_bytes)

    @pytest.mark.parametrize("n, depth, bound", [(16, 4, 1.5), (8, 5, 1.75)])
    def test_the_transform_isometry_holds_one_slab_of_temporaries(self, n, depth, bound):
        # its moduli, sums and parts are taken slab by slab; with temporaries the
        # size of the rows, the traced peak reads 1.79 and 2.07 times their bytes
        cfg = EnsembleConfig(seed=5, n_points=n, depth=depth, max_degree=3)
        F, phases = random_hardy_martingale(cfg), random_adapted_phases(cfg)
        check_transform_isometry(F, phases)  # the grid's cached tables are built outside the trace
        tracemalloc.start()
        try:
            check_transform_isometry(F, phases)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * F.rows.nbytes, peak / F.rows.nbytes

    def test_the_norm_and_the_split_hold_half_a_rows_array(self):
        # beyond its result, previsible_norm holds the squared moduli of the
        # deepest level, and the terminal constructor its levels' means and the
        # mean check's row sums; with the whole field first copied at 2^-e,
        # they read 1.50 and 2.09 times the rows
        cfg = EnsembleConfig(seed=5, n_points=16, depth=5, max_degree=3)
        F = random_hardy_martingale(cfg)
        terminal = F.terminal
        calls = {"previsible_norm": (lambda: previsible_norm(F), 0),  # a float
                 "terminal": (lambda: MartingaleField(F.grid, 5, terminal), F.rows.nbytes)}
        for name, (call, result_bytes) in calls.items():
            call()  # the grid's cached tables are built outside the trace
            tracemalloc.start()
            try:
                call()
                held = tracemalloc.get_traced_memory()[1] - result_bytes
            finally:
                tracemalloc.stop()
            assert held <= 0.55 * F.rows.nbytes, (name, held / F.rows.nbytes)


@st.composite
def terminal_arrays(draw):
    n = draw(st.sampled_from([4, 8]))
    depth = draw(st.integers(1, 3))
    parts = draw(hnp.arrays(np.float64, (2,) + (n,) * depth,
                            elements=st.floats(-1e3, 1e3, allow_subnormal=False)))
    return n, depth, parts[0] + 1j * parts[1], draw(st.integers(0, 2**32 - 1))


class TestRepresentation:
    @settings(max_examples=40, deadline=None)
    @given(terminal_arrays())
    def test_terminal_and_difference_constructors_agree(self, case):
        n, depth, terminal, seed = case
        grid = make_grid(n)
        F = MartingaleField(grid, depth, terminal)
        G = field_from_differences(grid, depth, complex(level(F, 0)), F.diffs)
        phases = random_adapted_phases(EnsembleConfig(seed=seed, n_points=n, depth=depth))
        scale = max(1.0, float(np.max(np.abs(terminal))))
        assert np.max(np.abs(F.terminal - terminal)) <= 1e-12 * scale
        for op in (lambda X: X, cosine_part, sine_part, dyadic_project,
                   lambda X: transform(X, phases)):
            assert np.max(np.abs(op(F).terminal - op(G).terminal)) <= 1e-12 * scale
        assert abs(previsible_norm(F) - previsible_norm(G)) <= 1e-12 * scale
        if n == 4:
            expected = oracles.oracle_dyadic_terminal(terminal, 4, depth)
            projected = dyadic_project(G).terminal
            for x in itertools.product(range(4), repeat=depth):
                assert abs(projected[x] - expected[x]) <= 1e-12 * scale
            assert abs(previsible_norm(G) - oracles.oracle_previsible_norm(terminal, 4, depth)) \
                <= 1e-12 * scale

    def test_operators_accept_round_off_mean_of_a_large_field(self):
        # differences split from a large constant keep a mean of a few ulps of
        # that constant, far above the size of a small fluctuation on it
        grid = make_grid(8)
        theta = grid.angles
        rng = np.random.default_rng(3)
        for c in (-6704.67 - 7088.05j, 1e3 + 7e-4j, -3.7e3):
            a = 1e-3 * (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
            analytic = [sum(a[i, m] * np.exp(1j * (m + 1) * theta) for m in range(3))
                        for i in range(2)]
            F = MartingaleField(grid, 2, c + analytic[0][:, None] + analytic[1])
            phases = AdaptedPhases(grid, (np.array(np.exp(0.3j)), np.exp(1j * theta)))
            cos_norm, transform_norm = check_transform_isometry(F, phases)
            assert abs(cos_norm - transform_norm) <= 1e-9 * cos_norm
            for op in (cosine_part, sine_part, dyadic_project, lambda X: transform(X, phases)):
                op(F)

    def test_operators_accept_nearly_cancelling_parts(self):
        # outputs far smaller than the input differences: the even part of a
        # sine, and Im(w d) for d nearly parallel to conj(w)
        grid = make_grid(8)
        theta = grid.angles
        sine = MartingaleField(grid, 1, np.sin(theta))
        assert np.max(np.abs(dyadic_project(sine).terminal - dyadic_project(sine).base)) < 1e-15
        phi = 0.7
        tilted = MartingaleField(grid, 1, np.exp(-1j * phi) * np.cos(3 * theta))
        W = transform(tilted, AdaptedPhases(grid, (np.array(np.exp(1j * phi)),)))
        assert np.max(np.abs(W.terminal)) < 1e-15
