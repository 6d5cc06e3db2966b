import itertools

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
    previsible_norm,
    project_dyadic_cells,
    random_adapted_phases,
    random_hardy_martingale,
    sine_part,
    transform,
)
from hardylab.inequalities import _sign_modes

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

    def test_nonzero_conditional_mean_rejected(self):
        grid = make_grid(4)
        with pytest.raises(ValueError, match="mean"):
            field_from_differences(grid, 1, 0.0, [np.ones(4)])
        d2 = np.zeros((4, 4))
        d2[2] = [1.0, 1.0, 1.0, 2.0]
        with pytest.raises(ValueError, match="difference 2"):
            field_from_differences(grid, 2, 0.0, [np.zeros(4), d2])

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
