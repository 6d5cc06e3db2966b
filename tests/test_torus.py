import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import (
    GridFunction,
    analyze,
    from_imaginary_part,
    hilbert,
    inner_product,
    is_hardy,
    l2_norm,
    make_grid,
    mean,
    sigma,
    synthesize,
)

GRID_SIZES = [4, 8, 16, 32, 64, 128]


def grid_function(grid, values):
    return GridFunction(grid, np.asarray(values, dtype=complex))


def random_band_limited(grid, rng, mean_zero=True, analytic=False):
    """Random function supported on 1 <= |m| <= N/2 - 1 (plus optional mean)."""
    n = grid.n_points
    coeffs = np.zeros(n, dtype=complex)
    idx = np.arange(-n // 2, n // 2)
    band = (np.abs(idx) >= 1) & (np.abs(idx) <= n // 2 - 1)
    if analytic:
        band &= idx >= 1
    coeffs[band] = rng.standard_normal(band.sum()) + 1j * rng.standard_normal(band.sum())
    if not mean_zero:
        coeffs[idx == 0] = rng.standard_normal() + 1j * rng.standard_normal()
    values = np.exp(1j * np.outer(grid.angles, idx)) @ coeffs
    return grid_function(grid, values)


class TestMakeGrid:
    def test_half_step_shift(self):
        assert make_grid(8).angles[0] == pytest.approx(np.pi / 8, abs=1e-15)

    def test_n4_angles(self):
        expected = np.array([1, 3, 5, 7]) * np.pi / 4
        np.testing.assert_allclose(make_grid(4).angles, expected, atol=1e-15)

    @pytest.mark.parametrize("bad", [6, 2, 0, -4, 10, 13, 8.5, "8", 8.0, True])
    def test_rejects_bad_sizes(self, bad):
        make_grid(8)  # the cache holds the key that 8.0 would hit
        with pytest.raises(ValueError):
            make_grid(bad)

    def test_one_shared_grid_per_size(self):
        grid = make_grid(16)
        assert make_grid(16) is grid and make_grid(np.int64(16)) is grid
        assert make_grid(8) is not grid
        with pytest.raises(ValueError):  # a rejected size is never cached
            make_grid(6)
        with pytest.raises(ValueError):
            make_grid(6)

    @pytest.mark.parametrize("n", GRID_SIZES)
    def test_conjugation_closure(self, n):
        # -theta_j is congruent to theta_{N-1-j}: the two angles sum to 2*pi
        grid = make_grid(n)
        np.testing.assert_allclose(
            grid.angles + grid.angles[::-1], 2 * np.pi, rtol=1e-14
        )
        assert np.all(grid.angles[::-1] != grid.angles)

    @pytest.mark.parametrize("n", GRID_SIZES)
    def test_cosine_never_vanishes(self, n):
        assert np.min(np.abs(np.cos(make_grid(n).angles))) > 1e-3


class TestSpectra:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_one_read_only_character_table(self, n):
        grid = make_grid(n)
        table = grid.characters
        assert table is grid.characters and not table.flags.writeable
        for m in (-n // 2, -1, 0, 1, n // 2 - 1):
            np.testing.assert_allclose(table[m + n // 2], np.cos(m * grid.angles)
                                       + 1j * np.sin(m * grid.angles), atol=1e-14)
        modes = grid.analytic_modes(n // 2 - 1)  # m = 1 .. N/2-1, a view of the table
        assert np.shares_memory(modes, table) and not modes.flags.writeable
        np.testing.assert_array_equal(modes, table[n // 2 + 1 :])

    def test_character_table_is_guarded(self):
        # 8192^2 entries exceed the guard: refused before any allocation, by
        # the table itself and so by every transform that reads it
        grid = make_grid(8192)
        f = GridFunction(grid, np.zeros(8192))
        tracemalloc.start()
        try:
            for call in (lambda: grid.characters, lambda: analyze(f), lambda: is_hardy(f, 1e-8)):
                with pytest.raises(ValueError, match="memory guard: the 8192x8192 character table"):
                    call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20 and "characters" not in grid.__dict__

    def test_analyze_constant(self):
        grid = make_grid(8)
        spec = analyze(grid_function(grid, np.ones(8)))
        assert spec.coefficient(0) == pytest.approx(1.0, abs=1e-13)
        others = np.abs(spec.coefficients[grid.frequencies != 0])
        assert others.max() < 1e-13

    def test_analyze_first_mode(self):
        grid = make_grid(8)
        spec = analyze(grid_function(grid, np.exp(1j * grid.angles)))
        assert spec.coefficient(1) == pytest.approx(1.0, abs=1e-13)
        others = np.abs(spec.coefficients[grid.frequencies != 1])
        assert others.max() < 1e-13

    @pytest.mark.parametrize("n", GRID_SIZES)
    def test_round_trip(self, n):
        grid = make_grid(n)
        rng = np.random.default_rng(n)
        f = grid_function(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        back = synthesize(analyze(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12 * max(1, l2_norm(f))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([4, 8, 12, 16]))
    def test_round_trip_property(self, seed, n):
        grid = make_grid(n)
        rng = np.random.default_rng(seed)
        f = grid_function(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        back = synthesize(analyze(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * max(1.0, l2_norm(f))

    def test_reality_constraint(self):
        # real function <=> conjugate-symmetric paired coefficients and a
        # purely imaginary Nyquist coefficient
        grid = make_grid(8)
        rng = np.random.default_rng(3)
        f = grid_function(grid, rng.standard_normal(8))
        spec = analyze(f)
        for m in range(1, 4):
            assert spec.coefficient(-m) == pytest.approx(np.conj(spec.coefficient(m)), abs=1e-13)
        assert abs(spec.coefficient(-4).real) < 1e-13


class TestHilbert:
    def test_constant_maps_to_zero(self):
        grid = make_grid(8)
        out = hilbert(grid_function(grid, np.ones(8)))
        assert np.max(np.abs(out.values)) < 1e-13

    def test_cos_to_sin(self):
        grid = make_grid(16)
        out = hilbert(grid_function(grid, np.cos(grid.angles)))
        np.testing.assert_allclose(out.values, np.sin(grid.angles), atol=1e-13)

    def test_squared_is_minus_identity_on_mean_zero(self):
        grid = make_grid(16)
        f = grid_function(grid, np.cos(grid.angles))
        out = hilbert(hilbert(f))
        np.testing.assert_allclose(out.values, -f.values, atol=1e-13)

    @pytest.mark.parametrize("n", GRID_SIZES)
    def test_isometry_on_band_limited(self, n):
        grid = make_grid(n)
        f = random_band_limited(grid, np.random.default_rng(n + 1))
        assert l2_norm(hilbert(f)) == pytest.approx(l2_norm(f), rel=1e-12)

    def test_even_to_odd(self):
        grid = make_grid(32)
        rng = np.random.default_rng(5)
        f = random_band_limited(grid, rng)
        even = grid_function(grid, (f.values + f.values[::-1]).real / 2)
        hf = hilbert(even)
        assert np.max(np.abs(hf.values.imag)) < 1e-12
        np.testing.assert_allclose(hf.values[::-1], -hf.values, atol=1e-12)


class TestConjugateFlip:
    def test_cosine_even(self):
        grid = make_grid(8)
        f = grid_function(grid, np.cos(grid.angles))
        np.testing.assert_allclose(f.values[::-1], f.values, atol=1e-15)

    def test_sine_odd(self):
        grid = make_grid(8)
        f = grid_function(grid, np.sin(grid.angles))
        np.testing.assert_allclose(f.values[::-1], -f.values, atol=1e-15)


class TestSigma:
    def test_n4_values(self):
        np.testing.assert_array_equal(sigma(make_grid(4)).values.real, [1, -1, -1, 1])

    @pytest.mark.parametrize("n", GRID_SIZES)
    def test_exactly_mean_zero_unit_norm(self, n):
        s = sigma(make_grid(n))
        assert mean(s) == 0.0
        assert inner_product(s, s) == pytest.approx(1.0, abs=0)
        assert np.all(np.abs(s.values.real) == 1.0)

    @pytest.mark.parametrize("n", GRID_SIZES)
    def test_flip_invariant_and_matches_cos_sign(self, n):
        grid = make_grid(n)
        s = sigma(grid)
        np.testing.assert_array_equal(s.values[::-1], s.values)
        np.testing.assert_array_equal(s.values.real, np.sign(np.cos(grid.angles)))


class TestInnerProduct:
    def test_cos_against_sigma_n4(self):
        grid = make_grid(4)
        f = grid_function(grid, np.cos(grid.angles))
        assert inner_product(f, sigma(grid)) == pytest.approx(np.sqrt(2) / 2, abs=1e-14)

    def test_cos_sin_orthogonal(self):
        grid = make_grid(8)
        f = grid_function(grid, np.cos(grid.angles))
        g = grid_function(grid, np.sin(grid.angles))
        assert abs(inner_product(f, g)) < 1e-14

    def test_unimodular_norm(self):
        grid = make_grid(8)
        f = grid_function(grid, np.exp(1j * grid.angles))
        assert inner_product(f, f) == pytest.approx(1.0, abs=1e-14)

    def test_grid_mismatch_rejected(self):
        f = grid_function(make_grid(4), np.ones(4))
        g = grid_function(make_grid(8), np.ones(8))
        with pytest.raises(ValueError):
            inner_product(f, g)


class TestIsHardy:
    def test_examples(self):
        grid = make_grid(8)
        assert is_hardy(grid_function(grid, np.exp(1j * grid.angles)), 1e-12)
        assert not is_hardy(grid_function(grid, np.exp(-1j * grid.angles)), 1e-12)
        assert not is_hardy(grid_function(grid, np.cos(grid.angles)), 1e-12)
        assert is_hardy(grid_function(grid, np.zeros(8)), 1e-12)

    def test_tol_must_be_positive(self):
        grid = make_grid(8)
        with pytest.raises(ValueError):
            is_hardy(grid_function(grid, np.ones(8)), 0.0)


class TestFromImaginaryPart:
    def test_sine_recovers_first_mode(self):
        grid = make_grid(8)
        h = from_imaginary_part(grid_function(grid, np.sin(grid.angles)))
        np.testing.assert_allclose(h.values, np.exp(1j * grid.angles), atol=1e-13)

    def test_zero_maps_to_zero(self):
        grid = make_grid(8)
        h = from_imaginary_part(grid_function(grid, np.zeros(8)))
        assert np.max(np.abs(h.values)) == 0.0

    @pytest.mark.parametrize("n", GRID_SIZES)
    def test_norm_doubling(self, n):
        # real parts of band-limited functions stay band-limited and mean-zero
        grid = make_grid(n)
        rng = np.random.default_rng(2 * n)
        y = grid_function(grid, random_band_limited(grid, rng).values.real)
        h = from_imaginary_part(y)
        assert is_hardy(h, 1e-10)
        assert l2_norm(h) == pytest.approx(np.sqrt(2) * l2_norm(y), rel=1e-12)

    def test_rejections(self):
        grid = make_grid(8)
        with pytest.raises(ValueError):
            from_imaginary_part(grid_function(grid, 1j * np.sin(grid.angles)))
        with pytest.raises(ValueError):
            from_imaginary_part(grid_function(grid, np.sin(grid.angles) + 1.0))
        nyquist = np.exp(1j * (-4) * grid.angles)
        with pytest.raises(ValueError):
            from_imaginary_part(grid_function(grid, (1j * nyquist).real * 2))


class TestRecoveryIdentities:
    @pytest.mark.parametrize("n", GRID_SIZES)
    def test_even_part_recovery(self, n):
        # for analytic band-limited h with u its even part, (I + iH)u = h
        grid = make_grid(n)
        h = random_band_limited(grid, np.random.default_rng(7 * n), analytic=True)
        u = grid_function(grid, 0.5 * (h.values + h.values[::-1]))
        recovered = u.values + 1j * hilbert(u).values
        assert np.max(np.abs(recovered - h.values)) < 1e-12 * max(1.0, l2_norm(h))

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_imaginary_part_carries_half_energy(self, n):
        grid = make_grid(n)
        rng = np.random.default_rng(11 * n)
        h = random_band_limited(grid, rng, analytic=True)
        w = np.exp(1j * rng.uniform(0, 2 * np.pi))
        w /= abs(w)
        im = grid_function(grid, (w * h.values).imag)
        assert l2_norm(h) == pytest.approx(np.sqrt(2) * l2_norm(im), rel=1e-12)
