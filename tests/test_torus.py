import re
import tracemalloc

import numpy as np
import pytest

from hardylab import GridFunction, inner_product, is_hardy, make_grid, sigma
from hardylab.torus import _rows_are_hardy

GRID_SIZES = [4, 8, 16, 32, 64, 128]


def grid_function(grid, values):
    return GridFunction(grid, np.asarray(values, dtype=complex))


def random_band_limited(grid, rng):
    """Random analytic function supported on 1 <= m <= N/2 - 1."""
    n = grid.n_points
    coeffs = np.zeros(n, dtype=complex)
    idx = np.arange(-n // 2, n // 2)
    band = (idx >= 1) & (idx <= n // 2 - 1)
    coeffs[band] = rng.standard_normal(band.sum()) + 1j * rng.standard_normal(band.sum())
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


class TestCharacterTable:
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
        # every table the grid caches, and every array a constructor stores, is
        # read-only; the stored ones are copies of the caller's input
        for cached in (grid.angles, grid.sign_values, grid.frequencies):
            assert not cached.flags.writeable
        given = np.arange(n, dtype=complex)
        stored = GridFunction(grid, given).values
        assert not stored.flags.writeable and not np.shares_memory(stored, given)

    def test_stored_values_must_have_the_grid_shape(self):
        with pytest.raises(ValueError, match=re.escape("values must have shape (4,); got (5,)")):
            GridFunction(make_grid(4), np.zeros(5))

    def test_grid_size_is_guarded(self):
        # N itself is bounded by the guard: the grid's angles, signs and every
        # N-entry function would otherwise be as large as N; refused before any allocation
        assert make_grid(2**24).n_points == 2**24
        tracemalloc.start()
        try:
            for n in (2**24 + 4, 2**40):
                with pytest.raises(ValueError, match=f"memory guard: n_points = {n} exceeds"):
                    make_grid(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_character_table_is_guarded(self):
        # 8192^2 entries exceed the guard: refused before any allocation, by
        # the table itself and so by the Hardy gate that reads it
        grid = make_grid(8192)
        f = GridFunction(grid, np.zeros(8192))
        tracemalloc.start()
        try:
            for call in (lambda: grid.characters, lambda: is_hardy(f, 1e-8)):
                with pytest.raises(ValueError, match="memory guard: the 8192x8192 character table"):
                    call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20 and "characters" not in grid.__dict__


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
        assert np.mean(s.values) == 0.0
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
        # a NaN tol would fail even e^{i theta}, an infinite one pass e^{-i theta}
        grid = make_grid(8)
        for tol in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                is_hardy(grid_function(grid, np.ones(8)), tol)


    def test_the_gate_copies_no_part_of_the_character_table(self):
        # one N1024 row against the table itself: a conjugated copy of the table's
        # analytic half, made on every call, took 8 MiB here
        grid = make_grid(1024)
        hardy, other = (grid_function(grid, np.exp(1j * m * grid.angles)) for m in (1, -1))
        assert is_hardy(hardy, 1e-9)  # the table is built outside the trace
        tracemalloc.start()
        try:
            verdicts = is_hardy(hardy, 1e-9), is_hardy(other, 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdicts == (True, False)
        assert peak < 2**18

    @pytest.mark.parametrize("scale", [None, np.array([[2.0**-1030], [1.0], [2.0**1000]])])
    def test_the_gate_leaves_its_rows_unchanged(self, scale):
        # the gate squares its own temporaries in place, never the caller's rows
        grid = make_grid(8)
        rows = np.random.default_rng(3).standard_normal((3, 4, 16)).view(complex)
        rows[0] *= 2.0**-1030
        rows[1, 2, 5] = np.nan
        before = rows.copy()
        _rows_are_hardy(grid, rows, 1e-8, scale)
        assert np.array_equal(rows.view(np.uint64), before.view(np.uint64))


class TestRecoveryIdentities:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_imaginary_part_carries_half_energy(self, n):
        grid = make_grid(n)
        rng = np.random.default_rng(11 * n)
        h = random_band_limited(grid, rng)
        w = np.exp(1j * rng.uniform(0, 2 * np.pi))
        w /= abs(w)
        im = (w * h.values).imag
        assert np.linalg.norm(h.values) == pytest.approx(np.sqrt(2) * np.linalg.norm(im), rel=1e-12)
