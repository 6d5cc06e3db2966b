import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import (
    EnsembleConfig,
    arith_sample_batch,
    ensemble_chunk,
    is_hardy,
    is_hardy_martingale,
    make_grid,
    random_adapted_phases,
    random_hardy_function,
    random_coefficient_arrays,
    random_hardy_martingale,
    random_phase_angle_arrays,
)
from hardylab.ensembles import (ARITH_STRATA, _child_seeds, _complex_normal, _differences,
                                _seed_words_type, _stream_seeds, _unit, chunk_seed_words,
                                draw_chunk)
from hardylab import ensembles
from hardylab.martingale import _levels
from hardylab.torus import _WorkingSet

import oracles


class TestConfigValidation:
    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            EnsembleConfig(seed=1, n_points=6)

    def test_rejects_nyquist_degree(self):
        with pytest.raises(ValueError, match="Nyquist"):
            EnsembleConfig(seed=1, n_points=8, max_degree=4)
        EnsembleConfig(seed=1, n_points=8, max_degree=3)  # boundary is fine

    def test_rejects_guard_and_non_integer_sizes_at_construction(self):
        with pytest.raises(ValueError, match="memory guard"):
            EnsembleConfig(seed=1, n_points=128, depth=4)
        with pytest.raises(ValueError, match="depth"):
            EnsembleConfig(seed=1, n_points=8, depth=2.0)
        with pytest.raises(ValueError, match="max_degree"):
            EnsembleConfig(seed=1, n_points=8, max_degree=2.5)
        # depth 1 holds 8192 entries, but generation reads an 8192 x 8192 table
        with pytest.raises(ValueError, match="memory guard: the 8192x8192 character table"):
            EnsembleConfig(seed=0, n_points=8192)
        assert "characters" not in make_grid(8192).__dict__

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            EnsembleConfig(seed=1, n_points=8, depth=0)

    @pytest.mark.parametrize("seed", [7.9, True, "7"])
    def test_seed_must_be_an_integer(self, seed):
        # a float, bool or string would be cast to an integer stream
        with pytest.raises(ValueError, match="seed"):
            EnsembleConfig(seed=seed, n_points=8)

    def test_seed_has_no_upper_cap(self):
        # 2**70 draws its own stream, not that of 0 = 2**70 mod 2**64
        big, zero = (random_hardy_function(EnsembleConfig(seed=s, n_points=8)) for s in (2**70, 0))
        assert not np.array_equal(big.values, zero.values)


class TestHardyFunction:
    def test_deterministic(self):
        cfg = EnsembleConfig(seed=123, n_points=16, max_degree=5)
        a = random_hardy_function(cfg)
        b = random_hardy_function(cfg)
        np.testing.assert_array_equal(a.values, b.values)

    def test_seed_changes_output(self):
        a = random_hardy_function(EnsembleConfig(seed=1, n_points=16, max_degree=5))
        b = random_hardy_function(EnsembleConfig(seed=2, n_points=16, max_degree=5))
        assert np.max(np.abs(a.values - b.values)) > 1e-3

    def test_always_analytic(self):
        for seed in range(20):
            cfg = EnsembleConfig(seed=seed, n_points=16, max_degree=7)
            assert is_hardy(random_hardy_function(cfg), 1e-12)

    def test_degree_one_single_mode(self):
        cfg = EnsembleConfig(seed=5, n_points=8, max_degree=1)
        h = random_hardy_function(cfg)
        grid = h.grid
        c = h.values * np.exp(-1j * grid.angles)
        assert np.max(np.abs(c - c[0])) < 1e-13  # h = c * e^{i theta}


class TestHardyMartingale:
    def test_depth_one_reduces_to_function(self):
        cfg = EnsembleConfig(seed=44, n_points=8, depth=1, max_degree=3)
        field = random_hardy_martingale(cfg)
        fn = random_hardy_function(cfg)
        np.testing.assert_array_equal(field.terminal, fn.values)

    def test_deterministic(self):
        cfg = EnsembleConfig(seed=7, n_points=8, depth=3, max_degree=3)
        a = random_hardy_martingale(cfg)
        b = random_hardy_martingale(cfg)
        np.testing.assert_array_equal(a.terminal, b.terminal)

    @pytest.mark.parametrize("seed", range(10))
    def test_always_hardy(self, seed):
        cfg = EnsembleConfig(seed=seed, n_points=8, depth=3, max_degree=3)
        assert is_hardy_martingale(random_hardy_martingale(cfg), 1e-10)

    def test_martingale_property(self):
        cfg = EnsembleConfig(seed=3, n_points=16, depth=2, max_degree=5)
        for d in random_hardy_martingale(cfg).diffs:
            assert np.max(np.abs(d.mean(axis=-1))) < 1e-12

    def test_memory_guard(self):
        with pytest.raises(ValueError, match="memory guard"):
            random_hardy_martingale(
                EnsembleConfig(seed=1, n_points=128, depth=4, max_degree=3)
            )



class TestDifferencesRows:
    # (N, depth, samples M, degree); level 1 alone at N = 64 is a one-row product per sample
    CASES = ([(4, depth, 3, 1) for depth in range(1, 5)]
             + [(8, depth, 2, 3) for depth in range(1, 5)]
             + [(16, depth, 2, 7) for depth in range(1, 5)]
             + [(64, depth, 2, 3) for depth in range(1, 4)]
             + [(64, 1, count, 31) for count in (1, 3, 7)])

    @pytest.mark.parametrize("n, depth, count, degree", CASES)
    def test_each_level_is_its_own_product_bit_for_bit(self, n, depth, count, degree):
        grid = make_grid(n)
        rng = np.random.default_rng(n * depth + count)
        blocks = [rng.standard_normal((count, n ** (k - 1), 2 * degree)).view(complex)
                  for k in range(1, depth + 1)]
        rows = _differences(grid, blocks)
        assert rows.shape == (count, sum(n**k for k in range(depth)), n)
        for k, (c, diff) in enumerate(zip(blocks, _levels(rows, n)), start=1):
            expected = (c @ grid.analytic_modes(degree)).reshape((count,) + (n,) * k)
            assert np.array_equal(diff.view(np.uint64), expected.view(np.uint64))


class TestAdaptedPhases:
    def test_unimodular_to_the_last_ulp(self):
        cfg = EnsembleConfig(seed=8, n_points=8, depth=3)
        phases = random_adapted_phases(cfg)
        for k, w in enumerate(phases.terms):
            assert w.shape == (8,) * k
            assert np.max(np.abs(np.abs(w) - 1.0)) <= 5e-16

    def test_deterministic(self):
        cfg = EnsembleConfig(seed=8, n_points=8, depth=2)
        a = random_adapted_phases(cfg)
        b = random_adapted_phases(cfg)
        for x, y in zip(a.terms, b.terms):
            np.testing.assert_array_equal(x, y)


def bits(x):
    """x as uint64 words, so equal values compare bit for bit (signed zeros, NaNs)."""
    return np.ascontiguousarray(x).view(np.uint64)


class TestRealScalings:
    """_unit and _complex_normal scale real and imaginary parts by a real
    reciprocal where numpy's complex division used to, with the same bits."""

    def test_unit_equals_the_complex_division(self):
        rng = np.random.default_rng(31)
        phi = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, 10**6), rng.uniform(-1e6, 1e6, 10**5),
                              [0.0, -0.0, 5e-324, np.pi, 2.0 * np.pi, 1e6, -1e6, 1e-300]])
        w = np.exp(1j * phi)
        assert np.array_equal(bits(_unit(phi)), bits(w / np.abs(w)))
        grid_shaped = phi[:8 * 64].reshape(8, 8, 8)  # any shape, as per-level angles come
        w = np.exp(1j * grid_shaped)
        assert np.array_equal(bits(_unit(grid_shaped)), bits(w / np.abs(w)))

    @pytest.mark.parametrize("phi", [0.3, -2.5, np.float64(1e5), np.array(4.0), 0])
    def test_a_scalar_angle_gives_a_scalar(self, phi):
        w = np.exp(1j * np.asarray(phi, dtype=float))
        unit = _unit(phi)
        assert isinstance(unit, np.complex128)
        assert np.array_equal(bits(np.array(unit)), bits(np.array(w / np.abs(w))))

    def test_complex_normal_equals_the_complex_division(self):
        rng = np.random.default_rng(32)
        normals = rng.standard_normal((2, 10**6))
        # every pair of zeros of both signs, subnormals and plain normals
        special = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1060, -1e-310, 0.7, -1.3]
        pairs = np.array([(x, y) for x in special for y in special]).T
        normals[:, :pairs.shape[1]] = pairs
        re, im = normals
        z = 1j * im
        z += re
        z /= np.sqrt(2.0)
        assert np.array_equal(bits(_complex_normal(re, im)), bits(z))
        # strided halves of one draw, as draw_chunk passes them
        block = rng.standard_normal((3, 2, 5, 4))
        block[1, :, 2] = -0.0
        re, im = block[:, 0], block[:, 1]
        z = 1j * im
        z += re
        z /= np.sqrt(2.0)
        assert np.array_equal(bits(_complex_normal(re, im)), bits(z))


class TestArithSampler:
    def test_deterministic(self):
        cfg = EnsembleConfig(seed=9, n_points=8)
        for x, y in zip(arith_sample_batch(cfg, 1), arith_sample_batch(cfg, 1)):
            np.testing.assert_array_equal(x, y)

    def test_first_sample_degenerate(self):
        (mu,), (b,), (w,) = arith_sample_batch(EnsembleConfig(seed=10, n_points=8), 1)
        assert mu == 0.0 and b == 0.0 and abs(abs(w) - 1.0) <= 5e-16

    def test_strata_coverage(self):
        # every (mu, b) magnitude pair appears within any window of 25 draws
        cfg = EnsembleConfig(seed=11, n_points=8)
        mu, b, w = arith_sample_batch(cfg, 1000)

        def stratum(values):
            mags = np.abs(values)
            out = np.full(len(values), -1)
            for s, target in enumerate(ARITH_STRATA):
                if target == 0.0:
                    out[mags == 0.0] = s
                else:
                    matches = (mags > target / 100) & (mags < target * 100)
                    out[matches & (out == -1)] = s
            return out

        pairs = set(zip(stratum(mu)[:25].tolist(), stratum(b)[:25].tolist()))
        assert len(pairs) == 25
        assert np.max(np.abs(np.abs(w) - 1.0)) <= 5e-16

    def test_heavy_tail_strata_present(self):
        cfg = EnsembleConfig(seed=12, n_points=8)
        mu, b, _ = arith_sample_batch(cfg, 100)
        mags = np.abs(np.concatenate([mu, b]))
        assert np.any(mags == 0.0)
        assert np.any((mags > 0) & (mags < 1e-12))
        assert np.any(mags > 100.0)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            arith_sample_batch(EnsembleConfig(seed=1, n_points=8), 0)


def _numpy_stream_words(child, key):
    return np.random.SeedSequence(entropy=child, spawn_key=key).generate_state(4, np.uint64)


class TestChunkSeeding:
    """ensemble_chunk runs numpy's SeedSequence hash over arrays; every child seed,
    every stream's seed words and every draw must equal numpy's own, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 12345, 2**40 + 3, 2**70])  # 1, 1, 2 and 3 words
    @pytest.mark.parametrize("first", [0, 2**32 - 2, 2**32, 2**64 - 3])
    def test_child_seeds_match_seed_sequence(self, seed, first):
        # first = 2**32 - 2 spans the one-word/two-word boundary of the sample index
        got = _child_seeds(seed, 20, first, 3)
        assert got.dtype == np.uint64
        assert got.tolist() == [oracles.child_seed(seed, 20, i) for i in range(first, first + 3)]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**100), tag=st.integers(0, 2**40),
           first=st.integers(0, 2**64 - 7), count=st.integers(1, 7))
    def test_child_seeds_match_for_any_run(self, seed, tag, first, count):
        expected = [oracles.child_seed(seed, tag, i) for i in range(first, first + count)]
        assert _child_seeds(seed, tag, first, count).tolist() == expected

    @pytest.mark.parametrize("child", [0, 2**32 - 1, 2**32, 2**64 - 1])
    def test_stream_words_match_seed_sequence(self, child):
        keys = [(0, 1), (0, 4), (1, 0), (1, 3)]
        words = _stream_seeds(np.array([child], np.uint64), keys)[0]
        for key, w in zip(keys, words):
            assert np.array_equal(w, _numpy_stream_words(child, key))
            seq = np.random.SeedSequence(entropy=child, spawn_key=key)
            assert np.random.PCG64(_seed_words_type()(w[np.newaxis])).state == np.random.PCG64(seq).state

    def test_importing_the_package_leaves_numpy_random_unloaded(self):
        # SeedWords subclasses a numpy.random class, so it is built on first use:
        # a run that draws nothing pays no numpy.random import
        code = "import sys, hardylab; sys.exit('numpy.random' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], timeout=60).returncode == 0

    @pytest.mark.parametrize("key", [(0, 1), (1, 0), (1, 3)])
    def test_one_seed_words_seeds_each_row_in_turn(self, key):
        # draw_chunk builds one SeedWords per stream key and a PCG64 per row on it
        children = [0, 7, 2**32 - 1, 2**32, 2**64 - 1]
        seeds = _seed_words_type()(_stream_seeds(np.array(children, np.uint64), [key])[:, 0])
        for child in children:
            seq = np.random.SeedSequence(entropy=child, spawn_key=key)
            assert np.random.PCG64(seeds).state == np.random.PCG64(seq).state

    @settings(max_examples=60, deadline=None)
    @given(children=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
           keys=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 30)), min_size=1, max_size=4))
    def test_stream_words_match_for_any_child(self, children, keys):
        words = _stream_seeds(np.array(children, np.uint64), keys)
        assert words.shape == (len(children), len(keys), 4)
        for row, child in zip(words, children):
            for w, key in zip(row, keys):
                assert np.array_equal(w, _numpy_stream_words(child, key))

    @pytest.mark.parametrize("count", [1, 2, 3, 7])
    @pytest.mark.parametrize("seed, shape, first", [
        (2**70, (8, 3, 3), 5), (0, (4, 2, 1), 0), (12345, (16, 1, 7), 2**32 - 3)])
    def test_chunk_equals_a_per_sample_loop(self, count, seed, shape, first):
        n, depth, degree = shape
        cfg = EnsembleConfig(seed, n, depth, degree)
        blocks, angles = ensemble_chunk(cfg, 20, first, count)
        assert [c.shape for c in blocks] == [(count, n ** (k - 1), degree) for k in range(1, depth + 1)]
        assert [a.shape for a in angles] == [(count,) + (n,) * k for k in range(depth)]
        for j in range(count):
            alone = oracles.sample_ensemble(cfg, 20, first + j, depth)
            for x, y in zip(blocks, random_coefficient_arrays(alone), strict=True):
                assert np.array_equal(x[j], y)
            for x, y in zip(angles, random_phase_angle_arrays(alone), strict=True):
                assert np.array_equal(x[j], y)

    @pytest.mark.parametrize("phases", [True, False])
    @pytest.mark.parametrize("first", [0, 2**32 - 5, 2**64 - 9])
    def test_a_span_cut_into_chunks_equals_each_chunk(self, first, phases):
        # the seed words of a span, hashed at once, then drawn chunk by chunk;
        # the span from 2**32 - 5 crosses the one-word/two-word sample index
        cfg = EnsembleConfig(2**70, 8, 2, 3)
        words = chunk_seed_words(cfg, 9, first, 9, phases)
        assert words.shape == (9, 4 if phases else 2, 4)
        for start in range(0, 9, 4):
            got = draw_chunk(cfg, words[start:start + 4])
            want = ensemble_chunk(cfg, 9, first + start, min(4, 9 - start), phases)
            for x, y in zip(got[0] + got[1], want[0] + want[1], strict=True):
                assert np.array_equal(x.view(np.uint64), y.view(np.uint64))

    def test_without_phases_the_coefficients_are_the_same(self):
        cfg = EnsembleConfig(7, 8, 2, 3)
        blocks, angles = ensemble_chunk(cfg, 3, 0, 4, phases=False)
        assert angles == []
        for x, y in zip(blocks, ensemble_chunk(cfg, 3, 0, 4)[0], strict=True):
            assert np.array_equal(x, y)

    def test_silent_under_warnings_as_errors(self):
        # uint32 products overflow by design; on numpy scalars they would warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for count in (1, 5):
                ensemble_chunk(EnsembleConfig(2**64 - 1, 8, 2, 3), 2**32 - 1, 2**64 - count, count)

    @pytest.mark.parametrize("tag, first, count", [
        (-1, 0, 1), (0, -1, 1), (0, 0, 0), (0, 1.0, 1), (0, 2**64 - 1, 2)])
    def test_rejects_bad_sample_ranges(self, tag, first, count):
        with pytest.raises(ValueError):
            ensemble_chunk(EnsembleConfig(1, 8), tag, first, count)


def assert_same_draws(got, want):
    for x, y in zip(got, want, strict=True):
        assert x.shape == y.shape
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64))


class TestHelperThreadDraw:
    """A chunk of at least ensembles._HELPER_COEFFICIENTS deepest coefficients
    draws its coefficient streams on a helper thread: the same streams, the
    same bits, and the thread is gone when draw_chunk returns."""

    @pytest.mark.parametrize("seed, shape, first, count", [
        (2**70, (8, 3, 3), 5, 1), (0, (8, 3, 3), 0, 4), (12345, (16, 2, 7), 2**32 - 2, 3),
        (9, (4, 1, 1), 0, 2)])
    def test_helper_draw_equals_the_chunk(self, monkeypatch, thread_starts, seed, shape, first,
                                          count):
        n, depth, degree = shape
        cfg = EnsembleConfig(seed, n, depth, degree)
        blocks, angles = ensemble_chunk(cfg, 20, first, count)  # below the rule
        assert thread_starts == []
        monkeypatch.setattr(ensembles, "_HELPER_COEFFICIENTS", 1)
        words = chunk_seed_words(cfg, 20, first, count)
        for work in (None, _WorkingSet()):
            got = draw_chunk(cfg, words, work)
            assert_same_draws(got[0] + got[1], blocks + angles)
            got = draw_chunk(cfg, words, work, multipliers=True)
            assert_same_draws(got[0] + got[1], blocks + [_unit(phi) for phi in angles])
        assert len(thread_starts) == 4
        assert not any(t.is_alive() for t in thread_starts)

    def test_a_held_working_set_under_fast_switching(self, monkeypatch):
        # the helper reads the working set's buffers while the calling thread
        # adds its own; chunk after chunk through one set, with the interpreter
        # switching threads every microsecond, every draw equals the serial one
        cfg = EnsembleConfig(5, 8, 3, 3)
        words = chunk_seed_words(cfg, 1, 0, 24)
        want = [draw_chunk(cfg, words[i:i + 3], multipliers=True) for i in range(0, 24, 3)]
        monkeypatch.setattr(ensembles, "_HELPER_COEFFICIENTS", 1)
        work, interval = _WorkingSet(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                for i, (blocks, terms) in zip(range(0, 24, 3), want):
                    got = draw_chunk(cfg, words[i:i + 3], work, multipliers=True)
                    assert_same_draws(got[0] + got[1], blocks + terms)
        finally:
            sys.setswitchinterval(interval)

    def test_the_rule_counts_the_deepest_coefficients(self, monkeypatch, thread_starts):
        cfg = EnsembleConfig(3, 8, 3, 3)  # 8^2 * 3 = 192 deepest coefficients per sample
        words = chunk_seed_words(cfg, 0, 0, 4)
        monkeypatch.setattr(ensembles, "_HELPER_COEFFICIENTS", 4 * 192 + 1)
        draw_chunk(cfg, words)
        assert thread_starts == []
        monkeypatch.setattr(ensembles, "_HELPER_COEFFICIENTS", 4 * 192)
        draw_chunk(cfg, words)
        assert len(thread_starts) == 1

    def test_an_error_on_the_helper_is_raised_by_the_caller(self, monkeypatch):
        cfg = EnsembleConfig(3, 8, 2, 3)
        words = chunk_seed_words(cfg, 0, 0, 2)
        monkeypatch.setattr(ensembles, "_HELPER_COEFFICIENTS", 1)
        caller, raised_on = threading.get_ident(), []

        def broken(*args):
            raised_on.append(threading.get_ident())
            raise RuntimeError("no normals")

        monkeypatch.setattr(ensembles, "_normal_halves", broken)  # the helper's whole task
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^no normals$"):
            draw_chunk(cfg, words, multipliers=True)
        assert raised_on and caller not in raised_on
        assert threading.active_count() == before

    def test_an_error_after_the_real_halves_is_raised_by_the_caller(self, monkeypatch):
        # the caller has scaled the real halves and waits at the join
        cfg = EnsembleConfig(3, 8, 2, 3)
        words = chunk_seed_words(cfg, 0, 0, 2)
        monkeypatch.setattr(ensembles, "_HELPER_COEFFICIENTS", 1)

        def broken(rngs, normals, landed):
            landed.set()
            raise RuntimeError("no imaginary halves")

        monkeypatch.setattr(ensembles, "_normal_halves", broken)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^no imaginary halves$"):
            draw_chunk(cfg, words, multipliers=True)
        assert threading.active_count() == before

    def test_an_error_on_the_caller_joins_the_helper(self, monkeypatch):
        cfg = EnsembleConfig(3, 8, 2, 3)
        words = chunk_seed_words(cfg, 0, 0, 2)
        monkeypatch.setattr(ensembles, "_HELPER_COEFFICIENTS", 1)

        def broken(*args):
            raise RuntimeError("no multipliers")

        monkeypatch.setattr(ensembles, "_unit", broken)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^no multipliers$"):
            draw_chunk(cfg, words, multipliers=True)
        assert threading.active_count() == before
