"""The lemmas and identities suites evaluate chunks of samples at once.

Every recorded side must equal, bit for bit, what the public single-sample
functions give for that sample alone, drawn through numpy's own per-sample
seeding (tests/oracles.py).  The Hardy gates of a block of rows give each row
the verdict, or the error, that the row gets alone.
"""

import tracemalloc
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import (
    AdaptedPhases,
    EnsembleConfig,
    GridFunction,
    HarnessConfig,
    check_transform_isometry,
    cosine_part,
    decomposition_sides,
    ensemble_chunk,
    field_from_differences,
    is_hardy,
    is_hardy_martingale,
    make_grid,
    MartingaleField,
    martingale_from_coefficients,
    perturbation_bounds,
    previsible_norm,
    random_adapted_phases,
    random_coefficient_arrays,
    random_hardy_function,
    random_hardy_martingale,
    sincos_identity_sides,
    transform,
)
from hardylab import cli, harness, martingale, torus
from hardylab.inequalities import _perturbation_rows, _sincos_rows, _split_rows
from hardylab.martingale import (
    HARDY_GATE_TOL,
    _are_hardy,
    _built_rows,
    _isometry_norms,
    _level_bounds,
    _level_pieces,
    _levels,
    _scale_bound,
)
from hardylab.torus import _rows_are_hardy
from oracles import sample_ensemble

SHAPES = [(4, 1, 1), (8, 2, 3), (16, 3, 5), (16, 1, 7), (64, 1, 31)]
CAP = 3  # samples per chunk at most, by grid entries, in every suite


def patch_sizes(monkeypatch, config, depth, chunk):
    """Chunks of `chunk` samples by coefficients and phases at the given depth,
    and of at most CAP samples by grid entries, in the depth-1 suites and in
    the isometry suite at that depth."""
    n, degree = config.n_points, config.max_degree
    monkeypatch.setattr(harness, "_BLOCK_ENTRIES", CAP * n)
    monkeypatch.setattr(harness, "_ISOMETRY_ENTRIES", CAP * sum(n**k for k in range(1, depth + 1)))
    monkeypatch.setattr(harness, "_CHUNK_ENTRIES",
                        chunk * (degree + 1) * sum(n**k for k in range(depth)))


def shift_alone(rng):
    """The shift b of one sample of the integral suites, drawn by itself."""
    return complex(rng.standard_normal() + 1j * rng.standard_normal())


def draws_alone(rng):
    """The shift b and the multiplier w of one sample, drawn by themselves: w is
    e^{i phi}, phi uniform on [0, 2 pi), renormalized in Python-complex arithmetic."""
    b = shift_alone(rng)
    w = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
    return b, w / abs(w)


def lemma_sides_alone(config):
    rng = harness._scalar_rng(config, 101)
    sides = []
    for i in range(config.samples):
        h = random_hardy_function(sample_ensemble(config, 11, i, 1))
        rep = perturbation_bounds(h, *draws_alone(rng))
        sides.append((rep.shift_lhs, rep.shift_rhs, rep.rotation_lhs, rep.rotation_rhs,
                      rep.split_rhs))
    return np.array(sides)


def identity_sides_alone(config):
    rng = harness._scalar_rng(config, 100)
    sides = np.empty((3, config.samples, 3))
    for i in range(config.samples):
        h = random_hardy_function(sample_ensemble(config, 0, i, 1))
        rep = sincos_identity_sides(h, *draws_alone(rng))
        sides[0, i] = rep.lhs, rep.rhs, rep.rhs
    for i in range(config.samples):
        h = random_hardy_function(sample_ensemble(config, 1, i, 1))
        lhs, rhs = decomposition_sides(h, shift_alone(rng))
        sides[1, i] = lhs, rhs, rhs
    for i in range(config.samples):
        cfg = sample_ensemble(config, 2, i, config.depth)
        field = random_hardy_martingale(cfg)
        lhs, rhs = check_transform_isometry(field, random_adapted_phases(cfg))
        sides[2, i] = lhs, rhs, previsible_norm(field)
    return sides


def lemma_sides(config):
    """The shift_lhs, shift_rhs, rotation_lhs, rotation_rhs and split_rhs of
    the reports that harness._lemma_sides yields chunk by chunk, joined into
    shape (samples, 5); a sample it does not yield stays NaN."""
    sides = np.full((config.samples, 5), np.nan)
    for rows, rep in harness._lemma_sides(config):
        sides[rows] = np.transpose([rep.shift_lhs, rep.shift_rhs, rep.rotation_lhs,
                                    rep.rotation_rhs, rep.split_rhs])
    return sides


def identity_sides(config):
    """The sides that harness._identity_sides yields chunk by chunk, joined into
    shape (suites, samples, 3), each chunk copied as it comes (the isometry
    suite's are views of its working set); a sample it does not yield stays NaN."""
    sides = np.full((3, config.samples, 3), np.nan)
    for suite, rows, chunk in harness._identity_sides(config):
        sides[harness._IDENTITY_SUITES.index(suite), rows] = np.transpose(chunk)
    return sides


def recorded_chunks(monkeypatch):
    """Spy on harness._chunks: every call appends the list of sample slices it
    yields to the returned list, one list per suite, in the suites' order."""
    calls, inner = [], harness._chunks

    def spy(*args, **kwargs):
        calls.append([])
        for cut, blocks, angles in inner(*args, **kwargs):
            calls[-1].append(cut)
            yield cut, blocks, angles

    monkeypatch.setattr(harness, "_chunks", spy)
    return calls


def tiling(samples, size):
    """Slices of `size` samples from 0, the last one cut at `samples`."""
    return [slice(start, min(start + size, samples)) for start in range(0, samples, size)]


@pytest.mark.parametrize("samples", [1, CAP - 1, CAP, CAP + 1])
@pytest.mark.parametrize("chunk", [2, 5])  # below CAP the coefficients bind, above it the grid
@pytest.mark.parametrize("n, depth, degree", SHAPES)
class TestEverySample:
    def test_lemmas(self, monkeypatch, n, depth, degree, chunk, samples):
        config = HarnessConfig(n_points=n, depth=depth, max_degree=degree, samples=samples,
                               seed=20260809)
        patch_sizes(monkeypatch, config, 1, chunk)
        chunks = recorded_chunks(monkeypatch)
        assert np.array_equal(lemma_sides(config), lemma_sides_alone(config))
        assert chunks == [tiling(samples, min(chunk, CAP))]

    def test_identities(self, monkeypatch, n, depth, degree, chunk, samples):
        config = HarnessConfig(n_points=n, depth=depth, max_degree=degree, samples=samples,
                               seed=2**70)
        patch_sizes(monkeypatch, config, depth, chunk)
        chunks = recorded_chunks(monkeypatch)
        assert np.array_equal(identity_sides(config), identity_sides_alone(config))
        # _CHUNK_ENTRIES fits `chunk` samples at depth, so at depth 1 as many
        # samples as those have newest-coordinate slices
        depth_1 = tiling(samples, min(chunk * sum(n**k for k in range(depth)), CAP))
        assert chunks == [depth_1, depth_1, tiling(samples, min(chunk, CAP))]


# Samples per chunk at the default sizes, suite by suite: the lemmas and
# identities shapes of the benchmark, a shape where the isometry suite's grid
# entries bind (15 samples, against 63 by coefficients), and theorem's.
@pytest.mark.parametrize("command, settings, sizes", [
    ("lemmas", dict(n_points=16, max_degree=7), [256]),
    ("identities", dict(n_points=16, depth=3, max_degree=5), [256, 256, 10]),
    ("identities", dict(n_points=64, depth=2, max_degree=3), [64, 64, 15]),
    ("theorem", dict(n_points=8, depth=3, max_degree=3), [56]),
])
def test_chunks_tile_the_samples(monkeypatch, command, settings, sizes):
    # each suite evaluates chunks of C samples, the same C whatever the sample
    # count, at multiples of C: checked at 1, C - 1, C, C + 1 and 2C + 1 samples
    run = {"lemmas": lemma_sides, "identities": identity_sides,
           "theorem": harness.cmd_theorem}[command]
    chunks = recorded_chunks(monkeypatch)
    counts = sorted({count for c in sizes for count in (1, c - 1, c, c + 1, 2 * c + 1)})
    for samples in counts:
        chunks.clear()
        run(HarnessConfig(samples=samples, seed=7, **settings))
        assert chunks == [tiling(samples, c) for c in sizes], samples


@pytest.mark.parametrize("phases", [True, False])
@pytest.mark.parametrize("samples", [1, 7, 23])
@pytest.mark.parametrize("chunk", [2, 5])
@pytest.mark.parametrize("n, depth, degree", [(4, 1, 1), (8, 2, 3), (16, 3, 5)])
def test_chunks_equal_ensemble_chunk(monkeypatch, n, depth, degree, chunk, samples, phases):
    # _chunks hashes the seed words of a span of whole chunks at once (at
    # (8, 2, 3) with 2-sample chunks, a span of 2 chunks); every chunk it
    # yields equals ensemble_chunk of that chunk alone, bit for bit
    config = HarnessConfig(n_points=n, depth=depth, max_degree=degree, samples=samples,
                           seed=2**70)
    patch_sizes(monkeypatch, config, depth, chunk)
    cfg = EnsembleConfig(config.seed, n, depth, degree)
    got = list(harness._chunks(config, 2, phases=phases))
    assert [cut for cut, _, _ in got] == tiling(samples, chunk)
    for cut, blocks, angles in got:
        count = cut.stop - cut.start
        want_blocks, want_angles = ensemble_chunk(cfg, 2, cut.start, count, phases)
        for x, y in zip(blocks + angles, want_blocks + want_angles, strict=True):
            assert x.shape[0] == count and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def recorded_draws(monkeypatch, name):
    """Spy on the harness's row function `name`: every call appends the draws
    it was given (b, and w if any) to the returned list."""
    calls, inner = [], getattr(harness, name)

    def spy(grid, values, *draws):
        calls.append(draws)
        return inner(grid, values, *draws)

    monkeypatch.setattr(harness, name, spy)
    return calls


def assert_same_bits(calls, expected):
    """The draws of every call, concatenated, equal the expected (b, ...) draws bit for bit."""
    for got, want in zip(zip(*calls), zip(*expected), strict=True):
        assert np.array_equal(np.concatenate(got).view(np.uint64),
                              np.array(want, dtype=np.complex128).view(np.uint64))


def test_numpy_complex_exp_is_elementwise():
    # the block's multipliers take one exp of all its angles: this is the
    # numpy property that keeps them the angles' own
    phi = 2 * np.pi * np.random.default_rng(4).random(100_003)
    alone = [np.exp(1j * x) for x in phi.tolist()]
    for start, stop in [(0, None), (1, None), (3, -2)]:  # every SIMD tail
        assert np.array_equal(np.exp(1j * phi[start:stop]), alone[start:stop])


@pytest.mark.parametrize("samples", [1, CAP - 1, CAP, CAP + 1])
@pytest.mark.parametrize("chunk", [2, 5])
class TestBlockDraws:
    """The scalar draws of a chunk equal, bit for bit, the same stream drawn one
    sample at a time (normal, normal, uniform), across chunk boundaries."""

    def config(self, monkeypatch, chunk, samples):
        config = HarnessConfig(n_points=8, depth=1, max_degree=3, samples=samples, seed=2**70)
        patch_sizes(monkeypatch, config, 1, chunk)
        return config

    def test_lemmas(self, monkeypatch, chunk, samples):
        config = self.config(monkeypatch, chunk, samples)
        calls = recorded_draws(monkeypatch, "_perturbation_rows")
        lemma_sides(config)
        assert len(calls) == len(tiling(samples, min(chunk, CAP)))
        rng = harness._scalar_rng(config, 101)
        assert_same_bits(calls, [draws_alone(rng) for _ in range(samples)])

    def test_identities(self, monkeypatch, chunk, samples):
        config = self.config(monkeypatch, chunk, samples)
        sincos = recorded_draws(monkeypatch, "_sincos_rows")
        split = recorded_draws(monkeypatch, "_split_rows")
        identity_sides(config)
        assert len(sincos) == len(split) == len(tiling(samples, min(chunk, CAP)))
        # one stream: the sincos suite's (b, w), then the split suite's shifts
        rng = harness._scalar_rng(config, 100)
        assert_same_bits(sincos, [draws_alone(rng) for _ in range(samples)])
        assert_same_bits(split, [(shift_alone(rng),) for _ in range(samples)])


class TestRowWiseGate:
    # 2^-1030 is subnormal: dividing a complex row by it must not overflow
    SCALES = (2.0**-1030, 2.0**-1000, 1.0, 2.0**1000, 0.0)

    def test_each_row_keeps_its_own_scale(self):
        grid = make_grid(8)
        analytic, conjugate = np.exp(1j * grid.angles), np.exp(-1j * grid.angles)
        rows = np.array([scale * f for scale in self.SCALES for f in (analytic, conjugate)])
        alone = [is_hardy(GridFunction(grid, row), 1e-8) for row in rows]
        assert alone == [True, False] * 4 + [True, True]
        assert _rows_are_hardy(grid, rows, 1e-8).tolist() == alone

    def test_each_martingale_keeps_its_own_scale(self):
        # one scale for the block would put the small samples' conjugate
        # level under the zero floor of the largest
        grid = make_grid(8)
        z = np.exp(1j * grid.angles)
        fields = []
        for scale in self.SCALES:
            fields.append(martingale_from_coefficients(grid, [scale * np.ones((1, 2)),
                                                              scale * np.ones((8, 3))]))
            fields.append(field_from_differences(grid, 2, 0.0, [scale * z,
                                                                scale * np.outer(z, z.conj())]))
        rows = np.stack([f.rows for f in fields])
        alone = [is_hardy_martingale(f, 1e-8) for f in fields]
        assert alone == [True, False] * 4 + [True, True]
        assert _are_hardy(grid, rows, _scale_bound(0.0, rows), 1e-8).tolist() == alone

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    @pytest.mark.parametrize("scale", [None, np.ones(3)])
    def test_a_non_finite_row_fails_alone(self, bad, scale):
        grid = make_grid(8)
        rows = np.array([np.exp(1j * grid.angles)] * 3)
        rows[1, 3] = bad
        assert _rows_are_hardy(grid, rows, 1e-8, scale).tolist() == [True, False, True]
        assert not is_hardy(GridFunction(grid, rows[1]), 1e-8)

    @pytest.mark.parametrize("mode", ["negative", "nyquist"])
    def test_a_non_hardy_row_mid_block_raises_as_alone(self, mode):
        grid = make_grid(8)
        rows = np.array([np.exp(1j * grid.angles)] * 5)
        rows[2] = np.exp(-1j * grid.angles) if mode == "negative" else grid.characters[0]
        b, w = np.full(5, 0.3 - 0.1j), np.full(5, 1j)
        h = GridFunction(grid, rows[2])
        for block, alone in [
            (lambda: _perturbation_rows(grid, rows, b, w),
             lambda: perturbation_bounds(h, b[2], w[2])),
            (lambda: _sincos_rows(grid, rows, b, w), lambda: sincos_identity_sides(h, b[2], w[2])),
            (lambda: _split_rows(grid, rows, b), lambda: decomposition_sides(h, b[2])),
        ]:
            with pytest.raises(ValueError) as from_block:
                block()
            with pytest.raises(ValueError) as from_alone:
                alone()
            assert str(from_block.value) == str(from_alone.value)

    def test_a_non_hardy_martingale_mid_block_raises_as_alone(self):
        grid = make_grid(8)
        config = HarnessConfig(n_points=8, depth=2, max_degree=3)
        fields = [random_hardy_martingale(sample_ensemble(config, 2, i, 2)) for i in range(5)]
        rows = np.stack([f.rows for f in fields])
        diffs = _levels(rows, 8)  # views of rows
        diffs[1][2] = diffs[1][2].conj()  # level 2 of sample 2 turns anti-analytic
        phases = random_adapted_phases(sample_ensemble(config, 2, 0, 2))
        with pytest.raises(ValueError) as from_block:
            _isometry_norms(grid, rows, [np.stack([w] * 5) for w in phases.terms])
        with pytest.raises(ValueError) as from_alone:
            check_transform_isometry(field_from_differences(grid, 2, 0.0, [d[2] for d in diffs]),
                                     phases)
        assert str(from_block.value) == str(from_alone.value)

    @pytest.mark.parametrize("fault", ["mean-1", "mean-3", "term-0", "term-2", "nan", "inf"])
    def test_an_isometry_failure_mid_block_raises_as_alone(self, fault):
        # sample 2 of a five-sample block fails one check; the block raises the
        # message that check_transform_isometry gives that sample alone (its
        # field and phases refuse it at construction)
        grid = make_grid(8)
        config = HarnessConfig(n_points=8, depth=3, max_degree=3)
        fields = [random_hardy_martingale(sample_ensemble(config, 2, i, 3)) for i in range(5)]
        phases = [random_adapted_phases(sample_ensemble(config, 2, i, 3)) for i in range(5)]
        rows = np.stack([f.rows for f in fields])
        diffs = _levels(rows, 8)  # views of rows
        terms = [np.stack([p.terms[k] for p in phases]) for k in range(3)]
        kind, _, level = fault.partition("-")
        if kind == "mean":
            diffs[int(level) - 1][2] += 0.25
        elif kind == "term":
            terms[int(level)].reshape(5, -1)[2, -1] *= 1.5  # a view: the stacks are contiguous
        else:
            diffs[1][2][3, 5] = np.nan if kind == "nan" else np.inf
        with pytest.raises(ValueError) as from_block:
            _isometry_norms(grid, rows, terms)
        with pytest.raises(ValueError) as from_alone:
            check_transform_isometry(field_from_differences(grid, 3, 0.0, [d[2] for d in diffs]),
                                     AdaptedPhases(grid, tuple(w[2] for w in terms)))
        assert str(from_block.value) == str(from_alone.value)
        assert {"mean": "difference", "term": "term", "nan": "finite",
                "inf": "finite"}[kind] in str(from_block.value)

    @pytest.mark.parametrize("argv, deepest_only", [
        ("lemmas --n-points 8 --samples 7", False),
        ("identities --n-points 8 --depth 2 --samples 7", False),
        ("identities --n-points 8 --depth 2 --samples 7", True),
    ], ids=["lemmas", "identities", "transform-isometry"])
    def test_the_cli_exits_one(self, monkeypatch, capsys, argv, deepest_only):
        # the conjugate of one sample's newest difference, in the middle of a
        # block: the depth-1 suites' rows are built by _differences, and the
        # isometry suite's walk is fed those rows in place of its coefficients
        differences, norms = harness._differences, harness._isometry_norms

        def corrupted(grid, blocks, *work):
            rows = differences(grid, blocks, *work)
            newest = _levels(rows, grid.n_points)[-1]  # a view of rows
            newest[len(rows) // 2] = newest[len(rows) // 2].conj()
            return rows

        if deepest_only:
            monkeypatch.setattr(harness, "_isometry_norms", lambda grid, blocks, *args, **kwargs:
                                norms(grid, corrupted(grid, blocks), *args, **kwargs))
        else:
            monkeypatch.setattr(harness, "_differences", corrupted)
        assert cli.main(argv.split()) == 1
        err = capsys.readouterr().err
        assert ("transform isometry" if deepest_only else "analytic") in err


def patch_slabs(monkeypatch, n, depth, cut):
    """Slabs of 3 rows (the isometry's walk cuts each level into runs of 3,
    or of its 2-row product blocks where it builds its rows), so that a
    sample spans several slabs (cut "rows"), or of 2 samples, so that a slab
    spans several samples (cut "samples")."""
    per_sample = n * sum(n**k for k in range(depth))
    entries = 3 * n if cut == "rows" else 2 * per_sample
    monkeypatch.setattr(martingale, "_SLAB_ENTRIES", entries)
    monkeypatch.setattr(martingale, "_WALK_ENTRIES", entries)


def as_bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("shape, entries", [
    ((5, 73, 8), 2 * 73 * 8 + 1), ((5, 73, 8), 3 * 8), ((5, 73, 8), 73 * 8),
    ((5, 73, 8), 8 - 1), ((2, 1, 4), 2**14)])
def test_slabs_tile_the_rows_in_order(shape, entries, monkeypatch):
    # whole samples where one fits, else runs of rows of one sample (at least
    # one row), each slab contiguous and within the entries where it can be
    monkeypatch.setattr(martingale, "_SLAB_ENTRIES", entries)
    order = np.arange(np.prod(shape[:2])).reshape(shape[:2])
    slabs = martingale._slabs(shape)
    assert np.array_equal(np.concatenate([order[s].ravel() for s in slabs]), order.ravel())
    for s in slabs:
        assert order[s].size * shape[2] <= max(entries, shape[2])
        assert np.empty(shape)[s].flags.c_contiguous


@pytest.mark.parametrize("cut", ["rows", "samples"])
@pytest.mark.parametrize("n, depth, degree", SHAPES + [(8, 5, 3), (64, 3, 31)])
def test_slabs_keep_every_isometry_side(monkeypatch, n, depth, degree, cut):
    # each sample alone, at the default slabs and through the previsible norms
    # of its cosine part and transform, which take no slabs
    config = HarnessConfig(n_points=n, depth=depth, max_degree=degree, samples=5, seed=2**70)
    grid = make_grid(n)
    cfgs = [sample_ensemble(config, 2, i, depth) for i in range(config.samples)]
    fields, phases = [random_hardy_martingale(c) for c in cfgs], [random_adapted_phases(c) for c in cfgs]
    alone = [(*check_transform_isometry(F, P), previsible_norm(F)) for F, P in zip(fields, phases)]
    parts = [(previsible_norm(cosine_part(F)), previsible_norm(transform(F, P)), previsible_norm(F))
             for F, P in zip(fields, phases)]
    assert np.array_equal(as_bits(alone), as_bits(parts))
    patch_sizes(monkeypatch, config, depth, 3)  # chunks of 3 samples
    patch_slabs(monkeypatch, n, depth, cut)
    rows = np.stack([F.rows for F in fields])
    terms = [np.stack(t) for t in zip(*(P.terms for P in phases))]
    assert np.array_equal(as_bits(np.transpose(_isometry_norms(grid, rows, terms))), as_bits(alone))
    assert np.array_equal(as_bits(identity_sides(config)[2]), as_bits(alone))


def row_peak_scale(base, rows):
    """The scale of rows, shape (M, R, N), by way of row peaks: each row's
    largest modulus, then each level's largest, summed after |base| in level order."""
    starts = martingale._level_bounds(rows.shape[-1], rows.shape[1])[:-1]
    return abs(base) + sum(np.maximum.reduceat(np.max(np.abs(rows), -1), starts, 1).T)


def scaled_fields(grid, config):
    """The rows of fields at the scales of TestRowWiseGate, Hardy and not, of shape
    (M, R, N) at the config's depth 2: the gate's cases and random martingales."""
    z = np.exp(1j * grid.angles)
    rows = []
    for i, scale in enumerate(TestRowWiseGate.SCALES):
        rows.append(martingale_from_coefficients(grid, [scale * np.ones((1, 2)),
                                                        scale * np.ones((8, 3))]).rows)
        rows.append(field_from_differences(grid, 2, 0.0, [scale * z,
                                                          scale * np.outer(z, z.conj())]).rows)
        rows.append(scale * random_hardy_martingale(sample_ensemble(config, 2, i, 2)).rows)
    return np.stack(rows)


@pytest.mark.parametrize("cut", ["rows", "samples", None])
def test_level_maxima_equal_the_row_peak_route(monkeypatch, cut):
    # max is exact, so one np.max per level and slab gives the scale of the row
    # peaks bit for bit, wherever the slabs fall; the isometry's scale is the
    # one its mean check gets
    grid, base = make_grid(8), 1.5 - 2j
    rows = scaled_fields(grid, HarnessConfig(n_points=8, depth=2, max_degree=3, seed=3))
    if cut is not None:
        patch_slabs(monkeypatch, 8, 2, cut)
    want = as_bits(row_peak_scale(base, rows))
    assert np.array_equal(as_bits(_scale_bound(base, rows)), want)
    seen, rule = [], martingale._mean_rule
    monkeypatch.setattr(martingale, "_mean_rule",
                        lambda drift, scale: seen.append(scale) or rule(drift, scale))
    terms = [np.ones((len(rows),) + (8,) * k, complex) for k in range(2)]
    # the rows at 2^-1030, 2^-1000 and 2^1000 lie beyond the scale window, which
    # the batch refuses right after the mean check, before any gate or norm
    with pytest.raises(ValueError, match="within the scale window"):
        _isometry_norms(grid, rows, terms, base)
    assert np.array_equal(as_bits(seen[0]), want)


@pytest.mark.parametrize("cut", ["rows", "samples", None])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_a_non_finite_row_in_a_later_slab_is_not_finite(monkeypatch, cut, bad):
    grid = make_grid(8)
    config = HarnessConfig(n_points=8, depth=3, max_degree=3, seed=4)
    cfgs = [sample_ensemble(config, 2, i, 3) for i in range(5)]
    rows = np.stack([random_hardy_martingale(c).rows for c in cfgs])
    terms = [np.stack(t) for t in zip(*(random_adapted_phases(c).terms for c in cfgs))]
    rows[3, -2, 5] = bad  # in level 3, sample 3
    if cut is not None:
        patch_slabs(monkeypatch, 8, 3, cut)
    scale = _scale_bound(0.0, rows)
    assert np.isfinite(scale).tolist() == [True, True, True, False, True]
    assert np.array_equal(as_bits(scale), as_bits(row_peak_scale(0.0, rows)), equal_nan=True)
    with pytest.raises(ValueError, match="^martingale values must be finite$"):
        _isometry_norms(grid, rows, terms)
    with pytest.raises(ValueError, match="^martingale values must be finite$"):
        field_from_differences(grid, 3, 0.0, [d[3] for d in _levels(rows, 8)])


def inject(fault, i, diffs, terms):
    """Sample i of a block fails one check: a mean (mean-k, difference k), a
    multiplier (term-k), finiteness (nan, inf) or the gate (conj-k, difference k
    turned anti-analytic).  diffs and terms are views of the block's arrays."""
    kind, _, level = fault.partition("-")
    if kind == "mean":
        diffs[int(level) - 1][i] += 0.25
    elif kind == "term":
        terms[int(level)].reshape(len(terms[0]), -1)[i, -1] *= 1.5  # a contiguous stack
    elif kind == "conj":
        diffs[int(level) - 1][i] = diffs[int(level) - 1][i].conj()
    else:
        diffs[1][i][3, 5] = np.nan if kind == "nan" else np.inf


# each fault, and a different one that is checked no earlier (or none): for two
# means the first failing level wins, for two multipliers the first failing row
LATER_FAULT = [("mean-1", "mean-3"), ("mean-3", "term-0"), ("term-0", "term-2"),
               ("term-2", "conj-2"), ("nan", "mean-1"), ("inf", "term-0"), ("conj-2", "conj-3"),
               ("conj-3", None)]


@pytest.mark.parametrize("cut", ["rows", "samples"])
@pytest.mark.parametrize("fault, second", LATER_FAULT)
def test_a_fault_in_a_later_slab_raises_as_alone(monkeypatch, fault, second, cut):
    # sample 3 of a five-sample block fails, and sample 1, in an earlier slab,
    # fails a check made no earlier; the block raises what sample 3 raises alone
    grid = make_grid(8)
    config = HarnessConfig(n_points=8, depth=3, max_degree=3)
    cfgs = [sample_ensemble(config, 2, i, 3) for i in range(5)]
    rows = np.stack([random_hardy_martingale(c).rows for c in cfgs])
    terms = [np.stack(t) for t in zip(*(random_adapted_phases(c).terms for c in cfgs))]
    diffs = _levels(rows, 8)  # views of rows
    inject(fault, 3, diffs, terms)
    if second is not None:
        inject(second, 1, diffs, terms)
    with pytest.raises(ValueError) as from_alone:
        check_transform_isometry(field_from_differences(grid, 3, 0.0, [d[3] for d in diffs]),
                                 AdaptedPhases(grid, tuple(w[3] for w in terms)))
    patch_slabs(monkeypatch, 8, 3, cut)
    with pytest.raises(ValueError) as from_block:
        _isometry_norms(grid, rows, terms)
    assert str(from_block.value) == str(from_alone.value)


@pytest.mark.parametrize("n, depth, degree", [(4, 4, 1), (8, 3, 3), (16, 3, 5), (12, 2, 5)])
def test_the_walk_from_coefficients_keeps_every_norm(monkeypatch, n, depth, degree):
    # the suite's route, the walk fed the coefficient blocks, gives each sample
    # the bits of check_transform_isometry and previsible_norm on its own field,
    # also where its slabs cut levels mid-way: with slabs of 7 rows, every
    # level is built in products of 6 rows, and a level's short last block
    # (4 of 16 rows, say) is a slab of its own
    config = HarnessConfig(n_points=n, depth=depth, max_degree=degree, seed=31)
    grid = make_grid(n)
    cfgs = [sample_ensemble(config, 2, i, depth) for i in range(4)]
    coefficients = [random_coefficient_arrays(c) for c in cfgs]
    phases = [random_adapted_phases(c) for c in cfgs]
    blocks = [np.stack(level) for level in zip(*coefficients)]
    terms = [np.stack(t) for t in zip(*(P.terms for P in phases))]
    for walk_rows in (None, 7):
        if walk_rows:
            monkeypatch.setattr(martingale, "_WALK_ENTRIES", walk_rows * n)
            assert martingale._quanta(grid, blocks) == [6] * depth
        # the fields are built by _differences on the same grid of products
        fields = [martingale_from_coefficients(grid, c) for c in coefficients]
        alone = [(*check_transform_isometry(F, P), previsible_norm(F))
                 for F, P in zip(fields, phases)]
        got = np.transpose(_isometry_norms(grid, blocks, terms))
        assert np.array_equal(as_bits(got), as_bits(alone))


@st.composite
def product_grids(draw):
    """A shape (N, depth, degree), and the rows of its product blocks and of
    the walk's slabs, a slab at least one block or not."""
    shape = draw(st.sampled_from([(8, 3, 3), (16, 3, 5), (64, 3, 3), (32, 2, 15)]))
    block = draw(st.integers(2, 40))
    return shape, block, draw(st.one_of(st.integers(block, 120), st.integers(2, block)))


@settings(max_examples=30, deadline=None)
@given(product_grids(), st.integers(0, 2**32 - 1))
def test_the_walk_builds_the_rows_of_differences(grid_rows, seed):
    # the walk's slabs, cut on the levels' grids of product blocks (or in
    # even runs where a block does not fit a slab), issue _differences' own
    # products, so they build its bits on any BLAS.  Those blocks, an even
    # number of rows at even offsets, also round as one product per level
    # (OpenBLAS measured), which the pinned reports rest on
    (n, depth, degree), block, slab = grid_rows
    grid, rng = make_grid(n), np.random.default_rng(seed)
    blocks = [rng.standard_normal((2, n**k, degree)) + 1j * rng.standard_normal((2, n**k, degree))
              for k in range(depth)]
    whole = np.concatenate([np.matmul(c, grid.analytic_modes(degree)) for c in blocks], axis=1)
    bounds = _level_bounds(n, whole.shape[1])
    with patch.dict(torus._PRODUCT_BOUNDS, {("c", 2): block * degree * n}), \
            patch.object(martingale, "_WALK_ENTRIES", slab * n):
        quanta = martingale._quanta(grid, blocks)
        assert quanta[0] == min(block, slab) // 2 * 2
        rows = martingale._differences(grid, blocks)
        built = np.empty_like(whole)
        for samples, part in martingale._slabs(whole.shape, quanta):
            # the walk's slab arrays stay within _WALK_ENTRIES
            assert len(range(2)[samples]) * len(range(whole.shape[1])[part]) <= slab
            _built_rows(grid, blocks, samples, _level_pieces(bounds, part), built[samples, part])
    assert np.array_equal(built.view(np.uint64), rows.view(np.uint64))
    assert np.array_equal(rows.view(np.uint64), whole.view(np.uint64))


@settings(max_examples=30, deadline=None)
@given(product_grids(), st.integers(0, 2**32 - 1))
def test_rows_rebuilt_alone_keep_the_bits_of_differences(grid_rows, seed):
    # the floor-passed rows of the walk are rebuilt a level piece of its runs
    # at a time, each piece once, with _differences' bits
    (n, depth, degree), block, slab = grid_rows
    grid, rng = make_grid(n), np.random.default_rng(seed)
    blocks = [rng.standard_normal((3, n**k, degree)) + 1j * rng.standard_normal((3, n**k, degree))
              for k in range(depth)]
    with patch.dict(torus._PRODUCT_BOUNDS, {("c", 2): block * degree * n}), \
            patch.object(martingale, "_WALK_ENTRIES", slab * n):
        rows = martingale._differences(grid, blocks)
        i, j = np.nonzero(rng.random(rows.shape[:2]) < rng.choice([0.01, 0.2]))
        got = martingale._built_at(grid, blocks, i, j)
    assert np.array_equal(got.view(np.uint64), rows[i, j].view(np.uint64))


def test_the_mean_check_comes_before_the_gate_and_the_window():
    # a sample that fails both the mean check and the gate raises the mean's
    # error; a sample beyond the scale window (and nothing else) raises the window's
    grid = make_grid(8)
    config = HarnessConfig(n_points=8, depth=3, max_degree=3, seed=9)
    cfgs = [sample_ensemble(config, 2, i, 3) for i in range(3)]
    rows = np.stack([random_hardy_martingale(c).rows for c in cfgs])
    terms = [np.stack(t) for t in zip(*(random_adapted_phases(c).terms for c in cfgs))]
    bad = rows.copy()
    diffs = _levels(bad, 8)  # views of bad
    diffs[1][1] = diffs[1][1].conj()
    diffs[2][1] += 0.25
    with pytest.raises(ValueError, match="^difference 3 has mean"):
        _isometry_norms(grid, bad, terms)
    far = rows.copy()
    far[2] *= 2.0**500
    with pytest.raises(ValueError, match="within the scale window"):
        _isometry_norms(grid, far, terms)


def gate_cases(grid):
    """Depth-2 fields whose gate verdicts hang on one row: junk that the zero
    floor passes, a Nyquist row, and rows with energy at m <= 0 at 0.999 and
    1.001 times the gate's tolerance."""
    n = grid.n_points
    z = np.exp(1j * grid.angles)
    # 1 + 1e-170 e^{i theta_2} rounds to 1 + 1e-170 i sin(theta_2): level 2 is
    # junk, not analytic at its own scale, that the zero floor passes
    junk = MartingaleField(grid, 2, 1 + 1e-170 * z * np.ones((n, 1)))
    nyquist = field_from_differences(grid, 2, 0.0, [z, np.outer(z, grid.characters[0])])
    fields = [junk, nyquist]
    for ratio in (0.999, 1.001):
        eps = ratio * HARDY_GATE_TOL / np.sqrt(1 - (ratio * HARDY_GATE_TOL) ** 2)
        row = z + eps * z.conj()  # energy at m <= 0 is eps^2 / (1 + eps^2) of the whole
        fields.append(field_from_differences(grid, 2, 0.0, [z, np.outer(np.ones(n), row)]))
    return fields


@pytest.mark.parametrize("n", [8, 16])
def test_gate_verdicts_equal_is_hardy_martingale(n):
    # the walk (check_transform_isometry, which takes the junk field's rows at
    # their step first) gates its rows unscaled, against their own sums of
    # squares: outside a band of rounding at the tolerance, here 0.999 and
    # 1.001 of it, it refuses exactly the fields that is_hardy_martingale fails
    grid = make_grid(n)
    fields = gate_cases(grid)
    assert [is_hardy_martingale(F, HARDY_GATE_TOL) for F in fields] == [True, False, True, False]
    junk = fields[0].rows[1:]
    assert np.abs(junk).max() > 0 and not _rows_are_hardy(grid, junk, HARDY_GATE_TOL).all()
    phases = AdaptedPhases(grid, (np.ones(()), np.ones(n)))
    for F in fields:
        if is_hardy_martingale(F, HARDY_GATE_TOL):
            assert check_transform_isometry(F, phases) == ((0.0, 0.0) if F is fields[0] else
                                                           (previsible_norm(cosine_part(F)),
                                                            previsible_norm(transform(F, phases))))
        else:
            with pytest.raises(ValueError, match="requires a Hardy martingale"):
                check_transform_isometry(F, phases)
    # in one block, the 0.999 row passes beside a sample that fails
    terms = [np.ones(2, complex), np.ones((2, n), complex)]
    assert np.isfinite(_isometry_norms(grid, fields[2].rows[np.newaxis], [t[:1] for t in terms])
                       [0]).all()
    for failing in fields[1], fields[3]:
        with pytest.raises(ValueError, match="requires a Hardy martingale"):
            _isometry_norms(grid, np.stack([fields[2].rows, failing.rows]), terms)


@pytest.mark.parametrize("command, settings", [
    # 3000 samples: twelve 256-sample chunks, the last one partial
    ("lemmas", dict(n_points=16, max_degree=7, samples=3000)),
    ("identities", dict(n_points=16, depth=2, max_degree=5, samples=300)),
    # the benchmark's shape: chunks of 10 samples in the isometry suite, 3
    # samples to a slab
    ("identities", dict(n_points=16, depth=3, max_degree=5, samples=40)),
])
def test_every_sample_at_the_default_sizes(command, settings):
    # an operation that rounds a stacked row unlike a lone one shows on few samples only
    config = HarnessConfig(seed=12345, **settings)
    if command == "lemmas":
        assert np.array_equal(lemma_sides(config), lemma_sides_alone(config))
    else:
        assert np.array_equal(identity_sides(config), identity_sides_alone(config))


@pytest.mark.parametrize("n, depth, degree, samples", [
    (256, 1, 3, 1024), (256, 2, 3, 15), (64, 2, 3, 63)])
def test_the_isometry_suite_holds_one_block_whatever_the_chunk(n, depth, degree, samples):
    # by its coefficients alone, a chunk at large N and shallow depth would hold
    # 4-15 MiB of rows (all the samples here); the suite's bound of
    # _ISOMETRY_ENTRIES grid entries per chunk keeps its rows near 1 MiB
    config = HarnessConfig(n_points=n, depth=depth, max_degree=degree, samples=samples, seed=7)
    identity_sides(replace(config, samples=1))  # the grid's cached tables are built outside the trace
    tracemalloc.start()
    try:
        for _ in harness._identity_sides(config):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 16 * harness._ISOMETRY_ENTRIES, peak / 2**20


# Sides of the first samples at seed 12345, recorded bit for bit from the
# evaluation one sample at a time that the chunk path replaced.  The reference
# above is the same code at M = 1, so only these pins see the closed forms'
# arithmetic move: they take Python-number bits on arrays (np.float_power,
# np.hypot, products part by part), and numpy's own x ** 2 (x * x), complex
# abs or fused complex product changes the last bit of a side on about two
# samples in five.  A pin that fails on one machine only points at its numpy
# build's SIMD dispatch (CI prints numpy.show_runtime()).
LEMMA_BITS = [
    ('0x1.47f0c36faa17cp+2', '0x1.1570302e2ff1ep+5', '0x1.c9c3c6b2f7ef7p+2',
     '0x1.46deb60be424bp+5', '0x1.47f0c36faa17dp+2'),
    ('0x1.8c73fe27a5dd0p+2', '0x1.2e80af4b3d0b6p+5', '0x1.0c1737f214bdap+2',
     '0x1.d76c01b899cc2p+4', '0x1.8c73fe27a5dcfp+2'),
    ('0x1.2480a2ac59c1cp+1', '0x1.0d5ecb672ed66p+2', '0x1.16870c118ececp+1',
     '0x1.34313da135a66p+4', '0x1.2480a2ac59c1dp+1'),
    ('0x1.3fc12d492d8d2p+2', '0x1.c3396655b8283p+3', '0x1.c706899050720p+1',
     '0x1.f72b015e8fe7ep+4', '0x1.3fc12d492d8d1p+2'),
]
IDENTITY_BITS = [
    [('0x1.023c4729b4ac0p-1', '0x1.023c4729b4ac8p-1'),
     ('0x1.0afd98a48cbbfp+0', '0x1.0afd98a48cbc2p+0'),
     ('0x1.a03e59046b8bbp+0', '0x1.a03e59046b8c6p+0')],
    [('0x1.c9b61ba3e4e91p+1', '0x1.c9b61ba3e4e92p+1'),
     ('0x1.b127e54c90d19p-1', '0x1.b127e54c90d1ap-1'),
     ('0x1.01823065ece28p+1', '0x1.01823065ece26p+1')],
    [('0x1.9b9c40d495e7ap+0', '0x1.9b9c40d495e7ap+0', '0x1.230d6f5034ba7p+1'),
     ('0x1.c6735ce8cfb44p+0', '0x1.c6735ce8cfb46p+0', '0x1.41585a39d43b3p+1'),
     ('0x1.f49ceb1101588p+0', '0x1.f49ceb1101587p+0', '0x1.61fca03d493b1p+1')],
]


def test_sides_keep_the_per_sample_bits():
    lemmas = lemma_sides(HarnessConfig(n_points=16, max_degree=7, samples=4, seed=12345))
    assert [tuple(x.hex() for x in row) for row in lemmas.tolist()] == LEMMA_BITS
    identities = identity_sides(
        HarnessConfig(n_points=8, depth=2, max_degree=3, samples=3, seed=12345))
    for suite, bits in zip(identities.tolist(), IDENTITY_BITS):
        # the first two suites record rhs again as the residual's scale
        assert [tuple(x.hex() for x in row[:len(pins)]) for row, pins in zip(suite, bits)] == bits
