"""The lemmas and identities suites evaluate blocks of samples at once.

Every recorded side must equal, bit for bit, what the public single-sample
functions give for that sample alone, drawn through numpy's own per-sample
seeding (tests/oracles.py).  The Hardy gates of a block give each row the
verdict, or the error, that the row gets alone.
"""

import numpy as np
import pytest

from hardylab import (
    AdaptedPhases,
    EnsembleConfig,
    GridFunction,
    HarnessConfig,
    check_transform_isometry,
    decomposition_sides,
    ensemble_chunk,
    field_from_differences,
    is_hardy,
    is_hardy_martingale,
    make_grid,
    martingale_from_coefficients,
    perturbation_bounds,
    previsible_norm,
    random_adapted_phases,
    random_hardy_function,
    random_hardy_martingale,
    sincos_identity_sides,
)
from hardylab import cli, harness
from hardylab.inequalities import _perturbation_rows, _sincos_rows, _split_rows
from hardylab.martingale import _are_hardy, _isometry_norms, _rows, _scale_bound
from hardylab.torus import _rows_are_hardy
from oracles import sample_ensemble

SHAPES = [(4, 1, 1), (8, 2, 3), (16, 3, 5), (16, 1, 7), (64, 1, 31)]
BLOCK = 3  # samples per block of the deepest suite


def patch_sizes(monkeypatch, config, depth, chunk):
    """Blocks of BLOCK samples and chunks of `chunk` samples at the given depth."""
    n, degree = config.n_points, config.max_degree
    monkeypatch.setattr(harness, "_BLOCK_ENTRIES", BLOCK * sum(n**k for k in range(1, depth + 1)))
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


def block_starts(config, depth):
    return [rows.start for rows, _, _ in harness._blocks(config, 0, depth, phases=False)]


def expected_starts(samples, chunk):
    """Blocks of BLOCK samples from the start of every chunk."""
    return [first + j for first in range(0, samples, chunk)
            for j in range(0, min(chunk, samples - first), BLOCK)]


@pytest.mark.parametrize("samples", [1, BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("chunk", [2, 5])  # chunk and block boundaries both fall inside runs
@pytest.mark.parametrize("n, depth, degree", SHAPES)
class TestEverySample:
    def test_lemmas(self, monkeypatch, n, depth, degree, chunk, samples):
        config = HarnessConfig(n_points=n, depth=depth, max_degree=degree, samples=samples,
                               seed=20260809)
        patch_sizes(monkeypatch, config, 1, chunk)
        assert np.array_equal(harness._lemma_sides(config), lemma_sides_alone(config))
        assert block_starts(config, 1) == expected_starts(samples, chunk)

    def test_identities(self, monkeypatch, n, depth, degree, chunk, samples):
        config = HarnessConfig(n_points=n, depth=depth, max_degree=degree, samples=samples,
                               seed=2**70)
        patch_sizes(monkeypatch, config, depth, chunk)
        assert np.array_equal(harness._identity_sides(config), identity_sides_alone(config))
        assert block_starts(config, depth) == expected_starts(samples, chunk)


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
    assert [first for first, _, _ in got] == list(range(0, samples, chunk))
    for first, blocks, angles in got:
        count = min(chunk, samples - first)
        want_blocks, want_angles = ensemble_chunk(cfg, 2, first, count, phases)
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


@pytest.mark.parametrize("samples", [1, BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("chunk", [2, 5])
class TestBlockDraws:
    """The scalar draws of a block equal, bit for bit, the same stream drawn one
    sample at a time (normal, normal, uniform), across block and chunk boundaries."""

    def config(self, monkeypatch, chunk, samples):
        config = HarnessConfig(n_points=8, depth=1, max_degree=3, samples=samples, seed=2**70)
        patch_sizes(monkeypatch, config, 1, chunk)
        return config

    def test_lemmas(self, monkeypatch, chunk, samples):
        config = self.config(monkeypatch, chunk, samples)
        calls = recorded_draws(monkeypatch, "_perturbation_rows")
        harness._lemma_sides(config)
        assert len(calls) == len(expected_starts(samples, chunk))
        rng = harness._scalar_rng(config, 101)
        assert_same_bits(calls, [draws_alone(rng) for _ in range(samples)])

    def test_identities(self, monkeypatch, chunk, samples):
        config = self.config(monkeypatch, chunk, samples)
        sincos = recorded_draws(monkeypatch, "_sincos_rows")
        split = recorded_draws(monkeypatch, "_split_rows")
        harness._identity_sides(config)
        assert len(sincos) == len(split) == len(expected_starts(samples, chunk))
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
        rows = _rows([np.stack([f.diffs[k] for f in fields]) for k in range(2)])
        alone = [is_hardy_martingale(f, 1e-8) for f in fields]
        assert alone == [True, False] * 4 + [True, True]
        assert _are_hardy(grid, rows, _scale_bound(0.0, np.abs(rows)), 1e-8).tolist() == alone

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
        diffs = [np.stack([f.diffs[k] for f in fields]) for k in range(2)]
        diffs[1][2] = diffs[1][2].conj()  # level 2 of sample 2 turns anti-analytic
        phases = random_adapted_phases(sample_ensemble(config, 2, 0, 2))
        with pytest.raises(ValueError) as from_block:
            _isometry_norms(grid, _rows(diffs), [np.stack([w] * 5) for w in phases.terms])
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
        diffs = [np.stack([f.diffs[k] for f in fields]) for k in range(3)]
        terms = [np.stack([p.terms[k] for p in phases]) for k in range(3)]
        kind, _, level = fault.partition("-")
        if kind == "mean":
            diffs[int(level) - 1][2] += 0.25
        elif kind == "term":
            terms[int(level)].reshape(5, -1)[2, -1] *= 1.5  # a view: the stacks are contiguous
        else:
            diffs[1][2][3, 5] = np.nan if kind == "nan" else np.inf
        with pytest.raises(ValueError) as from_block:
            _isometry_norms(grid, _rows(diffs), terms)
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
        # the conjugate of one sample's newest difference, in the middle of a block
        differences = harness._differences

        def corrupted(grid, blocks):
            diffs = differences(grid, blocks)
            if len(diffs) > 1 or not deepest_only:
                diffs[-1][len(diffs[-1]) // 2] = diffs[-1][len(diffs[-1]) // 2].conj()
            return diffs

        monkeypatch.setattr(harness, "_differences", corrupted)
        assert cli.main(argv.split()) == 1
        err = capsys.readouterr().err
        assert ("transform isometry" if deepest_only else "analytic") in err


@pytest.mark.parametrize("command, settings", [
    # 3000 samples cross the 2048-sample chunk and many 256-row blocks
    ("lemmas", dict(n_points=16, max_degree=7, samples=3000)),
    ("identities", dict(n_points=16, depth=2, max_degree=5, samples=300)),
    # the benchmark's shape: one sample per block of the isometry suite
    ("identities", dict(n_points=16, depth=3, max_degree=5, samples=40)),
])
def test_every_sample_at_the_default_sizes(command, settings):
    # an operation that rounds a stacked row unlike a lone one shows on few samples only
    config = HarnessConfig(seed=12345, **settings)
    if command == "lemmas":
        assert np.array_equal(harness._lemma_sides(config), lemma_sides_alone(config))
    else:
        assert np.array_equal(harness._identity_sides(config), identity_sides_alone(config))


# Sides of the first samples at seed 12345, recorded bit for bit from the
# evaluation one sample at a time that the block path replaced.  The reference
# above is the same code at M = 1, so only these pins see the closed forms'
# arithmetic move: array arithmetic (x ** 2 as x * x, numpy's complex abs)
# changes the last bit of a side on about two samples in five.
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
    lemmas = harness._lemma_sides(HarnessConfig(n_points=16, max_degree=7, samples=4, seed=12345))
    assert [tuple(x.hex() for x in row) for row in lemmas.tolist()] == LEMMA_BITS
    identities = harness._identity_sides(
        HarnessConfig(n_points=8, depth=2, max_degree=3, samples=3, seed=12345))
    for suite, bits in zip(identities.tolist(), IDENTITY_BITS):
        # the first two suites record rhs again as the residual's scale
        assert [tuple(x.hex() for x in row[:len(pins)]) for row, pins in zip(suite, bits)] == bits
