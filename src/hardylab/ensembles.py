"""Seeded generators for analytic functions, Hardy martingales, and samples.

Randomness is split with numpy SeedSequence spawn keys: coefficient draws
for level k come from the substream (0, k), phase draws from (1, k), and
scalar samples from (2,).  Identical configs therefore reproduce identical
output within this implementation; no cross-implementation bit match is
promised.

A run's sample i is seeded by the child seed SeedSequence([seed, tag, i]).
ensemble_chunk draws the samples of a whole chunk at once: it computes every
child seed and every substream's PCG64 seed words with numpy's SeedSequence
hash written over uint32 arrays, one row per stream, so its draws equal
per-sample seeding bit for bit (tests/test_ensembles.py pins this).  It is
chunk_seed_words followed by draw_chunk; the harness hashes the seed words
of a span of several chunks in one pass and then draws chunk by chunk.
draw_chunk builds one PCG64 per sample and substream, all those of one
substream on a single SeedWords that hands each its row of the words.  A
chunk with a large deepest level draws only that level's normals on a helper
thread, real halves first, while the calling thread draws the phases, turns
them into multipliers, draws the shallower levels and scales the real halves
as soon as they land.  The single-sample functions keep numpy's own
SeedSequence.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cache

import numpy as np

from .martingale import (
    AdaptedPhases,
    MartingaleField,
    _check_degree,
    _check_size,
    _coefficient_blocks,
    _differences,
    _owning,
)
from .torus import GridFunction, TorusGrid, _check_integer, _WorkingSet, make_grid

# Magnitude strata for the scalar sampler; chosen to hit exact zeros,
# denormal-adjacent values, and both ends of the double's comfortable range.
ARITH_STRATA = (0.0, 1e-15, 1e-8, 1.0, 1e3)


@dataclass(frozen=True)
class EnsembleConfig:
    seed: int
    n_points: int
    depth: int = 1
    max_degree: int = 1

    def __post_init__(self):
        grid = make_grid(self.n_points)
        _check_size(grid, self.depth)
        _check_degree(grid, self.max_degree)
        _check_integer(self.seed, "seed", 0)  # of any size


def _stream(cfg: EnsembleConfig, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=int(cfg.seed), spawn_key=key))


def _standard_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return _complex_normal(rng.standard_normal(shape), rng.standard_normal(shape))


_SQRT_HALF = 1.0 / np.sqrt(2.0)


def _complex_normal(re: np.ndarray, im: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(re + 1j * im) / sqrt(2), elementwise, for finite normals re and im,
    written into out (a new array by default).

    numpy's complex division by sqrt(2) + 0j multiplies (re + im*0, im - re*0)
    by 1/sqrt(2), so each part is scaled as a real, with the same bits, except
    where re or im is +-0: those entries take the division itself, whose signed
    zeros differ."""
    z = np.empty(np.broadcast_shapes(re.shape, im.shape), np.complex128) if out is None else out
    np.multiply(re, _SQRT_HALF, out=z.real)
    return _imaginary_normal(re, im, z)


def _imaginary_normal(re: np.ndarray, im: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The rest of _complex_normal(re, im, z) once z.real holds re / sqrt(2):
    the imaginary part, then the entries where re or im is +-0."""
    np.multiply(im, _SQRT_HALF, out=z.imag)
    zero = (re == 0.0) | (im == 0.0)
    if zero.any():
        z[zero] = (re[zero] + 1j * im[zero]) / np.sqrt(2.0)
    return z


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) over uint32 arrays
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


def _int_words(n: int) -> list:
    """The uint32 words of a nonnegative integer, least significant first; 0 is [0]."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_constants(value: int, mult: int):
    """The running constant of one of SeedSequence's hashes, before and after each step."""
    while True:
        before, value = value, value * mult & _MASK32
        yield before, value


def _hashmix(value: np.ndarray, constants, steps: int) -> np.ndarray:
    """SeedSequence's hashmix, `steps` consecutive times, of value broadcast against
    the next `steps` constants: shape (rows, steps).  uint32 array arithmetic wraps
    silently; on numpy scalars it would warn."""
    before, after = np.array([next(constants) for _ in range(steps)], np.uint32).T
    value = (value ^ before) * after
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = 0xCA01F9DD * x - 0x4973F715 * y
    return value ^ (value >> 16)


def _seed_words(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence(entropy=row words).generate_state(n_words, np.uint64) for every
    row of a (rows, words) uint32 array: the pool mixed from the entropy, then
    stretched into n_words uint64 words per row, shape (rows, n_words).  Each of
    numpy's loops over destination pool words reads one fixed source word, so
    every such loop is one array operation here."""
    rows, length = entropy.shape
    constants = _hash_constants(0x43B0D7E5, 0x931E8875)
    padded = np.zeros((rows, _POOL_SIZE), np.uint32)
    padded[:, :length] = entropy[:, :_POOL_SIZE]
    pool = _hashmix(padded, constants, _POOL_SIZE)
    for src in range(_POOL_SIZE):  # mix every pool word into every other
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, np.newaxis], constants, len(dst)))
    for src in range(_POOL_SIZE, length):  # then the entropy beyond the pool
        pool = _mix(pool, _hashmix(entropy[:, src, np.newaxis], constants, _POOL_SIZE))
    constants = _hash_constants(0x8B51F9DD, 0x58F38DED)
    cycle = np.arange(2 * n_words) % _POOL_SIZE
    half = _hashmix(pool[:, cycle], constants, 2 * n_words)
    return half.astype("<u4", order="C").view("<u8").astype(np.uint64)  # numpy's word order


def _child_seeds(seed: int, tag: int, first: int, count: int) -> np.ndarray:
    """SeedSequence(entropy=[seed, tag, i]).generate_state(1, np.uint64)[0] for the
    samples i = first .. first+count-1, as a uint64 array; first + count <= 2**64."""
    if first + count > 2**64:
        raise ValueError(f"sample indices must stay below 2**64; got {first} + {count}")
    prefix = _int_words(seed) + _int_words(tag)
    out = np.empty(count, np.uint64)
    split = min(max(2**32 - first, 0), count)  # an index below 2**32 is one word, a larger one two
    for start, stop, n_words in ((0, split, 1), (split, count, 2)):
        if start < stop:
            index = np.arange(first + start, first + stop, dtype=np.uint64)
            entropy = np.empty((stop - start, len(prefix) + n_words), np.uint32)
            entropy[:, :len(prefix)] = prefix
            entropy[:, len(prefix):] = np.stack([index & _MASK32, index >> 32][:n_words], axis=-1)
            out[start:stop] = _seed_words(entropy, 1)[:, 0]
    return out


def _stream_seeds(children: np.ndarray, keys) -> np.ndarray:
    """SeedSequence(entropy=child, spawn_key=key).generate_state(4, np.uint64), the
    PCG64 seed of _stream, for every uint64 child and key: shape (children, keys, 4).
    A spawn key pads the child's words with zeros to the pool size, so a child below
    2**32 has the words of [child, 0]."""
    keys = np.array(keys, np.uint32)
    entropy = np.zeros((len(children), len(keys), _POOL_SIZE + keys.shape[1]), np.uint32)
    entropy[..., 0] = (children & _MASK32)[:, np.newaxis]
    entropy[..., 1] = (children >> 32)[:, np.newaxis]
    entropy[..., _POOL_SIZE:] = keys
    return _seed_words(entropy.reshape(-1, entropy.shape[-1]), 4).reshape(entropy.shape[:2] + (4,))


@cache
def _seed_words_type() -> type:
    """A numpy ISeedSequence that hands PCG64s their seed words as computed ahead:
    built on the (rows, 4) words of one stream key, it gives each PCG64 built on
    it the next row.  Built on first use, so importing the package does not load
    numpy.random."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        __slots__ = ("rows",)

        def __init__(self, words):
            self.rows = iter(words)

        def generate_state(self, n_words, dtype=np.uint32):
            return next(self.rows)  # a PCG64 asks for its 4 uint64 words, once

    return SeedWords


def martingale_from_coefficients(grid: TorusGrid, coefficients) -> MartingaleField:
    """Assemble a Hardy martingale from per-level analytic coefficients.

    coefficients[k-1] has shape (N^(k-1), d) with 1 <= d <= N/2 - 1: one row of
    mode-1..d weights for every base point of level k.
    """
    blocks = [c[np.newaxis] for c in _coefficient_blocks(grid, coefficients)]
    return _owning(grid, len(blocks), 0.0, _differences(grid, blocks)[0])


def random_hardy_function(cfg: EnsembleConfig) -> GridFunction:
    """Random analytic polynomial sum_{m=1..d} c_m e^{im theta}."""
    grid = make_grid(cfg.n_points)
    coeff = _standard_complex(_stream(cfg, 0, 1), (1, 1, cfg.max_degree))
    return GridFunction(grid, _differences(grid, [coeff])[0, 0])


def random_coefficient_arrays(cfg: EnsembleConfig) -> list:
    """Per-level analytic coefficients, one substream per level."""
    return [
        _standard_complex(_stream(cfg, 0, k), (cfg.n_points ** (k - 1), cfg.max_degree))
        for k in range(1, cfg.depth + 1)
    ]


def random_hardy_martingale(cfg: EnsembleConfig) -> MartingaleField:
    """Random Hardy martingale: every conditioned difference slice is a fresh
    analytic polynomial of degree <= max_degree."""
    return martingale_from_coefficients(make_grid(cfg.n_points), random_coefficient_arrays(cfg))


def ensemble_chunk(cfg: EnsembleConfig, tag: int, first: int, count: int,
                   phases: bool = True) -> tuple:
    """The draws of samples first .. first+count-1 of the run (cfg.seed, tag).

    Sample i draws exactly what random_coefficient_arrays and
    random_phase_angle_arrays draw for EnsembleConfig(seed=child_i, ...), with
    child_i = SeedSequence([cfg.seed, tag, i]).generate_state(1, np.uint64)[0].
    Returns (blocks, angles): blocks[k-1] of shape (count, N^(k-1), d) and
    angles[k] of shape (count,) + (N,)*k stack the level-k draws along a
    leading sample axis; angles is [] when phases is False.
    """
    return draw_chunk(cfg, chunk_seed_words(cfg, tag, first, count, phases))


def chunk_seed_words(cfg: EnsembleConfig, tag: int, first: int, count: int,
                     phases: bool = True) -> np.ndarray:
    """The PCG64 seed words of every substream of samples first .. first+count-1
    of the run (cfg.seed, tag), shape (count, streams, 4): per sample the
    coefficient streams of levels 1..depth, then, when phases is True, the
    phase streams of levels 0..depth-1.  Any run of samples may be cut into
    chunks afterwards: each row depends on its own sample only."""
    tag = _check_integer(tag, "tag", 0)
    first = _check_integer(first, "first", 0)
    count = _check_integer(count, "count", 1)
    depth = cfg.depth
    keys = [(0, k) for k in range(1, depth + 1)] + ([(1, k) for k in range(depth)] if phases else [])
    return _stream_seeds(_child_seeds(cfg.seed, tag, first, count), keys)


# A chunk whose deepest level holds at least this many coefficients draws that
# level's normals on a helper thread, real halves first, while the calling
# thread draws the phases, turns them into multipliers and draws the shallower
# levels, all of which release the GIL in numpy's fills, exp and products; the
# caller then scales the real halves as soon as they land, and the imaginary
# ones after the join.  At the memory guard (N64 d4, 786,432 deepest
# coefficients) a chunk's draw takes about 38 ms so, against 62 ms on one
# thread (medians of 15 fresh processes each).  Below 2^18 a thread's start and
# join cost more than it hides (N8 d6 ran at 0.95x and N16 d4 degree 7 at
# 0.98x).  The chain keeps OpenBLAS's worker asleep
# (inequalities._PRODUCT_ENTRIES), so no BLAS spin takes the second core from
# a run's later large samples.  In the harness such a chunk is one sample.
_HELPER_COEFFICIENTS = 2**18


def draw_chunk(cfg: EnsembleConfig, words: np.ndarray, work: _WorkingSet | None = None,
               multipliers: bool = False) -> tuple:
    """ensemble_chunk's (blocks, angles) for the samples whose seed words are the
    rows of words (from chunk_seed_words); phases are drawn when words holds
    their streams, and given multipliers, each level's angles come back as its
    multipliers e^{i phi} (_unit).  The draws are written into new arrays or,
    given work, into its buffers, which the next chunk drawn into work
    overwrites.  The deepest level's normals are drawn into work's "rows"
    buffer, which holds nothing once the call returns and is as large as that
    level's block.  A chunk of at least _HELPER_COEFFICIENTS deepest
    coefficients draws those normals on a helper thread, started and joined
    within the call, and its shallower levels' normals into the start of the
    deepest level's block; every stream, and so every bit, is the same."""
    n, depth, degree = cfg.n_points, cfg.depth, cfg.max_degree
    count = len(words)
    work = _WorkingSet() if work is None else work
    seed_words, generator, pcg64 = _seed_words_type(), np.random.Generator, np.random.PCG64
    # every buffer of the coefficients is taken here, on the calling thread, the
    # deepest level's normals first, so that the shallower ones may take its start
    deepest = work.take("rows", (count, 2, n ** (depth - 1), degree))
    blocks = [work.take(f"blocks {k}", (count, n ** (k - 1), degree), complex)
              for k in range(1, depth + 1)]

    # sample by sample, one generator per substream, made when it is drawn: the
    # PCG64s of one substream are built on one SeedWords, which hands each its row
    def generators(k):
        seeds = seed_words(words[:, k - 1])
        return (generator(pcg64(seeds)) for _ in range(count))

    def coefficients(levels, buffer):
        for k in levels:
            # one draw per sample fills its real and then its imaginary part, in
            # stream order: the bits of two draws of shape (N^(k-1), d)
            out = blocks[k - 1]
            normals = work.take(buffer, (count, 2) + out.shape[1:])
            for rng, row in zip(generators(k), normals):
                rng.standard_normal(out=row)
            _complex_normal(normals[:, 0], normals[:, 1], out)

    def phases():
        angles = []
        for k in range(words.shape[1] - depth):
            # uniform(0, 2 pi) is 0 + 2 pi * random() in numpy's C code: the same bits
            # angles turned into multipliers are dropped at once, so no buffer holds them
            shape = (count,) + (n,) * k
            phi = np.empty(shape) if multipliers else work.take(f"angles {k}", shape)
            seeds = seed_words(words[:, depth + k])
            for row in phi.reshape(count, -1):
                generator(pcg64(seeds)).random(out=row)
            phi *= 2.0 * np.pi
            angles.append(_unit(phi, work.take(f"terms {k}", phi.shape, complex))
                          if multipliers else phi)
        return angles

    if count * n ** (depth - 1) * degree < _HELPER_COEFFICIENTS:
        coefficients(range(1, depth + 1), "rows")
        return blocks, phases()

    def here(landed):
        angles = phases()
        # the deepest block holds nothing until the real halves land, so the
        # shallower levels' normals are drawn into its start
        coefficients(range(1, depth), f"blocks {depth}")
        landed()
        np.multiply(deepest[:, 0], _SQRT_HALF, out=blocks[-1].real)
        return angles

    angles = _beside(lambda event: _normal_halves(list(generators(depth)), deepest, event), here)
    _imaginary_normal(deepest[:, 0], deepest[:, 1], blocks[-1])
    return blocks, angles


def _normal_halves(rngs, normals: np.ndarray, landed: threading.Event) -> None:
    """Fill normals, shape (count, 2) + block shape, sample by sample from the
    generators rngs: every sample's real half, setting landed, then every
    sample's imaginary half.  A generator's two fills give the bits of one
    fill of both halves."""
    for half in (0, 1):
        for rng, row in zip(rngs, normals):
            rng.standard_normal(out=row[half])
        landed.set()


def _beside(aside, here):
    """here(landed) on the calling thread while aside(event) runs on a helper
    thread, started and joined within the call: returns here()'s result once
    aside() is done, and raises aside()'s exception, if any, on the calling
    thread.  aside sets the threading.Event it is given when the part of its
    work that here waits for is done; here waits for it by calling landed(),
    which raises aside()'s exception instead if aside fails first."""
    failed, event = [], threading.Event()

    def run():
        try:
            aside(event)
        except BaseException as exc:  # handed to the calling thread
            failed.append(exc)
        finally:
            event.set()

    def landed():
        event.wait()
        if failed:
            raise failed[0]

    helper = threading.Thread(target=run)
    helper.start()
    try:
        result = here(landed)
    finally:
        helper.join()
    if failed:
        raise failed[0]
    return result


def _unit(phi, out: np.ndarray | None = None) -> np.ndarray:
    """exp(i phi), elementwise, renormalized to modulus 1 in the last ulp, written
    into out (a new array by default).

    numpy's complex division w / |w| multiplies (re + im*0, im - re*0) by
    1/(|w| + 0*0), so each part times 1/|w| has the same bits at every finite
    phi.  A scalar phi gives a scalar."""
    w = np.asarray(np.multiply(1j, np.asarray(phi, dtype=float), out=out))
    np.exp(w, out=w)
    scale = np.abs(w, out=np.empty(w.shape))  # an array even for a scalar phi
    np.divide(1.0, scale, out=scale)
    w.real *= scale
    w.imag *= scale
    return w[()]


def phases_from_angles(grid: TorusGrid, angle_arrays) -> AdaptedPhases:
    """Exponentiate per-level angle arrays into unit-modulus multipliers."""
    return AdaptedPhases(grid, tuple(_unit(phi) for phi in angle_arrays))


def random_phase_angle_arrays(cfg: EnsembleConfig) -> list:
    """Per-level angle arrays, uniform on [0, 2*pi), one substream per level."""
    return [
        _stream(cfg, 1, k).uniform(0.0, 2.0 * np.pi, size=(cfg.n_points,) * k)
        for k in range(cfg.depth)
    ]


def random_adapted_phases(cfg: EnsembleConfig) -> AdaptedPhases:
    """Uniform random phases, independent per level and base point."""
    return phases_from_angles(make_grid(cfg.n_points), random_phase_angle_arrays(cfg))


def arith_sample_batch(cfg: EnsembleConfig, count: int):
    """Stratified scalar samples (mu, b, w) as three aligned arrays.

    Magnitude strata cycle deterministically: sample i uses stratum i mod 5
    for mu and (i // 5) mod 5 for b, so all 25 combinations (including the
    degenerate mu = b = 0) appear in every window of 25 draws.
    """
    count = _check_integer(count, "count", 1)
    rng = _stream(cfg, 2)
    idx = np.arange(count)
    strata = np.asarray(ARITH_STRATA)
    mu_mag = strata[idx % 5]
    b_mag = strata[(idx // 5) % 5]
    mu = mu_mag * _standard_complex(rng, count)
    b = b_mag * _standard_complex(rng, count)
    return mu, b, _unit(rng.uniform(0.0, 2.0 * np.pi, size=count))
