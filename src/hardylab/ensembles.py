"""Seeded generators for analytic functions, Hardy martingales, and samples.

Randomness is split with numpy SeedSequence spawn keys: coefficient draws
for level k come from the substream (0, k), phase draws from (1, k), and
scalar samples from (2,).  Identical configs therefore reproduce identical
output within this implementation; no cross-implementation bit match is
promised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .martingale import (
    AdaptedPhases,
    MartingaleField,
    _check_degree,
    _check_size,
    _coefficient_blocks,
    field_from_differences,
)
from .torus import GridFunction, TorusGrid, _check_integer, make_grid

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
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return z / np.sqrt(2.0)


def martingale_from_coefficients(grid: TorusGrid, coefficients) -> MartingaleField:
    """Assemble a Hardy martingale from per-level analytic coefficients.

    coefficients[k-1] has shape (N^(k-1), d) with 1 <= d <= N/2 - 1: one row of
    mode-1..d weights for every base point of level k.
    """
    n = grid.n_points
    diffs = [(c @ grid.analytic_modes(c.shape[1])).reshape((n,) * k)
             for k, c in enumerate(_coefficient_blocks(grid, coefficients), start=1)]
    return field_from_differences(grid, len(diffs), 0.0, diffs)


def random_hardy_function(cfg: EnsembleConfig) -> GridFunction:
    """Random analytic polynomial sum_{m=1..d} c_m e^{im theta}."""
    grid = make_grid(cfg.n_points)
    coeff = _standard_complex(_stream(cfg, 0, 1), (1, cfg.max_degree))
    values = (coeff @ grid.analytic_modes(cfg.max_degree))[0]
    return GridFunction(grid, values)


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


def _unit(phi) -> np.ndarray:
    """exp(i phi), elementwise, renormalized to modulus 1 in the last ulp."""
    w = np.exp(1j * np.asarray(phi, dtype=float))
    return w / np.abs(w)


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
