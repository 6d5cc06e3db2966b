"""Brute-force reference implementations used to cross-check the library.

Everything here is written with explicit Python loops over index tuples and
scalar arithmetic from the math module, deliberately independent of the
vectorized reduction paths in the package.  Only practical for tiny grids.

The per-sample seeding at the end is numpy's own SeedSequence, one sample at a
time: the reference that the harness's chunked seeding must equal bit for bit.
The suite records at the very end are those of a whole run's arrays, the
reference for the harness's running records, folded chunk by chunk.
"""

import itertools
import math

import numpy as np

from hardylab import CheckRecord, EnsembleConfig


def grid_angles(n):
    return [2.0 * math.pi * (j + 0.5) / n for j in range(n)]


def grid_signs(n):
    return [1.0 if (j < n // 4 or j >= 3 * n // 4) else -1.0 for j in range(n)]


def oracle_level(terminal, n, depth, k):
    """Average of the terminal array over coordinates k+1..depth, as a dict
    keyed by index tuples of length k."""
    out = {}
    for x in itertools.product(range(n), repeat=k):
        total = 0.0 + 0.0j
        count = 0
        for y in itertools.product(range(n), repeat=depth - k):
            total += complex(terminal[x + y])
            count += 1
        out[x] = total / count
    return out


def oracle_difference(terminal, n, depth, k):
    lv_k = oracle_level(terminal, n, depth, k)
    lv_prev = oracle_level(terminal, n, depth, k - 1)
    return {x: lv_k[x] - lv_prev[x[:-1]] for x in lv_k}


def oracle_cond_moment(terminal, n, depth, k):
    """q_k(x) = (1/n) sum_j |diff_k(x, j)|^2 keyed by tuples of length k-1."""
    diff = oracle_difference(terminal, n, depth, k)
    out = {}
    for x in itertools.product(range(n), repeat=k - 1):
        out[x] = sum(abs(diff[x + (j,)]) ** 2 for j in range(n)) / n
    return out


def oracle_previsible_norm(terminal, n, depth):
    moments = [oracle_cond_moment(terminal, n, depth, k) for k in range(1, depth + 1)]
    total = 0.0
    for x in itertools.product(range(n), repeat=depth - 1):
        sq = sum(moments[k - 1][x[: k - 1]] for k in range(1, depth + 1))
        total += math.sqrt(sq)
    return total / n ** (depth - 1)


def oracle_dyadic_difference(terminal, n, depth, k):
    """Cell averages of diff_k over the sign pattern of its k coordinates."""
    signs = grid_signs(n)
    diff = oracle_difference(terminal, n, depth, k)
    out = {}
    for x in itertools.product(range(n), repeat=k):
        pattern = tuple(signs[j] for j in x)
        total = 0.0 + 0.0j
        count = 0
        for xp in itertools.product(range(n), repeat=k):
            if tuple(signs[j] for j in xp) == pattern:
                total += diff[xp]
                count += 1
        out[x] = total / count
    return out


def oracle_dyadic_terminal(terminal, n, depth):
    """Terminal array of the difference-wise dyadic projection, as a dict."""
    mean = oracle_level(terminal, n, depth, 0)[()]
    projected = [oracle_dyadic_difference(terminal, n, depth, k) for k in range(1, depth + 1)]
    out = {}
    for x in itertools.product(range(n), repeat=depth):
        value = mean
        for k in range(1, depth + 1):
            value += projected[k - 1][x[:k]]
        out[x] = value
    return out


def oracle_project_trailing_cells(n, arr, n_axes):
    """The sign-cell average over the last n_axes axes of arr, in the form the
    package once used: per axis, a loop over the axes, symmetrise over the
    pairing j <-> N-1-j and add mean(f) and s * mean(s f), the rank-2
    projection onto span{1, s}.  A reference for the folded projection, which
    agrees with it to round-off."""
    signs = np.array(grid_signs(n))
    for axis in range(arr.ndim - n_axes, arr.ndim):
        arr = 0.5 * (arr + np.flip(arr, axis=axis))
        s = signs.reshape((-1,) + (1,) * (arr.ndim - 1 - axis))
        arr = arr.mean(axis, keepdims=True) + s * (s * arr).mean(axis, keepdims=True)
    return arr if n_axes else arr.copy()


def oracle_single_step_stability(n):
    """Stability quantities for the depth-1 martingale zeta_1 with w_0 = 1,
    computed from scratch with scalar arithmetic."""
    ang = grid_angles(n)
    signs = grid_signs(n)
    cos_vals = [math.cos(t) for t in ang]
    sin_vals = [math.sin(t) for t in ang]

    mu = sum(c * s for c, s in zip(cos_vals, signs)) / n
    b = mu  # depth 1: the sigma coefficient is a constant, so projection fixes it
    perturbed_moment = sum((c - b * s) ** 2 for c, s in zip(cos_vals, signs)) / n
    lhs_p = math.sqrt(perturbed_moment)
    # w_0 = 1: Im(zeta - b*sigma) = sin(theta)
    transform_moment = sum(sv**2 for sv in sin_vals) / n
    transform_p = math.sqrt(transform_moment)
    base_p = math.sqrt(sum(c**2 + sv**2 for c, sv in zip(cos_vals, sin_vals)) / n)
    ratio = lhs_p / math.sqrt(transform_p * base_p)
    return {
        "mu": mu,
        "lhs_p": lhs_p,
        "transform_p": transform_p,
        "base_p": base_p,
        "ratio": ratio,
    }


def oracle_sincos_lhs(mu, b, w, tail):
    """Re^2(w mu) + Im^2(w (mu - b)) + int |u - mu s|^2 of one row, on Python
    complex numbers and floats with ** (libm's pow), the tail added last."""
    return (w * mu).real ** 2 + (w * (mu - b)).imag ** 2 + tail


def oracle_split_rhs(mu, b, tail):
    """|mu - b|^2 + int |u - mu s|^2 of one row, with Python's complex abs and **."""
    return abs(mu - b) ** 2 + tail


def oracle_perturbation_forms(mu, b, tail):
    """split_rhs, shift_rhs = 8 (a^2 - |mu|^2) + tail and rotation_lhs =
    (a - |b|)^2 + tail of one row, on Python numbers.  The envelope a =
    |mu| + |mu - b|^2 / (|mu| + |b|) takes numpy's complex moduli, as
    arith_envelope does, and squares |mu - b| with **."""
    abs_mu, abs_b, gap = (float(np.abs(np.complex128(z))) for z in (mu, b, mu - b))
    denom = abs_mu + abs_b
    a = abs_mu + (gap ** 2 / denom if denom > 0.0 else 0.0)
    return (oracle_split_rhs(mu, b, tail), 8.0 * (a * a - abs(mu) ** 2) + tail,
            (a - abs(b)) ** 2 + tail)


def child_seed(seed, tag, i):
    """The seed of sample i of the run (seed, tag): SeedSequence([seed, tag, i])'s first word."""
    seq = np.random.SeedSequence(entropy=[int(seed), tag, i])
    return int(seq.generate_state(1, np.uint64)[0])


def sample_ensemble(config, tag, i, depth):
    """The EnsembleConfig that sample i of the run (config.seed, tag) draws from alone."""
    return EnsembleConfig(seed=child_seed(config.seed, tag, i), n_points=config.n_points,
                          depth=depth, max_degree=config.max_degree)


def oracle_suite_records(suite, label, lhs, rhs, gap, passed):
    """The records of one suite from the per-sample arrays of its whole run:
    first the worst sample i, the first np.argmin ("min-slack") or np.argmax
    ("max-residual") of the gaps, which is the first NaN where there is one,
    as `suite/label(sample i)`; then every other failing sample j, in sample
    order, as `suite/sample-j`."""
    i = int((np.argmin if label == "min-slack" else np.argmax)(gap))

    def record(check_id, j):
        return CheckRecord(check_id, float(lhs[j]), float(rhs[j]), float(gap[j]), bool(passed[j]))

    return [record(f"{suite}/{label}(sample {i})", i)] + [
        record(f"{suite}/sample-{j}", j) for j in range(len(gap)) if not passed[j] and j != i]


def oracle_pointwise(m_levels, rhs_levels):
    """The pointwise step's (lhs, rhs) per sample from whole per-level (M, nodes)
    arrays of its two sides: the levels' nodes concatenated in level order and
    the first np.argmax of m - rhs taken per sample, which is the first NaN
    where there is one."""
    m, rhs = (np.concatenate(x, axis=1) for x in (m_levels, rhs_levels))
    worst = (np.arange(len(m)), np.argmax(m - rhs, axis=1))
    return m[worst], rhs[worst]
