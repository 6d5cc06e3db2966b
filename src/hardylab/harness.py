"""Experiment harness: verification suites, constant search, convergence sweep.

Every command consumes a HarnessConfig and returns a RunReport that echoes
the configuration, lists per-check records, and carries aggregates.  Checks
never abort a suite early; the exit-code mapping (0 = all pass, 1 = some
mathematical check failed, 2 = usage error) is applied by the CLI on top of
the collected violation count.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .ensembles import (
    EnsembleConfig,
    _child_seeds,
    _differences,
    _unit,
    arith_sample_batch,
    chunk_seed_words,
    draw_chunk,
)
from .inequalities import (
    CHAIN_CONSTANT,
    CHAIN_STEPS,
    CheckRecord,
    _Pointwise,
    _chain_fold,
    _modulus,
    _perturbation_rows,
    _ratio,
    _sincos_rows,
    _split_rows,
    _step_sides,
    envelope_excess_sides,
    envelope_gap_sides,
    residual_verdict,
    slack_verdict,
)
from .martingale import _isometry_norms, _row_count
from .torus import (
    MEMORY_GUARD_ENTRIES,
    GridFunction,
    _check_integer,
    _check_tolerance,
    _WorkingSet,
    inner_product,
    make_grid,
    sigma,
)

HALF_CIRCLE_MEAN = 2.0 / math.pi  # limit of the dyadic cosine coefficient
# exact dyadic cosine coefficients at N = 4 and N = 8
_ANCHORS = {4: math.sqrt(2.0) / 2.0, 8: 1.0 / (4.0 * math.sin(math.pi / 8.0))}


class UsageError(Exception):
    """Bad configuration or flag usage; maps to exit code 2."""


@dataclass(frozen=True)
class HarnessConfig:
    """The settings of one run.  Construction resolves the max_degree default
    and checks every setting, the sample space's (seed, n_points, depth,
    max_degree) by building their EnsembleConfig, raising UsageError, so every
    command takes its config as given."""

    n_points: int = 8
    depth: int = 2
    max_degree: int | None = None  # None resolves to min(3, n_points//2 - 1)
    samples: int = 400
    seed: int = 12345
    tol: float = 1e-10
    budget: int = 200
    resolutions: tuple = (4, 8, 16, 32, 64, 128)  # a list is stored as a tuple
    out: str | None = None
    csv: str | None = None

    def __post_init__(self):
        try:
            if self.max_degree is None:
                n = make_grid(self.n_points).n_points
                object.__setattr__(self, "max_degree", min(3, n // 2 - 1))
            EnsembleConfig(self.seed, self.n_points, self.depth, self.max_degree)
            # a run holds no per-sample array beyond lemmas' strata draws, which
            # the guard bounds, and 2^24 samples take hours in any suite
            for name, least, most in (("samples", 1, MEMORY_GUARD_ENTRIES), ("budget", 0, None)):
                _check_integer(getattr(self, name), name, least, most)
            object.__setattr__(self, "tol", _check_tolerance(self.tol))  # a float: JSON
            if not isinstance(self.resolutions, (list, tuple)) or not self.resolutions:
                raise ValueError(f"resolutions must be a nonempty list of grid sizes; "
                                 f"got {self.resolutions!r}")
            # make_grid checks each size; its grid holds the size as a plain int
            object.__setattr__(self, "resolutions",
                               tuple(make_grid(n).n_points for n in self.resolutions))
            for name in ("out", "csv"):
                value = getattr(self, name)
                if value is not None and not isinstance(value, str):
                    raise ValueError(f"{name} must be a path or null; got {value!r}")
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        # numpy integers pass the checks; the config echo must stay plain JSON
        for name in ("n_points", "depth", "max_degree", "samples", "seed", "budget"):
            object.__setattr__(self, name, int(getattr(self, name)))


@dataclass
class RunReport:
    command: str
    config: dict
    checks: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "checks": [asdict(c) for c in self.checks],
            "aggregates": self.aggregates,
        }

    def to_json(self) -> str:
        """Strict JSON: non-finite floats become "inf", "-inf" or "nan"."""
        return json.dumps(_finite_json(self.to_dict()), indent=2, allow_nan=False)


def _finite_json(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(float(obj))  # float() reads the string back
    if isinstance(obj, dict):
        return {key: _finite_json(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(item) for item in obj]
    return obj


_WORST = {"min-slack": np.argmin, "max-residual": np.argmax}


def _check(check_id: str, lhs, rhs, verdict: tuple) -> CheckRecord:
    """One record from its two sides and the (gap, passed) of a shared verdict."""
    gap, passed = verdict
    return CheckRecord(check_id, float(lhs), float(rhs), float(gap), bool(passed))


class _Record:
    """The running record of one suite, folded chunk by chunk (a whole-run
    draw is one chunk).  It holds pieces of (index, lhs, rhs, gap, passed)
    arrays, copied out of the chunks': first the worst sample so far, then
    each chunk's failing samples.  The worst of two chunks is taken by _WORST
    over their two worst gaps, so the held worst is the first extreme or NaN
    over all samples, as _WORST over the whole run's gaps gives."""

    def __init__(self, suite: str, label: str):
        self.suite, self.label, self.held = suite, label, []

    def add(self, rows: slice, *sides) -> None:
        """Fold in the lhs, rhs, gap and passed arrays of the samples in rows."""
        i = int(_WORST[self.label](sides[2]))
        if not self.held or _WORST[self.label]([self.held[0][3][0], sides[2][i]]):
            self.held[:1] = [[np.array([rows.start + i]), *(x[[i]] for x in sides)]]
        if not sides[3].all():
            failing = np.flatnonzero(np.logical_not(sides[3]))
            self.held.append([rows.start + failing, *(x[failing] for x in sides)])

    def scan(self, checks: list) -> CheckRecord:
        """Append the suite's records to checks: first the worst sample i,
        `suite/label(sample i)` with label "min-slack" (smallest gap) or
        "max-residual" (largest gap), then `suite/sample-j` for every failing
        sample j other than i, in sample order, so each failing sample is
        counted once.  Returns the worst record.  The held pieces are
        concatenated once, the indices as Python ints, which index and format
        faster than numpy's over many records."""
        index, lhs, rhs, gap, passed = map(np.concatenate, zip(*self.held))
        index = index.tolist()
        worst = _check(f"{self.suite}/{self.label}(sample {index[0]})", lhs[0], rhs[0],
                       (gap[0], passed[0]))
        checks.append(worst)
        checks += [_check(f"{self.suite}/sample-{index[j]}", lhs[j], rhs[j], (gap[j], passed[j]))
                   for j in np.flatnonzero(np.logical_not(passed)).tolist() if index[j] != index[0]]
        return worst


def _finish(command: str, config: HarnessConfig, checks: list,
            t0: float, extra: dict | None = None) -> RunReport:
    aggregates = {
        "violation_count": sum(1 for c in checks if not c.passed),
        "checks_recorded": len(checks),
        "runtime_seconds": time.monotonic() - t0,
    }
    if extra:
        aggregates.update(extra)
    return RunReport(command, asdict(config), checks, aggregates)


def _scalar_rng(config: HarnessConfig, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=[int(config.seed), *key]))


def _scalar_shifts(normals: np.ndarray) -> np.ndarray:
    """The complex normal shifts b = re + i im of the integral suites, one per
    (re, im) row of normals."""
    return normals[:, 0] + 1j * normals[:, 1]


def _scalar_draws(rng: np.random.Generator, count: int) -> tuple:
    """The shifts b and multipliers w of `count` samples, as two (count,) arrays.

    Sample by sample the stream gives the two normals of b, then u uniform on
    [0, 1): phi = 2 pi u is uniform(0, 2 pi), the same bits, and w = e^{i phi}
    is renormalized with the bits of CPython's z / abs(z), each part over the
    modulus: its quotient by h + 0j adds only signed zeros, which change no
    part here (Re w is never 0, and Im w is 0 only at u = 0, where it is +0).
    ensembles._unit, which has the bits of numpy's complex division, differs
    in the last ulp on ~30% of angles.  numpy's complex exp of an array equals
    its exp of each angle alone."""
    normals, u = np.empty((count, 2)), np.empty(count)
    for i, pair in enumerate(normals):
        rng.standard_normal(out=pair)
        u[i] = rng.random()
    w = np.exp(1j * (2 * np.pi * u))
    h = _modulus(w)
    w.real, w.imag = w.real / h, w.imag / h
    return _scalar_shifts(normals), w


_IDENTITY_SUITES = ("sincos-identity", "orthogonal-split", "transform-isometry")


def cmd_identities(config: HarnessConfig) -> RunReport:
    """Exact-identity suites: single-coordinate identity, orthogonal split,
    and the transform isometry for Hardy martingales."""
    t0 = time.monotonic()
    checks: list = []
    records = {suite: _Record(suite, "max-residual") for suite in _IDENTITY_SUITES}
    for suite, rows, (lhs, rhs, scale) in _identity_sides(config):
        records[suite].add(rows, lhs, rhs, *residual_verdict(lhs, rhs, scale, config.tol))
    max_residual = max(record.scan(checks).gap for record in records.values())
    return _finish("identities", config, checks, t0, {"max_residual": max_residual})


def _identity_sides(config: HarnessConfig):
    """Yield (suite, sample slice, (lhs, rhs, scale)) per chunk of each
    identities suite, in suite order: lhs, rhs and the residual's scale of the
    chunk's samples.  The transform-isometry suite's sides are views of its
    working set, which its next chunk overwrites."""
    grid = make_grid(config.n_points)
    rng = _scalar_rng(config, 100)
    for rows, values in _coordinate_values(config, 0):
        rep = _sincos_rows(grid, values, *_scalar_draws(rng, len(values)))
        yield _IDENTITY_SUITES[0], rows, (rep.lhs, rep.rhs, rep.rhs)
    for rows, values in _coordinate_values(config, 1):
        b = _scalar_shifts(rng.standard_normal((len(values), 2)))
        lhs, rhs = _split_rows(grid, values, b)
        yield _IDENTITY_SUITES[1], rows, (lhs, rhs, rhs)
    del values  # the last chunk's differences are not held through the isometry suite
    work = _WorkingSet()  # every array of the isometry suite's chunks, held from chunk to chunk
    for rows, blocks, terms in _chunks(config, 2, entries=_ISOMETRY_ENTRIES, work=work,
                                       multipliers=True):
        yield _IDENTITY_SUITES[2], rows, _isometry_norms(
            grid, _differences(grid, blocks, work), terms, work=work)


def cmd_lemmas(config: HarnessConfig) -> RunReport:
    """Scalar envelope bounds on stratified samples plus the integral bounds
    for random analytic data."""
    t0 = time.monotonic()
    checks: list = []
    tol = config.tol

    # The envelope suites take the whole strata draw at once: numpy evaluates
    # w * (mu - b) of 2^14 entries and up as (mu - b) * w in place, and its
    # complex product is not bitwise commutative, so a chunk's sides would
    # round apart from the whole draw's.
    strata = _child_seeds(config.seed, 10, 0, 1)
    mu, b, w = arith_sample_batch(EnsembleConfig(int(strata[0]), config.n_points), config.samples)
    # each envelope suite's sides are one chunk, dropped before the next suite's
    gap, excess = _Record("envelope-gap", "min-slack"), _Record("envelope-excess", "min-slack")
    gap.add(slice(0, config.samples), *_slack_sides(*envelope_gap_sides(mu, b, w), tol))
    excess.add(slice(0, config.samples), *_slack_sides(*envelope_excess_sides(mu, b), tol))

    shift, rotation = _Record("shift-bound", "min-slack"), _Record("rotation-bound", "min-slack")
    split = _Record("perturbation-split", "max-residual")
    for rows, rep in _lemma_sides(config):
        shift.add(rows, *_slack_sides(rep.shift_lhs, rep.shift_rhs, tol))
        rotation.add(rows, *_slack_sides(rep.rotation_lhs, rep.rotation_rhs, tol))
        split.add(rows, rep.shift_lhs, rep.split_rhs,
                  *residual_verdict(rep.shift_lhs, rep.split_rhs, rep.split_rhs, tol))
    min_slack = min(record.scan(checks).gap for record in (gap, excess, shift, rotation))
    return _finish(
        "lemmas", config, checks, t0,
        {"min_slack": min_slack, "max_split_residual": split.scan(checks).gap},
    )


def _slack_sides(lhs, rhs, tol: float) -> tuple:
    """lhs, rhs and their slack_verdict (gap, passed): what _Record.add takes
    from a min-slack suite."""
    return (lhs, rhs, *slack_verdict(lhs, rhs, tol))


def _lemma_sides(config: HarnessConfig):
    """Yield (sample slice, PerturbationReport) per chunk of the integral
    suites: perturbation_bounds of the chunk's samples, as arrays."""
    grid = make_grid(config.n_points)
    rng = _scalar_rng(config, 101)
    for rows, values in _coordinate_values(config, 11):
        yield rows, _perturbation_rows(grid, values, *_scalar_draws(rng, len(values)))


# A chunk of samples is drawn and evaluated as one batch.  It holds at most
# _CHUNK_ENTRIES coefficients plus phases: tens of small samples share each
# call's overhead, while its temporaries stay near 1 MiB (at N8 d3, 2^16 is
# 10-25% faster but raises the peak RSS by ~4.7 MiB, 2^15 by ~1.3 MiB; 2^12
# takes ~1.7x as long).  The suites that hold its rows bound its grid entries
# too: the depth-1 ones (lemmas, the first two identities suites;
# _coordinate_values) by _BLOCK_ENTRIES, 256 samples at N16 (2^16 raises
# lemmas N16 at 2500 samples from 37.1 to 40.2 MiB for no gain); the
# transform-isometry suite by _ISOMETRY_ENTRIES, four of _isometry_norms'
# slabs (10 samples at N16 d3, where the coefficients bind first).  That suite
# fills one working set, 1.35 MiB at N16 d3 and sized at its first chunk,
# chunk after chunk: with new arrays per chunk, that much sat near glibc's
# heap trim threshold, and at some heap layouts was given back and faulted in
# again every chunk (7 to 150 pages faulted per extra chunk, against about 1
# with the set held).
_CHUNK_ENTRIES = 2**14
_BLOCK_ENTRIES = 2**12
_ISOMETRY_ENTRIES = 2**16


def _chunks(config: HarnessConfig, tag: int, depth: int | None = None, phases: bool = True,
            entries: int | None = None, work: _WorkingSet | None = None,
            multipliers: bool = False):
    """Yield (sample slice, coefficient blocks, phase angles) per chunk of the
    config's samples, in order, drawn as ensemble_chunk draws them for the run
    (config.seed, tag) at the given depth (default config.depth): blocks[k-1]
    and angles[k] stack the chunk's level-k draws along a leading sample axis;
    given multipliers, the angles come as their multipliers (draw_chunk).
    A chunk fits _CHUNK_ENTRIES coefficients and phases and, given entries,
    that many grid entries over grid^1 .. grid^depth (at least one sample).
    Given a working set, each chunk's draws are written into its buffers, so a
    chunk's arrays are overwritten by the next one's.

    The seed words are hashed a span at a time: as many whole chunks as fit
    _CHUNK_ENTRIES uint64 words, 4 per substream (at least one chunk)."""
    depth = config.depth if depth is None else depth
    cfg = EnsembleConfig(config.seed, config.n_points, depth, config.max_degree)
    slices = _row_count(cfg.n_points, depth)  # newest-coordinate slices per sample
    chunk = _CHUNK_ENTRIES // ((cfg.max_degree + 1) * slices)
    chunk = max(1, chunk if entries is None else min(chunk, entries // (cfg.n_points * slices)))
    span = chunk * max(1, _CHUNK_ENTRIES // (4 * depth * (2 if phases else 1)) // chunk)
    for start in range(0, config.samples, span):
        words = chunk_seed_words(cfg, tag, start, min(span, config.samples - start), phases)
        for first in range(0, len(words), chunk):
            blocks, angles = draw_chunk(cfg, words[first:first + chunk], work, multipliers)
            yield slice(start + first, start + first + len(blocks[0])), blocks, angles


def _coordinate_values(config: HarnessConfig, tag: int):
    """Yield (sample slice, (M, N) values) per chunk of the run (config.seed,
    tag) at depth 1, as _chunks draws it with no phases and at most
    _BLOCK_ENTRIES grid entries: each sample's one difference over the grid."""
    grid = make_grid(config.n_points)
    for rows, blocks, _ in _chunks(config, tag, 1, phases=False, entries=_BLOCK_ENTRIES):
        yield rows, _differences(grid, blocks)[:, 0]


def _score(grid, blocks, angles, work: _WorkingSet) -> np.ndarray:
    """The chain ratio of every sample of one chunk, its angles turned into
    multipliers, folded in work's buffers."""
    means = _chain_fold(grid, blocks, [_unit(phi) for phi in angles], work)
    return _ratio(*means[:3])


def cmd_theorem(config: HarnessConfig) -> RunReport:
    """Full stability chain over a random Hardy ensemble; records per-step
    margins and the empirical maximum of the final ratio.  The chain is
    evaluated over chunks of samples at once, each drawn and folded in one
    working set held for the run (_chain_fold)."""
    t0 = time.monotonic()
    checks: list = []
    grid = make_grid(config.n_points)
    records = [_Record(f"chain/{step}", "min-slack") for step in CHAIN_STEPS]
    max_ratio = 0.0
    work = _WorkingSet()
    for rows, blocks, terms in _chunks(config, 20, work=work, multipliers=True):
        pointwise = _Pointwise(len(blocks[0]))
        means = _chain_fold(grid, blocks, terms, work, pointwise)
        max_ratio = max(max_ratio, *_ratio(*means[:3]).tolist())
        for record, *sides in zip(records, *_step_sides(means, pointwise, config.tol)):
            record.add(rows, *sides)

    min_slack = min(record.scan(checks).gap for record in records)
    return _finish(
        "theorem", config, checks, t0,
        {"max_ratio": max_ratio, "min_slack": min_slack, "chain_constant": CHAIN_CONSTANT},
    )


_SEARCH_COEFF_STEP = 0.2
_SEARCH_PHASE_STEP = 0.25


# A start's proposals are drawn this many steps at a time, in one call.
_SEARCH_BLOCK_STEPS = 16


def _search_noise(rngs, shapes, budget: int):
    """Yield, for each of `budget` steps, the starts' proposal normals: one
    (starts,) + shape array per shape, start j's drawn from rngs[j] in the order
    of shapes.  Each start draws up to _SEARCH_BLOCK_STEPS steps' normals in one
    call, whose stream order is that of the steps' draws one by one: the same
    bits.  The arrays are views of the block, valid until the next step."""
    bounds = np.cumsum([0] + [math.prod(shape) for shape in shapes]).tolist()
    for first in range(0, budget, _SEARCH_BLOCK_STEPS):
        block = np.empty((len(rngs), min(_SEARCH_BLOCK_STEPS, budget - first), bounds[-1]))
        for rng, out in zip(rngs, block):
            rng.standard_normal(out=out)
        for step in block.transpose(1, 0, 2):
            yield [step[:, a:b].reshape((len(rngs),) + shape)
                   for a, b, shape in zip(bounds, bounds[1:], shapes)]


def cmd_constant_search(config: HarnessConfig) -> RunReport:
    """Multi-start stochastic hill climb on the final-ratio objective.

    Each of `samples` starts draws a fresh Hardy martingale and phase
    sequence, then runs `budget` Gaussian perturbation steps, accepting a
    step only when the ratio strictly increases.  Start s draws its
    proposals from its own stream, a block of steps at a time
    (_search_noise), so the starts of a chunk advance in lockstep, one batch
    evaluation per step, and the best-so-far trace is rebuilt in (start,
    step) order from each start's accepted steps.
    """
    t0 = time.monotonic()
    grid, work = make_grid(config.n_points), _WorkingSet()

    best_ratio = -math.inf
    best_state = None
    trace: list = []

    for samples, coeffs, angles in _chunks(config, 40):
        rngs = [_scalar_rng(config, 41, s) for s in range(samples.start, samples.stop)]
        # a start draws its normals per step as a lone climb would: per level the
        # real and then the imaginary coefficient parts, then the angles by level
        shapes = [c.shape[1:] for c in coeffs for _ in (0, 1)] + [a.shape[1:] for a in angles]
        current = _score(grid, coeffs, angles, work)
        climbs = [[(0, ratio)] for ratio in current.tolist()]  # (step, ratio) per start
        for t, noise in enumerate(_search_noise(rngs, shapes, config.budget), start=1):
            prop_coeffs = [c + _SEARCH_COEFF_STEP * (re + 1j * im)
                           for c, re, im in zip(coeffs, noise[0::2], noise[1::2])]
            prop_angles = [a + _SEARCH_PHASE_STEP * z
                           for a, z in zip(angles, noise[2 * len(coeffs):])]
            ratio = _score(grid, prop_coeffs, prop_angles, work)
            accept = ratio > current
            for state, prop in zip([current, *coeffs, *angles],
                                   [ratio, *prop_coeffs, *prop_angles]):
                state[accept] = prop[accept]  # in place: the chunk owns its arrays
            for j in np.flatnonzero(accept):
                climbs[j].append((t, float(ratio[j])))

        best = None
        for j, climb in enumerate(climbs):
            for t, ratio in climb:
                if ratio > best_ratio:
                    best_ratio, best = ratio, j
                    trace.append({"start": samples.start + j, "step": t, "ratio": ratio})
        if best is not None:  # no later step of this start was accepted
            best_state = ([c[best] for c in coeffs], [a[best] for a in angles])

    deltas = [b["ratio"] - a["ratio"] for a, b in zip(trace, trace[1:])]
    min_delta = min(deltas, default=0.0)
    checks = [
        _check("search/trace-monotone", 0.0, min_delta, slack_verdict(0.0, min_delta, config.tol)),
        _check("search/best-below-chain-constant", best_ratio, CHAIN_CONSTANT,
               slack_verdict(best_ratio, CHAIN_CONSTANT, config.tol))]

    argmax = None
    if best_state is not None:
        coeffs, angles = best_state
        argmax = {
            "n_points": config.n_points,
            "depth": config.depth,
            "max_degree": config.max_degree,
            "coefficients": [
                np.stack([c.real, c.imag], axis=-1).tolist() for c in coeffs
            ],
            "phase_angles": [np.asarray(a).tolist() for a in angles],
        }
    return _finish(
        "constant-search", config, checks, t0,
        {"best_ratio": best_ratio, "trace": trace, "argmax": argmax,
         "chain_constant": CHAIN_CONSTANT},
    )


def cmd_convergence(config: HarnessConfig) -> RunReport:
    """Resolution sweep of the dyadic coefficient of cos(theta), with the
    analytic limit 2/pi as anchor."""
    t0 = time.monotonic()
    checks: list = []
    tol = max(config.tol, 1e-12)

    rows = []
    errors = {}
    for n in sorted(set(config.resolutions)):
        grid = make_grid(n)
        cos_fn = GridFunction(grid, np.cos(grid.angles))
        b_n = inner_product(cos_fn, sigma(grid)).real
        err = abs(b_n - HALF_CIRCLE_MEAN)
        errors[n] = err
        rows.append((n, "dyadic-cos-coefficient", b_n))
        rows.append((n, "dyadic-cos-error", err))
        checks.append(_check(f"error-bound/N{n}", err, 1.0 / n, slack_verdict(err, 1.0 / n, tol)))
        if n in _ANCHORS:
            anchor = _ANCHORS[n]
            checks.append(_check(f"anchor/N{n}", b_n, anchor,
                                 residual_verdict(b_n, anchor, anchor, tol)))

    fitted_order = None
    if len(errors) >= 2:
        ns = np.array(sorted(errors))
        errs = np.array([errors[n] for n in ns])
        fitted_order = float(-np.polyfit(np.log(ns), np.log(errs), 1)[0])
        checks.append(_check("fitted-order-at-least-0.9", 0.9, fitted_order,
                             slack_verdict(0.9, fitted_order, tol)))

    return _finish(
        "convergence", config, checks, t0,
        {
            "fitted_order": fitted_order,
            "limit": HALF_CIRCLE_MEAN,
            "table": [
                {"resolution": r, "quantity": q, "value": v} for r, q, v in rows
            ],
        },
    )


COMMANDS = {
    "identities": cmd_identities,
    "lemmas": cmd_lemmas,
    "theorem": cmd_theorem,
    "constant-search": cmd_constant_search,
    "convergence": cmd_convergence,
}


def write_json_report(report: RunReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
        fh.write("\n")


def write_csv_report(report: RunReport, path: str) -> None:
    """Sweep table `resolution,quantity,value` for convergence runs; one
    `n_points,check_id,gap` row per check otherwise."""
    table = report.aggregates.get("table")
    if table is not None:
        lines = ["resolution,quantity,value"]
        lines += [f"{row['resolution']},{row['quantity']},{row['value']!r}" for row in table]
    else:
        n = report.config.get("n_points")
        lines = ["n_points,check_id,gap"]
        lines += [f"{n},{check.check_id},{check.gap!r}" for check in report.checks]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
