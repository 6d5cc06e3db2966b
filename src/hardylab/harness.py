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
from numbers import Real

import numpy as np

from .ensembles import (
    EnsembleConfig,
    _check_seed,
    arith_sample_batch,
    phases_from_angles,
    random_adapted_phases,
    random_coefficient_arrays,
    random_hardy_function,
    random_hardy_martingale,
    random_phase_angle_arrays,
)
from .inequalities import (
    CHAIN_CONSTANT,
    CHAIN_STEPS,
    CheckRecord,
    _chain_sides,
    _stability_batch,
    decomposition_sides,
    envelope_excess_sides,
    envelope_gap_sides,
    perturbation_bounds,
    residual_verdict,
    sincos_identity_sides,
    slack_verdict,
    stability_report_from_coefficients,
)
from .martingale import _check_degree, _check_size, check_transform_isometry, previsible_norm
from .torus import GridFunction, _is_integer, inner_product, make_grid, sigma

HALF_CIRCLE_MEAN = 2.0 / math.pi  # limit of the dyadic cosine coefficient
# exact dyadic cosine coefficients at N = 4 and N = 8
_ANCHORS = {4: math.sqrt(2.0) / 2.0, 8: 1.0 / (4.0 * math.sin(math.pi / 8.0))}


class UsageError(Exception):
    """Bad configuration or flag usage; maps to exit code 2."""


@dataclass(frozen=True)
class HarnessConfig:
    """The settings of one run.  Construction checks every setting with the
    shared rules, raising UsageError, and resolves the max_degree default, so
    every command takes its config as given."""

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
            _check_seed(self.seed)
            grid = make_grid(self.n_points)
            _check_size(grid, self.depth)
            if self.max_degree is None:
                object.__setattr__(self, "max_degree", min(3, grid.n_points // 2 - 1))
            _check_degree(grid, self.max_degree)
            for name, least in (("samples", 1), ("budget", 0)):
                value = getattr(self, name)
                if not _is_integer(value) or value < least:
                    raise ValueError(f"{name} must be an integer >= {least}; got {value!r}")
            try:  # stored as a plain float, so the config echo stays JSON
                tol = float(self.tol) if isinstance(self.tol, Real) else math.nan
            except OverflowError:  # an int such as 10**400
                tol = math.inf
            if isinstance(self.tol, bool) or not (math.isfinite(tol) and tol >= 0):
                raise ValueError(f"tol must be a finite nonnegative real number; got {self.tol!r}")
            object.__setattr__(self, "tol", tol)
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


def _config_echo(config: HarnessConfig) -> dict:
    echo = asdict(config)
    echo["resolutions"] = list(config.resolutions)
    return echo


def _child_seed(seed: int, *key: int) -> int:
    seq = np.random.SeedSequence(entropy=[int(seed), *key])
    return int(seq.generate_state(1, np.uint64)[0])


_WORST = {"min-slack": np.argmin, "max-residual": np.argmax}


class _Collector:
    """Accumulates per-suite worst cases plus every individual violation."""

    def __init__(self):
        self.checks: list = []

    def add(self, record: CheckRecord) -> None:
        self.checks.append(record)

    def scan(self, suite: str, label: str, lhs, rhs, gap, passed) -> CheckRecord:
        """Record one suite from per-sample arrays: first the worst sample i,
        `suite/label(sample i)` with label "min-slack" (smallest gap) or
        "max-residual" (largest gap), then `suite/sample-j` for every other
        failing sample j, so each failing sample is counted once.  Returns the
        worst record."""
        def record(check_id: str, j: int) -> CheckRecord:
            return CheckRecord(check_id, float(lhs[j]), float(rhs[j]), float(gap[j]),
                               bool(passed[j]))

        i = int(_WORST[label](gap))
        worst = record(f"{suite}/{label}(sample {i})", i)
        self.add(worst)
        self.checks += [record(f"{suite}/sample-{j}", j)
                        for j in np.flatnonzero(np.logical_not(passed)) if j != i]
        return worst

    @property
    def violation_count(self) -> int:
        return sum(1 for c in self.checks if not c.passed)


def _finish(command: str, config: HarnessConfig, collector: _Collector,
            t0: float, extra: dict | None = None) -> RunReport:
    aggregates = {
        "violation_count": collector.violation_count,
        "checks_recorded": len(collector.checks),
        "runtime_seconds": time.monotonic() - t0,
    }
    if extra:
        aggregates.update(extra)
    return RunReport(command, _config_echo(config), collector.checks, aggregates)


def _ensemble(config: HarnessConfig, tag: int, i: int, depth: int) -> EnsembleConfig:
    return EnsembleConfig(
        seed=_child_seed(config.seed, tag, i),
        n_points=config.n_points,
        depth=depth,
        max_degree=config.max_degree,
    )


def _scalar_rng(config: HarnessConfig, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=[int(config.seed), *key]))


_IDENTITY_SUITES = ("sincos-identity", "orthogonal-split", "transform-isometry")


def cmd_identities(config: HarnessConfig) -> RunReport:
    """Exact-identity suites: single-coordinate identity, orthogonal split,
    and the transform isometry for Hardy martingales."""
    t0 = time.monotonic()
    col = _Collector()
    rng = _scalar_rng(config, 100)
    sides = np.empty((len(_IDENTITY_SUITES), config.samples, 3))  # lhs, rhs, scale

    for i in range(config.samples):
        h = random_hardy_function(_ensemble(config, 0, i, 1))
        b = complex(rng.standard_normal() + 1j * rng.standard_normal())
        w = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        rep = sincos_identity_sides(h, b, w / abs(w))
        sides[0, i] = (rep.lhs, rep.rhs, rep.rhs)
    for i in range(config.samples):
        h = random_hardy_function(_ensemble(config, 1, i, 1))
        b = complex(rng.standard_normal() + 1j * rng.standard_normal())
        lhs, rhs = decomposition_sides(h, b)
        sides[1, i] = (lhs, rhs, rhs)
    for i in range(config.samples):
        cfg = _ensemble(config, 2, i, config.depth)
        field_ = random_hardy_martingale(cfg)
        lhs, rhs = check_transform_isometry(field_, random_adapted_phases(cfg))
        sides[2, i] = (lhs, rhs, previsible_norm(field_))

    max_residual = max(
        col.scan(suite, "max-residual", lhs, rhs,
                 *residual_verdict(lhs, rhs, scale, config.tol)).gap
        for suite, (lhs, rhs, scale) in zip(_IDENTITY_SUITES, sides.transpose(0, 2, 1)))
    return _finish("identities", config, col, t0, {"max_residual": max_residual})


def cmd_lemmas(config: HarnessConfig) -> RunReport:
    """Scalar envelope bounds on stratified samples plus the integral bounds
    for random analytic data."""
    t0 = time.monotonic()
    col = _Collector()
    tol = config.tol

    mu, b, w = arith_sample_batch(_ensemble(config, 10, 0, 1), config.samples)
    rng = _scalar_rng(config, 101)
    sides = np.empty((config.samples, 5))
    for i in range(config.samples):
        h = random_hardy_function(_ensemble(config, 11, i, 1))
        b_i = complex(rng.standard_normal() + 1j * rng.standard_normal())
        w_i = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        rep = perturbation_bounds(h, b_i, w_i / abs(w_i))
        sides[i] = (rep.shift_lhs, rep.shift_rhs, rep.rotation_lhs, rep.rotation_rhs,
                    rep.split_rhs)

    shift_lhs, shift_rhs, rotation_lhs, rotation_rhs, split_rhs = sides.T
    bounds = {
        "envelope-gap": envelope_gap_sides(mu, b, w),
        "envelope-excess": envelope_excess_sides(mu, b),
        "shift-bound": (shift_lhs, shift_rhs),
        "rotation-bound": (rotation_lhs, rotation_rhs),
    }
    min_slack = min(col.scan(suite, "min-slack", lhs, rhs, *slack_verdict(lhs, rhs, tol)).gap
                    for suite, (lhs, rhs) in bounds.items())
    worst_split = col.scan("perturbation-split", "max-residual", shift_lhs, split_rhs,
                           *residual_verdict(shift_lhs, split_rhs, split_rhs, tol))

    return _finish(
        "lemmas", config, col, t0,
        {"min_slack": min_slack, "max_split_residual": worst_split.gap},
    )


# Coefficients plus phases per chunk of theorem samples: tens of small samples
# share each call's overhead, while the chunk's temporaries stay near 1 MiB
# (at N8 d3, 2^14 raises the peak RSS by ~1.4 MiB; 2^16 by ~6 MiB, no faster).
_CHUNK_ENTRIES = 2**14


def cmd_theorem(config: HarnessConfig) -> RunReport:
    """Full stability chain over a random Hardy ensemble; records per-step
    margins and the empirical maximum of the final ratio.

    Sample i is drawn alone, from _ensemble(config, 20, i, depth), and the
    chain is evaluated over chunks of samples at once."""
    t0 = time.monotonic()
    col = _Collector()
    grid = make_grid(config.n_points)
    depth = config.depth
    entries = (config.max_degree + 1) * sum(config.n_points**k for k in range(depth))
    chunk = max(1, _CHUNK_ENTRIES // entries)
    ratios, sides = [], []
    for start in range(0, config.samples, chunk):
        draws = []
        for i in range(start, min(start + chunk, config.samples)):
            cfg = _ensemble(config, 20, i, depth)
            draws.append((*random_coefficient_arrays(cfg), *random_adapted_phases(cfg).terms))
        # one sample is wrapped, not copied: at the memory guard it is the largest data
        arrays = [x[np.newaxis] for x in draws[0]] if len(draws) == 1 else [
            np.stack(level) for level in zip(*draws)]
        rep = _stability_batch(grid, arrays[:depth], arrays[depth:])
        ratios.append(rep.ratio)
        sides.append(_chain_sides(rep, config.tol))

    lhs, rhs, gap, passed = (np.concatenate(x, axis=1) for x in zip(*sides))
    min_slack = min(col.scan(f"chain/{step}", "min-slack", lhs[k], rhs[k], gap[k], passed[k]).gap
                    for k, step in enumerate(CHAIN_STEPS))
    return _finish(
        "theorem", config, col, t0,
        {"max_ratio": max([0.0, *np.concatenate(ratios).tolist()]), "min_slack": min_slack,
         "chain_constant": CHAIN_CONSTANT},
    )


_SEARCH_COEFF_STEP = 0.2
_SEARCH_PHASE_STEP = 0.25


def _search_ratio(grid, coeffs, angles):
    return stability_report_from_coefficients(grid, coeffs, phases_from_angles(grid, angles)).ratio


def cmd_constant_search(config: HarnessConfig) -> RunReport:
    """Multi-start stochastic hill climb on the final-ratio objective.

    Each of `samples` starts draws a fresh Hardy martingale and phase
    sequence, then runs `budget` Gaussian perturbation steps, accepting a
    step only when the ratio strictly increases.
    """
    t0 = time.monotonic()
    col = _Collector()
    grid = make_grid(config.n_points)

    best_ratio = -math.inf
    best_state = None
    trace: list = []

    for s in range(config.samples):
        cfg = _ensemble(config, 40, s, config.depth)
        coeffs = random_coefficient_arrays(cfg)
        angles = random_phase_angle_arrays(cfg)
        current = _search_ratio(grid, coeffs, angles)
        if current > best_ratio:
            best_ratio = current
            best_state = (coeffs, angles)
            trace.append({"start": s, "step": 0, "ratio": best_ratio})
        rng = _scalar_rng(config, 41, s)
        for t in range(1, config.budget + 1):
            prop_coeffs = [
                c
                + _SEARCH_COEFF_STEP
                * (rng.standard_normal(c.shape) + 1j * rng.standard_normal(c.shape))
                for c in coeffs
            ]
            prop_angles = [
                a + _SEARCH_PHASE_STEP * rng.standard_normal(np.shape(a)) for a in angles
            ]
            ratio = _search_ratio(grid, prop_coeffs, prop_angles)
            if ratio > current:
                current = ratio
                coeffs, angles = prop_coeffs, prop_angles
                if current > best_ratio:
                    best_ratio = current
                    best_state = (coeffs, angles)
                    trace.append({"start": s, "step": t, "ratio": best_ratio})

    deltas = [b["ratio"] - a["ratio"] for a, b in zip(trace, trace[1:])]
    min_delta = min(deltas, default=0.0)
    col.add(CheckRecord("search/trace-monotone", 0.0, min_delta, min_delta, min_delta >= 0.0))
    gap, passed = slack_verdict(best_ratio, CHAIN_CONSTANT, config.tol)
    col.add(CheckRecord("search/best-below-chain-constant", best_ratio, CHAIN_CONSTANT,
                        float(gap), bool(passed)))

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
        "constant-search", config, col, t0,
        {"best_ratio": best_ratio, "trace": trace, "argmax": argmax,
         "chain_constant": CHAIN_CONSTANT},
    )


def cmd_convergence(config: HarnessConfig) -> RunReport:
    """Resolution sweep of the dyadic coefficient of cos(theta), with the
    analytic limit 2/pi as anchor."""
    t0 = time.monotonic()
    col = _Collector()
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
        col.add(
            CheckRecord(
                f"error-bound/N{n}", err, 1.0 / n, 1.0 / n - err, err <= 1.0 / n
            )
        )
        if n in _ANCHORS:
            residual, passed = residual_verdict(b_n, _ANCHORS[n], _ANCHORS[n], tol)
            col.add(CheckRecord(f"anchor/N{n}", b_n, _ANCHORS[n], float(residual), bool(passed)))

    fitted_order = None
    if len(errors) >= 2:
        ns = np.array(sorted(errors))
        errs = np.array([errors[n] for n in ns])
        fitted_order = float(-np.polyfit(np.log(ns), np.log(errs), 1)[0])
        col.add(
            CheckRecord(
                "fitted-order-at-least-0.9", 0.9, fitted_order,
                fitted_order - 0.9, fitted_order >= 0.9
            )
        )

    return _finish(
        "convergence", config, col, t0,
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
