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
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .ensembles import (
    EnsembleConfig,
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
    decomposition_sides,
    envelope_excess_sides,
    envelope_gap_sides,
    perturbation_bounds,
    sincos_identity_sides,
    slack_within,
    stability_report_from_coefficients,
    verify_chain,
)
from .martingale import MEMORY_GUARD_ENTRIES, check_transform_isometry, previsible_norm
from .torus import GridFunction, inner_product, make_grid, sigma

HALF_CIRCLE_MEAN = 2.0 / math.pi  # limit of the dyadic cosine coefficient


class UsageError(Exception):
    """Bad configuration or flag usage; maps to exit code 2."""


@dataclass(frozen=True)
class HarnessConfig:
    n_points: int = 8
    depth: int = 2
    max_degree: int | None = None  # defaults to min(3, n_points//2 - 1)
    samples: int = 400
    seed: int = 12345
    tol: float = 1e-10
    budget: int = 200
    resolutions: tuple = (4, 8, 16, 32, 64, 128)
    out: str | None = None
    csv: str | None = None


@dataclass(frozen=True)
class CheckRecord:
    """One verified statement: both sides plus a gap.

    For identity checks `gap` is the relative residual |lhs-rhs|/rhs; for
    inequality checks it is the slack rhs - lhs (negative means violated
    beyond tolerance only if `passed` is False).
    """

    check_id: str
    lhs: float
    rhs: float
    gap: float
    passed: bool


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


def _validate_common(config: HarnessConfig, need_samples: bool = True) -> HarnessConfig:
    """Validate ensemble-facing settings; returns the config with the
    max_degree default resolved against the grid."""
    try:
        make_grid(config.n_points)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if need_samples and config.samples < 1:
        raise UsageError(f"samples must be positive; got {config.samples}")
    if config.tol < 0:
        raise UsageError(f"tol must be nonnegative; got {config.tol}")
    if config.depth < 1:
        raise UsageError(f"depth must be positive; got {config.depth}")
    max_d = config.n_points // 2 - 1
    if config.max_degree is None:
        config = replace(config, max_degree=min(3, max_d))
    if not 1 <= config.max_degree <= max_d:
        raise UsageError(
            f"max_degree must lie in 1..{max_d} for n_points={config.n_points}"
        )
    if config.n_points**config.depth > MEMORY_GUARD_ENTRIES:
        raise UsageError("memory guard: n_points^depth too large")
    return config


class _Collector:
    """Accumulates per-suite worst cases plus every individual violation."""

    def __init__(self):
        self.checks: list = []

    def add(self, record: CheckRecord) -> None:
        self.checks.append(record)

    def identity_scan(self, suite: str, samples: int, sides, tol: float) -> CheckRecord:
        """Record each sample i whose sides(i) = (lhs, rhs, scale) has residual
        |lhs - rhs| / scale above tol; return the worst residual's record unadded."""
        worst = (0, 0.0, 0.0, -1.0)
        for i in range(samples):
            lhs, rhs, scale = sides(i)
            residual = abs(lhs - rhs) / max(scale, 1e-300)
            if residual > worst[3]:
                worst = (i, lhs, rhs, residual)
            if residual > tol:
                self.violation(suite, i, lhs, rhs, residual)
        idx, lhs, rhs, residual = worst
        return CheckRecord(f"{suite}/max-residual(sample {idx})", lhs, rhs, residual,
                           residual <= tol)

    def slack_scan(self, suite: str, samples: int, steps, tol: float) -> float:
        """Record every failed step of steps(i), a list of ChainStep, for each
        sample i, then each step id's worst slack (relative to max(1, |lhs|,
        |rhs|)) in first-seen order; return the smallest slack overall."""
        worst: dict = {}
        for i in range(samples):
            for step in steps(i):
                slack = (step.rhs - step.lhs) / max(1.0, abs(step.lhs), abs(step.rhs))
                if step.step not in worst or slack < worst[step.step][3]:
                    worst[step.step] = (i, step.lhs, step.rhs, slack)
                if not step.passed:
                    self.violation(f"{suite}/{step.step}", i, step.lhs, step.rhs, slack)
        for step_id, (i, lhs, rhs, slack) in worst.items():
            self.add(CheckRecord(f"{suite}/{step_id}/min-slack(sample {i})", lhs, rhs, slack,
                                 slack >= -tol))
        return min((v[3] for v in worst.values()), default=0.0)

    def violation(self, suite: str, idx, lhs: float, rhs: float, gap: float) -> None:
        self.add(CheckRecord(f"{suite}/sample-{idx}", lhs, rhs, gap, False))

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


def _scalar_rng(config: HarnessConfig, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=[int(config.seed), tag]))


def cmd_identities(config: HarnessConfig) -> RunReport:
    """Exact-identity suites: single-coordinate identity, orthogonal split,
    and the transform isometry for Hardy martingales."""
    config = _validate_common(config)
    t0 = time.monotonic()
    col = _Collector()
    max_residual = 0.0

    rng = _scalar_rng(config, 100)

    def sincos(i):
        h = random_hardy_function(_ensemble(config, 0, i, 1))
        b = complex(rng.standard_normal() + 1j * rng.standard_normal())
        w = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        rep = sincos_identity_sides(h, b, w / abs(w))
        return rep.lhs, rep.rhs, rep.rhs

    def orthogonal_split(i):
        h = random_hardy_function(_ensemble(config, 1, i, 1))
        b = complex(rng.standard_normal() + 1j * rng.standard_normal())
        lhs, rhs = decomposition_sides(h, b)
        return lhs, rhs, rhs

    def transform_isometry(i):
        cfg = _ensemble(config, 2, i, config.depth)
        field_ = random_hardy_martingale(cfg)
        lhs, rhs = check_transform_isometry(field_, random_adapted_phases(cfg))
        return lhs, rhs, previsible_norm(field_)

    for suite, sides in (("sincos-identity", sincos), ("orthogonal-split", orthogonal_split),
                         ("transform-isometry", transform_isometry)):
        worst = col.identity_scan(suite, config.samples, sides, config.tol)
        col.add(worst)
        max_residual = max(max_residual, worst.gap)

    return _finish("identities", config, col, t0, {"max_residual": max_residual})


def _slack_suite(col: _Collector, suite: str, lhs: np.ndarray, rhs: np.ndarray,
                 tol: float) -> float:
    """Record the worst slack of an inequality suite plus all violations."""
    lhs = np.atleast_1d(np.asarray(lhs, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    slack = (rhs - lhs) / scale
    worst = int(np.argmin(slack))
    passed = slack >= -tol
    col.add(
        CheckRecord(
            f"{suite}/min-slack(sample {worst})",
            float(lhs[worst]),
            float(rhs[worst]),
            float(slack[worst]),
            bool(passed[worst]),
        )
    )
    for i in np.nonzero(~passed)[0]:
        if i != worst:
            col.violation(suite, int(i), float(lhs[i]), float(rhs[i]), float(slack[i]))
    return float(slack[worst])


def cmd_lemmas(config: HarnessConfig) -> RunReport:
    """Scalar envelope bounds on stratified samples plus the integral bounds
    for random analytic data."""
    config = _validate_common(config)
    t0 = time.monotonic()
    col = _Collector()
    tol = config.tol
    min_slack = math.inf

    arith_cfg = _ensemble(config, 10, 0, 1)
    mu, b, w = arith_sample_batch(arith_cfg, config.samples)
    gap_lhs, gap_rhs = envelope_gap_sides(mu, b, w)
    min_slack = min(min_slack, _slack_suite(col, "envelope-gap", gap_lhs, gap_rhs, tol))
    exc_lhs, exc_rhs = envelope_excess_sides(mu, b)
    min_slack = min(min_slack, _slack_suite(col, "envelope-excess", exc_lhs, exc_rhs, tol))

    rng = _scalar_rng(config, 101)
    shift = np.zeros((config.samples, 2))
    rot = np.zeros((config.samples, 2))

    def split_sides(i):
        h = random_hardy_function(_ensemble(config, 11, i, 1))
        b_i = complex(rng.standard_normal() + 1j * rng.standard_normal())
        w_i = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        rep = perturbation_bounds(h, b_i, w_i / abs(w_i))
        shift[i] = (rep.shift_lhs, rep.shift_rhs)
        rot[i] = (rep.rotation_lhs, rep.rotation_rhs)
        split_lhs, split_rhs = decomposition_sides(h, b_i)
        return split_lhs, split_rhs, split_rhs

    worst_split = col.identity_scan("perturbation-split", config.samples, split_sides, tol)
    min_slack = min(min_slack, _slack_suite(col, "shift-bound", shift[:, 0], shift[:, 1], tol))
    min_slack = min(min_slack, _slack_suite(col, "rotation-bound", rot[:, 0], rot[:, 1], tol))
    col.add(worst_split)

    return _finish(
        "lemmas", config, col, t0,
        {"min_slack": min_slack, "max_split_residual": worst_split.gap},
    )


def cmd_theorem(config: HarnessConfig) -> RunReport:
    """Full stability chain over a random Hardy ensemble; records per-step
    margins and the empirical maximum of the final ratio."""
    config = _validate_common(config)
    t0 = time.monotonic()
    col = _Collector()
    grid = make_grid(config.n_points)
    ratios = []

    def chain(i):
        cfg = _ensemble(config, 20, i, config.depth)
        rep = stability_report_from_coefficients(
            grid, random_coefficient_arrays(cfg), random_adapted_phases(cfg))
        ratios.append(rep.ratio)
        return verify_chain(rep, slack=config.tol)

    min_slack = col.slack_scan("chain", config.samples, chain, config.tol)
    return _finish(
        "theorem", config, col, t0,
        {"max_ratio": max([0.0, *ratios]), "min_slack": min_slack,
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
    config = _validate_common(config)
    if config.budget < 0:
        raise UsageError(f"budget must be nonnegative; got {config.budget}")
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
            best_state = ([c.copy() for c in coeffs], [a.copy() for a in angles])
            trace.append({"start": s, "step": 0, "ratio": best_ratio})
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=[int(config.seed), 41, s])
        )
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
                    best_state = (
                        [c.copy() for c in coeffs],
                        [a.copy() for a in angles],
                    )
                    trace.append({"start": s, "step": t, "ratio": best_ratio})

    deltas = [b["ratio"] - a["ratio"] for a, b in zip(trace, trace[1:])]
    min_delta = min(deltas, default=0.0)
    col.add(CheckRecord("search/trace-monotone", 0.0, min_delta, min_delta, min_delta >= 0.0))
    col.add(
        CheckRecord(
            "search/best-below-chain-constant",
            best_ratio,
            CHAIN_CONSTANT,
            CHAIN_CONSTANT - best_ratio,
            slack_within(best_ratio, CHAIN_CONSTANT, config.tol),
        )
    )

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
    if not config.resolutions:
        raise UsageError("resolutions must be a nonempty list")
    for n in config.resolutions:
        try:
            make_grid(n)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    if config.tol < 0:
        raise UsageError(f"tol must be nonnegative; got {config.tol}")
    t0 = time.monotonic()
    col = _Collector()
    tol = max(config.tol, 1e-12)

    rows = []
    errors = {}
    for n in sorted(set(int(r) for r in config.resolutions)):
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
        if n == 4:
            anchor = math.sqrt(2.0) / 2.0
            residual = abs(b_n - anchor) / anchor
            col.add(CheckRecord("anchor/N4", b_n, anchor, residual, residual <= tol))
        if n == 8:
            anchor = 1.0 / (4.0 * math.sin(math.pi / 8.0))
            residual = abs(b_n - anchor) / anchor
            col.add(CheckRecord("anchor/N8", b_n, anchor, residual, residual <= tol))

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
    """Sweep table for convergence runs; (n_points, check, gap) rows otherwise."""
    lines = ["resolution,quantity,value"]
    table = report.aggregates.get("table")
    if table is not None:
        for row in table:
            lines.append(f"{row['resolution']},{row['quantity']},{row['value']!r}")
    else:
        n = report.config.get("n_points")
        for check in report.checks:
            lines.append(f"{n},{check.check_id},{check.gap!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
