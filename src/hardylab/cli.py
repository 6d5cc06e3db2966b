"""Command-line front end for the experiment harness.

Exit codes: 0 all checks passed, 1 at least one mathematical check failed,
2 usage or configuration error.  An optional JSON config file can preset any
flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
from dataclasses import asdict

from .harness import (
    COMMANDS,
    HarnessConfig,
    UsageError,
    write_csv_report,
    write_json_report,
)

_PER_COMMAND_DEFAULTS = {
    "identities": {"samples": 400},
    "lemmas": {"samples": 2000},
    "theorem": {"samples": 200},
    "constant-search": {"samples": 4, "budget": 200},
    "convergence": {},
}

_COMMON_FLAGS = ("seed", "tol", "out", "csv", "config")
_ENSEMBLE_FLAGS = ("n_points", "depth", "max_degree", "samples")


def _add_flags(parser: argparse.ArgumentParser, names) -> None:
    spec = {
        "n_points": dict(flag="--n-points", type=int, help="grid size (multiple of 4)"),
        "depth": dict(flag="--depth", type=int, help="martingale depth"),
        "max_degree": dict(flag="--max-degree", type=int, help="highest analytic mode"),
        "samples": dict(flag="--samples", type=int, help="sample count (or search starts)"),
        "seed": dict(flag="--seed", type=int, help="base seed"),
        "tol": dict(flag="--tol", type=float,
                    help="residual / slack tolerance (convergence floors it at 1e-12)"),
        "budget": dict(flag="--budget", type=int, help="search steps per start"),
        "resolutions": dict(flag="--resolutions", type=str,
                            help="comma-separated grid sizes, e.g. 4,8,16"),
        "out": dict(flag="--out", type=str, help="write the JSON report here"),
        "csv": dict(flag="--csv", type=str, help="write the CSV table here"),
        "config": dict(flag="--config", type=str, help="JSON file presetting the flags"),
    }
    for name in names:
        info = spec[name]
        parser.add_argument(info["flag"], dest=name, type=info["type"],
                            default=None, help=info["help"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardylab",
        description="Verification lab for martingale estimates on discretized torus products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    descriptions = {
        "identities": "run the exact-identity suites",
        "lemmas": "run the scalar and integral inequality suites",
        "theorem": "verify the full stability chain on a random ensemble",
        "constant-search": "stochastic search for the extremal stability ratio",
        "convergence": "resolution sweep of the dyadic cosine coefficient",
    }
    for command, description in descriptions.items():
        sp = sub.add_parser(command, help=description)
        if command == "convergence":
            _add_flags(sp, ("resolutions",) + _COMMON_FLAGS)
        elif command == "constant-search":
            _add_flags(sp, _ENSEMBLE_FLAGS + ("budget",) + _COMMON_FLAGS)
        else:
            _add_flags(sp, _ENSEMBLE_FLAGS + _COMMON_FLAGS)
    return parser


def _parse_resolutions(text: str):
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise UsageError(f"bad resolutions list {text!r}") from exc
    if not values:
        raise UsageError("resolutions list is empty")
    return values


_FIELD_TYPES = typing.get_type_hints(HarnessConfig)


def _has_field_type(value, hint) -> bool:
    """Whether a JSON value fits a HarnessConfig field: an integer also fits a
    float field, a tuple field takes a list of integers or a comma-separated
    string, and booleans fit no field."""
    types = typing.get_args(hint) or (hint,)
    if isinstance(value, bool):
        return False
    if tuple in types:
        return isinstance(value, str) or (
            isinstance(value, list) and all(_has_field_type(v, int) for v in value))
    return isinstance(value, types + ((int,) if float in types else ()))


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("config file must hold a JSON object")
    settings = {}
    for key, value in raw.items():
        name = key.replace("-", "_")
        if name not in _FIELD_TYPES:
            raise UsageError(f"unknown config key {key!r}")
        if not _has_field_type(value, _FIELD_TYPES[name]):
            raise UsageError(f"config key {key!r} has the wrong type: {value!r}")
        settings[name] = value
    return settings


def _build_config(args: argparse.Namespace) -> HarnessConfig:
    settings = asdict(HarnessConfig())
    settings.update(_PER_COMMAND_DEFAULTS[args.command])
    if getattr(args, "config", None):
        settings.update(_load_config_file(args.config))
    for name in vars(args):
        if name in ("command", "config"):
            continue
        value = getattr(args, name)
        if value is not None:
            settings[name] = value
    if isinstance(settings.get("resolutions"), str):
        settings["resolutions"] = _parse_resolutions(settings["resolutions"])
    else:
        settings["resolutions"] = tuple(int(r) for r in settings["resolutions"])
    return HarnessConfig(**settings)


def _summary_line(report) -> str:
    agg = report.aggregates
    extras = []
    for key in ("max_residual", "min_slack", "max_ratio", "best_ratio", "fitted_order"):
        if agg.get(key) is not None:
            extras.append(f"{key}={agg[key]:.6g}")
    extras.append(f"runtime={agg['runtime_seconds']:.2f}s")
    return (
        f"{report.command}: violations={agg['violation_count']} "
        f"checks={agg['checks_recorded']} " + " ".join(extras)
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _build_config(args)
        report = COMMANDS[args.command](config)
        if config.out:
            write_json_report(report, config.out)
        if config.csv:
            write_csv_report(report, config.csv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(_summary_line(report))
    return 0 if report.aggregates["violation_count"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
