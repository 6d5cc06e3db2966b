"""Command-line front end for the experiment harness.

Exit codes: 0 all checks passed, 1 at least one mathematical check or
precondition failed, 2 usage or configuration error.  An optional JSON config
file can preset any flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

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

    commands = {
        "identities": ("run the exact-identity suites", _ENSEMBLE_FLAGS),
        "lemmas": ("run the scalar and integral inequality suites",
                   ("n_points", "max_degree", "samples")),  # its suites run at depth 1
        "theorem": ("verify the full stability chain on a random ensemble", _ENSEMBLE_FLAGS),
        "constant-search": ("stochastic search for the extremal stability ratio",
                            _ENSEMBLE_FLAGS + ("budget",)),
        "convergence": ("resolution sweep of the dyadic cosine coefficient", ("resolutions",)),
    }
    for command, (description, flags) in commands.items():
        _add_flags(sub.add_parser(command, help=description), flags + _COMMON_FLAGS)
    return parser


def _parse_resolutions(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise UsageError(f"bad resolutions list {text!r}") from exc


_CONFIG_KEYS = {f.name for f in fields(HarnessConfig)}


def _load_config_file(path: str) -> dict:
    """Settings from a JSON object; HarnessConfig checks their values."""
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
        if name not in _CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r}")
        settings[name] = value
    return settings


def _build_config(args: argparse.Namespace) -> HarnessConfig:
    """Per-command defaults, then the config file, then explicit flags."""
    settings = dict(_PER_COMMAND_DEFAULTS[args.command])
    if args.config:
        settings.update(_load_config_file(args.config))
    settings.update({name: value for name, value in vars(args).items()
                     if name not in ("command", "config") and value is not None})
    if isinstance(settings.get("resolutions"), str):
        settings["resolutions"] = _parse_resolutions(settings["resolutions"])
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
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a failed mathematical precondition, not a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_summary_line(report))
    return 0 if report.aggregates["violation_count"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
