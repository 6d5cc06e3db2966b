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

# command: its help line, its own flags in help order (the common ones follow)
# and its defaults, which the config file and explicit flags override
_COMMANDS = {
    "identities": ("run the exact-identity suites", "n_points depth max_degree samples",
                   {"samples": 400}),
    "lemmas": ("run the scalar and integral inequality suites",
               "n_points max_degree samples", {"samples": 2000}),  # its suites run at depth 1
    "theorem": ("verify the full stability chain on a random ensemble",
                "n_points depth max_degree samples", {"samples": 200}),
    "constant-search": ("stochastic search for the extremal stability ratio",
                        "n_points depth max_degree samples budget", {"samples": 4, "budget": 200}),
    "convergence": ("resolution sweep of the dyadic cosine coefficient", "resolutions", {}),
}
# dest: type and help; the flag is "--" + dest with "-" for "_"
_FLAGS = {
    "n_points": (int, "grid size (multiple of 4)"),
    "depth": (int, "martingale depth"),
    "max_degree": (int, "highest analytic mode"),
    "samples": (int, "sample count (or search starts)"),
    "seed": (int, "base seed"),
    "tol": (float, "residual / slack tolerance (convergence floors it at 1e-12)"),
    "budget": (int, "search steps per start"),
    "resolutions": (str, "comma-separated grid sizes, e.g. 4,8,16"),
    "out": (str, "write the JSON report here"),
    "csv": (str, "write the CSV table here"),
    "config": (str, "JSON file presetting the flags"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The hardylab parser: every command by name and help line, and the flags
    of `command` alone, or of every command when it is None.  A parser built for
    one command parses its arguments and prints its help and the top-level help
    exactly as the full parser does, with one command's add_argument calls
    (each of which builds a HelpFormatter that asks for the terminal size)."""
    parser = argparse.ArgumentParser(
        prog="hardylab",
        description="Verification lab for martingale estimates on discretized torus products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (description, flags, _) in _COMMANDS.items():
        command_parser = sub.add_parser(name, help=description)
        if command not in (None, name):
            continue
        for flag in flags.split() + ["seed", "tol", "out", "csv", "config"]:
            kind, text = _FLAGS[flag]
            command_parser.add_argument("--" + flag.replace("_", "-"), dest=flag, type=kind,
                                        default=None, help=text)
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
    settings = dict(_COMMANDS[args.command][2])
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
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top level takes no option with a value, so its first other word is the command
    command = next((word for word in argv if not word.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        config = _build_config(args)
        report = COMMANDS[args.command](config)
        if config.out:
            write_json_report(report, config.out)
        if config.csv:
            write_csv_report(report, config.csv)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a ValueError is a failed mathematical precondition, not a usage error
        return 1 if isinstance(exc, ValueError) else 2
    print(_summary_line(report))
    return 0 if report.aggregates["violation_count"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
