#!/usr/bin/env python3
"""Run every verification suite at a meaningful sample size, one theorem
sample at the memory-guard limit, the 8-start constant search and the
convergence sweep, and write the six JSON reports under results/.

Usage: python scripts/verify_all.py [--seed SEED] [--out-dir DIR]
"""

import argparse
import pathlib
import sys

from hardylab import COMMANDS, HarnessConfig, UsageError, write_json_report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20260809)
    parser.add_argument("--out-dir", type=str, default="results")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # (command, config) per report; theorem-guard is the memory-guard point
    # N^depth = 2^24, evaluated from coefficients without grid^depth arrays.
    runs = {
        "identities": ("identities", HarnessConfig(n_points=16, depth=3, max_degree=5,
                                                   samples=1000, seed=args.seed)),
        "lemmas": ("lemmas", HarnessConfig(n_points=16, depth=1, max_degree=7,
                                           samples=100_000, seed=args.seed)),
        "theorem": ("theorem", HarnessConfig(n_points=8, depth=3, max_degree=3,
                                             samples=1000, seed=args.seed)),
        "theorem-guard": ("theorem", HarnessConfig(n_points=64, depth=4, max_degree=3,
                                                   samples=1, seed=args.seed)),
        "constant-search": ("constant-search", HarnessConfig(n_points=8, depth=3, max_degree=3,
                                                             samples=8, budget=400,
                                                             seed=args.seed)),
        "convergence": ("convergence", HarnessConfig(resolutions=(4, 8, 16, 32, 64, 128),
                                                     seed=args.seed)),
    }

    exit_code = 0
    for name, (command, config) in runs.items():
        try:
            report = COMMANDS[command](config)
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        path = out_dir / f"{name}.json"
        write_json_report(report, str(path))
        agg = report.aggregates
        print(
            f"{name}: violations={agg['violation_count']} "
            f"runtime={agg['runtime_seconds']:.2f}s -> {path}"
        )
        if agg["violation_count"]:
            exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
