#!/usr/bin/env python3
"""Grid-refinement study of the dyadic cosine coefficient against its
continuum limit 2/pi, with the fitted convergence order.

Usage: python scripts/convergence_sweep.py [--resolutions 4,8,...,128]
"""

import argparse
import sys

from hardylab import HarnessConfig, UsageError, cmd_convergence, write_csv_report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--resolutions", type=str, default="4,8,16,32,64,128")
    parser.add_argument("--csv", type=str, default="results/convergence.csv")
    args = parser.parse_args()

    resolutions = tuple(int(part) for part in args.resolutions.split(","))
    try:
        report = cmd_convergence(HarnessConfig(resolutions=resolutions))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"{'N':>6} {'coefficient':>16} {'error vs 2/pi':>16}")
    values = {}
    for row in report.aggregates["table"]:
        values.setdefault(row["resolution"], {})[row["quantity"]] = row["value"]
    for n in sorted(values):
        print(
            f"{n:>6} {values[n]['dyadic-cos-coefficient']:>16.12f} "
            f"{values[n]['dyadic-cos-error']:>16.3e}"
        )
    print(f"fitted order: {report.aggregates['fitted_order']:.3f}")

    if args.csv:
        import pathlib

        pathlib.Path(args.csv).parent.mkdir(parents=True, exist_ok=True)
        write_csv_report(report, args.csv)
        print(f"table -> {args.csv}")
    return 0 if report.aggregates["violation_count"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
