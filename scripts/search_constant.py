#!/usr/bin/env python3
"""Empirical lower bound for the best constant in the stability estimate.

Multi-start stochastic hill climb on the ratio

    ||U - E(U|D)||_P / (||T_W(G - E(G|D))||_P^(1/2) * ||G||_P^(1/2)),

printing the best ratio found and how far it sits below the proof-tracked
constant.

Usage: python scripts/search_constant.py [--starts 8] [--budget 400] ...
"""

import argparse
import sys

from hardylab import CHAIN_CONSTANT, HarnessConfig, UsageError, cmd_constant_search, write_json_report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-points", type=int, default=8)
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--max-degree", type=int, default=3)
    parser.add_argument("--starts", type=int, default=8)
    parser.add_argument("--budget", type=int, default=400)
    parser.add_argument("--seed", type=int, default=20260809)
    parser.add_argument("--out", type=str, default="results/constant_search.json")
    args = parser.parse_args()

    config = HarnessConfig(
        n_points=args.n_points,
        depth=args.depth,
        max_degree=args.max_degree,
        samples=args.starts,
        budget=args.budget,
        seed=args.seed,
    )
    try:
        report = cmd_constant_search(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    best = report.aggregates["best_ratio"]
    print(f"best ratio: {best:.6f}")
    print(f"tracked chain constant: {CHAIN_CONSTANT:.6f}")
    print(f"headroom factor: {CHAIN_CONSTANT / best:.2f}x")
    print(f"improvements: {len(report.aggregates['trace'])}")
    if args.out:
        import pathlib

        pathlib.Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        write_json_report(report, args.out)
        print(f"report -> {args.out}")
    return 0 if report.aggregates["violation_count"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
