#!/usr/bin/env python3
"""Run every verification suite at a meaningful sample size, one theorem
sample at the memory-guard limit, one at depth 8, the 8-start constant search
and the convergence sweep through the hardylab CLI, and write the seven JSON
reports under results/.

Usage: python scripts/verify_all.py [--seed SEED] [--out-dir DIR]
"""

import argparse
import pathlib
import sys

from hardylab.cli import main as hardylab_main

# CLI arguments per report; theorem-guard is the memory-guard point
# N^depth = 2^24, evaluated from coefficients without grid^depth arrays, and
# theorem-deep, also 2^24 entries, the only run with 8 levels and a 7-axis
# dyadic projection.
RUNS = {
    "identities": "identities --n-points 16 --depth 3 --max-degree 5 --samples 1000",
    "lemmas": "lemmas --n-points 16 --max-degree 7 --samples 100000",
    "theorem": "theorem --n-points 8 --depth 3 --max-degree 3 --samples 1000",
    "theorem-guard": "theorem --n-points 64 --depth 4 --max-degree 3 --samples 1",
    "theorem-deep": "theorem --n-points 8 --depth 8 --max-degree 3 --samples 1",
    "constant-search": "constant-search --n-points 8 --depth 3 --max-degree 3 --samples 8 --budget 400",
    "convergence": "convergence --resolutions 4,8,16,32,64,128",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20260809)
    parser.add_argument("--out-dir", type=str, default="results")
    args = parser.parse_args()
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    exit_code = 0
    for name, argv in RUNS.items():
        path = out_dir / f"{name}.json"
        print(f"{path}: ", end="", flush=True)
        rc = hardylab_main(argv.split() + ["--seed", str(args.seed), "--out", str(path)])
        if rc == 2:  # usage error: the remaining reports would fail the same way
            return 2
        exit_code = max(exit_code, rc)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
