#!/usr/bin/env python3
"""Time the lab's CLI runs end to end and write BENCH_<label>.json.

Each run is one argv of scripts/verify_all.py's RUNS, plus the two identities
shapes that hold the most memory (one sample at the memory guard, N64 d4, and
one at N4 d12) and two N64 shapes of degree 31, whose gate products are cut
into blocks (torus._blas_product).  Every repeat of every run is a fresh
Python process that imports numpy.random and hardylab.cli before its timer
starts, then times one call of cli.main.  It records the call's wall time,
the process's peak RSS (ru_maxrss) and the minor page faults of the call
(ru_minflt), and the file gives the median and the interquartile range of
each over the repeats.

    python scripts/bench.py --label 37 [--repeats 5]
    python scripts/bench.py --label 37 --against ../parent --against-label 37-parent

With --against, the runs of a second checkout (its src/ is imported) alternate
with this one's, run by run, the side that runs first changing from repeat to
repeat, and its numbers go to BENCH_<against-label>.json: the host's speed
drifts, so compare two checkouts only from one such run.  Every run takes
verify_all.py's seed, SEED.
"""

import argparse
import ast
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
# verify_all.py's RUNS, read from its source: importing it would import hardylab here
RUNS = next(ast.literal_eval(node.value) for node in
            ast.parse((ROOT / "scripts" / "verify_all.py").read_text()).body
            if isinstance(node, ast.Assign) and node.targets[0].id == "RUNS")
EXTRA = {
    "identities-guard": "identities --n-points 64 --depth 4 --max-degree 3 --samples 1",
    "identities-deep": "identities --n-points 4 --depth 12 --max-degree 1 --samples 1",
    "lemmas-n64": "lemmas --n-points 64 --max-degree 31 --samples 4000",
    "identities-n64d2": "identities --n-points 64 --depth 2 --max-degree 31 --samples 200",
}
SEED = 20260809

# One measured call in a fresh process: argv[1] is the src directory to import.
CHILD = """
import contextlib, io, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
import numpy.random
import hardylab.cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
with contextlib.redirect_stdout(io.StringIO()):
    start = time.perf_counter()
    rc = hardylab.cli.main(sys.argv[2:])
    wall = time.perf_counter() - start
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({"rc": rc, "wall_s": wall, "peak_rss_mib": usage.ru_maxrss / 1024,
                  "minor_faults": usage.ru_minflt - before, "numpy": numpy.__version__}))
"""


# The children import only the checkout's src/, and write and read its
# bytecode: a process that compiles the modules on import reads about 1.6 MiB
# more peak RSS, so both checkouts compile once, in an untimed import.
ENV = {key: value for key, value in os.environ.items()
       if key not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}


def compile_once(src: pathlib.Path) -> None:
    """Import hardylab.cli from src once, untimed, so that its bytecode is current."""
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(src)!r}); "
                    "import hardylab.cli"], env=ENV, check=True)


def measure(src: pathlib.Path, argv: list, out: pathlib.Path) -> dict:
    """One fresh process running argv against the sources in src."""
    result = subprocess.run([sys.executable, "-c", CHILD, str(src), *argv, "--out", str(out)],
                            capture_output=True, text=True, env=ENV, check=True)
    record = json.loads(result.stdout.strip().splitlines()[-1])
    if record["rc"] != 0:
        raise SystemExit(f"{' '.join(argv)} exited {record['rc']} under {src}")
    return record


def summary(values: list) -> dict:
    """The median and interquartile range of values, and the values."""
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "iqr": quartiles[2] - quartiles[0],
            "values": values}


def git_state(checkout: pathlib.Path) -> dict:
    """The checkout's commit, and whether its src/ differs from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True).stdout.strip()
    return {"commit": git("rev-parse", "HEAD") or None,
            "src_changed": bool(git("status", "--porcelain", "--", "src"))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="BENCH_<label>.json is written")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out-dir", default=str(ROOT), help="where the BENCH files go")
    parser.add_argument("--against", help="a second checkout, run alternately")
    parser.add_argument("--against-label", help="label of the second checkout's file")
    args = parser.parse_args()
    if args.repeats < 1 or (args.against is None) != (args.against_label is None):
        parser.error("--repeats must be at least 1; --against needs --against-label")
    sides = {args.label: ROOT}
    if args.against:
        sides[args.against_label] = pathlib.Path(args.against).resolve()
    runs = {name: argv.split() + ["--seed", str(SEED)]
            for name, argv in {**RUNS, **EXTRA}.items()}
    values = {label: {name: [] for name in runs} for label in sides}
    for checkout in sides.values():
        compile_once(checkout / "src")
    with tempfile.TemporaryDirectory() as scratch:
        for repeat in range(args.repeats):
            for name, argv in runs.items():
                for label, checkout in list(sides.items())[::(-1) ** repeat]:
                    values[label][name].append(
                        measure(checkout / "src", argv, pathlib.Path(scratch) / f"{name}.json"))
                    print(f"repeat {repeat + 1}/{args.repeats} {label} {name}: "
                          f"{values[label][name][-1]['wall_s']:.3f} s", file=sys.stderr)
    for label, checkout in sides.items():
        bench = {
            "label": label, **git_state(checkout), "seed": SEED,
            "repeats": args.repeats, "python": platform.python_version(),
            "numpy": next(iter(values[label].values()))[0]["numpy"],
            "machine": platform.machine(), "cpu_count": os.cpu_count(),
            "against": [other for other in sides if other != label],
            "runs": {name: {"argv": " ".join(runs[name]),
                            **{key: summary([record[key] for record in records])
                               for key in ("wall_s", "peak_rss_mib", "minor_faults")}}
                     for name, records in values[label].items()},
        }
        path = pathlib.Path(args.out_dir) / f"BENCH_{label}.json"
        path.write_text(json.dumps(bench, indent=1) + "\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
