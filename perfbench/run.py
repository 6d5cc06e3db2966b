"""hardylab benchmark: run one workload through `hardylab.cli.main` and report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, their reasons, the metric predictions and the headline values
recorded for the default seed live in perfbench/workloads.json.  Each
measured process is a fresh interpreter (child.py) that imports hardylab from
src/ and calls `cli.main` once with the workload's argv.  Process 0 of every
run uses the default seed and its headline values must match the recorded
ones; later processes use seeds derived from --seed.  Processes are started
one after another until S seconds have passed (at least MIN_PROCESSES).

--trace 0 prints the end-to-end metrics: setup_s and peak_rss_mb as medians
over the run's processes, samples_per_s as all samples over the summed wall
time of the `cli.main` calls.  Durations are scaled to a reference host speed
with the calibration kernels of child.py (see README.md); unscaled values are
printed too.  failed_share is printed and carried by the `attempted`/`failed`
fields.  --trace 1 runs pairs of an untraced and a traced process on the same
seed and prints the per-layer metrics; spans go to perfbench/out/.  The last
stdout line is the JSON result.

    python3 perfbench/run.py --record [--workload NAME]

prints the default-seed headline values to store in workloads.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
HEADLINE_KEYS = ("max_ratio", "min_slack", "max_residual", "max_split_residual")
# Round-off may move headline values between BLAS builds or equivalent
# algorithms; a changed random stream moves them far beyond this.
HEADLINE_RTOL, HEADLINE_ATOL = 1e-9, 1e-12
# Rates of the calibration kernels in child.py that durations are scaled to:
# about their medians on a 2-core Xeon VM with Python 3.11.7 and numpy 2.4.6.
REFERENCE_SPEED = {"interpreter": 40000.0, "bandwidth": 80.0}
MIN_PROCESSES = 3
PROCESS_TIMEOUT_S = 150
MIB = 2.0**20
COMPLEX_BYTES = 16


class ReportError(Exception):
    """The report cannot be trusted: the samples it covers count as failed."""


def _reject_constant(name):
    raise ReportError(f"report holds non-JSON constant {name}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(ROOT / "src"), env.get("PYTHONPATH")) if path)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # time imports with bytecode cached, as installed
    return env


def process_seed(seed: int, k: int, default_seed: int) -> int:
    return default_seed if k == 0 else (seed % 2**32) * 1000 + k


def read_report(path: Path, samples: int, expected: dict | None) -> tuple:
    """Strictly parse a report; return (headline values, failed samples)."""
    try:
        report = json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        raise ReportError(f"unreadable report: {exc}") from exc
    aggregates = report.get("aggregates", {})
    headline = {key: aggregates[key] for key in HEADLINE_KEYS if key in aggregates}
    if not headline:
        raise ReportError("report has no headline values")
    for key, want in (expected or {}).items():
        got = headline.get(key)
        if got is None or abs(got - want) > HEADLINE_RTOL * abs(want) + HEADLINE_ATOL:
            raise ReportError(f"headline {key} = {got!r}, recorded {want!r}")
    return headline, min(samples, int(aggregates.get("violation_count", samples)))


def run_process(name: str, workload: dict, seed: int, tag: str, expected: dict | None,
                traced: bool = False) -> dict:
    """Run one fresh child process; return its measurements and failure count."""
    samples = workload["samples"]
    stem = OUT / f"{name}-{os.getpid()}-{tag}"
    result_path, report_path = Path(f"{stem}.result.json"), Path(f"{stem}.report.json")
    options = {"result": str(result_path),
               "calibrations": sorted({"interpreter", calibration(workload)})}
    if traced:
        options.update(spans=f"{stem}.spans.json", tracemalloc=workload.get("tracemalloc", False))
    argv = [*workload["argv"], "--samples", str(samples), "--seed", str(seed),
            "--out", str(report_path)]
    record = {"seed": seed, "samples": samples, "traced": traced, "failed": samples,
              "spans_path": options.get("spans")}
    cmd = [sys.executable, str(HERE / "child.py"), "", json.dumps(options), "--", *argv]
    cmd[2] = repr(time.monotonic())
    proc = None
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=PROCESS_TIMEOUT_S)
        result = json.loads(result_path.read_text(encoding="utf-8"))
        record.update(result)
        if result["rc"] != 0:
            raise ReportError(f"hardylab exited {result['rc']}: "
                              f"{result['error'] or proc.stderr.strip()[-2000:]}")
        if not result["module_file"].startswith(str(ROOT / "src")):
            raise ReportError(f"hardylab imported from {result['module_file']}, not src/")
        record["headline"], record["failed"] = read_report(report_path, samples, expected)
    except subprocess.TimeoutExpired:
        record["problem"] = f"timed out after {PROCESS_TIMEOUT_S} s"
    except (OSError, ValueError) as exc:
        detail = f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}" if proc else exc
        record["problem"] = f"no result from the child ({detail})"
    except ReportError as exc:
        record["problem"] = str(exc)
    finally:
        result_path.unlink(missing_ok=True)
        report_path.unlink(missing_ok=True)
    return record


def warm_up() -> None:
    """Compile bytecode and fill the page cache; users do not pay this per run."""
    subprocess.run([sys.executable, "-c", "import hardylab.cli"], cwd=ROOT, env=child_env(),
                   check=True, timeout=PROCESS_TIMEOUT_S)


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment_stamp(first: dict) -> dict:
    """What ran and where; compare results only between equal stamps."""
    threads = {var: os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
               if var in os.environ}
    return {
        "python": platform.python_version(),
        "numpy": first.get("environment", {}).get("numpy"),
        "blas": first.get("environment", {}).get("blas"),
        "blas_thread_cap": threads or f"unset: one thread per usable CPU ({os.cpu_count()})",
        "git_commit": git_commit(),
        "host": platform.node(),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def terminal_mib(argv: list) -> float:
    """Size of the martingale terminal array, or 0 for commands without one."""
    if argv[0] not in ("theorem", "identities"):
        return 0.0
    n, depth = int(argv[argv.index("--n-points") + 1]), int(argv[argv.index("--depth") + 1])
    return n**depth * COMPLEX_BYTES / MIB


def calibration(workload: dict) -> str:
    """The calibration kernel matching the workload's bottleneck."""
    return workload.get("calibration", "interpreter")


def at_reference_speed(process: dict, seconds: float, kernel: str) -> float:
    """A duration as it would read on a host where `kernel` runs at REFERENCE_SPEED."""
    return seconds * process["host_speed"][kernel] / REFERENCE_SPEED[kernel]


def unscaled(process: dict, seconds: float, kernel: str) -> float:
    return seconds


def end_to_end(processes: list, kernel: str, scale=at_reference_speed) -> dict:
    """Scale the import by the interpreter kernel and the calls by `kernel`."""
    timed = [p for p in processes if "wall_s" in p]
    return {
        "setup_s": (statistics.median(scale(p, p["setup_s"], "interpreter") for p in timed),
                    "s"),
        # Total over total, not a median of per-process rates: the host's speed
        # switches between modes every few seconds, and a median jumps between them.
        "samples_per_s": (sum(p["samples"] for p in timed)
                          / sum(scale(p, p["wall_s"], kernel) for p in timed), "1/s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in timed), "MiB"),
    }


def per_layer(workload: dict, pairs: list) -> dict:
    """Layer metrics of the traced processes plus metrics of the untraced twins."""
    untraced = [u for u, t in pairs if "wall_s" in u and "wall_s" in t]
    traced = [t for u, t in pairs if "wall_s" in u and "wall_s" in t]
    layers = [t["layers"] for t in traced]
    metrics = {}
    for key, (_, unit) in layers[0].items():
        values = [layer[key][0] for layer in layers]
        if unit == "count" and len(set(values)) > 1:
            print(f"warning: {key} differs between traced processes: {values}", file=sys.stderr)
        metrics[key] = (statistics.median(values), unit)
    mib = terminal_mib(workload["argv"])
    metrics["martingale.rss_amplification"] = (
        statistics.median(u["peak_rss_mb"] for u in untraced) / mib if mib else 0.0, "ratio")
    untraced_wall = sum(u["wall_s"] for u in untraced)
    metrics["process.cpu_s"] = (statistics.median(u["cpu_s"] for u in untraced), "s")
    metrics["process.cpu_per_wall"] = (sum(u["cpu_s"] for u in untraced) / untraced_wall,
                                       "ratio")
    kernel = calibration(workload)
    metrics["trace.overhead_share"] = (
        sum(at_reference_speed(t, t["wall_s"], kernel) for t in traced)
        / sum(at_reference_speed(u, u["wall_s"], kernel) for u in untraced) - 1.0, "ratio")
    return metrics


def measure(name: str, workload: dict, args, default_seed: int) -> tuple:
    """Start processes until the time is up; return (processes, metrics).

    The spans of the first traced process are kept as out/spans-<workload>-seed<n>.json.
    """
    expected = workload["headline"]
    processes, pairs = [], []
    deadline = time.monotonic() + args.seconds
    k = 0
    while k < MIN_PROCESSES or time.monotonic() < deadline:
        seed = process_seed(args.seed, k, default_seed)
        want = expected if k == 0 else None
        if args.trace:
            # Alternate which side of a pair runs first, so that neither side
            # always follows the previous pair's process.
            order = (False, True) if k % 2 == 0 else (True, False)
            runs = {traced: run_process(name, workload, seed, f"{k}{'ut'[traced]}", want, traced)
                    for traced in order}
            pair = (runs[False], runs[True])
            spans = Path(pair[1]["spans_path"])
            if k == 0 and spans.is_file():
                spans.replace(OUT / f"spans-{name}-seed{args.seed}.json")
            spans.unlink(missing_ok=True)
            pairs.append(pair)
            processes.extend(pair)
        else:
            processes.append(run_process(name, workload, seed, str(k), want))
        k += 1
    if args.trace:
        if not any("wall_s" in u and "wall_s" in t for u, t in pairs):
            return processes, None
        return processes, per_layer(workload, pairs)
    if not any("wall_s" in p for p in processes):
        return processes, None
    return processes, end_to_end(processes, calibration(workload))


def record(spec: dict, names: list) -> None:
    headlines = {}
    for name in names:
        proc = run_process(name, spec["workloads"][name], spec["default_seed"], "record", None)
        if "problem" in proc:
            raise SystemExit(f"{name}: {proc['problem']}")
        headlines[name] = proc["headline"]
    print(json.dumps(headlines, indent=2))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spec", default=str(HERE / "workloads.json"),
                        help="workload file (the smoke test passes its own)")
    parser.add_argument("--record", action="store_true",
                        help="print default-seed headline values instead of measuring")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hardylab" / "cli.py").is_file():
        print(f"error: no hardylab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    if args.workload is not None and args.workload not in spec["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(spec['workloads'])}")
    OUT.mkdir(exist_ok=True)
    load_at_start = os.getloadavg()
    warm_up()
    if args.record:
        record(spec, [args.workload] if args.workload else list(spec["workloads"]))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workload = spec["workloads"][args.workload]
    processes, metrics = measure(args.workload, workload, args, spec["default_seed"])
    attempted = sum(p["samples"] for p in processes)
    problems = [p for p in processes if "problem" in p]
    for p in problems:
        print(f"failed process (seed {p['seed']}): {p['problem']}", file=sys.stderr)
    # One untrustworthy process (error, non-zero exit, bad report, headline
    # mismatch) fails every sample of the run.
    failed = attempted if problems else sum(p["failed"] for p in processes)
    if metrics is None:
        print("error: no process produced a measurement", file=sys.stderr)
        return 1
    stamp = environment_stamp(processes[0])
    stamp["loadavg_at_start"] = load_at_start
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": stamp, "processes": len(processes),
        "failed_share": failed / attempted,
        "metrics": {key: {"value": v, "unit": u} for key, (v, u) in metrics.items()},
        "runs": [{k: v for k, v in p.items() if k != "layers"} for p in processes],
    }
    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"

    print("environment " + json.dumps(stamp))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(processes)} processes, "
          f"{attempted} samples; details in {out_file.relative_to(ROOT)}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:44s} {value:.6g} {unit}")
    if not args.trace:
        raw = end_to_end(processes, calibration(workload), unscaled)
        summary["unscaled"] = {key: value for key, (value, _) in raw.items()}
        speeds = {kernel: statistics.median(p["host_speed"][kernel] for p in processes
                                            if "host_speed" in p)
                  for kernel in processes[0].get("host_speed", {})}
        summary["host_speed"] = speeds
        print(f"  unscaled: setup_s {raw['setup_s'][0]:.6g} s, samples_per_s "
              f"{raw['samples_per_s'][0]:.6g} 1/s at host_speed {speeds} "
              f"(reference {REFERENCE_SPEED})")
    print(f"  {'failed_share':44s} {failed / attempted:.6g} ratio")
    out_file.write_text(json.dumps(summary, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
