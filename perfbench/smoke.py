"""Smoke test of the benchmark itself at tiny sizes (theorem N8 d2, 3 samples).

    python3 perfbench/smoke.py

Checks that every metric named in BENCHMARK.json appears with its unit in
both modes, that the traced counts repeat exactly, that a wrong recorded
headline value, a non-zero exit and a non-strict-JSON report each make
failed_share 1, and that the benchmark refuses to run without the sources.
Exits non-zero on the first failed check.  Takes about 15 seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))
import run  # noqa: E402

TINY = {"argv": ["theorem", "--n-points", "8", "--depth", "2", "--max-degree", "3"],
        "samples": 3, "tracemalloc": True}


def bench(spec: dict, *args: str) -> tuple:
    """Run run.py on a spec; return (exit code, stdout lines)."""
    path = OUT / "smoke-spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--spec", str(path), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def measure(spec: dict, trace: int) -> dict:
    rc, lines = bench(spec, "--workload", "tiny", "--seed", "7", "--seconds", "0",
                      "--trace", str(trace))
    check(rc == 0, f"run.py exited {rc}")
    result = json.loads(lines[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"keys {sorted(result)}")
    check(any(line.split()[:3] == ["failed_share", f"{result['failed'] / result['attempted']:.6g}",
                                   "ratio"] for line in lines), "failed_share line missing")
    return result


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"smoke FAILED: {what}")


def main() -> None:
    OUT.mkdir(exist_ok=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = {"default_seed": 12345, "workloads": {"tiny": dict(TINY, headline={})}}
    rc, lines = bench(spec, "--record", "--workload", "tiny")
    check(rc == 0, "recording headline values")
    spec["workloads"]["tiny"]["headline"] = json.loads("\n".join(lines))["tiny"]

    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = measure(spec, trace)
        check(result["correct"] and result["failed"] == 0, f"trace {trace}: {result}")
        units = {name: value["unit"] for name, value in result["metrics"].items()}
        want = {metric["name"]: metric["unit"] for metric in declared[kind]}
        check(units == want, f"trace {trace} metrics differ from BENCHMARK.json {kind}: "
                             f"{set(units.items()) ^ set(want.items())}")
        if trace:
            check(result["metrics"]["inequalities.stability_report.calls"]["value"] == 3,
                  "stability_report count")
            again = measure(spec, trace)["metrics"]
            for name, value in result["metrics"].items():
                if value["unit"] in ("count", "bytes_computed"):
                    check(again[name]["value"] == value["value"], f"{name} does not repeat")

    wrong = json.loads(json.dumps(spec))
    wrong["workloads"]["tiny"]["headline"]["max_ratio"] *= 1.5
    result = measure(wrong, 0)
    check(not result["correct"] and result["failed"] == result["attempted"],
          f"wrong headline must fail every sample: {result}")

    failing = json.loads(json.dumps(spec))  # --tol 0 makes round-off a violation: exit 1
    failing["workloads"]["tiny"]["argv"] = ["identities", "--n-points", "8", "--depth", "2",
                                            "--tol", "0"]
    result = measure(failing, 0)
    check(result["failed"] == result["attempted"], f"non-zero exit must fail the run: {result}")

    report = OUT / "smoke-report.json"
    report.write_text('{"aggregates": {"max_ratio": Infinity}}', encoding="utf-8")
    try:
        run.read_report(report, 1, None)
        check(False, "a report with Infinity must be rejected")
    except run.ReportError:
        pass

    bare = OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "theorem-n8d3",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(), "must refuse to run without src/")
    print("smoke ok")


if __name__ == "__main__":
    main()
