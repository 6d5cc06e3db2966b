"""One measured process: import hardylab, call `hardylab.cli.main(argv)` once.

    python child.py T0 OPTIONS_JSON -- <hardylab argv>

T0 is the parent's `time.monotonic()` taken just before it started this
interpreter (CLOCK_MONOTONIC is shared by all processes), so `setup_s` covers
interpreter start plus the hardylab and numpy import.  OPTIONS_JSON holds
`result` (where to write the result as JSON), `calibrations` (keys of
CALIBRATIONS), and, for a traced process, `spans` (where to write them) and
`tracemalloc`.  Each calibration kernel runs right after the import and again
right after the call; `host_speed` maps it to the mean of its two rates.
"""

import json
import resource
import sys
import time
import traceback


def interpreter_speed() -> float:
    """Iterations per second of Python dispatch, small ufuncs and a 16x16 product,
    like the lab's inner loops."""
    import numpy as np

    theta = np.linspace(0.0, 2.0 * np.pi, 16)
    modes = np.arange(1.0, 8.0)
    mat = np.ones((16, 16), dtype=np.complex128)
    iterations = 2000
    start = time.perf_counter()
    for i in range(iterations):
        z = np.exp(1j * np.outer(modes, theta))
        prod = mat @ mat.T
        value = float(np.mean(np.abs(z) ** 2)) + sum([j * 0.5 for j in range(30)])
        _ = {"i": i, "v": [value, prod[0, 0]]}
    return iterations / (time.perf_counter() - start)


def bandwidth_speed() -> float:
    """Copies per second of a 64 MiB array, far beyond any last-level cache."""
    import numpy as np

    src = np.ones(8 * 2**20)
    dst = np.empty_like(src)
    copies = 6
    start = time.perf_counter()
    for _ in range(copies):
        np.copyto(dst, src)
    return copies / (time.perf_counter() - start)


# Fixed kernels that run no hardylab code.  The host's speed drifts by tens of
# percent within minutes; durations scaled by the rate of the kernel that
# matches a workload's bottleneck follow the code, not the host.
CALIBRATIONS = {"interpreter": interpreter_speed, "bandwidth": bandwidth_speed}


def _environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv) -> None:
    t0, options, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: child.py T0 OPTIONS_JSON -- <hardylab argv>")
    options = json.loads(options)
    import hardylab.cli

    setup_s = time.monotonic() - float(t0)
    kernels = {name: CALIBRATIONS[name] for name in options["calibrations"]}
    speed_before = {name: kernel() for name, kernel in kernels.items()}
    tracer = None
    if options.get("spans"):
        import spans

        tracer = spans.Tracer(track_alloc=options.get("tracemalloc", False))
        tracer.install()
    error = None
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        rc = hardylab.cli.main(cli_argv)
    except SystemExit as exc:  # argparse usage errors
        rc, error = exc.code, f"SystemExit({exc.code!r})"
    except Exception:  # recorded and counted as a failed run by the parent
        rc, error = None, traceback.format_exc()
    wall_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "host_speed": {name: (speed_before[name] + kernel()) / 2.0
                       for name, kernel in kernels.items()},
        "peak_rss_mb": peak_rss_mb,
        "rc": rc,
        "error": error,
        "module_file": hardylab.cli.__file__,
        "environment": _environment(),
    }
    if tracer is not None:
        samples = int(cli_argv[cli_argv.index("--samples") + 1])
        result["layers"] = tracer.layer_metrics(samples)
        tracer.dump(options["spans"], run_id=options["result"])
    with open(options["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
