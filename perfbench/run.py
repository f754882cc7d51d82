"""edhsim benchmark: seeded Monte-Carlo workloads, measured end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc-grid --seed 0 --seconds 30 --trace 0

One closed-loop process: each call into the package starts after the
previous one returned; no worker threads or processes, BLAS/OpenMP pinned to
one thread. The package is imported from the checkout's ``src/``.

``--trace 0`` times set-up (import, scene build and one warm-up exposure,
median of several; each import is timed in a fresh interpreter that is
waited for before anything else runs) and then calls the workload until ``--seconds`` have
passed, making at least the workload's fixed number of accuracy calls. It
prints ``setup_s``, ``exposures_per_s``, ``peak_rss_mb``, ``depth_rmse_cm``
and ``boundary_rmse_bins``. ``--trace 1`` makes a fixed number of calls twice
each, untraced and traced, and prints per-layer call counts, self times and
work counts, plus the tracing overhead. Every run checks the outputs; the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

PINNED_THREADS = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
os.environ.update(PINNED_THREADS)  # before anything imports numpy

import argparse
import importlib
import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"
DIGESTS = BENCH_DIR / "digests.json"
TRACE_DIR = CHECKOUT / ".bench_trace"

UNITS = {
    "setup_s": "s",
    "exposures_per_s": "1/s",
    "peak_rss_mb": "MB",
    "depth_rmse_cm": "cm",
    "boundary_rmse_bins": "bins",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package() -> None:
    """Import edhsim from the checkout's src/."""
    if not (SRC / "edhsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no edhsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    edhsim = importlib.import_module("edhsim")
    if Path(edhsim.__file__).resolve().parent != SRC / "edhsim":
        raise SystemExit(f"error: imported edhsim from {edhsim.__file__}, not {SRC}")


# run in a fresh interpreter: prints how long importing edhsim (with numpy and scipy) takes
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import edhsim; print(time.perf_counter() - t0)"
)


def import_seconds() -> float:
    """Time one import of edhsim in a fresh interpreter.

    A module is imported once per process, so each set-up repetition starts
    its own interpreter. It runs before the timed work and is waited for.
    """
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, cwd=CHECKOUT, timeout=120)
    return float(out.stdout)


def git_sha() -> str:
    """The checkout's commit, or ``unknown`` when it is not a git checkout.

    ``--git-dir`` stops git from looking for a repository above the checkout.
    """
    try:
        out = subprocess.run(["git", "--git-dir", str(CHECKOUT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_record(args, wl) -> dict:
    import numpy
    import scipy

    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads_env": {k: os.environ.get(k) for k in PINNED_THREADS},
        "sizes": wl.record(),
    }


def timed_calls(wl, seed, checker, n_min, seconds):
    """Call the workload until ``seconds`` pass, at least ``n_min`` times.

    Returns ``(results of the first n_min calls, wall time of every call)``.
    """
    results, times = [], []
    start = time.perf_counter()
    while len(times) < n_min or time.perf_counter() - start + times[-1] <= seconds:
        t0 = time.perf_counter()
        res = wl.call(seed, len(times))
        times.append(time.perf_counter() - t0)
        wl.check(res, checker)
        if len(results) < n_min:
            results.append(res)
    return results, times


def check_digests(wl, seed, results, digests, checker) -> None:
    from workloads import digest, global_seed

    recorded = digests.get(wl.name, {})
    for i, res in enumerate(results):
        want = recorded.get(str(global_seed(seed, i)))
        if want is not None:
            checker.expect(digest(wl.canonical(res)) == want,
                           f"call {i}: output digest differs from the recorded one")


def measure(args, wl, checker, digests) -> dict:
    setup = []
    for _ in range(wl.size.n_setup):
        import_s = import_seconds()
        t0 = time.perf_counter()
        wl.build()
        wl.warmup(args.seed)
        setup.append(import_s + time.perf_counter() - t0)
    results, times = timed_calls(wl, args.seed, checker, wl.calls, args.seconds)
    check_digests(wl, args.seed, results, digests, checker)
    metrics = {
        "setup_s": median(setup),
        "exposures_per_s": wl.exposures_per_call / median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update(wl.accuracy(results))
    print(f"calls: {len(times)}, {wl.exposures_per_call} exposures each; "
          f"call wall time median {median(times):.4f} s, "
          f"min {min(times):.4f} s, max {max(times):.4f} s", flush=True)
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}


def measure_traced(args, wl, checker, digests):
    """Per-layer metrics from a traced run; returns ``(metrics, tracer)``.

    Set-up and ``trace_calls`` calls are traced. Each traced call is preceded
    by the same call untraced, which gives the tracing overhead and a check
    that tracing does not change the outputs.
    """
    from layers import layer_metrics, make_tracer, trace_targets
    from spans import Patches
    from workloads import digest

    tracer = make_tracer()
    patches = Patches()
    untraced, traced, outputs = [], [], []
    try:
        tracer.install(trace_targets(), patches)
        wl.build()
        wl.warmup(args.seed)
        patches.restore()
        for i in range(wl.trace_calls):
            t0 = time.perf_counter()
            plain = wl.call(args.seed, i)
            untraced.append(time.perf_counter() - t0)
            tracer.install(trace_targets(), patches)
            t0 = time.perf_counter()
            res = wl.call(args.seed, i)
            traced.append(time.perf_counter() - t0)
            patches.restore()
            wl.check(plain, checker)
            wl.check(res, checker)
            checker.expect(digest(wl.canonical(plain)) == digest(wl.canonical(res)),
                           f"call {i}: traced and untraced outputs differ")
            outputs.append(res)
    finally:
        patches.restore()
    check_digests(wl, args.seed, outputs, digests, checker)
    overhead = sum(traced) / sum(untraced) - 1.0
    return layer_metrics(tracer, overhead), tracer


def main(argv=None, size=None, digests=None) -> int:
    args = parse_args(argv)
    import_package()
    from spans import Patches
    from workloads import WORKLOADS, Checker, Size, install_checks

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    if size is None:  # the benchmark's own sizes, which the digests were recorded at
        size = Size()
        if digests is None and DIGESTS.is_file():
            digests = json.loads(DIGESTS.read_text())
    digests = digests or {}
    wl = WORKLOADS[args.workload](size)
    checker = Checker()
    patches = Patches()
    install_checks(checker, patches)
    try:
        if args.trace:
            metrics, tracer = measure_traced(args, wl, checker, digests)
        else:
            metrics = measure(args, wl, checker, digests)
    finally:
        patches.restore()
    record = run_record(args, wl)
    if args.trace:
        tracer.dump(TRACE_DIR / f"{wl.name}-seed{args.seed}.json", record)

    print("run record: " + json.dumps(record, sort_keys=True))
    failed_frac = checker.failed / max(checker.attempted, 1)
    print(f"{'failed_frac':>44}  {failed_frac:.6g} ratio "
          f"({checker.failed} of {checker.attempted} checks)")
    for name, m in metrics.items():
        print(f"{name:>44}  {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
