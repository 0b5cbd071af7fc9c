"""One benchmark process: set up a workload, run it, print one JSON line.

Started by ``run.py`` in a fresh interpreter, so ``setup_s`` includes the
imports and ``ru_maxrss`` after the warm-up iteration is this workload's
own peak. The reported ``setup_s`` and ``wall_s`` are scaled to a
reference machine speed (see ``calibrate``); the raw seconds are reported
beside them. Modes:

* ``--setup-only``: set up and report ``setup_s``;
* default: one warm-up iteration, then timed iterations for ``--seconds``;
  with ``--trace 1`` half the time runs untraced and half traced, and the
  wrappers are removed before the process reports;
* ``--iterations N``: exactly N timed iterations (the scaling curve).

The last stdout line is a JSON object; failures of the program's commands
are counted in it, failures of the benchmark itself exit non-zero.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import check  # noqa: E402
import spans as spans_mod  # noqa: E402
import workloads  # noqa: E402

MIN_ITERATIONS = 3
MIN_TRACE_ITERATIONS = 2
# The calibration kernel's time at the reference speed: about its time on
# the 2-core machine the benchmark was written on, so scaled figures read
# close to that machine's raw seconds.
CAL_REF_S = 0.16
_CAL_INPUTS = None


def _kernel(x, d, tmp, wide) -> None:
    for _ in range(8):
        d.fill(0.0)
        for col in x.T:
            np.subtract(col[:, None], col[None, :], out=tmp)
            np.abs(tmp, out=tmp)
            d += tmp
        d.sort(axis=1)
        total = 0
        for i in range(10_000):
            total += i % 7
    for col in wide.T:
        np.count_nonzero(np.abs(col[:, None] - col[None, :]) < 0.5)


def calibrate() -> float:
    """Seconds a fixed kernel takes now: the machine's current speed.

    On a shared machine the speed a process gets drifts by tens of percent
    over minutes, with CPU time equal to wall time, so no waiting shows it.
    Timing this kernel next to the work and reporting ``t * CAL_REF_S /
    kernel_s`` cancels much of that drift. The kernel does what the
    program's hot paths do, at a fixed size and seed. Its first part stays
    in cache: per-feature pairwise absolute differences summed into a
    preallocated 350 x 350 matrix, a row sort, and a pure-Python loop. Its
    second part computes pairwise differences into fresh 2100 x 2100
    arrays, the synthetic workloads' matrix size; arrays that large are
    always new mappings, so their page faults do not depend on the state of
    the process's heap. The first call runs the kernel once untimed.
    """
    global _CAL_INPUTS
    if _CAL_INPUTS is None:
        rng = np.random.default_rng(0)
        _CAL_INPUTS = (rng.random((350, 23)), np.empty((350, 350)), np.empty((350, 350)),
                       rng.random((2100, 3)))
        _kernel(*_CAL_INPUTS)
    start = time.perf_counter()
    _kernel(*_CAL_INPUTS)
    return time.perf_counter() - start


def run_iteration(ops, out_dir: Path, checker, log=sys.stderr) -> dict:
    """Run every command once; a raise or a failed check counts, never aborts."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    times: dict = {}
    failures: list = []
    for command, call in ops:
        start = time.perf_counter()
        try:
            call()
        except Exception:  # a failing command is a measured outcome
            times[command] = time.perf_counter() - start
            failures.append({"command": command, "error": traceback.format_exc(limit=3)})
            continue
        times[command] = time.perf_counter() - start
        try:
            problems = checker.check(command, check.summarize(command, out_dir))
        except Exception:  # unreadable outputs fail the check
            problems = [traceback.format_exc(limit=3)]
        if problems:
            failures.append({"command": command, "error": "; ".join(problems)})
    for f in failures:
        print(f"command {f['command']} failed: {f['error']}", file=log)
    return {
        "wall_s": sum(times.values()),
        "times": times,
        "attempted": len(ops),
        "failed": len(failures),
    }


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def timed_loop(step, seconds: float, minimum: int) -> list[dict]:
    """Iterate ``step`` until another iteration would pass ``seconds``."""
    records: list = []
    start = time.perf_counter()
    while True:
        records.append(step(len(records)))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in records)
        if len(records) >= minimum and elapsed + typical > seconds:
            return records


def _openblas_threads():
    """(library, thread count) of the OpenBLAS numpy loaded, if it exposes one."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return os.path.basename(lib), int(fn())
    return None, None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    lib, threads = _openblas_threads()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "openblas_version": blas.get("version"),
        "blas_library": lib,
        "blas_threads": threads,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "effortsim_threads_env": os.environ.get("EFFORTSIM_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--rows", type=int, default=workloads.SYNTH_ROWS)
    ap.add_argument("--iterations", type=int, default=None)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args(argv)

    es = workloads.import_effortsim()
    wl = workloads.prepare(es, args.workload, args.seed, args.work, rows=args.rows)
    setup_raw_s = time.perf_counter() - T0
    if args.setup_only:
        setup_s = setup_raw_s * CAL_REF_S / calibrate()
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    # Stored references describe the default population size only.
    reference = None
    if args.workload == "student" or args.rows == workloads.SYNTH_ROWS:
        reference = check.load_reference(args.workload, args.seed)
    checker = check.Checker(reference)
    ops = wl.ops(es)
    warm_up = run_iteration(ops, wl.out_dir, checker)  # checked and counted, not timed
    attempted, failed = warm_up["attempted"], warm_up["failed"]
    # A CLI user runs each command once per process: the peak of set-up and
    # one iteration, read before the calibration kernel's arrays exist.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cal = [calibrate()]
    setup_s = setup_raw_s * CAL_REF_S / cal[0]

    def step(_k):
        """One timed iteration, then the kernel: each iteration is scaled
        by the mean of the kernel times on either side of it."""
        nonlocal attempted, failed
        rec = run_iteration(ops, wl.out_dir, checker)
        cal.append(calibrate())
        rec["scaled_s"] = rec["wall_s"] * CAL_REF_S / statistics.fmean(cal[-2:])
        attempted += rec["attempted"]
        failed += rec["failed"]
        return rec

    result: dict = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "reference": "stored" if checker.stored else "repeat",
    }
    if args.iterations is not None:
        records = [step(k) for k in range(args.iterations)]
    elif not args.trace:
        records = timed_loop(step, args.seconds, MIN_ITERATIONS)
    else:
        half = args.seconds / 2
        records = timed_loop(step, half, MIN_TRACE_ITERATIONS)
        tracer = spans_mod.Tracer()
        per_iteration = []

        def traced_step(k):
            tracer.iteration = k
            first = len(tracer.spans)
            rec = step(k)
            m = spans_mod.iteration_metrics(tracer.spans[first:])
            m["harness.output_bytes"] = output_bytes(wl.out_dir)
            per_iteration.append(m)
            return rec

        with spans_mod.Instrumentation(tracer, spans_mod.targets(es)):
            traced = timed_loop(traced_step, half, MIN_TRACE_ITERATIONS)
        layers = spans_mod.median_metrics(per_iteration)
        layers["trace.overhead_s"] = statistics.median(r["scaled_s"] for r in traced) - statistics.median(
            r["scaled_s"] for r in records
        )
        result["per_layer"] = layers
        result["traced_iterations"] = len(traced)
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            args.spans.write_text(json.dumps([dataclasses.asdict(s) for s in tracer.spans]), encoding="utf-8")

    result.update(
        iterations=len(records),
        wall_s=statistics.median(r["scaled_s"] for r in records),
        wall_raw_s=statistics.median(r["wall_s"] for r in records),
        calibration_s=statistics.median(cal),
        iteration_wall_s=[r["wall_s"] for r in records],
        commands={
            c: statistics.median(r["times"][c] for r in records) for c in records[0]["times"]
        },
        peak_rss_mb=peak_rss_mb,
        attempted=attempted,
        failed=failed,
        environment=environment(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
