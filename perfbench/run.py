"""effortsim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload student --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``. The workload runs in a fresh child process (see
``worker.py``) whose BLAS threads are capped at ``nproc``;
``EFFORTSIM_THREADS`` is removed from its environment. ``setup_s`` is the
median over that process and ``SETUP_PROBES`` set-up-only processes.
``wall_s`` and ``setup_s`` are scaled to a reference machine speed by a
calibration kernel timed in the same process (``worker.calibrate``).

The last stdout line is the result: ``correct``, ``attempted`` and
``failed`` count command calls, and ``metrics`` holds the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``). The line
before it holds the details: environment, raw (unscaled) times,
per-command medians, iteration counts and set-up samples. Both are also
written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER
from workloads import NAMES, SRC

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = ROOT / ".perfbench"
SETUP_PROBES = 8
# Time a run may take beyond ``--seconds``: the set-up probes, the main
# process's set-up and warm-up, and the last iteration. With ``--seconds 30``
# a run ends within 170 s.
DEADLINE_MARGIN_S = 140.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not produce a result."""


def child_env() -> dict:
    """Environment of worker processes: checkout sources, BLAS threads <= nproc."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    env.pop("EFFORTSIM_THREADS", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    with subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    ) as proc:  # leaving the block waits for the worker to end
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker {' '.join(args)} ran past the deadline") from None
        except BaseException:
            proc.kill()
            raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise BenchError(f"worker {' '.join(args)} printed no result") from None


def measure(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(result line, details) of one benchmark run."""
    if not (SRC / "effortsim" / "__init__.py").is_file():
        raise BenchError(f"no effortsim sources under {SRC}")
    deadline = time.monotonic() + seconds + DEADLINE_MARGIN_S
    work = RESULTS / "work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        common = ["--workload", workload, "--seed", str(seed)]
        probes = [
            run_worker(common + ["--work", str(work / f"probe{i}"), "--setup-only"], deadline)
            for i in range(SETUP_PROBES)
        ]
        tag = f"{workload}-seed{seed}-trace{trace}"
        main = run_worker(
            common + ["--seconds", str(seconds), "--trace", str(trace),
                      "--work", str(work / "main"),
                      "--spans", str(RESULTS / f"spans-{tag}.json")],
            deadline,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup_samples = [p["setup_s"] for p in probes] + [main["setup_s"]]
    setup_raw_samples = [p["setup_raw_s"] for p in probes] + [main["setup_raw_s"]]
    if trace:
        metrics = {name: {"value": main["per_layer"][name], "unit": unit}
                   for name, (unit, _better) in PER_LAYER.items()}
    else:
        metrics = {
            "wall_s": {"value": main["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        }
    result = {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
    }
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "failed_ops": main["failed"] / main["attempted"],
        "reference": main["reference"],
        "iterations": main["iterations"],
        "traced_iterations": main.get("traced_iterations"),
        "wall_raw_s": main["wall_raw_s"],
        "calibration_s": main["calibration_s"],
        "iteration_wall_s": main["iteration_wall_s"],
        "command_medians_s": main["commands"],
        "setup_samples_s": setup_samples,
        "setup_raw_samples_s": setup_raw_samples,
        "environment": main["environment"],
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"result-{tag}.json").write_text(
        json.dumps({"result": result, "details": details}, indent=2), encoding="utf-8"
    )
    return result, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, details = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
