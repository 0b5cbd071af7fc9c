"""Report-only scaling curve of the synthetic workloads.

    python3 perfbench/scaling.py [--seed 1]

For each size n in ``SIZES``, a fresh worker process generates an n-row
population, runs one warm-up and one timed iteration, and reports
``wall_s`` and its own peak RSS. The fitted exponent is the least-squares slope of
log(metric) on log(n). Not gated and not part of the repeated runs; the
table is printed and written to ``.perfbench/scaling-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import time

from run import RESULTS, BenchError, run_worker

WORKLOADS = ("synth-audit", "synth-impact")
SIZES = (500, 1000, 2000, 4000)
WORKER_TIMEOUT_S = 900.0


def loglog_slope(xs: list[float], ys: list[float]) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    report: dict = {"seed": args.seed, "workloads": {}}
    work = RESULTS / "work" / "scaling"
    try:
        for wl in WORKLOADS:
            points = []
            for n in SIZES:
                res = run_worker(
                    ["--workload", wl, "--seed", str(args.seed), "--rows", str(n),
                     "--iterations", "1", "--work", str(work / f"{wl}-{n}")],
                    time.monotonic() + WORKER_TIMEOUT_S,
                )
                points.append({"n": n, "wall_s": res["wall_s"],
                               "peak_rss_mb": res["peak_rss_mb"], "failed": res["failed"]})
                print(f"{wl:13s} n={n:5d}  wall_s={res['wall_s']:8.3f}  "
                      f"peak_rss_mb={res['peak_rss_mb']:8.1f}  failed={res['failed']}")
            ns = [p["n"] for p in points]
            report["workloads"][wl] = {
                "points": points,
                "wall_s_exponent": loglog_slope(ns, [p["wall_s"] for p in points]),
                "peak_rss_mb_exponent": loglog_slope(ns, [p["peak_rss_mb"] for p in points]),
            }
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"scaling-seed{args.seed}.json").write_text(json.dumps(report, indent=2), encoding="utf-8")
    for wl, r in report["workloads"].items():
        print(f"{wl:13s} exponent: wall_s {r['wall_s_exponent']:.2f}, "
              f"peak_rss_mb {r['peak_rss_mb_exponent']:.2f}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
