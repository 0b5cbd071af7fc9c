"""Record the reference summaries the correctness check compares against.

    python3 perfbench/reference.py --workload synth-impact

Runs each command of the workload once per seed in ``SEEDS``, in this
process, and writes ``reference/<workload>.json``. The student workload
ignores the seed and is stored once, under ``"*"``. Record references only
from a commit whose outputs are trusted: the check then holds later
commits to them within ``check.REL_TOL``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import check
import worker
import workloads

SEEDS = range(64)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    args = ap.parse_args(argv)
    seeds = [0] if args.workload == "student" else SEEDS

    es = workloads.import_effortsim()
    stored: dict = {}
    scratch = workloads.ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=scratch))
    try:
        for seed in seeds:
            wl = workloads.prepare(es, args.workload, seed, work)
            checker = check.Checker(None)
            result = worker.run_iteration(wl.ops(es), wl.out_dir, checker)
            if result["failed"]:
                print(f"seed {seed}: {result['failed']} command(s) failed", file=sys.stderr)
                return 1
            stored["*" if args.workload == "student" else str(seed)] = checker.reference
            print(f"{args.workload} seed {seed}: {result['wall_s']:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = check.REFERENCE_DIR / f"{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    doc = {
        "workload": args.workload,
        "tolerance": {"rel": check.REL_TOL, "abs": check.ABS_TOL},
        "seeds": stored,
    }
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
