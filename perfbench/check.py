"""Correctness check: a short summary of each command's outputs against references.

The summary is read back from the files a command writes, and compared
value by value: counts exactly, real numbers within ``REL_TOL`` relative
(``ABS_TOL`` absolute near zero). Byte hashes are not compared, so a
change that moves last bits of a float passes.

References live in ``reference/<workload>.json`` and are keyed by seed
(``"*"`` for a workload whose inputs ignore the seed). For a seed with no
stored reference the first iteration's summary becomes the reference for
the rest of the run, and invariants that hold on every seed are checked.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REL_TOL = 1e-6
ABS_TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SEGREGATION = ("atkinson", "centralization", "aci", "ssi")


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def summarize(command: str, out_dir: Path) -> dict:
    """The values of one command's outputs that the check compares."""
    if command == "fairness":
        report = _json(out_dir / "fairness_report.json")["models"]
        return {
            name: {
                "effort_reward_disparity": m["effort_reward"]["disparity"],
                "mae": m["mae"]["full"]["mae_overall"],
            }
            for name, m in sorted(report.items())
        }
    if command == "simulate":
        report = _json(out_dir / "simulate_report.json")
        out = {}
        for name, m in sorted(report.items()):
            row = {"imitators": m["changed"], "focal_points": len(m["focal_points"])}
            for pop, key in (("initial", "before"), ("impacted", "after")):
                for measure in SEGREGATION:
                    row[f"{pop}.{measure}"] = m[key][measure]
            out[name] = row
        return out
    if command == "sweep-tau":
        # Only the tau = 0 row: it is the least-squares fit.
        with open(out_dir / "tau_sweep.csv", encoding="utf-8", newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if float(r["tau"]) == 0.0]
        return {r["measure"]: float(r["value"]) if r["value"] else None for r in rows}
    if command == "figures":
        return {"svgs": sorted(p.name for p in out_dir.glob("*.svg") if p.stat().st_size > 0)}
    raise ValueError(f"no summary for command {command!r}")


def differences(got, want, path: str = "") -> list[str]:
    """Where ``got`` departs from ``want`` beyond the stated tolerance."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path or 'summary'}: {got!r} does not have the keys {sorted(want)}"]
        out = []
        for k in sorted(want):
            out += differences(got[k], want[k], f"{path}.{k}" if path else k)
        return out
    if isinstance(want, (int, str, list)) or want is None:  # counts and names: exact
        return [] if got == want else [f"{path}: {got!r} != {want!r}"]
    if isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isclose(float(got), float(want), rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
    return [f"{path}: {got!r} != {want!r} (rel tol {REL_TOL})"]


def invariants(command: str, summary: dict) -> list[str]:
    """Properties every seed's outputs have."""
    bad = []

    def real(path, v, lo=-math.inf, hi=math.inf, optional=False):
        if v is None and optional:
            return
        if not isinstance(v, (int, float)) or not math.isfinite(v) or not lo <= v <= hi:
            bad.append(f"{path}: {v!r} outside [{lo}, {hi}]")

    if command == "fairness":
        for name, m in summary.items():
            real(f"{name}.effort_reward_disparity", m["effort_reward_disparity"], 0.0)
            real(f"{name}.mae", m["mae"], 0.0)
    elif command == "simulate":
        for name, m in summary.items():
            real(f"{name}.imitators", m["imitators"], 0)
            real(f"{name}.focal_points", m["focal_points"], 0, m["imitators"])
            for pop in ("initial", "impacted"):
                real(f"{name}.{pop}.atkinson", m[f"{pop}.atkinson"], 0.0, 1.0, optional=True)
                real(f"{name}.{pop}.centralization", m[f"{pop}.centralization"], 0.0, 1.0)
                real(f"{name}.{pop}.aci", m[f"{pop}.aci"], optional=True)
                real(f"{name}.{pop}.ssi", m[f"{pop}.ssi"], 0.0, optional=True)
    elif command == "sweep-tau":
        if set(summary) != set(SEGREGATION) | {"benefit_gap"}:
            bad.append(f"tau=0 row has measures {sorted(summary)}")
    elif command == "figures":
        if not summary["svgs"]:
            bad.append("no SVG written")
    return bad


def load_reference(workload: str, seed: int) -> dict | None:
    """Stored summaries for this workload and seed, or None."""
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return None
    seeds = _json(path)["seeds"]
    return seeds.get("*", seeds.get(str(seed)))


class Checker:
    """Compares each command's summary with a reference.

    Without a stored reference the first summary of each command is kept
    and every later one must repeat it.
    """

    def __init__(self, reference: dict | None):
        self.stored = reference is not None
        self.reference = dict(reference or {})

    def check(self, command: str, summary: dict) -> list[str]:
        problems = invariants(command, summary)
        if command not in self.reference:
            if self.stored:
                return problems + [f"no stored reference for {command!r}"]
            self.reference[command] = summary
            return problems
        return problems + differences(summary, self.reference[command])
