"""Benchmark workloads: their inputs, and the commands one iteration runs.

Every workload drives effortsim only through its public API. The synthetic
workloads make their population from the benchmark's ``--seed`` and hand
the program nothing but the generated CSV, the bundled schema and a config
file, as a user of the CLI would.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

NAMES = ("student", "synth-audit", "synth-impact")

# Synthetic population: the bundled schema, groups F:M = 2:3, mean shift 0.5.
SYNTH_ROWS = 3000
SYNTH_SHIFT = 0.5
SYNTH_MODELS = {
    "synth-audit": [{"name": "linear", "kind": "linear", "features": "all"}],
    "synth-impact": [{"name": "tree", "kind": "tree", "max_depth": 5, "features": "all"}],
}
COMMANDS = {
    "student": ("fairness", "simulate", "sweep-tau", "figures"),
    "synth-audit": ("fairness",),
    "synth-impact": ("simulate",),
}
MODULES = ("dataset", "effort", "models", "fairness", "dynamics", "segregation", "harness", "figures")


class CheckoutError(RuntimeError):
    """The program's sources are not in this checkout."""


def import_effortsim() -> dict:
    """Import effortsim from this checkout's ``src`` and return its modules by name."""
    if not (SRC / "effortsim" / "__init__.py").is_file():
        raise CheckoutError(f"no effortsim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import importlib

    mods = {name: importlib.import_module(f"effortsim.{name}") for name in MODULES}
    pkg = sys.modules["effortsim"]
    if Path(pkg.__file__).resolve().parent != SRC / "effortsim":
        raise CheckoutError(f"effortsim imported from {pkg.__file__}, not from {SRC}")
    mods["package"] = pkg
    return mods


def synth_group_sizes(rows: int) -> dict:
    minority = round(rows * 0.4)
    return {"F": minority, "M": rows - minority}


@dataclass
class Workload:
    name: str
    config: object  # harness.ExperimentConfig
    out_dir: Path

    def ops(self, es: dict) -> list[tuple[str, object]]:
        """(command, zero-argument call) for one iteration, in order.

        Each call looks its function up on the module at call time, so
        wrappers installed for a traced run take effect.
        """
        h, fig, cfg, out = es["harness"], es["figures"], self.config, self.out_dir
        calls = {
            "fairness": lambda: h.cmd_fairness(cfg, out),
            "simulate": lambda: h.cmd_simulate(cfg, out),
            "sweep-tau": lambda: h.cmd_sweep_tau(cfg, out),
            "figures": lambda: fig.cmd_figures(out),
        }
        return [(c, calls[c]) for c in COMMANDS[self.name]]


def prepare(es: dict, name: str, seed: int, work: Path, rows: int = SYNTH_ROWS) -> Workload:
    """Build a workload's inputs inside ``work``: config load, and for the
    synthetic workloads population generation and CSV write."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    work = work.resolve()  # the config refers to the CSV by absolute path
    work.mkdir(parents=True, exist_ok=True)
    data_path = es["package"].data_path
    if name == "student":
        config = es["harness"].load_config(data_path("student_config.json"))
    else:
        schema_path = data_path("student_schema.json")
        schema = es["dataset"].load_schema(schema_path)
        pop = es["dataset"].generate_synthetic(
            schema, synth_group_sizes(rows), seed=seed, shift=SYNTH_SHIFT
        )
        csv_path = work / "population.csv"
        es["dataset"].write_csv(pop, csv_path)
        raw = json.loads(data_path("student_config.json").read_text(encoding="utf-8"))
        raw.update(
            dataset=str(csv_path),
            schema=str(schema_path),
            seed=seed,
            split={"train_fraction": 0.7, "seed": seed},
            models=SYNTH_MODELS[name],
        )
        config_path = work / "config.json"
        config_path.write_text(json.dumps(raw, indent=2), encoding="utf-8")
        config = es["harness"].load_config(config_path)
    return Workload(name=name, config=config, out_dir=work / "out")
