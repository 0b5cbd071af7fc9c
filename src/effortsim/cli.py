"""Command-line front end: effortsim <command> --config ... --out ...

Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import data_path
from .dataset import DataError, SchemaError
from .figures import cmd_figures
from .harness import (
    cmd_fairness,
    cmd_simulate,
    cmd_sweep_tau,
    cmd_synth,
    config_from_dict,
    load_config,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3

# The commands that run an experiment config: each one's function and help.
EXPERIMENTS = {
    "fairness": (cmd_fairness, "train models and emit effort-unfairness curves and reports"),
    "simulate": (cmd_simulate, "run one imitation round and measure segregation before/after"),
    "sweep-tau": (cmd_sweep_tau, "sweep the constrained model's penalty strength"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effortsim",
        description=(
            "Effort-based fairness audits, imitation-impact simulation and "
            "segregation measurement for regression models."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in EXPERIMENTS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="experiment config JSON (default: bundled student config)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="override the config seed")
    p = sub.add_parser("figures", help="render SVG charts from emitted CSVs")
    p.add_argument("--out", required=True, help="directory holding the report CSVs")
    p = sub.add_parser("synth", help="generate a synthetic population CSV")
    p.add_argument("--config", required=True, help="synthetic spec JSON (schema + sizes)")
    p.add_argument("--out", required=True, help="output directory")
    return parser


def _experiment_config(args):
    config_path = args.config or data_path("student_config.json")
    config = load_config(config_path)
    if args.seed is not None:
        # A CLI seed reseeds everything: any pinned split seed is dropped so
        # the substream derives from the new master seed.
        raw = dict(config.raw)
        raw["seed"] = args.seed
        if "split" in raw:
            raw["split"] = {k: v for k, v in raw["split"].items() if k != "seed"}
        config = config_from_dict(raw, base_dir=Path(config_path).parent)
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "figures":
            for path in cmd_figures(Path(args.out)):
                print(path)
            return EXIT_OK
        if args.command == "synth":
            print(cmd_synth(Path(args.config), Path(args.out)))
            return EXIT_OK
        run, _ = EXPERIMENTS[args.command]
        manifest = run(_experiment_config(args), Path(args.out))
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    print(manifest)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
