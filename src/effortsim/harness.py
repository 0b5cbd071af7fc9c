"""End-to-end experiment stages: fairness audit, impact simulation, tau sweep.

One JSON config plus the input files determines every output byte. Each
stage writes its artifacts into the output directory and a
``manifest.json`` listing the config hash, tool version and the sha256 of
every stable output; wall-clock numbers go to ``timings.json``, which the
manifest lists by name only so reruns stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import (
    ALL_FEATURES,
    FEATURE_SETS,
    DataError,
    Population,
    SchemaError,
    load_csv,
    read_json,
    restrict_features,
    schema_from_dict,
    split,
    write_csv,
    generate_synthetic,
)
from .dynamics import feature_shift_report, simulate
from .effort import BENEFITS, EffortParams
from .fairness import (
    BOUNDED_EFFORT,
    THRESHOLD_REWARD,
    FairnessAudit,
    residual_differences,
)
from .models import (
    Predictor,
    evaluate,
    fit_constrained_linear,
    fit_linear,
    fit_mlp,
    fit_ridge,
    fit_tree,
    group_benefit_gap,
)
from . import segregation
from .segregation import MetricContext

# The config key each model kind reads besides name, kind and features; a
# knob that a kind does not read is an error rather than a silent no-op.
MODEL_KNOBS = {
    "linear": (),
    "ridge": ("lambda",),
    "tree": ("max_depth",),
    "mlp": (),
    "constrained": ("tau",),
}


@dataclass(frozen=True)
class ModelSpec:
    name: str
    kind: str
    features: str = ALL_FEATURES
    ridge_lambda: float = 0.0
    max_depth: int = 5
    tau: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KNOBS:
            raise SchemaError(f"unknown model kind {self.kind!r}")
        if self.features not in FEATURE_SETS:
            raise SchemaError(f"unknown feature set {self.features!r}")
        if self.max_depth < 0 or not self.tau >= 0:
            raise SchemaError(f"model {self.name!r}: max_depth and tau must be >= 0")
        if not (self.ridge_lambda >= 0 and math.isfinite(self.ridge_lambda)):
            raise SchemaError(f"model {self.name!r}: lambda must be finite and >= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: Path
    schema: Path
    train_fraction: float
    split_seed: int
    models: tuple
    effort: EffortParams
    benefit: str
    delta_points: int
    tau_grid: tuple
    sweep_features: str
    beta: float
    minority: str | None
    centralization_threshold: float | None
    connectivity_threshold: float
    seed: int
    raw: dict = field(repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        if not (0.0 < self.train_fraction < 1.0 and 0.0 < self.beta < 1.0):
            raise SchemaError("train_fraction and beta must lie in (0,1)")
        if self.sweep_features not in FEATURE_SETS:
            raise SchemaError(f"unknown sweep feature set {self.sweep_features!r}")
        if not all(t >= 0 for t in self.tau_grid):
            raise SchemaError(f"tau_grid entries must be >= 0, got {list(self.tau_grid)}")
        if self.centralization_threshold is not None and math.isnan(self.centralization_threshold):
            raise SchemaError("centralization_threshold must be a number or null, got NaN")
        if not self.connectivity_threshold >= 0:
            raise SchemaError(
                f"connectivity_threshold must be >= 0, got {self.connectivity_threshold}"
            )

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    return config_from_dict(read_json(path, "config file"), base_dir=path.parent)


# The keys each section of an experiment config may hold; any other key is an error.
CONFIG_KEYS = {
    "config": (
        "dataset", "schema", "seed", "split", "models", "effort", "benefit",
        "delta_grid_points", "sweep", "beta", "minority", "centralization_threshold",
        "connectivity_threshold",
    ),
    "split": ("train_fraction", "seed"),
    "effort": ("alpha", "base_costs", "categorical_cost", "feature_weights"),
    "model": ("name", "kind", "features", "lambda", "max_depth", "tau"),
    "sweep": ("tau_grid", "features"),
    "synth": ("features", "sensitive", "label", "group_sizes", "seed", "shift"),
}


def _object(value, what: str) -> dict:
    """``value`` as config section ``what``: a JSON object holding only its known keys."""
    if not isinstance(value, dict):
        raise SchemaError(f"{what} must be a JSON object, got {type(value).__name__}")
    unknown = sorted(set(value) - set(CONFIG_KEYS[what]))
    if unknown:
        raise SchemaError(f"unknown {what} key(s): {', '.join(map(repr, unknown))}")
    return value


def config_from_dict(raw: dict, base_dir: Path) -> ExperimentConfig:
    try:
        _object(raw, "config")
        seed = int(raw.get("seed", 0))
        split_cfg = _object(raw.get("split", {}), "split")
        benefit = raw.get("benefit", "predicted")
        if benefit not in BENEFITS:
            raise SchemaError(f"unknown benefit {benefit!r}")
        effort_cfg = _object(raw.get("effort", {}), "effort")
        effort = EffortParams(
            alpha=float(effort_cfg.get("alpha", 1.0)),
            base_cost=effort_cfg.get("base_costs", 0.0),
            categorical_cost=float(effort_cfg.get("categorical_cost", 0.5)),
            feature_weights=effort_cfg.get("feature_weights"),
        )
        models = []
        for md in raw.get("models", []):
            _object(md, "model")
            spec = ModelSpec(
                name=str(md["name"]),
                kind=str(md["kind"]),
                features=str(md.get("features", ALL_FEATURES)),
                ridge_lambda=float(md.get("lambda", 0.0)),
                max_depth=int(md.get("max_depth", 5)),
                tau=float(md.get("tau", 0.0)),
            )
            idle = sorted(set(md) - {"name", "kind", "features", *MODEL_KNOBS[spec.kind]})
            if idle:
                unread = ", ".join(map(repr, idle))
                raise SchemaError(f"model {spec.name!r}: kind {spec.kind!r} does not read {unread}")
            models.append(spec)
        if len({m.name for m in models}) != len(models):
            raise SchemaError("model names must be unique")
        sweep = _object(raw.get("sweep", {}), "sweep")
        thresh = raw.get("centralization_threshold")
        delta_points = raw.get("delta_grid_points", 20)
        if isinstance(delta_points, bool) or not isinstance(delta_points, int) or delta_points < 2:
            raise SchemaError(f"delta_grid_points must be an integer >= 2, got {delta_points!r}")
        return ExperimentConfig(
            dataset=(base_dir / raw["dataset"]).resolve(),
            schema=(base_dir / raw["schema"]).resolve(),
            train_fraction=float(split_cfg.get("train_fraction", 0.7)),
            split_seed=int(split_cfg.get("seed", seed)),
            models=tuple(models),
            effort=effort,
            benefit=benefit,
            delta_points=delta_points,
            tau_grid=tuple(float(t) for t in sweep.get("tau_grid", [0.0, 0.5, 1.0, 2.0, 5.0])),
            sweep_features=str(sweep.get("features", ALL_FEATURES)),
            beta=float(raw.get("beta", 0.5)),
            minority=raw.get("minority"),
            centralization_threshold=None if thresh is None else float(thresh),
            connectivity_threshold=float(raw.get("connectivity_threshold", 1e-6)),
            seed=seed,
            raw=raw,
        )
    except KeyError as exc:
        raise SchemaError(f"config missing required field: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad config value: {exc}") from None


def fit_model(spec: ModelSpec, train: Population, config: ExperimentConfig) -> Predictor:
    pop = restrict_features(train, spec.features)
    if spec.kind == "linear":
        return fit_linear(pop)
    if spec.kind == "ridge":
        return fit_ridge(pop, spec.ridge_lambda)
    if spec.kind == "tree":
        return fit_tree(pop, spec.max_depth)
    if spec.kind == "mlp":
        return fit_mlp(pop, seed=config.seed + 1)
    if spec.kind == "constrained":
        return fit_constrained_linear(
            pop, spec.tau, config.benefit, _minority(config, train)
        )
    raise SchemaError(f"unknown model kind {spec.kind!r}")


def _minority(config: ExperimentConfig, pop: Population) -> str:
    if config.minority is not None:
        if config.minority not in pop.group_names:
            raise DataError(f"minority group {config.minority!r} not in data")
        return config.minority
    return pop.smallest_group()


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _fmt(v) -> str:
    if v is None:
        return ""
    f = float(v)
    return str(int(f)) if f.is_integer() else repr(f)


def _write_csv_rows(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else _fmt(c) for c in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class StageRunner:
    """Collects emitted files and timings for the manifest."""

    def __init__(self, out_dir: Path, config: ExperimentConfig, command: str):
        self.out_dir = out_dir
        self.config = config
        self.command = command
        self.stages: list[dict] = []
        self.timings: list[dict] = []
        out_dir.mkdir(parents=True, exist_ok=True)

    def run(self, name: str, fn) -> None:
        start = time.perf_counter()
        files = fn()
        self.timings.append({"stage": name, "seconds": time.perf_counter() - start})
        entries = []
        for f in files:
            digest = hashlib.sha256((self.out_dir / f).read_bytes()).hexdigest()
            entries.append({"path": f, "sha256": digest})
        self.stages.append({"stage": name, "files": entries})

    def timed(self, name: str, fn):
        """``fn()``, with its seconds in the timings but no manifest stage (it writes no file)."""
        start = time.perf_counter()
        result = fn()
        self.timings.append({"stage": name, "seconds": time.perf_counter() - start})
        return result

    def finish(self) -> Path:
        tag = self.command.replace("-", "_")
        timings_name = f"timings_{tag}.json"
        manifest_name = f"manifest_{tag}.json"
        (self.out_dir / timings_name).write_text(_json_text(self.timings), encoding="utf-8")
        manifest = {
            "command": self.command,
            "config_sha256": self.config.config_hash(),
            "tool_version": __version__,
            "stages": self.stages
            + [
                {
                    "stage": "bookkeeping",
                    "files": [
                        {"path": timings_name, "sha256": None},
                        {"path": manifest_name, "sha256": None},
                    ],
                }
            ],
        }
        path = self.out_dir / manifest_name
        path.write_text(_json_text(manifest), encoding="utf-8")
        return path


def _load_and_split(config: ExperimentConfig):
    pop = load_csv(config.dataset, config.schema)
    train, test = split(pop, config.train_fraction, config.split_seed)
    return pop, train, test


def cmd_fairness(config: ExperimentConfig, out_dir: Path) -> Path:
    """Train every configured model and emit curves, reports and MAEs."""
    runner = StageRunner(out_dir, config, "fairness")
    pop, train, test = _load_and_split(config)
    state: dict = {}

    def stage_train():
        state["models"] = {spec.name: fit_model(spec, train, config) for spec in config.models}
        report = {}
        for name, h in state["models"].items():
            report[name] = {
                "train": evaluate(h, train).to_dict(),
                "test": evaluate(h, test).to_dict(),
                "full": evaluate(h, pop).to_dict(),
            }
        state["mae"] = report
        (out_dir / "mae_report.json").write_text(_json_text(report), encoding="utf-8")
        (out_dir / "models.json").write_text(
            _json_text({name: h.to_dict() for name, h in state["models"].items()}),
            encoding="utf-8",
        )
        return ["mae_report.json", "models.json"]

    def stage_curves():
        state["audit"] = audit = FairnessAudit(train, config.effort, config.benefit)
        files = []
        for measure, fname, extra_columns in (
            (BOUNDED_EFFORT, "bounded_effort_curves.csv", []),
            (THRESHOLD_REWARD, "threshold_reward_curves.csv", ["feasibility"]),
        ):
            rows = []
            for name, h in sorted(state["models"].items()):
                curve = audit.sweep(h, measure, audit.default_grid(h, measure, config.delta_points))
                feas = curve.per_group_feasibility  # threshold reward only
                for g in sorted(curve.per_group_values):
                    for idx, (d, v) in enumerate(zip(curve.deltas, curve.per_group_values[g])):
                        rows.append([name, g, d, v] + ([feas[g][idx]] if feas else []))
            header = ["model", "group", "delta", "value"] + extra_columns
            _write_csv_rows(out_dir / fname, header, rows)
            files.append(fname)
        return files

    def stage_reports():
        bars = []
        combined: dict = {"benefit": config.benefit, "models": {}}
        for name, h in sorted(state["models"].items()):
            er = state["audit"].effort_reward(h)
            pos, neg = residual_differences(h, train)
            pos_full, neg_full = residual_differences(h, pop)
            combined["models"][name] = {
                "effort_reward": er.to_dict(),
                "positive_residual_train": pos.to_dict(),
                "negative_residual_train": neg.to_dict(),
                "positive_residual_full": pos_full.to_dict(),
                "negative_residual_full": neg_full.to_dict(),
                "mae": state["mae"][name],
            }
            for rep in (er, pos_full, neg_full):
                for g, v in sorted(rep.per_group_value.items()):
                    bars.append([name, rep.measure, g, v])
                bars.append([name, rep.measure, "__disparity__", rep.disparity])
        _write_csv_rows(out_dir / "fairness_bars.csv", ["model", "measure", "group", "value"], bars)
        (out_dir / "fairness_report.json").write_text(_json_text(combined), encoding="utf-8")
        return ["fairness_bars.csv", "fairness_report.json"]

    runner.run("train", stage_train)
    runner.run("delta_curves", stage_curves)
    runner.run("reports", stage_reports)
    return runner.finish()


def _reports(ctx: MetricContext, train: Population, runs: list, config: ExperimentConfig):
    """Yield the ``(before, after)`` segregation reports of each ``(name, h, impact)`` run.

    Every run starts from the same training population, whose ACI and SSI do
    not depend on the model, so they are measured once for all runs. Each
    report records its centralization threshold in ``metadata["threshold"]``.
    """
    conn = config.connectivity_threshold
    initial = segregation.distance_indices(ctx, train, conn)
    for _, h, impact in runs:
        threshold = config.centralization_threshold
        if threshold is None:
            threshold = float(np.mean(h.predict(train)))
        after_indices = segregation.distance_indices(ctx, impact.impacted, conn)
        before, after = (
            segregation.measure_population(
                ctx, h, p, impact.focal_points, indices, config.beta, threshold, conn
            )
            for p, indices in ((train, initial), (impact.impacted, after_indices))
        )
        yield before, after


def cmd_simulate(config: ExperimentConfig, out_dir: Path) -> Path:
    """Fit every model, run one imitation round for all; emit impacted data and segregation."""
    runner = StageRunner(out_dir, config, "simulate")
    pop, train, test = _load_and_split(config)
    minority = _minority(config, train)
    ctx = MetricContext(reference=train, params=config.effort, minority=minority)
    models = runner.timed("fit", lambda: [fit_model(s, train, config) for s in config.models])
    impacts = runner.timed(
        "imitation_round", lambda: simulate(models, train, config.effort, config.benefit)
    )
    runs = [(spec.name, h, impact) for spec, h, impact in zip(config.models, models, impacts)]

    def model_stage(name: str, impact):
        def run():
            impacted_csv = f"impacted_{name}.csv"
            write_csv(impact.impacted, out_dir / impacted_csv)
            shift_json = f"shift_{name}.json"
            (out_dir / shift_json).write_text(
                _json_text(feature_shift_report(train, impact.impacted)), encoding="utf-8"
            )
            outcomes_json = f"outcomes_{name}.json"
            (out_dir / outcomes_json).write_text(
                _json_text([o.to_dict() for o in impact.outcomes]), encoding="utf-8"
            )
            return [impacted_csv, shift_json, outcomes_json]

        return run

    for name, _, impact in runs:
        runner.run(f"simulate_{name}", model_stage(name, impact))

    def stage_summary():
        seg_rows: list[list] = []
        summary: dict = {}
        for (name, _, impact), (before, after) in zip(runs, _reports(ctx, train, runs, config)):
            for pop_name, rep in (("initial", before), ("impacted", after)):
                for measure, value in rep.values().items():
                    seg_rows.append([name, measure, pop_name, value])
            summary[name] = {
                "changed": sum(1 for o in impact.outcomes if o.changed),
                "focal_points": [
                    {"vector": fp.vector.tolist(), "count": fp.count}
                    for fp in impact.focal_points
                ],
                "threshold": before.metadata["threshold"],
                "before": before.to_dict(),
                "after": after.to_dict(),
                "dynamics": impact.metadata,
            }
        _write_csv_rows(
            out_dir / "segregation.csv",
            ["model", "measure", "population", "value"],
            seg_rows,
        )
        (out_dir / "simulate_report.json").write_text(_json_text(summary), encoding="utf-8")
        return ["segregation.csv", "simulate_report.json"]

    runner.run("segregation", stage_summary)
    return runner.finish()


def cmd_sweep_tau(config: ExperimentConfig, out_dir: Path) -> Path:
    """Constrained-linear sweep: fit every tau, run one imitation round for all, measure each."""
    if not config.tau_grid:
        raise SchemaError("tau grid must be nonempty")
    runner = StageRunner(out_dir, config, "sweep-tau")
    pop, train, test = _load_and_split(config)
    minority = _minority(config, train)
    ctx = MetricContext(reference=train, params=config.effort, minority=minority)
    fit_pop = restrict_features(train, config.sweep_features)
    models = runner.timed(
        "fit",
        lambda: [
            fit_constrained_linear(fit_pop, tau, config.benefit, minority)
            for tau in config.tau_grid
        ],
    )
    impacts = runner.timed(
        "imitation_round", lambda: simulate(models, train, config.effort, config.benefit)
    )
    runs = list(zip(config.tau_grid, models, impacts))
    details: dict = {}

    def tau_stage(tau: float, h, impact):
        def run():
            details[_fmt(tau)] = {
                "weights": h.to_dict(),
                "benefit_gap": group_benefit_gap(h, train, config.benefit, minority),
                "changed": sum(1 for o in impact.outcomes if o.changed),
            }
            return []

        return run

    for tau, h, impact in runs:
        runner.run(f"tau_{_fmt(tau)}", tau_stage(tau, h, impact))

    def stage_emit():
        rows: list[list] = []
        for (tau, _, _), (before, after) in zip(runs, _reports(ctx, train, runs, config)):
            for measure, value in after.values().items():
                rows.append([tau, measure, value])
            entry = details[_fmt(tau)]
            rows.append([tau, "benefit_gap", entry["benefit_gap"]])
            entry.update(
                threshold=before.metadata["threshold"],
                initial=before.to_dict(),
                impacted=after.to_dict(),
            )
        _write_csv_rows(out_dir / "tau_sweep.csv", ["tau", "measure", "value"], rows)
        (out_dir / "tau_report.json").write_text(_json_text(details), encoding="utf-8")
        return ["tau_sweep.csv", "tau_report.json"]

    runner.run("emit", stage_emit)
    return runner.finish()


def cmd_synth(spec_path: Path, out_dir: Path) -> Path:
    """Generate a synthetic population CSV from a schema-plus-sizes spec."""
    raw = _object(read_json(spec_path, "synthetic spec"), "synth")
    for key in ("group_sizes", "seed"):
        if key not in raw:
            raise SchemaError(f"synthetic spec missing {key!r}")
    sizes, seed, shift = raw["group_sizes"], raw["seed"], raw.get("shift", 0.0)
    if not isinstance(sizes, (dict, list)):
        raise SchemaError(f"synthetic spec group_sizes must be an object or a list, got {sizes!r}")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SchemaError(f"synthetic spec seed must be an integer, got {seed!r}")
    if isinstance(shift, bool) or not isinstance(shift, (int, float)) or not math.isfinite(shift):
        raise SchemaError(f"synthetic spec shift must be a finite number, got {shift!r}")
    pop = generate_synthetic(schema_from_dict(raw), sizes, seed=seed, shift=float(shift))
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "synthetic.csv"
    write_csv(pop, out_path)
    return out_path
