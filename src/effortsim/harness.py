"""End-to-end experiment stages: fairness audit, impact simulation, tau sweep.

One JSON config plus the input files determines every output byte. Each
command runs its stages through a ``StageRunner``: a stage is a plain call
whose result the runner returns, and it names every file it writes through
``runner.file``. The command's ``manifest_<command>.json`` lists the config
hash, tool version and the sha256 of each stage's files; wall-clock numbers
and run sizes go to ``timings_<command>.json``, which the manifest lists by
name only so reruns stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .dataset import (
    ALL_FEATURES,
    FEATURE_SETS,
    DataError,
    SCHEMA_KEYS,
    Population,
    SchemaError,
    format_number,
    load_csv,
    read_json,
    restrict_features,
    schema_from_dict,
    split,
    write_csv,
    write_table,
    generate_synthetic,
    json_number,
    json_object,
    json_string,
)
from .dynamics import feature_shift_report, simulate
from .effort import EffortParams
from .fairness import (
    BOUNDED_EFFORT,
    THRESHOLD_REWARD,
    FairnessAudit,
    audit_benefits,
    residual_differences,
)
from .figures import REPORT_COLUMNS
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

# The most points a delta grid may have. Each sweep holds a few (rows x
# points) tables, so an unbounded grid ends in an allocation failure; a
# thousand points already resolve a curve finer than any chart draws it.
MAX_DELTA_POINTS = 1000

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
        if self.max_depth < 0:
            raise SchemaError(f"model {self.name!r}: max_depth must be >= 0")
        if "/" in self.name or "\0" in self.name:
            raise SchemaError(f"model name {self.name!r} must not contain '/' or NUL: it names files")
        for knob, value in (("lambda", self.ridge_lambda), ("tau", self.tau)):
            if not (value >= 0 and math.isfinite(value)):
                raise SchemaError(f"model {self.name!r}: {knob} must be finite and >= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: Path
    schema: Path
    train_fraction: float
    split_seed: int
    models: tuple
    effort: EffortParams
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
        if not 0.0 < self.train_fraction < 1.0:
            raise SchemaError(f"train_fraction must lie in (0,1), got {self.train_fraction}")
        # The measures' own checks, here too: fairness builds no MetricContext.
        segregation.check_settings(self.beta, self.connectivity_threshold, self.centralization_threshold)
        if self.seed < 0 or self.split_seed < 0:
            raise SchemaError(f"seed must be >= 0, got seed {self.seed} and split seed {self.split_seed}")
        if not 2 <= self.delta_points <= MAX_DELTA_POINTS:
            raise SchemaError(f"delta_grid_points must lie in [2, {MAX_DELTA_POINTS}], got {self.delta_points}")
        if self.sweep_features not in FEATURE_SETS:
            raise SchemaError(f"unknown sweep feature set {self.sweep_features!r}")
        # Each tau keys tau_report.json and names a stage: finite, distinct (-0.0 == 0.0).
        taus = self.tau_grid
        if not all(t >= 0 and math.isfinite(t) for t in taus) or len(set(taus)) != len(taus):
            raise SchemaError(f"tau_grid entries must be finite, distinct and >= 0, got {list(taus)}")

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
    "synth": (*SCHEMA_KEYS, "group_sizes", "seed", "shift"),
}


def config_from_dict(raw: dict, base_dir: Path) -> ExperimentConfig:
    try:
        json_object(raw, "config", CONFIG_KEYS["config"])
        seed = json_number(raw.get("seed", 0), "seed", integer=True)
        split_cfg = json_object(raw.get("split", {}), "split", CONFIG_KEYS["split"])
        effort_cfg = json_object(raw.get("effort", {}), "effort", CONFIG_KEYS["effort"])
        # An absent key takes the default of the field it sets.
        effort = EffortParams(
            alpha=json_number(effort_cfg.get("alpha", EffortParams.alpha), "alpha"),
            base_cost=effort_cfg.get("base_costs", EffortParams.base_cost),
            categorical_cost=json_number(
                effort_cfg.get("categorical_cost", EffortParams.categorical_cost), "categorical_cost"
            ),
            feature_weights=effort_cfg.get("feature_weights"),
            benefit=raw.get("benefit", EffortParams.benefit),
        )
        models = []
        for md in raw.get("models", []):
            json_object(md, "model", CONFIG_KEYS["model"])
            spec = ModelSpec(
                name=json_string(md["name"], "model name"),
                kind=json_string(md["kind"], "model kind"),
                features=json_string(md.get("features", ALL_FEATURES), "model features"),
                ridge_lambda=json_number(md.get("lambda", 0.0), "lambda"),
                max_depth=json_number(md.get("max_depth", 5), "max_depth", integer=True),
                tau=json_number(md.get("tau", 0.0), "tau") + 0.0,  # -0.0 + 0.0 is 0.0
            )
            idle = sorted(set(md) - {"name", "kind", "features", *MODEL_KNOBS[spec.kind]})
            if idle:
                unread = ", ".join(map(repr, idle))
                raise SchemaError(f"model {spec.name!r}: kind {spec.kind!r} does not read {unread}")
            models.append(spec)
        if len({m.name for m in models}) != len(models):
            raise SchemaError("model names must be unique")
        sweep = json_object(raw.get("sweep", {}), "sweep", CONFIG_KEYS["sweep"])
        thresh = raw.get("centralization_threshold")
        return ExperimentConfig(
            dataset=(base_dir / raw["dataset"]).resolve(),
            schema=(base_dir / raw["schema"]).resolve(),
            train_fraction=json_number(split_cfg.get("train_fraction", 0.7), "train_fraction"),
            split_seed=json_number(split_cfg.get("seed", seed), "split seed", integer=True),
            models=tuple(models),
            effort=effort,
            delta_points=json_number(raw.get("delta_grid_points", 20), "delta_grid_points", integer=True),
            tau_grid=tuple(  # + 0.0 turns -0.0 into 0.0, so the entry names its stage tau_0
                json_number(t, "tau_grid entry") + 0.0 for t in sweep.get("tau_grid", [0.0, 0.5, 1.0, 2.0, 5.0])
            ),
            sweep_features=json_string(sweep.get("features", ALL_FEATURES), "sweep features"),
            beta=json_number(raw.get("beta", MetricContext.beta), "beta"),
            minority=json_string(raw.get("minority"), "minority", optional=True),
            centralization_threshold=(
                None if thresh is None else json_number(thresh, "centralization_threshold")
            ),
            connectivity_threshold=json_number(
                raw.get("connectivity_threshold", MetricContext.connectivity_threshold),
                "connectivity_threshold",
            ),
            seed=seed,
            raw=raw,
        )
    except KeyError as exc:
        raise SchemaError(f"config missing required field: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad config value: {exc}") from None


def fit_model(spec: ModelSpec, train: Population, config: ExperimentConfig) -> Predictor:
    """``spec``'s model fitted on ``train``; a fit that fails is a ``DataError`` naming the model."""
    pop = restrict_features(train, spec.features)
    try:
        if spec.kind == "linear":
            return fit_linear(pop)
        if spec.kind == "ridge":
            return fit_ridge(pop, spec.ridge_lambda)
        if spec.kind == "tree":
            return fit_tree(pop, spec.max_depth)
        if spec.kind == "mlp":
            return fit_mlp(pop, seed=config.seed + 1)
        # "constrained", the one kind left that ModelSpec admits
        return fit_constrained_linear(pop, spec.tau, config.effort, _minority(config, train))
    except DataError as exc:
        raise DataError(f"model {spec.name!r}: {exc}") from None


def _minority(config: ExperimentConfig, pop: Population) -> str:
    return config.minority if config.minority is not None else pop.smallest_group()


def _write_json(path: Path, obj) -> None:
    """``obj`` as indented JSON; a NaN or infinite number is a ``DataError`` naming the file."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise DataError(f"{path}: a value to write is NaN or infinite") from None
    path.write_text(text + "\n", encoding="utf-8")


def _make_out_dir(out_dir: Path) -> None:
    """Create the output directory; a path that cannot be one is a ``DataError``."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"output directory {out_dir}: {exc.strerror or exc}") from None


class StageRunner:
    """Times each stage and hashes the files it names, for the timings and the manifest."""

    def __init__(self, out_dir: Path, config: ExperimentConfig, command: str):
        self.out_dir = out_dir
        self.config = config
        self.command = command
        self.stages: list[dict] = []
        self.timings: list[dict] = []
        self._named: list[str] = []
        _make_out_dir(out_dir)

    def file(self, name: str) -> Path:
        """``out_dir / name``, listed under the running stage for the manifest."""
        self._named.append(name)
        return self.out_dir / name

    def run(self, name: str, fn):
        """``fn()``, timed; the files it named through ``file`` are hashed in naming order."""
        self._named = []
        start = time.perf_counter()
        result = fn()
        self.timings.append({"stage": name, "seconds": time.perf_counter() - start})
        entries = []
        for f in self._named:
            digest = hashlib.sha256((self.out_dir / f).read_bytes()).hexdigest()
            entries.append({"path": f, "sha256": digest})
        self.stages.append({"stage": name, "files": entries})
        return result

    def finish(self) -> Path:
        tag = self.command.replace("-", "_")
        timings_name = f"timings_{tag}.json"
        manifest_name = f"manifest_{tag}.json"
        _write_json(self.out_dir / timings_name, self.timings)
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
        _write_json(path, manifest)
        return path


def _load_and_split(config: ExperimentConfig):
    pop = load_csv(config.dataset, config.schema)
    config.effort.check_names(pop)
    train, test = split(pop, config.train_fraction, config.split_seed)
    # Every measure compares groups (and the split keeps each group in both parts).
    groups = train.group_names
    if len(groups) < 2:
        raise DataError(f"data holds only group {groups[0]!r}; the measures need a second group")
    if config.minority is not None and config.minority not in groups:
        raise DataError(f"minority group {config.minority!r} not in data")
    return pop, train, test


def cmd_fairness(config: ExperimentConfig, out_dir: Path) -> Path:
    """Train every configured model and emit curves, reports and MAEs."""
    runner = StageRunner(out_dir, config, "fairness")
    pop, train, test = _load_and_split(config)

    def train_models():
        models = {spec.name: fit_model(spec, train, config) for spec in config.models}
        # Before any file: a benefit the risk model cannot take is a config error.
        benefits = audit_benefits(train, config.effort, models.values())
        mae = {
            name: {
                "train": evaluate(h, train).to_dict(),
                "test": evaluate(h, test).to_dict(),
                "full": evaluate(h, pop).to_dict(),
            }
            for name, h in models.items()
        }
        _write_json(runner.file("mae_report.json"), mae)
        _write_json(runner.file("models.json"), {name: h.to_dict() for name, h in models.items()})
        return models, mae, benefits

    models, mae, benefits = runner.run("train", train_models)

    def curves():
        audit = FairnessAudit(train, config.effort, models.values(), benefits)
        sizes = {name: audit.staircase_size(h) for name, h in sorted(models.items())}
        runner.timings.append({"audit": {**audit.walk, "staircases": sizes}})
        for measure, fname in (
            (BOUNDED_EFFORT, "bounded_effort_curves.csv"),
            (THRESHOLD_REWARD, "threshold_reward_curves.csv"),
        ):
            rows = []
            for name, h in sorted(models.items()):
                curve = audit.sweep(h, measure, audit.default_grid(h, measure, config.delta_points))
                feas = curve.per_group_feasibility  # threshold reward only
                for g in sorted(curve.per_group_values):
                    for idx, (d, v) in enumerate(zip(curve.deltas, curve.per_group_values[g])):
                        rows.append([name, g, d, v] + ([feas[g][idx]] if feas else []))
            write_table(runner.file(fname), REPORT_COLUMNS[fname], rows)
        return audit

    audit = runner.run("delta_curves", curves)

    def reports():
        bars = []
        combined: dict = {"benefit": config.effort.benefit, "models": {}}
        for name, h in sorted(models.items()):
            er = audit.effort_reward(h)
            pos, neg = residual_differences(h, train)
            pos_full, neg_full = residual_differences(h, pop)
            combined["models"][name] = {
                "effort_reward": er.to_dict(),
                "positive_residual_train": pos.to_dict(),
                "negative_residual_train": neg.to_dict(),
                "positive_residual_full": pos_full.to_dict(),
                "negative_residual_full": neg_full.to_dict(),
                "mae": mae[name],
            }
            for rep in (er, pos_full, neg_full):
                for g, v in sorted(rep.per_group_value.items()):
                    bars.append([name, rep.measure, g, v])
                bars.append([name, rep.measure, "__disparity__", rep.disparity])
        write_table(runner.file("fairness_bars.csv"), REPORT_COLUMNS["fairness_bars.csv"], bars)
        _write_json(runner.file("fairness_report.json"), combined)

    runner.run("reports", reports)
    return runner.finish()


def _impact_runs(config: ExperimentConfig, runner: StageRunner, specs):
    """Fit ``specs`` on the training split and run one imitation round for all of them.

    Returns the training population, its ``MetricContext`` and each run's ``(spec, h, impact)``.
    """
    _, train, _ = _load_and_split(config)
    ctx = MetricContext(
        train, config.effort, _minority(config, train),
        config.beta, config.connectivity_threshold, config.centralization_threshold,
    )
    models = runner.run("fit", lambda: [fit_model(s, train, config) for s in specs])
    impacts = runner.run("imitation_round", lambda: simulate(models, train, config.effort))
    per_model = dict(zip((s.name for s in specs), impacts.walk["candidate_columns"]))
    runner.timings.append({"imitation": {**impacts.walk, "candidate_columns": per_model}})
    return train, ctx, list(zip(specs, models, impacts))


def _reports(ctx: MetricContext, runs: list, timings: list):
    """Yield the ``(before, after)`` segregation reports of each ``(spec, h, impact)`` run.

    Every run starts from the training population ``ctx.reference``, whose
    ACI and SSI do not depend on the model, so they are measured once for all
    runs. Each report records its centralization threshold in
    ``metadata["threshold"]``. Each measured population's distance walk goes
    to ``timings`` as a ``distances`` entry, named ``initial`` or after its run.
    """

    def measured(name: str, pop: Population):
        walk: dict = {}
        result = segregation.distance_indices(ctx, pop, walk)
        timings.append({"distances": {"population": name, **walk}})
        return result

    train = ctx.reference
    initial = measured("initial", train)
    for spec, h, impact in runs:
        after_indices = measured(spec.name, impact.impacted)
        before, after = (
            segregation.measure_population(ctx, h, p, impact.focal_points, indices)
            for p, indices in ((train, initial), (impact.impacted, after_indices))
        )
        yield before, after


def cmd_simulate(config: ExperimentConfig, out_dir: Path) -> Path:
    """Fit every model, run one imitation round for all; emit impacted data and segregation."""
    runner = StageRunner(out_dir, config, "simulate")
    train, ctx, runs = _impact_runs(config, runner, config.models)

    def emit_impact(name: str, impact):
        write_csv(impact.impacted, runner.file(f"impacted_{name}.csv"))
        _write_json(runner.file(f"shift_{name}.json"), feature_shift_report(train, impact.impacted))
        _write_json(runner.file(f"outcomes_{name}.json"), [o.to_dict() for o in impact.outcomes])

    for spec, _, impact in runs:
        runner.run(f"simulate_{spec.name}", lambda: emit_impact(spec.name, impact))

    def summary():
        seg_rows: list[list] = []
        report: dict = {}
        for (spec, _, impact), (before, after) in zip(runs, _reports(ctx, runs, runner.timings)):
            for pop_name, rep in (("initial", before), ("impacted", after)):
                for measure, value in rep.values().items():
                    seg_rows.append([spec.name, measure, pop_name, value])
            report[spec.name] = {
                "changed": impact.imitators,
                "focal_points": [
                    {"vector": fp.vector.tolist(), "count": fp.count}
                    for fp in impact.focal_points
                ],
                "threshold": before.metadata["threshold"],
                "before": before.to_dict(),
                "after": after.to_dict(),
                "dynamics": impact.metadata,
            }
        write_table(runner.file("segregation.csv"), REPORT_COLUMNS["segregation.csv"], seg_rows)
        _write_json(runner.file("simulate_report.json"), report)

    runner.run("segregation", summary)
    return runner.finish()


def cmd_sweep_tau(config: ExperimentConfig, out_dir: Path) -> Path:
    """Constrained-linear sweep: fit every tau, run one imitation round for all, measure each."""
    if not config.tau_grid:
        raise SchemaError("tau grid must be nonempty")
    runner = StageRunner(out_dir, config, "sweep-tau")
    specs = [
        ModelSpec(f"tau_{format_number(tau)}", "constrained", config.sweep_features, tau=tau)
        for tau in config.tau_grid
    ]
    train, ctx, runs = _impact_runs(config, runner, specs)
    details = {
        format_number(spec.tau): runner.run(
            spec.name,
            lambda: {
                "weights": h.to_dict(),
                "benefit_gap": group_benefit_gap(h, train, config.effort, ctx.minority),
                "changed": impact.imitators,
            },
        )
        for spec, h, impact in runs
    }

    def emit():
        rows: list[list] = []
        for (spec, _, _), (before, after) in zip(runs, _reports(ctx, runs, runner.timings)):
            for measure, value in after.values().items():
                rows.append([spec.tau, measure, value])
            entry = details[format_number(spec.tau)]
            rows.append([spec.tau, "benefit_gap", entry["benefit_gap"]])
            entry.update(
                threshold=before.metadata["threshold"],
                initial=before.to_dict(),
                impacted=after.to_dict(),
            )
        write_table(runner.file("tau_sweep.csv"), REPORT_COLUMNS["tau_sweep.csv"], rows)
        _write_json(runner.file("tau_report.json"), details)

    runner.run("emit", emit)
    return runner.finish()


def cmd_synth(spec_path: Path, out_dir: Path) -> Path:
    """Generate a synthetic population CSV from a schema-plus-sizes spec."""
    raw = json_object(read_json(spec_path, "synthetic spec"), "synth", CONFIG_KEYS["synth"])
    for key in ("group_sizes", "seed"):
        if key not in raw:
            raise SchemaError(f"synthetic spec missing {key!r}")
    sizes = raw["group_sizes"]
    seed = json_number(raw["seed"], "synthetic spec seed", integer=True)
    shift = json_number(raw.get("shift", 0.0), "synthetic spec shift")
    if not isinstance(sizes, (dict, list)):
        raise SchemaError(f"synthetic spec group_sizes must be an object or a list, got {sizes!r}")
    if seed < 0:
        raise SchemaError(f"synthetic spec seed must be >= 0, got {seed}")
    if not math.isfinite(shift):
        raise SchemaError(f"synthetic spec shift must be finite, got {shift!r}")
    schema = schema_from_dict({k: raw[k] for k in SCHEMA_KEYS if k in raw})
    pop = generate_synthetic(schema, sizes, seed=seed, shift=shift)
    _make_out_dir(out_dir)
    out_path = out_dir / "synthetic.csv"
    write_csv(pop, out_path)
    return out_path
