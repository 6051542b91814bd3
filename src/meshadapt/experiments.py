"""End-to-end experiment runner: generate, pretrain, adapt, evaluate, report.

A method name is nothing more than a preset of ablation switches layered on
top of the user's config:

* ``S+T``      labeled-target fine-tuning only (every regulariser off),
* ``ENT``      adds entropy minimisation on unlabeled rows,
* ``MESH-nA``  the full objective but without uncertainty-augmented seeds,
* ``MESH``     the full objective.

Presets only ever switch terms *off*; they never re-enable a term the
config disabled, so running ``MESH`` with every ``no_*`` flag set is
identical to running ``S+T``. Report files echo the resolved switches
rather than the method name for exactly that reason, and contain no
timestamps, so identical specs produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import data, model, trainer

METHODS = ("S+T", "ENT", "MESH-nA", "MESH")

_METHOD_SWITCHES: dict[str, dict[str, bool]] = {
    "S+T": dict(no_augmentation=True, no_ent=True, no_ps=True, no_vat=True, no_div=True),
    "ENT": dict(no_augmentation=True, no_ps=True, no_vat=True, no_div=True),
    "MESH-nA": dict(no_augmentation=True),
    "MESH": {},
}

_REPORT_MAGIC = "experiment-report"
_REPORT_VERSION = "v1"


def canonical_method(name: str) -> str:
    """Map a method spelling to its canonical name (case-insensitive)."""
    folded = name.strip().lower()
    for method in METHODS:
        if folded == method.lower():
            return method
    raise ValueError(f"unknown method {name!r}; choose from {', '.join(METHODS)}")


def apply_method(cfg: trainer.AdaptConfig, method: str) -> trainer.AdaptConfig:
    switches = _METHOD_SWITCHES[canonical_method(method)]
    return replace(cfg, **switches) if switches else cfg


@dataclass
class SyntheticTask:
    """Generation parameters for the shifted-blobs benchmark."""

    num_classes: int = field(default=4, metadata={"help": "number of classes"})
    lift_dim: int = field(default=10, metadata={"help": "ambient feature dimension"})
    n_source: int = field(default=800, metadata={"help": "source sample count"})
    m_target: int = field(default=800, metadata={"help": "target sample count"})
    rotation_deg: float = field(default=50.0, metadata={"help": "target rotation in degrees"})
    translation: float = field(default=0.0, metadata={"help": "target translation magnitude"})
    noise_std: float = field(default=0.35, metadata={"help": "blob noise standard deviation"})
    shots: int = field(default=3, metadata={"help": "labeled target samples per class"})

    def describe(self) -> str:
        parts = [f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)]
        return "synthetic " + " ".join(parts)


DEFAULT_TASK = SyntheticTask()


@dataclass
class ExperimentSpec:
    method: str = "MESH"
    config: trainer.AdaptConfig = None  # type: ignore[assignment]
    seeds: tuple[int, ...] = (2021, 2022, 2023)
    out_path: str | Path | None = None
    task: SyntheticTask | None = None
    source_path: str | Path | None = None
    target_path: str | Path | None = None

    def __post_init__(self) -> None:
        self.method = canonical_method(self.method)
        if self.config is None:
            self.config = trainer.AdaptConfig()
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        file_mode = self.source_path is not None or self.target_path is not None
        if file_mode and (self.source_path is None or self.target_path is None):
            raise ValueError("file mode needs both source_path and target_path")
        if not file_mode and self.task is None:
            self.task = SyntheticTask()


@dataclass
class SeedOutcome:
    seed: int
    accuracy: float
    report: trainer.TrainReport


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    outcomes: list[SeedOutcome]

    @property
    def accuracies(self) -> list[float]:
        return [o.accuracy for o in self.outcomes]

    @property
    def mean_accuracy(self) -> float:
        return sum(self.accuracies) / len(self.accuracies)

    @property
    def std_accuracy(self) -> float:
        mean = self.mean_accuracy
        return float(np.sqrt(sum((a - mean) ** 2 for a in self.accuracies) / len(self.accuracies)))


def _prepare_seed_run(
    spec: ExperimentSpec, seed: int, pretrained_cache: dict[int, model.ModelParams] | None
) -> tuple[model.ModelParams, data.Dataset]:
    """Pretrained model and split target for one seed."""
    cfg = replace(spec.config, seed=seed)
    if spec.task is not None:
        source, pool = data.gen_synthetic_shift(
            num_classes=spec.task.num_classes,
            n_source=spec.task.n_source,
            m_target=spec.task.m_target,
            rotation_deg=spec.task.rotation_deg,
            translation=spec.task.translation,
            noise_std=spec.task.noise_std,
            seed=seed,
            lift_dim=spec.task.lift_dim,
        )
        target = data.split_nshot(pool, spec.task.shots, seed=seed)
    else:
        source = data.load_dataset(spec.source_path)
        target = data.load_dataset(spec.target_path)

    if pretrained_cache is not None and seed in pretrained_cache:
        return pretrained_cache[seed].copy(), target

    dims = cfg.model_dims(source.n_features, source.num_classes)
    net = model.init_model(dims, seed=seed)
    pretrained = trainer.pretrain_source(net, source, cfg)
    if pretrained_cache is not None:
        pretrained_cache[seed] = pretrained.copy()
    return pretrained, target


def _config_echo(cfg: trainer.AdaptConfig) -> str:
    parts = []
    for f in fields(cfg):
        if f.name == "seed":
            continue  # seeds are listed separately, one row per run
        parts.append(f"{f.name}={getattr(cfg, f.name)!r}")
    return "config " + " ".join(parts)


def write_experiment_report(result: ExperimentResult, path) -> None:
    spec = result.spec
    if spec.task is not None:
        task_line = "task " + spec.task.describe()
    else:
        task_line = f"task files source={spec.source_path} target={spec.target_path}"
    cfg = apply_method(spec.config, spec.method)
    lines = [
        f"{_REPORT_MAGIC} {_REPORT_VERSION}",
        task_line,
        _config_echo(cfg),
        "seeds " + ",".join(str(s) for s in spec.seeds),
        "seed\taccuracy",
    ]
    for outcome in result.outcomes:
        lines.append(f"{outcome.seed}\t{outcome.accuracy!r}")
    lines.append(f"aggregate\tmean={result.mean_accuracy!r} std={result.std_accuracy!r}")
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def run_experiment(
    spec: ExperimentSpec,
    pretrained_cache: dict[int, model.ModelParams] | None = None,
) -> ExperimentResult:
    """Run one method over every seed and optionally write the report file.

    ``pretrained_cache`` maps seed to a pretrained source model; sweeps pass
    a shared dict because the swept knobs (lambda0, k_hat, shots) never
    influence the pretraining stage.
    """
    outcomes = []
    for seed in spec.seeds:
        pretrained, target = _prepare_seed_run(spec, seed, pretrained_cache)
        cfg_run = replace(apply_method(spec.config, spec.method), seed=seed)
        adapted, train_report = trainer.adapt(pretrained, target, cfg_run)
        accuracy = trainer.evaluate(adapted, target.subset("test"))
        outcomes.append(SeedOutcome(seed=seed, accuracy=accuracy, report=train_report))
    result = ExperimentResult(spec=spec, outcomes=outcomes)
    if spec.out_path is not None:
        write_experiment_report(result, spec.out_path)
    return result


SWEEPABLE = ("lambda0", "k_hat", "shots")


def run_sweep(
    base_spec: ExperimentSpec,
    param: str,
    values: list,
    out_dir,
) -> list[tuple[float, ExperimentResult]]:
    """Re-run the experiment once per value of ``param``.

    ``param`` names a field of the spec's task or config, and each value
    (a number or its text) is converted with that field's type. Writes one
    experiment report per point plus a summary table. Pretrained
    checkpoints are shared across points because none of the sweepable
    parameters affect pretraining.
    """
    if param not in SWEEPABLE:
        raise ValueError(f"param must be one of {SWEEPABLE}, got {param!r}")
    if not values:
        raise ValueError("values must be nonempty")
    owner = "task" if param in get_type_hints(SyntheticTask) else "config"
    base = getattr(base_spec, owner)
    if base is None:
        raise ValueError(f"{param} sweep requires a synthetic task")
    convert = get_type_hints(type(base))[param]
    values = [convert(value) for value in values]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    cache: dict[int, model.ModelParams] = {}
    rows: list[tuple[float, ExperimentResult]] = []
    for value in values:
        point = replace(
            base_spec,
            out_path=out_dir / f"{param}_{value!r}.txt",
            **{owner: replace(base, **{param: value})},
        )
        rows.append((float(value), run_experiment(point, pretrained_cache=cache)))

    summary = out_dir / f"sweep_{param}.txt"
    lines = ["sweep-report v1", f"param {param}", f"{param}\tmean\tstd"]
    for value, result in rows:
        lines.append(f"{value!r}\t{result.mean_accuracy!r}\t{result.std_accuracy!r}")
    with open(summary, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")
    return rows
