"""Command line front end.

Subcommands: gen-data, pretrain, adapt, eval, experiment, sweep. The flags
are built from the fields of :class:`trainer.AdaptConfig` and
:class:`experiments.SyntheticTask` (kebab-case name, parser from the type
annotation, help from the field metadata). A flat ``key=value`` config file
can preload any of those fields plus ``method`` and ``seeds``; explicit flags
win. Commands exit 0 on success and 1 with a single ``error:`` line on stderr
otherwise.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path
from types import UnionType
from typing import get_args, get_type_hints

import numpy as np

from . import data, experiments, model, trainer


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _optional(parse):
    """Wrap ``parse`` so that an empty value or ``none`` reads as None."""

    def parse_optional(text: str):
        return None if text.strip().lower() in ("", "none") else parse(text)

    parse_optional.__name__ = f"optional {parse.__name__}"  # argparse errors name it
    return parse_optional


_PARSERS = {bool: _parse_bool, int: int, float: float, tuple[int, ...]: _parse_int_list}


def _field_parsers(cls) -> dict:
    """Text parser of every field of a dataclass, chosen by its annotation."""
    parsers = {}
    for name, hint in get_type_hints(cls).items():
        if isinstance(hint, UnionType):  # ``T | None``
            (base,) = (arg for arg in get_args(hint) if arg is not type(None))
            parsers[name] = _optional(_PARSERS[base])
        else:
            parsers[name] = _PARSERS[hint]
    return parsers


_CONFIG_PARSERS = _field_parsers(trainer.AdaptConfig)
_TASK_PARSERS = _field_parsers(experiments.SyntheticTask)
# Keys a config file may set: both dataclasses plus the experiment selectors.
_FILE_PARSERS = {
    **_CONFIG_PARSERS,
    **_TASK_PARSERS,
    "method": experiments.canonical_method,
    "seeds": _parse_int_list,
}


def _add_field_flags(parser: argparse.ArgumentParser, cls, title: str) -> None:
    group = parser.add_argument_group(title)
    for f in fields(cls):
        parse = _FILE_PARSERS[f.name]
        kind = {"action": "store_true"} if parse is _parse_bool else {"type": parse}
        group.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name, default=None,
                           help=f.metadata["help"], **kind)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    _add_field_flags(parser, trainer.AdaptConfig, "training configuration")
    parser.add_argument("--config", type=Path, default=None,
                        help="flat key=value file with any of the above fields")


def read_config_file(path) -> dict:
    """Parse a flat key=value file into typed values, ignoring blanks and # comments.

    Keys are ``AdaptConfig`` and ``SyntheticTask`` fields plus ``method`` and
    ``seeds``. A malformed line, an unknown key, a value the key's parser
    rejects, or a value its dataclass rejects (``lambda0 = -1``) raises
    ``ValueError`` naming the file, the line, and the key.
    """
    out: dict = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {line_no}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _FILE_PARSERS:
                raise ValueError(f"{path}: line {line_no}: unknown key {key!r}")
            try:
                out[key] = _FILE_PARSERS[key](value)
                if key in _CONFIG_PARSERS:
                    trainer.AdaptConfig(**{key: out[key]})  # the field's own validation
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: bad value for {key!r}: {exc}") from exc
    return out


def _resolve(
    args: argparse.Namespace,
) -> tuple[trainer.AdaptConfig, experiments.SyntheticTask, dict]:
    """Config, task and selectors from the --config file (read once) and the flags.

    Flags win over the file. The selectors dict holds ``method`` and
    ``seeds`` only when one of the two sources set them.
    """
    config_file = getattr(args, "config", None)
    values = read_config_file(config_file) if config_file is not None else {}
    for key in _FILE_PARSERS:
        given = getattr(args, key, None)
        if given is not None:
            values[key] = given
    cfg = trainer.AdaptConfig(**{k: values[k] for k in _CONFIG_PARSERS if k in values})
    task = experiments.SyntheticTask(**{k: values[k] for k in _TASK_PARSERS if k in values})
    selectors = {k: values[k] for k in ("method", "seeds") if k in values}
    return cfg, task, selectors


def _cmd_gen_data(args: argparse.Namespace) -> int:
    cfg, task, _ = _resolve(args)  # --seed is the run seed field, 2021 by default
    source, pool = data.gen_synthetic_shift(
        num_classes=task.num_classes,
        n_source=task.n_source,
        m_target=task.m_target,
        rotation_deg=task.rotation_deg,
        translation=task.translation,
        noise_std=task.noise_std,
        seed=cfg.seed,
        lift_dim=task.lift_dim,
    )
    target = data.split_nshot(pool, task.shots, seed=cfg.seed) if task.shots > 0 else pool
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data.save_dataset(source, out / "source.tsv")
    data.save_dataset(target, out / "target.tsv")
    print(f"wrote {out / 'source.tsv'} ({source.n} rows) and {out / 'target.tsv'} ({target.n} rows)")
    return 0


def _cmd_pretrain(args: argparse.Namespace) -> int:
    cfg, _, _ = _resolve(args)
    source = data.load_dataset(args.source)
    dims = cfg.model_dims(source.n_features, source.num_classes)
    net = model.init_model(dims, seed=cfg.seed)
    fitted = trainer.pretrain_source(net, source, cfg)
    model.save_model(fitted, args.out)
    val_acc = trainer.evaluate(fitted, source.subset("val"))
    print(f"wrote {args.out} (val accuracy {val_acc:.4f})")
    return 0


def _cmd_adapt(args: argparse.Namespace) -> int:
    cfg, _, selectors = _resolve(args)
    if "method" in selectors:
        cfg = experiments.apply_method(cfg, selectors["method"])
    net = model.load_model(args.model)
    target = data.load_dataset(args.target)
    adapted, report = trainer.adapt(net, target, cfg, debug_graph_dir=args.debug_graph)
    model.save_model(adapted, args.out)
    if args.report is not None:
        trainer.write_train_report(report, args.report)
    print(f"wrote {args.out} (final accuracy {report.final_accuracy!r})")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    net = model.load_model(args.model)
    ds = data.load_dataset(args.data)
    subset = ds if args.split == "all" else ds.subset(args.split)
    accuracy = trainer.evaluate(net, subset)
    print(repr(accuracy))
    return 0


def _make_spec(args: argparse.Namespace) -> experiments.ExperimentSpec:
    cfg, task, selectors = _resolve(args)
    file_mode = args.source is not None or args.target is not None
    return experiments.ExperimentSpec(
        config=cfg, out_path=args.out, task=None if file_mode else task,
        source_path=args.source, target_path=args.target, **selectors,
    )


def _cmd_experiment(args: argparse.Namespace) -> int:
    spec = _make_spec(args)
    result = experiments.run_experiment(spec)
    for outcome in result.outcomes:
        print(f"seed {outcome.seed}: accuracy {outcome.accuracy:.4f}")
    print(f"mean {result.mean_accuracy:.4f} std {result.std_accuracy:.4f}")
    if spec.out_path is not None:
        print(f"wrote {spec.out_path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = replace(_make_spec(args), out_path=None)
    values = args.values.replace(",", " ").split()
    rows = experiments.run_sweep(spec, args.param, values, args.out)
    for value, result in rows:
        print(f"{args.param}={value}: mean {result.mean_accuracy:.4f} "
              f"std {result.std_accuracy:.4f}")
    print(f"wrote {Path(args.out) / f'sweep_{args.param}.txt'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshadapt",
        description="Source-free semi-supervised domain adaptation on synthetic shifted blobs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a source/target dataset pair")
    _add_field_flags(p, experiments.SyntheticTask, "synthetic task")
    p.add_argument("--seed", type=int, default=None, help="generation seed")
    p.add_argument("--config", type=Path, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("pretrain", help="fit a model on the source domain")
    _add_config_flags(p)
    p.add_argument("--source", required=True, help="source dataset file")
    p.add_argument("--out", required=True, help="checkpoint to write")
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("adapt", help="adapt a pretrained model to a target dataset")
    _add_config_flags(p)
    p.add_argument("--model", required=True, help="pretrained checkpoint")
    p.add_argument("--target", required=True, help="split target dataset file")
    p.add_argument("--method", default=None, choices=experiments.METHODS,
                   help="ablation preset to apply on top of the config")
    p.add_argument("--out", required=True, help="adapted checkpoint to write")
    p.add_argument("--report", default=None, help="training report to write")
    p.add_argument("--debug-graph", default=None,
                   help="directory for per-epoch graph edge/score dumps")
    p.set_defaults(func=_cmd_adapt)

    p = sub.add_parser("eval", help="accuracy of a checkpoint on a dataset split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test",
                   choices=list(data.SPLITS) + ["all"], help="rows to score")
    p.set_defaults(func=_cmd_eval)

    for name, help_text in (
        ("experiment", "multi-seed run of one method"),
        ("sweep", "repeat an experiment over a hyperparameter grid"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_config_flags(p)
        _add_field_flags(p, experiments.SyntheticTask, "synthetic task")
        p.add_argument("--method", default=None, choices=experiments.METHODS)
        p.add_argument("--seeds", type=_parse_int_list, default=None,
                       help="comma-separated run seeds")
        p.add_argument("--source", default=None, help="source dataset file (file mode)")
        p.add_argument("--target", default=None, help="split target dataset file (file mode)")
        if name == "experiment":
            p.add_argument("--out", default=None, help="report file to write")
            p.set_defaults(func=_cmd_experiment)
        else:
            p.add_argument("--param", required=True, choices=experiments.SWEEPABLE,
                           type=lambda text: text.replace("-", "_"))
            p.add_argument("--values", required=True,
                           help="comma-separated sweep values")
            p.add_argument("--out", required=True, help="directory for reports")
            p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a diverging run overflows before a loss guard names it; the guard reports
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except Exception as exc:  # single-line error contract
        message = " ".join(str(exc).split()) or exc.__class__.__name__
        print(f"error: {message}", file=sys.stderr)
        return 1
