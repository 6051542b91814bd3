"""Workload definitions and the per-seed pipeline the benchmark times.

An operation is one seed's generate -> pretrain -> adapt -> evaluate
pipeline. A round runs the workload's seeds once each, always in the same
order; a run repeats whole rounds. What the correctness checks need from
inside ``adapt`` (the first propagation graph and the first MC-dropout mean
of each operation) is captured by thin wrappers and checked after timing.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace

import numpy as np

from meshadapt import data, experiments, model, propagation, trainer

from checks import (
    CheckFailed,
    check_above_chance,
    check_accuracy,
    check_frozen,
    check_graph,
    check_simplex,
)

FIRST_SEED = 2021


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    seeds_per_round: int
    task: experiments.SyntheticTask = field(default_factory=experiments.SyntheticTask)
    epochs: int = trainer.AdaptConfig.epochs
    pretrain_epochs: int = trainer.AdaptConfig.pretrain_epochs

    def config(self, seed: int) -> trainer.AdaptConfig:
        cfg = trainer.AdaptConfig(
            epochs=self.epochs, pretrain_epochs=self.pretrain_epochs, seed=seed
        )
        return experiments.apply_method(cfg, self.method)

    def seeds(self, bench_seed: int) -> list[int]:
        """Pipeline seeds of one round; bench seed 0 starts at the README's 2021."""
        first = FIRST_SEED + self.seeds_per_round * bench_seed
        return list(range(first, first + self.seeds_per_round))

    @property
    def uses_graph(self) -> bool:
        return not self.config(0).no_ps

    def generate(self, seed: int) -> tuple[data.Dataset, data.Dataset]:
        t = self.task
        source, pool = data.gen_synthetic_shift(
            num_classes=t.num_classes,
            n_source=t.n_source,
            m_target=t.m_target,
            rotation_deg=t.rotation_deg,
            translation=t.translation,
            noise_std=t.noise_std,
            seed=seed,
            lift_dim=t.lift_dim,
        )
        return source, data.split_nshot(pool, t.shots, seed=seed)


# MESH runs a few of its 150 default epochs (a full default seed takes
# ~50 s); every epoch repeats the same work, so a few stand for all. S+T is
# cheap enough to run its full default schedule. Four seeds per round keep
# the mean accuracy steady from one bench seed to the next; the wide pool
# takes one seed so that a run still holds several rounds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mesh-default", "MESH", seeds_per_round=4, epochs=3),
        Workload("st-default", "S+T", seeds_per_round=4),
        Workload("mesh-wide-pool", "MESH", seeds_per_round=1, epochs=2,
                 task=replace(experiments.DEFAULT_TASK, m_target=1600)),
    )
}


@dataclass
class Captured:
    """Outputs seen inside ``adapt`` for one operation."""

    propagate_calls: int = 0
    mc_calls: int = 0
    graph: tuple | None = None  # (shape, rows, cols, values, seed_labels, alpha, scores)
    mc_mean: np.ndarray | None = None


class Capture:
    """Wraps ``propagate`` and ``mc_dropout_predict`` to keep their first output."""

    def __init__(self) -> None:
        self.current = Captured()
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        propagate = propagation.propagate
        mc_dropout_predict = model.mc_dropout_predict

        @functools.wraps(propagate)
        def capture_propagate(graph, alpha):
            result = propagate(graph, alpha)
            cur = self.current
            cur.propagate_calls += 1
            if cur.graph is None:
                # Only the nonzeros are kept so the capture holds no n x n array.
                rows, cols = np.nonzero(graph.w_norm)
                cur.graph = (graph.w_norm.shape, rows, cols, graph.w_norm[rows, cols],
                             graph.seed_labels.copy(), alpha, result.scores.copy())
            return result

        @functools.wraps(mc_dropout_predict)
        def capture_mc(*args, **kwargs):
            mean = mc_dropout_predict(*args, **kwargs)
            self.current.mc_calls += 1
            if self.current.mc_mean is None:
                self.current.mc_mean = mean.copy()
            return mean

        self._originals = [(propagation, "propagate", propagate),
                           (model, "mc_dropout_predict", mc_dropout_predict)]
        propagation.propagate = capture_propagate
        model.mc_dropout_predict = capture_mc

    def remove(self) -> None:
        for module, attr, fn in self._originals:
            setattr(module, attr, fn)
        self._originals = []


@dataclass
class Outcome:
    """What one operation produced, kept for the checks that run after timing."""

    seed: int
    classifier_before: tuple[bytes, bytes]
    adapted: model.ModelParams
    test: data.Dataset | None
    accuracy: float
    final_accuracy: float
    captured: Captured | None
    pretrain_s: float
    adapt_s: float


@dataclass
class Round:
    outcomes: list[Outcome] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def accuracy(self) -> float:
        return sum(o.accuracy for o in self.outcomes) / len(self.outcomes)

    def drop_check_data(self) -> None:
        """Keep only what the reproduction check needs, so peak memory does
        not grow with the number of rounds."""
        for o in self.outcomes:
            o.test = None
            o.captured = None


def fastest(rounds: list[Round], stage: str) -> float:
    """The fastest single-seed ``stage`` time of the run, in seconds.

    Every seed of a workload does the same arithmetic on arrays of the same
    shapes, and a shared host only ever slows a call down, so the fastest
    call is the steadiest estimate of what one seed costs.
    """
    return min(getattr(o, stage) for r in rounds for o in r.outcomes)


def run_operation(workload: Workload, seed: int, task, capture: Capture) -> Outcome:
    source, target = workload.generate(seed)
    if not (source.equals(task[0]) and target.equals(task[1])):
        raise CheckFailed(f"seed {seed}: regenerated task differs from the set-up copy")
    cfg = workload.config(seed)
    net = model.init_model(cfg.model_dims(source.n_features, source.num_classes), seed=seed)
    capture.current = Captured()

    t0 = time.perf_counter()
    pretrained = trainer.pretrain_source(net, source, cfg)
    t1 = time.perf_counter()
    classifier_before = (pretrained.classifier.weight.tobytes(),
                         pretrained.classifier.bias.tobytes())
    t2 = time.perf_counter()
    adapted, report = trainer.adapt(pretrained, target, cfg)
    t3 = time.perf_counter()

    test = target.subset("test")
    accuracy = trainer.evaluate(adapted, test)
    return Outcome(seed, classifier_before, adapted, test, accuracy,
                   report.final_accuracy, capture.current, t1 - t0, t3 - t2)


def run_round(workload: Workload, seeds: list[int], tasks, capture: Capture, tracer=None) -> Round:
    out = Round()
    t0 = time.perf_counter()
    for seed in seeds:
        if tracer is None:
            out.outcomes.append(run_operation(workload, seed, tasks[seed], capture))
        else:
            tracer.current_op = seed
            with tracer.span("bench.operation"):
                out.outcomes.append(run_operation(workload, seed, tasks[seed], capture))
    out.wall_s = time.perf_counter() - t0
    return out


def measure(workload: Workload, seeds: list[int], tasks, seconds: float, capture: Capture) -> list[Round]:
    """Whole rounds until the next one would overrun ``seconds`` (at least one)."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(run_round(workload, seeds, tasks, capture))
        if len(rounds) > 1:
            rounds[-1].drop_check_data()
        if time.perf_counter() - t0 + rounds[-1].wall_s > seconds:
            return rounds


def check_rounds(workload: Workload, rounds: list[Round]) -> None:
    """Apply every correctness check; the first round is checked in full and
    every later round must reproduce it bit for bit."""
    num_classes = workload.task.num_classes
    uses_graph = workload.uses_graph
    for o in rounds[0].outcomes:
        where = f"{workload.name} seed {o.seed}"
        try:
            check_frozen(o.classifier_before, o.adapted)
            if o.final_accuracy != o.accuracy:
                raise CheckFailed(
                    f"train report's final accuracy {o.final_accuracy!r} "
                    f"differs from evaluate {o.accuracy!r}"
                )
            check_accuracy(o.adapted, o.test.features, o.test.truth, o.accuracy)
            check_above_chance(o.accuracy, num_classes)
            cap = o.captured
            expected_calls = workload.epochs if uses_graph else 0
            if cap.propagate_calls != expected_calls or cap.mc_calls != expected_calls:
                raise CheckFailed(
                    f"expected {expected_calls} propagate and MC-dropout calls, saw "
                    f"{cap.propagate_calls} and {cap.mc_calls}"
                )
            if uses_graph:
                shape, rows, cols, values, seed_labels, alpha, scores = cap.graph
                w_norm = np.zeros(shape)
                w_norm[rows, cols] = values
                check_graph(w_norm, seed_labels, alpha, scores)
                check_simplex(cap.mc_mean)
        except CheckFailed as exc:
            raise CheckFailed(f"{where}: {exc}") from None
    first = rounds[0].outcomes
    for later in rounds[1:]:
        for a, b in zip(first, later.outcomes):
            same_params = all(
                np.array_equal(x, y) for x, y in zip(_param_arrays(a.adapted), _param_arrays(b.adapted))
            )
            if not same_params or a.accuracy != b.accuracy:
                raise CheckFailed(f"{workload.name} seed {a.seed}: a repeated round gave other bits")


def _param_arrays(params: model.ModelParams) -> list[np.ndarray]:
    layers = [*params.encoder, params.bottleneck, params.classifier]
    return [a for layer in layers for a in (layer.weight, layer.bias)]

