"""End-to-end and per-layer benchmark of meshadapt's source-free adaptation.

Run from the repository root:

    python3 benchmarks/run.py --workload mesh-default --seed 0 --seconds 20 --trace 0

It imports the package from ``src/`` of the same checkout, runs whole rounds
of the workload's seeds for about ``--seconds`` seconds in one process and
one thread, checks every output against an independent recomputation, and
prints one JSON object as its last line. ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs one traced round
between two untraced ones, reports the per-layer metrics and writes every
span to ``benchmarks/out/``.
"""

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def import_package():
    """Import meshadapt from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "meshadapt" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'meshadapt'} not found; run from a full checkout")
    # Every run compiles the package afresh, so set-up is equally cold each time
    # and the checkout stays free of bytecode files.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import meshadapt

    if Path(meshadapt.__file__).resolve().parent != (src / "meshadapt").resolve():
        raise SystemExit(f"error: imported meshadapt from {meshadapt.__file__}, not {src}")
    return meshadapt


def main(argv=None) -> int:
    args = parse_args(argv)
    # Single-threaded: the package's kernels use no BLAS, and the checks' LAPACK
    # calls must not start threads that compete with the measurement.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    spec = load_spec()
    package = import_package()
    from checks import CheckFailed
    from workloads import WORKLOADS, Capture, check_rounds, fastest, measure, run_round

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seeds = workload.seeds(args.seed)
    tasks = {seed: workload.generate(seed) for seed in seeds}
    setup_s = time.perf_counter() - _PROCESS_T0

    capture = Capture()
    capture.install()
    try:
        if args.trace:
            from tracer import Tracer

            # The traced round sits between two untraced ones; the faster of
            # those is the reference for the tracing overhead.
            rounds = [run_round(workload, seeds, tasks, capture)]
            tracer = Tracer(package)
            tracer.install()
            try:
                with tracer.span("bench.round"):
                    rounds.append(run_round(workload, seeds, tasks, capture, tracer))
            finally:
                tracer.remove()
            rounds.append(run_round(workload, seeds, tasks, capture))
        else:
            rounds = measure(workload, seeds, tasks, args.seconds, capture)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        capture.remove()

    correct = True
    try:
        check_rounds(workload, rounds)
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        correct = False

    if args.trace:
        values = tracer.summary()
        values["trace.overhead_s"] = rounds[1].wall_s - min(rounds[0].wall_s, rounds[2].wall_s)
        tracer.write(OUT_DIR / f"{workload.name}-seed{args.seed}.spans.tsv.gz")
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            "pretrain_s": fastest(rounds, "pretrain_s"),
            "adapt_s": fastest(rounds, "adapt_s"),
            "test_accuracy": rounds[0].accuracy,
            "peak_rss_mb": peak_rss_mb,
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    attempted = sum(len(r.outcomes) for r in rounds)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
