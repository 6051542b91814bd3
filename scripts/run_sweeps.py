#!/usr/bin/env python3
"""Sweep the propagation weight, graph sparsity, or shot count for MESH.

Each sweep re-runs the default-task experiment at every grid point (three
seeds per point, pretrained checkpoints shared within a sweep) and writes
per-point reports plus a summary table per parameter. Expect a few minutes
per grid point with default settings.

Usage:
    python3 scripts/run_sweeps.py --out results/sweeps            # all three
    python3 scripts/run_sweeps.py --out results/k --param k_hat --values 1,5,10
"""

import argparse
import sys
import time
from pathlib import Path

from meshadapt import experiments, trainer

DEFAULT_GRIDS = {
    "lambda0": [0.1, 0.5, 1.0],
    "k_hat": [1, 5, 10, 20],
    "shots": [1, 3, 5],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", type=Path, required=True, help="output directory")
    parser.add_argument("--param", choices=[*DEFAULT_GRIDS, "all"], default="all",
                        help="which parameter to sweep")
    parser.add_argument("--values", default=None,
                        help="comma-separated grid (defaults per parameter)")
    parser.add_argument("--method", default="MESH", choices=experiments.METHODS)
    parser.add_argument("--seeds", default="2021,2022,2023")
    parser.add_argument("--epochs", type=int, default=None,
                        help="override adaptation epochs")
    args = parser.parse_args(argv)

    if args.param == "all" and args.values is not None:
        parser.error("--values needs a specific --param")
    seeds = tuple(int(tok) for tok in args.seeds.replace(",", " ").split())
    cfg = trainer.AdaptConfig()
    if args.epochs is not None:
        cfg = trainer.AdaptConfig(epochs=args.epochs)
    spec = experiments.ExperimentSpec(method=args.method, config=cfg, seeds=seeds)

    params = list(DEFAULT_GRIDS) if args.param == "all" else [args.param]
    for param in params:
        if args.values is not None:
            values = args.values.replace(",", " ").split()
        else:
            values = DEFAULT_GRIDS[param]
        start = time.time()
        rows = experiments.run_sweep(spec, param, values, args.out / param)
        print(f"sweep {param} ({time.time() - start:.0f}s)")
        for value, result in rows:
            print(f"  {param}={value:g}: mean {result.mean_accuracy:.4f} "
                  f"std {result.std_accuracy:.4f}")
        print(f"  wrote {args.out / param / f'sweep_{param}.txt'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
