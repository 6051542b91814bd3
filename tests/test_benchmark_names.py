"""The benchmark's per-layer metric names must name functions that exist.

``benchmarks/run.py --trace 1`` reads each ``<module>.<function>.<suffix>``
metric of ``BENCHMARK.json`` from the tracer's summary, which only holds
the public functions of the traced modules. Deleting or renaming one of
them (``linalg.symmetric_normalize``, ``linalg.solve_linear``, ...) makes
the traced run fail with a ``KeyError``; this test fails first.
"""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def traced_modules() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "benchmarks" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    # leave no bytecode cache in the benchmark directory
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(tracer)
    finally:
        sys.dont_write_bytecode = saved
    return tracer.TRACED_MODULES


def function_metric_names() -> list[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        names = [entry["name"] for entry in json.load(handle)["per_layer"]]
    modules = traced_modules()
    return [name for name in names if name.count(".") == 2 and name.split(".")[0] in modules]


def test_some_names_are_checked():
    assert "linalg.symmetric_normalize.s" in function_metric_names()


@pytest.mark.parametrize("metric", function_metric_names())
def test_per_layer_name_is_a_public_function(metric):
    module_name, attr, _ = metric.split(".")
    module = importlib.import_module(f"meshadapt.{module_name}")
    fn = getattr(module, attr, None)
    # the tracer wraps exactly these: public functions defined in the module
    assert inspect.isfunction(fn), f"{metric}: meshadapt.{module_name}.{attr} is not a function"
    assert not attr.startswith("_")
    assert fn.__module__ == module.__name__
