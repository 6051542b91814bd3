"""In-memory span tracer that wraps the public functions of ``meshadapt``.

Every call site inside the package looks its helpers up through the module
(``linalg.matmul``, ``model.forward``, a module-global ``evaluate``), so
replacing a module attribute with a timing wrapper sees every call without
touching the package. A span is (name, start, end, parent, operation); spans
live in flat integer arrays while the run lasts and are written once at the
end. Self time is a span's duration minus the durations of its direct
children, which in a single thread are nested and never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

TRACED_MODULES = ("data", "trainer", "model", "losses", "uncertainty", "propagation", "linalg")

# Which kind of work a matmul serves is read off its calling span.
_MATMUL_KIND = {
    "linalg.cosine_similarity_matrix": "graph",
    "model.forward": "batch",
    "model.backward": "batch",
}


class Tracer:
    """Records spans around wrapped functions; ``install`` / ``remove`` swap them in."""

    def __init__(self, package) -> None:
        self._package = package
        self._originals: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.current_op = -1
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0)

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span under the current parent around a ``with`` block."""
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counters[name] += value

    def _wrap(self, qualname: str, fn, after=None):
        name_id = self._intern(qualname)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every public function of the traced modules with a wrapper."""
        for mod_name in TRACED_MODULES:
            module = getattr(self._package, mod_name)
            for attr, fn in inspect.getmembers(module, inspect.isfunction):
                if attr.startswith("_") or fn.__module__ != module.__name__:
                    continue
                qualname = f"{mod_name}.{attr}"
                wrapped = self._wrap(qualname, fn, _AFTER.get(qualname))
                self._originals.append((module, attr, fn))
                setattr(module, attr, wrapped)

    def remove(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _columns(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        duration = (end - start).astype(np.float64) * 1e-9
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return name_id, parent, duration, duration - child

    def summary(self) -> dict[str, float]:
        """Per-name ``.s`` (inclusive), ``.self_s`` and ``.calls``, plus counters."""
        name_id, parent, duration, self_time = self._columns()
        out: dict[str, float] = {}
        n_names = len(self.names)
        total = np.bincount(name_id, weights=duration, minlength=n_names)
        own = np.bincount(name_id, weights=self_time, minlength=n_names)
        calls = np.bincount(name_id, minlength=n_names)
        for i, name in enumerate(self.names):
            out[f"{name}.s"] = float(total[i])
            out[f"{name}.self_s"] = float(own[i])
            out[f"{name}.calls"] = int(calls[i])

        matmul = self._name_ids.get("linalg.matmul")
        kinds = {"graph": 0.0, "batch": 0.0, "other": 0.0}
        if matmul is not None:
            rows = np.flatnonzero(name_id == matmul)
            callers = parent[rows]
            for i, span_dur in zip(callers, duration[rows]):
                caller = self.names[name_id[i]] if i >= 0 else ""
                kinds[_MATMUL_KIND.get(caller, "other")] += float(span_dur)
        for kind, value in kinds.items():
            out[f"linalg.matmul.{kind}_s"] = value
        out.update(self.counters)
        return out

    def write(self, path: Path) -> None:
        """Write every span as gzip-compressed TSV, one line per span."""
        name_id, parent, duration, self_time = self._columns()
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="ascii", compresslevel=3) as handle:
            handle.write("id\tparent\top\tname\tstart_ns\tend_ns\tself_ns\n")
            for i in range(len(self.start)):
                handle.write(
                    f"{i}\t{parent[i]}\t{self.op[i]}\t{self.names[name_id[i]]}\t"
                    f"{self.start[i]}\t{self.end[i]}\t{round(self_time[i] * 1e9)}\n"
                )


def _after_matmul(tracer: Tracer, args, result) -> None:
    m, k = np.shape(args[0])
    tracer.count("linalg.matmul.flops", 2 * m * k * np.shape(result)[1])


def _after_propagate(tracer: Tracer, args, result) -> None:
    graph = args[0]
    block = result.scores[graph.layout.unlabeled_slice]
    tracer.count("propagation.nodes", graph.w_norm.shape[0])
    tracer.count("propagation.edges", int(np.count_nonzero(graph.w_norm)))
    tracer.count("propagation.unlabeled_rows", block.shape[0])
    tracer.count("propagation.reached_rows", int(np.count_nonzero(np.any(block != 0.0, axis=1))))


COUNTERS = (
    "linalg.matmul.flops",
    "propagation.nodes",
    "propagation.edges",
    "propagation.unlabeled_rows",
    "propagation.reached_rows",
)

_AFTER = {
    "linalg.matmul": _after_matmul,
    "propagation.propagate": _after_propagate,
}
