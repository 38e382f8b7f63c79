"""Run one ``cfdens`` command with timing wrappers around the layers' public functions.

    python3 bench/trace_cli.py SPANS.npz fit --config CFG --out DIR

Every public function of the layer modules of ``src/cfdens`` (and the method
``CovariateSample.unique_rows``) is replaced, in every module that binds it,
by a wrapper that records one span per call: name, start, end and the span
that was open when it was called.  Spans stay in memory, in flat arrays, and
are written to SPANS.npz when the command ends.  The wrappers on ``fit`` and
``fit_smoothed`` also record the Newton iterations of the returned model and
the peak allocation traced by ``tracemalloc`` during the fit, and the wrapper
on ``write_curve_table`` records the bytes written.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc
from array import array

import numpy as np

#: the layers, in the order in which they build on each other
LAYERS = (
    "config", "dataio", "measure_grid", "basis", "density_regression",
    "counterfactual", "sim_benchmark", "cli",
)
METHODS = {"counterfactual": ("CovariateSample", "unique_rows")}
FITS = ("density_regression.fit", "density_regression.fit_smoothed")


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.open = [-1]
        self.newton_iterations = 0
        self.fit_peak_bytes = 0
        self.output_bytes = 0

    def wrap(self, name: str, func):
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        name_ids, parents, starts, ends, open_spans = (
            self.name_ids, self.parents, self.starts, self.ends, self.open
        )

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(open_spans[-1])
            starts.append(0.0)
            ends.append(0.0)
            open_spans.append(index)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = start
                open_spans.pop()

        return traced

    def wrap_fit(self, func):
        @functools.wraps(func)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                model = func(*args, **kwargs)
            finally:
                self.fit_peak_bytes = max(self.fit_peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            self.newton_iterations += model.iterations
            return model

        return measured

    def wrap_writer(self, func):
        @functools.wraps(func)
        def counted(path, *args, **kwargs):
            result = func(path, *args, **kwargs)
            self.output_bytes += os.path.getsize(path)
            return result

        return counted

    def install(self) -> None:
        modules = {m: importlib.import_module(f"cfdens.{m}") for m in LAYERS}
        replaced = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                inner = obj
                if name in FITS:
                    inner = self.wrap_fit(inner)
                elif name == "dataio.write_curve_table":
                    inner = self.wrap_writer(inner)
                replaced[id(obj)] = self.wrap(name, inner)
        # rebind in every module of the package, so that calls through
        # ``from .basis import design_row`` go through the wrapper too
        for module in [importlib.import_module("cfdens"), *modules.values()]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(module, attr, replaced[id(obj)])
        for layer, (cls_name, method) in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            setattr(cls, method, self.wrap(f"{layer}.{method}", getattr(cls, method)))

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_ids, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            newton_iterations=self.newton_iterations,
            fit_peak_bytes=self.fit_peak_bytes,
            output_bytes=self.output_bytes,
        )


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from cfdens import cli

    try:
        return cli.main(argv)
    finally:
        tracer.save(spans_path)


if __name__ == "__main__":
    sys.exit(main())
