"""Span tracing of the ringnet layers, installed from outside the package.

The tracer never edits ringnet's source.  It replaces, in every loaded
ringnet module, each public function defined in one of the five layer
modules (``cli``, ``kernels``, ``fourier``, ``quadrature``,
``montecarlo``) with a wrapper that records a span.  Because the
replacement is made on every module attribute that refers to the original
object, names imported elsewhere (``cli`` using ``kernels.mean_degree``,
``fourier`` using ``quadrature.integrate_periodic``) are traced as well.
The ``evaluate`` methods of the kernel classes and of
``fourier.FourierSeries`` are wrapped the same way.

Three numpy boundaries are counted rather than spanned: every
``numpy.random.Philox`` construction, every uniform value drawn through
``numpy.random.Generator.random`` (the candidate-pair draws), and every
``numpy.polynomial.legendre.leggauss`` call.  These counters are shared by
all threads and not locked; the benchmark runs its commands with
``--threads 1``.

Spans live in memory in per-thread lists, each span recording its name,
start, end, parent span and one work figure (points evaluated, harmonics
summed or edges sampled).  :meth:`Tracer.dump` writes them out when the
traced command has finished, and :func:`summarise` turns a dump into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from array import array

import numpy as np

LAYERS = ("cli", "kernels", "fourier", "quadrature", "montecarlo")
KERNEL_CLASSES = ("UniformWindow", "CosineSeries", "ProductKernel")
# fourier call arguments that give the number of harmonics a call sums
_HARMONIC_ARGUMENTS = ("tail_terms", "terms")


def _size_of_result(_args, _kwargs, result):
    return float(np.size(result))


def _edges_of_sample(_args, _kwargs, result):
    return float(result.edges.shape[0])


def _harmonics_counter(function):
    """Work figure of a fourier call: harmonics summed, from its arguments."""
    signature = inspect.signature(function)
    names = signature.parameters

    def harmonics(args, kwargs, _result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        values = bound.arguments
        for name in _HARMONIC_ARGUMENTS:
            if name in names:
                return float(values[name])
        if "series" in names:
            return float(values["series"].order)
        if "factor_series" in names:
            return float(sum(s.order for s in values["factor_series"]))
        if "self" in names:  # FourierSeries.evaluate: order times points
            return float(values["self"].order * np.size(values["angle"]))
        return 0.0

    return harmonics


class Tracer:
    """Records spans of wrapped calls; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._threads: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.counts = {"philox_streams": 0, "candidate_draws": 0, "leggauss_calls": 0}
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _thread_log(self) -> dict:
        log = getattr(self._local, "log", None)
        if log is None:
            log = {"name": array("i"), "start": array("d"), "end": array("d"),
                   "parent": array("q"), "work": array("d"), "stack": []}
            self._local.log = log
            with self._lock:
                self._threads.append(log)
        return log

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def wrap(self, name: str, function, work=None):
        """Return ``function`` wrapped so that each call records a span."""
        name_id = self._name_id(name)
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            log = self._thread_log()
            stack = log["stack"]
            index = len(log["name"])
            log["name"].append(name_id)
            log["parent"].append(stack[-1] if stack else -1)
            log["work"].append(0.0)
            log["end"].append(0.0)
            stack.append(index)
            log["start"].append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                log["end"][index] = clock()
                stack.pop()
            if work is not None:
                log["work"][index] = work(args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attribute, value):
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def install(self):
        """Wrap the layer functions and the counted numpy boundaries."""
        modules = {layer: sys.modules[f"ringnet.{layer}"] for layer in LAYERS}
        holders = [m for n, m in sys.modules.items()
                   if m is not None and (n == "ringnet" or n.startswith("ringnet."))]
        replacements = {}
        for layer, module in modules.items():
            for attribute, value in vars(module).items():
                if (attribute.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != module.__name__):
                    continue
                work = None
                if layer == "fourier":
                    work = _harmonics_counter(value)
                elif layer == "montecarlo" and attribute == "sample_graph":
                    work = _edges_of_sample
                replacements[id(value)] = self.wrap(f"{layer}.{attribute}", value, work)
        # every module attribute that is one of the originals, so names
        # imported into other modules are traced too
        for module in holders:
            for attribute, value in list(vars(module).items()):
                if id(value) in replacements and inspect.isfunction(value):
                    self._set(module, attribute, replacements[id(value)])

        evaluators = [(getattr(modules["kernels"], name), "kernels") for name in KERNEL_CLASSES]
        evaluators.append((modules["fourier"].FourierSeries, "fourier"))
        for cls, layer in evaluators:
            original = cls.__dict__["evaluate"]
            work = _size_of_result if layer == "kernels" else _harmonics_counter(original)
            traced = self.wrap(f"{layer}.{cls.__name__}.evaluate", original, work)
            self._set(cls, "evaluate", traced)
            if cls.__dict__.get("__call__") is original:
                self._set(cls, "__call__", traced)

        counts = self.counts
        philox = np.random.Philox

        def counted_philox(*args, **kwargs):
            counts["philox_streams"] += 1
            return philox(*args, **kwargs)

        class CountingGenerator(np.random.Generator):
            def random(self, size=None, dtype=np.float64, out=None):
                values = super().random(size, dtype, out)
                counts["candidate_draws"] += int(np.size(values))
                return values

        leggauss = np.polynomial.legendre.leggauss

        def counted_leggauss(*args, **kwargs):
            counts["leggauss_calls"] += 1
            return leggauss(*args, **kwargs)

        self._set(np.random, "Philox", counted_philox)
        self._set(np.random, "Generator", CountingGenerator)
        self._set(np.polynomial.legendre, "leggauss", counted_leggauss)

    def uninstall(self):
        while self._restore:
            owner, attribute, value = self._restore.pop()
            setattr(owner, attribute, value)

    # -- output ------------------------------------------------------------

    def dump(self, path):
        """Write every span and the boundary counts to ``path`` (.npz)."""
        columns = {key: [] for key in ("name", "start", "end", "parent", "work", "thread")}
        offset = 0
        for thread, log in enumerate(self._threads):
            size = len(log["name"])
            parent = np.frombuffer(log["parent"], dtype=np.int64, count=size).copy()
            parent[parent >= 0] += offset  # global span indices
            columns["name"].append(np.frombuffer(log["name"], dtype=np.int32, count=size))
            columns["start"].append(np.frombuffer(log["start"], dtype=np.float64, count=size))
            columns["end"].append(np.frombuffer(log["end"], dtype=np.float64, count=size))
            columns["parent"].append(parent)
            columns["work"].append(np.frombuffer(log["work"], dtype=np.float64, count=size))
            columns["thread"].append(np.full(size, thread, dtype=np.int32))
            offset += size
        arrays = {key: (np.concatenate(parts) if parts else np.empty(0))
                  for key, parts in columns.items()}
        arrays["names"] = np.array(json.dumps(self.names))
        arrays["counts"] = np.array(json.dumps(self.counts))
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)


def summarise(path) -> dict:
    """Per-layer metrics of one traced process, from its span dump."""
    with np.load(path) as data:
        names = json.loads(str(data["names"]))
        counts = json.loads(str(data["counts"]))
        name = data["name"].astype(np.int64)
        start, end = data["start"], data["end"]
        parent, work = data["parent"], data["work"]
    duration = end - start
    child_time = np.zeros(duration.size)
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], duration[has_parent])
    self_time = duration - child_time

    layer_of_name = np.array([LAYERS.index(n.split(".", 1)[0]) for n in names] or [0])
    layer = layer_of_name[name] if name.size else np.empty(0, dtype=np.int64)
    parent_layer = np.where(has_parent, layer[np.where(has_parent, parent, 0)], -1)
    # a span is the outermost of its layer when its parent is in another one
    outermost = parent_layer != layer

    # inside_quadrature[i]: span i runs, directly or not, under a quadrature span
    quad = LAYERS.index("quadrature")
    inside_quadrature = np.zeros(duration.size, dtype=bool)
    for index in range(duration.size):  # parents always precede children
        up = parent[index]
        if up >= 0:
            inside_quadrature[index] = inside_quadrature[up] or layer[up] == quad

    def layer_mask(layer_name):
        return layer == LAYERS.index(layer_name)

    def named(full_name):
        ids = [i for i, n in enumerate(names) if n == full_name]
        return np.isin(name, ids)

    kernel_calls = layer_mask("kernels") & outermost & np.isin(
        name, [i for i, n in enumerate(names) if n.endswith(".evaluate")])
    sample = named("montecarlo.sample_graph")
    montecarlo = layer_mask("montecarlo")
    fourier_outer = layer_mask("fourier") & outermost

    sample_s = float(duration[sample].sum())
    samples = int(sample.sum())
    edges = float(work[sample].sum())
    draws = counts["candidate_draws"]
    metrics = {
        "cli.self_s": (float(self_time[layer_mask("cli")].sum()), "s"),
        "kernels.self_s": (float(self_time[layer_mask("kernels")].sum()), "s"),
        "kernels.eval_calls": (int(kernel_calls.sum()), "count"),
        "kernels.eval_points": (int(work[kernel_calls].sum()), "count"),
        "fourier.self_s": (float(self_time[layer_mask("fourier")].sum()), "s"),
        "fourier.calls": (int(layer_mask("fourier").sum()), "count"),
        "fourier.harmonics": (int(work[fourier_outer].sum()), "count"),
        "quadrature.self_s": (float(self_time[layer_mask("quadrature")].sum()), "s"),
        "quadrature.calls": (int(layer_mask("quadrature").sum()), "count"),
        "quadrature.kernel_points": (int(work[kernel_calls & inside_quadrature].sum()), "count"),
        "quadrature.leggauss_calls": (counts["leggauss_calls"], "count"),
        "montecarlo.self_s": (float(self_time[montecarlo].sum()), "s"),
        "montecarlo.sample_s": (sample_s, "s"),
        "montecarlo.measure_s": (float(self_time[montecarlo & ~sample].sum()), "s"),
        "montecarlo.samples": (samples, "count"),
        "montecarlo.samples_per_s": (samples / sample_s if sample_s > 0 else 0.0, "1/s"),
        "montecarlo.philox_streams": (counts["philox_streams"], "count"),
        "montecarlo.candidate_draws": (draws, "count"),
        "montecarlo.edges": (int(edges), "count"),
        "montecarlo.hit_ratio": (edges / draws if draws else 0.0, "ratio"),
        "trace.spans": (int(duration.size), "count"),
    }
    return metrics
