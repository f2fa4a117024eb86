"""Layer spans for boltzgas, installed from outside the package.

``Tracer.install`` replaces every public function of the package, at every
name a boltzgas module (or the package itself) holds it under, with a wrapper.
Callers look the names up at call time, so calls such as
``figures.occupation_pdf_window`` or ``cli.exact_moment`` are caught where the
caller makes them. A layer is the module that defines the function.

- Functions of the span layers get a span when the call crosses into the
  layer from another layer or from the benchmark. A call from inside the same
  layer runs unwrapped, so a layer's calls count its boundary crossings.
- ``combinatorics`` functions only count calls: ``binomial`` runs millions of
  times per joint lattice, and a span each would swamp what it measures.
- ``system`` holds classes and one coercion helper and is not traced.

Spans stay in memory; callers write them out when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from fractions import Fraction

SPAN_LAYERS = (
    "cli",
    "figures",
    "identities",
    "distributions",
    "moments",
    "montecarlo",
    "enumeration",
    "fluctuations",
)
COUNT_LAYERS = ("combinatorics",)


def numerator_bits(value) -> int:
    """Bit length of the largest exact numerator inside a returned value."""
    if isinstance(value, Fraction):
        return abs(value.numerator).bit_length()
    probabilities = getattr(value, "probabilities", None)
    if probabilities is not None:
        return numerator_bits(probabilities)
    if isinstance(value, (list, tuple)):
        return max((numerator_bits(v) for v in value), default=0)
    return 0


class Tracer:
    """Spans and call counts of one traced stretch of a run."""

    def __init__(self):
        self.spans = []  # (id, parent id or -1, op, layer, name, start, end)
        self.op = None  # identifier shared by the spans of one benchmark operation
        self.max_numerator_bits = 0
        self._stack = []
        self._counters = {}  # original function -> (layer, counting wrapper)
        self._patches = []

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        prefix = package.__name__ + "."
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == package.__name__ or name.startswith(prefix))
        ]
        wrappers = {}
        for module in modules:
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(prefix):
                    continue
                layer = obj.__module__[len(prefix):]
                if layer not in SPAN_LAYERS and layer not in COUNT_LAYERS:
                    continue
                wrapper = wrappers.get(obj)
                if wrapper is None:
                    wrapper = wrappers[obj] = self._wrap(layer, obj)
                setattr(module, name, wrapper)
                self._patches.append((module, name, obj))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def _wrap(self, layer, fn):
        if layer in COUNT_LAYERS or inspect.isgeneratorfunction(fn):
            return self._counting(layer, fn)
        return self._spanning(layer, fn)

    def _counting(self, layer, fn):
        count = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            nonlocal count
            count += 1
            return fn(*args, **kwargs)

        self._counters[fn] = (layer, lambda: count)
        return counted

    def _spanning(self, layer, fn):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        name = fn.__qualname__
        inspect_result = layer == "distributions"

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((span_id, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, parent, self.op, layer, name, start, end)
            if inspect_result:
                bits = numerator_bits(result)
                if bits > self.max_numerator_bits:
                    self.max_numerator_bits = bits
            return result

        return spanned

    # -- summaries -----------------------------------------------------------

    def layer_summary(self) -> dict:
        """{layer: {"calls": n, "self_s": t}} over every span and counter so far.

        A span's self time is its duration minus the durations of its direct
        child spans; children of one span never overlap (one thread).
        """
        summary = {layer: {"calls": 0, "self_s": 0.0} for layer in SPAN_LAYERS}
        summary.update({layer: {"calls": 0} for layer in COUNT_LAYERS})
        child_time = [0.0] * len(self.spans)
        for span_id, parent, _, _, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for span_id, _, _, layer, _, start, end in self.spans:
            summary[layer]["calls"] += 1
            summary[layer]["self_s"] += (end - start) - child_time[span_id]
        for layer, read in self._counters.values():
            summary[layer]["calls"] += read()
        return summary

    def span_records(self, origin: float = 0.0) -> list:
        return [
            {
                "id": span_id,
                "parent": parent,
                "op": op,
                "layer": layer,
                "name": name,
                "start_s": start - origin,
                "end_s": end - origin,
            }
            for span_id, parent, op, layer, name, start, end in self.spans
        ]

    def dump(self, path, origin: float = 0.0) -> None:
        """Write the summary line, then one JSON line per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    {
                        "summary": self.layer_summary(),
                        "max_numerator_bits": self.max_numerator_bits,
                    }
                )
                + "\n"
            )
            for record in self.span_records(origin):
                handle.write(json.dumps(record) + "\n")
