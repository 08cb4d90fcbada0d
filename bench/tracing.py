"""Span recorder for the traced benchmark run.

While active, a :class:`Tracer` replaces each traced library function by a
wrapper in every ``lie3geo`` module that binds it (``algebra.change_basis``
and ``foliation.change_basis`` alike), so calls made inside the library are
recorded too.  Each call becomes a span ``(name, start, end, parent, op)``
kept in memory; self time (a span's duration minus that of its child spans)
and call counts are summed as spans close.  Leaving :meth:`Tracer.active`
restores the original bindings.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# The public functions timed in the traced run, as "module.function".
TRACED = (
    "foliation.search_directions",
    "foliation.residuals",
    "foliation.adapt_basis",
    "foliation.classify_family",
    "cli.main",
    "cli.build_parser",
    "cli.parse_algebra_document",
    "cli.render_json",
    "geometry.curvature",
    "geometry.connection",
    "bianchi.classify",
    "bianchi.milnor_decompose",
    "algebra.jacobi_residual",
    "algebra.orthonormalize",
    "algebra.change_basis",
)

# Per-layer metrics: (name, unit).  Every count and time is per op.
PER_LAYER = (
    ("foliation.search_directions.self_ms", "ms/op"),
    ("foliation.search_directions.calls", "count/op"),
    ("foliation.lattice_points", "count/op"),
    ("foliation.constant_curvature_share", "ratio"),
    ("foliation.lattice_floor_min", "ratio"),
    ("foliation.residuals.self_us", "us/op"),
    ("foliation.residuals.calls", "count/op"),
    ("foliation.adapt_basis.self_us", "us/op"),
    ("foliation.adapt_basis.rejects", "count/op"),
    ("foliation.classify_family.self_us", "us/op"),
    ("foliation.directions", "count/op"),
    ("cli.main.self_ms", "ms/op"),
    ("cli.build_parser.self_us", "us/op"),
    ("cli.parse_algebra_document.self_us", "us/op"),
    ("cli.render_json.self_us", "us/op"),
    ("geometry.curvature.self_us", "us/op"),
    ("geometry.connection.self_us", "us/op"),
    ("geometry.connection.calls", "count/op"),
    ("bianchi.classify.self_us", "us/op"),
    ("bianchi.milnor_decompose.self_us", "us/op"),
    ("algebra.jacobi_residual.self_us", "us/op"),
    ("algebra.jacobi_residual.calls", "count/op"),
    ("algebra.orthonormalize.self_us", "us/op"),
    ("algebra.change_basis.self_us", "us/op"),
    ("algebra.change_basis.calls", "count/op"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_share", "ratio"),
)


def _observe_search(tracer: "Tracer", args, report) -> None:
    tracer.counters["foliation.directions"] += len(report.directions)
    if report.constant_curvature:
        tracer.counters["constant_curvature"] += 1
        return
    tracer.counters["foliation.lattice_points"] += report.lattice_size
    c = args[0].c
    floor = report.lattice_min_residual / float(np.sum(c * c))
    tracer.floor_min = min(tracer.floor_min, floor)


# name -> observer(tracer, args, result), run after a call returns
_OBSERVERS = {"foliation.search_directions": _observe_search}

# name -> counter bumped when the call raises ValueError
_REJECTS = {"foliation.adapt_basis": "foliation.adapt_basis.rejects"}


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.floor_min = float("inf")
        self.top_level = 0.0  # summed duration of spans without a parent
        self.op = -1  # id of the op in progress, set by the caller
        self._stack: list[list] = []  # [span index, child time] per open span

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        reject = _REJECTS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ValueError:
                if reject:
                    self.counters[reject] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                spans[index] = (name, start, end, parent, self.op)
                self.self_time[name] += duration - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                else:
                    self.top_level += duration
            if observe:
                observe(self, args, result)
            return result

        return traced

    @contextmanager
    def active(self):
        """Bind the wrappers into every loaded ``lie3geo`` module."""
        saved = []
        try:
            for target in TRACED:
                module_name, fn_name = target.split(".")
                original = getattr(importlib.import_module(f"lie3geo.{module_name}"), fn_name)
                wrapper = self._wrap(target, original)
                for mod_name, module in list(sys.modules.items()):
                    if mod_name != "lie3geo" and not mod_name.startswith("lie3geo."):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            saved.append((module, attr, original))
                            setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )

    def layer_metrics(self, ops: int, op_time: float, untraced_rate: float, traced_rate: float) -> dict:
        """The PER_LAYER values, per op over ``ops`` traced ops."""
        calls = self.calls
        searches = calls["foliation.search_directions"]
        values = {
            "foliation.constant_curvature_share": (
                self.counters["constant_curvature"] / searches if searches else 0.0
            ),
            "foliation.lattice_floor_min": self.floor_min if np.isfinite(self.floor_min) else 0.0,
            "trace.overhead_frac": 1.0 - traced_rate / untraced_rate,
            "trace.unattributed_share": 1.0 - self.top_level / op_time,
        }
        for name, _ in PER_LAYER:
            if name in values:
                continue
            if name.endswith(".self_ms"):
                values[name] = 1e3 * self.self_time[name[: -len(".self_ms")]] / ops
            elif name.endswith(".self_us"):
                values[name] = 1e6 * self.self_time[name[: -len(".self_us")]] / ops
            elif name.endswith(".calls"):
                values[name] = calls[name[: -len(".calls")]] / ops
            else:
                values[name] = self.counters[name] / ops
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
