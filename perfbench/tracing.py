"""Spans and counts at the layer boundaries of bergbesov, for traced runs.

install() replaces each layer's public functions, in every bergbesov module
that holds them, by a wrapper that records a span (layer, parent span,
start, end) and the layer's work counts, computed from the call arguments
or the result.  Nothing in the program changes; an untraced run installs
nothing.  A layer's self time is the time of its spans minus the part their
child spans cover, so the self times of all layers add up to the traced
time spent inside the program.
"""

import contextlib
import importlib
import inspect
import json
import re
import sys
import time

# Per-layer metrics, in the order BENCHMARK.json lists them: (name, unit).
METRICS = (
    ("kernel.truncation_degree.ms", "ms"),
    ("kernel.truncation_degree.calls", "count"),
    ("kernel.certified_degree", "count"),
    ("kernel.kernel_eval.ms", "ms"),
    ("accel.series.ms", "ms"),
    ("accel.series.terms", "count"),
    ("kernel.kernel_eval_batch.ms", "ms"),
    ("kernel.kernel_eval_batch.nodes", "count"),
    ("expansion.evaluate_many.ms", "ms"),
    ("expansion.evaluate_many.points", "count"),
    ("accel.zonal_table.ms", "ms"),
    ("accel.zonal_table.entries", "count"),
    ("quadrature.rules.ms", "ms"),
    ("quadrature.integrate_ball.ms", "ms"),
    ("quadrature.integrate_ball.nodes", "count"),
    ("quadrature.ladder.ms", "ms"),
    ("quadrature.ladder.calls", "count"),
    ("operators.apply_T.ms", "ms"),
    ("operators.apply_T_report.ms", "ms"),
    ("operators.projection_Q.ms", "ms"),
    ("operators.besov_norm.ms", "ms"),
    ("operators.bloch_norm.ms", "ms"),
    ("classifier.classify.ms", "ms"),
    ("classifier.classify.calls", "count"),
    ("probe.finiteness_probe.ms", "ms"),
    ("probe.ratio_probe.ms", "ms"),
    ("probe.kernel_floor_probe.ms", "ms"),
    ("cli.import_ms", "ms"),
    ("specfun.import_ms", "ms"),
    ("quadrature.import_ms", "ms"),
    ("cli.main.ms", "ms"),
)

# Modules whose first import is timed, from `python -X importtime` lines.
IMPORT_METRICS = {"scipy.special": "specfun.import_ms", "scipy.integrate": "quadrature.import_ms"}


def _sphere_points(rule):
    return len(rule.sphere_rule()[1])


# (layer, module, function, counts(arguments, result) -> {count metric: n})
FUNCTIONS = (
    ("kernel.truncation_degree", "bergbesov.kernel", "truncation_degree",
     lambda a, r: {"kernel.truncation_degree.calls": 1, "kernel.certified_degree": r}),
    ("kernel.kernel_eval", "bergbesov.kernel", "kernel_eval", None),
    ("kernel.kernel_eval_batch", "bergbesov.kernel", "kernel_eval_batch",
     lambda a, r: {"kernel.kernel_eval_batch.nodes": len(a["pts"])}),
    ("accel.series", "bergbesov._accel", "series_disk",
     lambda a, r: {"accel.series.terms": len(a["gam"]) * len(a["rho"])}),
    ("accel.series", "bergbesov._accel", "series_ball",
     lambda a, r: {"accel.series.terms": len(a["gam"]) * len(a["rho"])}),
    ("accel.zonal_table", "bergbesov._accel", "zonal_table",
     lambda a, r: {"accel.zonal_table.entries": (int(a["kmax"]) + 1) * len(a["u"])}),
    ("expansion.evaluate_many", "bergbesov.expansion", "evaluate_many",
     lambda a, r: {"expansion.evaluate_many.points": len(a["pts"])}),
    ("quadrature.integrate_ball", "bergbesov.quadrature", "integrate_ball",
     lambda a, r: {"quadrature.integrate_ball.nodes": a["rule"].radial_nodes * _sphere_points(a["rule"])}),
    ("quadrature.ladder", "bergbesov.quadrature", "radial_power_log_ladder",
     lambda a, r: {"quadrature.ladder.calls": 1}),
    ("quadrature.ladder", "bergbesov.quadrature", "radial_power_log_value",
     lambda a, r: {"quadrature.ladder.calls": 1}),
    ("quadrature.ladder", "bergbesov.quadrature", "weighted_sup_ladder",
     lambda a, r: {"quadrature.ladder.calls": 1}),
    ("operators.apply_T", "bergbesov.operators", "apply_T", None),
    ("operators.apply_T_report", "bergbesov.operators", "apply_T_report", None),
    ("operators.projection_Q", "bergbesov.operators", "projection_Q", None),
    ("operators.besov_norm", "bergbesov.operators", "besov_norm", None),
    ("operators.bloch_norm", "bergbesov.operators", "bloch_norm", None),
    ("classifier.classify", "bergbesov.classifier", "classify",
     lambda a, r: {"classifier.classify.calls": 1}),
    ("probe.finiteness_probe", "bergbesov.probe", "finiteness_probe", None),
    ("probe.ratio_probe", "bergbesov.probe", "ratio_probe", None),
    ("probe.kernel_floor_probe", "bergbesov.probe", "kernel_floor_probe", None),
)

# (layer, class, method): the product rules are built by BallQuadrature.
METHODS = (
    ("quadrature.rules", "BallQuadrature", "radial_rule"),
    ("quadrature.rules", "BallQuadrature", "sphere_rule"),
)

class Tracer:
    """Spans kept in memory: [layer, parent index, start, end]."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.enabled = True
        self._open = []

    def call(self, layer, fn, counts, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(layer):
            result = fn(*args, **kwargs)
        if counts is not None:
            self.enabled = False  # counting may call other layers
            try:
                bound = inspect.signature(fn).bind(*args, **kwargs)
                bound.apply_defaults()
                for name, n in counts(bound.arguments, result).items():
                    self.counts[name] = self.counts.get(name, 0) + int(n)
            finally:
                self.enabled = True
        return result

    @contextlib.contextmanager
    def span(self, layer):
        """A span around a wrapped call, or around the caller's own code."""
        parent = self._open[-1] if self._open else -1
        record = [layer, parent, time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def summary(self):
        """{layer: self time in ms} plus the counts."""
        child = [0.0] * len(self.spans)
        for layer, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict(self.counts)
        for i, (layer, _, start, end) in enumerate(self.spans):
            key = layer + ".ms"
            out[key] = out.get(key, 0.0) + 1e3 * (end - start - child[i])
        return out


def _wrap(tracer, layer, fn, counts):
    def wrapper(*args, **kwargs):
        return tracer.call(layer, fn, counts, args, kwargs)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    return wrapper


def install(tracer):
    """Wrap every layer function wherever bergbesov's modules look it up."""
    for _, module, _, _ in FUNCTIONS:
        importlib.import_module(module)
    modules = [m for name, m in list(sys.modules.items())
               if name == "bergbesov" or name.startswith("bergbesov.")]
    for layer, module, attr, counts in FUNCTIONS:
        original = getattr(importlib.import_module(module), attr)
        wrapped = _wrap(tracer, layer, original, counts)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    setattr(m, name, wrapped)
    quadrature = importlib.import_module("bergbesov.quadrature")
    for layer, cls_name, attr in METHODS:
        cls = getattr(quadrature, cls_name)
        setattr(cls, attr, _wrap(tracer, layer, getattr(cls, attr), None))


_IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def import_times(stderr_text):
    """{metric: ms} from the `-X importtime` lines of a process's stderr:
    the cumulative time of the first import of scipy.special and of
    scipy.integrate, whenever the process made it."""
    out = {}
    for line in stderr_text.splitlines():
        m = _IMPORTTIME.match(line)
        if m and m.group(3) in IMPORT_METRICS:
            out[IMPORT_METRICS[m.group(3)]] = int(m.group(2)) / 1e3
    return out


def merge(total, part):
    for key, value in part.items():
        total[key] = total.get(key, 0) + value
    return total


def metrics(totals, factor=1.0):
    """Every per-layer metric, 0 where the layer did no work; times are
    multiplied by the run's calibration factor."""
    return {name: {"value": float(totals.get(name, 0.0)) * (factor if unit == "ms" else 1.0), "unit": unit}
            for name, unit in METRICS}


def write(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
