"""Tooling guard: every program function the benchmark's tracer wraps still
exists, so a rename or a deletion fails here instead of crashing a traced
benchmark run with AttributeError."""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_in_bergbesov():
    tracing = _load_tracing()
    assert tracing.FUNCTIONS and tracing.METHODS
    for layer, module, attr, _ in tracing.FUNCTIONS:
        assert module == "bergbesov" or module.startswith("bergbesov."), layer
        assert callable(getattr(importlib.import_module(module), attr, None)), (layer, module, attr)
    quadrature = importlib.import_module("bergbesov.quadrature")
    for layer, cls_name, attr in tracing.METHODS:
        assert callable(getattr(getattr(quadrature, cls_name, None), attr, None)), (layer, cls_name, attr)
