"""Tooling guards: every program function the benchmark's tracer wraps still
exists, so a rename or a deletion fails here instead of crashing a traced
benchmark run with AttributeError; every private module-level function
and constant of the package is still used somewhere in it; and no module
draws random numbers."""

import ast
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


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "bergbesov")


def _private_names(stmt):
    """Private (single-underscore) names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _used_names(stmt):
    """Names a statement reads, as a bare name or as an attribute."""
    used = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_private_module_name_is_used_in_src():
    # an import alone does not count: a private helper whose last caller
    # is gone, or one imported but never called, is dead code
    stmts = []
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=fname)
            stmts.extend((fname, stmt, _used_names(stmt)) for stmt in tree.body)
    unused = []
    for fname, stmt, _ in stmts:
        for name in _private_names(stmt):
            if not any(name in used for _, other, used in stmts if other is not stmt):
                unused.append(f"{fname}:{stmt.lineno} {name}")
    assert not unused, unused


def test_no_module_draws_random_numbers():
    # every rule is deterministic: no import of random, and no read of
    # np.random or numpy.random
    found = []
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(SRC, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=fname)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
            elif (isinstance(node, ast.Attribute) and node.attr == "random"
                  and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                mods = ["numpy.random"]
            else:
                continue
            if any(m == "random" or m.startswith("random.") or m.startswith("numpy.random")
                   for m in mods):
                found.append(f"{fname}:{node.lineno}")
    assert not found, found
