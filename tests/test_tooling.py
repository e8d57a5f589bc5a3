"""Tooling guards: every program function the benchmark's tracer wraps still
exists, so a rename or a deletion fails here instead of crashing a traced
benchmark run with AttributeError; every private module-level function
and constant of the package is still used somewhere in it; no module
draws random numbers; every name in a submodule's __all__ exists there;
the package's lazy namespace resolves every public name to its
submodule's own object; the truncation certificate stays a
logarithmic search, not a scan over degrees; a kernel pair or batch
reaches _accel only for its series, with one traced series call per
single pair and one zonal_series call per batch; a closed-form pair or
batch runs the truncation-degree search only where two checks of the
certificate do not settle its value, and a pair of lists imports no NumPy;
no harmonic expansion
reaches the kernel quadrature; each check of outside input (integer,
finite parameter, kernel point, evaluation point) is written out once, all
but the kernel point in a module that imports no NumPy; and the image of a
radial input, its norms and the check of a forced t are formed once, in
the radial module, which imports no NumPy."""

import ast
import importlib
import importlib.util
import math
import os
import subprocess
import sys

import pytest

import bergbesov

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


SUBMODULES = ("classifier", "errors", "expansion", "kernel", "operators", "probe",
              "quadrature", "radial", "specfun")
# public names that differ from the submodule's own name
RENAMED = {"expansion_from_json": "from_json", "expansion_to_json": "to_json"}


@pytest.mark.parametrize("name", SUBMODULES + ("cli",))
def test_every_name_in_a_submodules_all_exists(name):
    # a deleted function whose __all__ entry stays behind breaks star imports
    module = importlib.import_module(f"bergbesov.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_public_name_is_the_submodules_own_object():
    modules = [importlib.import_module(f"bergbesov.{m}") for m in SUBMODULES]
    for name in (n for n in bergbesov.__all__ if n != "__version__"):
        attr = RENAMED.get(name, name)
        holders = [m for m in modules if hasattr(m, attr)]
        assert holders, name
        value = getattr(bergbesov, name)
        assert all(getattr(m, attr) is value for m in holders), name


def test_namespace_rejects_unknown_names_and_keeps_star_and_submodule_imports():
    assert bergbesov.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'kernel_evaluate'"):
        bergbesov.kernel_evaluate
    assert not hasattr(bergbesov, "_accel_table")
    # in a fresh interpreter, dir() lists every public name before any is loaded
    code = ("import bergbesov\n"
            "listed = set(bergbesov.__all__) <= set(dir(bergbesov))\n"
            "from bergbesov import *\n"
            "from bergbesov import kernel\n"
            "missing = [n for n in bergbesov.__all__ if n not in globals()]\n"
            "print(listed, missing, kernel.__name__, kernel_eval is kernel.kernel_eval)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True", "[]", "bergbesov.kernel", "True"]


@pytest.mark.parametrize("dim, alpha, t, want, checked", [
    (5, 0.0, 0.999, 72_716, [72_717, 72_716]),
    (2, 0.0, 0.99999, None, None),
    (6, -9.0, 0.99999, 199_998, None),
])
def test_truncation_degree_evaluates_logarithmically_many_degrees(dim, alpha, t, want, checked, monkeypatch):
    # dim 5 at t = 0.999 certifies K = 72 716; dim 2 at t = 0.99999 raises
    # at MAX_DEGREE.  A scan over degrees would evaluate the certificate
    # tens of thousands of times.  From its Newton estimate the search
    # settles the first case in two evaluations; in the third the estimate
    # (128) is far off, and the gallop and the bisection do the work
    kernel = importlib.import_module("bergbesov.kernel")
    degrees = []
    certifies = kernel._certifies

    def counted(k, *args):
        degrees.append(k)
        return certifies(k, *args)

    monkeypatch.setattr(kernel, "_certifies", counted)
    spec, r = kernel.KernelSpec(alpha, dim), math.sqrt(t)
    if want is None:
        with pytest.raises(kernel.TruncationLimitError):
            kernel.truncation_degree(spec, r, r)
    else:
        assert kernel.truncation_degree(spec, r, r) == want
    assert checked is None or degrees == checked
    assert 0 < len(degrees) <= 2 * math.ceil(math.log2(kernel.MAX_DEGREE)) + 4
    assert max(degrees) <= kernel.MAX_DEGREE


def test_the_certificate_forms_each_orders_constants_once(monkeypatch):
    # one _order_constants entry per (alpha, dim), however many products
    # are certified; log gamma_k is formed once per degree checked whose
    # tail ratio is below 1, and the certifying degree's value is reused by
    # the overflow check
    kernel = importlib.import_module("bergbesov.kernel")
    kernel._order_constants.cache_clear()
    logs = []
    log_gamma = kernel._log_gamma_coef

    def counted(k, order):
        logs.append(k)
        return log_gamma(k, order)

    monkeypatch.setattr(kernel, "_log_gamma_coef", counted)
    checked = []
    certifies = kernel._certifies
    monkeypatch.setattr(kernel, "_certifies", lambda k, *a: checked.append(k) or certifies(k, *a))
    def below_one(t, alpha, dim):
        order = kernel._order_constants(alpha, dim)
        return [k for k in checked if kernel._tail_ratio(k, t, order) < 1.0]

    for alpha, dim in ((0.4, 3), (-4.5, 4), (0.0, 5)):
        spec = kernel.KernelSpec(alpha, dim)
        for t in (0.3, 0.9, 0.99, 0.999):
            logs.clear()
            checked.clear()
            r = math.sqrt(t)
            kernel.truncation_degree(spec, r, r)
            assert logs == below_one(r * r, alpha, dim)
            assert logs and len(set(checked)) == len(checked)
    assert kernel._order_constants.cache_info().misses == 3
    # at a cap below the certified degree the overflow check forms it
    logs.clear()
    checked.clear()
    assert kernel.truncation_degree(kernel.KernelSpec(0.4, 3), 0.99, 0.99, cap=20) == 20
    assert logs == below_one(0.99 * 0.99, 0.4, 3) + [20]


def test_both_zonal_drivers_read_one_coefficient_table(monkeypatch):
    # series_point and zonal_point take the recurrence of every dimension,
    # and zonal_table that of every dimension >= 3, from
    # _accel._zonal_coefficients, asked once per call at the power of two
    # above the top degree; zonal_table runs its dimension-2 rows without
    # it.  A table the helper hands out with b_k moved moves every value
    # read from it
    import numpy as np

    accel = importlib.import_module("bergbesov._accel")
    kernel = importlib.import_module("bergbesov.kernel")
    table = accel._zonal_coefficients
    asked = []

    def recording(dim, size):
        asked.append((dim, size))
        return table(dim, size)

    monkeypatch.setattr(accel, "_zonal_coefficients", recording)
    u = np.array([0.3, -0.8, 1.0])
    for dim in range(2, 9):
        for kmax in (1, 7, 8, 300):
            ratios = kernel._gamma_ratios(kmax, 0.4, dim)
            want = [(dim, 1 << kmax.bit_length())]
            asked.clear()
            point = accel.series_point(ratios, 0.9, 0.3, dim)
            assert asked == want
            asked.clear()
            harmonic = accel.zonal_point(kmax, 0.3, dim)
            assert asked == want
            asked.clear()
            rows = accel.zonal_table(kmax, u, dim)
            assert asked == ([] if dim == 2 else want)
            if kmax == 1:  # b_1 = 0 times anything
                continue

            def moved(dim, size):
                a, b, h, hr = table(dim, size)
                return a, b * (1.0 + 1e-6), h, hr

            monkeypatch.setattr(accel, "_zonal_coefficients", moved)
            assert accel.series_point(ratios, 0.9, 0.3, dim) != point
            assert accel.zonal_point(kmax, 0.3, dim) != harmonic
            if dim > 2:
                assert not np.array_equal(accel.zonal_table(kmax, u, dim)[kmax], rows[kmax])
            monkeypatch.setattr(accel, "_zonal_coefficients", recording)


def test_the_coefficient_cache_keeps_no_table_past_the_kernels_degrees():
    # tables up to CACHED_SIZE, the power of two above MAX_DEGREE, are kept;
    # a longer one, which only a caller-chosen degree asks for, is formed
    # for its call alone, with the same entries
    import numpy as np

    accel = importlib.import_module("bergbesov._accel")
    kernel = importlib.import_module("bergbesov.kernel")
    assert accel.CACHED_SIZE == 1 << kernel.MAX_DEGREE.bit_length()
    accel._cached_coefficients.cache_clear()
    kept = accel._zonal_coefficients(3, accel.CACHED_SIZE)
    assert accel._zonal_coefficients(3, accel.CACHED_SIZE) is kept
    longer = accel._zonal_coefficients(3, 2 * accel.CACHED_SIZE)
    info = accel._cached_coefficients.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    for short, long in zip(kept, longer):
        assert not long.flags.writeable
        assert np.array_equal(long[:accel.CACHED_SIZE], short)
    accel._cached_coefficients.cache_clear()


def test_a_closed_form_value_searches_for_no_degree_where_two_checks_settle_it(monkeypatch):
    # kernel_eval and kernel_eval_batch at a closed-form order read of the
    # degree only whether it is positive; _degree_is_positive settles that
    # from the certificate at degrees 1 and MAX_DEGREE and runs the search
    # only where those do not (here: no certificate within MAX_DEGREE, and
    # a coefficient that overflows before it).  kernel_eval_degree, which
    # reports the degree, and every series order search once per pair.
    # The benchmark's tracer counts kernel.truncation_degree.calls here
    import numpy as np

    kernel = importlib.import_module("bergbesov.kernel")
    searched = []
    search = kernel.truncation_degree
    monkeypatch.setattr(kernel, "truncation_degree", lambda *a, **k: searched.append(a) or search(*a, **k))

    def searches(f, *args):
        searched.clear()
        f(*args)
        return len(searched)

    x3, y3 = [0.3, -0.2, 0.25], [0.4, 0.35, -0.3]
    kernel._last_degree_logs.cache_clear()
    for spec in (kernel.KernelSpec(-1.0, 3), kernel.KernelSpec(0.0, 3), kernel.KernelSpec(0.7, 2)):
        x, y = x3[:spec.dim], y3[:spec.dim]
        for scale in (1.0, 1.5, 2.0):
            assert searches(kernel.kernel_eval, spec, x, [scale * v for v in y]) == 0
        tiny = [1e-9] * spec.dim  # K = 0
        assert searches(kernel.kernel_eval, spec, tiny, tiny) == 0 and kernel.kernel_eval(spec, tiny, tiny) == 1.0
        assert searches(kernel.kernel_eval_batch, spec, x, np.array([y, x])) == 0
        assert searches(kernel.kernel_eval_degree, spec, x, y) == 1
    # the MAX_DEGREE check's log-gamma terms are formed once per order
    assert kernel._last_degree_logs.cache_info().misses == 3
    r = 0.99999  # K past MAX_DEGREE in the disc
    with pytest.raises(kernel.TruncationLimitError):
        searches(kernel.kernel_eval, kernel.KernelSpec(0.0, 2), [r, 0.0], [r, 0.0])
    assert len(searched) == 1
    assert searches(kernel.kernel_eval, kernel.KernelSpec(1e5, 2), [1e-6, 0.0], [0.5, 0.0]) == 1
    for spec in (kernel.KernelSpec(1.7, 3), kernel.KernelSpec(-4.5, 2)):
        x, y = x3[:spec.dim], y3[:spec.dim]
        assert searches(kernel.kernel_eval, spec, x, y) == 1
        assert searches(kernel.kernel_eval_degree, spec, x, y) == 1


def test_a_closed_form_pair_of_lists_imports_no_numpy():
    code = ("import sys\n"
            "from bergbesov.kernel import KernelSpec, kernel_eval\n"
            "value = kernel_eval(KernelSpec(0, 3), [0.3, -0.2, 0.25], [0.4, 0.35, -0.3])\n"
            "print(value > 0.0, sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True", "[]"]


@pytest.mark.parametrize("alpha, dim", [(-1.0, 3), (0.0, 3), (0.0, 5), (0.7, 2), (-4.5, 2), (1.7, 3), (-4.5, 4)])
def test_single_pair_takes_the_float_geometry_and_one_series_call(alpha, dim, monkeypatch):
    # kernel_eval and every row of kernel_eval_batch form their geometry on
    # Python floats, and NumPy is left to the series.  A single pair at an
    # order without a closed form goes through _accel.series_disk or
    # series_ball exactly once, since the benchmark's tracer counts the
    # accel.series layer there; a batch at such an order makes one
    # zonal_series call over all its rows.  A closed-form order sums no
    # series, so neither a pair nor a batch calls any _accel function
    import numpy as np

    kernel = importlib.import_module("bergbesov.kernel")
    accel = importlib.import_module("bergbesov._accel")
    calls = []

    def counted(original):
        def wrapper(*args):
            calls.append(original.__name__)
            return original(*args)
        return wrapper

    for name, value in list(vars(accel).items()):
        if callable(value) and getattr(value, "__module__", None) == accel.__name__:
            monkeypatch.setattr(accel, name, counted(value))
    spec = kernel.KernelSpec(alpha, dim)
    closed = kernel.has_closed_form(spec)
    x = [0.3, -0.2, 0.25, 0.1, -0.15][:dim]
    y = [0.4, 0.35, -0.3, 0.2, 0.1][:dim]
    value, degree = kernel.kernel_eval_degree(spec, x, y)
    assert degree > 0 and math.isfinite(value)
    entries = [c for c in calls if c in ("series_disk", "series_ball")]
    assert entries == ([] if closed else ["series_disk" if dim == 2 else "series_ball"])
    assert not closed or calls == []
    assert kernel.zonal_harmonic(5, x, y, dim) != 0.0
    calls.clear()
    batch = kernel.kernel_eval_batch(spec, x, np.array([y, x, np.zeros(dim), y]))
    assert np.all(np.isfinite(batch))
    if closed:
        assert calls == [] and batch[0] == batch[3] == value
    else:
        assert calls.count("zonal_series") == 1
        assert not {"series_disk", "series_ball", "series_point"} & set(calls)


@pytest.mark.parametrize("dim", range(2, 9))
def test_expansions_never_reach_the_kernel_quadrature(dim, monkeypatch):
    # every entry point transforms an expansion, object or JSON text, by its
    # multipliers, and a radial input, object or string, to its constant
    # image; only callables go through operators._image_polar
    import numpy as np

    operators = importlib.import_module("bergbesov.operators")
    expansion = importlib.import_module("bergbesov.expansion")

    def forbidden(*args):
        raise AssertionError("an input with an exact image reached _image_polar")

    monkeypatch.setattr(operators, "_image_polar", forbidden)
    anchor = np.linspace(0.1, 0.5, dim) / dim
    exp = expansion.HarmonicExpansion.from_terms(dim, [(0, anchor, 0.5), (1, anchor[::-1], -1.0),
                                                       (3, anchor, 2.0)])
    x = np.full(dim, 0.9 / math.sqrt(dim))
    for f in (exp, expansion.to_json(exp)):
        values = [operators.apply_T(0.5, 0.25, f, x),
                  operators.apply_T_report(0.5, 0.25, f, x).value,
                  operators.apply_T_derivative(0.5, -0.75, 1.0, f, x),
                  operators.projection_Q(1.0, f, x),
                  operators.besov_norm((0.5, 0.25, f), 2.0, -2.0, dim=dim).value,
                  operators.besov_norm((0.5, 0.25, f), 3.0, -2.0, dim=dim).value,
                  operators.bloch_norm((0.5, 0.25, f), -0.5, dim=dim).value]
        assert all(math.isfinite(v) and v != 0.0 for v in values)
        assert values[0] == values[1] == values[2]
    for f in (operators.TestFunction(0.3, 0.5), "fuv:0.3,0.5", "const1"):
        values = [operators.apply_T(0.5, 0.25, f, x),
                  operators.apply_T_report(0.5, 0.25, f, x).value,
                  operators.apply_T_derivative(0.5, -0.75, 1.0, f, x),
                  operators.bloch_norm((0.5, 0.25, f), -0.5, dim=dim).value,
                  operators.besov_norm((0.5, 0.25, f), 2.0, -2.0, dim=dim).value,
                  operators.besov_norm((0.5, 0.25, f), 3.0, -2.0, dim=dim).value]
        assert all(math.isfinite(v) and v > 0.0 for v in values)
        # the image is a constant, so the Bloch norm is its value
        assert values[0] == values[1] == values[2] == values[3]
        assert operators.projection_Q(1.0, f, x) > 0.0


def test_each_check_of_outside_input_is_formed_once():
    # dimensions, degrees and node counts go through errors._check_int,
    # finite parameters through errors._check_finite, and kernel points
    # through kernel._as_point: a copy written out again, whose text would
    # drift from the original's, fails here
    sources = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname), encoding="utf-8") as fh:
                sources[fname] = fh.read()
    for text, home in (("must be an integer >=", "errors.py"), ("must be finite, got", "errors.py"),
                       ("points must have shape (", "kernel.py")):
        assert [f for f, src in sources.items() if text in src] == [home], text
        assert sources[home].count(text) == 1, text
    assert "non-negative integer, got" not in sources["kernel.py"]
    kernel = importlib.import_module("bergbesov.kernel")
    assert not hasattr(kernel, "_is_point")


def test_the_shared_checks_import_no_numpy():
    code = ("import sys\n"
            "from bergbesov.errors import _check_finite, _check_int\n"
            "print(_check_int('dim', 3.0, 2), _check_finite('b', '0.5'),\n"
            "      sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["3", "0.5", "[]"]


def _sources():
    sources = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname), encoding="utf-8") as fh:
                sources[fname] = fh.read()
    return sources


def test_a_radial_image_and_its_norms_are_formed_once_in_the_radial_module():
    # the constant image radial_power_log_value(b + u, v), the norm of a
    # constant image |K| (V_w / V_beta)^{1/q}, the choice and check of t and
    # the open-ball check each have one home: a second copy in operators,
    # probe or cli would be a fork of the radial route
    sources = _sources()
    for text, home in (("radial_power_log_value(b + tf.u", "radial.py"),
                       ("normalization_V(w, dim) / _v_or_one(beta, dim)", "radial.py"),
                       ("t must be a non-negative integer with", "radial.py"),
                       ("_smoothing_order(beta) if", "radial.py"),
                       ("must lie in the open unit ball", "errors.py")):
        assert [f for f, src in sources.items() if text in src] == [home], text
        assert sources[home].count(text) == 1, text
    operators = importlib.import_module("bergbesov.operators")
    radial = importlib.import_module("bergbesov.radial")
    assert not hasattr(operators, "_exact_image")
    for name in ("TransformReport", "NormResult", "besov_smoothing_order", "bloch_smoothing_order"):
        assert getattr(operators, name) is getattr(radial, name), name


def test_the_radial_route_imports_no_numpy():
    code = ("import sys\n"
            "import bergbesov.radial as r\n"
            "tf = r.TestFunction(0.3, 1.0)\n"
            "rep = r._radial_report(0.5, 1.0, tf, [0.3, 0.2, 0.1])\n"
            "norm = r._radial_norm(0.5, 1.0, tf, 3.0, -2.5, 3)\n"
            "print(rep.method, norm.t, rep.value > 0.0 < norm.value,\n"
            "      sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["radial-ladder", "1", "True", "[]"]
