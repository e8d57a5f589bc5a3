"""The three operation lists, each generated from a seed.

Every workload is a fixed list of operations in a fixed order.  The seed
draws what an operation is applied to (directions, anchors, coefficients,
and orders or weights where they do not change the work done); the layout
of the list, and so the work each slot costs, is the same for every seed.
Operations that fail because of a known fault of the program use inputs
that do not depend on the seed, so they fail in every run.

`op.run()` calls into the program by module attribute, so that a traced
run sees every layer.  `op.check(out, done)` judges the output afterwards
and returns an error string, or None when the output is right; `done` maps
the names of the operations already run to their outputs.
"""

import csv
import dataclasses
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

import reference
from bergbesov import classifier, expansion, kernel, operators, quadrature

WORKLOADS = ("kernel-points", "transforms", "cli-cold")

KERNEL_TOL = 1e-10
# Acceptance criterion 3: the projection reproduces harmonic inputs to 1e-6.
PROJECTION_TOL = 1e-6
# Values obtained by adaptive 1-D quadrature (scipy's quad at epsrel 1e-11)
# of a smooth radial profile.
RADIAL_RTOL = 1e-8
# Rounding budget of a ball quadrature, relative to the size of its input.
QUADRATURE_ROUNDING = 1e-12


@dataclass
class Op:
    """One operation.  fault names the known program fault that makes it fail
    on every run ("A" or "B", see the README); None means it must pass.

    For the tests of the checks: exact() builds the output a correct
    program gives (in-process operations), and perturb(out) a slightly
    wrong one that check must reject.
    """

    name: str
    run: object
    check: object
    fault: str = None
    exact: object = None
    perturb: object = None
    meta: dict = field(default_factory=dict)


def build(workload, seed, cli=None, tiny=False):
    """The operation list of a workload.

    cli runs one command line of the program in a fresh process and returns
    (exit code, stdout bytes, stderr bytes), and cli.out_path(name) names a
    file the program may write; cli-cold needs it.  tiny keeps a short list
    with every kind of operation and both faults, for tests.
    """
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    if workload == "kernel-points":
        return _kernel_points(rng, tiny)
    if workload == "transforms":
        return _transforms(rng, tiny)
    if workload == "cli-cold":
        return _cli_cold(rng, cli, tiny)
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def _unit(rng, n):
    g = rng.standard_normal(n)
    return g / np.linalg.norm(g)


def _close(got, want, allowed):
    if not isinstance(got, (float, int)) or isinstance(got, bool) or not math.isfinite(got):
        return f"got {got!r}, expected {want!r}"
    if not abs(got - want) <= allowed:
        return f"got {got!r}, expected {want!r} within {allowed:.3g} (off by {abs(got - want):.3g})"
    return None


def _rel_close(got, want, rtol):
    return _close(got, want, rtol * abs(want))


def _nudge(v):
    """v moved by 1e-6 relative plus 1e-8 absolute: far outside what any
    check allows for a right value, far inside what the faults move."""
    return v * (1.0 + 1e-6) + 1e-8


def _nudge_value(out):
    return dataclasses.replace(out, value=_nudge(out.value))


# ---------------------------------------------------------------------------
# kernel-points: single-pair kernel_eval.

KERNEL_ORDERS = (-4.5, -1.0, 0.0, 1.7)


def _kernel_products(n, c):
    """|x||y| per dimension and order.  Orders without a closed form are
    checked by a direct series that costs O(K^2) in eval_gegenbauer, and for
    c = 1.7 its terms cancel ever more as |x||y| grows, so they stop early."""
    if reference.has_closed_form(c, n) or n == 2:
        return (0.5, 0.9, 0.99, 0.999)
    if c < 0.0:
        return (0.5, 0.9, 0.99)
    return (0.5, 0.9)


def _kernel_op(name, c, x, y):
    spec = kernel.KernelSpec(c, len(x), KERNEL_TOL)

    def run():
        return kernel.kernel_eval(spec, x, y)

    def check(out, done):
        want, allowed = _kernel_reference(spec, x, y)
        return _close(out, want, allowed)

    return Op(name, run, check, exact=lambda: _kernel_reference(spec, x, y)[0], perturb=_nudge,
              meta={"spec": spec, "x": x, "y": y})


def _kernel_reference(spec, x, y):
    rx, ry = float(np.linalg.norm(x)), float(np.linalg.norm(y))
    degree = kernel.truncation_degree(spec, rx, ry) if rx * ry > 0.0 else 0
    return reference.kernel_reference(spec.alpha, x, y, spec.tol, degree)


def _swapped(op):
    """R(y, x) for the pair of op: the reference, and R(x, y) as op computed it."""
    spec, x, y = op.meta["spec"], op.meta["x"], op.meta["y"]
    swapped = _kernel_op(op.name + ".swapped", spec.alpha, y, x)

    def check(out, done):
        want, allowed = _kernel_reference(spec, x, y)
        return _close(out, want, allowed) or _close(out, done[op.name], 2.0 * allowed)

    return dataclasses.replace(swapped, check=check)


def _kernel_zero(n, c, x):
    spec = kernel.KernelSpec(c, n, KERNEL_TOL)
    zero = np.zeros(n)

    def run():
        return kernel.kernel_eval(spec, x, zero)

    def check(out, done):
        return None if out == 1.0 else f"R(x, 0) = {out!r}, expected exactly 1"

    return Op(f"R[n={n},y=0]", run, check, exact=lambda: 1.0, perturb=_nudge)


def _interleave(base, block):
    """base with the block's items spread evenly through it."""
    out = list(base)
    for j in reversed(range(len(block))):
        out.insert((j + 1) * len(base) // (len(block) + 1), block[j])
    return out


def _kernel_points(rng, tiny):
    """Every (dimension, order, |x||y|) slot once; spread among them a block
    of R_0 in dimension 3 at |x||y| = 0.9, which costs what the middle of
    the list costs, so that the median operation is one of many alike taken
    all through the run; then symmetry and R(x, 0) = 1."""
    dims = (2, 3) if tiny else (2, 3, 4, 5)
    slots = [(n, c, rho) for n in dims for c in KERNEL_ORDERS
             for rho in _kernel_products(n, c)[: 2 if tiny else None]]
    block = [(3, 0.0, 0.9)] * (2 if tiny else 40)
    ops = []
    for i, (n, c, rho) in enumerate(_interleave(slots, block)):
        # split |x||y| = rho unevenly between the two points
        share = rng.uniform(0.35, 0.65)
        x = rho**share * _unit(rng, n)
        y = rho ** (1.0 - share) * _unit(rng, n)
        ops.append(_kernel_op(f"R[n={n},c={c},rho={rho}]#{i}", c, x, y))
    # symmetry: an order-0 pair at |x||y| = 0.99 (0.9 in the tiny list)
    # once more with the points swapped
    rho = 0.9 if tiny else 0.99
    for n in dims:
        ops.append(_swapped(next(op for op in ops if op.name.startswith(f"R[n={n},c=0.0,rho={rho}]#"))))
    for n in dims:
        c = KERNEL_ORDERS[int(rng.integers(len(KERNEL_ORDERS)))]
        ops.append(_kernel_zero(n, c, math.sqrt(0.999) * _unit(rng, n)))
    return ops


# ---------------------------------------------------------------------------
# transforms: projections, transforms and norms of their images.


def _solid(k, w):
    """The solid harmonic Z_k(., w) as a callable on (m, n) point arrays."""
    return lambda pts: reference.zonal(k, pts, w)


def _x1x2(pts):
    return pts[:, 0] * pts[:, 1]


def _projection_op(name, alpha, f, x, fault=None):
    want = float(f(x[None, :])[0])

    def run():
        return operators.projection_Q(alpha, f, x)

    def check(out, done):
        return _close(out, want, PROJECTION_TOL)

    return Op(name, run, check, fault, exact=lambda: want, perturb=lambda v: v + 2.0 * PROJECTION_TOL)


def _input_size(terms, n):
    """sum |coef| h_k |a|^k, a bound for sup |f| over the ball."""
    return sum(abs(cf) * reference.harmonic_dim(k, n) * float(np.linalg.norm(a)) ** k
               for k, a, cf in terms)


def _expansion_op(name, b, c, terms, x, rule, fault=None):
    """apply_T of a HarmonicExpansion; T acts on each zonal term by its
    multiplier.  Allowed error: the certified kernel tail on int |f| plus
    the quadrature's rounding."""
    n = len(x)
    exp = expansion.HarmonicExpansion.from_terms(n, terms)
    want = sum(cf * reference.transform_multiplier(k, b, c, n) * reference.zonal(k, x, a)[0]
               for k, a, cf in terms)
    size = _input_size(terms, n)
    allowed = (KERNEL_TOL * reference.volume(b, n) + QUADRATURE_ROUNDING) * size

    def run():
        return operators.apply_T(b, c, exp, x, rule=rule)

    def check(out, done):
        return _close(out, want, allowed)

    return Op(name, run, check, fault, exact=lambda: want, perturb=_nudge)


def _report_op(name, b, c, k, w, x):
    """apply_T_report of a callable solid harmonic: value and no divergence."""
    f = _solid(k, w)
    n = len(x)
    want = reference.transform_multiplier(k, b, c, n) * float(f(x[None, :])[0])
    allowed = (KERNEL_TOL * reference.volume(b, n) + QUADRATURE_ROUNDING) * _input_size([(k, w, 1.0)], n)

    def run():
        return operators.apply_T_report(b, c, f, x)

    def check(out, done):
        if out.divergent:
            return f"reported divergent: {out.to_dict()}"
        return _close(out.value, want, allowed)

    return Op(name, run, check, exact=lambda: operators.TransformReport(want, False, (), "node-doubling"),
              perturb=_nudge_value)


def _radial_norm_op(name, kind, n, b, c, u, beta, q=None):
    """Norm of the constant image of f_{u,0}."""
    tf = operators.TestFunction(u, 0.0)
    if kind == "besov":
        want = reference.radial_besov(b, u, q, beta, n)

        def run():
            return operators.besov_norm((b, c, tf), q, beta, dim=n)
    else:
        want = reference.radial_image(b, u, n)

        def run():
            return operators.bloch_norm((b, c, tf), beta, dim=n)

    def check(out, done):
        if out.divergent:
            return f"reported divergent: {out.to_dict()}"
        return _rel_close(out.value, want, RADIAL_RTOL)

    return Op(name, run, check, exact=lambda: operators.NormResult(want, c, 0, False), perturb=_nudge_value)


def _zonal_norm_op(name, kind, b, c, k, a, beta, fault=None):
    """Norm of the image of Z_k(., a): the q = 2 Besov norm equals its
    closed form; the Bloch norm is a lower estimate of the exact supremum."""
    n = len(a)
    exp = expansion.HarmonicExpansion.from_terms(n, [(k, a, 1.0)])
    if kind == "besov":
        want = reference.besov_zonal_q2(b, c, k, a, beta, n)

        def run():
            return operators.besov_norm((b, c, exp), 2.0, beta)

        def check(out, done):
            return _rel_close(out.value, want, RADIAL_RTOL)
    else:
        want = sup = reference.bloch_zonal_sup(b, c, k, a, beta, n)

        def run():
            return operators.bloch_norm((b, c, exp), beta)

        def check(out, done):
            if not out.value <= sup * (1.0 + QUADRATURE_ROUNDING):
                return f"lower estimate {out.value!r} exceeds the exact supremum {sup!r}"
            return None

    return Op(name, run, check, fault, exact=lambda: operators.NormResult(want, c, 0, False),
              perturb=_nudge_value)


def _transforms(rng, tiny):
    """Projections of solid harmonics, transforms of expansions and of a
    callable, norms of radial and zonal images, and the fault operations;
    spread among them a block of alike projections at |x| = 0.6, which
    holds the median operation."""
    ops = []
    # Q_alpha h = h for solid harmonics of degree 0..3, default rule.  The
    # order alpha sets the certified degree, so it is fixed per slot.
    slots = [(r, k, (0.0, 1.0)[k % 2]) for r in (0.3, 0.9) for k in range(4)]
    block = [] if tiny else [(0.6, k % 4, 0.0) for k in range(16)]
    for i, (r, k, alpha) in enumerate(slots[:4] if tiny else slots):
        w = rng.uniform(0.5, 1.0) * _unit(rng, 2)
        ops.append(_projection_op(f"Q[n=2,k={k},|x|={r}]#{i}", alpha, _solid(k, w), r * _unit(rng, 2)))
    block_ops = []
    for i, (r, k, alpha) in enumerate(block):
        w = rng.uniform(0.5, 1.0) * _unit(rng, 2)
        block_ops.append(_projection_op(f"Q[n=2,k={k},|x|={r}]#b{i}", alpha, _solid(k, w), r * _unit(rng, 2)))
    for k, r in ((2, 0.5), (3, 0.8))[: 1 if tiny else 2]:
        w = rng.uniform(0.5, 1.0) * _unit(rng, 3)
        ops.append(_projection_op(f"Q[n=3,k={k},|x|={r}]", 0.0, _solid(k, w), r * _unit(rng, 3)))

    # T on HarmonicExpansion zonal terms, reduced rules.  With sphere
    # exactness E, kernel degrees j with j + k > E alias, damped by |x|^j;
    # the seeded slots keep that below the certificate (|x|^125 in dim 2,
    # |x|^29 in dim 3).
    rule2 = quadrature.BallQuadrature(2, radial_nodes=64, sphere_nodes=128)
    rule3 = quadrature.BallQuadrature(3, radial_nodes=32, sphere_nodes=64)
    slots = [(rule2, 1, 0.3), (rule2, 2, 0.5), (rule2, 3, 0.7),
             (rule3, 1, 0.3), (rule3, 2, 0.3), (rule3, 3, 0.35)]
    for rule, k, r in (slots[:1] + slots[3:4]) if tiny else slots:
        n = rule.dim
        terms = [(k, rng.uniform(0.3, 1.0) * _unit(rng, n), rng.uniform(0.5, 2.0)),
                 (k - 1, rng.uniform(0.3, 1.0) * _unit(rng, n), rng.uniform(-2.0, -0.5))]
        ops.append(_expansion_op(f"T[n={n},k={k},|x|={r}]", 0.5, 0.25, terms, r * _unit(rng, n), rule))

    for k, r in ((2, 0.5), (3, 0.8))[: 1 if tiny else 2]:
        w = rng.uniform(0.5, 1.0) * _unit(rng, 2)
        ops.append(_report_op(f"T_report[n=2,k={k},|x|={r}]", 0.5, -0.5, k, w, r * _unit(rng, 2)))

    for kind in ("besov", "bloch"):
        for n in (2, 3):
            for _ in range(1 if tiny else 4):
                u = rng.uniform(-0.4, 0.8)
                b = rng.uniform(-0.4, 1.0)
                c = rng.uniform(-1.0, 2.0)
                if kind == "besov":
                    q = float(rng.choice((1.5, 2.0, 3.0)))
                    beta = rng.uniform(-2.5, 1.0)
                    ops.append(_radial_norm_op(f"besov[f_u0,n={n}]#{len(ops)}", kind, n, b, c, u, beta, q))
                else:
                    beta = rng.uniform(-0.5, 1.5)
                    ops.append(_radial_norm_op(f"bloch[f_u0,n={n}]#{len(ops)}", kind, n, b, c, u, beta))

    # Images of zonal terms, fixed inputs (see the README on fault A).
    ops.append(_zonal_norm_op("bloch[Z1,n=2]", "bloch", 0.5, 0.25, 1, np.array([0.6, 0.3]), 0.5))
    ops.append(_zonal_norm_op("besov[Z1,n=2,beta=-2] (fault A)", "besov", 0.5, 0.25, 1,
                              np.array([0.6, 0.3]), -2.0, fault="A"))
    ops.append(_zonal_norm_op("bloch[Z3,n=2] (fault A)", "bloch", 0.5, 0.25, 3,
                              np.array([0.67, 0.0]), 0.5, fault="A"))
    diag2 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    ops.append(_projection_op("Q[n=2,x1x2,|x|=0.99] (fault A)", 0.0, _x1x2, 0.99 * diag2, fault="A"))
    ops.append(_expansion_op("T[n=2,k=3,|x|=0.9] (fault A)", 0.5, 0.25,
                             [(3, np.array([0.5, 0.3]), 1.0)], 0.9 * diag2, rule2, fault="A"))
    if not tiny:
        diag3 = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        ops.append(_projection_op("Q[n=3,x1x2,|x|=0.99] (fault A)", 0.0, _x1x2, 0.99 * diag3, fault="A"))
    diag4 = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0)
    ops.append(_projection_op("Q[n=4,x1x2,|x|=0.5] (fault B)", 0.0, _x1x2, 0.5 * diag4, fault="B"))
    return _interleave(ops, block_ops)


# ---------------------------------------------------------------------------
# cli-cold: one command line per operation, each in a fresh process.


def _num(v):
    return "inf" if math.isinf(v) else repr(float(v))


def _point(x):
    return ",".join(repr(float(v)) for v in x)


def _cli_json(out):
    code, stdout, stderr = out
    if code != 0:
        raise ValueError(f"exit code {code}: {stderr.decode(errors='replace')[-400:]}")
    return json.loads(stdout)


def _cli_op(name, argv, judge, cli, perturb):
    """An operation running `bergbesov <argv>`; judge(parsed JSON, done)
    returns an error string or None."""

    def run():
        return cli(argv)

    def check(out, done):
        try:
            return judge(_cli_json(out), done)
        except ValueError as exc:
            return str(exc)

    return Op(name, run, check, perturb=perturb)


def _edit_json(edit):
    """A perturbation of a command's output: edit(parsed JSON) in place."""

    def perturb(out):
        code, stdout, stderr = out
        obj = json.loads(stdout)
        edit(obj)
        return code, json.dumps(obj).encode(), stderr

    return perturb


def _nudge_json(key):
    return _edit_json(lambda obj: obj.__setitem__(key, _nudge(obj[key])))


def _flags(b, c, alpha, beta, p, q, n):
    return [f"--b={_num(b)}", f"--c={_num(c)}", f"--alpha={_num(alpha)}",
            f"--beta={_num(beta)}", f"--p={_num(p)}", f"--q={_num(q)}", f"--dim={n}"]


def _inequalities_hold(verdict):
    """The verdict's bounded flag recomputed from its own listed inequalities."""
    oks = []
    for iq in verdict["inequalities"]:
        ok = iq["lhs"] < iq["rhs"] if iq["rel"] == "<" else iq["lhs"] <= iq["rhs"]
        if ok != iq["ok"]:
            return None
        oks.append(ok)
    if len(oks) == 4:
        return (oks[0] and oks[1]) or (oks[2] and oks[3])
    return all(oks)


def _classify_op(target, part, params, cli):
    b, c, alpha, beta, p, q, n = params

    def judge(out, done):
        if out["theorem_part"] != part:
            return f"theorem part {out['theorem_part']!r}, expected {part!r}"
        if _inequalities_hold(out) != out["bounded"]:
            return f"bounded={out['bounded']} contradicts the listed inequalities"
        if part.endswith("(i)") and target in ("besov", "lebesgue"):
            want = reference.bounded_regime_i(b, c, alpha, beta, p, q, n)
            if out["bounded"] != want:
                return f"bounded={out['bounded']}, the paper's inequalities give {want}"
        return None

    argv = ["classify", *_flags(*params), f"--target={target}"]
    flip = _edit_json(lambda obj: obj.__setitem__("bounded", not obj["bounded"]))
    return _cli_op(f"classify[{part}]", argv, judge, cli, flip)


def _dyadic(rng, lo, hi):
    """A multiple of 1/8 in [lo, hi]: sums and quotients by 1, 2 and 4 stay
    exact, so the weight shift is exact too."""
    return float(rng.integers(round(8 * lo), round(8 * hi) + 1)) / 8.0


def _classify_ops(rng, cli):
    """One command per target, covering every regime of the sup-type
    targets; the sweep covers every regime of the finite-q ones."""
    d = lambda lo, hi: _dyadic(rng, lo, hi)  # noqa: E731
    # regime (i), 1 < p <= q < inf, against the paper's two inequalities
    p = float(rng.choice((1.5, 2.0, 3.0)))
    q = p + float(rng.choice((0.0, 1.0, 2.0)))
    alpha, beta, b = d(-0.5, 1.0), d(-0.5, 1.5), d(-0.5, 1.0)
    n = int(rng.integers(2, 4))
    rhs = b + (n + beta) / q - (n + alpha) / p
    c = rhs + float(rng.choice((-0.25, 0.0, 0.25)))  # the boundary, or either side
    ops = [_classify_op("besov", "besov(i)", (b, c, alpha, beta, p, q, n), cli)]
    cases = (("wlinf", "wlinf(i)", 2.0, math.inf), ("lebesgue", "lebesgue(iii)", 3.0, 2.0),
             ("bloch", "bloch(ii)", 1.0, math.inf), ("hinf", "hinf(iii)", math.inf, math.inf))
    for target, part, p, q in cases:
        params = (d(-0.5, 1.5), d(-2.0, 1.0), d(-0.5, 1.0), d(0.125, 1.5), p, q, int(rng.integers(2, 4)))
        ops.append(_classify_op(target, part, params, cli))
    return ops


def _sweep_ops(rng, cli, tiny):
    """A 16384-tuple sweep over all four finite-q regimes (4096 in the tiny
    list), then the same sweep written to a file."""
    b0 = _dyadic(rng, -1.0, -0.5)
    c0 = _dyadic(rng, -3.0, -2.0)
    shift = _dyadic(rng, 0.0, 0.5)
    alphas = ",".join(_num(a + shift) for a in (-0.5, 0.0, 0.5, 1.0))
    betas = ",".join(_num(x - shift) for x in (-1.5, -0.5, 0.5, 1.5))
    count = 8 if tiny else 16
    argv = ["sweep", f"--b={_num(b0)}:{_num(b0 + (count - 1) / 8)}:{count}",
            f"--c={_num(c0)}:{_num(c0 + (count - 1) / 4)}:{count}",
            f"--alpha={alphas}", f"--beta={betas}", "--p=1,2,4,inf", "--q=2",
            "--target=besov", "--dim=2"]
    rows = count * count * 64

    def run_first():
        return cli(argv)

    def check_first(out, done):
        code, stdout, stderr = out
        if code != 0:
            return f"exit code {code}: {stderr.decode(errors='replace')[-400:]}"
        return _check_sweep(stdout.decode(), rows)

    def flip_row(out):
        code, stdout, stderr = out
        lines = stdout.decode().split("\n")
        row = lines[1].split(",")
        row[8] = "false" if row[8] == "true" else "true"
        lines[1] = ",".join(row)
        return code, "\n".join(lines).encode(), stderr

    first = Op("sweep", run_first, check_first, perturb=flip_row)
    path = cli.out_path("sweep.csv")

    def run_second():
        return cli(argv + [f"--out={path}"])

    def check_second(out, done):
        code, _, stderr = out
        if code != 0:
            return f"exit code {code}: {stderr.decode(errors='replace')[-400:]}"
        with open(path, "rb") as fh:
            written = fh.read()
        return None if written == done["sweep"][1] else "sweep rerun is not byte-identical"

    def corrupt_file(out):
        with open(path, "ab") as fh:
            fh.write(b"\n")
        return out

    return [first, Op("sweep.rerun", run_second, check_second, perturb=corrupt_file)]


def _check_sweep(text, rows):
    """Every row against the row of its weight-shifted tuple, and the rows of
    regime (i) against the paper's inequalities."""
    table = list(csv.reader(io.StringIO(text)))
    if table[0] != "b,c,alpha,beta,p,q,target,dim,bounded,part,binding_slack".split(","):
        return f"unexpected header {table[0]}"
    if len(table) != rows + 1:
        return f"{len(table) - 1} rows, expected {rows}"
    for row in table[1:]:
        b, c, alpha, beta = (float(v) for v in row[:4])
        p, q = float(row[4]), float(row[5])
        target, n, bounded, part, slack = row[6], int(row[7]), row[8] == "true", row[9], float(row[10])
        b0, c0 = reference.weight_shift(b, c, alpha, beta, p, q)
        shifted = classifier.classify(classifier.OperatorParams(b0, c0, 0.0, 0.0, p, q, n), target)
        if (shifted.bounded, shifted.part) != (bounded, part) or abs(shifted.binding_slack - slack) > 1e-12:
            return f"row {row} differs from its weight-shifted tuple ({b0}, {c0}): {shifted}"
        if 1.0 < p <= q < math.inf and bounded != reference.bounded_regime_i(b, c, alpha, beta, p, q, n):
            return f"row {row} contradicts the paper's inequalities"
    return None


def _kernel_cli_op(rng, c, n, rho, cli):
    share = rng.uniform(0.35, 0.65)
    x = rho**share * _unit(rng, n)
    y = rho ** (1.0 - share) * _unit(rng, n)

    def judge(out, done):
        want, allowed = reference.kernel_reference(c, x, y, KERNEL_TOL, int(out["truncation_degree"]))
        return _close(out["value"], want, allowed)

    argv = ["kernel", f"--alpha={_num(c)}", f"--x={_point(x)}", f"--y={_point(y)}", f"--tol={KERNEL_TOL!r}"]
    return _cli_op(f"kernel[n={n},c={c}]", argv, judge, cli, _nudge_json("value"))


def _finiteness_op(rng, finite, cli):
    """finiteness probe for 1 < p < inf: the family member is f_{u,1} with
    u = -(1+alpha)/p, whose transform is finite iff b + u > -1."""
    p = float(rng.choice((1.5, 2.0, 3.0)))
    alpha = rng.uniform(-0.5, 1.0)
    gap = rng.uniform(0.3, 0.6)
    b = -1.0 + (1.0 + alpha) / p + (gap if finite else -gap)
    want = "finite-plateau" if finite else "divergent-growth"

    def judge(out, done):
        ev = out["evidence"][0]
        if ev["observed"] != want or ev["detail"]["analytic_finite"] != finite:
            return f"observed {ev['observed']} (analytic {ev['detail']['analytic_finite']}), expected {want}"
        return None

    def swap(obj):
        ev = obj["evidence"][0]
        ev["observed"] = "divergent-growth" if ev["observed"] == "finite-plateau" else "finite-plateau"

    argv = ["probe", "--kind=finiteness", *_flags(b, 0.0, alpha, 0.0, p, 2.0, 2)]
    return _cli_op(f"probe[finiteness,{'finite' if finite else 'divergent'}]", argv, judge, cli,
                   _edit_json(swap))


def _ratio_op(rng, cli):
    """ratio probe on a tuple well inside the bounded region of regime (i)."""
    p = 2.0
    alpha = rng.uniform(-0.5, 0.5)
    b = (alpha + 1.0) / p - 1.0 + rng.uniform(0.5, 1.0)
    c = b + (2.0 + 0.0) / 2.0 - (2.0 + alpha) / p - rng.uniform(0.5, 1.0)

    def judge(out, done):
        ev = out["evidence"][0]
        ratios = ev["detail"]["ratios"]
        if not out["verdict"]["bounded"] or not ev["agree"] or ev["observed"] != "plateau":
            return f"bounded tuple: verdict {out['verdict']['bounded']}, observed {ev['observed']}, agree {ev['agree']}"
        if not all(math.isfinite(r) and r > 0.0 for r in ratios):
            return f"ratios {ratios}"
        return None

    argv = ["probe", "--kind=ratio", *_flags(b, c, alpha, 0.0, p, 2.0, 2)]
    disagree = _edit_json(lambda obj: obj["evidence"][0].__setitem__("agree", False))
    return _cli_op("probe[ratio]", argv, judge, cli, disagree)


def _floor_op(rng, cli):
    c = rng.uniform(-1.0, 2.0)
    n = int(rng.integers(2, 4))

    def judge(out, done):
        eps = out["epsilon"]
        if not 0.0 < eps <= 0.5 or math.log2(eps) != round(math.log2(eps)):
            return f"epsilon {eps} is not a dyadic in (0, 1/2]"
        return None

    argv = ["probe", "--kind=floor", f"--alpha={_num(c)}", f"--dim={n}"]
    return _cli_op("probe[floor]", argv, judge, cli, _edit_json(lambda obj: obj.__setitem__("epsilon", 0.3)))


def _norm_op(rng, cli):
    """Source-space norm of f_{u,0}: (V_{alpha+pu} / V_alpha)^{1/p}."""
    n = int(rng.integers(2, 4))
    u = rng.uniform(-0.3, 0.8)
    p = float(rng.choice((1.0, 2.0, 3.0)))
    alpha = rng.uniform(-0.5, 1.0)
    want = reference.lp_norm_fu0(u, p, alpha, n)

    def judge(out, done):
        return _rel_close(out["value"], want, RADIAL_RTOL)

    argv = ["norm", f"--f=fuv:{_num(u)},0", f"--p={_num(p)}", f"--alpha={_num(alpha)}", f"--dim={n}"]
    return _cli_op("norm[source]", argv, judge, cli, _nudge_json("value"))


def _apply_ops(rng, cli):
    ops = []
    for spec in ("fuv", "const1"):
        n = int(rng.integers(2, 4))
        u = rng.uniform(-0.3, 0.8) if spec == "fuv" else 0.0
        b, c = rng.uniform(-0.3, 1.0), rng.uniform(-1.0, 2.0)
        f = f"fuv:{_num(u)},0" if spec == "fuv" else "const1"
        want = reference.radial_image(b, u, n)

        def judge(out, done, want=want):
            if out["divergent"]:
                return "reported divergent"
            return _rel_close(out["value"], want, RADIAL_RTOL)

        x = rng.uniform(0.1, 0.9) * _unit(rng, n)
        argv = ["apply", f"--b={_num(b)}", f"--c={_num(c)}", f"--f={f}", f"--x={_point(x)}"]
        ops.append(_cli_op(f"apply[{spec}]", argv, judge, cli, _nudge_json("value")))
    return ops


def _cli_cold(rng, cli, tiny):
    if cli is None:
        raise ValueError("cli-cold needs a command runner")
    ops = _classify_ops(rng, cli)[: 2 if tiny else None]
    ops += _sweep_ops(rng, cli, tiny)
    ops.append(_kernel_cli_op(rng, -1.0, 3, 0.99, cli))
    if not tiny:
        ops.append(_kernel_cli_op(rng, 0.0, 2, 0.9, cli))
    ops.append(_finiteness_op(rng, bool(rng.integers(2)), cli))
    ops.append(_ratio_op(rng, cli))
    ops.append(_floor_op(rng, cli))
    ops.append(_norm_op(rng, cli))
    ops += _apply_ops(rng, cli)[: 1 if tiny else None]
    return ops
