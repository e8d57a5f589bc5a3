"""Command-line front end: classification, kernel evaluation, transforms,
norms, probes, and parameter sweeps with machine-readable output.

Output conventions: JSON on standard output with every float rendered at 17
significant digits (bit-faithful for fixtures; infinities as the Infinity
literal, which json.loads accepts), all inputs echoed back for
reproducibility.  Sweeps emit CSV with the fixed header
b,c,alpha,beta,p,q,target,dim,bounded,part,binding_slack.  Exit codes:
0 success, 2 malformed input or a value the numerics cannot certify (a
kernel series past its truncation limit or with both points on the
sphere, a radial integral whose rule did not converge or whose value
passes the largest double), 1 I/O failure.

Input: every flag a command's mode does not read is refused with exit 2
(`norm`'s --p and --alpha in image mode, --q, --target and --beta in
source-space mode, and --radial-nodes and --sphere-nodes wherever no rule
is read: for a radial input in both modes and the p = 2 norm of an
expansion; every flag but --alpha and --dim of `probe --kind floor`).
Those flags default to None, so a given one is refused at any value, and
the mode that reads a flag fills in its default.  Dimensions and finite
parameters are checked by errors._check_int and _check_finite, as in the
modules the commands call.

Numbers: a value may be given as its own token or joined to its flag by
'=', negative ones included: exponents, the inf spellings, start:stop:count
ranges and comma lists (_NEGATIVE_VALUE).  A range is np.linspace's values;
one whose count is not an integer >= 1, or whose finite ends are more than
the largest double apart, is refused by name.

Startup: only the classifier and the errors are imported with this module.
`classify` and `sweep` never import NumPy, and neither does `kernel` at a
closed-form order or with a zero point, since points are parsed to lists
of floats, nor `probe --kind floor` at such an order, whose rows are lists
too; at a series order it loads NumPy.  `apply` and `norm` parse --f with
the radial module first: for a radial input (const1 or fuv:u,v) every
answer is formed there, on Python floats, so `apply`, and `norm` in both
modes, import neither NumPy nor the operators; nor do `probe --kind
finiteness`, a ladder on floats, and `probe --kind ratio`, whose norms are
radial too.  Every other command imports its numerics when it runs.  A
sweep checks each grid value once, plans the classifier's inequalities once
per (alpha, beta, p, q) of its grid, with those fields of the CSV row, and
then decides every (b, c) row from the plans, with no parameter or verdict
object per row.
"""

import argparse
import itertools
import json
import math
import numbers
import re
import sys

from .classifier import ExtExponent, OperatorParams, Target, _check_q, _decide, _plan, classify
from .errors import (ConvergenceError, KernelDivergenceError, TruncationLimitError, _check_finite,
                     _check_int, _linspace)

__all__ = ["main"]

CSV_HEADER = "b,c,alpha,beta,p,q,target,dim,bounded,part,binding_slack"


def _jfloat(x):
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return "%.17g" % x


def _emit(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad}  {json.dumps(str(k))}: {_emit(v, indent + 1)}'
                for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        rows = [f"{pad}  {_emit(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, numbers.Integral):
        return str(int(obj))
    if isinstance(obj, numbers.Real):
        return _jfloat(float(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _print_json(obj):
    sys.stdout.write(_emit(obj) + "\n")


def _parse_point(text):
    """The coordinates of a comma-separated point as a list of finite floats."""
    try:
        vals = [float(s) for s in str(text).split(",") if s.strip() != ""]
    except ValueError:
        raise ValueError(f"cannot parse point {text!r}") from None
    for v in vals:
        _check_finite(f"the coordinates of point {text!r}", v)
    if len(vals) < 2:
        raise ValueError(f"points need at least 2 coordinates, got {text!r}")
    return vals


def _parse_values(spec, allow_inf=False):
    """The values of a comma list of numbers and start:stop:count ranges
    (np.linspace's values, by errors._linspace); ValueError naming the
    range where its count is not an integer >= 1, or where its ends are
    finite and stop - start is not."""
    vals = []
    for item in str(spec).split(","):
        item = item.strip()
        if not item:
            continue
        if ":" in item:
            parts = item.split(":")
            if len(parts) != 3:
                raise ValueError(f"range spec must be start:stop:count, got {item!r}")
            try:
                start, stop, count = (float(v) for v in parts)
            except ValueError:
                raise ValueError(f"range {item!r} must be three numbers start:stop:count") from None
            count = _check_int(f"the count of range {item!r}", count, 1)
            if math.isfinite(start) and math.isfinite(stop) and not math.isfinite(stop - start):
                raise ValueError(f"range {item!r} spans past the double range: "
                                 f"stop - start is {stop - start}")
            vals.extend(_linspace(start, stop, count))
        elif allow_inf and item.lower() in ("inf", "infinity", "oo"):
            vals.append(math.inf)
        else:
            vals.append(float(item))
    if not vals:
        raise ValueError(f"empty value spec {spec!r}")
    return vals


def _given(value, default):
    """value, or default where the flag was not given (None)."""
    return default if value is None else value


def _build_params(args):
    """OperatorParams from the flags: --b, --c and --beta default to 0, --p
    and --q to 2."""
    return OperatorParams(b=_given(args.b, 0.0), c=_given(args.c, 0.0), alpha=args.alpha,
                          beta=_given(args.beta, 0.0), p=ExtExponent.parse(_given(args.p, "2")),
                          q=ExtExponent.parse(_given(args.q, "2")), dim=args.dim)


def _refuse_unread(args, mode, names, reason):
    """ValueError naming the first of the flags names (attribute names) that
    was given: mode reads none of them.  They default to None, so one given
    at the value another mode defaults it to is refused too."""
    for name in names:
        if getattr(args, name) is not None:
            raise ValueError(f"{mode} takes no --{name.replace('_', '-')} ({reason})")


_RULE_FLAGS = ("radial_nodes", "sphere_nodes")


def _build_rule(args, dim):
    """The norm's quadrature rule: --radial-nodes and --sphere-nodes default
    to 48."""
    from .quadrature import BallQuadrature

    return BallQuadrature(dim, radial_nodes=_given(args.radial_nodes, 48),
                          sphere_nodes=_given(args.sphere_nodes, 48))


def _add_param_flags(sp):
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--beta", type=float)
    sp.add_argument("--p")
    sp.add_argument("--q")
    sp.add_argument("--dim", type=int, default=2)


def _cmd_classify(args):
    params = _build_params(args)
    target = Target.parse(args.target)
    verdict = classify(params, target)
    out = {"command": "classify", "params": params.to_dict(),
           "target": target.value}
    out.update(verdict.to_dict())
    _print_json(out)
    return 0


def _cmd_kernel(args):
    from .kernel import KernelSpec, has_closed_form, kernel_eval_degree

    x = _parse_point(args.x)
    y = _parse_point(args.y)
    spec = KernelSpec(args.alpha, len(x), args.tol)
    value, degree = kernel_eval_degree(spec, x, y)
    # at degree 0 the value is the series' first term, 1, for every order
    method = "closed-form" if degree > 0 and has_closed_form(spec) else "series"
    _print_json({"command": "kernel", "alpha": spec.alpha, "dim": spec.dim,
                 "tol": spec.tol, "x": x, "y": y,
                 "value": value, "truncation_degree": degree, "method": method})
    return 0


def _cmd_apply(args):
    from .radial import _parse_radial, _radial_report

    x = _parse_point(args.x)
    # every --f the command accepts has an exact image, so no rule is used
    tf = _parse_radial(args.f)
    if tf is None:
        from .operators import apply_T_report

        report = apply_T_report(args.b, args.c, args.f, x)
    else:
        report = _radial_report(args.b, args.c, tf, x)
    out = {"command": "apply", "b": args.b, "c": args.c, "f": args.f, "x": x,
           "rule": None}
    out.update(report.to_dict())
    _print_json(out)
    return 0


def _cmd_norm(args):
    from .radial import (TestFunction, _besov_exponent, _parse_radial, _radial_norm,
                         lp_membership_analytic, normalization_V, test_function_lp_norm)

    if (args.b is None) != (args.c is None):
        raise ValueError("--b and --c must be given together (transform-image mode)")
    f = _parse_radial(args.f)
    if f is None:
        from .operators import _parse_text

        f = _parse_text(args.f)
    else:
        _refuse_unread(args, "a radial input", _RULE_FLAGS, "its norms read no quadrature rule")
    dim = args.dim if args.dim is not None else getattr(f, "dim", 2)
    if args.b is not None:
        _refuse_unread(args, "transform-image mode", ("p", "alpha"),
                       "--p and --alpha set the source space")
        beta = _given(args.beta, 0.0)
        rule = None if isinstance(f, TestFunction) else _build_rule(args, dim)
        target = args.target or ("besov" if args.q is not None else "bloch")
        if target == "besov":
            if args.q is None:
                raise ValueError("besov norm needs --q")
            q = _besov_exponent(args.q)
        elif target == "bloch":
            if args.q is not None:
                raise ValueError("bloch norm takes no --q (its exponent is inf)")
            q = math.inf
        else:
            raise ValueError(f"norm target must be besov or bloch, got {target!r}")
        if rule is None:
            result = _radial_norm(args.b, args.c, f, q, beta, dim)
        else:
            from .operators import _image_norm

            result, rule = _image_norm((args.b, args.c, f), q, beta, rule, dim, None)
            if rule is None:
                _refuse_unread(args, "this image norm", _RULE_FLAGS,
                               "its image is exact: divergent, constant or summed at q = 2")
        out = {"command": "norm", "mode": "transform-image", "target": target,
               "b": args.b, "c": args.c, "f": args.f, "beta": beta,
               "dim": dim, "rule": None if rule is None else rule.describe()}
        if args.q is not None:
            out["q"] = float(args.q)
        out.update(result.to_dict())
        _print_json(out)
        return 0
    _refuse_unread(args, "source-space mode", ("q", "target", "beta"),
                   "give --b/--c for an image norm")
    if args.p is None:
        raise ValueError("source-space mode needs --p (or give --b/--c)")
    p = ExtExponent.parse(args.p)
    p_raw = math.inf if p.is_inf else p.raw
    alpha = _check_finite("alpha", _given(args.alpha, 0.0))
    rule_echo = None
    if isinstance(f, TestFunction):
        value = test_function_lp_norm(f, p_raw, alpha, dim)
        method = "closed-form" if p.is_inf else "radial-adaptive"
        # the sup may be finite past the largest double, so ask the dichotomy
        finite = lp_membership_analytic(f, p_raw, alpha)
    else:
        from .operators import as_ball_function

        fvec, _ = as_ball_function(f, dim)
        if p_raw == 2.0:
            from .expansion import square_integral

            _refuse_unread(args, "the p = 2 norm of an expansion", _RULE_FLAGS,
                           "it is a sum over degrees, read by no quadrature rule")
            # the degrees are orthogonal, so the square integral is a finite sum
            value = math.sqrt(square_integral(f, alpha) / normalization_V(alpha, dim))
            method = "spectral"
        else:
            from .quadrature import lp_norm

            rule = _build_rule(args, dim)
            value = lp_norm(fvec, p_raw, alpha, rule)
            method = "quadrature"
            rule_echo = rule.describe()
        finite = math.isfinite(value)
    _print_json({"command": "norm", "mode": "source-space", "f": args.f,
                 "p": math.inf if p.is_inf else p.raw, "alpha": alpha,
                 "dim": dim, "method": method, "rule": rule_echo,
                 "value": value, "finite": bool(finite)})
    return 0


def _cmd_probe(args):
    from .probe import finiteness_probe, kernel_floor_probe, ratio_probe

    if args.kind == "floor":
        _refuse_unread(args, "probe --kind floor", ("b", "c", "beta", "p", "q", "target"),
                       "it reads only --alpha and --dim")
        eps = kernel_floor_probe(args.alpha, args.dim)
        _print_json({"command": "probe", "kind": "floor", "alpha": args.alpha,
                     "dim": args.dim, "epsilon": eps})
        return 0
    params = _build_params(args)
    target = args.target
    if args.kind == "finiteness":
        report = finiteness_probe(params, target=target)
    else:
        report = ratio_probe(params, target=target)
    out = {"command": "probe", "kind": args.kind}
    out.update(report.to_dict())
    _print_json(out)
    return 0


def _cmd_sweep(args):
    target = Target.parse(args.target)
    values = [_parse_values(spec) for spec in (args.b, args.c, args.alpha, args.beta)]
    exps = [[ExtExponent.parse(v) for v in _parse_values(spec, allow_inf=True)]
            for spec in (args.p, args.q)]
    # a tuple passes OperatorParams and classify's q check iff each of its
    # values does, so each grid value is checked once, in their order
    for name, vals in zip(("b", "c", "alpha", "beta"), values):
        for v in vals:
            _check_finite(name, v)
    dim = _check_int("dim", args.dim, 2)
    for q in exps[1]:
        _check_q(target, q)
    # each grid value as (value, its CSV field), formatted once
    grids = [[(v, "%.17g" % v) for v in vals] for vals in values]
    grids += [[(e, str(e)) for e in axis] for axis in exps]
    # one plan per (alpha, beta, p, q), in the rows' order, with the CSV
    # fields between c and the slack for either verdict
    plans = []
    for (al, als), (be, bes), (p, ps), (q, qs) in itertools.product(*grids[2:]):
        plan = _plan(target, dim, al, be, p, q)
        mid = f"{als},{bes},{ps},{qs},{target.value},{dim},"
        plans.append((plan, (f"{mid}false,{plan[0]},", f"{mid}true,{plan[0]},")))
    lines = [CSV_HEADER]
    for (b, bs), (c, cs) in itertools.product(*grids[:2]):
        lead = f"{bs},{cs},"
        for plan, fields in plans:
            bounded, slack, _ = _decide(plan, b, c)
            lines.append(lead + fields[bounded] + "%.17g" % slack)
    text = "\n".join(lines) + "\n"
    if args.out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return 0


# argparse reads the token after a flag as its value only where the token
# does not look like a flag, and of those that start with '-' it takes only
# '-2' and '-.5' for numbers.  Every negative value the commands read starts
# with '-' and a digit, '-.' and a digit, or '-inf': numbers with exponents,
# the inf spellings, start:stop:count ranges and comma lists.  No flag starts
# that way, so an unknown flag still fails.
_NEGATIVE_VALUE = re.compile(r"-\.?\d|-inf", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and its subparsers, that read every token
    _NEGATIVE_VALUE matches as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE


def _build_parser():
    parser = _Parser(
        prog="bergbesov",
        description="Weighted harmonic kernel toolkit: classify operator "
                    "boundedness, evaluate kernels and transforms, compute "
                    "norms, and run numerical probes.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="exact boundedness verdict as JSON")
    _add_param_flags(sp)
    sp.add_argument("--target", required=True,
                    help="besov | bloch | hinf | lebesgue | wlinf")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("kernel", help="evaluate the order-alpha kernel at (x, y)")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--x", required=True, help="comma-separated coordinates")
    sp.add_argument("--y", required=True)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.set_defaults(func=_cmd_kernel)

    sp = sub.add_parser("apply", help="transform value at x with divergence report")
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--f", required=True,
                    help="const1 | fuv:u,v | expansion JSON text")
    sp.add_argument("--x", required=True)
    sp.set_defaults(func=_cmd_apply)

    sp = sub.add_parser("norm", help="source-space norm of f, or a smoothness "
                                     "norm of the transform image (b,c,f)")
    sp.add_argument("--f", required=True)
    sp.add_argument("--p", default=None, help="source-space exponent (or inf)")
    sp.add_argument("--alpha", type=float, help="source-space weight, default 0")
    sp.add_argument("--b", type=float)
    sp.add_argument("--c", type=float)
    sp.add_argument("--q", type=float)
    sp.add_argument("--beta", type=float, help="image weight, default 0")
    sp.add_argument("--target", default=None, help="besov | bloch (image mode)")
    sp.add_argument("--dim", type=int, default=None,
                    help="default: the dim of expansion JSON, else 2")
    # unset unless given: radial inputs and the p = 2 norm of an expansion
    # read no rule, and _build_rule supplies the default 48
    sp.add_argument("--radial-nodes", type=int)
    sp.add_argument("--sphere-nodes", type=int)
    sp.set_defaults(func=_cmd_norm)

    sp = sub.add_parser("probe", help="finiteness / ratio / kernel-floor probes")
    sp.add_argument("--kind", choices=("finiteness", "ratio", "floor"),
                    default="finiteness")
    # --b, --c, --beta, --p and --q are unset unless given: floor reads none
    # of them, and _build_params supplies the defaults
    sp.add_argument("--b", type=float)
    sp.add_argument("--c", type=float)
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--beta", type=float)
    sp.add_argument("--p")
    sp.add_argument("--q")
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--target", default=None)
    sp.set_defaults(func=_cmd_probe)

    sp = sub.add_parser("sweep", help="classify a parameter grid to CSV")
    sp.add_argument("--b", default="0")
    sp.add_argument("--c", default="0")
    sp.add_argument("--alpha", default="0")
    sp.add_argument("--beta", default="0")
    sp.add_argument("--p", default="2")
    sp.add_argument("--q", default="2")
    sp.add_argument("--target", required=True)
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--out", default="-", help="output path, - for stdout")
    sp.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, ConvergenceError, KernelDivergenceError,
            TruncationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
