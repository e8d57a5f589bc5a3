"""Numerical probes that cross-check classifier verdicts against observed
transform behavior.

Probes never override a verdict: the inequality systems are ground truth,
and the probes test whether the numerics (and hence the implementation of
the transform, quadrature, and norms) behave as those systems predict.

The probes use the radial family f_{u,v}, whose images under T_{b,c} are
constants (see the operators module), finite exactly when b+u > -1 or
(b+u = -1 and v > 1).  Two facts shape the probe designs:

* finiteness_probe picks the family member matched to the source regime so
  this dichotomy aligns with the strict first inequality of the verdict.

* A constant image does not depend on c, so radial families can only
  witness failures of the first inequality (or a weight obstruction): a
  verdict that is unbounded purely through the c-inequality still produces
  bounded ratios on every radial family.  ratio_probe, which reads its
  target norms from radial._radial_norm (the route operators.besov_norm and
  bloch_norm take for a radial input), therefore predicts growth only for
  first-inequality failures and weight obstructions, and tags the c-only
  cases as c-blind instead of reporting disagreement.

Startup: this module imports only the classifier and the radial module, so
finiteness_probe, whose evidence is a 1-D ladder, and ratio_probe, whose
norms are 1-D integrals and constants, run on Python floats without NumPy
or the operators.  kernel_floor_probe imports the kernel when it runs and
forms its rows as lists of floats: at an order with a closed form it
evaluates them through kernel._closed_form_rows, the closed-form branch of
kernel_eval_batch, without NumPy, and only at a series order does the
batch load NumPy.
"""

import math
from dataclasses import dataclass, replace

from .classifier import OperatorParams, Target, classify
from .errors import _linspace
from .radial import (
    TestFunction,
    _radial_norm,
    lp_membership_analytic,
    radial_power_log_ladder,
    test_function_lp_norm,
    transform_finite_analytic,
)

__all__ = [
    "ProbeEvidence",
    "ProbeReport",
    "finiteness_probe",
    "ratio_probe",
    "kernel_floor_probe",
    "default_ratio_family",
    "boundary_suite",
    "GROWTH_THRESHOLD",
    "PLATEAU_BAND",
    "BOUNDARY_BAND",
]

# Ratio growth beyond this factor across the family counts as divergence
# evidence; plateau spread within PLATEAU_BAND counts as stable.
GROWTH_THRESHOLD = 10.0
PLATEAU_BAND = 0.10
# Within this distance of the b+u = -1 dichotomy boundary the cutoff ladder
# cannot resolve finiteness, so agreement is not scored there.
BOUNDARY_BAND = 0.05

_DELTAS = (0.4, 0.2, 0.1, 0.05, 0.025, 0.0125)


@dataclass(frozen=True)
class ProbeEvidence:
    probe: str
    observed: str
    agree: bool
    detail: dict

    def to_dict(self):
        return {"probe": self.probe, "observed": self.observed,
                "agree": self.agree, "detail": self.detail}


@dataclass(frozen=True)
class ProbeReport:
    params: OperatorParams
    verdict: object
    evidence: tuple
    refinement_ladder: tuple

    @property
    def agree(self):
        return all(e.agree for e in self.evidence)

    def to_dict(self):
        return {
            "params": self.params.to_dict(),
            "verdict": self.verdict.to_dict(),
            "evidence": [e.to_dict() for e in self.evidence],
            "refinement_ladder": [list(r) for r in self.refinement_ladder],
        }


def _infer_target(params, target):
    if target is not None:
        return target if isinstance(target, Target) else Target.parse(target)
    return Target.BLOCH if params.q.is_inf else Target.BESOV


def _first_condition_strict(params):
    """The strict form of the source-side inequality shared by every part."""
    p, al, b = params.p, params.alpha, params.b
    if p.raw == 1.0:
        return al < b
    if p.is_inf:
        return al - 1.0 < b
    return al + 1.0 < p.raw * (b + 1.0)


def _regime_test_function(params):
    """The family member whose transform finiteness mirrors the strict first
    inequality: u = -(1+alpha)/p with v = 1 for 1 < p < inf, u just inside
    membership with v = 0 for p = 1, and u = -alpha with v = 0 for p = inf."""
    p, al = params.p, params.alpha
    if p.is_inf:
        return TestFunction(-al, 0.0)
    if p.raw == 1.0:
        return TestFunction(-(1.0 + al) + 1.0 / 16.0, 0.0)
    return TestFunction(-(1.0 + al) / p.raw, 1.0)


def finiteness_probe(params, target=None):
    """Observe transform finiteness for the regime-matched family member.

    Evidence agreement is the implication: an observed divergence must be
    accompanied by failure (or boundary contact) of the strict first
    inequality.  Within BOUNDARY_BAND of b+u = -1 the observation is tagged
    boundary-band and not scored.
    """
    target = _infer_target(params, target)
    verdict = classify(params, target)
    tf = _regime_test_function(params)
    bexp = params.b + tf.u
    ladder = radial_power_log_ladder(bexp, tf.v, dim=params.dim)
    strict = _first_condition_strict(params)
    exempt = abs(bexp + 1.0) < BOUNDARY_BAND
    if exempt:
        observed = "boundary-band"
        agree = True
    else:
        observed = "finite-plateau" if ladder.finite else "divergent-growth"
        agree = ladder.finite or not strict
    detail = {
        "u": tf.u, "v": tf.v, "b_plus_u": bexp,
        "analytic_finite": transform_finite_analytic(params.b, tf),
        "first_condition_strict": strict,
        "exempt": exempt,
    }
    evidence = ProbeEvidence("finiteness", observed, agree, detail)
    return ProbeReport(params, verdict, (evidence,), ladder.rungs)


def default_ratio_family(params, deltas=_DELTAS):
    """f_{u,1} with u stepping down toward the source-membership boundary."""
    if params.p.is_inf:
        base = -params.alpha
    else:
        base = -(1.0 + params.alpha) / params.p.raw
    return [TestFunction(base + d, 1.0) for d in deltas]


def _target_norm(tf, target, params):
    """Target-space norm of T tf, as besov_norm or bloch_norm gives it: the
    Besov norm, at t = 0 (the weighted L^q norm) for a Lebesgue target, and
    the Bloch norm, the size of the constant image, for the sup-type
    targets.  A Lebesgue target with beta <= -1 or a weighted-sup target
    with beta < 0 holds no nonzero harmonic function, so there every
    nonzero image has infinite norm."""
    b, c, be, n = params.b, params.c, params.beta, params.dim
    if target is Target.BESOV:
        return _radial_norm(b, c, tf, params.q.raw, be, n).value
    if target is Target.LEBESGUE and be > -1.0:
        return _radial_norm(b, c, tf, params.q.raw, be, n, t=0).value
    size = _radial_norm(b, c, tf, math.inf, be, n).value
    if target is Target.LEBESGUE or (target is Target.WLINF and be < 0.0):
        return math.inf if size > 0.0 else 0.0
    return size


def ratio_probe(params, family=None, target=None):
    """Track target-norm(T f) / source-norm(f) across a radial family.

    Growth beyond GROWTH_THRESHOLD (or an infinite ratio) is divergence
    evidence; otherwise the family plateaus.  Predicted growth: the verdict
    is unbounded through the strict first inequality or a target-weight
    obstruction.  Unbounded verdicts that fail only the c-inequality are
    tagged c_blind (radial families cannot witness them) and predicted to
    plateau.  Family members must lie in the source space; extending the
    family toward smaller offsets is the refinement knob.  An empty family
    yields empty evidence.
    """
    target = _infer_target(params, target)
    verdict = classify(params, target)
    if family is None:
        family = default_ratio_family(params)
    if not family:
        return ProbeReport(params, verdict, (), ())
    p_raw = math.inf if params.p.is_inf else params.p.raw
    for tf in family:
        if not lp_membership_analytic(tf, p_raw, params.alpha):
            raise ValueError(f"family member {tf} lies outside the source space")
    ratios = []
    for tf in family:
        src = test_function_lp_norm(tf, p_raw, params.alpha, params.dim)
        tnorm = _target_norm(tf, target, params)
        if math.isinf(tnorm):
            ratios.append(math.inf)
        elif not math.isfinite(src) or src <= 0.0:
            ratios.append(math.nan)
        else:
            ratios.append(tnorm / src)
    finite = [r for r in ratios if math.isfinite(r)]
    has_inf = any(math.isinf(r) for r in ratios)
    if has_inf:
        grew = True
    elif not finite or finite[0] <= 0.0:
        grew = False
    else:
        grew = max(finite) / finite[0] > GROWTH_THRESHOLD
    obstruction = len(verdict.inequalities) == 1
    predicted_growth = obstruction or not verdict.inequalities[0].ok
    c_blind = (not verdict.bounded) and not predicted_growth
    agree = grew == predicted_growth
    spread = (max(finite) / min(finite) - 1.0) if len(finite) >= 2 and min(finite) > 0.0 else 0.0
    detail = {
        "ratios": ratios,
        "family_u": [tf.u for tf in family],
        "growth_threshold": GROWTH_THRESHOLD,
        "plateau_spread": spread,
        "plateau_band": PLATEAU_BAND,
        "predicted_growth": predicted_growth,
        "c_blind": c_blind,
    }
    observed = "growth" if grew else "plateau"
    evidence = ProbeEvidence("norm-ratio", observed, agree, detail)
    ladder_pairs = tuple((tf.u, r) for tf, r in zip(family, ratios))
    return ProbeReport(params, verdict, (evidence,), ladder_pairs)


_FLOOR_RADII = (0.0, 0.5, 0.9, 0.99, 0.999)
_FLOOR_LEVELS = 20


def kernel_floor_probe(alpha, dim):
    """Largest dyadic eps with min kernel value >= 1/2 for |x| <= eps.

    Samples |x| in {eps, eps/2}, |y| across _FLOOR_RADII, and 41 relative
    angles; scans eps = 2^-1 down to 2^-_FLOOR_LEVELS and returns the first
    (largest) passing eps, or 0.0 if even the finest fails (which would
    flag a kernel evaluation bug, since the value at x = 0 is exactly 1).
    At each x the values are kernel_eval_batch's on the same rows.
    """
    from .kernel import KernelSpec, _closed_form_rows, _dot, has_closed_form, kernel_eval_batch

    spec = KernelSpec(float(alpha), dim)
    rows = [[ry * t, ry * math.sqrt(max(1.0 - t * t, 0.0))] + [0.0] * (dim - 2)
            for ry in _FLOOR_RADII for t in _linspace(-1.0, 1.0, 41)]
    closed = has_closed_form(spec)
    if closed:
        ry_sq = [_dot(y, y) for y in rows]
        ry_max = math.sqrt(max(ry_sq))
    for level in range(1, _FLOOR_LEVELS + 1):
        eps = 2.0 ** -level
        ok = True
        for rx in (eps, 0.5 * eps):
            x = [rx] + [0.0] * (dim - 1)
            if closed:
                low = min(_closed_form_rows(spec, x, rows, ry_sq, ry_max))
            else:
                low = kernel_eval_batch(spec, x, rows).min()
            if low < 0.5:
                ok = False
                break
        if ok:
            return eps
    return 0.0


# ---------------------------------------------------------------------------
# Curated boundary suite: six tuples per part, both sides of every boundary.


def _c_boundary(params, target):
    """The c-inequality threshold, read back from the classifier itself so
    boundary tuples sit on it bit-exactly."""
    return classify(params, target).inequalities[1].rhs


def _first_fail(params, margin):
    """Perturb the source-side parameters so the first inequality fails by
    `margin` while everything else stays in regime."""
    p = params.p
    if p.raw == 1.0:
        return replace(params, alpha=params.b + margin)
    if p.is_inf:
        return replace(params, b=params.alpha - 1.0 - margin)
    return replace(params, b=(params.alpha + 1.0 - margin) / p.raw - 1.0)


_BASE_CONFIGS = (
    # target,  p,    q,    alpha, beta, b,   dim
    (Target.BESOV, 2.0, 3.0, 0.3, 0.5, 1.0, 2),
    (Target.BESOV, 1.0, 2.0, -0.5, 0.0, 0.5, 2),
    (Target.BESOV, 3.0, 2.0, 0.0, 0.5, 0.6, 2),
    (Target.BESOV, math.inf, 2.0, 0.4, 0.3, 1.2, 2),
    (Target.BLOCH, 2.0, math.inf, 0.3, 0.7, 0.8, 2),
    (Target.BLOCH, 1.0, math.inf, -0.2, 0.5, 0.6, 3),
    (Target.BLOCH, math.inf, math.inf, 0.5, 0.4, 0.9, 2),
    (Target.HINF, 2.0, math.inf, 0.2, 0.0, 0.7, 2),
    (Target.HINF, 1.0, math.inf, -0.3, 0.0, 0.5, 2),
    (Target.HINF, math.inf, math.inf, 0.6, 0.0, 1.0, 3),
)


def boundary_suite():
    """Sixty (params, target) pairs: for each of the ten parts, a deep
    bounded tuple, the exact c-boundary, just past it (unbounded through the
    c-inequality only), two first-inequality failures with the c-inequality
    satisfied, and a second deep bounded tuple."""
    suite = []
    for target, p, q, al, be, b, dim in _BASE_CONFIGS:
        base = OperatorParams(b=b, c=0.0, alpha=al, beta=be, p=p, q=q, dim=dim)
        x = _c_boundary(base, target)
        suite.append((replace(base, c=x - 0.7), target))
        suite.append((replace(base, c=x), target))
        suite.append((replace(base, c=x + 0.1), target))
        fail1 = _first_fail(base, 0.25)
        suite.append((replace(fail1, c=_c_boundary(fail1, target) - 0.7), target))
        suite.append((replace(base, c=x - 1.2), target))
        fail2 = _first_fail(base, 0.6)
        suite.append((replace(fail2, c=_c_boundary(fail2, target) - 0.7), target))
    return suite
