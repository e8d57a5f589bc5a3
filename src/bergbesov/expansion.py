"""Finite zonal-harmonic expansions and the diagonal operators on them.

An expansion is a finite sum  f(x) = sum_i c_i Z_{k_i}(x, y_i)  with anchors
y_i in the closed unit ball.  Such sums are exactly harmonic, so they serve as
the concrete function representation on which the coefficient-diagonal
operators act: the parameterized family D (coefficient multipliers
gamma_k(s+t)/gamma_k(s)), its boundary-weighted variant I, and the weighted
kernel transform T_{b,c} (multipliers gamma_k(c) (n/2) B(n/2+k, b+1)).
Weighted square integrals over the ball are finite sums too, since the
degrees are orthogonal on every centered sphere.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import _accel
from .errors import _check_int
from .kernel import gamma_coefs
from .radial import normalization_V

__all__ = [
    "HarmonicExpansion",
    "evaluate",
    "evaluate_many",
    "apply_D",
    "apply_I",
    "transform",
    "square_integral",
    "to_json",
    "from_json",
]


@dataclass
class HarmonicExpansion:
    dim: int
    degrees: np.ndarray
    anchors: np.ndarray
    coefs: np.ndarray

    @classmethod
    def from_terms(cls, dim, terms):
        """Build from an iterable of (k, y, c) triples."""
        terms = list(terms)
        dim = _check_int("dim", dim, 2)
        degrees = np.array([_check_int("degree", k, 0) for k, _, _ in terms], dtype=np.int64)
        anchors = np.array([np.asarray(y, dtype=float) for _, y, _ in terms], dtype=float)
        coefs = np.array([float(c) for _, _, c in terms], dtype=float)
        if len(terms) == 0:
            anchors = np.zeros((0, dim))
        exp = cls(dim, degrees, anchors, coefs)
        exp._validate()
        return exp

    def _validate(self):
        if self.anchors.shape != (len(self.degrees), self.dim):
            raise ValueError("anchor shape mismatch")
        if not (np.all(np.isfinite(self.coefs)) and np.all(np.isfinite(self.anchors))):
            raise ValueError("coefficients and anchor coordinates must be finite")
        norms = np.linalg.norm(self.anchors, axis=1)
        if np.any(norms > 1.0 + 1e-12):
            raise ValueError("anchors must lie in the closed unit ball")

    def terms(self):
        for k, y, c in zip(self.degrees, self.anchors, self.coefs):
            yield int(k), y.copy(), float(c)

    def __len__(self):
        return len(self.degrees)


def evaluate(exp, x):
    """Evaluate the expansion at a single point x (the one-row evaluate_many)."""
    return float(evaluate_many(exp, np.asarray(x, dtype=float)[None, :])[0])


def evaluate_many(exp, pts):
    """Evaluate at each row of pts; returns an array of values.

    Terms are grouped by anchor y.  Each anchor costs one zonal_series pass
    over the cosines u between the points and y: the degree-k row of its
    zonal table times (|x||y|)^k is Z_k(x, y), and the anchor's terms sum
    those rows by Horner's rule in |x||y|.  Where |x||y| = 0 only the
    degree-0 terms survive.
    """
    pts = np.asarray(pts, dtype=float)
    out = np.zeros(pts.shape[0])
    if len(exp) == 0:
        return out
    rx = np.linalg.norm(pts, axis=1)
    anchors, group = np.unique(exp.anchors, axis=0, return_inverse=True)
    group = group.ravel()
    for a, y in enumerate(anchors):
        mine = group == a
        coef = np.zeros(int(exp.degrees[mine].max()) + 1)
        np.add.at(coef, exp.degrees[mine], exp.coefs[mine])
        prod = rx * float(np.linalg.norm(y))
        u = np.clip((pts @ y) / np.where(prod == 0.0, 1.0, prod), -1.0, 1.0)
        out += _accel.zonal_series(coef, prod, u, exp.dim)
    return out


def apply_D(s, t, exp):
    """Coefficient-diagonal operator: scales the degree-k coefficient by
    gamma_k(s+t)/gamma_k(s).

    t = 0 is the exact identity (the multiplier is computed as a ratio of two
    identical table entries, hence exactly 1.0).  The inverse is apply_D with
    parameters (s+t, -t).
    """
    if len(exp) == 0:
        return HarmonicExpansion.from_terms(exp.dim, [])
    kmax = int(exp.degrees.max())
    table_from = gamma_coefs(kmax, float(s), exp.dim)
    table_to = gamma_coefs(kmax, float(s) + float(t), exp.dim)
    mult = table_to[exp.degrees] / table_from[exp.degrees]
    return HarmonicExpansion(exp.dim, exp.degrees.copy(), exp.anchors.copy(), exp.coefs * mult)


def apply_I(s, t, exp, x):
    """Boundary-weighted variant: (1 - |x|^2)^t times apply_D(s, t, exp) at x."""
    x = np.asarray(x, dtype=float)
    r2 = float(np.dot(x, x))
    return (1.0 - r2) ** float(t) * evaluate(apply_D(s, t, exp), x)


def _radial_ratios(kmax, w, dim):
    """R_k(w) = prod_{j<k} (n/2+j)/(n/2+j+w+1) for k = 0..kmax, w > -1.

    (n/2) B(n/2+k, w+1) = V_w R_k(w) is int_B |x|^{2k} (1-|x|^2)^w dnu, so
    R_k(w) is the degree-k radial moment relative to the degree-0 one.  The
    product is a ratio recurrence like gamma_coefs: no difference of
    log-gamma values that could cancel.
    """
    n2 = 0.5 * dim
    ks = np.arange(kmax, dtype=float)
    out = np.empty(kmax + 1)
    out[0] = 1.0
    np.cumprod((n2 + ks) / (n2 + ks + (w + 1.0)), out=out[1:])
    return out


def transform(b, c, exp):
    """Image of exp under the weighted kernel transform T_{b,c}, as an
    expansion, or None where the transform diverges.

    T_{b,c} is diagonal on zonal harmonics (Axler, Bourdon & Ramey, Harmonic
    Function Theory, ch. 5): for b > -1 it maps Z_k(., a) to
    m_k Z_k(., a) with m_k = gamma_k(c) (n/2) B(n/2+k, b+1), formed as
    gamma_k(c) V_b R_k(b) (_radial_ratios), so the degree-k coefficient is
    scaled by m_k.  For b <= -1 the integral diverges on every nonzero term,
    so the image is None, or the zero expansion when every term is zero: a
    term is zero when its coefficient is 0, or when k >= 1 and its anchor is
    0 (Z_k(., 0) = 0 for k >= 1).  A multiplier that is not a finite double
    (c not finite, or gamma_k(c) past the double range) raises ValueError.
    """
    b, c = float(b), float(c)
    if b <= -1.0:
        nonzero = (exp.coefs != 0.0) & ((exp.degrees == 0) | np.any(exp.anchors != 0.0, axis=1))
        if np.any(nonzero):
            return None
        return HarmonicExpansion(exp.dim, exp.degrees.copy(), exp.anchors.copy(),
                                 np.zeros(len(exp)))
    if len(exp) == 0:
        return HarmonicExpansion.from_terms(exp.dim, [])
    kmax = int(exp.degrees.max())
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        mult = gamma_coefs(kmax, c, exp.dim) * (normalization_V(b, exp.dim)
                                                * _radial_ratios(kmax, b, exp.dim))
        coefs = exp.coefs * mult[exp.degrees]
    if not np.all(np.isfinite(coefs)):
        raise ValueError(f"a multiplier of T_(b={b}, c={c}) up to degree {kmax} "
                         "is not a finite double")
    return HarmonicExpansion(exp.dim, exp.degrees.copy(), exp.anchors.copy(), coefs)


def square_integral(exp, w):
    """int_B f^2 (1-|x|^2)^w dnu for w > -1, as a finite sum.

    Write F_k = sum_i c_i Z_k(., a_i) for the degree-k part.  Degrees are
    orthogonal on every centered sphere, and by the reproducing property of
    Z_k the sphere mean of F_k(r .)^2 is r^{2k} G_k with
    G_k = sum_{i,i'} c_i c_i' Z_k(a_i, a_i').  So the integral is
    V_w sum_k R_k(w) G_k (_radial_ratios); G_k is F_k at its own anchors,
    by evaluate_many, dotted with its coefficients.  A sum that rounds below
    0 returns 0.
    """
    w = float(w)
    if len(exp) == 0:
        return 0.0
    ratios = _radial_ratios(int(exp.degrees.max()), w, exp.dim)
    total = 0.0
    for k in np.unique(exp.degrees):
        mine = exp.degrees == k
        part = HarmonicExpansion(exp.dim, exp.degrees[mine], exp.anchors[mine], exp.coefs[mine])
        total += float(ratios[k]) * float(part.coefs @ evaluate_many(part, part.anchors))
    return normalization_V(w, exp.dim) * max(total, 0.0)


def to_json(exp):
    """Serialize as {"dim": n, "terms": [{"k": ..., "y": [...], "c": ...}]}."""
    obj = {
        "dim": exp.dim,
        "terms": [
            {"k": int(k), "y": [float(v) for v in y], "c": float(c)}
            for k, y, c in exp.terms()
        ],
    }
    return json.dumps(obj)


def _field(record, key):
    """record[key], or a ValueError that names the missing key."""
    if not isinstance(record, dict) or key not in record:
        raise ValueError(f"expansion JSON is missing {key!r} in {record!r}")
    return record[key]


def from_json(text):
    """Parse the to_json format, or a bare array of {k, y, c} records with the
    dimension inferred from the first anchor; validates degrees and anchor
    radii."""
    obj = json.loads(text)
    if isinstance(obj, list):
        if not obj:
            raise ValueError("bare-array expansion needs at least one term to fix dim")
        records, dim = obj, len(_field(obj[0], "y"))
    else:
        records, dim = _field(obj, "terms"), _field(obj, "dim")
    terms = [(_field(t, "k"), _field(t, "y"), _field(t, "c")) for t in records]
    return HarmonicExpansion.from_terms(dim, terms)
