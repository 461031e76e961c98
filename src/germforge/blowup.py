"""Blow-up geometry over the singular point of a normal-form germ.

The germ (u, v) -> (u, v^2/2 + ..., a_20 u^2/2 + ...) is composed with the
resolving map

    (r, theta) -> (r cos(theta), r^(n+1) cos(theta)^n sin(theta)),

n chosen per class (S_k -> k, B_k -> 1, C_k -> k-1, F_4 -> 2).  Along the
exceptional set r = 0 the unit normal, the fundamental forms, the Gaussian
curvature (times r^(2n+2)) and the bounded principal curvature all admit
r-series whose coefficients are trigonometric polynomials in theta.  This
module computes those series numerically through a generic pullback/series
pipeline, column-wise over a whole theta grid at once (one theta is the
one-element grid), and classifies ridge and sub-parabolic directions via the
trigonometric invariants delta_1/2/3.  closed_forms.py checks the
pipeline against independently stated closed-form expressions for the
depth-1/2 coefficients it covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import (
    InternalConsistencyError,
    PrincipalNormalDirectionError,
    UsageError,
)
from .jets import FLOAT, Jet2, is_zero
from .mond import MondTag
from .normal_form import NormalFormCoeffs

DEPTH = 2
COS_TOL = 1e-7


# ---------------------------------------------------------------------------
# truncated r-series over a theta grid: DEPTH + 1 columns, each a list of
# floats over the grid.  Every helper keeps the one-theta loop order per
# element, so a coefficient has the same bits on any grid.
# ---------------------------------------------------------------------------


def s_add(a, b):
    return [[x + y for x, y in zip(ca, cb)] for ca, cb in zip(a, b)]


def s_sub(a, b):
    return [[x - y for x, y in zip(ca, cb)] for ca, cb in zip(a, b)]


def s_mul(a, b):
    depth = len(a) - 1
    out = [[0.0] * len(a[0]) for _ in range(depth + 1)]
    for i, xs in enumerate(a):
        for j in range(depth + 1 - i):
            out[i + j] = [acc if x == 0.0 else acc + x * y
                          for acc, x, y in zip(out[i + j], xs, b[j])]
    return out


def s_recip(a):
    lead = a[0]
    if 0.0 in lead:
        raise InternalConsistencyError("series reciprocal of a vanishing leading term")
    out = [[1.0 / x for x in lead]]
    for k in range(1, len(a)):
        acc = [0.0] * len(lead)
        for i in range(1, k + 1):
            acc = [t + x * y for t, x, y in zip(acc, a[i], out[k - i])]
        out.append([-t / x for t, x in zip(acc, lead)])
    return out


def s_sqrt(a):
    if any(x <= 0.0 for x in a[0]):
        raise InternalConsistencyError("series sqrt needs a positive leading term")
    root = [math.sqrt(x) for x in a[0]]
    out = [root]
    for k in range(1, len(a)):
        acc = a[k]
        for i in range(1, k):
            acc = [t - x * y for t, x, y in zip(acc, out[i], out[k - i])]
        out.append([t / (2.0 * r) for t, r in zip(acc, root)])
    return out


def s_shift_index(a, shift):
    """Multiply by r^shift (shift >= 0) within the same depth window."""
    zero = [0.0] * len(a[0])
    return [a[k - shift] if k >= shift else zero for k in range(len(a))]


class TrigPowers(dict):
    """Columns cos(theta)^e and sin(theta)^e over a theta list, keyed (0, e)
    and (1, e), each made on first use: the pullbacks of one grid share them."""

    def __init__(self, thetas):
        self.thetas = list(thetas)
        super().__init__({(0, 1): [math.cos(t) for t in self.thetas],
                          (1, 1): [math.sin(t) for t in self.thetas]})

    def __missing__(self, key):
        col = self[key] = [x ** key[1] for x in self[key[0], 1]]
        return col


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------

_BLOWUP_EXPONENT = {
    MondTag.S: lambda k: k,
    MondTag.B: lambda k: 1,
    MondTag.C: lambda k: k - 1,
    MondTag.F4: lambda k: 2,
}


@dataclass
class BlowupContext:
    """Normal-form data prepared for blow-up computations with exponent n."""

    nf: NormalFormCoeffs
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise UsageError("blow-up exponent n must be >= 1")
        nf = self.nf = self.nf.to_float()
        if nf.order < self.n + 4:
            raise UsageError(
                "normal form order %d too small for blow-up depth-2 series "
                "with n = %d (needs %d)" % (nf.order, self.n, self.n + 4)
            )
        for i in range(2, self.n + 1):
            if not nf.is_zero_a(i, 1):
                raise InternalConsistencyError(
                    "a_%d1 must vanish for blow-up exponent n = %d" % (i, self.n)
                )
        if nf.is_zero_a(self.n + 1, 1):
            raise InternalConsistencyError(
                "a_%d1 must be nonzero for blow-up exponent n = %d"
                % (self.n + 1, self.n)
            )
        jet_order = max(2 * self.n + 4, nf.order)
        germ = nf.reconstruct(nf.order)
        x = germ.x.with_order(jet_order)
        y = germ.y.with_order(jet_order)
        z = germ.z.with_order(jet_order)
        gu = [c.partial("u").with_order(jet_order) for c in (x, y, z)]
        gv = [c.partial("v").with_order(jet_order) for c in (x, y, z)]
        self._cross = [
            gu[1] * gv[2] - gu[2] * gv[1],
            gu[2] * gv[0] - gu[0] * gv[2],
            gu[0] * gv[1] - gu[1] * gv[0],
        ]
        self._second = {
            "uu": [c.partial("u").partial("u").with_order(jet_order) for c in (x, y, z)],
            "uv": [c.partial("u").partial("v").with_order(jet_order) for c in (x, y, z)],
            "vv": [c.partial("v").partial("v").with_order(jet_order) for c in (x, y, z)],
        }
        e_jet = sum((a * b for a, b in zip(gu, gu)), Jet2.zero(jet_order, FLOAT))
        f_jet = sum((a * b for a, b in zip(gu, gv)), Jet2.zero(jet_order, FLOAT))
        g_jet = sum((a * b for a, b in zip(gv, gv)), Jet2.zero(jet_order, FLOAT))
        self._efg = (e_jet, f_jet, g_jet)
        # theta-independent pieces of the closed forms below, each product
        # in the operand order of its formula
        a = self.a_lead = nf.a_(self.n + 1, 1)  # the class-defining a_{n+1,1}
        m = self.fact = float(math.factorial(self.n + 1))
        self.epsilon = 1 if self.n == 1 else 0
        a20, b2, a21 = nf.a_(2, 0), nf.b_(2), nf.a_(2, 1)
        ab2, ma20, q = a * b2, m * a20, 3.0 * (a20**2 + b2**2)
        self._ma_sq = (a**2, m**2)
        d1 = self._delta1 = (a * nf.b_(3), m * nf.a_(3, 0))
        d2 = self._delta2 = (a * nf.b_(4), m * nf.a_(4, 0), q, ab2, ma20, 12.0 * a21)
        d3 = self._delta3 = (a20 * a, m * b2)
        self._ridge_scales = (
            max(abs(d1[0]), abs(d1[1])),
            max(abs(d2[0]), abs(d2[1]), q * max(abs(ab2), abs(ma20)), 12.0 * abs(a21)),
            max(abs(d3[0]), abs(d3[1])))
        self._k10 = (-a * b2, ma20)
        self._k10_scale = max(abs(ab2), abs(ma20))
        self._k20 = -(m**2) * a

    def ma(self, theta):
        c, s = math.cos(theta), math.sin(theta)
        a2, m2 = self._ma_sq
        return math.sqrt(a2 * c * c + m2 * s * s)


def build_context(nf, mond):
    """Blow-up context with the exponent induced by the class."""
    rule = _BLOWUP_EXPONENT.get(mond.tag)
    if rule is None:
        raise UsageError(
            "blow-up geometry is defined for S_k, B_k, C_k, F_4 only (got %s)"
            % mond.label
        )
    return BlowupContext(nf, rule(mond.k))


# ---------------------------------------------------------------------------
# pullback pipeline
# ---------------------------------------------------------------------------


def pullback_series(ctx, jet, trig, depth=DEPTH, r_shift=0, cos_shift=0):
    """r-series columns of jet(u, v) composed with the resolving map over the
    theta grid of trig (a TrigPowers).

    With r_shift/cos_shift the common factor r^r_shift cos^cos_shift is
    divided out; the caller is responsible for its existence (guarded here).
    """
    n = ctx.n
    out = [[0.0] * len(trig.thetas) for _ in range(depth + 1)]
    for (i, j), coef in jet.coeffs.items():
        k = i + j * (n + 1) - r_shift
        if k > depth:
            continue
        ce = i + j * n - cos_shift
        if k < 0 or ce < 0:
            if not is_zero(coef, max(1.0, float(jet.max_abs()))):
                raise InternalConsistencyError(
                    "pullback factor r^%d cos^%d does not divide the u^%d v^%d term"
                    % (r_shift, cos_shift, i, j)
                )
            continue
        out[k] = [acc + coef * c * s for acc, c, s in zip(out[k], trig[0, ce], trig[1, j])]
    return out


def _vector_pullback(ctx, jets, trig, r_shift=0, cos_shift=0):
    return [pullback_series(ctx, j, trig, DEPTH, r_shift, cos_shift) for j in jets]


def _dot(a_vec, b_vec):
    acc = [[0.0] * len(a_vec[0][0])] * len(a_vec[0])
    for a, b in zip(a_vec, b_vec):
        acc = s_add(acc, s_mul(a, b))
    return acc


def _form_columns(ctx, trig):
    """E..N and the normal n1..n3 they were taken against, as columns."""
    n, (e_jet, f_jet, g_jet) = ctx.n, ctx._efg
    cols = {
        "E": pullback_series(ctx, e_jet, trig),
        "F": pullback_series(ctx, f_jet, trig, DEPTH, n + 2, 0),
        "G": pullback_series(ctx, g_jet, trig, DEPTH, 2 * n + 2, 0),
    }
    w = _vector_pullback(ctx, ctx._cross, trig, n + 1, n)
    inv = s_recip(s_sqrt(_dot(w, w)))
    nvec = [s_mul(comp, inv) for comp in w]
    cols.update(n1=nvec[0], n2=nvec[1], n3=nvec[2])
    cols["L"] = _dot(nvec, _vector_pullback(ctx, ctx._second["uu"], trig))
    cols["M"] = _dot(nvec, _vector_pullback(ctx, ctx._second["uv"], trig, n, 0))
    cols["N"] = _dot(nvec, _vector_pullback(ctx, ctx._second["vv"], trig))
    return cols


def _curvature_columns(ctx, thetas, fs):
    """K, k1 and k2 columns from the form columns fs (keys E..N)."""
    for theta in thetas:
        if abs(math.cos(theta)) <= COS_TOL:
            raise PrincipalNormalDirectionError(
                "theta = %g is on the principal normal direction" % theta
            )
    # numerator LN - M^2 (the M^2 block re-enters at r^(2n))
    cnum = s_sub(s_mul(fs["L"], fs["N"]), s_shift_index(s_mul(fs["M"], fs["M"]), 2 * ctx.n))
    # denominator (EG - F^2) / r^(2n+2); the F^2 block re-enters at r^2
    den = s_sub(s_mul(fs["E"], fs["G"]), s_shift_index(s_mul(fs["F"], fs["F"]), 2))
    # mean-curvature numerator EN + GL - 2FM enters at r^0 through EN only
    bser = s_mul(fs["E"], fs["N"])
    inv_den = s_recip(den)
    return {"K": s_mul(cnum, inv_den), "k1": s_mul(cnum, s_recip(bser)),
            "k2": s_mul(bser, inv_den)}


def series_columns(ctx, thetas):
    """The whole pipeline run once over a theta list: a dict of the series
    columns n1..n3, E..N, K, k1 and k2.  Needs |cos theta| > COS_TOL."""
    cols = _form_columns(ctx, TrigPowers(thetas))
    cols.update(_curvature_columns(ctx, thetas, cols))
    return cols


def _at(cols, *keys):
    """The one-theta series of single-element columns, for each key."""
    return [[col[0] for col in cols[key]] for key in keys]


@dataclass
class NormalSeries:
    """Extended unit normal: components as r-series [r^0, r^1, r^2]."""

    theta: float
    n1: list
    n2: list
    n3: list


def extended_normal(ctx, theta):
    """Unit normal continued across the exceptional set, as r-series."""
    return fundamental_forms(ctx, theta).normal


@dataclass
class FormSeries:
    """Fundamental-form coefficient series after factoring the r-powers.

    E ~ 1 + E2 r^2;  F ~ r^(n+2)(F0 + F1 r);  G ~ r^(2n+2)(G0 + G1 r + G2 r^2)
    L ~ L0 + L1 r + L2 r^2;  M ~ r^n (M0 + ...);  N ~ N0 + N1 r + N2 r^2.
    """

    theta: float
    E: list
    F: list
    G: list
    L: list
    M: list
    N: list
    normal: NormalSeries  # the extended normal L, M, N were taken against


def fundamental_forms(ctx, theta):
    """Pulled-back first/second fundamental form coefficient series."""
    cols = _form_columns(ctx, TrigPowers([theta]))
    normal = NormalSeries(theta, *_at(cols, "n1", "n2", "n3"))
    return FormSeries(theta, *_at(cols, *"EFGLMN"), normal)


@dataclass
class CurvatureSeries:
    """Series data of r^(2n+2) K, the bounded and the unbounded curvature."""

    theta: float
    K: list       # [K0, K1, K2]
    k1: list      # [k10, k11, k12], the bounded principal curvature
    k2: list      # [k20, k21, k22], coefficient series of r^(2n+2) kappa_2


def curvature_series(ctx, theta, forms=None):
    """Curvature series at theta; needs |cos theta| > COS_TOL."""
    fs = forms or fundamental_forms(ctx, theta)
    cols = {key: [[x] for x in getattr(fs, key)] for key in "EFGLMN"}
    return CurvatureSeries(theta, *_at(_curvature_columns(ctx, [theta], cols), "K", "k1", "k2"))


# ---------------------------------------------------------------------------
# closed forms for the leading coefficients (small, typo-safe set)
# ---------------------------------------------------------------------------


def k10_closed(ctx, theta):
    c, s = math.cos(theta), math.sin(theta)
    cos_part, sin_part = ctx._k10
    return (cos_part * c + sin_part * s) / ctx.ma(theta)


def k10_scale(ctx, theta):
    """Magnitude of the two terms of k10_closed, for zero tests on k10."""
    return ctx._k10_scale / ctx.ma(theta)


def k20_closed(ctx, theta):
    c = math.cos(theta)
    if abs(c) <= COS_TOL:
        raise PrincipalNormalDirectionError("k20 diverges at the principal normal")
    return ctx._k20 / (ctx.ma(theta) ** 3 * c ** (2 * ctx.n - 1))


def K0_closed(ctx, theta):
    return k10_closed(ctx, theta) * k20_closed(ctx, theta)


def normal_r0_closed(ctx, theta):
    c, s = math.cos(theta), math.sin(theta)
    ma = ctx.ma(theta)
    return (0.0, -ctx.a_lead * c / ma, ctx.fact * s / ma)


# ---------------------------------------------------------------------------
# ridge / sub-parabolic invariants
# ---------------------------------------------------------------------------


class PointType(Enum):
    ELLIPTIC = "elliptic"
    HYPERBOLIC = "hyperbolic"
    PARABOLIC = "parabolic"


@dataclass
class RidgeReport:
    theta: float
    delta1: float
    delta2: float
    delta3: float
    is_ridge: bool
    is_first_order_ridge: bool
    is_subparabolic: bool
    point_type: Optional[PointType]  # None on the principal normal direction

    @property
    def flags(self):
        """The direction flags the front and distance predictions read."""
        return {
            "is_ridge": self.is_ridge,
            "is_first_order_ridge": self.is_first_order_ridge,
            "is_subparabolic": self.is_subparabolic,
        }


def delta1(ctx, theta):
    c, s = math.cos(theta), math.sin(theta)
    ab3, ma30 = ctx._delta1
    return ab3 * c - ma30 * s


def delta2(ctx, theta):
    c, s = math.cos(theta), math.sin(theta)
    ab4, ma40, q, ab2, ma20, a21_12 = ctx._delta2
    term1 = -(ab4 * c - ma40 * s) * c
    term2 = q * (ab2 * c - ma20 * s) * c
    # nonzero only in the n = 1 branch, where a_21 is the leading coefficient
    term3 = a21_12 * s * s
    return term1 + term2 + term3


def delta3(ctx, theta):
    c, s = math.cos(theta), math.sin(theta)
    a20a, mb2 = ctx._delta3
    return a20a * c + mb2 * s


def ridge_report(ctx, theta):
    d1, d2, d3 = delta1(ctx, theta), delta2(ctx, theta), delta3(ctx, theta)
    s1, s2, s3 = ctx._ridge_scales
    is_ridge = is_zero(d1, max(1.0, s1))
    first_order = is_ridge and not is_zero(d2, max(1.0, s2))
    subpar = is_zero(d3, max(1.0, s3))
    if abs(math.cos(theta)) <= COS_TOL:
        ptype = None
    else:
        k0 = K0_closed(ctx, theta)
        k0_scale = abs(k20_closed(ctx, theta)) * k10_scale(ctx, theta)
        if is_zero(k0, max(1.0, k0_scale)):
            ptype = PointType.PARABOLIC
        else:
            ptype = PointType.ELLIPTIC if k0 > 0 else PointType.HYPERBOLIC
    return RidgeReport(theta, d1, d2, d3, is_ridge, first_order, subpar, ptype)


def theta_grid(samples=64):
    """Uniform samples of (-pi/2, pi/2]; the right endpoint is included."""
    if samples < 8:
        raise UsageError("theta grid needs at least 8 samples")
    step = math.pi / samples
    return [-math.pi / 2 + step * i for i in range(1, samples + 1)]


def geometry_samples(ctx, thetas):
    """Per-theta geometry records for the report (cos-divided values off pi/2);
    the series pipeline runs once for all thetas off the principal normal."""
    records = []
    for theta in thetas:
        rr = ridge_report(ctx, theta)
        records.append({
            "theta": theta, "delta1": rr.delta1, "delta2": rr.delta2, "delta3": rr.delta3,
            "point_type": rr.point_type.value if rr.point_type else None, "flags": rr.flags,
            "K0": None, "k10": k10_closed(ctx, theta), "k20": None,
        })
    off = [rec for rec in records if rec["point_type"] is not None]
    cols = series_columns(ctx, [rec["theta"] for rec in off])
    for rec, k0, k20 in zip(off, cols["K"][0], cols["k2"][0]):
        rec["K0"], rec["k20"] = k0, k20
    return records
