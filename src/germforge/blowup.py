"""Blow-up geometry over the singular point of a normal-form germ.

The germ (u, v) -> (u, v^2/2 + ..., a_20 u^2/2 + ...) is composed with the
resolving map

    (r, theta) -> (r cos(theta), r^(n+1) cos(theta)^n sin(theta)),

n chosen per class (S_k -> k, B_k -> 1, C_k -> k-1, F_4 -> 2).  Along the
exceptional set r = 0 the unit normal, the fundamental forms, the Gaussian
curvature (times r^(2n+2)) and the bounded principal curvature all admit
r-series whose coefficients are trigonometric polynomials in theta.  This
module computes those series numerically per theta through a generic
pullback/series pipeline and classifies ridge and sub-parabolic directions
via the trigonometric invariants delta_1/2/3.  closed_forms.py checks the
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
# truncated r-series helpers (lists of floats, length DEPTH + 1)
# ---------------------------------------------------------------------------


def s_zero(depth=DEPTH):
    return [0.0] * (depth + 1)


def s_add(a, b):
    return [x + y for x, y in zip(a, b)]


def s_sub(a, b):
    return [x - y for x, y in zip(a, b)]


def s_mul(a, b):
    depth = len(a) - 1
    out = [0.0] * (depth + 1)
    for i, x in enumerate(a):
        if x == 0.0:
            continue
        for j in range(depth + 1 - i):
            out[i + j] += x * b[j]
    return out


def s_recip(a):
    if a[0] == 0.0:
        raise InternalConsistencyError("series reciprocal of a vanishing leading term")
    depth = len(a) - 1
    out = [0.0] * (depth + 1)
    out[0] = 1.0 / a[0]
    for k in range(1, depth + 1):
        acc = 0.0
        for i in range(1, k + 1):
            acc += a[i] * out[k - i]
        out[k] = -acc / a[0]
    return out


def s_div(a, b):
    return s_mul(a, s_recip(b))


def s_sqrt(a):
    if a[0] <= 0.0:
        raise InternalConsistencyError("series sqrt needs a positive leading term")
    depth = len(a) - 1
    out = [0.0] * (depth + 1)
    out[0] = math.sqrt(a[0])
    for k in range(1, depth + 1):
        acc = a[k]
        for i in range(1, k):
            acc -= out[i] * out[k - i]
        out[k] = acc / (2.0 * out[0])
    return out


def s_shift_index(a, shift):
    """Multiply by r^shift (shift >= 0) within the same depth window."""
    depth = len(a) - 1
    out = [0.0] * (depth + 1)
    for i, x in enumerate(a):
        if i + shift <= depth:
            out[i + shift] = x
    return out


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

    @property
    def epsilon(self):
        return 1 if self.n == 1 else 0

    @property
    def a_lead(self):
        """The class-defining coefficient a_{n+1,1}."""
        return self.nf.a_(self.n + 1, 1)

    @property
    def fact(self):
        return float(math.factorial(self.n + 1))

    def ma(self, theta):
        c, s = math.cos(theta), math.sin(theta)
        return math.sqrt(self.a_lead**2 * c * c + self.fact**2 * s * s)


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


def pullback_series(ctx, jet, theta, depth=DEPTH, r_shift=0, cos_shift=0):
    """r-series of jet(u, v) composed with the resolving map at fixed theta.

    With r_shift/cos_shift the common factor r^r_shift cos^cos_shift is
    divided out; the caller is responsible for its existence (guarded here).
    """
    n = ctx.n
    c, s = math.cos(theta), math.sin(theta)
    out = [0.0] * (depth + 1)
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
        out[k] += coef * c**ce * s**j
    return out


def _vector_pullback(ctx, jets, theta, r_shift=0, cos_shift=0):
    return [pullback_series(ctx, j, theta, DEPTH, r_shift, cos_shift) for j in jets]


def _dot(a_vec, b_vec):
    acc = s_zero(len(a_vec[0]) - 1)
    for a, b in zip(a_vec, b_vec):
        acc = s_add(acc, s_mul(a, b))
    return acc


@dataclass
class NormalSeries:
    """Extended unit normal: components as r-series [r^0, r^1, r^2]."""

    theta: float
    n1: list
    n2: list
    n3: list


def extended_normal(ctx, theta):
    """Unit normal continued across the exceptional set, as r-series."""
    w = _vector_pullback(ctx, ctx._cross, theta, ctx.n + 1, ctx.n)
    norm = s_sqrt(_dot(w, w))
    inv = s_recip(norm)
    n1, n2, n3 = (s_mul(comp, inv) for comp in w)
    return NormalSeries(theta, n1, n2, n3)


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
    e_jet, f_jet, g_jet = ctx._efg
    e = pullback_series(ctx, e_jet, theta)
    f = pullback_series(ctx, f_jet, theta, DEPTH, ctx.n + 2, 0)
    g = pullback_series(ctx, g_jet, theta, DEPTH, 2 * ctx.n + 2, 0)
    normal = extended_normal(ctx, theta)
    nvec = [normal.n1, normal.n2, normal.n3]
    l = _dot(nvec, _vector_pullback(ctx, ctx._second["uu"], theta))
    m = _dot(nvec, _vector_pullback(ctx, ctx._second["uv"], theta, ctx.n, 0))
    nn = _dot(nvec, _vector_pullback(ctx, ctx._second["vv"], theta))
    return FormSeries(theta, e, f, g, l, m, nn, normal)


@dataclass
class CurvatureSeries:
    """Series data of r^(2n+2) K, the bounded and the unbounded curvature."""

    theta: float
    K: list       # [K0, K1, K2]
    k1: list      # [k10, k11, k12], the bounded principal curvature
    k2: list      # [k20, k21, k22], coefficient series of r^(2n+2) kappa_2


def curvature_series(ctx, theta, forms=None):
    """Curvature series at theta; needs |cos theta| > COS_TOL."""
    if abs(math.cos(theta)) <= COS_TOL:
        raise PrincipalNormalDirectionError(
            "theta = %g is on the principal normal direction" % theta
        )
    fs = forms or fundamental_forms(ctx, theta)
    n = ctx.n
    # numerator LN - M^2 (the M^2 block re-enters at r^(2n))
    cnum = s_mul(fs.L, fs.N)
    msq = s_shift_index(s_mul(fs.M, fs.M), 2 * n)
    cnum = s_sub(cnum, msq)
    # denominator (EG - F^2) / r^(2n+2); the F^2 block re-enters at r^2
    den = s_mul(fs.E, fs.G)
    fsq = s_shift_index(s_mul(fs.F, fs.F), 2)
    den = s_sub(den, fsq)
    # mean-curvature numerator EN + GL - 2FM enters at r^0 through EN only
    bser = s_mul(fs.E, fs.N)
    return CurvatureSeries(
        theta, s_div(cnum, den), s_div(cnum, bser), s_div(bser, den)
    )


# ---------------------------------------------------------------------------
# closed forms for the leading coefficients (small, typo-safe set)
# ---------------------------------------------------------------------------


def k10_closed(ctx, theta):
    c, s = math.cos(theta), math.sin(theta)
    nf = ctx.nf
    return (-ctx.a_lead * nf.b_(2) * c + ctx.fact * nf.a_(2, 0) * s) / ctx.ma(theta)


def k10_scale(ctx, theta):
    """Magnitude of the two terms of k10_closed, for zero tests on k10."""
    nf = ctx.nf
    return max(abs(ctx.a_lead * nf.b_(2)), abs(ctx.fact * nf.a_(2, 0))) / ctx.ma(theta)


def k20_closed(ctx, theta):
    c = math.cos(theta)
    if abs(c) <= COS_TOL:
        raise PrincipalNormalDirectionError("k20 diverges at the principal normal")
    return -(ctx.fact**2) * ctx.a_lead / (ctx.ma(theta) ** 3 * c ** (2 * ctx.n - 1))


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
    nf = ctx.nf
    return ctx.a_lead * nf.b_(3) * c - ctx.fact * nf.a_(3, 0) * s


def delta2(ctx, theta):
    c, s = math.cos(theta), math.sin(theta)
    nf = ctx.nf
    a, m = ctx.a_lead, ctx.fact
    term1 = -(a * nf.b_(4) * c - m * nf.a_(4, 0) * s) * c
    term2 = (
        3.0
        * (nf.a_(2, 0) ** 2 + nf.b_(2) ** 2)
        * (a * nf.b_(2) * c - m * nf.a_(2, 0) * s)
        * c
    )
    # nonzero only in the n = 1 branch, where a_21 is the leading coefficient
    term3 = 12.0 * nf.a_(2, 1) * s * s
    return term1 + term2 + term3


def delta3(ctx, theta):
    c, s = math.cos(theta), math.sin(theta)
    nf = ctx.nf
    return nf.a_(2, 0) * ctx.a_lead * c + ctx.fact * nf.b_(2) * s


def ridge_report(ctx, theta):
    nf = ctx.nf
    a, m = ctx.a_lead, ctx.fact
    d1 = delta1(ctx, theta)
    d2 = delta2(ctx, theta)
    d3 = delta3(ctx, theta)
    s1 = max(abs(a * nf.b_(3)), abs(m * nf.a_(3, 0)))
    s2 = max(
        abs(a * nf.b_(4)),
        abs(m * nf.a_(4, 0)),
        3.0 * (nf.a_(2, 0) ** 2 + nf.b_(2) ** 2)
        * max(abs(a * nf.b_(2)), abs(m * nf.a_(2, 0))),
        12.0 * abs(nf.a_(2, 1)),
    )
    s3 = max(abs(nf.a_(2, 0) * a), abs(m * nf.b_(2)))
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
    """Per-theta geometry records for the report (cos-divided values off pi/2)."""
    records = []
    for theta in thetas:
        rr = ridge_report(ctx, theta)
        rec = {
            "theta": theta,
            "delta1": rr.delta1,
            "delta2": rr.delta2,
            "delta3": rr.delta3,
            "point_type": rr.point_type.value if rr.point_type else None,
            "flags": rr.flags,
            "K0": None,
            "k10": k10_closed(ctx, theta),
            "k20": None,
        }
        if rr.point_type is not None:
            cs = curvature_series(ctx, theta)
            rec["K0"] = cs.K[0]
            rec["k20"] = cs.k2[0]
        records.append(rec)
    return records
