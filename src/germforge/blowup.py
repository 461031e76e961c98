"""Blow-up geometry over the singular point of a normal-form germ.

The germ (u, v) -> (u, v^2/2 + ..., a_20 u^2/2 + ...) is composed with the
resolving map

    (r, theta) -> (r cos(theta), r^(n+1) cos(theta)^n sin(theta)),

n chosen per class (S_k -> k, B_k -> 1, C_k -> k-1, F_4 -> 2).  Along the
exceptional set r = 0 the unit normal, the fundamental forms, the Gaussian
curvature (times r^(2n+2)) and the bounded principal curvature all admit
r-series whose coefficients are trigonometric polynomials in theta.  This
module computes those series numerically, once per theta list, through
series_columns(ctx, thetas) (one theta is [theta]): one straight build of
every series to depth DEPTH from two plain lists of power columns,
cos(theta)^e and sin(theta)^j over the list, made once per list.  Its
coefficients have the same bits at a theta on any grid.  The one caller in
the program is the closed-form cross-check (closed_forms.py).

ridge_reports(ctx, thetas) is the one place a normal direction is
evaluated, in one loop over a theta list that reads the context's constants
once: from one cos, sin and ma of each theta it takes the ridge and
sub-parabolic invariants delta_1/2/3, the point type, the r = 0 unit normal,
the bounded curvature k10 and, off the principal normal direction, k20.
ridge_report(ctx, theta) is its one-theta case, and the closed forms
k20_closed and K0_closed = k10 k20 are read off its report.
geometry_samples, the report's sweep, is one ridge_reports loop: its K0 =
k10 k20 and k20 are the r^0 columns of the series K and k2.  The
wave-front/caustic prediction front_verdict is a table over its flags:

    not a ridge                        -> wave-front: cuspidal edge
    first-order ridge, not subparabolic -> wave-front: swallowtail,
                                           caustic:    cuspidal edge
    anything else                      -> undetermined

closed_forms.py checks the pipeline against independently stated closed-form
expressions for the depth-1/2 coefficients it covers, and its r^0 columns K0
and k20 against ridge_reports.
"""

import math
from enum import Enum

from .errors import (
    HypothesisError,
    InternalConsistencyError,
    PrincipalNormalDirectionError,
    UsageError,
)
from .jets import FLOAT, Jet2, is_zero, zero_scale
from .mond import MondTag
from .records import Record

DEPTH = 2
COS_TOL = 1e-7

# Largest number of theta samples a grid may hold (a geometry sweep holds
# about 5 KB a sample while it runs): a larger grid is refused before any
# list exists.
MAX_THETA_SAMPLES = 2**14


# ---------------------------------------------------------------------------
# truncated r-series over a theta grid: DEPTH + 1 columns, each a list of
# floats over the grid, and a power of cos or sin is one such list too.
# Every helper keeps the one-theta loop order per element, so a coefficient
# has the same bits on any grid.
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


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------

# the classes with blow-up geometry, each with its exponent n as a function of k
BLOWUP_EXPONENT = {
    MondTag.S: lambda k: k,
    MondTag.B: lambda k: 1,
    MondTag.C: lambda k: k - 1,
    MondTag.F4: lambda k: 2,
}


class BlowupContext(Record):
    """Normal-form data prepared for blow-up computations with exponent n."""

    _fields = ("nf", "n")
    __slots__ = _fields + (
        "_cross", "_second", "_efg", "a_lead", "fact", "epsilon", "_ma_sq",
        "_delta1", "_delta2", "_delta3", "_ridge_scales", "_k10", "_k10_scale", "_k20")

    def __init__(self, nf, n):
        self.n = n
        if self.n < 1:
            raise UsageError("blow-up exponent n must be >= 1")
        nf = self.nf = nf.to_float()
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
        return self._ma(math.cos(theta), math.sin(theta))

    def _ma(self, c, s):
        a2, m2 = self._ma_sq
        return math.sqrt(a2 * c * c + m2 * s * s)


def build_context(nf, mond):
    """Blow-up context with the exponent induced by the class."""
    rule = BLOWUP_EXPONENT.get(mond.tag)
    if rule is None:
        raise UsageError(
            "blow-up geometry is defined for S_k, B_k, C_k, F_4 only (got %s)"
            % mond.label
        )
    return BlowupContext(nf, rule(mond.k))


# ---------------------------------------------------------------------------
# pullback pipeline
# ---------------------------------------------------------------------------


def pullback_series(ctx, jet, cos_pow, sin_pow, r_shift=0, cos_shift=0):
    """r-series columns, to depth DEPTH, of jet(u, v) composed with the
    resolving map over a theta list, from its power columns cos_pow[e] =
    cos(theta)^e and sin_pow[j] = sin(theta)^j.

    With r_shift/cos_shift the common factor r^r_shift cos^cos_shift is
    divided out; the caller is responsible for its existence (guarded here).
    """
    n = ctx.n
    out = [[0.0] * len(cos_pow[0]) for _ in range(DEPTH + 1)]
    for (i, j), coef in jet.coeffs.items():
        k = i + j * (n + 1) - r_shift
        if k > DEPTH:
            continue
        ce = i + j * n - cos_shift
        if k < 0 or ce < 0:
            if not is_zero(coef, zero_scale(jet.coeffs.values(), jet.mode), jet.mode):
                raise InternalConsistencyError(
                    "pullback factor r^%d cos^%d does not divide the u^%d v^%d term"
                    % (r_shift, cos_shift, i, j)
                )
            continue
        out[k] = [acc + coef * c * s for acc, c, s in zip(out[k], cos_pow[ce], sin_pow[j])]
    return out


def _dot(a_vec, b_vec):
    acc = [[0.0] * len(a_vec[0][0])] * len(a_vec[0])
    for a, b in zip(a_vec, b_vec):
        acc = s_add(acc, s_mul(a, b))
    return acc


def _less_square(lead, sq, shift):
    """lead - r^shift sq^2."""
    return s_sub(lead, s_shift_index(s_mul(sq, sq), shift))


SERIES = ("n1", "n2", "n3", "E", "F", "G", "L", "M", "N", "K", "k1", "k2")


def build_series(ctx, thetas, cos):
    """Every series of the pipeline over a theta list, whose column
    cos(theta) the caller took, keyed by SERIES, with no guard on the
    directions.  At pi/2 only the normal and the forms mean anything: E G -
    F^2 is of the order of cos^(2n) there, and from n = 10 on it underflows
    to 0 and the build raises."""
    n = ctx.n
    # a term u^i v^j kept at depth <= DEPTH has i + j (n+1) <= DEPTH + r_shift
    # <= 2n + 4, so it reads at most cos^(2n+4) and sin^3
    cos_pow = [[x ** e for x in cos] for e in range(2 * n + 5)]
    sin = [math.sin(t) for t in thetas]
    sin_pow = [[x ** j for x in sin] for j in range(4)]

    def pull(jet, r_shift=0, cos_shift=0):
        return pullback_series(ctx, jet, cos_pow, sin_pow, r_shift, cos_shift)

    w = [pull(jet, n + 1, n) for jet in ctx._cross]
    inv_w = s_recip(s_sqrt(_dot(w, w)))
    out = {key: s_mul(part, inv_w) for key, part in zip(("n1", "n2", "n3"), w)}
    normal = list(out.values())
    # the forms, F divided by r^(n+2), G by r^(2n+2) and M by r^n
    for key, jet, shift in zip("EFG", ctx._efg, (0, n + 2, 2 * n + 2)):
        out[key] = pull(jet, shift)
    # L, M and N are the normal dotted with the second partials; a zero
    # partial's term is left out: its product is +0.0, and +0.0 changes no
    # sum here, as none is -0.0
    for key, second, shift in (("L", "uu", 0), ("M", "uv", n), ("N", "vv", 0)):
        parts, jets = zip(*((p, jet) for p, jet in zip(normal, ctx._second[second])
                            if jet.coeffs))
        out[key] = _dot(parts, [pull(jet, shift) for jet in jets])
    # numerator LN - M^2 of K (the M^2 block re-enters at r^(2n), past DEPTH
    # for n > 1, where it subtracts exact zeros)
    num = _less_square(s_mul(out["L"], out["N"]), out["M"], 2 * n)
    # denominator (EG - F^2) / r^(2n+2) (the F^2 block re-enters at r^2)
    inv_den = s_recip(_less_square(s_mul(out["E"], out["G"]), out["F"], 2))
    # the mean-curvature numerator EN + GL - 2FM enters at r^0 through EN only
    en = s_mul(out["E"], out["N"])
    out["K"] = s_mul(num, inv_den)
    out["k1"] = s_mul(num, s_recip(en))
    out["k2"] = s_mul(en, inv_den)
    return out


def series_columns(ctx, thetas):
    """The pipeline run once over a theta list: DEPTH + 1 columns each for
    the unit normal n1..n3, the forms E..N after factoring their r-powers (F
    by r^(n+2), G by r^(2n+2), M by r^n), r^(2n+2) K, the bounded principal
    curvature k1 and r^(2n+2) kappa_2 (k2), keyed by SERIES.  Each theta
    must be finite with |cos theta| > COS_TOL."""
    thetas = list(thetas)
    cos = []
    for theta in thetas:
        if not math.isfinite(theta):
            raise _not_finite(theta)
        c = math.cos(theta)
        if abs(c) <= COS_TOL:
            raise PrincipalNormalDirectionError(
                "theta = %g is on the principal normal direction" % theta)
        cos.append(c)
    return build_series(ctx, thetas, cos)


def _not_finite(theta):
    return UsageError("theta = %g is not a finite number" % theta)


# ---------------------------------------------------------------------------
# everything read off one normal direction: ridge / sub-parabolic invariants,
# point type, r = 0 normal and bounded curvature, front prediction
# ---------------------------------------------------------------------------


class PointType(Enum):
    ELLIPTIC = "elliptic"
    HYPERBOLIC = "hyperbolic"
    PARABOLIC = "parabolic"


class RidgeReport(Record):
    __slots__ = _fields = (
        "theta", "delta1", "delta2", "delta3", "is_ridge", "is_first_order_ridge",
        "is_subparabolic", "point_type", "k10", "k10_scale", "k20", "normal_r0", "ma")

    def __init__(self, theta, delta1, delta2, delta3, is_ridge, is_first_order_ridge,
                 is_subparabolic, point_type, k10, k10_scale, k20, normal_r0, ma):
        self.theta = theta
        self.delta1 = delta1
        self.delta2 = delta2
        self.delta3 = delta3
        self.is_ridge = is_ridge
        self.is_first_order_ridge = is_first_order_ridge
        self.is_subparabolic = is_subparabolic
        self.point_type = point_type  # a PointType; None on the principal normal direction
        self.k10 = k10
        self.k10_scale = k10_scale    # magnitude of k10's two terms, for zero tests on k10
        self.k20 = k20                # None on the principal normal direction (it diverges)
        self.normal_r0 = normal_r0    # the unit normal on the exceptional set r = 0
        self.ma = ma

    @property
    def flags(self):
        """The direction flags the front and distance predictions read."""
        return {
            "is_ridge": self.is_ridge,
            "is_first_order_ridge": self.is_first_order_ridge,
            "is_subparabolic": self.is_subparabolic,
        }


def ridge_reports(ctx, thetas):
    """Every closed form at each theta of a list, one RidgeReport per theta:
    the context's constants are read once, cos, sin and ma once per theta."""
    isfinite, cos, sin, ma_of = math.isfinite, math.cos, math.sin, ctx._ma
    ab3, ma30 = ctx._delta1
    ab4, ma40, q, ab2, ma20, a21_12 = ctx._delta2
    a20a, mb2 = ctx._delta3
    s1, s2, s3 = (max(1.0, scale) for scale in ctx._ridge_scales)
    k10_cos, k10_sin = ctx._k10
    k10_size, k20_num, k20_power = ctx._k10_scale, ctx._k20, 2 * ctx.n - 1
    lead, fact = ctx.a_lead, ctx.fact
    reports = []
    for theta in thetas:
        if not isfinite(theta):
            raise _not_finite(theta)
        c, s = cos(theta), sin(theta)
        ma = ma_of(c, s)
        d1 = ab3 * c - ma30 * s
        # the a21 term is nonzero only in the n = 1 branch, where a_21 is the
        # leading coefficient
        d2 = -(ab4 * c - ma40 * s) * c + q * (ab2 * c - ma20 * s) * c + a21_12 * s * s
        d3 = a20a * c + mb2 * s
        is_ridge = is_zero(d1, s1)
        first_order = is_ridge and not is_zero(d2, s2)
        subpar = is_zero(d3, s3)
        k10, k10_scale = (k10_cos * c + k10_sin * s) / ma, k10_size / ma
        if abs(c) <= COS_TOL:
            ptype = k20 = None
        else:
            # K0 = k10 k20, tested against its uncancelled size |k20| k10_scale
            k20 = k20_num / (ma ** 3 * c ** k20_power)
            k0 = k10 * k20
            if is_zero(k0, max(1.0, abs(k20) * k10_scale)):
                ptype = PointType.PARABOLIC
            else:
                ptype = PointType.ELLIPTIC if k0 > 0 else PointType.HYPERBOLIC
        normal_r0 = (0.0, -lead * c / ma, fact * s / ma)
        reports.append(RidgeReport(theta, d1, d2, d3, is_ridge, first_order, subpar, ptype,
                                   k10, k10_scale, k20, normal_r0, ma))
    return reports


def ridge_report(ctx, theta):
    """Every closed form at theta: the one-theta case of ridge_reports."""
    return ridge_reports(ctx, [theta])[0]


# K0 and k20 alone, read off ridge_reports rather than ridge_report, so that
# a trace of ridge_report counts only the directions the pipeline reads


def _off_principal_normal(ctx, theta):
    rr = ridge_reports(ctx, [theta])[0]
    if rr.k20 is None:
        raise PrincipalNormalDirectionError("k20 diverges at the principal normal")
    return rr


def k20_closed(ctx, theta):
    return _off_principal_normal(ctx, theta).k20


def K0_closed(ctx, theta):
    rr = _off_principal_normal(ctx, theta)
    return rr.k10 * rr.k20


class FrontType(Enum):
    CUSPIDAL_EDGE = "CuspidalEdge"
    SWALLOWTAIL = "Swallowtail"
    UNDETERMINED = "Undetermined"


class FrontVerdict(Record):
    __slots__ = _fields = ("wavefront_type", "caustic_type", "basis")

    def __init__(self, wavefront_type, caustic_type, basis):
        self.wavefront_type = wavefront_type  # FrontType
        self.caustic_type = caustic_type      # FrontType
        self.basis = basis


def verdict_from_flags(is_ridge, is_first_order_ridge, is_subparabolic):
    """The (wavefront, caustic) type pair as a pure function of the flags."""
    if not is_ridge:
        return (FrontType.CUSPIDAL_EDGE, FrontType.UNDETERMINED)
    if is_first_order_ridge and not is_subparabolic:
        return (FrontType.SWALLOWTAIL, FrontType.CUSPIDAL_EDGE)
    return (FrontType.UNDETERMINED, FrontType.UNDETERMINED)


def front_verdict(ctx, theta0):
    """Predicted wave-front/caustic type at the focal point along theta0.

    Along the principal normal direction itself the unfolding is never
    versal and no type is claimed: both predictions are Undetermined.
    """
    rr = ridge_report(ctx, theta0)
    basis = rr.flags
    if rr.point_type is None:
        basis["on_principal_normal"] = True
        return FrontVerdict(FrontType.UNDETERMINED, FrontType.UNDETERMINED, basis)
    if is_zero(rr.k10, max(1.0 / rr.ma, rr.k10_scale)):
        raise HypothesisError(
            "the bounded principal curvature vanishes at theta0 = %g" % theta0
        )
    wavefront, caustic = verdict_from_flags(**basis)
    return FrontVerdict(wavefront, caustic, basis)


def uniform_thetas(samples):
    """The nodes -pi/2 + (pi/samples) i, i = 1..samples, of (-pi/2, pi/2];
    the last is the principal normal direction pi/2.  At most
    MAX_THETA_SAMPLES."""
    if samples > MAX_THETA_SAMPLES:
        raise UsageError("theta grid has more than %d samples" % MAX_THETA_SAMPLES)
    step = math.pi / samples
    return [-math.pi / 2 + step * i for i in range(1, samples + 1)]


def theta_grid(samples=64):
    """Uniform samples of (-pi/2, pi/2]; the right endpoint is included."""
    if samples < 8:
        raise UsageError("theta grid needs at least 8 samples")
    return uniform_thetas(samples)


def geometry_samples(ctx, thetas):
    """Per-theta geometry records for the report from one ridge_reports loop
    over thetas; off the principal normal, K0 = k10 k20 and k20, the r^0
    columns of the series K and k2."""
    records = []
    for rr in ridge_reports(ctx, thetas):
        records.append({
            "theta": rr.theta, "delta1": rr.delta1, "delta2": rr.delta2, "delta3": rr.delta3,
            "point_type": rr.point_type.value if rr.point_type else None, "flags": rr.flags,
            "K0": None if rr.k20 is None else rr.k10 * rr.k20, "k10": rr.k10, "k20": rr.k20,
        })
    return records
