"""Distance-squared functions d_p(u,v) = |g(u,v) - p|^2 / 2 on a normal-form
germ: singularity type at the origin, R+/K-versality of the 3-parameter
family of such functions, the focal locus in the normal plane, and the
reconciliation of the coefficient-based decision tree with the
ridge/sub-parabolic description over the blow-up.

The decision tree (probe p = (x0, y0, z0), singular iff x0 = 0):

    y0 != 0 branch (off the principal normal line):
        A1  iff  b2 y0 + a20 z0 - 1 != 0
        A2  iff  ... = 0 and b3 y0 + a30 z0 != 0                       (2a)
        A3  iff  ... = 0 and the quartic witness C4 != 0               (3a)
        A4+ iff  ... = 0 and C4 = 0                                    (4a)
    y0 = 0 branch (on the principal normal line):
        D4+ iff  a20 z0 = 1
        A2  iff  a20 z0 != 1 and a03 z0 != 0                          (2b)
        A3  iff  a03 z0 = 0 and the quartic witness NR != 0           (3b)
        A4+ iff  a03 z0 = 0 and NR = 0                                (4b)

with C4 = b4 y0^2 + a40 y0 z0 - 3 a21^2 z0^2 - 3 (a20^2 + b2^2) y0 and
NR = (a04 a20 - 3 a12^2) z0^2 - (a04 + 3 a20) z0 + 3.
"""

import math
import sys
from enum import Enum
from fractions import Fraction

from . import oracle
from .blowup import PointType, ridge_report
from .errors import InternalConsistencyError, UsageError
from .jets import EXACT, FLOAT, ZERO, _JOIN, _SPLIT, Jet2, _finite, is_zero, scalar, zero_scale
from .oracle import K_EQUIV, R_PLUS
from .records import Frozen, Record, _set


class DistSing(Enum):
    REGULAR = "Regular"
    A1 = "A1"
    A2 = "A2"
    A3 = "A3"
    A4PLUS = "A4plus"
    D4PLUS = "D4plus"


class Branch(Enum):
    PRINCIPAL_NORMAL = "principal-normal"
    OFF_PRINCIPAL = "off-principal"


class ProbePoint(Frozen):
    __slots__ = _fields = ("x0", "y0", "z0")

    def __init__(self, x0, y0, z0):
        _set(self, "x0", x0)
        _set(self, "y0", y0)
        _set(self, "z0", z0)

    def as_mode(self, mode):
        return ProbePoint(
            scalar(self.x0, mode), scalar(self.y0, mode), scalar(self.z0, mode)
        )

    def scale(self):
        """The probe's size for a float zero test: its largest |coordinate|,
        floored at 1 (``jets.zero_scale``)."""
        return zero_scale((self.x0, self.y0, self.z0), FLOAT)


class DistanceVerdict(Record):
    __slots__ = _fields = ("sing_type", "branch", "case", "r_plus_versal", "k_versal", "witness")

    def __init__(self, sing_type, branch, case, r_plus_versal, k_versal, witness=None):
        self.sing_type = sing_type    # DistSing
        self.branch = branch          # Branch, or None
        self.case = case              # "1", "2a", "2b", "3a", "3b", "4a", "4b", "5", or None
        self.r_plus_versal = r_plus_versal
        self.k_versal = k_versal
        self.witness = {} if witness is None else witness


class FocalKind(Enum):
    INTERSECTING_PAIR = "IntersectingPair"
    PARALLEL_PAIR = "ParallelPair"
    SINGLE_LINE = "SingleLine"


class FocalLine(Frozen):
    """Line alpha*y + beta*z = gamma in the normal plane."""

    __slots__ = _fields = ("alpha", "beta", "gamma")

    def __init__(self, alpha, beta, gamma):
        _set(self, "alpha", alpha)
        _set(self, "beta", beta)
        _set(self, "gamma", gamma)

    def direction(self):
        """(beta, -alpha) as a unit vector.  A pair that float conversion
        would take out of range is first scaled by a power of two, exactly."""
        alpha, beta = self.alpha, self.beta
        top = max(abs(alpha), abs(beta))
        if top and not sys.float_info.min <= top <= sys.float_info.max:
            top = scalar(top, EXACT)
            s = Fraction(2) ** (top.denominator.bit_length() - top.numerator.bit_length())
            alpha, beta = scalar(alpha, EXACT) * s, scalar(beta, EXACT) * s
        d = (scalar(beta, FLOAT), -scalar(alpha, FLOAT))
        norm = math.hypot(*d)
        return (d[0] / norm, d[1] / norm)

    def point(self):
        if self.alpha != 0:
            return (self.gamma / self.alpha, 0 * self.beta)
        return (0 * self.alpha, self.gamma / self.beta)


class FocalLocus(Record):
    __slots__ = _fields = ("kind", "lines", "intersection")

    def __init__(self, kind, lines, intersection):
        self.kind = kind                  # FocalKind
        self.lines = lines
        self.intersection = intersection  # a point, or None


class SingularPointType(Enum):
    HYPERBOLIC = "hyperbolic"
    INFLECTION = "inflection"
    DEGENERATE_INFLECTION = "degenerate-inflection"


# ---------------------------------------------------------------------------


def _sizes(nf, p):
    """The sizes a distance zero test reads, made only when read: the
    low-degree data actually used (``nf.distance_scale``) and the probe."""
    yield nf.distance_scale
    if p is not None:
        yield p.scale()


def _zero_test(nf, p):
    """Threshold zero test at the ``_sizes`` of ``nf`` and ``p``; an exact
    form's test reads no scale, so it makes neither."""
    scale = zero_scale(_sizes(nf, p), nf.mode)
    return lambda x: is_zero(x, scale, nf.mode)


def _probe_numerators(p, mode):
    """(X, Y, Z, dp): the probe p (in ``mode``) as numerators over one
    denominator dp, split as the jets split (``jets._SPLIT``): a float probe
    is its own numerators over dp = 1."""
    nums, dp = _SPLIT[mode](dict(enumerate((p.x0, p.y0, p.z0))))
    return (*(nums.get(i, 0) for i in range(3)), dp)


def _distance_numerators(nf, p, order):
    """({key: N}, S, D, (X, Y, Z, dp)): the distance jet at ``order`` as
    numerators, its coefficient at ``key`` N / (D dp) and its constant
    S / (2 dp^2): ints for an exact form, the float sums with D = dp = 1 for
    a float one; last the split probe (``_probe_numerators``).  A float sum
    that overflowed raises the jets' UsageError, the sums checked before
    |p|^2."""
    rows, den = nf.distance_base(order)
    probe = x, y, z, dp = _probe_numerators(p, nf.mode)
    out = {}
    for key, (h, cu, cy, cz) in rows.items():
        c = h * dp - x * cu - y * cy - z * cz
        if c:
            out[key] = c
    sq = x * x + y * y + z * z
    _finite(out, nf.mode)
    _finite({(0, 0): sq}, nf.mode)
    return out, sq, den, probe


def distance_jet(nf, p, order=None):
    """Jet of |g - p|^2 / 2 at the origin; constant term retained.

    Taken as |g|^2 / 2 - <g, p> + |p|^2 / 2 over the normal form's cached
    distance base, so a probe costs scalar multiples and sums only.  An exact
    probe goes over one denominator dp, and each coefficient is one quotient
    (H dp - X U - Y Y' - Z Z') / (D dp) of integers; a float form runs the
    same sums with D = dp = 1, and each joins (``jets._JOIN``) as itself.
    ``versality_rank_test`` reads the same integer sums without dividing
    them.
    """
    order = nf.order if order is None else order
    mode = nf.mode
    out, sq, den, (*_, dp) = _distance_numerators(nf, p.as_mode(mode), order)
    join = _JOIN[mode]
    den *= dp
    out = {key: join(n, den) for key, n in out.items()}
    # |p|^2 / 2: g vanishes at the origin, so the base has no constant term
    if sq:
        out[(0, 0)] = join(sq, 2 * dp * dp)
    return Jet2._result(order, out, mode)


def _integers(coeffs, mode):
    """``coeffs``, numerators of ``_distance_numerators`` or of the family,
    as ints: exact ones as they are, float ones rationalized over their lcm
    (``oracle.rationalized``), as the jet-level oracles read a float jet."""
    if mode == EXACT:
        return coeffs
    return oracle.rationalized(coeffs)[0]


def _integer_family(base, probe, mode):
    """The parameter partials p_i - g_i of the distance family, read off the
    distance base rows ``base`` = (rows, D) and the split probe ``probe`` =
    (X, Y, Z, dp), as {key: int}: D dp times each for an exact form,
    rationalized over their lcm for a float one."""
    rows, den = base
    x, y, z, dp = probe
    family = []
    for col, value in enumerate((x, y, z), 1):
        coeffs = {(0, 0): value * den} if value else {}
        for key, row in rows.items():
            c = row[col]
            if c:
                coeffs[key] = -c * dp
        family.append(_integers(coeffs, mode))
    return family


def _probe_order(nf):
    """Jet order of the probe-level splittings: at least 6, at most 8."""
    return max(6, min(nf.order, 8))


def _split_residual_u(nf, p, order=6):
    """Pure-u residual after formally splitting off the v^2 block (y0 != 0):
    the distance jet restricted to its critical curve d_v = 0.

    The curve kernel reads the distance numerators, the jet times D dp, and
    an exact residual is divided once, by D dp q^top.  The kernel divides by
    the v^2 coefficient, -y0 / 2 times D dp, nonzero on this branch; the
    constant term reaches no degree kept here."""
    out, _, den, (*_, dp) = _distance_numerators(nf, p, order)
    g, scale = oracle.restriction(out, order, "v")
    join = _JOIN[nf.mode]
    den *= dp * scale
    return {i: join(g[i], den) for i in range(3, order + 1)}


def classify_distance(nf, p):
    """Singularity type and versality of d_p per the decision tree above."""
    p = p.as_mode(nf.mode)
    z = _zero_test(nf, p)
    x0, y0, z0 = p.x0, p.y0, p.z0
    a20, b2 = nf.a_(2, 0), nf.b_(2)
    witness = {}
    if not z(x0):
        return DistanceVerdict(DistSing.REGULAR, None, None, True, True, witness)

    pw = b2 * y0 + a20 * z0 - 1
    witness["focal_line"] = pw
    if not z(y0):
        branch = Branch.OFF_PRINCIPAL
        if not z(pw):
            return DistanceVerdict(DistSing.A1, branch, "1", True, True, witness)
        t3 = nf.b_(3) * y0 + nf.a_(3, 0) * z0
        witness["cubic"] = t3
        if not z(t3):
            return DistanceVerdict(DistSing.A2, branch, "2a", True, True, witness)
        c4 = (
            nf.b_(4) * y0 * y0
            + nf.a_(4, 0) * y0 * z0
            - 3 * nf.a_(2, 1) ** 2 * z0 * z0
            - 3 * (a20 * a20 + b2 * b2) * y0
        )
        witness["quartic"] = c4
        if not z(c4):
            kv = a20 * y0 - b2 * z0
            witness["k_versal_witness"] = kv
            return DistanceVerdict(DistSing.A3, branch, "3a", True, not z(kv), witness)
        residual = _split_residual_u(nf, p, _probe_order(nf))
        exactly_a4 = not z(residual.get(5, 0))
        witness["quintic"] = residual.get(5, 0)
        r_plus = exactly_a4 and not (z(nf.a_(3, 0)) and z(nf.b_(3)))
        return DistanceVerdict(DistSing.A4PLUS, branch, "4a", r_plus, False, witness)

    branch = Branch.PRINCIPAL_NORMAL
    dcond = a20 * z0 - 1
    witness["umbilic"] = dcond
    if z(dcond):
        return DistanceVerdict(DistSing.D4PLUS, branch, "5", False, False, witness)
    cubic = nf.a_(0, 3) * z0
    witness["cubic"] = cubic
    if not z(cubic):
        return DistanceVerdict(DistSing.A2, branch, "2b", False, False, witness)
    nr = (
        (nf.a_(0, 4) * a20 - 3 * nf.a_(1, 2) ** 2) * z0 * z0
        - (nf.a_(0, 4) + 3 * a20) * z0
        + 3
    )
    witness["quartic"] = nr
    if not z(nr):
        return DistanceVerdict(DistSing.A3, branch, "3b", False, False, witness)
    return DistanceVerdict(DistSing.A4PLUS, branch, "4b", False, False, witness)


def agrees_with_oracle(sing, typ):
    """Whether the closed-form verdict ``sing`` (a DistSing) names the
    splitting oracle's type ``typ``: A4plus covers A_k for k >= 4 and a
    corank-1 MoreDegenerate, D4plus covers D4 and a corank-2 one."""
    if sing is DistSing.A4PLUS:
        return (typ.tag == "A" and typ.k >= 4) or (
            typ.tag == "MoreDegenerate" and typ.corank == 1
        )
    if sing is DistSing.D4PLUS:
        return typ.tag == "D4" or (typ.tag == "MoreDegenerate" and typ.corank == 2)
    return typ.label == sing.value


def _probe_pass(nf, p):
    """{flavor: answer} of both rank tests at the singular probe p (in the
    form's mode): one integer pass.

    The required jet order is the determinacy degree of the actual
    singularity type, decided by the splitting oracle.  The probe is split
    into numerators once.  The distance numerators at the probe order (D dp
    times the jet, its constant left out: neither kernel reads it) are typed
    by ``oracle.integer_split`` once, and the family read off the same base
    rows and split probe is built once, both handed to
    ``oracle.integer_versality`` for the flavours the type leaves open; it
    eliminates the rows they share once.  No ``Fraction`` is built.  A
    float form rationalizes each coefficient first, as ``split_and_type``
    and ``versality_rank_oracle`` do.
    """
    probe_order = _probe_order(nf)
    # the numerators of the jet, D dp times it; the kernels read no constant
    out, _, _, probe = _distance_numerators(nf, p, probe_order)
    f = _integers(out, nf.mode)
    typ = oracle.integer_split(f, probe_order)
    answers = {R_PLUS: False, K_EQUIV: False}
    # 3 parameters cannot versally unfold beyond A4 (R+) or A3 (K)
    if typ.tag == "A" and typ.k <= 3:
        flavors, order = (R_PLUS, K_EQUIV), typ.k + 1
    elif typ.tag == "A" and typ.k == 4:
        flavors, order = (R_PLUS,), 5
    elif typ.tag == "D4":
        flavors, order = (R_PLUS,), 3  # K needs 4 parameters
    else:
        return answers  # more degenerate than the 3-parameter family can cover
    family = _integer_family(nf.distance_base(probe_order), probe, nf.mode)
    answers.update(zip(flavors, oracle.integer_versality(f, family, flavors, order)))
    return answers


def versality_rank_test(nf, p, flavor):
    """Versality as a rank condition over the jet space (dual implementation).

    A singular probe's answer comes from ``_probe_pass``, which answers both
    flavours at once.  The form keeps the last singular probe's answers
    (``NormalFormCoeffs._probe_slot``), keyed by the probe in the form's
    mode, so asking both flavours of a probe in turn makes one pass.
    """
    if flavor not in (R_PLUS, K_EQUIV):
        raise UsageError("flavor must be %r or %r" % (R_PLUS, K_EQUIV))
    p = p.as_mode(nf.mode)
    z = _zero_test(nf, p)
    if not z(p.x0):
        return True  # regular germs deform versally
    slot = nf._probe_slot
    last = slot[0]  # (probe, answers), read and replaced as one object
    if last is None or last[0] != p:
        last = slot[0] = (p, _probe_pass(nf, p))
    return last[1][flavor]


def focal_locus(nf):
    """The degenerate-probe locus in the (y, z) normal plane."""
    z = _zero_test(nf, None)
    a20, b2 = nf.a_(2, 0), nf.b_(2)
    one, zero = scalar(1, nf.mode), ZERO[nf.mode]
    principal = FocalLine(one, zero, zero)  # y = 0
    if not z(a20):
        second = FocalLine(b2, a20, one)
        return FocalLocus(
            FocalKind.INTERSECTING_PAIR,
            (principal, second),
            (zero, one / a20),
        )
    if not z(b2):
        second = FocalLine(b2, zero, one)  # y = 1/b2
        return FocalLocus(FocalKind.PARALLEL_PAIR, (principal, second), None)
    return FocalLocus(FocalKind.SINGLE_LINE, (principal,), None)


def singular_point_type(nf):
    z = _zero_test(nf, None)
    if not z(nf.a_(2, 0)):
        return SingularPointType.HYPERBOLIC
    if not z(nf.b_(2)):
        return SingularPointType.INFLECTION
    return SingularPointType.DEGENERATE_INFLECTION


# ---------------------------------------------------------------------------
# geometric route
# ---------------------------------------------------------------------------


class GeometricVerdict(Record):
    __slots__ = _fields = ("verdict", "flags", "probe")

    def __init__(self, verdict, flags, probe):
        self.verdict = verdict  # DistanceVerdict
        self.flags = flags
        self.probe = probe      # ProbePoint


def geometric_verdict(ctx, theta0, lam):
    """Classify d at p = lam * n(0, theta0) and check the verdict against the
    ridge/sub-parabolic prediction; raises InternalConsistencyError on
    disagreement between the two routes."""
    if not math.isfinite(lam):
        raise UsageError("lambda must be a finite number, got %r" % lam)
    if lam == 0:
        raise UsageError("lambda must be nonzero")
    rr = ridge_report(ctx, theta0)
    nf = ctx.nf
    _, n20, n30 = rr.normal_r0
    p = ProbePoint(0.0, lam * n20, lam * n30)
    verdict = classify_distance(nf, p)

    if rr.point_type is None:
        at_intersection = _zero_test(nf, p)(nf.a_(2, 0) * p.z0 - 1)
        flags = {"on_principal_normal": True, "focal_intersection": at_intersection}
        if at_intersection:
            ok = verdict.sing_type is DistSing.D4PLUS
        else:
            ok = verdict.sing_type in (DistSing.A2, DistSing.A3, DistSing.A4PLUS)
        ok = ok and not verdict.r_plus_versal and not verdict.k_versal
        if not ok:
            raise InternalConsistencyError(
                "principal-normal routes disagree: coefficients say %s"
                % verdict.sing_type.value
            )
        return GeometricVerdict(verdict, flags, p)

    focal = is_zero(lam * rr.k10 - 1.0, max(1.0, abs(lam) * rr.k10_scale))
    flags = dict(
        rr.flags, on_focal_locus=focal, parabolic=rr.point_type is PointType.PARABOLIC
    )

    if not focal:
        expected = DistSing.A1
        expected_versal = (True, True)
    elif not rr.is_ridge:
        expected = DistSing.A2
        expected_versal = (True, True)
    elif rr.is_first_order_ridge:
        expected = DistSing.A3
        expected_versal = (True, not rr.is_subparabolic)
    else:
        expected = DistSing.A4PLUS
        expected_versal = (None, False)  # R+ not decidable from the flags alone

    ok = verdict.sing_type is expected
    if expected_versal[0] is not None:
        ok = ok and verdict.r_plus_versal == expected_versal[0]
    ok = ok and verdict.k_versal == expected_versal[1]
    if not ok:
        raise InternalConsistencyError(
            "route disagreement at theta0=%g lam=%g: coefficients say %s "
            "(r+=%s, k=%s), geometry expects %s (r+=%s, k=%s)"
            % (
                theta0,
                lam,
                verdict.sing_type.value,
                verdict.r_plus_versal,
                verdict.k_versal,
                expected.value,
                expected_versal[0],
                expected_versal[1],
            )
        )
    return GeometricVerdict(verdict, flags, p)
