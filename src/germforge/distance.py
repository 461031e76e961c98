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

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional

from . import oracle
from .blowup import (
    COS_TOL, K0_closed, k10_closed, k10_scale, normal_r0_closed, ridge_report,
)
from .errors import InternalConsistencyError, UsageError
from .jets import EXACT, Jet2, is_zero
from .oracle import K_EQUIV, R_PLUS


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


@dataclass(frozen=True)
class ProbePoint:
    x0: object
    y0: object
    z0: object

    def as_mode(self, mode):
        conv = (lambda x: Fraction(x)) if mode == EXACT else float
        return ProbePoint(conv(self.x0), conv(self.y0), conv(self.z0))

    def scale(self):
        return max(1.0, abs(float(self.x0)), abs(float(self.y0)), abs(float(self.z0)))


@dataclass
class DistanceVerdict:
    sing_type: DistSing
    branch: Optional[Branch]
    case: Optional[str]               # "1", "2a", "2b", "3a", "3b", "4a", "4b", "5"
    r_plus_versal: bool
    k_versal: bool
    witness: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)


class FocalKind(Enum):
    INTERSECTING_PAIR = "IntersectingPair"
    PARALLEL_PAIR = "ParallelPair"
    SINGLE_LINE = "SingleLine"


@dataclass(frozen=True)
class FocalLine:
    """Line alpha*y + beta*z = gamma in the normal plane."""

    alpha: object
    beta: object
    gamma: object

    def direction(self):
        d = (float(self.beta), -float(self.alpha))
        norm = math.hypot(*d)
        return (d[0] / norm, d[1] / norm)

    def point(self):
        if float(self.alpha) != 0.0:
            return (self.gamma / self.alpha, 0 * self.beta)
        return (0 * self.alpha, self.gamma / self.beta)


@dataclass
class FocalLocus:
    kind: FocalKind
    lines: tuple
    intersection: Optional[tuple]


class SingularPointType(Enum):
    HYPERBOLIC = "hyperbolic"
    INFLECTION = "inflection"
    DEGENERATE_INFLECTION = "degenerate-inflection"


# ---------------------------------------------------------------------------


def _zero_test(nf, p):
    """Threshold zero test scaled by the low-degree data actually used.

    The distance decision tree touches coefficients of degree <= 4 only;
    scaling by the full normal form would let high-order factorial-scaled
    coefficients mask the relevant quantities.
    """
    low = [1.0]
    for (i, j), c in nf.a.items():
        if i + j <= 4:
            low.append(abs(float(c)))
    for i, c in nf.b.items():
        if i <= 4:
            low.append(abs(float(c)))
    if p is not None:
        low.append(p.scale())
    scale = max(low)
    return lambda x: is_zero(x, scale, nf.mode)


def distance_jet(nf, p, order=None):
    """Jet of |g - p|^2 / 2 at the origin; constant term retained."""
    order = nf.order if order is None else order
    p = p.as_mode(nf.mode)
    u = Jet2.variable("u", order, nf.mode)
    y = nf.second_component(order)
    z = nf.third_component(order)
    half = Fraction(1, 2) if nf.mode == EXACT else 0.5
    du = u - Jet2.const(p.x0, order, nf.mode)
    dy = y - Jet2.const(p.y0, order, nf.mode)
    dz = z - Jet2.const(p.z0, order, nf.mode)
    return (du * du + dy * dy + dz * dz) * half


def _split_residual_u(nf, p, order=6):
    """Pure-u residual after formally splitting off the v^2 block (y0 != 0):
    the distance jet restricted to its critical curve d_v = 0."""
    g = oracle.critical_curve_restriction(distance_jet(nf, p, order), "v")
    return {i: g[i] for i in range(3, order + 1)}


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
        residual = _split_residual_u(nf, p, max(6, min(nf.order, 8)))
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


def versality_rank_test(nf, p, flavor):
    """Versality as a rank condition over the jet space (dual implementation).

    The required jet order is the determinacy degree of the actual
    singularity type, decided here by the splitting oracle.
    """
    if flavor not in (R_PLUS, K_EQUIV):
        raise UsageError("flavor must be %r or %r" % (R_PLUS, K_EQUIV))
    p = p.as_mode(nf.mode)
    z = _zero_test(nf, p)
    if not z(p.x0):
        return True  # regular germs deform versally
    probe_order = max(6, min(nf.order, 8))
    d = distance_jet(nf, p, probe_order)
    typ = oracle.split_and_type(d, order=probe_order)
    if typ.tag == "A":
        if typ.k >= 5 and flavor == R_PLUS:
            return False  # 3 parameters cannot versally unfold beyond A4
        if typ.k >= 4 and flavor == K_EQUIV:
            return False
        order = typ.k + 1
    elif typ.tag == "D4":
        if flavor == K_EQUIV:
            return False  # needs 4 parameters
        order = 3
    else:
        return False  # more degenerate than the 3-parameter family can cover
    u = Jet2.variable("u", probe_order, nf.mode)
    y = nf.second_component(probe_order)
    zc = nf.third_component(probe_order)
    family = [
        Jet2.const(p.x0, probe_order, nf.mode) - u,
        Jet2.const(p.y0, probe_order, nf.mode) - y,
        Jet2.const(p.z0, probe_order, nf.mode) - zc,
    ]
    return oracle.versality_rank_oracle(family, d, flavor, order)


def focal_locus(nf):
    """The degenerate-probe locus in the (y, z) normal plane."""
    z = _zero_test(nf, None)
    a20, b2 = nf.a_(2, 0), nf.b_(2)
    one = Fraction(1) if nf.mode == EXACT else 1.0
    zero = 0 * one
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


@dataclass
class GeometricVerdict:
    verdict: DistanceVerdict
    expected_type: object            # DistSing or tuple of admissible DistSing
    flags: dict
    probe: ProbePoint


def geometric_verdict(ctx, theta0, lam):
    """Classify d at p = lam * n(0, theta0) and check the verdict against the
    ridge/sub-parabolic prediction; raises InternalConsistencyError on
    disagreement between the two routes."""
    if lam == 0:
        raise UsageError("lambda must be nonzero")
    nf = ctx.nf
    _, n20, n30 = normal_r0_closed(ctx, theta0)
    p = ProbePoint(0.0, lam * n20, lam * n30)
    verdict = classify_distance(nf, p)
    z = _zero_test(nf, p)
    flags = {}

    if abs(math.cos(theta0)) <= COS_TOL:
        flags["on_principal_normal"] = True
        at_intersection = z(nf.a_(2, 0) * p.z0 - 1)
        flags["focal_intersection"] = at_intersection
        if at_intersection:
            expected = DistSing.D4PLUS
            ok = verdict.sing_type is DistSing.D4PLUS
        else:
            expected = (DistSing.A2, DistSing.A3, DistSing.A4PLUS)
            ok = verdict.sing_type in expected
        ok = ok and not verdict.r_plus_versal and not verdict.k_versal
        if not ok:
            raise InternalConsistencyError(
                "principal-normal routes disagree: coefficients say %s"
                % verdict.sing_type.value
            )
        return GeometricVerdict(verdict, expected, flags, p)

    k10 = k10_closed(ctx, theta0)
    focal = is_zero(lam * k10 - 1.0, max(1.0, abs(lam) * k10_scale(ctx, theta0)))
    flags["on_focal_locus"] = focal
    flags["parabolic"] = z(K0_closed(ctx, theta0))
    rr = ridge_report(ctx, theta0)
    flags["is_ridge"] = rr.is_ridge
    flags["is_first_order_ridge"] = rr.is_first_order_ridge
    flags["is_subparabolic"] = rr.is_subparabolic

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
    return GeometricVerdict(verdict, expected, flags, p)
