"""Reduction of corank-1 germs to the pre-normal form

    (u,  v^2/2 + sum_i b_i u^i / i!,  a_20 u^2 / 2 + sum a_ij u^i v^j / (i! j!))

using rotations in the target and coordinate changes in the source.
The coefficients a_ij, b_i drive every downstream computation.

Square roots arise when normalizing the v^2 coefficient; the reducer
stays in exact rationals when every radicand is a perfect square and
falls back to float64 otherwise, recording which mode was used.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .errors import (
    OutOfScopeHkError,
    UnsupportedGermError,
    UsageError,
)
from .jets import EXACT, FLOAT, GermJets, Jet2, is_zero


class TwoJetClass(Enum):
    UV_SQUARED = "uv-squared"      # ~ (u, v^2, 0)
    UUV = "uuv"                    # ~ (u, uv, 0)
    CROSS_CAP = "cross-cap"        # ~ (u, v^2, uv), stable
    DEGENERATE = "degenerate"      # ~ (u, 0, 0)


@dataclass(frozen=True)
class NormalFormCoeffs:
    """Coefficients b_i (i >= 2) and a_ij (i+j >= 3, plus a_20)."""

    order: int
    mode: str
    a: dict
    b: dict

    def __post_init__(self):
        for (i, j) in self.a:
            if (i, j) == (2, 0):
                continue
            if i + j < 3 or i + j > self.order or j < 0 or i < 0:
                raise UsageError("a[%d,%d] outside the valid index range" % (i, j))
        for i in self.b:
            if i < 2 or i > self.order:
                raise UsageError("b[%d] outside the valid index range" % i)

    def a_(self, i, j):
        zero = Fraction(0) if self.mode == EXACT else 0.0
        return self.a.get((i, j), zero)

    def b_(self, i):
        zero = Fraction(0) if self.mode == EXACT else 0.0
        return self.b.get(i, zero)

    @functools.cached_property
    def germ_scale(self):
        """Largest germ-normalized coefficient |a_ij| / (i! j!), |b_i| / i!.

        Zero tests on the a_ij must be degree-homogeneous: the stored values
        carry factorial factors, so a raw maximum would let a high-order
        coefficient mask mid-sized low-order ones.
        """
        vals = [1.0]
        for (i, j), c in self.a.items():
            vals.append(abs(float(c)) / (math.factorial(i) * math.factorial(j)))
        for i, c in self.b.items():
            vals.append(abs(float(c)) / math.factorial(i))
        return max(vals)

    def is_zero_a(self, i, j):
        norm = math.factorial(i) * math.factorial(j)
        return is_zero(self.a_(i, j) / norm, self.germ_scale, self.mode)

    def second_component(self, order=None):
        order = self.order if order is None else order
        half = Fraction(1, 2) if self.mode == EXACT else 0.5
        terms = {(0, 2): half}
        for i, bi in self.b.items():
            if i <= order:
                terms[(i, 0)] = _div_factorial(bi, math.factorial(i), self.mode)
        return Jet2(order, terms, self.mode)

    def third_component(self, order=None):
        order = self.order if order is None else order
        terms = {}
        for (i, j), aij in self.a.items():
            if i + j <= order:
                terms[(i, j)] = _div_factorial(
                    aij, math.factorial(i) * math.factorial(j), self.mode
                )
        return Jet2(order, terms, self.mode)

    def reconstruct(self, order=None):
        """Germ jets of the normal form itself."""
        order = self.order if order is None else order
        u = Jet2.variable("u", order, self.mode)
        return GermJets(u, self.second_component(order), self.third_component(order))

    def to_float(self):
        if self.mode == FLOAT:
            return self
        return NormalFormCoeffs(
            self.order,
            FLOAT,
            {k: float(c) for k, c in self.a.items()},
            {k: float(c) for k, c in self.b.items()},
        )


def _div_factorial(c, f, mode):
    if mode == EXACT:
        return Fraction(c) / f
    return float(c) / f


@dataclass(frozen=True)
class RotationStep:
    matrix: tuple  # 3x3, rows of scalars
    mode: str


@dataclass(frozen=True)
class SubstitutionStep:
    u_new: Jet2
    v_new: Jet2
    mode: str


@dataclass
class TransformLog:
    """Ordered record of the source/target changes applied by the reducer."""

    steps: list = field(default_factory=list)
    mode_used: str = EXACT

    def add_rotation(self, matrix, mode):
        self.steps.append(RotationStep(tuple(tuple(r) for r in matrix), mode))

    def add_substitution(self, u_new, v_new, mode):
        self.steps.append(SubstitutionStep(u_new, v_new, mode))

    def replay(self, g):
        """Apply the recorded changes to a germ; reproduces the normal form."""
        for step in self.steps:
            if step.mode == FLOAT and g.mode == EXACT:
                g = g.to_float()
            if isinstance(step, RotationStep):
                g = g.rotate(step.matrix)
            else:
                u_new = step.u_new.with_order(g.order)
                v_new = step.v_new.with_order(g.order)
                g = g.substitute(u_new, v_new)
        if self.mode_used == FLOAT and g.mode == EXACT:
            g = g.to_float()
        return g


# ---------------------------------------------------------------------------
# rank / two-jet analysis
# ---------------------------------------------------------------------------


def _scale_of(rows):
    return max([1.0] + [abs(float(x)) for row in rows for x in row])


def _matrix_rank_3x2(rows, mode):
    scale = _scale_of(rows)
    minors = []
    for r1 in range(3):
        for r2 in range(r1 + 1, 3):
            minors.append(rows[r1][0] * rows[r2][1] - rows[r1][1] * rows[r2][0])
    if not all(is_zero(m, scale, mode) for m in minors):
        return 2
    if not all(is_zero(x, scale, mode) for row in rows for x in row):
        return 1
    return 0


def corank_at_origin(g):
    """2 minus the rank of the differential at the origin."""
    return 2 - _matrix_rank_3x2(g.linear_part(), g.mode)


def _sqrt_scalar(x, mode):
    """Square root with mode tracking: exact iff the radicand is a perfect square."""
    if mode == EXACT:
        fx = Fraction(x)
        if fx < 0:
            raise UsageError("negative radicand")
        rn, rd = math.isqrt(fx.numerator), math.isqrt(fx.denominator)
        if rn * rn == fx.numerator and rd * rd == fx.denominator:
            return Fraction(rn, rd), EXACT
        return math.sqrt(float(fx)), FLOAT
    return math.sqrt(float(x)), FLOAT


def _identity3(mode):
    one = Fraction(1) if mode == EXACT else 1.0
    zero = Fraction(0) if mode == EXACT else 0.0
    return [[one, zero, zero], [zero, one, zero], [zero, zero, one]]


def _normalize_linear_part(g, log):
    """Rotate the image line onto the x-axis and flatten the first component to u."""
    rows = g.linear_part()
    mode = g.mode
    col_u = [rows[i][0] for i in range(3)]
    col_v = [rows[i][1] for i in range(3)]
    w = col_u if max(abs(float(c)) for c in col_u) >= max(
        abs(float(c)) for c in col_v
    ) else col_v
    scale = _scale_of(rows)
    if not (is_zero(w[1], scale, mode) and is_zero(w[2], scale, mode)):
        norm2 = w[0] * w[0] + w[1] * w[1] + w[2] * w[2]
        norm, mode = _sqrt_scalar(norm2, mode)
        if mode == FLOAT and g.mode == EXACT:
            g = g.to_float()
            w = [float(c) for c in w]
        wh = [c / norm for c in w]
        q = [wh[0] + 1, wh[1], wh[2]]
        qq = q[0] * q[0] + q[1] * q[1] + q[2] * q[2]
        rot = [
            [2 * q[r] * q[c] / qq - (1 if r == c else 0) for c in range(3)]
            for r in range(3)
        ]
        g = g.rotate(rot)
        log.add_rotation(rot, mode)
    elif (w[0] < 0) if mode == EXACT else (float(w[0]) < 0):
        rot = _identity3(mode)
        rot[0][0] = -rot[0][0]
        rot[1][1] = -rot[1][1]
        g = g.rotate(rot)
        log.add_rotation(rot, mode)

    # source linear change making the first component u + O(2)
    l1, l2 = g.x.coeff(1, 0), g.x.coeff(0, 1)
    n2 = l1 * l1 + l2 * l2
    if is_zero(n2, scale, mode):
        raise UsageError("vanishing differential of the first component")
    one = Fraction(1) if mode == EXACT else 1.0
    if l1 != one or (l2 if mode == EXACT else float(l2)) != 0:
        m11, m21 = l1 / n2, l2 / n2
        m12, m22 = -l2, l1
        order = g.order
        u_var = Jet2.variable("u", order, mode)
        v_var = Jet2.variable("v", order, mode)
        u_new = u_var * m11 + v_var * m12
        v_new = u_var * m21 + v_var * m22
        g = g.substitute(u_new, v_new)
        log.add_substitution(u_new, v_new, mode)

    # flatten higher-order terms of the first component
    order = g.order
    u_var = Jet2.variable("u", order, mode)
    v_var = Jet2.variable("v", order, mode)
    q = g.x - u_var
    if not q.is_zero():
        psi = u_var
        for _ in range(order):
            psi = u_var - q.substitute(psi, v_var)
        g = g.substitute(psi, v_var)
        log.add_substitution(psi, v_var, mode)
    return g, mode


def _two_jet_data(g):
    y, z = g.y, g.z
    return {
        "b20": 2 * y.coeff(2, 0),
        "b11": y.coeff(1, 1),
        "b02": 2 * y.coeff(0, 2),
        "a20": 2 * z.coeff(2, 0),
        "a11": z.coeff(1, 1),
        "a02": 2 * z.coeff(0, 2),
    }


def _classify_two_jet(data, mode):
    scale = max([1.0] + [abs(float(v)) for v in data.values()])
    det = data["b11"] * data["a02"] - data["b02"] * data["a11"]
    has_v2 = not all(is_zero(data[key], scale, mode) for key in ("a02", "b02"))
    has_uv = not all(is_zero(data[key], scale, mode) for key in ("a11", "b11"))
    if has_v2 and not is_zero(det, scale, mode):
        return TwoJetClass.CROSS_CAP
    if has_v2:
        return TwoJetClass.UV_SQUARED
    if has_uv:
        return TwoJetClass.UUV
    return TwoJetClass.DEGENERATE


def two_jet_class(g):
    """Two-jet type of a corank-1 germ (cf. TwoJetClass)."""
    if corank_at_origin(g) != 1:
        raise UsageError("two_jet_class requires a corank-1 germ")
    log = TransformLog()
    g, _ = _normalize_linear_part(g, log)
    return _classify_two_jet(_two_jet_data(g), g.mode)


def reduce_to_normal_form(g, order=None):
    """Reduce a corank-1, (u, v^2, 0)-type germ; returns (coeffs, log)."""
    if corank_at_origin(g) != 1:
        raise UsageError("reduce_to_normal_form requires a corank-1 germ")
    if order is not None:
        if order > g.order:
            raise UsageError(
                "requested order %d exceeds the germ's jet order %d" % (order, g.order)
            )
        g = GermJets(*(c.truncate(order) for c in g.components()))
    log = TransformLog()
    g, mode = _normalize_linear_part(g, log)

    data = _two_jet_data(g)
    cls = _classify_two_jet(data, mode)
    if cls is TwoJetClass.UUV:
        raise OutOfScopeHkError(
            "two-jet of type (u, uv, 0): detected only, reduction not supported"
        )
    if cls is TwoJetClass.CROSS_CAP:
        raise UnsupportedGermError(
            "stable cross-cap two-jet (u, v^2, uv); not of the reducible type"
        )
    if cls is TwoJetClass.DEGENERATE:
        raise UnsupportedGermError("degenerate two-jet (u, 0, 0); unsupported")

    # rotation in the (y, z)-plane killing the quadratic v-terms of z
    a02, b02 = data["a02"], data["b02"]
    s2 = a02 * a02 + b02 * b02
    s, mode = _sqrt_scalar(s2, mode)
    if mode == FLOAT and g.mode == EXACT:
        g = g.to_float()
        a02, b02 = float(a02), float(b02)
    rot = _identity3(mode)
    rot[1][1], rot[1][2] = b02 / s, a02 / s
    rot[2][1], rot[2][2] = -a02 / s, b02 / s
    if rot != _identity3(mode):
        g = g.rotate(rot)
        log.add_rotation(rot, mode)

    # kill the uv term of y and scale v^2 to 1/2
    s_now = 2 * g.y.coeff(0, 2)
    b11n = g.y.coeff(1, 1)
    root, mode = _sqrt_scalar(s_now, mode)
    if mode == FLOAT and g.mode == EXACT:
        g = g.to_float()
        s_now, b11n = float(s_now), float(b11n)
        root = math.sqrt(s_now)
    c10 = -b11n / s_now
    c01 = (Fraction(1) if mode == EXACT else 1.0) / root
    one = Fraction(1) if mode == EXACT else 1.0
    if c10 != 0 * one or c01 != one:
        order_now = g.order
        u_var = Jet2.variable("u", order_now, mode)
        v_var = Jet2.variable("v", order_now, mode)
        v_new = u_var * c10 + v_var * c01
        g = g.substitute(u_var, v_new)
        log.add_substitution(u_var, v_new, mode)

    # degree-by-degree cleanup of the second component
    for m in range(3, g.order + 1):
        delta_terms = {}
        for (i, j), c in g.y.coeffs.items():
            if i + j == m and j >= 1:
                delta_terms[(i, j - 1)] = delta_terms.get((i, j - 1), 0) - c
        if not delta_terms:
            continue
        order_now = g.order
        u_var = Jet2.variable("u", order_now, mode)
        v_var = Jet2.variable("v", order_now, mode)
        v_new = v_var + Jet2(order_now, delta_terms, mode)
        g = g.substitute(u_var, v_new)
        log.add_substitution(u_var, v_new, mode)

    log.mode_used = mode
    nf = _extract_coeffs(g)
    _check_form(g, nf)
    return nf, log


def _extract_coeffs(g):
    mode = g.mode
    b = {}
    for (i, j), c in g.y.coeffs.items():
        if j == 0 and i >= 2:
            b[i] = c * math.factorial(i)
    a = {}
    for (i, j), c in g.z.coeffs.items():
        if (i, j) == (2, 0):
            a[(2, 0)] = 2 * c
        elif i + j >= 3:
            a[(i, j)] = c * math.factorial(i) * math.factorial(j)
    return NormalFormCoeffs(g.order, mode, a, b)


def _check_form(g, nf):
    half = Fraction(1, 2) if g.mode == EXACT else 0.5
    scale = max(1.0, float(g.y.max_abs()))
    if not is_zero(g.y.coeff(0, 2) - half, scale, g.mode):
        raise UnsupportedGermError("reduction failed: v^2 coefficient is not 1/2")
    for (i, j) in g.y.coeffs:
        if (i, j) != (0, 2) and j != 0:
            raise UnsupportedGermError(
                "reduction failed: residual term u^%d v^%d in the second component"
                % (i, j)
            )
    for key in ((1, 0), (0, 1), (1, 1), (0, 2)):
        if key in g.z.coeffs:
            raise UnsupportedGermError(
                "reduction failed: residual term u^%d v^%d in the third component" % key
            )
