"""Reduction of corank-1 germs to the pre-normal form

    (u,  v^2/2 + sum_i b_i u^i / i!,  a_20 u^2 / 2 + sum a_ij u^i v^j / (i! j!))

using rotations in the target and coordinate changes in the source.
The coefficients a_ij, b_i drive every downstream computation.

Square roots arise when normalizing the v^2 coefficient; the reducer
stays in exact rationals when every radicand is a perfect square and
falls back to float64 otherwise, recording which mode was used.
"""

import functools
import itertools
import math
from enum import Enum
from fractions import Fraction

from .errors import (
    InternalConsistencyError,
    OutOfScopeHkError,
    UnsupportedGermError,
    UsageError,
)
from .jets import EXACT, FLOAT, ZERO, _SPLIT, GermJets, Jet2, is_zero, scalar, zero_scale
from .records import Frozen, Record, _set


class TwoJetClass(Enum):
    UV_SQUARED = "uv-squared"      # ~ (u, v^2, 0)
    UUV = "uuv"                    # ~ (u, uv, 0)
    CROSS_CAP = "cross-cap"        # ~ (u, v^2, uv), stable
    DEGENERATE = "degenerate"      # ~ (u, 0, 0)


class NormalFormCoeffs(Frozen):
    """Coefficients b_i (i >= 2) and a_ij (i+j >= 3, plus a_20)."""

    _fields = ("order", "mode", "a", "b")
    __slots__ = _fields + ("__dict__",)  # the cached properties below

    def __init__(self, order, mode, a, b):
        for (i, j) in a:
            if (i, j) == (2, 0):
                continue
            if i + j < 3 or i + j > order or j < 0 or i < 0:
                raise UsageError("a[%d,%d] outside the valid index range" % (i, j))
        for i in b:
            if i < 2 or i > order:
                raise UsageError("b[%d] outside the valid index range" % i)
        _set(self, "order", order)
        _set(self, "mode", mode)
        _set(self, "a", a)
        _set(self, "b", b)

    def a_(self, i, j):
        return self.a.get((i, j), ZERO[self.mode])

    def b_(self, i):
        return self.b.get(i, ZERO[self.mode])

    @functools.cached_property
    def _degree_scales(self):
        top = [1.0] * (self.order + 1)
        for (i, j), c in self.a.items():
            top[i + j] = max(top[i + j], abs(c) / (math.factorial(i) * math.factorial(j)))
        for i, c in self.b.items():
            top[i] = max(top[i], abs(c) / math.factorial(i))
        return list(itertools.accumulate(top, max))

    def degree_scale(self, d):
        """Largest germ-normalized coefficient |a_ij| / (i! j!), |b_i| / i! of
        degree <= d, floored at 1.

        Zero tests on the a_ij are degree-homogeneous: the stored values
        carry factorial factors, so a raw maximum would let a high-order
        coefficient mask mid-sized low-order ones, and the coefficients of
        higher degree than the one tested do not set its scale.
        """
        return self._degree_scales[min(d, self.order)]

    @functools.cached_property
    def distance_scale(self):
        """Largest |a_ij|, |b_i| of degree <= 4, floored at 1.

        The distance decision tree touches coefficients of degree <= 4 only;
        scaling its zero tests by the full normal form would let high-order
        factorial-scaled coefficients mask the relevant quantities.
        """
        low = [1.0]
        low += [abs(c) for (i, j), c in self.a.items() if i + j <= 4]
        low += [abs(c) for i, c in self.b.items() if i <= 4]
        return max(low)

    @functools.cached_property
    def _distance_bases(self):
        return {}

    @functools.cached_property
    def _probe_slot(self):
        """[(probe, answers)]: the last singular probe ``distance``'s rank
        test read, in this form's mode, with its {flavor: answer}; one
        entry, replaced by the next probe ([None] before the first)."""
        return [None]

    def distance_base(self, order):
        """The probe-free part of every distance-squared jet at ``order``:
        ({(i, j): (H, U, Y, Z)}, D), one row per monomial of
        (u^2 + y^2 + z^2) / 2 = H / D, u = U / D, y = Y / D and z = Z / D.

        |g - p|^2 / 2 = |g|^2 / 2 - <g, p> + |p|^2 / 2 reads the four
        columns.  The coefficients are split as the jets split them
        (``jets._SPLIT``): in exact mode the rows are ints over the lcm D of
        the denominators; in float mode they are the coefficients themselves
        and D = 1.  Built on the first call for an order and kept on the
        instance for later ones.
        """
        base = self._distance_bases.get(order)
        if base is None:
            u = Jet2.variable("u", order, self.mode)
            y, z = self.second_component(order), self.third_component(order)
            half_sq = (u * u + y * y + z * z) * scalar(0.5, self.mode)
            # (column, key) -> coefficient, columns in the order of the rows
            flat = {(n, k): c for n, jet in enumerate((half_sq, u, y, z))
                    for k, c in jet.coeffs.items()}
            keys = dict.fromkeys(k for _, k in flat)
            flat, den = _SPLIT[self.mode](flat)
            rows = {k: tuple(flat.get((n, k), 0) for n in range(4)) for k in keys}
            base = self._distance_bases[order] = (rows, den)
        return base

    def is_zero_a(self, i, j):
        """Whether a_ij / (i! j!) is zero at ``degree_scale(i + j)``."""
        norm = math.factorial(i) * math.factorial(j)
        # lazy, so that an exact form, whose test reads no scale, builds none
        scale = zero_scale(map(self.degree_scale, (i + j,)), self.mode)
        return is_zero(self.a_(i, j) / norm, scale, self.mode)

    def second_component(self, order=None):
        order = self.order if order is None else order
        terms = {(0, 2): scalar(0.5, self.mode)}
        for i, bi in self.b.items():
            if i <= order:
                terms[(i, 0)] = scalar(bi, self.mode) / math.factorial(i)
        return Jet2(order, terms, self.mode)

    @functools.cached_property
    def _third_component(self):
        terms = {}
        for (i, j), aij in self.a.items():
            terms[(i, j)] = scalar(aij, self.mode) / (math.factorial(i) * math.factorial(j))
        return Jet2(self.order, terms, self.mode)

    def third_component(self, order=None):
        """sum_ij a_ij u^i v^j / (i! j!) at ``order``: each a_ij is converted
        once, at the form's own order, and the jet is cut to ``order``."""
        return self._third_component.with_order(self.order if order is None else order)

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
            {k: scalar(c, FLOAT) for k, c in self.a.items()},
            {k: scalar(c, FLOAT) for k, c in self.b.items()},
        )


def _in_mode(g, mode):
    """The germ ``g``, promoted to float if ``mode`` is float: the one promotion."""
    if mode == FLOAT and g.mode == EXACT:
        g = g.to_float()
    return g


# a killed coefficient of x, y or z is set to its value in the germ (u, 0, 0)
_BASE = ({(1, 0): 1}, {}, {})


def _kill(g, out, kills):
    """``out``, made from ``g`` by one step, with the coefficients the step
    kills by construction set to their values in (u, 0, 0).

    ``kills`` holds (component, keys) pairs: component 0, 1 or 2 for x, y
    or z, and keys a tuple of (i, j), or None for every coefficient.  What
    the step leaves there is rounding only: exactly nothing in exact mode,
    zero at the scale of the step's input ``g`` in float mode.  Anything
    else means the step does not kill what it claims to, and raises
    InternalConsistencyError.
    """
    comps = list(out.components())
    changed = False
    scale = None
    for c, keys in kills:
        coeffs, base = comps[c].coeffs, _BASE[c]
        residues = {}
        for key in (coeffs.keys() | base.keys()) if keys is None else keys:
            value, want = coeffs.get(key, 0), base.get(key, 0)
            if value != want:
                residues[key] = value - want
        if not residues:
            continue
        if scale is None:
            scale = zero_scale((x for comp in g.components() for x in comp.coeffs.values()),
                               out.mode)
        for (i, j), r in residues.items():
            if not is_zero(r, scale, out.mode):
                raise InternalConsistencyError(
                    "reduction step left %r at u^%d v^%d of %s, not zero at scale %.3g"
                    % (r, i, j, "xyz"[c], scale)
                )
        kept = {k: v for k, v in coeffs.items() if k not in residues}
        kept.update((k, scalar(base[k], out.mode)) for k in residues if k in base)
        comps[c] = Jet2._trusted(out.order, kept, out.mode)
        changed = True
    return GermJets(*comps) if changed else out


class RotationStep(Frozen):
    __slots__ = _fields = ("matrix", "mode", "kills")

    def __init__(self, matrix, mode, kills):
        _set(self, "matrix", matrix)  # 3x3, rows of scalars
        _set(self, "mode", mode)
        _set(self, "kills", kills)    # (component, keys) pairs, as _kill takes them

    def apply(self, g):
        g = _in_mode(g, self.mode)
        return _kill(g, g.rotate(self.matrix), self.kills)


class SubstitutionStep(Frozen):
    __slots__ = _fields = ("u_new", "v_new", "mode", "kills")

    def __init__(self, u_new, v_new, mode, kills):
        _set(self, "u_new", u_new)  # Jet2
        _set(self, "v_new", v_new)  # Jet2
        _set(self, "mode", mode)
        _set(self, "kills", kills)  # (component, keys) pairs, as _kill takes them

    def apply(self, g):
        g = _in_mode(g, self.mode)
        out = g.substitute(self.u_new.with_order(g.order), self.v_new.with_order(g.order))
        return _kill(g, out, self.kills)


class TransformLog(Record):
    """Ordered record of the source/target changes applied by the reducer.

    The log is the only way the reducer changes a germ: ``apply_rotation``
    and ``apply_substitution`` record a step in the log's scalar mode, with
    the coefficients it kills, and apply it; ``replay`` applies the same
    steps to another germ.  The log owns that mode: ``sqrt`` switches it to
    float at the first irrational root, and a float step promotes an exact
    germ.
    """

    __slots__ = _fields = ("steps", "mode_used")

    def __init__(self, steps=None, mode_used=EXACT):
        self.steps = [] if steps is None else steps
        self.mode_used = mode_used

    def sqrt(self, x):
        """Square root of ``x``: exact while the log is exact and ``x`` is a
        perfect square; otherwise a float, and the log is float from then on."""
        if self.mode_used == EXACT:
            fx = Fraction(x)
            if fx < 0:
                raise UsageError("negative radicand")
            rn, rd = math.isqrt(fx.numerator), math.isqrt(fx.denominator)
            if rn * rn == fx.numerator and rd * rd == fx.denominator:
                return Fraction(rn, rd)
            self.mode_used = FLOAT
        return math.sqrt(scalar(x, FLOAT))

    def apply_rotation(self, g, matrix, kills):
        return self._apply(
            g, RotationStep(tuple(tuple(r) for r in matrix), self.mode_used, kills))

    def apply_substitution(self, g, u_new, v_new, kills):
        return self._apply(g, SubstitutionStep(u_new, v_new, self.mode_used, kills))

    def _apply(self, g, step):
        self.steps.append(step)
        return step.apply(g)

    def replay(self, g):
        """Apply the recorded changes to a germ; reproduces the normal form."""
        for step in self.steps:
            g = step.apply(g)
        return _in_mode(g, self.mode_used)


# ---------------------------------------------------------------------------
# rank / two-jet analysis
# ---------------------------------------------------------------------------


def _matrix_rank_3x2(rows, mode):
    scale = zero_scale((x for row in rows for x in row), mode)
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


def _identity3(mode):
    return [[scalar(int(r == c), mode) for c in range(3)] for r in range(3)]


def _flattening(q, u_var, v_var):
    """psi with psi + q(psi, v) = u: the change u -> psi turns u + q into u."""
    psi = u_var
    for _ in range(q.order):
        psi = u_var - q.substitute(psi, v_var)
    return psi


def _normalize_linear_part(g, log):
    """Rotate the image line onto the x-axis and flatten the first component to u."""
    rows = g.linear_part()
    col_u = [rows[i][0] for i in range(3)]
    col_v = [rows[i][1] for i in range(3)]
    w = col_u if max(map(abs, col_u)) >= max(map(abs, col_v)) else col_v
    sizes = col_u + col_v  # the zero tests below are sized by the linear part
    scale = zero_scale(sizes, g.mode)
    if not (is_zero(w[1], scale, g.mode) and is_zero(w[2], scale, g.mode)):
        norm = log.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])
        wh = [scalar(c, log.mode_used) / norm for c in w]
        q = [wh[0] + 1, wh[1], wh[2]]
        qq = q[0] * q[0] + q[1] * q[1] + q[2] * q[2]
        rot = [
            [2 * q[r] * q[c] / qq - (1 if r == c else 0) for c in range(3)]
            for r in range(3)
        ]
    elif w[0] < 0 or any(rows[1] + rows[2]):
        # the image line is the x-axis already, up to float residue in the
        # linear terms of y and z: flip its direction if need be, and kill
        # the residue
        rot = _identity3(g.mode)
        if w[0] < 0:
            rot[0][0] = -rot[0][0]
            rot[1][1] = -rot[1][1]
    else:
        rot = None
    if rot is not None:
        # either rotation kills the linear terms of y and z
        g = log.apply_rotation(g, rot, ((1, ((1, 0), (0, 1))), (2, ((1, 0), (0, 1)))))

    # source linear change making the first component u + O(2)
    mode, order = g.mode, g.order
    l1, l2 = g.x.coeff(1, 0), g.x.coeff(0, 1)
    n2 = l1 * l1 + l2 * l2
    if is_zero(n2, zero_scale(sizes, mode), mode):
        raise UsageError("vanishing differential of the first component")
    u_var = Jet2.variable("u", order, mode)
    v_var = Jet2.variable("v", order, mode)
    if l1 != 1 or l2 != 0:
        m11, m21 = l1 / n2, l2 / n2
        m12, m22 = -l2, l1
        g = log.apply_substitution(
            g, u_var * m11 + v_var * m12, u_var * m21 + v_var * m22, ((0, ((0, 1),)),))

    # flatten higher-order terms of the first component: x becomes exactly u
    q = g.x - u_var
    if not q.is_zero():
        g = log.apply_substitution(g, _flattening(q, u_var, v_var), v_var, ((0, None),))
    return g


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
    scale = zero_scale(data.values(), mode)
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


class ReductionStart:
    """A corank-1 germ with its linear part normalized, and its two-jet.

    The first step of ``reduce_to_normal_form``; ``classify_germ`` makes it
    once, reads its two-jet and hands it on.
    """

    __slots__ = ("g", "log", "data", "two_jet")

    def __init__(self, g):
        """Normalize the linear part of ``g``, a germ of corank 1 (the caller
        has checked ``corank_at_origin(g) == 1``), and read its two-jet."""
        self.log = TransformLog(mode_used=g.mode)
        self.g = _normalize_linear_part(g, self.log)
        self.data = _two_jet_data(self.g)
        self.two_jet = _classify_two_jet(self.data, self.log.mode_used)


def reduce_to_normal_form(g):
    """Reduce a corank-1, (u, v^2, 0)-type germ; returns (coeffs, log).

    ``g`` is the germ, or the ReductionStart made of it.
    """
    if isinstance(g, ReductionStart):
        start = g
    else:
        if corank_at_origin(g) != 1:
            raise UsageError("reduce_to_normal_form requires a corank-1 germ")
        start = ReductionStart(g)
    g, data, cls = start.g, start.data, start.two_jet
    log = TransformLog(list(start.log.steps), start.log.mode_used)
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

    # rotation in the (y, z)-plane killing the quadratic v-terms of z; a step
    # that only promotes the germ to float is recorded too
    a02, b02 = data["a02"], data["b02"]
    s = log.sqrt(a02 * a02 + b02 * b02)
    mode = log.mode_used
    a02, b02 = scalar(a02, mode), scalar(b02, mode)
    rot = _identity3(mode)
    rot[1][1], rot[1][2] = b02 / s, a02 / s
    rot[2][1], rot[2][2] = -a02 / s, b02 / s
    if rot != _identity3(mode) or g.mode != mode or (1, 1) in g.z.coeffs:
        # it kills z's v^2 term, and its uv term with the two-jet's det
        g = log.apply_rotation(g, rot, ((2, ((0, 2), (1, 1))),))

    # kill the uv term of y and scale v^2 to 1/2
    s_now = 2 * g.y.coeff(0, 2)
    b11n = g.y.coeff(1, 1)
    root = log.sqrt(s_now)
    mode = log.mode_used
    c10 = -scalar(b11n, mode) / scalar(s_now, mode)
    c01 = scalar(1, mode) / root
    u_var = Jet2.variable("u", g.order, mode)
    v_var = Jet2.variable("v", g.order, mode)
    if c10 != 0 or c01 != 1 or g.mode != mode:
        g = log.apply_substitution(g, u_var, u_var * c10 + v_var * c01, ((1, ((1, 1),)),))

    # degree-by-degree cleanup of the second component: v -> v + delta kills
    # y's terms of degree m with a power of v
    for m in range(3, g.order + 1):
        delta = {
            (i, j - 1): -c for (i, j), c in g.y.coeffs.items() if i + j == m and j >= 1
        }
        if delta:
            kills = ((1, tuple((m - j, j) for j in range(1, m + 1))),)
            g = log.apply_substitution(g, u_var, v_var + Jet2(g.order, delta, mode), kills)

    _check_form(g)
    return _extract_coeffs(g), log


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


def _check_form(g):
    """The v^2 coefficient is 1/2.  The residual terms of y and z need no
    check: the steps that kill them zero them, or raise."""
    scale = zero_scale(g.y.coeffs.values(), g.mode)
    if not is_zero(g.y.coeff(0, 2) - scalar(0.5, g.mode), scale, g.mode):
        raise UnsupportedGermError("reduction failed: v^2 coefficient is not 1/2")
