"""Recognition of the A-simple classes S_k, B_k, C_k, F_4 from normal-form
coefficients, including the recursive shift constants c_i and the
invariants xi_n used for the B_k decision.

Mutually exclusive criteria on the a_ij:

* S_1:      a_21 != 0, a_03 != 0
* S_k, k>1: a_21 = ... = a_k1 = 0, a_{k+1,1} != 0, a_03 != 0
* B_k:      a_03 = 0, a_21 != 0, xi_2 = ... = xi_{k-1} = 0, xi_k != 0
* C_k:      a_03 = 0, a_21 = ... = a_{k-1,1} = 0, a_k1 != 0, a_13 != 0
* F_4:      a_03 = 0, a_21 = 0, a_31 != 0, a_13 = 0, a_05 != 0

The xi_n are computed by actually performing the shift
u -> u + sum_i c_i v^(2(i-1)) in jet arithmetic and reading coefficients,
rather than by evaluating the combinatorial sum formulas.  ``bk_recursion``
is the one place that builds the shift, and it checks what the shift
kills: each a_{1,2n-1} of the shifted jet must vanish, or it raises
InternalConsistencyError.  In float mode a coefficient of the shifted jet
is tested against the sizes the shift sums into it (``_term_sizes``),
floored at 1, never against the size of the whole jet.
"""

import itertools
from enum import Enum

from .errors import InternalConsistencyError, UsageError
from .jets import FLOAT, Jet2, is_zero
from .records import Frozen, Record, _set

DEFAULT_K_MAX = 8

# Jet order needed to decide B_k and F_4 (their determinacy degrees); S_k
# and C_k read a_i1 at order i + 1.
def b_order(k):
    return 2 * k + 1


F4_ORDER = 5

# the report's warning for a class decided by float zero tests
FLOAT_WARNING = (
    "float-mode zero tests (threshold 1e-9 relative): "
    "classification is numerically certified only"
)


class MondTag(Enum):
    IMMERSION = "Immersion"
    CROSS_CAP = "S0"
    S = "S"
    B = "B"
    C = "C"
    F4 = "F4"
    TWO_JET_UV = "TwoJetUV"
    INDETERMINATE = "Indeterminate"


class MondClass(Frozen):
    __slots__ = _fields = ("tag", "k", "sign", "reason")

    def __init__(self, tag, k=None, sign=None, reason=None):
        if tag is MondTag.S and (k is None or k < 1):
            raise UsageError("S requires k >= 1")
        if tag is MondTag.B and (k is None or k < 2):
            raise UsageError("B requires k >= 2")
        if tag is MondTag.C and (k is None or k < 3):
            raise UsageError("C requires k >= 3")
        if tag in (MondTag.S, MondTag.C) and k is not None:
            if (k % 2 == 0) != (sign is None):
                raise UsageError("sign must be absent exactly for even k")
        _set(self, "tag", tag)          # MondTag
        _set(self, "k", k)              # int, or None
        _set(self, "sign", sign)        # "+", "-" or None
        _set(self, "reason", reason)    # str, or None

    @property
    def label(self):
        if self.tag in (MondTag.S, MondTag.B, MondTag.C):
            return "%s%d%s" % (self.tag.name, self.k, self.sign or "")
        return self.tag.value


class BkRecursionTrace(Record):
    """Shift constants and the resulting odd-coefficient invariants."""

    __slots__ = _fields = ("k", "c", "xi", "scale")

    def __init__(self, k, c=None, xi=None, scale=1.0):
        self.k = k
        self.c = {} if c is None else c                  # i -> c_i, 2 <= i <= k
        self.xi = {} if xi is None else xi               # n -> xi_n, 2 <= n <= k
        # xi_k is zero below this: in float mode the sizes the shift sums into
        # xi_k (see _term_sizes), floored at 1; 1 in exact mode
        self.scale = scale


def _sign_of(x):
    if x == 0:
        return None
    return "+" if x > 0 else "-"


def _odd_part_jet(nf, order):
    """Jet of the third component keeping only odd powers of v."""
    z = nf.third_component(order)
    return Jet2._trusted(order, {k: c for k, c in z.coeffs.items() if k[1] % 2}, nf.mode)


def _shift_jet(c, order, mode):
    """u + sum_i c_i v^(2(i-1)) as a jet."""
    return Jet2(order, {(1, 0): 1, **{(0, 2 * (i - 1)): ci for i, ci in c.items()}}, mode)


def _term_sizes(p, c, order):
    """Float jet of the sizes of the shifted p's coefficients.

    With u weighing 2 and v weighing 1 the shift raises no term's weight, so
    the terms it sums into a coefficient come from terms of p of no greater
    weight.  Each coefficient of p is sized by the largest |coefficient| of p
    of weight at most its own, the rounding a float normal form may leave
    there, and the sizes are summed through u -> u + sum_i |c_i| v^(2(i-1)).
    """
    top = [0.0] * (2 * order + 1)
    for (i, j), x in p.coeffs.items():
        top[2 * i + j] = max(top[2 * i + j], abs(x))
    top = list(itertools.accumulate(top, max))
    size = Jet2._trusted(order, {(i, j): top[2 * i + j] for i, j in p.coeffs}, FLOAT)
    shift = _shift_jet({i: abs(ci) for i, ci in c.items()}, order, FLOAT)
    return size.substitute(shift, Jet2.variable("v", order, FLOAT))


def bk_recursion(nf, k, prev=None):
    """Solve for c_2..c_k and evaluate xi_2..xi_k; needs a_21 != 0, a_03 = 0.

    Given ``prev``, the trace for k - 1, its c_2..c_{k-1} are kept and only
    c_k is solved, so stepping k up makes one shift per k.  The exact
    constants do not depend on the truncation order, so an exact trace is
    the one solved from scratch; in float mode each c_n keeps the bits of
    the order 2n + 1 it was solved at.

    The shift must kill a_{1,2n-1} for 2 <= n <= k: exactly in exact mode,
    and at the sizes the shift sums into it in float mode.  A nonzero
    one raises InternalConsistencyError.
    """
    a21 = nf.a_(2, 1)
    if nf.is_zero_a(2, 1):
        raise UsageError("bk_recursion requires a_21 != 0")
    if not nf.is_zero_a(0, 3):
        raise UsageError("bk_recursion requires a_03 = 0")
    if prev is not None and prev.k != k - 1:
        raise UsageError(
            "bk_recursion for k = %d continues the trace for k = %d, got %d"
            % (k, k - 1, prev.k)
        )
    order = b_order(k)
    if nf.order < order:
        raise UsageError(
            "normal form order %d too small for B_%d (needs %d)"
            % (nf.order, k, order)
        )
    p = _odd_part_jet(nf, order)
    v = Jet2.variable("v", order, nf.mode)
    c = {} if prev is None else dict(prev.c)
    shifted = None
    for n in range(len(c) + 2, k + 1):
        shifted = p.substitute(_shift_jet(c, order, nf.mode), v)
        c[n] = -shifted.coeff(1, 2 * n - 1) / a21
    if shifted is None or c[k]:  # c_k = 0 leaves the shift as it was
        shifted = p.substitute(_shift_jet(c, order, nf.mode), v)
    sizes = {}  # an exact zero test ignores the scale
    if nf.mode == FLOAT:
        sizes = _term_sizes(p, c, order).coeffs
    trace = BkRecursionTrace(k=k, c=c, scale=max(1.0, sizes.get((0, 2 * k + 1), 0.0)))
    for n in range(2, k + 1):
        trace.xi[n] = shifted.coeff(0, 2 * n + 1)
        a1 = shifted.coeff(1, 2 * n - 1)
        size = max(1.0, sizes.get((1, 2 * n - 1), 0.0))
        if not is_zero(a1, size, nf.mode):
            raise InternalConsistencyError(
                "B_%d shift left %r at u v^%d, not zero at size %.3g" % (k, a1, 2 * n - 1, size)
            )
    return trace


class ClassifyResult(Record):
    __slots__ = _fields = ("mond", "trace")

    def __init__(self, mond, trace=None):
        self.mond = mond
        self.trace = trace  # BkRecursionTrace, or None


def classify(nf, k_max=DEFAULT_K_MAX):
    """Decide the class of a normal form; returns ClassifyResult.  A class
    read off a float normal form carries ``FLOAT_WARNING`` in its report."""
    def indeterminate(reason):
        return ClassifyResult(MondClass(MondTag.INDETERMINATE, reason=reason))

    def first_a_i1(tag, first_k, di, lead):
        """S_k (i = k + 1, lead a_03) or C_k (i = k, lead a_13): the class of
        the first nonzero a_i1, i = k + di, decided at order i + 1; odd k
        take the sign of a_i1 times the lead coefficient."""
        for k in range(first_k, k_max + 1):
            i = k + di
            if nf.order < i + 1:
                return indeterminate(
                    "order %d too small to probe %s_%d (needs %d)"
                    % (nf.order, tag.name, k, i + 1)
                )
            if not nf.is_zero_a(i, 1):
                sign = None if k % 2 == 0 else _sign_of(nf.a_(i, 1) * nf.a_(*lead))
                return ClassifyResult(MondClass(tag, k, sign))
        return indeterminate(
            "a_%d%d != 0 but a_i1 = 0 for all i <= %d" % (*lead, k_max + di)
        )

    if not nf.is_zero_a(0, 3):
        return first_a_i1(MondTag.S, 1, 1, (0, 3))

    a21 = nf.a_(2, 1)
    if not nf.is_zero_a(2, 1):
        trace = None
        for k in range(2, k_max + 1):
            if nf.order < b_order(k):
                return indeterminate(
                    "order %d too small to probe B_%d (needs %d)"
                    % (nf.order, k, b_order(k))
                )
            trace = bk_recursion(nf, k, trace)
            if not is_zero(trace.xi[k], trace.scale, nf.mode):
                sign = _sign_of(trace.xi[k] * a21)
                return ClassifyResult(MondClass(MondTag.B, k, sign), trace)
        return indeterminate("xi_n = 0 for all n <= %d" % k_max)

    if not nf.is_zero_a(1, 3):
        return first_a_i1(MondTag.C, 3, 0, (1, 3))
    if nf.order < F4_ORDER:
        return indeterminate("order %d too small to probe F_4" % nf.order)
    if not nf.is_zero_a(3, 1):
        if not nf.is_zero_a(0, 5):
            return ClassifyResult(MondClass(MondTag.F4))
        return indeterminate("a_31 != 0, a_13 = a_05 = 0: outside the simple classes")
    return indeterminate("a_03 = a_21 = a_13 = a_31 = 0: outside the simple classes")
