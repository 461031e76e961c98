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
rather than by evaluating the combinatorial sum formulas; the two agree
and the substitution route is immune to transcription slips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .errors import UsageError
from .jets import FLOAT, Jet2, is_zero, scalar

DEFAULT_K_MAX = 8

# Jet order needed to decide each class (its determinacy degree).
def s_order(k):
    return k + 2


def b_order(k):
    return 2 * k + 1


def c_order(k):
    return k + 1


F4_ORDER = 5


class MondTag(Enum):
    IMMERSION = "Immersion"
    CROSS_CAP = "S0"
    S = "S"
    B = "B"
    C = "C"
    F4 = "F4"
    TWO_JET_UV = "TwoJetUV"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class MondClass:
    tag: MondTag
    k: Optional[int] = None
    sign: Optional[str] = None
    reason: Optional[str] = None

    def __post_init__(self):
        if self.tag is MondTag.S and (self.k is None or self.k < 1):
            raise UsageError("S requires k >= 1")
        if self.tag is MondTag.B and (self.k is None or self.k < 2):
            raise UsageError("B requires k >= 2")
        if self.tag is MondTag.C and (self.k is None or self.k < 3):
            raise UsageError("C requires k >= 3")
        if self.tag in (MondTag.S, MondTag.C) and self.k is not None:
            if (self.k % 2 == 0) != (self.sign is None):
                raise UsageError("sign must be absent exactly for even k")

    @property
    def label(self):
        if self.tag in (MondTag.S, MondTag.B, MondTag.C):
            return "%s%d%s" % (self.tag.name, self.k, self.sign or "")
        return self.tag.value


@dataclass
class BkRecursionTrace:
    """Shift constants and the resulting odd-coefficient invariants."""

    k: int
    c: dict = field(default_factory=dict)        # i -> c_i, 2 <= i <= k
    xi: dict = field(default_factory=dict)       # n -> xi_n, 2 <= n <= k
    a1hat: dict = field(default_factory=dict)    # n -> coefficient of u v^(2n-1)
    scale: float = 1.0                           # magnitude of the shifted jet


def _sign_of(x):
    if x == 0:
        return None
    return "+" if x > 0 else "-"


def _odd_part_jet(nf, order):
    """Jet of the third component keeping only odd powers of v."""
    terms = {}
    for (i, j), aij in nf.a.items():
        if j % 2 == 1 and i + j <= order:
            terms[(i, j)] = scalar(aij, nf.mode) / (
                math.factorial(i) * math.factorial(j)
            )
    return Jet2(order, terms, nf.mode)


def _shift_jet(c, order, mode):
    """u + sum_i c_i v^(2(i-1)) as a jet."""
    terms = {(1, 0): 1}
    for i, ci in c.items():
        terms[(0, 2 * (i - 1))] = ci
    return Jet2(order, terms, mode)


def bk_recursion(nf, k, prev=None):
    """Solve for c_2..c_k and evaluate xi_2..xi_k; needs a_21 != 0, a_03 = 0.

    Given ``prev``, the trace for k - 1, its c_2..c_{k-1} are kept and only
    c_k is solved, so stepping k up makes one shift per k.  The exact
    constants do not depend on the truncation order, so an exact trace is
    the one solved from scratch; in float mode each c_n keeps the bits of
    the order 2n + 1 it was solved at.
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
        alpha = shifted.coeff(1, 2 * n - 1)
        c[n] = -alpha / a21
    if shifted is None or c[k]:  # c_k = 0 leaves the shift as it was
        shifted = p.substitute(_shift_jet(c, order, nf.mode), v)
    trace = BkRecursionTrace(k=k, c=c)
    trace.scale = max(1.0, float(shifted.max_abs()))
    for n in range(2, k + 1):
        trace.xi[n] = shifted.coeff(0, 2 * n + 1)
        trace.a1hat[n] = shifted.coeff(1, 2 * n - 1)
    return trace


def verify_by_substitution(nf, trace, k):
    """Re-expand the shifted jet and confirm the defining properties of the trace."""
    order = b_order(k)
    if nf.order < order:
        return False
    p = _odd_part_jet(nf, order)
    v = Jet2.variable("v", order, nf.mode)
    final = p.substitute(_shift_jet(trace.c, order, nf.mode), v)
    scale = max(1.0, float(final.max_abs()))
    for j in range(2, k + 1):
        if not is_zero(final.coeff(1, 2 * j - 1), scale, nf.mode):
            return False
    for n in range(2, k + 1):
        lhs, rhs = final.coeff(0, 2 * n + 1), trace.xi.get(n)
        if rhs is None or not is_zero(lhs - rhs, scale, nf.mode):
            return False
    return True


@dataclass
class ClassifyResult:
    mond: MondClass
    trace: Optional[BkRecursionTrace] = None
    warnings: list = field(default_factory=list)


def classify(nf, k_max=DEFAULT_K_MAX):
    """Decide the class of a normal form; returns ClassifyResult."""
    warnings = []
    if nf.mode == FLOAT:
        warnings.append(
            "float-mode zero tests (threshold 1e-9 relative): "
            "classification is numerically certified only"
        )
    def indeterminate(reason):
        return ClassifyResult(
            MondClass(MondTag.INDETERMINATE, reason=reason), None, warnings
        )

    a03 = nf.a_(0, 3)
    if not nf.is_zero_a(0, 3):
        for k in range(1, k_max + 1):
            if nf.order < s_order(k):
                return indeterminate(
                    "order %d too small to probe S_%d (needs %d)"
                    % (nf.order, k, s_order(k))
                )
            if not nf.is_zero_a(k + 1, 1):
                ak1 = nf.a_(k + 1, 1)
                sign = None if k % 2 == 0 else _sign_of(ak1 * a03)
                return ClassifyResult(MondClass(MondTag.S, k, sign), None, warnings)
        return indeterminate("a_03 != 0 but a_i1 = 0 for all i <= %d" % (k_max + 1))

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
                return ClassifyResult(MondClass(MondTag.B, k, sign), trace, warnings)
        return indeterminate("xi_n = 0 for all n <= %d" % k_max)

    a13 = nf.a_(1, 3)
    if not nf.is_zero_a(1, 3):
        for m in range(3, k_max + 1):
            if nf.order < c_order(m):
                return indeterminate(
                    "order %d too small to probe C_%d (needs %d)"
                    % (nf.order, m, c_order(m))
                )
            if not nf.is_zero_a(m, 1):
                am1 = nf.a_(m, 1)
                sign = None if m % 2 == 0 else _sign_of(am1 * a13)
                return ClassifyResult(MondClass(MondTag.C, m, sign), None, warnings)
        return indeterminate("a_13 != 0 but a_i1 = 0 for all i <= %d" % k_max)
    if nf.order < F4_ORDER:
        return indeterminate("order %d too small to probe F_4" % nf.order)
    if not nf.is_zero_a(3, 1):
        if not nf.is_zero_a(0, 5):
            return ClassifyResult(MondClass(MondTag.F4), None, warnings)
        return indeterminate("a_31 != 0, a_13 = a_05 = 0: outside the simple classes")
    return indeterminate("a_03 = a_21 = a_13 = a_31 = 0: outside the simple classes")
