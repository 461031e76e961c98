"""Independent ground truth for the distance-function analysis.

``split_and_type`` types a critical function jet by the splitting lemma.
On a corank-1 Hessian it solves the critical-curve equation f_u = 0 (or
f_v = 0) for one variable as a power series in the other, one coefficient
at a time, and reads the residual: f restricted to that curve.  The same
kernel, ``critical_curve_restriction``, gives ``distance`` its pure-u
residual.  The tests use ``split_and_type`` as an oracle against the
closed-form classifier.
``versality_rank_oracle`` decides R+/K-versality of a 3-parameter family
as a rank condition over the monomial basis of a jet space.  A module
element's row is its generator's coefficients shifted by the monomial's
exponent, and ``rank_of_rows`` eliminates on sparse rows.

Everything here runs in exact rational arithmetic; float inputs are
rationalized (denominators up to 10**6) with a warning recorded.  Only
``critical_curve_restriction`` also accepts float jets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import SingularSeriesError, UsageError
from .jets import EXACT, Jet2

RATIONALIZE_DENOMINATOR = 10**6

R_PLUS = "r-plus"
K_EQUIV = "k"


@dataclass
class SingularityType:
    tag: str                      # "Regular" | "A" | "D4" | "MoreDegenerate"
    k: Optional[int] = None       # for tag "A": the A_k index
    corank: int = 0
    residual: Optional[Jet2] = None
    warnings: list = field(default_factory=list)

    @property
    def label(self):
        if self.tag == "A":
            return "A%d" % self.k
        return self.tag


def _exactify(jet, warnings):
    if jet.mode == EXACT:
        return jet
    warnings.append(
        "float jet rationalized with denominator bound %d" % RATIONALIZE_DENOMINATOR
    )
    return jet.to_exact(RATIONALIZE_DENOMINATOR)


def split_and_type(f, order=6):
    """Type a function jet with a critical point at the origin.

    A nondegenerate Hessian is A1.  Corank 2 is typed by the discriminant
    of the cubic part (D4 or more degenerate).  Corank 1 is split at its
    critical curve: with c20 != 0 (else with u and v swapped), u = phi(v)
    solves f_u(phi(v), v) = 0, and the residual g(v) = f(phi(v), v) from
    degree 3 on is stored as a jet in v.  Its lowest degree m gives A_{m-1};
    a zero residual up to ``order`` is MoreDegenerate.
    """
    warnings = []
    f = _exactify(f, warnings)
    if f.order < order:
        order = f.order
    f = f.truncate(order)
    if f.coeff(1, 0) != 0 or f.coeff(0, 1) != 0:
        raise UsageError("split_and_type requires a critical point at the origin")

    c20, c11, c02 = f.coeff(2, 0), f.coeff(1, 1), f.coeff(0, 2)
    det = 4 * c20 * c02 - c11 * c11
    if det != 0:
        return SingularityType("A", 1, corank=0, warnings=warnings)

    if c20 == 0 and c02 == 0 and c11 == 0:
        # corank 2: type by the binary cubic discriminant
        a, b = f.coeff(3, 0), f.coeff(2, 1)
        c, d = f.coeff(1, 2), f.coeff(0, 3)
        disc = (
            18 * a * b * c * d
            - 4 * b**3 * d
            + b**2 * c**2
            - 4 * a * c**3
            - 27 * a**2 * d**2
        )
        if disc != 0:
            return SingularityType("D4", corank=2, warnings=warnings)
        return SingularityType("MoreDegenerate", corank=2, warnings=warnings)

    # corank 1: solve for the variable whose square survives in the Hessian
    # (c20 == 0 forces c11 == 0 and c02 != 0 here)
    g = critical_curve_restriction(f, "u" if c20 != 0 else "v")
    residual = Jet2(order, {(0, j): g[j] for j in range(3, order + 1) if g[j]}, EXACT)
    if residual.is_zero():
        return SingularityType(
            "MoreDegenerate", corank=1, residual=residual, warnings=warnings
        )
    m = min(j for (_, j) in residual.coeffs)
    return SingularityType("A", m - 1, corank=1, residual=residual, warnings=warnings)


def _mul_series(a, b, n):
    """Product of dense one-variable series, truncated after degree n."""
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i]):
                if y:
                    out[i + j] += x * y
    return out


def _horner(polys, x, n):
    """sum_i polys[i](t) * x(t)^i as a dense series truncated after degree n.

    ``x`` must vanish at 0: with x = O(t^m), polys[i] only reaches
    degrees >= i*m, so the sum stops at i = n // m.
    """
    m = next((d for d, c in enumerate(x) if c), None)
    top = min(len(polys) - 1, n // m) if m else 0
    acc = polys[top][: n + 1]
    for i in range(top - 1, -1, -1):
        acc = _mul_series(acc, x, n)
        for d, c in enumerate(polys[i][: n + 1]):
            if c:
                acc[d] += c
    return acc


def critical_curve_restriction(f, solve_for="u"):
    """Dense coefficients g[0..order] of f restricted to its critical curve.

    For ``solve_for="u"``, phi(v) = p_1 v + p_2 v^2 + ... solves
    f_u(phi(v), v) = 0 one coefficient at a time,

        p_k = -[v^k] f_u(phi_{<k}(v), v) / (2 c_20),

    and g(v) = f(phi(v), v).  ``solve_for="v"`` swaps the roles of u and v.
    This is the splitting lemma: in the coordinates (u - phi(v), v), f is
    c_20 (u - phi)^2 (1 + ...) + g(v).  f must have a critical point at
    the origin and a nonzero coefficient on the square of the solved
    variable.  Works over Fractions or floats.
    """
    if solve_for not in ("u", "v"):
        raise UsageError("solve_for must be 'u' or 'v'")
    lead = 2 * f.coeff(*((2, 0) if solve_for == "u" else (0, 2)))
    if not lead:
        raise SingularSeriesError("critical curve: the %s^2 coefficient vanishes" % solve_for)
    order = f.order
    # rows[i][j]: coefficient of s^i t^j, s the solved variable, t the other
    rows = [[0] * (order + 1) for _ in range(order + 1)]
    for (i, j), c in f.coeffs.items():
        if solve_for == "v":
            i, j = j, i
        rows[i][j] = c
    f_s = [[(i + 1) * c for c in row] for i, row in enumerate(rows[1:])]
    # phi mod t^(K+1) with 2K + 2 > order is enough: g is stationary in phi
    # (f_s vanishes on the root), so an O(t^(K+1)) error in the root moves
    # g only at O(t^(2K+2)).
    phi = [0] * (order // 2 + 1)
    for k in range(1, len(phi)):
        phi[k] = -_horner(f_s, phi, k)[k] / lead
    zero = Fraction(0) if f.mode == EXACT else 0.0
    return [c or zero for c in _horner(rows, phi, order)]


# ---------------------------------------------------------------------------
# versality as a rank condition
# ---------------------------------------------------------------------------


def _monomials_upto(order):
    return [(i, j) for d in range(order + 1) for i in range(d, -1, -1) for j in [d - i]]


def _row(coeffs, basis_index, order, shift=(0, 0)):
    """Sparse row {basis column: coefficient} of t^shift * sum(coeffs)."""
    si, sj = shift
    return {
        basis_index[(i + si, j + sj)]: c
        for (i, j), c in coeffs.items()
        if i + j + si + sj <= order
    }


def rank_of_rows(rows):
    """Rank of a list of Fraction row vectors by exact elimination.

    Rows may be dense sequences or sparse {column: value} dicts.  Each row
    is reduced against the pivot rows found so far, always at its lowest
    nonzero column; a row that does not reduce to zero becomes the pivot
    row of that column, scaled so that its leading entry is 1.
    """
    pivots = {}
    for r in rows:
        row = dict(r) if isinstance(r, dict) else {c: x for c, x in enumerate(r) if x}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                lead = row.pop(col)
                pivots[col] = {c: x / lead for c, x in row.items()}
                break
            factor = row.pop(col)
            for c, x in pivot.items():
                y = row.get(c, 0) - factor * x
                if y:
                    row[c] = y
                else:
                    del row[c]
    return len(pivots)


def versality_rank_oracle(family_jets, function_jet, flavor, order):
    """True iff the family spans the jet space at the given order.

    ``family_jets`` are the parameter partials of the unfolding at the
    base point; ``function_jet`` is the unfolded function itself.
    Flavor "r-plus" adjoins constants and the Jacobian module of the
    function; flavor "k" adjoins the function (value-normalized) to the
    module and drops the constants.  The row of a module element
    t^m * gen is gen's coefficients shifted by the exponent m.
    """
    if flavor not in (R_PLUS, K_EQUIV):
        raise UsageError("flavor must be %r or %r" % (R_PLUS, K_EQUIV))
    if function_jet.order < order:
        raise UsageError(
            "function jet order %d below the requested rank order %d"
            % (function_jet.order, order)
        )
    warnings = []
    f = _exactify(function_jet, warnings)
    fam = [_exactify(j, warnings) for j in family_jets]
    basis = _monomials_upto(order)
    basis_index = {m: idx for idx, m in enumerate(basis)}

    module_gens = [f.partial("u").coeffs, f.partial("v").coeffs]
    if flavor == K_EQUIV:
        module_gens.append({k: c for k, c in f.coeffs.items() if k != (0, 0)})

    rows = [_row(gen, basis_index, order, m) for gen in module_gens for m in basis]
    rows.extend(_row(jet.coeffs, basis_index, order) for jet in fam)
    if flavor == R_PLUS:
        rows.append({basis_index[(0, 0)]: Fraction(1)})
    return rank_of_rows(rows) == len(basis)
