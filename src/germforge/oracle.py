"""Independent ground truth for the distance-function analysis.

``split_and_type`` types a critical function jet by the splitting lemma.
On a corank-1 Hessian it solves the critical-curve equation f_u = 0 (or
f_v = 0) for one variable as a power series in the other, one coefficient
at a time, and reads the residual: f restricted to that curve.  The same
curve kernel, ``restriction``, gives ``distance`` its pure-u residual; it
runs on the numerators of either scalar mode (``jets._SPLIT``), ints or
floats, and its coefficients tell it which.
The tests use ``split_and_type`` as an oracle against the closed-form
classifier.
``versality_rank_oracle`` decides R+/K-versality of a 3-parameter family
as a rank condition over the monomials of a jet space.  A module
element's row is its generator's coefficients shifted by the monomial's
exponent, and the rows are eliminated on sparse integer rows.

Both answers are exact, and each has one kernel on Python integers that
the jet-level entry points and ``distance.versality_rank_test`` share:

* ``integer_split`` types a jet given as integer coefficients, any
  nonzero multiple of it (no test depends on the scale).  On corank 1 it
  keeps the critical curve as integer numerators psi over one denominator
  q and composes by the scaled Horner rule acc <- acc * psi + r_i *
  q^(top - i).  ``split_and_type`` clears f to integers over the lcm D of
  its denominators and returns the kernel's type; no residual is divided
  (``distance``'s case 4a divides the one it reads, by D dp q^top).
* ``integer_versality`` builds the rows of integer jets one at a time,
  the column of u^i v^j being d (d + 1) / 2 + j with d = i + j, and
  eliminates them fraction-free: a pivot row is divided by the gcd of its
  entries, a row is reduced as b * row - a * pivot, and the elimination
  stops once every column has a pivot.  It eliminates the rows both
  flavours share (the f_u, f_v module rows and the family rows) once, and
  continues each flavour asked from its own copy of those pivots: R+ with
  the constant row, K with the module rows of f.
  ``versality_rank_oracle`` clears f and each family jet to integers once
  and calls it for one flavour.  ``rank_of_rows`` runs the same
  elimination on rows of any numbers: a row of ints enters as it is, any
  other row is first scaled by the lcm of its denominators, which changes
  no rank.

``versality_rank_test`` makes one integer pass per probe for both
flavours: it builds the probe's distance jet and its family as integers
off the distance base once, calls the split kernel once and the row kernel
at most once, and builds no ``Fraction``; the normal form keeps the last
probe's answers for the other flavour.  Float inputs to ``split_and_type``,
``versality_rank_oracle`` and the rank test are rationalized by
``rationalized``, the one rationalizer (denominators up to 10**6).  A
float entry of a ``rank_of_rows`` row enters exactly, as ``Fraction(x)``
would.
"""

from fractions import Fraction
from math import gcd

from .errors import UsageError
from .jets import EXACT, cleared
from .records import Record

RATIONALIZE_DENOMINATOR = 10**6

R_PLUS = "r-plus"
K_EQUIV = "k"


class SingularityType(Record):
    __slots__ = _fields = ("tag", "k", "corank")

    def __init__(self, tag, k=None, corank=0):
        self.tag = tag            # "Regular" | "A" | "D4" | "MoreDegenerate"
        self.k = k                # for tag "A": the A_k index
        self.corank = corank

    @property
    def label(self):
        if self.tag == "A":
            return "A%d" % self.k
        return self.tag


def split_and_type(f, order=6):
    """Type a function jet with a critical point at the origin.

    A nondegenerate Hessian is A1.  Corank 2 is typed by the discriminant
    of the cubic part (D4 or more degenerate).  Corank 1 is split at its
    critical curve: with c20 != 0 (else with u and v swapped), u = phi(v)
    solves f_u(phi(v), v) = 0, and the residual g(v) = f(phi(v), v) from
    degree 3 on has its lowest degree m at A_{m-1}; a zero residual up to
    ``order`` is MoreDegenerate.  ``order`` (and the jet's own order) must
    be at least 2, or the Hessian would be cut off.  The jet's terms up to
    ``order`` are cleared to integers (``_cleared_terms``, as
    ``versality_rank_oracle`` clears its jets; a float jet is rationalized
    first) and typed by ``integer_split``.
    """
    if isinstance(order, bool) or not isinstance(order, int) or order < 2:
        raise UsageError("split order must be an integer of at least 2, got %r" % (order,))
    if f.order < 2:
        raise UsageError("split_and_type needs a jet of order at least 2, got %d" % f.order)
    order = min(order, f.order)
    return integer_split(_cleared_terms(f, order)[0], order)


def integer_split(f, order):
    """The type of the critical jet whose terms of degree <= ``order`` are
    the integers ``f`` ({(i, j): int}, any nonzero multiple of the jet).

    The kernel of ``split_and_type``.  No decision depends on the scale of
    f: on corank 1 the residual's lowest nonzero degree is read off the
    integer numerators ``restriction`` gives, never divided.
    """
    if f.get((1, 0)) or f.get((0, 1)):
        raise UsageError("split_and_type requires a critical point at the origin")
    c20, c11, c02 = f.get((2, 0), 0), f.get((1, 1), 0), f.get((0, 2), 0)
    if 4 * c20 * c02 - c11 * c11 != 0:
        return SingularityType("A", 1, corank=0)

    if c20 == 0 and c02 == 0 and c11 == 0:
        # corank 2: type by the binary cubic discriminant
        a, b, c, d = (f.get((3 - i, i), 0) for i in range(4))
        disc = (
            18 * a * b * c * d
            - 4 * b**3 * d
            + b**2 * c**2
            - 4 * a * c**3
            - 27 * a**2 * d**2
        )
        return SingularityType("D4" if disc != 0 else "MoreDegenerate", corank=2)

    # corank 1: solve for the variable whose square survives in the Hessian
    # (c20 == 0 forces c11 == 0 and c02 != 0 here)
    g, _ = restriction(f, order, "u" if c20 != 0 else "v")
    m = next((j for j in range(3, order + 1) if g[j]), None)
    if m is None:
        return SingularityType("MoreDegenerate", corank=1)
    return SingularityType("A", m - 1, corank=1)


def _mul_series(a, b, n):
    """Product of dense one-variable series, truncated after degree n."""
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i]):
                if y:
                    out[i + j] += x * y
    return out


def _horner(polys, x, q, n):
    """(q^top * sum_i polys[i](t) * (x(t)/q)^i, top) as a dense series
    truncated after degree n.

    The scaled Horner rule acc <- acc * x + polys[i] * q^(top - i) keeps
    integer series integral.  ``x`` must vanish at 0: with x = O(t^m),
    polys[i] only reaches degrees >= i*m, so the sum stops at
    i = top = n // m.
    """
    m = next((d for d, c in enumerate(x) if c), None)
    top = min(len(polys) - 1, n // m) if m else 0
    acc = polys[top][: n + 1]
    scale = 1
    for i in range(top - 1, -1, -1):
        acc = _mul_series(acc, x, n)
        scale *= q
        for d, c in enumerate(polys[i][: n + 1]):
            if c:
                acc[d] += c if scale == 1 else c * scale
    return acc, top


def restriction(coeffs, order, solve_for):
    """(g, scale): the critical-curve restriction of the jet f with
    coefficients ``coeffs`` (degree <= ``order``) is g / scale, g dense.

    For ``solve_for="u"``, phi(v) = p_1 v + p_2 v^2 + ... solves
    f_u(phi(v), v) = 0 one coefficient at a time,

        p_k = -[v^k] f_u(phi_{<k}(v), v) / (2 c_20),

    and g(v) = f(phi(v), v); ``"v"`` swaps the roles of u and v.  This is
    the splitting lemma: in the coordinates (u - phi(v), v), f is
    c_20 (u - phi)^2 (1 + ...) + g(v).  f must have a critical point at the
    origin and a nonzero coefficient on the square of the solved variable.
    The coefficients are all ints or all floats, the numerators of
    ``jets._SPLIT``, and the square's coefficient tells which.  On ints the
    curve is kept as integer numerators psi over one denominator q, and
    scale = q^top; floats run the same steps with q = scale = 1.
    """
    # rows[i][j]: coefficient of s^i t^j, s the solved variable, t the other
    rows = [[0] * (order + 1) for _ in range(order + 1)]
    for (i, j), c in coeffs.items():
        if solve_for == "v":
            i, j = j, i
        rows[i][j] = c
    lead = 2 * rows[2][0]
    exact = type(lead) is int
    f_s = [[(i + 1) * c for c in row] for i, row in enumerate(rows[1:])]
    # phi mod t^(K+1) with 2K + 2 > order is enough: g is stationary in phi
    # (f_s vanishes on the root), so an O(t^(K+1)) error in the root moves
    # g only at O(t^(2K+2)).  phi = psi / q, q the lcm of its denominators.
    psi, q = [0] * (order // 2 + 1), 1
    for k in range(1, len(psi)):
        acc, top = _horner(f_s, psi, q, k)
        if not exact:
            psi[k] = -acc[k] / lead
            continue
        # p_k = num / d in lowest terms, d > 0
        num, d = -acc[k], lead * q**top
        if d < 0:
            num, d = -num, -d
        g = gcd(num, d)
        num, d = num // g, d // g
        step = d // gcd(q, d)
        if step != 1:
            psi = [c * step for c in psi]
            q *= step
        psi[k] = num * (q // d)
    acc, top = _horner(rows, psi, q, order)
    return acc, q**top


# ---------------------------------------------------------------------------
# versality as a rank condition
# ---------------------------------------------------------------------------


def rationalized(coeffs):
    """({key: int}, D) for a dict of floats: each rationalized with
    denominator at most ``RATIONALIZE_DENOMINATOR``, then put over their lcm
    D.  The one way a float enters the exact oracles."""
    return cleared(
        {k: Fraction(c).limit_denominator(RATIONALIZE_DENOMINATOR) for k, c in coeffs.items()}
    )


def _cleared_terms(jet, top):
    """({key: int}, D): the jet's terms of degree <= ``top`` as ints over
    one denominator, a float jet rationalized first."""
    coeffs = {k: c for k, c in jet.coeffs.items() if k[0] + k[1] <= top}
    if jet.mode != EXACT:
        return rationalized(coeffs)
    return cleared(coeffs)


def _eliminate(rows, columns=None, pivots=None):
    """Rank of sparse integer rows {column: nonzero int}, consumed in order.

    Each row is reduced against the pivot rows found so far, always at its
    lowest nonzero column, as b * row - a * pivot with a / b the lowest-terms
    ratio of the two leading entries.  A row that does not reduce to zero
    becomes the pivot row of that column, divided by the gcd of its entries.
    With ``columns`` given, the rows span at most that many columns, and
    the elimination stops once each of them has a pivot.  With ``pivots``
    given ({column: (lead, rest)}, those of an earlier elimination), the
    elimination continues from them and adds its own pivots to that dict;
    the rank counts both.  The rows are reduced in place; a pivot row is
    never changed once made, so a shallow copy of ``pivots`` can be
    continued apart from the original.
    """
    if pivots is None:
        pivots = {}
    for row in rows:
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                g = gcd(*row.values())
                if g != 1:
                    row = {c: x // g for c, x in row.items()}
                pivots[col] = (row.pop(col), row)
                if len(pivots) == columns:
                    return columns
                break
            lead, rest = pivot
            a = row.pop(col)
            g = gcd(a, lead)
            a, b = a // g, lead // g
            if b != 1:
                row = {c: b * x for c, x in row.items()}
            for c, x in rest.items():
                y = row.get(c, 0) - a * x
                if y:
                    row[c] = y
                else:
                    del row[c]
    return len(pivots)


def rank_of_rows(rows):
    """Rank of a list of row vectors by fraction-free elimination.

    Rows may be dense sequences or sparse {column: value} dicts of ints,
    Fractions or floats (a float enters exactly, as ``Fraction(x)`` would).
    A row of ints enters as it is; any other row is scaled to integers by
    the lcm of its denominators.  The rows are then eliminated as the
    versality kernel eliminates its own (``_eliminate``); the input rows
    are left unchanged.
    """
    def integer_rows():
        for r in rows:
            row = {c: x for c, x in (r.items() if isinstance(r, dict) else enumerate(r)) if x}
            # a row of ints is already cleared
            if not all(type(x) is int for x in row.values()):
                row, _ = cleared(row)
            yield row

    return _eliminate(integer_rows())


def integer_versality(f, family, flavors, order):
    """For each flavour of the tuple ``flavors``, whether the rows of the
    unfolding span the jet space at ``order``: a tuple of those answers.

    The one versality kernel, of ``versality_rank_oracle`` and of
    ``distance``'s probe pass: ``f`` and each jet of ``family`` are
    {(i, j): int} coefficient dicts, each any nonzero multiple of the jet it
    stands for (scaling a generator changes no rank), and terms above the
    order a row reads are ignored.  The column of the monomial u^i v^j is
    idx(i, j) = d (d + 1) / 2 + j with d = i + j, so the shift of a
    generator by u^a v^b adds a + b to the degree and b to j.  The rows are
    built one at a time: the rows both flavours share, the f_u and f_v
    module rows (generator by generator, shifts by degree) then the family
    rows, and after them a flavour's own: the constant row for R+, the
    module rows of f for K.  The shared rows are eliminated once, and the
    elimination stops at full rank; if they span the jet space every
    flavour is versal, else each flavour's rows continue from its own copy
    of the shared pivots.
    """
    tri = [d * (d + 1) // 2 for d in range(order + 2)]
    columns = tri[order + 1]
    # generators as (degree, j, coefficient) terms
    f_u = [(i + j - 1, j, i * c) for (i, j), c in f.items() if i and i + j <= order + 1]
    f_v = [(i + j - 1, j - 1, j * c) for (i, j), c in f.items() if j and i + j <= order + 1]

    def module(gen):
        for shift in range(order + 1):
            # the terms a shift of this degree keeps within the order
            terms = [(tri[e + shift] + j, c) for e, j, c in gen if e + shift <= order]
            if terms:
                for b in range(shift + 1):
                    yield {col + b: c for col, c in terms}

    def shared():
        yield from module(f_u)
        yield from module(f_v)
        for jet in family:
            row = {tri[i + j] + j: c for (i, j), c in jet.items() if i + j <= order}
            if row:
                yield row

    def own(flavor):
        if flavor == R_PLUS:
            return iter(({0: 1},))
        return module([(i + j, j, c) for (i, j), c in f.items() if 0 < i + j <= order])

    pivots = {}
    if _eliminate(shared(), columns, pivots) == columns:
        return (True,) * len(flavors)
    return tuple(_eliminate(own(flavor), columns, dict(pivots)) == columns
                 for flavor in flavors)


def versality_rank_oracle(family_jets, function_jet, flavor, order):
    """True iff the family spans the jet space at the given order.

    ``family_jets`` are the parameter partials of the unfolding at the
    base point; ``function_jet`` is the unfolded function itself.
    Flavor "r-plus" adjoins constants and the Jacobian module of the
    function; flavor "k" adjoins the function (value-normalized) to the
    module and drops the constants.  The row of a module element
    t^m * gen is gen's coefficients shifted by the exponent m.  Only the
    terms of f up to degree order + 1 reach a row; they and each family
    jet's terms up to the order are cleared to integers once (a float jet
    is rationalized first) and handed to ``integer_versality``.
    """
    if flavor not in (R_PLUS, K_EQUIV):
        raise UsageError("flavor must be %r or %r" % (R_PLUS, K_EQUIV))
    if isinstance(order, bool) or not isinstance(order, int) or order < 0:
        raise UsageError("rank order must be a nonnegative integer, got %r" % (order,))
    if function_jet.order < order:
        raise UsageError(
            "function jet order %d below the requested rank order %d"
            % (function_jet.order, order)
        )
    for jet in family_jets:
        if jet.order < order:
            raise UsageError(
                "family jet order %d below the requested rank order %d" % (jet.order, order)
            )
    return integer_versality(
        _cleared_terms(function_jet, order + 1)[0],
        [_cleared_terms(jet, order)[0] for jet in family_jets],
        (flavor,),
        order,
    )[0]
