"""Truncated bivariate power series (jets) over exact rationals or float64.

A Jet2 stores the coefficients of a polynomial in two variables (u, v)
truncated at a fixed total degree.  Coefficients live either in Q
(``fractions.Fraction``, mode "exact") or in float64 (mode "float").
Zero coefficients are never stored, so structural equality is
mathematical equality at the given order.  All operations are pure;
instances are never mutated after construction.
"""

import math
import sys
from fractions import Fraction
from operator import itemgetter, truediv

from .errors import ModeMismatchError, UsageError

EXACT = "exact"
FLOAT = "float"

# Relative threshold under which a float coefficient counts as zero.
FLOAT_ZERO_REL = 1e-9


def is_zero(x, scale=1.0, mode=FLOAT):
    """The one zero test behind every verdict.

    Exact mode compares with 0.  Float mode accepts |x| <= FLOAT_ZERO_REL *
    scale, where the caller passes the magnitude of the data x came from
    (floored at 1 where the site wants an absolute floor).
    """
    if mode == EXACT:
        return x == 0
    return abs(float(x)) <= FLOAT_ZERO_REL * scale


def zero_scale(values, mode):
    """The scale ``is_zero`` takes for a test in ``mode`` on data ``values``:
    the one size rule of the zero tests that size by their input.

    Float mode gives the largest |value|, floored at 1.  Exact mode gives 1
    without iterating ``values``: an exact zero test never reads its scale,
    so exact data pays for no size, and a caller whose sizes cost arithmetic
    passes them lazily (a generator or a map).
    """
    if mode == EXACT:
        return 1
    return max(1.0, max(map(abs, values), default=1.0))


def _as_exact(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, float):
        if not c.is_integer():
            raise UsageError(
                "non-integral float %r cannot enter an exact-mode jet" % c
            )
        return Fraction(int(c))
    raise UsageError("unsupported exact coefficient type %s" % type(c).__name__)


def _as_float(c):
    try:
        x = float(c)
    except OverflowError:
        raise UsageError("float-mode numbers must lie within float range") from None
    if not math.isfinite(x):
        raise UsageError("float-mode numbers must be finite, got %r" % x)
    return x


def scalar(x, mode):
    """The number ``x`` in scalar mode ``mode``: a Fraction, or a finite float.

    The one place that says what a number of a mode is; float mode raises
    UsageError for NaN, an infinity or a value outside float range.
    """
    if mode == EXACT:
        return x if isinstance(x, Fraction) else Fraction(x)
    return _as_float(x)


# the constructor's conversion of a coefficient in each mode
_CONVERT = {EXACT: _as_exact, FLOAT: _as_float}
# the zero of each mode, one shared object each: both are immutable
ZERO = {EXACT: Fraction(0), FLOAT: 0.0}


def cleared(coeffs):
    """({key: int}, D) for the dict ``coeffs`` of rationals: each nonzero
    value times D, the lcm of their denominators, so value = int / D.  Ints,
    Fractions and floats (taken exactly) are accepted; zeros are dropped.

    The one place that puts rationals over one denominator, for the integer
    kernels of the distance jets and the oracles.
    """
    ratios = {k: c.as_integer_ratio() for k, c in coeffs.items() if c}
    den = math.lcm(*[d for _, d in ratios.values()])
    return {k: n * (den // d) for k, (n, d) in ratios.items()}, den


def _accumulate(out, terms):
    """Add ``terms`` into the coefficient dict ``out``, dropping zeros."""
    for k, c in terms.items():
        s = out.get(k)
        if s is None:
            out[k] = c
        else:
            s += c
            if s:
                out[k] = s
            else:
                del out[k]


def _shifted(coeffs, di, dj, order):
    """``coeffs`` times the monomial u^di v^dj, truncated at ``order``."""
    return {
        (i + di, j + dj): c
        for (i, j), c in coeffs.items()
        if i + j + di + dj <= order
    }


def _finite(coeffs, mode):
    """``coeffs``, the result of arithmetic on valid coefficients, as a jet
    holds them.

    Both modes run the same arithmetic, which drops every sum that cancels
    to zero.  A float result has one check left: a coefficient that
    overflowed raises the constructor's UsageError, and one that underflowed
    to zero is dropped.
    """
    if mode == FLOAT:
        vals = coeffs.values()
        if not all(map(math.isfinite, vals)):
            _as_float(next(c for c in vals if not math.isfinite(c)))
        if not all(vals):
            coeffs = {k: c for k, c in coeffs.items() if c}
    return coeffs


def _product(a, b, order, mode):
    """The coefficients of a * b truncated at ``order``: the one jet product,
    run by ``Jet2`` ``*`` and by the expression parser.

    A factor that is one term with coefficient 1, such as a variable power,
    shifts the exponents of the other: 1 * c is c in both modes, so the
    coefficients and their key order are the loop's.  One term times one
    term, the parser's common case, is built directly.
    """
    if len(a) == 1 and len(b) == 1:
        ((i, j), c), = a.items()
        ((di, dj), d), = b.items()
        if i + j + di + dj > order:
            return {}
        key = (i + di, j + dj)
        return {key: c} if d == 1 else {key: d} if c == 1 else _finite({key: c * d}, mode)
    if len(a) == 1 or len(b) == 1:
        unit, other = (a, b) if len(a) == 1 else (b, a)
        ((i, j), c), = unit.items()
        if c == 1:
            return _shifted(other, i, j, order)
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            i, j = i1 + i2, j1 + j2
            if i + j > order:
                continue
            key = (i, j)
            prev = out.get(key)
            out[key] = c1 * c2 if prev is None else prev + c1 * c2
    return _finite({k: c for k, c in out.items() if c}, mode)


def _digit_bits():
    """The bits past which an integer has more digits than int/str
    conversion admits (``sys.get_int_max_str_digits()``, at 10/3 bits a
    digit), or 0 where there is no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() * 10 // 3


def _check_digits(coeffs, bits):
    """Raise ValueError, as int/str conversion would, if a numerator or
    denominator in ``coeffs`` has more than ``bits`` bits (0: no limit).  A
    float has neither: as a ratio of integers its exponent range keeps it
    far below any limit."""
    if bits and any(
            max(abs(getattr(c, "numerator", 0)), getattr(c, "denominator", 1)).bit_length()
            > bits for c in coeffs.values()):
        raise ValueError("a power has a coefficient of more than %d bits" % bits)


def _square_and_multiply(a, n, product):
    """a^n (n >= 1) from the lowest bit: popcount(n) - 1 products into the
    result and one square per bit above the lowest, each ``product(x, y)``."""
    while not n & 1:
        a = product(a, a)
        n >>= 1
    result = a
    n >>= 1
    while n:
        a = product(a, a)
        if n & 1:
            result = product(result, a)
        n >>= 1
    return result


def _power(a, n, order, mode):
    """The coefficients of a^n truncated at ``order``: the one jet power, run
    by ``Jet2`` ``**`` and by the expression parser.

    A single term with coefficient 1 needs no product: its power is the
    exponent shift n times.  Past the order, a base c0 (1 + x/c0) with
    constant term c0 = 1 or -1 is the binomial sum c0^n sum_{j <= order}
    C(n, j) (x/c0)^j: x has no constant term, so x^j vanishes past the
    order, and ``order`` products on the base's own numbers replace the
    squares whose coefficients grow with n.  Any other power runs
    square-and-multiply.  A coefficient past the digit limit
    (``_digit_bits``) raises ValueError (``_check_digits``), in the sum or in
    a product before the next square can double it; a float coefficient past
    float range raises the constructor's UsageError.
    """
    if not n:
        return {(0, 0): scalar(1, mode)}
    if len(a) == 1:
        ((i, j), c), = a.items()
        if c == 1:
            return {(n * i, n * j): c} if n * (i + j) <= order else {}
    bits = _digit_bits()
    c0 = a.get((0, 0))
    if n > order and c0 in (1, -1):
        sign = c0 ** (n & 1)  # a float c0 ** n would round n to a float
        x = {k: c * c0 for k, c in a.items() if k != (0, 0)}
        out, xj, binom = {(0, 0): sign}, {(0, 0): 1}, 1
        for j in range(1, order + 1):
            xj = _product(xj, x, order, mode)
            binom = binom * (n - j + 1) // j
            b = scalar(binom, mode) * sign
            _accumulate(out, {k: b * c for k, c in xj.items()})
        _check_digits(out, bits)
        return _finite(out, mode)

    def product(x, y):
        out = _product(x, y, order, mode)
        _check_digits(out, bits)
        return out

    return _square_and_multiply(a, n, product)


def _geometric(x, n):
    """[1, x, x^2, ..., x^n], each the one before times x, as the power
    chain of a one-term substitution forms them."""
    out = [1]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


def _by_u(coeffs):
    """``coeffs`` with its keys grouped by the power of u, in the order of
    each group's first key, as the rows of a substitution group them."""
    rows = {}
    for key, c in coeffs.items():
        rows.setdefault(key[0], {})[key] = c
    return {k: c for row in rows.values() for k, c in row.items()}


# a coefficient dict as (numerators, common denominator), and a numerator
# and denominator as a coefficient: the one numerator convention of both
# modes, for jet composition and the distance kernels.  Exact values become
# ints over the lcm of their denominators; float values stay as they are,
# over 1, and a float over 1 keeps every bit.  A float numerator may be an
# int zero, which joins as 0.0.
_SPLIT = {EXACT: cleared, FLOAT: lambda coeffs: (coeffs, 1)}
_JOIN = {EXACT: Fraction, FLOAT: truediv}


class _Powers:
    """The powers of one substitution (u, v) -> (u_new, v_new), on the
    numerators U = Du * u_new and V = Dv * v_new (``_SPLIT``), and the powers
    of Du and Dv.

    Built on demand, in the order repeated products give them, and shared
    by every jet composed in the step.  An unchanged coordinate (u_new is u,
    v_new is v) never extends its list: its powers are monomials with
    coefficient 1, applied as exponent shifts.  A diagonal step (u_new = a u,
    v_new = b v) builds no jet power: ``u`` and ``v`` hold the powers of the
    numbers a and b.
    """

    __slots__ = ("order", "mode", "u_fixed", "v_fixed", "diagonal", "u", "v", "du", "dv")

    def __init__(self, u_new, v_new):
        if (0, 0) in u_new.coeffs or (0, 0) in v_new.coeffs:
            raise UsageError("substitution expressions must have zero constant term")
        order = self.order = u_new.order
        self.mode = u_new.mode
        self.u_fixed = u_new.coeffs == {(1, 0): 1}
        self.v_fixed = v_new.coeffs == {(0, 1): 1}
        self.diagonal = u_new.coeffs.keys() == {(1, 0)} and v_new.coeffs.keys() == {(0, 1)}
        if self.diagonal:  # the powers of a and b; an unchanged coordinate's go unread
            self.u = None if self.u_fixed else _geometric(u_new.coeffs[(1, 0)], order)
            self.v = None if self.v_fixed else _geometric(v_new.coeffs[(0, 1)], order)
            return
        split = _SPLIT[self.mode]
        u, du = split(u_new.coeffs)
        v, dv = split(v_new.coeffs)
        self.u, self.v = [{(0, 0): 1}, u], [{(0, 0): 1}, v]
        self.du, self.dv = _geometric(du, order), _geometric(dv, order)

    def upto(self, pows, n):
        """``pows`` (``self.u`` or ``self.v``) through entry n, extended by
        the products pows[k - 1] * pows[1]."""
        while len(pows) <= n:
            pows.append(_product(pows[-1], pows[1], self.order, self.mode))
        return pows


class Jet2:
    """Sparse polynomial in (u, v) truncated at total degree ``order``."""

    __slots__ = ("order", "mode", "coeffs")

    def __init__(self, order, coeffs=None, mode=EXACT):
        if not isinstance(order, int) or order < 0:
            raise UsageError("jet order must be a nonnegative integer")
        if mode not in (EXACT, FLOAT):
            raise UsageError("mode must be 'exact' or 'float'")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "mode", mode)
        clean = {}
        if coeffs:
            conv = _CONVERT[mode]
            for (i, j), c in coeffs.items():
                if i < 0 or j < 0:
                    raise UsageError("negative exponent (%d, %d)" % (i, j))
                if i + j <= order:
                    c = conv(c)
                    if c:
                        clean[(i, j)] = c
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def _trusted(cls, order, coeffs, mode=EXACT):
        """Jet over ``coeffs`` as given, without validation.

        Only for data that already holds what the constructor would: every
        key is within ``order``, every value is a nonzero Fraction (exact) or
        a nonzero finite float (float).
        """
        jet = object.__new__(cls)
        object.__setattr__(jet, "order", order)
        object.__setattr__(jet, "mode", mode)
        object.__setattr__(jet, "coeffs", coeffs)
        return jet

    @classmethod
    def _result(cls, order, coeffs, mode):
        """Jet over ``coeffs``, the result of arithmetic on valid jets
        (checked by ``_finite``)."""
        return cls._trusted(order, _finite(coeffs, mode), mode)

    def __setattr__(self, name, value):
        raise AttributeError("Jet2 is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, order, mode=EXACT):
        return cls.const(0, order, mode)

    @classmethod
    def const(cls, value, order, mode=EXACT):
        return cls(order, {(0, 0): value}, mode)

    @classmethod
    def variable(cls, name, order, mode=EXACT):
        if name == "u":
            return cls(order, {(1, 0): 1}, mode)
        if name == "v":
            return cls(order, {(0, 1): 1}, mode)
        raise UsageError("variable must be 'u' or 'v'")

    # -- basic queries -----------------------------------------------

    def coeff(self, i, j):
        return self.coeffs.get((i, j), ZERO[self.mode])

    def is_zero(self):
        return not self.coeffs

    def constant_term(self):
        return self.coeff(0, 0)

    # -- structural comparison ---------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Jet2):
            return NotImplemented
        return (
            self.order == other.order
            and self.mode == other.mode
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.mode, frozenset(self.coeffs.items())))

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other):
        if self.mode != other.mode:
            raise ModeMismatchError(
                "cannot combine %s-mode and %s-mode jets" % (self.mode, other.mode)
            )
        if self.order != other.order:
            raise ModeMismatchError(
                "cannot combine jets of orders %d and %d" % (self.order, other.order)
            )

    def __add__(self, other):
        if not isinstance(other, Jet2):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.coeffs)
        _accumulate(out, other.coeffs)
        return Jet2._result(self.order, out, self.mode)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Jet2._trusted(self.order, {k: -c for k, c in self.coeffs.items()}, self.mode)

    def __mul__(self, other):
        order, mode = self.order, self.mode
        if isinstance(other, Jet2):
            self._check_compatible(other)
            return Jet2._trusted(order, _product(self.coeffs, other.coeffs, order, mode), mode)
        # scalar
        other = _CONVERT[mode](other)
        out = {k: c * other for k, c in self.coeffs.items()} if other else {}
        return Jet2._result(order, out, mode)

    def __rmul__(self, other):
        return self * other

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise UsageError("jet exponent must be a nonnegative integer")
        return Jet2._trusted(self.order, _power(self.coeffs, n, self.order, self.mode), self.mode)

    # -- calculus / composition --------------------------------------

    def partial(self, var):
        """Formal partial derivative; the truncation order drops by one."""
        if var not in ("u", "v"):
            raise UsageError("var must be 'u' or 'v'")
        new_order = max(self.order - 1, 0)
        out = {}
        for (i, j), c in self.coeffs.items():
            if var == "u" and i > 0:
                out[(i - 1, j)] = c * i
            elif var == "v" and j > 0:
                out[(i, j - 1)] = c * j
        return Jet2(new_order, out, self.mode)

    def substitute(self, u_new, v_new):
        """Compose with (u, v) -> (u_new, v_new); both must vanish at 0."""
        self._check_compatible(u_new)
        self._check_compatible(v_new)
        return self._compose(_Powers(u_new, v_new))

    def _compose(self, powers):
        """The jet at (u_new, v_new), with the powers of one ``_Powers``.

        With c_ij = n_ij / D, u_new = U / Du and v_new = V / Dv, the jet is
        sum_ij n_ij Du^(I-i) Dv^(J-j) U^i V^j over D Du^I Dv^J (I and J the
        jet's top powers of u and v): one pass on numerators, and one
        division per output coefficient.  The terms are summed in rows, one
        per power of u (sum_j c_ij v_new^j, then times u_new^i), in the
        order of the jet's keys.  Every partial sum is the rational one
        times the positive denominator, so it cancels, and drops its key,
        where the rational sum does.  A row term that u^i would push past
        the order is never formed.  A diagonal step scales c_ij by a^i b^j,
        keys grouped by the power of u as the rows group them, and the
        identity only groups them.  Float jets run the same loop over
        denominator 1.
        """
        order, mode = self.order, self.mode
        if powers.diagonal:
            acc = _by_u(self.coeffs)
            if not powers.v_fixed:
                acc = {(i, j): c * powers.v[j] for (i, j), c in acc.items()}
            if not powers.u_fixed:
                acc = {(i, j): c * powers.u[i] for (i, j), c in acc.items()}
            return Jet2._result(order, acc, mode)
        nums, den = _SPLIT[mode](self.coeffs)
        top_i = max(nums, default=(0, 0))[0]
        top_j = max(map(itemgetter(1), nums), default=0)
        u_scale = powers.du[top_i::-1]  # Du^(I - i)
        v_scale = powers.dv[top_j::-1]
        den *= u_scale[0] * v_scale[0]
        u_fixed, v_fixed = powers.u_fixed, powers.v_fixed
        v_pows = None if v_fixed else powers.upto(powers.v, top_j)
        # sum_i u_new^i * (sum_j c_ij v_new^j): one row per power of u
        rows = {}
        for (i, j), n in nums.items():
            row = rows.setdefault(i, {})
            t = n * u_scale[i] * v_scale[j]
            if v_fixed or j == 0:
                row[(0, j)] = t  # v^j: no other term of the row has this key
                continue
            room = order - i
            for key, x in v_pows[j].items():
                if key[0] + key[1] <= room:
                    s = row.get(key)
                    if s is None:
                        row[key] = t * x
                    else:
                        s += t * x
                        if s:
                            row[key] = s
                        else:
                            del row[key]
        u_pows = None if u_fixed else powers.upto(powers.u, top_i)
        acc = {}
        for i, row in rows.items():
            if i and not u_fixed:
                row = _product(u_pows[i], row, order, mode)
            elif i:
                row = {(p + i, q): t for (p, q), t in row.items()}
            _accumulate(acc, row)
        join = _JOIN[mode]
        return Jet2._result(order, {k: join(n, den) for k, n in acc.items()}, mode)

    def truncate(self, new_order):
        """The terms of degree <= ``new_order``."""
        if new_order > self.order:
            raise UsageError("truncate cannot raise the order; use with_order")
        return Jet2._trusted(
            new_order,
            {k: c for k, c in self.coeffs.items() if k[0] + k[1] <= new_order},
            self.mode,
        )

    def with_order(self, new_order):
        """Reinterpret at another order (valid when the data is a polynomial);
        the jet itself at its own order."""
        if new_order == self.order:
            return self
        if new_order < self.order:
            return self.truncate(new_order)
        return Jet2._trusted(new_order, dict(self.coeffs), self.mode)

    def to_float(self):
        """The jet in float mode; the constructor converts each coefficient
        as ``scalar`` does."""
        if self.mode == FLOAT:
            return self
        return Jet2(self.order, self.coeffs, FLOAT)

    def evaluate(self, u_val, v_val):
        """Evaluate as a polynomial; supports scalars and numpy arrays.  The
        one-jet case of ``_evaluate_jets``, which gives each term's arithmetic."""
        return _evaluate_jets((self,), u_val, v_val)[0]

    # -- display -------------------------------------------------------

    def __repr__(self):
        # germ_io imports this module, so its printer is imported here
        from .germ_io import print_polynomial

        return f"Jet2[{self.mode}, order={self.order}]({print_polynomial(self)})"


def _evaluate_jets(jets, u_val, v_val):
    """The values of ``jets`` at (u_val, v_val), scalars or numpy arrays.

    Each value is the sum, left to right in key order, of c * u**i * v**j
    per term, c * (u*0 + 1) for a constant term, or u*0 for a zero jet.  The
    powers u**i and v**j and u*0 + 1 are formed once, at first use, and
    shared by every term of every jet; the table goes when the call returns.
    """
    upow, vpow, one = {}, {}, None
    values = []
    for jet in jets:
        total = None
        for (i, j), c in jet.coeffs.items():
            if i or j:
                if i not in upow:
                    upow[i] = u_val**i
                if j not in vpow:
                    vpow[j] = v_val**j
                term = c * upow[i] * vpow[j]
            else:
                if one is None:
                    one = u_val * 0 + 1
                term = c * one
            total = term if total is None else total + term
        values.append(u_val * 0 if total is None else total)
    return values


class GermJets:
    """A map-germ (R^2,0) -> (R^3,0) given by three jets of common order."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x, y, z):
        x._check_compatible(y)
        x._check_compatible(z)
        for name, comp in (("x", x), ("y", y), ("z", z)):
            if comp.constant_term():
                raise UsageError("germ component %s must vanish at the origin" % name)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    def __setattr__(self, name, value):
        raise AttributeError("GermJets is immutable")

    @property
    def order(self):
        return self.x.order

    @property
    def mode(self):
        return self.x.mode

    def components(self):
        return (self.x, self.y, self.z)

    def substitute(self, u_new, v_new):
        """Compose every component with (u, v) -> (u_new, v_new); the powers
        are built once for the three."""
        self.x._check_compatible(u_new)
        self.x._check_compatible(v_new)
        powers = _Powers(u_new, v_new)
        return GermJets(*(comp._compose(powers) for comp in self.components()))

    def rotate(self, matrix):
        """Apply a 3x3 matrix (rows of scalars) to the component triple."""
        comps = self.components()
        new = []
        for row in matrix:
            acc = Jet2.zero(self.order, self.mode)
            for entry, comp in zip(row, comps):
                if entry:
                    acc = acc + comp * entry
            new.append(acc)
        return GermJets(*new)

    def to_float(self):
        return GermJets(self.x.to_float(), self.y.to_float(), self.z.to_float())

    def linear_part(self):
        """3x2 matrix of the differential at the origin (rows per component)."""
        return [
            [comp.coeff(1, 0), comp.coeff(0, 1)] for comp in self.components()
        ]

    def __eq__(self, other):
        if not isinstance(other, GermJets):
            return NotImplemented
        return self.components() == other.components()

    def __repr__(self):
        return "GermJets(%r, %r, %r)" % self.components()
