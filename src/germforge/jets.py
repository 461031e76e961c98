"""Truncated bivariate power series (jets) over exact rationals or float64.

A Jet2 stores the coefficients of a polynomial in two variables (u, v)
truncated at a fixed total degree.  Coefficients live either in Q
(``fractions.Fraction``, mode "exact") or in float64 (mode "float").
Zero coefficients are never stored, so structural equality is
mathematical equality at the given order.  All operations are pure;
instances are never mutated after construction.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ModeMismatchError, SingularSeriesError, UsageError

EXACT = "exact"
FLOAT = "float"

# Relative threshold under which a float coefficient counts as zero.
FLOAT_ZERO_REL = 1e-9


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
    x = float(c)
    if not math.isfinite(x):
        raise UsageError("float-mode coefficients must be finite, got %r" % x)
    return x


def _accumulate(out, terms):
    """Add exact ``terms`` into the coefficient dict ``out``, dropping zeros."""
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
            conv = _as_exact if mode == EXACT else _as_float
            for (i, j), c in coeffs.items():
                if i < 0 or j < 0:
                    raise UsageError("negative exponent (%d, %d)" % (i, j))
                if i + j > order:
                    continue
                c = conv(c)
                if c:
                    key = (i, j)
                    if key in clean:
                        clean[key] += c
                        if not clean[key]:
                            del clean[key]
                    else:
                        clean[key] = c
            if mode == FLOAT and clean:
                floor = FLOAT_ZERO_REL * max(1.0, max(abs(c) for c in clean.values()))
                clean = {k: c for k, c in clean.items() if abs(c) > floor}
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def _trusted(cls, order, coeffs):
        """Exact-mode jet over ``coeffs`` as given, without validation.

        Only for results of exact arithmetic on validated jets: every key
        is within ``order`` and every value is a nonzero Fraction.
        """
        jet = object.__new__(cls)
        object.__setattr__(jet, "order", order)
        object.__setattr__(jet, "mode", EXACT)
        object.__setattr__(jet, "coeffs", coeffs)
        return jet

    def __setattr__(self, name, value):
        raise AttributeError("Jet2 is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, order, mode=EXACT):
        return cls(order, {}, mode)

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

    @classmethod
    def monomial(cls, i, j, c, order, mode=EXACT):
        return cls(order, {(i, j): c}, mode)

    # -- basic queries -----------------------------------------------

    def coeff(self, i, j):
        zero = Fraction(0) if self.mode == EXACT else 0.0
        return self.coeffs.get((i, j), zero)

    def items(self):
        return self.coeffs.items()

    def is_zero(self):
        return not self.coeffs

    def max_abs(self):
        if not self.coeffs:
            return 0
        return max(abs(c) for c in self.coeffs.values())

    def degree(self):
        """Total degree of the lowest-order nonzero term, or None if zero."""
        if not self.coeffs:
            return None
        return min(i + j for i, j in self.coeffs)

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

    def approx_eq(self, other, tol=1e-9):
        if self.order != other.order:
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        scale = max(1.0, float(self.max_abs()), float(other.max_abs()))
        return all(
            abs(float(self.coeff(*k)) - float(other.coeff(*k))) <= tol * scale
            for k in keys
        )

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
        if self.mode == EXACT:
            _accumulate(out, other.coeffs)
            return Jet2._trusted(self.order, out)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return Jet2(self.order, out, self.mode)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        out = {k: -c for k, c in self.coeffs.items()}
        if self.mode == EXACT:
            return Jet2._trusted(self.order, out)
        return Jet2(self.order, out, self.mode)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            self._check_compatible(other)
            out = {}
            order = self.order
            for (i1, j1), c1 in self.coeffs.items():
                for (i2, j2), c2 in other.coeffs.items():
                    i, j = i1 + i2, j1 + j2
                    if i + j > order:
                        continue
                    key = (i, j)
                    prev = out.get(key)
                    out[key] = c1 * c2 if prev is None else prev + c1 * c2
            if self.mode == EXACT:
                return Jet2._trusted(order, {k: c for k, c in out.items() if c})
            return Jet2(order, out, self.mode)
        # scalar
        if self.mode == EXACT and isinstance(other, (int, Fraction)):
            if not other:
                return Jet2._trusted(self.order, {})
            return Jet2._trusted(
                self.order, {k: c * other for k, c in self.coeffs.items()}
            )
        return Jet2(
            self.order, {k: c * other for k, c in self.coeffs.items()}, self.mode
        )

    def __rmul__(self, other):
        return self * other

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise UsageError("jet exponent must be a nonnegative integer")
        result = Jet2.const(1, self.order, self.mode)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
        if u_new.constant_term() or v_new.constant_term():
            raise UsageError("substitution expressions must have zero constant term")
        order, mode = self.order, self.mode
        one = Jet2.const(1, order, mode)
        max_i = max((i for i, _ in self.coeffs), default=0)
        max_j = max((j for _, j in self.coeffs), default=0)
        u_pow = [one]
        for _ in range(max_i):
            u_pow.append(u_pow[-1] * u_new)
        v_pow = [one]
        for _ in range(max_j):
            v_pow.append(v_pow[-1] * v_new)
        if mode == EXACT:
            # sum_i u_new^i * (sum_j c_ij v_new^j): one jet product per power of u
            rows = {}
            for (i, j), c in self.coeffs.items():
                _accumulate(
                    rows.setdefault(i, {}),
                    {k: c * x for k, x in v_pow[j].coeffs.items()},
                )
            acc = {}
            for i, row in rows.items():
                _accumulate(acc, (u_pow[i] * Jet2._trusted(order, row)).coeffs)
            return Jet2._trusted(order, acc)
        acc = Jet2.zero(order, mode)
        for (i, j), c in self.coeffs.items():
            acc = acc + u_pow[i] * v_pow[j] * c
        return acc

    def truncate(self, new_order):
        if new_order > self.order:
            raise UsageError("truncate cannot raise the order; use with_order")
        return Jet2(
            new_order,
            {k: c for k, c in self.coeffs.items() if k[0] + k[1] <= new_order},
            self.mode,
        )

    def with_order(self, new_order):
        """Reinterpret at a higher order (valid when the data is a polynomial)."""
        if new_order < self.order:
            return self.truncate(new_order)
        return Jet2(new_order, dict(self.coeffs), self.mode)

    def to_float(self):
        if self.mode == FLOAT:
            return self
        return Jet2(self.order, {k: float(c) for k, c in self.coeffs.items()}, FLOAT)

    def to_exact(self, max_denominator=None):
        if self.mode == EXACT:
            return self
        out = {}
        for k, c in self.coeffs.items():
            f = Fraction(c)
            if max_denominator is not None:
                f = f.limit_denominator(max_denominator)
            out[k] = f
        return Jet2(self.order, out, EXACT)

    def evaluate(self, u_val, v_val):
        """Evaluate as a polynomial; supports scalars and numpy arrays."""
        total = None
        for (i, j), c in self.coeffs.items():
            term = c * u_val**i * v_val**j if (i or j) else c * (u_val * 0 + 1)
            total = term if total is None else total + term
        if total is None:
            return u_val * 0
        return total

    # -- display -------------------------------------------------------

    def __repr__(self):
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for (i, j) in sorted(self.coeffs, key=lambda k: (k[0] + k[1], -k[0])):
                c = self.coeffs[(i, j)]
                mono = "*".join(
                    ([f"u^{i}"] if i else []) + ([f"v^{j}"] if j else [])
                ) or "1"
                parts.append(f"{c}*{mono}")
            body = " + ".join(parts)
        return f"Jet2[{self.mode}, order={self.order}]({body})"


def invert_series_1d(s, var="u"):
    """Compositional inverse of a one-variable jet c*t + O(t^2), c != 0.

    The result w satisfies s(w(t)) = t up to the truncation order.
    """
    other = "v" if var == "u" else "u"
    for (i, j) in s.coeffs:
        if (other == "v" and j) or (other == "u" and i):
            raise UsageError("invert_series_1d expects a jet in %r only" % var)
    if s.constant_term():
        raise UsageError("series to invert must vanish at 0")
    lead = s.coeff(1, 0) if var == "u" else s.coeff(0, 1)
    if not lead:
        raise SingularSeriesError("vanishing linear coefficient; not invertible")
    order, mode = s.order, s.mode
    t = Jet2.variable(var, order, mode)
    inv_lead = (Fraction(1) / lead) if mode == EXACT else 1.0 / lead
    tail = s - lead * t  # O(t^2)
    w = t * inv_lead
    for _ in range(order):
        if var == "u":
            corr = tail.substitute(w, Jet2.zero(order, mode))
        else:
            corr = tail.substitute(Jet2.zero(order, mode), w)
        w = (t - corr) * inv_lead
    return w


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
        return GermJets(
            self.x.substitute(u_new, v_new),
            self.y.substitute(u_new, v_new),
            self.z.substitute(u_new, v_new),
        )

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

    def evaluate(self, u_val, v_val):
        return tuple(comp.evaluate(u_val, v_val) for comp in self.components())

    def __eq__(self, other):
        if not isinstance(other, GermJets):
            return NotImplemented
        return self.components() == other.components()

    def __repr__(self):
        return "GermJets(%r, %r, %r)" % self.components()
