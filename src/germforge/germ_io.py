"""Germ file parsing and report/mesh serialization.

File formats:

* Germ file (JSON)::

    {"variables": ["u", "v"],
     "components": ["u", "v^2", "u^2*v + v^3"],
     "order": 6,
     "mode": "exact"}

  optionally with "probes": [[x, y, z], ...] and
  "theta_lambda": [[theta0, lambda], ...] for the distance workflow.

* Report file: JSON with top-level keys
  class / normal_form / geometry / distance / focal_locus / warnings.
  Every numeric value is emitted as a string: "p/q" in exact mode,
  17-significant-digit decimal in float mode.

* Mesh: Wavefront OBJ (v/f records only) or CSV "x,y,z" rows.

Expression grammar (no implicit multiplication, '^' for powers)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*' factor) | ('/' number))*
    factor := base ('^' nat)?
    base   := number | var | '(' expr ')' | '-' base
    number := nat | nat '/' nat | nat ['.' nat] [('e'|'E') ['+'|'-'] nat]

The last number form, a decimal, needs float mode.  A literal p/q is one
number, so 2/3^2 is (2/3)^2, except after '^' or '/', where only the
integer is read: v^2/2 is v^2 divided by 2, and u/2/3 is u/6.  A term made
only of numbers and variable powers is one monomial c u^i v^j while it is
parsed: '*' multiplies coefficients and adds exponents, '^' raises the
coefficient and multiplies the exponents, '/' divides the coefficient, with
the truncation of a one-term jet at each step.  Only a parenthesized
sub-expression is a Jet2 and goes through Jet2 arithmetic.  The terms of a
sum are added into one coefficient dict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParseError, SchemaError, UsageError
from .jets import EXACT, FLOAT, GermJets, Jet2, _accumulate, scalar


@dataclass(frozen=True)
class GermSpec:
    """Parsed contents of a germ file, before jet expansion."""

    variables: tuple
    components: tuple
    order: int
    mode: str
    probes: tuple = ()
    theta_lambda: tuple = ()


# ---------------------------------------------------------------------------
# tokenizer / recursive-descent parser
# ---------------------------------------------------------------------------

_OPS = set("+-*/^()")
_DIGITS = frozenset("0123456789")


def _skip_digits(text, i):
    """The index after the run of ASCII digits starting at ``i``."""
    n = len(text)
    while i < n and text[i] in _DIGITS:
        i += 1
    return i


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch in _OPS:
            tokens.append(_Token("op", ch, line, col))
            i += 1
            col += 1
            continue
        if ch in _DIGITS:
            # int, p/q rational, or decimal digits[.digits][e|E[+|-]digits]
            start = i
            i = _skip_digits(text, i)
            kind = "int"
            if text[i:i + 1] == ".":
                j = _skip_digits(text, i + 1)
                if j == i + 1:
                    raise ParseError(
                        "digits expected after decimal point", line, col + j - start
                    )
                i, kind = j, "decimal"
            if text[i:i + 1] in ("e", "E"):
                # an 'e' without digits after it is left to the identifiers
                j = i + 1 + (text[i + 1:i + 2] in ("+", "-"))
                k = _skip_digits(text, j)
                if k > j:
                    i, kind = k, "decimal"
            if (kind == "int" and text[i:i + 1] == "/"
                    and not (tokens and tokens[-1].value in ("^", "/"))):
                # no spaces inside p/q; after '^' or '/' the integer stands alone
                j = _skip_digits(text, i + 1)
                if j > i + 1:
                    i, kind = j, "rational"
            tokens.append(_Token(kind, text[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha():
            start = i
            start_col = col
            while i < n and text[i].isalnum():
                i += 1
                col += 1
            tokens.append(_Token("ident", text[start:i], line, start_col))
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    """Recursive descent over the tokens of one expression.

    A term of numbers and variable powers stays one monomial (c, i, j), or
    None when it is zero: ``*`` multiplies coefficients and adds exponents,
    ``^`` is ``Jet2.__pow__``'s square-and-multiply on the coefficient, ``/``
    divides the coefficient, and each result is truncated and checked as a
    one-term ``Jet2`` would be.  Only a parenthesized sub-expression becomes
    a ``Jet2``; ``+`` and ``-`` add each term straight into one coefficient
    dict.
    """

    def __init__(self, tokens, variables, order, mode):
        Jet2.zero(order, mode)  # the jets' own check of order and mode
        self.tokens = tokens
        self.pos = 0
        self.variables = variables
        self.order = order
        self.mode = mode
        self.one = scalar(1, mode)
        self.u = self._monomial(self.one, 1, 0)
        self.v = self._monomial(self.one, 0, 1)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.advance()
        if tok.kind != "op" or tok.value != op:
            raise ParseError("expected %r" % op, tok.line, tok.col)
        return tok

    # -- monomials -------------------------------------------------------

    def _monomial(self, c, i, j):
        """c u^i v^j as the one-term jet holds it: None above the order or
        at zero; in float mode a non-finite c raises the jets' UsageError."""
        if i + j > self.order:
            return None
        if self.mode == FLOAT:  # exact numbers here are Fractions already
            c = scalar(c, FLOAT)
        return (c, i, j) if c else None

    def _mul(self, a, b):
        if a is None or b is None:
            return None
        # the variables' coefficient 1 multiplies nothing: 1 * c is c
        ca, cb = a[0], b[0]
        c = cb if ca is self.one else ca if cb is self.one else ca * cb
        return self._monomial(c, a[1] + b[1], a[2] + b[2])

    def _pow(self, a, n):
        """a^n by the products ``Jet2.__pow__`` makes, in its order."""
        if not n:
            return (self.one, 0, 0)
        while not n & 1:
            a = self._mul(a, a)
            n >>= 1
        result = a
        n >>= 1
        while n:
            a = self._mul(a, a)
            if n & 1:
                result = self._mul(result, a)
            n >>= 1
        return result

    def _jet(self, value):
        if isinstance(value, Jet2):
            return value
        coeffs = {} if value is None else {value[1:]: value[0]}
        return Jet2._trusted(self.order, coeffs, self.mode)

    def _add(self, acc, value, sign):
        """acc += sign * value, as ``Jet2`` ``+`` and ``-`` would leave it."""
        if value is None:
            return
        terms = value.coeffs if isinstance(value, Jet2) else {value[1:]: value[0]}
        _accumulate(acc, terms if sign > 0 else {k: -c for k, c in terms.items()})

    def _div(self, value, tok):
        """value / the number literal ``tok``, as ``Jet2`` would divide each
        coefficient."""
        if tok.kind not in ("int", "rational", "decimal"):
            raise ParseError("a number literal must follow '/'", tok.line, tok.col)
        divisor = self._number(tok)
        if divisor is None:
            raise ParseError("division by zero", tok.line, tok.col)
        d = divisor[0]
        if isinstance(value, Jet2):
            return Jet2(self.order, {k: c / d for k, c in value.coeffs.items()}, self.mode)
        return None if value is None else self._monomial(value[0] / d, value[1], value[2])

    # -- grammar ---------------------------------------------------------

    def _number(self, tok):
        if tok.kind == "int":
            value = Fraction(int(tok.value))
        elif tok.kind == "rational":
            num, den = tok.value.split("/")
            if int(den) == 0:
                raise ParseError("zero denominator", tok.line, tok.col)
            value = Fraction(int(num), int(den))
        elif self.mode == EXACT:
            raise ParseError(
                "decimal literal %r requires float mode; use a p/q rational"
                % tok.value,
                tok.line,
                tok.col,
            )
        else:
            value = float(tok.value)
        try:
            return self._monomial(value, 0, 0)
        except UsageError:
            raise ParseError(
                "number literal of %d characters lies outside float range"
                % len(tok.value),
                tok.line,
                tok.col,
            ) from None

    def parse(self):
        jet = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError("unexpected trailing input", tok.line, tok.col)
        return jet

    def expr(self):
        acc = {}
        sign = 1
        while True:
            self._add(acc, self.term(), sign)
            tok = self.peek()
            if tok.kind == "op" and tok.value in "+-":
                self.advance()
                sign = 1 if tok.value == "+" else -1
            else:
                return Jet2._result(self.order, acc, self.mode)

    def term(self):
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value == "*":
                self.advance()
                rhs = self.factor()
                if isinstance(value, Jet2) or isinstance(rhs, Jet2):
                    value = self._jet(value) * self._jet(rhs)
                else:
                    value = self._mul(value, rhs)
            elif tok.kind == "op" and tok.value == "/":
                self.advance()
                value = self._div(value, self.advance())
            else:
                return value

    def factor(self):
        value = self.base()
        tok = self.peek()
        if tok.kind == "op" and tok.value == "^":
            self.advance()
            etok = self.advance()
            if etok.kind != "int":
                raise ParseError(
                    "exponent must be a nonnegative integer", etok.line, etok.col
                )
            n = int(etok.value)
            value = value ** n if isinstance(value, Jet2) else self._pow(value, n)
        return value

    def base(self):
        tok = self.advance()
        if tok.kind in ("int", "rational", "decimal"):
            return self._number(tok)
        if tok.kind == "ident":
            if tok.value == self.variables[0]:
                return self.u
            if tok.value == self.variables[1]:
                return self.v
            raise ParseError("unknown identifier %r" % tok.value, tok.line, tok.col)
        if tok.kind == "op" and tok.value == "(":
            jet = self.expr()
            self.expect_op(")")
            return jet
        if tok.kind == "op" and tok.value == "-":
            value = self.base()
            if isinstance(value, Jet2):
                return -value
            return None if value is None else (-value[0], value[1], value[2])
        raise ParseError("unexpected token %r" % (tok.value or "<end>"), tok.line, tok.col)


def parse_polynomial(text, variables=("u", "v"), order=6, mode=EXACT):
    """Parse an expression string into a canonical Jet2 at the given order."""
    if len(variables) != 2:
        raise UsageError("exactly two variables are required")
    return _Parser(_tokenize(text), tuple(variables), order, mode).parse()


def print_polynomial(jet, variables=("u", "v")):
    """Deterministic inverse of parse_polynomial on canonical jets."""
    if jet.is_zero():
        return "0"
    u_name, v_name = variables
    parts = []
    for (i, j) in sorted(jet.coeffs, key=lambda k: (k[0] + k[1], -k[0])):
        c = jet.coeffs[(i, j)]
        factors = []
        if i == 1:
            factors.append(u_name)
        elif i > 1:
            factors.append("%s^%d" % (u_name, i))
        if j == 1:
            factors.append(v_name)
        elif j > 1:
            factors.append("%s^%d" % (v_name, j))
        neg = c < 0
        mag = -c if neg else c
        coeff_str = format_number(mag)
        if factors and coeff_str == "1":
            body = "*".join(factors)
        else:
            body = "*".join([coeff_str] + factors)
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# numbers as strings (report convention)
# ---------------------------------------------------------------------------


def format_number(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def read_number(s, mode):
    if mode == EXACT:
        return Fraction(s)
    return float(Fraction(s)) if "/" in s else float(s)


# ---------------------------------------------------------------------------
# germ files
# ---------------------------------------------------------------------------


def _require(obj, key, typ, where):
    if key not in obj:
        raise SchemaError(f"{where}.{key}", "missing required field")
    val = obj[key]
    if typ is not None and not isinstance(val, typ):
        raise SchemaError(f"{where}.{key}", "expected %s" % typ.__name__)
    return val


def germ_spec_from_dict(data, where="germ"):
    if not isinstance(data, dict):
        raise SchemaError(where, "expected a JSON object")
    variables = _require(data, "variables", list, where)
    if len(variables) != 2 or not all(isinstance(v, str) for v in variables):
        raise SchemaError(f"{where}.variables", "expected two identifier strings")
    for v in variables:
        if not (v[:1].isalpha() and v.isalnum() and v.isascii()):
            raise SchemaError(
                f"{where}.variables", "identifier %r must be ASCII alphanumeric" % v
            )
    if variables[0] == variables[1]:
        raise SchemaError(f"{where}.variables", "variables must be distinct")
    components = _require(data, "components", list, where)
    if len(components) != 3 or not all(isinstance(c, str) for c in components):
        raise SchemaError(f"{where}.components", "expected three expression strings")
    order = _require(data, "order", int, where)
    if order < 1:
        raise SchemaError(f"{where}.order", "order must be >= 1")
    mode = _require(data, "mode", str, where)
    if mode not in (EXACT, FLOAT):
        raise SchemaError(f"{where}.mode", "mode must be 'exact' or 'float'")
    probes = []
    for idx, p in enumerate(data.get("probes", [])):
        if not isinstance(p, list) or len(p) != 3:
            raise SchemaError(f"{where}.probes[{idx}]", "expected [x, y, z]")
        probes.append(tuple(_parse_scalar(c, mode, f"{where}.probes[{idx}]") for c in p))
    pairs = []
    for idx, p in enumerate(data.get("theta_lambda", [])):
        if not isinstance(p, list) or len(p) != 2:
            raise SchemaError(f"{where}.theta_lambda[{idx}]", "expected [theta, lambda]")
        pairs.append(tuple(_parse_scalar(c, FLOAT, f"{where}.theta_lambda[{idx}]") for c in p))
    return GermSpec(
        tuple(variables), tuple(components), order, mode, tuple(probes), tuple(pairs)
    )


def _parse_scalar(c, mode, where):
    """A JSON number or numeric string as a finite scalar of ``mode``."""
    if not isinstance(c, (int, float, str)):
        raise SchemaError(where, "expected a number or numeric string")
    try:
        x = scalar(read_number(c, mode) if isinstance(c, str) else c, mode)
    except (ValueError, ZeroDivisionError, OverflowError, UsageError):
        raise SchemaError(where, "expected a finite number, got %r" % c) from None
    if mode == EXACT and isinstance(c, float):
        # a JSON number is read as the nearest small fraction (0.1 -> 1/10);
        # one that fraction does not give back is refused, not moved
        x = x.limit_denominator(10**12)
        if float(x) != c:
            raise SchemaError(where, "%r is not a fraction with denominator <= 10^12; "
                              "quote it as a string to keep its exact value" % c)
    return x


def expand_germ(spec, order=None, mode=None):
    """Expand a GermSpec's component strings into GermJets."""
    order = spec.order if order is None else order
    mode = spec.mode if mode is None else mode
    jets = [
        parse_polynomial(c, spec.variables, order, mode) for c in spec.components
    ]
    for name, jet in zip("xyz", jets):
        if jet.constant_term():
            raise SchemaError(
                "germ.components", "component %s does not vanish at the origin" % name
            )
    return GermJets(*jets)


def read_germ_spec(path):
    """Read a germ file into a GermSpec without expanding its components."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("germ", "invalid JSON: %s" % exc)
    return germ_spec_from_dict(data)


def load_germ(path):
    """Load a germ file; returns (GermSpec, GermJets)."""
    spec = read_germ_spec(path)
    return spec, expand_germ(spec)


# ---------------------------------------------------------------------------
# reports and meshes
# ---------------------------------------------------------------------------

REPORT_KEYS = ("class", "normal_form", "geometry", "distance", "focal_locus", "warnings")


def write_json(doc, path_or_file):
    """Write ``doc`` as deterministic JSON (sorted keys, indent 2, final newline)."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            fh.write(text)


def emit_report(report, path_or_file):
    """Write a report dict as deterministic JSON."""
    for key in REPORT_KEYS:
        report.setdefault(key, None if key != "warnings" else [])
    write_json(report, path_or_file)


def load_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("report", "invalid JSON: %s" % exc)
    if not isinstance(data, dict):
        raise SchemaError("report", "expected a JSON object")
    for key in REPORT_KEYS:
        if key not in data:
            raise SchemaError("report.%s" % key, "missing required field")
    return data


# Lines formatted per write: one % operation per block instead of per line,
# with memory bounded by the block, not the mesh.
_LINES_PER_WRITE = 1024


def _mesh_blocks(mesh, fmt):
    """The mesh file as a stream of strings, each a block of whole lines."""
    import numpy as np  # here, so that importing germ_io does not load numpy

    vertices = np.asarray(mesh.vertices, dtype=float).reshape(-1, 3)
    faces = np.asarray(mesh.faces, dtype=int).reshape(-1, 3) + 1
    if fmt == "csv":
        yield "x,y,z\n"
        tables = [(vertices, "%.17g,%.17g,%.17g\n")]
    else:
        if not len(vertices) and not len(faces):
            yield "\n"
        tables = [(vertices, "v %.17g %.17g %.17g\n"), (faces, "f %d %d %d\n")]
    for rows, line in tables:
        for start in range(0, len(rows), _LINES_PER_WRITE):
            block = rows[start:start + _LINES_PER_WRITE]
            yield (line * len(block)) % tuple(block.ravel().tolist())


def emit_mesh(mesh, path_or_file, fmt="obj"):
    """Write a mesh as Wavefront OBJ (v/f records) or CSV x,y,z rows.

    The text is streamed in blocks of lines; an empty OBJ mesh is a lone
    newline.
    """
    if fmt not in ("obj", "csv"):
        raise UsageError("mesh format must be 'obj' or 'csv'")
    if hasattr(path_or_file, "write"):
        path_or_file.writelines(_mesh_blocks(mesh, fmt))
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            fh.writelines(_mesh_blocks(mesh, fmt))
