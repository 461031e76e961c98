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
  ``write_json`` writes every float and Fraction as a string, "p/q" in
  exact mode and a 17-significant-digit decimal in float mode; ints,
  booleans and None stay JSON literals.

* Mesh: Wavefront OBJ (v/f records only) or CSV "x,y,z" rows.

Expression grammar (no implicit multiplication, '^' for powers)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*' factor) | ('/' number))*
    factor := base ('^' nat)?
    base   := number | var | '(' expr ')' | '-' base
    number := nat | nat '/' nat | nat ['.' nat] [('e'|'E') ['+'|'-'] nat]

Tokens, read by one compiled pattern after any whitespace: a number (nat is
a run of ASCII digits), a var (a letter, then letters or digits), an
operator of ``+-*/^()``, and the end of the text; any other character is a
parse error.  A parse error names its line and column: lines split at "\\n"
only, and columns count characters from 1.  Parentheses and unary minus
signs together nest at most ``MAX_NESTING`` deep.

The last number form, a decimal, needs float mode.  A literal p/q is one
number, so 2/3^2 is (2/3)^2, except after '^' or '/', where only the
integer is read: v^2/2 is v^2 divided by 2, and u/2/3 is u/6.  Every
sub-expression is one value type, the coefficient dict {(i, j): c} of a
jet, truncated at the order: '*' and '^' are the jets' own product and
power, '/' divides each coefficient, and the terms of a sum are added into
one dict, which becomes a Jet2 once the whole expression is read.
"""

import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .errors import ParseError, SchemaError, UsageError
from .jets import (
    EXACT, FLOAT, GermJets, Jet2, _accumulate, _finite, _power, _product,
    scalar,
)
from .records import Frozen, _set


class GermSpec(Frozen):
    """Parsed contents of a germ file, before jet expansion."""

    __slots__ = _fields = ("variables", "components", "order", "mode", "probes", "theta_lambda")

    def __init__(self, variables, components, order, mode, probes=(), theta_lambda=()):
        _set(self, "variables", variables)
        _set(self, "components", components)
        _set(self, "order", order)
        _set(self, "mode", mode)
        _set(self, "probes", probes)
        _set(self, "theta_lambda", theta_lambda)


# ---------------------------------------------------------------------------
# tokenizer / recursive-descent parser
# ---------------------------------------------------------------------------

# Largest jet order a germ file or --order may ask for, and the cap of the
# working order: classification at the default k_max needs 2 * 8 + 1 = 17,
# and the cost of a reduction grows steeply with the order.
MAX_ORDER = 20

# Deepest nesting of parentheses and unary minus signs in an expression.
# The parser recurses about four frames a level of parentheses, so this
# keeps it far from the interpreter's default recursion limit of 1000.
MAX_NESTING = 100

# One token after optional whitespace: an operator, a number (ASCII digits,
# an optional fraction and exponent, and a "/q" that _tokenize keeps only
# where p/q is one literal), a run of letters and digits, or any other
# character; at the end of the text no group matches.
_TOKEN = re.compile(r"""\s*(?:
    ([-+*/^()])
  | ([0-9]+(\.[0-9]*)?([eE][+-]?[0-9]+)?(/[0-9]+)?)
  | ([^\W_]+)
  | (\S)
)?""", re.VERBOSE)


def _error(text, message, offset):
    """A ParseError at ``offset`` of ``text``: lines split at "\\n" only, and
    columns count characters from 1."""
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, line_start) + 1, offset - line_start + 1)


def _tokenize(text):
    """The (kind, text, offset) tuples of ``text``, ending with an "end" token.

    An operator's text is its one character, which no other token's text
    equals, so the parser tells operators apart by their text alone."""
    tokens = []
    pos = 0
    while True:
        match = _TOKEN.match(text, pos)
        group = match.lastindex
        if group is None:
            tokens.append(("end", "", len(text)))
            return tokens
        start, pos = match.span(group)
        if group == 1:
            kind = "op"
        elif group == 2:
            fraction, exponent, denominator = match.group(3, 4, 5)
            if fraction == ".":
                raise _error(text, "digits expected after decimal point", match.end(3))
            if denominator and (fraction or exponent or tokens and tokens[-1][1] in ("^", "/")):
                # a decimal takes no "/q", and after '^' or '/' the integer stands alone
                pos, denominator = match.start(5), None
            kind = "decimal" if fraction or exponent else "rational" if denominator else "int"
        elif group == 6 and text[start].isalpha():
            kind = "ident"
        else:
            raise _error(text, "unexpected character %r" % text[start], start)
        tokens.append((kind, text[start:pos], start))


class _Parser:
    """Recursive descent over the tokens of one expression.

    Every value is a coefficient dict {(i, j): c} of one mode, truncated at
    the order, with {} for zero: ``*`` and ``^`` are the jets' own product
    and power, ``/`` divides each coefficient, and ``+`` and ``-`` add each
    term into one dict.  ``parse`` wraps the result in a ``Jet2``.
    """

    def __init__(self, text, variables, order, mode):
        Jet2.zero(order, mode)  # the jets' own check of order and mode
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open parentheses and unary minus signs
        self.order = order
        self.mode = mode
        one = scalar(1, mode)
        self.variables = {
            variables[0]: {(1, 0): one} if order else {},
            variables[1]: {(0, 1): one} if order else {},
        }

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok):
        return _error(self.text, message, tok[2])

    def expect_op(self, op):
        tok = self.advance()
        if tok[1] != op:
            raise self.error("expected %r" % op, tok)

    def _integer(self, digits, tok):
        """int(``digits``), a run of digits of the literal ``tok``."""
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            raise self.error("number literal of %d characters exceeds %s"
                             % (len(tok[1]), _digit_limit()), tok) from None

    def _number(self, tok):
        kind, text, _ = tok
        if kind in ("int", "rational"):
            num, _, den = text.partition("/")
            num, den = self._integer(num, tok), self._integer(den or "1", tok)
            if den == 0:
                raise self.error("zero denominator", tok)
            value = Fraction(num, den)
        elif self.mode == EXACT:
            raise self.error(
                "decimal literal %r requires float mode; use a p/q rational" % text, tok)
        else:
            value = float(text)
        if self.mode == FLOAT:  # an exact number here is a Fraction already
            try:
                value = scalar(value, FLOAT)
            except UsageError:
                raise self.error(
                    "number literal of %d characters lies outside float range" % len(text),
                    tok) from None
        return {(0, 0): value} if value else {}

    def parse(self):
        coeffs = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise self.error("unexpected trailing input", tok)
        return Jet2._trusted(self.order, coeffs, self.mode)

    def expr(self):
        acc = {}
        sign = 1
        while True:
            value = self.term()
            _accumulate(acc, value if sign > 0 else {k: -c for k, c in value.items()})
            text = self.peek()[1]
            if text in ("+", "-"):
                self.advance()
                sign = 1 if text == "+" else -1
            else:
                return _finite(acc, self.mode)

    def term(self):
        value = self.factor()
        while True:
            text = self.peek()[1]
            if text == "*":
                self.advance()
                value = _product(value, self.factor(), self.order, self.mode)
            elif text == "/":
                self.advance()
                dtok = self.advance()
                if dtok[0] not in ("int", "rational", "decimal"):
                    raise self.error("a number literal must follow '/'", dtok)
                divisor = self._number(dtok)
                if not divisor:
                    raise self.error("division by zero", dtok)
                d = divisor[(0, 0)]
                value = _finite({k: c / d for k, c in value.items()}, self.mode)
            else:
                return value

    def factor(self):
        value = self.base()
        if self.peek()[1] == "^":
            self.advance()
            etok = self.advance()
            if etok[0] != "int":
                raise self.error("exponent must be a nonnegative integer", etok)
            n = self._integer(etok[1], etok)
            try:
                value = _power(value, n, self.order, self.mode)
            except ValueError:  # a coefficient past the digit limit
                raise self.error("power has a coefficient past %s" % _digit_limit(),
                                 etok) from None
        return value

    def base(self):
        tok = self.advance()
        kind, text, _ = tok
        if kind in ("int", "rational", "decimal"):
            return self._number(tok)
        if kind == "ident":
            value = self.variables.get(text)
            if value is not None:
                return value
            raise self.error("unknown identifier %r" % text, tok)
        if text in ("(", "-"):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise self.error("parentheses and unary minus nested deeper than %d levels"
                                 % MAX_NESTING, tok)
            if text == "(":
                value = self.expr()
                self.expect_op(")")
            else:
                value = {k: -c for k, c in self.base().items()}
            self.depth -= 1
            return value
        raise self.error("unexpected token %r" % (text or "<end>"), tok)


def parse_polynomial(text, variables=("u", "v"), order=6, mode=EXACT):
    """Parse an expression string into a canonical Jet2 at the given order."""
    if len(variables) != 2:
        raise UsageError("exactly two variables are required")
    return _Parser(text, tuple(variables), order, mode).parse()


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


def _digit_limit():
    return "the limit of %d digits on int/str conversion" % sys.get_int_max_str_digits()


def format_number(x):
    # floats first: most numbers written are floats, and the isinstance
    # check against Fraction (an ABC-registered type) is the slow one
    if type(x) is float:
        return format(x, ".17g")
    if isinstance(x, (Fraction, int)):
        try:
            return str(x)
        except ValueError:  # more digits than str() converts
            raise UsageError("a number to write exceeds %s" % _digit_limit()) from None
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
    # a JSON true or false is a Python bool, which is also an int
    if not isinstance(val, typ) or isinstance(val, bool):
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
    if order > MAX_ORDER:
        raise SchemaError(f"{where}.order", "order must be <= %d" % MAX_ORDER)
    mode = _require(data, "mode", str, where)
    if mode not in (EXACT, FLOAT):
        raise SchemaError(f"{where}.mode", "mode must be 'exact' or 'float'")
    probes = _points(data, "probes", ("x", "y", "z"), mode, where)
    pairs = _points(data, "theta_lambda", ("theta", "lambda"), FLOAT, where)
    return GermSpec(tuple(variables), tuple(components), order, mode, probes, pairs)


def _points(data, key, names, mode, where):
    """The optional point list ``data[key]`` as a tuple of points, each a
    list of one finite scalar of ``mode`` per coordinate in ``names``."""
    entries = data.get(key, [])
    if not isinstance(entries, list):
        raise SchemaError(f"{where}.{key}", "expected a list")
    points = []
    for idx, p in enumerate(entries):
        at = f"{where}.{key}[{idx}]"
        if not isinstance(p, list) or len(p) != len(names):
            raise SchemaError(at, "expected [%s]" % ", ".join(names))
        points.append(tuple(_parse_scalar(c, mode, at) for c in p))
    return tuple(points)


# characters of a refused entry that its error message repeats
_ECHO_CHARS = 40
_DIGITS = frozenset("0123456789")


def _refusal(c, exc):
    """Why the entry ``c`` raised ``exc``: the digit limit where that is the
    cause, else at most ``_ECHO_CHARS`` characters of its repr and its length."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if isinstance(exc, ValueError) and isinstance(c, str) and (
            0 < limit < sum(ch in _DIGITS for ch in c)):
        return "number of %d characters exceeds %s" % (len(c), _digit_limit())
    try:
        text = repr(c)
    except ValueError:  # an int from code, with more digits than repr converts
        return "expected a finite number, got an integer past " + _digit_limit()
    if len(text) > _ECHO_CHARS:
        size = len(c) if isinstance(c, str) else len(text)
        text = "%s... (%d characters)" % (text[:_ECHO_CHARS], size)
    return "expected a finite number, got " + text


def _parse_scalar(c, mode, where):
    """A JSON number or numeric string as a finite scalar of ``mode``."""
    if not isinstance(c, (int, float, str)) or isinstance(c, bool):
        raise SchemaError(where, "expected a number or numeric string")
    try:
        x = scalar(read_number(c, mode) if isinstance(c, str) else c, mode)
    except (ValueError, ZeroDivisionError, OverflowError, UsageError) as exc:
        raise SchemaError(where, _refusal(c, exc)) from None
    if mode == EXACT and isinstance(c, float):
        # a JSON number is read as the nearest small fraction (0.1 -> 1/10);
        # one that fraction does not give back is refused, not moved
        x = x.limit_denominator(10**12)
        if float(x) != c:
            raise SchemaError(where, "%r is not a fraction with denominator <= 10^12; "
                              "quote it as a string to keep its exact value" % c)
    return x


def expand_germ(spec, order=None, mode=None):
    """Expand a GermSpec's component strings into GermJets.  The order (the
    spec's own unless given) must be an integer in 1..``MAX_ORDER``."""
    order = spec.order if order is None else order
    if isinstance(order, bool) or not isinstance(order, int) or not 1 <= order <= MAX_ORDER:
        raise UsageError("germ order must be an integer in 1..%d, got %r" % (MAX_ORDER, order))
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
        # bad JSON, a number past int()'s digit limit, or nesting past the
        # decoder's recursion limit
        except (ValueError, RecursionError) as exc:
            raise SchemaError("germ", "invalid JSON: %s" % exc) from None
    return germ_spec_from_dict(data)


def load_germ(path):
    """Load a germ file; returns (GermSpec, GermJets)."""
    spec = read_germ_spec(path)
    return spec, expand_germ(spec)


# ---------------------------------------------------------------------------
# reports and meshes
# ---------------------------------------------------------------------------

REPORT_KEYS = ("class", "normal_form", "geometry", "distance", "focal_locus", "warnings")


def _encode(value, out, pad):
    """Append to the list ``out`` the text of ``value`` that
    ``json.dumps(value, indent=2, sort_keys=True)`` writes at indent ``pad``,
    except that a float or Fraction is written as the string
    ``format_number`` gives: the report convention.

    Strings, floats, Fractions, None, booleans and ints are written here,
    dicts and lists (tuples too) term by term; any other value goes through
    ``json.dumps``.  The float and Fraction test comes right after the
    string test, as numbers are most of what a report holds.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif type(value) is float or type(value) is Fraction:
        out.append('"%s"' % format_number(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        inner = pad + "  "
        sep = "{\n" + inner
        for key, item in sorted(value.items()):
            key = key if isinstance(key, str) else json.dumps(key)
            out.extend((sep, encode_basestring_ascii(key), ": "))
            _encode(item, out, inner)
            sep = ",\n" + inner
        out.append("\n" + pad + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner = pad + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _encode(item, out, inner)
            sep = ",\n" + inner
            if len(out) >= _FOLD_AT:
                out.fold()
        out.append("\n" + pad + "]" if value else "[]")
    else:
        out.append(json.dumps(value))


# Fragments joined into one chunk at a time: a long list is held as the
# characters of its text, not as millions of small strings.
_FOLD_AT = 4096


class _Fragments(list):
    """The text ``_encode`` appends, as ``chunks`` of joined fragments
    followed by the fragments since the last ``fold``."""

    def __init__(self):
        super().__init__()
        self.chunks = []

    def fold(self):
        self.chunks.append("".join(self))
        self.clear()


def write_json(doc, path_or_file):
    """Write ``doc`` as deterministic JSON (sorted keys, indent 2, final
    newline), each float and Fraction as a ``format_number`` string.

    The whole text is encoded before anything is written, so an encoding
    error leaves no partial file."""
    out = _Fragments()
    _encode(doc, out, "")
    out.append("\n")
    out.fold()
    if hasattr(path_or_file, "write"):
        for chunk in out.chunks:
            path_or_file.write(chunk)
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            for chunk in out.chunks:
                fh.write(chunk)


def emit_report(report, path_or_file):
    """Write a report dict as deterministic JSON."""
    for key in REPORT_KEYS:
        report.setdefault(key, None if key != "warnings" else [])
    write_json(report, path_or_file)


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
