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
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := number | var | '(' expr ')' | '-' base
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParseError, SchemaError, UsageError
from .jets import EXACT, FLOAT, GermJets, Jet2, scalar


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

_OPS = set("+-*^()")


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
        if ch.isdigit():
            start = i
            start_col = col
            while i < n and text[i].isdigit():
                i += 1
                col += 1
            kind = "int"
            if i < n and text[i] == ".":
                i += 1
                col += 1
                if i >= n or not text[i].isdigit():
                    raise ParseError("digits expected after decimal point", line, col)
                while i < n and text[i].isdigit():
                    i += 1
                    col += 1
                kind = "decimal"
            elif i < n and text[i] == "/":
                # rational literal p/q, no spaces inside
                j = i + 1
                if j < n and text[j].isdigit():
                    i = j
                    col += 1
                    while i < n and text[i].isdigit():
                        i += 1
                        col += 1
                    kind = "rational"
            tokens.append(_Token(kind, text[start:i], line, start_col))
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
    def __init__(self, tokens, variables, order, mode):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables
        self.order = order
        self.mode = mode

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
            return Jet2.const(value, self.order, self.mode)
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
        jet = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value in "+-":
                self.advance()
                rhs = self.term()
                jet = jet + rhs if tok.value == "+" else jet - rhs
            else:
                return jet

    def term(self):
        jet = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value == "*":
                self.advance()
                jet = jet * self.factor()
            else:
                return jet

    def factor(self):
        jet = self.base()
        tok = self.peek()
        if tok.kind == "op" and tok.value == "^":
            self.advance()
            etok = self.advance()
            if etok.kind != "int":
                raise ParseError(
                    "exponent must be a nonnegative integer", etok.line, etok.col
                )
            jet = jet ** int(etok.value)
        return jet

    def base(self):
        tok = self.advance()
        if tok.kind in ("int", "rational", "decimal"):
            return self._number(tok)
        if tok.kind == "ident":
            if tok.value == self.variables[0]:
                return Jet2.variable("u", self.order, self.mode)
            if tok.value == self.variables[1]:
                return Jet2.variable("v", self.order, self.mode)
            raise ParseError("unknown identifier %r" % tok.value, tok.line, tok.col)
        if tok.kind == "op" and tok.value == "(":
            jet = self.expr()
            self.expect_op(")")
            return jet
        if tok.kind == "op" and tok.value == "-":
            return -self.base()
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
