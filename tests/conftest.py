import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import germ_source
from germforge import germ_io, pipeline
from germforge.distance import ProbePoint
from germforge.errors import ParseError, UsageError
from germforge.jets import EXACT, GermJets, Jet2, scalar
from germforge.normal_form import NormalFormCoeffs


def rand_fraction(rng, max_num=9, max_den=5, nonzero=False):
    while True:
        f = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        if f or not nonzero:
            return f


def rand_jet(rng, order, mode=EXACT, density=0.6, max_num=9, max_den=5):
    terms = {}
    for d in range(order + 1):
        for i in range(d + 1):
            if rng.random() < density:
                c = rand_fraction(rng, max_num, max_den)
                if c:
                    terms[(i, d - i)] = c if mode == EXACT else float(c)
    return Jet2(order, terms, mode)


def reference_mesh_text(mesh, fmt):
    """The whole mesh file, formatted value by value and joined."""
    lines = []
    if fmt == "obj":
        for vx, vy, vz in mesh.vertices:
            lines.append("v %.17g %.17g %.17g" % (vx, vy, vz))
        for a, b, c in mesh.faces:
            lines.append("f %d %d %d" % (a + 1, b + 1, c + 1))
    else:
        lines.append("x,y,z")
        for vx, vy, vz in mesh.vertices:
            lines.append("%.17g,%.17g,%.17g" % (vx, vy, vz))
    return "\n".join(lines) + "\n"


def make_nf(order=6, mode=EXACT, a=None, b=None):
    """Build NormalFormCoeffs from {(i,j): value} / {i: value} dicts."""
    a = dict(a or {})
    b = dict(b or {})
    if mode == EXACT:
        a = {k: Fraction(v) for k, v in a.items()}
        b = {k: Fraction(v) for k, v in b.items()}
    else:
        a = {k: float(v) for k, v in a.items()}
        b = {k: float(v) for k, v in b.items()}
    return NormalFormCoeffs(order, mode, a, b)


def classified_ctx(components):
    """The class label and blow-up context of an exact order-9 germ."""
    doc = {"variables": ["u", "v"], "components": components, "order": 9,
           "mode": "exact"}
    outcome = pipeline.classify_spec(germ_io.germ_spec_from_dict(doc))
    return outcome.mond.label, pipeline.blowup_context(outcome)


GEOMETRY_GERMS = {
    "S1+": ["u", "1/2*v^2 + 7/10*u^2 + 4/5*u^3",
            "v^3 + 7/5*u^2*v - 2/5*u^3 + 1/2*u^4 + 3/10*u*v^2"],
    "B2+": ["u", "1/2*v^2 + 3/5*u^2 - 1/2*u^3",
            "6/5*u^2*v + v^5 + 1/3*u^3 - 1/4*u*v^2"],
    "C3+": ["u", "1/2*v^2 + 1/2*u^2 + 1/3*u^3",
            "u*v^3 + u^3*v + 2/5*u^3 - 1/5*u^4"],
}


def shifted_a1(nf, trace):
    """{n: coefficient of u v^(2n-1)}, 2 <= n <= trace.k, of the odd-in-v
    part of nf's third component after the shift u -> u + sum_i c_i
    v^(2(i-1)) with the trace's c_i: what the B_k shift must kill."""
    order = 2 * trace.k + 1
    z = nf.third_component(order)
    odd = Jet2(order, {k: c for k, c in z.coeffs.items() if k[1] % 2}, nf.mode)
    shift = Jet2(order, {(1, 0): 1, **{(0, 2 * (i - 1)): c for i, c in trace.c.items()}},
                 nf.mode)
    shifted = odd.substitute(shift, Jet2.variable("v", order, nf.mode))
    return {n: shifted.coeff(1, 2 * n - 1) for n in range(2, trace.k + 1)}


def jets_close(a, b, tol=1e-9):
    """Jets of one order whose coefficients agree within tol times the
    largest coefficient magnitude (at least 1)."""
    if a.order != b.order:
        return False
    keys = set(a.coeffs) | set(b.coeffs)
    scale = max([1.0] + [abs(float(c)) for c in (*a.coeffs.values(), *b.coeffs.values())])
    return all(
        abs(float(a.coeff(*k)) - float(b.coeff(*k))) <= tol * scale for k in keys
    )


def ref_distance_jet(nf, p, order):
    """The distance jet (du du + dy dy + dz dz) / 2 with d* = g_* - p_*, with
    every product made anew for each probe: the reference for
    distance.distance_jet."""
    p = p.as_mode(nf.mode)
    u = Jet2.variable("u", order, nf.mode)
    y = nf.second_component(order)
    z = nf.third_component(order)
    du = u - Jet2.const(p.x0, order, nf.mode)
    dy = y - Jet2.const(p.y0, order, nf.mode)
    dz = z - Jet2.const(p.z0, order, nf.mode)
    return (du * du + dy * dy + dz * dz) * scalar(0.5, nf.mode)


def sum_distance_jet(nf, p, order):
    """|g|^2 / 2 - x0 u - y0 y - z0 z + |p|^2 / 2 as a chain of jet sums over
    freshly built jets: the reference for the bits of a float distance jet."""
    p = p.as_mode(nf.mode)
    u = Jet2.variable("u", order, nf.mode)
    y, z = nf.second_component(order), nf.third_component(order)
    half_sq = (u * u + y * y + z * z) * scalar(0.5, nf.mode)
    half_p_sq = (p.x0 * p.x0 + p.y0 * p.y0 + p.z0 * p.z0) * scalar(0.5, nf.mode)
    return (half_sq + u * -p.x0 + y * -p.y0 + z * -p.z0
            + Jet2.const(half_p_sq, order, nf.mode))


def prenormal_configs(rng, count):
    """``count`` (exact normal form, probe) pairs on ``germ_source``'s gallery
    draws: each form at its five probes, then three twins of it: the
    inflection (a20 = 0, b2 = a20 where b2 was 0) on its focal line y = 1/b2,
    the degenerate inflection (a20 = b2 = 0) on its principal normal, and
    the form of no class (every a_i1 = 0) with a30 = 0, or b3 = 0 in one
    draw of two, at the focal-line probe.  Order 7 holds B3's v^7 term."""
    configs = []
    for _, g, probes, _ in germ_source.gallery_draws(rng):
        configs += [(make_nf(7, a=g.a, b=g.b), ProbePoint(*p)) for p in probes]
        b2 = g.B(2) or g.A(2, 0)
        inflection = {**g.a, (2, 0): 0}
        configs.append((make_nf(7, a=inflection, b={**g.b, 2: b2}),
                        ProbePoint(0, 1 / b2, rand_fraction(rng))))
        configs.append((make_nf(7, a=inflection, b={**g.b, 2: 0}),
                        ProbePoint(0, 0, rand_fraction(rng))))
        no_class = {key: c for key, c in g.a.items() if key[1] != 1}
        if rng.random() < 0.5:
            configs.append((make_nf(7, a=no_class, b={**g.b, 3: 0}), ProbePoint(*probes[1])))
        else:
            configs.append((make_nf(7, a={**no_class, (3, 0): 0}, b=g.b), ProbePoint(*probes[1])))
        if len(configs) >= count:
            return configs[:count]


@functools.lru_cache(maxsize=None)
def analysis_forms(seeds=tuple(range(1, 11))):
    """(normal form, probes) of every germ of the benchmark's analysis
    corpus at the given seeds.

    Cached for the session: a form keeps the last probe its rank test read
    (``NormalFormCoeffs._probe_slot``), so a test that counts the calls the
    rank test makes builds fresh forms (``analysis_forms.__wrapped__``)."""
    forms = []
    for seed in seeds:
        for entry in germ_source.corpus.analysis_corpus(seed):
            spec = germ_io.germ_spec_from_dict(entry["doc"])
            forms.append((pipeline.classify_spec(spec).nf, tuple(spec.probes)))
    return forms


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


def ref_tokenize(text):
    """Tokens read character by character, each with the line and column
    counted as the loop goes: the reference for germ_io._tokenize."""
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


class _RefParser:
    """The expression grammar evaluated as a chain of Jet2 operations: every
    number and variable is a jet, every '*' a jet product, every '^' a Jet2
    power and every '/' a new jet of the quotients.  The reference for
    germ_io's monomial parser."""

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
            elif tok.kind == "op" and tok.value == "/":
                self.advance()
                dtok = self.advance()
                if dtok.kind not in ("int", "rational", "decimal"):
                    raise ParseError("a number literal must follow '/'", dtok.line, dtok.col)
                d = self._number(dtok).constant_term()
                if not d:
                    raise ParseError("division by zero", dtok.line, dtok.col)
                jet = Jet2(self.order, {k: c / d for k, c in jet.coeffs.items()}, self.mode)
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


def ref_parse_polynomial(text, variables=("u", "v"), order=6, mode=EXACT):
    """germ_io.parse_polynomial as a chain of Jet2 operations, on the tokens of
    ref_tokenize."""
    return _RefParser(ref_tokenize(text), tuple(variables), order, mode).parse()


def _ref_mul_series(a, b, n):
    """Product of dense one-variable series, truncated after degree n."""
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i]):
                if y:
                    out[i + j] += x * y
    return out


def _ref_horner(polys, x, n):
    """sum_i polys[i](t) * x(t)^i as a dense series truncated after degree n.

    ``x`` must vanish at 0: with x = O(t^m), polys[i] only reaches
    degrees >= i*m, so the sum stops at i = n // m.
    """
    m = next((d for d, c in enumerate(x) if c), None)
    top = min(len(polys) - 1, n // m) if m else 0
    acc = polys[top][: n + 1]
    for i in range(top - 1, -1, -1):
        acc = _ref_mul_series(acc, x, n)
        for d, c in enumerate(polys[i][: n + 1]):
            if c:
                acc[d] += c
    return acc


def ref_critical_curve_restriction(f, solve_for="u"):
    """Dense coefficients g[0..order] of f restricted to its critical curve.

    For ``solve_for="u"``, phi(v) = p_1 v + p_2 v^2 + ... solves
    f_u(phi(v), v) = 0 one coefficient at a time,

        p_k = -[v^k] f_u(phi_{<k}(v), v) / (2 c_20),

    and g(v) = f(phi(v), v).  ``solve_for="v"`` swaps the roles of u and v.
    This is the splitting lemma: in the coordinates (u - phi(v), v), f is
    c_20 (u - phi)^2 (1 + ...) + g(v).  f must have a critical point at
    the origin and a nonzero coefficient on the square of the solved
    variable.  Works over Fractions or floats.

    The Fraction/float arithmetic that the integer kernel
    ``oracle.restriction`` replaced: the test-only reference for it.
    """
    if solve_for not in ("u", "v"):
        raise UsageError("solve_for must be 'u' or 'v'")
    lead = 2 * f.coeff(*((2, 0) if solve_for == "u" else (0, 2)))
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
        phi[k] = -_ref_horner(f_s, phi, k)[k] / lead
    zero = scalar(0, f.mode)
    return [c or zero for c in _ref_horner(rows, phi, order)]


def series_at(cols, idx):
    """The series of every column at index idx, as plain coefficient lists."""
    return {key: [col[idx] for col in series] for key, series in cols.items()}


def unit_defect(cols, idx):
    """Series of n1^2 + n2^2 + n3^2 - 1 at index idx of the normal columns
    n1..n3 (vanishes through its depth when the normal has unit length)."""
    def square(a):
        return [a[0] * a[0], 2 * a[0] * a[1], 2 * a[0] * a[2] + a[1] * a[1]]

    normal = ([col[idx] for col in cols[key]] for key in ("n1", "n2", "n3"))
    total = [sum(terms) for terms in zip(*map(square, normal))]
    total[0] -= 1.0
    return total


def germ_from_strings(components, order, mode=EXACT):
    from germforge.germ_io import parse_polynomial

    jets = [parse_polynomial(c, ("u", "v"), order, mode) for c in components]
    return GermJets(*jets)


def raw_geometry(ctx, r, theta, germ=None):
    """Point-wise geometry at the blow-up node (r, theta), one node at a time.

    The scalar reference for the series pipeline, the mesh kernel and the
    curvature limits: the germ (default: the context's normal form) is
    evaluated with its jet partials at (u, v) = (r cos, r^(n+1) cos^n sin).
    Returns the point, g_u, g_v, E/F/G, the unit normal with the extended
    orientation sign(r^(n+1) cos^n theta), L/M/N, the Gaussian curvature K,
    and the bounded and unbounded principal curvatures kappa and kappa2.
    Where g_u x g_v vanishes the normal and every value built on it is None;
    kappa and kappa2 are also None where E G - F^2 <= 0 or the mean term
    E N - 2 F M + G L vanishes.
    """
    n = ctx.n
    c, s = math.cos(theta), math.sin(theta)
    u, v = r * c, r ** (n + 1) * c**n * s
    comps = (ctx.nf.reconstruct() if germ is None else germ).components()

    def at(jets):
        return np.array([jet.evaluate(u, v) for jet in jets])

    du = [comp.partial("u") for comp in comps]
    dv = [comp.partial("v") for comp in comps]
    gu, gv = at(du), at(dv)
    E, F, G = gu @ gu, gu @ gv, gv @ gv
    geo = dict(point=at(comps), gu=gu, gv=gv, E=E, F=F, G=G, normal=None,
               L=None, M=None, N=None, K=None, kappa=None, kappa2=None)
    cross = np.cross(gu, gv)
    norm = np.linalg.norm(cross)
    if norm == 0.0:
        return geo
    nhat = math.copysign(1.0, r ** (n + 1) * c**n) * cross / norm
    L = nhat @ at([d.partial("u") for d in du])
    M = nhat @ at([d.partial("v") for d in du])
    N = nhat @ at([d.partial("v") for d in dv])
    A = E * G - F * F
    B = E * N - 2 * F * M + G * L
    C = L * N - M * M
    geo.update(normal=nhat, L=L, M=M, N=N, K=C / A)
    if A > 0.0 and B != 0.0:
        root = B + math.copysign(math.sqrt(max(B * B - 4 * A * C, 0.0)), B)
        geo.update(kappa=2 * C / root, kappa2=root / (2 * A))
    return geo


@pytest.fixture
def rng():
    return random.Random(20240817)
