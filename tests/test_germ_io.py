import ast
import io
import json
import math
import pathlib
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from germforge import germ_io
from germforge.errors import ParseError, SchemaError, UsageError
from germforge.germ_io import (
    MAX_ORDER,
    GermSpec,
    emit_mesh,
    emit_report,
    expand_germ,
    format_number,
    germ_spec_from_dict,
    load_germ,
    parse_polynomial,
    print_polynomial,
    write_json,
)
from germforge.jets import EXACT, FLOAT, Jet2, scalar
from germforge.pipeline import classify_spec

from germforge.front import Mesh, WavefrontSpec, surface_mesh, wavefront_mesh

from conftest import germ_from_strings, rand_jet, ref_parse_polynomial, ref_tokenize


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


class TestParse:
    def test_v_squared(self):
        jet = parse_polynomial("v^2", order=4)
        assert jet == Jet2(4, {(0, 2): 1})

    def test_sum_of_monomials(self):
        jet = parse_polynomial("u^2*v + v^3", order=4)
        assert jet == Jet2(4, {(2, 1): 1, (0, 3): 1})

    def test_rational_coefficients(self):
        jet = parse_polynomial("1/2*v^2 - 3*u*v", order=4)
        assert jet == Jet2(4, {(0, 2): Fraction(1, 2), (1, 1): -3})

    def test_parentheses_and_unary_minus(self):
        # '-' is part of base, so the power applies to the negated base
        jet = parse_polynomial("-(u - v)^2", order=4)
        assert jet == Jet2(4, {(2, 0): 1, (1, 1): -2, (0, 2): 1})
        jet = parse_polynomial("0 - (u - v)^2", order=4)
        assert jet == Jet2(4, {(2, 0): -1, (1, 1): 2, (0, 2): -1})

    def test_unknown_identifier(self):
        with pytest.raises(ParseError) as exc:
            parse_polynomial("u + w", order=3)
        assert "w" in str(exc.value)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_polynomial("u + * v", order=3)
        assert exc.value.line == 1
        assert exc.value.column == 5

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("u^(1/2)", order=3)

    def test_decimal_needs_float_mode(self):
        with pytest.raises(ParseError):
            parse_polynomial("0.5*v^2", order=3, mode=EXACT)
        jet = parse_polynomial("0.5*v^2", order=3, mode=FLOAT)
        assert jet.coeff(0, 2) == 0.5

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("2u", order=3)

    def test_custom_variable_names(self):
        jet = parse_polynomial("x*y^2", variables=("x", "y"), order=4)
        assert jet == Jet2(4, {(1, 2): 1})

    def test_parse_print_round_trip(self):
        rng = random.Random(3)
        for _ in range(20):
            jet = rand_jet(rng, 5)
            text = print_polynomial(jet)
            assert parse_polynomial(text, order=5) == jet

    def test_float_print_round_trip(self):
        # print_polynomial writes floats with 17 significant digits, in
        # exponent notation where '.17g' picks it
        for c, exponent in ((1e-5, "e-05"), (1e20, "e+20"), (-2.5e-7, "e-07")):
            jet = Jet2(4, {(2, 0): c, (0, 1): 3.5 * c, (1, 2): c / 3}, FLOAT)
            text = print_polynomial(jet)
            assert exponent in text and text.count("e") == 3
            back = parse_polynomial(text, order=4, mode=FLOAT)
            assert back.coeffs == jet.coeffs
        jet = parse_polynomial("0.00001*u^2 + 3.5*v", order=4, mode=FLOAT)
        assert parse_polynomial(print_polynomial(jet), order=4, mode=FLOAT) == jet

    def test_exponent_literals(self):
        jet = parse_polynomial("1e5*u + 2.5E-3*v^2 - 3e+2*u*v", order=3, mode=FLOAT)
        assert jet.coeffs == {(1, 0): 1e5, (0, 2): 0.0025, (1, 1): -300.0}
        with pytest.raises(ParseError, match="'1e5' requires float mode") as exc:
            parse_polynomial("u + 1e5*v", order=3)
        assert exc.value.column == 5
        # an 'e' without digits is not an exponent
        with pytest.raises(ParseError, match="unexpected trailing input"):
            parse_polynomial("2e*u", order=3, mode=FLOAT)
        with pytest.raises(ParseError, match="outside float range"):
            parse_polynomial("1e400*u", order=3, mode=FLOAT)
        assert parse_polynomial("1e-400*u + v", order=3, mode=FLOAT).coeffs == {(0, 1): 1.0}

    def test_non_ascii_digit_is_a_parse_error(self):
        for text, column in (("\u00b2*u", 1), ("u^\u00b2", 3)):
            with pytest.raises(ParseError, match="unexpected character") as exc:
                parse_polynomial(text, order=3)
            assert exc.value.column == column


def _rand_number(rng, mode):
    r = rng.random()
    if r < 0.15:
        return "0"
    if r < 0.45:
        return str(rng.randint(1, 12))
    if r < 0.7 or mode == EXACT and r < 0.97:
        return "%d/%d" % (rng.randint(1, 9), rng.randint(1, 7))
    if r < 0.8:
        return "0.5"
    # float literals from 1e-10 to 1e300, most of them small enough to multiply
    exponent = rng.randint(-10, 300) if rng.random() < 0.2 else rng.randint(-10, 3)
    return "%.3g" % (rng.uniform(1, 10) * 10.0 ** exponent)


def _rand_base(rng, mode, depth):
    r = rng.random()
    if r < 0.4:
        return rng.choice("uv")
    if r < 0.65:
        return _rand_number(rng, mode)
    if r < 0.85 and depth < 2:
        return "(%s)" % _rand_expr(rng, mode, depth + 1)
    return "-" + _rand_base(rng, mode, depth)


def _rand_term(rng, mode, depth):
    factors = []
    for _ in range(rng.randint(1, 4)):
        base = _rand_base(rng, mode, depth)
        if rng.random() < 0.35:
            base += "^%d" % rng.choice((0, 1, 2, 3, 4, 5, 7, 9, 17, 33))
        factors.append(base)
    term = "*".join(factors)
    if rng.random() < 0.25:
        term += "/" + _rand_number(rng, mode)  # "/0" is an error
    return term


def _rand_expr(rng, mode, depth=0):
    terms = []
    for _ in range(rng.randint(1, 4)):
        if terms and rng.random() < 0.2:
            term = rng.choice(terms)  # the same term again: cancels or doubles
        else:
            term = _rand_term(rng, mode, depth)
        terms.append(term)
    return terms[0] + "".join(rng.choice((" + ", " - ")) + t for t in terms[1:])


def _outcome(parse, text, order, mode):
    """Coefficients in key order (floats as hex), or the exception raised."""
    try:
        jet = parse(text, order=order, mode=mode)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    assert jet.order == order and jet.mode == mode
    items = list(jet.coeffs.items())
    if mode == FLOAT:
        assert all(type(c) is float for _, c in items)
        return [(k, c.hex()) for k, c in items]
    assert all(type(c) is Fraction for _, c in items)
    return items


class TestMonomialParser:
    """parse_polynomial keeps a term of numbers and variable powers as one
    monomial; every result, and every error, equals the chain of Jet2
    operations the grammar spells out."""

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_matches_jet_chain_reference(self, mode):
        rng = random.Random(1414 if mode == EXACT else 1415)
        errors = 0
        for _ in range(600):
            text = _rand_expr(rng, mode)
            order = rng.randint(1, 17)
            want = _outcome(ref_parse_polynomial, text, order, mode)
            assert _outcome(parse_polynomial, text, order, mode) == want, (text, order)
            errors += isinstance(want, tuple)
        assert 0 < errors < 300

    @pytest.mark.parametrize("text, order, want", [
        # no floor: 0.5^32 inside the power is a number like any other
        ("0.5^33*100000*u", 6, {(1, 0): 0.5 ** 33 * 100000}),
        ("0.5^29*100000*u", 6, {(1, 0): 0.5 ** 29 * 100000}),
        # above the order a term is zero, and so is every product with it
        ("u^4*1e300*1e300 + v", 3, {(0, 1): 1.0}),
        ("(u + v)^2 - u*v*2 - u^2", 2, {(0, 2): 1.0}),
        ("1e-10*u + 1", 2, {(1, 0): 1e-10, (0, 0): 1.0}),
        # a key that cancels and comes back goes to the end
        ("u + v - u + 3*u", 2, {(0, 1): 1.0, (1, 0): 3.0}),
    ])
    def test_float_terms_like_one_term_jets(self, text, order, want):
        jet = parse_polynomial(text, order=order, mode=FLOAT)
        assert list(jet.coeffs.items()) == list(want.items())
        assert _outcome(ref_parse_polynomial, text, order, FLOAT) == _outcome(
            parse_polynomial, text, order, FLOAT)

    @pytest.mark.parametrize("text, want", [
        ("v^2/2", {(0, 2): Fraction(1, 2)}),
        ("u^3/6", {(3, 0): Fraction(1, 6)}),
        ("u/2", {(1, 0): Fraction(1, 2)}),
        ("(u+v)/2", {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}),
        # p/q is one literal, except after '^' or '/'
        ("u*v^2/2/3 - 1/2*u^2 / 4", {(1, 2): Fraction(1, 6), (2, 0): Fraction(-1, 8)}),
        ("2/3^2 + 2^3/4", {(0, 0): Fraction(4, 9) + 2}),
    ])
    def test_division_by_a_number_literal(self, text, want):
        for mode in (EXACT, FLOAT):
            jet = parse_polynomial(text, order=4, mode=mode)
            assert jet.coeffs == {k: scalar(c, mode) for k, c in want.items()}, mode
            assert _outcome(ref_parse_polynomial, text, 4, mode) == _outcome(
                parse_polynomial, text, 4, mode)

    @pytest.mark.parametrize("text, message, column", [
        ("u/v", "a number literal must follow '/'", 3),
        ("u/(2)", "a number literal must follow '/'", 3),
        ("u/-2", "a number literal must follow '/'", 3),
        ("u/", "a number literal must follow '/'", 3),
        ("u/0", "division by zero", 3),
        ("u/1/0", "division by zero", 5),
        ("u + 1/0", "zero denominator", 5),
        ("u^x", "exponent must be a nonnegative integer", 3),
        ("u^-1", "exponent must be a nonnegative integer", 3),
        ("u^2.5", "exponent must be a nonnegative integer", 3),
        ("u%2", "unexpected character '%'", 2),
        ("u*/2", "unexpected token '/'", 3),
    ])
    def test_division_and_exponent_errors(self, text, message, column):
        for mode in (EXACT, FLOAT):
            with pytest.raises(ParseError, match="^" + re.escape(message)) as exc:
                parse_polynomial(text, order=4, mode=mode)
            assert exc.value.column == column
        with pytest.raises(ParseError, match="division by zero"):
            parse_polynomial("u/1e-400", order=4, mode=FLOAT)  # the literal underflows
        with pytest.raises(UsageError, match="must be finite"):
            parse_polynomial("1e300*u/1e-300", order=4, mode=FLOAT)

    def test_overflow_raises_the_jet_error(self):
        for text in ("1e300*1e300*u", "u + 1e200^2", "1e300*u + 1e308*u*10"):
            with pytest.raises(UsageError, match="must be finite") as exc:
                parse_polynomial(text, order=3, mode=FLOAT)
            with pytest.raises(UsageError) as ref:
                ref_parse_polynomial(text, order=3, mode=FLOAT)
            assert str(exc.value) == str(ref.value)

    def test_bad_order_or_mode_is_refused_before_parsing(self):
        with pytest.raises(UsageError, match="jet order must be a nonnegative integer"):
            parse_polynomial("1", order=-1)
        with pytest.raises(UsageError, match="mode must be 'exact' or 'float'"):
            parse_polynomial("u", order=3, mode="double")

    # every term a product of numbers and variable powers, as germ files are
    MONOMIAL_SUM = "1/2*v^2 - 3*u^2*v^3 + 2/5*u^7*v + u^3*v^2*u^2 - 7/3*v^17 + u^18"

    @staticmethod
    def _jet_products(monkeypatch, parse, mode):
        counts = {"mul": 0, "pow": 0}
        mul, pow_ = Jet2.__mul__, Jet2.__pow__

        def counting_mul(a, b):
            counts["mul"] += isinstance(b, Jet2)
            return mul(a, b)

        def counting_pow(a, n):
            counts["pow"] += 1
            return pow_(a, n)

        with monkeypatch.context() as m:
            m.setattr(Jet2, "__mul__", counting_mul)
            m.setattr(Jet2, "__pow__", counting_pow)
            jet = parse(TestMonomialParser.MONOMIAL_SUM, order=17, mode=mode)
        assert len(jet.coeffs) == 5
        return counts

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_monomial_sum_makes_no_jet_product(self, monkeypatch, mode):
        assert self._jet_products(monkeypatch, parse_polynomial, mode) == {"mul": 0, "pow": 0}

    def test_guard_sees_the_jet_chain(self, monkeypatch):
        counts = self._jet_products(monkeypatch, ref_parse_polynomial, EXACT)
        assert counts["mul"] > 0 and counts["pow"] > 0


def tokens_or_error(text):
    """germ_io's tokens of ``text`` as (kind, text, line, column), lines split
    at "\\n" and columns counted from 1, or the ParseError's message."""
    try:
        tokens = germ_io._tokenize(text)
    except ParseError as exc:
        return str(exc)
    return [(kind, value, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))
            for kind, value, offset in tokens]


def ref_tokens_or_error(text):
    try:
        tokens = ref_tokenize(text)
    except ParseError as exc:
        return str(exc)
    return [(tok.kind, tok.value, tok.line, tok.col) for tok in tokens]


def code_point_texts(code_points):
    """Each code point alone and after u, before u, between digits and as an exponent."""
    for cp in code_points:
        ch = chr(cp)
        yield from (ch, "u" + ch, ch + "u", "2%s3" % ch, "u^" + ch)


def sampled_code_points(seed=0):
    """Every code point below U+3000 and one drawn from each 256-point block
    above it, surrogates left out."""
    rng = random.Random(seed)
    above = (rng.randrange(block, block + 256) for block in range(0x3000, 0x110000, 256))
    return [*range(0x3000), *(cp for cp in above if not 0xD800 <= cp < 0xE000)]


class TestTokenizerMatchesReference:
    """germ_io's one-pattern tokenizer gives the character loop's tokens,
    lines and columns, or its error message."""

    def _check(self, texts):
        outcomes = set()
        for text in texts:
            want = ref_tokens_or_error(text)
            assert tokens_or_error(text) == want, repr(text)
            if isinstance(want, str):
                outcomes.add(re.match("[a-z ]*[a-z]", want).group())  # the message, no repr
            else:
                outcomes.update(kind for kind, *_ in want)
        return outcomes

    def test_sampled_code_points_in_context(self):
        outcomes = self._check(code_point_texts(sampled_code_points()))
        assert outcomes == {"end", "op", "int", "ident", "decimal", "rational",
                            "unexpected character"}

    def test_random_strings(self):
        rng = random.Random(2611)
        # "\r" and U+2028 split lines for str.splitlines, but not here
        alphabet = "0123456789.eE+-*/^()  \t\n\r\u2028_²٣é"
        texts = ["".join(rng.choices(alphabet, k=rng.randint(1, 12))) for _ in range(20000)]
        outcomes = self._check(texts)
        assert {"decimal", "rational", "digits expected after decimal point"} <= outcomes


class TestGermFiles:
    GERM = {
        "variables": ["u", "v"],
        "components": ["u", "v^2", "v^3 + u^2*v"],
        "order": 6,
        "mode": "exact",
    }

    def test_load_table_entry(self, tmp_path):
        path = tmp_path / "germ.json"
        path.write_text(json.dumps(self.GERM))
        spec, jets = load_germ(path)
        assert spec.order == 6
        assert jets.y == Jet2(6, {(0, 2): 1})
        assert jets.z == Jet2(6, {(0, 3): 1, (2, 1): 1})

    def test_missing_field_names_path(self):
        bad = dict(self.GERM)
        del bad["components"]
        with pytest.raises(SchemaError) as exc:
            germ_spec_from_dict(bad)
        assert "components" in str(exc.value)

    def test_bad_mode_rejected(self):
        bad = dict(self.GERM, mode="fuzzy")
        with pytest.raises(SchemaError) as exc:
            germ_spec_from_dict(bad)
        assert "mode" in str(exc.value)

    def test_boolean_order_rejected(self):
        with pytest.raises(SchemaError) as exc:
            germ_spec_from_dict(dict(self.GERM, order=True))
        assert str(exc.value) == "germ.order: expected int"

    def test_order_above_the_cap_rejected(self):
        assert germ_spec_from_dict(dict(self.GERM, order=MAX_ORDER)).order == 20
        with pytest.raises(SchemaError) as exc:
            germ_spec_from_dict(dict(self.GERM, order=MAX_ORDER + 1))
        assert str(exc.value) == "germ.order: order must be <= 20"

    def test_expand_germ_checks_the_order_cap(self):
        # a GermSpec built in code skips the file schema; order 30 would
        # otherwise reduce for about a second in classify_spec
        spec = GermSpec(("u", "v"), ("u + v^2 + u^3", "v^2 + u*v^2", "u^2*v + v^3"),
                        30, EXACT, (), ())
        for call in (lambda: expand_germ(spec), lambda: classify_spec(spec)):
            with pytest.raises(UsageError) as exc:
                call()
            assert str(exc.value) == "germ order must be an integer in 1..20, got 30"
        for order in (0, MAX_ORDER + 1, True, 2.0):
            with pytest.raises(UsageError, match="germ order must be an integer in 1..20"):
                expand_germ(spec, order=order)
        assert expand_germ(spec, order=MAX_ORDER).x.order == MAX_ORDER
        at_three = GermSpec(spec.variables, spec.components, 3, spec.mode,
                            spec.probes, spec.theta_lambda)
        assert classify_spec(at_three).mond.label == "S1+"

    def test_nonvanishing_component_rejected(self):
        bad = dict(self.GERM, components=["u + 1", "v^2", "v^3"])
        with pytest.raises(SchemaError):
            expand_germ(germ_spec_from_dict(bad))

    def test_probes_parsed(self):
        data = dict(self.GERM, probes=[[0, "1/2", 3]])
        spec = germ_spec_from_dict(data)
        assert spec.probes == ((Fraction(0), Fraction(1, 2), Fraction(3)),)

    def test_exact_probe_numbers_keep_their_float_value(self):
        # a JSON number reads as the nearest small fraction when that fraction
        # gives the number back; integers stay integers of any size
        data = dict(self.GERM, probes=[[0, 1 / 3, 0.1], [10**400, -2.5, 1e-3]])
        spec = germ_spec_from_dict(data)
        assert spec.probes == (
            (Fraction(0), Fraction(1, 3), Fraction(1, 10)),
            (Fraction(10**400), Fraction(-5, 2), Fraction(1, 1000)),
        )

    @pytest.mark.parametrize("entry", [1e-13, 3e-13, 1.5e-12, -7e-14])
    def test_exact_probe_number_without_small_fraction_is_refused(self, entry):
        data = dict(self.GERM, probes=[[0, 1, 0], [0, entry, 1]])
        with pytest.raises(SchemaError) as exc:
            germ_spec_from_dict(data)
        assert exc.value.field == "germ.probes[1]"
        assert "quote it as a string" in str(exc.value)
        # the same number as a string keeps its exact value
        quoted = dict(self.GERM, probes=[[0, repr(entry), 1]])
        assert float(germ_spec_from_dict(quoted).probes[0][1]) == entry

    def test_theta_lambda_parsed(self):
        data = dict(self.GERM, theta_lambda=[[1, "0.25"], ["1/2", -2.5]])
        spec = germ_spec_from_dict(data)
        assert spec.theta_lambda == ((1.0, 0.25), (0.5, -2.5))
        assert all(type(x) is float for pair in spec.theta_lambda for x in pair)

    @pytest.mark.parametrize("field, mode, entry", [
        ("probes", "float", [0, "1e400", 1]),
        ("probes", "float", [0, "nan", 1]),
        ("probes", "float", [0, float("inf"), 1]),
        ("probes", "exact", [0, float("inf"), 1]),
        ("probes", "exact", [0, float("nan"), 1]),
        ("probes", "exact", [0, "x", 1]),
        ("probes", "exact", [0, None, 1]),
        ("theta_lambda", "exact", ["x", 1]),
        ("theta_lambda", "exact", [None, 1]),
        ("theta_lambda", "exact", [float("inf"), 1]),
        ("theta_lambda", "float", [0.5, "-inf"]),
        ("theta_lambda", "float", [10**400, 1]),
        # a JSON true or false is a Python bool, which is also an int
        ("probes", "exact", [False, True, 0]),
        ("probes", "float", [0, 1, True]),
        ("theta_lambda", "exact", [True, 1]),
        ("theta_lambda", "float", [0.5, False]),
    ])
    def test_non_finite_or_non_numeric_entry_names_its_field(self, field, mode, entry):
        good = [0, 1, 0] if field == "probes" else [0.1, 1]
        data = dict(self.GERM, mode=mode, **{field: [good, entry]})
        with pytest.raises(SchemaError) as exc:
            germ_spec_from_dict(data)
        assert exc.value.field == "germ.%s[1]" % field

    def test_short_bad_entry_is_echoed_whole(self):
        with pytest.raises(SchemaError) as exc:
            germ_spec_from_dict(dict(self.GERM, probes=[[0, "1/0x", 1]]))
        assert str(exc.value) == "germ.probes[0]: expected a finite number, got '1/0x'"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python has no int/str digit limit")
    def test_integer_past_the_digit_limit_is_a_schema_error(self):
        # json.load refuses such a number; a dict built in code can hold it
        with pytest.raises(SchemaError) as exc:
            germ_spec_from_dict(dict(self.GERM, theta_lambda=[[10**5000, 1]]))
        assert str(exc.value) == (
            "germ.theta_lambda[0]: expected a finite number, got an integer past the "
            "limit of %d digits on int/str conversion" % sys.get_int_max_str_digits())

    def test_literal_outside_float_range_is_a_parse_error(self):
        big = "1" + "0" * 400
        with pytest.raises(ParseError) as exc:
            parse_polynomial("u^2*v + %s*u^4" % big, order=6, mode=FLOAT)
        assert (exc.value.line, exc.value.column) == (1, 9)
        assert big not in str(exc.value) and len(str(exc.value)) < 120
        with pytest.raises(ParseError):
            parse_polynomial(big + ".5*u^4", order=6, mode=FLOAT)
        # the same literal is an exact rational
        assert parse_polynomial(big + "*u", order=2).coeff(1, 0) == 10**400

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python has no int/str digit limit")
    @pytest.mark.parametrize("text, order, message, column", [
        ("u^2*v + v^" + "9" * 5000, 6, "number literal of 5000 characters exceeds", 11),
        # a power stops before its coefficient outgrows the limit, also where
        # the term is truncated away or squaring grows it slowly (a constant
        # term of 1)
        ("u^2/2 + 3^10000000*u^2*v + v^3", 6, "power has a coefficient past", 11),
        ("2^" + "9" * 40 + "*u^7", 6, "power has a coefficient past", 3),
        ("(1+u)^" + "9" * 1000, 20, "power has a coefficient past", 7),
        ("(u - 1)^" + "9" * 4000, 17, "power has a coefficient past", 9),
        ("10^5000*u^3", 6, "power has a coefficient past", 4),
    ])
    def test_past_the_digit_limit_is_a_positioned_parse_error(self, text, order, message,
                                                               column):
        with pytest.raises(ParseError) as exc:
            parse_polynomial(text, order=order)
        assert str(exc.value) == "%s the limit of %d digits on int/str conversion " \
            "(line 1, column %d)" % (message, sys.get_int_max_str_digits(), column)

    def test_powers_below_the_digit_limit_parse(self):
        assert parse_polynomial("2^3 + (u+v)^3", order=6).coeffs == {
            (0, 0): 8, (3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}
        n = 10**10
        want = {(j, 0): Fraction(math.comb(n, j)) for j in range(7)}
        assert parse_polynomial("(1+u)^%d" % n, order=6).coeffs == want
        assert parse_polynomial("10^4000", order=2).coeff(0, 0) == 10**4000


class TestReports:
    def test_format_number_strings(self):
        # a float takes the first branch; every value keeps its old string
        def old_format(x):
            if isinstance(x, Fraction):
                return str(x)
            if isinstance(x, int):
                return str(x)
            return format(float(x), ".17g")

        values = [0.1, -0.0, 1e300, -2.5e-310, 1 / 3, float("inf"), np.float64(0.1),
                  np.float32(0.1), Fraction(1, 3), Fraction(-4), 7, 2**70, True]
        for x in values:
            assert format_number(x) == old_format(x), x
        assert [format_number(x) for x in (0.1, np.float64(0.1), Fraction(1, 3), True)] == [
            "0.10000000000000001", "0.10000000000000001", "1/3", "True"]

    def test_round_trip(self, tmp_path):
        report = {
            "class": {"label": "S1+", "k": "1"},
            "normal_form": {"a": {"2,1": "3/2"}},
            "geometry": None,
            "distance": None,
            "focal_locus": None,
            "warnings": ["float mode"],
        }
        path = tmp_path / "report.json"
        emit_report(report, path)
        assert json.loads(path.read_text()) == report

    def test_write_json_path_and_stream_agree(self, tmp_path):
        doc = {"b": [1, "2/3"], "a": {"z": None, "y": True}}
        path = tmp_path / "doc.json"
        write_json(doc, path)
        buf = io.StringIO()
        write_json(doc, buf)
        text = '{\n  "a": {\n    "y": true,\n    "z": null\n  },\n  "b": [\n    1,\n    "2/3"\n  ]\n}\n'
        assert path.read_text() == buf.getvalue() == text

    def test_write_json_writes_the_bytes_of_json_dumps(self):
        # the bytes of json.dumps once each float and Fraction value is the
        # string format_number gives, the report convention
        def as_reported(doc):
            if type(doc) in (float, Fraction):
                return format_number(doc)
            if isinstance(doc, dict):
                return {key: as_reported(value) for key, value in doc.items()}
            if isinstance(doc, (list, tuple)):
                return [as_reported(value) for value in doc]
            return doc

        docs = [
            {}, [], "", None, 7, 0.1, {"k": []}, {"k": {}}, [[], {}, ()],
            {"b": (1, 2.5, -0.0), "a": {"é": "☃\n\"\\", "t": [True, False, None]}, "": 10**30},
            {1: "int key", 2.5: "float key"}, {"nan": math.nan, "inf": [math.inf, -math.inf]},
            [{"z": [{"y": [1, [2, [3]]]}]}, "\x00\t\ud83d"],
            {"q": [Fraction(1, 3), Fraction(-4), 1 / 3, 1e300]},
        ]
        for doc in docs:
            buf = io.StringIO()
            write_json(doc, buf)
            want = json.dumps(as_reported(doc), indent=2, sort_keys=True) + "\n"
            assert buf.getvalue() == want, doc


SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "germforge"


def _format_number_lines(source):
    """Lines of a module that name format_number: a read, an attribute or an
    import."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if (isinstance(node, ast.Name) and node.id == "format_number")
            or (isinstance(node, ast.Attribute) and node.attr == "format_number")
            or (isinstance(node, ast.alias) and node.name == "format_number")]


class TestOneNumberFormatter:
    """write_json applies the report's number convention; no other module
    formats a number for a report."""

    def test_only_germ_io_names_format_number(self):
        modules = sorted(SRC.glob("*.py"))
        assert len(modules) > 5 and SRC / "germ_io.py" in modules
        named = {path.name: _format_number_lines(path.read_text()) for path in modules
                 if path.name != "germ_io.py"}
        assert {name: lines for name, lines in named.items() if lines} == {}

    def test_guard_sees_a_planted_use(self):
        source = ("from .germ_io import format_number, write_json\n"
                  "from . import germ_io\n"
                  "def section(x):\n"
                  "    return {'x': format_number(x), 'y': germ_io.format_number(x)}\n")
        assert sorted(_format_number_lines(source)) == [1, 4, 4]


class TestMeshIO:
    class _Mesh:
        vertices = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.5)]
        faces = [(0, 1, 1)]

    def test_obj_output(self, tmp_path):
        path = tmp_path / "m.obj"
        emit_mesh(self._Mesh(), path, "obj")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("v 0")
        assert lines[-1] == "f 1 2 2"

    def test_csv_output(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_mesh(self._Mesh(), path, "csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,z"
        assert len(lines) == 3

    @staticmethod
    def _numpy_meshes():
        germ = germ_from_strings(["u", "v^2", "u^2*v + v^3"], 5).to_float()
        odd = WavefrontSpec(t0=0.3, grid=(9, 11), extent=0.7)
        special = np.array([[-0.0, 1e-300, -1.5e300], [0.1, 2.0 / 3.0, -7.0]])
        return [
            surface_mesh(germ, (41, 37), 0.9),  # more lines than one block
            wavefront_mesh(germ, odd, -1),  # drops the node at the origin
            Mesh(special, np.array([[0, 1, 1]])),
            Mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int)),
        ]

    @pytest.mark.parametrize("fmt", ["obj", "csv"])
    def test_numpy_mesh_bytes_match_reference(self, tmp_path, fmt):
        for idx, mesh in enumerate(self._numpy_meshes()):
            path = tmp_path / ("m%d.%s" % (idx, fmt))
            emit_mesh(mesh, path, fmt)
            want = reference_mesh_text(mesh, fmt)
            assert path.read_bytes() == want.encode("utf-8")
            buf = io.StringIO()
            emit_mesh(mesh, buf, fmt)
            assert buf.getvalue() == want

    def test_empty_mesh_text(self):
        empty = Mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
        for fmt, want in (("obj", "\n"), ("csv", "x,y,z\n")):
            buf = io.StringIO()
            emit_mesh(empty, buf, fmt)
            assert buf.getvalue() == want

    def test_bad_format_writes_nothing(self, tmp_path):
        path = tmp_path / "m.ply"
        with pytest.raises(UsageError):
            emit_mesh(self._Mesh(), path, "ply")
        assert not path.exists()
