import ast
import io
import json
import math
import pathlib
import pickle
import random
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germforge import front, germ_io
from germforge.errors import GermforgeError, ParseError, SchemaError, UsageError
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
from germforge.pipeline import (
    base_report, classify_spec, distance_section, focal_section,
)

from germforge.front import Mesh, WavefrontSpec, surface_mesh, wavefront_mesh

from conftest import (
    germ_from_strings, rand_jet, ref_parse_polynomial, ref_tokenize, reference_mesh_text,
)


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
        assert str(exc.value) == "germ.order: order must be an integer in 1..20, got True"

    def test_order_above_the_cap_rejected(self):
        assert germ_spec_from_dict(dict(self.GERM, order=MAX_ORDER)).order == 20
        with pytest.raises(SchemaError) as exc:
            germ_spec_from_dict(dict(self.GERM, order=MAX_ORDER + 1))
        assert str(exc.value) == "germ.order: order must be an integer in 1..20, got 21"

    def test_expand_germ_checks_the_order_cap(self):
        # a GermSpec built in code meets the file's order rule, and so does
        # an order given to expand_germ; order 30 would otherwise reduce for
        # about a second in classify_spec
        components = ("u + v^2 + u^3", "v^2 + u*v^2", "u^2*v + v^3")
        with pytest.raises(SchemaError) as exc:
            GermSpec(("u", "v"), components, 30, EXACT, (), ())
        assert str(exc.value) == "germ.order: order must be an integer in 1..20, got 30"
        spec = GermSpec(("u", "v"), components, 6, EXACT, (), ())
        for order in (0, MAX_ORDER + 1, True, 2.0):
            with pytest.raises(SchemaError) as exc:
                expand_germ(spec, order=order)
            assert str(exc.value) == (
                "germ.order: order must be an integer in 1..20, got %r" % (order,))
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


class TestGermSpecChecksItsFields:
    """GermSpec applies the germ file's rules to a spec built in code: each
    malformed field raises SchemaError at construction, named by its path,
    and a spec that is built classifies and reports with nothing but a
    GermforgeError."""

    VARIABLES, COMPONENTS = ("u", "v"), ("u", "v^2", "v^3 + u^2*v")

    @pytest.mark.parametrize("fields, error", [
        (dict(components=("u", "v^2")), "germ.components: expected three expression strings"),
        (dict(components=("u", "v^2", 3)), "germ.components: expected three expression strings"),
        (dict(variables=("u", "u")), "germ.variables: variables must be distinct"),
        (dict(variables="uv"), "germ.variables: expected list"),
        (dict(probes=((0, 0),)), "germ.probes[0]: expected [x, y, z]"),
        (dict(theta_lambda=((0.3,),)), "germ.theta_lambda[0]: expected [theta, lambda]"),
        (dict(probes=((0, "x", 1),)), "germ.probes[0]: expected a finite number, got 'x'"),
        (dict(mode="fuzzy"), "germ.mode: mode must be 'exact' or 'float'"),
        (dict(order=10**5000),
         "germ.order: order must be an integer in 1..20, got an integer past "
         + germ_io._digit_limit_text()),
    ], ids=["two-components", "int-component", "same-variables", "variables-string",
            "short-probe", "short-pair", "non-numeric-probe", "mode", "huge-order"])
    def test_malformed_field_is_refused_at_construction(self, fields, error):
        if "integer past" in error and not germ_io.digit_limit():
            pytest.skip("no int/str digit limit: the order's repr is echoed")
        given = dict(dict(variables=self.VARIABLES, components=self.COMPONENTS, order=6,
                          mode=EXACT), **fields)
        with pytest.raises(SchemaError) as exc:
            GermSpec(**given)
        assert str(exc.value) == error
        assert exc.value.field == error.split(":")[0]

    def test_code_and_file_meet_the_same_rules(self):
        # each malformed document gives the file reader's message, whether
        # read from a dict or built in code from the same values
        good = dict(variables=["u", "v"], components=list(self.COMPONENTS), order=6,
                    mode=EXACT)
        for key, value in [("variables", ["u", "1v"]), ("components", "u"),
                           ("order", 0), ("order", 21), ("order", True), ("order", 6.0),
                           ("mode", None), ("probes", {}), ("probes", [[0, 1, None]]),
                           ("theta_lambda", [[0.5, "inf"]])]:
            doc = dict(good, **{key: value})
            with pytest.raises(SchemaError) as from_file:
                germ_spec_from_dict(doc)
            with pytest.raises(SchemaError) as from_code:
                GermSpec(**doc)
            assert str(from_code.value) == str(from_file.value)
            assert from_file.value.field.startswith("germ." + key)

    def test_probes_are_held_in_the_spec_mode(self):
        spec = GermSpec(self.VARIABLES, self.COMPONENTS, 6, EXACT,
                        [[0, 0.1, Fraction(1, 3)]], [[Fraction(1, 2), 2]])
        assert spec.probes == ((Fraction(0), Fraction(1, 10), Fraction(1, 3)),)
        assert all(type(x) is Fraction for x in spec.probes[0])
        assert spec.theta_lambda == ((0.5, 2.0),)
        assert all(type(x) is float for x in spec.theta_lambda[0])
        floats = GermSpec(self.VARIABLES, self.COMPONENTS, 6, FLOAT, [["1/4", 1, 0.5]])
        assert floats.probes == ((0.25, 1.0, 0.5),)
        assert all(type(x) is float for x in floats.probes[0])

    # ill-typed values a caller might pass for any field: None, bools, ints,
    # non-finite floats, strings and dicts
    _JUNK = (st.none() | st.booleans() | st.integers(-3, 25)
             | st.sampled_from([math.nan, math.inf, -math.inf, 0.5, 2.0])
             | st.text(max_size=3) | st.dictionaries(st.text(max_size=2), st.integers(),
                                                     max_size=2))
    _NUMBER = (st.integers(-4, 4) | st.fractions(max_denominator=5)
               | st.floats(-3, 3, allow_subnormal=False) | st.sampled_from(["1/2", "-0.75"]))

    @staticmethod
    def _sequence(element, size, max_size=None):
        """A list or tuple of ``size`` elements, or of up to ``max_size``."""
        lists = st.lists(element, min_size=size, max_size=size if max_size is None else max_size)
        return lists.flatmap(lambda items: st.sampled_from([items, tuple(items)]))

    @classmethod
    def _fields(cls):
        """Well-typed fields, at most two of them replaced by an ill-typed
        value: junk, a sequence of the wrong length, or one with a junk or
        otherwise malformed entry."""
        number, junk, seq = cls._NUMBER, cls._JUNK, cls._sequence
        entry = number | junk | st.sampled_from(["1e400", "nan", "x", math.nan, math.inf])
        good = {
            "variables": seq(st.just("u"), 1).map(lambda s: type(s)(("u", "v"))),
            "components": seq(st.sampled_from(["u", "v^2"]), 2).flatmap(lambda s: st.sampled_from(
                ["v^3 + u^2*v", "u^2*v + v^5", "u*v", "v^4", "u^3 + v^3"]).map(
                lambda z: type(s)(("u", "v^2", z)))),
            "order": st.integers(1, 20),
            "mode": st.sampled_from([EXACT, FLOAT]),
            "probes": seq(seq(number, 3), 0, 2),
            "theta_lambda": seq(seq(number, 2), 0, 2),
        }
        bad = {
            "variables": seq(st.sampled_from(["u", "v", "x1", "1a", "\u00fc", "", "u_"]), 0, 3),
            "components": seq(st.sampled_from(
                ["u", "v^2", "u + 1", "v^2 +", "w", "0", "u^2", "u*v"]) | junk, 0, 4),
            "order": st.integers(-2, 22) | st.floats(0, 21),
            "mode": st.sampled_from(["Exact", "complex", ""]),
            "probes": seq(seq(entry, 0, 4), 1, 2),
            "theta_lambda": seq(seq(entry, 0, 3), 1, 2),
        }
        return st.lists(st.sampled_from(sorted(good)), max_size=2, unique=True).flatmap(
            lambda keys: st.fixed_dictionaries({
                key: (bad[key] | junk) if key in keys else good[key] for key in good}))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data())
    def test_no_spec_ends_in_a_traceback(self, data):
        fields = data.draw(self._fields())
        try:
            spec = GermSpec(**fields)
        except GermforgeError:
            return
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert hash(GermSpec(*[list(f) if isinstance(f, tuple) else f
                               for f in spec._values()])) == hash(spec)
        try:
            outcome = classify_spec(spec)
        except GermforgeError:
            return
        for section in (lambda: base_report(spec, outcome), lambda: focal_section(outcome),
                        lambda: distance_section(outcome, spec)):
            try:
                section()
            except GermforgeError:
                pass


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

    def test_write_json_folds_a_long_list_into_the_same_bytes(self, tmp_path):
        # a list of many records is joined chunk by chunk as it is encoded
        rows = [{"theta": i / 7, "name": "n%d" % i, "ok": i % 3 == 0}
                for i in range(3 * germ_io._FOLD_AT)]
        doc = {"entries": rows, "nested": [rows[:5], []]}
        buf = io.StringIO()
        write_json(doc, buf)
        reported = {"entries": [dict(r, theta=format_number(r["theta"])) for r in rows]}
        reported["nested"] = [reported["entries"][:5], []]
        assert buf.getvalue() == json.dumps(reported, indent=2, sort_keys=True) + "\n"
        path = tmp_path / "doc.json"
        write_json(doc, path)
        assert path.read_text() == buf.getvalue()

    def test_write_json_encoding_error_leaves_no_partial_file(self, tmp_path):
        bad = {"entries": [{"x": 0.5}] * (2 * germ_io._FOLD_AT) + [object()]}
        path = tmp_path / "doc.json"
        with pytest.raises(TypeError):
            write_json(bad, path)
        assert not path.exists()
        path.write_text("old\n")
        with pytest.raises(TypeError):
            write_json(bad, path)
        assert path.read_text() == "old\n"
        buf = io.StringIO()
        with pytest.raises(TypeError):
            write_json(bad, buf)
        assert buf.getvalue() == ""

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


class TestVertexText:
    """Vertex lines are built by numpy (``front._vertex_text``) for values
    that '%.17g' writes in fixed notation, and by '%' for the other rows;
    either way the file holds the bytes of '%.17g'."""

    BLOCK = germ_io._LINES_PER_WRITE

    @staticmethod
    def _check(values):
        """emit_mesh writes ``values`` (a multiple of 3) as '%.17g' does,
        with no warning."""
        mesh = Mesh(np.asarray(values, dtype=float).reshape(-1, 3), np.zeros((0, 3), dtype=int))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fmt in ("obj", "csv"):
                buf = io.StringIO()
                emit_mesh(mesh, buf, fmt)
                want = reference_mesh_text(mesh, fmt)
                if buf.getvalue() != want:  # name the first wrong line
                    got = buf.getvalue().splitlines()
                    bad = next(i for i, line in enumerate(want.splitlines()) if got[i] != line)
                    pytest.fail("line %d: %r, not %r" % (bad, got[bad], want.splitlines()[bad]))

    @staticmethod
    def _bits(rng, exponents, per_exponent):
        """Random floats of the biased ``exponents``, ``per_exponent`` each,
        of random sign and mantissa."""
        e = np.repeat(np.asarray(exponents, dtype=np.uint64), per_exponent)
        sign = rng.integers(0, 2, len(e), dtype=np.uint64) << np.uint64(63)
        mantissa = rng.integers(0, 2**52, len(e), dtype=np.uint64)
        bits = sign | (e << np.uint64(52)) | mantissa
        return np.concatenate([bits, np.zeros(-len(bits) % 3, np.uint64)]).view(np.float64)

    def test_random_bits_over_every_exponent(self):
        rng = np.random.default_rng(35)
        self._check(self._bits(rng, range(2048), 6))  # subnormals, nan and inf included
        # the exponents '%.17g' writes in fixed notation, 2^-14 .. 2^57, and one past
        self._check(self._bits(rng, range(1023 - 15, 1023 + 58), 300))

    def test_log_uniform_values(self):
        rng = np.random.default_rng(36)
        values = 10.0 ** rng.uniform(-6, 18, 3 * 6000)
        self._check(values * rng.choice([-1.0, 1.0], len(values)))

    def test_powers_of_ten_and_their_neighbours(self):
        values = []
        for k in range(-5, 19):
            p = float("1e%d" % k)
            values += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
        self._check(values)
        self._check([-x for x in values])

    @pytest.mark.parametrize("top", [1e-3, 0.5, 9.5, 10.5, 99999.5, 1e16])
    def test_blocks_of_small_and_of_large_values(self, top):
        # the integer part takes as many words as the block's largest needs,
        # at least one for a lone 0
        rng = np.random.default_rng(39)
        self._check(rng.uniform(1e-4, top, 3 * 50) * rng.choice([-1.0, 1.0], 3 * 50))

    def test_exact_integers_past_two_to_the_53(self):
        self._check([2.0**53 - 2, 2.0**53, 2.0**53 + 2, 99999999999999984.0, 1e17, 1e16])

    @pytest.mark.parametrize("x, text", [
        (1e15 + 0.25, "1000000000000000.2"),
        (1e15 + 0.75, "1000000000000000.8"),
        (123456789012345.125, "123456789012345.12"),
    ])
    def test_half_way_ties_round_to_even(self, x, text):
        assert "%.17g" % x == text
        buf = io.StringIO()
        emit_mesh(Mesh(np.array([[x, -x, 0.0]]), np.zeros((0, 3), dtype=int)), buf, "csv")
        assert buf.getvalue() == "x,y,z\n%s,-%s,0\n" % (text, text)

    def test_signed_zero_subnormal_and_largest_float(self):
        self._check([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -0.0])
        self._check([-0.0, 1.0, 0.0, 1e-4, -1e-4, 0.5])

    def test_nan_and_infinities(self):
        # a Mesh is written as it is; emit_mesh does not validate it
        self._check([math.nan, math.inf, -math.inf, 1.0, -math.nan, 0.25])

    def test_rows_written_by_percent_at_block_edges(self):
        rng = np.random.default_rng(37)
        rows = rng.normal(size=(3 * self.BLOCK + 5, 3))
        rows[0, 0] = 1e-7                   # the first line of the first block
        rows[self.BLOCK - 1, 1] = -2e17     # its last line
        rows[self.BLOCK, 2] = math.inf      # the first line of the second block
        rows[2 * self.BLOCK:3 * self.BLOCK] = 1e-300 * rows[2 * self.BLOCK:3 * self.BLOCK]
        rows[-1, 1] = math.nan              # the last line of the mesh
        self._check(rows)

    def test_only_fixed_notation_rows_use_the_digit_table(self, monkeypatch):
        # with digits drawn as letters, exactly the fixed-notation rows change
        table = front._digit_groups().view(np.uint8).copy()
        table[table >= ord("0")] += ord("a") - ord("0")
        monkeypatch.setattr(front, "_digit_groups", lambda: table.view(np.uint32))
        rows = np.array([[0.1, -2.0, 0.0], [1e-5, 1.0, 2.0], [3.5, -1e16, 7e-4],
                         [1.0, 1e17, 2.0], [math.nan, 0.0, 0.0], [-0.0, 99.0, 1e-4]])
        buf = io.StringIO()
        emit_mesh(Mesh(rows, np.zeros((0, 3), dtype=int)), buf, "csv")
        letters = str.maketrans("0123456789", "abcdefghij")
        want = ["x,y,z"]
        for row in rows.tolist():
            line = "%.17g,%.17g,%.17g" % tuple(row)
            fixed = all(x == 0 or 1e-4 <= abs(x) < 1e17 for x in row)
            want.append(line.translate(letters) if fixed else line)
        assert buf.getvalue().splitlines() == want

    def test_significands_are_correctly_rounded(self):
        rng = np.random.default_rng(38)
        mag = np.concatenate([10.0 ** rng.uniform(-4, 17, 20000), [1e-4, 1.0, 1e16, 9.5]])
        mag = mag[(mag >= 1e-4) & (mag < 1e17)]
        sig, exp = front._significands(mag)
        want = [format(x, ".16e").split("e") for x in mag.tolist()]
        assert sig.tolist() == [int(m.replace(".", "")) for m, _ in want]
        assert exp.tolist() == [int(e) for _, e in want]


class TestFaceText:
    """Face lines are built by numpy (``front._face_text``) from the digit
    table, each index byte for byte what '%d' writes, for every int64 a Mesh
    may hold: emit_mesh does not validate a mesh, and its + 1 wraps
    2^63 - 1 to -2^63."""

    BLOCK = germ_io._LINES_PER_WRITE
    # written indices at the edges of the four-digit groups
    EDGES = [1, 9999, 10000, 99999999, 10**8, 2**31, 2**53, 2**63 - 2]

    @staticmethod
    def _check(faces, tmp_path, vertices=((0.5, -1.0, 0.0),)):
        """emit_mesh writes ``faces`` (0-based) as reference_mesh_text does,
        to a path and to a StringIO; returns the text."""
        mesh = Mesh(np.array(vertices, dtype=float).reshape(-1, 3),
                    np.asarray(faces, dtype=np.int64).reshape(-1, 3))
        with np.errstate(over="ignore"):  # the reference's + 1 wraps as emit_mesh's does
            want = reference_mesh_text(mesh, "obj")
        path = tmp_path / "m.obj"
        emit_mesh(mesh, path, "obj")
        assert path.read_bytes() == want.encode("ascii")
        buf = io.StringIO()
        emit_mesh(mesh, buf, "obj")
        assert buf.getvalue() == want
        return want

    @pytest.mark.parametrize("top", EDGES)
    def test_random_blocks_up_to_each_group_edge(self, tmp_path, top):
        rng = np.random.default_rng(top % 2**32)
        written = rng.integers(1, top, 3 * 100, endpoint=True)
        written[::7] = top
        written[::11] = 1
        self._check(written - 1, tmp_path)

    def test_every_edge_and_its_neighbours_in_one_block(self, tmp_path):
        written = np.array([v + d for v in self.EDGES for d in (-1, 0, 1)])
        self._check(written - 1, tmp_path)

    def test_zero_negative_and_the_wrapped_extremes(self, tmp_path):
        big = 2**63 - 1
        faces = [[-1, -2, -10001], [big, -big - 1, 4], [-10**8 - 1, -2**53 - 1, big - 1]]
        want = self._check(faces, tmp_path)
        assert want.splitlines()[1:] == [
            "f 0 -1 -10000",
            "f -9223372036854775808 -9223372036854775807 5",
            "f -100000000 -9007199254740992 9223372036854775807",
        ]

    @pytest.mark.parametrize("count", [BLOCK - 1, BLOCK, BLOCK + 1])
    def test_face_counts_at_the_block_size(self, tmp_path, count):
        rng = np.random.default_rng(count)
        faces = rng.integers(0, 3 * count, (count, 3))
        faces[count // 2] = [10**8 - 1, 0, 10**4 - 1]  # the widest line, mid-block
        self._check(faces, tmp_path, vertices=rng.normal(size=(count, 3)))

    def test_empty_face_list(self, tmp_path):
        want = self._check(np.zeros((0, 3)), tmp_path, vertices=[(0.5, -1.0, 0.0), (1, 2, 3)])
        assert want == "v 0.5 -1 0\nv 1 2 3\n"

    def test_every_face_line_uses_the_digit_table(self, monkeypatch):
        # with digits drawn as letters, every face line changes, and the
        # vertex line in exponent form does not
        table = front._digit_groups().view(np.uint8).copy()
        table[table >= ord("0")] += ord("a") - ord("0")
        monkeypatch.setattr(front, "_digit_groups", lambda: table.view(np.uint32))
        big = 2**63 - 1
        faces = np.array([[0, 1, 9999], [10**4, -1, -2], [big, -big - 1, 2**53]])
        mesh = Mesh(np.array([[1e20, 0.5, 2.0]]), faces)
        buf = io.StringIO()
        emit_mesh(mesh, buf, "obj")
        with np.errstate(over="ignore"):
            want = reference_mesh_text(mesh, "obj").splitlines()
        letters = str.maketrans("0123456789", "abcdefghij")
        assert buf.getvalue().splitlines() == [want[0]] + [
            line.translate(letters) for line in want[1:]]
