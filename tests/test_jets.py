import ast
import copy
import math
import pathlib
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from germforge import blowup, front, jets
from germforge.blowup import BlowupContext, K0_closed, PointType, k20_closed
from germforge.distance import FocalLine
from germforge.errors import HypothesisError, ModeMismatchError, UsageError
from germforge.germ_io import parse_polynomial, print_polynomial
from germforge.jets import (
    EXACT, FLOAT, FLOAT_ZERO_REL, GermJets, Jet2, is_zero, scalar, zero_scale,
)
from germforge.normal_form import TransformLog
from germforge.records import Frozen

from conftest import make_nf, rand_jet

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "germforge"


def jet(order, terms, mode=EXACT):
    return Jet2(order, terms, mode)


U = Jet2.variable("u", 3)
V = Jet2.variable("v", 3)


class TestAdd:
    def test_linearity(self):
        assert U + V == jet(3, {(1, 0): 1, (0, 1): 1})

    def test_identity(self):
        p = jet(3, {(2, 1): Fraction(5, 3), (0, 1): -2})
        assert p + Jet2.zero(3) == p

    def test_inverse_cancels_to_empty(self):
        p = jet(3, {(0, 2): Fraction(1, 2)})
        q = jet(3, {(0, 2): Fraction(-1, 2)})
        total = p + q
        assert total.is_zero()
        assert total.coeffs == {}

    def test_order_mismatch_rejected(self):
        with pytest.raises(ModeMismatchError):
            jet(3, {}) + jet(4, {})

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ModeMismatchError):
            jet(3, {(1, 0): 1}) + jet(3, {(1, 0): 1.0}, FLOAT)


class TestMul:
    def test_binomial_square(self):
        p = U + V
        assert p * p == jet(3, {(2, 0): 1, (1, 1): 2, (0, 2): 1})

    def test_truncation_drops_high_degree(self):
        u2 = Jet2.variable("u", 2)
        v2sq = jet(2, {(0, 2): 1})
        assert (u2 * v2sq).is_zero()

    def test_geometric_series_inverse(self):
        one_plus_u = jet(2, {(0, 0): 1, (1, 0): 1})
        series = jet(2, {(0, 0): 1, (1, 0): -1, (2, 0): 1})
        assert one_plus_u * series == Jet2.const(1, 2)


class TestBoolIsNoOrder:
    """A bool is an int to isinstance, but neither a jet order nor an
    exponent: the rule of germ_io.check_order and of classify_spec's k_max."""

    @pytest.mark.parametrize("order", [True, False])
    def test_jet_order(self, order):
        with pytest.raises(UsageError, match="jet order must be a nonnegative integer"):
            Jet2(order, {(1, 0): 1})

    @pytest.mark.parametrize("n", [True, False])
    def test_jet_exponent(self, n):
        with pytest.raises(UsageError, match="jet exponent must be a nonnegative integer"):
            (U + V) ** n

    def test_parse_order(self):
        with pytest.raises(UsageError, match="jet order must be a nonnegative integer"):
            parse_polynomial("u+v", order=True)


class TestPow:
    def test_products_stop_at_the_last_bit(self, monkeypatch):
        # popcount(n) - 1 products into the result, one square per bit above
        # the lowest, and none for n = 0
        base = jet(17, {(1, 0): 1, (0, 1): Fraction(1, 2)})
        for n in range(40):
            count = [0]
            product = jets._product

            def counting_product(*args):
                count[0] += 1
                return product(*args)

            with monkeypatch.context() as m:
                m.setattr(jets, "_product", counting_product)
                got = base ** n
            want = bin(n).count("1") - 1 + n.bit_length() - 1 if n else 0
            assert count[0] == want, n
            expected = Jet2.const(1, 17)
            for _ in range(n):
                expected = expected * base
            assert got == expected

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_same_bits_as_the_square_after_the_top_bit(self, mode):
        # the earlier loop: 1 * first factor, and one square past the top bit
        def ref_pow(base, n):
            result = Jet2.const(1, base.order, base.mode)
            while n:
                if n & 1:
                    result = result * base
                base = base * base
                n >>= 1
            return result

        rng = random.Random(5)
        for n in (1, 2, 3, 6, 7, 13):
            base = rand_jet(rng, 9, mode)
            got, want = base ** n, ref_pow(base, n)
            assert list(got.coeffs.items()) == list(want.coeffs.items())
            if mode == FLOAT:
                assert [c.hex() for c in got.coeffs.values()] == [
                    c.hex() for c in want.coeffs.values()]


def ref_product(a, b, order, mode):
    """The jet product's generic double loop, with no exponent shift."""
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            if i1 + i2 + j1 + j2 <= order:
                key = (i1 + i2, j1 + j2)
                out[key] = out[key] + c1 * c2 if key in out else c1 * c2
    return Jet2._result(order, {k: c for k, c in out.items() if c}, mode).coeffs


def _bits(coeffs):
    """Keys in order with each coefficient's type and exact value."""
    return [(k, type(c).__name__, c.hex() if isinstance(c, float) else c)
            for k, c in coeffs.items()]


class TestSharedProduct:
    """jets._product, behind Jet2 * and the parser, shifts exponents when a
    factor is one term with coefficient 1, and gives the loop's bits and key
    order."""

    UNITS = [(1, 0), (0, 2), (0, 0), (2, 1)]

    @pytest.mark.parametrize("mode, one", [(EXACT, Fraction(1)), (FLOAT, 1.0)])
    @pytest.mark.parametrize("order", [3, 9])
    def test_unit_factor_is_a_shift(self, mode, one, order):
        rng = random.Random(order)
        for _ in range(20):
            other = rand_jet(rng, order, mode).coeffs
            for key in self.UNITS:
                unit = {key: one}
                for a, b in ((unit, other), (other, unit)):
                    got = jets._product(a, b, order, mode)
                    assert _bits(got) == _bits(ref_product(a, b, order, mode))
                    # no coefficient was multiplied: they are the other factor's own
                    assert all(got[(i + key[0], j + key[1])] is c
                               for (i, j), c in other.items() if i + j + sum(key) <= order)
                for key2 in self.UNITS:
                    both = jets._product(unit, {key2: one}, order, mode)
                    assert _bits(both) == _bits(ref_product(unit, {key2: one}, order, mode))

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_truncation_at_the_order(self, mode):
        one = scalar(1, mode)
        other = jet(4, {(0, 0): 2, (1, 1): 3, (4, 0): 5, (0, 3): 7}, mode).coeffs
        for a, b in (({(0, 2): one}, other), (other, {(0, 2): one})):
            got = jets._product(a, b, 4, mode)
            assert list(got) == [(0, 2), (1, 3)]
            assert _bits(got) == _bits(ref_product(a, b, 4, mode))
        assert jets._product({(3, 0): one}, {(0, 2): one}, 4, mode) == {}

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_one_term_times_one_term(self, mode):
        for c, d in ((2, 3), (Fraction(1, 3), Fraction(3)), (-1, 1), (1, Fraction(-5, 7))):
            a, b = {(1, 0): scalar(c, mode)}, {(0, 1): scalar(d, mode)}
            for x, y in ((a, b), (b, a)):
                got = jets._product(x, y, 3, mode)
                assert _bits(got) == _bits(ref_product(x, y, 3, mode))

    def test_float_overflow_and_underflow_are_the_loops(self):
        for big in ({(1, 0): 1e200}, {(1, 0): 1e200, (0, 1): 1.0}):
            with pytest.raises(UsageError) as got:
                jets._product(big, {(0, 0): 1e200}, 3, FLOAT)
            with pytest.raises(UsageError) as want:
                ref_product(big, {(0, 0): 1e200}, 3, FLOAT)
            assert str(got.value) == str(want.value)
        tiny = {(1, 0): 1e-200}
        assert jets._product(tiny, tiny, 3, FLOAT) == ref_product(tiny, tiny, 3, FLOAT) == {}

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_jet_product_and_power_run_it(self, mode):
        rng = random.Random(17)
        for _ in range(10):
            a, b = rand_jet(rng, 6, mode), rand_jet(rng, 6, mode)
            assert _bits((a * b).coeffs) == _bits(ref_product(a.coeffs, b.coeffs, 6, mode))
            square = ref_product(a.coeffs, a.coeffs, 6, mode)
            assert _bits((a ** 2).coeffs) == _bits(square)
        u = Jet2.variable("u", 6, mode)
        assert (u ** 6).coeffs == {(6, 0): 1} and (u ** 7).coeffs == {}
        assert _bits((u ** 0).coeffs) == _bits(Jet2.const(1, 6, mode).coeffs)

    def test_power_stops_at_the_digit_limit(self, monkeypatch):
        # past the limit a power raises ValueError, as int/str conversion
        # does; 0 is no limit, and a float power ends in its overflow error
        three = Jet2.const(3, 6, EXACT)
        monkeypatch.setattr(jets.sys, "get_int_max_str_digits", lambda: 1000, raising=False)
        assert (three ** 2000).coeffs == {(0, 0): 3**2000}
        with pytest.raises(ValueError):
            three ** 3000
        with pytest.raises(UsageError, match="finite"):
            three.to_float() ** 3000
        monkeypatch.setattr(jets.sys, "get_int_max_str_digits", lambda: 0)
        assert (three ** 3000).coeffs == {(0, 0): 3**3000}


def squaring_loop(base, n, order):
    """base^n (n >= 1) by the exact square-and-multiply loop alone."""
    return jets._square_and_multiply(
        base, n, lambda x, y: jets._product(x, y, order, EXACT))


class TestUnitPower:
    """Past the order, an exact base with constant term 1 or -1 is raised by
    the binomial sum, with the squaring loop's coefficients; at or below the
    order the squaring loop runs, in its own key order."""

    BASES = [
        # (order, base): the constant term first, last or between, one
        # variable or two, and u^2's coefficient in the 8th power cancelling
        (6, {(0, 0): 1, (1, 0): 1}),
        (6, {(1, 0): 1, (0, 0): 1}),
        (5, {(0, 0): 1, (1, 0): 1, (2, 0): Fraction(-7, 2)}),
        (5, {(2, 0): Fraction(-7, 2), (0, 0): -1, (1, 0): 1}),
        (4, {(0, 1): Fraction(2, 3), (1, 0): -1, (0, 0): -1, (1, 1): Fraction(1, 5)}),
        (4, {(0, 0): 1, (2, 1): 3, (0, 2): Fraction(-1, 7)}),
        (3, {(0, 0): -1}),
        (2, {(1, 1): 5, (0, 0): 1, (0, 3): 1}),
    ]

    @staticmethod
    def exact(coeffs):
        return {k: Fraction(c) for k, c in coeffs.items()}

    def test_equals_the_squaring_loop(self):
        huge = [10**50 + 1, 3 * 10**50 + 8, 2**170 - 1]
        for order, base in self.BASES:
            base = self.exact(base)
            assert jets._power(dict(base), 0, order, EXACT) == {(0, 0): 1}
            for n in list(range(1, 65)) + huge:
                want = squaring_loop(dict(base), n, order)
                got = jets._power(dict(base), n, order, EXACT)
                assert got == want, (base, n)
                if n <= order:
                    assert list(got) == list(want), (base, n)
                assert all(type(c) is Fraction for c in got.values())

    def test_a_cancelled_coefficient_comes_back(self):
        base = self.exact({(0, 0): 1, (1, 0): 1, (2, 0): Fraction(-7, 2)})
        assert (2, 0) not in jets._power(dict(base), 8, 5, EXACT)
        for n in (7, 9, 15, 17):
            assert (2, 0) in jets._power(dict(base), n, 5, EXACT)

    def test_many_digit_exponent_parses(self):
        n = int("9" * 200)
        jet = parse_polynomial("(1+u)^" + "9" * 200, ("u", "v"), 20, EXACT)
        want = {(j, 0): Fraction(math.comb(n, j)) for j in range(21)}
        assert list(jet.coeffs.items()) == list(want.items())
        jet = parse_polynomial("(u-1)^" + "9" * 200, ("u", "v"), 20, EXACT)
        assert jet.coeffs == {(j, 0): Fraction((-1) ** (n - j) * math.comb(n, j))
                              for j in range(21)}

    def test_jet_power_is_the_parsers(self, monkeypatch):
        # Jet2 ** runs the parser's power: a 200-digit exponent takes
        # ``order`` products, not the squaring loop's hundreds
        n = 10**200 - 1
        for text, base in (("(1+u)", Jet2(20, {(0, 0): 1, (1, 0): 1})),
                           ("(u-1)", Jet2(20, {(1, 0): 1, (0, 0): -1}))):
            count = [0]
            product = jets._product

            def counting_product(*args):
                count[0] += 1
                return product(*args)

            with monkeypatch.context() as m:
                m.setattr(jets, "_product", counting_product)
                got = base ** n
            assert count[0] <= 20
            want = parse_polynomial("%s^%d" % (text, n), ("u", "v"), 20, EXACT)
            assert list(got.coeffs.items()) == list(want.coeffs.items())

    def test_float_base_past_float_range(self):
        # an odd n keeps the sign of a float base -1 + u, which rounding n to
        # a float would lose
        n = 10**17 + 1
        got = (Jet2(3, {(0, 0): -1.0, (1, 0): 1.0}, FLOAT) ** n).coeffs
        assert got[(0, 0)] == -1.0 and got[(1, 0)] == float(n)
        # C(n, 2) of a 200-digit n is past float range, in the sum and in the
        # parser alike
        base = Jet2(20, {(0, 0): 1.0, (1, 0): 1.0}, FLOAT)
        with pytest.raises(UsageError, match="float range"):
            base ** (10**200 - 1)
        with pytest.raises(UsageError, match="float range"):
            parse_polynomial("(1.0+u)^" + "9" * 200, ("u", "v"), 20, FLOAT)


class TestSubstitute:
    def test_shift_into_half_v_squared(self):
        p = jet(3, {(0, 2): Fraction(1, 2)})
        c = Fraction(7, 2)
        u3, v3 = Jet2.variable("u", 3), Jet2.variable("v", 3)
        vn = v3 + Jet2(3, {(2, 0): c})
        out = p.substitute(u3, vn)
        assert out == jet(3, {(0, 2): Fraction(1, 2), (2, 1): c})

    def test_identity_substitution(self):
        p = jet(3, {(1, 2): 4, (3, 0): Fraction(-2, 7)})
        u3, v3 = Jet2.variable("u", 3), Jet2.variable("v", 3)
        assert p.substitute(u3, v3) == p

    def test_scaling_v_cubed(self):
        import math

        p = jet(3, {(0, 3): 1.0}, FLOAT)
        u3 = Jet2.variable("u", 3, FLOAT)
        vn = Jet2(3, {(0, 1): 1 / math.sqrt(2)}, FLOAT)
        out = p.substitute(u3, vn)
        assert out.coeff(0, 3) == pytest.approx(1 / (2 * math.sqrt(2)))

    def test_nonzero_constant_rejected(self):
        p = jet(3, {(1, 0): 1})
        with pytest.raises(UsageError):
            p.substitute(Jet2.const(1, 3), Jet2.variable("v", 3))


class TestPartial:
    def test_dv_half_v_squared(self):
        p = jet(3, {(0, 2): Fraction(1, 2)})
        assert p.partial("v") == jet(2, {(0, 1): 1})

    def test_du_u2v(self):
        p = jet(3, {(2, 1): 1})
        assert p.partial("u") == jet(2, {(1, 1): 2})

    def test_constant_derivative_is_zero(self):
        assert Jet2.const(5, 3).partial("u").is_zero()


def ref_evaluate(jet, u, v):
    """A jet's value term by term: c * u**i * v**j, or c * (u*0 + 1) for the
    constant term, summed left to right in key order; u*0 for a zero jet."""
    total = u * 0
    for n, ((i, j), c) in enumerate(jet.coeffs.items()):
        term = c * u**i * v**j if (i, j) != (0, 0) else c * (u * 0 + 1)
        total = term if n == 0 else total + term
    return total


def _float_jet(rng, order, density=0.7):
    return Jet2(order, {(i, d - i): rng.uniform(-3.0, 3.0) for d in range(order + 1)
                        for i in range(d + 1) if rng.random() < density}, FLOAT)


class TestEvaluateJets:
    """``jets._evaluate_jets`` and ``Jet2.evaluate`` give the per-term
    reference's bits: equal values and equal signs of zero."""

    NODES = np.array([-1.7, -1.0, -0.3, -0.0, 0.0, 0.1, 0.7, 1.3])

    @staticmethod
    def assert_same_bits(got, want):
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def check(self, jet_list, u, v):
        values = jets._evaluate_jets(jet_list, u, v)
        assert len(values) == len(jet_list)
        for jet_, got in zip(jet_list, values):
            want = ref_evaluate(jet_, u, v)
            self.assert_same_bits(got, want)
            self.assert_same_bits(jet_.evaluate(u, v), want)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_float_jets_on_a_grid(self, seed):
        rng = random.Random(seed)
        order = rng.randint(1, 9)
        jet_list = [_float_jet(rng, order) for _ in range(4)]
        jet_list += [j.partial(var) for j in jet_list for var in "uv"]
        uu, vv = np.meshgrid(self.NODES, self.NODES[::-1], indexing="ij")
        self.check(jet_list, uu, vv)

    def test_scalars(self):
        rng = random.Random(11)
        jet_list = [_float_jet(rng, 6) for _ in range(3)]
        for u, v in ((-0.0, 0.5), (0.3, -0.0), (-1.25, -0.7), (0.0, 0.0)):
            self.check(jet_list, u, v)

    def test_constant_and_zero_jets(self):
        uu, vv = np.meshgrid(self.NODES, self.NODES, indexing="ij")
        const = Jet2(4, {(0, 0): -2.5}, FLOAT)
        zero = Jet2(4, {}, FLOAT)
        mixed = Jet2(4, {(0, 0): 0.75, (1, 2): -1.5, (3, 0): 0.2}, FLOAT)
        self.check([const, zero, mixed, zero, const], uu, vv)
        self.check([const, zero], -0.0, 1.5)
        assert np.signbit(zero.evaluate(uu, vv)).any()  # u*0 keeps -0.0


class TestRingProperties:
    def test_ring_axioms_random_rational(self):
        rng = random.Random(7)
        for _ in range(25):
            a = rand_jet(rng, 4)
            b = rand_jet(rng, 4)
            c = rand_jet(rng, 4)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a

    def test_substitute_is_ring_morphism(self):
        rng = random.Random(11)
        for _ in range(15):
            p = rand_jet(rng, 4)
            q = rand_jet(rng, 4)
            un = rand_jet(rng, 4)
            vn = rand_jet(rng, 4)
            un = un - Jet2.const(un.constant_term(), 4)
            vn = vn - Jet2.const(vn.constant_term(), 4)
            lhs = (p * q).substitute(un, vn)
            rhs = p.substitute(un, vn) * q.substitute(un, vn)
            assert lhs == rhs

    def test_exact_and_float_agree(self):
        rng = random.Random(13)
        for _ in range(15):
            a = rand_jet(rng, 4, max_den=100)
            b = rand_jet(rng, 4, max_den=100)
            exact = a * b + a
            fl = a.to_float() * b.to_float() + a.to_float()
            for key in set(exact.coeffs) | set(fl.coeffs):
                e = float(exact.coeff(*key))
                f = fl.coeff(*key)
                assert abs(e - f) <= 1e-12 * max(1.0, abs(e))


class TestGermJets:
    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_substitute_equals_componentwise(self, mode):
        rng = random.Random(59)
        for _ in range(20):
            order = rng.randint(1, 6)
            comps = [rand_jet(rng, order, mode) for _ in range(3)]
            comps = [c - Jet2.const(c.constant_term(), order, mode) for c in comps]
            un, vn = comps[0], comps[1]
            u, v = Jet2.variable("u", order, mode), Jet2.variable("v", order, mode)
            germ = GermJets(*comps)
            for u_new, v_new in ((un, vn), (u, vn), (un, v), (u, v)):
                got = germ.substitute(u_new, v_new)
                want = [c.substitute(u_new, v_new) for c in comps]
                for g, w in zip(got.components(), want):
                    assert list(g.coeffs.items()) == list(w.coeffs.items())

    def test_constant_term_rejected(self):
        with pytest.raises(UsageError):
            GermJets(Jet2.const(1, 3), Jet2.zero(3), Jet2.zero(3))

    def test_linear_part(self):
        g = GermJets(U, jet(3, {(0, 2): 1}), jet(3, {(1, 1): 1}))
        assert g.linear_part() == [[1, 0], [0, 0], [0, 0]]

    def test_rotate_identity(self):
        g = GermJets(U, V, Jet2.zero(3))
        rot = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert g.rotate(rot) == g


def _round_trips(value):
    """``value`` through copy, deepcopy and a pickle round trip."""
    return [copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))]


class TestJetsAreFrozenValues:
    """Jet2 and GermJets take their value semantics from records.Frozen:
    copies and pickles rebuild them through the constructor, bit for bit."""

    def _jets(self):
        rng = random.Random(4217)
        u = Jet2.variable("u", 5, FLOAT)
        v_new = Jet2(5, {(0, 1): 1 / math.sqrt(2), (2, 0): 0.3, (1, 1): -1e-7}, FLOAT)
        substituted = jet(5, {(0, 3): 1.0, (2, 1): 0.7, (1, 2): -2.5}, FLOAT).substitute(u, v_new)
        assert substituted.mode == FLOAT and len(substituted.coeffs) > 3
        return [rand_jet(rng, 4, EXACT), jet(3, {(2, 1): Fraction(-7, 3), (0, 1): 1}),
                rand_jet(rng, 4, FLOAT), _spread_float_jet(rng, 5),
                Jet2.zero(3), Jet2.zero(2, FLOAT), substituted]

    def test_both_are_frozen_records(self):
        assert issubclass(Jet2, Frozen) and issubclass(GermJets, Frozen)
        assert Jet2._fields == ("order", "coeffs", "mode")
        assert GermJets._fields == ("x", "y", "z")

    def test_jet_copies_keep_keys_bits_and_hash(self):
        for original in self._jets():
            for twin in _round_trips(original):
                assert type(twin) is Jet2 and twin == original
                assert (twin.order, twin.mode) == (original.order, original.mode)
                assert _hex_items(twin) == _hex_items(original)
                assert hash(twin) == hash(original)
                assert repr(twin) == repr(original)

    def test_germ_copies_keep_every_component(self):
        rng = random.Random(4218)
        for mode in (EXACT, FLOAT):
            comps = [rand_jet(rng, 4, mode) for _ in range(3)]
            germ = GermJets(*(c - Jet2.const(c.constant_term(), 4, mode) for c in comps))
            for twin in _round_trips(germ):
                assert type(twin) is GermJets and twin == germ
                assert [_hex_items(c) for c in twin.components()] == [
                    _hex_items(c) for c in germ.components()]
                assert hash(twin) == hash(germ)

    def test_germ_repr_names_its_fields(self):
        g = GermJets(U, V, Jet2.zero(3))
        assert repr(g) == "GermJets(x=%r, y=%r, z=%r)" % (U, V, Jet2.zero(3))


# ---------------------------------------------------------------------------
# Exact-mode fast path: results equal the public, validating constructor
# ---------------------------------------------------------------------------


def _validated(jet):
    """The same coefficients pushed through the public constructor."""
    return Jet2(jet.order, dict(jet.coeffs), EXACT)


def _raw_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.coeffs.items():
        for (i2, j2), c2 in b.coeffs.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return Jet2(a.order, out, EXACT)


def _raw_add(a, b):
    out = dict(a.coeffs)
    for k, c in b.coeffs.items():
        out[k] = out.get(k, 0) + c
    return Jet2(a.order, out, EXACT)


def _chain(p, u_new, v_new):
    """p at (u_new, v_new): each term c u_new^i v_new^j a chain of validated
    products."""
    order = p.order
    u_pows, v_pows = [Jet2.const(1, order)], [Jet2.const(1, order)]
    for pows, x in ((u_pows, u_new), (v_pows, v_new)):
        while len(pows) <= order:
            pows.append(_raw_mul(pows[-1], x))
    want = Jet2.zero(order)
    for (i, j), c in p.coeffs.items():
        want = _raw_add(want, _raw_mul(_raw_mul(Jet2.const(c, order), u_pows[i]), v_pows[j]))
    return want


def _rows(p, u_new, v_new):
    """p at (u_new, v_new) summed as the substitution sums it, on the mode's
    own numbers with jet products: sum_j c_ij v_new^j per power of u, in the
    order of p's keys, then times u_new^i.  Its key order, and in float mode
    its bits, are the substitution's."""
    order, mode = p.order, p.mode
    u_fixed, v_fixed = u_new.coeffs == {(1, 0): 1}, v_new.coeffs == {(0, 1): 1}
    u_pows, v_pows = [None, u_new], [None, v_new]
    for pows in (u_pows, v_pows):
        while len(pows) <= order:
            pows.append(pows[-1] * pows[1])
    rows = {}
    for (i, j), c in p.coeffs.items():
        row = rows.setdefault(i, {})
        if v_fixed or j == 0:
            row[(0, j)] = c
        else:
            jets._accumulate(row, {k: c * x for k, x in v_pows[j].coeffs.items()})
    acc = {}
    for i, row in rows.items():
        if u_fixed or i == 0:
            jets._accumulate(acc, jets._shifted(row, i, 0, order))
        else:
            jets._accumulate(acc, (u_pows[i] * Jet2._trusted(order, row, mode)).coeffs)
    return Jet2._result(order, acc, mode)


def _assert_clean(jet):
    assert jet == _validated(jet)
    for (i, j), c in jet.coeffs.items():
        assert isinstance(c, Fraction) and c != 0 and i + j <= jet.order


class TestExactFastPath:
    def test_arithmetic_matches_public_constructor(self):
        rng = random.Random(31)
        for _ in range(60):
            order = rng.randint(0, 5)
            a, b = rand_jet(rng, order), rand_jet(rng, order)
            s = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            n = rng.randint(-3, 3)
            cases = [
                (a + b, _raw_add(a, b)),
                (a - b, _raw_add(a, Jet2(order, {k: -c for k, c in b.coeffs.items()}, EXACT))),
                (-a, Jet2(order, {k: -c for k, c in a.coeffs.items()}, EXACT)),
                (a * b, _raw_mul(a, b)),
                (a * s, Jet2(order, {k: c * s for k, c in a.coeffs.items()}, EXACT)),
                (n * a, Jet2(order, {k: c * n for k, c in a.coeffs.items()}, EXACT)),
                (a ** 3, _raw_mul(_raw_mul(a, a), a)),
                (a + (-a), Jet2.zero(order)),
            ]
            for got, want in cases:
                _assert_clean(got)
                assert got == want

    def test_substitute_matches_chain_of_validated_products(self):
        rng = random.Random(37)
        for _ in range(30):
            order = rng.randint(1, 5)
            p = rand_jet(rng, order)
            un, vn = rand_jet(rng, order), rand_jet(rng, order)
            un = _raw_add(un, Jet2.const(-un.constant_term(), order))
            vn = _raw_add(vn, Jet2.const(-vn.constant_term(), order))
            u, v = Jet2.variable("u", order), Jet2.variable("v", order)
            # a general step, and the unchanged coordinates whose powers are
            # exponent shifts (reduction steps keep u, a B_k shift by zero
            # keeps both)
            for u_new, v_new in ((un, vn), (u, vn), (un, v), (u, v)):
                got = p.substitute(u_new, v_new)
                _assert_clean(got)
                assert got == _chain(p, u_new, v_new)
                assert list(got.coeffs.items()) == list(_rows(p, u_new, v_new).coeffs.items())
        # the reducer's steps at its working order: v-cleanup shifts with
        # multi-term deltas, diagonal scalings and u-changing steps, with
        # 20-bit denominators
        order = 17
        u, v = Jet2.variable("u", order), Jet2.variable("v", order)
        big = lambda: Fraction(rng.randint(-2**20, 2**20), rng.randint(1, 2**20))
        a, b = big(), big()
        flat = Jet2(order, {(i, d - i): big() for d in range(2, 6) for i in range(d + 1)})
        steps = [(u, v + Jet2(order, {(m - j, j - 1): big() for j in range(1, m + 1)}))
                 for m in (3, 4, 7)]
        steps += [(u * a, v * b), (u, v * b), (u * a, v), (u + flat, v),
                  (u * a + v * b, u * b - v * a)]
        p = rand_jet(rng, order, density=0.3)
        for u_new, v_new in steps:
            got = p.substitute(u_new, v_new)
            _assert_clean(got)
            assert got == _chain(p, u_new, v_new)
            assert list(got.coeffs.items()) == list(_rows(p, u_new, v_new).coeffs.items())
            # float jets run the same sums: the same bits in the same key order
            fl = [w.to_float() for w in (p, u_new, v_new)]
            assert list(fl[0].substitute(*fl[1:]).coeffs.items()) == list(
                _rows(*fl).coeffs.items())

    def test_cancellation_stores_no_zero(self):
        p = jet(3, {(1, 1): Fraction(2, 3), (0, 2): 1})
        q = jet(3, {(1, 1): Fraction(-2, 3), (2, 0): 5})
        assert (p + q).coeffs == {(0, 2): 1, (2, 0): 5}
        assert (p * 0).coeffs == {} and (p * Fraction(0)).coeffs == {}
        # (u + v)(u - v) has no uv term
        assert ((U + V) * (U - V)).coeffs == {(2, 0): 1, (0, 2): -1}

    def test_non_integral_float_scalar_still_rejected(self):
        p = jet(3, {(1, 0): Fraction(1, 3)})
        with pytest.raises(UsageError):
            p * 0.5
        with pytest.raises(UsageError):
            0.25 * p

    def test_trusted_results_are_immutable(self):
        for result in (U + V, -U, U * V, U * 3, U.substitute(U, V)):
            with pytest.raises(AttributeError):
                result.coeffs = {}
            with pytest.raises(AttributeError):
                result.order = 7


def _spread_float_jet(rng, order):
    """A float jet whose magnitudes span many decades."""
    jet = rand_jet(rng, order, FLOAT)
    return Jet2(order, {k: c * 10.0 ** rng.randint(-10, 6) for k, c in jet.coeffs.items()}, FLOAT)


class TestFloatRunsTheExactArithmetic:
    """Float jets run the exact path's arithmetic, with no floor: a float
    result is the exact result on the same data, rounded, term for term."""

    @staticmethod
    def _results(a, b, un, vn):
        return {"add": a + b, "sub": a - b, "neg": -a, "mul": a * b, "scalar": a * 3,
                "pow": (a + b) ** 3, "substitute": a.substitute(un, vn),
                "substitute_u_fixed": a.substitute(Jet2.variable("u", a.order, a.mode), vn),
                "substitute_v_fixed": a.substitute(un, Jet2.variable("v", a.order, a.mode))}

    def test_float_results_are_the_exact_results_rounded(self):
        rng = random.Random(1729)
        tiny = Fraction(1, 10**11)
        for _ in range(40):
            order = rng.randint(2, 6)
            a, b, un, vn = (rand_jet(rng, order, max_den=50) for _ in range(4))
            un, vn = (w - Jet2.const(w.constant_term(), order) + Jet2.variable(x, order)
                      for w, x in ((un, "u"), (vn, "v")))
            # a's largest term is 10 v, and its u^order term sits at 1e-12 of it
            a = a + Jet2(
                order, {(0, 1): 10 - a.coeff(0, 1), (order, 0): tiny - a.coeff(order, 0)})
            b = Jet2(order, {k: c for k, c in b.coeffs.items() if k != (order, 0)})
            exact = self._results(a, b, un, vn)
            fl = self._results(*(w.to_float() for w in (a, b, un, vn)))
            for name, want in exact.items():
                got = fl[name]
                assert got.mode == FLOAT, name
                top = max((abs(float(c)) for c in want.coeffs.values()), default=0)
                for key in set(got.coeffs) | set(want.coeffs):
                    assert abs(got.coeff(*key) - float(want.coeff(*key))) <= 1e-12 * top, (
                        name, key)
            for name, want in (("add", tiny), ("sub", tiny), ("neg", -tiny), ("scalar", 3 * tiny)):
                got = fl[name].coeffs[(order, 0)]
                assert abs(got - float(want)) <= 1e-15 * abs(float(want)), name


def _kept(jet, order):
    """The jet cut at ``order`` through the public, validating constructor."""
    return Jet2(order, {k: c for k, c in jet.coeffs.items() if sum(k) <= order}, jet.mode)


def _hex_items(jet):
    return [(k, c.hex() if isinstance(c, float) else c) for k, c in jet.coeffs.items()]


class TestTruncateKeepsWhatTheConstructorKeeps:
    """truncate skips validation: a term of a valid jet is a valid term of
    the truncated jet."""

    def test_seeded_jets(self):
        rng = random.Random(1618)
        jets = []
        for _ in range(60):
            order = rng.randint(1, 7)
            jets += [rand_jet(rng, order), rand_jet(rng, order, FLOAT),
                     _spread_float_jet(rng, order)]
        for jet in jets:
            for order in range(jet.order + 1):
                got, want = jet.truncate(order), _kept(jet, order)
                assert (got.order, got.mode) == (want.order, want.mode)
                assert got.coeffs == want.coeffs
                assert _hex_items(got) == _hex_items(want)
                assert jet.with_order(order) == got

    def test_with_order(self):
        rng = random.Random(1619)
        for mode in (EXACT, FLOAT):
            jet = rand_jet(rng, 4, mode)
            assert jet.with_order(4) is jet
            raised = jet.with_order(6)
            assert raised == Jet2(6, dict(jet.coeffs), mode)
            assert _hex_items(raised) == _hex_items(jet)


class TestIsZero:
    def test_exact_tiny_nonzero_is_not_zero(self):
        assert not is_zero(Fraction(1, 10**30), mode=EXACT)
        assert not is_zero(Fraction(-1, 10**30), 10.0**12, EXACT)
        assert is_zero(Fraction(0), mode=EXACT)

    @pytest.mark.parametrize("scale", [1.0, 3.0, 1e6, 2.0**40])
    def test_float_threshold_is_inclusive(self, scale):
        x = FLOAT_ZERO_REL * scale
        assert is_zero(x, scale) and is_zero(-x, scale)
        up = math.nextafter(x, math.inf)
        assert not is_zero(up, scale) and not is_zero(-up, scale)

    def test_default_mode_is_float(self):
        assert is_zero(Fraction(1, 10**30))
        assert is_zero(5e-10)
        assert not is_zero(2e-9)

    def test_zero_scale_is_the_largest_float_floored_at_one(self):
        assert zero_scale([0.5, -3.0, 2.0], FLOAT) == 3.0
        assert zero_scale([0.5, -0.25], FLOAT) == zero_scale([], FLOAT) == 1.0

    def test_zero_scale_reads_no_exact_value(self):
        def sizes():
            raise AssertionError("an exact zero test computed a size")
            yield

        assert zero_scale(sizes(), EXACT) == 1
        assert zero_scale([Fraction(10**400)], EXACT) == 1


# The local zero tests and k10 scales that is_zero and RidgeReport.k10_scale
# replaced, verbatim but for their names.  Each must decide exactly as the
# helper does.


def ref_nz(x, scale, mode):
    # normal_form: _matrix_rank_3x2, _normalize_linear_part, _classify_two_jet
    tol = FLOAT_ZERO_REL * scale
    return x != 0 if mode == EXACT else abs(float(x)) > tol


def ref_near_zero(value, scale, tol=1e-9):
    # blowup._near_zero with BlowupContext.tol's only value
    return abs(value) <= tol * max(1.0, scale)


def ref_is_zero_value(x, scale, mode):
    # NormalFormCoeffs.is_zero_value
    if mode == EXACT:
        return x == 0
    return abs(float(x)) <= FLOAT_ZERO_REL * scale


def ref_check_form_fails(v2, scale, mode):
    # the v^2 test of normal_form._check_form
    half = Fraction(1, 2) if mode == EXACT else 0.5
    tol = FLOAT_ZERO_REL * scale
    return (mode == EXACT and v2 != half) or (mode == FLOAT and abs(v2 - 0.5) > tol)


def ref_is_zero_a(nf, i, j):
    # NormalFormCoeffs.is_zero_a
    if nf.mode == EXACT:
        return nf.a_(i, j) == 0
    normalized = abs(float(nf.a_(i, j))) / (math.factorial(i) * math.factorial(j))
    vals = [1.0]
    for (p, q), c in nf.a.items():
        if p + q <= i + j:
            vals.append(abs(float(c)) / (math.factorial(p) * math.factorial(q)))
    for p, c in nf.b.items():
        if p <= i + j:
            vals.append(abs(float(c)) / math.factorial(p))
    return normalized <= FLOAT_ZERO_REL * max(vals)


def ref_front_k10_zero(ctx, theta, k10, tol=1e-9):
    # front.front_verdict
    nf = ctx.nf
    k10_scale = max(
        1.0, abs(ctx.a_lead * nf.b_(2)), abs(ctx.fact * nf.a_(2, 0))
    ) / ctx.ma(theta)
    return abs(k10) <= tol * k10_scale


def ref_distance_focal(ctx, theta, lam, k10):
    # distance.geometric_verdict
    nf = ctx.nf
    k10_scale = max(
        abs(ctx.a_lead * nf.b_(2)), abs(ctx.fact * nf.a_(2, 0))
    ) / ctx.ma(theta)
    return abs(lam * k10 - 1.0) <= FLOAT_ZERO_REL * max(1.0, abs(lam) * k10_scale)


def ref_blowup_parabolic(ctx, theta, k0):
    # blowup.ridge_report
    nf = ctx.nf
    a, m = ctx.a_lead, ctx.fact
    k10_scale = max(abs(a * nf.b_(2)), abs(m * nf.a_(2, 0))) / ctx.ma(theta)
    k0_scale = abs(k20_closed(ctx, theta)) * k10_scale
    return ref_near_zero(k0, k0_scale)


def around(threshold, rng):
    """Values at, just off and around a zero-test threshold, both signs."""
    t = threshold
    vals = [0.0, t, math.nextafter(t, math.inf), math.nextafter(t, 0.0),
            t * (1 + 2**-52), t * (1 - 2**-53), t * rng.uniform(0.5, 1.5),
            rng.uniform(0.0, 2 * t), 10 * t, t / 10]
    return vals + [-v for v in vals]


def draw_scale(rng):
    return rng.choice([1.0, rng.uniform(1.0, 10.0), 10.0 ** rng.uniform(0, 12)])


def draw_exact(rng):
    return [Fraction(0), Fraction(1, 10**30), Fraction(-1, 10**30),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9))]


def draw_ctx(rng):
    n = rng.randint(1, 3)
    size = 10.0 ** rng.uniform(-3, 3)
    a = {(n + 1, 1): rng.uniform(0.5, 2.0) * rng.choice([-1, 1]),
         (2, 0): size * rng.uniform(-1, 1), (3, 0): rng.uniform(-1, 1)}
    b = {2: size * rng.uniform(-1, 1), 3: rng.uniform(-1, 1)}
    return BlowupContext(make_nf(order=n + 4, mode=FLOAT, a=a, b=b), n)


class TestIsZeroMatchesTheReplacedTests:
    def test_scalar_zero_tests(self):
        rng = random.Random(20261018)
        checked = 0
        for _ in range(300):
            scale = draw_scale(rng)
            for x in around(FLOAT_ZERO_REL * scale, rng):
                got = is_zero(x, scale, FLOAT)
                assert got == (not ref_nz(x, scale, FLOAT)), (x, scale)
                assert got == ref_is_zero_value(x, scale, FLOAT), (x, scale)
                assert is_zero(x, max(1.0, scale)) == ref_near_zero(x, scale), (x, scale)
                assert (not is_zero(0.5 + x - 0.5, scale, FLOAT)) == ref_check_form_fails(
                    0.5 + x, scale, FLOAT
                ), (x, scale)
                checked += 1
            for x in draw_exact(rng):
                got = is_zero(x, scale, EXACT)
                assert got == (not ref_nz(x, scale, EXACT))
                assert got == ref_is_zero_value(x, scale, EXACT)
                v2 = Fraction(1, 2) + x
                assert (not is_zero(v2 - Fraction(1, 2), scale, EXACT)) == ref_check_form_fails(
                    v2, scale, EXACT
                )
        assert checked == 300 * 20

    def test_is_zero_a(self):
        rng = random.Random(7)
        for _ in range(200):
            big = 10.0 ** rng.uniform(0, 6)
            i, j = rng.choice([(2, 1), (3, 1), (1, 3), (0, 5)])
            norm = math.factorial(i) * math.factorial(j)
            for x in around(FLOAT_ZERO_REL * max(1.0, big), rng):
                # a degree-6 term far larger than the rest sets no lower scale
                a = {(0, 3): 6 * big, (i, j): x * norm, (6, 0): 720e9 * big}
                nf = make_nf(order=6, mode=FLOAT, a=a, b={2: rng.uniform(-1, 1)})
                assert nf.is_zero_a(i, j) == ref_is_zero_a(nf, i, j), (x, big)
                assert nf.is_zero_a(6, 0) is False
            for x in draw_exact(rng):
                nf = make_nf(order=6, mode=EXACT, a={(i, j): x})
                assert nf.is_zero_a(i, j) == ref_is_zero_a(nf, i, j)

    def test_the_three_k10_scales(self, monkeypatch):
        # k10 is injected so that front_verdict decides on values placed at
        # its threshold, and K0's values go to ridge_report's own zero test
        rng = random.Random(11)
        report = blowup.ridge_report  # only its k10 is injected

        def with_k10(rr, k10):
            return blowup.RidgeReport(
                rr.theta, rr.delta1, rr.delta2, rr.delta3, rr.is_ridge,
                rr.is_first_order_ridge, rr.is_subparabolic, rr.point_type, k10,
                rr.k10_scale, rr.k20, rr.normal_r0, rr.ma)
        for _ in range(200):
            ctx = draw_ctx(rng)
            theta = rng.uniform(-1.5, 1.5)
            rr = report(ctx, theta)
            scale, k10 = rr.k10_scale, rr.k10
            if k10 != 0:
                lam0 = 1.0 / k10
                for d in around(FLOAT_ZERO_REL * max(1.0, abs(lam0) * scale), rng):
                    lam = lam0 * (1 + d)
                    got = is_zero(lam * k10 - 1.0, max(1.0, abs(lam) * scale))
                    assert got == ref_distance_focal(ctx, theta, lam, k10), (lam, k10)
            front_scale = max(1.0 / ctx.ma(theta), scale)
            for k10 in around(FLOAT_ZERO_REL * front_scale, rng):
                with monkeypatch.context() as m:
                    m.setattr(blowup, "ridge_report",
                              lambda *a: with_k10(report(*a), k10))
                    try:
                        front.front_verdict(ctx, theta)
                        raised = False
                    except HypothesisError:
                        raised = True
                assert raised == ref_front_k10_zero(ctx, theta, k10), k10
            # ridge_report's last zero test is the parabolic one, on K0 at
            # its uncancelled size; values at its threshold go to that test
            k0_scale = max(1.0, abs(k20_closed(ctx, theta)) * scale)
            calls = []
            with monkeypatch.context() as m:
                m.setattr(blowup, "is_zero", lambda x, s: calls.append((x, s)) or is_zero(x, s))
                parabolic = report(ctx, theta).point_type is PointType.PARABOLIC
            assert calls[-1] == (K0_closed(ctx, theta), k0_scale)
            assert parabolic == is_zero(*calls[-1])
            for k0 in around(FLOAT_ZERO_REL * k0_scale, rng):
                parabolic = is_zero(k0, calls[-1][1])
                assert parabolic == ref_blowup_parabolic(ctx, theta, k0), k0


def _zero_test_leaks(source):
    """FLOAT_ZERO_REL names, 1e-9 constants and strings citing 1e-9 in a module."""
    leaks = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "FLOAT_ZERO_REL":
            leaks.append((node.lineno, "FLOAT_ZERO_REL"))
        elif isinstance(node, ast.Attribute) and node.attr == "FLOAT_ZERO_REL":
            leaks.append((node.lineno, "FLOAT_ZERO_REL"))
        elif isinstance(node, ast.alias) and node.name == "FLOAT_ZERO_REL":
            leaks.append((node.lineno, "import FLOAT_ZERO_REL"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if "1e-9" in node.value:
                leaks.append((node.lineno, node.value))
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            if node.value == 1e-9:
                leaks.append((node.lineno, repr(node.value)))
    return [text for _, text in sorted(leaks)]


def _threshold_readers(source):
    """Functions (as Class.method) that read FLOAT_ZERO_REL."""
    readers = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef) and any(
                        isinstance(n, ast.Name) and n.id == "FLOAT_ZERO_REL"
                        and isinstance(n.ctx, ast.Load) for n in ast.walk(child)):
                    readers.add(name)
                visit(child, name + ".")

    visit(ast.parse(source), "")
    return sorted(readers)


class TestOneZeroTest:
    ALLOWED = {
        "mond.py": [
            "float-mode zero tests (threshold 1e-9 relative): "
            "classification is numerically certified only"
        ],
    }

    def test_only_jets_knows_the_threshold(self):
        modules = sorted(SRC.glob("*.py"))
        assert len(modules) > 5 and SRC / "jets.py" in modules
        for path in modules:
            if path.name != "jets.py":
                leaks = _zero_test_leaks(path.read_text())
                assert leaks == self.ALLOWED.get(path.name, []), path.name

    def test_in_jets_only_is_zero_reads_the_threshold(self):
        assert _threshold_readers((SRC / "jets.py").read_text()) == ["is_zero"]

    def test_guard_sees_another_reader_in_jets(self):
        source = (
            "FLOAT_ZERO_REL = 1e-9\n"
            "def is_zero(x, scale=1.0):\n"
            "    return abs(x) <= FLOAT_ZERO_REL * scale\n"
            "class Jet2:\n"
            "    def __init__(self, coeffs):\n"
            "        top = max(map(abs, coeffs.values()))\n"
            "        self.coeffs = {k: c for k, c in coeffs.items() if abs(c) > FLOAT_ZERO_REL * top}\n"
        )
        assert _threshold_readers(source) == ["Jet2.__init__", "is_zero"]

    def test_guard_sees_a_local_zero_test(self):
        source = (
            "from .jets import FLOAT_ZERO_REL\n"
            "def nz(x, tol=0.000000001):\n"
            "    return abs(x) > tol or abs(x) > jets.FLOAT_ZERO_REL\n"
            "WARN = 'below 1e-9'\n"
        )
        assert _zero_test_leaks(source) == [
            "import FLOAT_ZERO_REL", "1e-09", "FLOAT_ZERO_REL", "below 1e-9",
        ]


def _jet2_dispatches(source):
    """Lines of every isinstance(..., Jet2) test in a module."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and any(isinstance(x, ast.Name) and x.id == "Jet2"
                        for x in ast.walk(node.args[1]))):
            lines.append(node.lineno)
    return lines


def _halving_loops(source):
    """Functions (as Class.method) holding a loop that shifts a counter
    right with ``>>=``: the shape of a square-and-multiply."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef) and any(
                        isinstance(loop, (ast.While, ast.For)) and any(
                            isinstance(n, ast.AugAssign) and isinstance(n.op, ast.RShift)
                            for n in ast.walk(loop))
                        for loop in ast.walk(child)):
                    found.add(name)
                visit(child, name + ".")

    visit(ast.parse(source), "")
    return sorted(found)


class TestOneProductAndPower:
    """The parser builds coefficient dicts and multiplies them with the jets'
    own product and power: it holds no Jet2 dispatch and no power loop."""

    def test_parser_makes_no_jet2_dispatch(self):
        assert _jet2_dispatches((SRC / "germ_io.py").read_text()) == []

    def test_one_square_and_multiply_in_src(self):
        loops = {path.name: _halving_loops(path.read_text()) for path in SRC.glob("*.py")}
        assert {name: found for name, found in loops.items() if found} == {
            "jets.py": ["_square_and_multiply"]}

    def test_guard_sees_a_dispatch_and_a_second_loop(self):
        source = (
            "class _Parser:\n"
            "    def _jet(self, value):\n"
            "        return value if isinstance(value, (tuple, Jet2)) else None\n"
            "    def _pow(self, a, n):\n"
            "        result = a\n"
            "        while n:\n"
            "            a = self._mul(a, a)\n"
            "            n >>= 1\n"
            "        return result\n"
        )
        assert _jet2_dispatches(source) == [3]
        assert _halving_loops(source) == ["_Parser._pow"]


def _lcm_callers(source):
    """Functions (as Class.method) that call lcm or as_integer_ratio."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef) and any(
                        isinstance(n, ast.Call) and (getattr(n.func, "attr", None)
                                                     or getattr(n.func, "id", None))
                        in ("lcm", "as_integer_ratio") for n in ast.walk(child)):
                    found.add(name)
                visit(child, name + ".")

    visit(ast.parse(source), "")
    return sorted(found)


class TestCleared:
    def test_values_over_the_lcm(self):
        nums, den = jets.cleared({"a": Fraction(1, 6), "b": Fraction(-3, 4), "c": 2, "d": 0.5})
        assert (nums, den) == ({"a": 2, "b": -9, "c": 24, "d": 6}, 12)
        assert all(type(n) is int for n in nums.values())

    def test_zeros_are_dropped_and_order_kept(self):
        nums, den = jets.cleared({(0, 2): Fraction(1, 3), (1, 1): 0, (2, 0): Fraction(0), (1, 0): 1})
        assert list(nums.items()) == [((0, 2), 1), ((1, 0), 3)] and den == 3

    def test_empty_is_over_one(self):
        assert jets.cleared({}) == ({}, 1)
        assert jets.cleared({0: 0}) == ({}, 1)

    def test_a_float_is_taken_exactly(self):
        nums, den = jets.cleared({0: 0.1})
        assert Fraction(nums[0], den) == Fraction(0.1)

    def test_one_clearing_in_src(self):
        callers = {path.name: _lcm_callers(path.read_text()) for path in SRC.glob("*.py")}
        assert {name: found for name, found in callers.items() if found} == {
            "jets.py": ["cleared"]}

    def test_guard_sees_a_second_clearing(self):
        source = (
            "import math\n"
            "def _probe(p):\n"
            "    ratios = [c.as_integer_ratio() for c in p]\n"
            "    return math.lcm(*[d for _, d in ratios])\n"
            "class NF:\n"
            "    def base(self, cols):\n"
            "        return lcm(*(c.denominator for c in cols))\n"
        )
        assert _lcm_callers(source) == ["NF.base", "_probe"]


class TestScalar:
    def test_exact_mode_is_a_fraction(self):
        assert scalar(0.5, EXACT) == Fraction(1, 2)
        assert type(scalar(3, EXACT)) is Fraction
        assert scalar(Fraction(2, 3), EXACT) == Fraction(2, 3)

    def test_float_mode_is_a_float(self):
        assert scalar(Fraction(1, 4), FLOAT) == 0.25
        assert type(scalar(1, FLOAT)) is float

    @pytest.mark.parametrize(
        "value", [math.inf, -math.inf, math.nan, 10**400, Fraction(10**400, 3)]
    )
    def test_float_mode_rejects_non_finite(self, value):
        with pytest.raises(UsageError):
            scalar(value, FLOAT)

    def test_float_jets_reject_an_overflowing_coefficient(self):
        with pytest.raises(UsageError):
            Jet2(2, {(1, 0): 10**400}, FLOAT)


def _compares_mode(test):
    """Whether the expression ``test`` compares ``mode``, ``.mode`` or
    ``.mode_used`` by == or !=."""
    return any(
        isinstance(sub, ast.Compare)
        and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in sub.ops)
        and any((isinstance(x, ast.Name) and x.id == "mode")
                or (isinstance(x, ast.Attribute) and x.attr in ("mode", "mode_used"))
                for x in [sub.left, *sub.comparators])
        for sub in ast.walk(test)
    )


def _mode_forks(source):
    """Lines of conditional expressions that pick a value by ==/!= on a mode."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.IfExp) and _compares_mode(node.test)]


def _mode_branches(source):
    """(function, line) of every if or while statement, elif included, whose
    test compares a mode by ==/!=; a method is named Class.method."""
    branches = []

    def walk(node, func):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            func = node.name if func is None else "%s.%s" % (func, node.name)
        if isinstance(node, (ast.If, ast.While)) and _compares_mode(node.test):
            branches.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            walk(child, func)

    walk(ast.parse(source), None)
    return branches


def _float_calls(source):
    """(enclosing function, argument) of every float() call in a module."""
    calls = []

    def walk(node, func):
        if isinstance(node, ast.FunctionDef):
            func = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float"):
            calls.append((func, ast.unparse(node.args[0]) if node.args else ""))
        for child in ast.iter_child_nodes(node):
            walk(child, func)

    walk(ast.parse(source), None)
    return calls


class TestOneFloatConversion:
    """A mode value becomes a float through jets.scalar (or the float Jet2
    constructor, which runs the same check); germ_io reads and formats
    numbers, and a factorial is an int."""

    OWNERS = {"jets": {"is_zero", "_as_float"},
              "germ_io": {"_number", "format_number", "read_number", "_parse_scalar"}}

    def test_float_is_called_by_its_owners_and_on_factorials_only(self):
        stray = []
        for path in sorted(SRC.glob("*.py")):
            for func, arg in _float_calls(path.read_text()):
                owned = func in self.OWNERS.get(path.stem, ())
                if not owned and not arg.startswith("math.factorial("):
                    stray.append((path.stem, func, arg))
        assert stray == []

    def test_guard_sees_a_stray_call(self):
        source = ("def to_float(nf):\n    return {k: float(c) for k, c in nf.a.items()}\n"
                  "def fact(n):\n    return float(math.factorial(n))\n")
        assert _float_calls(source) == [("to_float", "c"), ("fact", "math.factorial(n)")]

    def test_conversions_beyond_float_range_are_usage_errors(self):
        big = 10**400
        conversions = [
            lambda: Jet2(2, {(1, 0): 1, (2, 0): big}).to_float(),
            lambda: make_nf(4, EXACT, {(2, 0): big}).to_float(),
            lambda: TransformLog().sqrt(2 * big),
        ]
        for convert in conversions:
            with pytest.raises(UsageError, match="float range"):
                convert()

    def test_focal_direction_scales_beyond_float_range(self):
        big, tiny = 10**400, Fraction(1, 10**400)
        assert FocalLine(big, 1, 1).direction() == (0.0, -1.0)
        assert FocalLine(1, -big, 1).direction() == (-1.0, -0.0)
        assert FocalLine(tiny, tiny, 1).direction() == FocalLine(1, 1, 1).direction()
        assert FocalLine(3 * big, 4 * big, 1).direction() == FocalLine(3, 4, 1).direction()

    def test_focal_point_compares_alpha_as_it_is(self):
        tiny = Fraction(1, 10**400)  # 0.0 as a float
        assert FocalLine(tiny, 1, 1).point() == (10**400, 0)


class TestRepr:
    def test_repr_prints_the_body_with_print_polynomial(self):
        rng = random.Random(7)
        for mode in (EXACT, FLOAT):
            for j in (rand_jet(rng, 4, mode), Jet2.zero(3, mode), Jet2.const(-2, 2, mode)):
                text = repr(j)
                assert text == "Jet2[%s, order=%d](%s)" % (mode, j.order, print_polynomial(j))
        assert repr(Jet2(3, {(0, 0): 1, (2, 1): Fraction(-3, 2), (0, 1): 1})) == (
            "Jet2[exact, order=3](1 + v - 3/2*u^2*v)")


class TestOneScalarMode:
    def test_only_jets_forks_on_the_mode_inline(self):
        modules = sorted(SRC.glob("*.py"))
        assert len(modules) > 5 and SRC / "jets.py" in modules
        for path in modules:
            if path.name != "jets.py":
                assert _mode_forks(path.read_text()) == [], path.name

    def test_guard_sees_an_inline_fork(self):
        source = (
            "half = Fraction(1, 2) if mode == EXACT else 0.5\n"
            "zero = 0.0 if self.mode != EXACT else Fraction(0)\n"
            "if mode == EXACT:\n"
            "    pass\n"
            "mode = spec.mode if mode is None else mode\n"
        )
        assert _mode_forks(source) == [1, 2]

    # (module, function) -> why it branches on the scalar mode outside jets,
    # where the numerator convention (_SPLIT, _JOIN), the conversion
    # (scalar) and the zero test (is_zero, zero_scale) fork once for all
    BRANCHES = {
        ("distance", "_integers"):
            "float sums are rationalized for the integer kernels; exact "
            "numerators are ints already and skip the clearing",
        ("oracle", "_cleared_terms"):
            "a float jet is rationalized, an exact one cleared",
        ("germ_io", "_Parser._number"):
            "a decimal literal needs float mode, and a float literal is range-checked",
        ("germ_io", "read_number"):
            "a numeric string reads as a Fraction or as a float",
        ("germ_io", "_parse_scalar"):
            "an exact-mode JSON number reads as its nearest small fraction",
        ("mond", "bk_recursion"):
            "only a float zero test reads the sizes of the shift",
        ("normal_form", "NormalFormCoeffs.to_float"):
            "a float form is its own float copy",
        ("normal_form", "_in_mode"):
            "the one promotion of an exact germ to float",
        ("normal_form", "TransformLog.sqrt"):
            "the log stays exact while every root is rational",
        ("normal_form", "reduce_to_normal_form"):
            "a step that only promotes the germ to float is still applied",
        ("pipeline", "ClassificationOutcome.warnings"):
            "a class read off a float normal form carries the float warning",
    }

    def _branch_sites(self):
        return {(path.stem, func)
                for path in sorted(SRC.glob("*.py")) if path.name != "jets.py"
                for func, _ in _mode_branches(path.read_text())}

    def test_mode_branches_outside_jets_are_listed(self):
        assert sorted(self._branch_sites() - set(self.BRANCHES)) == []

    def test_every_listed_site_still_branches(self):
        # a site that lost its branch leaves the list
        assert sorted(set(self.BRANCHES) - self._branch_sites()) == []

    def test_guard_sees_if_and_while_branches(self):
        source = (
            "def f(mode):\n"
            "    if mode == EXACT:\n"
            "        pass\n"
            "    elif x.mode != FLOAT:\n"
            "        pass\n"
            "    while log.mode_used == EXACT and n:\n"
            "        n -= 1\n"
            "    if mode is None or order == 2:\n"
            "        pass\n"
            "class C:\n"
            "    def g(self):\n"
            "        if self.nf is not None and self.nf.mode == FLOAT:\n"
            "            return 0.5 if self.mode == EXACT else 1\n"
            "if mode == EXACT:\n"
            "    pass\n"
        )
        assert _mode_branches(source) == [("f", 2), ("f", 4), ("f", 6), ("C.g", 12), (None, 14)]
        assert _mode_forks(source) == [13]


ARITHMETIC = ("__add__", "__neg__", "__mul__", "_compose")
# the module-level product and power that Jet2 and the parser share
SHARED = ("_product", "_power")


def _arithmetic_forks(source):
    """(method, line) of every branch on the scalar mode in Jet2's arithmetic
    and the shared product and power: an if, conditional expression or
    boolean test naming a mode or EXACT/FLOAT."""
    forks = []
    body = ast.parse(source).body
    jet2 = next(node for node in body
                if isinstance(node, ast.ClassDef) and node.name == "Jet2")
    for method in jet2.body + body:
        if not (isinstance(method, ast.FunctionDef) and method.name in ARITHMETIC + SHARED):
            continue
        for node in ast.walk(method):
            if isinstance(node, (ast.If, ast.IfExp, ast.While, ast.Assert)):
                tests = [node.test]
            elif isinstance(node, ast.comprehension):
                tests = node.ifs
            else:
                continue
            for test in tests:
                if any((isinstance(x, ast.Name) and x.id in ("mode", "EXACT", "FLOAT"))
                       or (isinstance(x, ast.Attribute) and x.attr == "mode")
                       for x in ast.walk(test)):
                    forks.append((method.name, test.lineno))
    return forks


class TestOneArithmetic:
    """Both scalar modes run the same Jet2 arithmetic: the methods and the
    shared product and power hold no branch on the mode (the finiteness
    check of a float result lives in jets._finite)."""

    def test_arithmetic_has_no_mode_branch(self):
        source = (SRC / "jets.py").read_text()
        tree = ast.parse(source)
        jet2 = next(node for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == "Jet2")
        assert set(ARITHMETIC) <= {node.name for node in jet2.body
                                   if isinstance(node, ast.FunctionDef)}
        assert set(SHARED) <= {node.name for node in tree.body
                               if isinstance(node, ast.FunctionDef)}
        assert _arithmetic_forks(source) == []

    def test_guard_sees_a_synthetic_fork(self):
        source = (
            "class Jet2:\n"
            "    def __add__(self, other):\n"
            "        if self.mode == EXACT:\n"
            "            return self._exact_add(other)\n"
            "        return self._float_add(other)\n"
            "    def __neg__(self):\n"
            "        return Jet2(self.order, {k: -c for k, c in self.coeffs.items()}, self.mode)\n"
            "    def __mul__(self, other):\n"
            "        keep = (lambda c: c) if mode is FLOAT else bool\n"
            "        return {k: c for k, c in self.coeffs.items() if keep(c) or FLOAT}\n"
            "    def partial(self, var):\n"
            "        if self.mode == EXACT:\n"
            "            pass\n"
        )
        assert _arithmetic_forks(source) == [("__add__", 3), ("__mul__", 9), ("__mul__", 10)]
