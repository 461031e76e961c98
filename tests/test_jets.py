import random
from fractions import Fraction

import pytest

from germforge.errors import ModeMismatchError, SingularSeriesError, UsageError
from germforge.jets import EXACT, FLOAT, GermJets, Jet2, invert_series_1d

from conftest import rand_jet


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


class TestSubstitute:
    def test_shift_into_half_v_squared(self):
        p = jet(3, {(0, 2): Fraction(1, 2)})
        c = Fraction(7, 2)
        u3, v3 = Jet2.variable("u", 3), Jet2.variable("v", 3)
        vn = v3 + Jet2.monomial(2, 0, c, 3)
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
        vn = Jet2.monomial(0, 1, 1 / math.sqrt(2), 3, FLOAT)
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


class TestInvertSeries:
    def test_identity(self):
        t = Jet2.variable("u", 3)
        assert invert_series_1d(t, "u") == t

    def test_linear(self):
        s = jet(3, {(1, 0): 2})
        assert invert_series_1d(s, "u") == jet(3, {(1, 0): Fraction(1, 2)})

    def test_t_plus_t_squared(self):
        # independent oracle: compose and check s(w) = t + O(t^4)
        s = jet(3, {(1, 0): 1, (2, 0): 1})
        w = invert_series_1d(s, "u")
        assert w == jet(3, {(1, 0): 1, (2, 0): -1, (3, 0): 2})
        composed = s.substitute(w, Jet2.zero(3))
        assert composed == Jet2.variable("u", 3)

    def test_vanishing_linear_coefficient(self):
        with pytest.raises(SingularSeriesError):
            invert_series_1d(jet(3, {(2, 0): 1}), "u")


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
            want = Jet2.zero(order)
            for (i, j), c in p.coeffs.items():
                term = Jet2.const(c, order)
                for _ in range(i):
                    term = _raw_mul(term, un)
                for _ in range(j):
                    term = _raw_mul(term, vn)
                want = _raw_add(want, term)
            got = p.substitute(un, vn)
            _assert_clean(got)
            assert got == want

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


# Float mode keeps its validating path, relative floor included.  The values
# below were produced before the exact-mode fast path existed.
FA = jet(3, {(1, 0): 1e6, (0, 1): 0.01, (1, 1): 3.0, (0, 2): -7.5, (2, 1): 1e-3}, FLOAT)
FB = jet(3, {(0, 1): 2.0, (2, 0): 1e-9, (1, 1): -0.25, (0, 3): 4.0}, FLOAT)
FUN = jet(3, {(1, 0): 1.0, (0, 2): 1e-7, (1, 1): 2.5}, FLOAT)
FVN = jet(3, {(0, 1): 3.0, (2, 0): -1e5}, FLOAT)
PINNED_FLOAT = {
    "add": {(0, 1): 2.01, (0, 2): -7.5, (0, 3): 4.0, (1, 0): 1000000.0, (1, 1): 2.75},
    "sub": {(0, 1): -1.99, (0, 2): -7.5, (0, 3): -4.0, (1, 0): 1000000.0, (1, 1): 3.25},
    "neg": {(0, 1): -0.01, (0, 2): 7.5, (1, 0): -1000000.0, (1, 1): -3.0},
    "mul": {(0, 2): 0.02, (0, 3): -15.0, (1, 1): 2000000.0, (1, 2): 5.9975,
            (2, 1): -250000.0},
    "scalar": {(0, 1): 0.025, (0, 2): -18.75, (1, 0): 2500000.0, (1, 1): 7.5},
    "rscalar": {(0, 1): 0.03, (0, 2): -22.5, (1, 0): 3000000.0, (1, 1): 9.0},
    "pow": {(0, 3): 8.0},
    "substitute": {(0, 1): 0.03, (0, 2): -67.4, (1, 0): 1000000.0, (1, 1): 2500009.0,
                   (1, 2): 22.5, (2, 0): -1000.0, (2, 1): 4500000.0, (3, 0): -300000.0},
}


class TestFloatPathPinned:
    def test_results_equal_pinned_values(self):
        got = {
            "add": FA + FB, "sub": FA - FB, "neg": -FA, "mul": FA * FB,
            "scalar": FA * 2.5, "rscalar": 3 * FA, "pow": FB ** 3,
            "substitute": FA.substitute(FUN, FVN),
        }
        for name, result in got.items():
            assert result.mode == FLOAT
            assert result.coeffs == PINNED_FLOAT[name], name

    def test_floor_drops_small_terms(self):
        # 1e6 * 1e-9 = 1e-3 is under the product's floor 1e-9 * 2e6
        assert (3, 0) not in (FA * FB).coeffs
        assert (2, 1) not in FA.coeffs
