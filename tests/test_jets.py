import ast
import math
import pathlib
import random
from fractions import Fraction

import pytest

from germforge import blowup, front
from germforge.blowup import BlowupContext, PointType, k10_closed, k10_scale, k20_closed
from germforge.errors import HypothesisError, ModeMismatchError, UsageError
from germforge.jets import EXACT, FLOAT, FLOAT_ZERO_REL, GermJets, Jet2, is_zero

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


# The local zero tests and k10 scales that is_zero and blowup.k10_scale
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
        vals.append(abs(float(c)) / (math.factorial(p) * math.factorial(q)))
    for p, c in nf.b.items():
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
                a = {(0, 3): 6 * big, (i, j): x * norm}
                nf = make_nf(order=6, mode=FLOAT, a=a, b={2: rng.uniform(-1, 1)})
                assert nf.is_zero_a(i, j) == ref_is_zero_a(nf, i, j), (x, big)
            for x in draw_exact(rng):
                nf = make_nf(order=6, mode=EXACT, a={(i, j): x})
                assert nf.is_zero_a(i, j) == ref_is_zero_a(nf, i, j)

    def test_the_three_k10_scales(self, monkeypatch):
        # k10 and K0 are injected so that front_verdict and ridge_report
        # decide on values placed at their thresholds
        rng = random.Random(11)
        for _ in range(200):
            ctx = draw_ctx(rng)
            theta = rng.uniform(-1.5, 1.5)
            scale = k10_scale(ctx, theta)
            k10 = k10_closed(ctx, theta)
            if k10 != 0:
                lam0 = 1.0 / k10
                for d in around(FLOAT_ZERO_REL * max(1.0, abs(lam0) * scale), rng):
                    lam = lam0 * (1 + d)
                    got = is_zero(lam * k10 - 1.0, max(1.0, abs(lam) * scale))
                    assert got == ref_distance_focal(ctx, theta, lam, k10), (lam, k10)
            front_scale = max(1.0 / ctx.ma(theta), scale)
            for k10 in around(FLOAT_ZERO_REL * front_scale, rng):
                monkeypatch.setattr(front, "k10_closed", lambda *_: k10)
                try:
                    front.front_verdict(ctx, theta)
                    raised = False
                except HypothesisError:
                    raised = True
                assert raised == ref_front_k10_zero(ctx, theta, k10), k10
            k0_scale = max(1.0, abs(k20_closed(ctx, theta)) * scale)
            for k0 in around(FLOAT_ZERO_REL * k0_scale, rng):
                monkeypatch.setattr(blowup, "K0_closed", lambda *_: k0)
                parabolic = blowup.ridge_report(ctx, theta).point_type is PointType.PARABOLIC
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
