import ast
import math
import pathlib
import random
from fractions import Fraction

import pytest

from germforge import germ_io, mond, pipeline
from germforge.errors import InternalConsistencyError, UsageError
from germforge.jets import EXACT, FLOAT, Jet2, is_zero
from germforge.mond import (
    MondClass,
    MondTag,
    b_order,
    bk_recursion,
    classify,
)
from germforge.normal_form import reduce_to_normal_form

from conftest import germ_from_strings, make_nf, rand_fraction


def classify_strings(components, order):
    g = germ_from_strings(components, order)
    nf, _ = reduce_to_normal_form(g)
    return classify(nf)


class TestClassifyDirect:
    def test_s1(self):
        nf = make_nf(order=4, a={(2, 1): 2, (0, 3): 3})
        res = classify(nf)
        assert res.mond == MondClass(MondTag.S, 1, "+")

    def test_s2_sign_collapses(self):
        nf = make_nf(order=5, a={(3, 1): -4, (0, 3): 3})
        res = classify(nf)
        assert res.mond.tag is MondTag.S
        assert res.mond.k == 2
        assert res.mond.sign is None

    def test_b2(self):
        nf = make_nf(order=5, a={(2, 1): 2, (0, 5): 7})
        res = classify(nf)
        assert res.mond.tag is MondTag.B
        assert res.mond.k == 2
        assert res.trace is not None

    def test_c3(self):
        nf = make_nf(order=4, a={(3, 1): 1, (1, 3): 5})
        res = classify(nf)
        assert res.mond == MondClass(MondTag.C, 3, "+")

    def test_f4(self):
        nf = make_nf(order=5, a={(3, 1): 1, (0, 5): 1})
        res = classify(nf)
        assert res.mond == MondClass(MondTag.F4)

    def test_indeterminate_with_reason(self):
        nf = make_nf(order=5, a={})
        res = classify(nf)
        assert res.mond.tag is MondTag.INDETERMINATE
        assert res.mond.reason

    def test_order_too_small_reported(self):
        nf = make_nf(order=3, a={(0, 3): 1})
        res = classify(nf, k_max=4)
        assert res.mond.tag is MondTag.INDETERMINATE
        assert "order" in res.mond.reason

    def test_float_mode_warns(self):
        nf = make_nf(order=4, mode=FLOAT, a={(2, 1): 2.0, (0, 3): 3.0})
        res = classify(nf)
        assert res.mond.tag is MondTag.S
        assert any("numerically" in w for w in res.warnings)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_odd_s_and_c_take_the_sign_against_their_lead(self, mode):
        # S_k reads a_{k+1,1} against a_03, C_k reads a_k1 against a_13
        s3 = make_nf(order=5, mode=mode, a={(4, 1): -2, (0, 3): 3})
        c5 = make_nf(order=6, mode=mode, a={(5, 1): 1, (1, 3): -1})
        assert classify(s3).mond == MondClass(MondTag.S, 3, "-")
        assert classify(c5).mond == MondClass(MondTag.C, 5, "-")


class TestIndeterminateReasons:
    """The reason strings of the a_i1 scans (S_k and C_k) and of the B_k
    recursion, word for word."""

    @pytest.mark.parametrize("order, a, k_max, reason", [
        (3, {(0, 3): 1}, 8, "order 3 too small to probe S_2 (needs 4)"),
        (10, {(0, 3): 1}, 4, "a_03 != 0 but a_i1 = 0 for all i <= 5"),
        (10, {(0, 3): 1}, 0, "a_03 != 0 but a_i1 = 0 for all i <= 1"),
        (4, {(1, 3): 1}, 8, "order 4 too small to probe C_4 (needs 5)"),
        (10, {(1, 3): 1}, 5, "a_13 != 0 but a_i1 = 0 for all i <= 5"),
        (10, {(1, 3): 1}, 2, "a_13 != 0 but a_i1 = 0 for all i <= 2"),
        (6, {(2, 1): 1}, 8, "order 6 too small to probe B_3 (needs 7)"),
        (9, {(2, 1): 1}, 4, "xi_n = 0 for all n <= 4"),
        (4, {}, 8, "order 4 too small to probe F_4"),
        (5, {(3, 1): 1}, 8, "a_31 != 0, a_13 = a_05 = 0: outside the simple classes"),
        (5, {}, 8, "a_03 = a_21 = a_13 = a_31 = 0: outside the simple classes"),
    ])
    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_reason(self, order, a, k_max, reason, mode):
        res = classify(make_nf(order=order, mode=mode, a=a), k_max=k_max)
        assert res.mond == MondClass(MondTag.INDETERMINATE, reason=reason)


class TestClassifyFromGerms:
    def test_s1_from_germ(self):
        res = classify_strings(["u", "v^2", "u^2*v + v^3"], 4)
        assert res.mond.tag is MondTag.S
        assert res.mond.k == 1

    def test_b2_from_germ(self):
        res = classify_strings(["u", "v^2", "u^2*v + v^5"], 5)
        assert res.mond.tag is MondTag.B
        assert res.mond.k == 2
        # witness values from the reduction: a_21 = sqrt(2), a_05 = 30/sqrt(2)
        g = germ_from_strings(["u", "v^2", "u^2*v + v^5"], 5)
        nf, _ = reduce_to_normal_form(g)
        assert nf.a_(2, 1) == pytest.approx(2**0.5)
        assert nf.a_(0, 5) == pytest.approx(30 / 2**0.5)
        assert nf.a_(1, 3) == 0
        assert 3 * nf.a_(0, 5) * nf.a_(2, 1) - 5 * nf.a_(1, 3) ** 2 == pytest.approx(90)

    def test_f4_from_germ(self):
        res = classify_strings(["u", "v^2", "u^3*v + v^5"], 5)
        assert res.mond == MondClass(MondTag.F4)


class TestBkRecursion:
    def test_c2_closed_form(self, rng):
        for _ in range(30):
            a21 = rand_fraction(rng, nonzero=True)
            a13 = rand_fraction(rng)
            nf = make_nf(order=5, a={(2, 1): a21, (1, 3): a13, (0, 5): 1})
            trace = bk_recursion(nf, 2)
            assert trace.c[2] == -a13 / (6 * a21)

    def test_xi2_closed_form(self, rng):
        for _ in range(30):
            a21 = rand_fraction(rng, nonzero=True)
            a13 = rand_fraction(rng)
            a05 = rand_fraction(rng)
            nf = make_nf(order=5, a={(2, 1): a21, (1, 3): a13, (0, 5): a05})
            trace = bk_recursion(nf, 2)
            assert trace.xi[2] == (3 * a05 * a21 - 5 * a13**2) / (360 * a21)

    def test_xi2_without_uv3_term(self, rng):
        # with a_13 = 0 every shift constant vanishes and xi_2 = a_05 / 120
        for _ in range(10):
            a05 = rand_fraction(rng)
            nf = make_nf(order=5, a={(2, 1): 3, (0, 5): a05})
            trace = bk_recursion(nf, 2)
            assert trace.c[2] == 0
            assert trace.xi[2] == Fraction(a05, 120)

    def test_precondition_violated(self):
        nf = make_nf(order=5, a={(0, 5): 1})
        with pytest.raises(UsageError):
            bk_recursion(nf, 2)

    def test_shift_kills_every_a1(self, rng):
        for k in (2, 3, 4):
            order = 2 * k + 1
            terms = {
                (2, 1): rand_fraction(rng, nonzero=True),
                (1, 3): rand_fraction(rng),
                (3, 1): rand_fraction(rng),
                (0, order): rand_fraction(rng, nonzero=True),
            }
            if order >= 6:
                terms[(1, 5)] = rand_fraction(rng)
            nf = make_nf(order=order, a=terms)
            trace = bk_recursion(nf, k)
            assert trace.a1hat == {n: 0 for n in range(2, k + 1)}

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_wrong_shift_constant_raises(self, mode, monkeypatch):
        # the shift is built with c_2 + 1, so a_13 of the shifted jet is a_21 = 2
        nf = make_nf(order=5, mode=mode, a={(2, 1): 2, (1, 3): 3, (0, 5): 1})
        shift_jet = mond._shift_jet
        monkeypatch.setattr(mond, "_shift_jet", lambda c, order, mode: shift_jet(
            {i: ci + 1 if i == 2 else ci for i, ci in c.items()}, order, mode))
        with pytest.raises(InternalConsistencyError, match=r"B_2 shift left .* at u v\^3"):
            bk_recursion(nf, 2)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_continuing_a_wrong_trace_raises(self, mode):
        nf = make_nf(order=7, mode=mode, a={(2, 1): 2, (1, 3): 3, (0, 7): 1})
        prev = bk_recursion(nf, 2)
        prev.c[2] += 1
        with pytest.raises(InternalConsistencyError, match=r"B_3 shift left .* at u v\^3"):
            bk_recursion(nf, 3, prev)

    def test_a1hat_entries_vanish(self, rng):
        nf = make_nf(
            order=7,
            a={(2, 1): 5, (1, 3): 2, (1, 5): -3, (3, 1): 1, (0, 7): 4},
        )
        trace = bk_recursion(nf, 3)
        assert all(v == 0 for v in trace.a1hat.values())


def _shifted_bk_nf(k, a21, tau, d, mode):
    """Order-17 B_k form z(u + sum_n d_n v^(2(n-1)), v) with
    z = a21 u^2 v / 2 + tau v^(2k+1): its shift constants are c_n = -d_n,
    every a_{1,2n-1} with d_n != 0 is nonzero, and xi_k = tau."""
    order = b_order(8)
    z = Jet2(order, {(2, 1): Fraction(a21, 2), (0, 2 * k + 1): tau})
    shift = Jet2(order, {(1, 0): 1, **{(0, 2 * (n - 1)): dn for n, dn in d.items()}})
    p = z.substitute(shift, Jet2.variable("v", order))
    a = {(i, j): c * math.factorial(i) * math.factorial(j) for (i, j), c in p.coeffs.items()}
    return make_nf(order=order, mode=mode, a=a)


def _per_k_label(nf, k_max=8):
    """(k, sign) from the recursion solved from scratch for every k."""
    for k in range(2, k_max + 1):
        trace = bk_recursion(nf, k)
        if not is_zero(trace.xi[k], trace.scale, nf.mode):
            return k, "+" if trace.xi[k] * nf.a_(2, 1) > 0 else "-"
    return None


class TestIncrementalShiftConstants:
    """classify carries c_2..c_{k-1} from B_{k-1} to B_k.  On forms whose
    shift constants are all nonzero (the benchmark corpus has none), labels
    and signs equal the recursion solved from scratch for each k, and exact
    traces are equal."""

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_labels_match_per_k_solution(self, mode):
        rng = random.Random(61)
        for k in range(2, 9):
            for _ in range(3):
                a21 = rand_fraction(rng, nonzero=True)
                tau = rng.choice([-1, 1]) * Fraction(1, rng.randint(1, 4))
                d = {n: rand_fraction(rng, 3, 3, nonzero=True) for n in range(2, k + 1)}
                nf = _shifted_bk_nf(k, a21, tau, d, mode)
                assert all(not nf.is_zero_a(1, 2 * n - 1) for n in d)
                res = classify(nf)
                sign = "+" if tau * a21 > 0 else "-"
                assert res.mond == MondClass(MondTag.B, k, sign)
                assert (res.mond.k, res.mond.sign) == _per_k_label(nf)
                assert all(res.trace.c[n] for n in d)
                if mode == EXACT:
                    assert res.trace == bk_recursion(nf, k)
                    assert res.trace.c == {n: -dn for n, dn in d.items()}

    def test_continuation_chains_equal_exact_traces(self):
        nf = _shifted_bk_nf(6, 2, Fraction(1, 3), {n: Fraction(n, 5) for n in range(2, 7)}, EXACT)
        trace = None
        for k in range(2, 7):
            trace = bk_recursion(nf, k, trace)
            assert trace == bk_recursion(nf, k)

    def test_continuation_needs_the_previous_k(self):
        nf = _shifted_bk_nf(3, 1, 1, {2: 1, 3: 1}, EXACT)
        with pytest.raises(UsageError):
            bk_recursion(nf, 4, bk_recursion(nf, 2))


class TestConjugationStability:
    def test_random_conjugation_preserves_class(self, rng):
        base_cases = [
            (["u", "v^2", "u^2*v + v^3"], 5, MondTag.S, 1),
            (["u", "v^2", "u^2*v + v^5"], 6, MondTag.B, 2),
            (["u", "v^2", "u*v^3 + u^3*v"], 6, MondTag.C, 3),
            (["u", "v^2", "u^3*v + v^5"], 6, MondTag.F4, None),
        ]
        for comps, order, tag, k in base_cases:
            g = germ_from_strings(comps, order).to_float()
            for _ in range(4):
                conj = _random_conjugate(rng, g)
                nf, _ = reduce_to_normal_form(conj)
                res = classify(nf)
                assert res.mond.tag is tag, (comps, res.mond)
                if k is not None:
                    assert res.mond.k == k


def _random_conjugate(rng, g):
    """R o g o phi for a random small source diffeo and target rotation."""
    import math

    order = g.order
    u = Jet2.variable("u", order, FLOAT)
    v = Jet2.variable("v", order, FLOAT)
    # source: unit-Jacobian polynomial jets
    theta = rng.uniform(0, 2 * math.pi)
    cu, su = math.cos(theta), math.sin(theta)
    u_new = u * cu - v * su
    v_new = u * su + v * cu
    for _ in range(2):
        i, j = rng.randint(0, 2), rng.randint(0, 2)
        if 2 <= i + j <= 3:
            u_new = u_new + Jet2(order, {(i, j): rng.uniform(-0.4, 0.4)}, FLOAT)
            v_new = v_new + Jet2(order, {(j, i): rng.uniform(-0.4, 0.4)}, FLOAT)
    conj = g.substitute(u_new, v_new)
    # target: random rotation from three elementary angles
    rot = _random_rotation(rng)
    return conj.rotate(rot)


def _random_rotation(rng):
    import math

    def rx(t):
        return [[1, 0, 0], [0, math.cos(t), -math.sin(t)], [0, math.sin(t), math.cos(t)]]

    def rz(t):
        return [[math.cos(t), -math.sin(t), 0], [math.sin(t), math.cos(t), 0], [0, 0, 1]]

    def matmul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]

    m = matmul(rx(rng.uniform(0, 6.28)), rz(rng.uniform(0, 6.28)))
    return matmul(m, rx(rng.uniform(0, 6.28)))


def _family_spec(k, a, s, t, mode):
    """(u, v^2/2, u^2 + v^2/2 + a u^2 v + s u v^2 + t v^(2k+1)): the target
    shear u^2 + v^2/2 leaves a float normal form whose a_i1 grow with i."""
    z = "u^2 + 1/2*v^2 + %d*u^2*v + %d*u*v^2 + %s*v^%d" % (a, s, t, 2 * k + 1)
    return germ_io.germ_spec_from_dict({
        "variables": ["u", "v"], "components": ["u", "1/2*v^2", z],
        "order": 2 * k + 1, "mode": mode,
    })


def _zero_xi_spec(a, s, e, c, d, sheared):
    """(u, w^2/2, u^2 + a (u + c w^2 + d w^4)^2 w + s u w^2), w = v + e u, and
    with ``sheared`` w^2/2 added to z: each is A-equivalent to
    (u, v^2/2, a u^2 v), whose xi_n all vanish.  The unsheared germ reduces
    in exact arithmetic, the sheared one in float."""
    w = "(v + %s*u)" % e
    z = "u^2 + %d*(u + %s*%s^2 + %s*%s^4)^2*%s + %d*u*%s^2" % (a, c, w, d, w, w, s, w)
    return germ_io.germ_spec_from_dict({
        "variables": ["u", "v"], "order": 17, "mode": "exact",
        "components": ["u", "1/2*%s^2" % w, z + (" + 1/2*%s^2" % w if sheared else "")],
    })


class TestXiScale:
    """xi_k is tested against the sizes the shift sums into it, each term
    sized by the largest term of no greater weight, not against the largest
    coefficient of the whole shifted jet: on the sheared family the shifted
    jet's u^i v coefficients reach 1e9 while xi_k stays of order 1, and on
    germs whose xi_n all vanish the float xi_n stay below that scale."""

    def test_sheared_b7_germ_with_large_a_i1(self):
        spec = germ_io.germ_spec_from_dict({
            "variables": ["u", "v"], "mode": "exact", "order": 6,
            "components": ["u", "1/2*v^2", "u^2 + 1/2*v^2 + 3*u^2*v - 5*u*v^2 + 4/3*v^15"],
        })
        outcome = pipeline.classify_spec(spec)
        assert outcome.nf.mode == FLOAT
        assert outcome.mond.label == "B7+"
        assert outcome.trace.scale < 1e5 < outcome.nf.degree_scale(15)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @pytest.mark.parametrize("k", range(2, 9))
    def test_sheared_family_is_planted_b_k(self, k, mode):
        for a in (1, 2, 3):
            for s in range(-5, 6):
                for t in ("4/3", "-1/2", "2", "1/7"):
                    outcome = pipeline.classify_spec(_family_spec(k, a, s, t, mode))
                    assert outcome.nf.mode == FLOAT
                    assert (outcome.mond.tag, outcome.mond.k) == (MondTag.B, k), (a, s, t)

    @pytest.mark.parametrize("s", [-5, 0, 5])
    @pytest.mark.parametrize("a", [1, 3])
    def test_germs_whose_xi_vanish_stay_indeterminate(self, a, s):
        for e in ("0", "2", "3", "-3"):
            for c in ("0", "1", "3", "-5"):
                for d in ("0", "1"):
                    exact = pipeline.classify_spec(_zero_xi_spec(a, s, e, c, d, False))
                    assert exact.nf.mode == EXACT
                    trace = None
                    for k in range(2, 9):
                        trace = bk_recursion(exact.nf, k, trace)
                    assert not any(trace.xi.values())
                    for outcome in (exact, pipeline.classify_spec(_zero_xi_spec(a, s, e, c, d, True))):
                        assert outcome.mond.reason == "xi_n = 0 for all n <= 8", (outcome.nf.mode, e, c, d)


def _scale_leaks(source):
    """(line, name) of every call of factorial or max_abs in a module."""
    leaks = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in ("factorial", "max_abs"):
                leaks.append((node.lineno, name))
    return sorted(leaks)


class TestOneFactorialConvention:
    """mond reads the third component through the normal form, which owns
    the factorial convention, and tests no coefficient against the size of
    a whole jet."""

    def test_mond_calls_neither_factorial_nor_max_abs(self):
        path = pathlib.Path(mond.__file__)
        assert _scale_leaks(path.read_text()) == []

    def test_guard_sees_both_calls(self):
        source = (
            "import math\n"
            "from math import factorial\n"
            "def odd_part(nf):\n"
            "    return {k: c / (math.factorial(k[0]) * factorial(k[1])) for k, c in nf.a.items()}\n"
            "def scale(jet):\n"
            "    return max(1.0, float(jet.max_abs()))\n"
        )
        assert _scale_leaks(source) == [(4, "factorial"), (4, "factorial"), (6, "max_abs")]
