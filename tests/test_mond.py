import math
import random
from fractions import Fraction

import pytest

from germforge.errors import UsageError
from germforge.jets import EXACT, FLOAT, Jet2, is_zero
from germforge.mond import (
    MondClass,
    MondTag,
    b_order,
    bk_recursion,
    classify,
    verify_by_substitution,
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

    def test_verify_accepts_valid_trace(self, rng):
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
            assert verify_by_substitution(nf, trace, k)

    def test_verify_rejects_perturbed_c2(self, rng):
        nf = make_nf(order=5, a={(2, 1): 2, (1, 3): 3, (0, 5): 1})
        trace = bk_recursion(nf, 2)
        trace.c[2] += 1
        assert not verify_by_substitution(nf, trace, 2)

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
