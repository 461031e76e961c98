import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germforge.errors import SingularSeriesError, UsageError
from germforge.jets import EXACT, FLOAT, Jet2
from germforge.oracle import (
    K_EQUIV,
    R_PLUS,
    SingularityType,
    critical_curve_restriction,
    rank_of_rows,
    split_and_type,
    versality_rank_oracle,
)

from conftest import rand_fraction


def jet(order, terms):
    return Jet2(order, terms, EXACT)


class TestSplitAndType:
    def test_morse(self):
        f = jet(6, {(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)})
        assert split_and_type(f).label == "A1"

    def test_a2_standard_model(self):
        f = jet(6, {(2, 0): Fraction(1, 2), (0, 3): 1})
        t = split_and_type(f)
        assert t.label == "A2" and t.corank == 1

    def test_d4_nondegenerate_cubic(self):
        f = jet(6, {(2, 1): 1, (0, 3): -1})
        t = split_and_type(f)
        assert t.label == "D4" and t.corank == 2

    def test_degenerate_cubic(self):
        f = jet(6, {(3, 0): 1})  # u^3: discriminant zero
        assert split_and_type(f).label == "MoreDegenerate"

    def test_nonzero_gradient_rejected(self):
        with pytest.raises(UsageError):
            split_and_type(jet(6, {(1, 0): 1}))

    def test_model_functions_a_k(self):
        # +-u^2 +- v^(k+1) must come back as A_k exactly
        for k in range(1, 6):
            for su in (1, -1):
                for sv in (1, -1):
                    f = jet(6, {(2, 0): su, (0, k + 1): sv})
                    t = split_and_type(f)
                    assert t.label == "A%d" % k, (k, su, sv, t.label)

    def test_cross_terms_resolved(self):
        # u^2 + 2uv + v^2 + v^3: Hessian has rank 1; residual order decides
        f = jet(6, {(2, 0): 1, (1, 1): 2, (0, 2): 1, (0, 3): 1})
        t = split_and_type(f)
        # residual after completing (u+v)^2: v^3 term survives up to the change
        assert t.tag == "A" and t.k >= 2

    def test_invariance_under_linear_changes(self, rng):
        u, v = Jet2.variable("u", 6), Jet2.variable("v", 6)
        base = jet(6, {(2, 0): 1, (0, 4): 3, (1, 2): 1})
        t0 = split_and_type(base)
        for _ in range(12):
            a, b = rand_fraction(rng, nonzero=True), rand_fraction(rng)
            c, d = rand_fraction(rng), rand_fraction(rng, nonzero=True)
            if a * d - b * c == 0:
                continue
            g = base.substitute(u * a + v * b, u * c + v * d)
            g = g + Jet2.const(rand_fraction(rng), 6)
            t = split_and_type(g)
            assert (t.tag, t.k) == (t0.tag, t0.k)


class TestCriticalCurve:
    def test_known_curve_and_residual(self):
        # f = (u - v^2 + v^3)^2 (3 + u) + v^5 - 2 v^7: the critical curve is
        # u = v^2 - v^3 and the residual is v^5 - 2 v^7
        u, v = Jet2.variable("u", 7), Jet2.variable("v", 7)
        w = u - v * v + v * v * v
        f = w * w * (Jet2.const(3, 7) + u) + jet(7, {(0, 5): 1, (0, 7): -2})
        assert critical_curve_restriction(f) == [0, 0, 0, 0, 0, 1, 0, -2]
        # the same function with u and v exchanged, solved for v
        g = critical_curve_restriction(f.substitute(v, u), "v")
        assert g == [0, 0, 0, 0, 0, 1, 0, -2]
        assert all(isinstance(c, Fraction) for c in g)

    def test_float_jet_gives_floats(self):
        f = Jet2(6, {(2, 0): 0.5, (1, 2): 1.0, (0, 4): 2.0}, FLOAT)
        # u = -v^2 on the curve: g = v^4/2 - v^4 + 2 v^4
        g = critical_curve_restriction(f)
        assert g == [0.0, 0.0, 0.0, 0.0, 1.5, 0.0, 0.0]
        assert all(isinstance(c, float) for c in g)

    def test_vanishing_square_is_typed_error(self):
        with pytest.raises(SingularSeriesError):
            critical_curve_restriction(jet(6, {(0, 2): 1, (0, 3): 1}), "u")
        with pytest.raises(UsageError):
            critical_curve_restriction(jet(6, {(2, 0): 1}), "w")


class TestRank:
    def test_rank_of_rows(self):
        rows = [
            [Fraction(1), Fraction(0), Fraction(2)],
            [Fraction(0), Fraction(1), Fraction(0)],
            [Fraction(1), Fraction(1), Fraction(2)],
        ]
        assert rank_of_rows(rows) == 2

    def test_morse_family_versal(self):
        # d = (u^2 + v^2)/2 + linear family: versal both ways
        f = jet(6, {(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2), (0, 0): 3})
        fam = [
            jet(6, {(1, 0): -1}),
            jet(6, {(0, 1): -1, (0, 0): 1}),
            jet(6, {(0, 0): 2, (2, 0): 1}),
        ]
        assert versality_rank_oracle(fam, f, R_PLUS, 2)
        assert versality_rank_oracle(fam, f, K_EQUIV, 2)

    def test_a5_not_r_plus_versal_with_three_parameters(self):
        # an A5 function cannot be R+-versally unfolded by 3 parameters
        f = jet(6, {(2, 0): 1, (0, 6): 1})
        fam = [
            jet(6, {(1, 0): -1}),
            jet(6, {(0, 1): -1}),
            jet(6, {(0, 2): -1, (0, 0): 1}),
        ]
        assert not versality_rank_oracle(fam, f, R_PLUS, 6)

    def test_monotone_in_generators(self, rng):
        f = jet(6, {(2, 0): 1, (0, 3): 1})
        base_fam = [jet(6, {(1, 0): -1})]
        extra = [jet(6, {(0, 1): -1}), jet(6, {(0, 0): 1, (0, 2): -1})]
        for flavor in (R_PLUS, K_EQUIV):
            small = versality_rank_oracle(base_fam, f, flavor, 3)
            big = versality_rank_oracle(base_fam + extra, f, flavor, 3)
            assert big or not small

    def test_float_inputs_rationalized(self):
        f = Jet2(6, {(2, 0): 0.5, (0, 2): 0.5}, "float")
        fam = [
            Jet2(6, {(1, 0): -1.0}, "float"),
            Jet2(6, {(0, 1): -1.0}, "float"),
            Jet2(6, {(0, 0): 1.0}, "float"),
        ]
        assert versality_rank_oracle(fam, f, R_PLUS, 2)


# ---------------------------------------------------------------------------
# Reference implementations: the shift-loop splitting and the dense
# elimination that the kernels in germforge.oracle replaced.
# ---------------------------------------------------------------------------


def ref_split_and_type(f, order=6):
    """Splitting by a u -> u + alpha*v shift and ascending u*v^j shifts."""
    if f.order < order:
        order = f.order
    f = f.truncate(order)
    c20, c11, c02 = f.coeff(2, 0), f.coeff(1, 1), f.coeff(0, 2)
    if 4 * c20 * c02 - c11 * c11 != 0:
        return SingularityType("A", 1, corank=0)
    if c20 == 0 and c02 == 0 and c11 == 0:
        a, b = f.coeff(3, 0), f.coeff(2, 1)
        c, d = f.coeff(1, 2), f.coeff(0, 3)
        disc = (
            18 * a * b * c * d
            - 4 * b**3 * d
            + b**2 * c**2
            - 4 * a * c**3
            - 27 * a**2 * d**2
        )
        return SingularityType("D4" if disc != 0 else "MoreDegenerate", corank=2)
    u = Jet2.variable("u", order, EXACT)
    v = Jet2.variable("v", order, EXACT)
    if c20 == 0:
        f = f.substitute(v, u)
        c20, c11 = f.coeff(2, 0), f.coeff(1, 1)
    if c11 != 0:
        f = f.substitute(u + (-c11 / (2 * c20)) * v, v)
    c20 = f.coeff(2, 0)
    for j in range(1, order):
        cj = f.coeff(1, j)
        if cj != 0:
            shift = Jet2.monomial(0, j, -cj / (2 * c20), order, EXACT)
            f = f.substitute(u + shift, v)
    residual = Jet2(
        order,
        {(i, j): c for (i, j), c in f.coeffs.items() if i == 0 and j >= 3},
        EXACT,
    )
    if residual.is_zero():
        return SingularityType("MoreDegenerate", corank=1, residual=residual)
    m = min(j for (_, j) in residual.coeffs)
    return SingularityType("A", m - 1, corank=1, residual=residual)


def ref_rank_of_rows(rows):
    """Dense Gaussian elimination, pivoting column by column."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while col < ncols and rank < len(rows):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        pv = pr[col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / pv
                rows[r] = [x - factor * y for x, y in zip(rows[r], pr)]
        rank += 1
        col += 1
    return rank


KINDS = ("morse", "rank1", "swap", "corank2", "planted")


def random_critical_jet(rng, order, kind):
    """A jet with a critical point at 0 whose Hessian is of the given kind.

    "planted" jets are s*(u + q(v))^2 * (1 + e) + r(v), optionally with u
    and v swapped: their critical curve and residual r are known, and the
    lowest residual degree ranges over 3..order+1.
    """
    if kind == "planted":
        u, v = Jet2.variable("u", order), Jet2.variable("v", order)
        q = Jet2(order, {(0, j): rand_fraction(rng) for j in (1, 2, 3)})
        e = Jet2(order, {(i, d - i): rand_fraction(rng)
                         for d in (1, 2) for i in range(d + 1) if rng.random() < 0.4})
        low = rng.randint(3, order + 1)
        r = Jet2(order, {(0, j): rand_fraction(rng) for j in range(low, order + 1)})
        f = (u + q) * (u + q) * (Jet2.const(rand_fraction(rng, nonzero=True), order) + e) + r
        if rng.random() < 0.5:
            f = f.substitute(v, u)
    else:
        terms = {(i, d - i): rand_fraction(rng)
                 for d in range(3, order + 1) for i in range(d + 1) if rng.random() < 0.5}
        if kind == "morse":
            for key in ((2, 0), (1, 1), (0, 2)):
                terms[key] = rand_fraction(rng)
        elif kind == "rank1":
            # s*(a u + b v)^2; a = 0 puts the square on v alone
            a, b = rand_fraction(rng), rand_fraction(rng)
            s = rand_fraction(rng, nonzero=True)
            terms[(2, 0)], terms[(1, 1)], terms[(0, 2)] = s * a * a, 2 * s * a * b, s * b * b
        elif kind == "swap":
            terms[(0, 2)] = rand_fraction(rng, nonzero=True)
        f = Jet2(order, terms)
    if rng.random() < 0.5:
        f = f + Jet2.const(rand_fraction(rng, nonzero=True), order)
    return f


class TestSplittingKernelMatchesReference:
    def test_random_jets_orders_6_to_8(self):
        rng = random.Random(20241017)
        seen = Counter()
        for n in range(2000):
            order = rng.randint(6, 8)
            f = random_critical_jet(rng, order, KINDS[n % len(KINDS)])
            got, want = split_and_type(f, order), ref_split_and_type(f, order)
            assert (got.tag, got.k, got.corank, got.residual) == (
                want.tag, want.k, want.corank, want.residual
            ), f
            c20, c11, c02 = f.coeff(2, 0), f.coeff(1, 1), f.coeff(0, 2)
            if want.corank == 1:
                seen["swap" if c20 == 0 else "rank1-with-cross-term" if c11 else "diagonal"] += 1
            if f.constant_term():
                seen["constant"] += 1
            seen[(want.tag, want.corank, want.k if want.k is None or want.k < 4 else "4+")] += 1
        for case in ("swap", "rank1-with-cross-term", "diagonal", "constant",
                     ("A", 0, 1), ("A", 1, 2), ("A", 1, 3), ("A", 1, "4+"),
                     ("MoreDegenerate", 1, None), ("D4", 2, None),
                     ("MoreDegenerate", 2, None)):
            assert seen[case] >= 20, (case, seen)

    def test_requested_order_above_jet_order(self):
        rng = random.Random(3)
        for n in range(50):
            f = random_critical_jet(rng, 6, "planted")
            got, want = split_and_type(f, 8), ref_split_and_type(f, 8)
            assert (got.tag, got.k, got.residual) == (want.tag, want.k, want.residual)


class TestSparseRankMatchesDense:
    def test_planted_dependencies_and_zero_rows(self):
        rng = random.Random(99)
        for _ in range(300):
            ncols = rng.randint(1, 12)
            base = [[rand_fraction(rng) if rng.random() < 0.5 else Fraction(0)
                     for _ in range(ncols)] for _ in range(rng.randint(0, ncols))]
            rows = list(base)
            for _ in range(rng.randint(0, 4)):
                if base:
                    coeffs = [rand_fraction(rng) for _ in base]
                    rows.append([sum((c * r[i] for c, r in zip(coeffs, base)), Fraction(0))
                                 for i in range(ncols)])
                rows.append([Fraction(0)] * ncols)
            rng.shuffle(rows)
            want = ref_rank_of_rows(rows)
            assert rank_of_rows(rows) == want
            assert rank_of_rows([{i: x for i, x in enumerate(r) if x} for r in rows]) == want
            assert want <= len(base)

    def test_empty(self):
        assert rank_of_rows([]) == 0
        assert rank_of_rows([[Fraction(0), Fraction(0)]]) == 0


# ---------------------------------------------------------------------------
# (tag, k) is invariant under nonlinear source diffeomorphisms
# ---------------------------------------------------------------------------

ORDER = 6
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
nonzero_fractions = small_fractions.filter(bool)


def _poly(draw, degrees):
    return Jet2(ORDER, {(i, d - i): draw(small_fractions)
                        for d in degrees for i in range(d + 1)})


@st.composite
def model_jets(draw):
    """(jet, expected (tag, k)): normal forms plus terms above determinacy."""
    kind = draw(st.sampled_from(["A", "A", "A", "D4", "MoreDegenerate1", "MoreDegenerate2"]))
    s1, s2 = draw(nonzero_fractions), draw(nonzero_fractions)
    if kind == "A":
        k = draw(st.integers(1, ORDER - 1))
        base = Jet2(ORDER, {(2, 0): s1, (0, k + 1): s2})
        return base + _poly(draw, range(k + 2, ORDER + 1)), ("A", k)
    if kind == "D4":
        base = Jet2(ORDER, {(2, 1): s1, (0, 3): s2})
        return base + _poly(draw, range(4, ORDER + 1)), ("D4", None)
    if kind == "MoreDegenerate1":
        return Jet2(ORDER, {(2, 0): s1}), ("MoreDegenerate", None)
    return Jet2(ORDER, {(3, 0): s1}), ("MoreDegenerate", None)


@st.composite
def source_diffeos(draw):
    """(a u + b v + q1, c u + d v + q2) with ad - bc != 0, q_i quadratic."""
    a, b, c, d = (draw(small_fractions) for _ in range(4))
    if a * d - b * c == 0:
        a, b, c, d = draw(nonzero_fractions), Fraction(0), Fraction(0), draw(nonzero_fractions)
    u, v = Jet2.variable("u", ORDER), Jet2.variable("v", ORDER)
    q1, q2 = _poly(draw, (2,)), _poly(draw, (2,))
    return u * a + v * b + q1, u * c + v * d + q2


class TestNonlinearInvariance:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(model=model_jets(), diffeo=source_diffeos(), shift=small_fractions)
    def test_tag_and_k_invariant(self, model, diffeo, shift):
        f, expected = model
        g = f.substitute(*diffeo) + Jet2.const(shift, ORDER)
        t = split_and_type(g, ORDER)
        assert (t.tag, t.k) == expected
