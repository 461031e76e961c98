import copy
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germforge.cli import FOCAL_KINDS, focal_probes
from germforge.errors import UsageError
from germforge.jets import EXACT, FLOAT, Jet2, cleared
from germforge import distance, oracle
from germforge.oracle import (
    K_EQUIV,
    R_PLUS,
    RATIONALIZE_DENOMINATOR,
    SingularityType,
    rank_of_rows,
    restriction,
    split_and_type,
    versality_rank_oracle,
)

from conftest import (
    analysis_forms,
    make_nf,
    rand_fraction,
    ref_critical_curve_restriction,
    ref_distance_jet,
    sum_distance_jet,
)


def jet(order, terms):
    return Jet2(order, terms, EXACT)


def curve_restriction(f, solve_for="u"):
    """Dense coefficients of f restricted to its critical curve, by the
    kernel ``oracle.restriction``: an exact f is cleared to integers over D
    and the kernel's g divided by D q^top, a float f gives floats."""
    if f.mode != EXACT:
        return [c or 0.0 for c in restriction(f.coeffs, f.order, solve_for)[0]]
    coeffs, den = cleared(f.coeffs)
    g, scale = restriction(coeffs, f.order, solve_for)
    return [Fraction(c, den * scale) for c in g]


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

    def test_order_below_the_hessian_rejected(self):
        # truncating below degree 2 would drop u^2 and report a corank of 2
        f = jet(6, {(2, 0): 1, (0, 3): 1})
        for order in (0, 1, -1, 2.5, None):
            with pytest.raises(UsageError):
                split_and_type(f, order)
        with pytest.raises(UsageError):
            split_and_type(jet(1, {}), 6)
        assert split_and_type(f, 2).label == "MoreDegenerate"  # v^3 is above order 2
        assert split_and_type(f, 3).label == "A2"

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
        assert curve_restriction(f) == [0, 0, 0, 0, 0, 1, 0, -2]
        # the same function with u and v exchanged, solved for v
        g = curve_restriction(f.substitute(v, u), "v")
        assert g == [0, 0, 0, 0, 0, 1, 0, -2]
        assert all(isinstance(c, Fraction) for c in g)

    def test_float_jet_gives_floats(self):
        f = Jet2(6, {(2, 0): 0.5, (1, 2): 1.0, (0, 4): 2.0}, FLOAT)
        # u = -v^2 on the curve: g = v^4/2 - v^4 + 2 v^4
        g = curve_restriction(f)
        assert g == [0.0, 0.0, 0.0, 0.0, 1.5, 0.0, 0.0]
        assert all(isinstance(c, float) for c in g)


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

    def test_rank_order_validated(self):
        f = jet(6, {(2, 0): 1, (0, 3): 1})
        fam = [jet(6, {(1, 0): -1}), jet(6, {(0, 1): -1}), jet(6, {(0, 2): -1})]
        for order in (-1, 2.5, True, None):
            for flavor in (R_PLUS, K_EQUIV):
                with pytest.raises(UsageError, match="rank order"):
                    versality_rank_oracle(fam, f, flavor, order)

    def test_family_jet_below_rank_order_rejected(self):
        # its missing terms would count as zeros
        f = jet(6, {(2, 0): 1, (0, 3): 1})
        fam = [jet(6, {(1, 0): -1}), jet(2, {(0, 1): -1}), jet(6, {(0, 2): -1})]
        with pytest.raises(UsageError, match="family jet order 2 below"):
            versality_rank_oracle(fam, f, R_PLUS, 3)
        assert versality_rank_oracle(fam, f, R_PLUS, 2) == versality_rank_oracle(
            [j.truncate(2) for j in fam], f, R_PLUS, 2)

    def test_float_inputs_rationalized(self):
        f = Jet2(6, {(2, 0): 0.5, (0, 2): 0.5}, "float")
        fam = [
            Jet2(6, {(1, 0): -1.0}, "float"),
            Jet2(6, {(0, 1): -1.0}, "float"),
            Jet2(6, {(0, 0): 1.0}, "float"),
        ]
        assert versality_rank_oracle(fam, f, R_PLUS, 2)

    def test_one_rationalizer_gives_ints_and_their_denominator(self):
        coeffs = {(2, 0): 0.5, (0, 2): 1 / 3, (1, 2): -2.0, (3, 0): 1e-9}
        ints, den = oracle.rationalized(coeffs)
        assert all(type(n) is int for n in ints.values())
        want = exact_jet(Jet2(3, coeffs, FLOAT)).coeffs
        assert {k: Fraction(n, den) for k, n in ints.items()} == want
        assert den == 6 and (3, 0) not in ints


# ---------------------------------------------------------------------------
# Reference implementations: the shift-loop splitting and the dense
# elimination that the kernels in germforge.oracle replaced.
# ---------------------------------------------------------------------------


def ref_split_and_type(f, order=6):
    """(type, residual): splitting by a u -> u + alpha*v shift and ascending
    u*v^j shifts; the residual jet in v is None off corank 1."""
    if f.order < order:
        order = f.order
    f = f.truncate(order)
    c20, c11, c02 = f.coeff(2, 0), f.coeff(1, 1), f.coeff(0, 2)
    if 4 * c20 * c02 - c11 * c11 != 0:
        return SingularityType("A", 1, corank=0), None
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
        return SingularityType("D4" if disc != 0 else "MoreDegenerate", corank=2), None
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
            shift = Jet2(order, {(0, j): -cj / (2 * c20)}, EXACT)
            f = f.substitute(u + shift, v)
    residual = Jet2(
        order,
        {(i, j): c for (i, j), c in f.coeffs.items() if i == 0 and j >= 3},
        EXACT,
    )
    if residual.is_zero():
        return SingularityType("MoreDegenerate", corank=1), residual
    m = min(j for (_, j) in residual.coeffs)
    return SingularityType("A", m - 1, corank=1), residual


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


def split_residual(f, order):
    """The residual of ``split_and_type``'s corank-1 split of f at ``order``
    by the curve kernel: f's terms up to the order (a float f rationalized)
    over D, the kernel's g divided by D q^top from degree 3 on; None off
    corank 1."""
    order = min(order, f.order)
    f = exact_jet(f).truncate(order)
    c20, c11, c02 = f.coeff(2, 0), f.coeff(1, 1), f.coeff(0, 2)
    if 4 * c20 * c02 != c11 * c11 or not (c20 or c02):
        return None  # corank 0 or 2: no critical curve
    g = curve_restriction(f, "u" if c20 else "v")
    return Jet2(order, {(0, j): g[j] for j in range(3, order + 1) if g[j]})


class TestSplittingKernelMatchesReference:
    def test_random_jets_orders_6_to_8(self):
        rng = random.Random(20241017)
        seen = Counter()
        for n in range(2000):
            order = rng.randint(6, 8)
            f = random_critical_jet(rng, order, KINDS[n % len(KINDS)])
            got = split_and_type(f, order)
            want, residual = ref_split_and_type(f, order)
            assert got == want and split_residual(f, order) == residual, f
            if n % 4 == 0:
                # a float jet is typed as its rationalization
                g = f.to_float()
                got, (want, residual) = split_and_type(g, order), ref_split_and_type(
                    exact_jet(g), order)
                assert got == want and split_residual(g, order) == residual, g
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
            got, (want, residual) = split_and_type(f, 8), ref_split_and_type(f, 8)
            assert got == want and split_residual(f, 8) == residual


def _random_value(rng, kind):
    if kind == "int":
        return rng.randint(-9, 9)
    if kind == "large":
        return Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
    return rand_fraction(rng)


class TestSparseRankMatchesDense:
    def test_planted_dependencies_and_zero_rows(self):
        # Fraction, int, large-denominator and mixed entries; dense rows and
        # sparse rows with and without stored zeros
        rng = random.Random(99)
        seen = Counter()
        for n in range(600):
            kind = ("small", "int", "large", "mixed")[n % 4]
            ncols = rng.randint(1, 12)

            def value():
                k = rng.choice(("int", "large", "small")) if kind == "mixed" else kind
                return _random_value(rng, k) if rng.random() < 0.5 else 0

            base = [[value() for _ in range(ncols)] for _ in range(rng.randint(0, ncols))]
            rows = list(base)
            for _ in range(rng.randint(0, 4)):
                if base:  # a planted dependency: a combination of earlier rows
                    coeffs = [_random_value(rng, "small" if kind == "mixed" else kind)
                              for _ in base]
                    rows.append([sum(c * r[i] for c, r in zip(coeffs, base)) for i in range(ncols)])
                rows.append([0] * ncols)
            rng.shuffle(rows)
            want = ref_rank_of_rows([[Fraction(x) for x in r] for r in rows])
            assert rank_of_rows(rows) == want
            assert rank_of_rows([{i: x for i, x in enumerate(r) if x} for r in rows]) == want
            assert rank_of_rows([dict(enumerate(r)) for r in rows]) == want
            assert want <= len(base)
            seen["deficient" if want < len(rows) else "full"] += 1
        assert seen["deficient"] >= 100 and seen["full"] >= 50, seen

    def test_float_entries_enter_exactly(self):
        rng = random.Random(4152)
        for _ in range(200):
            ncols = rng.randint(1, 6)
            rows = [[rng.choice((0.0, 1.0, -0.5, 0.1, 1e-12, 3.0e15, rng.uniform(-2, 2)))
                     for _ in range(ncols)] for _ in range(rng.randint(1, 7))]
            want = ref_rank_of_rows([[Fraction(x) for x in r] for r in rows])
            assert rank_of_rows(rows) == want
        # 0.1 + 0.2 != 0.3 in binary, so these rows are independent
        assert rank_of_rows([[0.1, 0.2], [0.3, 0.6000000000000001]]) == 2
        assert rank_of_rows([[0.1, 0.2], [0.2, 0.4]]) == 1

    def test_input_rows_left_unchanged(self):
        rows = [{0: Fraction(1, 2), 2: Fraction(3)}, {0: Fraction(1, 3), 1: 2}]
        copies = [dict(r) for r in rows]
        assert rank_of_rows(rows) == 2
        assert rows == copies

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


def exact_jet(jet):
    """The jet in exact mode, each float coefficient rationalized with
    denominator at most RATIONALIZE_DENOMINATOR (the test-local reference
    of the oracles' rationalization)."""
    if jet.mode == EXACT:
        return jet
    return Jet2(jet.order, {k: Fraction(c).limit_denominator(RATIONALIZE_DENOMINATOR)
                            for k, c in jet.coeffs.items()})


# ---------------------------------------------------------------------------
# The integer kernels against their Fraction references
# ---------------------------------------------------------------------------


def ref_versality_rank_oracle(family_jets, function_jet, flavor, order):
    """Every shifted row of the whole function jet's partials, in Fractions,
    eliminated densely."""
    f = exact_jet(function_jet)
    basis = [(i, d - i) for d in range(order + 1) for i in range(d, -1, -1)]
    index = {m: n for n, m in enumerate(basis)}

    def row(coeffs, si=0, sj=0):
        out = [Fraction(0)] * len(basis)
        for (i, j), c in coeffs.items():
            if i + j + si + sj <= order:
                out[index[(i + si, j + sj)]] = c
        return out

    gens = [f.partial("u").coeffs, f.partial("v").coeffs]
    if flavor == K_EQUIV:
        gens.append({k: c for k, c in f.coeffs.items() if k != (0, 0)})
    rows = [row(gen, *m) for gen in gens for m in basis]
    rows += [row(exact_jet(jet).coeffs) for jet in family_jets]
    if flavor == R_PLUS:
        rows.append(row({(0, 0): Fraction(1)}))
    return ref_rank_of_rows(rows) == len(basis)


class TestCriticalCurveMatchesReference:
    @staticmethod
    def _jet(rng, order, solve_for, mode, zero_curve=False):
        """A random jet with a critical point at 0 and a nonzero square of the
        solved variable; with zero_curve, no s*t^j term (phi = 0)."""
        if mode == FLOAT:
            def value():
                return rng.uniform(-3, 3) * 10.0 ** rng.randint(-4, 4)
        else:
            def value():
                return _random_value(rng, rng.choice(("small", "small", "large", "int")))
        terms = {}
        for d in range(2, order + 1):
            for i in range(d + 1):
                if zero_curve and (i if solve_for == "u" else d - i) == 1:
                    continue
                if rng.random() < 0.5:
                    terms[(i, d - i)] = value()
        square = (2, 0) if solve_for == "u" else (0, 2)
        terms[square] = rng.choice((-1, 1)) * (rng.uniform(0.5, 3) if mode == FLOAT
                                               else rand_fraction(rng, nonzero=True))
        if rng.random() < 0.5:
            terms[(0, 0)] = value()
        return Jet2(order, terms, mode)

    def test_exact_orders_3_to_10(self):
        rng = random.Random(4153)
        for n in range(400):
            order, solve_for = 3 + n % 8, ("u", "v")[n // 8 % 2]
            f = self._jet(rng, order, solve_for, EXACT, zero_curve=n % 5 == 0)
            got = curve_restriction(f, solve_for)
            assert got == ref_critical_curve_restriction(f, solve_for), f
            assert len(got) == order + 1 and all(type(c) is Fraction for c in got)
            if n % 5 == 0:  # phi = 0: g is f on the other axis
                axis = [f.coeff(0, j) if solve_for == "u" else f.coeff(j, 0)
                        for j in range(order + 1)]
                assert got == axis

    def test_float_bits_unchanged(self):
        rng = random.Random(4154)
        for n in range(400):
            order, solve_for = 3 + n % 8, ("u", "v")[n // 8 % 2]
            f = self._jet(rng, order, solve_for, FLOAT, zero_curve=n % 5 == 0)
            got = curve_restriction(f, solve_for)
            want = ref_critical_curve_restriction(f, solve_for)
            assert all(type(c) is float for c in got)
            assert [c.hex() for c in got] == [c.hex() for c in want], f

    def test_distance_jets(self):
        # case 4a's residual, read off the distance numerators, against the
        # reference restriction of the distance jet
        rng = random.Random(4155)
        for n in range(60):
            a = {(i, j): rand_fraction(rng) for i in range(6) for j in range(6)
                 if 2 <= i + j <= 5 and (i, j) not in ((1, 1), (0, 2))}
            nf = make_nf(8, EXACT if n % 2 else FLOAT, a, {2: rand_fraction(rng),
                                                           3: rand_fraction(rng)})
            p = distance.ProbePoint(0, rand_fraction(rng, nonzero=True), rand_fraction(rng))
            for order in (6, 8):
                got = distance._split_residual_u(nf, p.as_mode(nf.mode), order)
                want = ref_critical_curve_restriction(distance.distance_jet(nf, p, order), "v")
                assert sorted(got) == list(range(3, order + 1))
                assert [repr(got[i]) for i in got] == [repr(c) for c in want[3:]]


class TestVersalityMatchesReference:
    def test_random_families_both_flavors(self):
        rng = random.Random(4156)
        seen = Counter()
        for n in range(240):
            f = random_critical_jet(rng, 8, KINDS[n % len(KINDS)])
            order = rng.randint(1, 5)
            fam = []
            for _ in range(rng.randint(0, 4)):
                terms = {(i, d - i): rand_fraction(rng) for d in range(order + 1)
                         for i in range(d + 1) if rng.random() < 0.4}
                fam.append(Jet2(rng.randint(order, 8), terms))
            for flavor in (R_PLUS, K_EQUIV):
                got = versality_rank_oracle(fam, f, flavor, order)
                assert got == ref_versality_rank_oracle(fam, f, flavor, order), (f, fam, order)
                seen[(flavor, got)] += 1
        for case in ((R_PLUS, True), (R_PLUS, False), (K_EQUIV, True), (K_EQUIV, False)):
            assert seen[case] >= 20, seen

    def test_distance_families(self):
        # the rank test's own integer jets and families at the probe order,
        # exact and float, against the dense rows built from them as jets:
        # both flavours of a probe, asked in turn, make at most one kernel
        # call, for the flavours its type leaves open
        rng = random.Random(4157)
        calls = []
        real = oracle.integer_versality

        def recording(f, family, flavors, order):
            calls.append((f, family, flavors, order))
            return real(f, family, flavors, order)

        seen = Counter()
        for n in range(80):
            a = {(i, j): rand_fraction(rng) for i in range(6) for j in range(6)
                 if 2 <= i + j <= 5 and (i, j) not in ((1, 1), (0, 2))}
            b = {2: rand_fraction(rng), 3: rand_fraction(rng)}
            if n % 2:
                a[(0, 3)] = 0  # on the principal normal: A3 and beyond
            nf = make_nf(8, FLOAT if n % 4 == 3 else EXACT, a, b)
            a20 = Fraction(a.get((2, 0), 0))
            y0 = Fraction(0) if n % 2 else rand_fraction(rng, nonzero=True)
            z0 = (1 - Fraction(b[2]) * y0) / a20 if a20 and n % 3 else rand_fraction(rng)
            p = distance.ProbePoint(0, y0, z0)
            calls.clear()
            with pytest.MonkeyPatch.context() as m:
                m.setattr(oracle, "integer_versality", recording)
                got = {flavor: distance.versality_rank_test(nf, p, flavor)
                       for flavor in (R_PLUS, K_EQUIV)}
            top = distance._probe_order(nf)
            assert len(calls) <= 1
            asked = ()
            for f, family, asked, order in calls:
                assert asked in ((R_PLUS, K_EQUIV), (R_PLUS,))
                assert len(family) == 3
                assert all(type(c) is int for jet in [f, *family] for c in jet.values())
                assert all(i + j <= top for jet in [f, *family] for i, j in jet)
                jets = [Jet2(top, {k: Fraction(c) for k, c in jet.items()})
                        for jet in family]
                f_jet = Jet2(top, {k: Fraction(c) for k, c in f.items()})
                for fl in asked:
                    assert ref_versality_rank_oracle(jets, f_jet, fl, order) == got[fl]
                    seen[(fl, got[fl])] += 1
            # a flavour the kernel was not asked is decided by the type: not versal
            assert not any(got[fl] for fl in (R_PLUS, K_EQUIV) if fl not in asked)
        assert len(seen) == 4, seen


def _fraction_constructions(monkeypatch, fn, *args):
    """(fn(*args), the number of Fractions built while it ran)."""
    count = [0]
    new = Fraction.__new__

    def counting_new(cls, *a, **kw):
        count[0] += 1
        return new(cls, *a, **kw)

    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", staticmethod(counting_new))
        result = fn(*args)
    return result, count[0]


class TestIntegerKernels:
    ROWS = [[Fraction(1, 2), Fraction(2, 3), 0, Fraction(5, 7)],
            [Fraction(3, 4), Fraction(1), Fraction(-1, 9), 0],
            [Fraction(5, 4), Fraction(5, 3), Fraction(-1, 9), Fraction(5, 7)],
            [0, Fraction(7, 11), Fraction(2, 13), Fraction(1, 17)]]

    def test_rank_elimination_builds_no_fraction(self, monkeypatch):
        rank, built = _fraction_constructions(monkeypatch, rank_of_rows, self.ROWS)
        assert (rank, built) == (3, 0)

    def test_guard_sees_fraction_elimination(self, monkeypatch):
        rank, built = _fraction_constructions(monkeypatch, ref_rank_of_rows, self.ROWS)
        assert rank == 3 and built > 0

    def test_int_rows_skip_clearing(self, monkeypatch):
        rows = [[2, 4, 0, 6], {0: 3, 1: 6, 3: 9}, {1: 1, 2: -5}]
        cleared = []
        real = oracle.cleared
        monkeypatch.setattr(oracle, "cleared", lambda coeffs: cleared.append(1) or real(coeffs))
        assert rank_of_rows(rows) == 2 and not cleared
        assert rank_of_rows(rows + [{0: Fraction(1, 2), 2: 3}]) == 3 and len(cleared) == 1

    def test_distance_jet_builds_one_fraction_per_coefficient(self, monkeypatch):
        rng = random.Random(59)
        for idx in range(40):
            a = {(i, d - i): rand_fraction(rng) for d in range(3, 9) for i in range(d + 1)}
            a[(2, 0)] = rand_fraction(rng)
            nf = make_nf(8, EXACT, a, {i: rand_fraction(rng) for i in range(2, 9)})
            x0 = rand_fraction(rng) if idx % 2 else Fraction(0)
            p = distance.ProbePoint(x0, rand_fraction(rng, 9, 7), rand_fraction(rng, 9, 11))
            for order in (3, 6, 8):
                nf.distance_base(order)
                got, built = _fraction_constructions(monkeypatch, distance.distance_jet,
                                                     nf, p, order)
                assert built <= len(got.coeffs), (idx, order, built)
                assert got == ref_distance_jet(nf, p, order)
        # the guard sees the Fractions of a chain of jet sums
        _, ref_built = _fraction_constructions(monkeypatch, sum_distance_jet, nf, p, 8)
        assert ref_built > len(got.coeffs)

    def test_curve_builds_only_its_result(self, monkeypatch):
        # case 4a builds one Fraction per residual coefficient
        rng = random.Random(5)
        a = {(i, d - i): rand_fraction(rng) for d in range(3, 9) for i in range(d + 1)}
        nf = make_nf(8, EXACT, a, {i: rand_fraction(rng) for i in range(2, 9)})
        p = distance.ProbePoint(Fraction(0), rand_fraction(rng, 9, 7), rand_fraction(rng, 9, 11))
        nf.distance_base(8)
        got, built = _fraction_constructions(monkeypatch, distance._split_residual_u, nf, p, 8)
        want = ref_critical_curve_restriction(distance.distance_jet(nf, p, 8), "v")
        assert list(got.values()) == want[3:] and built == len(got)
        _, ref_built = _fraction_constructions(
            monkeypatch, lambda: ref_critical_curve_restriction(
                ref_distance_jet(nf, p, 8), "v"))
        assert ref_built > built


# ---------------------------------------------------------------------------
# The rank test on the distance base's integers against the jet route
# ---------------------------------------------------------------------------


def jet_route_answers(nf, p, split=None, versality=None):
    """(split type, {flavor: answer}) of the rank test with the distance jet
    and the family built as chains of jet sums, typed by ``split``
    (split_and_type) and handed to ``versality`` (versality_rank_oracle) as
    jets: the answers of the rank test before it read the distance base's
    integers."""
    split = split or split_and_type
    versality = versality or oracle.versality_rank_oracle
    p = p.as_mode(nf.mode)
    if not distance._zero_test(nf, p)(p.x0):
        return "Regular", {R_PLUS: True, K_EQUIV: True}
    probe_order = distance._probe_order(nf)
    d = sum_distance_jet(nf, p, probe_order)
    typ = split(d, probe_order)
    if typ.tag == "A":
        orders = {R_PLUS: None if typ.k >= 5 else typ.k + 1,
                  K_EQUIV: None if typ.k >= 4 else typ.k + 1}
    elif typ.tag == "D4":
        orders = {R_PLUS: 3, K_EQUIV: None}
    else:
        orders = {R_PLUS: None, K_EQUIV: None}
    answers = {}
    for flavor, order in orders.items():
        if order is None:
            answers[flavor] = False
            continue
        comps = (Jet2.variable("u", order, nf.mode), nf.second_component(order),
                 nf.third_component(order))
        family = [Jet2.const(x, order, nf.mode) - comp
                  for x, comp in zip((p.x0, p.y0, p.z0), comps)]
        answers[flavor] = versality(family, d, flavor, order)
    return typ.label, answers


def dense_route_answers(nf, p):
    """The jet route on the test-local references: the shift-loop splitting
    of the rationalized jet and the dense Fraction elimination."""
    def split(d, order):
        return ref_split_and_type(exact_jet(d), order)[0]

    return jet_route_answers(nf, p, split, ref_versality_rank_oracle)


class TestRankOnIntegerRows:
    def test_mixed_rows_match_the_reference(self):
        rng = random.Random(61)
        for _ in range(300):
            ncols = rng.randint(2, 8)

            def entry():
                return rng.choice((0, 0, rng.randint(-9, 9)))

            ints = [entry() for _ in range(ncols)]
            rows = [
                {c: x for c, x in enumerate(ints) if x},
                {c: rand_fraction(rng, 9, 7) if c == 0 else entry() for c in range(ncols)},
                [float(entry()) / 4 for _ in range(ncols)],
                [entry() for _ in range(ncols)],
                [2 * x for x in ints],
            ]
            rng.shuffle(rows)
            dense = [[Fraction(r.get(c, 0) if isinstance(r, dict) else r[c])
                      for c in range(ncols)] for r in rows]
            assert rank_of_rows(rows) == ref_rank_of_rows(dense), rows

    def test_one_integer_pass_per_rank_test(self, monkeypatch):
        # both rank tests of a probe, asked in turn, split once and make at
        # most one shared elimination, on the integer kernels, and reach
        # neither the jet-level entry points nor the distance jet
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        def counting_eliminations(rows, columns=None, pivots=None):
            calls["_eliminate", bool(pivots)] += 1
            return real_eliminate(rows, columns, pivots)

        real_eliminate = oracle._eliminate
        for name in ("integer_split", "integer_versality", "rank_of_rows",
                     "versality_rank_oracle", "split_and_type"):
            monkeypatch.setattr(oracle, name, counting(name, getattr(oracle, name)))
        monkeypatch.setattr(oracle, "_eliminate", counting_eliminations)
        monkeypatch.setattr(distance, "distance_jet",
                            counting("distance_jet", distance.distance_jet))
        singular = 0
        # fresh forms: a probe slot left by an earlier test would hide a pass
        for nf, points in analysis_forms.__wrapped__((1,)):
            assert nf.mode == EXACT
            for point in points:
                p = distance.ProbePoint(*point)
                singular += p.x0 == 0
                for flavor in (R_PLUS, K_EQUIV):
                    distance.versality_rank_test(nf, p, flavor)
        assert calls["integer_split"] == singular > 0
        # one kernel call at most per probe, and one elimination from no
        # pivots per kernel call; each continuation extends its pivots
        assert 0 < calls["integer_versality"] <= singular
        assert calls["_eliminate", False] == calls["integer_versality"]
        assert 0 < calls["_eliminate", True] <= 2 * calls["integer_versality"]
        for name in ("rank_of_rows", "versality_rank_oracle", "split_and_type", "distance_jet"):
            assert calls[name] == 0, name

    def test_answers_on_the_analysis_corpus(self):
        answers = Counter()
        for nf, points in analysis_forms():
            for point in points:
                p = distance.ProbePoint(*point)
                _, want = jet_route_answers(nf, p)
                for flavor in (R_PLUS, K_EQUIV):
                    got = distance.versality_rank_test(nf, p, flavor)
                    assert got == want[flavor], (point, flavor)
                    answers[(flavor, got)] += 1
        assert len(answers) == 4 and min(answers.values()) > 0, answers

    def test_answers_on_focal_probes(self):
        rng = random.Random(67)
        types, answers = Counter(), Counter()
        for _ in range(400):
            for kind, nf, p in focal_probes(rng):
                label, want = jet_route_answers(nf, p)
                types[(kind, label)] += 1
                for flavor in (R_PLUS, K_EQUIV):
                    got = distance.versality_rank_test(nf, p, flavor)
                    assert got == want[flavor], (kind, p, flavor)
                    answers[(flavor, got)] += 1
        assert sum(types.values()) == 2000
        for kind, typ in (("focal", "A2"), ("principal", "A2"), ("umbilic", "D4"),
                          ("cubic", "A3"), ("quartic", "A4")):
            assert types[(kind, typ)] > 0, types
        assert len(answers) == 4 and min(answers.values()) > 0, answers


# ---------------------------------------------------------------------------
# One integer pass per rank test: the rows it eliminates, on exact and float
# forms, against dense Fraction elimination, the jet route and closed forms
# ---------------------------------------------------------------------------


def dense_rank(rows, columns):
    """Rank of sparse integer rows by the dense Fraction elimination."""
    return ref_rank_of_rows([[Fraction(r.get(c, 0)) for c in range(columns)] for r in rows])


def with_rows(fn, *args):
    """(fn(*args), [(rows, columns)]): copies of every row set fn handed to
    the elimination, read to the end.  An elimination that continues from
    the pivots of the one before it (the rows both flavours share) is
    recorded with those shared rows in front of its own."""
    seen = []
    shared = []
    real = oracle._eliminate

    def capturing(rows, columns=None, pivots=None):
        rows = list(rows)
        copies = [dict(r) for r in rows]
        if not pivots:
            rank = real(iter(rows), columns, pivots)
            shared[:] = copies, rank
            seen.append((copies, columns))
            return rank
        assert shared and len(pivots) == shared[1] < columns
        seen.append((shared[0] + copies, columns))
        return real(iter(rows), columns, pivots)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(oracle, "_eliminate", capturing)
        return fn(*args), seen


def both_rank_tests(nf, p):
    """{flavor: versality_rank_test(nf, p, flavor)}, R+ asked first."""
    return {flavor: distance.versality_rank_test(nf, p, flavor) for flavor in (R_PLUS, K_EQUIV)}


class TestIntegerPass:
    # (kind, split label, R+, K) on the float forms of the first ten
    # focal_probes(random.Random(79)), as the route that rationalized the
    # float distance jet and family jets answered them
    FLOAT_PINS = [
        ("focal", "A2", True, True), ("principal", "A2", False, False),
        ("umbilic", "D4", False, False), ("cubic", "A3", True, True),
        ("quartic", "A4", True, False), ("focal", "A2", True, True),
        ("principal", "A3", False, False), ("umbilic", "MoreDegenerate", False, False),
        ("cubic", "A3", True, True), ("quartic", "A4", True, False),
    ]

    def test_focal_probes_against_dense_rows_and_closed_forms(self):
        rng = random.Random(73)
        seen, checked = Counter(), Counter()
        for n in range(40):
            for kind, nf, p in focal_probes(rng):
                form = nf.to_float() if n % 2 else nf
                verdict = distance.classify_distance(form, p)
                closed = {R_PLUS: verdict.r_plus_versal, K_EQUIV: verdict.k_versal}
                label, want = dense_route_answers(form, p)
                got, calls = with_rows(both_rank_tests, form, p)
                # the flavours the type leaves to a rank: each is decided by
                # the shared rows alone, at full rank, or by the shared rows
                # and its own (the R+ constant row, the K module rows of f),
                # one elimination for the shared rows and one per flavour
                asked = {"A1": (R_PLUS, K_EQUIV), "A2": (R_PLUS, K_EQUIV),
                         "A3": (R_PLUS, K_EQUIV), "A4": (R_PLUS,), "D4": (R_PLUS,)}.get(label, ())
                if len(calls) > 1:
                    assert len(calls) == 1 + len(asked), (kind, label, len(calls))
                    assert dense_rank(*calls[0]) < calls[0][1]
                    deciding = dict(zip(asked, calls[1:]))
                else:
                    assert len(calls) == bool(asked), (kind, label, len(calls))
                    deciding = {flavor: calls[0] for flavor in asked}
                for flavor, (rows, columns) in deciding.items():
                    assert (dense_rank(rows, columns) == columns) == got[flavor], (kind, p, flavor)
                    checked[(kind, flavor)] += 1
                for flavor in (R_PLUS, K_EQUIV):
                    assert got[flavor] == want[flavor] == closed[flavor], (
                        kind, form.mode, p, flavor)
                    seen[(form.mode, flavor, got[flavor])] += 1
                seen[(kind, form.mode)] += 1
        for kind in FOCAL_KINDS:
            assert seen[(kind, EXACT)] and seen[(kind, FLOAT)], seen
        assert all(seen[(mode, flavor, answer)] for mode in (EXACT, FLOAT)
                   for flavor in (R_PLUS, K_EQUIV) for answer in (True, False)), seen
        # the umbilic's K test and the principal normal's tests stop before a rank
        assert all(checked[(kind, R_PLUS)] for kind in ("focal", "umbilic", "cubic")), checked

    def test_float_answers_pinned(self):
        rng = random.Random(79)
        got = []
        for _ in range(2):
            for kind, nf, p in focal_probes(rng):
                form = nf.to_float()
                order = distance._probe_order(form)
                label = split_and_type(distance.distance_jet(form, p, order), order).label
                got.append((kind, label, distance.versality_rank_test(form, p, R_PLUS),
                            distance.versality_rank_test(form, p, K_EQUIV)))
                assert got[-1][1:] == (label, *jet_route_answers(form, p)[1].values())
        assert got == self.FLOAT_PINS

    def test_exact_rank_test_builds_no_fraction(self, monkeypatch):
        rng = random.Random(83)
        for _ in range(10):
            for kind, nf, p in focal_probes(rng):
                p = p.as_mode(EXACT)
                nf.distance_base(distance._probe_order(nf))  # cached per form
                for flavor in (R_PLUS, K_EQUIV):
                    got, built = _fraction_constructions(
                        monkeypatch, distance.versality_rank_test, nf, p, flavor)
                    assert built == 0, (kind, flavor)
        # the guard sees the Fractions of the jet route
        _, built = _fraction_constructions(monkeypatch, jet_route_answers, nf, p)
        assert built > 0


# ---------------------------------------------------------------------------
# The probe slot: both flavours of a probe asked in turn share one pass
# ---------------------------------------------------------------------------


class TestProbeSlot:
    @staticmethod
    def probes(seed):
        """{kind: (fresh exact form, probe)} of one round of focal_probes."""
        return {kind: (nf, p) for kind, nf, p in focal_probes(random.Random(seed))}

    @staticmethod
    def asking(monkeypatch, questions):
        """([answer per (form, probe, flavor) question], passes made)."""
        passes = []
        real = distance._probe_pass

        def counting(nf, p):
            passes.append((nf, p))
            return real(nf, p)

        monkeypatch.setattr(distance, "_probe_pass", counting)
        answers = [distance.versality_rank_test(nf, p, flavor) for nf, p, flavor in questions]
        return answers, len(passes)

    def test_k_before_r_plus(self, monkeypatch):
        for kind in FOCAL_KINDS:
            nf, p = self.probes(11)[kind]
            got, passes = self.asking(monkeypatch, [(nf, p, K_EQUIV), (nf, p, R_PLUS)])
            _, want = jet_route_answers(nf, p)
            assert got == [want[K_EQUIV], want[R_PLUS]] and passes == 1, kind

    def test_same_probe_on_two_forms(self, monkeypatch):
        # an equal form is another object with a slot of its own
        nf, p = self.probes(12)["cubic"]
        twin = copy.copy(nf)
        assert twin == nf and twin is not nf
        got, passes = self.asking(monkeypatch, [(nf, p, R_PLUS), (twin, p, R_PLUS),
                                                (nf, p, K_EQUIV), (twin, p, K_EQUIV)])
        _, want = jet_route_answers(nf, p)
        assert got == [want[R_PLUS]] * 2 + [want[K_EQUIV]] * 2 and passes == 2

    def test_third_probe_in_between(self, monkeypatch):
        # the slot holds the last probe only: the first probe's K test,
        # asked after another probe, makes a pass of its own
        nf, p = self.probes(13)["focal"]
        _, q = self.probes(13)["umbilic"]
        got, passes = self.asking(monkeypatch, [(nf, p, R_PLUS), (nf, q, R_PLUS),
                                                (nf, q, K_EQUIV), (nf, p, K_EQUIV)])
        want_p, want_q = jet_route_answers(nf, p)[1], jet_route_answers(nf, q)[1]
        assert got == [want_p[R_PLUS], want_q[R_PLUS], want_q[K_EQUIV], want_p[K_EQUIV]]
        assert passes == 3

    def test_exact_and_float_probe_with_equal_values(self, monkeypatch):
        # the slot is keyed by the probe in the form's mode: a float probe
        # and an exact one of the same values are one probe to either form
        nf, _ = self.probes(14)["focal"]
        z0 = float((1 - nf.b_(2) / 2) / nf.a_(2, 0))  # near the second focal line
        floats = distance.ProbePoint(0.0, 0.5, z0)
        exact = distance.ProbePoint(0, Fraction(1, 2), Fraction(z0))
        for form in (nf, nf.to_float()):
            got, passes = self.asking(monkeypatch, [(form, floats, R_PLUS),
                                                    (form, exact, K_EQUIV)])
            _, want = jet_route_answers(form, exact)
            assert got == [want[R_PLUS], want[K_EQUIV]] and passes == 1, form.mode

    def test_regular_probe_leaves_the_slot(self, monkeypatch):
        nf, p = self.probes(15)["cubic"]
        regular = distance.ProbePoint(1, p.y0, p.z0)
        got, passes = self.asking(monkeypatch, [(nf, p, R_PLUS), (nf, regular, R_PLUS),
                                                (nf, regular, K_EQUIV), (nf, p, K_EQUIV)])
        _, want = jet_route_answers(nf, p)
        assert got == [want[R_PLUS], True, True, want[K_EQUIV]] and passes == 1
        assert nf._probe_slot[0][0] == p

    def test_form_identity_unchanged(self):
        # the slot is no field: equality, hash, repr, copy and pickle of a
        # form read the fields only, and a copy starts with an empty slot
        def identity(form):
            try:  # a form holds dicts: hashing it raises, with or without a slot
                hashed = hash(form)
            except TypeError as exc:
                hashed = str(exc)
            return hashed, repr(form), pickle.dumps(form)

        nf, p = self.probes(16)["focal"]
        fresh = self.probes(16)["focal"][0]
        before = identity(nf)
        for flavor in (R_PLUS, K_EQUIV):
            distance.versality_rank_test(nf, p, flavor)
        assert nf._probe_slot[0][0] == p
        assert nf == fresh and identity(nf) == before == identity(fresh)
        for twin in (copy.copy(nf), pickle.loads(pickle.dumps(nf))):
            assert twin == nf and identity(twin) == before
            assert "_probe_slot" not in vars(twin)


class TestFullRankStop:
    def test_deficient_rows_are_all_read(self):
        # rank 3 over 4 columns: no stop, every row is reduced
        rows = [{0: 2, 1: 1}, {1: 3, 3: 1}, {0: 2, 1: 4, 3: 1}, {2: 5}, {2: -10},
                {0: 4, 1: 2}, {1: 6, 3: 2}]
        read = []

        def reading():
            for r in rows:
                read.append(r)
                yield dict(r)

        assert oracle._eliminate(reading(), 4) == 3 == dense_rank(rows, 4)
        assert len(read) == len(rows)

    def test_full_rank_stops_reading(self):
        rows = [{2: 3}, {0: 1, 2: 7}, {1: 2, 2: 1}, {0: 5}, {1: 1}]
        read = []

        def reading():
            for r in rows:
                read.append(r)
                yield dict(r)

        assert oracle._eliminate(reading(), 3) == 3
        assert len(read) == 3
        assert oracle._eliminate((dict(r) for r in rows), None) == 3

    def test_deficient_unfolding_is_not_versal(self):
        # u^2 (1 + v) + v^5 (A4) is R+-versally unfolded by v, v^2, v^3 at
        # order 5; without v^3 the shared rows, then the constant row after
        # them, outnumber the 21 columns but span 20
        f = {(2, 0): 1, (2, 1): 1, (0, 5): 1}
        family = [{(0, 1): 1}, {(0, 2): 1}, {(0, 3): 1}]
        jets = [Jet2(5, {k: Fraction(c) for k, c in fam.items()}) for fam in family]
        f_jet = Jet2(6, {k: Fraction(c) for k, c in f.items()})
        assert oracle.integer_versality(f, family, R_PLUS, 5)
        assert ref_versality_rank_oracle(jets, f_jet, R_PLUS, 5)
        _, calls = with_rows(oracle.integer_versality, f, family[:2], R_PLUS, 5)
        (shared, _), (rows, columns) = calls
        assert rows[:len(shared)] == shared and rows[len(shared):] == [{0: 1}]
        assert len(rows) > columns == 21 and dense_rank(rows, columns) == 20
        assert not oracle.integer_versality(f, family[:2], R_PLUS, 5)
        assert not ref_versality_rank_oracle(jets[:2], f_jet, R_PLUS, 5)

