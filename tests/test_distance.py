import math
import random
from fractions import Fraction

from germforge import distance
from germforge.blowup import BlowupContext
from germforge.distance import (
    Branch,
    DistSing,
    FocalKind,
    ProbePoint,
    SingularPointType,
    classify_distance,
    distance_jet,
    focal_locus,
    geometric_verdict,
    singular_point_type,
    versality_rank_test,
)
from germforge.jets import FLOAT, Jet2
from germforge.oracle import K_EQUIV, R_PLUS, split_and_type

from conftest import make_nf, rand_fraction


def probe(x=0, y=0, z=0):
    return ProbePoint(Fraction(x), Fraction(y), Fraction(z))


class TestDistanceJet:
    def test_origin_probe_on_trivial_form(self):
        nf = make_nf(order=3)
        d = distance_jet(nf, probe(), 3)
        # d = u^2/2 + v^4/8 -> only u^2/2 survives at order 3
        assert d == distance_jet(nf, probe(), 3)
        assert d.coeff(2, 0) == Fraction(1, 2)
        assert d.coeff(0, 2) == 0
        assert d.coeff(0, 0) == 0

    def test_gradient_at_origin(self):
        nf = make_nf(order=4, a={(2, 1): 1, (0, 3): 2}, b={2: 1})
        d = distance_jet(nf, probe(x=3, y=-2, z=5), 4)
        assert d.coeff(1, 0) == -3
        assert d.coeff(0, 1) == 0

    def test_two_jet_display(self):
        nf = make_nf(order=4, a={(2, 0): 3, (2, 1): 1}, b={2: 2})
        y0, z0 = Fraction(5, 2), Fraction(-1, 3)
        d = distance_jet(nf, probe(0, y0, z0), 4)
        assert d.coeff(0, 0) == (y0 * y0 + z0 * z0) / 2
        assert d.coeff(2, 0) == -Fraction(1, 2) * (2 * y0 + 3 * z0 - 1)
        assert d.coeff(0, 2) == -Fraction(1, 2) * y0


class TestClassifyDistance:
    def test_regular_off_normal_plane(self):
        nf = make_nf(order=4, a={(2, 1): 1, (0, 3): 1})
        v = classify_distance(nf, probe(x=1))
        assert v.sing_type is DistSing.REGULAR

    def test_a1_generic(self):
        nf = make_nf(order=4, a={(2, 1): 1, (0, 3): 1}, b={2: 1})
        v = classify_distance(nf, probe(0, 2, 1))  # off both focal lines
        assert v.sing_type is DistSing.A1
        assert v.r_plus_versal and v.k_versal

    def test_2b_example(self):
        # b2 = 1, a20 = 1, a03 != 0, p = (0, 0, 2)
        nf = make_nf(order=4, a={(2, 0): 1, (0, 3): 1, (2, 1): 1}, b={2: 1})
        v = classify_distance(nf, probe(0, 0, 2))
        assert v.sing_type is DistSing.A2
        assert v.case == "2b"
        assert v.branch is Branch.PRINCIPAL_NORMAL
        assert not v.r_plus_versal and not v.k_versal

    def test_2a_on_focal_line(self):
        nf = make_nf(order=4, a={(2, 0): 1, (3, 0): 1, (2, 1): 1, (0, 3): 1}, b={2: 1})
        # b2 y + a20 z = 1 with y0 = 1/2, z0 = 1/2; cubic b3 y0 + a30 z0 = 1/2 != 0
        v = classify_distance(nf, probe(0, Fraction(1, 2), Fraction(1, 2)))
        assert v.sing_type is DistSing.A2
        assert v.case == "2a"
        assert v.r_plus_versal and v.k_versal

    def test_d4plus_at_focal_intersection(self):
        nf = make_nf(order=4, a={(2, 0): 1, (2, 1): 1, (0, 3): 1}, b={2: 1})
        v = classify_distance(nf, probe(0, 0, 1))  # a20 z0 = 1
        assert v.sing_type is DistSing.D4PLUS
        assert not v.r_plus_versal and not v.k_versal

    def test_3a_k_versality_witness(self):
        # arrange (3a) with a20 y0 - b2 z0 = 0 -> R+ versal but not K versal
        # b2 = a20 = 1: need y0 = z0 and y0 + z0 = 1 -> y0 = z0 = 1/2,
        # and kill the cubic: b3 y0 + a30 z0 = 0 via b3 = 1, a30 = -1.
        nf = make_nf(
            order=5,
            a={(2, 0): 1, (3, 0): -1, (2, 1): 1, (0, 3): 1, (4, 0): 2},
            b={2: 1, 3: 1, 4: 1},
        )
        p = probe(0, Fraction(1, 2), Fraction(1, 2))
        v = classify_distance(nf, p)
        assert v.sing_type is DistSing.A3
        assert v.case == "3a"
        assert v.r_plus_versal and not v.k_versal

    def test_oracle_agreement_random(self, rng):
        for _ in range(60):
            nf = make_nf(
                order=6,
                a={
                    (2, 0): rand_fraction(rng),
                    (2, 1): rand_fraction(rng),
                    (0, 3): rand_fraction(rng),
                    (3, 0): rand_fraction(rng),
                    (1, 2): rand_fraction(rng),
                    (0, 4): rand_fraction(rng),
                },
                b={2: rand_fraction(rng), 3: rand_fraction(rng)},
            )
            p = probe(0, rand_fraction(rng), rand_fraction(rng))
            v = classify_distance(nf, p)
            t = split_and_type(distance_jet(nf, p, 6), 6)
            assert _match(v.sing_type, t), (v.sing_type, t.label)


def _match(sing, typ):
    if sing is DistSing.A4PLUS:
        return (typ.tag == "A" and typ.k >= 4) or (
            typ.tag == "MoreDegenerate" and typ.corank == 1
        )
    if sing is DistSing.D4PLUS:
        return typ.tag == "D4" or (typ.tag == "MoreDegenerate" and typ.corank == 2)
    return typ.label == sing.value


class TestVersalityDual:
    def test_rank_test_matches_closed_forms(self, rng):
        checked = 0
        for _ in range(40):
            nf = make_nf(
                order=6,
                a={
                    (2, 0): rand_fraction(rng),
                    (2, 1): rand_fraction(rng),
                    (0, 3): rand_fraction(rng),
                    (3, 0): rand_fraction(rng),
                    (1, 2): rand_fraction(rng),
                },
                b={2: rand_fraction(rng), 3: rand_fraction(rng)},
            )
            p = probe(0, rand_fraction(rng), rand_fraction(rng))
            v = classify_distance(nf, p)
            assert versality_rank_test(nf, p, R_PLUS) == v.r_plus_versal
            assert versality_rank_test(nf, p, K_EQUIV) == v.k_versal
            checked += 1
        assert checked == 40

    def test_rank_test_on_crafted_branches(self):
        # (2a): versal both; (2b)/(5): versal neither
        nf = make_nf(order=6, a={(2, 0): 1, (3, 0): 1, (2, 1): 1, (0, 3): 1}, b={2: 1})
        p_2a = probe(0, Fraction(1, 2), Fraction(1, 2))
        assert versality_rank_test(nf, p_2a, R_PLUS)
        assert versality_rank_test(nf, p_2a, K_EQUIV)
        p_2b = probe(0, 0, 2)
        assert not versality_rank_test(nf, p_2b, R_PLUS)
        assert not versality_rank_test(nf, p_2b, K_EQUIV)
        p_d4 = probe(0, 0, 1)
        assert not versality_rank_test(nf, p_d4, R_PLUS)
        assert not versality_rank_test(nf, p_d4, K_EQUIV)


class TestFocalLocus:
    def test_intersecting_pair(self):
        nf = make_nf(order=4, a={(2, 0): 1, (2, 1): 1}, b={2: 1})
        locus = focal_locus(nf)
        assert locus.kind is FocalKind.INTERSECTING_PAIR
        assert locus.intersection == (0, 1)

    def test_parallel_pair(self):
        nf = make_nf(order=4, a={(2, 1): 1}, b={2: 1})
        locus = focal_locus(nf)
        assert locus.kind is FocalKind.PARALLEL_PAIR
        assert locus.intersection is None
        # second line is y = 1/b2 = 1
        line = locus.lines[1]
        assert (line.alpha, line.beta, line.gamma) == (1, 0, 1)

    def test_single_line(self):
        nf = make_nf(order=4, a={(2, 1): 1})
        locus = focal_locus(nf)
        assert locus.kind is FocalKind.SINGLE_LINE
        assert len(locus.lines) == 1

    def test_trichotomy_matches_singular_point_type(self, rng):
        pairs = {
            FocalKind.INTERSECTING_PAIR: SingularPointType.HYPERBOLIC,
            FocalKind.PARALLEL_PAIR: SingularPointType.INFLECTION,
            FocalKind.SINGLE_LINE: SingularPointType.DEGENERATE_INFLECTION,
        }
        for _ in range(50):
            nf = make_nf(
                order=4,
                a={(2, 0): rand_fraction(rng), (2, 1): 1},
                b={2: rand_fraction(rng)},
            )
            assert pairs[focal_locus(nf).kind] is singular_point_type(nf)


class TestSingularPointType:
    def test_hyperbolic(self):
        assert (
            singular_point_type(make_nf(order=3, a={(2, 0): 1}))
            is SingularPointType.HYPERBOLIC
        )

    def test_inflection(self):
        assert (
            singular_point_type(make_nf(order=3, b={2: 1}))
            is SingularPointType.INFLECTION
        )

    def test_degenerate_inflection(self):
        assert (
            singular_point_type(make_nf(order=3))
            is SingularPointType.DEGENERATE_INFLECTION
        )


class TestGeometricRoute:
    def _ctx(self):
        nf = make_nf(
            order=6,
            mode="float",
            a={(2, 0): 0.7, (2, 1): 1.4, (0, 3): 0.9, (3, 0): -0.4,
               (1, 2): 0.3, (4, 0): 0.5, (0, 4): 0.2},
            b={2: 1.1, 3: 0.8, 4: -0.6},
        )
        return BlowupContext(nf, 1)

    def test_off_focal_gives_a1(self):
        ctx = self._ctx()
        from germforge.blowup import k10_closed

        theta0 = 0.4
        lam = 1.0 / k10_closed(ctx, theta0) + 0.5
        gv = geometric_verdict(ctx, theta0, lam)
        assert gv.verdict.sing_type is DistSing.A1
        assert gv.verdict.r_plus_versal and gv.verdict.k_versal

    def test_focal_non_ridge_gives_a2(self):
        ctx = self._ctx()
        from germforge.blowup import k10_closed, ridge_report

        theta0 = 0.4
        assert not ridge_report(ctx, theta0).is_ridge
        lam = 1.0 / k10_closed(ctx, theta0)
        gv = geometric_verdict(ctx, theta0, lam)
        assert gv.verdict.sing_type is DistSing.A2
        assert gv.flags["on_focal_locus"]

    def test_focal_first_order_ridge_gives_a3(self):
        ctx = self._ctx()
        from germforge.blowup import delta1, k10_closed, ridge_report

        # solve delta1(theta) = 0: tan(theta) = a b3 / (m a30)
        a, m = ctx.a_lead, ctx.fact
        theta0 = math.atan2(a * ctx.nf.b_(3), m * ctx.nf.a_(3, 0))
        if abs(math.cos(theta0)) < 0.1:
            theta0 -= math.pi
        rr = ridge_report(ctx, theta0)
        assert rr.is_ridge and rr.is_first_order_ridge
        lam = 1.0 / k10_closed(ctx, theta0)
        gv = geometric_verdict(ctx, theta0, lam)
        assert gv.verdict.sing_type is DistSing.A3
        assert gv.verdict.r_plus_versal
        assert gv.verdict.k_versal == (not rr.is_subparabolic)

    def test_principal_normal_branch(self):
        ctx = self._ctx()
        gv = geometric_verdict(ctx, math.pi / 2, 2.0)
        assert gv.verdict.branch is Branch.PRINCIPAL_NORMAL
        gv2 = geometric_verdict(ctx, math.pi / 2, 1.0 / ctx.nf.a_(2, 0))
        assert gv2.verdict.sing_type is DistSing.D4PLUS


class TestFocalVerdictCoherence:
    def test_degenerate_exactly_on_the_focal_lines(self, rng):
        """A >= 2 verdicts occur exactly on the focal locus (x0 = 0 slice)."""
        for _ in range(40):
            nf = make_nf(
                order=6,
                a={
                    (2, 0): rand_fraction(rng),
                    (2, 1): rand_fraction(rng),
                    (0, 3): rand_fraction(rng),
                    (3, 0): rand_fraction(rng),
                    (1, 2): rand_fraction(rng),
                },
                b={2: rand_fraction(rng), 3: rand_fraction(rng)},
            )
            locus = focal_locus(nf)
            a20, b2 = nf.a_(2, 0), nf.b_(2)
            # off every line: y0 != 0 and b2 y0 + a20 z0 != 1
            y0 = rand_fraction(rng, nonzero=True)
            z0 = rand_fraction(rng)
            if b2 * y0 + a20 * z0 == 1:
                z0 += 1 if a20 else 0
                y0 += 0 if a20 else 1
            if b2 * y0 + a20 * z0 == 1:
                continue
            off = classify_distance(nf, ProbePoint(Fraction(0), y0, z0))
            assert off.sing_type is DistSing.A1
            # on the principal normal line: degenerate
            on1 = classify_distance(nf, ProbePoint(Fraction(0), Fraction(0), z0))
            assert on1.sing_type is not DistSing.A1
            assert on1.sing_type is not DistSing.REGULAR
            # on the second line (when present): degenerate
            if a20:
                z_line = (1 - b2 * y0) / a20
                on2 = classify_distance(nf, ProbePoint(Fraction(0), y0, z_line))
                assert on2.sing_type in (
                    DistSing.A2, DistSing.A3, DistSing.A4PLUS,
                )


# ---------------------------------------------------------------------------
# The critical-curve residual against the shift loop it replaced
# ---------------------------------------------------------------------------


def ref_split_residual_u(nf, p, order=6):
    """Residual by ascending shifts v -> v + s u^j that clear the u^j v terms."""
    d = distance_jet(nf, p, order)
    qv = d.coeff(0, 2)
    u = Jet2.variable("u", order, nf.mode)
    v = Jet2.variable("v", order, nf.mode)
    for j in range(2, order):
        cj = d.coeff(j, 1)
        if cj:
            shift = Jet2.monomial(j, 0, -cj / (2 * qv), order, nf.mode)
            d = d.substitute(u, v + shift)
    return {i: d.coeff(i, 0) for i in range(3, order + 1)}


def _random_full_nf(rng, order, mode="exact"):
    a = {(i, d - i): rand_fraction(rng)
         for d in range(3, order + 1) for i in range(d + 1) if rng.random() < 0.6}
    a[(2, 0)] = rand_fraction(rng)
    b = {i: rand_fraction(rng) for i in range(2, order + 1) if rng.random() < 0.6}
    return make_nf(order, mode, a, b)


def _case_4a_float_nf(rng, order=8):
    """Float normal form and probe with pw = t3 = C4 = 0 (case 4a) by construction."""
    nf = _random_full_nf(rng, order, FLOAT)
    y0 = float(rand_fraction(rng, 3, 2, nonzero=True))
    z0 = float(rand_fraction(rng, 3, 2))
    a, b = dict(nf.a), dict(nf.b)
    a20, a30, a40, a21 = (nf.a_(i, j) for i, j in ((2, 0), (3, 0), (4, 0), (2, 1)))
    b[2] = (1 - a20 * z0) / y0
    b[3] = -a30 * z0 / y0
    b[4] = -(a40 * y0 * z0 - 3 * a21**2 * z0**2 - 3 * (a20**2 + b[2] ** 2) * y0) / y0**2
    b = {i: c for i, c in b.items() if c}
    return make_nf(order, FLOAT, a, b), ProbePoint(0.0, y0, z0)


class TestResidualKernelMatchesReference:
    def test_exact_residual_dicts_equal(self):
        rng = random.Random(5)
        for _ in range(150):
            nf = _random_full_nf(rng, 8)
            p = probe(0, rand_fraction(rng, nonzero=True), rand_fraction(rng))
            for order in (6, 7, 8):
                got = distance._split_residual_u(nf, p, order)
                assert got == ref_split_residual_u(nf, p, order)
                assert all(isinstance(c, Fraction) for c in got.values())

    def test_float_quintic_and_4a_verdict(self, monkeypatch):
        rng = random.Random(8)
        verdicts = []
        for _ in range(40):
            nf, p = _case_4a_float_nf(rng)
            verdicts.append(classify_distance(nf, p))
        with monkeypatch.context() as m:
            m.setattr(distance, "_split_residual_u", ref_split_residual_u)
            ref_verdicts = [classify_distance(nf, p) for nf, p in
                            (_case_4a_float_nf(r) for r in [random.Random(8)] * 40)]
        for got, want in zip(verdicts, ref_verdicts):
            assert got.case == want.case == "4a"
            assert (got.sing_type, got.r_plus_versal, got.k_versal) == (
                want.sing_type, want.r_plus_versal, want.k_versal
            )
            q, ref_q = got.witness["quintic"], want.witness["quintic"]
            assert abs(q - ref_q) <= 1e-12 * abs(ref_q), (q, ref_q)

    def test_float_floor_no_longer_deletes_the_quintic(self):
        # |b4| ~ 4e4 makes the shift loop's intermediate jets large enough
        # for the relative float floor to drop the u^5 term (it read 0.0);
        # the critical-curve kernel agrees with exact arithmetic on the
        # same float data.
        a = {(2, 0): Fraction(-3, 2), (0, 3): Fraction(3, 2), (2, 1): Fraction(7, 4),
             (1, 3): Fraction(4, 3), (4, 0): 1, (3, 2): 4, (4, 1): Fraction(7, 5),
             (5, 0): Fraction(7, 5), (0, 6): 1, (2, 4): Fraction(-9, 2), (5, 1): 3,
             (0, 7): 6, (4, 3): Fraction(-6, 5), (5, 2): 2, (6, 1): Fraction(-6, 5),
             (0, 8): Fraction(1, 5), (5, 3): Fraction(5, 2), (8, 0): -9}
        b = {2: -50, 4: 41970, 5: -2, 8: Fraction(-1, 3)}
        nf = make_nf(8, FLOAT, a, b)
        p = ProbePoint(0.0, 0.25, -9.0)
        assert classify_distance(nf, p).case == "4a"
        exact_nf = make_nf(8, "exact", {k: Fraction(float(c)) for k, c in a.items()},
                           {k: Fraction(float(c)) for k, c in b.items()})
        exact_p = ProbePoint(Fraction(0), Fraction(1, 4), Fraction(-9))
        want = float(distance._split_residual_u(exact_nf, exact_p, 8)[5])
        got = distance._split_residual_u(nf, p, 8)[5]
        assert want != 0 and abs(got - want) <= 1e-9 * abs(want), (got, want)
