import math
import re
from fractions import Fraction
from itertools import islice

import pytest

from germforge import distance, mond
from germforge.blowup import BlowupContext, ridge_report
from germforge.distance import (
    Branch,
    DistSing,
    FocalKind,
    ProbePoint,
    SingularPointType,
    agrees_with_oracle,
    classify_distance,
    distance_jet,
    focal_locus,
    geometric_verdict,
    singular_point_type,
    versality_rank_test,
)
from germforge.errors import UsageError
from germforge.jets import EXACT, FLOAT, Jet2
from germforge.normal_form import NormalFormCoeffs
from germforge.oracle import K_EQUIV, R_PLUS, split_and_type

import germ_source
from conftest import (
    analysis_forms,
    jets_close,
    make_nf,
    prenormal_configs,
    rand_fraction,
    ref_distance_jet,
    sum_distance_jet,
)


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


def _probe_kinds(rng, mode):
    """An x0 != 0 probe, a singular one off the origin and the origin."""
    x0, y0, z0 = (rand_fraction(rng, nonzero=True) for _ in range(3))
    num = Fraction if mode == EXACT else float
    return [ProbePoint(num(x0), num(y0), num(z0)), ProbePoint(num(0), num(y0), num(z0)),
            ProbePoint(num(0), num(0), num(0))]


def _hash_or_error(x):
    try:
        return hash(x)
    except TypeError as exc:
        return "TypeError: %s" % exc


def ref_zero_test_scale(nf, p):
    """The scale the distance zero test computed on every call."""
    low = [1.0]
    for (i, j), c in nf.a.items():
        if i + j <= 4:
            low.append(abs(float(c)))
    for i, c in nf.b.items():
        if i <= 4:
            low.append(abs(float(c)))
    if p is not None:
        low.append(p.scale())
    return max(low)


def _exact_distance_jet(nf, p, order):
    got = distance_jet(nf, p, order)
    assert got == ref_distance_jet(nf, p, order), (p, order)
    assert all(type(c) is Fraction and c for c in got.coeffs.values())
    return got


class TestDistanceBase:
    """distance_jet over the cached probe-free base against the jet whose
    products are made anew for every probe."""

    def test_exact_equals_reference(self):
        rng = germ_source.draw("distance exact")
        seen = {"origin": 0, "singular": 0, "regular": 0}
        for idx in range(1000):
            nf = make_nf(8, EXACT, *germ_source.dense_form(rng, 8))
            kind = ("origin", "singular", "regular", "regular")[idx % 4]
            x0, y0, z0 = (rand_fraction(rng, 40, 60) for _ in range(3))
            if kind == "origin":
                x0 = y0 = z0 = Fraction(0)
            elif kind == "singular":
                x0 = Fraction(0)
            elif not x0:
                x0 = Fraction(1, 7)
            p = ProbePoint(x0, y0, z0)
            for order in (3, 6, 8):
                got = _exact_distance_jet(nf, p, order)
                # at x0 = 0 the u term cancels and is not stored
                assert ((1, 0) in got.coeffs) == bool(x0)
            seen[kind] += 1
        assert min(seen.values()) >= 250, seen

    def test_exact_on_the_analysis_corpus(self):
        probes = 0
        for nf, points in analysis_forms():
            assert nf.mode == EXACT
            for point in points:
                for order in (3, 6, 8):
                    _exact_distance_jet(nf, ProbePoint(*point), order)
                probes += 1
        assert probes >= 1000

    def test_float_within_1e12_of_reference(self):
        rng = germ_source.draw("distance float")
        for idx in range(120):
            nf = make_nf(8, FLOAT, *germ_source.dense_form(rng, 8))
            p = _probe_kinds(rng, FLOAT)[idx % 3]
            for order in (6, 8):
                got, want = distance_jet(nf, p, order), ref_distance_jet(nf, p, order)
                assert got.mode == want.mode == FLOAT
                assert jets_close(got, want, 1e-12), (idx, order)

    def test_float_bits_equal_the_jet_sums(self):
        rng = germ_source.draw("distance float bits")
        forms = [nf.to_float() for nf, _ in analysis_forms()[::8]]
        forms += [make_nf(8, FLOAT, *germ_source.dense_form(rng, 8)) for _ in range(120)]
        for idx, nf in enumerate(forms):
            for p in _probe_kinds(rng, FLOAT):
                for order in (3, 6, 8):
                    got, want = distance_jet(nf, p, order), sum_distance_jet(nf, p, order)
                    assert got.mode == want.mode == FLOAT
                    assert got.coeffs.keys() == want.coeffs.keys(), (idx, order)
                    assert all(got.coeffs[k].hex() == c.hex()
                               for k, c in want.coeffs.items()), (idx, order)

    def test_float_overflow_is_a_usage_error(self):
        nf = make_nf(order=4, mode=FLOAT, a={(2, 0): 1.0, (0, 3): 1.0})
        with pytest.raises(UsageError, match="float range|finite"):
            distance_jet(nf, ProbePoint(0.0, 1e200, 1e200), 4)

    def test_cache_keyed_by_order_and_mode(self):
        nf = make_nf(8, EXACT, *germ_source.dense_form(germ_source.draw("distance cache"), 8))
        base6, base8 = nf.distance_base(6), nf.distance_base(8)
        assert nf.distance_base(6) is base6 and nf.distance_base(8) is base8
        for order, (rows, _) in ((6, base6), (8, base8)):
            assert rows and all(i + j <= order for i, j in rows)
        fnf = nf.to_float()
        fbase6 = fnf.distance_base(6)
        assert fnf.distance_base(6) is fbase6 and nf.distance_base(6) is base6
        (rows, den), (frows, fden) = base6, fbase6
        assert rows.keys() == frows.keys() and fden == 1
        assert {type(c) for row in rows.values() for c in row} == {int}
        assert {type(c) for row in frows.values() for c in row if c} == {float}
        for key, row in rows.items():
            for c, fc in zip(row, frows[key]):
                assert abs(float(Fraction(c, den)) - fc) <= 1e-12 * max(1.0, abs(fc)), key

    def test_base_columns_are_the_components(self):
        nf = make_nf(8, EXACT, *germ_source.dense_form(germ_source.draw("distance base"), 8))
        rows, den = nf.distance_base(8)
        u = Jet2.variable("u", 8)
        y, z = nf.second_component(8), nf.third_component(8)
        half_sq = (u * u + y * y + z * z) * Fraction(1, 2)
        for col, jet in enumerate((half_sq, u, y, z)):
            got = {k: Fraction(row[col], den) for k, row in rows.items() if row[col]}
            assert got == jet.coeffs, col

    def test_equality_and_hash_unchanged_by_the_caches(self):
        nf = make_nf(8, EXACT, *germ_source.dense_form(germ_source.draw("distance hash"), 8))
        twin = NormalFormCoeffs(nf.order, nf.mode, dict(nf.a), dict(nf.b))
        before = (_hash_or_error(nf), repr(nf))
        nf.distance_base(6)
        nf.distance_base(8)
        assert nf.distance_scale >= 1.0 and nf.degree_scale(nf.order) >= 1.0
        assert nf == twin and twin == nf
        assert (_hash_or_error(nf), repr(nf)) == before == (_hash_or_error(twin), repr(twin))

    def test_zero_test_scale_is_the_per_call_scale(self):
        rng = germ_source.draw("distance zero scale")
        for idx in range(60):
            mode = (EXACT, FLOAT)[idx % 2]
            nf = make_nf(6, mode, *germ_source.dense_form(rng, 6))
            for p in _probe_kinds(rng, mode) + [None]:
                scale = nf.distance_scale if p is None else max(nf.distance_scale, p.scale())
                assert scale == ref_zero_test_scale(nf, p)

    def test_only_float_forms_build_their_sizes(self):
        rng = germ_source.draw("distance sizes")
        for idx in range(40):
            mode = (EXACT, FLOAT)[idx % 2]
            nf = make_nf(6, mode, *germ_source.dense_form(rng, 6))
            for p in _probe_kinds(rng, mode):
                classify_distance(nf, p)
            focal_locus(nf)
            mond.classify(nf)
            built = {"distance_scale", "_degree_scales"} & set(vars(nf))
            assert built == (set() if mode == EXACT else {"distance_scale", "_degree_scales"})


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

    def test_oracle_agreement_random(self):
        for nf, p in prenormal_configs(germ_source.draw("oracle agreement"), 60):
            v = classify_distance(nf, p)
            t = split_and_type(distance_jet(nf, p, 6), 6)
            assert agrees_with_oracle(v.sing_type, t), (v.sing_type, t.label)


class TestVersalityDual:
    def test_rank_test_matches_closed_forms(self):
        for nf, p in prenormal_configs(germ_source.draw("rank test"), 40):
            v = classify_distance(nf, p)
            assert versality_rank_test(nf, p, R_PLUS) == v.r_plus_versal
            assert versality_rank_test(nf, p, K_EQUIV) == v.k_versal

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
        theta0 = 0.4
        lam = 1.0 / ridge_report(ctx, theta0).k10 + 0.5
        gv = geometric_verdict(ctx, theta0, lam)
        assert gv.verdict.sing_type is DistSing.A1
        assert gv.verdict.r_plus_versal and gv.verdict.k_versal

    def test_focal_non_ridge_gives_a2(self):
        ctx = self._ctx()
        theta0 = 0.4
        rr = ridge_report(ctx, theta0)
        assert not rr.is_ridge
        lam = 1.0 / rr.k10
        gv = geometric_verdict(ctx, theta0, lam)
        assert gv.verdict.sing_type is DistSing.A2
        assert gv.flags["on_focal_locus"]

    def test_focal_first_order_ridge_gives_a3(self):
        ctx = self._ctx()
        # solve delta1(theta) = 0: tan(theta) = a b3 / (m a30)
        a, m = ctx.a_lead, ctx.fact
        theta0 = math.atan2(a * ctx.nf.b_(3), m * ctx.nf.a_(3, 0))
        if abs(math.cos(theta0)) < 0.1:
            theta0 -= math.pi
        rr = ridge_report(ctx, theta0)
        assert rr.is_ridge and rr.is_first_order_ridge
        lam = 1.0 / rr.k10
        gv = geometric_verdict(ctx, theta0, lam)
        assert gv.verdict.sing_type is DistSing.A3
        assert gv.verdict.r_plus_versal
        assert gv.verdict.k_versal == (not rr.is_subparabolic)

    @pytest.mark.parametrize("a20, b2, theta0", [
        (1, 0, 0.3), (2, 1, -0.7), (Fraction(1, 2), -1, 1.1),
    ])
    def test_focal_second_order_ridge_gives_a4plus(self, a20, b2, theta0):
        # an S_2 form (a_21 = 0) with b_3 = a_30 = 0, b_4 = q b_2 and
        # a_40 = q a_20, q = 3 (a_20^2 + b_2^2): delta1 and delta2 vanish at
        # every theta, so every normal direction is a second-order ridge
        q = 3 * (Fraction(a20) ** 2 + b2 ** 2)
        nf = make_nf(order=8, a={(2, 0): a20, (3, 1): 1, (0, 3): 1, (4, 0): q * a20},
                     b={2: b2, 4: q * b2})
        ctx = BlowupContext(nf, 2)
        rr = ridge_report(ctx, theta0)
        assert (rr.delta1, rr.delta2) == (0.0, 0.0)
        assert rr.is_ridge and not rr.is_first_order_ridge
        gv = geometric_verdict(ctx, theta0, 1.0 / rr.k10)
        assert gv.flags["on_focal_locus"]
        assert (gv.verdict.sing_type, gv.verdict.case) == (DistSing.A4PLUS, "4a")
        assert not gv.verdict.r_plus_versal and not gv.verdict.k_versal

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_lambda_rejected(self, lam):
        message = "^lambda must be a finite number, got %s$" % re.escape(repr(lam))
        with pytest.raises(UsageError, match=message):
            geometric_verdict(self._ctx(), 0.4, lam)

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
            shift = Jet2(order, {(j, 0): -cj / (2 * qv)}, nf.mode)
            d = d.substitute(u, v + shift)
    return {i: d.coeff(i, 0) for i in range(3, order + 1)}


class TestResidualKernelMatchesReference:
    def test_exact_residual_dicts_equal(self):
        rng = germ_source.draw("residual kernel")
        for _ in range(150):
            nf = make_nf(8, EXACT, *germ_source.dense_form(rng, 8))
            p = probe(0, rand_fraction(rng, nonzero=True), rand_fraction(rng))
            for order in (6, 7, 8):
                got = distance._split_residual_u(nf, p, order)
                assert got == ref_split_residual_u(nf, p, order)
                assert all(isinstance(c, Fraction) for c in got.values())

    def test_float_quintic_and_4a_verdict(self, monkeypatch):
        # float pre-normal forms at their tuned focal/cubic-line intersection;
        # each verdict reads a fresh form, since a form keeps its last probe
        # (``NormalFormCoeffs._probe_slot``)
        rng = germ_source.draw("case 4a")
        tuned = islice(germ_source.gallery_draws(rng, order=8), 1, None, 2)
        cases = [(g.a, g.b, ProbePoint(*map(float, probes[2])))
                 for _, g, probes, _ in islice(tuned, 40)]
        verdicts = [classify_distance(make_nf(8, FLOAT, a, b), p) for a, b, p in cases]
        with monkeypatch.context() as m:
            m.setattr(distance, "_split_residual_u", ref_split_residual_u)
            ref_verdicts = [classify_distance(make_nf(8, FLOAT, a, b), p) for a, b, p in cases]
        for got, want in zip(verdicts, ref_verdicts):
            assert got.case == want.case == "4a"
            assert (got.sing_type, got.r_plus_versal, got.k_versal) == (
                want.sing_type, want.r_plus_versal, want.k_versal
            )
            q, ref_q = got.witness["quintic"], want.witness["quintic"]
            assert abs(q - ref_q) <= 1e-12 * abs(ref_q), (q, ref_q)

    def test_float_overflow_is_a_usage_error(self):
        # a20 = b2 = 0 and a probe of size 1e300: every witness is zero at the
        # probe's scale, so the tree reaches case 4a, where |p|^2 overflows
        nf = make_nf(8, FLOAT, {(0, 3): 1, (1, 2): 1})
        with pytest.raises(UsageError):
            classify_distance(nf, ProbePoint(0.0, 1e300, 0.0))

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
