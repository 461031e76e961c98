import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from germforge import blowup
from germforge.blowup import (
    BlowupContext,
    K0_closed,
    PointType,
    build_context,
    front_verdict,
    geometry_samples,
    k20_closed,
    pullback_series,
    ridge_report,
    ridge_reports,
    s_recip,
    s_sqrt,
    series_columns,
    theta_grid,
)
from germforge.closed_forms import CROSSCHECK_SYMBOLS, crosscheck_closed_forms
from germforge.distance import geometric_verdict
from germforge.errors import InternalConsistencyError, PrincipalNormalDirectionError, UsageError
from germforge.jets import FLOAT, Jet2
from germforge.mond import MondClass, MondTag

import germ_source
from conftest import (
    GEOMETRY_GERMS,
    classified_ctx,
    make_nf,
    raw_geometry,
    series_at,
    unit_defect,
)


def nf_s1(**extra):
    base = {
        (2, 0): 0.4, (2, 1): 1.3, (0, 3): 0.7, (3, 0): -0.8, (1, 2): 0.9,
        (4, 0): 0.3, (2, 2): -0.6, (3, 1): 0.2, (1, 3): 0.5, (0, 4): -0.2,
        (4, 1): -0.5, (0, 5): 1.1, (5, 0): 0.6,
    }
    base.update(extra)
    return make_nf(order=6, mode=FLOAT, a=base, b={2: 0.5, 3: -1.1, 4: 0.8})


def nf_n2():
    return make_nf(
        order=7,
        mode=FLOAT,
        a={
            (2, 0): -0.3, (0, 3): 1.2, (3, 1): 0.9, (3, 0): 0.4, (1, 2): -0.7,
            (4, 0): -0.5, (2, 2): 0.8, (4, 1): 0.6, (5, 1): -0.4, (0, 5): 0.3,
        },
        b={2: 1.1, 3: 0.7, 4: -0.9},
    )


@pytest.fixture
def draw():
    """The seeded source of this module's random forms (``dense_ctx``)."""
    return germ_source.draw("blowup")


def dense_ctx(draw, n):
    """The blow-up context, exponent n, of a float order-(n + 4) normal form
    with every coefficient that exponent admits nonzero."""
    a, b = germ_source.dense_form(draw, n + 4, n)
    return BlowupContext(make_nf(order=n + 4, mode=FLOAT, a=a, b=b), n)


def lifted_series(ctx, thetas):
    """Per theta, the curvature series K, k1, k2 plus the principal-direction
    lift coefficients, from one series_columns run over thetas.

    xi1*, eta1* lift the bounded principal direction and eta2* the unbounded
    one into the (r, theta) frame, as series in r; they are built from the
    pipeline's form and curvature series.
    """
    n = ctx.n
    cols = series_columns(ctx, thetas)
    out = []
    for idx, theta in enumerate(thetas):
        q = series_at(cols, idx)
        c, s = math.cos(theta), math.sin(theta)
        cn = c**n
        tanpart = c - n * s * s / c
        out.append(SimpleNamespace(
            K=q["K"], k1=q["k1"], k2=q["k2"],
            xi10=q["N"][0] * tanpart - q["M"][0] * s / cn,
            xi11=q["N"][1] * tanpart - q["M"][1] * s / cn,
            eta10=-(n + 1) * q["N"][1] * s - q["M"][1] * c / cn,
            eta11=-(n + 1) * q["N"][2] * s - (q["M"][2] - q["k1"][0] * q["F"][0]) * c / cn,
            eta20=q["k2"][0] * q["F"][0] * c / cn,
            eta21=(q["k2"][0] * q["F"][1] + q["k2"][1] * q["F"][0]) * c / cn,
        ))
    return out


class TestContext:
    def test_table_of_exponents(self):
        pairs = [
            (MondClass(MondTag.S, 1, "+"), 1),
            (MondClass(MondTag.S, 3, "+"), 3),
            (MondClass(MondTag.B, 4, "+"), 1),
            (MondClass(MondTag.C, 3, "+"), 2),
            (MondClass(MondTag.F4), 2),
        ]
        for mond, n in pairs:
            order = max(2 * (mond.k or 2) + 1, n + 4, 6)
            terms = {(n + 1, 1): 1.0, (2, 0): 0.5}
            nf = make_nf(order=order, mode=FLOAT, a=terms)
            ctx = build_context(nf, mond)
            assert ctx.n == n
            assert ctx.epsilon == (1 if n == 1 else 0)

    def test_leading_coefficient_required(self):
        nf = make_nf(order=6, mode=FLOAT, a={(2, 0): 1.0})
        with pytest.raises(Exception):
            BlowupContext(nf, 1)

    def test_out_of_scope_class(self):
        nf = nf_s1()
        with pytest.raises(UsageError, match=(
                r"^blow-up geometry is defined for S_k, B_k, C_k, F_4 only \(got S0\)$")):
            build_context(nf, MondClass(MondTag.CROSS_CAP))


def trig_powers(thetas, count=8):
    """The power columns cos(theta)^e and sin(theta)^e, e < count, over thetas."""
    return ([[math.cos(t) ** e for t in thetas] for e in range(count)],
            [[math.sin(t) ** e for t in thetas] for e in range(count)])


def pullback_at(ctx, jet, theta, **shifts):
    """pullback_series on the one-theta grid, as a plain list of coefficients."""
    return [col[0] for col in pullback_series(ctx, jet, *trig_powers([theta]), **shifts)]


def build_series(ctx, thetas):
    """blowup.build_series over thetas, with no guard on the directions."""
    return blowup.build_series(ctx, thetas, [math.cos(t) for t in thetas])


class TestPullback:
    def test_uv_with_n_1(self):
        ctx = BlowupContext(nf_s1(), 1)
        theta = 0.6
        jet = Jet2(6, {(1, 1): 1.0}, FLOAT)
        # u v = r^3 cos^2 sin: with r divided out it sits at r^2
        series = pullback_at(ctx, jet, theta, r_shift=1)
        c, s = math.cos(theta), math.sin(theta)
        assert series[2] == pytest.approx(c * c * s)
        assert series[:2] == [0.0, 0.0]
        assert pullback_at(ctx, jet, theta) == [0.0, 0.0, 0.0]

    def test_constant(self):
        ctx = BlowupContext(nf_s1(), 1)
        jet = Jet2(6, {(0, 0): 2.5}, FLOAT)
        assert pullback_at(ctx, jet, 0.3)[0] == 2.5

    def test_v_squared_with_n_2(self):
        ctx = BlowupContext(nf_n2(), 2)
        theta = -0.4
        jet = Jet2(7, {(0, 2): 1.0}, FLOAT)
        # v^2 = r^6 cos^4 sin^2: with r^4 divided out it sits at r^2
        series = pullback_at(ctx, jet, theta, r_shift=4)
        c, s = math.cos(theta), math.sin(theta)
        assert series[2] == pytest.approx(c**4 * s**2)
        assert series[:2] == [0.0, 0.0]

    def test_shift_must_divide_every_term(self):
        ctx = BlowupContext(nf_s1(), 1)
        # u^2 / r^2 = cos^2 theta; u / r^2 has no series
        assert pullback_at(ctx, Jet2(6, {(2, 0): 1.0}, FLOAT), 0.3, r_shift=2)[0] == (
            math.cos(0.3) ** 2
        )
        with pytest.raises(InternalConsistencyError, match="does not divide the u\\^1 v\\^0"):
            pullback_at(ctx, Jet2(6, {(1, 0): 1e-6, (2, 0): 1.0}, FLOAT), 0.3, r_shift=2)


class TestColumnPipeline:
    """One pipeline run over a theta grid against one run per theta."""

    @staticmethod
    def contexts(draw):
        ctxs = [classified_ctx(GEOMETRY_GERMS[label])[1] for label in sorted(GEOMETRY_GERMS)]
        return ctxs + [dense_ctx(draw, 3)]

    def test_grid_equals_one_theta_bit_for_bit(self, draw):
        thetas = theta_grid(128)[:-1]  # every node but pi/2
        ctxs = self.contexts(draw)
        assert sorted({ctx.n for ctx in ctxs}) == [1, 2, 3]
        for ctx in ctxs:
            cols = series_columns(ctx, thetas)
            for idx, theta in enumerate(thetas):
                one = series_columns(ctx, [theta])
                for key in ("n1", "n2", "n3", "E", "F", "G", "L", "M", "N", "K", "k1", "k2"):
                    grid = [col[idx].hex() for col in cols[key]]
                    assert grid == [col[0].hex() for col in one[key]], (ctx.n, theta, key)

    @pytest.mark.parametrize("label", sorted(GEOMETRY_GERMS))
    def test_sweep_reads_k0_and_k20_off_ridge_reports(self, label, monkeypatch):
        _, ctx = classified_ctx(GEOMETRY_GERMS[label])

        def no_series(*args, **kwargs):
            raise AssertionError("the sweep runs no series")

        for name in ("series_columns", "build_series", "pullback_series"):
            monkeypatch.setattr(blowup, name, no_series)
        for samples in (16, 64, 128, 129):
            thetas = theta_grid(samples)
            records = geometry_samples(ctx, thetas)
            reports = ridge_reports(ctx, thetas)
            assert len(records) == len(reports) == samples
            for rec, rr in zip(records, reports):
                assert rec["theta"] == rr.theta
                if rr.k20 is None:
                    assert (rec["K0"], rec["k20"], rec["point_type"]) == (None, None, None)
                    continue
                assert rec["K0"].hex() == (rr.k10 * rr.k20).hex()
                assert rec["k20"].hex() == rr.k20.hex()
                assert (rec["K0"] > 0) == (rec["point_type"] == "elliptic")
                assert (rec["K0"] < 0) == (rec["point_type"] == "hyperbolic")

    def test_theta_grid_is_capped_before_it_is_built(self):
        cap = blowup.MAX_THETA_SAMPLES
        assert len(theta_grid(cap)) == cap and theta_grid(cap)[-1] == math.pi / 2
        for samples in (cap + 1, 10**12):
            for grid in (theta_grid, blowup.uniform_thetas):
                with pytest.raises(UsageError, match="^theta grid has more than %d samples$"
                                   % cap):
                    grid(samples)

    def test_mapping_reads(self):
        ctx = BlowupContext(nf_s1(), 1)
        cols = series_columns(ctx, [0.3, -0.4])
        assert tuple(cols) == blowup.SERIES and "w" not in cols
        with pytest.raises(KeyError):
            cols["w"]
        assert cols["K"] is cols["K"]

    def test_grid_with_principal_normal_direction_raises(self):
        ctx = BlowupContext(nf_s1(), 1)
        with pytest.raises(PrincipalNormalDirectionError, match="principal normal direction"):
            series_columns(ctx, [0.3, math.pi / 2, -0.4])

    @pytest.mark.parametrize("helper, lead", [(s_recip, 0.0), (s_sqrt, 0.0), (s_sqrt, -1.0)])
    def test_leading_term_guards_match_on_a_grid(self, helper, lead):
        with pytest.raises(InternalConsistencyError) as one:
            helper([[lead], [1.0], [2.0]])
        with pytest.raises(InternalConsistencyError) as grid:
            helper([[2.0, lead, 3.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        assert str(grid.value) == str(one.value)

    def test_divisibility_guard_on_a_grid(self):
        ctx = BlowupContext(nf_s1(), 1)
        jet = Jet2(6, {(1, 0): 1e-6, (2, 0): 1.0}, FLOAT)
        with pytest.raises(InternalConsistencyError, match="does not divide the u\\^1 v\\^0"):
            pullback_series(ctx, jet, *trig_powers([-0.5, 0.3, 1.2]), r_shift=2)


def report_bits(rr):
    """A RidgeReport's fields, each float as float.hex."""
    def bits(x):
        if isinstance(x, float):
            return x.hex()
        if isinstance(x, tuple):
            return tuple(bits(y) for y in x)
        return x
    return [bits(getattr(rr, name)) for name in rr._fields]


class TestRidgeLoop:
    """ridge_reports sweeps a theta list in one loop; ridge_report is its
    one-theta case."""

    @staticmethod
    def thetas():
        near = math.acos(blowup.COS_TOL)
        while abs(math.cos(near)) <= blowup.COS_TOL:
            near = math.nextafter(near, 0.0)
        assert abs(math.cos(near)) > blowup.COS_TOL
        return theta_grid(64) + [0.0, math.pi / 2, -math.pi / 2, near, -near]

    def test_loop_equals_one_theta_at_a_time_bit_for_bit(self, draw):
        thetas = self.thetas()
        ctxs = TestColumnPipeline.contexts(draw)
        assert sorted({ctx.n for ctx in ctxs}) == [1, 2, 3]
        for ctx in ctxs:
            reports = ridge_reports(ctx, thetas)
            assert len(reports) == len(thetas)
            for theta, rr in zip(thetas, reports):
                assert rr.theta == theta
                assert report_bits(rr) == report_bits(ridge_report(ctx, theta)), (ctx.n, theta)
            # the order of the list changes no report
            backwards = ridge_reports(ctx, thetas[::-1])
            assert [report_bits(rr) for rr in backwards[::-1]] == [
                report_bits(rr) for rr in reports]
            # the direction off pi/2 just past COS_TOL has a point type, pi/2 none
            types = {theta: rr.point_type for theta, rr in zip(thetas, reports)}
            assert types[thetas[-2]] is not None and types[thetas[-1]] is not None
            assert types[math.pi / 2] is None

    def test_loop_matches_the_closed_form_helpers(self, draw):
        # ma, k10 and k20 as their formulas give them, in the loop's operation
        # order; K0_closed and k20_closed are read off the loop's report, and
        # K0's sign is the point type's
        for ctx in TestColumnPipeline.contexts(draw):
            a, m, b2, a20 = ctx.a_lead, ctx.fact, ctx.nf.b_(2), ctx.nf.a_(2, 0)
            for theta, rr in zip(theta_grid(64)[:-1], ridge_reports(ctx, theta_grid(64)[:-1])):
                c, s = math.cos(theta), math.sin(theta)
                ma = math.sqrt(a**2 * c * c + m**2 * s * s)
                assert rr.ma.hex() == ma.hex()
                assert rr.k10.hex() == ((-a * b2 * c + m * a20 * s) / ma).hex()
                assert rr.k20.hex() == (-(m**2) * a / (ma**3 * c ** (2 * ctx.n - 1))).hex()
                assert k20_closed(ctx, theta).hex() == rr.k20.hex()
                k0 = K0_closed(ctx, theta)
                assert k0.hex() == (rr.k10 * rr.k20).hex()
                if rr.point_type is PointType.ELLIPTIC:
                    assert k0 > 0
                elif rr.point_type is PointType.HYPERBOLIC:
                    assert k0 < 0
            assert ridge_report(ctx, math.pi / 2).k20 is None
            for closed in (K0_closed, k20_closed):
                with pytest.raises(PrincipalNormalDirectionError, match="principal normal"):
                    closed(ctx, math.pi / 2)

    def test_empty_list(self):
        assert ridge_reports(BlowupContext(nf_s1(), 1), []) == []


class TestNonFiniteTheta:
    """Every entry point that takes a theta rejects NaN and +-inf by name."""

    ENTRY_POINTS = {
        "ridge_report": ridge_report,
        "ridge_reports": lambda ctx, theta: ridge_reports(ctx, [0.3, theta]),
        "front_verdict": front_verdict,
        "K0_closed": K0_closed,
        "k20_closed": k20_closed,
        "geometric_verdict": lambda ctx, theta: geometric_verdict(ctx, theta, 0.5),
        "geometry_samples": lambda ctx, theta: geometry_samples(ctx, [0.3, theta]),
        "series_columns": lambda ctx, theta: series_columns(ctx, [0.3, theta]),
    }

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_usage_error_names_theta(self, entry, theta):
        ctx = BlowupContext(nf_s1(), 1)
        with pytest.raises(UsageError, match="^theta = %s is not a finite number$" % theta):
            self.ENTRY_POINTS[entry](ctx, theta)


class TestExtendedNormal:
    def test_at_pi_over_2(self):
        ctx = BlowupContext(nf_s1(), 1)
        n1, n2, n3 = ridge_report(ctx, math.pi / 2).normal_r0
        assert (n1, n2) == (0.0, pytest.approx(0.0))
        assert n3 == pytest.approx(1.0)

    def test_at_zero(self):
        ctx = BlowupContext(nf_s1(), 1)
        _, n2, n3 = ridge_report(ctx, 0.0).normal_r0
        assert n2 == pytest.approx(-math.copysign(1.0, ctx.a_lead))
        assert n3 == 0.0

    def test_s1_quarter_turn_values(self):
        # a_21 = sqrt(2), n = 1: ma(pi/4) = sqrt(3)
        nf = make_nf(
            order=5, mode=FLOAT,
            a={(2, 1): math.sqrt(2), (0, 3): 3 / math.sqrt(2)},
        )
        ctx = BlowupContext(nf, 1)
        _, n2, n3 = ridge_report(ctx, math.pi / 4).normal_r0
        assert n2 == pytest.approx(-1 / math.sqrt(3))
        assert n3 == pytest.approx(math.sqrt(2) / math.sqrt(3))
        cols = series_columns(ctx, [math.pi / 4])
        assert cols["n2"][0][0] == pytest.approx(n2)
        assert cols["n3"][0][0] == pytest.approx(n3)

    def test_unit_length_through_depth_two(self, draw):
        for n in (1, 2):
            for _ in range(10):
                ctx = dense_ctx(draw, n)
                # the forms, and the normal, exist at pi/2 too
                cols = build_series(ctx, theta_grid(64))
                for idx in range(64):
                    defect = unit_defect(cols, idx)
                    assert max(abs(x) for x in defect) < 1e-10


class TestFormsAndCurvature:
    def test_e2_vanishes_at_pi_over_2(self):
        ctx = BlowupContext(nf_s1(), 1)
        fs = build_series(ctx, [math.pi / 2])
        assert abs(fs["E"][2][0]) < 1e-12

    def test_g0_vanishes_at_pi_over_2(self):
        for nfb, n in ((nf_s1(), 1), (nf_n2(), 2)):
            ctx = BlowupContext(nfb, n)
            fs = build_series(ctx, [math.pi / 2])
            assert abs(fs["G"][0][0]) < 1e-12

    def test_l0_at_pi_over_2_is_a20(self):
        ctx = BlowupContext(nf_s1(), 1)
        fs = build_series(ctx, [math.pi / 2])
        assert fs["L"][0][0] == pytest.approx(ctx.nf.a_(2, 0))

    def test_k0_at_theta_zero(self):
        for nfb, n in ((nf_s1(), 1), (nf_n2(), 2)):
            ctx = BlowupContext(nfb, n)
            expected = ctx.fact**2 * ctx.nf.b_(2) / ctx.a_lead**2
            assert K0_closed(ctx, 0.0) == pytest.approx(expected)
            cs = series_columns(ctx, [0.0])
            assert cs["K"][0][0] == pytest.approx(expected)

    def test_k10_limit_at_pi_over_2(self):
        # the closed form of the bounded curvature stays finite at pi/2
        ctx = BlowupContext(nf_s1(), 1)
        assert ridge_report(ctx, math.pi / 2).k10 == pytest.approx(ctx.nf.a_(2, 0))

    def test_principal_normal_direction_error(self):
        ctx = BlowupContext(nf_s1(), 1)
        with pytest.raises(PrincipalNormalDirectionError):
            series_columns(ctx, [math.pi / 2])

    def test_xi10_closed_form(self, draw):
        for n in (1, 2):
            ctx = dense_ctx(draw, n)
            thetas = (-1.1, -0.3, 0.2, 0.9)
            for theta, cs in zip(thetas, lifted_series(ctx, thetas)):
                assert cs.xi10 == pytest.approx(-ctx.a_lead / ctx.ma(theta))

    def test_eta10_closed_form(self, draw):
        # eta10 = -((n+2)! a12 sin + a_{n+2,1} cos) cos sin / ((n+2) ma)
        for n in (1, 2):
            ctx = dense_ctx(draw, n)
            nf = ctx.nf
            thetas = (-0.7, 0.4)
            for theta, cs in zip(thetas, lifted_series(ctx, thetas)):
                c, s = math.cos(theta), math.sin(theta)
                expected = (
                    -(math.factorial(n + 2) * nf.a_(1, 2) * s
                      + nf.a_(n + 2, 1) * c) * c * s
                    / ((n + 2) * ctx.ma(theta))
                )
                assert cs.eta10 == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_eta20_at_zero(self):
        for nfb, n in ((nf_s1(), 1), (nf_n2(), 2)):
            ctx = BlowupContext(nfb, n)
            cs = lifted_series(ctx, [0.0])[0]
            expected = (
                -ctx.fact * ctx.nf.a_(2, 0) * ctx.a_lead**2 / ctx.ma(0.0) ** 3
            )
            assert cs.eta20 == pytest.approx(expected, abs=1e-12)

    def test_identity_suite_small(self, draw):
        # k10 = L0, K0 = k10 k20, K1 = k10 k21 + k11 k20 on random germs
        for n in (1, 2):
            for _ in range(5):
                ctx = dense_ctx(draw, n)
                thetas = [t for t in theta_grid(16) if abs(math.cos(t)) >= 0.05]
                cols = series_columns(ctx, thetas)
                for idx in range(len(thetas)):
                    q = series_at(cols, idx)
                    K, k1, k2, L = q["K"], q["k1"], q["k2"], q["L"]
                    scale = max(1.0, abs(K[0]), abs(K[1]))
                    assert abs(k1[0] - L[0]) <= 1e-10 * max(1.0, abs(L[0]))
                    assert abs(K[0] - k1[0] * k2[0]) <= 1e-10 * scale
                    assert abs(K[1] - (k1[0] * k2[1] + k1[1] * k2[0])) <= 1e-10 * scale

    def test_k12_identity(self, draw):
        # k12 = -E2 L0 + L2 - eps M0^2 / N0
        for n in (1, 2):
            ctx = dense_ctx(draw, n)
            cols = series_columns(ctx, [0.5, -0.8])
            for idx in range(2):
                q = series_at(cols, idx)
                E, L, M, N = q["E"], q["L"], q["M"], q["N"]
                expected = -E[2] * L[0] + L[2] - ctx.epsilon * M[0]**2 / N[0]
                assert q["k1"][2] == pytest.approx(expected, rel=1e-9, abs=1e-12)


class TestRawSeriesOracle:
    """The series pipeline against direct evaluation at small r."""

    def test_series_match_raw_fits(self, draw):
        rs = np.array([0.02, 0.01, 0.005, -0.02, -0.01, -0.005, 0.015, -0.015])
        for n in (1, 2):
            ctx = dense_ctx(draw, n)
            thetas = (0.5, -0.9)
            cols = series_columns(ctx, thetas)
            for idx, theta in enumerate(thetas):
                one = series_at(cols, idx)
                vander = np.vander(rs, 6, increasing=True)
                raws = [raw_geometry(ctx, r, theta) for r in rs]
                for key, vals, series in (
                    ("n2", [q["normal"][1] for q in raws], one["n2"]),
                    ("n3", [q["normal"][2] for q in raws], one["n3"]),
                    ("L", [q["L"] for q in raws], one["L"]),
                    ("N", [q["N"] for q in raws], one["N"]),
                ):
                    fit, *_ = np.linalg.lstsq(vander, np.array(vals), rcond=None)
                    for k in range(3):
                        assert abs(series[k] - fit[k]) < 5e-4 * max(
                            1.0, abs(series[k])
                        ), (n, theta, key, k)


class TestRidge:
    def test_theta_zero_trivia(self, draw):
        for n in (1, 2):
            ctx = dense_ctx(draw, n)
            nf = ctx.nf
            assert ridge_report(ctx, 0.0).delta1 == pytest.approx(ctx.a_lead * nf.b_(3))
            assert ridge_report(ctx, 0.0).delta3 == pytest.approx(nf.a_(2, 0) * ctx.a_lead)
            assert ridge_report(ctx, math.pi / 2).delta1 == pytest.approx(
                -ctx.fact * nf.a_(3, 0)
            )

    def test_ridge_iff_b3_zero_at_theta_zero(self):
        nf_ridge = make_nf(
            order=6, mode=FLOAT,
            a={(2, 1): 1.0, (0, 3): 1.0, (3, 0): 0.5, (4, 0): 0.1},
            b={2: 1.0, 4: 0.3},
        )
        ctx = BlowupContext(nf_ridge, 1)
        rr = ridge_report(ctx, 0.0)
        assert rr.is_ridge  # b3 = 0
        assert ridge_report(ctx, 0.3).is_ridge is False

    def test_subparabolic_iff_a20_zero_at_theta_zero(self):
        nf = make_nf(order=6, mode=FLOAT, a={(2, 1): 1.0, (0, 3): 1.0}, b={2: 1.0})
        ctx = BlowupContext(nf, 1)
        assert ridge_report(ctx, 0.0).is_subparabolic

    def test_point_type_sign_of_k0(self):
        nf = make_nf(order=6, mode=FLOAT, a={(2, 1): 1.0, (0, 3): 1.0}, b={2: 1.0})
        ctx = BlowupContext(nf, 1)
        rr = ridge_report(ctx, 0.0)
        # K0(0) = m^2 b2 / a^2 > 0
        assert rr.point_type is PointType.ELLIPTIC
        assert ridge_report(ctx, math.pi / 2).point_type is None

    def test_delta1_zero_count(self, draw):
        # nonzero linear form in (cos, sin): at most one zero mod pi
        for _ in range(5):
            ctx = dense_ctx(draw, 1)
            zeros = 0
            grid = theta_grid(512)
            vals = [ridge_report(ctx, t).delta1 for t in grid]
            for a, b in zip(vals, vals[1:]):
                if a == 0 or (a < 0) != (b < 0):
                    zeros += 1
            assert zeros <= 1

    def test_one_ma_per_theta(self, monkeypatch):
        _, ctx = classified_ctx(GEOMETRY_GERMS["S1+"])
        thetas = theta_grid(32)  # its last theta is the principal normal
        nf, lead, fact = ctx.nf, ctx.a_lead, ctx.fact
        want = [(ridge_report(ctx, t),
                 (-lead * nf.b_(2) * math.cos(t) + fact * nf.a_(2, 0) * math.sin(t)) / ctx.ma(t))
                for t in thetas]
        calls = []
        ma = BlowupContext._ma
        monkeypatch.setattr(BlowupContext, "_ma", lambda *a: calls.append(a) or ma(*a))
        records = geometry_samples(ctx, thetas)
        assert len(calls) == len(thetas)
        for rec, (rr, k10) in zip(records, want):
            assert rec["k10"] == rr.k10 == k10
        # every closed form at one direction comes from one cos and one ma
        counts = Counter()
        cos = math.cos
        monkeypatch.setattr(BlowupContext, "_ma", lambda *a: counts.update(["_ma"]) or ma(*a))
        monkeypatch.setattr(math, "cos", lambda x: counts.update(["cos"]) or cos(x))
        for entry in (lambda: ridge_report(ctx, 0.3), lambda: front_verdict(ctx, 0.3),
                      lambda: geometric_verdict(ctx, 0.3, 0.5)):
            counts.clear()
            entry()
            assert counts == {"_ma": 1, "cos": 1}

    def test_one_cos_per_theta_in_series_columns(self, monkeypatch):
        _, ctx = classified_ctx(GEOMETRY_GERMS["S1+"])
        thetas = theta_grid(32)[:-1]  # without the principal normal
        want = series_columns(ctx, thetas)
        want_entries = crosscheck_closed_forms(ctx, thetas)
        counts = Counter()
        cos, a_ = math.cos, type(ctx.nf).a_
        monkeypatch.setattr(math, "cos", lambda x: counts.update(["cos"]) or cos(x))
        monkeypatch.setattr(type(ctx.nf), "a_", lambda *a: counts.update(["a_"]) or a_(*a))
        cols = series_columns(ctx, thetas)
        assert counts == {"cos": len(thetas)}
        assert {key: [[x.hex() for x in col] for col in series] for key, series in cols.items()} \
            == {key: [[x.hex() for x in col] for col in series] for key, series in want.items()}
        # a cross-check adds cos twice per theta, in ridge_reports and for its
        # reference forms, and reads each theta-independent coefficient once
        counts.clear()
        entries = crosscheck_closed_forms(ctx, thetas)
        assert counts["cos"] == 3 * len(thetas)
        assert counts["a_"] == 7
        assert [(e.symbol, e.pipeline.hex(), e.reference.hex()) for e in entries] == [
            (e.symbol, e.pipeline.hex(), e.reference.hex()) for e in want_entries]
        # the first bad theta in list order names itself, as before
        with pytest.raises(UsageError, match="^theta = nan is not a finite number$"):
            series_columns(ctx, [0.3, math.nan, math.pi / 2])
        with pytest.raises(PrincipalNormalDirectionError, match="theta = 1.5708"):
            series_columns(ctx, [0.3, math.pi / 2, math.inf])


class TestCrosscheck:
    def test_table_complete_and_clean_entries_match(self, draw):
        assert CROSSCHECK_SYMBOLS == (
            "n21", "n31", "L1", "M1", "N1", "N2", "K0", "k11", "k20")
        thetas = [math.pi / 6, math.pi / 4, math.pi / 3]
        for n in range(1, 9):
            ctx = dense_ctx(draw, n)
            entries = crosscheck_closed_forms(ctx, thetas)
            assert len(entries) == len(CROSSCHECK_SYMBOLS) * len(thetas)
            for e in entries:
                scale = max(1.0, abs(e.pipeline))
                assert abs(e.delta) < 1e-9 * scale, (n, e.symbol, e.delta)


class TestAllRidgeDegenerate:
    def test_every_direction_is_a_ridge_when_b3_a30_vanish(self):
        nf = make_nf(
            order=6, mode=FLOAT,
            a={(2, 1): 1.0, (0, 3): 1.0, (2, 0): 0.5, (4, 0): 0.3},
            b={2: 1.0, 4: -0.2},
        )
        ctx = BlowupContext(nf, 1)
        for theta in theta_grid(32):
            assert ridge_report(ctx, theta).is_ridge


class TestDirectionalDerivativeIdentities:
    """The ridge invariants against their defining extremality properties.

    The bounded curvature's first/second derivatives along the lifted
    direction fields are computed from the series pipeline (theta
    derivatives by five-point stencils) and compared with the
    trigonometric invariants:

        v1 k1 |_(r=0)   =  a d1(theta) cos(theta) / ma^2            (all theta)
        v1^2 k1|_(r=0)  =  a^2 d2(theta) cos(theta) / ma^3          (at d1 = 0)
        v2 k1 leading   = -m^2 a^2 d3^2 cos^(3-2n)(theta) / ma^6    (all theta)
    """

    H = 1e-3

    @classmethod
    def _stencil(cls, ctx, t):
        """lifted_series at t - 2h, t - h, t, t + h, t + 2h, in one run."""
        h = cls.H
        return lifted_series(ctx, [t - 2 * h, t - h, t, t + h, t + 2 * h])

    @classmethod
    def _d1(cls, f, stencil):
        fm2, fm1, _, fp1, fp2 = map(f, stencil)
        return (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * cls.H)

    @classmethod
    def _d2(cls, f, stencil):
        h = cls.H
        fm2, fm1, f0, fp1, fp2 = map(f, stencil)
        return (-fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h * h)

    def _v1_k1(self, ctx, theta):
        stencil = self._stencil(ctx, theta)
        cs = stencil[2]
        k10p = self._d1(lambda q: q.k1[0], stencil)
        return cs.xi10 * cs.k1[1] + cs.eta10 * k10p

    def _v1sq_k1(self, ctx, theta):
        stencil = self._stencil(ctx, theta)
        c0 = stencil[2]
        k10p = self._d1(lambda q: q.k1[0], stencil)
        k10pp = self._d2(lambda q: q.k1[0], stencil)
        k11p = self._d1(lambda q: q.k1[1], stencil)
        xi10p = self._d1(lambda q: q.xi10, stencil)
        eta10p = self._d1(lambda q: q.eta10, stencil)
        return c0.xi10 * (
            c0.xi11 * c0.k1[1] + 2 * c0.xi10 * c0.k1[2] + c0.eta11 * k10p
            + c0.eta10 * k11p
        ) + c0.eta10 * (
            xi10p * c0.k1[1] + c0.xi10 * k11p + eta10p * k10p + c0.eta10 * k10pp
        )

    def test_first_derivative_is_delta1(self, draw):
        for n in (1, 2):
            for _ in range(3):
                ctx = dense_ctx(draw, n)
                a, ma = ctx.a_lead, ctx.ma
                for theta in (-0.9, -0.2, 0.5, 1.1):
                    got = self._v1_k1(ctx, theta)
                    want = a * ridge_report(ctx, theta).delta1 * math.cos(theta) / ma(theta) ** 2
                    assert got == pytest.approx(want, rel=1e-8, abs=1e-10)

    def test_second_derivative_is_delta2_at_ridges(self, draw):
        for n in (1, 2):
            for _ in range(3):
                ctx = dense_ctx(draw, n)
                nf, a, m = ctx.nf, ctx.a_lead, ctx.fact
                theta = math.atan(a * nf.b_(3) / (m * nf.a_(3, 0)))
                rr = ridge_report(ctx, theta)
                assert abs(rr.delta1) < 1e-12
                got = self._v1sq_k1(ctx, theta)
                want = (
                    a * a * rr.delta2 * math.cos(theta)
                    / ctx.ma(theta) ** 3
                )
                assert got == pytest.approx(want, rel=1e-5, abs=1e-8)

    def test_unbounded_direction_derivative_is_minus_delta3_squared(self, draw):
        for n in (1, 2):
            ctx = dense_ctx(draw, n)
            a, m = ctx.a_lead, ctx.fact
            for theta in (-0.7, 0.2, 0.9):
                stencil = self._stencil(ctx, theta)
                cs = stencil[2]
                k10p = self._d1(lambda q: q.k1[0], stencil)
                got = cs.eta20 * k10p
                c = math.cos(theta)
                want = (
                    -(m**2) * a**2 * ridge_report(ctx, theta).delta3 ** 2
                    * c ** (3 - 2 * n) / ctx.ma(theta) ** 6
                )
                assert got == pytest.approx(want, rel=1e-7, abs=1e-10)
            # the zero set is exactly the sub-parabolic direction
            th_sp = math.atan(-ctx.nf.a_(2, 0) * a / (m * ctx.nf.b_(2)))
            stencil = self._stencil(ctx, th_sp)
            cs = stencil[2]
            k10p = self._d1(lambda q: q.k1[0], stencil)
            assert abs(cs.eta20 * k10p) < 1e-10


class TestLiftedDirectionRawFits:
    """The principal-direction lift coefficients against raw evaluation.

    The lifted fields are assembled from exact jet data at small r and
    expressed in the (r, theta) frame; their fitted series must match the
    lifted_series xi/eta coefficients.
    """

    def test_lift_coefficients_match_raw(self, draw):
        rs = np.array([0.02, 0.01, 0.005, -0.02, -0.01, -0.005, 0.015, -0.015])
        for n in (1, 2):
            ctx = dense_ctx(draw, n)
            theta = 0.6
            c, s = math.cos(theta), math.sin(theta)
            cs = lifted_series(ctx, [theta])[0]
            vander = np.vander(rs, 6, increasing=True)

            def fit(fn):
                vals = np.array([fn(r) for r in rs])
                coef, *_ = np.linalg.lstsq(vander, vals, rcond=None)
                return coef

            def xi_raw(r):
                q = raw_geometry(ctx, r, theta)
                return (q["N"] - q["kappa"] * q["G"]) * (c - n * s * s / c) - (
                    q["M"] - q["kappa"] * q["F"]
                ) * s / (r**n * c**n)

            def eta_raw(r):
                q = raw_geometry(ctx, r, theta)
                return (
                    -(n + 1) * s * (q["N"] - q["kappa"] * q["G"])
                    - (q["M"] - q["kappa"] * q["F"]) * c ** (1 - n) / r**n
                ) / r

            def eta2_raw(r):
                q = raw_geometry(ctx, r, theta)
                return r ** (2 * n + 1) * (
                    -(n + 1) * s * (q["N"] - q["kappa2"] * q["G"]) / r
                    - (q["M"] - q["kappa2"] * q["F"]) * c ** (1 - n) / r ** (n + 1)
                )

            xi = fit(xi_raw)
            eta = fit(eta_raw)
            eta2 = fit(eta2_raw)
            assert xi[0] == pytest.approx(cs.xi10, rel=1e-6)
            assert xi[1] == pytest.approx(cs.xi11, rel=1e-4, abs=1e-6)
            assert eta[0] == pytest.approx(cs.eta10, rel=1e-6, abs=1e-9)
            assert eta[1] == pytest.approx(cs.eta11, rel=1e-4, abs=1e-6)
            assert eta2[0] == pytest.approx(cs.eta20, rel=1e-6, abs=1e-9)
            assert eta2[1] == pytest.approx(cs.eta21, rel=1e-4, abs=1e-6)
