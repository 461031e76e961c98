import math
from types import SimpleNamespace

import numpy as np
import pytest

from germforge.blowup import (
    BlowupContext,
    K0_closed,
    PointType,
    TrigPowers,
    build_context,
    curvature_series,
    delta1,
    delta3,
    extended_normal,
    fundamental_forms,
    k10_closed,
    normal_r0_closed,
    pullback_series,
    ridge_report,
    s_recip,
    s_sqrt,
    series_columns,
    theta_grid,
)
from germforge.closed_forms import CROSSCHECK_SYMBOLS, crosscheck_closed_forms
from germforge.errors import InternalConsistencyError, PrincipalNormalDirectionError, UsageError
from germforge.jets import FLOAT, Jet2
from germforge.mond import MondClass, MondTag

from conftest import GEOMETRY_GERMS, classified_ctx, make_nf, raw_geometry, unit_defect


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


def random_geometry_nf(rng, n):
    """Random float normal form admissible for blow-up exponent n."""
    a = {
        (n + 1, 1): rng.uniform(0.5, 2.0) * rng.choice([-1, 1]),
        (2, 0): rng.uniform(-1, 1),
        (3, 0): rng.uniform(-1, 1),
        (4, 0): rng.uniform(-1, 1),
        (1, 2): rng.uniform(-1, 1),
        (2, 2): rng.uniform(-1, 1),
    }
    if n + 2 <= 5:
        a[(n + 2, 1)] = rng.uniform(-1, 1)
    a[(n + 3, 1)] = rng.uniform(-1, 1)
    if n == 1:
        a[(0, 3)] = rng.uniform(-1, 1)
    b = {2: rng.uniform(-1, 1), 3: rng.uniform(-1, 1), 4: rng.uniform(-1, 1)}
    return make_nf(order=n + 4, mode=FLOAT, a=a, b=b)


def lifted_series(ctx, theta):
    """curvature_series at theta plus the principal-direction lift coefficients.

    xi1*, eta1* lift the bounded principal direction and eta2* the unbounded
    one into the (r, theta) frame, as series in r; they are built from the
    pipeline's form and curvature series.
    """
    n = ctx.n
    c, s = math.cos(theta), math.sin(theta)
    fs = fundamental_forms(ctx, theta)
    cs = curvature_series(ctx, theta, forms=fs)
    cn = c**n
    tanpart = c - n * s * s / c
    return SimpleNamespace(
        **vars(cs),
        xi10=fs.N[0] * tanpart - fs.M[0] * s / cn,
        xi11=fs.N[1] * tanpart - fs.M[1] * s / cn,
        eta10=-(n + 1) * fs.N[1] * s - fs.M[1] * c / cn,
        eta11=-(n + 1) * fs.N[2] * s - (fs.M[2] - cs.k1[0] * fs.F[0]) * c / cn,
        eta20=cs.k2[0] * fs.F[0] * c / cn,
        eta21=(cs.k2[0] * fs.F[1] + cs.k2[1] * fs.F[0]) * c / cn,
    )


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
        with pytest.raises(UsageError):
            build_context(nf, MondClass(MondTag.CROSS_CAP))


def pullback_at(ctx, jet, theta, *args, **kwargs):
    """pullback_series on the one-theta grid, as a plain list of coefficients."""
    return [col[0] for col in pullback_series(ctx, jet, TrigPowers([theta]), *args, **kwargs)]


class TestPullback:
    def test_uv_with_n_1(self):
        ctx = BlowupContext(nf_s1(), 1)
        theta = 0.6
        jet = Jet2(6, {(1, 1): 1.0}, FLOAT)
        series = pullback_at(ctx, jet, theta, depth=3)
        c, s = math.cos(theta), math.sin(theta)
        assert series[3] == pytest.approx(c * c * s)
        assert series[:3] == [0.0, 0.0, 0.0]

    def test_constant(self):
        ctx = BlowupContext(nf_s1(), 1)
        jet = Jet2(6, {(0, 0): 2.5}, FLOAT)
        assert pullback_at(ctx, jet, 0.3)[0] == 2.5

    def test_v_squared_with_n_2(self):
        ctx = BlowupContext(nf_n2(), 2)
        theta = -0.4
        jet = Jet2(7, {(0, 2): 1.0}, FLOAT)
        series = pullback_at(ctx, jet, theta, depth=6)
        c, s = math.cos(theta), math.sin(theta)
        assert series[6] == pytest.approx(c**4 * s**2)
        assert all(x == 0 for x in series[:6])

    def test_shift_must_divide_every_term(self):
        ctx = BlowupContext(nf_s1(), 1)
        # u^2 / r^2 = cos^2 theta; u / r^2 has no series
        assert pullback_at(ctx, Jet2(6, {(2, 0): 1.0}, FLOAT), 0.3, 2, 2)[0] == (
            math.cos(0.3) ** 2
        )
        with pytest.raises(InternalConsistencyError, match="does not divide the u\\^1 v\\^0"):
            pullback_at(ctx, Jet2(6, {(1, 0): 1e-6, (2, 0): 1.0}, FLOAT), 0.3, 2, 2)


class TestColumnPipeline:
    """One pipeline run over a theta grid against one run per theta."""

    @staticmethod
    def contexts(rng):
        ctxs = [classified_ctx(GEOMETRY_GERMS[label])[1] for label in sorted(GEOMETRY_GERMS)]
        return ctxs + [BlowupContext(random_geometry_nf(rng, 3), 3)]

    def test_grid_equals_one_theta_bit_for_bit(self, rng):
        thetas = theta_grid(128)[:-1]  # every node but pi/2
        ctxs = self.contexts(rng)
        assert sorted({ctx.n for ctx in ctxs}) == [1, 2, 3]
        for ctx in ctxs:
            cols = series_columns(ctx, thetas)
            for idx, theta in enumerate(thetas):
                fs = fundamental_forms(ctx, theta)
                cs = curvature_series(ctx, theta)
                normal = extended_normal(ctx, theta)
                assert fs.normal == normal
                one = {**vars(normal), **vars(fs), **vars(cs)}
                for key in ("n1", "n2", "n3", "E", "F", "G", "L", "M", "N", "K", "k1", "k2"):
                    grid = [col[idx].hex() for col in cols[key]]
                    assert grid == [x.hex() for x in one[key]], (ctx.n, theta, key)

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
            pullback_series(ctx, jet, TrigPowers([-0.5, 0.3, 1.2]), 2, 2)


class TestExtendedNormal:
    def test_at_pi_over_2(self):
        ctx = BlowupContext(nf_s1(), 1)
        n1, n2, n3 = normal_r0_closed(ctx, math.pi / 2)
        assert (n1, n2) == (0.0, pytest.approx(0.0))
        assert n3 == pytest.approx(1.0)

    def test_at_zero(self):
        ctx = BlowupContext(nf_s1(), 1)
        _, n2, n3 = normal_r0_closed(ctx, 0.0)
        assert n2 == pytest.approx(-math.copysign(1.0, ctx.a_lead))
        assert n3 == 0.0

    def test_s1_quarter_turn_values(self):
        # a_21 = sqrt(2), n = 1: ma(pi/4) = sqrt(3)
        nf = make_nf(
            order=5, mode=FLOAT,
            a={(2, 1): math.sqrt(2), (0, 3): 3 / math.sqrt(2)},
        )
        ctx = BlowupContext(nf, 1)
        _, n2, n3 = normal_r0_closed(ctx, math.pi / 4)
        assert n2 == pytest.approx(-1 / math.sqrt(3))
        assert n3 == pytest.approx(math.sqrt(2) / math.sqrt(3))
        series = extended_normal(ctx, math.pi / 4)
        assert series.n2[0] == pytest.approx(n2)
        assert series.n3[0] == pytest.approx(n3)

    def test_unit_length_through_depth_two(self, rng):
        for n in (1, 2):
            for _ in range(10):
                ctx = BlowupContext(random_geometry_nf(rng, n), n)
                for theta in theta_grid(64):
                    defect = unit_defect(extended_normal(ctx, theta))
                    assert max(abs(x) for x in defect) < 1e-10

    def test_forms_carry_the_normal_they_used(self, rng):
        for n in (1, 2, 3):
            ctx = BlowupContext(random_geometry_nf(rng, n), n)
            for theta in theta_grid(16):
                normal = fundamental_forms(ctx, theta).normal
                assert normal == extended_normal(ctx, theta)


class TestFormsAndCurvature:
    def test_e2_vanishes_at_pi_over_2(self):
        ctx = BlowupContext(nf_s1(), 1)
        fs = fundamental_forms(ctx, math.pi / 2)
        assert abs(fs.E[2]) < 1e-12

    def test_g0_vanishes_at_pi_over_2(self):
        for nfb, n in ((nf_s1(), 1), (nf_n2(), 2)):
            ctx = BlowupContext(nfb, n)
            fs = fundamental_forms(ctx, math.pi / 2)
            assert abs(fs.G[0]) < 1e-12

    def test_l0_at_pi_over_2_is_a20(self):
        ctx = BlowupContext(nf_s1(), 1)
        fs = fundamental_forms(ctx, math.pi / 2)
        assert fs.L[0] == pytest.approx(ctx.nf.a_(2, 0))

    def test_k0_at_theta_zero(self):
        for nfb, n in ((nf_s1(), 1), (nf_n2(), 2)):
            ctx = BlowupContext(nfb, n)
            expected = ctx.fact**2 * ctx.nf.b_(2) / ctx.a_lead**2
            assert K0_closed(ctx, 0.0) == pytest.approx(expected)
            cs = curvature_series(ctx, 0.0)
            assert cs.K[0] == pytest.approx(expected)

    def test_k10_limit_at_pi_over_2(self):
        # the closed form of the bounded curvature stays finite at pi/2
        ctx = BlowupContext(nf_s1(), 1)
        assert k10_closed(ctx, math.pi / 2) == pytest.approx(ctx.nf.a_(2, 0))

    def test_principal_normal_direction_error(self):
        ctx = BlowupContext(nf_s1(), 1)
        with pytest.raises(PrincipalNormalDirectionError):
            curvature_series(ctx, math.pi / 2)

    def test_xi10_closed_form(self, rng):
        for n in (1, 2):
            ctx = BlowupContext(random_geometry_nf(rng, n), n)
            for theta in (-1.1, -0.3, 0.2, 0.9):
                cs = lifted_series(ctx, theta)
                assert cs.xi10 == pytest.approx(-ctx.a_lead / ctx.ma(theta))

    def test_eta10_closed_form(self, rng):
        # eta10 = -((n+2)! a12 sin + a_{n+2,1} cos) cos sin / ((n+2) ma)
        for n in (1, 2):
            ctx = BlowupContext(random_geometry_nf(rng, n), n)
            nf = ctx.nf
            for theta in (-0.7, 0.4):
                c, s = math.cos(theta), math.sin(theta)
                expected = (
                    -(math.factorial(n + 2) * nf.a_(1, 2) * s
                      + nf.a_(n + 2, 1) * c) * c * s
                    / ((n + 2) * ctx.ma(theta))
                )
                cs = lifted_series(ctx, theta)
                assert cs.eta10 == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_eta20_at_zero(self):
        for nfb, n in ((nf_s1(), 1), (nf_n2(), 2)):
            ctx = BlowupContext(nfb, n)
            cs = lifted_series(ctx, 0.0)
            expected = (
                -ctx.fact * ctx.nf.a_(2, 0) * ctx.a_lead**2 / ctx.ma(0.0) ** 3
            )
            assert cs.eta20 == pytest.approx(expected, abs=1e-12)

    def test_identity_suite_small(self, rng):
        # k10 = L0, K0 = k10 k20, K1 = k10 k21 + k11 k20 on random germs
        for n in (1, 2):
            for _ in range(5):
                ctx = BlowupContext(random_geometry_nf(rng, n), n)
                for theta in theta_grid(16):
                    if abs(math.cos(theta)) < 0.05:
                        continue
                    fs = fundamental_forms(ctx, theta)
                    cs = curvature_series(ctx, theta, forms=fs)
                    scale = max(1.0, abs(cs.K[0]), abs(cs.K[1]))
                    assert abs(cs.k1[0] - fs.L[0]) <= 1e-10 * max(1.0, abs(fs.L[0]))
                    assert abs(cs.K[0] - cs.k1[0] * cs.k2[0]) <= 1e-10 * scale
                    assert (
                        abs(cs.K[1] - (cs.k1[0] * cs.k2[1] + cs.k1[1] * cs.k2[0]))
                        <= 1e-10 * scale
                    )

    def test_k12_identity(self, rng):
        # k12 = -E2 L0 + L2 - eps M0^2 / N0
        for n in (1, 2):
            ctx = BlowupContext(random_geometry_nf(rng, n), n)
            for theta in (0.5, -0.8):
                fs = fundamental_forms(ctx, theta)
                cs = curvature_series(ctx, theta, forms=fs)
                expected = -fs.E[2] * fs.L[0] + fs.L[2] - ctx.epsilon * fs.M[0]**2 / fs.N[0]
                assert cs.k1[2] == pytest.approx(expected, rel=1e-9, abs=1e-12)


class TestRawSeriesOracle:
    """The series pipeline against direct evaluation at small r."""

    def test_series_match_raw_fits(self, rng):
        rs = np.array([0.02, 0.01, 0.005, -0.02, -0.01, -0.005, 0.015, -0.015])
        for n in (1, 2):
            ctx = BlowupContext(random_geometry_nf(rng, n), n)
            for theta in (0.5, -0.9):
                ns = extended_normal(ctx, theta)
                fs = fundamental_forms(ctx, theta)
                vander = np.vander(rs, 4, increasing=True)
                raws = [raw_geometry(ctx, r, theta) for r in rs]
                for key, vals, series in (
                    ("n2", [q["normal"][1] for q in raws], ns.n2),
                    ("n3", [q["normal"][2] for q in raws], ns.n3),
                    ("L", [q["L"] for q in raws], fs.L),
                    ("N", [q["N"] for q in raws], fs.N),
                ):
                    fit, *_ = np.linalg.lstsq(vander, np.array(vals), rcond=None)
                    for k in range(3):
                        assert abs(series[k] - fit[k]) < 5e-4 * max(
                            1.0, abs(series[k])
                        ), (n, theta, key, k)


class TestRidge:
    def test_theta_zero_trivia(self, rng):
        for n in (1, 2):
            ctx = BlowupContext(random_geometry_nf(rng, n), n)
            nf = ctx.nf
            assert delta1(ctx, 0.0) == pytest.approx(ctx.a_lead * nf.b_(3))
            assert delta3(ctx, 0.0) == pytest.approx(nf.a_(2, 0) * ctx.a_lead)
            assert delta1(ctx, math.pi / 2) == pytest.approx(
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

    def test_delta1_zero_count(self, rng):
        # nonzero linear form in (cos, sin): at most one zero mod pi
        for _ in range(5):
            ctx = BlowupContext(random_geometry_nf(rng, 1), 1)
            zeros = 0
            grid = theta_grid(512)
            vals = [delta1(ctx, t) for t in grid]
            for a, b in zip(vals, vals[1:]):
                if a == 0 or (a < 0) != (b < 0):
                    zeros += 1
            assert zeros <= 1


class TestCrosscheck:
    def test_table_complete_and_clean_entries_match(self, rng):
        assert CROSSCHECK_SYMBOLS == ("n21", "n31", "L1", "M1", "N1", "N2", "k11")
        thetas = [math.pi / 6, math.pi / 4, math.pi / 3]
        for n in (1, 2, 3, 5):
            ctx = BlowupContext(random_geometry_nf(rng, n), n)
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
    def _d1(cls, f, t):
        h = cls.H
        return (-f(t + 2 * h) + 8 * f(t + h) - 8 * f(t - h) + f(t - 2 * h)) / (12 * h)

    @classmethod
    def _d2(cls, f, t):
        h = cls.H
        return (
            -f(t + 2 * h) + 16 * f(t + h) - 30 * f(t) + 16 * f(t - h) - f(t - 2 * h)
        ) / (12 * h * h)

    def _v1_k1(self, ctx, theta):
        cs = lifted_series(ctx, theta)
        k10p = self._d1(lambda t: curvature_series(ctx, t).k1[0], theta)
        return cs.xi10 * cs.k1[1] + cs.eta10 * k10p

    def _v1sq_k1(self, ctx, theta):
        c0 = lifted_series(ctx, theta)
        k10p = self._d1(lambda t: curvature_series(ctx, t).k1[0], theta)
        k10pp = self._d2(lambda t: curvature_series(ctx, t).k1[0], theta)
        k11p = self._d1(lambda t: curvature_series(ctx, t).k1[1], theta)
        xi10p = self._d1(lambda t: lifted_series(ctx, t).xi10, theta)
        eta10p = self._d1(lambda t: lifted_series(ctx, t).eta10, theta)
        return c0.xi10 * (
            c0.xi11 * c0.k1[1] + 2 * c0.xi10 * c0.k1[2] + c0.eta11 * k10p
            + c0.eta10 * k11p
        ) + c0.eta10 * (
            xi10p * c0.k1[1] + c0.xi10 * k11p + eta10p * k10p + c0.eta10 * k10pp
        )

    def test_first_derivative_is_delta1(self, rng):
        from germforge.blowup import delta1

        for n in (1, 2):
            for _ in range(3):
                ctx = BlowupContext(random_geometry_nf(rng, n), n)
                a, ma = ctx.a_lead, ctx.ma
                for theta in (-0.9, -0.2, 0.5, 1.1):
                    got = self._v1_k1(ctx, theta)
                    want = a * delta1(ctx, theta) * math.cos(theta) / ma(theta) ** 2
                    assert got == pytest.approx(want, rel=1e-8, abs=1e-10)

    def test_second_derivative_is_delta2_at_ridges(self, rng):
        from germforge.blowup import delta1, delta2

        for n in (1, 2):
            for _ in range(3):
                ctx = BlowupContext(random_geometry_nf(rng, n), n)
                nf, a, m = ctx.nf, ctx.a_lead, ctx.fact
                theta = math.atan(a * nf.b_(3) / (m * nf.a_(3, 0)))
                assert abs(delta1(ctx, theta)) < 1e-12
                got = self._v1sq_k1(ctx, theta)
                want = (
                    a * a * delta2(ctx, theta) * math.cos(theta)
                    / ctx.ma(theta) ** 3
                )
                assert got == pytest.approx(want, rel=1e-5, abs=1e-8)

    def test_unbounded_direction_derivative_is_minus_delta3_squared(self, rng):
        from germforge.blowup import delta3

        for n in (1, 2):
            ctx = BlowupContext(random_geometry_nf(rng, n), n)
            a, m = ctx.a_lead, ctx.fact
            for theta in (-0.7, 0.2, 0.9):
                cs = lifted_series(ctx, theta)
                k10p = self._d1(lambda t: curvature_series(ctx, t).k1[0], theta)
                got = cs.eta20 * k10p
                c = math.cos(theta)
                want = (
                    -(m**2) * a**2 * delta3(ctx, theta) ** 2
                    * c ** (3 - 2 * n) / ctx.ma(theta) ** 6
                )
                assert got == pytest.approx(want, rel=1e-7, abs=1e-10)
            # the zero set is exactly the sub-parabolic direction
            th_sp = math.atan(-ctx.nf.a_(2, 0) * a / (m * ctx.nf.b_(2)))
            cs = lifted_series(ctx, th_sp)
            k10p = self._d1(lambda t: curvature_series(ctx, t).k1[0], th_sp)
            assert abs(cs.eta20 * k10p) < 1e-10


class TestLiftedDirectionRawFits:
    """The principal-direction lift coefficients against raw evaluation.

    The lifted fields are assembled from exact jet data at small r and
    expressed in the (r, theta) frame; their fitted series must match the
    lifted_series xi/eta coefficients.
    """

    def test_lift_coefficients_match_raw(self, rng):
        rs = np.array([0.02, 0.01, 0.005, -0.02, -0.01, -0.005, 0.015, -0.015])
        for n in (1, 2):
            ctx = BlowupContext(random_geometry_nf(rng, n), n)
            theta = 0.6
            c, s = math.cos(theta), math.sin(theta)
            cs = lifted_series(ctx, theta)
            vander = np.vander(rs, 4, increasing=True)

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
