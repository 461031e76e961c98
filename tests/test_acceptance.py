"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Tolerances are pinned here and nowhere else."""

import math
import random
from fractions import Fraction

import numpy as np

from germforge import blowup
from germforge.blowup import (
    K0_closed,
    build_context,
    ridge_report,
    series_columns,
    theta_grid,
)
from germforge.closed_forms import CROSSCHECK_SYMBOLS, crosscheck_closed_forms
from germforge.distance import (
    DistSing,
    ProbePoint,
    agrees_with_oracle,
    classify_distance,
    distance_jet,
    focal_locus,
    geometric_verdict,
    singular_point_type,
    FocalKind,
    SingularPointType,
)
from germforge.front import WavefrontSpec, surface_mesh, wavefront_mesh
from germforge.jets import FLOAT
from germforge.mond import MondTag, bk_recursion, classify
from germforge.normal_form import reduce_to_normal_form
from germforge.oracle import K_EQUIV, R_PLUS, split_and_type
from germforge.distance import versality_rank_test

import germ_source
from conftest import (
    germ_from_strings,
    make_nf,
    prenormal_configs,
    rand_fraction,
    raw_geometry,
    series_at,
    shifted_a1,
    unit_defect,
)


def _line(num, name, ok):
    print("[acceptance] criterion %2d (%s): %s" % (num, name, "PASS" if ok else "FAIL"))


class _Reporter:
    """Prints the criterion verdict even when the assertions inside failed."""

    def __init__(self, num, name):
        self.num, self.name = num, name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        _line(self.num, self.name, exc_type is None)
        return False


# ---------------------------------------------------------------------------
# 1. golden classification suite
# ---------------------------------------------------------------------------


def test_criterion_1_golden_suite():
    with _Reporter(1, "golden classification suite"):
        cases = []
        cases.append((["u", "v^2", "u*v"], MondTag.CROSS_CAP, None, None))
        for k in range(1, 6):
            for sigma, stxt in ((1, "+"), (-1, "-")):
                comp = "v^3 + %s*u^%d*v" % ("" if sigma == 1 else "-1", k + 1)
                comp = comp.replace("+ *", "+ ").replace("%s" % "", "")
                comp = "v^3 %s u^%d*v" % ("+" if sigma == 1 else "-", k + 1)
                expected_sign = None if k % 2 == 0 else stxt
                cases.append((["u", "v^2", comp], MondTag.S, k, expected_sign))
        for k in range(2, 6):
            for sigma, stxt in ((1, "+"), (-1, "-")):
                comp = "u^2*v %s v^%d" % ("+" if sigma == 1 else "-", 2 * k + 1)
                cases.append((["u", "v^2", comp], MondTag.B, k, stxt))
        for k in range(3, 6):
            for sigma, stxt in ((1, "+"), (-1, "-")):
                comp = "u*v^3 %s u^%d*v" % ("+" if sigma == 1 else "-", k)
                expected_sign = None if k % 2 == 0 else stxt
                cases.append((["u", "v^2", comp], MondTag.C, k, expected_sign))
        cases.append((["u", "v^2", "u^3*v + v^5"], MondTag.F4, None, None))

        failures = []
        for comps, tag, k, sign in cases:
            order = max(13, (2 * (k or 2) + 1) + 2)
            germ = germ_from_strings(comps, order)
            if tag is MondTag.CROSS_CAP:
                from germforge.pipeline import classify_germ

                mond = classify_germ(germ).mond
            else:
                nf, _ = reduce_to_normal_form(germ)
                mond = classify(nf).mond
            ok = mond.tag is tag and mond.k == k and mond.sign == sign
            if not ok:
                failures.append((comps, tag, k, sign, mond))
        assert not failures, failures


# ---------------------------------------------------------------------------
# 2. recursion identities
# ---------------------------------------------------------------------------


def test_criterion_2_recursion_identities():
    with _Reporter(2, "shift-constant recursion identities"):
        rng = random.Random(202)
        for trial in range(100):
            a21 = rand_fraction(rng, nonzero=True)
            a13 = rand_fraction(rng)
            a05 = rand_fraction(rng)
            extra = {
                (3, 1): rand_fraction(rng),
                (1, 5): rand_fraction(rng),
                (2, 3): rand_fraction(rng),
            }
            nf = make_nf(
                order=9,
                a={(2, 1): a21, (1, 3): a13, (0, 5): a05, **extra},
            )
            trace = bk_recursion(nf, 2)
            assert trace.c[2] == -a13 / (6 * a21)
            assert trace.xi[2] == (3 * a05 * a21 - 5 * a13**2) / (360 * a21)
            k = rng.choice((2, 3, 4))
            trace_k = bk_recursion(nf, k)
            # the shift kills every a_{1,2n-1}, and xi_2 does not depend on k
            assert shifted_a1(nf, trace_k) == {n: 0 for n in range(2, k + 1)}
            assert trace_k.xi[2] == trace.xi[2]


# ---------------------------------------------------------------------------
# 3. oracle equivalence for the distance classifier
# ---------------------------------------------------------------------------


def test_criterion_3_oracle_equivalence():
    with _Reporter(3, "distance classifier vs splitting oracle"):
        total = 0
        disagreements = []
        for nf, p in prenormal_configs(germ_source.draw("criterion 3"), 220):
            verdict = classify_distance(nf, p)
            typ = split_and_type(distance_jet(nf, p, 6), 6)
            total += 1
            if not agrees_with_oracle(verdict.sing_type, typ):
                disagreements.append((nf, p, verdict.sing_type, typ.label))
        assert total >= 200
        assert not disagreements, disagreements[:3]


# ---------------------------------------------------------------------------
# 4. versality: closed forms vs rank oracle
# ---------------------------------------------------------------------------


def _engineered_configs(rng):
    """Configurations hitting the deeper branches exactly."""
    configs = []
    # (3a) with and without the K-versality witness
    nf = make_nf(order=6,
                 a={(2, 0): 1, (3, 0): -1, (2, 1): 1, (0, 3): 1, (4, 0): 2},
                 b={2: 1, 3: 1, 4: 1})
    configs.append((nf, ProbePoint(Fraction(0), Fraction(1, 2), Fraction(1, 2))))
    # (2b), (3b), (5)
    nf2 = make_nf(order=6, a={(2, 0): 1, (0, 3): 1, (2, 1): 1}, b={2: 1})
    configs.append((nf2, ProbePoint(Fraction(0), Fraction(0), Fraction(2))))
    configs.append((nf2, ProbePoint(Fraction(0), Fraction(0), Fraction(1))))
    nf3 = make_nf(order=6, a={(2, 0): 1, (2, 1): 1}, b={2: 1})
    configs.append((nf3, ProbePoint(Fraction(0), Fraction(0), Fraction(3))))
    # (4a): on both lines with the quartic witness killed via b4
    y0 = z0 = Fraction(1, 2)
    # b2=a20=1, b3=1, a30=-1 -> lines meet at (1/2, 1/2); choose b4 so C4 = 0
    # C4 = b4 y0^2 + a40 y0 z0 - 3 a21^2 z0^2 - 3 (a20^2 + b2^2) y0
    a40, a21 = Fraction(2), Fraction(1)
    b4 = (3 * a21**2 * z0**2 + 3 * 2 * y0 - a40 * y0 * z0) / (y0 * y0)
    nf4 = make_nf(order=8,
                  a={(2, 0): 1, (3, 0): -1, (2, 1): a21, (0, 3): 1, (4, 0): a40},
                  b={2: 1, 3: 1, 4: b4})
    configs.append((nf4, ProbePoint(Fraction(0), y0, z0)))
    # (4a) exactly A4: degree-5 data keeps the residual quintic alive;
    # (a30, b3) != (0, 0) makes this the R+-versal branch
    nf4a = make_nf(order=8,
                   a={(2, 0): 1, (3, 0): -1, (2, 1): a21, (0, 3): 1,
                      (4, 0): a40, (5, 0): 3},
                   b={2: 1, 3: 1, 4: b4, 5: 2})
    configs.append((nf4a, ProbePoint(Fraction(0), y0, z0)))
    # the negative twin: a30 = b3 = 0, so the whole line is past-A2 and
    # the A4 unfolding is not R+-versal
    b4n = (3 * a21**2 * z0**2 + 3 * 2 * y0 - a40 * y0 * z0) / (y0 * y0)
    nf4b = make_nf(order=8,
                   a={(2, 0): 1, (2, 1): a21, (0, 3): 1, (4, 0): a40, (5, 0): 3},
                   b={2: 1, 4: b4n, 5: 2})
    configs.append((nf4b, ProbePoint(Fraction(0), y0, z0)))
    return configs


def test_criterion_4_versality_dual_implementation():
    with _Reporter(4, "versality closed forms vs rank oracle"):
        rng = germ_source.draw("criterion 4")
        mismatches = []
        checked = 0
        configs = prenormal_configs(rng, 95) + _engineered_configs(rng)
        assert len(configs) >= 100
        for nf, p in configs:
            verdict = classify_distance(nf, p)
            for flavor, closed in (
                (R_PLUS, verdict.r_plus_versal),
                (K_EQUIV, verdict.k_versal),
            ):
                rank = versality_rank_test(nf, p, flavor)
                checked += 1
                if rank != closed:
                    mismatches.append(
                        (verdict.sing_type, verdict.case, flavor, closed, rank)
                    )
        assert checked >= 200
        assert not mismatches, mismatches[:4]


# ---------------------------------------------------------------------------
# 5. curvature limit
# ---------------------------------------------------------------------------

# the classes of the float forms of criteria 5, 6, 7 and 9, either sign
_FLOAT_CLASSES = ("S1", "S2", "B2", "C3", "F4")


def _float_class_form(rng, name):
    """A float order-7 pre-normal form of the class ``name`` and its label."""
    g, _, _ = germ_source.prenormal(rng, name, order=7)
    return make_nf(order=7, mode=FLOAT, a=g.a, b=g.b), g.label()[0]


def test_criterion_5_curvature_limit():
    with _Reporter(5, "scaled Gaussian curvature limit"):
        rng = germ_source.draw("criterion 5")
        # the order estimate reads the first three radii; the intercept is
        # fitted through all four, since a quadratic fit through three leaves
        # an error of about K3 r1 r2 r3, 1.3e-4 |K0| on an S1- form with
        # |K1 / K0| near 100
        radii = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
        thetas = np.linspace(-1.1, 1.1, 16)
        order_checked = 0
        for name in _FLOAT_CLASSES:
            for trial in range(10):
                nf, label = _float_class_form(rng, name)
                mond = classify(nf).mond
                assert mond.label == label, (name, trial)
                ctx = build_context(nf, mond)
                germ = nf.reconstruct()
                power = 2 * ctx.n + 2
                cols = series_columns(ctx, thetas)
                for idx, theta in enumerate(thetas):
                    k0 = K0_closed(ctx, theta)
                    vals = [
                        r**power * raw_geometry(ctx, r, theta, germ)["K"] for r in radii
                    ]
                    errs = [abs(v - k0) for v in vals]
                    fit = np.polyfit(radii, vals, 3)
                    assert abs(fit[3] - k0) <= 1e-4 * abs(k0), (
                        name, trial, theta, fit[3], k0,
                    )
                    if errs[0] < 1e-9:
                        continue  # converged to rounding already
                    # observed order is meaningful only when one term of the
                    # error expansion K1 r + K2 r^2 dominates across the radii;
                    # near the crossover radius |K1/K2| the plain estimator
                    # dips below the true order, so that band is excluded
                    # (the fitted-K0 check above still binds there).
                    K = [col[idx] for col in cols["K"]]
                    if abs(K[2]) > 1e-12:
                        crossover = abs(K[1] / K[2])
                        if 5e-4 < crossover < 6e-2:
                            continue
                    assert errs[0] > errs[1] > errs[2], (name, trial, theta, errs)
                    order_obs = math.log2(errs[0] / errs[2]) / 2.0
                    # the estimator carries an O(r) bias around the true order
                    assert order_obs >= 0.9, (name, trial, theta, order_obs)
                    order_checked += 1
        assert order_checked >= 600  # the vast majority of the 800 samples


# ---------------------------------------------------------------------------
# 6. identity suite
# ---------------------------------------------------------------------------


def test_criterion_6_identity_suite():
    with _Reporter(6, "curvature factorization and unit-normal identities"):
        rng = germ_source.draw("criterion 6")
        for i in range(20):
            nf, _ = _float_class_form(rng, _FLOAT_CLASSES[i % len(_FLOAT_CLASSES)])
            ctx = build_context(nf, classify(nf).mond)
            grid = theta_grid(32)
            # the normal exists on the whole grid, pi/2 included
            forms = blowup.build_series(ctx, grid, [math.cos(t) for t in grid])
            for idx in range(len(grid)):
                defect = unit_defect(forms, idx)
                assert max(abs(x) for x in defect) <= 1e-10
            off = [theta for theta in grid if abs(math.cos(theta)) > 1e-7]
            cols = series_columns(ctx, off)
            for idx in range(len(off)):
                q = series_at(cols, idx)
                K, k1, k2, L = q["K"], q["k1"], q["k2"], q["L"]
                scale = max(1.0, abs(K[0]), abs(K[1]))
                assert abs(k1[0] - L[0]) <= 1e-10 * max(1.0, abs(L[0]))
                assert abs(K[0] - k1[0] * k2[0]) <= 1e-10 * scale
                assert abs(K[1] - (k1[0] * k2[1] + k1[1] * k2[0])) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# 7. route agreement
# ---------------------------------------------------------------------------


def test_criterion_7_route_agreement():
    with _Reporter(7, "geometric vs coefficient distance verdicts"):
        rng = germ_source.draw("criterion 7")
        seen = {name: set() for name in _FLOAT_CLASSES}
        count = 0
        for name in _FLOAT_CLASSES:
            for trial in range(5):
                nf, _ = _float_class_form(rng, name)
                ctx = build_context(nf, classify(nf).mond)
                # A1: off the focal locus
                theta0 = rng.uniform(-1.1, 1.1)
                lam = 1.0 / ridge_report(ctx, theta0).k10 + rng.uniform(0.3, 1.0)
                gv = geometric_verdict(ctx, theta0, lam)
                seen[name].add(gv.verdict.sing_type)
                count += 1
                # A2: focal, generic theta (non-ridge)
                theta0 = rng.uniform(-1.1, 1.1)
                rr = ridge_report(ctx, theta0)
                if not rr.is_ridge:
                    gv = geometric_verdict(ctx, theta0, 1.0 / rr.k10)
                    seen[name].add(gv.verdict.sing_type)
                    count += 1
                # A3: focal at the ridge direction
                a, m = ctx.a_lead, ctx.fact
                theta_star = math.atan2(a * nf.b_(3), m * nf.a_(3, 0))
                if abs(math.cos(theta_star)) < 0.2:
                    theta_star -= math.copysign(math.pi, theta_star)
                rr = ridge_report(ctx, theta_star)
                if rr.is_first_order_ridge and abs(rr.k10) > 1e-3:
                    gv = geometric_verdict(ctx, theta_star, 1.0 / rr.k10)
                    seen[name].add(gv.verdict.sing_type)
                    count += 1
                # random lambdas (usually A1)
                for _ in range(2):
                    theta0 = rng.uniform(-1.1, 1.1)
                    lam = rng.uniform(0.2, 3.0) * rng.choice([-1, 1])
                    gv = geometric_verdict(ctx, theta0, lam)
                    seen[name].add(gv.verdict.sing_type)
                    count += 1
        assert count >= 100, count
        for name, kinds in seen.items():
            for want in (DistSing.A1, DistSing.A2, DistSing.A3):
                assert want in kinds, (name, want, kinds)


# ---------------------------------------------------------------------------
# 8. focal trichotomy
# ---------------------------------------------------------------------------


def test_criterion_8_focal_trichotomy():
    with _Reporter(8, "focal locus vs singular point type"):
        crafted = [
            ({(2, 0): 1, (2, 1): 1}, {2: 1}, FocalKind.INTERSECTING_PAIR,
             SingularPointType.HYPERBOLIC),
            ({(2, 1): 1}, {2: 1}, FocalKind.PARALLEL_PAIR,
             SingularPointType.INFLECTION),
            ({(2, 1): 1}, {}, FocalKind.SINGLE_LINE,
             SingularPointType.DEGENERATE_INFLECTION),
        ]
        for a, b, kind, stype in crafted:
            nf = make_nf(order=4, a=a, b=b)
            assert focal_locus(nf).kind is kind
            assert singular_point_type(nf) is stype
        correspondence = {
            FocalKind.INTERSECTING_PAIR: SingularPointType.HYPERBOLIC,
            FocalKind.PARALLEL_PAIR: SingularPointType.INFLECTION,
            FocalKind.SINGLE_LINE: SingularPointType.DEGENERATE_INFLECTION,
        }
        rng = germ_source.draw("criterion 8")
        for _ in range(50):
            a, b = germ_source.dense_form(rng, 6)
            no_a20 = {key: c for key, c in a.items() if key != (2, 0)}
            no_b2 = {i: c for i, c in b.items() if i != 2}
            # the drawn form, its inflection twin (a20 = 0) and its degenerate
            # inflection twin (a20 = b2 = 0)
            for twin_a, twin_b in ((a, b), (no_a20, b), (no_a20, no_b2)):
                nf = make_nf(order=6, a=twin_a, b=twin_b)
                assert correspondence[focal_locus(nf).kind] is singular_point_type(nf)
        # additionally: the D-branch condition is unsatisfiable without a20
        nf = make_nf(order=4, a={(2, 1): 1}, b={2: 1})
        verdict = classify_distance(nf, ProbePoint(Fraction(0), Fraction(0), Fraction(7)))
        assert verdict.sing_type is not DistSing.D4PLUS


# ---------------------------------------------------------------------------
# 9. closed-form crosscheck corpus
# ---------------------------------------------------------------------------


def test_criterion_9_crosscheck_report():
    with _Reporter(9, "closed-form delta table"):
        rng = germ_source.draw("criterion 9")
        thetas = [math.pi / 6, math.pi / 4, math.pi / 3]
        checked = 0
        for name in _FLOAT_CLASSES:
            nf, _ = _float_class_form(rng, name)
            ctx = build_context(nf, classify(nf).mond)
            entries = crosscheck_closed_forms(ctx, thetas)
            assert len(entries) == len(CROSSCHECK_SYMBOLS) * len(thetas)
            for e in entries:
                scale = max(1.0, abs(e.pipeline))
                assert abs(e.delta) < 1e-9 * scale, (e.symbol, e.theta, e.delta)
            checked += len(entries)
        print("[acceptance]   asserted %d deltas of %s"
              % (checked, ", ".join(CROSSCHECK_SYMBOLS)))


# ---------------------------------------------------------------------------
# 10. mesh sanity
# ---------------------------------------------------------------------------


def test_criterion_10_mesh_sanity():
    with _Reporter(10, "offset mesh invariants"):
        germ = germ_from_strings(["u", "v^2", "v^3 + u^2*v"], 5).to_float()
        surf = surface_mesh(germ, (64, 64), 1.0)
        wf0 = wavefront_mesh(germ, WavefrontSpec(t0=0.0, grid=(64, 64), extent=1.0))
        assert np.array_equal(surf.vertices, wf0.vertices)
        assert np.array_equal(surf.faces, wf0.faces)
        t0 = 0.25
        for sign in (1, -1):
            wf = wavefront_mesh(
                germ, WavefrontSpec(t0=t0, grid=(64, 64), extent=1.0), sign
            )
            assert wf.skipped == 0
            dist = np.linalg.norm(wf.vertices - surf.vertices, axis=1)
            assert np.max(np.abs(dist - t0)) < 1e-9
