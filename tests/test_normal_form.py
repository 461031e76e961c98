import math
import pathlib
import random
from fractions import Fraction

import pytest

from germforge import jets, normal_form
from germforge.errors import (
    InternalConsistencyError,
    OutOfScopeHkError,
    UnsupportedGermError,
    UsageError,
)
from germforge.germ_io import expand_germ, germ_spec_from_dict, read_germ_spec
from germforge.jets import EXACT, FLOAT, GermJets, Jet2, is_zero, scalar
from germforge.normal_form import (
    ReductionStart,
    RotationStep,
    SubstitutionStep,
    TransformLog,
    TwoJetClass,
    _extract_coeffs,
    corank_at_origin,
    reduce_to_normal_form,
)
from germforge.pipeline import classify_spec, working_order

from conftest import germ_from_strings, jets_close, make_nf
from source_scan import called, modules, parse, walk

DATA = pathlib.Path(__file__).parent / "data"


class TestCorank:
    def test_immersion(self):
        g = germ_from_strings(["u", "v", "0"], 3)
        assert corank_at_origin(g) == 0

    def test_whitney_umbrella(self):
        g = germ_from_strings(["u", "v^2", "u*v"], 3)
        assert corank_at_origin(g) == 1

    def test_vanishing_differential(self):
        g = germ_from_strings(["u^2", "v^2", "u*v"], 3)
        assert corank_at_origin(g) == 2


def two_jet(g):
    """The two-jet class of a corank-1 germ, read as classify_germ reads it."""
    assert corank_at_origin(g) == 1
    return ReductionStart(g).two_jet


class TestTwoJetClass:
    def test_uv_squared(self):
        g = germ_from_strings(["u", "1/2*v^2 + u^2", "0"], 3)
        assert two_jet(g) is TwoJetClass.UV_SQUARED

    def test_uuv(self):
        g = germ_from_strings(["u", "u*v", "v^3"], 3)
        assert two_jet(g) is TwoJetClass.UUV

    def test_degenerate(self):
        g = germ_from_strings(["u", "v^3", "v^4"], 4)
        assert two_jet(g) is TwoJetClass.DEGENERATE

    def test_cross_cap(self):
        g = germ_from_strings(["u", "v^2", "u*v"], 3)
        assert two_jet(g) is TwoJetClass.CROSS_CAP

    def test_invariant_under_rotated_presentation(self):
        # same germ after a rational target rotation and a source shear
        g = germ_from_strings(["u", "v^2 + u^3", "u^2*v"], 4)
        rot = (
            (Fraction(3, 5), Fraction(4, 5), 0),
            (Fraction(-4, 5), Fraction(3, 5), 0),
            (0, 0, 1),
        )
        u, v = Jet2.variable("u", 4), Jet2.variable("v", 4)
        conj = g.rotate(rot).substitute(u, v + Jet2(4, {(1, 0): 2}))
        assert two_jet(conj) is TwoJetClass.UV_SQUARED


class TestReduce:
    def test_idempotence_on_reconstructed_form(self):
        nf = make_nf(
            order=5,
            a={(2, 0): 3, (2, 1): 2, (0, 3): Fraction(1, 3), (3, 0): -1},
            b={2: 1, 3: Fraction(-2, 5)},
        )
        germ = nf.reconstruct()
        out, log = reduce_to_normal_form(germ)
        assert out.mode == EXACT
        assert out.a == nf.a
        assert out.b == nf.b
        # identity log: replay reproduces the germ itself
        assert log.replay(germ) == germ

    def test_s1_table_entry_scaling(self):
        g = germ_from_strings(["u", "v^2", "u^2*v + v^3"], 4)
        nf, log = reduce_to_normal_form(g)
        assert nf.mode == FLOAT  # the v-rescaling brings in sqrt(2)
        assert nf.a_(2, 1) == pytest.approx(math.sqrt(2))
        assert nf.a_(0, 3) == pytest.approx(3 / math.sqrt(2))
        for (i, j), val in nf.a.items():
            if (i, j) not in ((2, 1), (0, 3)):
                assert abs(val) < 1e-9
        assert not nf.b

    def test_replay_log_reproduces_normal_form(self):
        g = germ_from_strings(["u", "v^2", "u^2*v + v^3"], 4)
        nf, log = reduce_to_normal_form(g)
        replayed = log.replay(g)
        expected = nf.reconstruct()
        for got, want in zip(replayed.components(), expected.components()):
            assert jets_close(got, want, 1e-9)

    def test_second_component_cubic_absorbed(self):
        g = germ_from_strings(["u", "v^2 + u^3", "u^2*v"], 5)
        nf, log = reduce_to_normal_form(g)
        # b_3 survives as the pure-u cubic of the second component
        assert nf.b_(3) == pytest.approx(6 * 1.0)
        assert nf.a_(2, 1) == pytest.approx(math.sqrt(2))
        assert abs(nf.a_(0, 3)) < 1e-9
        replayed = log.replay(g)
        expected = nf.reconstruct()
        for got, want in zip(replayed.components(), expected.components()):
            assert jets_close(got, want, 1e-9)

    def test_form_shape_invariants(self):
        g = germ_from_strings(
            ["u", "v^2 + u*v + u^2 + u^3 + u*v^2", "u^2*v + v^3 + u^4"], 6
        )
        nf, _ = reduce_to_normal_form(g)
        germ = nf.reconstruct()
        y, z = germ.y, germ.z
        assert y.coeff(0, 2) == pytest.approx(0.5)
        assert y.coeff(1, 1) == 0
        assert all(j == 0 or (i, j) == (0, 2) for (i, j) in y.coeffs)
        for key in ((0, 1), (1, 1), (0, 2)):
            assert key not in z.coeffs

    def test_uuv_rejected_with_typed_error(self):
        g = germ_from_strings(["u", "u*v + v^5", "v^3"], 5)
        with pytest.raises(OutOfScopeHkError):
            reduce_to_normal_form(g)

    def test_degenerate_rejected(self):
        g = germ_from_strings(["u", "v^3", "v^4"], 4)
        with pytest.raises(UnsupportedGermError):
            reduce_to_normal_form(g)

    def test_rotated_linear_part_normalized(self):
        # linear part lands on a non-axis line; needs a target rotation
        g = germ_from_strings(["u", "u + v^2", "u - v^2 + u^2*v"], 4)
        nf, log = reduce_to_normal_form(g)
        germ = nf.reconstruct()
        assert germ.y.coeff(0, 2) == pytest.approx(0.5)
        replayed = log.replay(g)
        for got, want in zip(replayed.components(), germ.components()):
            assert jets_close(got, want, 1e-9)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @pytest.mark.parametrize("z, a21, label", [
        ("v^3 + u^2*v", -2, "S1+"), ("v^3 - u^2*v", 2, "S1-"),
    ])
    def test_image_line_on_the_negative_x_axis_is_reflected(self, mode, z, a21, label):
        components = ["-u", "v^2/2", z]
        g = germ_from_strings(components, 6, mode)
        nf, log = reduce_to_normal_form(g)
        assert nf.mode == mode
        assert [type(step) for step in log.steps] == [RotationStep, RotationStep]
        # the image line is the x-axis already, pointing the wrong way:
        # x and y change sign, z is kept
        assert log.steps[0].matrix == tuple(
            tuple(scalar({0: -1, 1: -1, 2: 1}[r] if r == c else 0, mode) for c in range(3))
            for r in range(3))
        assert nf.a == {(0, 3): scalar(-6, mode), (2, 1): scalar(a21, mode)} and not nf.b
        assert log.replay(g) == nf.reconstruct()
        doc = {"variables": ["u", "v"], "components": components, "order": 6, "mode": mode}
        assert classify_spec(germ_spec_from_dict(doc)).mond.label == label

    def test_exact_when_radicands_are_square(self):
        # v^2/2 keeps every radicand a perfect square: stays rational
        g = germ_from_strings(["u", "1/2*v^2 + u^2", "u^2*v + u^3"], 4)
        nf, log = reduce_to_normal_form(g)
        assert nf.mode == EXACT
        assert nf.a_(2, 1) == Fraction(2)
        assert nf.b_(2) == Fraction(2)


class TestTransformLog:
    def test_rotations_are_orthogonal(self):
        g = germ_from_strings(["u", "u + v^2", "u - v^2 + u^2*v"], 4)
        _, log = reduce_to_normal_form(g)
        from germforge.normal_form import RotationStep

        rotations = [s for s in log.steps if isinstance(s, RotationStep)]
        assert rotations
        for step in rotations:
            m = [[float(x) for x in row] for row in step.matrix]
            for i in range(3):
                for j in range(3):
                    dot = sum(m[i][k] * m[j][k] for k in range(3))
                    assert abs(dot - (1.0 if i == j else 0.0)) < 1e-12
            det = (
                m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
            )
            assert abs(det - 1.0) < 1e-12  # rotations only, no reflections

    def test_substitutions_have_invertible_linear_part(self):
        g = germ_from_strings(["u", "v^2 + u*v", "u^2*v"], 4)
        _, log = reduce_to_normal_form(g)
        from germforge.normal_form import SubstitutionStep

        for step in log.steps:
            if isinstance(step, SubstitutionStep):
                m = [
                    [step.u_new.coeff(1, 0), step.u_new.coeff(0, 1)],
                    [step.v_new.coeff(1, 0), step.v_new.coeff(0, 1)],
                ]
                det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
                assert abs(float(det)) > 1e-9


class TestExactRotatedConjugation:
    def test_pythagorean_rotation_stays_exact(self):
        # a 3-4-5 rotation in the (y, z)-plane keeps every radicand a
        # perfect square, so the reduction must stay rational end to end
        nf = make_nf(
            order=5,
            a={(2, 0): 2, (2, 1): 3, (0, 3): Fraction(1, 2), (3, 0): -1},
            b={2: 1, 3: Fraction(2, 3)},
        )
        germ = nf.reconstruct()
        rot = (
            (1, 0, 0),
            (0, Fraction(3, 5), Fraction(4, 5)),
            (0, Fraction(-4, 5), Fraction(3, 5)),
        )
        rotated = germ.rotate(rot)
        out, log = reduce_to_normal_form(rotated)
        assert out.mode == EXACT
        replayed = log.replay(rotated)
        assert replayed == out.reconstruct()
        # classification is the conjugation invariant
        from germforge.mond import classify

        assert classify(out).mond == classify(nf).mond


class TestReductionProducts:
    """Every reduction step keeps u, so its powers of u are exponent shifts and
    the powers of v_new's numerator, built once for the three components by
    the substitution kernel, are its only jet products: at most order - 1
    per step."""

    COMPONENTS = ["u", "1/2*v^2 + 1/5*u*v^2 + u^3 + 1/7*v^3", "u^2*v + v^3 + 1/3*u*v^3"]
    ORDER = 17

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_products_bounded_per_step(self, monkeypatch, mode):
        g = germ_from_strings(self.COMPONENTS, self.ORDER, mode)
        count = [0]
        product = jets._product

        def counting_product(*args):
            count[0] += 1
            return product(*args)

        with monkeypatch.context() as m:
            m.setattr(jets, "_product", counting_product)
            nf, log = reduce_to_normal_form(g)
        steps = [step for step in log.steps if isinstance(step, SubstitutionStep)]
        u = Jet2.variable("u", self.ORDER, nf.mode)
        assert nf.mode == mode and len(steps) == 15
        assert all(step.u_new == u for step in steps)
        assert 0 < count[0] <= len(steps) * (self.ORDER - 1)


class TestReductionStart:
    def test_start_feeds_both_readers(self):
        g = germ_from_strings(["u + 1/3*v", "1/2*v^2 + u^2", "u^2*v + v^3 + u*v^2"], 6)
        start = ReductionStart(g)
        assert start.two_jet is TwoJetClass.UV_SQUARED
        nf, log = reduce_to_normal_form(start)
        nf_direct, log_direct = reduce_to_normal_form(g)
        assert nf == nf_direct and log.steps == log_direct.steps
        # the start stays as it was: a second reduction from it agrees
        assert reduce_to_normal_form(start)[0] == nf


def _bits(nf):
    """A normal form's mode, order and coefficients, floats as .hex(), in key order."""
    def show(c):
        return c.hex() if isinstance(c, float) else c
    return (nf.mode, nf.order, [(k, show(c)) for k, c in nf.a.items()],
            [(k, show(c)) for k, c in nf.b.items()])


def _tilted_float_germ(rng, order):
    """A float (u, v^2)-type germ in a random target frame: its image line is
    off every axis, so its reduction starts with a Householder rotation."""
    a21, a03 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    nf = make_nf(order=order, mode=FLOAT,
                 a={(2, 0): rng.uniform(-1, 1), (2, 1): a21, (0, 3): a03,
                    (1, 2): rng.uniform(-1, 1), (3, 1): rng.uniform(-1, 1)},
                 b={2: rng.uniform(-1, 1), 3: rng.uniform(-1, 1)})
    w, x, y, z = (rng.gauss(0, 1) for _ in range(4))
    n = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    rot = (
        (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
    )
    u, v = Jet2.variable("u", order, FLOAT), Jet2.variable("v", order, FLOAT)
    shear = Jet2(order, {(1, 0): rng.uniform(-1, 1), (0, 2): rng.uniform(-1, 1)}, FLOAT)
    return nf.reconstruct().rotate(rot).substitute(u * rng.uniform(0.5, 2.0) + v * 0.25,
                                                   v + shear)


def _pythagorean_germ():
    nf = make_nf(
        order=5,
        a={(2, 0): 2, (2, 1): 3, (0, 3): Fraction(1, 2), (3, 0): -1},
        b={2: 1, 3: Fraction(2, 3)},
    )
    rot = ((1, 0, 0), (0, Fraction(3, 5), Fraction(4, 5)), (0, Fraction(-4, 5), Fraction(3, 5)))
    return nf.reconstruct().rotate(rot)


def _data_germs():
    germs = []
    for path in sorted(DATA.glob("classify_float_*_germ.json")):
        spec = read_germ_spec(path)
        for mode in (None, FLOAT):
            germs.append(expand_germ(spec, order=working_order(spec), mode=mode))
    return germs


class TestReplayIsTheReduction:
    """log.replay runs the steps the reducer ran, so it gives the normal form
    bit for bit: same mode, same coefficients, same key order."""

    def _check(self, g):
        nf, log = reduce_to_normal_form(g)
        replayed = log.replay(g)
        assert replayed.mode == log.mode_used == nf.mode
        assert _extract_coeffs(replayed) == nf
        assert _bits(_extract_coeffs(replayed)) == _bits(nf)
        return nf, log

    def test_float_data_germs(self):
        germs = _data_germs()
        assert len(germs) == 6
        for g in germs:
            nf, _ = self._check(g)
            assert nf.mode == FLOAT

    def test_rotated_exact_germ(self):
        nf, log = self._check(_pythagorean_germ())
        assert nf.mode == EXACT and any(isinstance(s, RotationStep) for s in log.steps)

    def test_seeded_float_germs_with_a_householder_rotation(self):
        rng = random.Random(20261018)
        for _ in range(40):
            g = _tilted_float_germ(rng, 6)
            nf, log = self._check(g)
            first = log.steps[0]
            assert isinstance(first, RotationStep) and first.mode == FLOAT
            assert any(abs(first.matrix[r][c]) > 1e-3 for r in range(3) for c in range(3) if r != c)

    def test_replay_ends_in_the_log_mode(self):
        # a float germ already in pre-normal form: a float log with no step
        germ = make_nf(order=5, a={(2, 0): 1, (2, 1): 2, (0, 3): 3}, b={2: 1}).reconstruct()
        _, log = reduce_to_normal_form(germ.to_float())
        assert log.steps == [] and log.mode_used == FLOAT
        assert log.replay(germ) == germ.to_float()


def _shadow_normal_form(g, monkeypatch):
    """The reduction of ``g`` run in Fractions: the germ's numbers converted
    exactly, every square root taken as Fraction(math.sqrt(x)), and every
    zero decision (and kill) made by the float rule, so the shadow takes the
    float reduction's steps.  The 1/2 check is skipped: with rounded roots the
    v^2 coefficient is 1/2 only up to rounding."""
    exact = GermJets(*(Jet2(c.order, {k: Fraction(x) for k, x in c.coeffs.items()})
                       for c in g.components()))
    with monkeypatch.context() as m:
        m.setattr(TransformLog, "sqrt", lambda self, x: Fraction(math.sqrt(float(x))))
        m.setattr(normal_form, "is_zero", lambda x, scale=1.0, mode=FLOAT: is_zero(x, scale))
        m.setattr(normal_form, "_check_form", lambda g: None)
        nf, _ = reduce_to_normal_form(exact)
    assert nf.mode == EXACT
    return nf


def _shadow_error(nf, ref):
    """Largest |a_ij - ref_ij| / (i! j!) and |b_i - ref_i| / i!, each over
    the shadow's scale of its degree."""
    errs = [0.0]
    for (i, j) in set(nf.a) | set(ref.a):
        d = abs(float(nf.a_(i, j)) - float(ref.a_(i, j))) / (math.factorial(i) * math.factorial(j))
        errs.append(d / ref.degree_scale(i + j))
    for i in set(nf.b) | set(ref.b):
        errs.append(abs(float(nf.b_(i)) - float(ref.b_(i))) / math.factorial(i) / ref.degree_scale(i))
    return max(errs)


def _plain_float_germ(rng, order):
    """A float (u, v^2)-type germ with the image line on the x-axis, its
    (y, z)-plane turned by 45 degrees and its source coordinates changed."""
    nf = make_nf(order=order, mode=FLOAT,
                 a={(2, 0): rng.uniform(-1, 1), (2, 1): rng.uniform(0.5, 2.0),
                    (0, 3): rng.uniform(-2, 2), (1, 3): rng.uniform(-1, 1),
                    (0, 5): rng.uniform(-1, 1)},
                 b={2: rng.uniform(-1, 1), 4: rng.uniform(-1, 1)})
    g = nf.reconstruct()
    u, v = Jet2.variable("u", order, FLOAT), Jet2.variable("v", order, FLOAT)
    g = g.rotate(((1, 0, 0), (0, math.sqrt(2) / 2, math.sqrt(2) / 2),
                  (0, -math.sqrt(2) / 2, math.sqrt(2) / 2)))
    return g.substitute(u + v * v * rng.uniform(-1, 1), v * rng.uniform(0.5, 2.0) + u * u)


class TestFloatReductionMatchesTheExactShadow:
    """Each float reduction against the same reduction in Fractions, with
    only the square roots rounded: every a_ij and b_i agrees within 1e-9 of
    the scale of its degree."""

    def test_data_germs(self, monkeypatch):
        # at order 13 rather than the working order 17 the shadow's Fractions
        # stay small enough for a quick test (about 2 s rather than 10 s)
        paths = sorted(DATA.glob("classify_float_*_germ.json"))
        assert len(paths) == 3
        for path in paths:
            g = expand_germ(read_germ_spec(path), order=13)
            nf, _ = reduce_to_normal_form(g)
            assert nf.mode == FLOAT
            assert _shadow_error(nf, _shadow_normal_form(g, monkeypatch)) <= 1e-9

    def test_seeded_float_germs(self, monkeypatch):
        rng = random.Random(20261019)
        germs = [_tilted_float_germ(rng, 5) for _ in range(15)]
        germs += [_plain_float_germ(rng, 7) for _ in range(35)]
        worst = 0.0
        for g in germs:
            nf, log = reduce_to_normal_form(g)
            assert nf.mode == FLOAT and len(log.steps) >= 3
            worst = max(worst, _shadow_error(nf, _shadow_normal_form(g, monkeypatch)))
        assert worst <= 1e-9


class TestKills:
    """Each step zeroes the coefficients it kills by construction, after
    checking that what is left there is a zero: exactly in exact mode, at the
    scale of the step's input in float mode."""

    def test_float_residue_below_the_zero_tests_is_killed(self):
        # y's v term and z's uv term pass the rank and two-jet zero tests;
        # an identity rotation kills the first, the (y, z) rotation the second
        g = germ_from_strings(["u", "1/2*v^2 + 1e-12*v", "1e-12*u*v + v^3 + u^2*v"], 6,
                              mode=FLOAT)
        nf, log = reduce_to_normal_form(g)
        first, second = log.steps[:2]
        assert first == RotationStep(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
                                     FLOAT, ((1, ((1, 0), (0, 1))), (2, ((1, 0), (0, 1)))))
        assert isinstance(second, RotationStep) and second.kills == ((2, ((0, 2), (1, 1))),)
        assert nf.a == {(0, 3): 6.0, (2, 1): 2.0} and nf.b == {}
        replayed = log.replay(g)
        assert (0, 1) not in replayed.y.coeffs and (1, 1) not in replayed.z.coeffs

    def test_a_kill_that_is_no_zero_raises(self):
        u, v = Jet2.variable("u", 4), Jet2.variable("v", 4)
        g = GermJets(u, Jet2(4, {(0, 2): Fraction(1, 2)}), Jet2(4, {(0, 3): Fraction(1, 10**30)}))
        with pytest.raises(InternalConsistencyError, match="u\\^0 v\\^3 of z"):
            SubstitutionStep(u, v, EXACT, ((2, ((0, 3),)),)).apply(g)
        assert SubstitutionStep(u, v, EXACT, ((2, ((1, 3),)),)).apply(g) == g

    def test_float_kills_read_the_scale_of_the_input(self):
        ident = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        kill = ((2, ((0, 3),)),)
        for big, raises in ((1.0, True), (1e13, False)):
            g = GermJets(Jet2(4, {(1, 0): 1.0}, FLOAT), Jet2(4, {(0, 2): 0.5, (4, 0): big}, FLOAT),
                         Jet2(4, {(0, 3): 2.0 ** -10, (2, 1): 1.0}, FLOAT))
            if raises:
                with pytest.raises(InternalConsistencyError, match="not zero at scale 1"):
                    RotationStep(ident, FLOAT, kill).apply(g)
            else:
                assert RotationStep(ident, FLOAT, kill).apply(g).z.coeffs == {(2, 1): 1.0}

    def test_flattening_makes_x_exactly_u(self):
        g = germ_from_strings(["u + 1/3*u^2 + v^3", "1/2*v^2", "u^2*v + v^3"], 6, mode=FLOAT)
        _, log = reduce_to_normal_form(g)
        flat = next(s for s in log.steps if s.kills == ((0, None),))
        assert log.replay(g).x.coeffs == {(1, 0): 1.0}
        assert flat.apply(g).x.coeffs == {(1, 0): 1.0}


class TestPromotionIsAStep:
    """An exact germ whose v^2 coefficient has an irrational root that rounds
    to 1 is promoted to float by a recorded step, not behind the log's back."""

    def test_rescale_that_rounds_to_the_identity(self):
        half = Fraction(1, 2) + Fraction(1, 10**20)
        g = GermJets(Jet2(4, {(1, 0): 1}), Jet2(4, {(0, 2): half, (2, 0): 1}),
                     Jet2(4, {(2, 1): 1, (0, 3): 1}))
        nf, log = reduce_to_normal_form(g)
        assert nf.mode == log.mode_used == FLOAT
        assert nf.a == {(2, 1): 2.0, (0, 3): 6.0} and nf.b == {2: 2.0}
        [step] = log.steps
        u, v = Jet2.variable("u", 4, FLOAT), Jet2.variable("v", 4, FLOAT)
        assert step == SubstitutionStep(u, v, FLOAT, ((1, ((1, 1),)),))
        assert _bits(_extract_coeffs(log.replay(g))) == _bits(nf)


# ---------------------------------------------------------------------------
# one way to change the germ
# ---------------------------------------------------------------------------

GERM_CHANGES = ("rotate", "substitute", "to_float")
# the step types, the one promotion helper, and _flattening, whose only
# composition is of the jet q, never of a germ
CHANGE_SCOPES = ("RotationStep", "SubstitutionStep", "_in_mode", "_flattening")


def _changes(tree):
    """{top-level def or class name: [(line, method)]} of rotate/substitute/
    to_float calls; None names the module's own statements."""
    found = {}
    for node, scopes in walk(tree):
        if called(node) in GERM_CHANGES:
            top = scopes[0].name if scopes else None
            found.setdefault(top, []).append((node.lineno, called(node)))
    return found


def _bypasses(tree):
    """Lines that change a germ outside the step types and the promotion helper."""
    return sorted(line for name, calls in _changes(tree).items()
                  if name not in CHANGE_SCOPES for line, _ in calls)


class TestOneWayToChangeTheGerm:
    def test_reducer_changes_germs_only_through_steps(self):
        tree = modules()["normal_form"]
        assert _bypasses(tree) == []
        calls = {name: [attr for _, attr in found] for name, found in _changes(tree).items()}
        assert calls == {"RotationStep": ["rotate"], "SubstitutionStep": ["substitute"],
                         "_in_mode": ["to_float"], "_flattening": ["substitute"]}

    def test_guard_sees_a_bypass(self):
        source = (
            "def _reduce(g, log, rot, u, v):\n"
            "    g = g.to_float()\n"
            "    g = g.rotate(rot)\n"
            "    log.steps.append(RotationStep(rot, FLOAT))\n"
            "    return g.substitute(u, v)\n"
            "class RotationStep:\n"
            "    def apply(self, g):\n"
            "        return g.rotate(self.matrix)\n"
            "class TransformLog:\n"
            "    def replay(self, g):\n"
            "        return g.to_float()\n"
        )
        assert _bypasses(parse(source)) == [2, 3, 5, 11]
