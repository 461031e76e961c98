import copy
import json
import pathlib
import pickle

import pytest

from germforge import distance, normal_form, pipeline
from germforge.blowup import BLOWUP_EXPONENT
from germforge.errors import SchemaError, UnsupportedGermError, UsageError
from germforge.germ_io import GermSpec, germ_spec_from_dict, read_germ_spec
from germforge.jets import Jet2, cleared
from germforge.mond import MondTag
from germforge.normal_form import TwoJetClass
from germforge.pipeline import (
    blowup_context,
    classify_germ,
    classify_spec,
    distance_section,
    geometry_section,
    working_order,
)

from conftest import GEOMETRY_GERMS, germ_from_strings, load_perfbench_corpus, ref_distance_jet

DATA = pathlib.Path(__file__).parent / "data"


class TestClassifyGerm:
    def test_immersion(self):
        out = classify_germ(germ_from_strings(["u", "v", "u^2"], 3))
        assert out.mond.tag is MondTag.IMMERSION
        assert out.corank == 0
        assert out.nf is None

    def test_corank_two(self):
        out = classify_germ(germ_from_strings(["u^2", "v^2", "u*v"], 3))
        assert out.mond.tag is MondTag.INDETERMINATE
        assert "corank 2" in out.mond.reason

    def test_cross_cap(self):
        out = classify_germ(germ_from_strings(["u", "v^2", "u*v"], 3))
        assert out.mond.tag is MondTag.CROSS_CAP
        assert out.mond.label == "S0"
        assert out.two_jet is TwoJetClass.CROSS_CAP

    def test_hk_branch_detected_not_reduced(self):
        out = classify_germ(germ_from_strings(["u", "u*v + v^5", "v^3"], 5))
        assert out.mond.tag is MondTag.TWO_JET_UV
        assert out.nf is None

    def test_degenerate_two_jet(self):
        out = classify_germ(germ_from_strings(["u", "v^3", "v^4"], 4))
        assert out.mond.tag is MondTag.INDETERMINATE

    def test_s1_full_path(self):
        out = classify_germ(germ_from_strings(["u", "v^2", "v^3 + u^2*v"], 6))
        assert out.mond.label == "S1+"
        assert out.nf is not None and out.log is not None

    def test_geometry_context_requires_class(self):
        out = classify_germ(germ_from_strings(["u", "v", "0"], 3))
        assert not out.has_geometry
        with pytest.raises(UnsupportedGermError, match=(
                r"^blow-up geometry needs an S_k/B_k/C_k/F_4 class \(got Immersion\)$")):
            blowup_context(out)

    def test_geometry_classes_are_the_blowup_exponent_table(self):
        assert set(BLOWUP_EXPONENT) == {MondTag.S, MondTag.B, MondTag.C, MondTag.F4}


class TestBlowupContextMemo:
    def test_one_context_per_outcome(self, monkeypatch):
        built = []
        build = pipeline.build_context
        monkeypatch.setattr(pipeline, "build_context", lambda *a: built.append(a) or build(*a))
        spec = germ_spec_from_dict({
            "variables": ["u", "v"], "components": GEOMETRY_GERMS["S1+"], "order": 9,
            "mode": "exact", "probes": [[0, 1, 1]], "theta_lambda": [[0.3, 2.0]]})
        outcome = classify_spec(spec)
        ctx = blowup_context(outcome)
        assert blowup_context(outcome) is ctx
        geometry_section(outcome, 16)
        distance_section(outcome, spec)
        assert len(built) == 1
        assert blowup_context(classify_spec(spec)) is not ctx
        assert len(built) == 2


class TestOneLinearNormalizationPerGerm:
    """classify_germ tests the corank and normalizes the linear part once,
    and reads the two-jet class and the normal form from that one result."""

    def test_counts(self, monkeypatch):
        germ = germ_from_strings(["u + 1/3*v", "1/2*v^2 + u^2", "u^2*v + v^3 + u*v^2"], 8)
        calls = {"corank": 0, "normalize": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        corank = counted("corank", normal_form.corank_at_origin)
        with monkeypatch.context() as m:
            m.setattr(pipeline, "corank_at_origin", corank)
            m.setattr(normal_form, "corank_at_origin", corank)
            m.setattr(normal_form, "_normalize_linear_part",
                      counted("normalize", normal_form._normalize_linear_part))
            out = classify_germ(germ)
        assert out.mond.label == "S1+" and out.two_jet is TwoJetClass.UV_SQUARED
        assert calls == {"corank": 1, "normalize": 1}


class TestNoJetProductPerProbe:
    """distance_section's jet products do not grow with the number of probes:
    the probe-free distance base is built once per normal form and order."""

    # a20 = a30 = a21 = a40 = b3 = 0, b2 = 1, b4 = 3: every probe (0, 1, z0)
    # is case 4a, the case whose verdict splits the distance jet
    GERM = json.loads((pathlib.Path(__file__).parent / "data" / "case4a_probes_germ.json")
                      .read_text())
    PROBES = GERM["probes"]

    def _jet_products(self, monkeypatch, probes):
        spec = germ_spec_from_dict(dict(self.GERM, probes=probes))
        outcome = classify_spec(spec)
        count = [0]
        mul = Jet2.__mul__

        def counting_mul(a, b):
            count[0] += isinstance(b, Jet2)
            return mul(a, b)

        with monkeypatch.context() as m:
            m.setattr(Jet2, "__mul__", counting_mul)
            section = distance_section(outcome, spec)
        assert outcome.nf.mode == "exact"
        assert [rec["case"] for rec in section["probes"]] == ["4a"] * len(probes)
        return count[0]

    def test_products_independent_of_probe_count(self, monkeypatch):
        few = self._jet_products(monkeypatch, self.PROBES[:2])
        assert few > 0
        assert self._jet_products(monkeypatch, self.PROBES) == few

    def test_guard_sees_a_per_probe_product(self, monkeypatch):
        def per_probe_numerators(nf, p, order):
            # distance._distance_numerators read off a jet whose products are
            # made anew for each probe (exact form, integer probes: dp = 1)
            coeffs = dict(ref_distance_jet(nf, p, order).coeffs)
            sq = 2 * coeffs.pop((0, 0), 0)
            out, den = cleared(coeffs)
            probe = distance._probe_numerators(p, nf.mode)
            assert probe[3] == 1
            return out, sq, den, probe

        monkeypatch.setattr(distance, "_distance_numerators", per_probe_numerators)
        few = self._jet_products(monkeypatch, self.PROBES[:2])
        assert self._jet_products(monkeypatch, self.PROBES) > few


class TestClassifySpec:
    def test_working_order_raises_for_b_probes(self):
        spec = GermSpec(("u", "v"), ("u", "v^2", "u^2*v + v^13"), 6, "exact")
        assert working_order(spec, k_max=8) == 17
        out = classify_spec(spec, k_max=8)
        assert out.mond.tag is MondTag.B
        assert out.mond.k == 6

    def test_low_order_file_still_classifies(self):
        # the file asks for order 4, but B_2 needs order 5; the pipeline
        # reparses the polynomial at a sufficient order
        spec = GermSpec(("u", "v"), ("u", "v^2", "u^2*v + v^5"), 4, "exact")
        out = classify_spec(spec)
        assert out.mond.tag is MondTag.B and out.mond.k == 2


class TestClassifySpecInputRules:
    """A spec refuses the orders the CLI refuses, and classify_spec the k_max,
    before the working order reads them; the README germ is S1+ at every
    valid input."""

    COMPONENTS = ("u", "v^2", "v^3 + u^2*v")

    @pytest.mark.parametrize("order", [0, -3, 3.5, True, 21])
    def test_order_outside_one_to_twenty(self, order):
        with pytest.raises(SchemaError) as exc:
            GermSpec(("u", "v"), self.COMPONENTS, order, "exact")
        assert str(exc.value) == (
            "germ.order: order must be an integer in 1..20, got %r" % (order,))

    @pytest.mark.parametrize("k_max", [0, -1, 2.5, True])
    def test_k_max_below_one_or_not_an_integer(self, k_max):
        spec = GermSpec(("u", "v"), self.COMPONENTS, 6, "exact")
        with pytest.raises(UsageError) as exc:
            classify_spec(spec, k_max=k_max)
        assert str(exc.value) == "k_max must be an integer >= 1, got %r" % (k_max,)

    @pytest.mark.parametrize("order, k_max", [(1, 1), (20, 1), (3, 8)])
    def test_valid_inputs_classify(self, order, k_max):
        spec = GermSpec(("u", "v"), self.COMPONENTS, order, "exact")
        assert classify_spec(spec, k_max=k_max).mond.label == "S1+"


def _survives(outcome):
    """Whether a deepcopy and a pickle round trip of ``outcome`` equal it; a
    value that refuses to be rebuilt (AttributeError) does not."""
    try:
        return (copy.deepcopy(outcome) == outcome
                and pickle.loads(pickle.dumps(outcome)) == outcome)
    except AttributeError:
        return False


def test_outcomes_survive_deepcopy_and_pickle():
    # every tests/data germ and the benchmark's classify corpus at seed 1
    outcomes = [(path.name, classify_spec(read_germ_spec(path)))
                for path in sorted(DATA.glob("*_germ.json"))]
    for idx, entry in enumerate(load_perfbench_corpus().classify_corpus(1)):
        outcomes.append(("classify-1-%d" % idx, classify_spec(germ_spec_from_dict(entry["doc"]))))
    assert len(outcomes) == 6 + 384
    assert [name for name, outcome in outcomes if not _survives(outcome)] == []


class TestHighIndexClasses:
    def test_high_k_classification_through_order_17(self):
        cases = [
            (("u", "v^2", "v^3 + u^8*v"), "S7+"),
            (("u", "v^2", "v^3 - u^9*v"), "S8"),
            (("u", "v^2", "u^2*v + v^17"), "B8+"),
            (("u", "v^2", "u^2*v - v^15"), "B7-"),
            (("u", "v^2", "u*v^3 + u^7*v"), "C7+"),
            (("u", "v^2", "u*v^3 - u^8*v"), "C8"),
        ]
        for comps, want in cases:
            spec = GermSpec(("u", "v"), comps, 6, "exact")
            out = classify_spec(spec, k_max=8)
            assert out.mond.label == want, (comps, out.mond.label)

    def test_beyond_k_max_is_indeterminate(self):
        spec = GermSpec(("u", "v"), ("u", "v^2", "v^3 + u^12*v"), 6, "exact")
        out = classify_spec(spec, k_max=8)
        assert out.mond.tag is MondTag.INDETERMINATE


class TestTargetShearedFloatReduction:
    SHEARED = ("u", "1/2*v^2", "1/2*v^2 + 5*v^3 - 5/2*u^9*v")

    def test_shear_removed_germ_is_s8(self):
        # z - y undoes the shear: a_03 = 5 and the first nonzero a_{k+1,1}
        # is a_91, so the class is S8 (even k, no sign)
        spec = GermSpec(("u", "v"), ("u", "1/2*v^2", "5*v^3 - 5/2*u^9*v"), 10, "exact")
        assert classify_spec(spec).mond.label == "S8"

    # rotating the shear away takes sqrt(2), so the reduction runs in float;
    # at the working order 17 the third component's coefficients reach 1e13
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_sheared_germ_classifies_as_s8(self, mode):
        spec = GermSpec(("u", "v"), self.SHEARED, 10, mode)
        out = classify_spec(spec)
        assert (out.mond.label, out.mond.sign) == ("S8", None)


def _sheared_family():
    """(components, label, sign): one base third component per S/B/C/F4 class
    and sign, sheared as z = base + y with y = v^2/2.  Rotating the shear
    away takes sqrt(2), so every reduction runs in float."""
    cases = [("u^3*v + v^5", "F4", None)]
    for k in range(1, 9):  # S_k: sign of a_{k+1,1} a_03 for odd k
        for sign in ("+", "-") if k % 2 else (None,):
            cases.append(("2*v^3 %s 3/2*u^%d*v" % (sign or "+", k + 1), "S%d" % k, sign))
    for k in range(2, 9):  # B_k: sign of xi_k a_21
        for sign in ("+", "-"):
            cases.append(("u^2*v %s 4/3*v^%d" % (sign, 2 * k + 1), "B%d" % k, sign))
    for m in range(3, 9):  # C_m: sign of a_m1 a_13 for odd m
        for sign in ("+", "-") if m % 2 else (None,):
            cases.append(("u*v^3 %s 5/2*u^%d*v" % (sign or "+", m), "C%d" % m, sign))
    return [(("u", "1/2*v^2", "u^2 + 1/2*v^2 + " + base), cls + (sign or ""), sign)
            for base, cls, sign in cases]


class TestTargetShearedFamily:
    """The target shear lam = 1 with y = v^2/2, which the benchmark's
    generator leaves out: every class and sign survives the float reduction."""

    def test_family_covers_every_class_and_sign(self):
        labels = [label for _, label, _ in _sheared_family()]
        assert len(labels) == len(set(labels)) == 36

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_every_class_and_sign(self, mode):
        for comps, label, sign in _sheared_family():
            out = classify_spec(GermSpec(("u", "v"), comps, 6, mode))
            assert out.nf.mode == "float", comps
            assert (out.mond.label, out.mond.sign) == (label, sign), comps
