"""End-to-end flows: germ input -> classification -> report sections.

This is the layer the CLI drives; everything here returns plain data
structures with numbers as computed (ints, Fractions, floats), which
``germ_io.write_json`` writes by the report convention.
"""

import functools

from .blowup import BLOWUP_EXPONENT, build_context, geometry_samples, theta_grid
from .distance import (
    ProbePoint,
    classify_distance,
    focal_locus,
    geometric_verdict,
    singular_point_type,
)
from .errors import SchemaError, UnsupportedGermError, UsageError
from .germ_io import MAX_ORDER, expand_germ
from .jets import FLOAT
from .mond import DEFAULT_K_MAX, FLOAT_WARNING, MondClass, MondTag, classify
from .normal_form import ReductionStart, TwoJetClass, corank_at_origin, reduce_to_normal_form
from .records import Record


class ClassificationOutcome(Record):
    _fields = ("mond", "corank", "two_jet", "nf", "log", "trace")
    __slots__ = _fields + ("__dict__",)  # the cached property below

    def __init__(self, mond, corank, two_jet=None, nf=None, log=None, trace=None):
        self.mond = mond        # MondClass
        self.corank = corank
        self.two_jet = two_jet  # TwoJetClass, or None
        self.nf = nf            # NormalFormCoeffs, or None
        self.log = log          # TransformLog, or None
        self.trace = trace      # BkRecursionTrace, or None

    @property
    def warnings(self):
        """The report's warnings: ``FLOAT_WARNING`` for a class read off a
        float normal form, none otherwise."""
        if self.nf is not None and self.nf.mode == FLOAT:
            return [FLOAT_WARNING]
        return []

    @property
    def has_geometry(self):
        return self.mond.tag in BLOWUP_EXPONENT

    @functools.cached_property
    def _blowup_context(self):
        return build_context(self.nf, self.mond)


def classify_germ(germ, k_max=DEFAULT_K_MAX):
    """Full classification of raw germ jets."""
    corank = corank_at_origin(germ)
    if corank == 0:
        return ClassificationOutcome(MondClass(MondTag.IMMERSION), corank)
    if corank == 2:
        return ClassificationOutcome(
            MondClass(MondTag.INDETERMINATE, reason="corank 2 at the origin"), corank
        )
    start = ReductionStart(germ)  # one linear normalization for both readers
    tj = start.two_jet
    if tj is TwoJetClass.CROSS_CAP:
        return ClassificationOutcome(MondClass(MondTag.CROSS_CAP), corank, tj)
    if tj is TwoJetClass.UUV:
        return ClassificationOutcome(
            MondClass(MondTag.TWO_JET_UV, reason="two-jet (u, uv, 0); out of scope"),
            corank,
            tj,
        )
    if tj is TwoJetClass.DEGENERATE:
        return ClassificationOutcome(
            MondClass(MondTag.INDETERMINATE, reason="degenerate two-jet (u, 0, 0)"),
            corank,
            tj,
        )
    nf, log = reduce_to_normal_form(start)
    result = classify(nf, k_max)
    return ClassificationOutcome(result.mond, corank, tj, nf, log, result.trace)


def working_order(spec, k_max=DEFAULT_K_MAX):
    """Jet order for classification: enough for every class probed."""
    return max(spec.order, min(2 * k_max + 1, MAX_ORDER))


def classify_spec(spec, k_max=DEFAULT_K_MAX, mode=None):
    germ = expand_germ(spec, order=working_order(spec, k_max), mode=mode)
    return classify_germ(germ, k_max)


def blowup_context(outcome):
    """The outcome's blow-up context: built on the first call, the same
    object on every later one."""
    if not outcome.has_geometry:
        raise UnsupportedGermError(
            "blow-up geometry needs an S_k/B_k/C_k/F_4 class (got %s)"
            % outcome.mond.label
        )
    return outcome._blowup_context


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def class_section(outcome):
    mond = outcome.mond
    section = {
        "label": mond.label,
        "tag": mond.tag.name,
        "k": mond.k,
        "sign": mond.sign,
        "reason": mond.reason,
        "corank": outcome.corank,
        "two_jet": outcome.two_jet.value if outcome.two_jet else None,
        "sign_convention": "artifact-local",
        "singular_point_type": (
            singular_point_type(outcome.nf).value if outcome.nf else None
        ),
    }
    return section


def normal_form_section(outcome):
    if outcome.nf is None:
        return None
    nf = outcome.nf
    return {
        "order": nf.order,
        "mode": nf.mode,
        "a": {"%d,%d" % key: val for key, val in nf.a.items()},
        "b": {str(key): val for key, val in nf.b.items()},
    }


def geometry_section(outcome, theta_samples=64):
    ctx = blowup_context(outcome)
    return {
        "n": ctx.n,
        "epsilon": ctx.epsilon,
        "theta_samples": theta_samples,
        "samples": geometry_samples(ctx, theta_grid(theta_samples)),
    }


def _verdict_record(p, verdict):
    return {
        "p0": [p.x0, p.y0, p.z0],
        "sing_type": verdict.sing_type.value,
        "branch": verdict.branch.value if verdict.branch else None,
        "case": verdict.case,
        "r_plus_versal": verdict.r_plus_versal,
        "k_versal": verdict.k_versal,
        "witness": verdict.witness,
    }


def distance_section(outcome, spec):
    if outcome.nf is None:
        raise UnsupportedGermError(
            "distance probes need a reduced normal form (class %s)"
            % outcome.mond.label
        )
    records = []
    for idx, p in enumerate(spec.probes):
        probe = ProbePoint(*p)
        try:  # the reduced mode may differ from the file's
            in_mode = probe.as_mode(outcome.nf.mode)
        except UsageError as exc:
            raise SchemaError("germ.probes[%d]" % idx, str(exc)) from None
        records.append(_verdict_record(probe, classify_distance(outcome.nf, in_mode)))
    pair_records = []
    if spec.theta_lambda:
        ctx = blowup_context(outcome)
        for theta0, lam in spec.theta_lambda:
            gv = geometric_verdict(ctx, theta0, lam)
            rec = _verdict_record(gv.probe, gv.verdict)
            rec["theta0"] = theta0
            rec["lambda"] = lam
            rec["flags"] = gv.flags
            pair_records.append(rec)
    return {"probes": records, "normal_directions": pair_records}


def focal_section(outcome):
    if outcome.nf is None:
        raise UnsupportedGermError(
            "focal locus needs a reduced normal form (class %s)" % outcome.mond.label
        )
    locus = focal_locus(outcome.nf)
    return {
        "kind": locus.kind.value,
        "lines": [
            {
                "equation": {"y": line.alpha, "z": line.beta, "rhs": line.gamma},
                "direction": line.direction(),
                "point": line.point(),
            }
            for line in locus.lines
        ],
        "intersection": locus.intersection,
    }


def base_report(spec, outcome):
    return {
        "class": class_section(outcome),
        "normal_form": normal_form_section(outcome),
        "warnings": outcome.warnings,
        "germ": {
            "variables": list(spec.variables),
            "components": list(spec.components),
            "order": spec.order,
            "mode": spec.mode,
        },
    }
