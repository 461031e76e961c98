"""End-to-end flows: germ input -> classification -> report sections.

This is the layer the CLI drives; everything here returns plain data
structures ready for JSON emission (numbers formatted as strings per the
report convention).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import germ_io
from .blowup import build_context, geometry_samples, theta_grid
from .distance import (
    ProbePoint,
    classify_distance,
    focal_locus,
    geometric_verdict,
    singular_point_type,
)
from .errors import SchemaError, UnsupportedGermError, UsageError
from .germ_io import expand_germ, format_number
from .mond import DEFAULT_K_MAX, MondClass, MondTag, classify
from .normal_form import TwoJetClass, corank_at_origin, reduce_to_normal_form, two_jet_class

MAX_ORDER = 20
GEOMETRY_CLASSES = (MondTag.S, MondTag.B, MondTag.C, MondTag.F4)


@dataclass
class ClassificationOutcome:
    mond: MondClass
    corank: int
    two_jet: Optional[TwoJetClass] = None
    nf: Optional[object] = None
    log: Optional[object] = None
    trace: Optional[object] = None
    warnings: list = field(default_factory=list)

    @property
    def has_geometry(self):
        return self.mond.tag in GEOMETRY_CLASSES


def classify_germ(germ, k_max=DEFAULT_K_MAX):
    """Full classification of raw germ jets."""
    corank = corank_at_origin(germ)
    if corank == 0:
        return ClassificationOutcome(MondClass(MondTag.IMMERSION), corank)
    if corank == 2:
        return ClassificationOutcome(
            MondClass(MondTag.INDETERMINATE, reason="corank 2 at the origin"), corank
        )
    tj = two_jet_class(germ)
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
    nf, log = reduce_to_normal_form(germ)
    result = classify(nf, k_max)
    return ClassificationOutcome(
        result.mond, corank, tj, nf, log, result.trace, result.warnings
    )


def working_order(spec, k_max=DEFAULT_K_MAX):
    """Jet order for classification: enough for every class probed."""
    return max(spec.order, min(2 * k_max + 1, MAX_ORDER))


def classify_spec(spec, k_max=DEFAULT_K_MAX, mode=None):
    germ = expand_germ(spec, order=working_order(spec, k_max), mode=mode)
    return classify_germ(germ, k_max)


def blowup_context(outcome):
    if not outcome.has_geometry:
        raise UnsupportedGermError(
            "blow-up geometry needs an S_k/B_k/C_k/F_4 class (got %s)"
            % outcome.mond.label
        )
    return build_context(outcome.nf, outcome.mond)


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
        "a": {
            "%d,%d" % key: format_number(val)
            for key, val in sorted(nf.a.items())
        },
        "b": {str(key): format_number(val) for key, val in sorted(nf.b.items())},
    }


def geometry_section(outcome, theta_samples=64):
    ctx = blowup_context(outcome)
    records = []
    for rec in geometry_samples(ctx, theta_grid(theta_samples)):
        records.append(
            {
                "theta": format_number(rec["theta"]),
                "K0": None if rec["K0"] is None else format_number(rec["K0"]),
                "k10": format_number(rec["k10"]),
                "k20": None if rec["k20"] is None else format_number(rec["k20"]),
                "delta1": format_number(rec["delta1"]),
                "delta2": format_number(rec["delta2"]),
                "delta3": format_number(rec["delta3"]),
                "point_type": rec["point_type"],
                "flags": rec["flags"],
            }
        )
    return {
        "n": ctx.n,
        "epsilon": ctx.epsilon,
        "theta_samples": theta_samples,
        "samples": records,
    }


def _verdict_record(p, verdict):
    return {
        "p0": [format_number(p.x0), format_number(p.y0), format_number(p.z0)],
        "sing_type": verdict.sing_type.value,
        "branch": verdict.branch.value if verdict.branch else None,
        "case": verdict.case,
        "r_plus_versal": verdict.r_plus_versal,
        "k_versal": verdict.k_versal,
        "witness": {k: format_number(v) for k, v in verdict.witness.items()},
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
            rec["theta0"] = format_number(theta0)
            rec["lambda"] = format_number(lam)
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
                "equation": {
                    "y": format_number(line.alpha),
                    "z": format_number(line.beta),
                    "rhs": format_number(line.gamma),
                },
                "direction": [format_number(x) for x in line.direction()],
                "point": [format_number(x) for x in line.point()],
            }
            for line in locus.lines
        ],
        "intersection": (
            None
            if locus.intersection is None
            else [format_number(x) for x in locus.intersection]
        ),
    }


def base_report(spec, outcome):
    report = {key: None for key in germ_io.REPORT_KEYS}
    report["class"] = class_section(outcome)
    report["normal_form"] = normal_form_section(outcome)
    report["warnings"] = list(outcome.warnings)
    report["germ"] = {
        "variables": list(spec.variables),
        "components": list(spec.components),
        "order": spec.order,
        "mode": spec.mode,
    }
    return report
