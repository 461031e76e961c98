"""Classification and blow-up differential geometry of corank-1 map-germs
(R^2, 0) -> (R^3, 0): A-simple class recognition, curvature series over the
singularity, distance-squared function singularities and versality, focal
loci, and wave-front/caustic type predictions.

The mesh names from ``front`` (which needs numpy) and ``closed_forms`` are
resolved on first access, so importing the package loads neither module.
"""

import importlib

from .blowup import (
    BlowupContext,
    FrontType,
    FrontVerdict,
    PointType,
    RidgeReport,
    build_context,
    front_verdict,
    ridge_report,
    series_columns,
    theta_grid,
)
from .distance import (
    Branch,
    DistSing,
    DistanceVerdict,
    FocalKind,
    FocalLocus,
    ProbePoint,
    SingularPointType,
    classify_distance,
    distance_jet,
    focal_locus,
    geometric_verdict,
    singular_point_type,
    versality_rank_test,
)
from .germ_io import (
    GermSpec,
    emit_mesh,
    emit_report,
    expand_germ,
    load_germ,
    parse_polynomial,
    print_polynomial,
)
from .jets import EXACT, FLOAT, GermJets, Jet2
from .mond import (
    BkRecursionTrace,
    MondClass,
    MondTag,
    bk_recursion,
    classify,
)
from .normal_form import (
    NormalFormCoeffs,
    TransformLog,
    TwoJetClass,
    corank_at_origin,
    reduce_to_normal_form,
)
from .oracle import (
    K_EQUIV,
    R_PLUS,
    SingularityType,
    split_and_type,
    versality_rank_oracle,
)
from .pipeline import ClassificationOutcome, classify_germ, classify_spec

__version__ = "0.1.0"

# public name -> submodule, imported on first access (PEP 562)
_LAZY = {
    "crosscheck_closed_forms": "closed_forms",
    "Mesh": "front",
    "WavefrontSpec": "front",
    "focal_sheet_mesh": "front",
    "surface_mesh": "front",
    "wavefront_mesh": "front",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "BkRecursionTrace", "BlowupContext", "Branch", "ClassificationOutcome",
    "DistSing", "DistanceVerdict", "EXACT", "FLOAT", "FocalKind",
    "FocalLocus", "FrontType", "FrontVerdict", "GermJets", "GermSpec",
    "Jet2", "K_EQUIV", "Mesh", "MondClass", "MondTag", "NormalFormCoeffs",
    "PointType", "ProbePoint", "R_PLUS", "RidgeReport", "SingularPointType",
    "SingularityType", "TransformLog", "TwoJetClass", "WavefrontSpec",
    "bk_recursion", "build_context", "classify", "classify_distance",
    "classify_germ", "classify_spec", "corank_at_origin",
    "crosscheck_closed_forms", "distance_jet", "emit_mesh", "emit_report",
    "expand_germ", "focal_locus", "focal_sheet_mesh", "front_verdict",
    "geometric_verdict", "load_germ", "parse_polynomial",
    "print_polynomial", "reduce_to_normal_form", "ridge_report",
    "series_columns", "singular_point_type", "split_and_type",
    "surface_mesh", "theta_grid",
    "versality_rank_oracle", "versality_rank_test", "wavefront_mesh",
]
