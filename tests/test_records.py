"""The package's record classes behave as the dataclasses they replace.

Each entry pins a record's constructor (field order, keyword names and
defaults) and whether it is frozen; the reference is a dataclass made here
from the same fields, so equality, hashing, immutability, defaults and repr
are held to the ``dataclasses`` semantics they had.
"""

import copy
import dataclasses
from fractions import Fraction

import pytest

from germforge.blowup import BlowupContext, FrontType, FrontVerdict, PointType, RidgeReport
from germforge.closed_forms import CrosscheckEntry
from germforge.distance import (
    Branch,
    DistanceVerdict,
    DistSing,
    FocalKind,
    FocalLine,
    FocalLocus,
    GeometricVerdict,
    ProbePoint,
)
from germforge.front import Mesh, WavefrontSpec
from germforge.germ_io import GermSpec
from germforge.jets import EXACT, FLOAT, Jet2
from germforge.mond import BkRecursionTrace, ClassifyResult, MondClass, MondTag
from germforge.normal_form import (
    NormalFormCoeffs,
    RotationStep,
    SubstitutionStep,
    TransformLog,
)
from germforge.oracle import SingularityType
from germforge.pipeline import ClassificationOutcome

from conftest import make_nf

REQUIRED = dataclasses.MISSING
NF = make_nf(order=6, mode=FLOAT,
             a={(2, 0): 0.7, (2, 1): 1.4, (0, 3): 0.9}, b={2: 1.1, 3: 0.8})
LINE = FocalLine(1, Fraction(1, 2), 2)
VERDICT = DistanceVerdict(DistSing.A1, Branch.OFF_PRINCIPAL, "1", True, True, {"C4": 1})
ROTATION = RotationStep(((1, 0, 0), (0, 1, 0), (0, 0, 1)), EXACT, ((0, ((1, 0),)),))

# (class, frozen, [(field, default or REQUIRED, or list/dict for a fresh
# one per object)], values of every field)
RECORDS = [
    (BlowupContext, False, [("nf", REQUIRED), ("n", REQUIRED)], (NF, 1)),
    (RidgeReport, False,
     [(name, REQUIRED) for name in (
         "theta", "delta1", "delta2", "delta3", "is_ridge", "is_first_order_ridge",
         "is_subparabolic", "point_type", "k10", "k10_scale", "normal_r0", "ma")],
     (0.1, 1.0, 2.0, 3.0, True, False, True, PointType.ELLIPTIC, 0.5, 1.0,
      (0.0, 1.0, 0.0), 2.0)),
    (FrontVerdict, False,
     [("wavefront_type", REQUIRED), ("caustic_type", REQUIRED), ("basis", REQUIRED)],
     (FrontType.SWALLOWTAIL, FrontType.CUSPIDAL_EDGE, {"is_ridge": True})),
    (ProbePoint, True, [("x0", REQUIRED), ("y0", REQUIRED), ("z0", REQUIRED)],
     (Fraction(1, 2), 0, 3)),
    (DistanceVerdict, False,
     [("sing_type", REQUIRED), ("branch", REQUIRED), ("case", REQUIRED),
      ("r_plus_versal", REQUIRED), ("k_versal", REQUIRED), ("witness", dict)],
     (DistSing.A2, None, "2b", False, False, {"a03": 1})),
    (FocalLine, True, [("alpha", REQUIRED), ("beta", REQUIRED), ("gamma", REQUIRED)],
     (1, Fraction(1, 2), 2)),
    (FocalLocus, False, [("kind", REQUIRED), ("lines", REQUIRED), ("intersection", REQUIRED)],
     (FocalKind.SINGLE_LINE, (LINE,), None)),
    (GeometricVerdict, False, [("verdict", REQUIRED), ("flags", REQUIRED), ("probe", REQUIRED)],
     (VERDICT, {"is_ridge": True}, ProbePoint(0, 1, 2))),
    (GermSpec, True,
     [("variables", REQUIRED), ("components", REQUIRED), ("order", REQUIRED),
      ("mode", REQUIRED), ("probes", ()), ("theta_lambda", ())],
     (("u", "v"), ("u", "v^2", "v^3"), 6, EXACT, ((0, 1, 2),), ((0.5, 1.0),))),
    (MondClass, True,
     [("tag", REQUIRED), ("k", None), ("sign", None), ("reason", None)],
     (MondTag.INDETERMINATE, None, None, "corank 2 at the origin")),
    (BkRecursionTrace, False,
     [("k", REQUIRED), ("c", dict), ("xi", dict), ("scale", 1.0)],
     (3, {2: 1}, {2: 0}, 2.0)),
    (ClassifyResult, False, [("mond", REQUIRED), ("trace", None)],
     (MondClass(MondTag.B, 2, "+"), BkRecursionTrace(2, {2: 1}, {2: 1}))),
    (NormalFormCoeffs, True,
     [("order", REQUIRED), ("mode", REQUIRED), ("a", REQUIRED), ("b", REQUIRED)],
     (4, EXACT, {(2, 0): 1, (2, 1): 1}, {2: 1})),
    (RotationStep, True, [("matrix", REQUIRED), ("mode", REQUIRED), ("kills", REQUIRED)],
     (((0, 1, 0), (1, 0, 0), (0, 0, 1)), EXACT, ())),
    (SubstitutionStep, True,
     [("u_new", REQUIRED), ("v_new", REQUIRED), ("mode", REQUIRED), ("kills", REQUIRED)],
     (Jet2.variable("u", 3, EXACT), Jet2.variable("v", 3, EXACT), EXACT, ())),
    (TransformLog, False, [("steps", list), ("mode_used", EXACT)], ([ROTATION], FLOAT)),
    (SingularityType, False,
     [("tag", REQUIRED), ("k", None), ("corank", 0)],
     ("A", 2, 1)),
    (ClassificationOutcome, False,
     [("mond", REQUIRED), ("corank", REQUIRED), ("two_jet", None), ("nf", None),
      ("log", None), ("trace", None)],
     (MondClass(MondTag.IMMERSION), 0, None, NF, TransformLog(), None)),
    (Mesh, False, [("vertices", REQUIRED), ("faces", REQUIRED), ("metadata", dict),
                   ("skipped", 0)],
     ([[0.0, 0.0, 0.0]], [[0, 0, 0]], {"kind": "surface"}, 1)),
    (WavefrontSpec, False,
     [("t0", 0.0), ("grid", (64, 64)), ("chart", "direct"), ("extent", 1.0),
      ("r_max", 0.5), ("context", None)],
     (0.1, (8, 8), "direct", 2.0, 0.25, None)),
    (CrosscheckEntry, False,
     [("symbol", REQUIRED), ("theta", REQUIRED), ("pipeline", REQUIRED),
      ("reference", REQUIRED), ("delta", REQUIRED), ("suspected_typo", False)],
     ("n21", 0.1, 1.0, 1.0, 0.0, True)),
]


def _reference(cls, frozen, fields):
    spec = []
    for name, default in fields:
        if default is REQUIRED:
            spec.append((name, object))
        elif default in (list, dict):
            spec.append((name, object, dataclasses.field(default_factory=default)))
        else:
            spec.append((name, object, dataclasses.field(default=default)))
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=frozen)


def _hash_or_error(x):
    try:
        return hash(x)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls, frozen, fields, values", RECORDS,
                         ids=[entry[0].__name__ for entry in RECORDS])
def test_record_keeps_its_dataclass_semantics(cls, frozen, fields, values):
    ref = _reference(cls, frozen, fields)
    names = [name for name, _ in fields]
    obj = cls(*values)
    assert [getattr(obj, name) for name in names] == list(values)
    assert obj == cls(**dict(zip(names, values))) != ref(*values)
    assert repr(obj) == repr(ref(*values))
    assert copy.copy(obj) == obj
    assert _hash_or_error(obj) == _hash_or_error(ref(*values))
    if _hash_or_error(obj) is not TypeError:
        assert hash(obj) == hash(tuple(values))
    if frozen:
        with pytest.raises(AttributeError):
            setattr(obj, names[-1], values[-1])
    else:
        setattr(obj, names[-1], values[-1])
        assert getattr(obj, names[-1]) is values[-1]

    # the defaults, with a fresh list or dict for each object
    required = [v for v, (_, default) in zip(values, fields) if default is REQUIRED]
    if len(required) < len(values):
        first, second = cls(*required), cls(*required)
        assert repr(first) == repr(ref(*required)) and first == second != obj
        for name, default in fields:
            if default in (list, dict):
                assert getattr(first, name) is not getattr(second, name)
