"""B-scrolls in Lorentz-Minkowski 3-space and their dual timelike minimal
surfaces in the Lorentzian Heisenberg group, with singularity classification.
"""

from .errors import (
    ClassifierInconsistency,
    DegenerateGenerator,
    DomainError,
    ExprSyntaxError,
    InitError,
    InputError,
    NilscrollError,
    NormalizationError,
    NoSolutionFound,
    NumericFailure,
    OrientationBreak,
    OrientationError,
    OutOfRange,
    PreconditionError,
    UnknownFunction,
)
from .frames import (
    NullFrame,
    frame_flow_from_curvatures,
    frame_from_B,
    frame_from_h,
    make_frame_source,
    validate_frame,
)
from .hexpr import eval_jet, eval_real, mobius, parse, to_str
from .integrate import CurvePath, integrate_curve
from .jets import Jet, schwarzian
from .lorentz import ETA, LorentzTransform, ParaComplex, Vec3L, is_lorentz, mcross, mdot
from .singular import (
    SingularKind,
    SingularPoint,
    SingularReport,
    classify_point,
    find_notce_transform,
    invariance_check,
    scan_singularities,
    singular_t,
    transform_frame,
)
from .surface import FundamentalForms, ScrollSurface

__version__ = "0.1.0"

__all__ = [
    "ClassifierInconsistency",
    "CurvePath",
    "DegenerateGenerator",
    "DomainError",
    "ETA",
    "ExprSyntaxError",
    "FundamentalForms",
    "InitError",
    "InputError",
    "Jet",
    "LorentzTransform",
    "NilscrollError",
    "NormalizationError",
    "NoSolutionFound",
    "NumericFailure",
    "NullFrame",
    "OrientationBreak",
    "OrientationError",
    "OutOfRange",
    "ParaComplex",
    "PreconditionError",
    "ScrollSurface",
    "SingularKind",
    "SingularPoint",
    "SingularReport",
    "UnknownFunction",
    "Vec3L",
    "classify_point",
    "eval_jet",
    "eval_real",
    "find_notce_transform",
    "frame_flow_from_curvatures",
    "frame_from_B",
    "frame_from_h",
    "integrate_curve",
    "invariance_check",
    "is_lorentz",
    "make_frame_source",
    "mcross",
    "mdot",
    "mobius",
    "parse",
    "scan_singularities",
    "schwarzian",
    "singular_t",
    "to_str",
    "transform_frame",
    "validate_frame",
]
