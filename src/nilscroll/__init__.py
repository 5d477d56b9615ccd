"""B-scrolls in Lorentz-Minkowski 3-space and their dual timelike minimal
surfaces in the Lorentzian Heisenberg group, with singularity classification.
"""

import types

from .errors import (ClassifierInconsistency, DegenerateGenerator, DomainError, ExprSyntaxError,
                     InitError, InputError, NilscrollError, NoSolutionFound, NumericFailure,
                     OrientationBreak, OutOfRange, PreconditionError, UnknownFunction)
from .frames import (NullFrame, frame_flow_from_curvatures, frame_from_h, make_frame_source,
                     validate_frame)
from .hexpr import eval_jet, mobius, parse, to_str
from .integrate import CurvePath, integrate_curve
from .jets import Jet, schwarzian
from .lorentz import ETA, LorentzTransform, mcross, mdot
from .singular import (Classification, SingularKind, SingularPoint, SingularReport, classify_point,
                       find_notce_transform, invariance_check, scan_singularities, singular_t,
                       transform_frame)
from .surface import ScrollSurface

__version__ = "0.1.0"
# the names imported above, not the submodules they come from
__all__ = sorted(n for n, v in globals().items() if n[0] != "_" and not isinstance(v, types.ModuleType))
