"""Exception hierarchy shared across the package."""


class NilscrollError(Exception):
    """Base class for all package-specific errors."""


class DomainError(NilscrollError):
    """An elementary function was evaluated outside its domain.

    Carries the offending function name and the base point.
    """

    def __init__(self, fn, base_point, message=None):
        self.fn = fn
        self.base_point = base_point
        super().__init__(message or f"{fn} out of domain at s={base_point!r}")


class PoleError(NilscrollError):
    """Stereographic projection evaluated at (or too close to) its pole."""


class NotLorentz(NilscrollError):
    """A user-supplied matrix fails m^T eta m = eta beyond tolerance."""

    def __init__(self, residual, tol):
        self.residual = residual
        self.tol = tol
        super().__init__(f"matrix is not Lorentz: residual {residual:.3e} > {tol:.1e}")


class ExprSyntaxError(NilscrollError):
    """Generator-expression parse failure, with byte offset and expected tokens."""

    def __init__(self, message, offset, expected=()):
        self.offset = offset
        self.expected = frozenset(expected)
        super().__init__(f"{message} at offset {offset}")


class UnknownFunction(NilscrollError):
    def __init__(self, name, offset):
        self.name = name
        self.offset = offset
        super().__init__(f"unknown function {name!r} at offset {offset}")


class DegenerateGenerator(NilscrollError):
    """h'(s) vanishes; the generator does not define a null frame there."""


class OrientationError(NilscrollError):
    """H * det(B, B', B'') <= 0; B cannot be completed to a valid frame."""


class NormalizationError(NilscrollError):
    """<B', B'> != H^2 (or B not lightlike); prescribed B is not normalized."""


class InitError(NilscrollError):
    """Initial frame for the Frenet-Serret flow fails validation."""


class StepUnderflow(NilscrollError):
    """Adaptive integrator step fell below the minimum step size."""


class MaxStepsExceeded(NilscrollError):
    """Adaptive integrator exceeded its step budget."""


class OutOfRange(NilscrollError):
    """Dense evaluation requested outside the integrated range."""


class NumericFailure(NilscrollError):
    """A computed value is not finite, or an approximation does not converge."""


class UnboundedCurve(NilscrollError):
    """B_3 ~ 0: the singular curve t(s) escapes to infinity at this s."""


class ClassifierInconsistency(NilscrollError):
    """Two mathematically equivalent singularity criteria disagree numerically."""


class OrientationBreak(NilscrollError):
    """A Lorentz transform with det = -1 would flip A x B = C."""


class NoSolutionFound(NilscrollError):
    def __init__(self, residuals, message):
        self.residuals = residuals
        super().__init__(f"{message}; residuals {residuals}")


class PreconditionError(NilscrollError):
    """A documented operation precondition does not hold."""
