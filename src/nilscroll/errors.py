"""Exception hierarchy shared across the package."""


class NilscrollError(Exception):
    """Base class for all package-specific errors."""


class InputError(NilscrollError):
    """The input (generator, frame, transform or option) is not accepted; CLI exit 2."""


class DomainError(InputError):
    """An elementary function was evaluated outside its domain.

    Carries the function name and the curve parameter ``base_point``; hexpr
    adds the byte ``offset``, which locates a constant sub-expression (no s).
    """

    def __init__(self, fn, base_point, message=None):
        self.fn = fn
        self.base_point = base_point
        self.offset = None
        super().__init__(message or f"{fn} out of domain")

    def __str__(self):
        if self.base_point is not None:
            return f"{self.args[0]} at s={self.base_point!r}"
        if self.offset is not None:
            return f"{self.args[0]} at offset {self.offset}"
        return self.args[0]


class ExprSyntaxError(InputError):
    """Generator-expression parse failure, with its byte offset."""

    def __init__(self, message, offset):
        self.offset = offset
        super().__init__(f"{message} at offset {offset}")


class UnknownFunction(InputError):
    def __init__(self, name, offset):
        self.name = name
        self.offset = offset
        super().__init__(f"unknown function {name!r} at offset {offset}")


class DegenerateGenerator(InputError):
    """h'(s) vanishes; the generator does not define a null frame there."""


class InitError(InputError):
    """Initial frame for the Frenet-Serret flow fails validation."""


class OutOfRange(NilscrollError):
    """Dense evaluation requested outside the integrated range."""


class NumericFailure(NilscrollError):
    """A computed value is not finite, or an approximation does not converge."""


class ClassifierInconsistency(NilscrollError):
    """c_L''s closed form and its jet route, equal on a null frame, disagree numerically."""


class OrientationBreak(InputError):
    """A Lorentz transform with det = -1 would flip A x B = C."""


class NoSolutionFound(NilscrollError):
    def __init__(self, residuals, message):
        self.residuals = residuals
        super().__init__(f"{message}; residuals {residuals}")


class PreconditionError(InputError):
    """A documented operation precondition does not hold."""


class OutputError(InputError):
    """An output file cannot be written (missing directory, a directory in
    its place, no permission); CLI exit 2."""
