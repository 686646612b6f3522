"""Exception types shared across the package."""


class SgfemError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(SgfemError, ValueError):
    pass


class OutOfDomainError(SgfemError, ValueError):
    pass


class DiscontinuousInputError(SgfemError, ValueError):
    pass


class CoefficientNotPositiveError(SgfemError, ValueError):
    pass


class NotPositiveDefiniteError(SgfemError, ArithmeticError):
    pass


class ConvergenceFailureError(SgfemError, ArithmeticError):
    pass


class InsufficientDataError(SgfemError, ValueError):
    pass


class DegenerateAlignmentError(SgfemError, ArithmeticError):
    pass


class EigenvalueMismatchError(SgfemError, ArithmeticError):
    pass
