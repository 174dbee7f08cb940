"""Exception hierarchy shared across the toolkit."""


class CuspwaveError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(CuspwaveError):
    """Invalid parameters (m1 == m2, unsupported m/n, ...)."""


class DomainError(CuspwaveError):
    """Input outside the operation's domain (t < 0, wrong dimension, ...)."""


class GridMismatchError(CuspwaveError):
    """Fields on incompatible grids were combined."""


class QuadratureError(CuspwaveError):
    """Time grid unsuitable for the requested quadrature rule."""


class ConvergenceError(CuspwaveError):
    """Iteration failed to converge; carries the report when available."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ParseError(CuspwaveError):
    """Config-file or data-spec syntax error with position information.

    path names the file once the reader that opened it knows; line and
    column are None where the error has no single place (a missing key).
    """

    def __init__(self, message, line=None, column=None, expected=None, path=None):
        super().__init__(message)
        self.line = line
        self.column = column
        self.expected = expected or []
        self.path = path
