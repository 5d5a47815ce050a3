"""Exception hierarchy shared by all swirlcurv modules."""

from __future__ import annotations


class SwirlcurvError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SwirlcurvError):
    """Evaluation requested outside the radial domain [0, 1] (``radial._check_domain``)."""


class RegularityError(SwirlcurvError):
    """A field fails the smoothness/regularity needed at the axis r = 0."""


class InvalidModeError(SwirlcurvError):
    """Operation requires a nonzero z-wavenumber (or otherwise malformed mode)."""


class AccuracyError(SwirlcurvError):
    """A quadrature or solver did not reach the requested accuracy.

    Carries the best available estimate so callers can decide what to do,
    and from ``quad_real`` the ``row`` of its integrand that stopped it.
    """

    def __init__(self, message: str, value=None, error_estimate=None, row=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.row = row


class DegenerateSectionError(SwirlcurvError):
    """The 2-plane spanned by the swirl field and the mode is degenerate."""


class ValidationError(SwirlcurvError):
    """Malformed configuration or argument set."""


class ParseError(SwirlcurvError):
    """Expression syntax error, annotated with the byte offset of the failure."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position
