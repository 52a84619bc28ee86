"""Exception types shared across the package, and the bounded echo that
their messages use to quote input."""

import reprlib

_ECHO = reprlib.Repr()
_ECHO.maxlevel = 1
_ECHO.maxdict = 2
_ECHO.maxlist = _ECHO.maxtuple = 3
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = 16


def echo(value) -> str:
    """``repr(value)`` cut to at most about 80 characters, for a message
    that quotes an input value: strings and numbers lose their middle, and
    containers show their first few members, one level deep."""
    return _ECHO.repr(value)


class GraphDivError(Exception):
    """Base class for all package-specific errors."""


class ParseError(GraphDivError, ValueError):
    """Malformed graph input.

    ``kind`` distinguishes the failure mode: "header" (bad or missing
    header), "range" (a byte or vertex id outside its legal range), or
    "count" (edge data inconsistent with the declared size).
    """

    def __init__(self, message: str, *, kind: str):
        super().__init__(message)
        self.kind = kind


class BudgetExceededError(GraphDivError):
    """An exact oracle was asked to run beyond its configured size budget."""


class NotInClassError(GraphDivError):
    """The input graph violates a hereditary-class precondition.

    ``witnesses`` holds one embedding per violated hypothesis (for example
    an induced C5 handed to the 2-division routine).
    """

    def __init__(self, message: str, witnesses=()):
        super().__init__(message)
        self.witnesses = tuple(witnesses)


class DegenerateCliqueError(GraphDivError):
    """A division was requested for a graph with clique number at most 1."""


class TheoremViolationError(GraphDivError):
    """A guaranteed postcondition failed its verification.

    This signals an implementation bug (or a falsified guarantee) and
    carries the derivation log accumulated up to the failure.
    """

    def __init__(self, message: str, log=None):
        super().__init__(message)
        self.log = list(log or [])
