"""Exception types shared across the package."""


_ECHO_LIMIT = 40


def quoted(text: str) -> str:
    """A piece of user input for an error message: its repr, cut after
    ``_ECHO_LIMIT`` characters and followed by its length when it is longer."""
    if len(text) <= _ECHO_LIMIT:
        return repr(text)
    return f"{text[:_ECHO_LIMIT]!r}... ({len(text)} characters)"


class BihomError(Exception):
    """Base class for all library errors."""


class DivisionByZero(BihomError, ZeroDivisionError):
    """Division by the zero scalar."""


class UnboundParameter(BihomError):
    """A substitution left a parameter occurring in the value unbound."""


class DenominatorVanishes(BihomError):
    """A substitution sends the denominator to zero (the binding hits a pole)."""


class Singular(BihomError):
    """Matrix inversion attempted on a singular matrix."""


class AmbientMismatch(BihomError):
    """Subspace operation on subspaces of different ambient dimensions."""


class DimensionMismatch(BihomError):
    """Structure tensors are dimensionally inconsistent."""


class NotAGroup(BihomError):
    """A Cayley table fails a group axiom; carries the violated cell."""


class NotInvertible(BihomError):
    """An element of the tensor-square algebra has no inverse."""


class NotBijective(BihomError):
    """A construction requires bijective twisting maps and got a singular one."""


class NotTriangular(BihomError):
    """A construction requires a triangular R-matrix."""


class NotEndomorphism(BihomError):
    """A twisting map fails to be a bracket endomorphism or H-linear."""


class ConstructionError(BihomError):
    """A construction was given an input it is not defined on, or produced
    an object that fails its own axiom suite."""


class ParseError(BihomError):
    """Located syntax error in a scalar expression or algebra file."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}, column {column})"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class ValidationError(BihomError):
    """Semantic errors in an algebra file; carries all located findings."""

    def __init__(self, findings):
        self.findings = list(findings)
        super().__init__("; ".join(self.findings))
