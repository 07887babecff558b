"""Exception types shared across the toolkit.

Every domain failure raises a subclass of QuadLatError.  The CLI maps the
``code`` attribute into its structured JSON error output and exits with
status 2; anything else is a usage or programming error.
"""


class QuadLatError(Exception):
    code = "Error"


# exact linear algebra

class NonSquare(QuadLatError):
    code = "NonSquare"


class SingularMatrix(QuadLatError):
    code = "SingularMatrix"


class DimensionMismatch(QuadLatError):
    code = "DimensionMismatch"


# lattice construction and discriminant data

class NotSymmetric(QuadLatError):
    code = "NotSymmetric"


class Degenerate(QuadLatError):
    code = "Degenerate"


class BadParameter(QuadLatError):
    code = "BadParameter"


class UnknownAtom(QuadLatError):
    code = "UnknownAtom"


class OddLattice(QuadLatError):
    code = "OddLattice"


class TooLarge(QuadLatError):
    code = "TooLarge"


# embeddings and isometries

class NotDefinite(QuadLatError):
    code = "NotDefinite"


class NotRepresented(QuadLatError):
    code = "NotRepresented"


class ParityViolation(QuadLatError):
    code = "ParityViolation"


class NotAnIsometry(QuadLatError):
    code = "NotAnIsometry"


class NotSpecialOrthogonal(QuadLatError):
    code = "NotSpecialOrthogonal"


class NotInTildeO(QuadLatError):
    code = "NotInTildeO"


# glue groups

class NotIsotropic(QuadLatError):
    code = "NotIsotropic"


# periods

class NotPositive(QuadLatError):
    code = "NotPositive"


class WrongSignature(QuadLatError):
    code = "WrongSignature"


class DegenerateRestriction(QuadLatError):
    code = "DegenerateRestriction"


class HodgeClosureMismatch(QuadLatError):
    """Span-closure and complement-closure disagree.

    Should be unreachable for validated quadratic periods; carries both
    computed sublattices so the caller can inspect the disputed case
    instead of silently accepting either answer.
    """

    code = "HodgeClosureMismatch"

    def __init__(self, message, span_closure, complement_closure):
        super().__init__(message)
        self.span_closure = span_closure
        self.complement_closure = complement_closure


class InvariantViolation(QuadLatError):
    """A computed result contradicts what is proved about it.

    Should be unreachable; raised by the explicit self-checks (which,
    unlike ``assert``, also run under ``python -O``) and carries the
    offending data as keyword attributes in ``data`` so the case can be
    inspected.
    """

    code = "InvariantViolation"

    def __init__(self, message, **data):
        super().__init__(message)
        self.data = data


# cohomology quotients and finite groups mod ell

class NotSaturated(QuadLatError):
    code = "NotSaturated"


class NotInvertible(QuadLatError):
    code = "NotInvertible"


# expression parsing

class ParseError(QuadLatError):
    code = "ParseError"

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UsageError(QuadLatError):
    """Command-line usage problem; exits with status 1 instead of 2."""

    code = "UsageError"
