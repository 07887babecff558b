"""Exception types shared across the toolkit.

Every domain failure raises a subclass of QuadLatError.  The CLI maps the
``code`` attribute into its structured JSON error output and exits with
status 2; anything else is a usage or programming error.
"""


class QuadLatError(Exception):
    code = "Error"

    def __init_subclass__(cls, **kwargs):
        # the code of every subclass, which the CLI reports, is its class name
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__


# exact linear algebra

class NonSquare(QuadLatError):
    pass


class SingularMatrix(QuadLatError):
    pass


class DimensionMismatch(QuadLatError):
    pass


# lattice construction and discriminant data

class NotSymmetric(QuadLatError):
    pass


class Degenerate(QuadLatError):
    pass


class BadParameter(QuadLatError):
    pass


class UnknownAtom(QuadLatError):
    pass


class OddLattice(QuadLatError):
    pass


class TooLarge(QuadLatError):
    pass


# embeddings and isometries

class NotDefinite(QuadLatError):
    pass


class NotRepresented(QuadLatError):
    pass


class ParityViolation(QuadLatError):
    pass


class NotAnIsometry(QuadLatError):
    pass


class NotSpecialOrthogonal(QuadLatError):
    pass


class NotInTildeO(QuadLatError):
    pass


# glue groups

class NotIsotropic(QuadLatError):
    pass


# periods

class NotPositive(QuadLatError):
    pass


class WrongSignature(QuadLatError):
    pass


class InvariantViolation(QuadLatError):
    """A computed result contradicts what is proved about it.

    Should be unreachable; raised by the explicit self-checks (which,
    unlike ``assert``, also run under ``python -O``) and carries the
    offending data as keyword attributes in ``data`` so the case can be
    inspected.
    """

    def __init__(self, message, **data):
        super().__init__(message)
        self.data = data


# cohomology quotients and finite groups mod ell

class NotSaturated(QuadLatError):
    pass


class NotInvertible(QuadLatError):
    pass


# expression parsing

class ParseError(QuadLatError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UsageError(QuadLatError):
    """Command-line usage problem; exits with status 1 instead of 2."""

