"""Exception types shared across the package."""


class GsrepError(Exception):
    """Base class for all package errors."""


class NotHermitian(GsrepError):
    pass


class ConvergenceFailure(GsrepError):
    pass


class DimensionMismatch(GsrepError):
    pass


class UnsupportedKind(GsrepError):
    pass


class NotDiagonal(GsrepError):
    pass


class NotDiagonalizable(GsrepError):
    pass


class NotDominant(GsrepError):
    pass


class DimensionOracleMismatch(GsrepError):
    """Constructed representation dimension disagrees with the counting oracle."""


class NonCommutingCartan(GsrepError):
    pass


class NotIrreducible(GsrepError):
    pass


class NotPSD(GsrepError):
    pass


class SplitInvalid(GsrepError):
    pass


class LengthMismatch(GsrepError):
    pass


class SectorOutOfRange(GsrepError):
    """A Fock particle-number sector outside [0, cutoff]."""


class SchemaError(GsrepError):
    pass
