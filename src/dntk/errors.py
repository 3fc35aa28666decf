"""Exception hierarchy shared across the package.

Two families matter to callers: InputError covers malformed arguments,
files, and configs (CLI exit code 1), NumericalError covers well-formed
problems that are numerically degenerate (CLI exit code 2). The class
name doubles as the machine-readable code printed on stderr by the CLI.
"""


class DntkError(Exception):
    """Base class for every error raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class InputError(DntkError):
    """Bad shapes, ranges, indices, files, or config fields."""


class NumericalError(DntkError):
    """The inputs were well-formed but the computation degenerated."""


# ---------------------------------------------------------------- inputs

class NotSquare(InputError):
    pass


class NotSymmetric(InputError):
    pass


class NonFinite(InputError):
    pass


class EmptyInput(InputError):
    pass


class DimMismatch(InputError):
    pass


class ShapeMismatch(InputError):
    pass


class BadEps(InputError):
    pass


class BadLambda(InputError):
    pass


class KTooLarge(InputError):
    pass


class HTooLarge(InputError):
    pass


class IndexOutOfRange(InputError):
    pass


class STooLarge(InputError):
    pass


class RankTooLarge(InputError):
    pass


class ScaleMismatch(InputError):
    pass


class NonOrthonormalBasis(InputError):
    pass


class NotAProjector(InputError):
    pass


class RankMismatch(InputError):
    pass


class NotSmooth(InputError):
    pass


class PreconditionFailed(InputError):
    pass


class InsufficientMemory(InputError):
    """An allocation the machine has no room for, refused before it is tried."""


# config / file formats

class UnknownField(InputError):
    pass


class ParseError(InputError):
    pass


class VersionMismatch(InputError):
    pass


class TruncatedFile(InputError):
    pass


class IoError(InputError):
    pass


# ------------------------------------------------------------- numerical

class SingularSystem(NumericalError):
    pass


class Divergence(NumericalError):
    pass


class ZeroTrace(NumericalError):
    pass


class ZeroScores(NumericalError):
    pass


class RankZeroCluster(NumericalError):
    pass


class DisconnectedDegenerate(NumericalError):
    pass
