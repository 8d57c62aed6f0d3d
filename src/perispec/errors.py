"""Typed exceptions shared across the package.

Every failure mode a caller may want to branch on has its own class; all of
them derive from :class:`PerispecError` so library users can catch broadly.
"""


class PerispecError(Exception):
    """Base class for every error raised by this package."""


class MapFileError(PerispecError):
    """A map or block-matrix file is malformed or violates its schema."""


class AlgebraMismatch(PerispecError):
    """Operands live in different block algebras."""


class DimensionMismatch(PerispecError):
    """Matrix shapes are incompatible with the requested operation."""


class NotHermitian(PerispecError):
    """An operation required a Hermitian matrix and did not get one."""


class ConvergenceFailure(PerispecError):
    """An iterative eigenvalue or singular-value routine did not converge."""


class CommutationViolated(PerispecError):
    """A criterion that needs commuting blocks received non-commuting ones."""


class HypothesesViolated(PerispecError):
    """A transformation's algebraic hypotheses do not hold for the input."""


class NotPSDInput(PerispecError):
    """A transformation that preserves positivity received a non-PSD input."""


class MultiBlockUnsupported(PerispecError):
    """The operation is only defined on single-block algebras."""


class NoPositiveFixedState(PerispecError):
    """No positive, trace-one fixed point of the dual map could be found."""


class NotEigenvector(PerispecError):
    """The supplied element is not an eigenvector of the map at the given value."""


class NotScalarCombination(PerispecError):
    """A combination that must be a scalar multiple of the identity is not."""


class ThetaOutOfRange(PerispecError):
    """The squared-overlap invariant is complex, nonpositive, or above 1/4."""


class ProjectionMismatch(PerispecError):
    """A derived projection or unitary fails its defining relations."""


class SplitNotEigen(PerispecError):
    """A partial-isometry component of a split is not itself an eigenvector."""


class InvariantViolated(PerispecError):
    """A structural invariant of a classification result does not hold."""


class LambdaNotInSpectrum(PerispecError):
    """The requested eigenvalue is not in the computed point spectrum."""


class BadLambda0(PerispecError):
    """The unit-circle parameter of a preset family is out of its admissible set."""
