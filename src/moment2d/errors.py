"""Exception types raised by the moment-problem pipeline.

Every error that a caller is expected to catch subclasses
:class:`Moment2dError`.  Input/serialization problems raise
:class:`SchemaError`; the remaining classes signal well-defined
mathematical or numerical gate failures and carry a human-readable
message with the offending quantity.

Each class carries the ``exit_code`` the command line returns for it:
1 input or configuration error, 2 verification or positivity failure,
3 structural gate, 4 parameter gate.
"""

EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_STRUCTURE = 3
EXIT_PARAMETER = 4


class Moment2dError(Exception):
    """Base class for all package errors."""

    exit_code = EXIT_INPUT


class SchemaError(Moment2dError):
    """Malformed input document (JSON schema or value constraints)."""

    exit_code = EXIT_INPUT


class IndexOutOfRangeError(Moment2dError):
    """A requested moment index lies outside the stored rectangle."""

    exit_code = EXIT_INPUT


class NegativeDenominatorError(Moment2dError):
    """A Carleman-type denominator is negative; the table is not usable."""

    exit_code = EXIT_INPUT


class NotPsdError(Moment2dError):
    """A moment matrix has an eigenvalue below the negativity tolerance."""

    exit_code = EXIT_VERIFY


class InconsistentShiftError(Moment2dError):
    """A shifted Gram column leaves the retained quotient span."""

    exit_code = EXIT_STRUCTURE


class DomainCollapseError(Moment2dError):
    """An operator domain came out zero-dimensional."""

    exit_code = EXIT_STRUCTURE


class SingularShiftError(Moment2dError):
    """A shift action could not be solved for (degenerate least squares)."""

    exit_code = EXIT_STRUCTURE


class FixedPointError(Moment2dError):
    """A unitary operator has a fixed point; its inverse Cayley transform
    does not exist."""

    exit_code = EXIT_PARAMETER


class ContractionViolatedError(Moment2dError):
    """A parameter matrix has a singular value above 1 + tolerance."""

    exit_code = EXIT_PARAMETER


class NotUnitaryError(Moment2dError):
    """A matrix expected to be unitary is not, within tolerance."""

    exit_code = EXIT_PARAMETER


class NotDirectSumError(Moment2dError):
    """A sum of subspaces expected to be direct has nontrivial overlap."""

    exit_code = EXIT_STRUCTURE


class NoDecompositionError(Moment2dError):
    """A vector admits no decomposition within the residual gate."""

    exit_code = EXIT_STRUCTURE


class NotSupportedError(Moment2dError):
    """The requested evaluation lies outside the supported scope."""

    exit_code = EXIT_INPUT


class CommutationViolatedError(Moment2dError):
    """An extension parameter fails the commutation requirement."""

    exit_code = EXIT_PARAMETER


class ExcludedPointError(Moment2dError):
    """An evaluation point lies in an excluded neighborhood or outside
    the declared domain."""

    exit_code = EXIT_PARAMETER


class AdmissibilityFailedError(Moment2dError):
    """An extension parameter fails the admissibility criterion."""

    exit_code = EXIT_PARAMETER


class SingularMatrixError(Moment2dError):
    """A matrix that must be inverted is numerically singular."""

    exit_code = EXIT_STRUCTURE


class ClusterAmbiguityError(Moment2dError):
    """Joint eigenvalue clusters could not be separated after retries."""

    exit_code = EXIT_STRUCTURE


class NotSelfAdjointA2Error(Moment2dError):
    """The second operator is not self-adjoint, so the pipeline that
    requires it stops.  Carries diagnostic defect indices when known."""

    exit_code = EXIT_STRUCTURE

    def __init__(self, message: str, defect_a1: int | None = None,
                 defect_a2: int | None = None):
        super().__init__(message)
        self.defect_a1 = defect_a1
        self.defect_a2 = defect_a2


class StructureViolationError(Moment2dError):
    """A structural invariant (subspace invariance, isometry range,
    direct-sum bookkeeping) failed numerically."""

    exit_code = EXIT_STRUCTURE


#: The exception classes in definition order, not the ``EXIT_*`` codes.
__all__ = [name for name, obj in list(globals().items())
           if isinstance(obj, type) and issubclass(obj, Moment2dError)]
