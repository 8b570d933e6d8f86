"""Finite-dimensional two-dimensional moment problem toolkit.

Builds the quotient Hilbert space of a moment table, the pair of shift
operators with their Cayley transforms and defect subspaces, evaluates
generalized resolvents of the pair, enumerates canonical solutions
parameterized by commutant unitaries, and recovers atomic measures with
independent verification.  The :mod:`moment2d.cli` module exposes the
same pipelines on the command line.
"""

from .cayley import (CayleyIsometry, ConjugationFactorization,
                     ContractionParameter, ExtensionData, IsometricPair,
                     build_isometric_pair, cayley, commutation_check,
                     constant_admissibility, extend_isometry, fixed_subspace,
                     forbidden_operator, godich_lutsenko, inverse_cayley,
                     minimal_subspace, strip_fixed_elements)
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (AdmissibilityFailedError, ClusterAmbiguityError,
                     CommutationViolatedError, ContractionViolatedError,
                     DomainCollapseError, EmbeddingLostError,
                     ExcludedPointError, FixedPointError,
                     InconsistentShiftError, IndexOutOfRangeError,
                     Moment2dError, NegativeDenominatorError,
                     NoDecompositionError, NotDirectSumError, NotPsdError,
                     NotSelfAdjointA2Error, NotSupportedError,
                     NotUnitaryError, PointMismatchError, SchemaError,
                     SingularMatrixError, SingularShiftError,
                     StructureViolationError)
from .gns import (GnsSpace, SymmetricPair, build_gns, build_operators,
                  quasianalytic_vector_check)
from .moments import (VERDICT_CONVERGING, VERDICT_DIVERGING,
                      VERDICT_INCONCLUSIVE, AtomicMeasure, CarlemanReport,
                      MomentTable, carleman_diagnostic, check_psd,
                      moment_matrix, moments_of_measure, monomial_indices)
from .resolvents import (PreparedPair, ResolventSample, TrigMomentTable,
                         cayley_point, chumakin_resolvent,
                         correspondence_check, inverse_cayley_point,
                         pair_resolvent_of_measure, pair_resolvent_symmetric,
                         pair_resolvent_unitary, prepare_pair,
                         trig_moments_from_resolvent, unitary_moebius)
from .scenarios import Scenario, e1, e2, e3, e3_class, random_atomic_measure
from .solutions import (CanonicalExtension, SamplerSpec, SolutionReport,
                        canonical_extension, determinacy,
                        enumerate_commutant_unitaries,
                        joint_spectral_measure, moments_from_pair,
                        refine_measure, solve_canonical, verify_solution)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # moments
    "MomentTable", "AtomicMeasure", "CarlemanReport",
    "VERDICT_DIVERGING", "VERDICT_CONVERGING", "VERDICT_INCONCLUSIVE",
    "monomial_indices", "moments_of_measure", "moment_matrix", "check_psd",
    "carleman_diagnostic",
    # space and operators
    "GnsSpace", "SymmetricPair", "build_gns", "build_operators",
    "quasianalytic_vector_check",
    # Cayley machinery
    "CayleyIsometry", "IsometricPair", "ExtensionData",
    "ContractionParameter", "ConjugationFactorization", "cayley",
    "inverse_cayley", "build_isometric_pair", "extend_isometry",
    "godich_lutsenko",
    "fixed_subspace", "strip_fixed_elements", "forbidden_operator",
    "constant_admissibility", "commutation_check", "minimal_subspace",
    # resolvents
    "ResolventSample", "TrigMomentTable", "PreparedPair", "cayley_point",
    "inverse_cayley_point", "chumakin_resolvent", "unitary_moebius",
    "pair_resolvent_unitary", "prepare_pair", "pair_resolvent_symmetric",
    "pair_resolvent_of_measure", "correspondence_check",
    "trig_moments_from_resolvent",
    # solutions
    "SamplerSpec", "CanonicalExtension", "SolutionReport",
    "enumerate_commutant_unitaries", "canonical_extension",
    "joint_spectral_measure", "verify_solution", "determinacy",
    "moments_from_pair", "refine_measure", "solve_canonical",
    # scenarios
    "Scenario", "e1", "e2", "e3", "e3_class", "random_atomic_measure",
    # configuration and errors
    "Tolerances", "DEFAULT_TOLERANCES",
    "Moment2dError", "SchemaError", "IndexOutOfRangeError",
    "NegativeDenominatorError", "NotPsdError", "InconsistentShiftError",
    "DomainCollapseError", "SingularShiftError", "FixedPointError",
    "ContractionViolatedError", "NotUnitaryError", "EmbeddingLostError",
    "NotDirectSumError", "NoDecompositionError", "NotSupportedError",
    "CommutationViolatedError", "ExcludedPointError",
    "AdmissibilityFailedError", "PointMismatchError", "SingularMatrixError",
    "ClusterAmbiguityError", "NotSelfAdjointA2Error",
    "StructureViolationError",
]
