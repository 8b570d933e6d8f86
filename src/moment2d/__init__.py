"""Finite-dimensional two-dimensional moment problem toolkit.

Builds the quotient Hilbert space of a moment table, the pair of shift
operators with their Cayley transforms and defect subspaces, evaluates
generalized resolvents of the pair, enumerates canonical solutions
parameterized by commutant unitaries, and recovers atomic measures with
independent verification.  The :mod:`moment2d.cli` module exposes the
same pipelines on the command line.
"""

# Each ``__all__`` is read through an alias: ``cayley`` below is the function.
from . import (cayley as _cayley, errors as _errors, gns as _gns,
               moments as _moments, resolvents as _resolvents,
               scenarios as _scenarios, solutions as _solutions)
from .cayley import *
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import *
from .gns import *
from .moments import *
from .resolvents import *
from .scenarios import *
from .solutions import *

__version__ = "0.1.0"

__all__ = ["__version__", "Tolerances", "DEFAULT_TOLERANCES", *(
    name for module in (_moments, _gns, _cayley, _resolvents, _solutions,
                        _scenarios, _errors) for name in module.__all__)]
