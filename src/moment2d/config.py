"""Numerical tolerances of the pipeline.

The tunable thresholds of the pipeline's gates (Gram rank cut, PSD
test, subspace decisions, clustering, atom merging, verification) are
the six fields of one :class:`Tolerances` value, each settable from the
command line.  Pipeline functions that read one of them take it as the
keyword ``tolerances`` (default :data:`DEFAULT_TOLERANCES`); override a
field with ``Tolerances(rank_tol=1e-12)`` or ``dataclasses.replace(tol,
rank_tol=1e-12)``.  The constants below hold the defaults.
Thresholds with a single value in use are module constants: the ones
defined below (structural residual, shift residual gate, fixed-point
distance, weight drop, excluded radius, contraction slack, Carleman
heuristic) are read directly by the modules that apply them, the others
sit in the one module that reads them.  The matrix-level helpers that
still take a plain float are ``inverse_cayley`` and those of ``linalg``,
because their callers pass them varying values (1x and 10x
``STRUCTURE_TOL``, or a ``Tolerances`` field).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Relative eigenvalue threshold for the Gram rank decision.
RANK_TOL = 1e-9

#: Base factor for the moment-matrix PSD test: tol = PSD_TOL_BASE * (1 + max|s|).
PSD_TOL_BASE = 1e-10

#: Shared subspace tolerance for QR/SVD range and complement decisions.
SUBSPACE_TOL = 1e-9

#: Residual gate for shift actions, relative to the Gram norm.
RESIDUAL_GATE = 1e-8

#: A unitary eigenvalue within this distance of 1 counts as a fixed point.
FIXED_POINT_TOL = 1e-8

#: Eigenvalue clustering tolerance (commutant blocks, joint eigenspaces).
CLUSTER_TOL = 1e-8

#: Two atoms closer than this (max coordinate distance) are merged.
ATOM_MERGE_TOL = 1e-7

#: Recovered atoms with weight below this are dropped.
WEIGHT_DROP_TOL = 1e-12

#: Singular values may exceed 1 by at most this much in a contraction.
CONTRACTION_SLACK = 1e-12

#: Radius of the excluded disks around the points +/-i (and their Moebius
#: images) where resolvent formulas degenerate.
EXCLUDED_RADIUS = 1e-6

#: Carleman verdict heuristic: tail window length, lower bound epsilon,
#: and the log-log slope below which decay counts as a converging trend.
CARLEMAN_WINDOW = 5
CARLEMAN_EPS = 1e-3
CARLEMAN_SLOPE = -0.5

#: Generic residual tolerance for structural verification (unitarity,
#: invariance, Hermitian symmetry).
STRUCTURE_TOL = 1e-9

#: Largest absolute moment error a verified solution may show.
VERIFY_TOL = 1e-8


@dataclass(frozen=True)
class Tolerances:
    """Bundle of the numerical knobs read by the pipeline functions.

    Every field is read by some pipeline gate and can be set from the
    command line, as a flag (``--rank-tol``) or a config key
    (``cli.COMMON_OPTIONS`` lists them in field order).

    ``psd_tol`` None means the scale-aware default
    ``PSD_TOL_BASE * (1 + max |s|)`` of :func:`moment2d.moments.check_psd`.
    """

    rank_tol: float = RANK_TOL
    psd_tol: float | None = None
    subspace_tol: float = SUBSPACE_TOL
    cluster_tol: float = CLUSTER_TOL
    atom_merge_tol: float = ATOM_MERGE_TOL
    verify_tol: float = VERIFY_TOL


DEFAULT_TOLERANCES = Tolerances()
