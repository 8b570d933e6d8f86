"""Moment tables, atomic measures and Carleman-type diagnostics.

A two-dimensional power moment table stores the numbers

    s_{m,n} = integral of t1^m * t2^n dmu(t1, t2),   0 <= m <= max_m,
                                                     0 <= n <= max_n,

for a (candidate) positive measure mu on the plane.  This module holds
the plain-data containers plus the direct-summation oracle
:func:`moments_of_measure`, the localized moment matrices with their
positivity test, and the finite-truncation Carleman diagnostic used to
judge how the tail of the table behaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import (ATOM_MERGE_TOL, CARLEMAN_EPS, CARLEMAN_SLOPE,
                     CARLEMAN_WINDOW, DEFAULT_TOLERANCES, PSD_TOL_BASE,
                     Tolerances)
from .errors import (IndexOutOfRangeError, NegativeDenominatorError)
from .linalg import read_only

__all__ = [
    "MomentTable",
    "AtomicMeasure",
    "CarlemanReport",
    "VERDICT_DIVERGING",
    "VERDICT_CONVERGING",
    "VERDICT_INCONCLUSIVE",
    "monomial_indices",
    "moments_of_measure",
    "moment_matrix",
    "check_psd",
    "carleman_diagnostic",
]

VERDICT_DIVERGING = "diverging-trend"
VERDICT_CONVERGING = "converging-trend"
VERDICT_INCONCLUSIVE = "inconclusive"

#: Memo of data that depends only on a rectangle, for the 32 latest keys.
_per_rectangle = lru_cache(maxsize=32, typed=True)


@dataclass(frozen=True)
class MomentTable:
    """Dense rectangle of real moments ``s_{m,n}``.

    Parameters
    ----------
    max_m, max_n : int
        Largest stored power in each variable.
    values : ndarray, shape (max_m + 1, max_n + 1)
        ``values[m, n] = s_{m,n}``.  All entries must be finite reals.
    """

    max_m: int
    max_n: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if self.max_m < 0 or self.max_n < 0:
            raise ValueError("max_m and max_n must be >= 0")
        if values.shape != (self.max_m + 1, self.max_n + 1):
            raise ValueError(
                f"values shape {values.shape} does not match rectangle "
                f"({self.max_m + 1}, {self.max_n + 1})")
        if not np.isfinite(values).all():
            raise ValueError("moment entries must be finite")
        object.__setattr__(self, "values", values)

    def entry(self, m: int, n: int) -> float:
        if not (0 <= m <= self.max_m and 0 <= n <= self.max_n):
            raise IndexOutOfRangeError(
                f"moment index ({m}, {n}) outside rectangle "
                f"({self.max_m}, {self.max_n})")
        return float(self.values[m, n])


def _has_close_pair(points: np.ndarray, tol: float) -> bool:
    """Whether two rows of ``points`` (shape ``(k, 2)``, finite) lie
    within ``tol`` of each other in max-coordinate distance.

    After sorting on ``t1``, the rounded difference ``t1[a + g] - t1[a]``
    grows with the rank gap ``g``, so the scan over gaps stops at the
    first gap where no pair is within ``tol`` in ``t1``: O(k log k) when
    the atoms are apart in ``t1``, and the same decision as comparing
    every pair, since floating-point subtraction is antisymmetric.  A
    difference that overflows (atoms near +-1.8e308) is infinite and so
    not within ``tol``; it raises no warning.
    """
    t1, t2 = points.take(points[:, 0].argsort(kind="stable"), axis=0).T
    with np.errstate(over="ignore"):
        for gap in range(1, t1.size):
            near = t1[gap:] - t1[:-gap] <= tol
            if not np.count_nonzero(near):
                return False
            if np.count_nonzero(near & (np.abs(t2[gap:] - t2[:-gap]) <= tol)):
                return True
    return False


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many weighted points ``sum_i w_i * delta_{(t1_i, t2_i)}``.

    Parameters
    ----------
    points : ndarray, shape (k, 2)
        Real atom coordinates.
    weights : ndarray, shape (k,)
        Strictly positive weights.
    merge_tol : float
        Atoms closer than this in max-coordinate distance are considered
        duplicates and rejected.

    :meth:`_apart`, which only ``solutions._measure_stack`` calls, tests only
    that atoms are finite: merged atoms lie apart, kept weights are positive.
    """

    points: np.ndarray
    weights: np.ndarray
    merge_tol: float = ATOM_MERGE_TOL

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float).reshape(-1, 2)
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if points.shape[0] != weights.shape[0]:
            raise ValueError("points and weights must have equal length")
        if not (np.isfinite(points).all() and np.isfinite(weights).all()):
            raise ValueError("atoms must be finite")
        if (weights <= 0.0).any():
            raise ValueError("weights must be strictly positive")
        if _has_close_pair(points, self.merge_tol):
            # Name the first coinciding pair in input order.
            with np.errstate(over="ignore"):
                for i in range(points.shape[0]):
                    for j in range(i + 1, points.shape[0]):
                        if (np.max(np.abs(points[i] - points[j]))
                                <= self.merge_tol):
                            raise ValueError(
                                f"atoms {i} and {j} coincide within merge "
                                f"tolerance")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def _apart(cls, points, weights, tol: float) -> "AtomicMeasure":
        """Float ``(k, 2)`` points and ``(k,)`` weights; see the class doc."""
        if not (np.isfinite(points).all() and np.isfinite(weights).all()):
            raise ValueError("atoms must be finite")
        measure = object.__new__(cls)
        measure.__dict__.update(points=points, weights=weights, merge_tol=tol)
        return measure

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def sorted(self) -> "AtomicMeasure":
        """Copy with atoms in lexicographic (t1, t2) order."""
        order = np.lexsort((self.points[:, 1], self.points[:, 0]))
        return AtomicMeasure(self.points[order], self.weights[order],
                             self.merge_tol)


@dataclass(frozen=True)
class CarlemanReport:
    """Partial sums and verdict of the Carleman-type diagnostic."""

    m: int
    partial_sums: tuple
    verdict: str


def monomial_indices(d_m: int, d_n: int) -> list[tuple[int, int]]:
    """Monomial exponents on the rectangle, in graded lexicographic order.

    Sorted by total degree ``m + n`` first, then by ``m``.  This ordering
    is the documented row/column order of every localized moment matrix
    and of the GNS coordinate table.
    """
    if d_m < 0 or d_n < 0:
        raise ValueError("degrees must be >= 0")
    idx = [(m, n) for m in range(d_m + 1) for n in range(d_n + 1)]
    idx.sort(key=lambda mn: (mn[0] + mn[1], mn[0]))
    return idx


@_per_rectangle
def _monomials(d_m: int, d_n: int) -> tuple:
    """:func:`monomial_indices` as a tuple, sorted once per rectangle."""
    return tuple(monomial_indices(d_m, d_n))


@_per_rectangle
def _gram_indices(d_m: int, d_n: int) -> tuple:
    """Read-only row and column gather indices of :func:`moment_matrix`."""
    return tuple(read_only(np.add.outer(k, k))
                 for k in np.array(_monomials(d_m, d_n)).T)


def _power_table(t: np.ndarray, top: int) -> np.ndarray:
    """``t[:, None] ** arange(top + 1)``, as ``|t| ** k`` with ``t``'s sign on
    odd ``k``: ``pow``'s accuracy on positive bases, without its slow path."""
    table = np.abs(t)[:, None] ** np.arange(top + 1)
    np.copysign(table[:, 1::2], t[:, None], out=table[:, 1::2])
    return table


def moments_of_measure(measure: AtomicMeasure, max_m: int,
                       max_n: int) -> MomentTable:
    """Exact moments of an atomic measure by direct summation.

    This is the independent oracle the rest of the package is verified
    against: ``s_{m,n} = sum_i w_i t1_i^m t2_i^n`` with ``0^0 = 1``.
    The powers come from :func:`_power_table`; the terms ``w_i t1_i^m
    t2_i^n``, one ``(k, max_m + 1, max_n + 1)`` array, are summed in atom
    order, and ``+ 0.0`` gives the positive zero of a loop onto a zero
    rectangle, so every sum is rounded as in a per-atom loop.
    ``np.add.reduce`` adds row after row of cells, but it sums a 1 x 1
    rectangle pairwise, so that one takes ``np.add.accumulate``.
    """
    if max_m < 0 or max_n < 0:
        raise ValueError("max_m and max_n must be >= 0")
    if not measure.n_atoms:
        return MomentTable(max_m, max_n, np.zeros((max_m + 1, max_n + 1)))
    p1 = _power_table(measure.points[:, 0], max_m)
    p2 = _power_table(measure.points[:, 1], max_n)
    terms = measure.weights[:, None, None] * (p1[:, :, None] * p2[:, None, :])
    sums = (np.add.reduce(terms) if max_m or max_n
            else np.add.accumulate(terms)[-1])
    return MomentTable(max_m, max_n, sums + 0.0)


def moment_matrix(table: MomentTable, d_m: int, d_n: int) -> np.ndarray:
    """Localized moment (Gram) matrix on the ``(d_m, d_n)`` rectangle.

    Rows and columns follow :func:`monomial_indices`; the entry for
    ``(m, n), (m', n')`` is ``s_{m+m', n+n'}``.  Requires
    ``2*d_m <= max_m`` and ``2*d_n <= max_n``.  The gather indices of the
    32 latest rectangles are kept, read-only; each call returns a new array.
    """
    if 2 * d_m > table.max_m or 2 * d_n > table.max_n:
        raise IndexOutOfRangeError(
            f"rectangle ({d_m}, {d_n}) needs moments up to "
            f"({2 * d_m}, {2 * d_n}), table holds ({table.max_m}, {table.max_n})")
    return table.values[_gram_indices(d_m, d_n)]


def check_psd(table: MomentTable, d_m: int, d_n: int, *,
              tolerances: Tolerances = DEFAULT_TOLERANCES) -> tuple[bool, float]:
    """Positive semidefiniteness test for the localized moment matrix.

    Returns ``(is_psd, min_eigenvalue)``.  The negativity tolerance is
    ``tolerances.psd_tol``; when that is None it is ``1e-10 * (1 + max
    |s|)`` over the referenced entries.
    """
    gram = moment_matrix(table, d_m, d_n)
    tol = tolerances.psd_tol
    if tol is None:
        tol = PSD_TOL_BASE * (1.0 + float(np.max(np.abs(gram))))
    eigs = np.linalg.eigvalsh(gram)
    min_eig = float(eigs[0]) if eigs.size else 0.0
    return (min_eig >= -tol, min_eig)


def _carleman_terms(table: MomentTable, m: int, big_k: int,
                    variant: str) -> list[float]:
    if variant not in ("pair", "single"):
        raise ValueError("variant must be 'pair' or 'single'")
    need_m = 2 * m + 2 if variant == "pair" else 2 * m
    if need_m > table.max_m or 2 * big_k > table.max_n:
        raise IndexOutOfRangeError(
            f"diagnostic at m={m}, K={big_k} needs moments up to "
            f"({need_m}, {2 * big_k}), table holds "
            f"({table.max_m}, {table.max_n})")
    terms = []
    for k in range(1, big_k + 1):
        denom = table.values[2 * m, 2 * k]
        if variant == "pair":
            denom = denom + table.values[2 * m + 2, 2 * k]
        if denom < 0.0:
            raise NegativeDenominatorError(
                f"denominator at m={m}, k={k} is negative ({denom})")
        terms.append(math.inf if denom == 0.0 else denom ** (-1.0 / (2 * k)))
    return terms


def _verdict(terms: list[float]) -> str:
    tail = terms[-CARLEMAN_WINDOW:]
    if not tail:
        return VERDICT_INCONCLUSIVE
    if any(math.isinf(t) for t in tail):
        return VERDICT_DIVERGING
    decreasing = all(b < a for a, b in zip(tail, tail[1:]))
    if decreasing and len(tail) >= 2 and min(tail) > 0.0:
        # Sustained decay: least-squares slope of log(term) against
        # log(k) over the window.
        k0 = len(terms) - len(tail) + 1
        xs = np.log(np.arange(k0, k0 + len(tail), dtype=float))
        ys = np.log(np.asarray(tail))
        slope = np.polyfit(xs, ys, 1)[0]
        if slope <= CARLEMAN_SLOPE:
            return VERDICT_CONVERGING
    if min(tail) >= CARLEMAN_EPS:
        return VERDICT_DIVERGING
    return VERDICT_INCONCLUSIVE


def carleman_diagnostic(table: MomentTable, m: int, big_k: int,
                        variant: str = "pair") -> CarlemanReport:
    """Finite-truncation Carleman-type diagnostic for row ``m``.

    Computes the terms ``(s_{2m,2k} + s_{2m+2,2k})^(-1/(2k))`` for
    ``k = 1..K`` (variant ``"pair"``; variant ``"single"`` uses
    ``s_{2m,2k}`` alone) and their partial sums.  Zero denominators give
    infinite terms.  The verdict is a three-valued heuristic over the
    tail window of the last ``CARLEMAN_WINDOW`` terms and is advisory
    only:

    * any infinite window term -> ``diverging-trend``;
    * strictly decreasing window terms whose log-log slope is at most
      ``CARLEMAN_SLOPE`` -> ``converging-trend``;
    * otherwise, window terms all >= ``CARLEMAN_EPS`` -> ``diverging-trend``;
    * otherwise ``inconclusive``.

    A full-series divergence certificate can never be extracted from a
    finite table, which is why the verdict never gates computation.
    """
    if big_k < 1:
        raise ValueError("K must be >= 1")
    terms = _carleman_terms(table, m, big_k, variant)
    sums = []
    running = 0.0
    for t in terms:
        running += t
        sums.append(running)
    verdict = _verdict(terms)
    return CarlemanReport(m=m, partial_sums=tuple(sums), verdict=verdict)
