"""GNS-style Hilbert space and shift operators built from a moment table.

The localized moment matrix on a degree rectangle is the Gram matrix of
the monomial classes ``h_{m,n}``.  Quotienting by its kernel yields a
finite-dimensional Hilbert space carrying two densely-defined symmetric
shift operators

    A1 h_{m,n} = h_{m+1,n}   on  span{h_{m,n} : m <= d_m - 1},
    A2 h_{m,n} = h_{m,n+1}   on  span{h_{m,n} : n <= d_n - 1},

with cyclic vector ``h_{0,0}`` and the canonical conjugation ``J`` that
fixes every class.  Because the Gram matrix is real, the coordinate
construction below is real: ``J`` is entrywise conjugation (its matrix is
the identity), and one real SVD gives a shift's domain basis and action.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import (DEFAULT_TOLERANCES, FIXED_POINT_TOL, RESIDUAL_GATE,
                     STRUCTURE_TOL, Tolerances)
from .errors import (DomainCollapseError, InconsistentShiftError,
                     NotPsdError, NotSelfAdjointA2Error, SingularShiftError,
                     StructureViolationError)
from .linalg import (fro_norm, gram_defect, is_hermitian, read_only,
                     truncated_svd)
from .moments import MomentTable, _monomials, _per_rectangle, moment_matrix

__all__ = ["GnsSpace", "SymmetricPair", "build_gns", "build_operators"]

#: Refusal of an ``A2`` whose Cayley transform ``U`` leaves ``U - E`` singular.
A2_OUT_OF_RANGE = ("Cayley transform of A2 has an eigenvalue at 1; A2 is "
                   "outside the numerically supported range")


@dataclass(frozen=True)
class GnsSpace:
    """Quotient Hilbert space of monomial classes.

    ``coords`` has one column per monomial (ordered like
    ``monomial_index``); column ``j`` holds the coordinates of the class
    ``h_{m,n}`` in an orthonormal basis of the quotient, so that
    ``coords.T @ coords`` reproduces the Gram matrix.
    """

    d_m: int
    d_n: int
    monomial_index: tuple
    gram: np.ndarray
    rank: int
    coords: np.ndarray

    @cached_property
    def _column_of(self) -> dict:
        return {mn: j for j, mn in enumerate(self.monomial_index)}

    def index_of(self, m: int, n: int) -> int:
        try:
            return self._column_of[(m, n)]
        except KeyError:
            raise KeyError(f"monomial ({m}, {n}) outside rectangle "
                           f"({self.d_m}, {self.d_n})") from None

    def class_vector(self, m: int, n: int) -> np.ndarray:
        """Coordinates of the class ``h_{m,n}``."""
        return self.coords[:, self.index_of(m, n)].copy()


@dataclass(frozen=True)
class SymmetricPair:
    """Two symmetric shift operators on a common finite-dimensional space.

    Each operator is stored as an orthonormal domain basis (``dim x k``)
    together with an action matrix sending domain coordinates to space
    coordinates: ``A (domain @ c) = action @ c``.  ``j_matrix`` is the
    matrix of the antilinear conjugation ``x -> j_matrix @ conj(x)``
    fixing the monomial classes.  The pair holds only these matrices;
    ``a2_matrix``, ``a2_selfadjoint``, ``a2_spectrum`` and
    ``a1_gram_defect`` are derived from them on first use and kept on the
    instance.
    """

    dim: int
    a1_domain: np.ndarray
    a1_action: np.ndarray
    a2_domain: np.ndarray
    a2_action: np.ndarray
    h00: np.ndarray
    j_matrix: np.ndarray

    def domain(self, which: int) -> np.ndarray:
        self._check_which(which)
        return self.a1_domain if which == 1 else self.a2_domain

    def action(self, which: int) -> np.ndarray:
        self._check_which(which)
        return self.a1_action if which == 1 else self.a2_action

    def defect_index(self, which: int) -> int:
        """Codimension of the operator's domain."""
        return self.dim - self.domain(which).shape[1]

    def full_matrix(self, which: int) -> np.ndarray:
        """Matrix of the operator when its domain is the whole space."""
        dom = self.domain(which)
        if dom.shape[1] != self.dim:
            raise DomainCollapseError(
                f"operator A{which} is not everywhere defined")
        return self.action(which) @ dom.conj().T

    @cached_property
    def a2_matrix(self) -> np.ndarray:
        """``full_matrix(2)`` as a read-only array, formed once per pair
        for every layer that needs the whole ``A2``; a domain that is not
        the whole space raises ``DomainCollapseError`` and keeps nothing."""
        return read_only(self.full_matrix(2))

    @cached_property
    def a2_spectrum(self) -> tuple:
        """Eigendecomposition ``(b, Q)`` of ``a2_matrix``, read-only, taken
        once per pair for the Cayley transform ``U``, the range gate and
        the resolvent factor of ``A2``.  The gate raises
        ``StructureViolationError`` when ``sigma_min(U - E) = 2 / hypot(1,
        max |b|)`` is at most ``FIXED_POINT_TOL``; raising keeps nothing."""
        vals, vecs = np.linalg.eigh(self.a2_matrix)
        if 2.0 / np.hypot(1.0, abs(vals).max()) <= FIXED_POINT_TOL:
            raise StructureViolationError(A2_OUT_OF_RANGE)
        return read_only(vals), read_only(vecs)

    @cached_property
    def a1_gram_defect(self) -> float:
        """``||Q^H Q - E||_F`` of ``Q = a1_domain``, formed once per pair
        for the rank check of :func:`~moment2d.cayley.cayley` and its
        fixed-vector gate (:func:`~moment2d.io.pair_from_json` keeps the
        value its orthonormality check formed)."""
        return gram_defect(self.a1_domain)

    @cached_property
    def a2_selfadjoint(self) -> bool:
        """True iff the domain of ``A2`` is the whole space and
        ``a2_matrix`` is Hermitian within ``STRUCTURE_TOL``."""
        return (self.defect_index(2) == 0
                and is_hermitian(self.a2_matrix, STRUCTURE_TOL))

    def require_a2_selfadjoint(self, message: str):
        """Raise ``NotSelfAdjointA2Error`` with ``message`` and the defect
        indices attached unless ``A2`` is self-adjoint."""
        if not self.a2_selfadjoint:
            raise NotSelfAdjointA2Error(message,
                                        defect_a1=self.defect_index(1),
                                        defect_a2=self.defect_index(2))

    @staticmethod
    def _check_which(which: int):
        if which not in (1, 2):
            raise ValueError("which must be 1 or 2")


def build_gns(table: MomentTable, d_m: int, d_n: int, *,
              tolerances: Tolerances = DEFAULT_TOLERANCES) -> GnsSpace:
    """Quotient-space coordinates from the localized moment matrix.

    The Gram matrix is eigendecomposed and cut by :func:`_rank_cut`; a
    1 x 1 Gram ``[s00]`` is cut as ``s00``, which ``eigh`` returns exactly.
    Coordinates are ``sqrt(lambda) * E^T`` over the retained eigenpairs,
    so column inner products reproduce the Gram entries exactly in exact
    arithmetic.
    """
    gram = moment_matrix(table, d_m, d_n)
    eigvals, eigvecs = np.linalg.eigh(gram)
    keep = _rank_cut(eigvals, (d_m, d_n), tolerances)
    lam = eigvals[keep]
    vecs = eigvecs[:, keep]
    # Largest eigenvalue first keeps the coordinate rows in a stable,
    # reproducible order.
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    vecs = vecs[:, order]
    coords = np.sqrt(lam)[:, None] * vecs.T
    return GnsSpace(d_m=d_m, d_n=d_n, monomial_index=_monomials(d_m, d_n),
                    gram=gram, rank=int(lam.size), coords=coords)


def _rank_cut(eigvals: np.ndarray, rect: tuple, tolerances: Tolerances):
    """Mask of the ascending Gram ``eigvals`` above ``rank_tol`` times the
    largest ``|lambda|``; below minus that, the smallest is ``NotPsdError``."""
    thresh = tolerances.rank_tol * float(abs(eigvals).max())
    if float(eigvals[0]) < -thresh:
        raise NotPsdError(
            f"Gram matrix at rectangle ({rect[0]}, {rect[1]}) has eigenvalue "
            f"{eigvals[0]:.3e} below -{thresh:.3e}")
    return eigvals > thresh


@_per_rectangle
def _shift_columns(d_m: int, d_n: int, which: int) -> np.ndarray:
    """Read-only columns of the domain of shift ``which`` and its images."""
    column = {mn: j for j, mn in enumerate(_monomials(d_m, d_n))}
    dm, dn = (1, 0) if which == 1 else (0, 1)
    cols = [(j, column[m + dm, n + dn]) for (m, n), j in column.items()
            if (m + dm, n + dn) in column]
    return read_only(np.array(cols, dtype=np.intp).T)


def _shift_operator(space: GnsSpace, which: int, tolerances: Tolerances,
                    gate: float) -> tuple[np.ndarray, np.ndarray]:
    """Domain basis ``U_r`` and action of one shift from one real SVD ``dom =
    U S Vh``.  ``action @ r = img``, ``r = basis^H dom``, is solved in least
    squares with ``r^+ = Vh_r^H / S_r`` (exact for ``r = S_r Vh_r``) and one
    refinement step.  A residual above ``gate`` means a kernel combination
    of domain classes leaves the quotient span under the shift."""
    cols, cols_shifted = _shift_columns(space.d_m, space.d_n, which)
    dom_vectors = space.coords[:, cols]
    img_vectors = space.coords[:, cols_shifted]
    try:
        basis, s, vh = truncated_svd(dom_vectors, tolerances.subspace_tol)
    except np.linalg.LinAlgError as exc:
        raise SingularShiftError(f"shift solve failed for A{which}: {exc}")
    if s.size == 0:
        raise DomainCollapseError(f"domain of A{which} is zero-dimensional")
    r = basis.conj().T @ dom_vectors
    r_pinv = vh.conj().T / s
    action = img_vectors @ r_pinv
    action += (img_vectors - action @ r) @ r_pinv
    residual = fro_norm(action @ r - img_vectors)
    if residual > gate:
        raise InconsistentShiftError(
            f"shift A{which} leaves the quotient span: residual "
            f"{residual:.3e} > gate {gate:.3e}")
    return basis, action


def build_operators(space: GnsSpace, *,
                    tolerances: Tolerances = DEFAULT_TOLERANCES) -> SymmetricPair:
    """Symmetric shift pair on the GNS quotient.

    Requires ``d_m >= 1`` and ``d_n >= 1`` so that both shifts have a
    nontrivial domain rectangle.  Raises ``InconsistentShiftError`` when
    a shifted Gram column leaves the retained span (inconsistent
    truncation) and ``DomainCollapseError`` when a domain comes out
    zero-dimensional.
    """
    if space.d_m < 1 or space.d_n < 1:
        raise ValueError("build_operators needs d_m >= 1 and d_n >= 1")
    gate = RESIDUAL_GATE * max(1.0, fro_norm(space.gram))
    a1_domain, a1_action = _shift_operator(space, 1, tolerances, gate)
    a2_domain, a2_action = _shift_operator(space, 2, tolerances, gate)
    dim = space.rank
    h00 = space.class_vector(0, 0)
    # Real Gram, real eigendecomposition: the conjugation fixing all
    # classes is entrywise conjugation.
    j_matrix = np.eye(dim, dtype=complex)
    return SymmetricPair(dim=dim,
                         a1_domain=a1_domain.astype(complex),
                         a1_action=a1_action.astype(complex),
                         a2_domain=a2_domain.astype(complex),
                         a2_action=a2_action.astype(complex),
                         h00=h00.astype(complex),
                         j_matrix=j_matrix)


def _shift_step(domain: np.ndarray, action: np.ndarray, x: np.ndarray,
                tol: float) -> np.ndarray | None:
    """``A x`` for the operator stored as ``(domain, action)``, or None when
    ``x`` leaves its domain: the residual of the projection onto the
    domain exceeds ``tol * max(1, ||x||)``."""
    c = domain.conj().T @ x
    if fro_norm(x - domain @ c) > tol * max(1.0, fro_norm(x)):
        return None
    return action @ c
