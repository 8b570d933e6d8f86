"""Cayley transforms, defect subspaces and extension parameters.

For a symmetric operator ``A`` on a finite-dimensional complex space the
Cayley transform ``V = (A + i)(A - i)^{-1}`` is an isometry from
``D(V) = (A - i) D(A)`` onto ``R(V) = (A + i) D(A)``; the defect
subspaces are ``N0(V) = H (-) D(V)`` and ``Ninf(V) = H (-) R(V)``.
Unitary extensions of ``V`` correspond to isometries ``N0 -> Ninf``, and
contraction-valued parameters ``Phi`` produce generalized resolvents via
the extensions ``V (+) Phi`` assembled by :func:`extend_isometry`.

Admissibility of constant parameters
------------------------------------
Not every parameter value is allowed: the *forbidden operator* ``X``
sends ``psi = phi + d`` to ``phi`` for ``psi`` ranging over
``N0 & (Ninf (+) D(A))`` with ``phi`` in ``Ninf`` and ``d`` in ``D(A)``,
and a parameter family ``z -> F(z)`` is admissible when the radial
boundary behaviour of ``F`` reproduces the action of ``X`` only
trivially: no nonzero ``psi`` in the domain of ``X`` may satisfy both
``lim F psi = X psi`` and ``lim ||F psi|| = ||psi||``.  For a *constant*
parameter the limits are the values themselves, so the criterion
collapses to a finite computation:

    F admissible  <=>  { psi in dom X : F psi = X psi and
                         ||F psi|| = ||psi|| } = {0}.

In finite dimension two facts reduce this to one ``d x d`` matrix.  Let
``y`` be in ``D(V)`` and ``phi`` in ``Ninf``:

* ``dom X = N0``.  If ``(E - V) y`` is orthogonal to ``R(V)``, then
  ``<y, Vy> = ||Vy||^2 = ||y||^2`` forces ``Vy = y``, so ``y = 0`` (the
  Cayley transform of a symmetric ``A`` fixes no vector;
  :func:`build_isometric_pair` refuses a pair with a defect whose ``V``
  fixes one numerically).  So ``Ninf & D(A) = {0}``, and the dimensions
  ``d + (n - d)`` add up to ``n``.
* ``X`` is isometric.  For ``psi = phi + (E - V) y`` in ``N0``, expand
  ``||psi||^2`` with ``psi`` orthogonal to ``y``, ``phi`` orthogonal to
  ``Vy`` and ``||Vy|| = ||y||``: what remains is ``||phi||^2``.

So ``C = Ninf^H X N0`` is unitary, and ``F`` is admissible iff ``F - C``
is injective.  The numerical kernel (cut at ``subspace_tol``) keeps the
norm test ``||F k||^2 >= 1 - NORM_TOL``, which a larger cut needs to
admit strict contractions.  :func:`constant_admissibility` is the one
implementation, on the Cayley data held by :class:`IsometricPair`.  At
defect 0 every contraction is admissible; point-dependent parameter
families are not supported otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.linalg

from .config import (CONTRACTION_SLACK, DEFAULT_TOLERANCES, FIXED_POINT_TOL,
                     STRUCTURE_TOL, Tolerances)
from .errors import (ContractionViolatedError, FixedPointError,
                     NoDecompositionError, NotDirectSumError,
                     NotSupportedError, StructureViolationError)
from .gns import A2_OUT_OF_RANGE, SymmetricPair  # re-exports A2_OUT_OF_RANGE
from .linalg import (as_complex_matrix, complement_basis, empty_basis,
                     fro_norm, frobenius, is_conjugation, is_hermitian,
                     is_unitary, orth_columns, read_only, require_unitary,
                     subspace_residual)

__all__ = [
    "CayleyIsometry",
    "IsometricPair",
    "ContractionParameter",
    "ConjugationFactorization",
    "cayley",
    "inverse_cayley",
    "build_isometric_pair",
    "extend_isometry",
    "godich_lutsenko",
    "forbidden_operator",
    "constant_admissibility",
    "commutation_check",
]

#: A kernel direction of ``F - C`` is forbidden when its squared norm
#: gain reaches ``1 - NORM_TOL`` (admissibility criterion).
NORM_TOL = 1e-8


@dataclass(frozen=True)
class CayleyIsometry:
    """Isometry data ``(domain, action, range, ninf)``.

    ``domain`` is an orthonormal basis of ``D(V)``; ``action`` sends
    ``D(V)``-coordinates to space coordinates, ``V (domain @ c) =
    action @ c``; ``range`` and ``ninf`` are orthonormal bases of ``R(V)``
    and of its orthogonal complement ``Ninf(V)``, together the unitary
    factor of one complete QR of ``action``.
    """

    domain: np.ndarray
    action: np.ndarray
    range: np.ndarray
    ninf: np.ndarray


@dataclass(frozen=True)
class IsometricPair:
    """Cayley transform of ``A1`` together with the unitary Cayley
    transform ``U`` of the self-adjoint ``A2``.

    The subspaces ``H1 = D(V)``, ``H2 = N0(V)`` and ``H4 = Ninf(V)`` are
    stored as orthonormal column bases; ``U`` leaves each of them
    invariant.  ``a2_spectrum`` is the eigendecomposition ``(b, Q)`` of
    ``A2``, and ``U = Q diag((b + i)/(b - i)) Q^H`` is formed from it.
    ``j_matrix`` is the conjugation ``J`` of the pair (``x -> j_matrix @
    conj(x)``).  ``u_matrix``, ``v_matrix``, ``w2``, ``w2_schur`` and
    ``u24`` are kept on the instance after first use, as read-only shared
    arrays.
    """

    dim: int
    v_domain: np.ndarray
    v_action: np.ndarray
    n0_basis: np.ndarray
    ninf_basis: np.ndarray
    a2_spectrum: tuple
    j_matrix: np.ndarray

    @property
    def defect_dim(self) -> int:
        return self.n0_basis.shape[1]

    @cached_property
    def u_matrix(self) -> np.ndarray:
        """``U = Q diag((b + i)/(b - i)) Q^H`` from ``a2_spectrum``."""
        b, q = self.a2_spectrum
        return read_only((q * ((b + 1j) / (b - 1j))) @ q.conj().T)

    @cached_property
    def v_matrix(self) -> np.ndarray:
        """Matrix acting as ``V`` on ``D(V)`` and as 0 on ``N0``."""
        return read_only(self.v_action @ self.v_domain.conj().T)

    @cached_property
    def w2(self) -> np.ndarray:
        """``W2 = U|_{N0}`` in ``n0_basis`` coordinates."""
        return read_only(self.n0_basis.conj().T @ self.u_matrix
                          @ self.n0_basis)

    @cached_property
    def w2_schur(self) -> tuple:
        """Complex Schur form ``(T, Z)`` of ``w2``, gated by each user."""
        t, z_mat = scipy.linalg.schur(self.w2, output="complex")
        return read_only(t), read_only(z_mat)

    @cached_property
    def u24(self) -> np.ndarray:
        """The linear isometry ``U24 = J o K : H2 -> H4`` from
        ``n0_basis`` coordinates to space coordinates, with ``K`` the
        first factor of ``godich_lutsenko(W2)``: the part of every
        canonical extension that does not depend on the commutant
        parameter ``U2``.

        Gates, in order: ``U N0 = N0 W2`` (the second Cayley transform
        reduces the defect subspace), the conjugation factorization
        ``godich_lutsenko(W2)``, and ``U24`` isometric with range in
        ``H4``.  A failing gate raises (``StructureViolationError``, or
        the error of :func:`godich_lutsenko`) and nothing is kept, so
        every later access raises it again.
        """
        n0 = self.n0_basis
        u = self.u_matrix
        w2 = self.w2
        d2 = n0.shape[1]
        if d2:
            red = fro_norm(u @ n0 - n0 @ w2)
            if red > STRUCTURE_TOL * max(1.0, fro_norm(u)):
                raise StructureViolationError(
                    f"second Cayley transform does not reduce the defect "
                    f"subspace (residual {red:.3e})")
        k_matrix = godich_lutsenko(w2, schur=self.w2_schur).k_matrix
        # J o K is linear: x -> J(K x) = j_matrix conj(n0 K conj(x)).
        u24 = self.j_matrix @ np.conj(n0 @ k_matrix)
        if d2:
            iso_res = fro_norm(u24.conj().T @ u24 - np.eye(d2))
            if iso_res > STRUCTURE_TOL * d2:
                raise StructureViolationError(
                    f"U24 is not isometric (residual {iso_res:.3e})")
            if subspace_residual(self.ninf_basis, u24) > STRUCTURE_TOL:
                raise StructureViolationError(
                    "U24 does not map the defect subspace into H4")
        return read_only(u24)

    def extend(self, defect_map: np.ndarray) -> np.ndarray:
        """New matrix of ``V (+) D``: ``V`` on ``D(V)`` and ``defect_map``,
        from ``n0_basis`` coordinates to space coordinates, on ``N0`` (a
        stack of maps gives the stack of matrices)."""
        return self.v_matrix + defect_map @ self.n0_basis.conj().T

    def parameter_at(self, phi: "ContractionParameter",
                     z: complex = 0.0) -> np.ndarray:
        """Value ``Phi_z : N0 -> Ninf`` in the stored defect bases.

        Raises ``ValueError`` when its shape does not match the defect
        dimensions.
        """
        value = phi.at(z)
        expected = (self.ninf_basis.shape[1], self.defect_dim)
        if value.shape != expected:
            raise ValueError(
                f"parameter shape {value.shape} does not match defect "
                f"dimensions {expected}")
        return value

    def operator_domain(self, *,
                        tolerances: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
        """Orthonormal basis of ``D(A) = (E - V) D(V)``, cut at
        ``subspace_tol``: ``dim D(V)`` columns unless ``V`` fixes a vector,
        which :func:`build_isometric_pair` refuses at a nonzero defect; it
        is built only near that cut or :func:`forbidden_operator`'s."""
        return orth_columns(self.v_domain - self.v_action,
                            tolerances.subspace_tol)


@dataclass(frozen=True)
class ContractionParameter:
    """Contraction-valued extension parameter on the unit disk.

    Either a constant matrix ``N0 -> Ninf`` (in the stored defect bases)
    or a callable ``z -> matrix``.  Evaluation enforces the contraction
    bound: largest singular value at most ``1 + CONTRACTION_SLACK``.
    """

    matrix: np.ndarray | None = None
    evaluator: Callable[[complex], np.ndarray] | None = None

    @property
    def constant(self) -> bool:
        return self.evaluator is None

    @staticmethod
    def const(matrix) -> "ContractionParameter":
        return ContractionParameter(matrix=as_complex_matrix(matrix))

    @staticmethod
    def pointwise(evaluator: Callable[[complex], np.ndarray]) -> "ContractionParameter":
        return ContractionParameter(evaluator=evaluator)

    def at(self, z: complex) -> np.ndarray:
        if self.constant:
            value = self.matrix
        else:
            value = as_complex_matrix(self.evaluator(complex(z)))
        if value.size:
            top = float(np.linalg.svd(value, compute_uv=False)[0])
            if top > 1.0 + CONTRACTION_SLACK:
                raise ContractionViolatedError(
                    f"parameter has singular value {top} > "
                    f"1 + {CONTRACTION_SLACK}")
        return value


@dataclass(frozen=True)
class ConjugationFactorization:
    """Two conjugations with ``K o L = W`` (antilinear matrices)."""

    k_matrix: np.ndarray
    l_matrix: np.ndarray


def cayley(pair: SymmetricPair, *,
           tolerances: Tolerances = DEFAULT_TOLERANCES) -> CayleyIsometry:
    """Cayley transform ``(A1 + i)(A1 - i)^{-1}`` of the first operator.

    Works with the stored domain basis ``Q`` and action ``T``:
    ``(A1 - i)(Q c) = (T - iQ) c`` and the transform maps it to
    ``(T + iQ) c``.  ``Q`` must have full column rank: ``||Q^H Q - E||_F
    <= 1/2`` (``pair.a1_gram_defect``) proves it, and only where that bound
    fails does the diagonal of ``Q``'s QR decide, at ``subspace_tol`` times
    its largest entry; a dependent basis raises ``StructureViolationError``.
    Since ``A1`` is symmetric, ``||(A1 - i)x||^2 = ||A1 x||^2 + ||x||^2``,
    so ``T - iQ`` then has full column rank and the returned action has
    orthonormal columns.  ``range`` and ``ninf`` come from one complete QR
    of the action.  Its rank is cleared by ``||action^H action - E||_F <=
    1/2``, which puts every singular value in ``[sqrt 1/2, sqrt 3/2]`` where
    the ``subspace_tol`` cut (below ``1/2``) keeps them all; only where that
    bound fails does an SVD decide, and a lost dimension raises
    ``StructureViolationError``.
    """
    q = pair.a1_domain
    t = pair.a1_action
    n = pair.dim
    if q.shape[1] == 0:
        return CayleyIsometry(domain=empty_basis(n), action=empty_basis(n),
                              range=empty_basis(n),
                              ninf=np.eye(n, dtype=complex))
    if not is_hermitian(q.conj().T @ t, STRUCTURE_TOL):
        raise StructureViolationError(
            "operator A1 is not symmetric on its domain")
    k, tol = q.shape[1], tolerances.subspace_tol
    if not (pair.a1_gram_defect <= 0.5 and tol < 0.5):
        diag = np.abs(np.diagonal(np.linalg.qr(q, mode="r")))
        if k > n or diag.min() <= tol * diag.max():
            raise StructureViolationError(
                "a1_domain does not have full column rank (min |r_jj| = "
                f"{diag.min():.3e} in the QR of its {k} columns)")
    minus = t - 1j * q
    plus = t + 1j * q
    dom, r = np.linalg.qr(minus)
    action = scipy.linalg.solve_triangular(r.T, plus.T, lower=True).T
    if not (frobenius(action.conj().T @ action - np.eye(k)) <= 0.5
            and tol < 0.5):
        kept = orth_columns(action, tol).shape[1]
        if kept != k:
            raise StructureViolationError(
                f"Cayley range of A1 lost dimension ({kept} != {k})")
    basis = np.linalg.qr(action, mode="complete")[0]
    return CayleyIsometry(domain=dom, action=action, range=basis[:, :k],
                          ninf=basis[:, k:])


def inverse_cayley(u: np.ndarray,
                   structure_tol: float = STRUCTURE_TOL) -> np.ndarray:
    """Hermitian matrix ``A = i (U + E)(U - E)^{-1}`` of a unitary ``U``.

    Raises ``FixedPointError`` when ``U`` has an eigenvalue within
    ``FIXED_POINT_TOL`` of 1 (the inverse transform does not exist there).
    """
    u = require_unitary(u, structure_tol, "inverse Cayley input")
    a, fixed = _inverse_cayley_stack(u[None])
    if fixed[0]:
        raise fixed[0]
    return a[0]


def _inverse_cayley_stack(us: np.ndarray) -> tuple:
    """:func:`inverse_cayley` of a stack: the slices without a fixed point,
    and per slice its error or None.  The solution ``A = i (E + 2 (U -
    E)^{-1})`` proves ``sigma_min(U - E) >= 2 / (1 + ||A||_F)``; an SVD
    decides at ``FIXED_POINT_TOL`` only if the solve raises or a slice has
    that bound at most ``2 * FIXED_POINT_TOL`` (2 covers the rounding)."""
    eye = np.eye(us.shape[-1])
    shifted, fixed = us - eye, [None] * len(us)

    def solve(keep):
        return 1j * np.swapaxes(np.linalg.solve(np.swapaxes(
            shifted[keep], 1, 2), np.swapaxes(us[keep] + eye, 1, 2)), 1, 2)
    try:
        a = solve(...)
        cleared = np.all(2.0 / (1.0 + frobenius(a)) > 2.0 * FIXED_POINT_TOL)
    except np.linalg.LinAlgError:
        cleared = False
    if not cleared:
        sigma_min = np.linalg.svd(shifted, compute_uv=False).min(
            axis=1, initial=np.inf)
        ok = sigma_min > FIXED_POINT_TOL
        a, fixed = solve(ok), [None if passed else FixedPointError(
            f"unitary has an eigenvalue within {FIXED_POINT_TOL} of 1 "
            f"(sigma_min = {s:.3e})") for passed, s in zip(ok, sigma_min)]
    return 0.5 * (a + np.swapaxes(a.conj(), 1, 2)), fixed


def build_isometric_pair(pair: SymmetricPair, *,
                         tolerances: Tolerances = DEFAULT_TOLERANCES) -> IsometricPair:
    """Assemble the Cayley isometry of ``A1`` with the unitary ``U`` of
    ``A2`` and verify the structural invariants.

    ``U = Q diag((b + i)/(b - i)) Q^H`` from the eigendecomposition
    ``pair.a2_spectrum = (b, Q)``, whose access is the range gate on ``A2``.
    Checks: ``U`` unitary, ``U D(V) = D(V)``, ``U`` leaving ``R(V)``
    invariant (hence both defect subspaces), the commutation of ``U``
    with ``V`` on ``D(V)``, and, at a nonzero defect, ``V`` fixing no
    vector: ``(E - V) D(V)``, cut at ``subspace_tol``, keeps the dimension
    of ``D(V)`` (by an SVD where :func:`_clears_fixed_vector_gate` fails).
    Violations raise ``StructureViolationError``; a non-self-adjoint ``A2``
    raises ``NotSelfAdjointA2Error`` with the defect indices attached.
    The pair's conjugation ``J`` is kept as ``j_matrix``.  ``ninf_basis`` is
    :func:`cayley`'s ``ninf``; ``n0_basis`` is the SVD complement of
    ``D(V)``, whose basis fixes the phases of ``W2``'s Schur vectors and so
    every canonical solution.
    """
    pair.require_a2_selfadjoint(
        "A2 is not self-adjoint; extension machinery unavailable")
    subspace_tol = tolerances.subspace_tol
    cay = cayley(pair, tolerances=tolerances)
    n0 = complement_basis(cay.domain, subspace_tol)
    iso = IsometricPair(dim=pair.dim, v_domain=cay.domain,
                        v_action=cay.action, n0_basis=n0, ninf_basis=cay.ninf,
                        a2_spectrum=pair.a2_spectrum, j_matrix=pair.j_matrix)
    u = iso.u_matrix
    if not is_unitary(u, STRUCTURE_TOL):
        raise StructureViolationError("Cayley transform of A2 not unitary")
    for name, basis in (("D(V)", cay.domain), ("R(V)", cay.range)):
        if basis.shape[1]:
            res = subspace_residual(basis, u @ basis)
            if res > STRUCTURE_TOL:
                raise StructureViolationError(
                    f"U does not leave {name} invariant (residual {res:.3e})")
    if cay.domain.shape[1]:
        v = iso.v_matrix
        comm = (v @ u - u @ v) @ cay.domain
        scale = max(1.0, fro_norm(u) * fro_norm(v))
        if fro_norm(comm) > STRUCTURE_TOL * scale:
            raise StructureViolationError(
                "U and V do not commute on D(V)")
    if n0.shape[1] and not _clears_fixed_vector_gate(pair, subspace_tol):
        # At defect 0 no forbidden operator is needed, and the resolvent
        # of a unitary V with a numerically fixed vector still evaluates.
        _checked_operator_domain(iso, tolerances)
    return iso


def _clears_fixed_vector_gate(pair: SymmetricPair, subspace_tol: float) -> bool:
    """Whether ``(E - V) D(V)`` of ``cayley(pair)`` provably keeps its rank
    at the cut ``subspace_tol``.  With ``Q, T = a1_domain, a1_action`` and
    :func:`cayley`'s QR ``T - iQ = D(V) R``, ``v_domain - v_action = -2i Q
    R^-1`` and ``R^H R = T^H T + G + i (H^H - H)``, ``G, H = Q^H Q, Q^H T``.
    With ``d = ||G - E||_F``, :func:`cayley`'s check gives ``||H - H^H||_F
    <= STRUCTURE_TOL (1 + (1 + d)^(1/2) ||T||_F)``.  If ``d`` plus that is at
    most 1/4, ``G`` and ``R^H R`` have spectra in ``[3/4, 5/4]`` and ``[3/4,
    5/4 + ||T||_F^2]``: ``cond <= (5/3) hypot(1, ||T||_F)``, which the cut
    ``hypot(1, ||T||_F) <= 1 / (4 subspace_tol)`` keeps 12/5 below the SVD's."""
    d, top = pair.a1_gram_defect, fro_norm(pair.a1_action)
    e = d + STRUCTURE_TOL * (1.0 + np.sqrt(1.0 + d) * top)
    return e <= 0.25 and np.hypot(1.0, top) <= 0.25 / subspace_tol


def _checked_operator_domain(iso: IsometricPair, tolerances: Tolerances):
    """``iso.operator_domain()``, or ``StructureViolationError`` if it lost a
    dimension of ``D(V)``: ``V`` fixes a vector.  One SVD, run only where the
    cheaper tests cannot decide."""
    q = iso.operator_domain(tolerances=tolerances)
    if q.shape[1] < iso.v_domain.shape[1]:
        raise StructureViolationError(
            "Cayley transform of A1 has a fixed vector on D(V); A1 is "
            "outside the numerically supported range")
    return q


def extend_isometry(iso: IsometricPair, phi: ContractionParameter,
                    z: complex = 0.0) -> np.ndarray:
    """Full matrix of ``V (+) Phi_z``: acts as ``V`` on ``D(V)`` and as
    ``Phi_z : N0 -> Ninf`` on the defect subspace.

    Unitary precisely when ``Phi_z`` is unitary (square with all
    singular values 1).
    """
    return iso.extend(iso.ninf_basis @ iso.parameter_at(phi, z))


def godich_lutsenko(w: np.ndarray, *,
                    schur: tuple | None = None) -> ConjugationFactorization:
    """Factor a unitary ``W`` as a product of two conjugations.

    ``L`` is the conjugation whose fixed vectors include an orthonormal
    eigenbasis of ``W`` (entrywise conjugation in that basis) and
    ``K = W o L``.  Both are returned as antilinear matrices ``M`` acting
    as ``x -> M conj(x)``; they satisfy ``K^2 = L^2 = identity`` and
    ``K o L = W``.  ``schur``, if given, is the Schur form ``(T, Z)`` of ``w``.
    """
    w = require_unitary(w, STRUCTURE_TOL, "factorization input")
    n = w.shape[0]
    if n == 0:
        empty = np.zeros((0, 0), dtype=complex)
        return ConjugationFactorization(k_matrix=empty, l_matrix=empty)
    # Schur of a normal matrix: unitary Z with diagonal T, robust under
    # eigenvalue clustering.
    t, z_mat = schur or scipy.linalg.schur(w, output="complex")
    off = t - np.diag(np.diagonal(t))
    if fro_norm(off) > STRUCTURE_TOL * n:
        raise StructureViolationError("input is not normal within tolerance")
    l_matrix = z_mat @ z_mat.T
    k_matrix = w @ l_matrix
    for name, mat in (("K", k_matrix), ("L", l_matrix)):
        if not is_conjugation(mat, STRUCTURE_TOL):
            raise NoDecompositionError(
                f"factor {name} is not a conjugation within tolerance")
    return ConjugationFactorization(k_matrix=k_matrix, l_matrix=l_matrix)


def forbidden_operator(iso: IsometricPair, *,
                       tolerances: Tolerances = DEFAULT_TOLERANCES) -> tuple:
    """Domain basis and matrix of the forbidden operator ``X`` of ``A1``.

    ``X (phi + d) = phi`` for ``phi`` in ``Ninf`` and ``d`` in ``D(A)``
    on ``dom X = N0`` (module docstring).  Returns ``(iso.n0_basis,
    x_matrix)`` with the images in space coordinates, from one square
    solve against ``[Ninf, (E - V) D(V)]``: the columns of ``v_domain -
    v_action`` span ``D(A)``, and the ``Ninf`` part of the solution does
    not depend on the basis of ``D(A)``; near its cut, the stack takes
    ``iso.operator_domain()`` instead, so the verdicts are an orthonormal
    basis's.  The stack's singular values are computed only where
    :func:`_clears_direct_sum_cut` cannot prove it past the cut.  Raises ``StructureViolationError`` when the defect dimensions
    differ or ``V`` fixes a vector, ``NotDirectSumError`` when ``[Ninf,
    D(A)]`` is singular and ``NoDecompositionError`` when the residual
    exceeds the gate.
    """
    n0, ninf = iso.n0_basis, iso.ninf_basis
    if ninf.shape[1] + iso.v_domain.shape[1] != iso.dim or (
            n0.shape[1] != ninf.shape[1]):
        raise StructureViolationError(
            f"defect dimensions differ: {n0.shape[1]} != {ninf.shape[1]} "
            f"(dim D(V) = {iso.v_domain.shape[1]}, dim = {iso.dim})")
    stacked = np.hstack([ninf, iso.v_domain - iso.v_action])
    cut = np.sqrt(2.0) * tolerances.subspace_tol
    # (E - V) D(V) = Q R with Q orthonormal makes the stack [Ninf, Q] diag(E,
    # R): s[-1] <= s_min([Ninf, Q]) max(1, s[0]).  Past this cut, Q keeps all
    # columns and [Ninf, Q] (norm <= sqrt 2) clears the cut below; short of
    # it, both cuts are taken on Q itself.
    if not _clears_direct_sum_cut(stacked, cut):
        s = np.linalg.svd(stacked, compute_uv=False)
        if s[-1] <= cut * max(s[0], 1.0):
            stacked = np.hstack([ninf,
                                 _checked_operator_domain(iso, tolerances)])
            s = np.linalg.svd(stacked, compute_uv=False)
            if s[-1] <= tolerances.subspace_tol * max(s[0], 1.0):
                raise NotDirectSumError(
                    "N_-i and D(A) overlap; sum is not direct")
    coeffs = np.linalg.solve(stacked, n0)
    residual = fro_norm(stacked @ coeffs - n0)
    if residual > STRUCTURE_TOL * max(1.0, fro_norm(n0)):
        raise NoDecompositionError(
            f"decomposition residual {residual:.3e} exceeds gate")
    return n0, ninf @ coeffs[: iso.defect_dim]


def _clears_direct_sum_cut(stacked: np.ndarray, cut: float) -> bool:
    """Whether the singular values ``s`` of the square ``n x n`` stack ``S``
    provably satisfy ``s[-1] > cut max(s[0], 1)``, from one Gram product and
    one Cholesky instead of an SVD.

    Let ``F = ||S||_F >= s[0]``, ``c = cut max(F, 1)`` and ``mu = 4 c^2 + 64
    n eps F^2``.  In complex arithmetic (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., Sec. 3.6 and Thm 10.5): ``fl(S^H S)`` is
    within ``3 n eps F^2`` of ``S^H S`` in the 2-norm, as ``|| |S|^H |S|
    ||_2 <= F^2``; subtracting ``mu E`` rounds the diagonal by at most ``eps
    (F^2 + mu)``; and a Cholesky factor ``R`` of the result ``M`` that
    completes has ``R^H R = M + D``, ``||D||_2 <= 3 n eps ||R||_F^2 <= 4 n
    eps F^2``.  ``R^H R`` is semidefinite, so ``lambda_min(S^H S) >= mu (1 -
    eps) - 8 n eps F^2 >= 4 c^2 (1 - eps) + 48 n eps F^2``: ``sigma_min(S)``
    is at least ``2 c (1 - eps)`` and at least ``1e-7 sqrt(n) F``, which is
    more than ``1e4`` times the error of the computed singular values (a
    small multiple of ``n eps F``) for any ``n`` up to a few hundred.  So the
    SVD too finds ``s[-1]`` above its ``cut max(s[0], 1) <= c (1 + n eps)``.
    A factorization that fails proves nothing, and the caller takes the SVD.
    """
    n, norm = stacked.shape[1], float(frobenius(stacked))
    c = cut * max(norm, 1.0)
    shift = 4.0 * c * c + 64.0 * n * np.finfo(float).eps * norm * norm
    gram = stacked.conj().T @ stacked
    gram[np.diag_indices(n)] -= shift
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def constant_admissibility(iso: IsometricPair, phi: ContractionParameter, *,
                           tolerances: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Admissibility of an extension parameter for ``A1``.

    A constant value ``F`` is inadmissible iff ``F - Ninf^H X N0`` has a
    kernel, cut at ``subspace_tol * max(1, largest singular value)``, on
    which ``||F k||^2`` reaches ``1 - NORM_TOL`` for some unit ``k``
    (module docstring).  Non-constant parameters are accepted only at
    defect 0; otherwise ``NotSupportedError``.  A constant value of the
    wrong shape raises ``ValueError``, one that is no contraction
    ``ContractionViolatedError``.
    """
    if not phi.constant:
        if iso.defect_dim == 0:
            return True
        raise NotSupportedError(
            "pointwise parameter families are only supported when the "
            "operator domain is the whole space")
    value = iso.parameter_at(phi)
    if iso.defect_dim == 0:
        return True
    _, x_matrix = forbidden_operator(iso, tolerances=tolerances)
    _, s, vh = np.linalg.svd(value - iso.ninf_basis.conj().T @ x_matrix)
    rank = int(np.sum(s > tolerances.subspace_tol * max(s[0], 1.0)))
    return rank == s.size or bool(np.linalg.norm(
        value @ vh[rank:].conj().T, 2) ** 2 < 1.0 - NORM_TOL)


def commutation_check(iso: IsometricPair, phi: ContractionParameter,
                      z: complex = 0.0, *,
                      extended: np.ndarray | None = None) -> bool:
    """Whether ``(V (+) Phi_z) U = U (V (+) Phi_z)`` within tolerance.

    Checked on full matrices, ``extended`` if the caller has built it;
    when ``U D(V) = D(V)`` holds (enforced at pair construction) this is
    equivalent to the commutation of the parameter with ``U`` on the
    defect subspace alone.
    """
    m = extend_isometry(iso, phi, z) if extended is None else extended
    u = iso.u_matrix
    comm = fro_norm(m @ u - u @ m)
    scale = max(1.0, fro_norm(m) * fro_norm(u))
    return comm <= STRUCTURE_TOL * scale
