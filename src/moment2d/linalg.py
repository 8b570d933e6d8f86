"""Shared linear-algebra helpers.

Subspaces are represented by matrices whose columns form an orthonormal
basis; an empty subspace is an ``(n, 0)`` array.  Antilinear maps on
``C^n`` are represented by a matrix ``M`` acting as ``x -> M @ conj(x)``;
a conjugation is an antilinear involutive isometry, i.e. a unitary ``M``
with ``M @ conj(M) = I`` (equivalently ``M`` unitary symmetric).

Two Frobenius norms: :func:`fro_norm` of one matrix is numpy's (same
BLAS dots) without the ``np.linalg.norm`` wrapper, which outweighs small
gates' dots; :func:`frobenius` of each slice of a stack sums pairwise.
"""

from __future__ import annotations

import math

import numpy as np

from .config import SUBSPACE_TOL
from .errors import NotUnitaryError

__all__ = [
    "as_complex_matrix",
    "orth_columns",
    "truncated_svd",
    "complement_basis",
    "subspace_residual",
    "is_hermitian",
    "is_unitary",
    "require_unitary",
    "haar_unitary",
    "is_conjugation",
    "empty_basis",
    "read_only",
]

#: Complex entries (8 MB) that one stack of matrices may hold at a time.
CHUNK_CELLS = 1 << 19


def as_complex_matrix(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def empty_basis(n: int) -> np.ndarray:
    return np.zeros((n, 0), dtype=complex)


def read_only(a: np.ndarray) -> np.ndarray:
    """``a`` itself, marked read-only, for an array that is computed once
    and shared by every later caller."""
    a.flags.writeable = False
    return a


def truncated_svd(a: np.ndarray, tol: float = SUBSPACE_TOL) -> tuple:
    """Thin SVD ``(U_r, S_r, Vh_r)`` of ``a``, in its own dtype, keeping the
    singular values above ``tol`` times the largest (``r = 0`` when ``a``
    has no columns or is all zero)."""
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    rank = np.count_nonzero(s > tol * s[0]) if s.size else 0
    return u[:, :rank], s[:rank], vh[:rank]


def orth_columns(a: np.ndarray, tol: float = SUBSPACE_TOL) -> np.ndarray:
    """Orthonormal basis (``n x r``, ``r`` may be 0) of the column space of
    ``a``: the ``U_r`` of :func:`truncated_svd` in complex arithmetic."""
    return truncated_svd(as_complex_matrix(a), tol)[0]


def complement_basis(basis: np.ndarray, tol: float = SUBSPACE_TOL) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of ``span(basis)``."""
    basis = as_complex_matrix(basis)
    n = basis.shape[0]
    if basis.shape[1] == 0:
        return np.eye(n, dtype=complex)
    u, s, _ = np.linalg.svd(basis, full_matrices=True)
    rank = np.count_nonzero(s > tol * max(s[0], 1.0))
    return u[:, rank:]


def subspace_residual(basis: np.ndarray, x: np.ndarray) -> float:
    """Norm of the component of ``x`` outside ``span(basis)``, relative
    to ``max(1, ||x||)`` (columnwise worst case for matrices)."""
    basis = as_complex_matrix(basis)
    x = as_complex_matrix(x)
    if x.ndim == 1:
        x = x[:, None]
    proj = basis @ (basis.conj().T @ x) if basis.shape[1] else np.zeros_like(x)
    out = x - proj
    return fro_norm(out) / max(1.0, fro_norm(x))


def fro_norm(a: np.ndarray) -> float:
    """``float(np.linalg.norm(a))`` bit for bit, for double precision or
    integer ``a``: numpy's cast to float, ``ravel(order="K")``, ``x . x``
    (``re . re + im . im``) and ``sqrt``."""
    x = (a if a.dtype.kind in "fc" else a.astype(float)).ravel(order="K")
    if x.dtype.kind != "c":
        sq = x.dot(x)
    else:
        sq = x.real.dot(x.real) + x.imag.dot(x.imag)
    return math.sqrt(sq)


def frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of a matrix, or of each slice of a stack."""
    return np.sqrt(np.add.reduce((a.conj() * a).real, axis=(-2, -1)))


def gram_defect(q: np.ndarray) -> float:
    """``||Q^H Q - E||_F``: how far the columns of ``q`` are from
    orthonormal."""
    return fro_norm(q.conj().T @ q - np.eye(q.shape[1]))


def is_hermitian(a: np.ndarray, tol: float) -> bool:
    a = as_complex_matrix(a)
    return fro_norm(a - a.conj().T) <= tol * (1.0 + fro_norm(a))


def is_unitary(u: np.ndarray, tol: float):
    """Whether ``||U^H U - E||_F <= tol * n``: a bool for a matrix, one per
    slice for a stack of matrices (``False`` for non-square input).  One
    Gram product decides both sides: for square ``U``, ``U^H U`` and ``U
    U^H`` are Hermitian with the same eigenvalues ``s_i^2``, so ``||U U^H -
    E||_F`` is the same number."""
    u = as_complex_matrix(u)
    n = u.shape[-1]
    if u.shape[-2] != n:
        return False
    ok = frobenius(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(n)) <= tol * n
    return ok if ok.ndim else bool(ok)


def require_unitary(u: np.ndarray, tol: float, what: str = "matrix") -> np.ndarray:
    u = as_complex_matrix(u)
    if not is_unitary(u, tol):
        raise NotUnitaryError(f"{what} is not unitary within tolerance {tol}")
    return u


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def is_conjugation(m: np.ndarray, tol: float) -> bool:
    """True iff ``x -> m @ conj(x)`` is an antilinear involutive isometry."""
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    if m.shape[0] == 0:
        return True
    if not is_unitary(m, tol):
        return False
    return fro_norm(m @ np.conj(m) - np.eye(len(m))) <= tol * len(m)
