"""Generalized resolvents of single operators and commuting pairs.

Point conventions
-----------------
Two coordinate systems are used and converted with the Moebius map
``z = (lam - i)/(lam + i)`` (:func:`cayley_point`):

* ``z``-type points: the open unit disk for Chumakin resolvents, the
  complement of the unit circle for :func:`unitary_moebius`;
* ``lam``-type points: the complex plane without the real axis.  Disks
  of radius ``EXCLUDED_RADIUS`` around ``+-i`` are excluded
  as well; the boundary values there are defined only as weak limits,
  and callers who need them must take the limits themselves.  Only
  :func:`validate_spectral_point` checks them; a point it accepts evaluates.

Sign convention
---------------
:func:`pair_resolvent_symmetric` evaluates

    ``(E - 2 [E - z1 (V (+) Phi_{z1})]^{-1}) (E + z2 U)(E - z2 U)^{-1}``

with ``z_j = (lam_j - i)/(lam_j + i)``.  The overall sign is fixed so
that the one-atom measure at the origin gives the scalar value
``1/(lam1 lam2)``, which is the compressed product of resolvent factors
``(E + lam B)(B - lam)^{-1}`` of the in-space self-adjoint extensions;
the ``z``-type pair resolvent of :func:`pair_resolvent_unitary` is the
negative of the ``lam``-type one at corresponding points.  The column
factor is taken in that ``lam`` form: with ``A2 = Q diag(b) Q^H`` (the
pair's ``a2_spectrum``) and ``U = Q diag((b + i)/(b - i)) Q^H``,

    ``(E + z2 U)(E - z2 U)^{-1} = Q diag(-i (1 + lam2 b)/(b - lam2)) Q^H``,

one division per eigenvalue instead of a solve against ``E - z2 U``.  It
keeps its digits where the Moebius form cannot: at a huge ``lam2``,
``1 - z2`` holds few digits and ``E + z2 U`` cancels on an eigenvalue 0
of ``A2``; next to the real axis, ``E - z2 U`` is nearly singular while
``b - lam2`` is exact.

Prepared pairs and grids
------------------------
For a constant ``Phi`` the value depends on the parameter only through
the full matrix of ``V (+) Phi``, and the admissibility and commutation
gates do not depend on the point.  :func:`prepare_pair` runs both gates
and builds that matrix once; the :class:`PreparedPair` it returns is
the first argument of :func:`pair_resolvent_symmetric`, which then
evaluates only the two factors.  The value is a row factor of ``z1``
alone times a column factor of ``lam2`` alone, so a ``lambda1 x
lambda2`` grid solves one row factor per ``lambda1``, in stacked solves
of at most ``CHUNK_CELLS // n**2`` points, and forms one column factor
per ``lambda2`` and half-plane of ``lambda1`` in one stacked product;
the grid is one batched product of rows by columns.
Every value is bit for bit that of a call at its point alone.  With an
``(n, k)`` embedding ``h_embed`` the value is ``h_embed^H R h_embed``:
the row factor is solved against ``h_embed`` and the column factor
applied to it, not to ``E``.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .cayley import (ContractionParameter, IsometricPair,
                     commutation_check, constant_admissibility,
                     extend_isometry)
from .config import (DEFAULT_TOLERANCES, EXCLUDED_RADIUS, PSD_TOL_BASE,
                     STRUCTURE_TOL, Tolerances)
from .errors import (AdmissibilityFailedError, CommutationViolatedError,
                     ExcludedPointError, IndexOutOfRangeError,
                     NotSupportedError, SingularMatrixError)
from .linalg import CHUNK_CELLS, as_complex_matrix, fro_norm
from .moments import AtomicMeasure

__all__ = [
    "PreparedPair",
    "TrigMomentTable",
    "cayley_point",
    "chumakin_resolvent",
    "unitary_moebius",
    "pair_resolvent_unitary",
    "prepare_pair",
    "pair_resolvent_symmetric",
    "pair_resolvent_of_measure",
    "trig_moments_from_resolvent",
]

# Points this close to the real axis (relative to 1 + |lam|) count as real.
REAL_AXIS_TOL = 1e-12

# The exact scale of the lambda-form column factor (_column_factors).
_TINY = 2.0 ** -60


def cayley_point(lam: complex) -> complex:
    """Moebius image ``z = (lam - i)/(lam + i)`` of a spectral point."""
    lam = complex(lam)
    return (lam - 1j) / (lam + 1j)


def validate_spectral_point(lam: complex, name: str = "lambda") -> complex:
    """Check that ``lam`` is non-real and outside the disks of radius
    ``EXCLUDED_RADIUS`` around ``+-i``.

    Returns the point as a ``complex``; raises ``ExcludedPointError``
    otherwise.
    """
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise ExcludedPointError(f"{name} = {lam} is not finite")
    if abs(lam.imag) <= REAL_AXIS_TOL * (1.0 + abs(lam)):
        raise ExcludedPointError(f"{name} = {lam} lies on the real axis")
    for pole, label in ((1j, "i"), (-1j, "-i")):
        if abs(lam - pole) <= EXCLUDED_RADIUS:
            raise ExcludedPointError(
                f"{name} = {lam} lies in the excluded neighborhood of {label}")
    return lam


def valid_grid(lambda1, lambda2) -> tuple:
    """The points of each line that :func:`validate_spectral_point` accepts
    and the number of grid points lost: ``(valid1, valid2, excluded)``."""
    valid = ([], [])
    for line, kept, name in zip((lambda1, lambda2), valid,
                                ("lambda1", "lambda2")):
        for lam in line:
            with contextlib.suppress(ExcludedPointError):
                kept.append(validate_spectral_point(lam, name))
    return *valid, len(lambda1) * len(lambda2) - len(valid[0]) * len(valid[1])


def chumakin_resolvent(iso: IsometricPair, phi: ContractionParameter,
                       z: complex) -> np.ndarray:
    """Generalized resolvent ``[E - z (V (+) Phi_z)]^{-1}`` for ``|z| < 1``.

    The inverse always exists inside the disk since the extended
    operator is a contraction; ``SingularMatrixError`` is defensive.
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise ExcludedPointError(f"z = {z} is not in the open unit disk")
    return _solve_stack(extend_isometry(iso, phi, z), [z], "resolvent")[0]


def _extended_resolvent(full: np.ndarray, z: np.ndarray, rhs=None,
                        image=None) -> np.ndarray:
    """``[E - z full]^{-1} (rhs + z image)`` at each point of the 1-D
    array ``z``; ``rhs = E`` and ``image = 0`` if omitted."""
    # No disk check: pair_resolvent_symmetric also solves at the z1 of a
    # huge lambda1, where |z1| rounds to 1; unitary_moebius checks its z.
    eye, z = np.eye(full.shape[0], dtype=complex), z[:, None, None]
    rhs = eye if rhs is None else rhs
    rhs = rhs if image is None else rhs + z * image
    # One right-hand side per point: NumPy 1.x reads an (n, k) ``b`` next
    # to an (m, n, n) stack as a stack of vectors.
    return np.linalg.solve(eye - z * full,
                           np.broadcast_to(rhs, z.shape[:1] + rhs.shape[-2:]))


def _solve_stack(full: np.ndarray, points: list, singular: str, rhs=None,
                 image=None) -> np.ndarray:
    """:func:`_extended_resolvent` at ``points``, in stacks of at most
    ``CHUNK_CELLS // n**2`` points.  A stack that does not solve is
    solved again point by point, so that ``SingularMatrixError`` names
    its first singular point and no ``LinAlgError`` escapes."""
    size = max(1, CHUNK_CELLS // full.shape[0] ** 2)
    parts = []
    for start in range(0, max(1, len(points)), size):
        part = points[start:start + size]
        try:
            parts.append(_extended_resolvent(
                full, np.array(part, dtype=complex), rhs, image))
        except np.linalg.LinAlgError as exc:
            if len(part) == 1:
                raise SingularMatrixError(
                    f"{singular} singular at z = {part[0]}") from exc
            parts += [_solve_stack(full, [z], singular, rhs, image)
                      for z in part]
    return np.concatenate(parts)


def _column_factors(b: np.ndarray, q: np.ndarray, lam: np.ndarray,
                    coords: np.ndarray) -> np.ndarray:
    """``(E + z U)(E - z U)^{-1} h`` at ``z = (lam - i)/(lam + i)`` for each
    point of the 1-D array ``lam``, with ``U = Q diag((b + i)/(b - i)) Q^H``
    and ``coords = Q^H h``: ``Q diag(-i (1 + lam b)/(b - lam)) coords``, one
    product per point in one stacked ``matmul``.  No solve: ``b`` is real
    and ``lam`` is not, so no denominator vanishes.  Numerator and
    denominator are scaled by ``2**-60``, exactly: ``lam b`` stays finite
    for every finite ``lam`` (``|b| < 2**28`` by the range gate of
    ``a2_spectrum``), and the quotient is the unscaled one wherever no
    scaled part falls below ``2**-1022``."""
    lam = _TINY * lam[:, None]
    scale = -1j * (_TINY + lam * b) / (_TINY * b - lam)
    return q @ (scale[:, :, None] * coords)


def unitary_moebius(u: np.ndarray, z: complex) -> np.ndarray:
    """Matrix Moebius function ``U(z) = (E + z U)(E - z U)^{-1}``.

    Defined off the unit circle; ``|z| = 1`` can hit the spectrum of
    ``U`` and raises ``SingularMatrixError``.
    """
    u = as_complex_matrix(u)
    z = complex(z)
    if u.shape[0] == 0:
        return np.zeros((0, 0), dtype=complex)
    if abs(abs(z) - 1.0) <= 1e-12:
        raise SingularMatrixError(f"z = {z} lies on the unit circle")
    return _solve_stack(u, [z], "E - z U", np.eye(u.shape[0], dtype=complex),
                        u)[0]


def pair_resolvent_unitary(u1: np.ndarray, u2: np.ndarray,
                           h_embed: np.ndarray, z1: complex,
                           z2: complex) -> np.ndarray:
    """Compression of ``U1(z1) U2(z2)`` to the embedded subspace.

    ``h_embed`` is an orthonormal basis of the subspace (identity for
    the whole space); the unitaries must commute within tolerance.
    """
    u1 = as_complex_matrix(u1)
    u2 = as_complex_matrix(u2)
    h = as_complex_matrix(h_embed)
    comm = fro_norm(u1 @ u2 - u2 @ u1)
    scale = max(1.0, fro_norm(u1) * fro_norm(u2))
    if comm > STRUCTURE_TOL * scale:
        raise CommutationViolatedError(
            f"extension unitaries do not commute (residual {comm:.3e})")
    m = unitary_moebius(u1, z1) @ unitary_moebius(u2, z2)
    return h.conj().T @ m @ h


@dataclass(frozen=True)
class PreparedPair:
    """An isometric pair with a parameter that passed both gates.

    ``extended`` is the full matrix of ``V (+) Phi`` and ``h_embed`` an
    ``(n, k)`` embedding or ``None`` (then ``k = n``); build it with
    :func:`prepare_pair`, not directly, so that the gates run.
    """

    iso: IsometricPair
    extended: np.ndarray
    h_embed: np.ndarray | None = None


def prepare_pair(iso: IsometricPair, phi: ContractionParameter, *,
                 tolerances: Tolerances = DEFAULT_TOLERANCES,
                 h_embed: np.ndarray | None = None) -> PreparedPair:
    """Gate a parameter once and build ``V (+) Phi`` for
    :func:`pair_resolvent_symmetric`, compressing to ``h_embed`` if given.

    Raises ``AdmissibilityFailedError`` when the parameter is forbidden
    for ``A1`` and ``CommutationViolatedError`` when ``V (+) Phi`` does
    not commute with ``U``.  The parameter is evaluated once, at ``z =
    0``: a constant one is its value everywhere, and a pointwise family
    is accepted only when the defect is zero and its value is empty.
    """
    if not constant_admissibility(iso, phi, tolerances=tolerances):
        raise AdmissibilityFailedError(
            "parameter is forbidden for this operator (admissibility "
            "criterion failed)")
    value = phi.matrix if phi.constant else iso.parameter_at(phi)
    extended = iso.extend(iso.ninf_basis @ value)
    if not commutation_check(iso, phi, extended=extended):
        raise CommutationViolatedError(
            "extended isometry does not commute with the second Cayley "
            "transform")
    return PreparedPair(iso, extended, h_embed)


def pair_resolvent_symmetric(prepared: PreparedPair, lambda1,
                             lambda2) -> np.ndarray:
    """Generalized resolvent of the symmetric/self-adjoint pair.

    Evaluates the product described in the module docstring at
    ``z_j = (lambda_j - i)/(lambda_j + i)``; for ``lambda1`` in the
    lower half-plane the value is the adjoint of the resolvent at the
    conjugated points.  Two points give a ``k x k`` matrix, two 1-D
    sequences the ``(len(lambda1), len(lambda2), k, k)`` grid of every
    pair, as a fresh array.  The first excluded point, of ``lambda1``
    before ``lambda2``, raises ``ExcludedPointError``.
    """
    shape = np.shape(lambda1) + np.shape(lambda2)
    lam1 = [validate_spectral_point(lam, "lambda1")
            for lam in np.ravel(lambda1)]
    lam2 = [validate_spectral_point(lam, "lambda2")
            for lam in np.ravel(lambda2)]
    upper = np.array([lam.imag > 0.0 for lam in lam1], dtype=bool)
    points1 = [cayley_point(lam if up else lam.conjugate())
               for lam, up in zip(lam1, upper)]
    h, t = prepared.h_embed, prepared.extended
    b, q = prepared.iso.a2_spectrum
    if h is None:
        rows = np.eye(t.shape[0], dtype=complex) - 2.0 * _solve_stack(
            t, points1, "resolvent")
        coords = q.conj().T
    else:
        # h^H (E - z1 T)^{-1} is the transpose of (E - z1 T^T)^{-1} conj(h).
        rows = h.conj().T - 2.0 * _solve_stack(
            t.T, points1, "resolvent", h.conj()).swapaxes(-1, -2)
        coords = q.conj().T @ h
    k = rows.shape[1]
    # Lower lambda1 take the adjoint of the value at conj(lambda2).
    halves = [(mask, conj) for mask, conj in ((upper, False), (~upper, True))
              if mask.any()]
    points2 = np.array([lam.conjugate() if conj else lam
                        for _, conj in halves for lam in lam2], dtype=complex)
    cols = _column_factors(b, q, points2, coords)
    values = np.empty((len(lam1), len(lam2), k, k), dtype=complex)
    for i, (mask, conj) in enumerate(halves):
        block = rows[mask][:, None] @ cols[i * len(lam2):][:len(lam2)][None]
        values[mask] = block.conj().swapaxes(-1, -2) if conj else block
    return values.reshape(shape + (k, k))


def pair_resolvent_of_measure(measure: AtomicMeasure, lambda1: complex,
                              lambda2: complex) -> complex:
    """Scalar pair resolvent of an atomic measure.

    Direct sum of ``w * (1 + lam1 t1)/(t1 - lam1) * (1 + lam2 t2)/(t2 - lam2)``
    over the atoms; this is the value the operator formulas reproduce
    for the measure's joint spectral data.
    """
    lam1 = validate_spectral_point(lambda1, "lambda1")
    lam2 = validate_spectral_point(lambda2, "lambda2")
    t1 = measure.points[:, 0]
    t2 = measure.points[:, 1]
    factors = ((1.0 + lam1 * t1) / (t1 - lam1)) * ((1.0 + lam2 * t2) / (t2 - lam2))
    return complex(np.sum(measure.weights * factors))



@dataclass(frozen=True)
class TrigMomentTable:
    """Trigonometric moments ``c_{j,k}`` on the two-torus.

    ``c_full[order_j + j, order_k + k]`` holds ``c_{j,k}`` for
    ``|j| <= order_j``, ``|k| <= order_k``; the table satisfies the
    conjugate symmetry ``c_{-j,-k} = conj(c_{j,k})`` and ``|c_{j,k}| <=
    c_{0,0}`` with ``c_{0,0}`` real positive.
    """

    order_j: int
    order_k: int
    c_full: np.ndarray

    def __post_init__(self):
        if self.order_j < 0 or self.order_k < 0:
            raise ValueError("orders must be nonnegative")
        c_full = np.asarray(self.c_full, dtype=complex)
        expected = (2 * self.order_j + 1, 2 * self.order_k + 1)
        if c_full.shape != expected:
            raise ValueError(
                f"c_full has shape {c_full.shape}, expected {expected}")
        object.__setattr__(self, "c_full", c_full)
        c00 = c_full[self.order_j, self.order_k]
        if abs(c00.imag) > 1e-10 * (1.0 + abs(c00)) or c00.real <= 0.0:
            raise ValueError(f"c_00 = {c00} must be real positive")
        slack = 1e-8 * (1.0 + c00.real)
        if float(np.max(np.abs(c_full))) > c00.real + slack:
            raise ValueError("some |c_jk| exceeds c_00")
        flipped = np.conj(c_full[::-1, ::-1])
        if float(np.max(np.abs(c_full - flipped))) > slack:
            raise ValueError("conjugate symmetry c_{-j,-k} = conj(c_{j,k}) fails")

    @property
    def mass(self) -> float:
        return float(self.c_full[self.order_j, self.order_k].real)

    @property
    def c(self) -> np.ndarray:
        """The nonnegative-index corner ``c_{j,k}``, ``0 <= j,k``."""
        return self.c_full[self.order_j:, self.order_k:].copy()

    def entry(self, j: int, k: int) -> complex:
        if abs(j) > self.order_j or abs(k) > self.order_k:
            raise IndexOutOfRangeError(
                f"(j, k) = ({j}, {k}) outside order ({self.order_j}, "
                f"{self.order_k})")
        return complex(self.c_full[self.order_j + j, self.order_k + k])

    def block_toeplitz(self) -> np.ndarray:
        """Moment matrix ``M[(j,k),(j',k')] = c_{j-j', k-k'}``.

        Rows are indexed row-major by ``(j, k)`` with ``0 <= j <=
        order_j``, ``0 <= k <= order_k``; PSD iff the table is a
        truncated moment sequence of a positive measure.
        """
        nk = self.order_k + 1
        j, k = np.divmod(np.arange((self.order_j + 1) * nk), nk)
        m = self.c_full[self.order_j + np.subtract.outer(j, j),
                        self.order_k + np.subtract.outer(k, k)]
        return 0.5 * (m + m.conj().T)

    def psd_check(self) -> tuple:
        """``(is_psd, min_eigenvalue)`` of the block-Toeplitz matrix, at
        tolerance ``PSD_TOL_BASE * (1 + mass)``."""
        m = self.block_toeplitz()
        min_eig = float(np.linalg.eigvalsh(m)[0])
        return (min_eig >= -PSD_TOL_BASE * (1.0 + self.mass)), min_eig


def trig_moments_from_resolvent(iso: IsometricPair, phi: ContractionParameter,
                                h00: np.ndarray, order_j: int,
                                order_k: int) -> TrigMomentTable:
    """Trigonometric moments carried by a generalized resolvent.

    The scalar function ``((V (+) Phi)(z1)-type products h00, h00)`` is
    rational, and its Taylor coefficients at the origin are ``w_j w_k
    c_{j,k}`` with ``w_0 = 1`` and ``w_j = 2`` otherwise; the ``c_{j,k}``
    are read off exactly as ``(T1^j U^k h00, h00)`` with ``T1 = V (+)
    Phi``.  Entries with one negative index use the adjoint power, which
    matches the minimal unitary extension because the second operator
    leaves the state space invariant.  Only constant parameters are
    supported.
    """
    if not phi.constant:
        raise NotSupportedError(
            "trigonometric moment extraction requires a constant parameter")
    if order_j < 0 or order_k < 0:
        raise ValueError("orders must be nonnegative")
    t1 = extend_isometry(iso, phi, 0.0)
    u2 = iso.u_matrix
    h = np.asarray(h00, dtype=complex).reshape(-1)
    if h.shape[0] != iso.dim:
        raise ValueError(f"h00 has length {h.shape[0]}, expected {iso.dim}")
    # Left vectors p_j with p_j^H = h00^H T1^j.
    lefts = [h]
    for _ in range(order_j):
        lefts.append(t1.conj().T @ lefts[-1])
    # Right vectors U2^k h00 for -order_k <= k <= order_k.
    rights = {0: h}
    for k in range(1, order_k + 1):
        rights[k] = u2 @ rights[k - 1]
        rights[-k] = u2.conj().T @ rights[-(k - 1)]
    c_full = np.zeros((2 * order_j + 1, 2 * order_k + 1), dtype=complex)
    for j in range(order_j + 1):
        for k in range(-order_k, order_k + 1):
            c_full[order_j + j, order_k + k] = np.vdot(lefts[j], rights[k])
    for j in range(1, order_j + 1):
        for k in range(-order_k, order_k + 1):
            c_full[order_j - j, order_k - k] = np.conj(
                c_full[order_j + j, order_k + k])
    return TrigMomentTable(order_j=order_j, order_k=order_k, c_full=c_full)
