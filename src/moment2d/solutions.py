"""Canonical solutions of the moment problem and their enumeration.

A canonical solution lives inside the state space itself: it is the
joint spectral measure (with respect to the cyclic vector) of a pair of
commuting self-adjoint matrices ``(A1_tilde, A2)`` where ``A1_tilde``
extends the partially defined shift ``A1``.  At defect 0 (determinate)
``A1`` is self-adjoint and ``(A1, A2)`` gives the only solution.  At a
nonzero defect the extensions come from the Cayley data and a unitary
parameter ``U2`` in the commutant of ``W2 = V2|_{H2}``, via the
conjugation factorization of ``W2``; the inverse Cayley transform turns
the extended isometry back into a Hermitian matrix, one per ``U2``.
:func:`solve_canonical` evaluates the parameters in chunks, one stacked
LAPACK call per step for the chunk, so a consumer that stops after the
first report has still paid for the first chunk; order and errors are
those of one parameter at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
import scipy.linalg

from .cayley import IsometricPair, _inverse_cayley_stack, build_isometric_pair
from .config import (DEFAULT_TOLERANCES, STRUCTURE_TOL, WEIGHT_DROP_TOL,
                     Tolerances)
from .errors import (ClusterAmbiguityError, CommutationViolatedError,
                     FixedPointError, IndexOutOfRangeError, Moment2dError,
                     NotPsdError, NotUnitaryError, StructureViolationError)
from .gns import (GnsSpace, SymmetricPair, _rank_cut, _shift_step, build_gns,
                  build_operators)
from .linalg import (CHUNK_CELLS, as_complex_matrix, fro_norm, frobenius,
                     haar_unitary, is_hermitian, is_unitary, read_only,
                     require_unitary)
from .moments import (AtomicMeasure, MomentTable, _has_close_pair,
                      _power_table, moments_of_measure)

__all__ = [
    "SamplerSpec",
    "CanonicalExtension",
    "SolutionReport",
    "enumerate_commutant_unitaries",
    "canonical_extension",
    "joint_spectral_measure",
    "verify_solution",
    "determinacy",
    "moments_from_pair",
    "refine_measure",
    "solve_canonical",
]

SAMPLER_KINDS = ("identity-only", "haar-random", "exhaustive-phases")

#: Random combinations ``c1 A1 + c2 A2`` that :func:`joint_spectral_measure`
#: tries, the seed they are drawn from, and their ``(c1, c2)``, drawn once.
MAX_COMBINATIONS = 5
COMBINATION_SEED = 1234
_COMBINATIONS = tuple(
    read_only(c / fro_norm(c)) for c in np.random.default_rng(
        COMBINATION_SEED).normal(size=(MAX_COMBINATIONS, 2)))

#: Resolvent cross-check of every emitted solution: number of random
#: point pairs, their seed, and the relative tolerance.
CROSS_POINTS = 5
CROSS_SEED = 777
CROSS_TOL = 1e-8

#: Parameters per stack, fewer where its cross-check would pass CHUNK_CELLS.
_CHUNK = 16

#: Evaluation budget of the least-squares polish in :func:`refine_measure`.
REFINE_MAX_NFEV = 200


@dataclass(frozen=True)
class SamplerSpec:
    """How to walk the commutant of ``W2``.

    ``identity-only`` emits the identity; ``haar-random`` emits
    ``count`` block-Haar unitaries seeded by ``seed``;
    ``exhaustive-phases`` emits scalar phases ``exp(2 pi i l / phases)``
    per eigenvalue block, over the full Cartesian product (the complete
    finite torus grid when every block is one-dimensional).
    """

    kind: str = "identity-only"
    count: int = 1
    seed: int | None = None
    phases: int = 4

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}; "
                             f"expected one of {SAMPLER_KINDS}")
        if self.kind == "haar-random":
            if self.seed is None:
                raise ValueError("haar-random sampler requires a seed")
            if self.count < 1:
                raise ValueError("haar-random sampler requires count >= 1")
        if self.kind == "exhaustive-phases" and self.phases < 1:
            raise ValueError("exhaustive-phases sampler requires phases >= 1")


@dataclass(frozen=True)
class CanonicalExtension:
    """One self-adjoint extension generating a canonical solution.

    ``a1_tilde`` is the Hermitian extension of ``A1``; ``u24`` is the
    linear isometry from ``H2`` coordinates onto ``H4`` given by the
    conjugation composition, the read-only array ``iso.u24`` shared by
    every extension of the pair.
    """

    a1_tilde: np.ndarray
    u24: np.ndarray


@dataclass(frozen=True)
class SolutionReport:
    """Verification record for one recovered measure."""

    measure: AtomicMeasure
    max_abs_moment_error: float
    degrees_checked: tuple
    determinate: bool | None
    u2_seed: str | None = None
    passed: bool | None = None


def _cluster_values(values: np.ndarray, tol: float) -> list:
    """Greedy clustering of scalars by distance to cluster centroids."""
    clusters: list[list[int]] = []
    for i, v in enumerate(values):
        for members in clusters:
            if abs(v - sum(values[j] for j in members) / len(members)) <= tol:
                members.append(i)
                break
        else:
            clusters.append([i])
    return [np.asarray(members, dtype=int) for members in clusters]


def enumerate_commutant_unitaries(w2: np.ndarray, sampler: SamplerSpec, *,
                                  tolerances: Tolerances = DEFAULT_TOLERANCES,
                                  schur: tuple | None = None) -> Iterator[np.ndarray]:
    """Stream of unitaries commuting with the unitary ``w2``.

    The commutant of a unitary matrix consists exactly of the block
    operators over its eigenspaces (eigenvalues clustered at
    ``tolerances.cluster_tol``), so every emitted matrix is unitary and
    commutes with ``w2`` up to rounding.  Deterministic under a fixed
    sampler.  An empty ``w2`` yields an empty stream.  ``schur`` is the
    Schur form ``(T, Z)`` of ``w2`` if the caller holds it.
    """
    w2 = require_unitary(w2, STRUCTURE_TOL, "W2")
    d = w2.shape[0]
    if d == 0:
        return
    t, z_mat = schur or scipy.linalg.schur(w2, output="complex")
    off = t - np.diag(np.diagonal(t))
    if fro_norm(off) > STRUCTURE_TOL * d:
        raise StructureViolationError("W2 is not normal within tolerance")
    blocks = _cluster_values(np.diagonal(t), tolerances.cluster_tol)

    def assemble(block_mats: list) -> np.ndarray:
        m = np.zeros((d, d), dtype=complex)
        for idx, mat in zip(blocks, block_mats):
            m[np.ix_(idx, idx)] = mat
        return z_mat @ m @ z_mat.conj().T

    if sampler.kind == "identity-only":
        yield np.eye(d, dtype=complex)
    elif sampler.kind == "haar-random":
        # Child i of SeedSequence(seed).spawn(count), built when drawn.
        for i in range(sampler.count):
            rng = np.random.default_rng(
                np.random.SeedSequence(sampler.seed, spawn_key=(i,)))
            yield assemble([haar_unitary(len(idx), rng) for idx in blocks])
    else:
        g = sampler.phases
        phases = np.exp(2j * np.pi * np.arange(g) / g)
        for combo in itertools.product(range(g), repeat=len(blocks)):
            yield assemble([phases[l] * np.eye(len(idx), dtype=complex)
                            for l, idx in zip(combo, blocks)])


def canonical_extension(pair: SymmetricPair, iso: IsometricPair,
                        u2: np.ndarray) -> CanonicalExtension:
    """Self-adjoint extension of ``A1`` from a commutant parameter.

    The inverse Cayley transform of ``V_tilde = V1 (+) (U24 U2)``, from
    ``iso.v_matrix`` (``V`` on ``D(V)``) and ``iso.u24`` (``U24 = J o K``,
    ``K`` from the conjugation factorization of ``W2 = U|_{H2}``), built
    with their gates once per pair.  Errors: ``ValueError`` (shape of
    ``u2``), ``NotUnitaryError``, ``CommutationViolatedError`` (with
    ``W2``), ``FixedPointError`` (``V_tilde`` has eigenvalue 1: the
    parameter is rejected) and ``StructureViolationError`` (``V_tilde``
    unitary, restriction to ``A1``, commutation with ``A2``).  One slice
    of the stacked kernels :func:`solve_canonical` runs on a chunk.
    """
    pair.require_a2_selfadjoint(
        "A2 is not self-adjoint; canonical extensions unavailable")
    d2 = iso.defect_dim
    u2 = as_complex_matrix(u2)
    if u2.shape != (d2, d2):
        raise ValueError(f"U2 has shape {u2.shape}, expected ({d2}, {d2})")
    a1s, fixed = _extension_stack(pair, iso, u2[None])
    if fixed[0]:
        raise fixed[0]
    _commute_gate("extension", a1s, pair.a2_matrix)
    return CanonicalExtension(a1_tilde=a1s[0], u24=iso.u24)


def _gate(failed: np.ndarray, error: type, message: str, *values):
    """Raise ``error(message % (v[j], ...))`` at the first failed ``j``."""
    if failed.any():
        raise error(message % tuple(v[failed.argmax()] for v in values))


def _extension_stack(pair: SymmetricPair, iso: IsometricPair, u2s: np.ndarray):
    """:func:`canonical_extension` of a stack up to its last gate: the
    extensions without a fixed point, and per slice its error or None."""
    _gate(~is_unitary(u2s, STRUCTURE_TOL), NotUnitaryError,
          f"U2 is not unitary within tolerance {STRUCTURE_TOL}")
    u24, w2 = iso.u24, iso.w2
    comm = frobenius(u2s @ w2 - w2 @ u2s)
    _gate(comm > STRUCTURE_TOL * max(1.0, fro_norm(w2)),
          CommutationViolatedError,
          "U2 does not commute with W2 (residual %.3e)", comm)
    v_tilde = iso.extend(u24 @ u2s)
    _gate(~is_unitary(v_tilde, STRUCTURE_TOL * 10), StructureViolationError,
          "extended isometry is not unitary")
    a1s, fixed = _inverse_cayley_stack(v_tilde)
    ext_res = frobenius(a1s @ pair.a1_domain - pair.a1_action)
    scale = max(1.0, fro_norm(pair.a1_action))
    _gate(ext_res > STRUCTURE_TOL * 100 * scale, StructureViolationError,
          "extension does not restrict to A1 (residual %.3e)", ext_res)
    return a1s, fixed


def _commute_gate(name: str | None, a1s: np.ndarray, a2: np.ndarray):
    """``||A1 A2 - A2 A1||`` per slice, gated relatively when ``name``d."""
    comm = frobenius(a1s @ a2 - a2 @ a1s)
    if name:
        scale = np.maximum(1.0, frobenius(a1s) * fro_norm(a2))
        _gate(comm > STRUCTURE_TOL * 100 * scale, StructureViolationError,
              f"{name} does not commute with A2 (residual %.3e)", comm)
    return comm


def joint_spectral_measure(a1: np.ndarray, a2: np.ndarray, h00: np.ndarray, *,
                           tolerances: Tolerances = DEFAULT_TOLERANCES) -> AtomicMeasure:
    """Joint spectral measure of two commuting Hermitian matrices.

    Diagonalizes a random real combination ``c1 A1 + c2 A2`` with
    eigenvectors ``V``, chain-clusters its sorted eigenvalues, and reads
    one atom ``(t1, t2)`` per cluster as the mean of the cluster's
    diagonal entries of ``V^H A1 V`` and ``V^H A2 V``; the weight is the
    cluster's sum of ``|V^H h00|^2``.  Each compression must be scalar
    on its cluster (a 1 x 1 block is, up to rounding, so only larger
    clusters are tested); a non-scalar compression means the
    combination collided two distinct joint eigenvalues, and the next of
    the ``MAX_COMBINATIONS`` drawn once per process is tried (then
    ``ClusterAmbiguityError``).  Atoms below ``WEIGHT_DROP_TOL`` are
    dropped, and atoms within ``tolerances.atom_merge_tol`` of each other
    are merged, pass after pass, until no two are that close; the last
    pass's scan is the only one.  This is one slice of :func:`_measure_stack`.
    """
    a1, a2 = as_complex_matrix(a1), as_complex_matrix(a2)
    h = np.asarray(h00, dtype=complex).reshape(-1)
    n = a1.shape[0]
    if a1.shape != (n, n) or a2.shape != (n, n) or h.shape[0] != n:
        raise ValueError("dimension mismatch between operators and h00")
    if not (is_hermitian(a1, STRUCTURE_TOL)
            and is_hermitian(a2, STRUCTURE_TOL)):
        raise StructureViolationError("operators must be Hermitian")
    return _measure_stack(a1[None], a2, h, None, tolerances=tolerances)[0]


def _measure_stack(a1s: np.ndarray, a2: np.ndarray, h: np.ndarray,
                   comm: np.ndarray | None, *, tolerances: Tolerances) -> list:
    """:func:`joint_spectral_measure` of each (Hermitian) slice of ``a1s``;
    ``comm`` is their :func:`_commute_gate` residuals, computed if None.
    Each slice is read in one pass, as floats: a cluster of several sums as
    ``np.add.reduceat`` does, and merged atoms need no second scan."""
    merge_tol = tolerances.atom_merge_tol
    comm = _commute_gate(None, a1s, a2) if comm is None else comm
    op_scale = np.maximum(np.maximum(1.0, frobenius(a1s)), fro_norm(a2))
    _gate(comm > STRUCTURE_TOL * op_scale * op_scale, CommutationViolatedError,
          "operators do not commute (residual %.3e)", comm)
    n, block_tol = a2.shape[0], (merge_tol * op_scale).tolist()
    measures, pending = [None] * len(a1s), list(range(len(a1s)))
    for c in _COMBINATIONS:
        b1 = a1s if len(pending) == len(a1s) else a1s[pending]
        m = c[0] * b1 + c[1] * a2
        vals, vecs = np.linalg.eigh(0.5 * (m + np.swapaxes(m.conj(), 1, 2)))
        vh = np.swapaxes(vecs.conj(), 1, 2)
        c1, c2 = vh @ b1 @ vecs, vh @ a2 @ vecs
        gaps = tolerances.cluster_tol * (1.0 + abs(vals).max(1, initial=0.0))
        slices = zip(pending, *(x.tolist() for x in (
            vals, gaps, c1.diagonal(0, 1, 2).real, c2.diagonal(0, 1, 2).real,
            np.abs(vh @ h) ** 2)))
        pending = []
        for j, (i, lam, gap, d1, d2, mass) in enumerate(slices):
            atoms, s = [], 0
            for e in range(1, n + 1):   # chain clustering along sorted lam
                if e < n and not lam[e] - lam[e - 1] > gap:
                    continue
                if e == s + 1:   # ``+ 0.0`` makes a negative zero positive
                    atom = [d1[s] + 0.0, d2[s] + 0.0, mass[s]]
                else:
                    atom = [np.add.reduce(x[s + 1:e], initial=x[s])
                            for x in (d1, d2, mass)]
                    atom[:2] = [t / (e - s) + 0.0 for t in atom[:2]]
                    norms = [fro_norm(b[j, s:e, s:e] - t * np.eye(e - s))
                             for b, t in zip((c1, c2), atom)]
                    if not max(norms) <= block_tol[i]:
                        pending.append(i)
                        break
                s = e
                if atom[2] >= WEIGHT_DROP_TOL:
                    atoms.append(atom)
            else:
                p, w = (a := np.array(atoms).reshape(-1, 3))[:, :2], a[:, 2]
                while _has_close_pair(p, merge_tol):
                    p, w = _merge_atoms(p, w, merge_tol)
                order = np.lexsort((p[:, 1], p[:, 0]))
                measures[i] = AtomicMeasure._apart(p[order], w[order],
                                                   merge_tol)
        if not pending:
            return measures
    raise ClusterAmbiguityError(
        f"joint eigenvalue clusters remained ambiguous after "
        f"{MAX_COMBINATIONS} random combinations")


def _merge_atoms(points: np.ndarray, weights: np.ndarray,
                 merge_tol: float) -> tuple:
    """Greedy weighted merge of atoms, in order, into the first earlier
    merged atom within ``merge_tol`` (max-coordinate distance)."""
    merged: list[list[float]] = []
    for (t1, t2), w in zip(points.tolist(), weights.tolist()):
        for entry in merged:
            if max(abs(entry[0] - t1), abs(entry[1] - t2)) <= merge_tol:
                total = entry[2] + w
                entry[0] = (entry[0] * entry[2] + t1 * w) / total
                entry[1] = (entry[1] * entry[2] + t2 * w) / total
                entry[2] = total
                break
        else:
            merged.append([t1, t2, w])
    out = np.array(merged, dtype=float)
    return out[:, :2], out[:, 2]


def verify_solution(measure: AtomicMeasure, table: MomentTable, *,
                    determinate: bool | None = None,
                    u2_seed: str | None = None,
                    tolerances: Tolerances = DEFAULT_TOLERANCES) -> SolutionReport:
    """Compare a measure's exact moments against a table.

    ``max_abs_moment_error`` is the worst absolute deviation over the
    full stored rectangle; ``passed`` records the comparison with
    ``tolerances.verify_tol``.
    """
    mom = moments_of_measure(measure, table.max_m, table.max_n)
    err = float(abs(mom.values - table.values).max())
    return SolutionReport(measure=measure, max_abs_moment_error=err,
                          degrees_checked=(table.max_m, table.max_n),
                          determinate=determinate, u2_seed=u2_seed,
                          passed=bool(err <= tolerances.verify_tol))


def determinacy(pair: SymmetricPair) -> bool:
    """Whether the moment problem of the pair has a unique solution.

    With ``A2`` self-adjoint this is equivalent to ``A1`` being
    self-adjoint, i.e. to vanishing defect numbers; here that means the
    domain of ``A1`` spans the whole space.
    """
    pair.require_a2_selfadjoint(
        "determinacy criterion requires A2 self-adjoint")
    return pair.defect_index(1) == 0


def moments_from_pair(pair: SymmetricPair, max_m: int, max_n: int, *,
                      tolerances: Tolerances = DEFAULT_TOLERANCES) -> MomentTable:
    """Moments ``(A1^m A2^n h00, h00)`` reachable through the domains.

    Rows are added while every chain ``A1^m A2^n h00`` with ``n <=
    max_n`` stays inside the stored domains, up to ``max_m``; the
    result's ``max_m`` reports how far that held (0 when ``h00`` already
    leaves ``D(A1)``).  Values must come out real within tolerance.

    Row 0 is the chain ``A2^n h00``, two products per step into
    column-contiguous buffers (each the product a lone vector takes),
    domain-tested in one pass after it.  Row ``m`` applies ``A1`` to each
    vector of row ``m - 1`` and stops at the first one outside ``D(A1)``:
    O(m n) steps where rebuilding every chain from ``h00`` took O(m n (m +
    n)), and each vector takes exactly the steps of its own chain, so the
    values are the same to the last bit.
    """
    if max_m < 0 or max_n < 0:
        raise ValueError("max_m and max_n must be >= 0")
    tol, adjoint = tolerances.subspace_tol, pair.a2_domain.conj().T
    dtype = np.result_type(pair.h00, adjoint, pair.a2_action)
    chain = np.empty((pair.dim, max_n + 1), dtype, order="F")
    coefs = np.empty((len(adjoint), max_n), dtype, order="F")
    chain[:, 0] = pair.h00
    for j in range(max_n):
        np.matmul(adjoint, chain[:, j], out=coefs[:, j])
        np.matmul(pair.a2_action, coefs[:, j], out=chain[:, j + 1])
    steps = chain[:, :-1]
    res, size = np.linalg.norm((steps - pair.a2_domain @ coefs, steps), axis=1)
    if (res > tol * np.maximum(1.0, size)).any():
        raise ValueError("no moment row is reachable: h00 must at least "
                         "support the m = 0 chain")
    row = list(chain.T)
    rows = [[complex(np.vdot(pair.h00, v)) for v in row]]
    while len(rows) <= max_m:
        shifted = []
        for v in row:
            x = _shift_step(pair.a1_domain, pair.a1_action, v, tol)
            if x is None:
                break
            shifted.append(x)
        if len(shifted) < len(row):
            break
        row = shifted
        rows.append([complex(np.vdot(pair.h00, v)) for v in row])
    values = np.asarray(rows)
    worst = float(abs(values.imag).max())
    if worst > STRUCTURE_TOL * (1.0 + float(abs(values).max())):
        raise StructureViolationError(
            f"pair moments are not real (max imaginary part {worst:.3e})")
    return MomentTable(len(rows) - 1, max_n, values.real)


def refine_measure(measure: AtomicMeasure,
                   table: MomentTable) -> AtomicMeasure:
    """Polish atoms and weights against the table by least squares.

    Gauss-Newton style refinement of the moment residuals with analytic
    Jacobian; weights stay positive through bounds.  Intended as a final
    polish when atoms are already close, where it converges to the
    rounding floor of the moment evaluation.
    """
    k = measure.n_atoms
    if k == 0:
        return measure
    ms = np.arange(table.max_m + 1)
    ns = np.arange(table.max_n + 1)

    def powers(x):  # (k, M+1) and (k, N+1) power tables, weights
        return (_power_table(x[:k], table.max_m),
                _power_table(x[k:2 * k], table.max_n), x[2 * k:])

    def residuals(x):
        p1, p2, w = powers(x)
        model = np.einsum("km,kn,k->mn", p1, p2, w)
        return (model - table.values).ravel()

    def jacobian(x):
        p1, p2, w = powers(x)
        d1 = ms * p1[:, np.maximum(ms - 1, 0)]   # m t^(m-1), 0 at m = 0
        d2 = ns * p2[:, np.maximum(ns - 1, 0)]
        jt1 = np.einsum("km,kn,k->mnk", d1, p2, w)
        jt2 = np.einsum("km,kn,k->mnk", p1, d2, w)
        jw = np.einsum("km,kn->mnk", p1, p2)
        return np.concatenate([jt1, jt2, jw], axis=2).reshape(-1, 3 * k)

    x0 = np.concatenate([measure.points[:, 0], measure.points[:, 1],
                         measure.weights])
    lower = np.concatenate([np.full(2 * k, -np.inf), np.full(k, 1e-14)])
    upper = np.full(3 * k, np.inf)
    # Imported here, as only ``--refine`` needs it: it slows every start-up.
    import scipy.optimize
    result = scipy.optimize.least_squares(
        residuals, x0, jac=jacobian, bounds=(lower, upper), method="trf",
        xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=REFINE_MAX_NFEV)
    points = result.x[:2 * k].reshape(2, k).T
    return AtomicMeasure(points, result.x[2 * k:], measure.merge_tol).sorted()


def _cross_validation_points(count: int, seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        re1 = float(rng.uniform(0.25, 2.0)) * (1.0 if rng.integers(2) else -1.0)
        im1 = float(rng.uniform(0.5, 1.5))
        re2 = float(rng.uniform(0.25, 2.0)) * (1.0 if rng.integers(2) else -1.0)
        im2 = float(rng.uniform(0.5, 1.5)) * (1.0 if rng.integers(2) else -1.0)
        points.append((complex(re1, im1), complex(re2, im2)))
    return tuple(points)


#: The ``(lam1, lam2)`` points of the resolvent cross-check.
CROSS_VALIDATION_POINTS = _cross_validation_points(CROSS_POINTS, CROSS_SEED)
_CROSS_LAM1, _CROSS_LAM2 = np.array(CROSS_VALIDATION_POINTS).T


def _a2_resolvent_block(spectrum: tuple, h00: np.ndarray) -> np.ndarray:
    """``(E + lam2 A2)(A2 - lam2)^-1 h00`` for the Hermitian ``A2`` with
    eigendecomposition ``spectrum = (b, Q)`` (``SymmetricPair.a2_spectrum``),
    one column per ``lam2`` of :data:`CROSS_VALIDATION_POINTS`."""
    vals, vecs = spectrum
    coef = (vecs.conj().T @ h00)[:, None]
    vals = vals[:, None]
    return vecs @ (coef * (1.0 + _CROSS_LAM2 * vals) / (vals - _CROSS_LAM2))


def _cross_check_stack(a1s: np.ndarray, r2h: np.ndarray, h00: np.ndarray,
                       measures: list):
    """Check ``((E + lam1 A1)(A1 - lam1)^-1 r2h, h00)``, ``r2h`` the ``A2``
    factor (:func:`_a2_resolvent_block`), against the atomic-sum kernel of
    each slice's measure at :data:`CROSS_VALIDATION_POINTS` within
    ``CROSS_TOL`` relative, by one stacked solve that does not use the
    eigenbases the measures were read from; the first failing point of the
    first failing slice raises ``StructureViolationError``."""
    lam1, lam2 = _CROSS_LAM1[:, None], _CROSS_LAM2[:, None]
    rhs = np.swapaxes(r2h + _CROSS_LAM1 * (a1s @ r2h), 1, 2)[..., None]
    shifted = a1s[:, None] - lam1[..., None] * np.eye(r2h.shape[0])
    lhs = np.linalg.solve(shifted, rhs)[..., 0] @ np.conj(h00)
    for measure, row in zip(measures, lhs):
        t1, t2 = measure.points.T
        kernel = (((1.0 + lam1 * t1) / (t1 - lam1))
                  * ((1.0 + lam2 * t2) / (t2 - lam2)))
        value = np.sum(measure.weights * kernel, axis=1)
        _gate(np.abs(row - value) > CROSS_TOL * (1.0 + np.abs(value)),
              StructureViolationError, "resolvent cross-validation failed "
              f"at (%s, %s): |%s - %s| > {CROSS_TOL}", _CROSS_LAM1,
              _CROSS_LAM2, row, value)


def _sampler_label(sampler: SamplerSpec, idx: int) -> str:
    if sampler.kind == "haar-random":
        return f"haar-random:seed={sampler.seed}:{idx}"
    if sampler.kind == "exhaustive-phases":
        return f"exhaustive-phases:{sampler.phases}:{idx}"
    return f"identity-only:{idx}"


def _default_gns(table: MomentTable, largest: tuple, *,
                 tolerances: Tolerances) -> GnsSpace:
    """GNS space of a table at its smallest flat rectangle.

    Walks the squares ``(d, d)`` up to the largest the table supports,
    building each space once, and returns the ``(d + 1, d + 1)`` space
    for the first ``d`` with ``rank(d, d) == rank(d + 1, d + 1)``: the
    flat-extension certificate of Curto and Fialkow.  Ranks of nested
    Grams cannot fall, so the rank grows on neither side there.  The
    shifts need the larger of the two squares, since ``A1`` on row
    ``d`` reads row ``d + 1``.  The 1 x 1 Gram ``[s00]`` is its own
    eigenvalue, so ``build_gns``'s cut of ``s00`` decides ``d = 0`` with
    no space.  When no square is flat, or a square's Gram fails the PSD
    gate, the space is the one at ``largest``, as with no search.
    """
    try:
        rank = int(_rank_cut(table.values[:1, 0], (0, 0), tolerances)[0])
        for d in range(1, min(largest) + 1):
            space = build_gns(table, d, d, tolerances=tolerances)
            if rank == space.rank or (d, d) == largest:
                return space
            rank = space.rank
    except NotPsdError:
        pass
    return build_gns(table, *largest, tolerances=tolerances)


def solve_canonical(source, sampler: SamplerSpec = SamplerSpec(),
                    d_m: int | None = None, d_n: int | None = None,
                    max_n: int | None = None,
                    tolerances: Tolerances = DEFAULT_TOLERANCES,
                    refine: bool = False,
                    on_reject: Callable[[str, FixedPointError], None] | None = None) -> Iterator[SolutionReport]:
    """Stream of canonical solutions for a table or an operator pair.

    ``source`` is either a :class:`MomentTable` (the space and shifts
    are built at rectangle ``(d_m, d_n)``) or a :class:`SymmetricPair`
    (operator-driven path, verified against the pair moments reachable
    through the domains, up to column degree ``max_n``).  ``d_m``,
    ``d_n`` and ``refine`` apply to a table only and ``max_n`` to a pair
    only; passing one to the other kind of input raises ``ValueError``
    naming it.

    A side left out defaults to the largest the table supports, ``max_m
    // 2`` or ``max_n // 2``; below 1 that raises
    ``IndexOutOfRangeError``.  With both left out the space is built on
    the smallest flat square instead: ``(d + 1, d + 1)`` for the first
    ``d`` with ``rank(d, d) == rank(d + 1, d + 1)``, the Curto-Fialkow
    flat-extension certificate, falling back to the largest rectangle
    when no square below it is flat or one fails the PSD gate.  The
    moments outside a smaller rectangle reach the gates only through
    verification, so before a report that fails it is yielded, the
    largest rectangle's space and shifts are built once and their gates
    (``NotPsdError``, ``InconsistentShiftError``,
    ``DomainCollapseError``) raise as without the search.

    At a nonzero defect each commutant parameter ``U2`` from the sampler
    yields one report, from Cayley data built once for the stream.  At
    defect 0 the one report, whatever the sampler, is measured from
    ``(A1, A2)`` after three gates: ``A1`` Hermitian and commuting with
    ``A2``, and the range gate on ``A2`` (``StructureViolationError``).
    That gate is decided once per pair, by ``pair.a2_spectrum``, which
    also gives ``U`` and the ``A2`` factor of the cross-check.

    Every emitted measure is cross-validated: the scalar pair resolvent
    of ``(A1_tilde, A2)`` equals the atomic-sum kernel of the measure at
    ``CROSS_POINTS`` seeded random points within ``CROSS_TOL`` (else
    ``StructureViolationError`` naming the first failing point).
    Parameters whose extended isometry has a fixed point are skipped
    after calling ``on_reject(label, error)`` when given.  With
    ``refine`` atoms and weights are polished against the table before
    verification.  The parameters are evaluated in chunks of up to
    ``_CHUNK``, so a consumer that stops after the first report has
    still paid for the first chunk; reports, ``on_reject`` calls and
    errors come out in the same order, class and message as one by one.
    """
    gate_largest = False
    if isinstance(source, MomentTable):
        if max_n is not None:
            raise ValueError("max_n applies to an operator pair, not to a "
                             "moment table")
        table = source
        largest = (table.max_m // 2, table.max_n // 2)
        if ((d_m is None and largest[0] < 1)
                or (d_n is None and largest[1] < 1)):
            raise IndexOutOfRangeError(
                f"table holds degrees ({table.max_m}, {table.max_n}); the "
                f"default rectangle needs degrees of at least (2, 2)")
        if d_m is None and d_n is None:
            space = _default_gns(table, largest, tolerances=tolerances)
            # A failing report runs the largest rectangle's gates first.
            gate_largest = (space.d_m, space.d_n) != largest
        else:
            space = build_gns(table, largest[0] if d_m is None else d_m,
                              largest[1] if d_n is None else d_n,
                              tolerances=tolerances)
        pair = build_operators(space, tolerances=tolerances)
        ref_table = table
    elif isinstance(source, SymmetricPair):
        for name, given in (("d_m", d_m is not None),
                            ("d_n", d_n is not None), ("refine", refine)):
            if given:
                raise ValueError(f"{name} applies to a moment table, not to "
                                 f"an operator pair")
        pair, ref_table = source, None
    else:
        raise TypeError("source must be a MomentTable or a SymmetricPair")
    pair.require_a2_selfadjoint(
        "A2 is not self-adjoint on this input; canonical solutions "
        "are unavailable (operator-driven input with a self-adjoint "
        "A2 is the supported route)")
    determinate = determinacy(pair)
    a2_full = pair.a2_matrix
    if determinate:
        # A1 is its own, and only, self-adjoint extension.
        a1_tilde = pair.full_matrix(1)
        if not is_hermitian(a1_tilde, STRUCTURE_TOL):
            raise StructureViolationError(
                "operator A1 is not symmetric on its domain")
        a1_tilde = 0.5 * (a1_tilde + a1_tilde.conj().T)[None]
        a1_comm = _commute_gate("A1", a1_tilde, a2_full)
        stream, labels = iter([None]), ["determinate"]
    else:
        iso = build_isometric_pair(pair, tolerances=tolerances)
        stream = enumerate_commutant_unitaries(
            iso.w2, sampler, tolerances=tolerances, schur=iso.w2_schur)
        labels = (_sampler_label(sampler, i) for i in itertools.count())
    a2_block = _a2_resolvent_block(pair.a2_spectrum, pair.h00)
    if ref_table is None:
        if max_n is None:
            max_n = 2 * pair.dim
        ref_table = moments_from_pair(pair, 2 * pair.dim, max_n,
                                      tolerances=tolerances)

    def evaluate(chunk: list) -> list:
        """Per parameter its measure or error, or one error for them all."""
        try:
            a1s, fixed = ((a1_tilde, [None]) if determinate else
                          _extension_stack(pair, iso, np.array(chunk)))
            comm = (a1_comm if determinate else
                    _commute_gate("extension", a1s, a2_full))
            measures = _measure_stack(a1s, a2_full, pair.h00, comm,
                                      tolerances=tolerances)
            _cross_check_stack(a1s, a2_block, pair.h00, measures)
        except (Moment2dError, ValueError) as exc:   # LinAlgError too
            return [exc]
        found = iter(measures)
        return [error or next(found) for error in fixed]

    size = max(1, min(_CHUNK, CHUNK_CELLS // (CROSS_POINTS * pair.dim ** 2)))
    while chunk := list(itertools.islice(stream, size)):
        outcomes = evaluate(chunk)
        if len(outcomes) < len(chunk):   # each error at its own place
            outcomes = [o for u2 in chunk for o in evaluate([u2])]
        # Outcomes first: zip stops on them without drawing a label.
        for outcome, label in zip(outcomes, labels):
            if isinstance(outcome, FixedPointError):
                if on_reject is not None:
                    on_reject(label, outcome)
                continue
            if isinstance(outcome, Exception):
                raise outcome
            measure = refine_measure(outcome, ref_table) if refine else outcome
            report = verify_solution(measure, ref_table,
                                     determinate=determinate, u2_seed=label,
                                     tolerances=tolerances)
            if gate_largest and not report.passed:
                build_operators(build_gns(table, *largest,
                                          tolerances=tolerances),
                                tolerances=tolerances)
                gate_largest = False
            yield report
