"""Independent reference implementations used to cross-check the library.

Everything here is written with plain loops and direct linear algebra,
deliberately avoiding the code paths under test.
"""

from __future__ import annotations

import argparse

import numpy as np


def moments_direct(points, weights, max_m: int, max_n: int) -> np.ndarray:
    """Power moments of an atomic measure by explicit summation."""
    out = np.zeros((max_m + 1, max_n + 1))
    for (t1, t2), w in zip(points, weights):
        for m in range(max_m + 1):
            for n in range(max_n + 1):
                out[m, n] += w * (t1 ** m) * (t2 ** n)
    return out


def herglotz_kernel_sum(points, weights, lam1: complex, lam2: complex) -> complex:
    """Integral of the product kernel (1 + lam*t)/(t - lam) over the atoms."""
    total = 0.0 + 0.0j
    for (t1, t2), w in zip(points, weights):
        total += w * ((1.0 + lam1 * t1) / (t1 - lam1)) * (
            (1.0 + lam2 * t2) / (t2 - lam2))
    return total


def resolvent_product(b1: np.ndarray, b2: np.ndarray,
                      lam1: complex, lam2: complex) -> np.ndarray:
    """(E + lam1 B1)(B1 - lam1)^-1 (E + lam2 B2)(B2 - lam2)^-1 directly."""
    n = b1.shape[0]
    eye = np.eye(n, dtype=complex)
    f1 = (eye + lam1 * b1) @ np.linalg.inv(b1 - lam1 * eye)
    f2 = (eye + lam2 * b2) @ np.linalg.inv(b2 - lam2 * eye)
    return f1 @ f2


def explicit_extension_matrix(iso, phi_matrix: np.ndarray) -> np.ndarray:
    """Unitary extension V + Phi of the Cayley isometry, as a full matrix.

    The isometry acts on its domain through ``v_domain``/``v_action``
    columns; the parameter block sends N_0 coordinates to N_infinity.
    """
    v_full = iso.v_action @ iso.v_domain.conj().T
    return v_full + iso.ninf_basis @ phi_matrix @ iso.n0_basis.conj().T


def forbidden_admissibility(iso, value: np.ndarray,
                            tol: float = 1e-9) -> tuple:
    """The forbidden operator ``X`` of ``A1`` and the admissibility of a
    constant value ``F : N0 -> Ninf``, from the general definition.

    ``D(A)`` is the column space of ``v_domain - v_action``.  The null
    space of ``[N0, -Ninf, -D(A)]`` holds the coordinates ``(a, b, c)``
    of the vectors ``N0 a = Ninf b + D(A) c`` of ``dom X``, and ``X``
    sends ``N0 a`` to ``Ninf b``.  ``F`` is inadmissible when some unit
    vector of ``dom X`` in the kernel of ``F - X`` has ``||F psi||^2 >=
    1 - 1e-8``.  Returns ``(x_operator, admissible)``; ``x_operator`` is
    the ``n x n`` matrix of ``X`` on ``dom X``, zero on its complement.
    Rank cuts are at ``tol`` times ``max(1, largest singular value)``.
    """
    n0, ninf = iso.n0_basis, iso.ninf_basis
    d0, dinf = n0.shape[1], ninf.shape[1]
    u, s, _ = np.linalg.svd(iso.v_domain - iso.v_action)
    q = u[:, :int(np.sum(s > tol * max(s[0], 1.0)))] if s.size else u[:, :0]
    stacked = np.hstack([n0, -ninf, -q])
    _, s, vh = np.linalg.svd(stacked)
    null = vh.conj().T[:, int(np.sum(s > tol * max(s[0], 1.0))):]
    x_operator = (ninf @ null[d0:d0 + dinf]) @ np.linalg.pinv(n0 @ null[:d0])
    u, s, _ = np.linalg.svd(n0 @ null[:d0], full_matrices=False)
    psi = u[:, :int(np.sum(s > tol * max(s[0], 1.0)))] if s.size else u
    f_psi = ninf @ value @ n0.conj().T @ psi
    _, s, vh = np.linalg.svd(f_psi - x_operator @ psi)
    rank = int(np.sum(s > tol * max(s[0], 1.0))) if s.size else 0
    kernel = vh.conj().T[:, rank:]
    if kernel.shape[1] == 0:
        return x_operator, True
    gram = (f_psi @ kernel).conj().T @ (f_psi @ kernel)
    return x_operator, bool(np.max(np.linalg.eigvalsh(gram)) < 1.0 - 1e-8)


def hermitian_from_unitary(u: np.ndarray) -> np.ndarray:
    """i (U + E)(U - E)^-1 computed directly."""
    n = u.shape[0]
    eye = np.eye(n, dtype=complex)
    return 1j * (u + eye) @ np.linalg.inv(u - eye)


def cayley_unitary(a2: np.ndarray) -> np.ndarray:
    """(A2 + i)(A2 - i)^-1 of a Hermitian A2 computed directly."""
    eye = np.eye(a2.shape[0], dtype=complex)
    return (a2 + 1j * eye) @ np.linalg.inv(a2 - 1j * eye)


def torus_point(t: float) -> complex:
    """Image of a real coordinate under t -> (t + i)/(t - i)."""
    return (t + 1j) / (t - 1j)


def trig_moment_direct(points, weights, j: int, k: int) -> complex:
    """c_{j,k} by summing the torus-mapped atoms directly."""
    total = 0.0 + 0.0j
    for (t1, t2), w in zip(points, weights):
        total += w * (torus_point(t1) ** j) * (torus_point(t2) ** k)
    return total


def random_point_pair(rng: np.random.Generator,
                      spread: float = 2.0,
                      min_imag: float = 0.3) -> tuple[complex, complex]:
    """Two spectral points away from the real axis and from +/- i."""
    while True:
        re = rng.uniform(-spread, spread, size=2)
        im = rng.uniform(min_imag, spread, size=2)
        sign = rng.choice([-1.0, 1.0], size=2)
        lam1 = complex(re[0], sign[0] * im[0])
        lam2 = complex(re[1], sign[1] * im[1])
        if min(abs(lam1 - 1j), abs(lam1 + 1j),
               abs(lam2 - 1j), abs(lam2 + 1j)) > 0.15:
            return lam1, lam2


def scalar_pair_resolvent(measure, lam1: complex, lam2: complex) -> complex:
    """Resolvent scalar of an atomic measure, as the Herglotz sum."""
    return herglotz_kernel_sum(measure.points, measure.weights, lam1, lam2)


def pair_moments_per_chain(pair, max_m: int, max_n: int,
                           tol: float) -> np.ndarray:
    """Rows of ``(A1^m A2^n h00, h00)`` with every chain rebuilt from h00.

    Each step projects onto the stored domain basis, tests the residual
    against ``tol * max(1, ||x||)`` and applies the action.  Rows stop
    at the first ``m`` whose chains do not all stay inside the domains;
    the result has shape ``(rows, max_n + 1)`` and may have no rows.
    """
    def chain(m, n):
        x = pair.h00.copy()
        for dom, act in ([(pair.a2_domain, pair.a2_action)] * n
                         + [(pair.a1_domain, pair.a1_action)] * m):
            c = dom.conj().T @ x
            if np.linalg.norm(x - dom @ c) > tol * max(1.0, np.linalg.norm(x)):
                return None
            x = act @ c
        return x

    rows = []
    for m in range(max_m + 1):
        vecs = [chain(m, n) for n in range(max_n + 1)]
        if any(v is None for v in vecs):
            break
        rows.append([complex(np.vdot(pair.h00, v)) for v in vecs])
    return np.asarray(rows, dtype=complex).reshape(len(rows), max_n + 1)


def first_close_pair(points: np.ndarray, tol: float):
    """First ``(i, j)``, ``i < j``, in input order with max-coordinate
    distance at most ``tol``, or None.  An overflowing distance is
    infinite, and so not within ``tol``."""
    with np.errstate(over="ignore"):
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                if np.max(np.abs(points[i] - points[j])) <= tol:
                    return i, j
    return None


def moment_matrix_direct(values: np.ndarray, index: list) -> np.ndarray:
    """Gram matrix ``s_{m+m', n+n'}`` over the monomial ``index``."""
    gram = np.empty((len(index), len(index)))
    for a, (m1, n1) in enumerate(index):
        for b, (m2, n2) in enumerate(index):
            gram[a, b] = values[m1 + m2, n1 + n2]
    return gram


def block_toeplitz_direct(c_full: np.ndarray, order_j: int,
                          order_k: int) -> np.ndarray:
    """``M[(j,k),(j',k')] = c_{j-j', k-k'}``, rows row-major in ``(j, k)``,
    made Hermitian as ``(M + M^H) / 2``."""
    nj, nk = order_j + 1, order_k + 1
    m = np.zeros((nj * nk, nj * nk), dtype=complex)
    for j in range(nj):
        for k in range(nk):
            for jp in range(nj):
                for kp in range(nk):
                    m[j * nk + k, jp * nk + kp] = c_full[
                        order_j + j - jp, order_k + k - kp]
    return 0.5 * (m + m.conj().T)


def joint_spectral_measure_per_cluster(a1: np.ndarray, a2: np.ndarray,
                                       h00: np.ndarray, *, cluster_tol: float,
                                       merge_tol: float, weight_drop: float,
                                       seed: int, tries: int):
    """Joint spectral measure read cluster by cluster.

    The same seeded combinations ``c1 A1 + c2 A2`` and chain clustering
    as the library; each cluster's atom is the normalized trace of the
    compressions ``S^H A S``, checked to be scalar, and its weight is
    ``||S^H h00||^2``.  Returns ``(points, weights)`` sorted
    lexicographically, or None when every combination is ambiguous.
    """
    n = a1.shape[0]
    op_scale = max(1.0, np.linalg.norm(a1), np.linalg.norm(a2))
    rng = np.random.default_rng(seed)
    for _ in range(tries):
        c = rng.normal(size=2)
        c = c / np.linalg.norm(c)
        m = c[0] * a1 + c[1] * a2
        vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
        val_scale = 1.0 + (np.max(np.abs(vals)) if n else 0.0)
        clusters, start = [], 0
        for i in range(1, n + 1):
            if i == n or vals[i] - vals[i - 1] > cluster_tol * val_scale:
                clusters.append(np.arange(start, i))
                start = i
        atoms = []
        for idx in clusters:
            s = vecs[:, idx]
            q = len(idx)
            m1 = s.conj().T @ a1 @ s
            m2 = s.conj().T @ a2 @ s
            t1 = np.trace(m1).real / q
            t2 = np.trace(m2).real / q
            if max(np.linalg.norm(m1 - t1 * np.eye(q)),
                   np.linalg.norm(m2 - t2 * np.eye(q))) > merge_tol * op_scale:
                break
            atoms.append((t1, t2, np.linalg.norm(s.conj().T @ h00) ** 2))
        else:
            merged = []
            for t1, t2, w in atoms:
                if w < weight_drop:
                    continue
                for e in merged:
                    if max(abs(e[0] - t1), abs(e[1] - t2)) <= merge_tol:
                        total = e[2] + w
                        e[0] = (e[0] * e[2] + t1 * w) / total
                        e[1] = (e[1] * e[2] + t2 * w) / total
                        e[2] = total
                        break
                else:
                    merged.append([t1, t2, w])
            merged.sort(key=lambda e: (e[0], e[1]))
            out = np.array(merged, dtype=float).reshape(-1, 3)
            return out[:, :2], out[:, 2]
    return None


def pair_resolvent_symmetric_gated(iso, phi, lam1: complex, lam2: complex,
                                   h_embed=None) -> np.ndarray:
    """The symmetric pair resolvent with both parameter gates run at the
    point itself.

    Conjugates a lower half-plane ``lam1`` (the value is then the
    adjoint), runs the admissibility gate and the commutation gate at
    ``z1``, builds ``V (+) Phi_{z1}``, makes the dense solve ``(E - z1 V~)
    R = E`` and takes the column factor in ``lambda`` form on the
    eigenbasis ``(b, Q)`` of ``A2``: ``Q diag(-i (1 + lam2 b)/(b - lam2))
    Q^H``.  With an ``(n, k)`` embedding ``h_embed`` the value is ``h^H R
    h``: the solve is made against ``h`` instead, ``(E - z1 V~^T) X =
    conj(h)``, and the column factor is applied to ``h``.  Points must be
    valid spectral points.
    """
    return _gated(iso, phi, lam1, lam2, h_embed, _lambda_column)


def pair_resolvent_symmetric_moebius(iso, phi, lam1: complex, lam2: complex,
                                     h_embed=None) -> np.ndarray:
    """:func:`pair_resolvent_symmetric_gated` with the column factor from
    the dense solve ``(E - z2 U) M = E + z2 U`` (against ``h + z2 U h``
    with ``h_embed``), the Moebius form of the factor.  Where ``E - z2 U``
    is well conditioned it agrees with the ``lambda`` form to rounding."""
    return _gated(iso, phi, lam1, lam2, h_embed, _moebius_column)


def _lambda_column(iso, lam2, h):
    b, q = iso.a2_spectrum
    scale = -1j * (1.0 + lam2 * b) / (b - lam2)
    coords = q.conj().T if h is None else q.conj().T @ h
    return q @ (scale[:, None] * coords)


def _moebius_column(iso, lam2, h):
    z2 = (lam2 - 1j) / (lam2 + 1j)
    eye = np.eye(iso.dim, dtype=complex)
    u = iso.u_matrix
    if h is None:
        return np.linalg.solve(eye - z2 * u, eye + z2 * u)
    return np.linalg.solve(eye - z2 * u, h + z2 * (u @ h))


def _gated(iso, phi, lam1, lam2, h_embed, column):
    from moment2d.cayley import (commutation_check, constant_admissibility,
                                 extend_isometry)
    from moment2d.errors import (AdmissibilityFailedError,
                                 CommutationViolatedError)
    lam1, lam2 = complex(lam1), complex(lam2)
    if lam1.imag < 0.0:
        return _gated(iso, phi, lam1.conjugate(), lam2.conjugate(), h_embed,
                      column).conj().T
    if not constant_admissibility(iso, phi):
        raise AdmissibilityFailedError("parameter is forbidden")
    z1 = (lam1 - 1j) / (lam1 + 1j)
    if not commutation_check(iso, phi, z1):
        raise CommutationViolatedError("parameter does not commute")
    eye = np.eye(iso.dim, dtype=complex)
    extended = extend_isometry(iso, phi, z1)
    if h_embed is not None:
        h = h_embed
        row = h.conj().T - 2.0 * np.linalg.solve(eye - z1 * extended.T,
                                                 h.conj()).T
        return row @ column(iso, lam2, h)
    resolvent = np.linalg.solve(eye - z1 * extended, eye)
    return (eye - 2.0 * resolvent) @ column(iso, lam2, None)


def cayley_route_measure(pair):
    """Joint spectral measure of a determinate pair through the Cayley
    round trip: the canonical extension of ``A1`` with the empty
    commutant parameter, built from the full Cayley data of the pair
    and read back by the inverse Cayley transform."""
    from moment2d import (build_isometric_pair, canonical_extension,
                          joint_spectral_measure)
    ext = canonical_extension(pair, build_isometric_pair(pair),
                              np.zeros((0, 0)))
    return joint_spectral_measure(ext.a1_tilde, pair.full_matrix(2),
                                  pair.h00)


def complex_matrix_per_cell(rows: list, width: int) -> np.ndarray:
    """Nested ``[re, im]`` JSON cells decoded one number at a time."""
    out = np.empty((len(rows), width), dtype=complex)
    for i, row in enumerate(rows):
        for j, (re, im) in enumerate(row):
            out[i, j] = complex(float(re), float(im))
    return out


def moments_of_measure_per_atom(measure, max_m: int,
                                max_n: int) -> np.ndarray:
    """Moment rectangle of an atomic measure, adding one atom's outer
    product of powers at a time, in atom order, to a zero array."""
    values = np.zeros((max_m + 1, max_n + 1))
    for t, w in zip(measure.points, measure.weights):
        # |t| ** k, negated where t has its sign bit set and k is odd.
        p1 = abs(t[0]) ** np.arange(max_m + 1) * np.where(
            np.signbit(t[0]) & (np.arange(max_m + 1) % 2 == 1), -1.0, 1.0)
        p2 = abs(t[1]) ** np.arange(max_n + 1) * np.where(
            np.signbit(t[1]) & (np.arange(max_n + 1) % 2 == 1), -1.0, 1.0)
        values += w * np.outer(p1, p2)
    return values


def resolvent_cross_check_per_point(a1: np.ndarray, a2: np.ndarray,
                                    h00: np.ndarray, measure, points,
                                    tol: float):
    """The resolvent cross-check of a solution, one point at a time.

    At each ``(lam1, lam2)``: the ``A2`` factor applied to ``h00`` from
    the eigendecomposition of ``A2``, one dense vector solve with
    ``A1 - lam1``, and the atomic-sum kernel of ``measure``.  Returns
    ``(lam1, lam2, lhs, rhs)`` at the first point where ``|lhs - rhs| >
    tol (1 + |rhs|)``, or None when every point passes.
    """
    from moment2d.resolvents import pair_resolvent_of_measure
    n = a1.shape[0]
    vals, vecs = np.linalg.eigh(a2)
    coef = vecs.conj().T @ h00
    for lam1, lam2 in points:
        r2h = vecs @ (coef * (1.0 + lam2 * vals) / (vals - lam2))
        rhs_vec = r2h + lam1 * (a1 @ r2h)
        lhs = complex(np.vdot(h00, np.linalg.solve(a1 - lam1 * np.eye(n),
                                                   rhs_vec)))
        rhs = pair_resolvent_of_measure(measure, lam1, lam2)
        if abs(lhs - rhs) > tol * (1.0 + abs(rhs)):
            return lam1, lam2, lhs, rhs
    return None


def flat_point(values: np.ndarray, rank_tol: float):
    """Smallest ``d`` with ``rank(d, d) == rank(d + 1, d + 1)`` over the
    squares that fit in the table ``values``, or None when no square is
    flat.  Ranks count the Gram eigenvalues above ``rank_tol`` times the
    largest, with the Gram built entry by entry."""
    top = min(values.shape[0] - 1, values.shape[1] - 1) // 2

    def rank(d):
        index = [(m, n) for m in range(d + 1) for n in range(d + 1)]
        eigs = np.linalg.eigvalsh(moment_matrix_direct(values, index))
        return int(np.sum(eigs > rank_tol * np.max(np.abs(eigs))))

    for d in range(top):
        if rank(d) == rank(d + 1):
            return d
    return None


def reference_parser() -> argparse.ArgumentParser:
    """The CLI's argparse parser spelled out call by call, to compare
    ``--help`` texts against."""
    def add_common(parser):
        parser.add_argument("--config", help="JSON file with flag overrides")
        parser.add_argument("--output", help="output file (default stdout)")
        for field in ("rank_tol", "psd_tol", "subspace_tol", "cluster_tol",
                      "atom_merge_tol", "verify_tol"):
            parser.add_argument("--" + field.replace("_", "-"), type=float,
                                default=None, dest=field)

    parser = argparse.ArgumentParser(
        prog="moment2d",
        description="Two-dimensional moment problem toolkit: positivity "
                    "checks, canonical solutions, resolvent grids.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="PSD and Carleman diagnostics "
                                     "for a moment table")
    p.add_argument("table", help="moment table JSON file")
    p.add_argument("--carleman-variant", choices=("pair", "single"),
                   default=None)
    add_common(p)

    p = sub.add_parser("solve-canonical",
                       help="enumerate canonical solutions")
    p.add_argument("input", help="moment table or operator pair JSON file")
    p.add_argument("--sampler", choices=("identity-only", "haar-random",
                                         "exhaustive-phases"), default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--phases", type=int, default=None)
    p.add_argument("--d-m", type=int, default=None, dest="d_m")
    p.add_argument("--d-n", type=int, default=None, dest="d_n")
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    p.add_argument("--refine", action="store_true")
    p.add_argument("--output-dir", default=None, dest="output_dir")
    add_common(p)

    p = sub.add_parser("eval-resolvent",
                       help="evaluate the pair resolvent scalar on a grid")
    p.add_argument("input", help="operator pair JSON file")
    p.add_argument("--phi", help="constant parameter matrix JSON file "
                                 "(default zero)")
    p.add_argument("--l1-start", dest="l1_start")
    p.add_argument("--l1-stop", dest="l1_stop")
    p.add_argument("--l1-count", type=int, default=None, dest="l1_count")
    p.add_argument("--l2-start", dest="l2_start")
    p.add_argument("--l2-stop", dest="l2_stop")
    p.add_argument("--l2-count", type=int, default=None, dest="l2_count")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    add_common(p)

    p = sub.add_parser("verify", help="compare a measure against a table")
    p.add_argument("measure", help="measure JSON file")
    p.add_argument("table", help="moment table JSON file")
    add_common(p)

    p = sub.add_parser("demo", help="write bundled scenarios and run a "
                                    "small pipeline")
    p.add_argument("--output-dir", default=None, dest="output_dir")
    return parser


def is_unitary_two_sided(u: np.ndarray, tol: float):
    """Unitarity checked on both Gram products, ``||U^H U - E||_F`` and
    ``||U U^H - E||_F`` each at most ``tol * n``: a bool for a matrix, one
    per slice for a stack, ``False`` for non-square input."""
    u = np.asarray(u, dtype=complex)
    n = u.shape[-1]
    if u.shape[-2] != n:
        return False
    uh, eye = np.swapaxes(u.conj(), -1, -2), np.eye(n)
    ok = ((np.linalg.norm(uh @ u - eye, axis=(-2, -1)) <= tol * n)
          & (np.linalg.norm(u @ uh - eye, axis=(-2, -1)) <= tol * n))
    return ok if ok.ndim else bool(ok)


def _require_commutes_one(name: str, a1: np.ndarray, a2: np.ndarray):
    from moment2d.config import STRUCTURE_TOL
    from moment2d.errors import StructureViolationError
    comm = float(np.linalg.norm(a1 @ a2 - a2 @ a1))
    scale = max(1.0, float(np.linalg.norm(a1)) * float(np.linalg.norm(a2)))
    if comm > STRUCTURE_TOL * 100 * scale:
        raise StructureViolationError(
            f"{name} does not commute with A2 (residual {comm:.3e})")


def inverse_cayley_stack_svd_first(us: np.ndarray) -> tuple:
    """Inverse Cayley transforms of a stack of unitaries with the SVD
    first: ``sigma_min(U - E)`` of every slice decides at
    ``FIXED_POINT_TOL`` before anything is solved, then the slices that
    pass are solved together.  Returns the Hermitian slices and, per
    slice, ``None`` or its ``FixedPointError``."""
    from moment2d.config import FIXED_POINT_TOL
    from moment2d.errors import FixedPointError
    eye = np.eye(us.shape[-1])
    shifted = us - eye
    sigma_min = np.linalg.svd(shifted, compute_uv=False).min(
        axis=1, initial=np.inf)
    ok = sigma_min > FIXED_POINT_TOL
    a = 1j * np.swapaxes(np.linalg.solve(
        np.swapaxes(shifted[ok], 1, 2), np.swapaxes(us[ok] + eye, 1, 2)), 1, 2)
    errors = [None if passed else FixedPointError(
        f"unitary has an eigenvalue within {FIXED_POINT_TOL} of 1 "
        f"(sigma_min = {s:.3e})") for passed, s in zip(ok, sigma_min)]
    return 0.5 * (a + np.swapaxes(a.conj(), 1, 2)), errors


def fixed_vector_gate_svd_first(pair, tolerances):
    """The fixed-vector gate of ``build_isometric_pair`` decided by the SVD
    alone: at a nonzero defect every singular value of ``(E - V) D(V)``,
    from ``cayley(pair)``, must exceed ``subspace_tol`` times the largest.
    Returns ``None`` or the ``StructureViolationError`` the gate raises."""
    from moment2d.cayley import cayley
    from moment2d.errors import StructureViolationError
    cay = cayley(pair, tolerances=tolerances)
    if cay.domain.shape[1] == pair.dim:
        return None
    s = np.linalg.svd(cay.domain - cay.action, compute_uv=False)
    if np.all(s > tolerances.subspace_tol * s.max(initial=0.0)):
        return None
    return StructureViolationError(
        "Cayley transform of A1 has a fixed vector on D(V); A1 is "
        "outside the numerically supported range")


def cayley_data_svd(pair, tolerances) -> tuple:
    """The Cayley data of ``build_isometric_pair`` from three SVDs: the
    action of ``V`` from the QR of ``T - iQ`` as in ``cayley``, an
    orthonormal basis of ``R(V)`` from the thin SVD of the action, cut at
    ``subspace_tol`` times the largest singular value, and ``N0`` and
    ``Ninf`` as the SVD complements of ``D(V)`` and ``R(V)``.  Returns
    ``(CayleyIsometry, n0)`` or raises the library's error with its
    message."""
    import scipy.linalg
    from moment2d.cayley import CayleyIsometry
    from moment2d.config import STRUCTURE_TOL
    from moment2d.errors import StructureViolationError
    from moment2d.linalg import complement_basis, is_hermitian

    q, t, n = pair.a1_domain, pair.a1_action, pair.dim
    tol = tolerances.subspace_tol
    if q.shape[1] == 0:
        empty = np.zeros((n, 0), dtype=complex)
        return CayleyIsometry(domain=empty, action=empty, range=empty,
                              ninf=np.eye(n, dtype=complex)), np.eye(
                                  n, dtype=complex)
    if not is_hermitian(q.conj().T @ t, STRUCTURE_TOL):
        raise StructureViolationError(
            "operator A1 is not symmetric on its domain")
    dom, r = np.linalg.qr(t - 1j * q)
    action = scipy.linalg.solve_triangular(r.T, (t + 1j * q).T, lower=True).T
    u, s, _ = np.linalg.svd(action, full_matrices=False)
    rng = u[:, :int(np.sum(s > tol * s[0]))]
    if rng.shape[1] != dom.shape[1]:
        raise StructureViolationError(
            f"Cayley range of A1 lost dimension "
            f"({rng.shape[1]} != {dom.shape[1]})")
    return (CayleyIsometry(domain=dom, action=action, range=rng,
                           ninf=complement_basis(rng, tol)),
            complement_basis(dom, tol))


def forbidden_operator_orthonormal(iso, tolerances) -> tuple:
    """``forbidden_operator`` solved against an orthonormal basis of
    ``D(A)``: the thin SVD of ``(E - V) D(V)``, cut at ``subspace_tol``
    times the largest singular value, refuses a fixed vector of ``V``
    before ``[Ninf, D(A)]`` is cut and solved.  Returns ``(n0_basis,
    x_matrix)`` or raises the library's error with its message."""
    from moment2d.config import STRUCTURE_TOL
    from moment2d.errors import (NoDecompositionError, NotDirectSumError,
                                 StructureViolationError)
    n0, ninf = iso.n0_basis, iso.ninf_basis
    if ninf.shape[1] + iso.v_domain.shape[1] != iso.dim or (
            n0.shape[1] != ninf.shape[1]):
        raise StructureViolationError(
            f"defect dimensions differ: {n0.shape[1]} != {ninf.shape[1]} "
            f"(dim D(V) = {iso.v_domain.shape[1]}, dim = {iso.dim})")
    u, s, _ = np.linalg.svd(iso.v_domain - iso.v_action, full_matrices=False)
    q = u[:, :int(np.sum(s > tolerances.subspace_tol * s[0]))] if s.size else u
    if q.shape[1] < iso.v_domain.shape[1]:
        raise StructureViolationError(
            "Cayley transform of A1 has a fixed vector on D(V); A1 is "
            "outside the numerically supported range")
    stacked = np.hstack([ninf, q])
    s = np.linalg.svd(stacked, compute_uv=False)
    if s[-1] <= tolerances.subspace_tol * max(s[0], 1.0):
        raise NotDirectSumError("N_-i and D(A) overlap; sum is not direct")
    coeffs = np.linalg.solve(stacked, n0)
    residual = float(np.linalg.norm(stacked @ coeffs - n0))
    if residual > STRUCTURE_TOL * max(1.0, float(np.linalg.norm(n0))):
        raise NoDecompositionError(
            f"decomposition residual {residual:.3e} exceeds gate")
    return n0, ninf @ coeffs[: n0.shape[1]]


def forbidden_operator_svd_first(iso, tolerances) -> tuple:
    """``forbidden_operator`` deciding the direct-sum cut of ``[Ninf, (E -
    V) D(V)]`` by its singular values on every stack, with no cheaper proof
    first; near the cut it takes an orthonormal basis of ``D(A)``, whose
    loss of a dimension refuses a fixed vector of ``V``.  Returns
    ``(n0_basis, x_matrix)`` or raises the library's error with its
    message."""
    from moment2d.config import STRUCTURE_TOL
    from moment2d.errors import (NoDecompositionError, NotDirectSumError,
                                 StructureViolationError)
    n0, ninf = iso.n0_basis, iso.ninf_basis
    if ninf.shape[1] + iso.v_domain.shape[1] != iso.dim or (
            n0.shape[1] != ninf.shape[1]):
        raise StructureViolationError(
            f"defect dimensions differ: {n0.shape[1]} != {ninf.shape[1]} "
            f"(dim D(V) = {iso.v_domain.shape[1]}, dim = {iso.dim})")
    stacked = np.hstack([ninf, iso.v_domain - iso.v_action])
    s = np.linalg.svd(stacked, compute_uv=False)
    if s[-1] <= np.sqrt(2.0) * tolerances.subspace_tol * max(s[0], 1.0):
        q = iso.operator_domain(tolerances=tolerances)
        if q.shape[1] < iso.v_domain.shape[1]:
            raise StructureViolationError(
                "Cayley transform of A1 has a fixed vector on D(V); A1 is "
                "outside the numerically supported range")
        stacked = np.hstack([ninf, q])
        s = np.linalg.svd(stacked, compute_uv=False)
        if s[-1] <= tolerances.subspace_tol * max(s[0], 1.0):
            raise NotDirectSumError("N_-i and D(A) overlap; sum is not direct")
    coeffs = np.linalg.solve(stacked, n0)
    residual = float(np.linalg.norm(stacked @ coeffs - n0))
    if residual > STRUCTURE_TOL * max(1.0, float(np.linalg.norm(n0))):
        raise NoDecompositionError(
            f"decomposition residual {residual:.3e} exceeds gate")
    return n0, ninf @ coeffs[: n0.shape[1]]


def canonical_extension_one(pair, iso, u2: np.ndarray) -> np.ndarray:
    """Hermitian extension of ``A1`` for one commutant parameter ``u2``
    of a pair with a nonzero defect, gate by gate: ``U2`` unitary and
    commuting with ``W2``, ``V (+) U24 U2`` unitary, its inverse Cayley
    transform (``FixedPointError`` at an eigenvalue near 1), the
    restriction to ``A1`` and the commutation with ``A2``."""
    from moment2d.config import FIXED_POINT_TOL, STRUCTURE_TOL
    from moment2d.errors import (CommutationViolatedError, FixedPointError,
                                 NotUnitaryError, StructureViolationError)
    u2 = np.asarray(u2, dtype=complex)
    if not is_unitary_two_sided(u2, STRUCTURE_TOL):
        raise NotUnitaryError(
            f"U2 is not unitary within tolerance {STRUCTURE_TOL}")
    u24, w2 = iso.u24, iso.w2
    comm = float(np.linalg.norm(u2 @ w2 - w2 @ u2))
    if comm > STRUCTURE_TOL * max(1.0, float(np.linalg.norm(w2))):
        raise CommutationViolatedError(
            f"U2 does not commute with W2 (residual {comm:.3e})")
    v = iso.v_matrix + (u24 @ u2) @ iso.n0_basis.conj().T
    if not is_unitary_two_sided(v, STRUCTURE_TOL * 10):
        raise StructureViolationError("extended isometry is not unitary")
    eye = np.eye(v.shape[0])
    shifted = v - eye
    sigma_min = float(np.linalg.svd(shifted, compute_uv=False)[-1])
    if sigma_min <= FIXED_POINT_TOL:
        raise FixedPointError(
            f"unitary has an eigenvalue within {FIXED_POINT_TOL} of 1 "
            f"(sigma_min = {sigma_min:.3e})")
    a = 1j * np.linalg.solve(shifted.T, (v + eye).T).T
    a1 = 0.5 * (a + a.conj().T)
    res = float(np.linalg.norm(a1 @ pair.a1_domain - pair.a1_action))
    if res > STRUCTURE_TOL * 100 * max(
            1.0, float(np.linalg.norm(pair.a1_action))):
        raise StructureViolationError(
            f"extension does not restrict to A1 (residual {res:.3e})")
    _require_commutes_one("extension", a1, pair.a2_matrix)
    return a1


def joint_spectral_measure_one(a1: np.ndarray, a2: np.ndarray,
                               h00: np.ndarray):
    """Joint spectral measure of one commuting Hermitian pair: the seeded
    combinations, chain clustering, scalar-block test and atom merge of
    the library, written for one matrix and one combination at a time."""
    from moment2d import AtomicMeasure
    from moment2d.config import (ATOM_MERGE_TOL, CLUSTER_TOL, STRUCTURE_TOL,
                                 WEIGHT_DROP_TOL)
    from moment2d.errors import (ClusterAmbiguityError,
                                 CommutationViolatedError,
                                 StructureViolationError)
    from moment2d.moments import _has_close_pair
    from moment2d.solutions import (COMBINATION_SEED, MAX_COMBINATIONS,
                                    _merge_atoms)
    n = a1.shape[0]
    for a in (a1, a2):
        if float(np.linalg.norm(a - a.conj().T)) > STRUCTURE_TOL * (
                1.0 + float(np.linalg.norm(a))):
            raise StructureViolationError("operators must be Hermitian")
    op_scale = max(1.0, float(np.linalg.norm(a1)), float(np.linalg.norm(a2)))
    comm = float(np.linalg.norm(a1 @ a2 - a2 @ a1))
    if comm > STRUCTURE_TOL * op_scale * op_scale:
        raise CommutationViolatedError(
            f"operators do not commute (residual {comm:.3e})")
    rng = np.random.default_rng(COMBINATION_SEED)
    for _ in range(MAX_COMBINATIONS):
        c = rng.normal(size=2)
        c = c / np.linalg.norm(c)
        m = c[0] * a1 + c[1] * a2
        vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
        val_scale = 1.0 + (float(np.max(np.abs(vals))) if n else 0.0)
        starts = np.flatnonzero(np.diff(vals, prepend=-np.inf)
                                > CLUSTER_TOL * val_scale)
        sizes = np.diff(np.append(starts, n))
        vh = vecs.conj().T
        c1 = vh @ a1 @ vecs
        c2 = vh @ a2 @ vecs
        t1 = np.add.reduceat(np.diagonal(c1).real, starts) / sizes
        t2 = np.add.reduceat(np.diagonal(c2).real, starts) / sizes
        scalar = True
        for j in np.flatnonzero(sizes > 1):
            block = slice(starts[j], starts[j] + sizes[j])
            eye = np.eye(sizes[j])
            if max(float(np.linalg.norm(c1[block, block] - t1[j] * eye)),
                   float(np.linalg.norm(c2[block, block] - t2[j] * eye))
                   ) > ATOM_MERGE_TOL * op_scale:
                scalar = False
                break
        if not scalar:
            continue
        weights = np.add.reduceat(np.abs(vh @ h00) ** 2, starts)
        keep = weights >= WEIGHT_DROP_TOL
        points = np.stack([t1[keep], t2[keep]], axis=1) + 0.0
        weights = weights[keep]
        while _has_close_pair(points, ATOM_MERGE_TOL):
            points, weights = _merge_atoms(points, weights, ATOM_MERGE_TOL)
        return AtomicMeasure(points, weights, ATOM_MERGE_TOL).sorted()
    raise ClusterAmbiguityError(
        f"joint eigenvalue clusters remained ambiguous after "
        f"{MAX_COMBINATIONS} random combinations")


def measure_stack_vectorized(a1s: np.ndarray, a2: np.ndarray, h: np.ndarray,
                             comm, *, tolerances) -> list:
    """The stacked joint spectral measure with the cluster bookkeeping done
    across the whole stack in numpy: chain heads, ``np.add.reduceat`` sums,
    ``searchsorted`` slice bounds, and the public ``AtomicMeasure``."""
    from moment2d import AtomicMeasure
    from moment2d.config import STRUCTURE_TOL, WEIGHT_DROP_TOL
    from moment2d.errors import (ClusterAmbiguityError,
                                 CommutationViolatedError)
    from moment2d.linalg import frobenius
    from moment2d.moments import _has_close_pair
    from moment2d.solutions import (_COMBINATIONS, MAX_COMBINATIONS,
                                    _commute_gate, _gate, _merge_atoms)
    merge_tol = tolerances.atom_merge_tol
    comm = _commute_gate(None, a1s, a2) if comm is None else comm
    op_scale = np.maximum(np.maximum(1.0, frobenius(a1s)),
                          float(np.linalg.norm(a2)))
    _gate(comm > STRUCTURE_TOL * op_scale * op_scale, CommutationViolatedError,
          "operators do not commute (residual %.3e)", comm)
    n = a2.shape[0]
    measures, pending = [None] * len(a1s), np.arange(len(a1s))
    for c in _COMBINATIONS:
        b1 = a1s if pending.size == len(a1s) else a1s[pending]
        m = c[0] * b1 + c[1] * a2
        vals, vecs = np.linalg.eigh(0.5 * (m + np.swapaxes(m.conj(), 1, 2)))
        vh = np.swapaxes(vecs.conj(), 1, 2)
        c1, c2 = vh @ b1 @ vecs, vh @ a2 @ vecs
        val_scale = 1.0 + np.abs(vals).max(axis=1, initial=0.0)
        heads = np.ones(vals.shape, dtype=bool)
        heads[:, 1:] = (vals[:, 1:] - vals[:, :-1]
                        > tolerances.cluster_tol * val_scale[:, None])
        starts = np.flatnonzero(heads)
        sizes = np.diff(np.append(starts, heads.size))
        diagonals = np.concatenate([c.reshape(-1, n * n)[:, ::n + 1, None].real
                                    for c in (c1, c2)], axis=-1).reshape(-1, 2)
        points = np.add.reduceat(diagonals, starts) / sizes[:, None] + 0.0
        weights = np.add.reduceat(np.abs(vh @ h).ravel() ** 2, starts)
        scalar = np.ones(len(pending), dtype=bool)
        for g in np.flatnonzero(sizes > 1):
            i, s = divmod(starts[g], n)
            block, eye = slice(s, s + sizes[g]), np.eye(sizes[g])
            scalar[i] &= max(np.linalg.norm(c[i, block, block] - t * eye)
                             for c, t in zip((c1, c2), points[g])
                             ) <= merge_tol * op_scale[pending[i]]
        first = np.searchsorted(starts, np.arange(len(pending) + 1) * n)
        for i in np.flatnonzero(scalar):
            atoms = slice(first[i], first[i + 1])
            keep = weights[atoms] >= WEIGHT_DROP_TOL
            p, w = points[atoms][keep], weights[atoms][keep]
            while _has_close_pair(p, merge_tol):
                p, w = _merge_atoms(p, w, merge_tol)
            order = np.lexsort((p[:, 1], p[:, 0]))
            measures[pending[i]] = AtomicMeasure(p[order], w[order], merge_tol)
        pending = pending[~scalar]
        if not pending.size:
            return measures
    raise ClusterAmbiguityError(
        f"joint eigenvalue clusters remained ambiguous after "
        f"{MAX_COMBINATIONS} random combinations")


def resolvent_cross_check_one(a1: np.ndarray, r2h: np.ndarray,
                              h00: np.ndarray, measure):
    """The resolvent cross-check of one extension: a ``(points, n, n)``
    solve and the atomic-sum kernel; the first failing point raises."""
    from moment2d.errors import StructureViolationError
    from moment2d.solutions import CROSS_TOL, CROSS_VALIDATION_POINTS
    lam1, lam2 = np.array(CROSS_VALIDATION_POINTS).T
    rhs = (r2h + lam1 * (a1 @ r2h)).T[..., None]
    shifted = a1 - lam1[:, None, None] * np.eye(a1.shape[0])
    lhs = np.linalg.solve(shifted, rhs)[..., 0] @ np.conj(h00)
    t1 = measure.points[:, 0]
    t2 = measure.points[:, 1]
    kernel = (((1.0 + lam1[:, None] * t1) / (t1 - lam1[:, None]))
              * ((1.0 + lam2[:, None] * t2) / (t2 - lam2[:, None])))
    value = np.sum(measure.weights * kernel, axis=1)
    failed = np.flatnonzero(np.abs(lhs - value)
                            > CROSS_TOL * (1.0 + np.abs(value)))
    if failed.size:
        j = failed[0]
        lam1_j, lam2_j = CROSS_VALIDATION_POINTS[j]
        raise StructureViolationError(
            f"resolvent cross-validation failed at ({lam1_j}, {lam2_j}): "
            f"|{complex(lhs[j])} - {complex(value[j])}| > {CROSS_TOL}")


def solve_canonical_per_parameter(pair, sampler, on_reject=None):
    """``solve_canonical`` on an operator pair with default tolerances,
    one commutant parameter at a time: each parameter's extension,
    measure and cross-check run before the next parameter is drawn, so
    reports, ``on_reject`` calls and the first error come out in stream
    order.  The sampler stream is ``solutions.enumerate_commutant_unitaries``,
    looked up at call time."""
    import itertools

    from moment2d import solutions
    from moment2d.config import STRUCTURE_TOL
    from moment2d.errors import FixedPointError, StructureViolationError
    a2 = pair.a2_matrix
    determinate = solutions.determinacy(pair)
    if determinate:
        a1 = pair.full_matrix(1)
        if float(np.linalg.norm(a1 - a1.conj().T)) > STRUCTURE_TOL * (
                1.0 + float(np.linalg.norm(a1))):
            raise StructureViolationError(
                "operator A1 is not symmetric on its domain")
        a1 = 0.5 * (a1 + a1.conj().T)
        _require_commutes_one("A1", a1, a2)
        stream, labels = [None], ["determinate"]
    else:
        iso = solutions.build_isometric_pair(pair)
        stream = solutions.enumerate_commutant_unitaries(iso.w2, sampler)
        labels = (solutions._sampler_label(sampler, i)
                  for i in itertools.count())
    r2h = solutions._a2_resolvent_block(pair.a2_spectrum, pair.h00)
    ref = solutions.moments_from_pair(pair, 2 * pair.dim, 2 * pair.dim)
    for u2, label in zip(stream, labels):
        try:
            if not determinate:
                a1 = canonical_extension_one(pair, iso, u2)
        except FixedPointError as exc:
            if on_reject is not None:
                on_reject(label, exc)
            continue
        measure = joint_spectral_measure_one(a1, a2, pair.h00)
        resolvent_cross_check_one(a1, r2h, pair.h00, measure)
        yield solutions.verify_solution(measure, ref,
                                        determinate=determinate,
                                        u2_seed=label)


def shift_operator_lstsq(space, which: int, tolerances, gate: float) -> tuple:
    """Domain basis and action of one GNS shift the two-factorization way:
    an orthonormal basis of the domain columns from a complex SVD (the
    rank rule of ``orth_columns``), then a least-squares solve of
    ``action @ (basis^H dom) = img``.  Raises the errors of
    ``gns._shift_operator`` with the same messages."""
    from moment2d.errors import (DomainCollapseError, InconsistentShiftError,
                                 SingularShiftError)
    dm, dn = (1, 0) if which == 1 else (0, 1)
    kept = [(m, n) for m, n in space.monomial_index
            if (m + dm, n + dn) in space.monomial_index]
    dom_vectors = space.coords[:, [space.index_of(m, n) for m, n in kept]]
    img_vectors = space.coords[:, [space.index_of(m + dm, n + dn)
                                   for m, n in kept]]
    a = np.asarray(dom_vectors, dtype=complex)
    if a.shape[1] == 0 or not np.any(a):
        basis = np.zeros((a.shape[0], 0), dtype=complex)
    else:
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        basis = u[:, :int(np.sum(s > tolerances.subspace_tol * s[0]))]
    if basis.shape[1] == 0:
        raise DomainCollapseError(f"domain of A{which} is zero-dimensional")
    r = basis.conj().T @ dom_vectors
    try:
        action_t, _, _, _ = np.linalg.lstsq(r.T, img_vectors.T, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise SingularShiftError(f"shift solve failed for A{which}: {exc}")
    action = action_t.T
    residual = float(np.linalg.norm(action @ r - img_vectors))
    if residual > gate:
        raise InconsistentShiftError(
            f"shift A{which} leaves the quotient span: residual "
            f"{residual:.3e} > gate {gate:.3e}")
    return basis, action


def _format_float_per_value(x: float) -> str:
    text = "%.17g" % float(x)
    return "-0.0" if text == "-0" else text


def dumps_recursive(obj, indent: int = 0) -> str:
    """JSON text with one recursive call per value: ``"%.17g"`` floats,
    ``-0.0`` for negative zero, ``str`` ints, and a list on one line only
    when every item is under 40 characters and holds no newline."""
    import json

    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float_per_value(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: "
                 f"{dumps_recursive(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [dumps_recursive(v, indent + 1) for v in obj]
        if all(len(p) < 40 and "\n" not in p for p in parts):
            return "[" + ", ".join(parts) + "]"
        return ("[\n" + ",\n".join(inner + p for p in parts) + "\n"
                + pad + "]")
    raise TypeError(f"cannot serialize value of type {type(obj).__name__}")


def complex_matrix_to_json_per_cell(mat) -> list:
    """Rows of ``[re, im]`` cells, one ``float()`` per part."""
    mat = np.asarray(mat, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def complex_vector_to_json_per_cell(vec) -> list:
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    return [[float(v.real), float(v.imag)] for v in vec]


def measure_to_json_per_atom(measure) -> dict:
    return {"atoms": [[float(measure.points[i, 0]),
                       float(measure.points[i, 1]),
                       float(measure.weights[i])]
                      for i in range(measure.n_atoms)]}


def moment_table_to_json_per_entry(table) -> dict:
    entries = [[m, n, float(table.values[m, n])]
               for m in range(table.max_m + 1)
               for n in range(table.max_n + 1)]
    return {"max_m": table.max_m, "max_n": table.max_n, "entries": entries}


def pair_to_json_per_cell(pair) -> dict:
    """``io.pair_to_json`` built from the per-cell converters above."""
    return {
        "dim": pair.dim,
        "a1_domain": complex_matrix_to_json_per_cell(pair.a1_domain),
        "a1_action": complex_matrix_to_json_per_cell(pair.a1_action),
        "a2_domain": complex_matrix_to_json_per_cell(pair.a2_domain),
        "a2_action": complex_matrix_to_json_per_cell(pair.a2_action),
        "h00": complex_vector_to_json_per_cell(pair.h00),
        "j_matrix": complex_matrix_to_json_per_cell(pair.j_matrix),
        "a2_selfadjoint": pair.a2_selfadjoint,
    }


def write_json_recursive(obj, path: str):
    """The file ``io.write_json`` writes, from :func:`dumps_recursive`."""
    with open(path, "w") as fh:
        fh.write(dumps_recursive(obj) + "\n")


def random_atomic_measure_per_candidate(rng: np.random.Generator,
                                        n_atoms: int | None = None,
                                        coord_low: float = -2.0,
                                        coord_high: float = 2.0,
                                        weight_low: float = 0.1,
                                        weight_high: float = 1.0,
                                        min_separation: float = 0.15) -> tuple:
    """Points and weights of ``scenarios.random_atomic_measure``, drawn
    as numpy 2-vectors and compared with ``np.max(np.abs(...))``.

    The same draws in the same order: the atom count when ``n_atoms`` is
    None, one ``uniform(size=2)`` per candidate, resampled while it lies
    within ``min_separation`` of an accepted atom in max-coordinate
    distance, then the ``n_atoms`` weights.  Returns the ``(k, 2)`` points
    and ``(k,)`` weights as arrays.
    """
    if n_atoms is None:
        n_atoms = int(rng.integers(2, 7))
    points: list[np.ndarray] = []
    while len(points) < n_atoms:
        cand = rng.uniform(coord_low, coord_high, size=2)
        if all(float(np.max(np.abs(cand - p))) > min_separation
               for p in points):
            points.append(cand)
    weights = rng.uniform(weight_low, weight_high, size=n_atoms)
    return np.array(points), weights


def default_gns_per_square(table, largest: tuple, *, tolerances):
    """``solutions._default_gns`` building a space at every square from
    ``(0, 0)`` on, the 1 x 1 one included, through ``solutions.build_gns``
    as looked up at call time: the smallest flat square ``(d + 1, d + 1)``
    with ``rank(d, d) == rank(d + 1, d + 1)``, else the space at
    ``largest``, which a square failing the PSD gate also leaves."""
    from moment2d import solutions
    from moment2d.errors import NotPsdError
    space = None
    try:
        for d in range(min(largest) + 1):
            prev, space = space, solutions.build_gns(table, d, d,
                                                     tolerances=tolerances)
            if prev is not None and prev.rank == space.rank:
                return space
    except NotPsdError:
        space = None
    if space is not None and (space.d_m, space.d_n) == largest:
        return space
    return solutions.build_gns(table, *largest, tolerances=tolerances)
