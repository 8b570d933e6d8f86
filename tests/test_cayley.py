from __future__ import annotations

import dataclasses
import functools
import importlib
import re

import numpy as np
import pytest
import scipy.linalg

from moment2d import (
    AdmissibilityFailedError,
    CayleyIsometry,
    CommutationViolatedError,
    ContractionParameter,
    ContractionViolatedError,
    FixedPointError,
    NotDirectSumError,
    NotSelfAdjointA2Error,
    NotSupportedError,
    NotUnitaryError,
    SamplerSpec,
    StructureViolationError,
    Tolerances,
    IsometricPair,
    SymmetricPair,
    build_isometric_pair,
    canonical_extension,
    cayley,
    chumakin_resolvent,
    commutation_check,
    constant_admissibility,
    e2,
    e3,
    e3_class,
    extend_isometry,
    forbidden_operator,
    godich_lutsenko,
    inverse_cayley,
    pair_resolvent_symmetric,
    io,
    prepare_pair,
    solve_canonical,
)
from moment2d.config import DEFAULT_TOLERANCES, FIXED_POINT_TOL
from moment2d.errors import Moment2dError
from moment2d.linalg import (complement_basis, haar_unitary, is_unitary,
                             subspace_residual)

import oracles


def _full_pair(a1: np.ndarray, a2: np.ndarray, h00=None) -> SymmetricPair:
    dim = a1.shape[0]
    if h00 is None:
        h00 = np.zeros(dim, dtype=complex)
        h00[0] = 1.0
    return SymmetricPair(dim=dim,
                         a1_domain=np.eye(dim, dtype=complex),
                         a1_action=np.asarray(a1, dtype=complex),
                         a2_domain=np.eye(dim, dtype=complex),
                         a2_action=np.asarray(a2, dtype=complex),
                         h00=np.asarray(h00, dtype=complex),
                         j_matrix=np.eye(dim, dtype=complex))


def _scalar_pair() -> SymmetricPair:
    """One-dimensional space, A1 with empty domain, A2 = 0."""
    return SymmetricPair(dim=1,
                         a1_domain=np.zeros((1, 0), dtype=complex),
                         a1_action=np.zeros((1, 0), dtype=complex),
                         a2_domain=np.eye(1, dtype=complex),
                         a2_action=np.zeros((1, 1), dtype=complex),
                         h00=np.array([1.0 + 0j]),
                         j_matrix=np.eye(1, dtype=complex))


def _jacobi(b0: float, b1: float) -> np.ndarray:
    return np.array([[0.0, b0, 0.0], [b0, 0.0, b1], [0.0, b1, 0.0]])


def _two_block_pair() -> SymmetricPair:
    """Defect-2 construction: A1 restricts a block-diagonal tridiagonal
    matrix, A2 is a scalar on each block so commutation is exact."""
    b1 = np.block([[_jacobi(1.1, 0.7), np.zeros((3, 3))],
                   [np.zeros((3, 3)), _jacobi(0.9, 1.3)]]).astype(complex)
    b2 = np.diag([0.5] * 3 + [-1.2] * 3).astype(complex)
    keep = [0, 1, 3, 4]
    dom = np.eye(6, dtype=complex)[:, keep]
    h00 = np.array([0.8, 0, 0, 0.6, 0, 0], dtype=complex)
    return SymmetricPair(dim=6, a1_domain=dom, a1_action=b1[:, keep],
                         a2_domain=np.eye(6, dtype=complex), a2_action=b2,
                         h00=h00, j_matrix=np.eye(6, dtype=complex))


def test_cayley_of_diagonal_operator():
    pair = _full_pair(np.diag([0.0, 1.0]), np.zeros((2, 2)))
    iso = cayley(pair)
    v_full = iso.action @ iso.domain.conj().T
    assert np.max(np.abs(v_full - np.diag([-1.0, 1j]))) < 1e-12
    assert iso.range.shape == (2, 2)


def test_inverse_cayley_reverses_the_transform():
    assert np.max(np.abs(inverse_cayley(np.diag([-1.0 + 0j, 1j]))
                         - np.diag([0.0, 1.0]))) < 1e-12
    rng = np.random.default_rng(3)
    for n in (2, 4, 6):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (g + g.conj().T) / 2
        u = (h + 1j * np.eye(n)) @ np.linalg.inv(h - 1j * np.eye(n))
        assert np.max(np.abs(inverse_cayley(u) - h)) < 1e-9


def test_inverse_cayley_gates():
    with pytest.raises(FixedPointError):
        inverse_cayley(np.eye(2, dtype=complex))
    with pytest.raises(NotUnitaryError):
        inverse_cayley(np.diag([0.5 + 0j, 1j]))


def _unitary_with_eigenvalue_near_one(rng, n: int, delta: float):
    """Random ``n x n`` unitary with one eigenvalue at distance ``delta``
    from 1 and the others at least 0.5 away from it along the circle."""
    angles = rng.uniform(0.5, 2.0 * np.pi - 0.5, size=n)
    angles[0] = 2.0 * np.arcsin(delta / 2.0)
    q = haar_unitary(n, rng)
    return (q * np.exp(1j * angles)) @ q.conj().T


@pytest.mark.parametrize("delta", [1e-10, 5e-9, 1e-8, 1.5e-8, 2e-8, 1e-7,
                                   1e-3, 0.0])
def test_fixed_point_screen_matches_the_svd_first_oracle(monkeypatch, delta):
    """Stacks with one eigenvalue at ``delta`` from 1 give, bit for bit,
    the slices and errors of an SVD taken first.  The SVD runs only when
    the solve does not clear the bound, and ``delta = 0`` stands for a
    ``U - E`` that is exactly singular (the stacked solve raises)."""
    from moment2d.cayley import _inverse_cayley_stack
    rng = np.random.default_rng(23)
    n = 8
    far = [_unitary_with_eigenvalue_near_one(rng, n, 1.0) for _ in range(3)]
    if delta:
        near = _unitary_with_eigenvalue_near_one(rng, n, delta)
    else:
        near = np.diag(np.exp(1j * np.linspace(0.0, 3.0, n)))
    svd_calls = []
    real_svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: (
        svd_calls.append(1), real_svd(*args, **kwargs))[1])
    for stack in ([near], [far[0], near, far[1]], [near] + far, far + [near]):
        us = np.array(stack)
        svd_calls.clear()
        got, got_errors = _inverse_cayley_stack(us)
        screened = bool(svd_calls)
        want, want_errors = oracles.inverse_cayley_stack_svd_first(us)
        assert got.tobytes() == want.tobytes()
        assert [(type(e), str(e)) for e in got_errors] == [
            (type(e), str(e)) for e in want_errors]
        if delta != 2e-8:   # there the bound sits at 2 * FIXED_POINT_TOL
            assert screened == (delta < 2e-8)
    if delta != 1e-8:   # at the threshold itself either verdict is sound
        assert (want_errors[-1] is None) == (delta > 1e-8)
    if delta < 1e-8:
        with pytest.raises(FixedPointError, match=r"sigma_min = "):
            inverse_cayley(near)


def test_isometric_pair_invariants():
    iso = build_isometric_pair(e3().pair)
    assert iso.defect_dim == 1
    assert iso.ninf_basis.shape[1] == 1
    # V is isometric on its domain and U is unitary without fixed vectors.
    assert np.max(np.abs(iso.v_action.conj().T @ iso.v_action
                         - np.eye(2))) < 1e-10
    assert is_unitary(iso.u_matrix, 1e-10)
    assert np.linalg.svd(iso.u_matrix - np.eye(3),
                         compute_uv=False)[-1] > FIXED_POINT_TOL
    # U leaves both defect subspaces invariant.
    assert subspace_residual(iso.n0_basis,
                             iso.u_matrix @ iso.n0_basis) < 1e-9
    assert subspace_residual(iso.ninf_basis,
                             iso.u_matrix @ iso.ninf_basis) < 1e-9


def test_operator_domain_recovers_the_symmetric_domain():
    pair = e3().pair
    iso = build_isometric_pair(pair)
    dom = iso.operator_domain()
    assert dom.shape == (3, 2)
    assert subspace_residual(pair.a1_domain, dom) < 1e-9
    assert build_isometric_pair(_scalar_pair()).operator_domain().shape == (1, 0)


def test_extend_isometry_shapes_and_unitarity():
    iso = build_isometric_pair(_scalar_pair())
    half = extend_isometry(iso, ContractionParameter.const([[0.5]]))
    assert half[0, 0] == pytest.approx(0.5)
    assert not is_unitary(half, 1e-10)
    phase = extend_isometry(iso, ContractionParameter.const([[1j]]))
    assert is_unitary(phase, 1e-12)
    with pytest.raises(ValueError):
        extend_isometry(iso, ContractionParameter.const(np.zeros((2, 1))))


def _unitary_at_residual(rng, n: int, residual: float) -> np.ndarray:
    """Haar unitaries ``W`` and ``Y`` around ``diag(s)`` with ``||s^2 -
    1||_2 = residual``, so ``||U^H U - E||_F = ||U U^H - E||_F = residual``."""
    delta = rng.normal(size=n)
    delta *= residual / np.linalg.norm(delta)
    return (haar_unitary(n, rng) * np.sqrt(1.0 + delta)) @ haar_unitary(
        n, rng).conj().T


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_one_gram_product_gives_the_two_sided_unitarity_verdicts(tol):
    rng = np.random.default_rng(27)
    ratios = np.array([0.5, 0.99, 1.01, 2.0])
    checked = 0
    for n in list(range(1, 13)) + [20, 40]:
        for ratio in ratios:
            u = _unitary_at_residual(rng, n, ratio * tol * n)
            assert is_unitary(u, tol) is oracles.is_unitary_two_sided(u, tol)
            assert is_unitary(u, tol) is bool(ratio < 1.0)
            checked += 1
        for _ in range(3):
            order = rng.permutation(ratios)
            stack = np.array([_unitary_at_residual(rng, n, r * tol * n)
                              for r in order])
            got = is_unitary(stack, tol)
            assert np.array_equal(got,
                                  oracles.is_unitary_two_sided(stack, tol))
            assert np.array_equal(got, order < 1.0)
            checked += len(order)
    assert checked >= 200
    for shape in ((3, 2), (2, 3), (4, 3, 2), (0, 2)):
        u = np.zeros(shape, dtype=complex)
        assert is_unitary(u, tol) is False
        assert oracles.is_unitary_two_sided(u, tol) is False
    assert is_unitary(np.zeros((0, 0)), tol) is True
    assert oracles.is_unitary_two_sided(np.zeros((0, 0)), tol) is True


def test_extend_isometry_returns_a_new_array_at_defect_zero():
    iso = build_isometric_pair(e2().pair)
    assert iso.defect_dim == 0
    full = extend_isometry(iso, ContractionParameter.const(np.zeros((0, 0))))
    assert np.array_equal(full, iso.v_matrix)
    assert full.flags.writeable
    assert not np.shares_memory(full, iso.v_matrix)


def test_build_isometric_pair_derives_a2_selfadjoint_from_the_matrices():
    pair = e3().pair
    skew = pair.a2_action.copy()
    skew[0, 1] = 0.5
    not_hermitian = dataclasses.replace(pair, a2_action=skew)
    partial = dataclasses.replace(pair, a2_domain=pair.a2_domain[:, :2],
                                  a2_action=pair.a2_action[:, :2])
    for bad, defect_a2 in ((not_hermitian, 0), (partial, 1)):
        assert bad.a2_selfadjoint is False
        with pytest.raises(NotSelfAdjointA2Error) as info:
            build_isometric_pair(bad)
        assert (info.value.defect_a1, info.value.defect_a2) == (1, defect_a2)


def test_contraction_parameter_enforces_norm_bound():
    with pytest.raises(ContractionViolatedError):
        ContractionParameter.const([[1.5]]).at(0.0)
    moving = ContractionParameter.pointwise(
        lambda z: np.array([[z / 2.0]], dtype=complex))
    assert moving.at(0.4)[0, 0] == pytest.approx(0.2)


def test_contraction_parameter_refuses_non_finite_values():
    """A NaN or infinite entry is named before the contraction bound's SVD,
    which would not converge on it; every user of the value sees that."""
    value = np.array([[0.5, 0.0], [0.0, np.nan]], dtype=complex)
    message = r"^parameter entry \(1, 1\) is \(nan\+0j\), not finite$"
    for phi in (ContractionParameter.const(value),
                ContractionParameter.pointwise(lambda z: value)):
        with pytest.raises(ContractionViolatedError, match=message):
            phi.at(0.25)
    inf = ContractionParameter.const([[np.inf]])
    with pytest.raises(ContractionViolatedError, match=r"\(0, 0\) is"):
        inf.at(0.0)
    iso = build_isometric_pair(_scalar_pair())
    nan = ContractionParameter.const([[np.nan]])
    for call in (lambda: extend_isometry(iso, nan),
                 lambda: prepare_pair(iso, nan),
                 lambda: chumakin_resolvent(iso, nan, 0.5)):
        with pytest.raises(ContractionViolatedError, match="not finite"):
            call()


def test_conjugation_factorization_small_cases():
    f = godich_lutsenko(np.array([[1j]]))
    assert f.k_matrix[0, 0] == pytest.approx(1j)
    assert f.l_matrix[0, 0] == pytest.approx(1.0)
    f2 = godich_lutsenko(np.diag([1j, -1j]))
    assert np.max(np.abs(f2.l_matrix - np.eye(2))) < 1e-12
    assert np.max(np.abs(f2.k_matrix - np.diag([1j, -1j]))) < 1e-12
    f0 = godich_lutsenko(np.zeros((0, 0), dtype=complex))
    assert f0.k_matrix.shape == (0, 0)
    with pytest.raises(NotUnitaryError):
        godich_lutsenko(np.array([[0.5 + 0j]]))


def test_conjugation_factorization_invariants_hold_on_random_unitaries():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, r = np.linalg.qr(g)
        w = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        f = godich_lutsenko(w)
        eye = np.eye(n)
        # Conjugations square to the identity; their composition is W.
        assert np.max(np.abs(f.k_matrix @ np.conj(f.k_matrix) - eye)) < 1e-10
        assert np.max(np.abs(f.l_matrix @ np.conj(f.l_matrix) - eye)) < 1e-10
        assert np.max(np.abs(f.k_matrix @ np.conj(f.l_matrix) - w)) < 1e-10


def test_forbidden_operator_of_scalar_pair():
    psi_basis, x_matrix = forbidden_operator(
        build_isometric_pair(_scalar_pair()))
    # D(A) = {0}, so N_i = N_-i = the whole line and X is the identity.
    assert psi_basis.shape == (1, 1)
    assert np.max(np.abs(x_matrix - psi_basis)) < 1e-12


def test_forbidden_operator_requires_direct_sum():
    # V e1 = -e1, so D(A) = (E - V) D(V) = span(e1); the hand-built Ninf
    # is span(e1) as well, and N_-i + D(A) is not a direct sum.
    e1_col = np.eye(2, dtype=complex)[:, [0]]
    e2_col = np.eye(2, dtype=complex)[:, [1]]
    iso = IsometricPair(dim=2, v_domain=e1_col, v_action=-e1_col,
                        n0_basis=e2_col, ninf_basis=e1_col,
                        a2_spectrum=(np.zeros(2), np.eye(2, dtype=complex)),
                        j_matrix=np.eye(2, dtype=complex))
    assert subspace_residual(iso.operator_domain(), e1_col) < 1e-12
    with pytest.raises(NotDirectSumError):
        forbidden_operator(iso)
    with pytest.raises(NotDirectSumError):
        constant_admissibility(iso, ContractionParameter.const([[0.5]]))


def test_constant_admissibility_on_the_scalar_pair():
    iso = build_isometric_pair(_scalar_pair())
    # The inadmissible direction is exactly the unitary value fixing psi.
    for value, expected in ((1.0, False), (0.5, True), (-1.0, True),
                            (1j, True), (0.9999, True)):
        phi = ContractionParameter.const(np.array([[value]], dtype=complex))
        assert constant_admissibility(iso, phi) is expected


def test_a_larger_subspace_tol_keeps_strict_contractions_admissible():
    # At subspace_tol 1e-6 the value 1 - 1e-7 falls in the numerical
    # kernel of F - X, but F shrinks it, so it is no forbidden direction.
    iso = build_isometric_pair(_scalar_pair())
    wide = Tolerances(subspace_tol=1e-6)
    for value, expected in ((1.0 - 1e-7, True), (1.0 - 1e-9, False),
                            (1.0, False)):
        phi = ContractionParameter.const(np.array([[value]], dtype=complex))
        assert constant_admissibility(iso, phi, tolerances=wide) is expected


def test_forbidden_operator_refuses_defect_bases_of_different_sizes():
    e = np.eye(3, dtype=complex)
    iso = IsometricPair(dim=3, v_domain=e[:, [0]], v_action=1j * e[:, [0]],
                        n0_basis=e[:, 1:], ninf_basis=e[:, [1]],
                        a2_spectrum=(np.zeros(3), e), j_matrix=e)
    with pytest.raises(StructureViolationError,
                       match=r"defect dimensions differ: 2 != 1"):
        forbidden_operator(iso)


def test_admissibility_dense_domain_shortcuts():
    iso = build_isometric_pair(_full_pair(np.zeros((1, 1)), np.zeros((1, 1))))
    empty = ContractionParameter.const(np.zeros((0, 0)))
    assert constant_admissibility(iso, empty) is True
    moving = ContractionParameter.pointwise(lambda z: np.zeros((0, 0)))
    assert constant_admissibility(iso, moving) is True
    with pytest.raises(NotSupportedError):
        constant_admissibility(build_isometric_pair(_scalar_pair()),
                               ContractionParameter.pointwise(
                                   lambda z: np.array([[z]], dtype=complex)))
    with pytest.raises(ValueError, match=r"does not match defect dimensions "
                                         r"\(0, 0\)"):
        constant_admissibility(iso, ContractionParameter.const(np.zeros((1, 1))))


@pytest.mark.parametrize("setup", [None, (4, 1, 11), (6, 2, 13), (10, 2, 1)],
                         ids=["e3", "e3_class-4-1-11", "e3_class-6-2-13",
                              "e3_class-10-2-1"])
def test_value_built_from_the_forbidden_operator_is_inadmissible(setup):
    pair = e3().pair if setup is None else e3_class(*setup).pair
    iso = build_isometric_pair(pair)
    assert iso.operator_domain().shape[1] == pair.a1_domain.shape[1] > 0
    psi_basis, x_matrix = forbidden_operator(iso)
    assert psi_basis.shape[1] > 0
    # F = X on dom X, read as a map N0 -> Ninf in the defect bases; it
    # preserves the norm of every psi, so the criterion rejects it.
    value = (iso.ninf_basis.conj().T @ x_matrix @ psi_basis.conj().T
             @ iso.n0_basis)
    assert np.max(np.abs(iso.ninf_basis @ value @ iso.n0_basis.conj().T
                         @ psi_basis - x_matrix)) < 1e-9
    phi = ContractionParameter.const(value)
    assert constant_admissibility(iso, phi) is False
    with pytest.raises(AdmissibilityFailedError):
        prepare_pair(iso, phi)
    # A strict contraction never preserves a norm.
    assert constant_admissibility(
        iso, ContractionParameter.const(0.5 * value)) is True


def test_a_fixed_vector_of_v_is_refused_before_the_admissibility_test():
    # V e1 = e1 is not the Cayley transform of a symmetric operator:
    # (E - V) D(V) = {0} loses the dimension of D(V).
    e1_col = np.eye(2, dtype=complex)[:, [0]]
    e2_col = np.eye(2, dtype=complex)[:, [1]]
    iso = IsometricPair(dim=2, v_domain=e1_col, v_action=e1_col,
                        n0_basis=e2_col, ninf_basis=e2_col,
                        a2_spectrum=(np.zeros(2), np.eye(2, dtype=complex)),
                        j_matrix=np.eye(2, dtype=complex))
    assert iso.operator_domain().shape == (2, 0)
    message = r"Cayley transform of A1 has a fixed vector on D\(V\)"
    with pytest.raises(StructureViolationError, match=message):
        forbidden_operator(iso)
    with pytest.raises(StructureViolationError, match=message):
        constant_admissibility(iso, ContractionParameter.const([[0.5]]))


def test_a_cayley_transform_with_a_fixed_vector_is_refused_when_built():
    # A1 e1 = 1e10 e1: its Cayley transform moves e1 by 2e-10, below the
    # subspace tolerance, so D(A) = (E - V) D(V) loses a dimension.
    e = np.eye(3, dtype=complex)
    pair = SymmetricPair(dim=3, a1_domain=e[:, :2],
                         a1_action=np.column_stack([1e10 * e[:, 0],
                                                    0.5 * e[:, 1] + e[:, 2]]),
                         a2_domain=e, a2_action=np.zeros((3, 3), dtype=complex),
                         h00=e[:, 1], j_matrix=e)
    message = (r"^Cayley transform of A1 has a fixed vector on D\(V\); A1 is "
               r"outside the numerically supported range$")
    with pytest.raises(StructureViolationError, match=message):
        build_isometric_pair(pair)
    # solve_canonical refuses the pair instead of rejecting every
    # parameter and yielding no report.
    rejected = []
    reports = solve_canonical(
        pair, on_reject=lambda label, exc: rejected.append(label))
    with pytest.raises(StructureViolationError, match=message):
        next(reports)
    assert rejected == []


def _scaled_a1_pair(norm: float, basis_scale: float = 1.0,
                    leave: float = 0.1) -> SymmetricPair:
    """Dimension 6, defect 2, A2 = 0: on a random 4-dimensional domain A1
    has the eigenvalues 0, 0.3, 0.7, 1 and a part leaving the domain, of
    weight ``leave``, that spares the kernel, scaled to ``||A1||_F = norm``,
    so ``(E - V) D(V)`` has condition number about ``norm``;
    ``basis_scale`` stretches the domain basis."""
    rng = np.random.default_rng(3)
    w = haar_unitary(6, rng)
    v = haar_unitary(4, rng)
    h = (v * np.array([0.0, 0.3, 0.7, 1.0])) @ v.conj().T
    t = w[:, :4] @ (0.5 * (h + h.conj().T)) + leave * w[:, 4:] @ rng.normal(
        size=(2, 3)) @ v[:, 1:].conj().T
    t *= norm / np.linalg.norm(t)
    return SymmetricPair(dim=6, a1_domain=basis_scale * w[:, :4],
                         a1_action=basis_scale * t,
                         a2_domain=np.eye(6, dtype=complex),
                         a2_action=np.zeros((6, 6), dtype=complex),
                         h00=w[:, 0], j_matrix=np.eye(6, dtype=complex))


def _off_domain_a1_pair(norm: float,
                        basis_scale: float = 1.0) -> SymmetricPair:
    """Dimension 2, A2 = 0, ``D(A1) = span(e1)`` and ``A1 e1 = norm e2``:
    ``D(A)`` meets ``N_-i`` at an angle of about ``1 / norm``."""
    e = np.eye(2, dtype=complex)
    return SymmetricPair(dim=2, a1_domain=basis_scale * e[:, :1],
                         a1_action=basis_scale * norm * e[:, 1:],
                         a2_domain=e, a2_action=np.zeros_like(e),
                         h00=e[:, 0], j_matrix=e)


def _sub_tolerance_pair(*t: complex) -> SymmetricPair:
    """Dimension ``k + 1`` for ``k`` values ``t``, A2 = 0, domain basis
    ``1e-5 e_j`` with ``A1 e_j = t_j e_j``: ``Q^H T = 1e-10 diag(t)`` passes
    the symmetry check for ``|t_j| <= 1``, and the action of ``V`` has the
    singular values ``|t_j + i| / |t_j - i|``."""
    e = np.eye(len(t) + 1, dtype=complex)
    return SymmetricPair(dim=len(t) + 1, a1_domain=1e-5 * e[:, :-1],
                         a1_action=1e-5 * e[:, :-1] * np.array(t),
                         a2_domain=e, a2_action=np.zeros_like(e),
                         h00=e[:, -1], j_matrix=e)


@pytest.fixture
def orth_calls(monkeypatch) -> list:
    """The matrices ``moment2d.cayley`` passes to ``orth_columns``."""
    module = importlib.import_module("moment2d.cayley")
    calls = []
    real = module.orth_columns

    def counted(a, *args):
        calls.append(a)
        return real(a, *args)

    monkeypatch.setattr(module, "orth_columns", counted)
    return calls


@pytest.fixture
def domain_calls(monkeypatch) -> list:
    """The pairs on which ``IsometricPair.operator_domain`` runs, in order."""
    calls = []
    real = IsometricPair.operator_domain

    def counted(self, **kwargs):
        calls.append(self)
        return real(self, **kwargs)

    monkeypatch.setattr(IsometricPair, "operator_domain", counted)
    return calls


@pytest.mark.parametrize("subspace_tol", [1e-9, 1e-6])
@pytest.mark.parametrize("basis_scale", [1.0, 1.5])
def test_fixed_vector_screen_matches_the_svd_first_oracle(
        subspace_tol, basis_scale, domain_calls):
    tolerances = Tolerances(subspace_tol=subspace_tol)
    calls = domain_calls
    decisions = set()
    for norm in np.geomspace(1.0, 1e10, 61):
        pair = _scaled_a1_pair(norm, basis_scale)
        want = oracles.fixed_vector_gate_svd_first(pair, tolerances)
        del calls[:]
        try:
            build_isometric_pair(pair, tolerances=tolerances)
            got = None
        except StructureViolationError as exc:
            got = exc
        assert type(got) is type(want) and str(got) == str(want), norm
        decisions.add(got is None)
        # The SVD runs past the screen's cut, and always for a stretched
        # domain basis; well inside the cut it does not run.
        bound = np.hypot(1.0, np.linalg.norm(pair.a1_action))
        if basis_scale != 1.0 or bound > 0.25 / subspace_tol:
            assert len(calls) == 1, norm
        elif bound <= 0.1 / subspace_tol:
            assert calls == [], norm
    assert decisions == {True, False}


@pytest.mark.parametrize("subspace_tol", [1e-9, 1e-6])
@pytest.mark.parametrize("basis_scale", [1.0, 1.5])
@pytest.mark.parametrize("family", [
    _scaled_a1_pair, functools.partial(_scaled_a1_pair, leave=10.0),
    _off_domain_a1_pair], ids=["leave-0.1", "leave-10", "off-domain"])
def test_forbidden_operator_matches_the_orthonormal_basis_oracle(
        subspace_tol, basis_scale, family):
    # The Cayley data of build_isometric_pair without its gates, so that
    # the pairs whose V fixes a vector reach the forbidden operator too.
    tolerances = Tolerances(subspace_tol=subspace_tol)
    verdicts = set()
    for norm in np.geomspace(1.0, 1e10, 241):
        pair = family(norm, basis_scale)
        cay = cayley(pair, tolerances=tolerances)
        iso = IsometricPair(
            dim=pair.dim, v_domain=cay.domain, v_action=cay.action,
            n0_basis=complement_basis(cay.domain, subspace_tol),
            ninf_basis=complement_basis(cay.range, subspace_tol),
            a2_spectrum=pair.a2_spectrum,
            j_matrix=pair.j_matrix)
        outcomes = []
        for solve in (forbidden_operator,
                      oracles.forbidden_operator_orthonormal):
            try:
                outcomes.append(solve(iso, tolerances=tolerances))
            except Moment2dError as exc:
                outcomes.append(exc)
        got, want = outcomes
        assert type(got) is type(want), norm
        if isinstance(want, Exception):
            assert str(got) == str(want), norm
        else:
            assert got[0] is want[0] is iso.n0_basis
            delta = iso.ninf_basis.conj().T @ (got[1] - want[1])
            assert np.max(np.abs(delta)) <= 1e-12, norm
        verdicts.add(type(want).__name__)
    assert "tuple" in verdicts and len(verdicts) > 1


@pytest.fixture
def svd_calls(monkeypatch) -> list:
    """The matrices passed to ``np.linalg.svd``, in order."""
    calls = []
    real = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(a)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.mark.parametrize("subspace_tol", [1e-9, 1e-6])
@pytest.mark.parametrize("family", [
    _scaled_a1_pair, functools.partial(_scaled_a1_pair, leave=10.0),
    _off_domain_a1_pair], ids=["leave-0.1", "leave-10", "off-domain"])
def test_direct_sum_screen_matches_the_svd_first_oracle(
        subspace_tol, family, svd_calls):
    # Cayley data without the gates of build_isometric_pair, as in the
    # orthonormal-basis test above, so that fixed vectors reach the cut.
    tolerances = Tolerances(subspace_tol=subspace_tol)
    cut = np.sqrt(2.0) * subspace_tol
    screened = set()
    for norm in np.geomspace(1.0, 1e10, 121):
        pair = family(norm)
        cay = cayley(pair, tolerances=tolerances)
        iso = IsometricPair(
            dim=pair.dim, v_domain=cay.domain, v_action=cay.action,
            n0_basis=complement_basis(cay.domain, subspace_tol),
            ninf_basis=cay.ninf, a2_spectrum=pair.a2_spectrum,
            j_matrix=pair.j_matrix)
        stacked = np.hstack([iso.ninf_basis, iso.v_domain - iso.v_action])
        s = np.linalg.svd(stacked, compute_uv=False)
        outcomes = []
        for solve in (oracles.forbidden_operator_svd_first,
                      forbidden_operator):
            svd_calls.clear()
            try:
                outcomes.append(solve(iso, tolerances=tolerances))
            except Moment2dError as exc:
                outcomes.append(exc)
        want, got = outcomes
        assert type(got) is type(want), norm
        if isinstance(want, Exception):
            assert str(got) == str(want), norm
        else:
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), norm
        screened.add(not svd_calls)
        # The screen proves s[-1] >= 2 cut max(s[0], 1); a stack short of
        # that always reaches the SVD, and every error comes from it.
        if s[-1] < 2.0 * cut * max(s[0], 1.0) or isinstance(want, Exception):
            assert svd_calls, norm
    assert screened == {True, False}


@pytest.mark.parametrize("setup", [None, (40, 1, 0), (40, 2, 0), (40, 3, 0)],
                         ids=["e3", "e3_class-40-1", "e3_class-40-2",
                              "e3_class-40-3"])
def test_a_pair_the_screen_clears_builds_no_operator_domain(
        setup, domain_calls, orth_calls, svd_calls):
    iso = build_isometric_pair(e3().pair if setup is None
                               else e3_class(*setup).pair)
    phi = ContractionParameter.const(np.zeros((iso.defect_dim,) * 2))
    svd_calls.clear()
    first = forbidden_operator(iso)
    # The Cholesky screen clears the direct-sum cut: no SVD of the stack.
    assert svd_calls == []
    assert constant_admissibility(iso, phi) is True
    assert constant_admissibility(
        iso, phi, tolerances=Tolerances(subspace_tol=1e-7)) is True
    assert domain_calls == []
    # The rank bound clears the Cayley range too: no SVD of its action.
    assert orth_calls == []
    second = forbidden_operator(dataclasses.replace(iso))
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("norm, basis_scale", [(10.0, 1.5), (4e8, 1.0)],
                         ids=["stretched-basis", "norm-4e8"])
def test_a_pair_past_the_screen_builds_its_operator_domain_once(
        norm, basis_scale, domain_calls):
    iso = build_isometric_pair(_scaled_a1_pair(norm, basis_scale))
    assert len(domain_calls) == 1 and domain_calls[0] is iso
    # The forbidden operator solves against (E - V) D(V) as it stands.
    phi = ContractionParameter.const(np.zeros((iso.defect_dim,) * 2))
    first = forbidden_operator(iso)
    assert constant_admissibility(iso, phi) is True
    assert len(domain_calls) == 1
    # A copy gives the same values.
    second = forbidden_operator(dataclasses.replace(iso))
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("defect", [1, 2, 3])
def test_dimension_40_pairs_clear_the_fixed_vector_gate_without_an_svd(
        defect, domain_calls, orth_calls):
    for seed in range(4):
        assert build_isometric_pair(
            e3_class(40, defect, seed).pair).defect_dim == defect
    assert domain_calls == [] and orth_calls == []


@pytest.mark.parametrize("t, subspace_tol, kept", [
    ((-0.5j,), 1e-9, 1), ((-1j,), 1e-9, 0), ((0.06j, -0.12j), 0.75, 1)])
def test_the_cayley_range_svd_runs_only_where_the_rank_bound_fails(
        t, subspace_tol, kept, orth_calls):
    # |action| = 1/3 misses ||action^H action - E||_F <= 1/2, so the SVD
    # decides: it keeps the column at 1/3, and loses it at exactly 0.  The
    # singular values 1.128 and 0.786 clear the bound, but a cut at 0.75
    # drops the smaller one, so the bound holds only below a cut of 1/2.
    pair = _sub_tolerance_pair(*t)
    tolerances = Tolerances(subspace_tol=subspace_tol)
    if kept == len(t):
        cay = cayley(pair, tolerances=tolerances)
        assert cay.range.shape == cay.ninf.shape == (2, 1)
        assert abs(abs(cay.action[0, 0]) - 1.0 / 3.0) < 1e-12
        assert len(orth_calls) == 1
    else:
        message = (rf"^Cayley range of A1 lost dimension "
                   rf"\({kept} != {len(t)}\)$")
        for build in (cayley, build_isometric_pair, oracles.cayley_data_svd):
            with pytest.raises(StructureViolationError, match=message):
                build(pair, tolerances=tolerances)
        assert len(orth_calls) == 2


def _outcome(call):
    """``call()``, or the class and message of the library error it raises."""
    try:
        return call()
    except Moment2dError as exc:
        return type(exc), str(exc)


def _reports(pair) -> list:
    return [io.report_to_json(r) for r in solve_canonical(
        pair, sampler=SamplerSpec("exhaustive-phases", phases=4))]


def _assert_cayley_data_matches_the_svd_oracle(pair, tolerances, monkeypatch,
                                               compare_reports=False):
    """``cayley`` and ``build_isometric_pair`` against the three-SVD data
    of ``oracles.cayley_data_svd``, which ``build_isometric_pair`` takes in
    place of ``cayley`` for the second outcome.  Returns the reports of
    ``solve_canonical`` if ``compare_reports``."""
    got = _outcome(lambda: cayley(pair, tolerances=tolerances))
    want = _outcome(lambda: oracles.cayley_data_svd(pair, tolerances))
    if not isinstance(got, CayleyIsometry):
        assert got == want
        return None
    want, n0 = want
    assert got.domain.tobytes() == want.domain.tobytes()
    assert got.action.tobytes() == want.action.tobytes()
    for a, b in ((got.range, want.range), (got.ninf, want.ninf)):
        assert a.shape == b.shape
        assert np.max(np.abs(a @ a.conj().T - b @ b.conj().T)) <= 1e-12
    d = got.ninf.shape[1]
    assert np.max(np.abs(got.ninf.conj().T @ got.ninf - np.eye(d)),
                  initial=0.0) <= 1e-12
    assert np.max(np.abs(got.ninf.conj().T @ got.action),
                  initial=0.0) <= 1e-12

    def run():
        iso = _outcome(lambda: build_isometric_pair(pair,
                                                    tolerances=tolerances))
        return iso, (_outcome(lambda: _reports(pair)) if compare_reports
                     else None)
    got_iso, got_reports = run()
    with monkeypatch.context() as patch:
        patch.setattr(importlib.import_module("moment2d.cayley"), "cayley",
                      lambda *args, **kwargs: want)
        want_iso, want_reports = run()
    assert got_reports == want_reports
    if isinstance(want_iso, tuple):
        assert got_iso == want_iso
    else:
        assert got_iso.n0_basis.tobytes() == n0.tobytes()
        assert want_iso.n0_basis.tobytes() == n0.tobytes()
        assert got_iso.ninf_basis.tobytes() == got.ninf.tobytes()
    return got_reports


@pytest.mark.parametrize("dim", [10, 20, 40, 120])
def test_e3_class_cayley_data_and_reports_match_the_svd_oracle(
        dim, monkeypatch):
    for defect in (1, 2, 3):
        assert len(_assert_cayley_data_matches_the_svd_oracle(
            e3_class(dim, defect, 0).pair, DEFAULT_TOLERANCES, monkeypatch,
            compare_reports=True)) == 4


@pytest.mark.parametrize("subspace_tol", [1e-9, 1e-6])
@pytest.mark.parametrize("basis_scale", [1.0, 1.5])
@pytest.mark.parametrize("family", [
    _scaled_a1_pair, functools.partial(_scaled_a1_pair, leave=10.0),
    _off_domain_a1_pair], ids=["leave-0.1", "leave-10", "off-domain"])
def test_cayley_data_matches_the_svd_oracle_across_norms(
        subspace_tol, basis_scale, family, monkeypatch):
    tolerances = Tolerances(subspace_tol=subspace_tol)
    for norm in np.geomspace(1.0, 1e10, 61):
        _assert_cayley_data_matches_the_svd_oracle(
            family(norm, basis_scale), tolerances, monkeypatch,
            compare_reports=norm < 1e3)
    for pair in [_scalar_pair()] + [_sub_tolerance_pair(t)
                                    for t in (-0.5j, -1j, 0.5)]:
        _assert_cayley_data_matches_the_svd_oracle(pair, tolerances,
                                                   monkeypatch)


def _dependent_basis_pair(columns: np.ndarray, seed: int,
                          off: float = 0.0) -> SymmetricPair:
    """Dimension 3, A2 = 0, ``a1_domain = columns`` and ``a1_action = A1
    columns`` for a random Hermitian ``A1``, plus ``off e2`` in the second
    column, which keeps ``Q^H T`` Hermitian while ``Q`` repeats ``e1``."""
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    e = np.eye(3, dtype=complex)
    t = (h + h.conj().T) @ columns
    t[:, 1] += off * e[:, 1]
    return SymmetricPair(dim=3, a1_domain=columns, a1_action=t, a2_domain=e,
                         a2_action=np.zeros_like(e), h00=e[:, 0], j_matrix=e)


@pytest.mark.parametrize("columns, off", [
    (np.eye(3, dtype=complex)[:, [0, 0]], 0.0),
    (np.eye(3, dtype=complex)[:, [0, 0]], 1.0),
    (np.array([[1, 1], [0, 0], [0, 1e-18]], dtype=complex), 0.0),
], ids=["e1-e1", "e1-e1-inconsistent", "e1-e1+1e-18e3"])
def test_cayley_refuses_a_domain_basis_without_full_column_rank(columns, off):
    for seed in range(5):
        pair = _dependent_basis_pair(columns, seed, off)
        for call in (cayley, build_isometric_pair, lambda p: next(
                solve_canonical(p, SamplerSpec("exhaustive-phases",
                                               phases=4)))):
            with pytest.raises(StructureViolationError,
                               match="a1_domain does not have full column "
                                     "rank"):
                call(pair)


def test_the_domain_rank_qr_runs_only_past_the_gram_bound(monkeypatch):
    modes = []
    real = np.linalg.qr

    def counted(a, mode="reduced"):
        modes.append(mode)
        return real(a, mode=mode)
    monkeypatch.setattr(np.linalg, "qr", counted)
    for defect in (1, 2, 3):
        build_isometric_pair(e3_class(40, defect, 0).pair)
    assert "r" not in modes
    for pair in (_scaled_a1_pair(10.0, 1.5), _sub_tolerance_pair(0.5, -0.5)):
        modes.clear()
        cayley(pair)
        assert modes.count("r") == 1


def test_a_fixed_vector_at_defect_zero_is_not_refused():
    # A1 = diag(1e10, 0.5, -1) is self-adjoint: no forbidden operator is
    # needed, and the pair resolvent still matches the atomic sum.
    points = np.array([[1e10, 0.3], [0.5, -0.7], [-1.0, 1.1]])
    pair = _full_pair(np.diag(points[:, 0]), np.diag(points[:, 1]),
                      np.ones(3) / np.sqrt(3.0))
    iso = build_isometric_pair(pair)
    assert iso.defect_dim == 0
    assert iso.operator_domain().shape == (3, 2)
    prepared = prepare_pair(iso, ContractionParameter.const(np.zeros((0, 0))))
    value = np.vdot(pair.h00,
                    pair_resolvent_symmetric(prepared, 2j, 1 + 1j) @ pair.h00)
    expected = oracles.herglotz_kernel_sum(points, np.full(3, 1 / 3), 2j,
                                           1 + 1j)
    assert abs(value - expected) < 1e-12 * abs(expected)


#: (dim, defect) of the seeded e3_class pairs checked against the general
#: definition of the forbidden operator.
ORACLE_PAIRS = [(3, 1), (3, 2), (4, 3), (5, 1), (6, 2), (9, 3), (12, 1),
                (20, 2), (40, 3), (80, 1), (80, 3)]


@pytest.mark.parametrize("subspace_tol", [1e-9, 1e-6])
def test_admissibility_matches_the_general_definition(subspace_tol):
    tolerances = Tolerances(subspace_tol=subspace_tol)
    rng = np.random.default_rng(7)
    verdicts = {True: 0, False: 0}
    for seed, (dim, defect) in enumerate(ORACLE_PAIRS, start=1):
        iso = build_isometric_pair(e3_class(dim, defect, seed).pair)
        # The two facts the d x d test rests on: Ninf (+) D(A) is the
        # whole space, and X is a unitary C from N0 onto Ninf.
        assert iso.operator_domain(
            tolerances=tolerances).shape[1] == dim - defect
        psi_basis, x_matrix = forbidden_operator(iso, tolerances=tolerances)
        assert psi_basis is iso.n0_basis
        c = (iso.ninf_basis.conj().T @ x_matrix @ psi_basis.conj().T
             @ iso.n0_basis)
        assert np.linalg.norm(c.conj().T @ c - np.eye(defect)) <= 1e-12
        x_operator, _ = oracles.forbidden_admissibility(iso, c, subspace_tol)
        assert np.max(np.abs(x_matrix @ psi_basis.conj().T
                             - x_operator)) < 1e-10
        haar = haar_unitary(defect, rng)
        u = rng.normal(size=defect) + 1j * rng.normal(size=defect)
        u /= np.linalg.norm(u)
        # Unitary perturbations C exp(i eps H), ||H|| <= 2, cross the
        # rank cut of the test (1e-9) for eps near 1e-9; the shrunk
        # (1 - eps) C cross the norm test (1 - 1e-8) for eps near 5e-9.
        w = haar_unitary(defect, rng)
        h = w @ np.diag(rng.uniform(0.5, 2.0, size=defect)) @ w.conj().T
        values = [c, 0.5 * c, haar, c @ haar, c @ np.outer(u, u.conj())]
        for eps in (1e-11, 3e-10, 9e-10, 1.5e-9, 3e-9, 1e-8, 1e-7):
            values += [c @ scipy.linalg.expm(1j * eps * h), (1 - eps) * c]
        for value in values:
            admissible = constant_admissibility(
                iso, ContractionParameter.const(value), tolerances=tolerances)
            assert admissible is oracles.forbidden_admissibility(
                iso, value, subspace_tol)[1]
            verdicts[admissible] += 1
        # In the numerical kernel at subspace_tol 1e-6, but shrunk.
        assert constant_admissibility(
            iso, ContractionParameter.const((1 - 1e-7) * c),
            tolerances=tolerances) is True
    assert min(verdicts.values()) > 0


def test_commutation_check_detects_defect_coupling():
    pair = _two_block_pair()
    iso = build_isometric_pair(pair)
    assert iso.defect_dim == 2
    ext = canonical_extension(pair, iso, np.eye(2, dtype=complex))
    phi_good = iso.ninf_basis.conj().T @ ext.u24
    assert is_unitary(phi_good, 1e-9)
    assert commutation_check(iso, ContractionParameter.const(phi_good))
    # Swapping the defect channels breaks commutation because the two
    # blocks carry distinct A2 eigenvalues.
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    phi_bad = ContractionParameter.const(phi_good @ swap)
    assert not commutation_check(iso, phi_bad)
    with pytest.raises(CommutationViolatedError):
        prepare_pair(iso, phi_bad)


def test_explicit_extension_matches_oracle():
    pair = _two_block_pair()
    iso = build_isometric_pair(pair)
    ext = canonical_extension(pair, iso, np.eye(2, dtype=complex))
    phi_good = iso.ninf_basis.conj().T @ ext.u24
    lib = extend_isometry(iso, ContractionParameter.const(phi_good))
    direct = oracles.explicit_extension_matrix(iso, phi_good)
    assert np.max(np.abs(lib - direct)) < 1e-12


def test_per_parameter_gates_run_after_the_pair_data_is_cached():
    pair = _two_block_pair()
    iso = build_isometric_pair(pair)
    canonical_extension(pair, iso, np.eye(2, dtype=complex))
    assert "u24" in vars(iso) and "v_matrix" in vars(iso)
    # W2 has two distinct eigenvalues, so swapping the channels does not
    # commute with it.
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(CommutationViolatedError,
                       match=r"^U2 does not commute with W2 \(residual "):
        canonical_extension(pair, iso, swap)
    with pytest.raises(NotUnitaryError):
        canonical_extension(pair, iso, 0.5 * np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match=r"expected \(2, 2\)"):
        canonical_extension(pair, iso, np.eye(1, dtype=complex))


def test_a_failing_pair_level_gate_raises_on_every_parameter():
    pair = _two_block_pair()
    iso = dataclasses.replace(build_isometric_pair(pair),
                              j_matrix=2.0 * np.eye(6, dtype=complex))
    for phase in (1.0, -1.0):
        with pytest.raises(StructureViolationError,
                           match=r"^U24 is not isometric \(residual "):
            canonical_extension(pair, iso, phase * np.eye(2, dtype=complex))
    assert "u24" not in vars(iso)


def test_isometric_pairs_never_share_cached_data():
    pair = _two_block_pair()
    first = build_isometric_pair(pair)
    second = build_isometric_pair(pair)
    other = build_isometric_pair(e3().pair)
    names = ("u24", "v_matrix")
    data = [{name: getattr(iso, name) for name in names}
            for iso in (first, second, other)]
    for name in names:
        assert getattr(first, name) is data[0][name]
    for a, b in ((0, 1), (0, 2), (1, 2)):
        for name in names:
            assert data[a][name] is not data[b][name]
            assert not np.shares_memory(data[a][name], data[b][name])
    assert np.array_equal(data[0]["u24"], data[1]["u24"])
    # A copy starts without the cache of the instance it was made from.
    assert not set(names) & vars(dataclasses.replace(first)).keys()
    # The shared arrays cannot be written through an extension.
    ext = canonical_extension(pair, first, np.eye(2, dtype=complex))
    assert ext.u24 is data[0]["u24"]
    with pytest.raises(ValueError, match="read-only"):
        ext.u24[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        first.w2[0, 0] = 0.0


def test_a2_range_gate_reads_sigma_min_of_u_minus_e_from_eigenvalues():
    rng = np.random.default_rng(11)
    for n, scale in ((3, 1.0), (10, 1e3), (40, 1e6)):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a2 = scale * (g + g.conj().T) / 2
        eye = np.eye(n)
        u = (a2 + 1j * eye) @ np.linalg.inv(a2 - 1j * eye)
        sigma_min = np.linalg.svd(u - eye, compute_uv=False)[-1]
        lam = np.max(np.abs(np.linalg.eigvalsh(a2)))
        assert 2.0 / np.hypot(1.0, lam) == pytest.approx(sigma_min,
                                                         rel=1e-9)


def test_u_matches_the_inverse_formula_and_the_spectrum_is_shared():
    """``U`` comes from the pair's eigendecomposition of ``A2``; it agrees
    with ``(A2 + i)(A2 - i)^-1`` on seeded pairs of dimension 5-240 and
    on one whose ``A2`` has the eigenvalue 1.9e8, just inside the range
    gate (``2 / FIXED_POINT_TOL`` = 2e8)."""
    from moment2d.cayley import A2_OUT_OF_RANGE

    def gap(pair):
        u = build_isometric_pair(pair).u_matrix
        return np.linalg.norm(u - oracles.cayley_unitary(
            pair.a2_matrix)) / np.sqrt(pair.dim)

    for setup in ((5, 1, 0), (10, 2, 1), (20, 3, 2), (40, 1, 3),
                  (120, 2, 4), (240, 3, 5)):
        assert gap(e3_class(*setup).pair) <= 1e-13
    pair = e3_class(10, 2, 1).pair
    top = np.max(np.abs(np.linalg.eigvalsh(pair.a2_matrix)))
    big = dataclasses.replace(pair, a2_action=pair.a2_action * (1.9e8 / top))
    assert np.max(np.abs(big.a2_spectrum[0])) == pytest.approx(1.9e8)
    assert gap(big) <= 1e-13
    # One read-only decomposition per pair, kept on the instance.
    b, q = pair.a2_spectrum
    assert pair.a2_spectrum[0] is b and pair.a2_spectrum[1] is q
    for arr in (b, q):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    # Just outside the gate every access raises and nothing is kept.
    lam = 2.0 / FIXED_POINT_TOL * (1.0 + 1e-6)
    out = _full_pair(np.diag([0.5, -1.0]), np.diag([lam, 0.5]))
    for access in (lambda: out.a2_spectrum, lambda: build_isometric_pair(out),
                   lambda: out.a2_spectrum):
        with pytest.raises(StructureViolationError,
                           match=f"^{re.escape(A2_OUT_OF_RANGE)}$"):
            access()
        assert "a2_spectrum" not in vars(out)
