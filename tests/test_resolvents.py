from __future__ import annotations

import numpy as np
import pytest

from moment2d import (
    AdmissibilityFailedError,
    AtomicMeasure,
    CommutationViolatedError,
    ContractionParameter,
    ExcludedPointError,
    FixedPointError,
    IndexOutOfRangeError,
    NotSupportedError,
    SingularMatrixError,
    TrigMomentTable,
    build_isometric_pair,
    canonical_extension,
    chumakin_resolvent,
    e1,
    e2,
    e3,
    e3_class,
    joint_spectral_measure,
    pair_resolvent_of_measure,
    pair_resolvent_symmetric,
    pair_resolvent_unitary,
    prepare_pair,
    trig_moments_from_resolvent,
    unitary_moebius,
)
from moment2d import SymmetricPair, resolvents

import oracles


def _scalar_pair() -> SymmetricPair:
    return SymmetricPair(dim=1,
                         a1_domain=np.zeros((1, 0), dtype=complex),
                         a1_action=np.zeros((1, 0), dtype=complex),
                         a2_domain=np.eye(1, dtype=complex),
                         a2_action=np.zeros((1, 1), dtype=complex),
                         h00=np.array([1.0 + 0j]),
                         j_matrix=np.eye(1, dtype=complex))


def _empty_phi(iso) -> ContractionParameter:
    return ContractionParameter.const(
        np.zeros((iso.ninf_basis.shape[1], iso.n0_basis.shape[1]),
                 dtype=complex))


def test_chumakin_resolvent_of_scalar_parameters():
    iso = build_isometric_pair(_scalar_pair())
    zero = ContractionParameter.const(np.zeros((1, 1), dtype=complex))
    assert chumakin_resolvent(iso, zero, 0.3)[0, 0] == pytest.approx(1.0)
    # With parameter value p the extension is multiplication by p, so the
    # resolvent is the geometric series 1/(1 - z p).
    for p in (-1.0, 0.5, 0.3j):
        phi = ContractionParameter.const(np.array([[p]], dtype=complex))
        for z in (0.25, -0.4 + 0.2j):
            got = chumakin_resolvent(iso, phi, z)[0, 0]
            assert got == pytest.approx(1.0 / (1.0 - z * p), abs=1e-13)
    with pytest.raises(ExcludedPointError):
        chumakin_resolvent(iso, zero, 1.0)


def test_chumakin_resolvent_is_analytic_in_z():
    iso = build_isometric_pair(_scalar_pair())
    phi = ContractionParameter.const(np.array([[0.3 + 0.1j]], dtype=complex))
    z0, h = 0.2 + 0.1j, 1e-5
    d_real = (chumakin_resolvent(iso, phi, z0 + h)[0, 0]
              - chumakin_resolvent(iso, phi, z0 - h)[0, 0]) / (2 * h)
    d_imag = (chumakin_resolvent(iso, phi, z0 + 1j * h)[0, 0]
              - chumakin_resolvent(iso, phi, z0 - 1j * h)[0, 0]) / (2j * h)
    p = 0.3 + 0.1j
    exact = p / (1.0 - z0 * p) ** 2
    assert abs(d_real - exact) < 1e-8
    assert abs(d_imag - exact) < 1e-8


def test_unitary_moebius_values():
    got = unitary_moebius(np.diag([1j, -1j]), 0.5)
    expected = np.diag([0.6 + 0.8j, 0.6 - 0.8j])
    assert np.max(np.abs(got - expected)) < 1e-12
    assert unitary_moebius(np.zeros((0, 0)), 0.5).shape == (0, 0)
    with pytest.raises(SingularMatrixError):
        unitary_moebius(np.diag([1j, -1j]), np.exp(0.3j))


def test_pair_resolvent_unitary_scalar_case():
    minus = np.array([[-1.0 + 0j]])
    got = pair_resolvent_unitary(minus, minus, np.eye(1), 1 / 3, 1 / 3)
    assert got[0, 0] == pytest.approx(0.25, abs=1e-14)
    with pytest.raises(CommutationViolatedError):
        pair_resolvent_unitary(np.diag([1j, -1j]),
                               np.array([[0, 1], [1, 0]], dtype=complex),
                               np.eye(2), 0.3, 0.3)


def test_origin_atom_resolvent_closed_form():
    iso = build_isometric_pair(e1().pair)
    prepared = prepare_pair(iso, _empty_phi(iso))
    rng = np.random.default_rng(5)
    for _ in range(10):
        lam1, lam2 = oracles.random_point_pair(rng)
        got = pair_resolvent_symmetric(prepared, lam1, lam2)[0, 0]
        assert abs(got - 1.0 / (lam1 * lam2)) < 1e-12
    assert pair_resolvent_symmetric(prepared, 2j, 2j)[0, 0] == pytest.approx(
        -0.25, abs=1e-14)


def test_two_point_resolvent_matches_measure_sum():
    scenario = e2()
    iso = build_isometric_pair(scenario.pair)
    prepared = prepare_pair(iso, _empty_phi(iso))
    h00 = scenario.pair.h00
    rng = np.random.default_rng(6)
    for _ in range(10):
        lam1, lam2 = oracles.random_point_pair(rng)
        mat = pair_resolvent_symmetric(prepared, lam1, lam2)
        got = complex(np.vdot(h00, mat @ h00))
        want = oracles.scalar_pair_resolvent(scenario.measure, lam1, lam2)
        assert abs(got - want) < 1e-11
        lib = pair_resolvent_of_measure(scenario.measure, lam1, lam2)
        assert abs(lib - want) < 1e-12


def test_dense_domain_resolvent_equals_product_of_resolvents():
    pair = e2().pair
    iso = build_isometric_pair(pair)
    prepared = prepare_pair(iso, _empty_phi(iso))
    b1 = pair.full_matrix(1)
    b2 = pair.full_matrix(2)
    rng = np.random.default_rng(7)
    for _ in range(5):
        lam1, lam2 = oracles.random_point_pair(rng)
        got = pair_resolvent_symmetric(prepared, lam1, lam2)
        want = oracles.resolvent_product(b1, b2, lam1, lam2)
        assert np.max(np.abs(got - want)) < 1e-11


def test_truncated_operator_resolvent_matches_explicit_extension():
    scenario = e3()
    pair = scenario.pair
    iso = build_isometric_pair(pair)
    rng = np.random.default_rng(8)
    for phase in (1.0, 1j, np.exp(0.7j)):
        u2 = np.array([[phase]], dtype=complex)
        ext = canonical_extension(pair, iso, u2)
        phi_mat = iso.ninf_basis.conj().T @ ext.u24 @ u2
        prepared = prepare_pair(iso, ContractionParameter.const(phi_mat))
        b1 = ext.a1_tilde
        b2 = pair.full_matrix(2)
        for _ in range(5):
            lam1, lam2 = oracles.random_point_pair(rng)
            got = pair_resolvent_symmetric(prepared, lam1, lam2)
            want = oracles.resolvent_product(b1, b2, lam1, lam2)
            assert np.max(np.abs(got - want)) < 1e-10


def test_adjoint_relation_between_conjugate_points():
    scenario = e3()
    iso = build_isometric_pair(scenario.pair)
    ext = canonical_extension(scenario.pair, iso, np.eye(1, dtype=complex))
    prepared = prepare_pair(iso, ContractionParameter.const(
        iso.ninf_basis.conj().T @ ext.u24))
    rng = np.random.default_rng(9)
    for _ in range(10):
        lam1, lam2 = oracles.random_point_pair(rng)
        left = pair_resolvent_symmetric(prepared, lam1, lam2).conj().T
        right = pair_resolvent_symmetric(prepared,
                                         np.conj(lam1), np.conj(lam2))
        assert np.max(np.abs(left - right)) < 1e-11


def _identity_extension_pair(dim: int, defect: int = 2):
    """First ``e3_class(dim, defect, seed)`` whose identity commutant
    element gives a canonical extension, with that extension's parameter."""
    for seed in range(100):
        pair = e3_class(dim, defect, seed).pair
        iso = build_isometric_pair(pair)
        try:
            ext = canonical_extension(pair, iso, np.eye(defect, dtype=complex))
        except FixedPointError:
            continue
        return iso, ContractionParameter.const(
            iso.ninf_basis.conj().T @ ext.u24)
    raise AssertionError(f"no admissible e3_class pair of dim {dim}")


@pytest.mark.parametrize("dim", [5, 20, 40])
def test_prepared_pair_is_bit_identical_to_gating_every_point(dim):
    iso, phi = _identity_extension_pair(dim)
    prepared = prepare_pair(iso, phi)
    rng = np.random.default_rng(dim)
    points = [oracles.random_point_pair(rng) for _ in range(8)]
    points += [(np.conj(a), b) for a, b in points[:4]]
    # |z1| rounds to 1 at these lambda1, in both half-planes.
    points += [(1e9 + 1j, 0.5 + 2j), (1e9 - 1j, -0.5 - 1.5j)]
    assert any(a.imag < 0 for a, _ in points)
    for lam1, lam2 in points:
        want = oracles.pair_resolvent_symmetric_gated(iso, phi, lam1, lam2)
        assert np.array_equal(
            pair_resolvent_symmetric(prepared, lam1, lam2), want)


@pytest.mark.parametrize("k", [1, 3, None])
def test_grid_is_bit_identical_to_the_gated_oracle_in_any_order(k):
    iso, phi = _identity_extension_pair(5)
    rng = np.random.default_rng(11)
    h = (None if k is None
         else rng.normal(size=(5, k)) + 1j * rng.normal(size=(5, k)))
    prepared = prepare_pair(iso, phi, h_embed=h)
    pairs = [oracles.random_point_pair(rng) for _ in range(70)]
    lam1 = [a for a, _ in pairs] + [np.conj(a) for a, _ in pairs[:6]]
    lam2 = [b for _, b in pairs]
    # More distinct points than the factor memo of earlier versions kept.
    assert len(set(lam1)) > 64 and len(set(lam2)) > 64
    assert {a.imag > 0 for a in lam1} == {b.imag > 0 for b in lam2} == {
        True, False}
    grid = pair_resolvent_symmetric(prepared, lam1, lam2)
    assert grid.shape == (len(lam1), len(lam2), k or 5, k or 5)
    # Every lambda1 and every lambda2 against the oracle at least once.
    cells = {(i, i % len(lam2)) for i in range(len(lam1))}
    cells |= {((7 * j + 3) % len(lam1), j) for j in range(len(lam2))}
    for i, j in sorted(cells):
        want = oracles.pair_resolvent_symmetric_gated(
            iso, phi, lam1[i], lam2[j], h_embed=h)
        assert np.array_equal(grid[i, j], want)
    p1, p2 = rng.permutation(len(lam1)), rng.permutation(len(lam2))
    permuted = pair_resolvent_symmetric(
        prepared, [lam1[i] for i in p1], [lam2[j] for j in p2])
    assert np.array_equal(permuted, grid[p1][:, p2])
    for i, j in ((0, 0), (len(lam1) - 1, 5)):
        assert np.array_equal(
            pair_resolvent_symmetric(prepared, lam1[i], lam2[j]), grid[i, j])


@pytest.mark.parametrize("dim", [5, 20, 40])
def test_grid_agrees_with_the_moebius_oracle_at_well_conditioned_points(dim):
    # The Moebius column (E - z2 U)^{-1} (E + z2 U) and the lambda form
    # are the same function; apart from the real axis and +-i both are
    # accurate, so they agree to rounding.  At the largest lambda2, where
    # the unscaled lambda2 b would overflow, no eigenvalue of A2 is near 0
    # here, so the Moebius column is accurate there too.
    iso, phi = _identity_extension_pair(dim)
    assert np.min(np.abs(iso.a2_spectrum[0])) > 1e-3
    rng = np.random.default_rng(dim + 1)
    pairs = [oracles.random_point_pair(rng) for _ in range(8)]
    lam1 = [a for a, _ in pairs]
    lam2 = [b for _, b in pairs] + [1e308j, -1e300 - 1.7e308j]
    assert {a.imag > 0 for a in lam1} == {b.imag > 0 for b in lam2} == {
        True, False}
    wide = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    for h in (None, wide, iso.v_domain[:, :1]):
        grid = pair_resolvent_symmetric(prepare_pair(iso, phi, h_embed=h),
                                        lam1, lam2)
        for i, a in enumerate(lam1):
            for j, b in enumerate(lam2):
                want = oracles.pair_resolvent_symmetric_moebius(
                    iso, phi, a, b, h_embed=h)
                assert np.linalg.norm(grid[i, j] - want) <= (
                    1e-12 * np.linalg.norm(want)), (a, b)


def test_results_are_writable_and_fresh():
    iso, phi = _identity_extension_pair(5)
    prepared = prepare_pair(iso, phi)
    for lam1, lam2 in ((2j, 0.5 + 2j), (-1 - 2j, 0.5 + 2j),
                       ([2j, -1 - 2j], [0.5 + 2j])):
        want = pair_resolvent_symmetric(prepared, lam1, lam2)
        got = pair_resolvent_symmetric(prepared, lam1, lam2)
        assert got.flags.writeable
        got[...] = 7.0
        assert np.array_equal(pair_resolvent_symmetric(prepared, lam1, lam2),
                              want)


def test_grid_shape_follows_the_arguments():
    iso, phi = _identity_extension_pair(5)
    prepared = prepare_pair(iso, phi, h_embed=np.eye(5, 2, dtype=complex))
    for lam1, lam2, shape in ((2j, 3j, (2, 2)), ([2j], 3j, (1, 2, 2)),
                              (2j, [3j, 1 - 1j], (2, 2, 2)),
                              ([2j, 1 - 1j], [3j], (2, 1, 2, 2)),
                              ([], [3j], (0, 1, 2, 2)),
                              ([2j], [], (1, 0, 2, 2))):
        assert pair_resolvent_symmetric(prepared, lam1, lam2).shape == shape
    # The first excluded point of lambda1, then of lambda2, as one by one.
    for lam1, lam2, message in (
            ([2j, 1j], [0.5, 3j],
             "lambda1 = 1j lies in the excluded neighborhood of i"),
            ([2j, -2j], [3j, 0.5, 1.5],
             "lambda2 = (0.5+0j) lies on the real axis")):
        with pytest.raises(ExcludedPointError) as caught:
            pair_resolvent_symmetric(prepared, lam1, lam2)
        assert str(caught.value) == message


@pytest.mark.parametrize("k", [1, None])
def test_grid_is_solved_in_slices_under_the_cell_cap(monkeypatch, k):
    iso, phi = _identity_extension_pair(20)
    prepared = prepare_pair(iso, phi, h_embed=None if k is None
                            else np.ones((20, k), dtype=complex))
    rng = np.random.default_rng(4)
    pairs = [oracles.random_point_pair(rng) for _ in range(9)]
    lam1, lam2 = [a for a, _ in pairs[:7]], [b for _, b in pairs]
    want = pair_resolvent_symmetric(prepared, lam1, lam2)
    cap = 3 * 20 ** 2
    monkeypatch.setattr(resolvents, "CHUNK_CELLS", cap)
    sizes = []
    real = np.linalg.solve

    def solve(a, b):
        sizes.append((a.size, np.size(b)))
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    got = pair_resolvent_symmetric(prepared, lam1, lam2)
    assert np.array_equal(got, want)
    # Slices of at most 3 points: the 7 z1 take three solves, each with
    # one right-hand side block per point; the lambda2 take none.
    width = 20 * (k or 20)
    assert sizes == [(cap, 3 * width)] * 2 + [(20 ** 2, width)]


def test_points_that_differ_in_the_sign_of_zero_are_solved_apart(
        monkeypatch):
    iso, phi = _identity_extension_pair(5)
    prepared = prepare_pair(iso, phi)
    # The z of 0.5j and of -0.0 + 0.5j differ only in the sign of the zero
    # imaginary part.
    lam = [complex(0.0, 0.5), complex(-0.0, 0.5)]
    z = [resolvents.cayley_point(a) for a in lam]
    assert z[0] == z[1] and str(z[0]) != str(z[1])
    stacks = []
    real = resolvents._solve_stack

    def counted(full, points, *args):
        stacks.append([str(p) for p in points])
        return real(full, points, *args)

    monkeypatch.setattr(resolvents, "_solve_stack", counted)
    grid = pair_resolvent_symmetric(prepared, lam, lam)
    # One row stack with both points; the columns take no solve.
    assert stacks == [[str(p) for p in z]]
    for i, lam1 in enumerate(lam):
        for j, lam2 in enumerate(lam):
            want = oracles.pair_resolvent_symmetric_gated(iso, phi, lam1, lam2)
            assert np.array_equal(grid[i, j].view(np.uint64),
                                  want.view(np.uint64))


def test_every_solve_has_one_right_hand_side_per_matrix(monkeypatch):
    # NumPy 1.x reads a ``b`` one dimension short of ``a`` as a stack of
    # vectors, so every stacked solve must pass ``b`` as deep as ``a``.
    iso, phi = _identity_extension_pair(5)
    calls = []
    real = np.linalg.solve

    def solve(a, b):
        calls.append((np.ndim(a), np.ndim(b)))
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    for h in (None, np.ones((5, 1), dtype=complex)):
        prepared = prepare_pair(iso, phi, h_embed=h)
        for lam1, lam2 in ((2j, 0.5 + 2j), ([2j, -1 - 2j], [0.5 + 2j, 3j])):
            pair_resolvent_symmetric(prepared, lam1, lam2)
    assert chumakin_resolvent(iso, phi, 0.3).shape == (5, 5)
    assert unitary_moebius(iso.u_matrix, 0.3).shape == (5, 5)
    assert calls and all(a == b for a, b in calls)


def test_singular_factor_names_its_point(monkeypatch):
    iso, phi = _identity_extension_pair(5)
    prepared = prepare_pair(iso, phi)
    bad = resolvents.cayley_point(2j)
    real = resolvents._extended_resolvent
    stacks = []

    def singular_at_bad(full, z, *args):
        stacks.append(len(z))
        if bad in z:
            raise np.linalg.LinAlgError("Singular matrix")
        return real(full, z, *args)

    monkeypatch.setattr(resolvents, "_extended_resolvent", singular_at_bad)
    message = f"resolvent singular at z = {bad}"
    with pytest.raises(SingularMatrixError) as caught:
        pair_resolvent_symmetric(prepared, 2j, 0.5 + 2j)
    assert str(caught.value) == message
    assert stacks == [1]
    stacks.clear()
    # 2j and -2j share their z1 but are solved apart: the stack of three
    # fails, 3j solves and -2j names the shared point.
    with pytest.raises(SingularMatrixError) as caught:
        pair_resolvent_symmetric(prepared, [3j, -2j, 2j], [0.5 + 2j, 1j + 2])
    assert str(caught.value) == message
    assert stacks == [3, 1, 1]


def _kernel_cases():
    """``(name, prepared, measure)``: e3 with the identity commutant element
    (``A2 = 0``), and a determinate diagonal pair whose ``A2`` has the
    exact eigenvalues 0.5, -1.25 and 2, both compressed to ``h00``."""
    scenario = e3()
    iso = build_isometric_pair(scenario.pair)
    ext = canonical_extension(scenario.pair, iso, np.eye(1, dtype=complex))
    prepared = prepare_pair(iso, ContractionParameter.const(
        iso.ninf_basis.conj().T @ ext.u24),
        h_embed=scenario.pair.h00[:, None])
    yield "e3", prepared, joint_spectral_measure(
        ext.a1_tilde, scenario.pair.full_matrix(2), scenario.pair.h00)
    t1, t2 = np.array([0.3, -0.7, 1.1]), np.array([0.5, -1.25, 2.0])
    h00 = np.array([0.6, 0.64, 0.48], dtype=complex)
    eye = np.eye(3, dtype=complex)
    pair = SymmetricPair(dim=3, a1_domain=eye, a1_action=np.diag(t1) + 0j,
                         a2_domain=eye, a2_action=np.diag(t2) + 0j,
                         h00=h00, j_matrix=eye)
    iso = build_isometric_pair(pair)
    yield "diagonal", prepare_pair(iso, _empty_phi(iso),
                                   h_embed=h00[:, None]), AtomicMeasure(
        np.column_stack([t1, t2]), np.abs(h00) ** 2)


@pytest.mark.parametrize("case", list(_kernel_cases()),
                         ids=lambda case: case[0])
def test_columns_stay_accurate_at_an_eigenvalue_of_a2_next_to_the_real_axis(
        case):
    # lambda2 = b +- i delta with b an eigenvalue of A2 and delta just past
    # the real-axis cut: E - z2 U is singular to about delta there, while
    # the lambda form divides by b - lambda2 = -+i delta exactly.
    _, prepared, measure = case
    b = prepared.iso.a2_spectrum[0]
    assert set(b) <= set(measure.points[:, 1])
    lam1 = [2j, -1 - 0.5j, 0.3 + 1e3j]
    lam2 = [complex(t, sign * 1.1e-12 * (1 + abs(t))) for t in b
            for sign in (1, -1)]
    grid = pair_resolvent_symmetric(prepared, lam1, lam2)[..., 0, 0]
    assert np.all(np.isfinite(grid))
    for i, a in enumerate(lam1):
        for j, c in enumerate(lam2):
            kernel = pair_resolvent_of_measure(measure, a, c)
            assert abs(kernel) > 1e8
            assert abs(grid[i, j] - kernel) <= 1e-12 * abs(kernel), (a, c)


def _compression_cases():
    scenario = e3()
    iso = build_isometric_pair(scenario.pair)
    ext = canonical_extension(scenario.pair, iso, np.eye(1, dtype=complex))
    yield "e3", iso, ContractionParameter.const(
        iso.ninf_basis.conj().T @ ext.u24), scenario.pair.h00
    for dim in (5, 20, 40):
        for defect in (1, 2, 3):
            iso, phi = _identity_extension_pair(dim, defect)
            yield f"e3_class({dim}, {defect})", iso, phi, None


@pytest.mark.parametrize("case", list(_compression_cases()),
                         ids=lambda case: case[0])
def test_compressed_pair_resolvent_matches_the_gated_oracle(case):
    _, iso, phi, h00 = case
    rng = np.random.default_rng(iso.dim)
    if h00 is None:
        h00 = rng.normal(size=iso.dim) + 1j * rng.normal(size=iso.dim)
    wide = rng.normal(size=(iso.dim, 3)) + 1j * rng.normal(size=(iso.dim, 3))
    points = [oracles.random_point_pair(rng) for _ in range(6)]
    points += [(np.conj(a), b) for a, b in points[:3]]
    points += [(1e13j, 1e13j), (-1e13j, 1e13j), (2 - 1j, 1e13j)]
    assert {a.imag > 0 for a, _ in points} == {True, False}
    excluded = [(0.5, 2j), (2j, -3.0), (1j, 2j), (2j, -1j + 1e-9)]
    plain = prepare_pair(iso, phi)
    for h in (h00[:, None], wide):
        prepared = prepare_pair(iso, phi, h_embed=h)
        for lam1, lam2 in points:
            want = h.conj().T @ oracles.pair_resolvent_symmetric_gated(
                iso, phi, lam1, lam2) @ h
            got = pair_resolvent_symmetric(prepared, lam1, lam2)
            assert got.shape == want.shape
            # Relative to the size of the terms: the column factor
            # (E + z2 U)(E - z2 U)^{-1} has norm at most 2 ||(E - z2 U)^{-1}||.
            z1, z2 = (resolvents.cayley_point(lam) for lam in (
                (lam1, lam2) if lam1.imag > 0 else np.conj((lam1, lam2))))
            row = np.eye(iso.dim) - 2.0 * np.linalg.inv(
                np.eye(iso.dim) - z1 * plain.extended)
            scale = (np.linalg.norm(h) ** 2 * np.linalg.norm(row)
                     * 2.0 * np.linalg.norm(np.linalg.inv(
                         np.eye(iso.dim) - z2 * iso.u_matrix)))
            assert np.linalg.norm(got - want) <= 1e-13 * scale
        for lam1, lam2 in excluded:
            with pytest.raises(ExcludedPointError):
                pair_resolvent_symmetric(prepared, lam1, lam2)
        k = h.shape[1]
        lam1, lam2 = [a for a, _ in points], [b for _, b in points]
        grid = pair_resolvent_symmetric(prepared, lam1, lam2)
        assert grid.shape == (len(points), len(points), k, k)
        for i, (a, b) in enumerate(points):
            assert np.array_equal(
                grid[i, i], pair_resolvent_symmetric(prepared, a, b))


def test_resolvent_rejects_forbidden_parameter():
    iso = build_isometric_pair(_scalar_pair())
    bad = ContractionParameter.const(np.array([[1.0 + 0j]]))
    with pytest.raises(AdmissibilityFailedError):
        prepare_pair(iso, bad)


def test_resolvent_excluded_points():
    iso = build_isometric_pair(e2().pair)
    prepared = prepare_pair(iso, _empty_phi(iso))
    with pytest.raises(ExcludedPointError):
        pair_resolvent_symmetric(prepared, 0.5, 2j)
    with pytest.raises(ExcludedPointError):
        pair_resolvent_symmetric(prepared, 1j, 2j)
    with pytest.raises(ExcludedPointError):
        pair_resolvent_symmetric(prepared, 2j, -1j)
    with pytest.raises(ExcludedPointError):
        pair_resolvent_of_measure(e2().measure, 1.5, 2j)


def test_trig_moments_of_origin_atom():
    scenario = e1()
    iso = build_isometric_pair(scenario.pair)
    table = trig_moments_from_resolvent(iso, _empty_phi(iso),
                                        scenario.pair.h00, 4, 4)
    assert table.mass == pytest.approx(1.0)
    for j in range(-4, 5):
        for k in range(-4, 5):
            assert table.entry(j, k) == pytest.approx(
                (-1.0) ** (j + k), abs=1e-12)
    ok, min_eig = table.psd_check()
    assert ok
    assert min_eig > -1e-10


def test_trig_moments_match_direct_torus_sums():
    scenario = e2()
    iso = build_isometric_pair(scenario.pair)
    table = trig_moments_from_resolvent(iso, _empty_phi(iso),
                                        scenario.pair.h00, 4, 4)
    assert table.entry(1, 1) == pytest.approx(-1.0, abs=1e-12)
    pts = scenario.measure.points
    ws = scenario.measure.weights
    for j in range(-4, 5):
        for k in range(-4, 5):
            want = oracles.trig_moment_direct(pts, ws, j, k)
            assert abs(table.entry(j, k) - want) < 1e-10
    ok, _ = table.psd_check()
    assert ok
    with pytest.raises(IndexOutOfRangeError):
        table.entry(5, 0)


def test_trig_moment_table_validation():
    c = np.ones((3, 3), dtype=complex)
    c[0, 0] = 2.0  # breaks both the bound and the symmetry
    with pytest.raises(ValueError):
        TrigMomentTable(1, 1, c)
    with pytest.raises(ValueError):
        TrigMomentTable(1, 1, -np.ones((3, 3), dtype=complex))
    iso = build_isometric_pair(e1().pair)
    with pytest.raises(NotSupportedError):
        trig_moments_from_resolvent(
            iso, ContractionParameter.pointwise(lambda z: np.zeros((0, 0))),
            e1().pair.h00, 1, 1)


def test_block_toeplitz_equals_entrywise_definition():
    rng = np.random.default_rng(4)
    for order_j, order_k in ((0, 0), (1, 2), (3, 3)):
        shape = (2 * order_j + 1, 2 * order_k + 1)
        c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        c = 0.5 * (c + np.conj(c[::-1, ::-1]))
        c[order_j, order_k] = 1.0 + float(np.max(np.abs(c)))
        table = TrigMomentTable(order_j, order_k, c)
        assert np.array_equal(
            table.block_toeplitz(),
            oracles.block_toeplitz_direct(table.c_full, order_j, order_k))
