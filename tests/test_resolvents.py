from __future__ import annotations

import numpy as np
import pytest

from moment2d import (
    AdmissibilityFailedError,
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


def test_factor_memo_is_bit_identical_in_any_order_and_past_its_bound():
    iso, phi = _identity_extension_pair(5)
    prepared = prepare_pair(iso, phi)
    rng = np.random.default_rng(11)
    pairs = [oracles.random_point_pair(rng) for _ in range(4)]
    grid = [(a, b) for a, _ in pairs for _, b in pairs]
    grid += [(np.conj(a), b) for a, b in grid[:6]]
    assert any(a.imag < 0 for a, _ in grid)
    assert any(a.imag > 0 for a, _ in grid)
    order = [grid[i] for i in rng.permutation(len(grid))]
    # More distinct points than a memo keeps, then the first ones again,
    # which by then are evicted.
    sweep = [oracles.random_point_pair(rng)
             for _ in range(resolvents.FACTOR_MEMO_ENTRIES + 8)]
    points = order + order[::-1] + sweep + sweep[:8] + order
    for lam1, lam2 in points:
        want = oracles.pair_resolvent_symmetric_gated(iso, phi, lam1, lam2)
        assert np.array_equal(
            pair_resolvent_symmetric(prepared, lam1, lam2), want)
    assert len(prepared._rows) == resolvents.FACTOR_MEMO_ENTRIES
    assert len(prepared._cols) == resolvents.FACTOR_MEMO_ENTRIES


def test_memoized_factors_are_read_only_and_results_are_fresh():
    iso, phi = _identity_extension_pair(5)
    prepared = prepare_pair(iso, phi)
    for lam1, lam2 in ((2j, 0.5 + 2j), (-1 - 2j, 0.5 + 2j)):
        want = pair_resolvent_symmetric(prepared, lam1, lam2)
        got = pair_resolvent_symmetric(prepared, lam1, lam2)
        assert got.flags.writeable
        got[...] = 7.0
        assert np.array_equal(pair_resolvent_symmetric(prepared, lam1, lam2),
                              want)
    row = prepared.row(resolvents.cayley_point(2j))
    col = prepared.col(resolvents.cayley_point(0.5 + 2j))
    for factor in (row, col):
        assert not factor.flags.writeable
        with pytest.raises(ValueError):
            factor[0, 0] = 0.0
    assert prepared.row(resolvents.cayley_point(2j)) is row


def test_factor_memo_keys_keep_the_sign_of_zero(monkeypatch):
    iso, phi = _identity_extension_pair(5)
    prepared = prepare_pair(iso, phi)
    solves = []
    real = resolvents._extended_resolvent

    def counted(full, z):
        solves.append(z)
        return real(full, z)

    monkeypatch.setattr(resolvents, "_extended_resolvent", counted)
    for z in (complex(0.5, 0.0), complex(0.5, -0.0), complex(0.5, 0.0)):
        prepared.row(z)
    assert len(solves) == 2
    assert "_rows" not in repr(prepared)


def test_singular_factor_is_not_memoized(monkeypatch):
    iso, phi = _identity_extension_pair(5)
    prepared = prepare_pair(iso, phi)
    calls = []

    def singular(full, z):
        calls.append(z)
        raise SingularMatrixError(f"resolvent singular at z = {z}")

    monkeypatch.setattr(resolvents, "_extended_resolvent", singular)
    for _ in range(2):
        with pytest.raises(SingularMatrixError):
            pair_resolvent_symmetric(prepared, 2j, 0.5 + 2j)
    assert len(calls) == 2 and not prepared._rows


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
            # Relative to the size of the terms: at lambda2 = 1e13j,
            # 1 - z2 = 2e-13 holds 3 digits, so E + z2 U cancels where U
            # has the eigenvalue -1 (e3: A2 has the eigenvalue 0).
            z1, z2 = (resolvents.cayley_point(lam) for lam in (
                (lam1, lam2) if lam1.imag > 0 else np.conj((lam1, lam2))))
            scale = (np.linalg.norm(h) ** 2 * np.linalg.norm(plain.row(z1))
                     * 2.0 * np.linalg.norm(np.linalg.inv(
                         np.eye(iso.dim) - z2 * iso.u_matrix)))
            assert np.linalg.norm(got - want) <= 1e-13 * scale
        for lam1, lam2 in excluded:
            with pytest.raises(ExcludedPointError):
                pair_resolvent_symmetric(prepared, lam1, lam2)
        k = h.shape[1]
        assert prepared._rows and prepared._cols
        assert {r.shape for r in prepared._rows.values()} == {(k, iso.dim)}
        assert {c.shape for c in prepared._cols.values()} == {(iso.dim, k)}


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
