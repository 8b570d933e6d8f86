from __future__ import annotations

import numpy as np
import pytest

from moment2d import (
    AtomicMeasure,
    DEFAULT_TOLERANCES,
    DomainCollapseError,
    InconsistentShiftError,
    MomentTable,
    NotPsdError,
    SymmetricPair,
    Tolerances,
    build_gns,
    build_operators,
    e1,
    e2,
    e3,
    e3_class,
    moments_from_pair,
    moments_of_measure,
    random_atomic_measure,
)
from moment2d import io, solutions
from moment2d.cli import main
from moment2d.config import RESIDUAL_GATE
from moment2d.errors import Moment2dError, SingularShiftError
from moment2d.gns import _shift_columns, _shift_operator

import oracles


def _random_measure(rng, k):
    pts = rng.uniform(-2.0, 2.0, size=(k, 2))
    ws = rng.uniform(0.1, 1.0, size=k)
    return AtomicMeasure(pts, ws)


def test_build_gns_reproduces_gram():
    table = e2().table
    space = build_gns(table, 1, 1)
    assert space.rank == 2
    recon = space.coords.T @ space.coords
    assert np.max(np.abs(recon - space.gram)) < 1e-12
    assert space.monomial_index == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_class_vector_norms_match_moments():
    table = e2().table
    space = build_gns(table, 2, 2)
    for m, n in space.monomial_index:
        norm_sq = float(np.vdot(space.class_vector(m, n),
                                space.class_vector(m, n)).real)
        assert norm_sq == pytest.approx(table.entry(2 * m, 2 * n), abs=1e-10)
    with pytest.raises(KeyError):
        space.index_of(5, 0)


def test_build_gns_rejects_indefinite_table():
    bad = MomentTable(2, 2, np.array([[1.0, 0.0, -1.0],
                                      [0.0, 0.0, 0.0],
                                      [-1.0, 0.0, 0.5]]))
    with pytest.raises(NotPsdError):
        build_gns(bad, 1, 1)


def test_two_point_operators_are_the_support_shifts():
    pair = build_operators(build_gns(e2().table, 1, 1))
    # On the support {(1,1), (-1,-1)} both coordinates act identically, so
    # A1 = A2, both are involutions and h00 is cyclic.
    assert pair.dim == 2
    assert pair.a2_selfadjoint
    a1 = pair.full_matrix(1)
    a2 = pair.full_matrix(2)
    assert np.max(np.abs(a1 - a2)) < 1e-10
    assert np.max(np.abs(a1 @ a1 - np.eye(2))) < 1e-10
    assert np.max(np.abs(pair.j_matrix - np.eye(2))) < 1e-12


def test_origin_atom_operators_are_zero():
    table = moments_of_measure(e1().measure, 2, 2)
    pair = build_operators(build_gns(table, 1, 1))
    assert pair.dim == 1
    assert abs(pair.full_matrix(1)[0, 0]) < 1e-12
    assert abs(pair.full_matrix(2)[0, 0]) < 1e-12
    assert pair.h00[0] == pytest.approx(1.0)


def test_defect_indices_of_truncated_operator():
    pair = e3().pair
    assert pair.defect_index(1) == 1
    assert pair.defect_index(2) == 0
    assert pair.a2_selfadjoint
    with pytest.raises(DomainCollapseError):
        pair.full_matrix(1)
    with pytest.raises(ValueError):
        pair.domain(3)


def test_build_operators_requires_shift_room():
    space = build_gns(e2().table, 0, 1)
    with pytest.raises(ValueError):
        build_operators(space)


def test_inconsistent_shift_is_detected():
    # s00 = s10 = s20 forces h10 = h00 in the quotient, yet the table
    # gives the shifted classes h01 and h11 distinct values.
    vals = np.array([[1.0, 0.0, 1.0],
                     [1.0, 0.0, 0.0],
                     [1.0, 0.0, 1.0]])
    space = build_gns(MomentTable(2, 2, vals), 1, 1)
    assert space.rank == 3
    with pytest.raises(InconsistentShiftError):
        build_operators(space)


def test_moments_round_trip_through_quotient():
    rng = np.random.default_rng(7)
    for k in (2, 3, 5):
        mu = _random_measure(rng, k)
        table = moments_of_measure(mu, 6, 6)
        pair = build_operators(build_gns(table, 3, 3))
        back = moments_from_pair(pair, 3, 3)
        assert back.max_m == 3
        assert np.max(np.abs(back.values - table.values[:4, :4])) < 1e-8


def test_moments_from_pair_stops_at_domain_boundary():
    table = moments_from_pair(e3().pair, 2, 2)
    # h00 is in D(A1) and A1 h00 is not, so exactly rows m = 0..2 exist
    # (the m = 2 entries use only one A1 step from a domain vector).
    expected = np.array([[1.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0],
                         [1.25, 0.0, 0.0]])
    assert np.max(np.abs(table.values - expected)) < 1e-12


def test_moments_from_pair_validates_inputs():
    with pytest.raises(ValueError):
        moments_from_pair(e2().pair, -1, 0)


def _assert_matches_per_chain(pair, max_m, max_n):
    ref = oracles.pair_moments_per_chain(pair, max_m, max_n,
                                         DEFAULT_TOLERANCES.subspace_tol)
    table = moments_from_pair(pair, max_m, max_n)
    assert table.max_m == ref.shape[0] - 1
    assert table.max_n == max_n
    assert np.array_equal(table.values, ref.real)
    return table


def test_moments_from_pair_equals_per_chain_definition():
    for dim in (3, 4, 5, 8, 12, 16, 20):
        for defect in (1, 2):
            pair = e3_class(dim, defect, 100 * dim + defect).pair
            for max_m, max_n in ((0, 0), (2, 5), (2 * dim, 2 * dim)):
                _assert_matches_per_chain(pair, max_m, max_n)
    # Table-built pairs with h00 in D(A1), where several rows are reachable.
    rng = np.random.default_rng(11)
    reached = []
    for degree in (4, 6, 8, 10):
        mu = random_atomic_measure(rng, coord_low=-1.0, coord_high=1.0)
        table = moments_of_measure(mu, degree, degree)
        pair = build_operators(build_gns(table, degree // 2, degree // 2))
        for max_m, max_n in ((3, 3), (12, 6), (2 * pair.dim, 2 * pair.dim)):
            reached.append(_assert_matches_per_chain(pair, max_m, max_n).max_m)
    assert max(reached) >= 6


def _unit(i, dim=3):
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


def _basis_pair(a1_cols, a1_images, a2_cols, a2_images):
    """Pair on C^3 with h00 = e0, each domain spanned by unit vectors and
    each action sending them to the given unit vectors."""
    def op(cols, images):
        dom = np.stack([_unit(i) for i in cols], axis=1)
        act = np.stack([_unit(i) for i in images], axis=1)
        return dom, act
    a1_domain, a1_action = op(a1_cols, a1_images)
    a2_domain, a2_action = op(a2_cols, a2_images)
    return SymmetricPair(dim=3, a1_domain=a1_domain, a1_action=a1_action,
                         a2_domain=a2_domain, a2_action=a2_action,
                         h00=_unit(0), j_matrix=np.eye(3, dtype=complex))


def _counting_a1_tests(monkeypatch, pair):
    """Record each ``A1`` domain test of ``moments_from_pair`` as passed
    (True) or failed (False)."""
    seen = []
    step = solutions._shift_step

    def counted(domain, action, x, tol):
        out = step(domain, action, x, tol)
        if domain is pair.a1_domain:
            seen.append(out is not None)
        return out
    monkeypatch.setattr(solutions, "_shift_step", counted)
    return seen


def test_moments_from_pair_chain_leaving_a2_domain_raises():
    # A2 e0 = e1 and e1 is outside D(A2) = span{e0}.
    pair = _basis_pair([0, 1, 2], [0, 1, 2], [0], [1])
    assert _assert_matches_per_chain(pair, 3, 1).max_m == 3
    assert oracles.pair_moments_per_chain(
        pair, 3, 2, DEFAULT_TOLERANCES.subspace_tol).shape[0] == 0
    with pytest.raises(ValueError, match="no moment row is reachable"):
        moments_from_pair(pair, 3, 2)
    # A2 e0 = e1, A2 e1 = e2 and e2 is outside D(A2) = span{e0, e1}: the
    # chain leaves the domain at step 2, after two steps that pass.
    pair = _basis_pair([0, 1, 2], [0, 1, 2], [0, 1], [1, 2])
    assert _assert_matches_per_chain(pair, 3, 2).max_m == 3
    for max_n in (3, 6):
        assert oracles.pair_moments_per_chain(
            pair, 3, max_n, DEFAULT_TOLERANCES.subspace_tol).shape[0] == 0
        with pytest.raises(ValueError, match="no moment row is reachable"):
            moments_from_pair(pair, 3, max_n)


def test_moments_from_pair_row_stops_at_first_vector_outside_a1(monkeypatch):
    # A2 = identity; A1 e0 = e1, A1 e1 = e2, e2 outside D(A1): rows 0-2
    # exist and row 3 fails on its first vector.
    pair = _basis_pair([0, 1], [1, 2], [0, 1, 2], [0, 1, 2])
    _assert_matches_per_chain(pair, 5, 2)
    seen = _counting_a1_tests(monkeypatch, pair)
    assert moments_from_pair(pair, 5, 2).max_m == 2
    assert seen == [True] * 6 + [False]
    # A2 swaps e0 and e2, A1 e0 = e1: row 1 fails on its second vector.
    pair = _basis_pair([0, 1], [1, 1], [0, 1, 2], [2, 1, 0])
    _assert_matches_per_chain(pair, 5, 1)
    seen = _counting_a1_tests(monkeypatch, pair)
    assert moments_from_pair(pair, 5, 1).max_m == 0
    assert seen == [True, False]


def test_rank_tolerance_controls_kernel_cut():
    table = e2().table
    loose = build_gns(table, 1, 1, tolerances=Tolerances(rank_tol=0.9))
    assert loose.rank == 2  # both retained eigenvalues equal the maximum
    strict = build_gns(table, 1, 1, tolerances=Tolerances(rank_tol=1e-14))
    assert strict.rank == 2


def test_cached_shift_columns_match_the_space_index():
    from moment2d.gns import _shift_columns
    rng = np.random.default_rng(8)
    table = moments_of_measure(_random_measure(rng, 6), 8, 8)
    for d_m, d_n in ((1, 1), (1, 4), (3, 2), (4, 4)):
        space = build_gns(table, d_m, d_n)
        for which, step, top in ((1, (1, 0), d_m), (2, (0, 1), d_n)):
            kept = [mn for mn in space.monomial_index
                    if mn[which - 1] <= top - 1]
            cols, shifted = _shift_columns(d_m, d_n, which)
            assert cols.tolist() == [space.index_of(*mn) for mn in kept]
            assert shifted.tolist() == [
                space.index_of(m + step[0], n + step[1]) for m, n in kept]
            assert not (cols.flags.writeable or shifted.flags.writeable)


def _both_shift_paths(space, which):
    """``(basis, action)`` or the raised error, from the library and from
    the SVD-plus-``lstsq`` oracle, with ``build_operators``'s gate."""
    gate = RESIDUAL_GATE * max(1.0, float(np.linalg.norm(space.gram)))
    out = []
    for shift in (_shift_operator, oracles.shift_operator_lstsq):
        try:
            out.append(shift(space, which, DEFAULT_TOLERANCES, gate))
        except Moment2dError as exc:
            out.append(exc)
    return out


@pytest.mark.parametrize("box", [1.0, 2.0])
def test_shift_operators_match_the_lstsq_oracle(box):
    # Both paths compute the operator to about eps * kappa, kappa the
    # condition number of the retained domain columns; at degree 20 on
    # [-2, 2]^2 kappa reaches 3e5 and the two differ by up to 4e-12.  The
    # library's refinement step fits the domain columns more closely than
    # lstsq does: its least-squares residual is the smaller one on most
    # inputs.
    eps = np.finfo(float).eps
    deficient, fits = 0, []
    for seed in range(8):
        rng = np.random.default_rng([seed, int(box)])
        mu = random_atomic_measure(rng, coord_low=-box, coord_high=box)
        for degree in (8, 12, 14, 16, 20):
            table = moments_of_measure(mu, degree, degree)
            h = degree // 2
            for d_m, d_n in ((h, h - 1), (h - 2, h), (1, h), (h, 2)):
                space = build_gns(table, d_m, d_n)
                deficient += space.rank < len(space.monomial_index)
                for which in (1, 2):
                    (basis, action), (ref_basis, ref_action) = \
                        _both_shift_paths(space, which)
                    assert basis.shape == ref_basis.shape
                    op = action @ basis.conj().T
                    ref = ref_action @ ref_basis.conj().T
                    cols, shifted = _shift_columns(d_m, d_n, which)
                    dom, img = space.coords[:, cols], space.coords[:, shifted]
                    _, s, vh = np.linalg.svd(dom, full_matrices=False)
                    rank = basis.shape[1]
                    kappa = s[0] / s[rank - 1]
                    assert (np.linalg.norm(op - ref)
                            <= max(1e-12, 64 * eps * kappa)
                            * np.linalg.norm(ref))
                    fits.append([np.linalg.norm((m @ dom - img) @ vh[:rank].T)
                                 for m in (op, ref)])
    assert deficient == 8 * 5 * 4
    fit, ref_fit = np.array(fits).T
    assert np.median(fit / ref_fit) < 1.0


@pytest.mark.parametrize("values, which, error", [
    # The table of test_inconsistent_shift_is_detected: A1 is well
    # defined, A2 is not.
    (np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 1.0]]), 2,
     InconsistentShiftError),
    (np.zeros((3, 3)), 1, DomainCollapseError),
], ids=["inconsistent", "all-zero"])
def test_shift_errors_match_the_lstsq_oracle(values, which, error):
    space = build_gns(MomentTable(2, 2, values), 1, 1)
    with pytest.raises(error) as raised:
        build_operators(space)
    got, ref = _both_shift_paths(space, which)
    assert type(got) is type(ref) is error
    assert str(got) == str(ref) == str(raised.value)
    if error is DomainCollapseError:
        assert str(got) == "domain of A1 is zero-dimensional"


def test_each_shift_takes_one_svd_and_no_lstsq(monkeypatch):
    calls = {"svd": 0, "lstsq": 0}

    def counted(name):
        real = getattr(np.linalg, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return spy

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    rng = np.random.default_rng(3)
    table = moments_of_measure(_random_measure(rng, 5), 8, 8)
    build_operators(build_gns(table, 4, 3))
    assert calls == {"svd": 2, "lstsq": 0}


def test_a_failed_shift_svd_is_a_singular_shift_error(monkeypatch, tmp_path,
                                                      capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(SingularShiftError,
                       match="^shift solve failed for A1: SVD did not "
                             "converge$"):
        build_operators(build_gns(e2().table, 1, 1))
    path = tmp_path / "table.json"
    io.write_json(io.moment_table_to_json(e2().table), str(path))
    assert main(["solve-canonical", str(path), "--output-dir",
                 str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "error: shift solve failed for A1: SVD did not converge\n")
    assert not (tmp_path / "out").exists()
