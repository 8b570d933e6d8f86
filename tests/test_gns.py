from __future__ import annotations

import numpy as np
import pytest

from moment2d import (
    AtomicMeasure,
    DomainCollapseError,
    InconsistentShiftError,
    MomentTable,
    NotPsdError,
    Tolerances,
    build_gns,
    build_operators,
    e1,
    e2,
    e3,
    moments_from_pair,
    moments_of_measure,
    quasianalytic_vector_check,
)


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


def test_quasianalytic_check_matches_table_diagnostic():
    report = quasianalytic_vector_check(e2().pair, e2().table, 0, 2)
    assert report.verdict == "diverging-trend"
    table = moments_of_measure(e1().measure, 2, 4)
    report1 = quasianalytic_vector_check(e1().pair, table, 0, 2)
    assert report1.verdict == "diverging-trend"


def test_quasianalytic_check_flags_mismatched_table():
    # The two-point pair has ||A1 h00 - i h00||^2 = 2 while the table
    # below claims s00 + s20 = 1.
    vals = np.array([[1.0, 0.0, 1.0],
                     [0.0, 0.0, 0.0],
                     [0.0, 0.0, 1.0]])
    small = MomentTable(2, 2, vals)
    with pytest.raises(InconsistentShiftError):
        quasianalytic_vector_check(e2().pair, small, 0, 1)


def test_rank_tolerance_controls_kernel_cut():
    table = e2().table
    loose = build_gns(table, 1, 1, tolerances=Tolerances(rank_tol=0.9))
    assert loose.rank == 2  # both retained eigenvalues equal the maximum
    strict = build_gns(table, 1, 1, tolerances=Tolerances(rank_tol=1e-14))
    assert strict.rank == 2
