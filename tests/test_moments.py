from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moment2d import (
    AtomicMeasure,
    IndexOutOfRangeError,
    MomentTable,
    NegativeDenominatorError,
    Tolerances,
    carleman_diagnostic,
    check_psd,
    e1,
    e2,
    moment_matrix,
    moments_of_measure,
    monomial_indices,
)
from moment2d.moments import _has_close_pair, _power_table

import oracles


def _two_point_measure() -> AtomicMeasure:
    return AtomicMeasure(np.array([[1.0, 1.0], [-1.0, -1.0]]),
                         np.array([0.5, 0.5]))


def test_monomial_order_is_graded_lexicographic():
    assert monomial_indices(1, 1) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert monomial_indices(2, 1) == [(0, 0), (0, 1), (1, 0), (1, 1),
                                      (2, 0), (2, 1)]
    assert monomial_indices(0, 0) == [(0, 0)]


def test_moment_table_entry_and_bounds():
    table = MomentTable(1, 1, np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert table.entry(1, 0) == 3.0
    with pytest.raises(IndexOutOfRangeError):
        table.entry(2, 0)
    with pytest.raises(IndexOutOfRangeError):
        table.entry(0, -1)


def test_moment_table_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        MomentTable(1, 1, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        MomentTable(1, 1, np.array([[1.0, np.inf], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        MomentTable(-1, 0, np.zeros((0, 1)))


def test_atomic_measure_validation():
    with pytest.raises(ValueError):
        AtomicMeasure(np.array([[0.0, 0.0]]), np.array([0.0]))
    with pytest.raises(ValueError):
        AtomicMeasure(np.array([[0.0, 0.0], [1e-12, 0.0]]),
                      np.array([1.0, 1.0]))
    mu = _two_point_measure()
    assert mu.n_atoms == 2
    assert mu.total_mass == pytest.approx(1.0)
    assert mu.sorted().points[0, 0] == -1.0


def test_empty_measure_is_allowed():
    mu = AtomicMeasure(np.zeros((0, 2)), np.zeros(0))
    assert mu.n_atoms == 0
    assert mu.total_mass == 0.0
    table = moments_of_measure(mu, 2, 2)
    assert np.all(table.values == 0.0)


def test_moments_of_measure_matches_direct_summation():
    rng = np.random.default_rng(42)
    for _ in range(5):
        k = rng.integers(1, 5)
        pts = rng.uniform(-2.0, 2.0, size=(k, 2))
        ws = rng.uniform(0.1, 1.0, size=k)
        mu = AtomicMeasure(pts, ws)
        table = moments_of_measure(mu, 5, 4)
        direct = oracles.moments_direct(pts, ws, 5, 4)
        assert np.max(np.abs(table.values - direct)) < 1e-12


@pytest.mark.parametrize("k", [0, 1, 40])
def test_moments_of_measure_is_bit_identical_to_the_per_atom_loop(k):
    rng = np.random.default_rng(100 + k)
    pts = rng.uniform(-2.0, 2.0, size=(k, 2))
    if k:
        # Negative zeros in either coordinate.
        pts[0, 0] = -0.0
        pts[-1, 1] = -0.0
    mu = AtomicMeasure(pts, rng.uniform(0.1, 1.0, size=k))
    for max_m, max_n in ((0, 0), (0, 80), (20, 20)):
        got = moments_of_measure(mu, max_m, max_n).values
        want = oracles.moments_of_measure_per_atom(mu, max_m, max_n)
        assert got.shape == want.shape == (max_m + 1, max_n + 1)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


_signed_coord = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, -1e-160, 1e-160]),
    st.floats(-4.0, 4.0))


@given(st.lists(st.tuples(_signed_coord, _signed_coord,
                          st.one_of(st.sampled_from([5e-324, 1e-300, 1.0]),
                                    st.floats(1e-3, 10.0))),
                max_size=20, unique_by=lambda a: a[:2]),
       st.integers(0, 6), st.integers(0, 6))
@example([], 0, 0)
@example([], 3, 2)
@example([(-0.0, 1.0, 1.0), (1.0, -0.0, 2.0)], 0, 0)
@example([(-0.0, 1.0, 1.0), (-1e-160, -0.0, 1e-300)], 1, 1)
@example([(-1e-160, 1e-160, 1e-300), (1e-160, -1e-160, 5e-324)], 2, 2)
@example([(0.1 * i - 1.0, 0.5, 1.0 / (i + 3)) for i in range(17)], 0, 0)
@settings(max_examples=300, deadline=None)
def test_moments_of_measure_sums_in_atom_order_as_a_loop(atoms, max_m, max_n):
    # Signed zeros (underflowing and -0.0 coordinates), no atoms, and the
    # 1 x 1 rectangle, where np.add.reduce over the atoms is pairwise.
    mu = AtomicMeasure(np.array(atoms).reshape(-1, 3)[:, :2],
                       np.array(atoms).reshape(-1, 3)[:, 2], 0.0)
    got = moments_of_measure(mu, max_m, max_n).values
    want = oracles.moments_of_measure_per_atom(mu, max_m, max_n)
    assert got.shape == want.shape == (max_m + 1, max_n + 1)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_power_table_is_within_one_ulp_of_the_exact_powers():
    rng = np.random.default_rng(11)
    mags = np.concatenate([[1e-3, 1e3, 1.0], 10.0 ** rng.uniform(-3, 3, 24)])
    bases = np.concatenate([mags, -mags, [0.0, -0.0]])
    table = _power_table(bases, 80)
    assert table.shape == (bases.size, 81)
    for t, row in zip(bases, table):
        for k, got in enumerate(row):
            exact = Fraction(t) ** k
            ulp = Fraction(np.spacing(abs(float(exact))))
            assert abs(Fraction(got) - exact) <= ulp, (t, k)
            # The sign, signed zeros included, is the sign of t ** k.
            assert np.signbit(got) == np.signbit(t ** k), (t, k)


def test_moments_of_dyadic_atoms_are_exact():
    # Every power, product and partial sum here is a short dyadic
    # rational, so correctly computed moments equal the exact ones.
    points = [(0.5, -0.75), (-0.5, 1.25), (-0.75, -1.25), (1.25, 0.5),
              (-1.25, -0.5), (0.75, 0.75)]
    weights = [0.25, 0.125, 0.375, 0.0625, 0.1875, 0.5]
    mu = AtomicMeasure(np.array(points), np.array(weights))
    max_m, max_n = 5, 6
    exact = np.array([[float(sum(Fraction(w) * Fraction(t1) ** m
                                 * Fraction(t2) ** n
                                 for (t1, t2), w in zip(points, weights)))
                       for n in range(max_n + 1)] for m in range(max_m + 1)])
    assert np.array_equal(moments_of_measure(mu, max_m, max_n).values, exact)


def test_moment_matrix_of_two_point_measure():
    table = moments_of_measure(_two_point_measure(), 2, 2)
    gram = moment_matrix(table, 1, 1)
    # Basis order (0,0), (0,1), (1,0), (1,1) on the support {(1,1), (-1,-1)}.
    expected = np.array([[1.0, 0.0, 0.0, 1.0],
                         [0.0, 1.0, 1.0, 0.0],
                         [0.0, 1.0, 1.0, 0.0],
                         [1.0, 0.0, 0.0, 1.0]])
    assert np.max(np.abs(gram - expected)) < 1e-14


def test_moment_matrix_requires_table_coverage():
    table = MomentTable(1, 1, np.eye(2))
    with pytest.raises(IndexOutOfRangeError):
        moment_matrix(table, 1, 1)


def test_check_psd_verdicts():
    ok, min_eig = check_psd(e2().table, 1, 1)
    assert ok
    assert min_eig > -1e-12
    bad = MomentTable(0, 0, np.array([[-1.0]]))
    ok2, min_eig2 = check_psd(bad, 0, 0)
    assert not ok2
    assert min_eig2 == pytest.approx(-1.0)


def test_carleman_two_point_partial_sums():
    # Terms (s_{0,2k} + s_{2,2k})^(-1/(2k)) with all even moments equal 1:
    # k=1 -> 2^(-1/2), k=2 -> 2^(-1/4).
    report = carleman_diagnostic(e2().table, 0, 2)
    assert report.m == 0
    assert report.partial_sums[0] == pytest.approx(2.0 ** -0.5, abs=1e-15)
    assert report.partial_sums[1] == pytest.approx(
        2.0 ** -0.5 + 2.0 ** -0.25, abs=1e-15)
    assert report.verdict == "diverging-trend"


def test_carleman_origin_atom_gives_infinite_terms():
    table = moments_of_measure(e1().measure, 2, 8)
    report = carleman_diagnostic(table, 0, 4)
    assert all(math.isinf(s) for s in report.partial_sums)
    assert report.verdict == "diverging-trend"


def test_carleman_single_variant():
    report = carleman_diagnostic(e2().table, 0, 2, variant="single")
    # s_{0,2k} alone equals 1, so every term is 1.
    assert report.partial_sums == (1.0, 2.0)


def test_carleman_factorial_growth_converges():
    big_k = 10
    vals = np.zeros((3, 2 * big_k + 1))
    for k in range(big_k + 1):
        fact = float(math.factorial(2 * k))
        vals[0, 2 * k] = fact ** 2 * 4.0 ** (2 * k)
        vals[2, 2 * k] = fact ** 2 * 4.0 ** (2 * k)
    table = MomentTable(2, 2 * big_k, vals)
    report = carleman_diagnostic(table, 0, big_k)
    assert report.verdict == "converging-trend"
    # Terms fall like 1/k^2, so the partial sums stay bounded.
    assert report.partial_sums[-1] < 1.0


def test_carleman_negative_denominator_raises():
    bad = MomentTable(2, 2, np.array([[1.0, 0.0, -5.0],
                                      [0.0, 0.0, 0.0],
                                      [1.0, 0.0, 0.0]]))
    with pytest.raises(NegativeDenominatorError):
        carleman_diagnostic(bad, 0, 1)


def test_carleman_window_exceeding_table_raises():
    with pytest.raises(IndexOutOfRangeError):
        carleman_diagnostic(e2().table, 1, 4)


@st.composite
def _atomic_measures(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    coords = draw(st.lists(
        st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
        min_size=k, max_size=k))
    pts = np.asarray(coords)
    for i in range(k):
        for j in range(i + 1, k):
            if np.max(np.abs(pts[i] - pts[j])) <= 1e-3:
                pts[j] += 0.1 * (j + 1)
    ws = draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k))
    return AtomicMeasure(pts, np.asarray(ws))


@given(_atomic_measures())
@settings(max_examples=25, deadline=None)
def test_moment_matrix_of_any_measure_is_psd(mu):
    table = moments_of_measure(mu, 4, 4)
    gram = moment_matrix(table, 2, 2)
    eigs = np.linalg.eigvalsh(gram)
    scale = max(1.0, float(np.max(np.abs(gram))))
    assert eigs[0] > -1e-10 * scale


@given(st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=16, deadline=None)
def test_monomial_indices_cover_rectangle(d_m, d_n):
    idx = monomial_indices(d_m, d_n)
    assert len(idx) == (d_m + 1) * (d_n + 1)
    assert len(set(idx)) == len(idx)
    degrees = [m + n for m, n in idx]
    assert degrees == sorted(degrees)


def test_check_psd_reads_psd_tol():
    table = MomentTable(0, 0, np.array([[-1e-6]]))
    assert check_psd(table, 0, 0) == (False, -1e-6)
    loose = Tolerances(psd_tol=1e-5)
    assert check_psd(table, 0, 0, tolerances=loose) == (True, -1e-6)


def _check_duplicates_like_reference(points, tol):
    expected = oracles.first_close_pair(points, tol)
    if expected is None:
        mu = AtomicMeasure(points, np.ones(len(points)), tol)
        assert np.array_equal(mu.points, points.reshape(-1, 2))
    else:
        i, j = expected
        with pytest.raises(ValueError) as info:
            AtomicMeasure(points, np.ones(len(points)), tol)
        assert str(info.value) == (
            f"atoms {i} and {j} coincide within merge tolerance")


# Coordinates on a coarse grid make ties, pairs exactly ``tol`` apart and
# pairs close in one coordinate only common.
_grid_coord = st.sampled_from([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0])


@given(st.lists(st.tuples(st.one_of(_grid_coord, st.floats(-1.0, 1.0)),
                          st.one_of(_grid_coord, st.floats(-1.0, 1.0))),
                max_size=9),
       st.sampled_from([0.0, 1e-9, 0.25, 0.5]))
@settings(max_examples=300, deadline=None)
def test_duplicate_atoms_match_pairwise_reference(coords, tol):
    _check_duplicates_like_reference(
        np.asarray(coords, dtype=float).reshape(-1, 2), tol)


# The largest doubles, whose differences overflow, among ordinary values.
_wide_coord = st.one_of(
    st.sampled_from([1.7976931348623157e308, -1.7976931348623157e308,
                     8.98846567431158e307, -1e308, 0.0]),
    _grid_coord, st.floats(allow_nan=False, allow_infinity=False))


@given(st.lists(st.tuples(_wide_coord, _wide_coord), max_size=9),
       st.sampled_from([0.0, 1e-9, 0.5, 1e308]))
@example([(1.7976931348623157e308, 0.0), (-1.7976931348623157e308, 0.0)],
         1e-9)
@example([(0.0, 1.7976931348623157e308), (0.0, -1.7976931348623157e308),
          (1.0, 0.0)], 1e-9)
@example([(-1e308, 0.0), (1.7976931348623157e308, 1.0), (0.0, 0.0),
          (0.0, 0.0)], 0.5)
@settings(max_examples=300, deadline=None)
def test_overflowing_atom_gaps_match_pairwise_reference_without_warnings(
        coords, tol):
    points = np.asarray(coords, dtype=float).reshape(-1, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _has_close_pair(points, tol) is (
            oracles.first_close_pair(points, tol) is not None)
        _check_duplicates_like_reference(points, tol)


def test_duplicate_atom_edge_cases():
    cases = [
        ([], 0.1),                                   # k = 0
        ([[0.3, 0.4]], 0.1),                         # k = 1
        ([[0.0, 0.0], [0.0, 1.0], [0.0, 0.5]], 0.1),  # ties in t1, apart
        ([[0.0, 0.0], [0.0, 1.0], [0.0, 0.05]], 0.1),  # ties in t1, close
        ([[0.0, 0.0], [0.5, 0.25]], 0.5),            # distance exactly tol
        ([[1.0, 0.0], [0.0, 0.0]], 0.5),             # close in t2 only
        ([[0.0, 1.0], [0.01, 0.0]], 0.5),            # close in t1 only
        ([[2.0, 0.0], [0.0, 3.0], [0.3, 3.2], [2.1, 0.1]], 0.25),
    ]
    for coords, tol in cases:
        _check_duplicates_like_reference(
            np.asarray(coords, dtype=float).reshape(-1, 2), tol)
    with pytest.raises(ValueError, match="atoms 0 and 3 coincide"):
        AtomicMeasure(np.array(cases[-1][0]), np.ones(4), 0.25)


def test_moment_matrix_equals_entrywise_definition():
    rng = np.random.default_rng(3)
    table = MomentTable(10, 10, rng.normal(size=(11, 11)))
    for d_m, d_n in ((0, 0), (1, 3), (4, 2), (5, 5)):
        gram = moment_matrix(table, d_m, d_n)
        expected = oracles.moment_matrix_direct(
            table.values, monomial_indices(d_m, d_n))
        assert gram.dtype == np.float64
        assert np.array_equal(gram, expected)


def test_moment_matrix_gathers_fresh_arrays_from_read_only_indices():
    from moment2d.moments import _gram_indices
    rng = np.random.default_rng(5)
    table = MomentTable(12, 12, rng.normal(size=(13, 13)))
    for d_m in range(7):
        for d_n in range(7):
            expected = oracles.moment_matrix_direct(
                table.values, monomial_indices(d_m, d_n))
            gram = moment_matrix(table, d_m, d_n)
            assert np.array_equal(gram, expected)
            assert gram.flags.writeable
            gram[...] = 0.0
            again = moment_matrix(table, d_m, d_n)
            assert np.array_equal(again, expected)
            assert not np.shares_memory(again, gram)
            assert not np.shares_memory(again, table.values)
            assert not any(i.flags.writeable for i in _gram_indices(d_m, d_n))
    # The public monomial list is the caller's own copy.
    idx = monomial_indices(2, 2)
    idx.reverse()
    assert monomial_indices(2, 2)[0] == (0, 0)
    assert np.array_equal(moment_matrix(table, 2, 2),
                          oracles.moment_matrix_direct(
                              table.values, monomial_indices(2, 2)))


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("points, weights, message", [
    # Length first, even with a NaN point and a zero weight.
    ([[0.0, 0.0], [1.0, 1.0]], [1.0], "points and weights must have "
                                      "equal length"),
    ([[_NAN, 0.0]], [0.0, 1.0], "points and weights must have equal "
                                "length"),
    ([[0.0, _NAN], [1.0, 1.0]], [1.0, 1.0], "atoms must be finite"),
    ([[0.0, 0.0], [-_INF, 1.0]], [1.0, 1.0], "atoms must be finite"),
    ([[0.0, 0.0], [1.0, 1.0]], [1.0, _INF], "atoms must be finite"),
    ([[0.0, 0.0], [1.0, 1.0]], [_NAN, 1.0], "atoms must be finite"),
    # Finiteness before the sign of the weights.
    ([[0.0, _NAN], [1.0, 1.0]], [1.0, 0.0], "atoms must be finite"),
    ([[0.0, 0.0], [1.0, 1.0]], [_NAN, 0.0], "atoms must be finite"),
    ([[0.0, 0.0], [1.0, 1.0]], [1.0, 0.0], "weights must be strictly "
                                           "positive"),
    ([[0.0, 0.0], [1.0, 1.0]], [-0.5, 1.0], "weights must be strictly "
                                            "positive"),
    ([[0.0, 0.0], [1.0, 1.0]], [1.0, -0.0], "weights must be strictly "
                                            "positive"),
    # Weights before the close pair.
    ([[0.0, 0.0], [0.0, 0.0]], [1.0, 0.0], "weights must be strictly "
                                           "positive"),
    # The first close pair in input order, by its indices.
    ([[0.0, 0.0], [3.0, 3.0], [1.0, 1.0], [3.0, 3.0 + 1e-8],
      [1.0, 1.0]], [1.0] * 5, "atoms 1 and 3 coincide within merge "
                              "tolerance"),
    ([[2.0, -1.0], [0.0, 0.0], [2.0 - 5e-8, -1.0 + 5e-8]], [1.0] * 3,
     "atoms 0 and 2 coincide within merge tolerance"),
])
def test_atomic_measure_refuses_with_its_first_failing_check(points, weights,
                                                             message):
    with pytest.raises(ValueError) as info:
        AtomicMeasure(np.array(points, dtype=float),
                      np.array(weights, dtype=float))
    assert str(info.value) == message


@pytest.mark.parametrize("max_m, max_n, values, message", [
    # Degrees first, even when the shape is wrong too.
    (-1, 0, np.zeros((0, 1)), "max_m and max_n must be >= 0"),
    (0, -1, np.full((2, 2), _NAN), "max_m and max_n must be >= 0"),
    # Shape before the entries.
    (1, 1, np.zeros((2, 3)), "values shape (2, 3) does not match "
                             "rectangle (2, 2)"),
    (2, 1, np.full((2, 2), _INF), "values shape (2, 2) does not match "
                                  "rectangle (3, 2)"),
    (1, 1, [[1.0, 2.0], [3.0, -_INF]], "moment entries must be finite"),
    (1, 0, [[_NAN], [1.0]], "moment entries must be finite"),
])
def test_moment_table_refuses_with_its_first_failing_check(max_m, max_n,
                                                           values, message):
    with pytest.raises(ValueError) as info:
        MomentTable(max_m, max_n, values)
    assert str(info.value) == message
