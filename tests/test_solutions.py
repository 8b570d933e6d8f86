from __future__ import annotations

import dataclasses
import importlib
import re
import warnings

import numpy as np
import pytest

from moment2d import (
    AtomicMeasure,
    ClusterAmbiguityError,
    CommutationViolatedError,
    DomainCollapseError,
    StructureViolationError,
    FixedPointError,
    IndexOutOfRangeError,
    MomentTable,
    NotPsdError,
    NotSelfAdjointA2Error,
    NotUnitaryError,
    SamplerSpec,
    SymmetricPair,
    Tolerances,
    build_gns,
    build_isometric_pair,
    canonical_extension,
    determinacy,
    e1,
    e2,
    e3,
    e3_class,
    enumerate_commutant_unitaries,
    joint_spectral_measure,
    moments_from_pair,
    moments_of_measure,
    pair_resolvent_of_measure,
    random_atomic_measure,
    refine_measure,
    solve_canonical,
    verify_solution,
)
from moment2d.errors import Moment2dError
from moment2d.config import (ATOM_MERGE_TOL, CLUSTER_TOL, RANK_TOL,
                             STRUCTURE_TOL, WEIGHT_DROP_TOL)
from moment2d.linalg import haar_unitary, is_unitary
from moment2d import io, solutions
from moment2d.cli import main
from moment2d.solutions import (COMBINATION_SEED, CROSS_TOL,
                                CROSS_VALIDATION_POINTS, MAX_COMBINATIONS)

import oracles


def _scalar_pair() -> SymmetricPair:
    return SymmetricPair(dim=1,
                         a1_domain=np.zeros((1, 0), dtype=complex),
                         a1_action=np.zeros((1, 0), dtype=complex),
                         a2_domain=np.eye(1, dtype=complex),
                         a2_action=np.zeros((1, 1), dtype=complex),
                         h00=np.array([1.0 + 0j]),
                         j_matrix=np.eye(1, dtype=complex))


def test_sampler_spec_validation():
    with pytest.raises(ValueError):
        SamplerSpec(kind="haar-random", count=3)
    with pytest.raises(ValueError):
        SamplerSpec(kind="haar-random", count=0, seed=1)
    with pytest.raises(ValueError):
        SamplerSpec(kind="exhaustive-phases", phases=0)
    with pytest.raises(ValueError):
        SamplerSpec(kind="unknown")


def test_commutant_enumeration_structure():
    assert list(enumerate_commutant_unitaries(
        np.zeros((0, 0), dtype=complex), SamplerSpec())) == []
    sampler = SamplerSpec(kind="haar-random", count=3, seed=1)
    # Equal eigenvalues leave the commutant as the full unitary group.
    full = list(enumerate_commutant_unitaries(np.diag([1j, 1j]), sampler))
    assert len(full) == 3
    assert all(is_unitary(u, 1e-10) for u in full)
    assert any(abs(u[0, 1]) > 1e-3 for u in full)
    # Distinct eigenvalues force the commutant to be diagonal.
    split = list(enumerate_commutant_unitaries(np.diag([1j, -1j]), sampler))
    for u in split:
        assert is_unitary(u, 1e-10)
        assert abs(u[0, 1]) < 1e-12 and abs(u[1, 0]) < 1e-12
        assert abs(np.diag([1j, -1j]) @ u - u @ np.diag([1j, -1j])).max() < 1e-12


def test_haar_random_seeds_are_drawn_lazily(monkeypatch):
    # A scalar W2 leaves the whole unitary group as its commutant, so each
    # draw is the Haar unitary of the spawned child seed itself.
    w2 = 1j * np.eye(3, dtype=complex)
    expected = [haar_unitary(3, np.random.default_rng(child))
                for child in np.random.SeedSequence(7).spawn(40)]

    class Unspawnable(np.random.SeedSequence):
        def spawn(self, n_children):
            raise AssertionError("the sampler spawned its seeds up front")

    # SeedSequence is an extension type: patch the name, not the method.
    monkeypatch.setattr(np.random, "SeedSequence", Unspawnable)
    huge = SamplerSpec(kind="haar-random", count=10 ** 12, seed=7)
    assert np.array_equal(next(enumerate_commutant_unitaries(w2, huge)),
                          expected[0])
    draws = list(enumerate_commutant_unitaries(
        w2, SamplerSpec(kind="haar-random", count=40, seed=7)))
    assert len(draws) == 40
    assert all(np.array_equal(a, b) for a, b in zip(draws, expected))


def test_commutant_enumeration_phases_and_identity():
    phases = list(enumerate_commutant_unitaries(
        np.array([[1j]]), SamplerSpec(kind="exhaustive-phases", phases=4)))
    got = sorted(np.angle(p[0, 0]) % (2 * np.pi) for p in phases)
    want = [0.0, np.pi / 2, np.pi, 3 * np.pi / 2]
    assert np.allclose(got, want, atol=1e-12)
    only = list(enumerate_commutant_unitaries(np.diag([1j, -1j]), SamplerSpec()))
    assert len(only) == 1
    assert np.array_equal(only[0], np.eye(2))
    with pytest.raises(NotUnitaryError):
        list(enumerate_commutant_unitaries(np.diag([0.5 + 0j, 1j]),
                                           SamplerSpec()))


def test_joint_spectral_measure_frozen_cases():
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    mu = joint_spectral_measure(flip, flip, np.array([1.0, 0.0], dtype=complex))
    assert np.max(np.abs(mu.points - [[-1.0, -1.0], [1.0, 1.0]])) < 1e-10
    assert np.max(np.abs(mu.weights - [0.5, 0.5])) < 1e-10

    zero = np.zeros((1, 1), dtype=complex)
    mu0 = joint_spectral_measure(zero, zero, np.array([1.0 + 0j]))
    assert mu0.n_atoms == 1
    assert np.max(np.abs(mu0.points[0])) < 1e-12
    assert mu0.weights[0] == pytest.approx(1.0)

    a1 = np.diag([2.0 + 0j, -1.0 + 0j])
    a2 = np.diag([0.5 + 0j, 3.0 + 0j])
    h = np.array([0.6, 0.8], dtype=complex)
    mu2 = joint_spectral_measure(a1, a2, h)
    assert np.max(np.abs(mu2.points - [[-1.0, 3.0], [2.0, 0.5]])) < 1e-10
    assert np.max(np.abs(mu2.weights - [0.64, 0.36])) < 1e-10


def test_joint_spectral_measure_gates():
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    with pytest.raises(StructureViolationError):
        joint_spectral_measure(skew, flip, np.array([1.0, 0.0], dtype=complex))
    noncommuting = np.diag([1.0 + 0j, 2.0 + 0j])
    with pytest.raises(CommutationViolatedError):
        joint_spectral_measure(flip, noncommuting,
                               np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        joint_spectral_measure(flip, flip, np.array([1.0 + 0j]))


def _pair_with_atoms(points, rng, mult=None):
    """``A1 = Q diag(t1) Q^H``, ``A2 = Q diag(t2) Q^H`` with atom ``k``
    repeated ``mult[k]`` times, a Haar unitary ``Q`` and a random unit
    ``h00``."""
    points = np.asarray(points, dtype=float)
    mult = np.ones(len(points), dtype=int) if mult is None else mult
    diag = np.repeat(points, mult, axis=0)
    n = diag.shape[0]
    q = haar_unitary(n, rng)
    a1 = q @ np.diag(diag[:, 0]) @ q.conj().T
    a2 = q @ np.diag(diag[:, 1]) @ q.conj().T
    h = rng.normal(size=n) + 1j * rng.normal(size=n)
    h = h / np.linalg.norm(h)
    weights = np.add.reduceat(np.abs(q.conj().T @ h) ** 2,
                              np.cumsum(mult) - mult)
    return 0.5 * (a1 + a1.conj().T), 0.5 * (a2 + a2.conj().T), h, weights


def _combinations():
    """The unit directions ``joint_spectral_measure`` draws, in order."""
    rng = np.random.default_rng(COMBINATION_SEED)
    return [c / np.linalg.norm(c)
            for c in (rng.normal(size=2) for _ in range(MAX_COMBINATIONS))]


def _combination_gaps(a1, a2, c):
    vals = np.linalg.eigvalsh(c[0] * a1 + c[1] * a2)
    return np.diff(vals), CLUSTER_TOL * (1.0 + np.max(np.abs(vals)))


def test_joint_spectral_measure_matches_per_cluster_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(8):
        k = int(rng.integers(3, 7))
        points = rng.uniform(-2.0, 2.0, size=(k, 2))
        mult = rng.integers(2, 5, size=k)
        a1, a2, h, weights = _pair_with_atoms(points, rng, mult)
        mu = joint_spectral_measure(a1, a2, h)
        ref_points, ref_weights = oracles.joint_spectral_measure_per_cluster(
            a1, a2, h, cluster_tol=CLUSTER_TOL, merge_tol=ATOM_MERGE_TOL,
            weight_drop=WEIGHT_DROP_TOL, seed=COMBINATION_SEED,
            tries=MAX_COMBINATIONS)
        assert mu.n_atoms == k == ref_points.shape[0]
        assert np.max(np.abs(mu.points - ref_points)) <= 1e-12
        assert np.max(np.abs(mu.weights - ref_weights)) <= 1e-12
        order = np.lexsort((points[:, 1], points[:, 0]))
        assert np.max(np.abs(mu.points - points[order])) <= 1e-10
        assert np.max(np.abs(mu.weights - weights[order])) <= 1e-10


def test_joint_spectral_measure_redraws_a_colliding_combination():
    rng = np.random.default_rng(5)
    directions = _combinations()
    c = directions[0]
    # q - p is orthogonal to the first direction: both atoms share one
    # eigenvalue of the first combination, whose compression is then
    # not scalar.
    points = np.array([[0.4, -0.3], [0.4 - 0.8 * c[1], -0.3 + 0.8 * c[0]],
                       [-1.0, 0.7]])
    a1, a2, h, weights = _pair_with_atoms(points, rng)
    gaps, tol = _combination_gaps(a1, a2, c)
    assert np.min(gaps) <= tol
    mu = joint_spectral_measure(a1, a2, h)
    order = np.lexsort((points[:, 1], points[:, 0]))
    assert mu.n_atoms == 3
    assert np.max(np.abs(mu.points - points[order])) <= 1e-10
    assert np.max(np.abs(mu.weights - weights[order])) <= 1e-10
    # One colliding pair per direction exhausts every draw.
    base = np.array([0.3, 0.1])
    points = [base] + [base + 0.5 * np.array([-d[1], d[0]]) * (i + 1)
                       for i, d in enumerate(directions)]
    a1, a2, h, _ = _pair_with_atoms(points, rng)
    with pytest.raises(ClusterAmbiguityError):
        joint_spectral_measure(a1, a2, h)


def test_joint_spectral_measure_merges_close_atoms():
    rng = np.random.default_rng(9)
    c = _combinations()[0]
    # 5e-8 apart along the first direction: separate clusters of the
    # combination, but within the merge tolerance of each other.
    p = np.array([0.5, 0.25])
    points = np.array([p, p + 5e-8 * c, [-0.75, 0.5]])
    a1, a2, h, weights = _pair_with_atoms(points, rng)
    gaps, tol = _combination_gaps(a1, a2, c)
    assert np.min(gaps) > tol
    mu = joint_spectral_measure(a1, a2, h)
    assert mu.n_atoms == 2
    mean = (weights[0] * points[0] + weights[1] * points[1]) / (
        weights[0] + weights[1])
    assert np.max(np.abs(mu.points[1] - mean)) <= 1e-12
    assert mu.weights[1] == pytest.approx(weights[0] + weights[1], abs=1e-12)
    assert np.max(np.abs(mu.points[0] - points[2])) <= 1e-12
    assert mu.weights[0] == pytest.approx(weights[2], abs=1e-12)


def test_canonical_extension_invariants():
    scenario = e3()
    pair = scenario.pair
    iso = build_isometric_pair(pair)
    for phase in (1.0, 1j, -1j):
        ext = canonical_extension(pair, iso, np.array([[phase]], dtype=complex))
        b1 = ext.a1_tilde
        assert np.max(np.abs(b1 - b1.conj().T)) < 1e-9
        # The extension agrees with A1 on its domain.
        assert np.max(np.abs(b1 @ pair.a1_domain - pair.a1_action)) < 1e-8
        b2 = pair.full_matrix(2)
        assert np.max(np.abs(b1 @ b2 - b2 @ b1)) < 1e-8


def test_canonical_extension_gates():
    pair = e3().pair
    iso = build_isometric_pair(pair)
    with pytest.raises(NotUnitaryError):
        canonical_extension(pair, iso, np.array([[0.5 + 0j]]))
    bad = SymmetricPair(dim=1,
                        a1_domain=np.eye(1, dtype=complex),
                        a1_action=np.zeros((1, 1), dtype=complex),
                        a2_domain=np.zeros((1, 0), dtype=complex),
                        a2_action=np.zeros((1, 0), dtype=complex),
                        h00=np.array([1.0 + 0j]),
                        j_matrix=np.eye(1, dtype=complex))
    with pytest.raises(NotSelfAdjointA2Error):
        build_isometric_pair(bad)
    with pytest.raises(NotSelfAdjointA2Error):
        determinacy(bad)


def test_determinacy_matches_defect_indices():
    assert determinacy(e1().pair) is True
    assert determinacy(e2().pair) is True
    assert determinacy(e3().pair) is False
    assert determinacy(_scalar_pair()) is False


def test_verify_solution_reports():
    scenario = e2()
    good = verify_solution(scenario.measure, scenario.table,
                           determinate=True, u2_seed="manual")
    assert good.passed is True
    assert good.max_abs_moment_error < 1e-12
    assert good.degrees_checked == (4, 4)
    assert good.determinate is True
    assert good.u2_seed == "manual"
    bad = verify_solution(e1().measure, scenario.table)
    assert bad.passed is False
    assert bad.max_abs_moment_error == pytest.approx(1.0)


def test_refine_measure_improves_a_perturbed_solution():
    scenario = e2()
    rough = AtomicMeasure(scenario.measure.points + 0.01,
                          scenario.measure.weights * 1.02)
    before = verify_solution(rough, scenario.table).max_abs_moment_error
    refined = refine_measure(rough, scenario.table)
    after = verify_solution(refined, scenario.table).max_abs_moment_error
    assert after < before * 1e-4
    assert after < 1e-9


def test_solve_canonical_determinate_table():
    reports = list(solve_canonical(e2().table))
    assert len(reports) == 1
    report = reports[0]
    assert report.determinate is True
    assert report.u2_seed == "determinate"
    assert report.passed is True
    assert report.max_abs_moment_error < 1e-10
    mu = report.measure
    assert np.max(np.abs(mu.points - [[-1.0, -1.0], [1.0, 1.0]])) < 1e-8
    assert np.max(np.abs(mu.weights - [0.5, 0.5])) < 1e-8


def test_solve_canonical_rejects_truncated_second_operator():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2, 2, size=(3, 2))
    ws = rng.uniform(0.1, 1, size=3)
    table = moments_of_measure(AtomicMeasure(pts, ws), 2, 2)
    with pytest.raises(NotSelfAdjointA2Error):
        list(solve_canonical(table, d_m=1, d_n=1))


def test_solve_canonical_indeterminate_scalar_family():
    """Empty-domain A1 on a line: each parameter phase moves the single
    atom along the Moebius image of the unit circle."""
    pair = _scalar_pair()
    assert determinacy(pair) is False
    rejected = []
    reports = list(solve_canonical(
        pair, sampler=SamplerSpec(kind="exhaustive-phases", phases=4),
        on_reject=lambda label, exc: rejected.append((label, exc))))
    assert [r.u2_seed for r in reports] == [
        "exhaustive-phases:4:0", "exhaustive-phases:4:1",
        "exhaustive-phases:4:3"]
    atoms = [tuple(np.round(r.measure.points[0], 8)) for r in reports]
    assert atoms == [(0.0, 0.0), (-1.0, 0.0), (1.0, 0.0)]
    assert all(r.passed for r in reports)
    assert all(r.measure.total_mass == pytest.approx(1.0) for r in reports)
    # One phase maps to the extension with eigenvalue one, which has no
    # inverse Cayley image.
    assert len(rejected) == 1
    assert rejected[0][0] == "exhaustive-phases:4:2"
    assert isinstance(rejected[0][1], FixedPointError)


def test_solve_canonical_truncated_jacobi_family():
    scenario = e3()
    reports = list(solve_canonical(
        scenario.pair, sampler=SamplerSpec(kind="exhaustive-phases", phases=4)))
    assert len(reports) == 4
    ref = moments_from_pair(scenario.pair, 2, 2)
    for report in reports:
        assert report.determinate is False
        assert report.passed
        assert report.max_abs_moment_error < 1e-9
        assert report.measure.total_mass == pytest.approx(ref.entry(0, 0),
                                                          abs=1e-9)
    # Distinct parameters give distinct solutions, visible already in the
    # resolvent scalar at one fixed point.
    values = [pair_resolvent_of_measure(r.measure, 1.3j, 0.4 + 0.9j)
              for r in reports]
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            assert abs(values[i] - values[j]) > 1e-6


def test_solve_canonical_haar_reruns_are_identical():
    sampler = SamplerSpec(kind="haar-random", count=3, seed=5)
    first = list(solve_canonical(e3().pair, sampler=sampler))
    second = list(solve_canonical(e3().pair, sampler=sampler))
    assert [r.u2_seed for r in first] == [
        "haar-random:seed=5:0", "haar-random:seed=5:1", "haar-random:seed=5:2"]
    for a, b in zip(first, second):
        assert np.array_equal(a.measure.points, b.measure.points)
        assert np.array_equal(a.measure.weights, b.measure.weights)
        assert a.max_abs_moment_error == b.max_abs_moment_error


def test_solve_canonical_recovers_measures_from_tables():
    rng = np.random.default_rng(21)
    for k in (2, 4):
        pts = rng.uniform(-2, 2, size=(k, 2))
        ws = rng.uniform(0.1, 1, size=k)
        mu = AtomicMeasure(pts, ws)
        table = moments_of_measure(mu, 8, 8)
        reports = list(solve_canonical(table))
        assert len(reports) == 1
        got = reports[0].measure.sorted()
        want = mu.sorted()
        assert got.n_atoms == want.n_atoms
        assert np.max(np.abs(got.points - want.points)) < 1e-7
        assert np.max(np.abs(got.weights - want.weights)) < 1e-7


def test_verify_solution_reads_verify_tol():
    scenario = e2()
    values = scenario.table.values.copy()
    values[0, 0] += 1e-6
    table = MomentTable(scenario.table.max_m, scenario.table.max_n, values)
    assert verify_solution(scenario.measure, table).passed is False
    loose = Tolerances(verify_tol=1e-5)
    assert verify_solution(scenario.measure, table,
                           tolerances=loose).passed is True


def _first_extension(pair):
    """Cayley data, parameter and the first non-rejected canonical
    extension of a pair over four phases."""
    iso = build_isometric_pair(pair)
    for u2 in enumerate_commutant_unitaries(
            iso.w2, SamplerSpec("exhaustive-phases", phases=4)):
        try:
            return iso, u2, canonical_extension(pair, iso, u2)
        except FixedPointError:
            continue
    raise AssertionError("every parameter was rejected")


def _cross_check_failure(pair, iso, u2, measure):
    """``(lam1, lam2)`` named by the batched cross-check of the extension
    from ``u2``, its values taken from the Cayley data, or None."""
    r2h = solutions._a2_resolvent_block(pair.a2_spectrum, pair.h00)
    lhs = solutions._cayley_cross_values(
        solutions._cayley_cross_factors(iso, r2h, pair.h00), u2[None])
    try:
        solutions._cross_check_stack(lhs, [measure])
    except StructureViolationError as exc:
        found = re.match(r"resolvent cross-validation failed at "
                         r"\((\S+), (\S+)\):", str(exc))
        assert found is not None, str(exc)
        return complex(found.group(1)), complex(found.group(2))
    return None


@pytest.mark.parametrize("setup", [None, (10, 1, 3), (20, 2, 5), (40, 3, 7)],
                         ids=["e3", "e3_class-10-1-3", "e3_class-20-2-5",
                              "e3_class-40-3-7"])
def test_batched_cross_check_decides_as_the_per_point_oracle(setup):
    pair = e3().pair if setup is None else e3_class(*setup).pair
    iso, u2, ext = _first_extension(pair)
    a2 = pair.full_matrix(2)
    measure = joint_spectral_measure(ext.a1_tilde, a2, pair.h00)
    rng = np.random.default_rng(11)
    decisions = set()
    for scale in (0.0, 1e-12, 1e-9, 3e-8, 1e-7, 1e-6, 1e-3):
        noise = rng.normal(size=measure.weights.shape)
        for perturbed in (
                AtomicMeasure(measure.points,
                              measure.weights * (1.0 + scale * noise ** 2)),
                AtomicMeasure(measure.points + scale * rng.normal(
                    size=measure.points.shape), measure.weights)):
            want = oracles.resolvent_cross_check_per_point(
                ext.a1_tilde, a2, pair.h00, perturbed,
                CROSS_VALIDATION_POINTS, CROSS_TOL)
            got = _cross_check_failure(pair, iso, u2, perturbed)
            assert got == (None if want is None else want[:2])
            decisions.add(got)
    # Both outcomes occur on every pair.
    assert None in decisions and len(decisions) > 1


def _perturbed(measure):
    return AtomicMeasure(measure.points, measure.weights * (1.0 + 1e-6))


def test_cross_check_names_the_first_failing_point(monkeypatch):
    pair = e3().pair
    real = solutions._measure_stack

    def perturbed(*args, **kwargs):
        return [_perturbed(m) for m in real(*args, **kwargs)]

    iso, _, ext = _first_extension(pair)
    a2 = pair.full_matrix(2)
    lam1, lam2, _, _ = oracles.resolvent_cross_check_per_point(
        ext.a1_tilde, a2, pair.h00,
        _perturbed(joint_spectral_measure(ext.a1_tilde, a2, pair.h00)),
        CROSS_VALIDATION_POINTS, CROSS_TOL)
    monkeypatch.setattr(solutions, "_measure_stack", perturbed)
    with pytest.raises(StructureViolationError, match=re.escape(
            f"resolvent cross-validation failed at ({lam1}, {lam2}): |")):
        list(solve_canonical(pair, sampler=SamplerSpec("exhaustive-phases",
                                                       phases=4)))


@pytest.mark.parametrize("dim", [10, 20, 40, 80])
@pytest.mark.parametrize("defect", [1, 2, 3])
def test_cayley_cross_values_match_the_a1_solve(dim, defect):
    """The cross-check's values from the Cayley data ``V0``, ``U24``, ``N0``
    and ``U2`` are those of a solve with each surviving ``A1_tilde``."""
    for seed, sampler in ((0, SamplerSpec("exhaustive-phases", phases=3)),
                          (1, SamplerSpec("haar-random", count=3, seed=5))):
        pair = e3_class(dim, defect, seed).pair
        iso = build_isometric_pair(pair)
        u2s = np.array(list(enumerate_commutant_unitaries(iso.w2, sampler)))
        a1s, fixed = solutions._extension_stack(pair, iso, u2s)
        r2h = solutions._a2_resolvent_block(pair.a2_spectrum, pair.h00)
        got = solutions._cayley_cross_values(
            solutions._cayley_cross_factors(iso, r2h, pair.h00),
            u2s[[error is None for error in fixed]])
        want = np.array([oracles.resolvent_cross_values_one(a1, r2h, pair.h00)
                         for a1 in a1s])
        assert got.shape == want.shape == (len(a1s), len(CROSS_VALIDATION_POINTS))
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_cross_check_sees_a_measure_of_another_extension(monkeypatch):
    """Each measure is checked against its own parameter's Cayley data,
    not against the matrix it was read from: extensions of the next phase
    pass every other gate, and the cross-check names its first failing
    point, that of the per-point oracle on the right extension."""
    pair = e3_class(20, 2, 4).pair
    sampler = SamplerSpec("exhaustive-phases", phases=4)
    iso = build_isometric_pair(pair)
    v0, real = iso.v_matrix, solutions._inverse_cayley_stack
    # V0 + U24 U2 N0^H -> V0 + U24 (i U2) N0^H, the next of the four phases.
    monkeypatch.setattr(solutions, "_inverse_cayley_stack",
                        lambda us: real(v0 + 1j * (us - v0)))
    u2 = next(enumerate_commutant_unitaries(iso.w2, sampler))
    (a1, wrong), _ = real(np.array([iso.extend(iso.u24 @ u)
                                    for u in (u2, 1j * u2)]))
    a2 = pair.full_matrix(2)
    lam1, lam2, _, _ = oracles.resolvent_cross_check_per_point(
        a1, a2, pair.h00, joint_spectral_measure(wrong, a2, pair.h00),
        CROSS_VALIDATION_POINTS, CROSS_TOL)
    with pytest.raises(StructureViolationError, match=re.escape(
            f"resolvent cross-validation failed at ({lam1}, {lam2}): |")):
        list(solve_canonical(pair, sampler=sampler))


def test_solve_canonical_builds_the_pair_data_once(monkeypatch):
    calls = {"godich_lutsenko": 0, "_extension_stack": 0}

    def counted(owner, name, weight=lambda *args: 1):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += weight(*args)
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    # The package's ``cayley`` attribute is the function of that name.
    counted(importlib.import_module("moment2d.cayley"), "godich_lutsenko")
    # Parameters evaluated: the slices of every stack of them.
    counted(solutions, "_extension_stack", lambda pair, iso, u2s: len(u2s))
    pair = e3_class(20, 2, 4).pair
    reports = list(solve_canonical(
        pair, sampler=SamplerSpec("exhaustive-phases", phases=4)))
    assert len(reports) >= 3
    assert calls["_extension_stack"] >= 4
    assert calls["godich_lutsenko"] == 1


def test_solve_canonical_forms_the_a2_matrix_once(monkeypatch):
    calls = []
    real = SymmetricPair.full_matrix

    def counted(self, which):
        calls.append(which)
        return real(self, which)

    pair = e3_class(20, 2, 4).pair
    want = list(solve_canonical(
        pair, sampler=SamplerSpec("exhaustive-phases", phases=4)))
    monkeypatch.setattr(SymmetricPair, "full_matrix", counted)
    pair = e3_class(20, 2, 4).pair
    got = list(solve_canonical(
        pair, sampler=SamplerSpec("exhaustive-phases", phases=4)))
    assert calls == [2]
    _same_reports(got, want)
    assert np.array_equal(pair.a2_matrix, real(pair, 2))
    assert not pair.a2_matrix.flags.writeable
    # A pair whose A2 is not everywhere defined keeps nothing and
    # raises on every access.
    short = dataclasses.replace(
        _scalar_pair(), a2_domain=np.zeros((1, 0), dtype=complex),
        a2_action=np.zeros((1, 0), dtype=complex))
    for _ in range(2):
        with pytest.raises(DomainCollapseError):
            short.a2_matrix


@pytest.mark.parametrize("path", ["defect-0", "defect-2", "eval-resolvent"])
def test_a2_is_decomposed_once_per_pair(path, monkeypatch, tmp_path):
    """``U``, the range gate and the cross-check factor all come from one
    ``eigh`` of ``A2``: no other eigendecomposition, inverse or solve of
    ``A2`` or ``A2 - i`` runs for the pair."""
    if path == "defect-0":
        rot = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 4)))[0]
        pair = _determinate_pair((rot * [0.5, -1.0, 0.2, 1.3]) @ rot.T,
                                 (rot * [0.3, 0.9, -0.7, -1.2]) @ rot.T,
                                 rot[0])
    else:
        pair = e3_class(20, 2, 4).pair
    a2 = pair.full_matrix(2)
    targets = (a2, a2 - 1j * np.eye(pair.dim))
    calls = []
    for name in ("eigh", "eigvalsh", "eig", "eigvals", "inv", "solve",
                 "svd"):
        def spy(x, *args, _name=name, _real=getattr(np.linalg, name),
                **kwargs):
            if any(np.shape(x) == t.shape and np.allclose(x, t, rtol=1e-13,
                                                          atol=0.0)
                   for t in targets):
                calls.append(_name)
            return _real(x, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    if path == "eval-resolvent":
        pair_path = tmp_path / "pair.json"
        io.write_json(io.pair_to_json(pair), str(pair_path))
        assert main(["eval-resolvent", str(pair_path), "--l1-start", "2j",
                     "--l1-stop", "1-2j", "--l1-count", "3",
                     "--l2-start", "1+1j"]) == 0
    else:
        assert list(solve_canonical(
            pair, sampler=SamplerSpec("exhaustive-phases", phases=4)))
    assert calls == ["eigh"]


def test_solve_canonical_refuses_arguments_of_the_other_input():
    pair, table = e3().pair, e2().table
    for kwargs, name in (({"d_m": 0}, "d_m"), ({"d_n": 1}, "d_n"),
                         ({"refine": True}, "refine"),
                         ({"d_m": 2, "refine": True}, "d_m")):
        with pytest.raises(ValueError, match=f"^{name} applies to a "
                                             f"moment table, not to an "
                                             f"operator pair"):
            list(solve_canonical(pair, **kwargs))
    with pytest.raises(ValueError, match="^max_n applies to an operator pair, "
                                         "not to a moment table"):
        list(solve_canonical(table, max_n=3))
    # The arguments still apply to their own input.
    assert len(list(solve_canonical(pair, max_n=4))) == 1
    assert len(list(solve_canonical(table, d_m=1, d_n=1, refine=True))) == 1


def _same_reports(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.measure.points, b.measure.points)
        assert np.array_equal(a.measure.weights, b.measure.weights)
        assert a.max_abs_moment_error == b.max_abs_moment_error
        assert (a.degrees_checked, a.determinate, a.u2_seed, a.passed) == (
            b.degrees_checked, b.determinate, b.u2_seed, b.passed)


@pytest.mark.parametrize("degree", [24, 32, 40])
def test_default_rectangle_recovers_high_degree_tables(degree):
    """On ``[-2, 2]^2`` the largest rectangle's Gram is too ill-conditioned
    for its rank cut at these degrees; the smallest flat one is not."""
    rng = np.random.default_rng(degree)
    for _ in range(10):
        mu = random_atomic_measure(rng)
        report, = solve_canonical(moments_of_measure(mu, degree, degree))
        got, want = report.measure.sorted(), mu.sorted()
        assert got.n_atoms == want.n_atoms
        assert np.max(np.abs(got.points - want.points)) < 1e-6
        assert np.max(np.abs(got.weights - want.weights)) < 1e-6


def test_default_rectangle_is_the_smallest_flat_one():
    rng = np.random.default_rng(3)
    seen = set()
    for degree in (8, 12, 16, 20):
        for _ in range(3):
            table = moments_of_measure(random_atomic_measure(rng), degree,
                                       degree)
            d = oracles.flat_point(table.values, RANK_TOL)
            assert d is not None and d + 1 < degree // 2
            seen.add(d)
            _same_reports(list(solve_canonical(table)),
                          list(solve_canonical(table, d_m=d + 1,
                                               d_n=d + 1)))
    assert len(seen) > 1


@pytest.mark.parametrize("max_n", [4, 6])
def test_never_flat_table_uses_the_largest_rectangle(max_n):
    """Six atoms on the line ``t2 = 0``: the squares' ranks are 1, 2, 3,
    so no square is flat, and ``A1`` keeps a defect."""
    mu = AtomicMeasure(np.stack([np.linspace(-1.5, 1.5, 6), np.zeros(6)],
                                axis=1), np.linspace(0.2, 0.7, 6))
    table = moments_of_measure(mu, 4, max_n)
    assert oracles.flat_point(table.values, RANK_TOL) is None
    sampler = SamplerSpec("exhaustive-phases", phases=4)
    got = list(solve_canonical(table, sampler=sampler))
    assert len(got) >= 3 and got[0].determinate is False
    _same_reports(got, list(solve_canonical(table, sampler=sampler, d_m=2,
                                            d_n=max_n // 2)))


def _not_psd_message(table, d_m, d_n):
    with pytest.raises(NotPsdError) as info:
        build_gns(table, d_m, d_n)
    return str(info.value)


def test_default_rectangle_keeps_the_table_wide_psd_gate():
    mu = random_atomic_measure(np.random.default_rng(5), n_atoms=3,
                               coord_low=-1.0, coord_high=1.0)
    values = moments_of_measure(mu, 8, 8).values.copy()
    assert oracles.flat_point(values, RANK_TOL) == 1
    # The top corner enters only the largest Gram: the flat (2, 2) space
    # is PSD, but its measure misses the lowered moment, so the report
    # fails verification and the (4, 4) gates run before it is yielded.
    values[8, 8] -= 0.5
    table = MomentTable(8, 8, values)
    report, = solve_canonical(table, d_m=2, d_n=2)
    assert report.passed is False
    with pytest.raises(NotPsdError, match=re.escape(
            _not_psd_message(table, 4, 4))):
        list(solve_canonical(table))
    # A square of the search that fails the PSD gate leaves the largest
    # rectangle to name the failure.
    values = moments_of_measure(mu, 8, 8).values.copy()
    values[2, 0] = -1.0
    table = MomentTable(8, 8, values)
    _not_psd_message(table, 1, 1)
    with pytest.raises(NotPsdError, match=re.escape(
            _not_psd_message(table, 4, 4))):
        list(solve_canonical(table))


def test_gate_raises_at_the_first_failed_slice_only():
    values = (np.array([0.5, 1.5, 2.5]), ["a", "b", "c"])
    for failed in (np.zeros(3, bool), np.zeros(0, bool)):
        assert solutions._gate(failed, ValueError, "%s", values[0]) is None
    with pytest.raises(ValueError, match=r"^1\.500e\+00 b$"):
        solutions._gate(np.array([False, True, True]), ValueError,
                        "%.3e %s", *values)


def _flat_search_cases():
    """Seeded tables of degrees 8-40 on the unit square and on the
    generator's default ``[-2, 2]^2`` (the benchmark probe's measures),
    some of them wider than tall, then the edge cases of ``s00``."""
    rng = np.random.default_rng(35)
    for box in (1.0, 2.0):
        for degree in (8, 10, 12, 14, 16, 20, 24, 32, 40):
            for i in range(12):
                mu = random_atomic_measure(rng, coord_low=-box,
                                           coord_high=box)
                yield moments_of_measure(mu, degree, degree + 4 * (i % 3 == 2)
                                         ), Tolerances()
    line = AtomicMeasure(np.stack([np.linspace(-1.5, 1.5, 6), np.zeros(6)],
                                  axis=1), np.linspace(0.2, 0.7, 6))
    yield moments_of_measure(line, 4, 6), Tolerances()   # never flat
    for table in (e2().table, moments_of_measure(mu, 12, 12)):
        for s00 in (-table.values[0, 0], 0.0, -1e-300):
            values = table.values.copy()
            values[0, 0] = s00
            yield MomentTable(table.max_m, table.max_n, values), Tolerances()
        for rank_tol in (1.5, np.inf, 0.0):
            yield table, Tolerances(rank_tol=rank_tol)


def test_flat_search_matches_the_per_square_oracle_with_one_build_fewer(
        monkeypatch):
    """The search cuts ``[s00]`` instead of building the 1 x 1 space: the
    same square, rank, Gram and coordinates (or error) as building every
    square, from one ``build_gns`` call fewer."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return build_gns(*args, **kwargs)

    monkeypatch.setattr(solutions, "build_gns", counted)
    outcomes = set()
    for table, tolerances in _flat_search_cases():
        largest = (table.max_m // 2, table.max_n // 2)
        runs = []
        for search in (oracles.default_gns_per_square, solutions._default_gns):
            calls.clear()
            try:
                space = search(table, largest, tolerances=tolerances)
                got = ((space.d_m, space.d_n, space.rank,
                        space.monomial_index),
                       (space.gram.dtype, space.gram.shape,
                        space.gram.tobytes()),
                       (space.coords.dtype, space.coords.shape,
                        space.coords.tobytes()))
            except NotPsdError as exc:
                got = str(exc)
            runs.append((got, len(calls)))
        (want, oracle_calls), (got, search_calls) = runs
        assert got == want
        assert search_calls == oracle_calls - 1
        outcomes.add(got[0][:2] == largest if type(got) is tuple else got)
    # Flat squares below the largest, the largest, and refused tables.
    assert {True, False} <= outcomes and len(outcomes) > 2


def test_build_gns_takes_eighs_ascending_suffix_bit_for_bit(monkeypatch):
    """Every space the flat search builds on its seeded tables, and the
    largest one, cut as the reversed suffix of ``eigh``'s ascending order,
    has the Gram and the coordinates, byte for byte, or the ``NotPsdError``
    text, of a boolean mask of the eigenvalues sorted by ``argsort``."""
    calls = []

    def recorded(table, d_m, d_n, *, tolerances):
        calls.append((table, d_m, d_n, tolerances))
        return build_gns(table, d_m, d_n, tolerances=tolerances)

    monkeypatch.setattr(solutions, "build_gns", recorded)
    for table, tolerances in _flat_search_cases():
        largest = (table.max_m // 2, table.max_n // 2)
        try:
            solutions._default_gns(table, largest, tolerances=tolerances)
        except NotPsdError:
            pass
        calls.append((table, *largest, tolerances))
    assert len(calls) > 700
    ranks = set()
    for table, d_m, d_n, tolerances in calls:
        spaces = []
        for build in (build_gns, oracles.build_gns_sorted):
            try:
                space = build(table, d_m, d_n, tolerances=tolerances)
                spaces.append((space.rank, space.monomial_index,
                               space.gram.tobytes(), space.coords.dtype,
                               space.coords.shape, space.coords.tobytes()))
            except NotPsdError as exc:
                spaces.append(str(exc))
        assert spaces[0] == spaces[1]
        ranks.add(spaces[0][0] if type(spaces[0]) is tuple else None)
    assert ranks == {None, 0, 1, 2, 3, 4, 5, 6}


def test_determinate_recovery_makes_no_complex_eigh_or_svd(monkeypatch):
    """A table's pair is real, so a determinate recovery runs every
    eigensolver and SVD in real arithmetic; the cross-check's solve, whose
    points are complex, is the one complex LAPACK call."""
    calls = {}
    for name in ("eigh", "svd", "solve"):
        def counted(a, *args, _call=getattr(np.linalg, name), _name=name,
                    **kwargs):
            key = (_name, np.asarray(a).dtype.kind)
            calls[key] = calls.get(key, 0) + 1
            return _call(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    rng = np.random.default_rng(3701)
    for degree in (8, 12, 14, 16, 20):
        mu = random_atomic_measure(rng, coord_low=-1.0, coord_high=1.0)
        reports = list(solve_canonical(moments_of_measure(mu, degree, degree)))
        assert [report.determinate for report in reports] == [True]
    assert set(calls) == {("eigh", "f"), ("svd", "f"), ("solve", "c")}
    assert calls["solve", "c"] == 5 and calls["svd", "f"] == 10


def test_joint_spectral_measure_of_a_real_pair_is_the_tables_measure():
    """Real input stays real, so the public function measures a
    determinate table's pair exactly as ``solve_canonical`` does."""
    rng = np.random.default_rng(3702)
    for degree in (8, 12, 16, 20):
        for _ in range(5):
            mu = random_atomic_measure(rng, coord_low=-1.0, coord_high=1.0)
            table, d = moments_of_measure(mu, degree, degree), degree // 2
            pair = solutions.build_operators(build_gns(table, d, d))
            a1 = pair.full_matrix(1)
            measure = joint_spectral_measure(0.5 * (a1 + a1.T),
                                             pair.a2_matrix, pair.h00)
            (report,) = solve_canonical(table, d_m=d, d_n=d)
            assert report.determinate and report.passed
            assert measure.points.tobytes() == report.measure.points.tobytes()
            assert (measure.weights.tobytes()
                    == report.measure.weights.tobytes())


def test_indeterminate_table_path_runs_on_the_complex_pair():
    """Where a table is indeterminate its real pair is cast to complex once,
    so the Cayley layer, whose rounding picks the canonical solutions the
    input leaves open, gets the arrays a complex pair gives: every measure
    and rejection, on seeded measures on lines, is that of ``solve_canonical``
    on the same pair cast to complex."""
    sampler = SamplerSpec("exhaustive-phases", phases=2)
    fields = ("a1_domain", "a1_action", "a2_domain", "a2_action", "h00")
    emitted = 0
    for seed in range(20):
        for lines, per_line, d_m in ((2, 10, 3), (3, 12, 4)):
            table = oracles.lines_table(seed, lines, per_line, d_m)
            pair = solutions.build_operators(build_gns(table, d_m, lines))
            assert pair.h00.dtype == np.float64 and not determinacy(pair)
            cast = dataclasses.replace(pair, **{
                k: getattr(pair, k).astype(complex) for k in fields})
            runs = []
            for source, kwargs in ((table, {"d_m": d_m, "d_n": lines}),
                                   (cast, {})):
                rejected = []
                stream = solve_canonical(
                    source, sampler, **kwargs,
                    on_reject=lambda label, exc: rejected.append(
                        (label, str(exc))))
                try:
                    got = [(r.u2_seed, r.determinate,
                            r.measure.points.tobytes(),
                            r.measure.weights.tobytes()) for r in stream]
                except Moment2dError as exc:
                    got = (type(exc), str(exc))
                runs.append((got, rejected))
            assert runs[0] == runs[1]
            emitted += len(runs[0][0])
    assert emitted > 200


@pytest.mark.parametrize("max_m, max_n, kwargs", [
    (1, 4, {}), (4, 1, {}), (0, 0, {}), (1, 6, {"d_n": 2}),
    (6, 1, {"d_m": 2})])
def test_table_too_small_for_the_default_rectangle(max_m, max_n, kwargs):
    mu = AtomicMeasure(np.array([[0.5, -0.5]]), np.array([1.0]))
    table = moments_of_measure(mu, max_m, max_n)
    with pytest.raises(IndexOutOfRangeError, match=re.escape(
            f"table holds degrees ({max_m}, {max_n}); the default "
            f"rectangle needs degrees of at least (2, 2)")):
        list(solve_canonical(table, **kwargs))


def _determinate_pair(a1, a2, h00) -> SymmetricPair:
    dim = len(h00)
    eye = np.eye(dim, dtype=complex)
    return SymmetricPair(dim=dim, a1_domain=eye,
                         a1_action=np.asarray(a1, dtype=complex),
                         a2_domain=eye,
                         a2_action=np.asarray(a2, dtype=complex),
                         h00=np.asarray(h00, dtype=complex), j_matrix=eye)


def _cli_solve(pair: SymmetricPair, tmp_path, capsys) -> tuple:
    """Exit code and stderr of ``solve-canonical`` on ``pair``; the
    output directory must not exist afterwards."""
    path = tmp_path / "pair.json"
    io.write_json(io.pair_to_json(pair), str(path))
    out = tmp_path / "out"
    code = main(["solve-canonical", str(path), "--output-dir", str(out)])
    assert not out.exists()
    return code, capsys.readouterr().err


def _seeded_determinate_tables() -> list:
    """48 seeded tables: degrees 8, 12, 16 and 20 on ``[-1, 1]^2`` and
    ``[-2, 2]^2``, plus the e2 table."""
    rng = np.random.default_rng(2024)
    tables = []
    for i in range(48):
        box = (1.0, 2.0)[i % 2]
        degree = (8, 12, 16, 20)[(i // 2) % 4]
        mu = random_atomic_measure(rng, coord_low=-box, coord_high=box)
        tables.append(moments_of_measure(mu, degree, degree))
    return tables + [e2().table]


def test_determinate_solution_matches_the_cayley_route():
    verify_tol = Tolerances().verify_tol
    compared = 0
    tables = _seeded_determinate_tables()
    for table in tables:
        report, = solve_canonical(table)
        assert (report.determinate, report.u2_seed) == (True, "determinate")
        largest = (table.max_m // 2, table.max_n // 2)
        pair = solutions.build_operators(solutions._default_gns(
            table, largest, tolerances=Tolerances()))
        ref = oracles.cayley_route_measure(pair)
        got = report.measure
        assert got.n_atoms == ref.n_atoms
        assert np.max(np.abs(got.points - ref.points)) <= 1e-12
        assert np.max(np.abs(got.weights - ref.weights)) <= 1e-9
        # The absolute verify test reads rounding when an error lies
        # within a factor 10 of verify_tol (table entries reach 1e12):
        # there either route may land on either side.
        errors = (report.max_abs_moment_error,
                  verify_solution(ref, table).max_abs_moment_error)
        if all(abs(np.log10(e / verify_tol)) > 1 for e in errors):
            assert report.passed == (errors[1] <= verify_tol)
            compared += 1
    assert compared >= 0.75 * len(tables)


def test_determinate_input_skips_the_cayley_data(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Cayley data built at defect 0")

    monkeypatch.setattr(solutions, "build_isometric_pair", refuse)
    monkeypatch.setattr(solutions, "canonical_extension", refuse)
    rejected = []
    sources = [e2().table, _determinate_pair(
        np.diag([0.5, -1.0]), np.diag([0.3, 1.1]), [0.6, 0.8])]
    for source in sources:
        for sampler in (SamplerSpec(),
                        SamplerSpec(kind="exhaustive-phases", phases=3)):
            reports = list(solve_canonical(
                source, sampler=sampler,
                on_reject=lambda label, exc: rejected.append(label)))
            assert len(reports) == 1 and reports[0].passed is True
            assert reports[0].u2_seed == "determinate"
    assert rejected == []


def test_determinate_input_forms_the_commutator_once(monkeypatch):
    calls = []
    real = solutions._commute_gate

    def counted(name, a1s, a2):
        calls.append(name)
        return real(name, a1s, a2)

    monkeypatch.setattr(solutions, "_commute_gate", counted)
    for source in (e2().table, _determinate_pair(
            np.diag([0.5, -1.0]), np.diag([0.3, 1.1]), [0.6, 0.8])):
        calls.clear()
        assert [r.passed for r in solve_canonical(source)] == [True]
        assert calls == ["A1"]
    # The A1 gate still runs ahead of the range gate on A2.
    pair = _determinate_pair([[0.5, 0.25], [0.25, -1.0]],
                             np.diag([1e10, 0.5]), [0.6, 0.8])
    with pytest.raises(StructureViolationError,
                       match=r"^A1 does not commute with A2 \(residual "):
        list(solve_canonical(pair))


def test_determinate_pair_with_non_commuting_operators_is_refused(
        tmp_path, capsys):
    pair = _determinate_pair([[0.5, 0.25], [0.25, -1.0]],
                             np.diag([0.3, -0.7]), [0.6, 0.8])
    message = r"^A1 does not commute with A2 \(residual "
    with pytest.raises(StructureViolationError, match=message):
        list(solve_canonical(pair))
    code, err = _cli_solve(pair, tmp_path, capsys)
    assert code == 3
    assert err.startswith("error: A1 does not commute with A2 (residual ")


def test_determinate_pair_with_a_non_hermitian_first_operator_is_refused():
    pair = _determinate_pair([[0.5, 0.25], [0.0, -1.0]],
                             np.diag([0.3, -0.7]), [0.6, 0.8])
    assert determinacy(pair) is True
    with pytest.raises(StructureViolationError,
                       match="^operator A1 is not symmetric on its domain$"):
        list(solve_canonical(pair))


def test_determinate_pair_keeps_the_range_gate_of_a2(tmp_path, capsys):
    # ||A2|| = 1e10: sigma_min(U - E) = 2e-10 for the Cayley transform U
    # of A2, as build_isometric_pair measures it.
    pair = _determinate_pair(np.diag([0.3, -0.7, 1.1]),
                             np.diag([1e10, 0.5, -1.0]), [0.6, 0.64, 0.48])
    message = ("Cayley transform of A2 has an eigenvalue at 1; A2 is "
               "outside the numerically supported range")
    for build in (build_isometric_pair, lambda p: list(solve_canonical(p))):
        with pytest.raises(StructureViolationError,
                           match=f"^{re.escape(message)}$"):
            build(pair)
    assert _cli_solve(pair, tmp_path, capsys) == (3, f"error: {message}\n")


def test_determinate_pair_with_a_fixed_cayley_vector_of_a1(tmp_path, capsys):
    # A1 = diag(1e10, 0.5, -1) is self-adjoint, so no parameter is
    # involved and on_reject is never called.  The joint spectral
    # measure clusters eigenvalues at cluster_tol * (1 + max |eigenvalue|),
    # here 100, so the two order-1 atoms merge and the resolvent
    # cross-check refuses the result.
    pair = _determinate_pair(np.diag([1e10, 0.5, -1.0]),
                             np.diag([0.3, -0.7, 1.1]), [0.6, 0.64, 0.48])
    rejected = []
    with pytest.raises(StructureViolationError,
                       match="^resolvent cross-validation failed at "):
        list(solve_canonical(
            pair, on_reject=lambda label, exc: rejected.append(label)))
    assert rejected == []
    code, err = _cli_solve(pair, tmp_path, capsys)
    assert code == 3
    assert err.startswith("error: resolvent cross-validation failed at ")


def _outcome(solve, pair, sampler):
    """Reports (every field bit for bit), ``on_reject`` calls and the
    error raised, by class and message, of a stream on a pair."""
    reports, rejected = [], []

    def on_reject(label, exc):
        rejected.append((label, type(exc), str(exc)))

    try:
        for r in solve(pair, sampler=sampler, on_reject=on_reject):
            reports.append((r.measure.points.tobytes(),
                            r.measure.weights.tobytes(),
                            r.max_abs_moment_error, r.u2_seed, r.passed,
                            r.determinate, r.degrees_checked))
    except (ClusterAmbiguityError, CommutationViolatedError, FixedPointError,
            NotUnitaryError, StructureViolationError) as exc:
        return reports, rejected, (type(exc), str(exc))
    return reports, rejected, None


ORACLE_SAMPLERS = [SamplerSpec(),
                   SamplerSpec("exhaustive-phases", phases=4),
                   *(SamplerSpec("haar-random", count=count, seed=7)
                     for count in (1, 16, 17, 40))]


@pytest.mark.parametrize("setup", [None, (3, 1, 0), (5, 2, 1), (10, 3, 2),
                                   (20, 1, 3), (40, 2, 4), (40, 3, 5)],
                         ids=lambda s: "e3" if s is None
                         else "e3_class-%d-%d-%d" % s)
def test_stacked_solve_canonical_matches_the_per_parameter_oracle(setup):
    # Chunks hold 16 parameters: counts 1, 16, 17 and 40 end the stream
    # inside, at and past a chunk boundary.
    pair = e3().pair if setup is None else e3_class(*setup).pair
    for sampler in ORACLE_SAMPLERS:
        want = _outcome(oracles.solve_canonical_per_parameter, pair, sampler)
        assert want[2] is None and want[0]
        assert _outcome(solve_canonical, pair, sampler) == want


def _fixed_point_phase(pair) -> np.ndarray:
    """The 1 x 1 parameter of a defect-1 pair whose extension ``V (+)
    U24 U2`` has the eigenvalue 1: ``det(V0 - E + u2 U24 N0^H) = 0``."""
    iso = build_isometric_pair(pair)
    shifted = iso.v_matrix - np.eye(iso.dim)
    z = -1.0 / (iso.n0_basis.conj().T @ np.linalg.solve(shifted, iso.u24))
    return z / np.abs(z)


def _stream(monkeypatch, u2s):
    """Let ``solve_canonical`` and the oracle draw ``u2s`` as the
    commutant parameters of whatever sampler they are given."""
    monkeypatch.setattr(solutions, "enumerate_commutant_unitaries",
                        lambda w2, sampler, **kwargs: iter(u2s))


def test_fixed_point_inside_a_chunk_is_rejected_and_the_rest_yield(
        monkeypatch):
    pair = e3().pair
    u2s = [np.array([[p]]) for p in np.exp(2j * np.pi * np.arange(20) / 20)]
    for k in (5, 17):
        u2s[k] = _fixed_point_phase(pair)
    _stream(monkeypatch, u2s)
    sampler = SamplerSpec("haar-random", count=20, seed=1)
    got = _outcome(solve_canonical, pair, sampler)
    assert got == _outcome(oracles.solve_canonical_per_parameter, pair,
                           sampler)
    reports, rejected, error = got
    assert [label for label, _, _ in rejected] == [
        "haar-random:seed=1:5", "haar-random:seed=1:17"]
    assert all(cls is FixedPointError for _, cls, _ in rejected)
    assert len(reports) == 18 and error is None


def test_fixed_point_inside_a_chunk_leaves_one_stacked_pass(monkeypatch):
    """The cross-check reads the ``U2`` of the slices that survive the
    fixed-point gate, so a chunk with a rejected parameter passes as one
    stack: a misaligned ``U2`` would fail it and retry parameter by
    parameter."""
    pair = e3().pair
    u2s = [np.array([[p]]) for p in np.exp(2j * np.pi * np.arange(20) / 20)]
    for k in (5, 17):
        u2s[k] = _fixed_point_phase(pair)
    _stream(monkeypatch, u2s)
    sizes, real = [], solutions._extension_stack

    def counted(pair, iso, stack):
        sizes.append(len(stack))
        return real(pair, iso, stack)

    monkeypatch.setattr(solutions, "_extension_stack", counted)
    reports, rejected, error = _outcome(
        solve_canonical, pair, SamplerSpec("haar-random", count=20, seed=1))
    assert sizes == [16, 4]
    assert [label for label, _, _ in rejected] == [
        "haar-random:seed=1:5", "haar-random:seed=1:17"]
    assert len(reports) == 18 and error is None


@pytest.mark.parametrize("k", [0, 3, 15, 16, 18])
def test_structural_error_inside_a_chunk_comes_after_the_earlier_reports(
        monkeypatch, k):
    pair = e3().pair
    u2s = [np.array([[p]]) for p in np.exp(2j * np.pi * np.arange(20) / 20)]
    if k:
        u2s[k - 1] = _fixed_point_phase(pair)
    u2s[k] = 0.5 * u2s[k]
    u2s[-1] = 0.25 * u2s[-1]
    _stream(monkeypatch, u2s)
    sampler = SamplerSpec("exhaustive-phases", phases=20)
    got = _outcome(solve_canonical, pair, sampler)
    assert got == _outcome(oracles.solve_canonical_per_parameter, pair,
                           sampler)
    reports, rejected, error = got
    assert len(reports) == max(k - 1, 0) and len(rejected) == min(k, 1)
    assert error == (NotUnitaryError,
                     f"U2 is not unitary within tolerance {STRUCTURE_TOL}")


def test_colliding_slice_retries_next_to_slices_that_do_not():
    rng = np.random.default_rng(5)
    c = _combinations()[0]
    # The redraw fixture of test_joint_spectral_measure_redraws_a_
    # colliding_combination, and two operators commuting with the same
    # A2 whose first combination separates every atom.
    points = np.array([[0.4, -0.3], [0.4 - 0.8 * c[1], -0.3 + 0.8 * c[0]],
                       [-1.0, 0.7]])
    q = haar_unitary(3, rng)
    h = rng.normal(size=3) + 1j * rng.normal(size=3)
    h = h / np.linalg.norm(h)
    a2 = q @ np.diag(points[:, 1]) @ q.conj().T
    a2 = 0.5 * (a2 + a2.conj().T)
    a1s = []
    for t1 in (points[:, 0] + [0.5, -0.25, 0.0], points[:, 0],
               points[:, 0] * 2.0):
        a1 = q @ np.diag(t1) @ q.conj().T
        a1s.append(0.5 * (a1 + a1.conj().T))
    collides = [np.min(_combination_gaps(a1, a2, c)[0])
                <= _combination_gaps(a1, a2, c)[1] for a1 in a1s]
    assert collides == [False, True, False]
    got = solutions._measure_stack(np.array(a1s), a2, h, None,
                                   tolerances=Tolerances())
    for a1, measure in zip(a1s, got):
        want = oracles.joint_spectral_measure_one(a1, a2, h)
        assert measure.n_atoms == 3
        assert np.array_equal(measure.points, want.points)
        assert np.array_equal(measure.weights, want.weights)


def test_merge_repeats_until_no_two_atoms_are_close():
    # Three atoms within 1.6 merge tolerances of one point: one greedy
    # pass can leave two merged atoms within the tolerance, which the
    # measure refused as coinciding.  Draws 80, 338, 426, 489 and 636 of
    # this generator did so.
    rng = np.random.default_rng(0)
    for _ in range(700):
        points = np.array([0.3, -0.2]) + rng.uniform(
            -1.6 * ATOM_MERGE_TOL, 1.6 * ATOM_MERGE_TOL, size=(3, 2))
        weights = rng.uniform(size=3) ** 3
        weights = weights / weights.sum()
        mu = joint_spectral_measure(np.diag(points[:, 0]),
                                    np.diag(points[:, 1]), np.sqrt(weights))
        gaps = np.abs(mu.points[:, None] - mu.points[None]).max(axis=2)
        assert np.all(gaps[np.triu_indices(mu.n_atoms, 1)] > ATOM_MERGE_TOL)
        assert mu.total_mass == pytest.approx(1.0, abs=1e-14)


def _stack_outcome(measure_stack, a1s, a2, h) -> object:
    """Each measure's shape, bytes and tolerance, or the error's class
    and message."""
    try:
        measures = measure_stack(a1s, a2, h, None, tolerances=Tolerances())
    except Exception as exc:
        return type(exc), str(exc)
    return [(m.points.shape, m.points.tobytes(), m.weights.shape,
             m.weights.tobytes(), m.merge_tol) for m in measures]


def _branch_stack(rng, flags, tiny=1e-7):
    """Hermitian ``A1`` per entry of ``flags``, commuting with one ``A2``
    on a Haar basis, and ``h00``.  Eigenvectors 0 and 1 hold atoms that
    the first combination collides where ``"collide"`` is flagged, 2-4
    one atom of multiplicity 3 (``"repeat"``), 5 and 6 atoms 5e-8 apart
    along the first combination, merged (``"merge"``), 7 an atom of
    weight ``tiny ** 2``, and 8-13 an atom and five partners, one
    colliding in each combination (``"ambiguous"``)."""
    c = _combinations()
    t2 = np.array([0.3, 0.3 + 0.8 * c[0][0], -0.5, -0.5, -0.5, 0.6,
                   0.6 + 5e-8 * c[0][1], -0.9, 0.05]
                  + [0.05 + 0.5 * (i + 1) * d[0] for i, d in enumerate(c)])
    q = haar_unitary(t2.size, rng)
    amp = rng.normal(size=t2.size) + 1j * rng.normal(size=t2.size)
    amp[7] = tiny
    a1s = []
    for flag in flags:
        t1 = rng.uniform(-1.0, 1.0, size=t2.size)
        if "collide" in flag:
            t1[1] = t1[0] - 0.8 * c[0][1]
        if "repeat" in flag:
            t1[3:5] = t1[2]
        if "merge" in flag:
            t1[6] = t1[5] + 5e-8 * c[0][0]
        if "ambiguous" in flag:
            t1[9:] = t1[8] - 0.5 * np.arange(1, 6) * np.array(c)[:, 1]
        a1 = q @ np.diag(t1) @ q.conj().T
        a1s.append(0.5 * (a1 + a1.conj().T))
    a2 = q @ np.diag(t2) @ q.conj().T
    return np.array(a1s), 0.5 * (a2 + a2.conj().T), q @ amp / np.linalg.norm(
        amp)


_BRANCH_FLAGS = [(), ("collide",), ("repeat",), ("merge",),
                 ("collide", "repeat"), ("collide", "merge"),
                 ("repeat", "merge"), ("collide", "repeat", "merge")]


@pytest.mark.parametrize("slices", [1, 16])
@pytest.mark.parametrize("tiny", [1e-7, 1e-5])
def test_measure_stack_is_bit_identical_to_the_vectorized_oracle(
        slices, tiny, monkeypatch):
    rng = np.random.default_rng(slices)
    eighs, eigh = [], np.linalg.eigh

    def counted(m):
        eighs.append(len(m))
        return eigh(m)

    stacks = ([[f] for f in _BRANCH_FLAGS] if slices == 1
              else [_BRANCH_FLAGS * 2])
    for flags in stacks:
        a1s, a2, h = _branch_stack(rng, flags, tiny)
        eighs.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", counted)
            got = _stack_outcome(solutions._measure_stack, a1s, a2, h)
        assert got == _stack_outcome(oracles.measure_stack_vectorized,
                                     a1s, a2, h)
        # Every branch is reached: the slices whose first combination
        # collides are taken again with the second, and of the 14
        # eigenvalues a triple atom takes two, a merge and a dropped
        # weight one each.
        retried = sum("collide" in flag for flag in flags)
        assert eighs == [len(flags)] + [retried] * (retried > 0)
        assert [m[0][0] for m in got] == [
            14 - 2 * ("repeat" in flag) - ("merge" in flag) - (tiny < 1e-6)
            for flag in flags]


_STACK_ERRORS = {
    "ambiguous": (ClusterAmbiguityError, "joint eigenvalue clusters "
                  "remained ambiguous after 5 random combinations"),
    "nan-a1": (np.linalg.LinAlgError, "Eigenvalues did not converge"),
    "inf-a1": (np.linalg.LinAlgError, "Eigenvalues did not converge"),
    "nan-a2": (np.linalg.LinAlgError, "Eigenvalues did not converge"),
    # Every weight is NaN, and none passes WEIGHT_DROP_TOL.
    "nan-h": None, "inf-h": None,
    # Finite input, infinite weights.
    "huge-h": (ValueError, "atoms must be finite"),
}


@pytest.mark.parametrize("case", sorted(_STACK_ERRORS))
def test_measure_stack_fails_as_the_vectorized_oracle(case):
    rng = np.random.default_rng(7)
    flags = list(_BRANCH_FLAGS * 2)
    if case == "ambiguous":
        flags[5] = ("ambiguous",)
    a1s, a2, h = _branch_stack(rng, flags)
    if case.endswith("a1"):
        a1s[5, 2, 2] = np.nan if case == "nan-a1" else np.inf
    if case == "nan-a2":
        a2[1, 1] = np.nan
    if case.endswith("h"):
        h[3] = {"nan-h": np.nan, "inf-h": np.inf, "huge-h": 1e160}[case]
    for stack in (a1s, a1s[5:6]):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = _stack_outcome(solutions._measure_stack, stack, a2, h)
            want = _stack_outcome(oracles.measure_stack_vectorized, stack,
                                  a2, h)
        assert got == want
        assert got == (_STACK_ERRORS[case] or [
            ((0, 2), b"", (0,), b"", ATOM_MERGE_TOL)] * len(stack))


def test_merging_stacks_are_bit_identical_to_the_vectorized_oracle():
    # The draws of test_merge_repeats_until_no_two_atoms_are_close; draw
    # 80 needs two merge passes.
    rng = np.random.default_rng(0)
    for _ in range(100):
        points = np.array([0.3, -0.2]) + rng.uniform(
            -1.6 * ATOM_MERGE_TOL, 1.6 * ATOM_MERGE_TOL, size=(3, 2))
        weights = rng.uniform(size=3) ** 3
        args = (np.diag(points[:, 0])[None] + 0j,
                np.diag(points[:, 1]) + 0j,
                np.sqrt(weights / weights.sum()) + 0j)
        assert (_stack_outcome(solutions._measure_stack, *args)
                == _stack_outcome(oracles.measure_stack_vectorized, *args))


def _count_close_pair_scans(monkeypatch) -> dict:
    from moment2d import moments
    calls, real = {"n": 0}, moments._has_close_pair

    def counted(*args):
        calls["n"] += 1
        return real(*args)

    for module in (moments, solutions):
        monkeypatch.setattr(module, "_has_close_pair", counted)
    return calls


def test_each_report_scans_its_atoms_for_a_close_pair_once(monkeypatch):
    rng = np.random.default_rng(1)
    table = moments_of_measure(random_atomic_measure(
        rng, coord_low=-1.0, coord_high=1.0), 8, 8)
    calls = _count_close_pair_scans(monkeypatch)
    reports = list(solve_canonical(table))
    assert len(reports) == 1 and calls["n"] == 1
    calls["n"] = 0
    reports = list(solve_canonical(
        e3_class(10, 2, 3).pair,
        sampler=SamplerSpec("exhaustive-phases", phases=4)))
    assert len(reports) == 4 and calls["n"] == 4
    # A merging report scans once more per merge pass.
    calls["n"] = 0
    c = _combinations()[0]
    points = np.array([[0.4, -0.3], [0.4 + 5e-8 * c[0], -0.3 + 5e-8 * c[1]],
                       [-1.0, 0.7]])
    mu = joint_spectral_measure(np.diag(points[:, 0]),
                                np.diag(points[:, 1]), np.full(3, 0.5 + 0j))
    assert mu.n_atoms == 2 and calls["n"] == 2


def test_combinations_are_the_first_seeded_draws():
    rng = np.random.default_rng(COMBINATION_SEED)
    assert len(solutions._COMBINATIONS) == MAX_COMBINATIONS
    for c in solutions._COMBINATIONS:
        draw = rng.normal(size=2)
        assert c.tobytes() == (draw / np.linalg.norm(draw)).tobytes()
        assert not c.flags.writeable


def _report_bytes(reports) -> list:
    return [(r.u2_seed, r.passed, r.determinate, r.degrees_checked,
             r.max_abs_moment_error, r.measure.points.tobytes(),
             r.measure.weights.tobytes()) for r in reports]


def _clear_rectangle_caches():
    from moment2d import gns, moments
    for cached in (moments._monomials, moments._gram_indices,
                   gns._shift_columns):
        cached.cache_clear()


def test_solve_canonical_reports_do_not_depend_on_warm_rectangle_caches():
    rng = np.random.default_rng(20)
    tables = [e2().table, e3().table] + [
        moments_of_measure(random_atomic_measure(
            rng, coord_low=-1.0, coord_high=1.0), degree, degree)
        for degree in (8, 12, 16)]
    runs = [dict(source=t) for t in tables] + [
        dict(source=tables[-1], d_m=3, d_n=5),
        dict(source=tables[-1], d_m=6, d_n=2)]
    cold = []
    for kwargs in runs:
        _clear_rectangle_caches()
        cold.append(_report_bytes(solve_canonical(**kwargs)))
    # Warm every cache with other rectangles, more of them than it keeps.
    big = moments_of_measure(random_atomic_measure(
        rng, coord_low=-1.0, coord_high=1.0), 14, 14)
    for d_m in range(1, 8):
        for d_n in range(1, 8):
            solutions.build_operators(build_gns(big, d_m, d_n))
    assert [_report_bytes(solve_canonical(**kwargs))
            for kwargs in runs] == cold
    assert sum(map(len, cold)) >= len(tables)


@pytest.mark.parametrize("factor", [1.0 - 1e-6, 1.0 + 1e-6])
def test_a2_range_gate_is_one_decision_on_both_paths(factor):
    from moment2d.cayley import A2_OUT_OF_RANGE
    from moment2d.config import FIXED_POINT_TOL
    lam = 2.0 / FIXED_POINT_TOL * factor
    pair = _determinate_pair(np.diag([0.5, -1.0]), np.diag([lam, 0.5]),
                             [0.6, 0.8])
    if factor > 1.0:
        for build in (build_isometric_pair,
                      lambda p: list(solve_canonical(p))):
            with pytest.raises(StructureViolationError,
                               match=f"^{re.escape(A2_OUT_OF_RANGE)}$"):
                build(pair)
        return
    assert build_isometric_pair(pair).defect_dim == 0
    (report,) = solve_canonical(pair)
    assert report.u2_seed == "determinate"
    assert np.allclose(report.measure.points, [[-1.0, 0.5], [0.5, lam]],
                       rtol=1e-12, atol=1e-12)
    assert np.allclose(report.measure.weights, [0.64, 0.36], rtol=1e-12)


def test_solve_canonical_forms_one_schur_form_of_w2(monkeypatch):
    import scipy.linalg
    calls = []
    real = scipy.linalg.schur

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counted)
    pair = e3_class(20, 2, 4).pair
    reports = list(solve_canonical(
        pair, sampler=SamplerSpec("exhaustive-phases", phases=4)))
    assert len(reports) >= 3
    assert calls == [(2, 2)]


def test_pair_stream_clears_the_fixed_point_screen_without_an_svd(
        monkeypatch):
    """On pairs whose extensions are far from a fixed point the stacked
    solve clears the screen: no SVD of the ``(K, n, n)`` extension stack."""
    real = np.linalg.svd
    stacks = []

    def spy(a, *args, **kwargs):
        if np.ndim(a) == 3:
            stacks.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    for seed in range(4):
        rejected = []
        reports = list(solve_canonical(
            e3_class(20, 2, seed).pair,
            sampler=SamplerSpec("exhaustive-phases", phases=4),
            on_reject=lambda label, exc: rejected.append(label)))
        assert len(reports) >= 4 and not rejected
    assert stacks == []


def test_held_schur_form_gives_the_same_factors_and_stream():
    from moment2d import godich_lutsenko
    iso = build_isometric_pair(e3_class(20, 3, 5).pair)
    held, fresh = (godich_lutsenko(iso.w2, schur=iso.w2_schur),
                   godich_lutsenko(iso.w2))
    assert held.k_matrix.tobytes() == fresh.k_matrix.tobytes()
    assert held.l_matrix.tobytes() == fresh.l_matrix.tobytes()
    for sampler in (SamplerSpec("exhaustive-phases", phases=3),
                    SamplerSpec("haar-random", count=4, seed=9)):
        held = enumerate_commutant_unitaries(iso.w2, sampler,
                                             schur=iso.w2_schur)
        fresh = enumerate_commutant_unitaries(iso.w2, sampler)
        assert [u.tobytes() for u in held] == [u.tobytes() for u in fresh]
    assert not any(a.flags.writeable for a in iso.w2_schur)
