"""End-to-end acceptance suite.

Each test checks one release criterion at a fixed tolerance and emits a
single ``ACCEPTANCE n: PASS/FAIL`` line (repeated in the terminal
summary).  The criteria exercise the full pipeline: determinate
round-trip recovery, extension-formula agreement with brute-force
oracles, the unitary/symmetric correspondence, adjoint and reflection
symmetry, conjugation factorization, injectivity of the parameter map,
trigonometric moments, the determinacy classifier, Carleman trends, and
a closed-form spot check.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from moment2d import (
    ContractionParameter,
    FixedPointError,
    MomentTable,
    SamplerSpec,
    build_gns,
    build_isometric_pair,
    build_operators,
    canonical_extension,
    carleman_diagnostic,
    e1,
    e2,
    e3,
    moments_of_measure,
    pair_resolvent_of_measure,
    pair_resolvent_symmetric,
    pair_resolvent_unitary,
    prepare_pair,
    solve_canonical,
    trig_moments_from_resolvent,
)
from moment2d.cayley import (
    commutation_check,
    constant_admissibility,
    extend_isometry,
    godich_lutsenko,
)
from moment2d.config import Tolerances
from moment2d.linalg import haar_unitary
from moment2d.resolvents import cayley_point
from moment2d.scenarios import e3_class, random_atomic_measure
from moment2d.solutions import determinacy, enumerate_commutant_unitaries

import oracles

# Random commuting constructions covering the indeterminate regimes up
# to dimension 8 and defect 2.
EXTENSION_SETUPS = ((4, 1, 11), (5, 1, 12), (6, 2, 13), (8, 2, 14))

SUITE_SEED = 20260819


def _conclude(log, n: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    log(f"ACCEPTANCE {n}: {status} - {detail}")
    assert ok, f"acceptance criterion {n}: {detail}"


@functools.lru_cache(maxsize=1)
def _suite_measures() -> tuple:
    """Fifty random atomic measures shared by criteria 1, 8 and 9."""
    rng = np.random.default_rng(SUITE_SEED)
    return tuple(random_atomic_measure(rng) for _ in range(50))


@functools.lru_cache(maxsize=1)
def _round_trip_results() -> dict:
    # Gram norms reach ~1e8 at these degrees, so the rank decision needs
    # a tighter relative threshold than the package default.
    tol = Tolerances(rank_tol=1e-12)
    worst_atom = worst_weight = worst_err = 0.0
    single = True
    start = time.perf_counter()
    for mu in _suite_measures():
        table = moments_of_measure(mu, 12, 12)
        reports = list(solve_canonical(table, d_m=6, d_n=6, tolerances=tol,
                                       refine=True))
        single = single and len(reports) == 1
        rep = reports[0]
        got = rep.measure.sorted()
        want = mu.sorted()
        worst_atom = max(worst_atom,
                         float(np.max(np.abs(got.points - want.points))))
        worst_weight = max(worst_weight,
                           float(np.max(np.abs(got.weights - want.weights))))
        worst_err = max(worst_err, rep.max_abs_moment_error)
    elapsed = time.perf_counter() - start
    return {"single": single, "atom": worst_atom, "weight": worst_weight,
            "moment": worst_err, "elapsed": elapsed}


@functools.lru_cache(maxsize=1)
def _extension_results() -> dict:
    """Shared evaluation suite for criteria 2 and 3.

    For each setup, ten commutant parameters are turned into contraction
    parameters through the conjugation factorization; the generalized
    resolvent is compared entrywise with the direct product of
    resolvents of the explicit extension, and the Moebius-side
    compression with its negative, at twenty random points each.
    """
    rng = np.random.default_rng(321)
    valid = 0
    gates = True
    formula_err = corr_err = 0.0
    for dim, defect, seed in EXTENSION_SETUPS:
        pair = e3_class(dim, defect, seed).pair
        iso = build_isometric_pair(pair)
        b2 = pair.full_matrix(2)
        eye = np.eye(dim, dtype=complex)
        count = 0
        sampler = SamplerSpec(kind="haar-random", count=40, seed=1000 + seed)
        for u2 in enumerate_commutant_unitaries(iso.w2, sampler):
            if count == 10:
                break
            try:
                ext = canonical_extension(pair, iso, u2)
            except FixedPointError:
                continue
            phi = ContractionParameter.const(
                iso.ninf_basis.conj().T @ ext.u24 @ u2)
            gates = gates and constant_admissibility(iso, phi)
            gates = gates and commutation_check(iso, phi, 0.1 + 0.2j)
            count += 1
            v_tilde = extend_isometry(iso, phi, 0.0)
            prepared = prepare_pair(iso, phi)
            for _ in range(20):
                lam1, lam2 = oracles.random_point_pair(rng)
                r_s = pair_resolvent_symmetric(prepared, lam1, lam2)
                direct = oracles.resolvent_product(ext.a1_tilde, b2,
                                                   lam1, lam2)
                formula_err = max(formula_err,
                                  float(np.max(np.abs(r_s - direct))))
                r_u = pair_resolvent_unitary(v_tilde, iso.u_matrix, eye,
                                             cayley_point(lam1),
                                             cayley_point(lam2))
                corr_err = max(corr_err,
                               float(np.max(np.abs(r_u + r_s))))
        valid += count
    return {"valid": valid, "gates": gates, "formula": formula_err,
            "corr": corr_err}


def test_criterion_01_determinate_round_trip(acceptance_log):
    res = _round_trip_results()
    ok = (res["single"] and res["atom"] <= 1e-7 and res["weight"] <= 1e-7
          and res["moment"] <= 1e-8 and res["elapsed"] < 30.0)
    _conclude(acceptance_log, 1, ok,
              f"50 measures, single solution each, atom err {res['atom']:.2e}"
              f" (tol 1e-7), moment err {res['moment']:.2e} (tol 1e-8), "
              f"{res['elapsed']:.2f} s (budget 30 s)")


def test_criterion_02_resolvent_formula_vs_direct_product(acceptance_log):
    res = _extension_results()
    ok = (res["valid"] == 40 and res["gates"]
          and res["formula"] <= 1e-9)
    _conclude(acceptance_log, 2, ok,
              f"{res['valid']}/40 parameters passed both gates, formula vs "
              f"direct product err {res['formula']:.2e} (tol 1e-9)")


def test_criterion_03_unitary_symmetric_correspondence(acceptance_log):
    res = _extension_results()
    ok = res["corr"] <= 1e-9
    _conclude(acceptance_log, 3, ok,
              f"R_u + R_s residual {res['corr']:.2e} at Moebius-mapped "
              f"points (tol 1e-9)")


def test_criterion_04_adjoint_and_reflection_symmetry(acceptance_log):
    pair = e3_class(5, 1, 12).pair
    iso = build_isometric_pair(pair)
    sampler = SamplerSpec(kind="haar-random", count=1, seed=5)
    u2 = next(iter(enumerate_commutant_unitaries(iso.w2, sampler)))
    ext = canonical_extension(pair, iso, u2)
    prepared = prepare_pair(iso, ContractionParameter.const(
        iso.ninf_basis.conj().T @ ext.u24 @ u2))
    b2 = pair.full_matrix(2)
    rng = np.random.default_rng(77)
    adj_err = refl_err = 0.0
    for _ in range(100):
        lam1, lam2 = oracles.random_point_pair(rng)
        lam1 = complex(lam1.real, abs(lam1.imag))
        # Adjoint relation: the conjugate-point value is the adjoint.
        r_s = pair_resolvent_symmetric(prepared, lam1, lam2)
        direct = oracles.resolvent_product(ext.a1_tilde, b2,
                                           np.conj(lam1), np.conj(lam2))
        adj_err = max(adj_err, float(np.max(np.abs(r_s.conj().T - direct))))
        # Reflection: the formula evaluated below the real axis agrees
        # with the direct product computed there.
        low = pair_resolvent_symmetric(prepared, np.conj(lam1),
                                       np.conj(lam2))
        refl_err = max(refl_err, float(np.max(np.abs(low - direct))))
    ok = adj_err <= 1e-9 and refl_err <= 1e-9
    _conclude(acceptance_log, 4, ok,
              f"adjoint err {adj_err:.2e}, reflection err {refl_err:.2e} "
              f"over 100 point pairs (tol 1e-9)")


def test_criterion_05_conjugation_factorization(acceptance_log):
    rng = np.random.default_rng(555)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 11))
        w = haar_unitary(n, rng)
        f = godich_lutsenko(w)
        eye = np.eye(n)
        worst = max(
            worst,
            float(np.max(np.abs(f.k_matrix @ np.conj(f.k_matrix) - eye))),
            float(np.max(np.abs(f.l_matrix @ np.conj(f.l_matrix) - eye))),
            float(np.max(np.abs(f.k_matrix @ np.conj(f.l_matrix) - w))))
    _conclude(acceptance_log, 5, worst <= 1e-10,
              f"100 Haar unitaries up to dim 10, worst conjugation "
              f"invariant residual {worst:.2e} (tol 1e-10)")


def test_criterion_06_parameter_injectivity(acceptance_log):
    scenario = e3()
    iso = build_isometric_pair(scenario.pair)
    h00 = scenario.pair.h00
    grid = [(complex(a, 0.9), complex(b, 0.7))
            for a in (-1.0, -0.5, 0.0, 0.5, 1.0)
            for b in (-0.8, -0.3, 0.2, 0.7, 1.2)]
    values = []
    for theta in (0.7, 1.5, 2.3, 3.1, 4.6):
        prepared = prepare_pair(iso, ContractionParameter.const(
            np.array([[np.exp(1j * theta)]], dtype=complex)))
        values.append(np.array(
            [complex(np.vdot(h00, pair_resolvent_symmetric(
                prepared, lam1, lam2) @ h00)) for lam1, lam2 in grid]))
    grid_sep = min(float(np.max(np.abs(values[i] - values[j])))
                   for i in range(5) for j in range(i + 1, 5))
    # Distinct commutant parameters must also produce distinct measures.
    sampler = SamplerSpec(kind="exhaustive-phases", phases=5)
    reports = list(solve_canonical(scenario.pair, sampler=sampler))
    point = (1.3j, 0.4 + 0.9j)
    scalars = [pair_resolvent_of_measure(r.measure, *point) for r in reports]
    value_sep = min(abs(scalars[i] - scalars[j])
                    for i in range(len(scalars))
                    for j in range(i + 1, len(scalars)))
    ok = (grid_sep > 1e-12 and len(reports) == 5 and value_sep > 1e-12
          and all(r.passed for r in reports))
    _conclude(acceptance_log, 6, ok,
              f"5 constant parameters separated by {grid_sep:.2e} on a "
              f"25-point grid, 5 canonical solutions separated by "
              f"{value_sep:.2e} (floor 1e-12)")


def test_criterion_07_trigonometric_moments(acceptance_log):
    worst = -np.inf
    min_eig = np.inf
    for scenario in (e1(), e2()):
        iso = build_isometric_pair(scenario.pair)
        phi = ContractionParameter.const(
            np.zeros((iso.ninf_basis.shape[1], iso.n0_basis.shape[1]),
                     dtype=complex))
        table = trig_moments_from_resolvent(iso, phi, scenario.pair.h00,
                                            4, 4)
        for j in range(-4, 5):
            for k in range(-4, 5):
                direct = oracles.trig_moment_direct(
                    scenario.measure.points, scenario.measure.weights, j, k)
                worst = max(worst, abs(table.entry(j, k) - direct))
        ok_psd, eig = table.psd_check()
        min_eig = min(min_eig, eig)
    ok = worst <= 1e-10 and min_eig >= -1e-8
    _conclude(acceptance_log, 7, ok,
              f"order (4,4) torus moments err {worst:.2e} (tol 1e-10), "
              f"block Toeplitz min eigenvalue {min_eig:.2e} (floor -1e-8)")


def test_criterion_08_determinacy_classifier(acceptance_log):
    tol = Tolerances(rank_tol=1e-12)
    agree = True
    for mu in _suite_measures():
        table = moments_of_measure(mu, 12, 12)
        pair = build_operators(build_gns(table, 6, 6, tolerances=tol))
        det = determinacy(pair)
        agree = agree and det and det == (pair.defect_index(1) == 0)
    for dim, defect, seed in EXTENSION_SETUPS:
        pair = e3_class(dim, defect, seed).pair
        det = determinacy(pair)
        agree = agree and not det and pair.defect_index(1) == defect
    _conclude(acceptance_log, 8, agree,
              "determinate on all 50 measure-backed instances, "
              "indeterminate on all 4 operator constructions, 100% "
              "defect-index agreement")


def test_criterion_09_carleman_trends(acceptance_log):
    verdicts = {carleman_diagnostic(moments_of_measure(mu, 2, 16),
                                    0, 8).verdict
                for mu in _suite_measures()}
    big_k = 10
    vals = np.zeros((3, 2 * big_k + 1))
    for k in range(big_k + 1):
        fact = float(math.factorial(2 * k))
        vals[0, 2 * k] = fact ** 2 * 4.0 ** (2 * k)
        vals[2, 2 * k] = fact ** 2 * 4.0 ** (2 * k)
    synthetic = carleman_diagnostic(MomentTable(2, 2 * big_k, vals),
                                    0, big_k)
    ok = verdicts == {"diverging-trend"} and \
        synthetic.verdict == "converging-trend"
    _conclude(acceptance_log, 9, ok,
              f"all 50 compact-support tables diverging-trend at K=8, "
              f"factorial table {synthetic.verdict} with partial sum "
              f"{synthetic.partial_sums[-1]:.3f}")


def test_criterion_10_closed_form_spot_check(acceptance_log):
    iso = build_isometric_pair(e1().pair)
    prepared = prepare_pair(
        iso, ContractionParameter.const(np.zeros((0, 0), dtype=complex)))
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(10):
        lam1, lam2 = oracles.random_point_pair(rng)
        got = pair_resolvent_symmetric(prepared, lam1, lam2)[0, 0]
        worst = max(worst, abs(got - 1.0 / (lam1 * lam2)))
    _conclude(acceptance_log, 10, worst <= 1e-12,
              f"origin-mass resolvent vs 1/(l1*l2) err {worst:.2e} at "
              f"10 random points (tol 1e-12)")
