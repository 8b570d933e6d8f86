from __future__ import annotations

import time

import numpy as np
import pytest

from moment2d.scenarios import MAX_REJECTED_CANDIDATES, random_atomic_measure

import oracles

_UNIT = dict(coord_low=-1.0, coord_high=1.0)


@pytest.mark.parametrize("kwargs", [
    {},
    _UNIT,
    *({"n_atoms": n} for n in range(1, 9)),
    {"min_separation": 0.0},
    # Frequent rejections: up to 18 candidates in a row on these seeds.
    {"n_atoms": 4, "min_separation": 0.6, **_UNIT},
], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()) or "defaults")
def test_random_atomic_measure_draws_as_the_per_candidate_generator(kwargs):
    for seed in range(40):
        rng = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        for _ in range(5):
            mu = random_atomic_measure(rng, **kwargs)
            points, weights = oracles.random_atomic_measure_per_candidate(
                ref, **kwargs)
            assert mu.points.tobytes() == points.tobytes()
            assert mu.points.shape == points.shape
            assert mu.weights.tobytes() == weights.tobytes()
        # The generator is left in the same state.
        assert rng.random() == ref.random()


@pytest.mark.parametrize("kwargs", [
    {"n_atoms": 2, "coord_low": 0.5, "coord_high": 0.5},
    {"n_atoms": 2, "coord_low": 0.5, "coord_high": 0.5,
     "min_separation": 0.0},
    # At most (floor(2 / 0.15) + 1) ** 2 = 196 atoms fit the unit box.
    {"n_atoms": 1000, **_UNIT},
    {"n_atoms": 197, **_UNIT},
    {"n_atoms": 5, "min_separation": 4.0},
    # Cells [-2, 0] and (0, 2] on each side: two atoms of one cell lie at
    # most 2 apart.
    {"n_atoms": 5, "min_separation": 2.0},
])
def test_random_atomic_measure_refuses_atoms_that_cannot_fit(kwargs):
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="do not fit"):
        random_atomic_measure(rng, **kwargs)
    assert time.perf_counter() - start < 1.0
    # Refused before any draw.
    assert rng.random() == np.random.default_rng(0).random()


def test_random_atomic_measure_gives_up_on_a_jammed_placement():
    # 16 atoms fit 0.6 apart in the unit box (a 4 x 4 grid of spacing
    # 0.65), but a greedy placement jams at 8 or 9: every candidate then
    # falls near an accepted atom.
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"{MAX_REJECTED_CANDIDATES} "
                                         "consecutive candidates"):
        random_atomic_measure(np.random.default_rng(0), n_atoms=16,
                              min_separation=0.6, **_UNIT)
    assert time.perf_counter() - start < 1.0
