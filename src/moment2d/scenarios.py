"""Bundled example scenarios and random instance generators.

Three fixed scenarios cover the main regimes: a one-point mass (E1,
trivial determinate), a symmetric two-point mass (E2, determinate with
a genuine two-dimensional space), and a truncated one-variable Jacobi
block (E3, indeterminate with defect one and ``A2 = 0``).  The class
generator produces random commuting constructions of prescribed
dimension and defect for stress tests, and the random measure generator
feeds the determinate round-trip suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gns import SymmetricPair
from .moments import AtomicMeasure, MomentTable, moments_of_measure
from .solutions import moments_from_pair

__all__ = [
    "Scenario",
    "e1",
    "e2",
    "e3",
    "e3_class",
    "random_atomic_measure",
]

#: Consecutive rejected candidates after which ``random_atomic_measure``
#: gives up.  Seeded calls reject far fewer in a row: at most 18 over the
#: tests, 4 over the benchmark's tables and probes of seeds 1-10.
MAX_REJECTED_CANDIDATES = 10_000


@dataclass(frozen=True)
class Scenario:
    """A named moment-problem instance.

    ``measure`` is the unique solution for determinate scenarios and
    None for indeterminate ones; ``table`` holds the moments reachable
    from the pair (the full rectangle for measure-backed scenarios).
    """

    name: str
    pair: SymmetricPair
    table: MomentTable
    measure: AtomicMeasure | None
    description: str


def e1() -> Scenario:
    """Unit mass at the origin: dimension 1, both operators zero."""
    measure = AtomicMeasure(np.array([[0.0, 0.0]]), np.array([1.0]))
    table = moments_of_measure(measure, 2, 2)
    eye = np.eye(1, dtype=complex)
    zero = np.zeros((1, 1), dtype=complex)
    pair = SymmetricPair(dim=1, a1_domain=eye, a1_action=zero,
                         a2_domain=eye, a2_action=zero,
                         h00=np.array([1.0 + 0.0j]), j_matrix=eye)
    return Scenario(name="e1", pair=pair, table=table, measure=measure,
                    description="unit mass at the origin (determinate)")


def e2() -> Scenario:
    """Half masses at (1, 1) and (-1, -1): determinate, dimension 2.

    In the orthonormal basis of the classes of 1 and t1 both shifts act
    as the symmetric 0/1 flip matrix with full domain.
    """
    measure = AtomicMeasure(np.array([[1.0, 1.0], [-1.0, -1.0]]),
                            np.array([0.5, 0.5]))
    table = moments_of_measure(measure, 4, 4)
    eye = np.eye(2, dtype=complex)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    pair = SymmetricPair(dim=2, a1_domain=eye, a1_action=flip,
                         a2_domain=eye, a2_action=flip,
                         h00=np.array([1.0 + 0.0j, 0.0j]), j_matrix=eye)
    return Scenario(name="e2", pair=pair, table=table, measure=measure,
                    description="two symmetric atoms at +-(1, 1) "
                                "(determinate)")


def e3() -> Scenario:
    """Truncated Jacobi block: dimension 3, domain 2, ``A2 = 0``.

    The first shift is the tridiagonal matrix of the measure with unit
    masses 1/4 at t1 in {-3/2, -1/2, 1/2, 3/2} (and t2 = 0) restricted
    to the span of the first two orthonormal polynomial classes, so its
    defect numbers are (1, 1) and the problem is indeterminate; the
    second shift is zero with full domain.
    """
    b0 = np.sqrt(5.0) / 2.0
    b1 = 2.0 / np.sqrt(5.0)
    jac = np.array([[0.0, b0, 0.0],
                    [b0, 0.0, b1],
                    [0.0, b1, 0.0]], dtype=complex)
    eye = np.eye(3, dtype=complex)
    pair = SymmetricPair(dim=3, a1_domain=eye[:, :2], a1_action=jac[:, :2],
                         a2_domain=eye, a2_action=np.zeros((3, 3), dtype=complex),
                         h00=np.array([1.0 + 0.0j, 0.0j, 0.0j]),
                         j_matrix=eye)
    table = moments_from_pair(pair, 2, 2)
    return Scenario(name="e3", pair=pair, table=table, measure=None,
                    description="truncated Jacobi block with zero second "
                                "shift (indeterminate, defect 1)")


def e3_class(dim: int = 5, defect: int = 1, seed: int = 0) -> Scenario:
    """Random commuting construction with prescribed dimension and defect.

    Both full operators share a real eigenstructure: ``B2`` is a scalar
    on a block of size at least ``defect + 1`` and diagonal elsewhere,
    ``B1`` is a generic real symmetric matrix on that block and diagonal
    elsewhere, so they commute exactly.  The domain of ``A1`` drops the
    last ``defect`` block coordinates; since the dropped directions lie
    in a single eigenspace of ``B2`` the domain stays invariant under
    functions of ``B2`` and the extension machinery applies.  A final
    random real orthogonal conjugation removes axis alignment.
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    if not 1 <= defect < dim:
        raise ValueError("defect must satisfy 1 <= defect < dim")
    rng = np.random.default_rng(seed)
    k = int(rng.integers(defect + 1, dim + 1))
    rest = dim - k
    g = rng.normal(size=(k, k))
    b1 = np.zeros((dim, dim))
    b1[:k, :k] = (g + g.T) / 2.0
    b1[k:, k:] = np.diag(rng.uniform(-2.0, 2.0, size=rest))
    b2 = np.zeros((dim, dim))
    b2[:k, :k] = float(rng.uniform(-2.0, 2.0)) * np.eye(k)
    b2[k:, k:] = np.diag(rng.uniform(-2.0, 2.0, size=rest))
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q = q * np.sign(np.diag(r))[None, :]
    a1_full = q @ b1 @ q.T
    a2_full = q @ b2 @ q.T
    keep = list(range(k - defect)) + list(range(k, dim))
    domain = q[:, keep].astype(complex)
    h00 = q @ rng.normal(size=dim)
    h00 = (h00 / np.linalg.norm(h00)).astype(complex)
    pair = SymmetricPair(dim=dim, a1_domain=domain,
                         a1_action=(a1_full @ domain).astype(complex),
                         a2_domain=np.eye(dim, dtype=complex),
                         a2_action=a2_full.astype(complex),
                         h00=h00, j_matrix=np.eye(dim, dtype=complex))
    table = moments_from_pair(pair, 0, 2)
    return Scenario(name=f"e3-class-{dim}-{defect}-{seed}", pair=pair,
                    table=table, measure=None,
                    description=f"random commuting construction, dim {dim}, "
                                f"defect {defect}, seed {seed}")


def random_atomic_measure(rng: np.random.Generator,
                          n_atoms: int | None = None,
                          coord_low: float = -2.0, coord_high: float = 2.0,
                          weight_low: float = 0.1, weight_high: float = 1.0,
                          min_separation: float = 0.15) -> AtomicMeasure:
    """Random atomic measure with well-separated atoms.

    Coordinates are uniform on the square, weights uniform on the given
    interval; a candidate atom within ``min_separation`` of an accepted
    atom in both coordinates (max-norm distance) is resampled so that
    recovery at moderate degrees stays well-conditioned.  Two atoms may
    still share nearly the same ``t1`` or the same ``t2``.

    Draws, in this order: ``rng.integers(2, 7)`` atoms when ``n_atoms``
    is None, one ``rng.uniform(coord_low, coord_high, size=2)`` per
    candidate, then ``rng.uniform(weight_low, weight_high, size=n_atoms)``.
    Seeded tests, the benchmark's pools and its known-defect probe rely
    on these draws and on the state they leave.  Raises ValueError before
    any candidate when the square splits into fewer than ``n_atoms`` cells
    of side at most ``min_separation`` (each holds one atom at most), and
    after ``MAX_REJECTED_CANDIDATES`` rejections in a row (a jammed
    placement).
    """
    if n_atoms is None:
        n_atoms = int(rng.integers(2, 7))
    if n_atoms < 1:
        raise ValueError("n_atoms must be at least 1")
    side = coord_high - coord_low
    if n_atoms > 1 and 0.0 <= side <= math.isqrt(n_atoms - 1) * min_separation:
        raise ValueError(f"{n_atoms} atoms do not fit {min_separation} "
                         f"apart in a square of side {side}")
    points: list[list[float]] = []
    while len(points) < n_atoms:
        for _ in range(MAX_REJECTED_CANDIDATES):
            a, b = cand = rng.uniform(coord_low, coord_high, size=2).tolist()
            if all(max(abs(a - p), abs(b - q)) > min_separation
                   for p, q in points):
                points.append(cand)
                break
        else:
            raise ValueError(
                f"{MAX_REJECTED_CANDIDATES} consecutive candidates fell "
                f"within {min_separation} of the {len(points)} atoms placed")
    weights = rng.uniform(weight_low, weight_high, size=n_atoms)
    return AtomicMeasure(np.array(points), weights)
