"""Finite-size matrix machinery: Haar sampling, packing and covering
estimates, block-compression counting and pinching defects.

Covering numbers of continuous sets cannot be computed by sampling, so the
report vocabulary is rigid: packings certify lower bounds (at half the
separation radius), greedy covers of a sampled cloud are upper estimates
for the cloud only.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import e, pi
from typing import List, Sequence, Tuple, Union

import numpy as np

from .errors import DimensionMismatch
from .linalg import op_norm, op_norms
from .report import ReportRow
from .units import MatrixUnitSystem, UnitalEmbedding, normalize_shape, subrank

Point = Union[np.ndarray, Sequence[np.ndarray]]


def haar_unitaries(k: int, seeds: Sequence[int]) -> np.ndarray:
    """(n, k, k) stack of Haar-distributed unitaries, one per seed.

    Sample t is the QR of a complex Gaussian drawn from
    ``default_rng(seeds[t])``, with the phase fix; one stacked
    factorization serves all samples.
    """
    if k < 1:
        raise DimensionMismatch("dimension must be positive")
    z = np.empty((len(seeds), k, k), dtype=np.complex128)
    for t, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        z[t] = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q, r = np.linalg.qr(z / np.sqrt(2))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def spawned_seeds(seed: int, count: int) -> List[int]:
    """``count`` independent integer seeds spawned from one root seed."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


def _as_tuple(point: Point) -> List[np.ndarray]:
    if isinstance(point, np.ndarray):
        return [point]
    return list(point)


@dataclass
class CoveringEstimate:
    omega: float
    sample_count: int
    packing_count: int
    implied_cover_lower: int  # valid for balls of radius omega/2
    greedy_cover_count: int

    def to_json(self) -> dict:
        return {
            "omega": self.omega,
            "sample_count": self.sample_count,
            "packing_count": self.packing_count,
            "implied_cover_lower": self.implied_cover_lower,
            "greedy_cover_count": self.greedy_cover_count,
        }


def greedy_packing(cloud: Sequence[Point], omega: float) -> CoveringEstimate:
    """Scan-order maximal omega-separated subset of the cloud.

    Points at distance exactly omega are kept (closed separation), which
    maximizes the certified lower bound: balls of radius omega/2 contain at
    most one kept point, so any cover at that radius needs packing_count
    balls.  A point is kept exactly when no earlier kept point lies within
    omega of it, which is when no earlier ball of the greedy open-ball
    cover holds it: the kept points are that cover's centers, so one scan
    gives both counts.
    """
    points = list(cloud)
    if not points:
        raise DimensionMismatch("cloud must be nonempty")
    count = greedy_cover(points, omega)
    return CoveringEstimate(
        omega=float(omega),
        sample_count=len(points),
        packing_count=count,
        implied_cover_lower=count,
        greedy_cover_count=count,
    )


def greedy_cover(cloud: Sequence[Point], omega: float) -> int:
    """Greedy open-ball cover count: an upper estimate for the cloud itself.

    In scan order every point outside the earlier balls becomes a center;
    each new ball is measured against all points still uncovered at once.
    """
    if omega <= 0:
        raise DimensionMismatch("omega must be positive")
    points = list(cloud)
    if not points:
        return 0
    stack = _stack_cloud(points)
    num, width = stack.shape[:2]
    uncovered = np.ones(num, dtype=bool)
    balls = 0
    for i in range(num):
        if not uncovered[i]:
            continue
        balls += 1
        rest = i + np.flatnonzero(uncovered[i:])
        diffs = stack[i] - stack[rest]
        dist = op_norms(diffs.reshape(-1, *diffs.shape[2:])).reshape(-1, width).max(axis=1)
        uncovered[rest[dist < omega]] = False
    return balls


def _stack_cloud(points: List[Point]) -> np.ndarray:
    """A nonempty cloud as one (points, tuple length, p, q) array."""
    first = _as_tuple(points[0])
    shape = np.shape(first[0])
    stack = np.empty((len(points), len(first)) + shape, dtype=np.complex128)
    for n, point in enumerate(points):
        mats = _as_tuple(point)
        if len(mats) != len(first):
            raise DimensionMismatch("tuple lengths differ")
        for t, m in enumerate(mats):
            if np.shape(m) != shape:
                raise DimensionMismatch("cloud matrices have mixed shapes")
            stack[n, t] = m
    return stack


@dataclass
class UnitaryBoundReport:
    k: int
    radius: float
    certified_lower: int
    paper_lower: float
    paper_upper: float
    upper_violated: bool
    lower_status: str
    rows: List[ReportRow]  # cover-estimate rows at this radius; not part of to_json()

    def oracle_row(self, oracle: CoveringEstimate) -> ReportRow:
        """The lower-bound row for a reference packing (the circle grid at k = 1)."""
        return _lower_row(
            f"omega{self.radius:g}.circle_oracle_lower", oracle.packing_count, self.paper_lower
        )

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "radius": self.radius,
            "certified_lower": self.certified_lower,
            "paper_lower": self.paper_lower,
            "paper_upper": self.paper_upper,
            "upper_violated": self.upper_violated,
            "lower_status": self.lower_status,
        }


def check_unitary_bounds(k: int, radius: float, estimate: CoveringEstimate) -> UnitaryBoundReport:
    """Compare a packing-certified lower bound with the unitary-group bounds.

    The estimate's packing at separation 2*radius certifies a covering
    lower bound at ``radius``.  Sampling can contradict the upper bound
    (that would mean a bug) but can only be consistent or inconclusive
    about the lower one.  The report's rows are cover-estimate's rows at
    this radius: the certified count against the lower and the upper
    bound, and the greedy cover count against the upper bound.
    """
    if abs(estimate.omega - 2 * radius) > 1e-12:
        raise DimensionMismatch(
            f"estimate separation {estimate.omega} does not certify radius {radius}"
        )
    lower_ref = (1.0 / radius) ** (k * k)
    upper_ref = (9.0 * pi * e / radius) ** (k * k)
    certified = estimate.implied_cover_lower
    tag = f"omega{radius:g}"
    lower = _lower_row(f"{tag}.haar_certified_lower", certified, lower_ref)
    upper = ReportRow.check(f"{tag}.upper_consistent", certified, upper_ref)
    sane = ReportRow.check(f"{tag}.cover_estimate_sane", estimate.greedy_cover_count, upper_ref)
    return UnitaryBoundReport(
        k=k,
        radius=radius,
        certified_lower=certified,
        paper_lower=lower_ref,
        paper_upper=upper_ref,
        upper_violated=not upper.passed,
        lower_status="consistent" if lower.passed else "inconclusive",
        rows=[lower, upper, sane],
    )


def _lower_row(name: str, count: int, lower: float) -> ReportRow:
    """Passes when a certified count reaches the paper's lower bound."""
    return ReportRow(name, count, lower, count >= lower)


@dataclass
class CompressionCheck:
    dim: int
    cap_value: float
    subrank_at_least: bool
    bound_holds: bool


def compression_dimension(
    shape: Sequence[int], embedding: UnitalEmbedding, big_n: int
) -> CompressionCheck:
    """Real dimension sum c_s^2 k_s of the pinched Hermitian space.

    When every block size is at least N the dimension is capped by k^2/N;
    both sides are evaluated and reported.
    """
    shape = normalize_shape(shape)
    if embedding.shape != shape:
        raise DimensionMismatch("embedding does not match shape")
    if big_n < 1:
        raise DimensionMismatch("N must be positive")
    dim = sum(c * c * k for c, k in zip(embedding.multiplicities, shape))
    k_total = embedding.target_dim
    cap = k_total * k_total / big_n
    applies = subrank(shape) >= big_n
    holds = (not applies) or dim <= cap + 1e-12
    return CompressionCheck(
        dim=int(dim), cap_value=float(cap), subrank_at_least=applies, bound_holds=holds
    )


def enumerate_multiplicities(k: int, shape: Sequence[int]) -> Tuple[List[Tuple[int, ...]], dict]:
    """All positive multiplicity tuples embedding the shape unitally in M_k."""
    shape = normalize_shape(shape)
    if k < sum(shape):
        raise DimensionMismatch(f"target {k} below the minimal embedding {sum(shape)}")
    found: List[Tuple[int, ...]] = []

    def walk(idx: int, remaining: int, partial: Tuple[int, ...]):
        if idx == len(shape):
            if remaining == 0:
                found.append(partial)
            return
        k_s = shape[idx]
        tail_min = sum(shape[idx + 1 :])
        c = 1
        while c * k_s + tail_min <= remaining:
            walk(idx + 1, remaining - c * k_s, partial + (c,))
            c += 1

    walk(0, k, ())
    cap = (k / subrank(shape)) ** len(shape)
    report = {
        "count": len(found),
        "cardinality_cap": float(cap),
        "cap_respected": len(found) <= cap + 1e-9,
    }
    return found, report


def pinching_defect(elems: Sequence[np.ndarray], units: MatrixUnitSystem) -> List[float]:
    """Per-element distance to its own diagonal-block pinching.

    For a tuple within omega of block-diagonal form the defect is at most
    2*omega: the pinching is a contraction and fixes the block part.
    """
    diags = [units.unit(s, i, i) for s, k in enumerate(units.shape, start=1) for i in range(1, k + 1)]
    out = []
    for x in elems:
        pinched = np.zeros_like(x)
        for p in diags:
            pinched += p @ x @ p
        out.append(float(op_norm(x - pinched)))
    return out
