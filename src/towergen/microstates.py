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
from typing import List, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, DimensionOverflow
from .linalg import _WORKSPACE_BYTES, op_norms
from .report import ReportRow
from .units import MatrixUnitSystem, normalize_shape

def haar_unitaries(k: int, seed: int, count: int) -> np.ndarray:
    """(count, k, k) stack of Haar unitaries drawn from one ``default_rng(seed)``.

    z is a (count, 2, k, k) standard normal draw and sample t the QR, with
    the phase fix (Mezzadri 2007), of (z[t, 0] + 1j z[t, 1]) / sqrt(2); the
    draw fills sample by sample, so the cloud is prefix-stable.
    """
    if k < 1:
        raise DimensionMismatch("dimension must be positive")
    z = np.random.default_rng(seed).standard_normal((count, 2, k, k))
    q, r = np.linalg.qr((z[:, 0] + 1j * z[:, 1]) / np.sqrt(2))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


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


def greedy_packing(cloud: np.ndarray, omega: float) -> CoveringEstimate:
    """Scan-order maximal omega-separated subset of an (n, p, q) cloud.

    Points at distance exactly omega are kept (closed separation), which
    maximizes the certified lower bound: balls of radius omega/2 contain at
    most one kept point, so any cover at that radius needs packing_count
    balls.  A point is kept exactly when no earlier kept point lies within
    omega of it, which is when no earlier ball of the greedy open-ball
    cover holds it: the kept points are that cover's centers, so one scan
    gives both counts.
    """
    if not len(cloud):
        raise DimensionMismatch("cloud must be nonempty")
    count = greedy_cover(cloud, omega)
    return CoveringEstimate(
        omega=float(omega),
        sample_count=len(cloud),
        packing_count=count,
        implied_cover_lower=count,
        greedy_cover_count=count,
    )


def greedy_cover(cloud: np.ndarray, omega: float) -> int:
    """Greedy open-ball cover count: an upper estimate for the cloud itself.

    The cloud is one (n, p, q) array of matrices, as ``haar_unitaries``
    returns; anything else raises DimensionMismatch.  In scan order every
    point outside the earlier balls becomes a center; each new ball is
    measured against the points still uncovered, their differences formed
    a ``_WORKSPACE_BYTES`` block at a time.
    """
    if omega <= 0:
        raise DimensionMismatch("omega must be positive")
    if not isinstance(cloud, np.ndarray) or cloud.ndim != 3:
        raise DimensionMismatch("a cloud is one (n, p, q) array")
    if not len(cloud):
        return 0
    stack = cloud.astype(np.complex128, copy=False)
    step = max(1, _WORKSPACE_BYTES // stack[0].nbytes)
    uncovered = np.ones(len(stack), dtype=bool)
    balls = 0
    for i in range(len(stack)):
        if not uncovered[i]:
            continue
        balls += 1
        rest = i + np.flatnonzero(uncovered[i:])
        for part in np.split(rest, np.arange(step, len(rest), step)):
            uncovered[part[op_norms(stack[i] - stack[part]) < omega]] = False
    return balls


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
    lower_ref = bound_power(1.0 / radius, k * k, f"lower bound (1/{radius:g})^(k^2)")
    upper_ref = bound_power(9.0 * pi * e / radius, k * k, f"upper bound (9 pi e/{radius:g})^(k^2)")
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


def bound_power(base: float, exponent: float, name: str) -> float:
    """base ** exponent, or DimensionOverflow naming a bound past the largest double."""
    try:
        return base**exponent
    except OverflowError:
        raise DimensionOverflow(f"{name} = {base:g}^{exponent:g} overflows") from None


def _lower_row(name: str, count: int, lower: float) -> ReportRow:
    """Passes when a certified count reaches the paper's lower bound."""
    return ReportRow(name, count, lower, count >= lower)


def multiplicity_table(
    shapes: Sequence[int] | Sequence[Sequence[int]], max_dim: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every positive multiplicity tuple c with c . shape <= max_dim of each
    shape of an (S, r) stack of shapes with r blocks each; a single shape is
    the stack of one.

    Returns an (m, r) int64 table, the (m,) index into the stack of each
    row's shape and the (m,) k = c . shape of each row.  The rows are sorted
    by shape, then by k, and the tuples at one k, those embedding the shape
    unitally in M_k, are in lexicographic order.  The table grows one block
    column at a time for the whole stack; block s of a shape takes every c_s
    that leaves room for one copy of each later block.
    """
    shapes = np.asarray(shapes, dtype=np.int64)
    if shapes.ndim == 1:
        shapes = shapes[None]
    if shapes.ndim != 2 or not shapes.shape[1] or (shapes < 1).any():
        raise DimensionMismatch("shapes must be an (S, r) stack of positive block sizes, r >= 1")
    later = shapes.sum(axis=1)[:, None] - np.cumsum(shapes, axis=1)  # the blocks after s
    columns: List[np.ndarray] = []  # the partial rows, one column per block so far
    owner = np.arange(len(shapes))  # the shape each partial row belongs to
    used = np.zeros(len(shapes), dtype=np.int64)  # c . shape of each partial row
    for k_s, rest in zip(shapes.T, later.T):
        counts = np.maximum((max_dim - rest[owner] - used) // k_s[owner], 0)
        parent = np.repeat(np.arange(len(used)), counts)
        c = np.arange(1, len(parent) + 1) - np.repeat(np.cumsum(counts) - counts, counts)
        owner = owner[parent]
        for s, column in enumerate(columns):
            columns[s] = column[parent]
        columns.append(c)
        used = used[parent] + c * k_s[owner]
    order = np.argsort(owner * (max_dim + 1) + used, kind="stable")
    table = np.empty((len(order), shapes.shape[1]), dtype=np.int64)
    for s in reversed(range(len(columns))):
        table[:, s] = columns.pop()[order]  # each column freed once copied
    return table, owner[order], used[order]


def multiplicity_counts(shape: Sequence[int], max_dim: int) -> np.ndarray:
    """Number of positive tuples c with c . shape = k, for k = 0..max_dim.

    The coefficient of x^k in prod_s x^{k_s} / (1 - x^{k_s}) (Stanley,
    EC I, ch. 1): start from x^{sum k_s} and divide by each 1 - x^{k_s} with
    the integer recurrence a[k] += a[k - k_s].  It walks no tuples, so it
    checks ``multiplicity_table`` independently.
    """
    shape = normalize_shape(shape)
    counts = [0] * (max_dim + 1)
    if sum(shape) <= max_dim:
        counts[sum(shape)] = 1
    for k_s in shape:
        for k in range(k_s, max_dim + 1):
            counts[k] += counts[k - k_s]
    return np.array(counts, dtype=np.int64)


def pinching_defect(elems: np.ndarray | Sequence[np.ndarray], units: MatrixUnitSystem) -> np.ndarray:
    """Distance of each matrix of an (n, k, k) stack to its own diagonal-block
    pinching; a sequence of matrices is stacked.

    For a tuple within omega of block-diagonal form the defect is at most
    2*omega: the pinching is a contraction and fixes the block part.  x
    minus its pinching is x with the square of every table row zeroed, one
    scatter per block for the whole stack, and the defects are one
    ``op_norms`` call, each bit-identical to ``op_norm`` of its matrix.
    """
    if units.rows is None:
        raise DimensionMismatch("pinching_defect needs an exact unit system")
    off = np.array(elems, dtype=np.complex128)
    for table in units.rows:  # every row's square: (row i, coordinate t, t')
        off[:, table[:, :, None], table[:, None, :]] = 0.0
    return op_norms(off)
