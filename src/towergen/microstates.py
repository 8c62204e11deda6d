"""Finite-size matrix machinery: Haar sampling, packing and covering
estimates, block-compression counting and pinching defects.

Covering numbers of continuous sets cannot be computed by sampling, so the
report vocabulary is rigid: a greedy cover of a sampled cloud is an upper
estimate for the cloud only, and its centers, a packing, certify a lower
bound at half the separation radius.
"""

from __future__ import annotations

from math import e, pi
from typing import List, Optional, Sequence, Tuple

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


def greedy_cover(cloud: np.ndarray, omega: float) -> int:
    """Greedy open-ball cover count: an upper estimate for the cloud itself,
    and a certified cover lower bound at radius omega/2.

    The cloud is one (n, p, q) array of matrices, as ``haar_unitaries``
    returns; anything else raises DimensionMismatch.  In scan order every
    point outside the earlier balls becomes a center; each new ball is
    measured against the points still uncovered, their differences formed
    a ``_WORKSPACE_BYTES`` block at a time.

    The centers are also the scan-order maximal closed omega-separated
    packing of the cloud: a point becomes a center exactly when no earlier
    center lies within omega of it, which is when the packing scan keeps
    it, points at distance exactly omega included.  An open ball of radius
    omega/2 holds at most one center, so any cover at that radius needs at
    least this many balls.
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


def unitary_bounds(k: int, radius: float) -> Tuple[float, float]:
    """(1/r)^(k^2) and (9 pi e / r)^(k^2), the lower and upper bounds on the
    number of operator-norm balls of radius r that cover U(k).

    They depend on (k, r) alone, so a bound past the largest double is
    DimensionOverflow before any sampling.
    """
    return (
        bound_power(1.0 / radius, k * k, f"lower bound (1/{radius:g})^(k^2)"),
        bound_power(9.0 * pi * e / radius, k * k, f"upper bound (9 pi e/{radius:g})^(k^2)"),
    )


def unitary_bound_rows(
    radius: float, bounds: Tuple[float, float], count: int, oracle: Optional[int] = None
) -> List[ReportRow]:
    """cover-estimate's rows at one radius.

    ``count`` is the greedy cover count of the Haar cloud at 2*radius, a
    certified cover lower bound at ``radius`` (see ``greedy_cover``).
    Sampling can contradict the upper bound (that would mean a bug) but can
    only be consistent or inconclusive about the lower one.  ``oracle`` is a
    reference count at the same separation (the circle grid at k = 1),
    checked against the lower bound alone.
    """
    lower, upper = bounds
    tag = f"omega{radius:g}"
    rows = [
        ReportRow(f"{tag}.haar_certified_lower", count, lower, count >= lower),
        ReportRow.check(f"{tag}.upper_consistent", count, upper),
    ]
    if oracle is not None:
        rows.append(ReportRow(f"{tag}.circle_oracle_lower", oracle, lower, oracle >= lower))
    return rows


def bound_power(base: float, exponent: float, name: str) -> float:
    """base ** exponent, or DimensionOverflow naming a bound past the largest double."""
    try:
        return base**exponent
    except OverflowError:
        raise DimensionOverflow(f"{name} = {base:g}^{exponent:g} overflows") from None


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
