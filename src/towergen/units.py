"""Block shapes and concrete matrix-unit systems.

A shape [k_1, ..., k_r] describes a multi-block algebra whose block s is a
full k_s x k_s matrix algebra.  A matrix-unit system realizes the blocks as
explicit ambient matrices e_ij^(s), indexed 1-based by (s, i, j).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch
from .linalg import as_operator, identity, matrix_to_json, op_norm, op_norms, screened_max_norm

Shape = Tuple[int, ...]


def normalize_shape(blocks: Sequence[int]) -> Shape:
    shape = tuple(int(k) for k in blocks)
    if not shape or any(k < 1 for k in shape):
        raise DimensionMismatch(f"shape must be nonempty positive block sizes, got {blocks}")
    return shape


def rank(blocks: Sequence[int]) -> int:
    """Sum of the block sizes."""
    return sum(normalize_shape(blocks))


def subrank(blocks: Sequence[int]) -> int:
    """Smallest block size."""
    return min(normalize_shape(blocks))


@dataclass(frozen=True)
class UnitalEmbedding:
    """Multiplicity data c_s for a unital copy of a shape inside M_target."""

    shape: Shape
    multiplicities: Tuple[int, ...]
    target_dim: int

    def __post_init__(self):
        shape = normalize_shape(self.shape)
        mult = tuple(int(c) for c in self.multiplicities)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "multiplicities", mult)
        if len(mult) != len(shape) or any(c < 1 for c in mult):
            raise DimensionMismatch(f"need one positive multiplicity per block, got {mult}")
        total = sum(c * k for c, k in zip(mult, shape))
        if total != self.target_dim:
            raise DimensionMismatch(
                f"multiplicities {mult} embed shape {shape} into dimension {total}, "
                f"not {self.target_dim}"
            )

    @staticmethod
    def minimal(shape: Sequence[int]) -> "UnitalEmbedding":
        s = normalize_shape(shape)
        return UnitalEmbedding(s, tuple(1 for _ in s), sum(s))


@dataclass
class MatrixUnitSystem:
    """Family of ambient matrices e_ij^(s); may be exact or approximate.

    ``unital`` records whether the diagonal units are meant to sum to the
    ambient identity (partial systems produced mid-recovery are not).
    """

    shape: Shape
    ambient_dim: int
    units: Dict[Tuple[int, int, int], np.ndarray]
    unital: bool = True

    def __post_init__(self):
        self.shape = normalize_shape(self.shape)
        for key, mat in self.units.items():
            m = as_operator(mat)
            if m.shape[0] != self.ambient_dim:
                raise DimensionMismatch(
                    f"unit {key} has dimension {m.shape[0]}, ambient is {self.ambient_dim}"
                )
            self.units[key] = m

    def unit(self, s: int, i: int, j: int) -> np.ndarray:
        return self.units[(s, i, j)]

    def keys(self):
        return sorted(self.units.keys())

    def iter_units(self) -> Iterator[Tuple[Tuple[int, int, int], np.ndarray]]:
        for key in self.keys():
            yield key, self.units[key]

    def diagonal_sum(self) -> np.ndarray:
        out = np.zeros((self.ambient_dim, self.ambient_dim), dtype=np.complex128)
        for s, k in enumerate(self.shape, start=1):
            for i in range(1, k + 1):
                unit = self.units.get((s, i, i))
                if unit is not None:
                    out = out + unit
        return out

    def corner_row_projection(self, rows_by_block: Sequence[int]) -> np.ndarray:
        out = np.zeros((self.ambient_dim, self.ambient_dim), dtype=np.complex128)
        for s, row in enumerate(rows_by_block, start=1):
            out += self.units[(s, row, row)]
        return out

    def to_json(self) -> list:
        return [
            {"s": s, "i": i, "j": j, "matrix": matrix_to_json(mat)}
            for (s, i, j), mat in self.iter_units()
        ]


def canonical_units(shape: Sequence[int], embedding: UnitalEmbedding | None = None) -> MatrixUnitSystem:
    """Exact unital system for a shape under a multiplicity embedding.

    Block s occupies a contiguous diagonal window of size c_s * k_s; its
    unit e_ij is the elementary matrix E_ij amplified c_s-fold, so every
    unit has rank c_s and the diagonal units sum to the identity.
    """
    shape = normalize_shape(shape)
    if embedding is None:
        embedding = UnitalEmbedding.minimal(shape)
    if embedding.shape != shape:
        raise DimensionMismatch(f"embedding shape {embedding.shape} does not match {shape}")
    dim = embedding.target_dim
    units: Dict[Tuple[int, int, int], np.ndarray] = {}
    offset = 0
    for s, (k, c) in enumerate(zip(shape, embedding.multiplicities), start=1):
        # block[i, j] = E_ij (x) I_c on the window: ones at (rows[i, t], rows[j, t])
        block = np.zeros((k, k, dim, dim), dtype=np.complex128)
        rows = offset + np.arange(k * c).reshape(k, c)
        idx = np.arange(k)
        block[idx[:, None, None], idx[None, :, None], rows[:, None, :], rows[None, :, :]] = 1.0
        units.update(((s, i + 1, j + 1), block[i, j]) for i in range(k) for j in range(k))
        offset += k * c
    return MatrixUnitSystem(shape=shape, ambient_dim=dim, units=units, unital=True)


@dataclass
class UnitDefects:
    """Worst-case deviations from the exact matrix-unit relations."""

    adjoint: float
    unitality: float
    multiplication: float

    def max(self) -> float:
        """Largest defect; NaN if any defect is NaN."""
        return float(np.max([self.adjoint, self.unitality, self.multiplication]))

    def to_json(self) -> dict:
        return {
            "adjoint": self.adjoint,
            "unitality": self.unitality,
            "multiplication": self.multiplication,
        }


_SKIP = -2  # matched pair whose composite unit a partial system lacks
_ZERO = -1  # pair whose product should vanish


def unit_defects(system: MatrixUnitSystem) -> UnitDefects:
    """Measure adjoint, unitality and multiplication defects.

    Multiplication covers both the in-block product rule and the vanishing
    of cross-block (or mismatched-index) products: a matched in-block pair
    e_ij e_jl should give e_il, every other pair zero.  Matched pairs whose
    composite is absent from a partial system cannot be scored and are
    skipped (scored as zero).  The maximum over all pairs is exact
    (``screened_max_norm``).
    """
    keys = system.keys()
    index = {key: n for n, key in enumerate(keys)}
    mats = np.stack([system.units[k] for k in keys])
    n, d, _ = mats.shape

    partners = np.stack([system.units[(s, j, i)] for s, i, j in keys])
    adj = op_norms(mats.conj().transpose(0, 2, 1) - partners).max()

    unitality = op_norm(system.diagonal_sum() - identity(d))

    # expected[l, r]: index of the unit e_l e_r should equal, _ZERO or _SKIP
    by_row = defaultdict(list)
    for r, (s, i, j) in enumerate(keys):
        by_row[(s, i)].append((r, j))
    expected = np.full((n, n), _ZERO)
    for l, (s, i, j) in enumerate(keys):
        for r, j1 in by_row[(s, j)]:
            expected[l, r] = index.get((s, i, j1), _SKIP)

    def residuals(li: np.ndarray, ri: np.ndarray) -> np.ndarray:
        out = mats[li] @ mats[ri]
        exp = expected[li, ri]
        hit = exp >= 0
        out[hit] -= mats[exp[hit]]
        out[exp == _SKIP] = 0.0
        return out

    mult = screened_max_norm(n, n, d, residuals)
    return UnitDefects(adjoint=float(adj), unitality=float(unitality), multiplication=float(mult))
