"""Block shapes and concrete matrix-unit systems.

A shape [k_1, ..., k_r] describes a multi-block algebra whose block s is a
full k_s x k_s matrix algebra.  A matrix-unit system realizes the blocks as
ambient matrices e_ij^(s), indexed 1-based by (s, i, j), in one of three
storage forms: row tables of 0/1 partial isometries (exact systems), column
factors e_ij = F_i F_j^* (recovered and stabilized systems) or dense
matrices (anything else, such as perturbed systems).  ``unit(s, i, j)``
reads one unit from any of them; no form keeps a dense copy of another.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch
from .linalg import _lapack, as_operator, identity, op_norm, op_norms, screened_max_norm

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


class MatrixUnitSystem:
    """Family of ambient matrices e_ij^(s); may be exact or approximate.

    A system is given exactly one storage form:

    - ``rows``: an exact system, one row table per block, an int array R_s
      of shape (k_s, c_s) whose entries are distinct ambient coordinates,
      with e_ij^(s) = sum_t |R_s[i, t]><R_s[j, t]|, a 0/1 partial isometry
      of rank c_s;
    - ``factors``: one complex (k_s, d, m_s) array F per block, with
      e_ij^(s) = F[i-1] F[j-1]^*, as recovery stores a level;
    - ``units``: a dict of dense d x d matrices keyed (s, i, j).

    ``unit(s, i, j)`` is the one reader of every form: it forms that one
    unit from a table or from factors.  ``units`` is None unless the
    system is dense.
    """

    def __init__(
        self,
        shape: Sequence[int],
        ambient_dim: int,
        units: Optional[Dict[Tuple[int, int, int], np.ndarray]] = None,
        rows: Optional[Sequence[np.ndarray]] = None,
        factors: Optional[Sequence[np.ndarray]] = None,
    ):
        self.shape = normalize_shape(shape)
        self.ambient_dim = int(ambient_dim)
        if sum(form is not None for form in (units, rows, factors)) != 1:
            raise DimensionMismatch(
                "a unit system takes exactly one of dense units, row tables or column factors"
            )
        self.rows = None if rows is None else _checked_rows(self.shape, self.ambient_dim, rows)
        self.factors = (
            None if factors is None else _checked_factors(self.shape, self.ambient_dim, factors)
        )
        self.units = units
        if units is not None:
            for key, mat in units.items():
                m = as_operator(mat)
                if m.shape[0] != self.ambient_dim:
                    raise DimensionMismatch(
                        f"unit {key} has dimension {m.shape[0]}, ambient is {self.ambient_dim}"
                    )
                units[key] = m

    def unit(self, s: int, i: int, j: int) -> np.ndarray:
        if self.units is not None:
            return self.units[(s, i, j)]
        if not (1 <= s <= len(self.shape) and 1 <= min(i, j) <= max(i, j) <= self.shape[s - 1]):
            raise KeyError((s, i, j))
        if self.rows is not None:
            table = self.rows[s - 1]
            out = np.zeros((self.ambient_dim, self.ambient_dim), dtype=np.complex128)
            out[table[i - 1], table[j - 1]] = 1.0
            out.flags.writeable = False
            return out
        f = self.factors[s - 1]
        return f[i - 1] @ f[j - 1].conj().T

    def keys(self):
        if self.units is not None:
            return sorted(self.units.keys())
        return [(s, i, j) for s, k in enumerate(self.shape, start=1)
                for i in range(1, k + 1) for j in range(1, k + 1)]

    def iter_units(self) -> Iterator[Tuple[Tuple[int, int, int], np.ndarray]]:
        for key in self.keys():
            yield key, self.unit(*key)

    def diagonal_sum(self) -> np.ndarray:
        out = np.zeros((self.ambient_dim, self.ambient_dim), dtype=np.complex128)
        for s, i, j in self.keys():
            if i == j:
                out = out + self.unit(s, i, i)
        return out

    def unitality_defect(self) -> float:
        """||sum of the diagonal units - I||; an exact system's is read off its tables.

        The diagonal units of an exact system sum to the 0/1 diagonal that
        marks the coordinates its tables cover, so the defect is 0.0 when
        they cover every coordinate and 1.0 otherwise, as ``op_norm`` gives.
        """
        if self.rows is None:
            return op_norm(self.diagonal_sum() - identity(self.ambient_dim))
        covered = sum(table.size for table in self.rows)
        return 0.0 if covered == self.ambient_dim else 1.0

    def column_map(self, s: int, i: int, j: int) -> np.ndarray:
        """Unit e_ij^(s) of an exact system as a map of column coordinates.

        Entry c of the ambient_dim + 1 entries is the row of the unit's 1 in
        column c, or -1 where the column is zero; the last entry is -1, so
        ``u[v]`` is the map of the product u v.
        """
        if self.rows is None:
            raise DimensionMismatch("only an exact unit system has column maps")
        table = self.rows[s - 1]
        out = np.full(self.ambient_dim + 1, -1, dtype=np.intp)
        out[table[j - 1]] = table[i - 1]
        return out

    def column_maps(self) -> np.ndarray:
        """``column_map`` of every unit in ``keys()`` order, one scatter per block."""
        maps = []
        for table in self.rows:
            k = table.shape[0]
            block = np.full((k, k, self.ambient_dim + 1), -1, dtype=np.intp)
            idx = np.arange(k)
            block[idx[:, None, None], idx[None, :, None], table[None, :, :]] = table[:, None, :]
            maps.append(block.reshape(k * k, -1))
        return np.concatenate(maps)

    def column_factors(self) -> Tuple[np.ndarray, ...]:
        """One (k_s, d, m_s) array F per block with e_ij = F[i-1] F[j-1]^*.

        A factored system returns its factors; an exact one the indicator
        columns of its table rows, so F_i^* F_j is exactly 0 or I.  Dense
        systems have no stored factors and raise DimensionMismatch.
        """
        if self.factors is not None:
            return self.factors
        if self.rows is None:
            raise DimensionMismatch("a dense unit system has no column factors")
        out = []
        for table in self.rows:
            k, c = table.shape
            block = np.zeros((k, self.ambient_dim, c), dtype=np.complex128)
            block[np.arange(k)[:, None], table, np.arange(c)] = 1.0
            out.append(block)
        return tuple(out)


def _checked_rows(shape: Shape, dim: int, rows: Sequence[np.ndarray]) -> Tuple[np.ndarray, ...]:
    tables = tuple(np.asarray(table, dtype=np.intp) for table in rows)
    if len(tables) != len(shape) or any(
        t.ndim != 2 or t.shape[0] != k or t.shape[1] < 1 for t, k in zip(tables, shape)
    ):
        raise DimensionMismatch(f"need one (k_s, c_s) row table per block of shape {shape}")
    flat = np.concatenate([t.ravel() for t in tables])
    if flat.min() < 0 or flat.max() >= dim or np.bincount(flat).max() > 1:
        raise DimensionMismatch(f"row tables must hold distinct coordinates below {dim}")
    return tables


def _checked_factors(
    shape: Shape, dim: int, factors: Sequence[np.ndarray]
) -> Tuple[np.ndarray, ...]:
    arrays = tuple(np.asarray(f, dtype=np.complex128) for f in factors)
    if len(arrays) != len(shape) or any(
        f.ndim != 3 or f.shape[:2] != (k, dim) for f, k in zip(arrays, shape)
    ):
        raise DimensionMismatch(
            f"need one (k_s, {dim}, m_s) factor array per block of shape {shape}"
        )
    return arrays


def stacked_factors(factors: Sequence[np.ndarray]) -> np.ndarray:
    """The d x N matrix [F_1, ..., F_k] of (k, d, m) factor arrays, block by block."""
    return np.concatenate([f.transpose(1, 0, 2).reshape(f.shape[1], -1) for f in factors], axis=1)


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
    return MatrixUnitSystem(
        shape, embedding.target_dim, rows=canonical_rows(shape, embedding.multiplicities)
    )


def canonical_rows(shape: Sequence[int], multiplicities: Sequence[int]) -> List[np.ndarray]:
    """The row tables of ``canonical_units``, one (k_s, c_s) array per block.

    Block s fills the next c_s * k_s coordinates; E_ij (x) I_c on that
    window puts row t of unit i at window coordinate i * c + t.
    """
    rows, offset = [], 0
    for k, c in zip(shape, multiplicities):
        rows.append(offset + np.arange(k * c).reshape(k, c))
        offset += k * c
    return rows


def amplify(system: MatrixUnitSystem, before: int, after: int) -> MatrixUnitSystem:
    """The exact system I_before (x) e_ij (x) I_after, by index arithmetic."""
    dim = system.ambient_dim
    b = np.arange(before)[None, :, None, None]
    a = np.arange(after)[None, None, None, :]
    rows = [
        ((b * dim + table[:, None, :, None]) * after + a).reshape(table.shape[0], -1)
        for table in system.rows
    ]
    return MatrixUnitSystem(system.shape, before * dim * after, rows=rows)


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
    mats = np.stack([system.unit(*k) for k in keys])
    n, d, _ = mats.shape

    partners = mats[[index[(s, j, i)] for s, i, j in keys]]
    adj = op_norms(mats.conj().transpose(0, 2, 1) - partners).max()

    unitality = system.unitality_defect()

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


def factored_distance(approx: MatrixUnitSystem, other: MatrixUnitSystem) -> float:
    """Exact maximum over the units of ||e_ij - E_ij|| for a factored system
    against a factored or exact one of the same shape.

    E_ij = P_i P_j^*, with P_i the other system's column factors (the
    indicator columns of table row i for an exact one).  With
    [F_i, P_i] = Q_i R_i (reduced QR) and D = diag(I, -I),
    F_i F_j^* - P_i P_j^* = Q_i R_i D R_j^* Q_j^*, and Q_i, Q_j have
    orthonormal columns, so the norm is ||R_i D R_j^*||: per block one
    batched QR and one ``op_norms`` over k^2 matrices of size at most
    m + c, with no d x d difference formed.
    """
    if approx.factors is None or (approx.shape, approx.ambient_dim) != (other.shape, other.ambient_dim):
        raise DimensionMismatch("factored_distance compares a factored system to one like it")
    worst = 0.0
    for f, p in zip(approx.factors, other.column_factors()):
        m = f.shape[2]
        r = _lapack(
            lambda x: np.linalg.qr(x, mode="r"), np.concatenate([f, p], axis=2),
            "factored distance QR",
        )
        signed = r * np.concatenate([np.ones(m), -np.ones(p.shape[2])])
        grid = signed[:, None] @ r.conj().transpose(0, 2, 1)[None, :]
        worst = max(worst, float(op_norms(grid.reshape(-1, *grid.shape[2:])).max()))
    return worst
