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

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch
from .linalg import (
    _WORKSPACE_BYTES,
    SCREEN_MARGIN,
    _lapack,
    identity,
    op_norm,
    op_norms,
    scale_exponents,
    screened_max_norm,
)

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


class MatrixUnitSystem:
    """Family of ambient matrices e_ij^(s); may be exact or approximate.

    A system is given exactly one storage form:

    - ``rows``: an exact system, one row table per block, an int array R_s
      of shape (k_s, c_s) whose entries are distinct ambient coordinates,
      with e_ij^(s) = sum_t |R_s[i, t]><R_s[j, t]|, a 0/1 partial isometry
      of rank c_s;
    - ``factors``: one complex (k_s, d, m_s) array F per block, with
      e_ij^(s) = F[i-1] F[j-1]^*, as recovery stores a level;
    - ``units``: one (sum k_s^2, d, d) stack holding every unit in
      ``keys()`` order, kept read-only and complex128: a C-contiguous
      complex128 stack that is already read-only is kept as given (its
      owner must not write to it), any other is copied.

    ``unit(s, i, j)`` is the one reader of every form: it forms that one
    unit from a table or from factors, and reads a stack row by index.
    ``units`` is None unless the system is dense.
    """

    def __init__(
        self,
        shape: Sequence[int],
        ambient_dim: int,
        units: Optional[np.ndarray] = None,
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
        self.units = None
        if units is not None:
            stack = np.asarray(units, dtype=np.complex128)
            if stack.flags.writeable or not stack.flags.c_contiguous:
                stack = np.array(stack, order="C")
                stack.flags.writeable = False
            want = (sum(k * k for k in self.shape), self.ambient_dim, self.ambient_dim)
            if stack.shape != want:
                raise DimensionMismatch(f"need a {want} unit stack, got shape {stack.shape}")
            self.units = stack

    def unit(self, s: int, i: int, j: int) -> np.ndarray:
        if not (1 <= s <= len(self.shape) and 1 <= min(i, j) <= max(i, j) <= self.shape[s - 1]):
            raise KeyError((s, i, j))
        if self.units is not None:
            k = self.shape[s - 1]
            return self.units[sum(t * t for t in self.shape[: s - 1]) + (i - 1) * k + j - 1]
        if self.rows is not None:
            table = self.rows[s - 1]
            out = np.zeros((self.ambient_dim, self.ambient_dim), dtype=np.complex128)
            out[table[i - 1], table[j - 1]] = 1.0
            out.flags.writeable = False
            return out
        f = self.factors[s - 1]
        return f[i - 1] @ f[j - 1].conj().T

    def keys(self):
        return [(s, i, j) for s, k in enumerate(self.shape, start=1)
                for i in range(1, k + 1) for j in range(1, k + 1)]

    def unitality_defect(self) -> float:
        """||sum of the diagonal units - I||; exact and factored systems form no unit.

        A dense system adds its diagonal units to a zero matrix in key order.
        The diagonal units of an exact system sum to the 0/1 diagonal that
        marks the coordinates its tables cover, so the defect is 0.0 when
        they cover every coordinate and 1.0 otherwise, as ``op_norm`` gives.
        A factored system's diagonal units sum to Y Y^*, Y the stacked
        factors (d x N), whose eigenvalues are those of Y^* Y and, when
        N < d, zeros: the defect is max |eig - 1| from the smaller Gram,
        at least 1.0 when N < d.
        """
        if self.rows is not None:
            covered = sum(table.size for table in self.rows)
            return 0.0 if covered == self.ambient_dim else 1.0
        if self.factors is None:
            total = _diagonal_sums(self.shape, self.units[None])[0]
            return op_norm(total - identity(self.ambient_dim))
        return float(_factored_unitality(stacked_factors(self.factors)[None])[0])

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


def stack_form(system: MatrixUnitSystem) -> tuple:
    """What systems must share to be worked on as one stack: the storage
    form, and for exact and factored systems the shape of each block's
    column factors."""
    if system.units is not None:
        return ("units",)
    if system.rows is not None:
        dim = system.ambient_dim
        return ("rows", *((k, dim, t.shape[1]) for k, t in zip(system.shape, system.rows)))
    return ("factors", *(f.shape for f in system.factors))


def dense_stack(systems: Sequence[MatrixUnitSystem]) -> np.ndarray:
    """The (S, n, d, d) stack of the units of S dense systems of one shape.

    Systems whose stacks are, in order, the rows of one array, as
    ``perturb_units`` hands them out, give that array itself, with no
    copy; any others give a stacked copy.
    """
    one = systems[0].units
    base = one.base
    if base is not None and base.shape == (len(systems), *one.shape) and all(
        s.units.base is base
        and s.units.strides == base.strides[1:]
        and s.units.__array_interface__["data"][0]
        == base.__array_interface__["data"][0] + i * base.strides[0]
        for i, s in enumerate(systems)
    ):
        return base
    return np.stack([s.units for s in systems])


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
    """The d x N matrix [F_1, ..., F_k] of (k, d, m) factor arrays, block by
    block, or one such matrix per system of (S, k, d, m) arrays."""
    return np.concatenate(
        [np.moveaxis(f, -3, -2).reshape(*f.shape[:-3], f.shape[-2], -1) for f in factors], axis=-1
    )


def canonical_units(
    shape: Sequence[int], multiplicities: Optional[Sequence[int]] = None
) -> MatrixUnitSystem:
    """Exact unital system for a shape with multiplicities c_s, all ones by default.

    Block s occupies a contiguous diagonal window of size c_s * k_s; its
    unit e_ij is the elementary matrix E_ij amplified c_s-fold, so every
    unit has rank c_s and the diagonal units sum to the identity of
    dimension sum c_s k_s.
    """
    shape = normalize_shape(shape)
    rows = canonical_rows(shape, (1,) * len(shape) if multiplicities is None else multiplicities)
    return MatrixUnitSystem(shape, sum(table.size for table in rows), rows=rows)


def canonical_rows(shape: Sequence[int], multiplicities: Sequence[int]) -> List[np.ndarray]:
    """The row tables of ``canonical_units``, one (k_s, c_s) array per block.

    Block s fills the next c_s * k_s coordinates; E_ij (x) I_c on that
    window puts row t of unit i at window coordinate i * c + t.  Anything
    but one positive multiplicity per block raises DimensionMismatch.
    """
    shape, mult = normalize_shape(shape), tuple(int(c) for c in multiplicities)
    if len(mult) != len(shape) or any(c < 1 for c in mult):
        raise DimensionMismatch(f"need one positive multiplicity per block of {shape}, got {mult}")
    rows, offset = [], 0
    for k, c in zip(shape, mult):
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


def unit_defects(
    system: MatrixUnitSystem | Sequence[MatrixUnitSystem],
) -> UnitDefects | List[UnitDefects]:
    """Measure adjoint, unitality and multiplication defects.

    Multiplication covers both the in-block product rule and the vanishing
    of cross-block (or mismatched-index) products: a matched in-block pair
    e_ij e_jl should give e_il, every other pair zero.  Every maximum is
    exact.  ``system`` is one system, or a sequence of systems of one shape
    and dimension, which gives the list of their defects in order.

    An exact or factored system is scored from its column factors, with no
    d x d unit formed (``_factored_defects``): its adjoint defect is 0.0 by
    definition, and the other two agree with the dense scoring of its units
    to rounding.  The dense systems of a sequence are scored as one
    (systems, n, d, d) stack, a system of its own as a stack of one, with one
    per-row ``screened_max_norm`` call per kind of relation and one row per
    system (``_dense_defects``).
    """
    if isinstance(system, MatrixUnitSystem):
        return unit_defects([system])[0]
    systems = list(system)
    if len({(s.shape, s.ambient_dim) for s in systems}) > 1:
        raise DimensionMismatch("unit_defects scores a sequence of systems of one shape")
    groups = {}
    for i, s in enumerate(systems):
        groups.setdefault(stack_form(s), []).append(i)
    out = [None] * len(systems)
    for members in groups.values():
        stack = [systems[i] for i in members]
        if stack[0].units is not None:
            scored = _dense_defects(stack[0].shape, dense_stack(stack))
        else:
            scored = _factored_defects(stack)
        for i, defects in zip(members, scored):
            out[i] = defects
    return out


def _dense_defects(shape: Shape, mats: np.ndarray) -> List[UnitDefects]:
    """``unit_defects`` of each system of an (S, n, d, d) stack of dense units.

    The adjoint defect of a system is the maximum of ||e_ij^* - e_ji|| over
    its units.  Its multiplication defect splits the pairs in two.  The sum
    k_s^3 pairs whose product should be a unit get their maximum from
    ``screened_max_norm``, whose Gram-power bounds leave few residuals to
    eigensolve.  The pairs whose product should vanish are bounded all at
    once, with no product formed (``_product_bounds``); only those whose
    bound still exceeds that maximum go through a second
    ``screened_max_norm``, so every measured pair gets the bits ``op_norm``
    gives it.  Each screen has one row per system, so one system's maximum
    never rules out another's pairs.  Both tables below come from index
    arithmetic on block s's rows, which start at the offset
    o_s = sum_{t<s} k_t^2.
    """
    systems, n, d, _ = mats.shape
    # partner[l]: the row of e_ji for l the row of e_ij; (hl, hr, he): the rows of
    # e_ab, e_bc and e_ac for every in-block (a, b, c), the pairs that give a unit
    partner = np.empty(n, dtype=np.intp)
    hits, offset = [], 0
    for k in shape:
        i, j = np.divmod(np.arange(k * k), k)  # row offset + i k + j holds e_(i+1)(j+1)
        partner[offset : offset + k * k] = offset + j * k + i
        a, b, c = np.indices((k, k, k)).reshape(3, -1)
        hits.append(offset + np.stack([a * k + b, b * k + c, a * k + c]))
        offset += k * k
    hl, hr, he = np.concatenate(hits, axis=1)

    def adjoint_residuals(li: np.ndarray, ri: np.ndarray) -> np.ndarray:
        return mats[li, ri].conj().transpose(0, 2, 1) - mats[li, partner[ri]]

    def hit_residuals(li: np.ndarray, ri: np.ndarray) -> np.ndarray:
        return mats[li, hl[ri]] @ mats[li, hr[ri]] - mats[li, he[ri]]

    adj = screened_max_norm(systems, n, d, adjoint_residuals)
    unitality = op_norms(_diagonal_sums(shape, mats) - identity(d))
    mult = screened_max_norm(systems, len(hl), d, hit_residuals)
    bound = np.stack([_product_bounds(one) for one in mats])
    bound[:, hl, hr] = 0.0
    over = bound.reshape(systems, -1) * (1.0 + SCREEN_MARGIN) > mult[:, None]
    live = np.flatnonzero(over.any(axis=1))
    if len(live):
        # each live system's pairs over its maximum, first in a row of the table;
        # a row's padding forms a zero residual, which its screen never measures
        counts = over[live].sum(axis=1)
        rest = np.argsort(~over[live], axis=1, kind="stable")[:, : counts.max()]
        pad = np.arange(rest.shape[1]) >= counts[:, None]

        def products(li: np.ndarray, ri: np.ndarray) -> np.ndarray:
            p, m = rest[li, ri], live[li]
            out = mats[m, p // n] @ mats[m, p % n]
            out[pad[li, ri]] = 0.0
            return out

        second = screened_max_norm(len(live), rest.shape[1], d, products)
        mult[live] = np.maximum(mult[live], second)
    return [
        UnitDefects(adjoint=float(a), unitality=float(u), multiplication=float(m))
        for a, u, m in zip(adj, unitality, mult)
    ]


def _diagonal_sums(shape: Shape, mats: np.ndarray) -> np.ndarray:
    """The diagonal units of each system of an (S, n, d, d) stack, added to a
    zero matrix one at a time in key order."""
    total = np.zeros((mats.shape[0],) + mats.shape[2:], dtype=np.complex128)
    offset = 0
    for k in shape:
        for i in range(k):
            total = total + mats[:, offset + i * k + i]
        offset += k * k
    return total


# Slack of ``_product_bounds``.  For units E_l, E_r let X = E_l / 2^p and
# Y = E_r / 2^q be their copies scaled by the exponents of their largest real or
# imaginary part (exact), F = ||X||_F ||Y||_F, u = eps / 2 the unit roundoff and
# gamma_m = m u / (1 - m u).  ||XY||_F^2 = <X^*X, YY^*>_F, a real inner product of
# the float64 views.  The computed Grams fl(X^*X) and fl(YY^*) are complex inner
# products of length d, each off by at most gamma_(d+2) times the square of its
# unit's Frobenius norm, and their real inner product of 2 d^2 terms adds at most
# gamma_(2d^2) times the product of their Frobenius norms (Higham, Accuracy and
# Stability of Numerical Algorithms, ch. 3): the computed s is within about
# (2 d^2 + 2 d + 4) u F^2 of ||XY||_F^2.  The product the residual forms,
# fl(E_l E_r), is within gamma_(d+2) 2^(p+q) F of E_l E_r in Frobenius norm, and
# ||XY||_F <= F, so squaring adds about 2 (d + 2) u F^2 more.  Hence
# ||fl(E_l E_r)||_F^2 <= 4^(p+q) (s + S F^2) with S = 2 (d + 2)^2 eps, at least
# twice the first-order (2 d^2 + 4 d + 8) u; the factor 2 covers the second-order
# terms and the rounding of F and s up to DEFAULT_DIM_CAP, and SCREEN_MARGIN then
# covers ``op_norm``'s own rounding, as in ``screened_max_norm``.  The slack
# floors the bound at sqrt(S) F: S is 6.4e-14 at d = 10, a floor of 2.5e-7 F, and
# 7.5e-9 at DEFAULT_DIM_CAP, a floor of 8.6e-5 F.  A weaker bound only sends more
# pairs to be measured: it costs speed, never exactness.  Scaled entries are at
# most 1 in modulus, so the Grams and s cannot overflow, and what underflow loses
# is far below the slack of a unit of normal scale.  Like the Frobenius screen,
# the bound covers ``op_norm``'s result wherever the products' A*A stays in the
# normal range.
def _product_bounds(mats: np.ndarray) -> np.ndarray:
    """(n, n) upper bounds on ||fl(E_l E_r)||_F of an (n, d, d) stack, no product formed.

    One Gram per unit on each side, then one real (n, 2 d^2) @ (2 d^2, n) GEMM;
    see the slack's derivation above.
    """
    n, d, _ = mats.shape
    p = scale_exponents(mats)
    scaled = mats.view(np.float64).reshape(n, -1) * np.ldexp(1.0, -p)[:, None]
    x = scaled.view(np.complex128).reshape(n, d, d)
    xh = x.conj().transpose(0, 2, 1)
    s = (xh @ x).reshape(n, -1).view(np.float64) @ (x @ xh).reshape(n, -1).view(np.float64).T
    f2 = np.einsum("lk,lk->l", scaled, scaled)
    s = np.maximum(s, 0.0, out=s)  # in place: n x n arrays dominate the memory at large n
    s += 2 * (d + 2) ** 2 * np.finfo(float).eps * f2[:, None] * f2[None, :]
    return np.ldexp(np.sqrt(s, out=s), p[:, None] + p[None, :], out=s)


def _factored_defects(systems: List[MatrixUnitSystem]) -> List[UnitDefects]:
    """``unit_defects`` of exact or factored systems whose factors have one
    shape, from m x m factor algebra, as one stack.

    e_ji is defined as (F_i F_j^*)^* = F_j F_i^*, so the adjoint defect is
    exactly 0.0.  With Y = [F_1, ..., F_N] the stacked factors over every
    block, D = Y^* Y - I and F_i = Q_i R_i (reduced QR), the residual of
    the pair (e_ij^(s), e_kl^(t)) is F_i^s D_jk F_l^t* = Q_i R_i D_jk R_l^* Q_l^*,
    with D_jk the (j, k) block of D between blocks s and t: the product
    rule's e_il when s = t and j = k, zero for every other pair.  The Q
    have orthonormal columns, so its norm is ||R_i D_jk R_l^*||.  Each
    block pair (s, t) is one batched ``op_norms`` over the k_s^2 k_t^2
    residuals of every system, split over (system, i) when they would
    exceed the workspace, so each maximum is exact.  An exact system's D is
    exactly zero.
    """
    count = len(systems)
    factors = [np.stack(block) for block in zip(*(s.column_factors() for s in systems))]
    y = stacked_factors(factors)
    if systems[0].rows is None:
        unitality = _factored_unitality(y)
    else:
        unitality = [s.unitality_defect() for s in systems]
    defect = y.conj().transpose(0, 2, 1) @ y - np.eye(y.shape[2])
    rs = [_lapack(lambda x: np.linalg.qr(x, mode="r"), f, "unit defects QR") for f in factors]
    starts = np.cumsum([0] + [f.shape[1] * f.shape[3] for f in factors])
    worst = np.zeros(count)
    for r_s, a in zip(rs, starts):
        _, k_s, _, m_s = r_s.shape
        for r_t, b in zip(rs, starts):
            _, k_t, _, m_t = r_t.shape
            # d_jk[., j, k] = D_jk, the m_s x m_t block between unit rows j and k
            d_jk = defect[:, a : a + k_s * m_s, b : b + k_t * m_t]
            d_jk = d_jk.reshape(count, k_s, m_s, k_t, m_t).transpose(0, 1, 3, 2, 4)
            right = r_t.conj().transpose(0, 1, 3, 2)[:, None, None]
            step = max(1, _WORKSPACE_BYTES // (16 * k_s * k_t * k_t * r_s.shape[2] * r_t.shape[2]))
            for top in range(0, count * k_s, step):  # res[(system, i), j, k, l] = R_i D_jk R_l^*
                which, i = np.divmod(np.arange(top, min(top + step, count * k_s)), k_s)
                res = r_s[which, i][:, None, None, None] @ d_jk[which][:, :, :, None] @ right[which]
                norms = op_norms(res.reshape(-1, *res.shape[-2:])).reshape(len(which), -1)
                np.maximum.at(worst, which, norms.max(axis=1))
    return [
        UnitDefects(adjoint=0.0, unitality=float(u), multiplication=float(m))
        for u, m in zip(unitality, worst)
    ]


def _factored_unitality(y: np.ndarray) -> np.ndarray:
    """``unitality_defect`` of each factored system of an (S, d, N) stack of
    stacked factors: max |eig - 1| of the smaller Gram, at least 1.0 when N < d."""
    yh = y.conj().transpose(0, 2, 1)
    gram = yh @ y if y.shape[2] <= y.shape[1] else y @ yh
    w = _lapack(np.linalg.eigvalsh, gram, "unitality Gram eigensolve")
    defect = np.max(np.abs(w - 1.0), axis=1, initial=0.0)
    return np.maximum(defect, 1.0) if y.shape[2] < y.shape[1] else defect


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

    A block whose finite factors equal P bit for bit, up to one column
    permutation common to every unit row, contributes exactly 0.0 with no
    QR: F_i = P_i Q for one permutation matrix Q gives
    F_i F_j^* = P_i Q Q^* P_j^* = P_i P_j^*.  That is also what the QR path
    gives a recovered level against the tower's 0/1 indicator factors, on
    which the Householder arithmetic is exact.
    """
    if approx.factors is None or (approx.shape, approx.ambient_dim) != (other.shape, other.ambient_dim):
        raise DimensionMismatch("factored_distance compares a factored system to one like it")
    worst = 0.0
    for f, p in zip(approx.factors, other.column_factors()):
        if not _same_columns(f, p):
            worst = max(worst, _block_distance(f, p))
    return worst


def _same_columns(f: np.ndarray, p: np.ndarray) -> bool:
    """Whether finite (k, d, m) factors f are p bit for bit up to one column
    permutation common to every unit row: the m columns of the k stacked
    rows, each as bytes, are the same multiset."""
    if f.shape != p.shape or not np.isfinite(f).all():
        return False
    columns = [sorted(c.tobytes() for c in x.transpose(2, 0, 1)) for x in (f, p)]
    return columns[0] == columns[1]


def _block_distance(f: np.ndarray, p: np.ndarray) -> float:
    """max ||F_i F_j^* - P_i P_j^*|| over one block's units, by the QR formula
    of ``factored_distance``."""
    m = f.shape[2]
    r = _lapack(
        lambda x: np.linalg.qr(x, mode="r"), np.concatenate([f, p], axis=2), "factored distance QR"
    )
    signed = r * np.concatenate([np.ones(m), -np.ones(p.shape[2])])
    grid = signed[:, None] @ r.conj().transpose(0, 2, 1)[None, :]
    return float(op_norms(grid.reshape(-1, *grid.shape[2:])).max())
