"""Re-derive tower data from the two generators alone.

Recovery walks the construction backwards: one eigensolve of the generator
a gives each block's leading corner as the eigenvectors whose eigenvalue,
scaled by the block's coefficient, sits near 1 (the spectral projection
the paper reaches by repeated squaring), ladder rungs against the
tridiagonal generator b rebuild the block's units, and the stabilizer
makes them exact.  Each level runs inside the corner p_1 ... p_{n-1} the
lower levels cut out, on a and b compressed to V_n, an orthonormal basis of
its range (the identity at level 1).  A level is column factors,
e_ij = F_i F_j^*, from the start: F_1 is the corner basis B and each rung's
F_{i+1} is the polar part of a thin m x d compression of b, made exact by
the stabilizer and lifted to the ambient space through the lower levels'
column isometries.  The next level's basis is V_{n+1} = V_n L_n, L_n the
level's stabilized last-row factors side by side, and the coupling is
assembled in V_n coordinates and lifted once.  The witnesses, which are
reassembled from the recovered coupling elements, are read from the
factors; no dense level unit or ambient corner projection is formed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, LadderBreakdown, NoSpectralGap, NonFiniteValue
from .linalg import eigh, hermitian_part, identity, op_norm
from .report import ReportRow
from .stabilize import stabilize_units
from .tower import index_set_cardinality
from .twogen import GeneratorPlan, coupling_row, diag_coefficient, index_atoms
from .units import MatrixUnitSystem, Shape, factored_distance, stacked_factors

CLUSTER_HALFWIDTH = 1e-3  # largest offset |lambda / c_s - 1| of an extracted eigenvalue
COMPLEMENT_BOUND = 0.75  # largest |lambda / c_s| of an eigenvalue left behind
UNIT_TOL = 1e-6  # round-trip unit and coupling residuals
WITNESS_TOL = 1e-8  # round-trip witness residuals


@dataclass
class TraceEntry:
    name: str
    iterations: int
    residual: float

    def to_json(self) -> dict:
        return {"name": self.name, "iterations": self.iterations, "residual": self.residual}


@dataclass
class RecoveryTrace:
    steps: List[TraceEntry] = field(default_factory=list)

    def add(self, name: str, iterations: int, residual: float):
        self.steps.append(TraceEntry(name, int(iterations), float(residual)))

    def to_json(self) -> list:
        return [s.to_json() for s in self.steps]


def extract_corner_bases(
    a: np.ndarray, coefficients: Sequence[float], level: int, trace: RecoveryTrace
) -> List[np.ndarray]:
    """Orthonormal bases B_s of each block's first-column corner, from one eigensolve.

    Block s takes the eigenvectors of herm(a) whose scaled eigenvalue
    lambda / c_s (c_s = ``coefficients[s-1]``) lies within CLUSTER_HALFWIDTH
    of 1, among those no block before s took; every other untaken scaled
    eigenvalue must stay inside [-COMPLEMENT_BOUND, COMPLEMENT_BOUND].  For
    exact input B_s B_s^* is the limit of repeated squaring of a / c_s
    after blocks 1..s-1 are stripped, computed without the squarings.
    ``trace`` gets each block's worst cluster offset |lambda / c_s - 1|
    (``extract_l{level}_b{s}``) and complement radius
    (``complement_l{level}_b{s}``).  Raises NoSpectralGap on an empty
    matrix, a missing cluster or a complement too close to 1.
    """
    if not a.size:
        raise NoSpectralGap(f"extract_l{level}: empty matrix, no eigenvalue cluster at 1")
    eigs, vecs = eigh(hermitian_part(a), f"extract_l{level}: eigensolve")
    untaken = np.ones(eigs.shape, dtype=bool)
    bases = []
    for s, c in enumerate(coefficients, start=1):
        label = f"l{level}_b{s}"
        scaled = eigs / c
        cluster = untaken & (np.abs(scaled - 1.0) <= CLUSTER_HALFWIDTH)
        if not np.any(cluster):
            top = np.max(scaled[untaken]) if np.any(untaken) else 0.0
            raise NoSpectralGap(f"extract_{label}: no eigenvalue cluster at 1 (top {top:.6f})")
        untaken &= ~cluster
        radius = float(np.max(np.abs(scaled[untaken]), initial=0.0))
        if radius > COMPLEMENT_BOUND:
            raise NoSpectralGap(
                f"extract_{label}: complement spectrum reaches {radius:.6f} > {COMPLEMENT_BOUND}"
            )
        trace.add(f"extract_{label}", 1, float(np.max(np.abs(scaled[cluster] - 1.0))))
        trace.add(f"complement_{label}", 1, radius)
        bases.append(vecs[:, cluster])
    return bases


def ladder_units(
    bases: Sequence[np.ndarray],
    b_effective: np.ndarray,
    shape: Shape,
    level: int,
    trace: RecoveryTrace,
) -> MatrixUnitSystem:
    """Rebuild a level's units as column factors from its corner bases and b.

    Block s starts at F_1 = B_s.  Rung i -> i+1 compresses b, rescaled by
    4^level, from the range of F_i to the complement of the block's factors
    so far, C = [F_1 ... F_i]: the thin m x d matrix
    X = 4^level F_i^* b (I - C C^*).  Its polar part with cutoff 1/2, from
    one m x m eigensolve of X X^* (at m = 1 ``eigh``'s closed form, taken on
    Python floats with its bits), gives F_{i+1} = X^* U_+ s_+^(-1) U_+^* for
    the singular values s_+ above the cutoff; in exact arithmetic that is v^* F_i for v
    the polar part of the dense rung F_i F_i^* b (I - C C^*).
    ``trace`` gets each rung's residual, the worst |s - 1| over the kept
    singular values and the largest dropped one.  Raises LadderBreakdown
    when a rung's norm ||X|| falls below 1e-8.
    """
    if len(bases) != len(shape):
        raise LadderBreakdown("need one corner basis per block")
    rescale = 4.0**level
    dim = b_effective.shape[0]
    factors = []
    for s, (basis, k_s) in enumerate(zip(bases, shape), start=1):
        m = basis.shape[1]
        # C = [F_1 ... F_i], grown by one factor per rung.  C stays C-contiguous:
        # as a strided view of a wider buffer, X C at m = i = 1 would be a strided
        # BLAS dot, which sums in another order and changes the factors' bits
        covered = np.ascontiguousarray(basis)
        for i in range(1, k_s):
            x = rescale * (covered[:, -m:].conj().T @ b_effective)
            x = x - (x @ covered) @ covered.conj().T
            gram = x @ x.conj().T
            if m == 1:
                # eigh's closed form on Python floats: eigenvalue Re X X^*,
                # eigenvector [[1]]; the rung's label is formed only to raise
                z = gram.item()
                if not cmath.isfinite(z):
                    raise NonFiniteValue(
                        f"{_rung(level, s, i)} eigensolve: input has non-finite entries"
                    )
                sv = math.sqrt(max(z.real, 0.0))
                if sv < 1e-8:
                    raise LadderBreakdown(f"{_rung(level, s, i)} has norm {sv:.2e}")
                keep = sv > 0.5
                trace.add(f"ladder_l{level}_b{s}_r{i}", 1, abs(sv - 1.0) if keep else sv)
                # U_+ s_+^(-1) U_+^* with the bits the eigenvector [[1]] gives it
                polar = np.full((1, 1), 1.0 / sv if keep else 0.0, dtype=np.complex128)
            else:
                label = _rung(level, s, i)
                w, u = eigh(gram, f"{label} eigensolve")
                sv = np.sqrt(np.maximum(w, 0.0))
                if sv[-1] < 1e-8:
                    raise LadderBreakdown(f"{label} has norm {sv[-1]:.2e}")
                keep = sv > 0.5
                # abs also maps a dropped -0.0 to +0.0, so the maximum has one bit pattern
                misfit = np.abs(np.where(keep, sv - 1.0, sv)).max()
                trace.add(f"ladder_l{level}_b{s}_r{i}", 1, misfit)
                kept = u[:, keep]
                polar = (kept / sv[keep]) @ kept.conj().T
            covered = np.concatenate([covered, x.conj().T @ polar], axis=1)
        factors.append(np.ascontiguousarray(covered.reshape(dim, k_s, m).transpose(1, 0, 2)))
    return MatrixUnitSystem(shape=shape, ambient_dim=dim, factors=factors)


def _rung(level: int, block: int, i: int) -> str:
    return f"level {level} block {block}: rung {i}->{i + 1}"


@dataclass
class RecoveredLevel:
    level: int
    units: MatrixUnitSystem  # ambient column factors
    corner_basis: np.ndarray  # d x r, orthonormal columns spanning p_1 ... p_level
    coupling: np.ndarray
    trace: RecoveryTrace


def recover_next_level(
    shapes: Sequence[Shape],
    recovered: Sequence[RecoveredLevel],
    a: np.ndarray,
    b: np.ndarray,
) -> RecoveredLevel:
    """Recover level n = len(recovered)+1 inside the lower levels' corner.

    Besides a and b, recovery knows only the tower's block ``shapes``.
    Level n lives in the range of the corner p_1 ... p_{n-1} the lower
    levels cut out, of rank r = d / (k_1 ... k_{n-1}) for single-block
    levels: extraction, ladder and stabilizer run on a and b compressed to
    V, the orthonormal basis of that range level n-1 carries (the identity
    at level 1).  One eigensolve of V^* a V gives every block's corner
    basis, scaled by the stored coefficient ladder.  With L the stabilized
    last-row factors side by side and F_1 each block's first-row factor,
    all in V coordinates, level n's corner basis is V L and its coupling is
    V herm((I - L L^*) V^* a V (I - L L^*) - sum_s c_s F_1 F_1^*) V^*.  The
    stabilized factors are lifted to the ambient space through the
    decompression chains, so the level's dense units are not formed;
    recovered block systems get stabilized before they are lifted so later
    levels do not inherit drift.
    """
    n = len(recovered) + 1
    trace = RecoveryTrace()
    shape = shapes[n - 1]
    # level 1 runs on a and b as they are: V is the identity, its products are skipped
    basis = recovered[-1].corner_basis if recovered else None
    a_in, b_in = (hermitian_part(basis.conj().T @ x @ basis if recovered else x) for x in (a, b))

    coefficients = [diag_coefficient(shapes, n, s) for s in range(1, len(shape) + 1)]
    bases = extract_corner_bases(a_in, coefficients, n, trace)
    candidate = ladder_units(bases, b_in, shape, n, trace=trace)
    stabilized, moved = stabilize_units(candidate)
    trace.add(f"stabilize_l{n}", 1, moved)

    factors = stabilized.factors
    if recovered:
        chains = _decompression_chains(basis, recovered)
        factors = [np.concatenate([w @ f for w in chains], axis=2) for f in factors]
    units = MatrixUnitSystem(shape=shape, ambient_dim=a.shape[0], factors=factors)

    last = np.concatenate([f[-1] for f in stabilized.factors], axis=1)
    comp = identity(len(a_in)) - last @ last.conj().T
    diag_sum = np.zeros_like(a_in)
    for c, f in zip(coefficients, stabilized.factors):
        diag_sum += c * (f[0] @ f[0].conj().T)
    coupling = hermitian_part(comp @ a_in @ comp - diag_sum)
    if recovered:
        coupling, last = basis @ coupling @ basis.conj().T, basis @ last
    return RecoveredLevel(level=n, units=units, corner_basis=last, coupling=coupling, trace=trace)


def _decompression_chains(
    basis: np.ndarray, recovered: Sequence[RecoveredLevel]
) -> List[np.ndarray]:
    """The d x r maps W_c = lift_{n-1} ... lift_1 V over all lower-level
    choices of recovered column isometries e_{i,k_s} = F_i F_{k_s}^*, started
    from the corner basis V; e_ij of level n is then sum_c W_c q_ij W_c^*."""
    chains = [basis]
    for lv in recovered:
        grown = []
        for f in lv.units.factors:
            for i in range(len(f)):
                grown.extend(f[i] @ (f[-1].conj().T @ c) for c in chains)
        chains = grown
    return chains


def reconstruct_witness(
    coupling: np.ndarray,
    coupling_scale: float,
    units_by_level: Sequence[MatrixUnitSystem],
    generator_index: int,
) -> np.ndarray:
    """Reassemble generator ``generator_index``'s witness from a coupling element.

    The rows come from the levels' shapes through ``coupling_row``.  Every
    term is a product of column factors (``column_factors``, so exact and
    recovered levels alike).  Level 1 unwraps the row-2 placement,
    sum_i F_i (F_2^* core F_2) F_i^*.  Deeper levels invert the row encoding
    per index atom, sum_i F_i (F_row^* core F_{row+1}) F_i^*, and lift it
    through each lower level's e_{i,k_s} . e_{k_t,j} as F_i (F_k^* . F_k) F_j^*,
    so every inner product is m x m; the lifted terms are summed as blocks of
    one matrix M in the columns of the outermost level, and X M X^* (X the
    side-by-side factors) is the only d x d product.  An index below 1, or
    one whose rows run past the top level's smallest block, raises
    DimensionMismatch; one whose rows fit but hold no witness may read zero.
    """
    level = len(units_by_level)
    shapes = [u.shape for u in units_by_level]
    card = index_set_cardinality(shapes, level)
    # the last row read: row and row + 1 per atom, only row 2 at level 1
    last = coupling_row(card, generator_index, card - 1) + (level > 1)
    if generator_index < 1 or last > min(shapes[-1]):
        raise DimensionMismatch(f"generator index {generator_index} out of range")
    factors = [u.column_factors() for u in units_by_level]
    top = factors[-1]
    core = coupling / coupling_scale
    if level == 1:
        r = coupling_row(card, generator_index, 0) - 1
        out = sum(
            stacked_factors([f @ (f[r].conj().T @ core @ f[r])]) @ stacked_factors([f]).conj().T
            for f in top
        )
        return hermitian_part(out)
    outer = factors[-2]
    offsets = np.cumsum([0] + [f.shape[0] * f.shape[2] for f in outer])
    acc = np.zeros((offsets[-1], offsets[-1]), dtype=np.complex128)
    # cross[s][b] = F^(1)_{s,k_s}^* F^(b)_i of every top row i, (k_b, m_1, m_b)
    cross = [[f[-1].conj().T @ g for g in top] for f in factors[0]]
    for a, atom in enumerate(index_atoms(shapes, level).tolist()):
        row = coupling_row(card, generator_index, a)
        i, s, j, t = atom[0]
        inner = sum(
            ((left @ (g[row - 1].conj().T @ core @ g[row])) @ right.conj().transpose(0, 2, 1))
            .sum(axis=0)
            for left, right, g in zip(cross[s - 1], cross[t - 1], top)
        )
        for below, here, entry in zip(factors, factors[1:], atom[1:]):
            (i0, s0, j0, t0), (i, s, j, t) = (i, s, j, t), entry
            inner = (here[s - 1][-1].conj().T @ below[s0 - 1][i0 - 1]) @ inner @ (
                below[t0 - 1][j0 - 1].conj().T @ here[t - 1][-1]
            )
        m_s, m_t = outer[s - 1].shape[2], outer[t - 1].shape[2]
        r0, c0 = offsets[s - 1] + (i - 1) * m_s, offsets[t - 1] + (j - 1) * m_t
        acc[r0 : r0 + m_s, c0 : c0 + m_t] += inner
    x = stacked_factors(outer)
    return hermitian_part(x @ acc @ x.conj().T)


@dataclass
class RecoveryResult:
    levels: List[RecoveredLevel]

    def trace_json(self) -> list:
        return [
            {"level": lv.level, "status": "recovered", "steps": lv.trace.to_json()}
            for lv in self.levels
        ]


def recover_all(shapes: Sequence[Shape], a: np.ndarray, b: np.ndarray) -> RecoveryResult:
    levels: List[RecoveredLevel] = []
    for _ in range(len(shapes)):
        levels.append(recover_next_level(shapes, levels, a, b))
    return RecoveryResult(levels=levels)


@dataclass
class RoundTripReport:
    unit_residuals: List[float]
    coupling_residuals: List[float]
    witness_residuals: List[float]
    cluster_offset: float  # worst |lambda / c_s - 1| of an extracted cluster
    complement_radius: float  # worst |lambda / c_s| left outside the clusters

    @property
    def rows(self) -> List[ReportRow]:
        """The recover rows, derived from the fields on every access."""
        series = [
            ("level{}.unit_residual", self.unit_residuals, UNIT_TOL),
            ("level{}.coupling_residual", self.coupling_residuals, UNIT_TOL),
            ("witness{}.residual", self.witness_residuals, WITNESS_TOL),
        ]
        rows = [
            ReportRow.check(name.format(i), r, tol)
            for name, values, tol in series
            for i, r in enumerate(values, start=1)
        ]
        return rows + [
            ReportRow.check("extraction.cluster_offset", self.cluster_offset, CLUSTER_HALFWIDTH),
            ReportRow.check(
                "extraction.complement_radius", self.complement_radius, COMPLEMENT_BOUND
            ),
        ]

    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def to_json(self) -> dict:
        return {
            "unit_residuals": self.unit_residuals,
            "coupling_residuals": self.coupling_residuals,
            "witness_residuals": self.witness_residuals,
            "cluster_offset": self.cluster_offset,
            "complement_radius": self.complement_radius,
        }


def round_trip(plan: GeneratorPlan) -> Tuple[RecoveryResult, RoundTripReport]:
    """Recover everything from the plan's (a, b) and compare to stored data."""
    model = plan.model
    result = recover_all(model.spec.block_shapes, plan.gen_a, plan.gen_b)
    unit_residuals = []
    coupling_residuals = []
    witness_residuals = []
    margins = {"extract": 0.0, "complement": 0.0}
    for lv, stored in zip(result.levels, plan.levels):
        unit_residuals.append(factored_distance(lv.units, model.blocks[lv.level - 1]))
        coupling_residuals.append(float(op_norm(lv.coupling - stored.coupling)))
        units_chain = [r.units for r in result.levels[: lv.level]]
        for j in range(1, len(stored.witness.approximants) + 1):
            rebuilt = reconstruct_witness(lv.coupling, stored.coupling_scale, units_chain, j)
            witness_residuals.append(
                float(op_norm(rebuilt - stored.witness.approximants[j - 1]))
            )
        for step in lv.trace.steps:
            kind = step.name.split("_", 1)[0]
            if kind in margins:
                margins[kind] = max(margins[kind], step.residual)
    report = RoundTripReport(
        unit_residuals=unit_residuals,
        coupling_residuals=coupling_residuals,
        witness_residuals=witness_residuals,
        cluster_offset=margins["extract"],
        complement_radius=margins["complement"],
    )
    return result, report
