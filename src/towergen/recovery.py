"""Re-derive tower data from the two generators alone.

Recovery walks the construction backwards: repeated squaring of the scaled
generator pins down the leading corner projection of each block, ladder
products against the tridiagonal generator rebuild the block's units, and
the stabilizer makes them exact.  Each level runs inside the corner the
lower levels cut out, on a and b compressed to an orthonormal basis of its
range (the whole space at level 1).  A recovered level is stored as column
factors, e_ij = F_i F_j^*: F_i = e_i1 B, with B an orthonormal basis of the
stabilized e_11's range, lifted to the ambient space through the lower
levels' column isometries.  The witnesses are reassembled from the
recovered coupling elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import LadderBreakdown, NoSpectralGap, NonConvergence
from .linalg import _lapack, hermitian_part, identity, op_norm, polar_partial_isometry
from .stabilize import StabilizeParams, stabilize_units
from .twogen import GeneratorPlan, RowAssignment, diag_coefficient, index_atoms
from .units import MatrixUnitSystem, Shape, factored_distance

CLUSTER_HALFWIDTH = 1e-3
COMPLEMENT_BOUND = 0.75
MAX_SQUARINGS = 64
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


def extract_leading_projection(
    a: np.ndarray, scale: float, trace: Optional[RecoveryTrace] = None, label: str = "extract"
) -> Tuple[np.ndarray, RecoveryTrace]:
    """Limit of (scale*a)^(2^t): the spectral projection of the top cluster.

    Requires the scaled matrix to have eigenvalues within 1e-3 of 1 and all
    remaining spectrum inside [-0.75, 0.75]; repeated squaring then
    converges geometrically.
    """
    if trace is None:
        trace = RecoveryTrace()
    m = hermitian_part(scale * a)
    eigs = _lapack(np.linalg.eigvalsh, m, f"{label}: eigensolve")
    if not eigs.size:
        raise NoSpectralGap(f"{label}: empty matrix, no eigenvalue cluster at 1")
    near_one = np.abs(eigs - 1.0) <= CLUSTER_HALFWIDTH
    if not np.any(near_one):
        raise NoSpectralGap(f"{label}: no eigenvalue cluster at 1 (top {eigs[-1]:.6f})")
    rest = eigs[~near_one]
    if rest.size and np.max(np.abs(rest)) > COMPLEMENT_BOUND:
        raise NoSpectralGap(
            f"{label}: complement spectrum reaches {np.max(np.abs(rest)):.6f} > {COMPLEMENT_BOUND}"
        )
    x = m
    for t in range(1, MAX_SQUARINGS + 1):
        nxt = x @ x
        diff = op_norm(nxt - x)
        x = nxt
        if diff <= 1e-10:
            idem = op_norm(x @ x - x)
            herm = op_norm(x - x.conj().T)
            if idem > 1e-9 or herm > 1e-9:
                raise NonConvergence(
                    f"{label}: squaring settled on a non-projection (idem {idem:.2e})"
                )
            trace.add(label, t, diff)
            return hermitian_part(x), trace
    raise NonConvergence(f"{label}: no convergence after {MAX_SQUARINGS} squarings")


def ladder_units(
    corner_projections: Sequence[np.ndarray],
    b_effective: np.ndarray,
    shape: Shape,
    level: int,
    unital: bool,
    trace: Optional[RecoveryTrace] = None,
) -> Tuple[MatrixUnitSystem, RecoveryTrace]:
    """Rebuild a level's units from its first-column projections and b.

    Each rung i -> i+1 comes from compressing b between the diagonal units
    recovered so far, rescaled by 2^(2*level); polar polishing keeps the
    chain isometric.  Raises LadderBreakdown when a rung vanishes.
    """
    if trace is None:
        trace = RecoveryTrace()
    if len(corner_projections) != len(shape):
        raise LadderBreakdown("need one starting projection per block")
    dim = b_effective.shape[0]
    eye = identity(dim)
    rescale = 4.0**level
    units: Dict[Tuple[int, int, int], np.ndarray] = {}
    for s, k_s in enumerate(shape, start=1):
        e11 = corner_projections[s - 1]
        row_chain = [e11]
        diag = [e11]
        covered = e11.copy()
        for i in range(1, k_s):
            cand = rescale * (diag[-1] @ b_effective @ (eye - covered))
            strength = op_norm(cand)
            if strength < 1e-8:
                raise LadderBreakdown(
                    f"level {level} block {s}: rung {i}->{i + 1} has norm {strength:.2e}"
                )
            v = polar_partial_isometry(cand, 0.5)
            trace.add(f"ladder_l{level}_b{s}_r{i}", 1, float(op_norm(cand - v)))
            nxt = v.conj().T @ v
            row_chain.append(row_chain[-1] @ v)
            diag.append(nxt)
            covered = covered + nxt
        for i in range(1, k_s + 1):
            for j in range(1, k_s + 1):
                units[(s, i, j)] = row_chain[i - 1].conj().T @ row_chain[j - 1]
    system = MatrixUnitSystem(shape=shape, ambient_dim=dim, units=units, unital=unital)
    return system, trace


@dataclass
class RecoveryContext:
    """Shape data and tolerances recovery is allowed to know."""

    shapes: Tuple[Shape, ...]
    ambient_dim: int
    stabilize_params: StabilizeParams = StabilizeParams()


@dataclass
class RecoveredLevel:
    level: int
    units: MatrixUnitSystem  # ambient column factors; dense units only on demand
    corner: np.ndarray
    coupling: np.ndarray
    trace: RecoveryTrace
    status: str = "recovered"


def _corner_prefix(levels: Sequence[RecoveredLevel], dim: int) -> np.ndarray:
    out = identity(dim)
    for lv in levels:
        out = out @ lv.corner
    return out


def _corner_basis(projection: np.ndarray, label: str) -> np.ndarray:
    """Orthonormal columns spanning the range of a computed projection (d x r).

    Recovery asks this of the corner prefix, a product of recovered corner
    projections, and of each stabilized e_11.  Their spectrum must sit
    within CLUSTER_HALFWIDTH of 0 or 1; anything else means something was
    recovered wrong, and raises NoSpectralGap.
    """
    eigs, vecs = _lapack(np.linalg.eigh, hermitian_part(projection), f"{label} basis")
    stray = np.minimum(np.abs(eigs), np.abs(eigs - 1.0)) > CLUSTER_HALFWIDTH
    if np.any(stray):
        raise NoSpectralGap(f"{label} eigenvalue {eigs[stray][0]:.6f} is neither 0 nor 1")
    return vecs[:, eigs > 0.5]


def column_factors(system: MatrixUnitSystem, label: str) -> List[np.ndarray]:
    """One (k_s, d, m_s) array of F_i = e_i1 B per block of a stabilized system.

    B is an orthonormal basis of e_11's range (``_corner_basis``), so
    F_i F_j^* = e_i1 e_11 e_1j = e_ij for exact units.
    """
    factors = []
    for s, k in enumerate(system.shape, start=1):
        basis = _corner_basis(system.unit(s, 1, 1), f"{label} block {s}: e_11")
        factors.append(np.stack([system.unit(s, i, 1) @ basis for i in range(1, k + 1)]))
    return factors


def recover_next_level(
    ctx: RecoveryContext,
    recovered: Sequence[RecoveredLevel],
    a: np.ndarray,
    b: np.ndarray,
) -> RecoveredLevel:
    """Recover level n = len(recovered)+1 inside the lower levels' corner.

    Level n lives in the range of the lower levels' corner prefix, of rank
    r = d / (k_1 ... k_{n-1}) for single-block levels: extraction, ladder
    and stabilizer run on a and b compressed to an orthonormal basis V of
    that range (the identity at level 1).  The stabilized units are stored
    as column factors lifted to the ambient space through the decompression
    chains, so the level's dense units are not formed.  Extraction scales
    come from the stored coefficient ladder; recovered block systems get
    stabilized before they are factored so later levels do not inherit
    drift.
    """
    n = len(recovered) + 1
    dim = ctx.ambient_dim
    eye = identity(dim)
    if n > len(ctx.shapes):
        return RecoveredLevel(
            level=n,
            units=MatrixUnitSystem((1,), dim, factors=[eye[None]]),
            corner=eye,
            coupling=np.zeros((dim, dim), dtype=np.complex128),
            trace=RecoveryTrace(),
            status="not-applicable",
        )
    trace = RecoveryTrace()
    shape = ctx.shapes[n - 1]
    prefix = _corner_prefix(recovered, dim)
    a_eff = hermitian_part(prefix @ a @ prefix)
    basis = _corner_basis(prefix, f"level {n}: corner prefix") if recovered else eye
    a_in = hermitian_part(basis.conj().T @ a @ basis)
    b_in = hermitian_part(basis.conj().T @ b @ basis)

    corners: List[np.ndarray] = []
    stripped = a_in
    for s in range(1, len(shape) + 1):
        scale = 1.0 / diag_coefficient(ctx.shapes, n, s)
        e11, trace = extract_leading_projection(
            stripped, scale, trace, label=f"extract_l{n}_b{s}"
        )
        corners.append(e11)
        comp = identity(len(e11)) - e11
        stripped = hermitian_part(comp @ stripped @ comp)

    candidate, trace = ladder_units(corners, b_in, shape, n, unital=(n == 1), trace=trace)
    stabilized, moved, _ = stabilize_units(candidate, ctx.stabilize_params)
    trace.add(f"stabilize_l{n}", 1, moved)

    chains = _decompression_chains(basis, recovered)
    factors = [
        np.concatenate([w @ f for w in chains], axis=2)
        for f in column_factors(stabilized, f"level {n}")
    ]
    units = MatrixUnitSystem(shape=shape, ambient_dim=dim, unital=True, factors=factors)

    corner = units.corner_row_projection([k for k in shape])
    inner = (eye - corner) @ a_eff @ (eye - corner)
    diag_sum = np.zeros_like(inner)
    for s in range(1, len(shape) + 1):
        diag_sum += diag_coefficient(ctx.shapes, n, s) * (prefix @ units.unit(s, 1, 1))
    coupling = hermitian_part(inner - diag_sum)
    return RecoveredLevel(level=n, units=units, corner=corner, coupling=coupling, trace=trace)


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
    assignment: Optional[RowAssignment],
    generator_index: int,
) -> np.ndarray:
    """Reassemble a commutant witness from a coupling element.

    Level 1 unwraps the row-2 placement directly; deeper levels invert the
    row encoding per index atom and then resum over the atom set.
    """
    level = len(units_by_level)
    top = units_by_level[-1]
    core = coupling / coupling_scale
    if level == 1:
        out = np.zeros_like(coupling)
        for s, k_s in enumerate(top.shape, start=1):
            for i in range(1, k_s + 1):
                out += top.unit(s, i, 2) @ core @ top.unit(s, 2, i)
        return hermitian_part(out)
    if assignment is None:
        raise LadderBreakdown("row assignment required beyond level 1")
    shapes = [u.shape for u in units_by_level]
    atoms = index_atoms(shapes, level)
    j = generator_index
    out = np.zeros_like(coupling)
    for idx, atom in enumerate(atoms):
        row = assignment.row(j, idx)
        alpha_y = np.zeros_like(coupling)
        for s, k_s in enumerate(top.shape, start=1):
            for i in range(1, k_s + 1):
                alpha_y += top.unit(s, i, row) @ core @ top.unit(s, row + 1, i)
        lifted = alpha_y
        for ell in range(1, level):
            i, s, jj, t = atom.level_entry(ell)
            blk = units_by_level[ell - 1]
            k_s = blk.shape[s - 1]
            k_t = blk.shape[t - 1]
            lifted = blk.unit(s, i, k_s) @ lifted @ blk.unit(t, k_t, jj)
        out += lifted
    return hermitian_part(out)


@dataclass
class RecoveryResult:
    levels: List[RecoveredLevel]

    def trace_json(self) -> list:
        return [
            {"level": lv.level, "status": lv.status, "steps": lv.trace.to_json()}
            for lv in self.levels
        ]


def recover_all(ctx: RecoveryContext, a: np.ndarray, b: np.ndarray) -> RecoveryResult:
    levels: List[RecoveredLevel] = []
    for _ in range(len(ctx.shapes)):
        levels.append(recover_next_level(ctx, levels, a, b))
    return RecoveryResult(levels=levels)


@dataclass
class RoundTripReport:
    unit_residuals: List[float]
    coupling_residuals: List[float]
    witness_residuals: List[float]
    max_squarings: int

    def passed(self) -> bool:
        return (
            max(self.unit_residuals) <= UNIT_TOL
            and max(self.coupling_residuals) <= UNIT_TOL
            and max(self.witness_residuals) <= WITNESS_TOL
            and self.max_squarings <= MAX_SQUARINGS
        )

    def to_json(self) -> dict:
        return {
            "unit_residuals": self.unit_residuals,
            "coupling_residuals": self.coupling_residuals,
            "witness_residuals": self.witness_residuals,
            "max_squarings": self.max_squarings,
        }


def round_trip(plan: GeneratorPlan, params: StabilizeParams = StabilizeParams()) -> Tuple[
    RecoveryResult, RoundTripReport
]:
    """Recover everything from the plan's (a, b) and compare to stored data."""
    model = plan.model
    ctx = RecoveryContext(
        shapes=model.spec.block_shapes, ambient_dim=model.ambient_dim, stabilize_params=params
    )
    result = recover_all(ctx, plan.gen_a, plan.gen_b)
    unit_residuals = []
    coupling_residuals = []
    witness_residuals = []
    max_squarings = 0
    for lv, stored in zip(result.levels, plan.levels):
        unit_residuals.append(factored_distance(lv.units, model.blocks[lv.level - 1]))
        coupling_residuals.append(float(op_norm(lv.coupling - stored.coupling)))
        units_chain = [r.units for r in result.levels[: lv.level]]
        for j in range(1, len(stored.witness.approximants) + 1):
            rebuilt = reconstruct_witness(
                lv.coupling, stored.coupling_scale, units_chain, stored.assignment, j
            )
            witness_residuals.append(
                float(op_norm(rebuilt - stored.witness.approximants[j - 1]))
            )
        for step in lv.trace.steps:
            if step.name.startswith("extract"):
                max_squarings = max(max_squarings, step.iterations)
    report = RoundTripReport(
        unit_residuals=unit_residuals,
        coupling_residuals=coupling_residuals,
        witness_residuals=witness_residuals,
        max_squarings=max_squarings,
    )
    return result, report
