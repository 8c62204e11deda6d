"""Re-derive tower data from the two generators alone.

Recovery walks the construction backwards: repeated squaring of the scaled
generator pins down the leading corner projection of each block, ladder
products against the tridiagonal generator rebuild the block's units, and
the lower-level units decompress the result back to the ambient algebra.
Levels beyond the first run inside the corner the lower levels cut out,
on a and b compressed to an orthonormal basis of its range.
The witnesses are reassembled from the recovered coupling elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import LadderBreakdown, NoSpectralGap, NonConvergence
from .linalg import (
    _lapack,
    hermitian_part,
    identity,
    max_distance,
    op_norm,
    polar_partial_isometry,
)
from .stabilize import StabilizeParams, stabilize_units
from .twogen import GeneratorPlan, RowAssignment, diag_coefficient, index_atoms
from .units import MatrixUnitSystem, Shape

CLUSTER_HALFWIDTH = 1e-3
COMPLEMENT_BOUND = 0.75
MAX_SQUARINGS = 64

# Bytes of the per-chain product formed at once by ``_decompress``.
_SLAB_BYTES = 1 << 22


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
    units: MatrixUnitSystem  # ambient (decompressed) units
    corner: np.ndarray
    coupling: np.ndarray
    trace: RecoveryTrace
    status: str = "recovered"


def _corner_prefix(levels: Sequence[RecoveredLevel], dim: int) -> np.ndarray:
    out = identity(dim)
    for lv in levels:
        out = out @ lv.corner
    return out


def _corner_basis(prefix: np.ndarray, label: str) -> np.ndarray:
    """Orthonormal columns spanning the range of the corner prefix (d x r).

    The prefix is a product of recovered corner projections, so its
    spectrum must sit within CLUSTER_HALFWIDTH of 0 or 1; anything else
    means a lower level was recovered wrong, and raises NoSpectralGap.
    """
    eigs, vecs = _lapack(np.linalg.eigh, hermitian_part(prefix), f"{label}: corner basis")
    stray = np.minimum(np.abs(eigs), np.abs(eigs - 1.0)) > CLUSTER_HALFWIDTH
    if np.any(stray):
        raise NoSpectralGap(
            f"{label}: corner prefix eigenvalue {eigs[stray][0]:.6f} is neither 0 nor 1"
        )
    return vecs[:, eigs > 0.5]


def recover_next_level(
    ctx: RecoveryContext,
    recovered: Sequence[RecoveredLevel],
    a: np.ndarray,
    b: np.ndarray,
) -> RecoveredLevel:
    """Recover level n = len(recovered)+1 by compressing through the corners.

    Level n >= 2 lives in the range of the lower levels' corner prefix, of
    rank r = d / (k_1 ... k_{n-1}) for single-block levels: extraction,
    ladder and stabilizer run on a and b compressed to an orthonormal basis
    V of that range, and the stabilized r x r units are decompressed to
    the ambient algebra once.  Extraction scales come from the stored
    coefficient ladder; recovered block systems get stabilized before
    decompression so later levels do not inherit drift.
    """
    n = len(recovered) + 1
    if n > len(ctx.shapes):
        return RecoveredLevel(
            level=n,
            units=MatrixUnitSystem((1,), ctx.ambient_dim, {(1, 1, 1): identity(ctx.ambient_dim)}),
            corner=identity(ctx.ambient_dim),
            coupling=np.zeros((ctx.ambient_dim, ctx.ambient_dim), dtype=np.complex128),
            trace=RecoveryTrace(),
            status="not-applicable",
        )
    trace = RecoveryTrace()
    shape = ctx.shapes[n - 1]
    dim = ctx.ambient_dim
    eye = identity(dim)
    prefix = _corner_prefix(recovered, dim)
    a_eff = hermitian_part(prefix @ a @ prefix)
    if n == 1:
        a_in, b_in = a_eff, hermitian_part(prefix @ b @ prefix)
    else:
        basis = _corner_basis(prefix, f"level {n}")
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

    if n == 1:
        ambient_units = stabilized
    else:
        keys = stabilized.keys()
        chains = _decompression_chains(basis, recovered, ctx.shapes[: n - 1])
        lifted = _decompress(np.stack([stabilized.units[key] for key in keys]), chains)
        ambient_units = MatrixUnitSystem(
            shape=shape, ambient_dim=dim, units=dict(zip(keys, lifted)), unital=True
        )

    corner = ambient_units.corner_row_projection([k for k in shape])
    inner = (eye - corner) @ a_eff @ (eye - corner)
    diag_sum = np.zeros_like(inner)
    for s in range(1, len(shape) + 1):
        diag_sum += diag_coefficient(ctx.shapes, n, s) * (prefix @ ambient_units.unit(s, 1, 1))
    coupling = hermitian_part(inner - diag_sum)
    return RecoveredLevel(level=n, units=ambient_units, corner=corner, coupling=coupling, trace=trace)


def _decompression_chains(
    basis: np.ndarray, recovered: Sequence[RecoveredLevel], lower_shapes: Sequence[Shape]
) -> List[np.ndarray]:
    """The d x r maps W_c = lift_{n-1} ... lift_1 V over all lower-level
    choices of recovered column isometries, started from the corner basis V."""
    chains = [basis]
    for lv, shape in zip(recovered, lower_shapes):
        grown = []
        for s, k_s in enumerate(shape, start=1):
            for i in range(1, k_s + 1):
                lift = lv.units.unit(s, i, k_s)
                grown.extend(lift @ c for c in chains)
        chains = grown
    return chains


def _decompress(q: np.ndarray, chains: Sequence[np.ndarray]) -> np.ndarray:
    """sum_c W_c q W_c^H for each matrix q of an (n, r, r) stack, as (n, d, d).

    Works a bounded slab of the stack at a time, so the result is the only
    full-size array.
    """
    dim = chains[0].shape[0]
    out = np.empty((len(q), dim, dim), dtype=np.complex128)
    step = max(1, _SLAB_BYTES // (16 * dim * dim))
    for top in range(0, len(q), step):
        slab = out[top : top + step]
        for c, w in enumerate(chains):
            part = (w @ q[top : top + step]) @ w.conj().T
            if c:
                slab += part
            else:
                slab[...] = part
    return out


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

    def passed(self, unit_tol=1e-6, witness_tol=1e-8) -> bool:
        return (
            max(self.unit_residuals) <= unit_tol
            and max(self.coupling_residuals) <= unit_tol
            and max(self.witness_residuals) <= witness_tol
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
        block = model.blocks[lv.level - 1]
        keys = block.keys()
        unit_residuals.append(
            max_distance([lv.units.units[key] for key in keys], [block.units[key] for key in keys])
        )
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
