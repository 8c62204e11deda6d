"""Two-generator construction over a tower.

Per level n the construction produces a corner projection p_n, a coupling
element z_n that encodes the level's commutant witnesses into designated
rows of block n, and the summands a_n (weighted first-column projections
plus z_n) and b_n (scaled tridiagonal ladder).  The totals a = sum a_n and
b = sum b_n generate everything the tower knows about.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateWitness, DimensionMismatch, InsufficientSubrank
from .linalg import hermitian_part, op_norm
from .report import ReportRow
from .tower import (
    ROUNDING_TOL,
    CommutantWitness,
    TowerModel,
    index_set_cardinality,
    witnesses_at_level,
)
from .units import subrank

NORM_TOL = 1e-10  # gap between a measured norm and its closed form

@dataclass(frozen=True)
class IndexAtom:
    """One cross-level index choice: per level below n, (i, s) and (j, t)."""

    entries: Tuple[Tuple[int, int, int, int], ...]  # (i, s, j, t) per level

    def level_entry(self, level: int) -> Tuple[int, int, int, int]:
        return self.entries[level - 1]


@dataclass
class RowAssignment:
    """Injective row maps f_j sending atoms into disjoint row ranges of block n.

    Generator j's atoms occupy rows (j-1)*card + 2 .. j*card + 1, leaving
    row 1 for the a_n diagonal terms and the last rows for the corner.
    """

    level: int
    cardinality: int
    active_generators: int

    def row(self, j: int, atom_index: int) -> int:
        if not (1 <= j <= self.active_generators):
            raise DimensionMismatch(f"generator index {j} out of range")
        if not (0 <= atom_index < self.cardinality):
            raise DimensionMismatch(f"atom index {atom_index} out of range")
        return (j - 1) * self.cardinality + 2 + atom_index


def corner_projection(model: TowerModel, level: int) -> np.ndarray:
    """Projection onto the last diagonal unit of every block at this level."""
    block = model.blocks[level - 1]
    out = np.zeros((model.ambient_dim, model.ambient_dim), dtype=np.complex128)
    for s, k in enumerate(block.shape, start=1):
        out += block.unit(s, k, k)
    return out


def index_atoms(shapes: Sequence, level: int) -> List[IndexAtom]:
    """All index atoms below ``level``, ordered by (s, i, t, j) per level
    with level 1 most significant."""
    if level < 2:
        raise DimensionMismatch("index atoms exist only for levels >= 2")
    per_level_choices = []
    for shape in shapes[: level - 1]:
        choices = []
        for s, k_s in enumerate(shape, start=1):
            for i in range(1, k_s + 1):
                for t, k_t in enumerate(shape, start=1):
                    for j in range(1, k_t + 1):
                        choices.append((i, s, j, t))
        choices.sort(key=lambda e: (e[1], e[0], e[3], e[2]))
        per_level_choices.append(choices)
    atoms = [IndexAtom(entries=combo) for combo in itertools.product(*per_level_choices)]
    card = index_set_cardinality(shapes, level)
    if len(atoms) != card:
        raise DimensionMismatch(f"enumerated {len(atoms)} atoms, expected {card}")
    return atoms


def enumerate_indices(model: TowerModel, level: int) -> Tuple[List[IndexAtom], RowAssignment]:
    """Index atoms below ``level`` in lexicographic order, plus row maps.

    f_j assigns the lexicographic position of an atom, offset into
    generator j's row range.
    """
    shapes = model.spec.block_shapes
    active = min(level, len(model.generators))
    card = index_set_cardinality(shapes, level)
    need = active * card + 3
    if subrank(shapes[level - 1]) < need:
        raise InsufficientSubrank(
            f"level {level} subrank {subrank(shapes[level - 1])} < required {need}"
        )
    atoms = index_atoms(shapes, level)
    assignment = RowAssignment(level=level, cardinality=card, active_generators=active)
    return atoms, assignment


def conjugated_element(
    model: TowerModel, atom: IndexAtom, y: np.ndarray, level: int
) -> np.ndarray:
    """Sandwich y between descending and ascending unit chains below ``level``.

    Applies e_{k_s,i} ... y ... e_{j,k_t} level by level; cross-level units
    commute, so nesting inner levels first reproduces the chain products.
    """
    if y.shape[0] != model.ambient_dim:
        raise DimensionMismatch("witness dimension does not match ambient")
    out = y
    for ell in range(1, level):
        i, s, j, t = atom.level_entry(ell)
        block = model.blocks[ell - 1]
        k_s = block.shape[s - 1]
        k_t = block.shape[t - 1]
        out = block.unit(s, k_s, i) @ out @ block.unit(t, j, k_t)
    return out


def build_z(
    model: TowerModel, witness: CommutantWitness, level: int
) -> Tuple[np.ndarray, float, Optional[RowAssignment]]:
    """Level coupling element and its normalization constant.

    Level 1 places the first witness into row 2 of every block and scales
    the result to norm 2^-(1+r_1).  Deeper levels sum the row-encoded
    conjugated witnesses and normalize the total to 2^-(r_1+...+r_n+1).
    """
    shapes = model.spec.block_shapes
    if witness.level != level or not witness.approximants:
        raise DimensionMismatch("witness data does not match the requested level")
    ranks = [len(s) for s in shapes]
    target = 2.0 ** (-(sum(ranks[:level]) + 1))
    block = model.blocks[level - 1]
    if level == 1:
        if subrank(shapes[0]) < 3:
            raise InsufficientSubrank(
                f"coupling needs subrank >= 3 at level 1, got {subrank(shapes[0])}"
            )
        y = witness.approximants[0]
        w = np.zeros_like(y)
        for s in range(1, len(shapes[0]) + 1):
            w += block.unit(s, 2, 2) @ y
        norm_w = op_norm(w)
        if norm_w < 1e-10:
            raise DegenerateWitness(
                "level-1 witness vanishes against row 2; re-seed the generator recipe"
            )
        scale = target / norm_w
        return hermitian_part(scale * w), float(scale), None

    atoms, assignment = enumerate_indices(model, level)
    total = np.zeros((model.ambient_dim, model.ambient_dim), dtype=np.complex128)
    for j in range(1, assignment.active_generators + 1):
        y = witness.approximants[j - 1]
        for idx, atom in enumerate(atoms):
            conj = conjugated_element(model, atom, y, level)
            row = assignment.row(j, idx)
            for s in range(1, len(shapes[level - 1]) + 1):
                term = block.unit(s, row, row + 1) @ conj
                total += term + term.conj().T
    norm_total = op_norm(total)
    if norm_total < 1e-10:
        raise DegenerateWitness(
            f"level-{level} coupling sum vanishes; re-seed the generator recipe"
        )
    scale = target / norm_total
    return hermitian_part(scale * total), float(scale), assignment


@dataclass
class PlanLevel:
    level: int
    corner: np.ndarray
    witness: CommutantWitness
    coupling: np.ndarray
    coupling_scale: float
    assignment: Optional[RowAssignment]
    diag_term: np.ndarray
    ladder_term: np.ndarray


@dataclass
class GeneratorPlan:
    model: TowerModel
    levels: List[PlanLevel]
    gen_a: np.ndarray
    gen_b: np.ndarray

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def tail_bound(self) -> float:
        return 2.0 ** (-self.depth)

    def corner_prefix(self, level: int) -> np.ndarray:
        """Product p_1 ... p_level (identity for level 0)."""
        out = self.model.identity.copy()
        for lv in self.levels[:level]:
            out = out @ lv.corner
        return out


def diag_coefficient(shapes: Sequence, level: int, s: int) -> float:
    """Weight 2^-(r_1+...+r_{level-1})-s of the block-s first-column projection."""
    prefix = sum(len(shape) for shape in shapes[: level - 1])
    return 2.0 ** (-(prefix + s))


def build_ab(model: TowerModel, level_data: List[Tuple]) -> GeneratorPlan:
    """Assemble a_n, b_n per level and the totals a, b.

    ``level_data`` carries (witness, corner, coupling, scale, assignment)
    tuples for levels 1..L in order.
    """
    shapes = model.spec.block_shapes
    dim = model.ambient_dim
    plan_levels: List[PlanLevel] = []
    prefix = np.eye(dim, dtype=np.complex128)
    gen_a = np.zeros((dim, dim), dtype=np.complex128)
    gen_b = np.zeros((dim, dim), dtype=np.complex128)
    for n, (witness, corner, coupling, scale, assignment) in enumerate(level_data, start=1):
        block = model.blocks[n - 1]
        diag = np.zeros((dim, dim), dtype=np.complex128)
        for s in range(1, len(shapes[n - 1]) + 1):
            diag += diag_coefficient(shapes, n, s) * block.unit(s, 1, 1)
        a_n = prefix @ diag + coupling
        ladder = np.zeros((dim, dim), dtype=np.complex128)
        for s, k_s in enumerate(shapes[n - 1], start=1):
            for i in range(1, k_s):
                ladder += block.unit(s, i, i + 1) + block.unit(s, i + 1, i)
        b_n = 2.0 ** (-2 * n) * (prefix @ ladder)
        a_n = hermitian_part(a_n)
        b_n = hermitian_part(b_n)
        plan_levels.append(
            PlanLevel(
                level=n,
                corner=corner,
                witness=witness,
                coupling=coupling,
                coupling_scale=scale,
                assignment=assignment,
                diag_term=a_n,
                ladder_term=b_n,
            )
        )
        gen_a += a_n
        gen_b += b_n
        prefix = prefix @ corner
    return GeneratorPlan(
        model=model, levels=plan_levels, gen_a=hermitian_part(gen_a), gen_b=hermitian_part(gen_b)
    )


def build_plan(model: TowerModel) -> GeneratorPlan:
    """Run the whole construction for every level of the tower."""
    level_data = []
    for n in range(1, model.depth + 1):
        witness = witnesses_at_level(model, n)
        corner = corner_projection(model, n)
        coupling, scale, assignment = build_z(model, witness, n)
        level_data.append((witness, corner, coupling, scale, assignment))
    return build_ab(model, level_data)


@dataclass(frozen=True)
class LevelNorms:
    """Level n's summand norms and the closed forms the construction fixes for
    them: ||z_n|| = 2^-(r_1+...+r_n+1), ||a_n|| = diag_coefficient(shapes, n, 1),
    ||b_n|| <= 2^(-2n+1)."""

    level: int
    coupling_scale: float
    coupling_norm: float
    coupling_target: float
    diag_norm: float
    diag_target: float
    ladder_norm: float
    ladder_cap: float

    @property
    def coupling_gap(self) -> float:
        return abs(self.coupling_norm - self.coupling_target)

    @property
    def diag_gap(self) -> float:
        return abs(self.diag_norm - self.diag_target)

    def rows(self) -> List[ReportRow]:
        n = self.level
        return [
            ReportRow.check(f"level{n}.coupling_norm_gap", self.coupling_gap, NORM_TOL),
            ReportRow.check(f"level{n}.diag_norm_gap", self.diag_gap, NORM_TOL),
            ReportRow.check(
                f"level{n}.ladder_norm", self.ladder_norm, self.ladder_cap + ROUNDING_TOL
            ),
            ReportRow(f"level{n}.coupling_scale", self.coupling_scale, None, True),
        ]


@dataclass
class FactReport:
    rows: List[ReportRow]  # each level's rows, then the construction-wide facts
    levels: List[LevelNorms]  # per level; not part of to_json()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_json(self) -> dict:
        return {"rows": [r.to_json() for r in self.rows], "pass": self.passed}


def verify_facts(plan: GeneratorPlan) -> FactReport:
    """Measure the orthogonality and norm identities of the construction.

    The diagonal-weight norm identity is checked against the closed form
    2^-(r_1+...+r_{n-1}+1): the level-n summand is dominated by its block-1
    first-column term, whose weight the construction fixes exactly.
    """
    model = plan.model
    shapes = model.spec.block_shapes
    levels = plan.levels
    eye = model.identity

    f1 = 0.0
    f2 = 0.0
    corner_first_col = 0.0
    comp_identity = 0.0
    for lv in levels:
        z, p = lv.coupling, lv.corner
        f1 = max(f1, op_norm(p @ z), op_norm(z @ p))
        for m in range(1, lv.level + 1):
            blk = model.blocks[m - 1]
            for s in range(1, len(shapes[m - 1]) + 1):
                e11 = blk.unit(s, 1, 1)
                f2 = max(f2, op_norm(z @ e11), op_norm(e11 @ z))
        blk = model.blocks[lv.level - 1]
        for s, k_s in enumerate(shapes[lv.level - 1], start=1):
            corner_first_col = max(corner_first_col, op_norm(p @ blk.unit(s, 1, 1)))
        sandwich = (eye - p) @ plan.corner_prefix(lv.level - 1)
        comp_identity = max(comp_identity, op_norm(sandwich @ z @ sandwich.conj().T - z))

    f3 = 0.0
    eq9 = 0.0
    for la, lb in itertools.combinations(levels, 2):
        f3 = max(f3, op_norm(la.coupling @ lb.coupling), op_norm(lb.coupling @ la.coupling))
        eq9 = max(eq9, op_norm(la.diag_term @ lb.diag_term), op_norm(lb.diag_term @ la.diag_term))

    ranks = [len(s) for s in shapes]
    norms = [
        LevelNorms(
            level=lv.level,
            coupling_scale=lv.coupling_scale,
            coupling_norm=op_norm(lv.coupling),
            coupling_target=2.0 ** (-(sum(ranks[: lv.level]) + 1)),
            diag_norm=op_norm(lv.diag_term),
            diag_target=diag_coefficient(shapes, lv.level, 1),
            ladder_norm=op_norm(lv.ladder_term),
            ladder_cap=2.0 ** (-2 * lv.level + 1),
        )
        for lv in levels
    ]
    eq10 = max([0.0] + [x.diag_gap for x in norms])
    eq11 = max([0.0] + [x.ladder_norm - x.ladder_cap for x in norms])
    z_norm_gap = max([0.0] + [x.coupling_gap for x in norms])

    e11_first = model.blocks[0].unit(1, 1, 1)
    rest = (eye - e11_first) @ (2.0 * plan.gen_a) @ (eye - e11_first)
    leading_margin = op_norm(rest)

    herm = max(
        op_norm(plan.gen_a - plan.gen_a.conj().T), op_norm(plan.gen_b - plan.gen_b.conj().T)
    )

    rows = [row for x in norms for row in x.rows()] + [
        ReportRow.check("corner_annihilates_coupling", float(f1), ROUNDING_TOL),
        ReportRow.check("coupling_kills_first_columns", float(f2), ROUNDING_TOL),
        ReportRow.check("couplings_mutually_orthogonal", float(f3), ROUNDING_TOL),
        ReportRow.check("diag_terms_mutually_orthogonal", float(eq9), ROUNDING_TOL),
        ReportRow.check("diag_term_norm_gap", float(eq10), NORM_TOL),
        ReportRow.check("ladder_norm_excess", float(eq11), ROUNDING_TOL),
        ReportRow.check("coupling_norm_gap", float(z_norm_gap), NORM_TOL),
        ReportRow.check("corner_kills_first_column", float(corner_first_col), ROUNDING_TOL),
        ReportRow.check("coupling_compression_identity", float(comp_identity), ROUNDING_TOL),
        ReportRow.check("leading_complement_margin", float(leading_margin), 0.5 + NORM_TOL),
        ReportRow.check("totals_hermitian_defect", float(herm), ROUNDING_TOL),
    ]
    return FactReport(rows=rows, levels=norms)
