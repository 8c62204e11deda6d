"""Two-generator construction over a tower.

Per level n the construction produces a corner projection p_n, a coupling
element z_n that encodes the level's commutant witnesses into designated
rows of block n, and the summands a_n (weighted first-column projections
plus z_n) and b_n (scaled tridiagonal ladder).  The totals a = sum a_n and
b = sum b_n generate everything the tower knows about.

Every unit is an exact 0/1 partial permutation held as a row table, so no
unit is formed here: a unit chain is a gather through composed column maps,
a unit times a matrix moves rows, and p_n, p_1 ... p_{n-1} and e_11 are
coordinate masks; each result has the values the dense products give.
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
    required_subrank,
    witnesses_at_level,
)
from .units import MatrixUnitSystem, subrank

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


def coordinate_mask(dim: int, rows: Sequence[np.ndarray]) -> np.ndarray:
    """The 0/1 diagonal projection onto the coordinates in ``rows``, as a mask."""
    mask = np.zeros(dim, dtype=bool)
    mask[np.concatenate(rows)] = True
    return mask


def corner_mask(block: MatrixUnitSystem) -> np.ndarray:
    """The corner p_n, the sum of every block's last diagonal unit, as a mask."""
    return coordinate_mask(block.ambient_dim, [table[-1] for table in block.rows])


def restricted(x: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """P x Q for P, Q the projections of two masks: x off them set to zero."""
    return np.where(rows[:, None] & cols[None, :], x, 0.0)


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
    need = required_subrank(shapes, level, active)
    if subrank(shapes[level - 1]) < need:
        raise InsufficientSubrank(
            f"level {level} subrank {subrank(shapes[level - 1])} < required {need}"
        )
    atoms = index_atoms(shapes, level)
    assignment = RowAssignment(level=level, cardinality=card, active_generators=active)
    return atoms, assignment


def conjugated_element(
    model: TowerModel, atom: IndexAtom, y: np.ndarray, level: int, out_rows: np.ndarray
) -> np.ndarray:
    """Rows ``out_rows`` of y sandwiched between descending and ascending unit
    chains below ``level``.

    L y R, L and R the products of the e_{k_s,i} and the e_{j,k_t} over the
    lower levels (which commute), is y[rows[r], cols[c]] at (r, c) for rows
    the column map of L^* and cols that of R: one gather of the requested
    rows, whose entries a map's -1 marks are then set to zero.
    """
    if y.shape[0] != model.ambient_dim:
        raise DimensionMismatch("witness dimension does not match ambient")
    if level < 2:
        raise DimensionMismatch("conjugated elements exist only for levels >= 2")
    rows = cols = None
    for ell in range(1, level):
        i, s, j, t = atom.level_entry(ell)
        block = model.blocks[ell - 1]
        left = block.column_map(s, i, block.shape[s - 1])
        right = block.column_map(t, j, block.shape[t - 1])
        rows = left if rows is None else rows[left]
        cols = right if cols is None else cols[right]
    rows, cols = rows[out_rows], cols[:-1]
    out = y[rows[:, None], cols[None, :]]
    out[rows < 0] = 0.0
    out[:, cols < 0] = 0.0
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
        need = required_subrank(shapes, 1, 1)
        if subrank(shapes[0]) < need:
            raise InsufficientSubrank(
                f"coupling needs subrank >= {need} at level 1, got {subrank(shapes[0])}"
            )
        y = witness.approximants[0]
        second = np.concatenate([table[1] for table in block.rows])
        w = np.zeros_like(y)
        w[second] = y[second]
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
            row = assignment.row(j, idx)
            # only unit row row + 1 of each block is read: e_{row,row+1} conj
            read = [table[row] for table in block.rows]
            conj = conjugated_element(model, atom, y, level, np.concatenate(read))
            parts = np.split(conj, np.cumsum([len(r) for r in read[:-1]]))
            for table, part in zip(block.rows, parts):
                term = np.zeros_like(total)
                term[table[row - 1]] = part
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


def diag_coefficient(shapes: Sequence, level: int, s: int) -> float:
    """Weight 2^-(r_1+...+r_{level-1})-s of the block-s first-column projection."""
    prefix = sum(len(shape) for shape in shapes[: level - 1])
    return 2.0 ** (-(prefix + s))


def build_ab(model: TowerModel, level_data: List[Tuple]) -> GeneratorPlan:
    """Assemble a_n, b_n per level and the totals a, b.

    ``level_data`` carries (witness, coupling, scale, assignment) tuples
    for levels 1..L in order.
    """
    shapes = model.spec.block_shapes
    dim = model.ambient_dim
    plan_levels: List[PlanLevel] = []
    prefix = np.ones(dim, dtype=bool)
    gen_a = np.zeros((dim, dim), dtype=np.complex128)
    gen_b = np.zeros((dim, dim), dtype=np.complex128)
    for n, (witness, coupling, scale, assignment) in enumerate(level_data, start=1):
        block = model.blocks[n - 1]
        a_n = coupling.copy()
        ladder = np.zeros((dim, dim), dtype=np.complex128)
        for s, table in enumerate(block.rows, start=1):
            first = table[0][prefix[table[0]]]
            a_n[first, first] += diag_coefficient(shapes, n, s)
            ladder[table[:-1], table[1:]] = 1.0
            ladder[table[1:], table[:-1]] = 1.0
        ladder[~prefix] = 0.0
        a_n = hermitian_part(a_n)
        b_n = hermitian_part(2.0 ** (-2 * n) * ladder)
        plan_levels.append(
            PlanLevel(
                level=n,
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
        prefix &= corner_mask(block)
    return GeneratorPlan(
        model=model, levels=plan_levels, gen_a=hermitian_part(gen_a), gen_b=hermitian_part(gen_b)
    )


def build_plan(model: TowerModel) -> GeneratorPlan:
    """Run the whole construction for every level of the tower."""
    level_data = []
    for n in range(1, model.depth + 1):
        witness = witnesses_at_level(model, n)
        coupling, scale, assignment = build_z(model, witness, n)
        level_data.append((witness, coupling, scale, assignment))
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
    first-column term, whose weight the construction fixes exactly.  The
    0/1 diagonal p_n e_11 has norm 1.0 if its masks meet, else 0.0.
    """
    model = plan.model
    dim = model.ambient_dim
    shapes = model.spec.block_shapes
    levels = plan.levels
    full = np.ones(dim, dtype=bool)
    prefix = full.copy()

    f1 = f2 = corner_first_col = comp_identity = 0.0
    for lv in levels:
        z, block = lv.coupling, model.blocks[lv.level - 1]
        p = corner_mask(block)
        f1 = max(f1, op_norm(restricted(z, p, full)), op_norm(restricted(z, full, p)))
        for blk in model.blocks[: lv.level]:
            for table in blk.rows:
                e11 = coordinate_mask(dim, [table[0]])
                f2 = max(f2, op_norm(restricted(z, full, e11)), op_norm(restricted(z, e11, full)))
        firsts = coordinate_mask(dim, [table[0] for table in block.rows])
        corner_first_col = max(corner_first_col, float(np.any(p & firsts)))
        sandwich = prefix & ~p
        comp_identity = max(comp_identity, op_norm(restricted(z, sandwich, sandwich) - z))
        prefix &= p

    f3 = eq9 = 0.0
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

    rest = ~coordinate_mask(dim, [model.blocks[0].rows[0][0]])
    leading_margin = op_norm(restricted(2.0 * plan.gen_a, rest, rest))

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
