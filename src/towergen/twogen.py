"""Two-generator construction over a tower.

Per level n the construction produces a corner projection p_n, a coupling
element z_n that encodes the level's commutant witnesses into designated
rows of block n, and the summands a_n (weighted first-column projections
plus z_n) and b_n (scaled tridiagonal ladder).  The totals a = sum a_n and
b = sum b_n generate everything the tower knows about.

z_n's rows hold one term per index atom, an (i, s, j, t) choice at each
lower level; ``index_atoms`` is all of them as one int table, and
``coupling_row`` the row of each generator's term, which recovery reads back.

Every unit is an exact 0/1 partial permutation held as a row table, so no
unit is formed here: a unit chain is a gather through composed column maps,
a unit times a matrix moves rows, and p_n, p_1 ... p_{n-1} and e_11 are
coordinate masks; each result has the values the dense products give.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import DegenerateWitness, DimensionMismatch, InsufficientSubrank
from .linalg import hermitian_part, op_norm
from .report import ReportRow
from .tower import (
    ROUNDING_TOL,
    CommutantWitness,
    TowerModel,
    required_subrank,
)
from .units import MatrixUnitSystem, subrank

NORM_TOL = 1e-10  # gap between a measured norm and its closed form

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


def index_atoms(shapes: Sequence, level: int) -> np.ndarray:
    """All index atoms below ``level`` as one (card, level - 1, 4) int table.

    Row a, level ell holds (i, s, j, t): the choice of e_{k_s,i} on the left
    and e_{j,k_t} on the right at level ell.  Rows run by (s, i, t, j) per
    level, level 1 most significant.
    """
    if level < 2:
        raise DimensionMismatch("index atoms exist only for levels >= 2")
    # each level's choice array: the (i, s) of every row of its blocks, in (s, i) order
    pairs = [
        np.array([(i, s) for s, k in enumerate(shape, start=1) for i in range(1, k + 1)])
        for shape in shapes[: level - 1]
    ]
    # a left and a right choice per level, level 1 most significant
    grid = np.indices([len(p) for p in pairs for _ in range(2)]).reshape(len(pairs), 2, -1)
    return np.stack([np.hstack(p[g]) for p, g in zip(pairs, grid)], axis=1)


def coupling_row(card: int, generator: int, atom: int) -> int:
    """Row of block n that holds generator ``generator``'s term for atom ``atom``.

    The row maps are injective into disjoint ranges: generator j's atoms
    occupy rows (j-1)*card + 2 .. j*card + 1, leaving row 1 for the a_n
    diagonal terms and the last rows for the corner.
    """
    return (generator - 1) * card + 2 + atom


def conjugated_element(
    model: TowerModel, atom: Sequence[Sequence[int]], y: np.ndarray, out_rows: np.ndarray
) -> np.ndarray:
    """Rows ``out_rows`` of y sandwiched between descending and ascending unit
    chains below level len(atom) + 1, for ``atom`` one row of ``index_atoms``.

    L y R, L and R the products of the e_{k_s,i} and the e_{j,k_t} over the
    lower levels (which commute), is y[rows[r], cols[c]] at (r, c) for rows
    the column map of L^* and cols that of R: one gather of the requested
    rows, whose entries a map's -1 marks are then set to zero.
    """
    if y.shape[0] != model.ambient_dim:
        raise DimensionMismatch("witness dimension does not match ambient")
    if len(atom) == 0:
        raise DimensionMismatch("conjugated elements exist only for levels >= 2")
    rows = cols = None
    for block, (i, s, j, t) in zip(model.blocks, atom):
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
) -> Tuple[np.ndarray, float]:
    """Level coupling element and its normalization constant.

    Level 1 places the first witness into row 2 of every block.  Deeper
    levels sum the conjugated witnesses, each in its ``coupling_row``.  The
    result is scaled to norm ``coupling_target(shapes, level)``.
    """
    shapes = model.spec.block_shapes
    if witness.level != level or not witness.approximants:
        raise DimensionMismatch("witness data does not match the requested level")
    active = min(level, len(model.generators))
    need, have = required_subrank(shapes, level, active), subrank(shapes[level - 1])
    if have < need:
        raise InsufficientSubrank(f"coupling needs subrank >= {need} at level {level}, got {have}")
    block = model.blocks[level - 1]
    if level == 1:
        y = witness.approximants[0]
        second = np.concatenate([table[1] for table in block.rows])
        total = np.zeros_like(y)
        total[second] = y[second]
        vanishing = "witness vanishes against row 2"
    else:
        atoms = index_atoms(shapes, level)
        # The coupling sums term + term^* over generators, atoms and blocks,
        # each term one conjugated element in c rows.  The rows of different
        # terms are disjoint (injective row maps, disjoint block tables), so
        # each entry of the sum gets one value from its row's term and one from
        # its column's, the rest +-0.0.  Added to +0.0 in any order these give
        # the bits of (rows + rows^*) + 0.0, signed zeros included, with
        # ``rows`` every term placed in one matrix: no d x d term per atom.
        rows = np.zeros((model.ambient_dim, model.ambient_dim), dtype=np.complex128)
        for g in range(1, active + 1):
            y = witness.approximants[g - 1]
            for a, atom in enumerate(atoms.tolist()):
                row = coupling_row(len(atoms), g, a)
                # only unit row row + 1 of each block is read: e_{row,row+1} conj
                read = [table[row] for table in block.rows]
                conj = conjugated_element(model, atom, y, np.concatenate(read))
                parts = np.split(conj, np.cumsum([len(r) for r in read[:-1]]))
                for table, part in zip(block.rows, parts):
                    rows[table[row - 1]] += part
        total = rows + rows.conj().T + 0.0
        vanishing = "coupling sum vanishes"
    norm_total = op_norm(total)
    if norm_total < 1e-10:
        raise DegenerateWitness(f"level-{level} {vanishing}; re-seed the generator recipe")
    scale = coupling_target(shapes, level) / norm_total
    return hermitian_part(scale * total), float(scale)


@dataclass
class PlanLevel:
    level: int
    witness: CommutantWitness
    coupling: np.ndarray
    coupling_scale: float
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


def coupling_target(shapes: Sequence, level: int) -> float:
    """Norm 2^-(r_1+...+r_level+1) the construction gives the level's coupling z_n."""
    return 2.0 ** (-(sum(len(shape) for shape in shapes[:level]) + 1))


def build_ab(model: TowerModel, level_data: List[Tuple]) -> GeneratorPlan:
    """Assemble a_n, b_n per level and the totals a, b.

    ``level_data`` carries (witness, coupling, scale) triples for levels
    1..L in order.
    """
    shapes = model.spec.block_shapes
    dim = model.ambient_dim
    plan_levels: List[PlanLevel] = []
    prefix = np.ones(dim, dtype=bool)
    gen_a = np.zeros((dim, dim), dtype=np.complex128)
    gen_b = np.zeros((dim, dim), dtype=np.complex128)
    for n, (witness, coupling, scale) in enumerate(level_data, start=1):
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
    level_data = [
        (witness, *build_z(model, witness, n)) for n, witness in enumerate(model.witnesses, start=1)
    ]
    return build_ab(model, level_data)


@dataclass(frozen=True)
class LevelNorms:
    """Level n's summand norms and the closed forms the construction fixes for
    them: ||z_n|| = coupling_target(shapes, n), ||a_n|| = diag_coefficient(shapes, n, 1),
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

    norms = [
        LevelNorms(
            level=lv.level,
            coupling_scale=lv.coupling_scale,
            coupling_norm=op_norm(lv.coupling),
            coupling_target=coupling_target(shapes, lv.level),
            diag_norm=op_norm(lv.diag_term),
            diag_target=diag_coefficient(shapes, lv.level, 1),
            ladder_norm=op_norm(lv.ladder_term),
            ladder_cap=2.0 ** (-2 * lv.level + 1),
        )
        for lv in levels
    ]
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
        ReportRow.check("corner_kills_first_column", float(corner_first_col), ROUNDING_TOL),
        ReportRow.check("coupling_compression_identity", float(comp_identity), ROUNDING_TOL),
        ReportRow.check("leading_complement_margin", float(leading_margin), 0.5 + NORM_TOL),
        ReportRow.check("totals_hermitian_defect", float(herm), ROUNDING_TOL),
    ]
    return FactReport(rows=rows, levels=norms)
