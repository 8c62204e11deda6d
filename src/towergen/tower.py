"""Truncated towers of mutually commuting embedded block algebras.

A depth-L tower lives in the tensor product of one full matrix factor per
level; block m's units act on factor m and commute with every other level
exactly by construction.  Hermitian generators x_1..x_n are produced by
seeded recipes that keep their distance to each level's commutant inside
the 2^-m margin the construction needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, DimensionOverflow, StrictModeViolation
from .linalg import DEFAULT_DIM_CAP, hermitian_part, identity, op_norm, screened_max_norm
from .report import ReportRow
from .units import MatrixUnitSystem, Shape, amplify, canonical_units, normalize_shape, rank, subrank

DISTANCE_MARGIN = 0.75  # fraction of the 2^-m budget the recipes actually spend
ROUNDING_TOL = 1e-12  # identities that hold exactly in exact arithmetic


@dataclass(frozen=True)
class TowerSpec:
    block_shapes: Tuple[Shape, ...]
    num_generators: int = 1
    mode: str = "strict"
    generator_seed: int = 7
    generator_recipe: str = "leading-factor"

    def __post_init__(self):
        shapes = tuple(normalize_shape(s) for s in self.block_shapes)
        object.__setattr__(self, "block_shapes", shapes)
        if not shapes:
            raise DimensionMismatch("tower needs at least one level")
        if self.num_generators < 1:
            raise DimensionMismatch("tower needs at least one generator")
        if self.mode not in ("strict", "relaxed"):
            raise DimensionMismatch(f"unknown mode {self.mode!r}")
        if self.generator_recipe not in ("leading-factor", "uhf"):
            raise DimensionMismatch(f"unknown recipe {self.generator_recipe!r}")

    @property
    def depth(self) -> int:
        return len(self.block_shapes)

    def to_json(self) -> dict:
        return {
            "shapes": [list(s) for s in self.block_shapes],
            "generators": self.num_generators,
            "mode": self.mode,
            "seed": self.generator_seed,
            "recipe": self.generator_recipe,
        }


def index_set_cardinality(shapes: Sequence[Shape], level: int) -> int:
    """Number of cross-level index atoms available below ``level``."""
    card = 1
    for shape in shapes[: level - 1]:
        card *= rank(shape) ** 2
    return card


def required_subrank_strict(shapes: Sequence[Shape], level: int) -> int:
    if level == 1:
        return 3
    return level * index_set_cardinality(shapes, level) + 3


def required_subrank_relaxed(shapes: Sequence[Shape], level: int, num_generators: int) -> int:
    if level == 1:
        return 3
    active = min(level, num_generators)
    return active * index_set_cardinality(shapes, level) + 3


@dataclass
class TowerModel:
    spec: TowerSpec
    ambient_dim: int
    blocks: List[MatrixUnitSystem]
    generators: List[np.ndarray]
    identity: np.ndarray
    factor_dims: Tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.blocks)


def _embed_factor(x: np.ndarray, factor_dims: Sequence[int], position: int) -> np.ndarray:
    before = int(np.prod(factor_dims[:position], dtype=np.int64)) if position else 1
    after_dims = factor_dims[position + 1 :]
    after = int(np.prod(after_dims, dtype=np.int64)) if after_dims else 1
    out = x
    if before > 1:
        out = np.kron(np.eye(before), out)
    if after > 1:
        out = np.kron(out, np.eye(after))
    return out.astype(np.complex128)


def commutant_projection(x: np.ndarray, block: MatrixUnitSystem) -> np.ndarray:
    """Average x against the block's units: E(x) = sum_s (1/k_s) sum_ij e_ij x e_ji.

    The output commutes with every unit of the block, E is idempotent and a
    contraction, and it fixes anything already in the commutant.  For an
    exact block, e_ij x e_ji is the c_s x c_s submatrix of x on the rows
    R_s[j] placed on the rows R_s[i], so one gather, one sum over j and one
    scatter per block give what the dense sum gives, bit for bit: that sum
    also adds each such submatrix, in j order, to zeros.
    """
    if x.shape[0] != block.ambient_dim:
        raise DimensionMismatch(
            f"operand dimension {x.shape[0]} does not match ambient {block.ambient_dim}"
        )
    if block.rows is None:
        raise DimensionMismatch("commutant_projection needs an exact unit system")
    out = np.zeros_like(x, dtype=np.complex128)
    for k, table in zip(block.shape, block.rows):
        square = (table[:, :, None], table[:, None, :])
        acc = np.zeros((table.shape[1],) * 2, dtype=np.complex128)
        for part in x[square]:
            acc += part
        out[square] += acc / k
    return out


def _screened_max_commutator(left: List[np.ndarray], right: List[np.ndarray]) -> float:
    """Max operator norm of [u, v] over the two unit families.

    Exact: every commutator's Frobenius norm screens the operator-norm
    measurements (``screened_max_norm``), so on commuting families, whose
    commutators vanish exactly, no operator norm is evaluated.
    """
    if not left or not right:
        return 0.0
    lstack, rstack = np.stack(left), np.stack(right)

    def commutators(li: np.ndarray, ri: np.ndarray) -> np.ndarray:
        u, v = lstack[li], rstack[ri]
        return u @ v - v @ u

    return screened_max_norm(len(left), len(right), lstack.shape[1], commutators)


def _max_cross_commutator(left: MatrixUnitSystem, right: MatrixUnitSystem) -> float:
    """Max operator norm of [u, v] over the units of two exact systems.

    Both products of two partial permutations are partial permutations, so
    [u, v] vanishes exactly when the composed column maps u[v] and v[u]
    agree.  Only the units of pairs whose maps disagree go to the dense
    ``_screened_max_commutator``, which gives every pair the bits the full
    grid would; the others contribute exactly 0.
    """
    lmaps, rmaps = left.column_maps(), right.column_maps()
    clash = np.stack([np.any(u[rmaps] != rmaps[:, u], axis=1) for u in lmaps])
    li, ri = np.flatnonzero(clash.any(axis=1)), np.flatnonzero(clash.any(axis=0))
    if not len(li):
        return 0.0
    lkeys, rkeys = left.keys(), right.keys()
    return _screened_max_commutator(
        [left.unit(*lkeys[n]) for n in li], [right.unit(*rkeys[n]) for n in ri]
    )


def _draw_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitian_part(g)


def _block_traceless(h: np.ndarray, shape: Shape) -> np.ndarray:
    """Remove the per-block averaged part so every block trace vanishes."""
    out = h.copy()
    offset = 0
    for k in shape:
        tr = np.trace(out[offset : offset + k, offset : offset + k]) / k
        out[offset : offset + k, offset : offset + k] -= tr * np.eye(k)
        offset += k
    return out


def _leading_factor_generators(spec: TowerSpec, factor_dims, blocks) -> List[np.ndarray]:
    """Seeded Hermitian contractions on the first tensor factor.

    The part of each generator that fails to commute with block 1 is scaled
    to spend only DISTANCE_MARGIN of the 2^-1 budget; deeper levels commute
    exactly because the support stays on factor 1.
    """
    seeds = np.random.SeedSequence(spec.generator_seed).spawn(spec.num_generators)
    gens = []
    d1 = factor_dims[0]
    for seq in seeds:
        rng = np.random.default_rng(seq)
        w_small = _draw_hermitian(rng, d1)
        w_small = w_small / max(op_norm(w_small), 1e-300) + 0.3 * np.eye(d1)
        w = _embed_factor(w_small, factor_dims, 0)
        core = commutant_projection(w, blocks[0])
        dev = w - core
        dev_norm = op_norm(dev)
        x = core.copy()
        if dev_norm > 1e-12:
            x = core + (DISTANCE_MARGIN * 0.5) * dev / dev_norm
        nrm = op_norm(x)
        if nrm > 1.0:
            x = x / nrm
        gens.append(hermitian_part(x))
    return gens


def _uhf_generators(spec: TowerSpec, factor_dims, blocks) -> List[np.ndarray]:
    """Finite sums of weighted tensor words across the factors.

    Each word carries block-traceless slots, so it is annihilated by the
    commutant projection of every level it touches; per-level coefficient
    budgets keep the distances inside DISTANCE_MARGIN * 2^-m.
    """
    depth = len(factor_dims)
    seeds = np.random.SeedSequence(spec.generator_seed).spawn(spec.num_generators)
    gens = []
    for seq in seeds:
        rng = np.random.default_rng(seq)
        num_words = 2 * depth
        words = []
        supports = []
        for _ in range(num_words):
            mask = rng.random(depth) < 0.5
            if not mask.any():
                mask[rng.integers(depth)] = True
            support = [m for m in range(depth) if mask[m]]
            word = np.eye(1, dtype=np.complex128)
            for m in range(depth):
                if m in support:
                    h = _block_traceless(_draw_hermitian(rng, factor_dims[m]), spec.block_shapes[m])
                    h = h / max(op_norm(h), 1e-300)
                else:
                    h = np.eye(factor_dims[m])
                word = np.kron(word, h)
            words.append(word)
            supports.append(support)
        raw = rng.uniform(0.2, 1.0, size=num_words) * rng.choice([-1.0, 1.0], size=num_words)
        scale = np.inf
        for m in range(depth):
            load = sum(abs(raw[t]) for t in range(num_words) if m in supports[t])
            if load > 0:
                scale = min(scale, DISTANCE_MARGIN * 2.0 ** (-(m + 1)) / load)
        coeffs = raw * (scale if np.isfinite(scale) else 0.0)
        x = 0.25 * identity(int(np.prod(factor_dims, dtype=np.int64)))
        for c, word in zip(coeffs, words):
            x = x + c * word
        nrm = op_norm(x)
        if nrm > 1.0:
            x = x / nrm
        gens.append(hermitian_part(x))
    return gens


def build_tower(spec: TowerSpec, dim_cap: int = DEFAULT_DIM_CAP) -> TowerModel:
    """Realize a tower spec as commuting tensor-factor blocks plus generators."""
    shapes = spec.block_shapes
    factor_dims = tuple(rank(s) for s in shapes)
    ambient = 1
    for d in factor_dims:
        ambient *= d
        if ambient > dim_cap:
            raise DimensionOverflow(
                f"tower ambient dimension {ambient}+ exceeds cap {dim_cap}"
            )
    if spec.mode == "strict":
        for level, shape in enumerate(shapes, start=1):
            need = required_subrank_strict(shapes, level)
            if subrank(shape) < need:
                raise StrictModeViolation(
                    f"level {level} subrank {subrank(shape)} below strict bound {need}"
                )
    blocks = []
    for pos, shape in enumerate(shapes):
        before, after = math.prod(factor_dims[:pos]), math.prod(factor_dims[pos + 1 :])
        blocks.append(amplify(canonical_units(shape), before, after))
    if spec.generator_recipe == "leading-factor":
        gens = _leading_factor_generators(spec, factor_dims, blocks)
    else:
        gens = _uhf_generators(spec, factor_dims, blocks)
    return TowerModel(
        spec=spec,
        ambient_dim=ambient,
        blocks=blocks,
        generators=gens,
        identity=identity(ambient),
        factor_dims=factor_dims,
    )


@dataclass
class CommutantWitness:
    """Per-level commuting approximants y_j and their distances to the x_j."""

    level: int
    approximants: List[np.ndarray]
    distances: List[float]


def witnesses_at_level(model: TowerModel, level: int) -> CommutantWitness:
    block = model.blocks[level - 1]
    active = min(level, len(model.generators))
    approx = []
    dists = []
    for j in range(active):
        y = hermitian_part(commutant_projection(model.generators[j], block))
        approx.append(y)
        dists.append(op_norm(model.generators[j] - y))
    return CommutantWitness(level=level, approximants=approx, distances=dists)


@dataclass
class ConditionReport:
    rows: List[ReportRow]
    interleaving_note: str

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_json(self) -> dict:
        return {
            "rows": [r.to_json() for r in self.rows],
            "interleaving": self.interleaving_note,
            "pass": self.passed,
        }


def check_conditions(model: TowerModel) -> ConditionReport:
    """Rows per level: unitality and cross-level commutation up to ROUNDING_TOL,
    subrank at least the growth bound, and each generator's distance to the
    level's commutant below 2^-level."""
    spec = model.spec
    shapes = spec.block_shapes
    rows = []
    for level in range(1, model.depth + 1):
        blk = model.blocks[level - 1]
        unitality = blk.unitality_defect()
        cross = 0.0
        for other in model.blocks[level:]:
            cross = max(cross, _max_cross_commutator(blk, other))
        if spec.mode == "strict":
            need = required_subrank_strict(shapes, level)
        else:
            need = required_subrank_relaxed(shapes, level, spec.num_generators)
        have = subrank(shapes[level - 1])
        rows += [
            ReportRow.check(f"level{level}.unitality", float(unitality), ROUNDING_TOL),
            ReportRow.check(f"level{level}.cross_commutator", float(cross), ROUNDING_TOL),
            ReportRow(f"level{level}.subrank_growth", have, need, have >= need),
        ]
        bound = 2.0 ** (-level)
        rows += [
            ReportRow(f"level{level}.distance_g{j}", dist, bound, dist < bound)
            for j, dist in enumerate(witnesses_at_level(model, level).distances, start=1)
        ]
    return ConditionReport(rows, "interleaving indices satisfied by tensor construction")
