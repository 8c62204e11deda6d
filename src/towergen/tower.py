"""Truncated towers of mutually commuting embedded block algebras.

A depth-L tower lives in the tensor product of one full matrix factor per
level; block m's units act on factor m and commute with every other level
exactly by construction.  Hermitian generators x_1..x_n are produced by
seeded recipes that keep their distance to each level's commutant inside
the 2^-m margin the construction needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, DimensionOverflow, StrictModeViolation
from .linalg import DEFAULT_DIM_CAP, hermitian_part, identity, op_norm, screened_max_norm
from .report import ReportRow
from .units import MatrixUnitSystem, Shape, amplify, canonical_units, normalize_shape, rank, subrank

DISTANCE_MARGIN = 0.75  # fraction of the 2^-m budget the recipes actually spend
ROUNDING_TOL = 1e-12  # identities that hold exactly in exact arithmetic

MODES = ["strict", "relaxed"]

# The config key of each TowerSpec field.
SPEC_KEYS = {
    "shapes": "block_shapes",
    "generators": "num_generators",
    "mode": "mode",
    "seed": "generator_seed",
    "recipe": "generator_recipe",
}


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
        if self.mode not in MODES:
            raise DimensionMismatch(f"unknown mode {self.mode!r}")
        if self.generator_recipe not in RECIPES:
            raise DimensionMismatch(f"unknown recipe {self.generator_recipe!r}")

    @property
    def depth(self) -> int:
        return len(self.block_shapes)

    def to_json(self) -> dict:
        out = {key: getattr(self, name) for key, name in SPEC_KEYS.items()}
        out["shapes"] = [list(s) for s in self.block_shapes]
        return out


def index_set_cardinality(shapes: Sequence[Shape], level: int) -> int:
    """Number of cross-level index atoms available below ``level``."""
    card = 1
    for shape in shapes[: level - 1]:
        card *= rank(shape) ** 2
    return card


def required_subrank(shapes: Sequence[Shape], level: int, active: int) -> int:
    """Smallest block size at ``level`` carrying ``active`` generators' coupling rows:
    ``level`` of them in strict mode, min(level, generators) in relaxed mode."""
    if level == 1:
        return 3
    return active * index_set_cardinality(shapes, level) + 3


@dataclass(frozen=True)
class CommutantWitness:
    """Per-level commuting approximants y_j and their distances to the x_j."""

    level: int
    approximants: Tuple[np.ndarray, ...]
    distances: Tuple[float, ...]


@dataclass(frozen=True)
class TowerModel:
    """A realized tower and its generators, with each level's commutant
    witnesses, from ``witnesses_at_level`` once when the model is made.

    The model is frozen, its blocks and generators are tuples and each
    generator a read-only copy, so the witnesses cannot go stale: a model
    with other generators is a new model, for example
    ``dataclasses.replace(model, generators=...)``, with its own.
    """

    spec: TowerSpec
    ambient_dim: int
    blocks: Tuple[MatrixUnitSystem, ...]
    generators: Tuple[np.ndarray, ...]
    factor_dims: Tuple[int, ...]
    witnesses: Tuple[CommutantWitness, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gens = tuple(_read_only(np.array(x, dtype=np.complex128)) for x in self.generators)
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "generators", gens)
        witnesses = tuple(witnesses_at_level(self, n) for n in range(1, self.depth + 1))
        object.__setattr__(self, "witnesses", witnesses)

    @property
    def depth(self) -> int:
        return len(self.blocks)


def _read_only(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


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
    also adds each such submatrix, in j order, to zeros.  The sum over j is
    ``np.add.accumulate``, which adds in that order; it starts from the
    first submatrix instead of zeros, which can differ only in an all -0.0
    sum, and adding it onto the zeros of the output turns that into +0.0.
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
        out[square] += np.add.accumulate(x[square])[-1] / k
    return out


def _screened_max_commutator(left: List[np.ndarray], right: List[np.ndarray]) -> float:
    """Max operator norm of [u, v] over the two unit families.

    Exact: ``screened_max_norm`` bounds every commutator by the fourth root
    of ||(C^*C)^2||_F, and measures operator norms only while a bound exceeds
    the running maximum.  On commuting families, whose commutators vanish
    exactly, no operator norm is evaluated.
    """
    if not left or not right:
        return 0.0
    lstack, rstack = np.stack(left), np.stack(right)

    def commutators(_: np.ndarray, ri: np.ndarray) -> np.ndarray:
        u, v = lstack[ri // len(right)], rstack[ri % len(right)]
        return u @ v - v @ u

    # one row, so each pair's norm may rule out every other pair
    return float(screened_max_norm(1, len(left) * len(right), lstack.shape[1], commutators)[0])


def _max_cross_commutator(left: MatrixUnitSystem, right: MatrixUnitSystem) -> float:
    """Max operator norm of [u, v] over the units of two exact systems.

    Both products of two partial permutations are partial permutations, so
    [u, v] vanishes exactly when the composed column maps u[v] and v[u]
    agree.  Each unit of an exact system is a product of its block's
    generating units, e_ij = e_i1 e_1j exactly, so when those commute across
    the two systems every pair does, and the maximum is exactly 0 with no
    other map compared.  Otherwise only the units of pairs whose maps
    disagree go to the dense ``_screened_max_commutator``, which gives every
    pair the bits the full grid would; the others contribute exactly 0.
    """
    lmaps, rmaps = left.column_maps(), right.column_maps()
    if not _clashes(lmaps[_generating_units(left)], rmaps[_generating_units(right)]).any():
        return 0.0
    clash = _clashes(lmaps, rmaps)
    li, ri = np.flatnonzero(clash.any(axis=1)), np.flatnonzero(clash.any(axis=0))
    lkeys, rkeys = left.keys(), right.keys()
    return _screened_max_commutator(
        [left.unit(*lkeys[n]) for n in li], [right.unit(*rkeys[n]) for n in ri]
    )


def _clashes(lmaps: np.ndarray, rmaps: np.ndarray) -> np.ndarray:
    """Whether u[v] and v[u] disagree, for each column map u of ``lmaps`` (rows)
    and v of ``rmaps`` (columns)."""
    return np.stack([np.any(u[rmaps] != rmaps[:, u], axis=1) for u in lmaps])


def _generating_units(system: MatrixUnitSystem) -> np.ndarray:
    """Positions in ``keys()`` order of each block's units e_1j and e_j1."""
    out, offset = [], 0
    for k in system.shape:
        out += [offset + j for j in range(k)] + [offset + i * k for i in range(1, k)]
        offset += k * k
    return np.array(out)


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


def _leading_factor_generators(spec: TowerSpec, factor_dims, factor_blocks) -> List[np.ndarray]:
    """Seeded Hermitian contractions on the first tensor factor.

    Each generator is drawn, projected onto the commutant of block 1 on its
    own factor (``factor_blocks[0]``) and normed at d_1 x d_1, and then
    embedded once as kron(x_1, I).  The part of each generator that fails
    to commute with block 1 is scaled to spend only DISTANCE_MARGIN of the
    2^-1 budget; deeper levels commute exactly because the support stays on
    factor 1.
    """
    seeds = np.random.SeedSequence(spec.generator_seed).spawn(spec.num_generators)
    gens = []
    d1 = factor_dims[0]
    for seq in seeds:
        rng = np.random.default_rng(seq)
        w = _draw_hermitian(rng, d1)
        w = w / max(op_norm(w), 1e-300) + 0.3 * np.eye(d1)
        core = commutant_projection(w, factor_blocks[0])
        dev = w - core
        dev_norm = op_norm(dev)
        x = core
        if dev_norm > 1e-12:
            x = core + (DISTANCE_MARGIN * 0.5) * dev / dev_norm
        nrm = op_norm(x)
        if nrm > 1.0:
            x = x / nrm
        gens.append(_embed_factor(hermitian_part(x), factor_dims, 0))
    return gens


def _uhf_generators(spec: TowerSpec, factor_dims, factor_blocks) -> List[np.ndarray]:
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


# Each generator recipe by the name a spec gives it.
RECIPES = {"leading-factor": _leading_factor_generators, "uhf": _uhf_generators}


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
            need = required_subrank(shapes, level, level)
            if subrank(shape) < need:
                raise StrictModeViolation(
                    f"level {level} subrank {subrank(shape)} below strict bound {need}"
                )
    # each level's block on its own factor, then amplified to the ambient space
    factor_blocks = [canonical_units(shape) for shape in shapes]
    blocks = []
    for pos, block in enumerate(factor_blocks):
        before, after = math.prod(factor_dims[:pos]), math.prod(factor_dims[pos + 1 :])
        blocks.append(amplify(block, before, after))
    return TowerModel(
        spec=spec,
        ambient_dim=ambient,
        blocks=blocks,
        generators=RECIPES[spec.generator_recipe](spec, factor_dims, factor_blocks),
        factor_dims=factor_dims,
    )


def witnesses_at_level(model: TowerModel, level: int) -> CommutantWitness:
    """The level's witnesses: y_j = herm(E(x_j)), E the block's commutant
    projection, for the first min(level, generators) generators, each
    read-only, and ||x_j - y_j||.  A model computes its own once when it is
    made (``TowerModel.witnesses``); everything else reads those.

    At level 1, a generator that is bit for bit kron(x_1, I) of its
    factor-1 part x_1, as the leading-factor recipe makes them, gets its
    witness on factor 1: y_1 = herm(E_1(x_1)), E_1 the projection of
    ``canonical_units`` of block 1's shape, y = kron(y_1, I) and the
    distance ||x_1 - y_1||, which equal the dense ones in exact arithmetic.
    Any other generator, and every deeper level, is projected and normed
    at the ambient dimension.
    """
    block = model.blocks[level - 1]
    active = min(level, len(model.generators))
    approx = []
    dists = []
    for x in model.generators[:active]:
        x1 = _leading_part(x, model.factor_dims) if level == 1 else None
        if x1 is None:
            y = hermitian_part(commutant_projection(x, block))
            dists.append(op_norm(x - y))
        else:
            y1 = hermitian_part(commutant_projection(x1, canonical_units(block.shape)))
            y = _embed_factor(y1, model.factor_dims, 0)
            dists.append(op_norm(x1 - y1))
        approx.append(_read_only(y))
    return CommutantWitness(level=level, approximants=tuple(approx), distances=tuple(dists))


def _leading_part(x: np.ndarray, factor_dims: Sequence[int]) -> np.ndarray | None:
    """x_1 when x is bit for bit ``_embed_factor(x_1, factor_dims, 0)`` of a
    smaller factor, else None: on a one-level tower factor 1 is the whole
    space, and the dense witness is the factor-1 one."""
    after = x.shape[0] // factor_dims[0]
    if after == 1:
        return None
    x1 = x[::after, ::after]
    embedded = _embed_factor(x1, factor_dims, 0)
    return x1 if np.array_equal(embedded.view(np.int64), x.view(np.int64)) else None


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
        active = level if spec.mode == "strict" else min(level, spec.num_generators)
        need = required_subrank(shapes, level, active)
        have = subrank(shapes[level - 1])
        rows += [
            ReportRow.check(f"level{level}.unitality", float(unitality), ROUNDING_TOL),
            ReportRow.check(f"level{level}.cross_commutator", float(cross), ROUNDING_TOL),
            ReportRow(f"level{level}.subrank_growth", have, need, have >= need),
        ]
        bound = 2.0 ** (-level)
        rows += [
            ReportRow(f"level{level}.distance_g{j}", dist, bound, dist < bound)
            for j, dist in enumerate(model.witnesses[level - 1].distances, start=1)
        ]
    return ConditionReport(rows, "interleaving indices satisfied by tensor construction")
