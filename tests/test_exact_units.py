"""Row-table paths of exact unit systems against their dense oracles.

An exact system is stored as row tables; ``commutant_projection``, the
cross-level commutators of ``check_conditions`` and the tower's dense
units are derived from them.  Each must equal the dense computation it
replaced bit for bit, signed zeros included.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towergen.cli import resolve_tower_spec
from towergen.errors import DimensionMismatch
from towergen.linalg import op_norm
from towergen.tower import (
    TowerSpec,
    _embed_factor,
    _max_cross_commutator,
    _screened_max_commutator,
    build_tower,
    commutant_projection,
)
from towergen.units import (
    MatrixUnitSystem,
    UnitalEmbedding,
    amplify,
    canonical_units,
    factored_distance,
)

PRESETS = [
    {"preset": "T0"}, {"preset": "T1b"}, {"preset": "T1"},
    {"preset": "T1", "recipe": "uhf"}, {"preset": "U2"},
]
PRESET_IDS = ["T0", "T1b", "T1", "T1-uhf", "U2"]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


def dense_projection(x: np.ndarray, block: MatrixUnitSystem) -> np.ndarray:
    """sum_s (1/k_s) sum_ij e_ij x e_ji over the dense units."""
    out = np.zeros_like(x, dtype=np.complex128)
    for s, k in enumerate(block.shape, start=1):
        acc = np.zeros_like(out)
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                acc += block.unit(s, i, j) @ x @ block.unit(s, j, i)
        out += acc / k
    return out


def operands(model, rng: np.random.Generator):
    """The generators plus a random matrix with signed zeros on a third of its entries."""
    d = model.ambient_dim
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    zeros = rng.random((d, d, 2)) < 1 / 3
    signs = rng.random(zeros.sum()) < 0.5
    x.view(np.float64).reshape(d, d, 2)[zeros] = np.where(signs, 0.0, -0.0)
    return [*model.generators, x]


def check_tower(model, seed: int):
    rng = np.random.default_rng(seed)
    xs = operands(model, rng)
    for pos, block in enumerate(model.blocks):
        assert block.unitality_defect() == op_norm(block.diagonal_sum() - model.identity) == 0.0
        for x in xs:
            assert same_bits(commutant_projection(x, block), dense_projection(x, block))
        for other in model.blocks[pos + 1:]:
            dense = _screened_max_commutator(
                [m for _, m in block.iter_units()], [m for _, m in other.iter_units()]
            )
            assert _max_cross_commutator(block, other) == dense == 0.0


def kron_blocks(model):
    """Today's per-unit embedding: np.kron of each canonical unit with identities."""
    return [
        {
            key: _embed_factor(mat, model.factor_dims, pos)
            for key, mat in canonical_units(shape).iter_units()
        }
        for pos, shape in enumerate(model.spec.block_shapes)
    ]


@pytest.mark.parametrize("config", PRESETS, ids=PRESET_IDS)
def test_presets_match_dense_oracles(config):
    model = build_tower(resolve_tower_spec(config))
    check_tower(model, seed=len(model.generators) + model.ambient_dim)
    for block, reference in zip(model.blocks, kron_blocks(model)):
        assert block.keys() == list(reference)
        for key, mat in reference.items():
            assert same_bits(block.unit(*key), mat)


@st.composite
def small_towers(draw):
    """1-3 levels of 1-3 blocks of size 1-5, ambient dimension at most 64."""
    shapes, dim = [], 1
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        budget = 64 // dim
        blocks = draw(st.lists(st.integers(1, min(5, budget)), min_size=1, max_size=3))
        while sum(blocks) > budget:
            blocks.pop()
        shapes.append(tuple(blocks))
        dim *= sum(blocks)
    return TowerSpec(
        block_shapes=tuple(shapes), mode="relaxed",
        num_generators=draw(st.integers(min_value=1, max_value=2)),
        generator_seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        generator_recipe=draw(st.sampled_from(["leading-factor", "uhf"])),
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spec=small_towers())
def test_random_towers_match_dense_oracles(spec):
    model = build_tower(spec)
    assert model.ambient_dim == math.prod(sum(s) for s in spec.block_shapes)
    check_tower(model, seed=spec.generator_seed)
    for block, reference in zip(model.blocks, kron_blocks(model)):
        for key, mat in reference.items():
            assert same_bits(block.unit(*key), mat)


def test_cross_commutator_of_one_factor_is_measured():
    """Two exact systems on the same factor do not commute; only clashing pairs are formed."""
    left = canonical_units([2], UnitalEmbedding((2,), (2,), 4))  # rows [[0, 1], [2, 3]]
    right = MatrixUnitSystem((2, 1), 4, unital=False, rows=[np.array([[0], [1]]), np.array([[3]])])
    dense = _screened_max_commutator(
        [m for _, m in left.iter_units()], [m for _, m in right.iter_units()]
    )
    assert dense > 0.0
    assert _max_cross_commutator(left, right) == dense
    assert _max_cross_commutator(right, left) == _screened_max_commutator(
        [m for _, m in right.iter_units()], [m for _, m in left.iter_units()]
    )


def test_amplify_matches_kron():
    small = canonical_units((2, 1), UnitalEmbedding((2, 1), (1, 2), 4))
    big = amplify(small, 3, 2)
    assert big.ambient_dim == 24
    for key, mat in small.iter_units():
        expected = np.kron(np.kron(np.eye(3), mat), np.eye(2)).astype(np.complex128)
        assert same_bits(big.unit(*key), expected)


def test_exact_units_are_read_only_and_keys_are_checked():
    system = canonical_units([2, 3], UnitalEmbedding((2, 3), (2, 1), 7))
    assert system.units is None  # unit() reads the tables; no dense copy is kept
    for key in system.keys():
        with pytest.raises(ValueError):
            system.unit(*key)[0, 0] = 2.0
    with pytest.raises(KeyError):
        canonical_units([3]).unit(1, 0, 1)


def test_factored_system_view_and_distance():
    exact = canonical_units([2, 3], UnitalEmbedding((2, 3), (2, 1), 7))
    eye = np.eye(7, dtype=np.complex128)
    # the indicator columns of each table row factor the exact system itself
    factored = MatrixUnitSystem(
        exact.shape, 7, factors=[np.stack([eye[:, row] for row in table]) for table in exact.rows]
    )
    assert factored_distance(factored, exact) == 0.0
    assert factored.units is None
    for key in factored.keys():
        assert same_bits(factored.unit(*key), exact.unit(*key))
    with pytest.raises(DimensionMismatch):
        factored_distance(exact, exact)
    with pytest.raises(DimensionMismatch):
        MatrixUnitSystem((2,), 3, factors=[np.zeros((2, 4, 1))])
    with pytest.raises(DimensionMismatch):
        MatrixUnitSystem((2,), 3, factors=[np.zeros((2, 3, 1))], rows=[np.array([[0], [1]])])


def test_exact_system_unitality_and_column_maps():
    partial = MatrixUnitSystem((2,), 3, unital=False, rows=[np.array([[2], [0]])])
    assert partial.unitality_defect() == 1.0
    assert canonical_units([2, 3]).unitality_defect() == 0.0
    maps = partial.column_maps()
    assert maps.tolist() == [[-1, -1, 2, -1], [2, -1, -1, -1], [-1, -1, 0, -1], [0, -1, -1, -1]]


@pytest.mark.parametrize(
    "rows",
    [
        [np.array([[0], [0]])],  # a coordinate twice
        [np.array([[0], [3]])],  # outside the ambient dimension
        [np.array([[0, 1]])],  # one row for a 2 x 2 block
        [np.array([[0], [1]]), np.array([[2]])],  # a table more than blocks
    ],
)
def test_invalid_row_tables_are_rejected(rows):
    with pytest.raises(DimensionMismatch):
        MatrixUnitSystem((2,), 3, rows=rows)


def test_projection_needs_an_exact_system():
    dense = MatrixUnitSystem((1,), 2, {(1, 1, 1): np.eye(2)})
    with pytest.raises(DimensionMismatch):
        commutant_projection(np.eye(2, dtype=complex), dense)
