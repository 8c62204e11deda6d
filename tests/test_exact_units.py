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
from towergen.linalg import identity, op_norm
from towergen.tower import (
    _embed_factor,
    _max_cross_commutator,
    _screened_max_commutator,
    build_tower,
    commutant_projection,
)
from towergen.units import (
    MatrixUnitSystem,
    amplify,
    canonical_units,
    factored_distance,
)

from conftest import dense_units, diagonal_sum, same_bits, small_towers

PRESETS = [
    {"preset": "T0"}, {"preset": "T1b"}, {"preset": "T1"},
    {"preset": "T1", "recipe": "uhf"}, {"preset": "U2"},
]
PRESET_IDS = ["T0", "T1b", "T1", "T1-uhf", "U2"]


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
    """The generators, a random matrix with signed zeros on a third of its
    entries, and a matrix of -0.0 entries only, whose every sum is -0.0."""
    d = model.ambient_dim
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    zeros = rng.random((d, d, 2)) < 1 / 3
    signs = rng.random(zeros.sum()) < 0.5
    x.view(np.float64).reshape(d, d, 2)[zeros] = np.where(signs, 0.0, -0.0)
    return [*model.generators, x, np.full((d, d), complex(-0.0, -0.0))]


def check_tower(model, seed: int):
    rng = np.random.default_rng(seed)
    xs = operands(model, rng)
    for pos, block in enumerate(model.blocks):
        eye = identity(model.ambient_dim)
        assert block.unitality_defect() == op_norm(diagonal_sum(block) - eye) == 0.0
        for x in xs:
            assert same_bits(commutant_projection(x, block), dense_projection(x, block))
        for other in model.blocks[pos + 1:]:
            dense = _screened_max_commutator(
                list(dense_units(block)), list(dense_units(other))
            )
            assert _max_cross_commutator(block, other) == dense == 0.0


def kron_blocks(model):
    """Today's per-unit embedding: np.kron of each canonical unit with identities."""
    systems = [canonical_units(shape) for shape in model.spec.block_shapes]
    return [
        {key: _embed_factor(units.unit(*key), model.factor_dims, pos) for key in units.keys()}
        for pos, units in enumerate(systems)
    ]


@pytest.mark.parametrize("config", PRESETS, ids=PRESET_IDS)
def test_presets_match_dense_oracles(config):
    model = build_tower(resolve_tower_spec(config))
    check_tower(model, seed=len(model.generators) + model.ambient_dim)
    for block, reference in zip(model.blocks, kron_blocks(model)):
        assert block.keys() == list(reference)
        for key, mat in reference.items():
            assert same_bits(block.unit(*key), mat)


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
    left = canonical_units([2], (2,))  # rows [[0, 1], [2, 3]]
    right = MatrixUnitSystem((2, 1), 4, rows=[np.array([[0], [1]]), np.array([[3]])])
    dense = _screened_max_commutator(
        list(dense_units(left)), list(dense_units(right))
    )
    assert dense > 0.0
    assert _max_cross_commutator(left, right) == dense
    assert _max_cross_commutator(right, left) == _screened_max_commutator(
        list(dense_units(right)), list(dense_units(left))
    )


@st.composite
def exact_pairs(draw):
    """Two exact systems on one ambient space of dimension at most 16: either
    units of two tensor factors, which commute, under one coordinate
    permutation, or two systems with tables drawn independently, which
    mostly clash, sometimes in a few units only."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        first, second = (
            canonical_units(draw(st.lists(st.integers(1, 2), min_size=1, max_size=2)))
            for _ in range(2)
        )
        d1, d2 = first.ambient_dim, second.ambient_dim
        perm = rng.permutation(d1 * d2)
        return [
            MatrixUnitSystem(s.shape, d1 * d2, rows=[perm[t] for t in s.rows])
            for s in (amplify(first, 1, d2), amplify(second, d1, 1))
        ]
    dim = draw(st.integers(2, 16))
    systems = []
    for _ in range(2):
        shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        mult = draw(st.lists(st.integers(1, 2), min_size=len(shape), max_size=len(shape)))
        while sum(k * c for k, c in zip(shape, mult)) > dim:
            shape.pop(), mult.pop()
        if not shape:
            shape, mult = [1], [1]
        coords = iter(rng.permutation(dim))
        rows = [
            np.array([[next(coords) for _ in range(c)] for _ in range(k)])
            for k, c in zip(shape, mult)
        ]
        systems.append(MatrixUnitSystem(shape, dim, rows=rows))
    return systems


@settings(max_examples=80, deadline=None, derandomize=True)
@given(pair=exact_pairs())
def test_cross_commutator_equals_the_dense_all_pairs_maximum(pair):
    """Whether the generating units commute decides only whether the full clash
    table is needed: the result is the dense maximum over every pair of units,
    bit for bit, commuting or not."""
    left, right = pair
    for a, b in ((left, right), (right, left)):
        dense = max(op_norm(u @ v - v @ u) for u in dense_units(a) for v in dense_units(b))
        assert same_bits(np.float64(_max_cross_commutator(a, b)), np.float64(dense))


def test_amplify_matches_kron():
    small = canonical_units((2, 1), (1, 2))
    big = amplify(small, 3, 2)
    assert big.ambient_dim == 24
    for key in small.keys():
        expected = np.kron(np.kron(np.eye(3), small.unit(*key)), np.eye(2)).astype(np.complex128)
        assert same_bits(big.unit(*key), expected)


def test_exact_units_are_read_only_and_keys_are_checked():
    system = canonical_units([2, 3], (2, 1))
    assert system.units is None  # unit() reads the tables; no dense copy is kept
    for key in system.keys():
        with pytest.raises(ValueError):
            system.unit(*key)[0, 0] = 2.0
    with pytest.raises(KeyError):
        canonical_units([3]).unit(1, 0, 1)


def test_factored_system_view_and_distance():
    exact = canonical_units([2, 3], (2, 1))
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
    partial = MatrixUnitSystem((2,), 3, rows=[np.array([[2], [0]])])
    assert partial.unitality_defect() == 1.0
    assert canonical_units([2, 3]).unitality_defect() == 0.0
    maps = partial.column_maps()
    assert maps.tolist() == [[-1, -1, 2, -1], [2, -1, -1, -1], [-1, -1, 0, -1], [0, -1, -1, -1]]
    assert maps.tolist() == [partial.column_map(*key).tolist() for key in partial.keys()]


def test_column_map_reads_one_unit():
    """Column c of e_ij is the basis vector at map[c], or zero where map[c] is -1."""
    system = amplify(canonical_units([2, 3]), 2, 3)
    padded = np.vstack([identity(system.ambient_dim), np.zeros((1, system.ambient_dim))])
    for key in system.keys():
        assert same_bits(padded[system.column_map(*key)[:-1]].T, system.unit(*key))
    with pytest.raises(DimensionMismatch):
        MatrixUnitSystem((1,), 2, np.eye(2)[None]).column_map(1, 1, 1)


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
    dense = MatrixUnitSystem((1,), 2, np.eye(2)[None])
    with pytest.raises(DimensionMismatch):
        commutant_projection(np.eye(2, dtype=complex), dense)
