import numpy as np
import pytest
from hypothesis import strategies as st

from towergen.presets import preset_spec
from towergen.tower import RECIPES, TowerSpec, build_tower
from towergen.twogen import build_plan
from towergen.units import MatrixUnitSystem


def dense_units(system):
    """A fresh writable (n, d, d) stack of every unit of a system in ``keys()`` order,
    each read through ``unit``."""
    return np.stack([system.unit(*key) for key in system.keys()])


def densified(system):
    """The same units as a dense system, which ``unit_defects`` scores on its stack."""
    return MatrixUnitSystem(system.shape, system.ambient_dim, units=dense_units(system))


def diagonal_sum(system):
    """The diagonal units added to a zero matrix one at a time, in key order."""
    out = np.zeros((system.ambient_dim, system.ambient_dim), dtype=np.complex128)
    for s, i, j in system.keys():
        if i == j:
            out = out + system.unit(s, i, i)
    return out


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


@st.composite
def relaxed_towers(draw):
    """2-3 relaxed levels of 1-2 blocks of size 2-4, ambient dimension at most 64.

    A block of size 1 would put a level's first-column projection on its
    own corner, which the next level's terms share."""
    shapes, dim = [], 1
    for _ in range(draw(st.integers(min_value=2, max_value=3))):
        budget = 64 // dim
        if budget < 2:
            break
        blocks = draw(st.lists(st.integers(2, min(4, budget)), min_size=1, max_size=2))
        while sum(blocks) > budget:
            blocks.pop()
        shapes.append(tuple(blocks))
        dim *= sum(blocks)
    return TowerSpec(
        block_shapes=tuple(shapes), mode="relaxed",
        generator_seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        generator_recipe=draw(st.sampled_from(sorted(RECIPES))),
    )


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
        generator_recipe=draw(st.sampled_from(sorted(RECIPES))),
    )


@pytest.fixture(scope="session")
def t0_model():
    return build_tower(preset_spec("T0"))


@pytest.fixture(scope="session")
def t0_plan(t0_model):
    return build_plan(t0_model)


@pytest.fixture(scope="session")
def t1_model():
    return build_tower(preset_spec("T1"))


@pytest.fixture(scope="session")
def t1_plan(t1_model):
    return build_plan(t1_model)
