"""Exact per-unit maxima and round trips on presets and on random small towers.

The stabilizer distance and the round-trip unit residuals are screened
maxima (``linalg.max_distance``); each must equal the per-unit operator-norm
loop bit for bit.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import towergen.recovery as recovery
from towergen.cli import resolve_tower_spec
from towergen.linalg import op_norm
from towergen.recovery import round_trip
from towergen.stabilize import perturb_units, stabilize_units
from towergen.tower import TowerSpec, build_tower
from towergen.twogen import build_plan
from towergen.units import UnitalEmbedding, canonical_units, unit_defects


def per_unit_distance(xs, ys) -> float:
    """max over the units of ||xs[key] - ys[key]||, one ``op_norm`` per unit."""
    worst = 0.0
    for key, mat in ys.iter_units():
        worst = max(worst, op_norm(xs.units[key] - mat))
    return worst


def checked_round_trip(spec: TowerSpec):
    """``round_trip`` of the spec's plan, checking both screened maxima on the way."""
    plan = build_plan(build_tower(spec))
    stabilized = []

    def recording(candidate, params):
        out = stabilize_units(candidate, params)
        stabilized.append((candidate, *out))
        return out

    with mock.patch.object(recovery, "stabilize_units", recording):
        result, report = round_trip(plan)
    assert len(stabilized) == len(result.levels)
    for (candidate, out, dist, _), lv in zip(stabilized, result.levels):
        assert dist == per_unit_distance(candidate, out)
        assert lv.trace.steps[-1].residual == dist  # the stabilize_l{n} step
    assert report.unit_residuals == [
        per_unit_distance(lv.units, plan.model.blocks[lv.level - 1]) for lv in result.levels
    ]
    return report


@pytest.mark.parametrize("mult", [(1, 1), (2, 3)])
@pytest.mark.parametrize("delta", [0.0, 1e-6, 1e-3])
def test_stabilize_distance_equals_per_unit_loop(mult, delta):
    shape = (5, 5)
    units = canonical_units(shape, UnitalEmbedding(shape, mult, sum(c * k for c, k in zip(mult, shape))))
    for seed in range(3):
        noisy = perturb_units(units, delta, seed)
        fixed, dist, defects = stabilize_units(noisy)
        assert dist == per_unit_distance(noisy, fixed)
        assert defects == unit_defects(noisy)


def test_stabilize_skips_scoring_large_systems():
    _, dist, defects = stabilize_units(canonical_units([12]))  # 144 units
    assert dist == 0.0
    assert defects is None


@pytest.mark.parametrize(
    "config",
    [{"preset": "T0"}, {"preset": "T1b"}, {"preset": "T1"},
     {"shapes": [[16]]}, {"shapes": [[20]]}, {"shapes": [[24]]}],
    ids=["T0", "T1b", "T1", "d16", "d20", "d24"],
)
def test_round_trip_residuals_equal_per_unit_loop(config):
    assert checked_round_trip(resolve_tower_spec(config)).passed()


RECIPES = st.sampled_from(["leading-factor", "uhf"])
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    shape=st.lists(st.integers(min_value=3, max_value=7), min_size=1, max_size=3),
    generators=st.integers(min_value=1, max_value=2),
    recipe=RECIPES,
    seed=SEEDS,
)
def test_single_level_towers_round_trip(shape, generators, recipe, seed):
    spec = TowerSpec(
        block_shapes=(tuple(shape),), num_generators=generators,
        generator_seed=seed, generator_recipe=recipe,
    )
    assert checked_round_trip(spec).passed()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(top=st.integers(min_value=12, max_value=14), recipe=RECIPES, seed=SEEDS)
def test_relaxed_two_level_towers_round_trip(top, recipe, seed):
    spec = TowerSpec(
        block_shapes=((3,), (top,)), mode="relaxed", generator_seed=seed, generator_recipe=recipe,
    )
    assert checked_round_trip(spec).passed()
