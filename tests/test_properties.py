"""Round-trip residuals and stabilizer distances on presets and on random small towers.

The stabilizer distance is a screened maximum (``linalg.max_distance``) and
must equal the per-unit operator-norm loop bit for bit.  The round-trip
unit residual is computed from small QR factors (``units.factored_distance``)
through an exact identity, so it agrees with the per-unit loop on the
factored system's dense view to rounding, not bit for bit.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import towergen.recovery as recovery
import towergen.units as units_module
from towergen.cli import resolve_tower_spec
from towergen.linalg import op_norm
from towergen.recovery import round_trip
from towergen.stabilize import perturb_units, stabilize_units
from towergen.tower import TowerSpec, build_tower, check_conditions
from towergen.twogen import build_plan, verify_facts
from towergen.units import (
    MatrixUnitSystem,
    UnitalEmbedding,
    canonical_units,
    factored_distance,
    unit_defects,
)

EPS = np.finfo(float).eps


def per_unit_distance(xs, ys) -> float:
    """max over the units of ||xs[key] - ys[key]||, one ``op_norm`` per unit."""
    worst = 0.0
    for key, mat in ys.iter_units():
        worst = max(worst, op_norm(xs.units[key] - mat))
    return worst


def checked_round_trip(spec: TowerSpec):
    """``round_trip`` of the spec's plan, checking the stabilizer distance and the
    unit residuals against per-unit loops on the way."""
    plan = build_plan(build_tower(spec))
    stabilized = []

    def recording(candidate):
        out = stabilize_units(candidate)
        stabilized.append((candidate, *out))
        return out

    with mock.patch.object(recovery, "stabilize_units", recording):
        result, report = round_trip(plan)
    assert len(stabilized) == len(result.levels)
    for (candidate, out, dist, _), lv in zip(stabilized, result.levels):
        assert dist == per_unit_distance(candidate, out)
        assert lv.trace.steps[-1].residual == dist  # the stabilize_l{n} step
    tol = 8 * plan.model.ambient_dim * EPS
    for lv, res in zip(result.levels, report.unit_residuals):
        assert abs(res - per_unit_distance(lv.units, plan.model.blocks[lv.level - 1])) <= tol
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


@pytest.mark.parametrize("delta", [1e-8, 1e-3])
def test_planted_factor_defect_is_scored(t1_plan, delta):
    result, report = round_trip(t1_plan)
    top = result.levels[-1].units
    factors = [f.copy() for f in top.factors]
    factors[0][1, 0, 0] += delta  # one entry of one column of F_2
    planted = MatrixUnitSystem(top.shape, top.ambient_dim, factors=factors)
    exact = t1_plan.model.blocks[-1]
    residual = factored_distance(planted, exact)
    assert delta / 2 <= residual <= 3 * delta
    assert abs(residual - per_unit_distance(planted, exact)) <= 8 * top.ambient_dim * EPS
    scored = replace(report, unit_residuals=[*report.unit_residuals[:-1], residual])
    assert scored.passed() == (delta < recovery.UNIT_TOL)


def test_t1_round_trip_builds_no_dense_view():
    """The whole pipeline reads single units, never a system's dense view."""
    model = build_tower(resolve_tower_spec({"preset": "T1"}))
    no_view = mock.Mock(side_effect=AssertionError("dense view built"))
    with mock.patch.object(units_module, "_dense_view", no_view), \
            mock.patch.object(units_module, "_factor_view", no_view):
        assert check_conditions(model).passed
        plan = build_plan(model)
        assert verify_facts(plan).passed
        result, report = round_trip(plan)
    assert report.passed()
    assert all(block._units is None for block in model.blocks)
    assert all(lv.units._units is None for lv in result.levels)


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
