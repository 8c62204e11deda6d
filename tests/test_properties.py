"""Round-trip residuals and stabilizer distances on presets and on random small
towers, recovery under generator noise, and the construction facts on random
towers.

The stabilizer distance of a dense input is a screened maximum
(``linalg.max_distance``) and must equal the per-unit operator-norm loop bit
for bit.  The distance of a factored input, which is what recovery passes,
and the round-trip unit residual are computed from small QR factors
(``units.factored_distance``) through an exact identity, so they agree with
the per-unit loop on dense unit reads to rounding (8 d eps), not bit for bit.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import towergen.recovery as recovery
from towergen.cli import resolve_tower_spec
from towergen.errors import TowergenError
from towergen.linalg import hermitian_part, op_norm
from towergen.recovery import round_trip
from towergen.stabilize import perturb_units, stabilize_units
from towergen.tower import TowerSpec, build_tower, check_conditions
from towergen.twogen import build_plan, verify_facts
from towergen.units import (
    MatrixUnitSystem,
    UnitalEmbedding,
    canonical_units,
    factored_distance,
)

EPS = np.finfo(float).eps


def per_unit_distance(xs, ys) -> float:
    """max over the units of ||xs[key] - ys[key]||, one ``op_norm`` per unit."""
    worst = 0.0
    for key, mat in ys.iter_units():
        worst = max(worst, op_norm(xs.unit(*key) - mat))
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
    for (candidate, out, dist), lv in zip(stabilized, result.levels):
        assert abs(dist - per_unit_distance(candidate, out)) <= 8 * candidate.ambient_dim * EPS
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
        fixed, dist = stabilize_units(noisy)
        assert dist == per_unit_distance(noisy, fixed)


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


def test_t1_round_trip_reads_no_factored_unit():
    """Recovery reads its levels as column factors, never one dense unit at a time."""
    model = build_tower(resolve_tower_spec({"preset": "T1"}))
    read = MatrixUnitSystem.unit

    def guarded(system, s, i, j):
        assert system.factors is None, f"unit {(s, i, j)} formed from column factors"
        return read(system, s, i, j)

    with mock.patch.object(MatrixUnitSystem, "unit", guarded):
        assert check_conditions(model).passed
        plan = build_plan(model)
        assert verify_facts(plan).passed
        result, report = round_trip(plan)
    assert report.passed()
    assert all(lv.units.factors is not None for lv in result.levels)


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


# C per preset: every round-trip residual stays below C eps under noise of norm eps
NOISE_CONSTANTS = {"T0": 10.0, "T1b": 100.0, "T1": 200.0}


def with_noise(plan, eps: float, seed: int):
    """The plan with seeded Hermitian noise of operator norm eps added to a and to b."""
    rng = np.random.default_rng(seed)
    dim = plan.model.ambient_dim
    noisy = []
    for gen in (plan.gen_a, plan.gen_b):
        e = hermitian_part(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        noisy.append(gen + eps * (e / op_norm(e)))
    return replace(plan, gen_a=noisy[0], gen_b=noisy[1])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("preset", list(NOISE_CONSTANTS))
def test_noisy_round_trip_is_linear_in_eps_until_it_fails_closed(preset, seed):
    """Noise E of norm eps moves an extracted corner by at most ||E|| / (c_s gap)
    (Davis and Kahan, SIAM J. Numer. Anal. 7, 1970), where the gap is at least
    1 - COMPLEMENT_BOUND - CLUSTER_HALFWIDTH on the scale that puts the cluster
    at 1, and each rung rescales b by 4^level; so every residual is at most
    C eps for a constant C per tower.  The stated C is over twice the worst
    measured, 4, 44 and 83 eps on T0, T1b and T1.  Every eps <= 1e-4 must
    recover.  Past that, a result must still be within C eps, or recovery
    raises a named TowergenError (NoSpectralGap at 1e-3 or 1e-2 on these
    towers): never a wrong answer."""
    plan = build_plan(build_tower(resolve_tower_spec({"preset": preset})))
    bound = NOISE_CONSTANTS[preset]
    for eps in (1e-12, 1e-10, 1e-8, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
        try:
            _, report = round_trip(with_noise(plan, eps, seed))
        except TowergenError:
            assert eps > 1e-4
            break
        residuals = report.unit_residuals + report.coupling_residuals + report.witness_residuals
        assert all(r <= bound * eps for r in residuals), (eps, residuals)


@st.composite
def plannable_towers(draw):
    """Relaxed towers the construction can pack: one level of 1-3 blocks of
    size 3-7, or a level-1 block of size k under a level-2 block of 3-5 rows
    beyond the g k^2 its g generators encode (at most 84 dimensions)."""
    generators = draw(st.integers(min_value=1, max_value=2))
    if draw(st.booleans()):
        shapes = (tuple(draw(st.lists(st.integers(3, 7), min_size=1, max_size=3))),)
    else:
        k = draw(st.sampled_from([3, 4] if generators == 1 else [3]))
        shapes = ((k,), (generators * k * k + draw(st.integers(3, 5)),))
    return TowerSpec(
        block_shapes=shapes, num_generators=generators, mode="relaxed",
        generator_seed=draw(SEEDS), generator_recipe=draw(RECIPES),
    )


@settings(max_examples=25, deadline=None, derandomize=True)
@given(spec=plannable_towers())
def test_construction_facts_hold_on_random_towers(spec):
    assert verify_facts(build_plan(build_tower(spec))).passed
