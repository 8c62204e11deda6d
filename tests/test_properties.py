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
import towergen.tower as tower
import towergen.units as units
from towergen.cli import resolve_tower_spec
from towergen.errors import NonFiniteValue, TowergenError
from towergen.linalg import hermitian_part, op_norm, op_norms
from towergen.recovery import round_trip
from towergen.stabilize import perturb_units, stabilize_units
from towergen.tower import TowerSpec, build_tower, check_conditions
from towergen.twogen import build_plan, verify_facts
from towergen.units import (
    MatrixUnitSystem,
    canonical_units,
    factored_distance,
)

from conftest import same_bits, small_towers

EPS = np.finfo(float).eps


def per_unit_distance(xs, ys) -> float:
    """max over the units of ||xs[key] - ys[key]||, one ``op_norm`` per unit."""
    worst = 0.0
    for key in ys.keys():
        worst = max(worst, op_norm(xs.unit(*key) - ys.unit(*key)))
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
    units = canonical_units(shape, mult)
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


def qr_block_distance(f: np.ndarray, p: np.ndarray) -> float:
    """max ||F_i F_j^* - P_i P_j^*|| of one block by the QR formula that
    ``factored_distance`` applies to every block whose factors differ."""
    r = np.linalg.qr(np.concatenate([f, p], axis=2), mode="r")
    signed = r * np.concatenate([np.ones(f.shape[2]), -np.ones(p.shape[2])])
    grid = signed[:, None] @ r.conj().transpose(0, 2, 1)[None, :]
    return float(op_norms(grid.reshape(-1, *grid.shape[2:])).max())


def qr_distance(approx: MatrixUnitSystem, other: MatrixUnitSystem) -> float:
    return max(qr_block_distance(f, p) for f, p in zip(approx.factors, other.column_factors()))


def factored_copy(system: MatrixUnitSystem) -> MatrixUnitSystem:
    """A factored system whose factors are the system's column factors, bit for bit."""
    factors = [f.copy() for f in system.column_factors()]
    return MatrixUnitSystem(system.shape, system.ambient_dim, factors=factors)


@pytest.fixture
def qr_calls(monkeypatch):
    """The shapes of every QR and ``op_norms`` stack ``factored_distance`` asks for."""
    calls = []
    qr, norms = np.linalg.qr, units.op_norms
    monkeypatch.setattr(np.linalg, "qr", lambda a, mode: calls.append(a.shape) or qr(a, mode=mode))
    monkeypatch.setattr(units, "op_norms", lambda a: calls.append(a.shape) or norms(a))
    return calls


@settings(max_examples=30, deadline=None, derandomize=True)
@given(spec=small_towers())
def test_bit_equal_blocks_of_exact_systems_are_zero_by_the_qr_formula(spec):
    """On 0/1 indicator factors the Householder arithmetic is exact, so the
    QR formula gives +0.0 on bit-equal blocks: the 0.0 the skip returns."""
    for block in build_tower(spec).blocks:
        copy = factored_copy(block)
        for f, p in zip(copy.factors, block.column_factors()):
            value = qr_block_distance(f, p)
            assert value == 0.0 and not np.signbit(value)
        assert factored_distance(copy, block) == 0.0


ROUND_TRIP_CONFIGS = {
    "T0": {"preset": "T0"},
    "T1b": {"preset": "T1b"},
    "T1": {"preset": "T1"},
    "T1-uhf": {"preset": "T1", "recipe": "uhf"},
    "T1-relaxed-g2": {"preset": "T1", "mode": "relaxed", "generators": 2},
    "two-block": {"shapes": [[3, 3], [39]], "mode": "relaxed"},
    "d24": {"shapes": [[24]]},
}


@pytest.mark.parametrize("config", list(ROUND_TRIP_CONFIGS.values()), ids=list(ROUND_TRIP_CONFIGS))
def test_recovered_levels_give_the_qr_formulas_bits(config):
    """Every recovered level's unit residual has the bits of the QR formula
    over all of its blocks, and each block recovered bit for bit is +0.0 by
    that formula.  Each tower above recovers some block bit for bit, except
    relaxed [[3, 3], [39]], where every block goes through the QR path."""
    plan = build_plan(build_tower(resolve_tower_spec(config)))
    result, report = round_trip(plan)
    equal = []
    for lv, residual in zip(result.levels, report.unit_residuals):
        block = plan.model.blocks[lv.level - 1]
        for f, p in zip(lv.units.factors, block.column_factors()):
            equal.append(same_bits(f, p))
            if equal[-1]:
                value = qr_block_distance(f, p)
                assert value == 0.0 and not np.signbit(value)
        assert same_bits(np.float64(residual), np.float64(qr_distance(lv.units, block)))
    assert any(equal) == (config != ROUND_TRIP_CONFIGS["two-block"])


def test_bit_equal_blocks_need_no_qr(qr_calls):
    exact = canonical_units([2, 3], (2, 1))
    assert factored_distance(factored_copy(exact), exact) == 0.0
    assert factored_distance(factored_copy(exact), factored_copy(exact)) == 0.0
    assert qr_calls == []


@pytest.mark.parametrize("changed", [0, 1])
def test_a_factor_one_ulp_off_takes_the_qr_path(qr_calls, changed):
    """Equal shapes alone never skip, and one bit-equal block skips only itself."""
    exact = canonical_units([2, 3], (2, 1))
    copy = factored_copy(exact)
    f = copy.factors[changed]
    row, col = np.argwhere(f[1] == 1.0)[0]
    f[1, row, col] = np.nextafter(1.0, 2.0)
    value = factored_distance(copy, exact)
    # one QR and one op_norms stack, for the changed block only
    assert len(qr_calls) == 2 and qr_calls[0][2] == f.shape[2] + exact.rows[changed].shape[1]
    assert value > 0.0
    assert same_bits(np.float64(value), np.float64(qr_block_distance(f, exact.column_factors()[changed])))


@pytest.mark.parametrize("name", ["T1", "T1b", "T1-uhf", "T1-relaxed-g2"])
def test_recovered_level_one_takes_the_column_order_skip(qr_calls, name):
    """The recovered level-1 factors of T1-family towers are the indicator columns
    in another column order, common to every unit row: not bit-equal, yet
    0.0 with no QR, which is what the QR formula gives them too."""
    plan = build_plan(build_tower(resolve_tower_spec(ROUND_TRIP_CONFIGS[name])))
    result, report = round_trip(plan)
    recovered, exact = result.levels[0].units, plan.model.blocks[0]
    f, p = recovered.factors[0], exact.column_factors()[0]
    assert not same_bits(f, p)
    qr_calls.clear()
    assert factored_distance(recovered, exact) == 0.0 == report.unit_residuals[0]
    assert qr_calls == []
    value = qr_block_distance(f, p)
    assert value == 0.0 and not np.signbit(value)


def test_a_column_order_that_differs_between_rows_takes_the_qr_path(qr_calls):
    exact = canonical_units([3], (4,))
    copy = factored_copy(exact)
    f = copy.factors[0]
    f[0] = f[0][:, [1, 0, 2, 3]]  # unit row 1 alone in another column order
    assert factored_distance(copy, exact) == pytest.approx(2.0, rel=1e-15)
    assert len(qr_calls) == 2
    qr_calls.clear()
    f[:] = exact.column_factors()[0][:, :, [3, 0, 2, 1]]  # one order for every row
    assert factored_distance(copy, exact) == 0.0 and qr_calls == []


def test_a_unitary_column_mix_takes_the_qr_path(qr_calls):
    """F_i = P_i U for a unitary U that is no permutation leaves every e_ij the
    same in exact arithmetic, but not bit for bit: the QR formula measures it."""
    exact = canonical_units([3], (2,))
    mix = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    factors = [exact.column_factors()[0] @ mix]
    mixed = MatrixUnitSystem(exact.shape, exact.ambient_dim, factors=factors)
    assert factored_distance(mixed, exact) <= 4 * EPS
    assert len(qr_calls) == 2


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 4),
    m=st.integers(1, 3),
    extra=st.integers(0, 5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_factors_get_the_qr_formula_unless_only_the_column_order_differs(k, m, extra, seed):
    rng = np.random.default_rng(seed)
    dim = k * m + extra
    p = rng.standard_normal((k, dim, m)) + 1j * rng.standard_normal((k, dim, m))
    f = p + 1e-3 * (rng.standard_normal(p.shape) + 1j * rng.standard_normal(p.shape))
    other = MatrixUnitSystem((k,), dim, factors=[p])
    approx = MatrixUnitSystem((k,), dim, factors=[f])
    value = factored_distance(approx, other)
    assert same_bits(np.float64(value), np.float64(qr_distance(approx, other)))
    permuted = MatrixUnitSystem((k,), dim, factors=[p[:, :, rng.permutation(m)]])
    assert factored_distance(permuted, other) == 0.0
    assert qr_distance(permuted, other) <= 1e-12 * np.abs(p).max() ** 2


def test_bit_equal_non_finite_factors_fail_closed():
    exact = canonical_units([2], (1,))
    copy = factored_copy(exact)
    copy.factors[0][0, 0, 0] = np.nan
    with pytest.raises(NonFiniteValue):
        factored_distance(copy, copy)


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


RECIPES = st.sampled_from(sorted(tower.RECIPES))
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
