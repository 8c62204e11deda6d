from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from towergen.errors import DimensionMismatch, DimensionOverflow, StrictModeViolation
from towergen.cli import resolve_tower_spec
from towergen.linalg import hermitian_part, identity, op_norm
import towergen.linalg as linalg
import towergen.tower as tower
from towergen.tower import (
    TowerSpec,
    _embed_factor,
    _screened_max_commutator,
    build_tower,
    check_conditions,
    commutant_projection,
    index_set_cardinality,
    required_subrank,
    witnesses_at_level,
)
from towergen.twogen import build_plan
from towergen.units import canonical_units, rank

from conftest import dense_units, same_bits


def test_build_t1_shape(t1_model):
    assert t1_model.ambient_dim == 63
    assert t1_model.depth == 2
    assert len(t1_model.generators) == 1
    assert op_norm(t1_model.generators[0]) <= 1.0 + 1e-12


def test_strict_bound_instantiation():
    shapes = ((3,), (21,))
    assert required_subrank(shapes, 1, 1) == 3
    assert required_subrank(shapes, 2, 2) == 2 * 9 + 3
    assert index_set_cardinality(shapes, 2) == 9


def test_strict_violation_small_blocks():
    with pytest.raises(StrictModeViolation):
        build_tower(TowerSpec(block_shapes=((2,), (2,)), num_generators=1, mode="strict"))


def test_strict_violation_second_level():
    with pytest.raises(StrictModeViolation):
        build_tower(TowerSpec(block_shapes=((3,), (12,)), num_generators=1, mode="strict"))


def test_relaxed_tower_36(t1_model):
    spec = TowerSpec(block_shapes=((3,), (12,)), num_generators=1, mode="relaxed",
                     generator_seed=7)
    model = build_tower(spec)
    assert model.ambient_dim == 36
    report = check_conditions(model)
    assert report.passed
    rows = {row.name: row for row in report.rows}
    assert (rows["level2.subrank_growth"].measured, rows["level2.subrank_growth"].threshold) == (
        12, 12,  # 1 * 9 + 3 = 12 fits the relaxed bound
    )
    assert required_subrank(spec.block_shapes, 2, 1) == 12


def test_dimension_cap():
    with pytest.raises(DimensionOverflow):
        build_tower(
            TowerSpec(block_shapes=((3,), (21,), (70,)), num_generators=1, mode="relaxed"),
            dim_cap=4096,
        )


def test_conditions_t1(t1_model):
    report = check_conditions(t1_model)
    assert report.passed
    assert [row.name for row in report.rows] == [
        f"level{n}.{check}"
        for n in (1, 2)
        for check in ("unitality", "cross_commutator", "subrank_growth", "distance_g1")
    ]
    rows = {row.name: row for row in report.rows}
    assert rows["level1.unitality"].threshold == rows["level2.cross_commutator"].threshold == 1e-12
    assert rows["level1.distance_g1"].threshold == 0.5
    assert rows["level2.distance_g1"].threshold == 0.25


def test_generator_equal_to_unit_reports_distance(t1_model):
    unit = t1_model.blocks[0].unit(1, 1, 2) + t1_model.blocks[0].unit(1, 2, 1)
    hacked = replace(t1_model, generators=(unit,))
    witness = witnesses_at_level(hacked, 1)
    assert witness.distances[0] > 0.1
    assert hacked.witnesses[0].distances == witness.distances


def test_scalar_generator_zero_distance():
    spec = TowerSpec(block_shapes=((3,),), num_generators=1, mode="strict", generator_seed=1)
    model = replace(build_tower(spec), generators=(0.4 * identity(3),))
    witness = witnesses_at_level(model, 1)
    assert witness.distances[0] <= 1e-13
    assert model.witnesses[0].distances == witness.distances


def test_check_and_plan_read_the_witnesses_built_with_the_model(monkeypatch):
    """Each level's witnesses are computed once, when the model is made;
    check_conditions and build_plan both read those."""
    calls = []
    compute = tower.witnesses_at_level

    def counted(model, level):
        calls.append(level)
        return compute(model, level)

    monkeypatch.setattr(tower, "witnesses_at_level", counted)
    model = build_tower(TowerSpec(block_shapes=((3,), (21,)), num_generators=2, mode="relaxed"))
    assert calls == [1, 2]
    projections = []
    project = tower.commutant_projection
    monkeypatch.setattr(
        tower, "commutant_projection", lambda x, b: projections.append(1) or project(x, b)
    )
    report = check_conditions(model)
    plan = build_plan(model)
    assert calls == [1, 2] and not projections
    assert all(lv.witness is witness for lv, witness in zip(plan.levels, model.witnesses, strict=True))
    rows = {row.name: row.measured for row in report.rows}
    for level, witness in enumerate(model.witnesses, start=1):
        fresh = compute(model, level)
        assert witness.level == level and witness.distances == fresh.distances
        assert all(same_bits(y, z) for y, z in zip(witness.approximants, fresh.approximants))
        names = [f"level{level}.distance_g{j}" for j in range(1, len(fresh.distances) + 1)]
        assert [rows[name] for name in names] == list(fresh.distances)


LEADING_FACTOR_TOWERS = {
    "T1": {"preset": "T1"},
    "T1b": {"preset": "T1b"},
    "T1-relaxed-g2": {"preset": "T1", "mode": "relaxed", "generators": 2},
}


def _recorded_projections(monkeypatch):
    """The operand shape of every ``commutant_projection`` the tower module asks for."""
    shapes = []
    project = tower.commutant_projection
    monkeypatch.setattr(
        tower, "commutant_projection", lambda x, b: shapes.append(x.shape) or project(x, b)
    )
    return shapes


@pytest.mark.parametrize(
    "config", list(LEADING_FACTOR_TOWERS.values()), ids=list(LEADING_FACTOR_TOWERS)
)
def test_leading_factor_generators_and_witnesses_live_on_factor_one(monkeypatch, config):
    """Each leading-factor generator is kron(x_1, I) of its factor-1 part, bit for
    bit; its level-1 witness is projected on factor 1 and agrees with the dense
    herm(E(x)), and its distance with ||x - herm(E(x))||, to 1e-14.  Level 2 is
    projected at the ambient dimension."""
    shapes = _recorded_projections(monkeypatch)
    model = build_tower(resolve_tower_spec(config))
    d1, dim, count = model.factor_dims[0], model.ambient_dim, len(model.generators)
    # the recipe's projections, level 1's one witness, then level 2's
    assert shapes == [(d1, d1)] * (count + 1) + [(dim, dim)] * count
    after = dim // d1
    for x in model.generators:
        assert same_bits(_embed_factor(x[::after, ::after], model.factor_dims, 0), x)
    for x, y, distance in zip(
        model.generators, model.witnesses[0].approximants, model.witnesses[0].distances
    ):
        dense = hermitian_part(commutant_projection(x, model.blocks[0]))
        assert np.abs(y - dense).max() <= 1e-14
        assert abs(distance - op_norm(x - dense)) <= 1e-14


@pytest.mark.parametrize("recipe", ["dense", "uhf"])
def test_other_generators_take_the_dense_witness_path(monkeypatch, t1_model, recipe):
    """A model given dense generators by ``dataclasses.replace``, and a uhf
    model, project and norm every witness at the ambient dimension."""
    shapes = _recorded_projections(monkeypatch)
    if recipe == "uhf":
        model = build_tower(replace(t1_model.spec, generator_recipe="uhf"))
    else:
        rng = np.random.default_rng(5)
        x = hermitian_part(rng.standard_normal((63, 63)) + 1j * rng.standard_normal((63, 63)))
        model = replace(t1_model, generators=(x / op_norm(x),))
    assert shapes == [(63, 63), (63, 63)]
    x = model.generators[0]
    y = hermitian_part(commutant_projection(x, model.blocks[0]))
    assert same_bits(model.witnesses[0].approximants[0], y)
    assert model.witnesses[0].distances[0] == op_norm(x - y)


def test_swapped_generator_leaves_no_stale_witness(t1_model):
    """A model's generators cannot change in place; a model with other
    generators is a new model, with witnesses of its own."""
    with pytest.raises(TypeError):
        t1_model.generators[0] = identity(63)
    with pytest.raises(ValueError):
        t1_model.generators[0][0, 0] = 2.0
    with pytest.raises(ValueError):
        t1_model.witnesses[1].approximants[0][0, 0] = 2.0
    with pytest.raises(FrozenInstanceError):
        t1_model.generators = (identity(63),)
    source = 0.4 * identity(63)
    swapped = replace(t1_model, generators=(source,))
    source[0, 0] = 5.0  # the model holds its own copy
    assert swapped.generators[0][0, 0] == 0.4
    assert max(max(w.distances) for w in swapped.witnesses) <= 1e-15
    swapped_rows = {row.name: row.measured for row in check_conditions(swapped).rows}
    rows = {row.name: row.measured for row in check_conditions(t1_model).rows}
    assert swapped_rows["level1.distance_g1"] <= 1e-15 < 0.1 < rows["level1.distance_g1"]
    swapped_plan, plan = build_plan(swapped), build_plan(t1_model)
    assert not same_bits(swapped_plan.gen_a, plan.gen_a)
    assert swapped_plan.levels[1].witness is swapped.witnesses[1]


def test_cross_commutator_matches_all_pairs():
    rng = np.random.default_rng(12)
    left = [rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) for _ in range(7)]
    right = [rng.standard_normal((6, 6)) * 10.0 ** -rng.integers(0, 4) for _ in range(30)]
    brute = max(op_norm(u @ v - v @ u) for u in left for v in right)
    assert _screened_max_commutator(left, right) == brute


def test_cross_commutator_of_commuting_levels_needs_no_norm(t1_model, monkeypatch):
    calls = []
    monkeypatch.setattr(linalg, "op_norms", lambda stack: calls.append(len(stack)))
    left = list(dense_units(t1_model.blocks[0]))
    right = list(dense_units(t1_model.blocks[1]))
    assert _screened_max_commutator(left, right[::8]) == 0.0
    assert calls == []


def _recorded_clash_tables(monkeypatch):
    """The (left, right) sizes of every clash table ``_max_cross_commutator`` builds."""
    tables = []
    clashes = tower._clashes

    def recorded(lmaps, rmaps):
        tables.append((len(lmaps), len(rmaps)))
        return clashes(lmaps, rmaps)

    monkeypatch.setattr(tower, "_clashes", recorded)
    return tables


def test_commuting_levels_compare_only_their_generating_units(t1_model, monkeypatch):
    """T1's levels commute: comparing the 5 generating units e_1j, e_j1 of its
    level 1 with the 41 of its level 2 gives exactly 0.0, with no 9 x 441
    clash table and no commutator formed."""
    tables = _recorded_clash_tables(monkeypatch)
    monkeypatch.setattr(tower, "_screened_max_commutator", pytest.fail)
    assert tower._max_cross_commutator(*t1_model.blocks) == 0.0
    assert tables == [(5, 41)]


def test_clashing_generating_units_fall_through_to_the_full_table(monkeypatch):
    """Two systems on one factor clash in their generating units, so every pair's
    maps are compared and the clashing pairs measured."""
    tables = _recorded_clash_tables(monkeypatch)
    left, right = canonical_units([3]), canonical_units([2, 1])
    dense = max(op_norm(u @ v - v @ u) for u in dense_units(left) for v in dense_units(right))
    assert tower._max_cross_commutator(left, right) == dense > 0.0
    assert tables == [(5, 4), (9, 5)]


def test_commutant_projection_fixed_point(t1_model):
    block = t1_model.blocks[0]
    x = np.kron(identity(3), np.diag(np.arange(21, dtype=float) / 21.0)).astype(complex)
    out = commutant_projection(x, block)
    assert op_norm(out - x) <= 1e-13


def test_commutant_projection_full_block():
    system = canonical_units([4])
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    out = commutant_projection(x, system)
    expected = np.trace(x) / 4.0 * identity(4)
    assert op_norm(out - expected) <= 1e-12


def test_commutant_projection_properties(t1_model):
    block = t1_model.blocks[0]
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.standard_normal((63, 63)) + 1j * rng.standard_normal((63, 63))
        x = (x + x.conj().T) / 2
        out = commutant_projection(x, block)
        for unit in dense_units(block):
            assert op_norm(out @ unit - unit @ out) <= 1e-12
        assert op_norm(commutant_projection(out, block) - out) <= 1e-12
        assert op_norm(out) <= op_norm(x) + 1e-12


def test_strict_predicate_matches_brute_force():
    sizes = [3, 12, 21, 30]
    for a in sizes:
        for b in sizes:
            for c in sizes:
                shapes = ((a,), (b,), (c,))
                for level in (1, 2, 3):
                    expected = 3 if level == 1 else level * int(
                        np.prod([rank(s) ** 2 for s in shapes[: level - 1]])
                    ) + 3
                    assert required_subrank(shapes, level, level) == expected


def test_uhf_recipe_margins():
    spec = TowerSpec(block_shapes=((2,), (2,), (2,)), num_generators=1, mode="relaxed",
                     generator_seed=5, generator_recipe="uhf")
    model = build_tower(spec)
    assert model.ambient_dim == 8
    report = check_conditions(model)
    # only growth fails: 2x2 blocks leave no coupling rows (subrank 2 < 3)
    failed = [row.name for row in report.rows if not row.passed]
    assert failed == [f"level{n}.subrank_growth" for n in (1, 2, 3)]
    assert not report.passed


def test_spec_validation():
    with pytest.raises(DimensionMismatch):
        TowerSpec(block_shapes=(), num_generators=1)
    with pytest.raises(DimensionMismatch):
        TowerSpec(block_shapes=((3,),), num_generators=0)
    with pytest.raises(DimensionMismatch):
        TowerSpec(block_shapes=((3,),), num_generators=1, mode="loose")
