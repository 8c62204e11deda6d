import numpy as np
import pytest

from towergen.errors import DimensionMismatch, DimensionOverflow, StrictModeViolation
from towergen.linalg import identity, op_norm
import towergen.linalg as linalg
from towergen.tower import (
    TowerSpec,
    _screened_max_commutator,
    build_tower,
    check_conditions,
    commutant_projection,
    index_set_cardinality,
    required_subrank_relaxed,
    required_subrank_strict,
    witnesses_at_level,
)
from towergen.units import canonical_units, rank


def test_build_t1_shape(t1_model):
    assert t1_model.ambient_dim == 63
    assert t1_model.depth == 2
    assert len(t1_model.generators) == 1
    assert op_norm(t1_model.generators[0]) <= 1.0 + 1e-12


def test_strict_bound_instantiation():
    shapes = ((3,), (21,))
    assert required_subrank_strict(shapes, 1) == 3
    assert required_subrank_strict(shapes, 2) == 2 * 9 + 3
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
    assert required_subrank_relaxed(spec.block_shapes, 2, 1) == 12


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
    hacked = build_tower(t1_model.spec)
    hacked.generators[0] = np.real_if_close(
        (hacked.blocks[0].unit(1, 1, 2) + hacked.blocks[0].unit(1, 2, 1))
    ).astype(np.complex128)
    witness = witnesses_at_level(hacked, 1)
    assert witness.distances[0] > 0.1


def test_scalar_generator_zero_distance():
    spec = TowerSpec(block_shapes=((3,),), num_generators=1, mode="strict", generator_seed=1)
    model = build_tower(spec)
    model.generators[0] = 0.4 * identity(3)
    witness = witnesses_at_level(model, 1)
    assert witness.distances[0] <= 1e-13


def test_cross_commutator_matches_all_pairs():
    rng = np.random.default_rng(12)
    left = [rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) for _ in range(7)]
    right = [rng.standard_normal((6, 6)) * 10.0 ** -rng.integers(0, 4) for _ in range(30)]
    brute = max(op_norm(u @ v - v @ u) for u in left for v in right)
    assert _screened_max_commutator(left, right) == brute


def test_cross_commutator_of_commuting_levels_needs_no_norm(t1_model, monkeypatch):
    calls = []
    monkeypatch.setattr(linalg, "op_norms", lambda stack: calls.append(len(stack)))
    left = [mat for _, mat in t1_model.blocks[0].iter_units()]
    right = [mat for _, mat in t1_model.blocks[1].iter_units()]
    assert _screened_max_commutator(left, right[::8]) == 0.0
    assert calls == []


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
        for _, unit in block.iter_units():
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
                    assert required_subrank_strict(shapes, level) == expected


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
