import numpy as np
import pytest

from towergen.errors import DegenerateWitness, InsufficientSubrank
from towergen.linalg import identity, op_norm
from towergen.tower import CommutantWitness, TowerSpec, build_tower, witnesses_at_level
from towergen.twogen import (
    IndexAtom,
    build_plan,
    build_z,
    conjugated_element,
    corner_projection,
    diag_coefficient,
    enumerate_indices,
    verify_facts,
)


def test_corner_projection_single_block(t0_model):
    p = corner_projection(t0_model, 1)
    assert np.allclose(p, t0_model.blocks[0].unit(1, 3, 3))


def test_corner_projection_two_blocks():
    spec = TowerSpec(block_shapes=((3, 4),), num_generators=1, mode="strict", generator_seed=2)
    model = build_tower(spec)
    p = corner_projection(model, 1)
    expected = model.blocks[0].unit(1, 3, 3) + model.blocks[0].unit(2, 4, 4)
    assert np.allclose(p, expected)
    assert op_norm(p @ p - p) <= 1e-12


def test_corner_kills_first_columns(t1_model):
    for level in (1, 2):
        p = corner_projection(t1_model, level)
        block = t1_model.blocks[level - 1]
        for s in range(1, len(block.shape) + 1):
            assert op_norm(p @ block.unit(s, 1, 1)) == 0.0


def test_enumerate_indices_t1(t1_model):
    atoms, assignment = enumerate_indices(t1_model, 2)
    assert len(atoms) == 9
    rows = sorted(assignment.row(1, idx) for idx in range(9))
    assert rows == list(range(2, 11))
    # z_n also touches the row after the last atom row; the corner is row 21
    assert assignment.row(1, 8) + 1 <= 21 - 2


def test_enumerate_indices_capacity():
    spec = TowerSpec(block_shapes=((3,), (11,)), num_generators=1, mode="relaxed",
                     generator_seed=2)
    model = build_tower(spec)
    with pytest.raises(InsufficientSubrank):
        enumerate_indices(model, 2)


def test_conjugated_element_unit_algebra(t1_model):
    atom = IndexAtom(entries=((1, 1, 1, 1),))
    out = conjugated_element(t1_model, atom, t1_model.identity, 2)
    expected = t1_model.blocks[0].unit(1, 3, 3)
    assert op_norm(out - expected) <= 1e-14


def test_conjugated_element_contraction(t1_model):
    rng = np.random.default_rng(8)
    atoms, _ = enumerate_indices(t1_model, 2)
    y_small = rng.standard_normal((21, 21)) + 1j * rng.standard_normal((21, 21))
    y = np.kron(identity(3), (y_small + y_small.conj().T) / 2)
    for atom in atoms:
        out = conjugated_element(t1_model, atom, y, 2)
        assert op_norm(out) <= op_norm(y) + 1e-12


def test_conjugated_element_adjoint_reflection(t1_model):
    rng = np.random.default_rng(9)
    y_small = rng.standard_normal((21, 21)) + 1j * rng.standard_normal((21, 21))
    y = np.kron(identity(3), (y_small + y_small.conj().T) / 2)
    atom = IndexAtom(entries=((2, 1, 3, 1),))
    reflected = IndexAtom(entries=((3, 1, 2, 1),))
    lhs = conjugated_element(t1_model, atom, y, 2).conj().T
    rhs = conjugated_element(t1_model, reflected, y, 2)
    assert op_norm(lhs - rhs) <= 1e-12


def test_build_z_norms(t1_plan):
    assert op_norm(t1_plan.levels[0].coupling) == pytest.approx(0.25, abs=1e-10)
    assert op_norm(t1_plan.levels[1].coupling) == pytest.approx(0.125, abs=1e-10)


def test_build_z_degenerate(t1_model):
    witness = CommutantWitness(
        level=1,
        approximants=[np.zeros((63, 63), dtype=complex)],
        distances=[0.0],
    )
    with pytest.raises(DegenerateWitness):
        build_z(t1_model, witness, 1)


def test_build_z_needs_subrank_three():
    spec = TowerSpec(block_shapes=((2,),), num_generators=1, mode="relaxed", generator_seed=3)
    model = build_tower(spec)
    witness = witnesses_at_level(model, 1)
    with pytest.raises(InsufficientSubrank):
        build_z(model, witness, 1)


def test_diag_weights(t1_plan):
    shapes = t1_plan.model.spec.block_shapes
    assert diag_coefficient(shapes, 1, 1) == 0.5
    assert diag_coefficient(shapes, 2, 1) == 0.25
    assert op_norm(t1_plan.levels[0].diag_term) == pytest.approx(0.5, abs=1e-10)
    assert op_norm(t1_plan.levels[1].diag_term) == pytest.approx(0.25, abs=1e-10)


def test_ladder_norm_bound(t1_plan):
    assert op_norm(t1_plan.levels[0].ladder_term) <= 0.5 + 1e-12
    assert op_norm(t1_plan.levels[1].ladder_term) <= 0.125 + 1e-12


def test_level_sums_orthogonal(t1_plan):
    a1 = t1_plan.levels[0].diag_term
    a2 = t1_plan.levels[1].diag_term
    assert op_norm(a1 @ a2) <= 1e-12


def test_tail_bounds(t1_plan):
    for lv in t1_plan.levels:
        assert op_norm(lv.diag_term) <= 2.0 ** (-lv.level) + 1e-12
        assert op_norm(lv.ladder_term) <= 2.0 ** (-lv.level) + 1e-12
    partial_a = t1_plan.levels[0].diag_term
    assert op_norm(t1_plan.gen_a - partial_a) <= 0.5 + 1e-12


def test_verify_facts_t1(t1_plan):
    report = verify_facts(t1_plan)
    assert report.passed
    assert report.row("corner_annihilates_coupling").measured <= 1e-12
    assert report.row("diag_term_norm_gap").measured <= 1e-10
    assert report.row("leading_complement_margin").measured <= 0.5 + 1e-10


def test_verify_facts_level_norms_t1(t1_plan):
    report = verify_facts(t1_plan)
    targets = [(lv.coupling_target, lv.diag_target, lv.ladder_cap) for lv in report.levels]
    assert targets == [(0.25, 0.5, 0.5), (0.125, 0.25, 0.125)]
    for lv, plan_level in zip(report.levels, t1_plan.levels):
        assert lv.ladder_norm == op_norm(plan_level.ladder_term)
        assert lv.coupling_scale == plan_level.coupling_scale
        assert all(row.passed for row in lv.rows())
    worst = max(lv.coupling_gap for lv in report.levels)
    assert report.row("coupling_norm_gap").measured == worst


def test_verify_facts_detects_corrupted_coupling(t1_plan):
    import copy

    broken = copy.copy(t1_plan)
    broken.levels = [copy.copy(lv) for lv in t1_plan.levels]
    block = t1_plan.model.blocks[1]
    # move the coupling onto the corner's rows: the orthogonality facts break
    bad = block.unit(1, 20, 21) + block.unit(1, 21, 20)
    broken.levels[1].coupling = 0.125 * bad
    report = verify_facts(broken)
    assert not report.passed
    assert report.row("corner_annihilates_coupling").measured > 0.01


def test_witness_distances_within_margin(t1_plan):
    for lv in t1_plan.levels:
        bound = 2.0 ** (-lv.level)
        for dist in lv.witness.distances:
            assert dist < bound


def test_two_generator_strict_tower_at_capacity():
    # level-2 block size exactly meets the strict bound 2 * 9 + 3 = 21
    spec = TowerSpec(block_shapes=((3,), (21,)), num_generators=2, mode="strict",
                     generator_seed=7)
    model = build_tower(spec)
    assert model.ambient_dim == 63
    plan = build_plan(model)
    atoms, assignment = enumerate_indices(model, 2)
    assert assignment.active_generators == 2
    assert [assignment.row(1, idx) for idx in range(9)] == list(range(2, 11))
    assert [assignment.row(2, idx) for idx in range(9)] == list(range(11, 20))
    assert assignment.row(2, 8) + 1 == 20  # z_n's last row, one below the corner
    report = verify_facts(plan)
    assert report.passed
    assert op_norm(plan.levels[1].coupling) == pytest.approx(0.125, abs=1e-10)
