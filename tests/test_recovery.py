import numpy as np
import pytest

from towergen.closure import distance_to_span, subalgebra_closure
from towergen.errors import LadderBreakdown, NoSpectralGap, NonFiniteValue
from towergen.linalg import identity, op_norm
from towergen.recovery import (
    RecoveredLevel,
    RecoveryContext,
    RecoveryTrace,
    extract_leading_projection,
    ladder_units,
    recover_all,
    recover_next_level,
    reconstruct_witness,
    round_trip,
)
from towergen.tower import TowerSpec, build_tower
from towergen.twogen import build_plan
from towergen.units import MatrixUnitSystem, canonical_units


def test_extract_diagonal_model():
    a = np.diag([0.5, 0.25]).astype(complex)
    e, trace = extract_leading_projection(a, 2.0)
    assert np.allclose(e, np.diag([1.0, 0.0]), atol=1e-9)
    assert trace.steps[-1].iterations <= 40


def test_extract_t1_leading_unit(t1_plan):
    model = t1_plan.model
    e, _ = extract_leading_projection(t1_plan.gen_a, 2.0)
    assert op_norm(e - model.blocks[0].unit(1, 1, 1)) <= 1e-8
    # spectral projections of a commute with a
    assert op_norm(e @ t1_plan.gen_a - t1_plan.gen_a @ e) <= 1e-9


def test_extract_second_block_scale_four():
    spec = TowerSpec(block_shapes=((3, 4),), num_generators=1, mode="strict", generator_seed=2)
    model = build_tower(spec)
    plan = build_plan(model)
    e1, _ = extract_leading_projection(plan.gen_a, 2.0)
    assert op_norm(e1 - model.blocks[0].unit(1, 1, 1)) <= 1e-8
    comp = identity(model.ambient_dim) - e1
    e2, _ = extract_leading_projection(comp @ plan.gen_a @ comp, 4.0)
    assert op_norm(e2 - model.blocks[0].unit(2, 1, 1)) <= 1e-8


def test_extract_no_gap():
    with pytest.raises(NoSpectralGap):
        extract_leading_projection(np.diag([0.6, 0.5]).astype(complex), 1.0)
    with pytest.raises(NoSpectralGap):
        # eigenvalue -1 wrecks convergence even though it is far from 1
        extract_leading_projection(np.diag([1.0, -1.0]).astype(complex), 1.0)


def test_extract_non_finite_input_fails_closed():
    with pytest.raises(NonFiniteValue):
        extract_leading_projection(np.diag([1.0, np.nan, 0.2]).astype(complex), 1.0)


def test_ladder_t0_exact(t0_plan):
    model = t0_plan.model
    e11, _ = extract_leading_projection(t0_plan.gen_a, 2.0)
    system, _ = ladder_units([e11], t0_plan.gen_b, (3,), 1, unital=True)
    for key, mat in model.blocks[0].iter_units():
        assert op_norm(system.units[key] - mat) <= 1e-10


def test_ladder_t1_level1(t1_plan):
    model = t1_plan.model
    e11, _ = extract_leading_projection(t1_plan.gen_a, 2.0)
    system, _ = ladder_units([e11], t1_plan.gen_b, (3,), 1, unital=True)
    for key, mat in model.blocks[0].iter_units():
        assert op_norm(system.units[key] - mat) <= 1e-6


def test_ladder_zero_b(t0_plan):
    e11, _ = extract_leading_projection(t0_plan.gen_a, 2.0)
    with pytest.raises(LadderBreakdown):
        ladder_units([e11], np.zeros((3, 3), dtype=complex), (3,), 1, unital=True)


def test_recover_next_level_t1(t1_plan):
    model = t1_plan.model
    ctx = RecoveryContext(shapes=model.spec.block_shapes, ambient_dim=model.ambient_dim)
    level1 = recover_next_level(ctx, [], t1_plan.gen_a, t1_plan.gen_b)
    assert level1.status == "recovered"
    level2 = recover_next_level(ctx, [level1], t1_plan.gen_a, t1_plan.gen_b)
    stored = model.blocks[1].unit(1, 1, 1)
    assert op_norm(level2.units.unit(1, 1, 1) - stored) <= 1e-6


def test_recover_depth_exhausted(t0_plan):
    model = t0_plan.model
    ctx = RecoveryContext(shapes=model.spec.block_shapes, ambient_dim=model.ambient_dim)
    level1 = recover_next_level(ctx, [], t0_plan.gen_a, t0_plan.gen_b)
    beyond = recover_next_level(ctx, [level1], t0_plan.gen_a, t0_plan.gen_b)
    assert beyond.status == "not-applicable"


def test_recover_corrupted_level1(t1_plan):
    model = t1_plan.model
    ctx = RecoveryContext(shapes=model.spec.block_shapes, ambient_dim=model.ambient_dim)
    dim = model.ambient_dim
    zeroed = RecoveredLevel(
        level=1,
        units=MatrixUnitSystem(
            (3,), dim, {k: np.zeros((dim, dim), complex) for k, _ in model.blocks[0].iter_units()},
            unital=False,
        ),
        corner=np.zeros((dim, dim), dtype=complex),
        coupling=np.zeros((dim, dim), dtype=complex),
        trace=RecoveryTrace(),
    )
    with pytest.raises(NoSpectralGap):
        recover_next_level(ctx, [zeroed], t1_plan.gen_a, t1_plan.gen_b)


def test_round_trip_t0(t0_plan):
    _, report = round_trip(t0_plan)
    assert report.passed()
    assert max(report.unit_residuals) <= 1e-6
    assert max(report.witness_residuals) <= 1e-8


def test_reconstruct_witness_level1(t0_plan):
    lv = t0_plan.levels[0]
    rebuilt = reconstruct_witness(
        lv.coupling, lv.coupling_scale, [t0_plan.model.blocks[0]], None, 1
    )
    assert op_norm(rebuilt - lv.witness.approximants[0]) <= 1e-8


def test_reconstruct_witness_level2(t1_plan):
    lv = t1_plan.levels[1]
    rebuilt = reconstruct_witness(
        lv.coupling,
        lv.coupling_scale,
        [t1_plan.model.blocks[0], t1_plan.model.blocks[1]],
        lv.assignment,
        1,
    )
    assert op_norm(rebuilt - lv.witness.approximants[0]) <= 1e-8


def test_reconstruct_witness_zero_coupling(t1_plan):
    lv = t1_plan.levels[1]
    rebuilt = reconstruct_witness(
        np.zeros_like(lv.coupling),
        lv.coupling_scale,
        [t1_plan.model.blocks[0], t1_plan.model.blocks[1]],
        lv.assignment,
        1,
    )
    assert op_norm(rebuilt) == 0.0


def test_closure_identity_only():
    basis = subalgebra_closure([identity(3)])
    assert basis.size == 1
    assert basis.blocks == [(3, 1)]


def test_closure_full_m2():
    gens = [mat for _, mat in canonical_units([2]).iter_units()]
    basis = subalgebra_closure(gens)
    assert basis.size == 4
    assert basis.blocks == [(1, 2)]


def test_closure_idempotent(t0_plan):
    basis = subalgebra_closure([t0_plan.gen_a, t0_plan.gen_b])
    assert basis.size == 9
    again = subalgebra_closure(list(basis.matrices()))
    assert again.size == basis.size


def test_distance_to_span_examples():
    basis = subalgebra_closure([identity(3)])
    fro, upper = distance_to_span(identity(3) * 2.5, basis)
    assert fro <= 1e-12 and upper <= 1e-12
    traceless = np.diag([1.0, -1.0, 0.0]) / np.sqrt(2)
    fro, upper = distance_to_span(traceless, basis)
    assert fro == pytest.approx(1.0, abs=1e-12)


def test_closure_mutual_containment_t0(t0_plan):
    model = t0_plan.model
    pair = subalgebra_closure([t0_plan.gen_a, t0_plan.gen_b])
    oracle_gens = [m for _, m in model.blocks[0].iter_units()]
    oracle_gens += [t0_plan.levels[0].coupling, model.identity]
    oracle = subalgebra_closure(oracle_gens)
    assert pair.size == oracle.size == 9
    for m in oracle.matrices():
        fro, _ = distance_to_span(m, pair)
        assert fro <= 1e-8
    for m in pair.matrices():
        fro, _ = distance_to_span(m, oracle)
        assert fro <= 1e-8


def test_recover_all_statuses(t1_plan):
    model = t1_plan.model
    ctx = RecoveryContext(shapes=model.spec.block_shapes, ambient_dim=model.ambient_dim)
    result = recover_all(ctx, t1_plan.gen_a, t1_plan.gen_b)
    assert [lv.status for lv in result.levels] == ["recovered", "recovered"]
    payload = result.trace_json()
    assert payload[0]["steps"][0]["name"].startswith("extract")
