from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import towergen.recovery as recovery
from towergen.cli import resolve_tower_spec
from towergen.closure import distance_to_span, subalgebra_closure
from towergen.errors import LadderBreakdown, NoSpectralGap, NonFiniteValue
from towergen.linalg import hermitian_part, identity, max_distance, op_norm
from towergen.recovery import (
    RecoveredLevel,
    RecoveryTrace,
    _corner_basis,
    column_factors,
    extract_leading_projection,
    ladder_units,
    recover_all,
    recover_next_level,
    reconstruct_witness,
    round_trip,
)
from towergen.stabilize import stabilize_units
from towergen.tower import TowerSpec, build_tower
from towergen.twogen import build_ab, build_plan, corner_projection, diag_coefficient
from towergen.units import MatrixUnitSystem, canonical_units


def test_extract_diagonal_model():
    a = np.diag([0.5, 0.25]).astype(complex)
    trace = RecoveryTrace()
    e = extract_leading_projection(a, 2.0, trace)
    assert np.allclose(e, np.diag([1.0, 0.0]), atol=1e-9)
    assert trace.steps[-1].iterations <= 40


def test_extract_t1_leading_unit(t1_plan):
    model = t1_plan.model
    e = extract_leading_projection(t1_plan.gen_a, 2.0, RecoveryTrace())
    assert op_norm(e - model.blocks[0].unit(1, 1, 1)) <= 1e-8
    # spectral projections of a commute with a
    assert op_norm(e @ t1_plan.gen_a - t1_plan.gen_a @ e) <= 1e-9


def test_extract_second_block_scale_four():
    spec = TowerSpec(block_shapes=((3, 4),), num_generators=1, mode="strict", generator_seed=2)
    model = build_tower(spec)
    plan = build_plan(model)
    e1 = extract_leading_projection(plan.gen_a, 2.0, RecoveryTrace())
    assert op_norm(e1 - model.blocks[0].unit(1, 1, 1)) <= 1e-8
    comp = identity(model.ambient_dim) - e1
    e2 = extract_leading_projection(comp @ plan.gen_a @ comp, 4.0, RecoveryTrace())
    assert op_norm(e2 - model.blocks[0].unit(2, 1, 1)) <= 1e-8


def test_extract_no_gap():
    with pytest.raises(NoSpectralGap):
        extract_leading_projection(np.diag([0.6, 0.5]).astype(complex), 1.0, RecoveryTrace())
    with pytest.raises(NoSpectralGap):
        # eigenvalue -1 wrecks convergence even though it is far from 1
        extract_leading_projection(np.diag([1.0, -1.0]).astype(complex), 1.0, RecoveryTrace())


def test_extract_non_finite_input_fails_closed():
    with pytest.raises(NonFiniteValue):
        extract_leading_projection(
            np.diag([1.0, np.nan, 0.2]).astype(complex), 1.0, RecoveryTrace()
        )


def test_ladder_t0_exact(t0_plan):
    model = t0_plan.model
    trace = RecoveryTrace()
    e11 = extract_leading_projection(t0_plan.gen_a, 2.0, trace)
    system = ladder_units([e11], t0_plan.gen_b, (3,), 1, unital=True, trace=trace)
    assert [step.name for step in trace.steps] == ["extract", "ladder_l1_b1_r1", "ladder_l1_b1_r2"]
    for key, mat in model.blocks[0].iter_units():
        assert op_norm(system.units[key] - mat) <= 1e-10


def test_ladder_t1_level1(t1_plan):
    model = t1_plan.model
    trace = RecoveryTrace()
    e11 = extract_leading_projection(t1_plan.gen_a, 2.0, trace)
    system = ladder_units([e11], t1_plan.gen_b, (3,), 1, unital=True, trace=trace)
    for key, mat in model.blocks[0].iter_units():
        assert op_norm(system.units[key] - mat) <= 1e-6


def test_ladder_zero_b(t0_plan):
    trace = RecoveryTrace()
    e11 = extract_leading_projection(t0_plan.gen_a, 2.0, trace)
    with pytest.raises(LadderBreakdown):
        ladder_units([e11], np.zeros((3, 3), dtype=complex), (3,), 1, unital=True, trace=trace)


def test_recover_next_level_t1(t1_plan):
    model = t1_plan.model
    shapes = model.spec.block_shapes
    level1 = recover_next_level(shapes, [], t1_plan.gen_a, t1_plan.gen_b)
    level2 = recover_next_level(shapes, [level1], t1_plan.gen_a, t1_plan.gen_b)
    stored = model.blocks[1].unit(1, 1, 1)
    assert op_norm(level2.units.unit(1, 1, 1) - stored) <= 1e-6


def test_recover_corrupted_level1(t1_plan):
    model = t1_plan.model
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
        recover_next_level(model.spec.block_shapes, [zeroed], t1_plan.gen_a, t1_plan.gen_b)


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
    result = recover_all(t1_plan.model.spec.block_shapes, t1_plan.gen_a, t1_plan.gen_b)
    payload = result.trace_json()
    assert [(lv["level"], lv["status"]) for lv in payload] == [(1, "recovered"), (2, "recovered")]
    assert payload[0]["steps"][0]["name"].startswith("extract")


def test_extract_empty_matrix_has_no_gap():
    with pytest.raises(NoSpectralGap, match="empty"):
        extract_leading_projection(np.zeros((0, 0), dtype=complex), 2.0, RecoveryTrace())


def test_corner_basis_spans_a_projection_and_rejects_the_rest():
    prefix = np.diag([1.0, 0.0, 1.0, 1.0 - 1e-4]).astype(complex)
    basis = _corner_basis(prefix, "level 2")
    assert basis.shape == (4, 3)
    assert op_norm(basis.conj().T @ basis - identity(3)) <= 1e-14
    assert op_norm(basis @ basis.conj().T - prefix) <= 1e-3
    assert _corner_basis(np.zeros((4, 4), dtype=complex), "level 2").shape == (4, 0)
    with pytest.raises(NoSpectralGap, match="neither 0 nor 1"):
        _corner_basis(np.diag([1.0, 0.5, 0.0]).astype(complex), "level 2")


def test_recover_next_level_rejects_a_corner_that_is_no_projection(t1_plan):
    shapes = t1_plan.model.spec.block_shapes
    level1 = recover_next_level(shapes, [], t1_plan.gen_a, t1_plan.gen_b)
    level1.corner = 0.5 * level1.corner
    with pytest.raises(NoSpectralGap, match="level 2: corner prefix eigenvalue 0.5"):
        recover_next_level(shapes, [level1], t1_plan.gen_a, t1_plan.gen_b)


def ambient_recover_next_level(shapes, recovered, a, b):
    """Level n recovered at ambient dimension: every extraction, rung,
    stabilizer step and decompression product on d x d matrices, the dense
    result factored as ``recover_next_level`` stores a level.  The reference
    the corner-compressed, factor-lifted ``recover_next_level`` must match."""
    n = len(recovered) + 1
    shape = shapes[n - 1]
    dim = a.shape[0]
    eye = identity(dim)
    prefix = eye
    for lv in recovered:
        prefix = prefix @ lv.corner
    a_eff = hermitian_part(prefix @ a @ prefix)
    b_eff = hermitian_part(prefix @ b @ prefix)
    trace = RecoveryTrace()
    corners = []
    stripped = a_eff
    for s in range(1, len(shape) + 1):
        scale = 1.0 / diag_coefficient(shapes, n, s)
        e11 = extract_leading_projection(stripped, scale, trace, label=f"extract_l{n}_b{s}")
        corners.append(e11)
        comp = eye - e11
        stripped = hermitian_part(comp @ stripped @ comp)
    candidate = ladder_units(corners, b_eff, shape, n, unital=(n == 1), trace=trace)
    stabilized, moved, _ = stabilize_units(candidate)
    trace.add(f"stabilize_l{n}", 1, moved)
    chains = [eye]
    for lv, lower in zip(recovered, shapes[: n - 1]):
        chains = [
            lv.units.unit(s, i, k_s) @ c
            for s, k_s in enumerate(lower, start=1)
            for i in range(1, k_s + 1)
            for c in chains
        ]
    units = {}
    for key in stabilized.keys():
        q = stabilized.units[key]
        units[key] = sum(chain @ q @ chain.conj().T for chain in chains)
    dense = MatrixUnitSystem(shape=shape, ambient_dim=dim, units=units, unital=True)
    ambient_units = MatrixUnitSystem(
        shape=shape, ambient_dim=dim, unital=True, factors=column_factors(dense, f"level {n}")
    )
    corner = ambient_units.corner_row_projection(list(shape))
    inner = (eye - corner) @ a_eff @ (eye - corner)
    diag_sum = np.zeros_like(inner)
    for s in range(1, len(shape) + 1):
        diag_sum += diag_coefficient(shapes, n, s) * (prefix @ ambient_units.unit(s, 1, 1))
    coupling = hermitian_part(inner - diag_sum)
    return RecoveredLevel(level=n, units=ambient_units, corner=corner, coupling=coupling, trace=trace)


def assert_same_recovery(result, oracle):
    assert len(result.levels) == len(oracle.levels)
    for lv, ref in zip(result.levels, oracle.levels):
        assert [(e.name, e.iterations) for e in lv.trace.steps] == [
            (e.name, e.iterations) for e in ref.trace.steps
        ]
        keys = ref.units.keys()
        assert lv.units.keys() == keys
        assert max_distance([lv.units.units[k] for k in keys], [ref.units.units[k] for k in keys]) <= 1e-12
        assert op_norm(lv.coupling - ref.coupling) <= 1e-12


def ambient_oracle():
    return mock.patch.object(recovery, "recover_next_level", ambient_recover_next_level)


@pytest.mark.parametrize(
    "config",
    [{"preset": "T1b"}, {"preset": "T1"}, {"preset": "T1", "recipe": "uhf"},
     {"preset": "T1", "mode": "relaxed", "generators": 2}],
    ids=["T1b", "T1", "T1-uhf", "T1-relaxed-g2"],
)
def test_corner_recovery_matches_ambient_oracle(config):
    plan = build_plan(build_tower(resolve_tower_spec(config)))
    with ambient_oracle():
        oracle, reference = round_trip(plan)
    result, report = round_trip(plan)
    assert_same_recovery(result, oracle)
    assert report.passed() == reference.passed()


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
        generator_recipe=draw(st.sampled_from(["leading-factor", "uhf"])),
    )


@settings(max_examples=25, deadline=None, derandomize=True)
@given(spec=relaxed_towers())
def test_corner_recovery_matches_ambient_oracle_on_random_towers(spec):
    """(a, b) of the construction with zero coupling elements: towers this small
    cannot carry the row-encoded couplings, but extraction, ladders, stabilizer
    and the chained decompression see the same corner structure."""
    model = build_tower(spec)
    dim = model.ambient_dim
    zero = np.zeros((dim, dim), dtype=np.complex128)
    plan = build_ab(
        model, [(None, corner_projection(model, n), zero, 1.0, None) for n in range(1, model.depth + 1)]
    )
    with ambient_oracle():
        oracle = recover_all(spec.block_shapes, plan.gen_a, plan.gen_b)
    assert_same_recovery(recover_all(spec.block_shapes, plan.gen_a, plan.gen_b), oracle)
