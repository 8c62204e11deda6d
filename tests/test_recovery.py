import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

import towergen.recovery as recovery
from towergen.cli import resolve_tower_spec
from towergen.closure import distance_to_span, subalgebra_closure
from towergen.errors import DimensionMismatch, LadderBreakdown, NoSpectralGap, NonFiniteValue
from towergen.linalg import eigh, hermitian_part, identity, max_distance, op_norm
from towergen.recovery import (
    RecoveredLevel,
    RecoveryTrace,
    extract_corner_bases,
    ladder_units,
    recover_all,
    recover_next_level,
    reconstruct_witness,
    round_trip,
)
from towergen.presets import preset_spec
from towergen.stabilize import stabilize_units
from towergen.tower import TowerSpec, build_tower
from towergen.twogen import (
    build_ab,
    build_plan,
    coupling_row,
    diag_coefficient,
    index_atoms,
)
from towergen.units import MatrixUnitSystem, canonical_units

from conftest import dense_units, relaxed_towers, same_bits


def test_extract_diagonal_model():
    a = np.diag([0.5, 0.25]).astype(complex)
    trace = RecoveryTrace()
    (basis,) = extract_corner_bases(a, [0.5], 1, trace)
    assert np.allclose(basis @ basis.conj().T, np.diag([1.0, 0.0]), atol=1e-15)
    assert [(e.name, e.residual) for e in trace.steps] == [
        ("extract_l1_b1", 0.0), ("complement_l1_b1", 0.5)
    ]


@pytest.mark.parametrize("top", [1.0 - 1e-6, 1.0 + 1e-6])
def test_extract_cluster_off_one_spans_e1(top):
    """Repeated squaring decays a cluster at 1 - 1e-6 to zero and overflows one
    at 1 + 1e-6; both sit well inside CLUSTER_HALFWIDTH."""
    trace = RecoveryTrace()
    (basis,) = extract_corner_bases(np.diag([top, 0.5, 0.1]).astype(complex), [1.0], 1, trace)
    assert basis.shape == (3, 1)
    assert op_norm(basis @ basis.conj().T - np.diag([1.0, 0.0, 0.0])) <= 1e-15
    assert trace.steps[0].residual == pytest.approx(1e-6, rel=1e-9)


def test_extract_t1_leading_unit(t1_plan):
    model = t1_plan.model
    (basis,) = extract_corner_bases(t1_plan.gen_a, [0.5], 1, RecoveryTrace())
    e = basis @ basis.conj().T
    assert op_norm(e - model.blocks[0].unit(1, 1, 1)) <= 1e-8
    # spectral projections of a commute with a
    assert op_norm(e @ t1_plan.gen_a - t1_plan.gen_a @ e) <= 1e-9


def test_extract_second_block_scale_four():
    spec = TowerSpec(block_shapes=((3, 4),), num_generators=1, mode="strict", generator_seed=2)
    model = build_tower(spec)
    plan = build_plan(model)
    bases = extract_corner_bases(plan.gen_a, [0.5, 0.25], 1, RecoveryTrace())
    for s, basis in enumerate(bases, start=1):
        assert op_norm(basis @ basis.conj().T - model.blocks[0].unit(s, 1, 1)) <= 1e-8


def test_extract_no_gap():
    with pytest.raises(NoSpectralGap, match="no eigenvalue cluster"):
        extract_corner_bases(np.diag([0.6, 0.5]).astype(complex), [1.0], 1, RecoveryTrace())
    for rest in (-1.0, 0.8):  # far from 1, but too close for the complement bound
        with pytest.raises(NoSpectralGap, match="complement spectrum"):
            extract_corner_bases(np.diag([1.0, rest]).astype(complex), [1.0], 1, RecoveryTrace())
    with pytest.raises(NoSpectralGap, match="extract_l1_b2: no eigenvalue cluster"):
        # block 2 may not reuse the eigenvalue block 1 took
        extract_corner_bases(np.diag([1.0, 0.25]).astype(complex), [1.0, 1.0], 1, RecoveryTrace())


def test_extract_non_finite_input_fails_closed():
    with pytest.raises(NonFiniteValue):
        extract_corner_bases(np.diag([1.0, np.nan, 0.2]).astype(complex), [1.0], 1, RecoveryTrace())


def test_ladder_t0_exact(t0_plan):
    model = t0_plan.model
    trace = RecoveryTrace()
    bases = extract_corner_bases(t0_plan.gen_a, [0.5], 1, trace)
    system = ladder_units(bases, t0_plan.gen_b, (3,), 1, trace=trace)
    assert [step.name for step in trace.steps] == [
        "extract_l1_b1", "complement_l1_b1", "ladder_l1_b1_r1", "ladder_l1_b1_r2"
    ]
    for key in model.blocks[0].keys():
        assert op_norm(system.unit(*key) - model.blocks[0].unit(*key)) <= 1e-10


def test_ladder_t1_level1(t1_plan):
    model = t1_plan.model
    trace = RecoveryTrace()
    bases = extract_corner_bases(t1_plan.gen_a, [0.5], 1, trace)
    system = ladder_units(bases, t1_plan.gen_b, (3,), 1, trace=trace)
    for key in model.blocks[0].keys():
        assert op_norm(system.unit(*key) - model.blocks[0].unit(*key)) <= 1e-6


def test_ladder_zero_b(t0_plan):
    bases = extract_corner_bases(t0_plan.gen_a, [0.5], 1, RecoveryTrace())
    with pytest.raises(LadderBreakdown):
        ladder_units(bases, np.zeros((3, 3), dtype=complex), (3,), 1, RecoveryTrace())


def test_ladder_rung_drops_singular_values_at_the_cutoff():
    """X = 4 F_1^* b (I - F_1 F_1^*) with singular values 1 and 0.3: F_2 keeps
    the direction above the cutoff 1/2, and the rung's residual is the
    largest dropped singular value."""
    basis = identity(4)[:, :2]
    b = np.zeros((4, 4), dtype=complex)
    b[:2, 2:] = np.diag([1.0, 0.3]) / 4
    b = b + b.conj().T
    trace = RecoveryTrace()
    system = ladder_units([basis], b, (2,), 1, trace=trace)
    f2 = system.factors[0][1]
    assert op_norm(f2 - identity(4)[:, [2, 3]] @ np.diag([1.0, 0.0])) <= 1e-15
    assert trace.steps[-1].residual == pytest.approx(0.3, abs=1e-15)


def per_rung_ladder(bases, b_effective, shape, level, trace):
    """Reference for ``ladder_units``: per rung, the chain concatenated anew
    and a LAPACK ``eigh`` of X X^* at every m, 1 x 1 included."""
    factors = []
    for s, (basis, k_s) in enumerate(zip(bases, shape), start=1):
        chain = [basis]
        for i in range(1, k_s):
            covered = np.concatenate(chain, axis=1)
            x = 4.0**level * (chain[-1].conj().T @ b_effective)
            x = x - (x @ covered) @ covered.conj().T
            w, u = np.linalg.eigh(x @ x.conj().T)
            sv = np.sqrt(np.maximum(w, 0.0))
            keep = sv > 0.5
            misfit = np.concatenate([np.abs(sv[keep] - 1.0), sv[~keep]])
            trace.add(f"ladder_l{level}_b{s}_r{i}", 1, float(np.max(misfit)))
            chain.append(x.conj().T @ ((u[:, keep] / sv[keep]) @ u[:, keep].conj().T))
        factors.append(np.stack(chain))
    return factors


def array_ladder(bases, b_effective, shape, level, trace):
    """Reference for ``ladder_units``'s rank-one rungs: every rung on arrays,
    its singular values, breakdown test, cutoff and misfit from ``eigh``'s
    eigenvalues whatever m, and each rung's label formed before its eigensolve."""
    dim = b_effective.shape[0]
    factors = []
    for s, (basis, k_s) in enumerate(zip(bases, shape), start=1):
        m = basis.shape[1]
        covered = np.ascontiguousarray(basis)
        for i in range(1, k_s):
            label = f"level {level} block {s}: rung {i}->{i + 1}"
            x = 4.0**level * (covered[:, -m:].conj().T @ b_effective)
            x = x - (x @ covered) @ covered.conj().T
            w, u = eigh(x @ x.conj().T, f"{label} eigensolve")
            sv = np.sqrt(np.maximum(w, 0.0))
            if sv[-1] < 1e-8:
                raise LadderBreakdown(f"{label} has norm {sv[-1]:.2e}")
            keep = sv > 0.5
            misfit = np.abs(np.where(keep, sv - 1.0, sv)).max()
            trace.add(f"ladder_l{level}_b{s}_r{i}", 1, misfit)
            kept = u[:, keep]
            grown = x.conj().T @ ((kept / sv[keep]) @ kept.conj().T)
            covered = np.concatenate([covered, grown], axis=1)
        factors.append(np.ascontiguousarray(covered.reshape(dim, k_s, m).transpose(1, 0, 2)))
    return factors


def ladder_calls(plan):
    """The arguments of every ``ladder_units`` call of a round trip of ``plan``."""
    calls = []

    def record(bases, b_effective, shape, level, trace):
        calls.append((bases, b_effective, shape, level))
        return ladder_units(bases, b_effective, shape, level, trace)

    with mock.patch.object(recovery, "ladder_units", record):
        recover_all(plan.model.spec.block_shapes, plan.gen_a, plan.gen_b)
    assert len(calls) == plan.model.depth
    return calls


def plan_of(config):
    return build_plan(build_tower(resolve_tower_spec(config)))


def assert_ladder_matches(args, oracle):
    got, want = RecoveryTrace(), RecoveryTrace()
    factors = ladder_units(*args, trace=got).factors
    expected = oracle(*args, trace=want)
    assert len(factors) == len(expected)
    assert all(same_bits(f, g) for f, g in zip(factors, expected))
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())


@pytest.mark.parametrize("seed", [0, 1, 901])
@pytest.mark.parametrize("k", range(2, 25))
def test_rank_one_rungs_match_the_array_oracle(k, seed):
    """Rank-one rungs on floats keep the array code's products: factor bytes and
    trace alike on every ladder of [[k]] for k = 2..24.  [[2]] has no room for a
    coupling (subrank 2 < 3), so its (a, b) carry a zero one."""
    if k == 2:
        plan = zero_coupling_plan(
            TowerSpec(block_shapes=((2,),), mode="relaxed", generator_seed=seed)
        )
    else:
        plan = plan_of({"shapes": [[k]], "seed": seed})
    for args in ladder_calls(plan):
        assert_ladder_matches(args, array_ladder)


@pytest.mark.parametrize("preset", ["T0", "T1b", "T1"])
def test_ladders_of_the_presets_match_the_array_oracle(preset):
    """T0's rank-one rungs, and T1b's and T1's levels, whose level-2 rungs have m > 1."""
    for args in ladder_calls(plan_of({"preset": preset})):
        assert_ladder_matches(args, array_ladder)


def _two_block_ladder(weak):
    """Blocks e_1 -> e_2 and e_3 -> e_4 -> e_5 of b, each link 1/4 but the last,
    which is ``weak``: block 2's rung 2->3 has norm 4 |weak|."""
    b = np.zeros((5, 5), dtype=complex)
    b[0, 1] = b[2, 3] = 0.25
    b[3, 4] = weak
    b = b + b.conj().T
    return [identity(5)[:, [0]], identity(5)[:, [2]]], b, (2, 3), 1


@pytest.mark.parametrize("weak", [0.0, -0.0, 1e-300, 2.4e-9, 2.6e-9, 0.1, 0.2, 0.3])
def test_rank_one_rungs_break_down_as_the_array_oracle(weak):
    """Below 1e-8 a rung raises the oracle's LadderBreakdown text; above it,
    dropped at the cutoff or kept below or above 1, it gives the oracle's factors
    and trace."""
    args = _two_block_ladder(weak)
    if 4 * weak >= 1e-8:
        assert_ladder_matches(args, array_ladder)
        return
    with pytest.raises(LadderBreakdown) as want:
        array_ladder(*args, trace=RecoveryTrace())
    with pytest.raises(LadderBreakdown) as got:
        ladder_units(*args, trace=RecoveryTrace())
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("level 1 block 2: rung 2->3 has norm ")


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf in X
def test_rank_one_rung_with_non_finite_x_fails_as_the_array_oracle(bad):
    """A non-finite entry of b reaches the first rung's X through F_1^* b."""
    args = _two_block_ladder(bad)
    with pytest.raises(NonFiniteValue) as want:
        array_ladder(*args, trace=RecoveryTrace())
    with pytest.raises(NonFiniteValue) as got:
        ladder_units(*args, trace=RecoveryTrace())
    assert str(got.value) == str(want.value)
    assert str(got.value) == "level 1 block 1: rung 1->2 eigensolve: input has non-finite entries"


@pytest.mark.parametrize(
    "config",
    [{"preset": "T0"}, {"shapes": [[24]]}, {"shapes": [[4], [19]], "mode": "relaxed"},
     {"shapes": [[3, 3], [39]], "mode": "relaxed"}],
    ids=["T0", "d24", "relaxed-4-19", "relaxed-33-39"],
)
def test_ladder_matches_the_per_rung_oracle(config):
    """Every ladder a round trip runs, m = 19 and two-block levels included,
    gives the oracle's factor bytes and trace."""
    for args in ladder_calls(plan_of(config)):
        assert_ladder_matches(args, per_rung_ladder)


def test_recover_next_level_t1(t1_plan):
    model = t1_plan.model
    shapes = model.spec.block_shapes
    level1 = recover_next_level(shapes, [], t1_plan.gen_a, t1_plan.gen_b)
    level2 = recover_next_level(shapes, [level1], t1_plan.gen_a, t1_plan.gen_b)
    stored = model.blocks[1].unit(1, 1, 1)
    assert op_norm(level2.units.unit(1, 1, 1) - stored) <= 1e-6


def test_recover_corrupted_level1(t1_plan):
    """A level 1 that cuts out no corner leaves level 2 an empty matrix to extract from."""
    model = t1_plan.model
    dim = model.ambient_dim
    zeroed = RecoveredLevel(
        level=1,
        units=MatrixUnitSystem((3,), dim, np.zeros((9, dim, dim), complex)),
        corner_basis=np.zeros((dim, 0), dtype=complex),
        coupling=np.zeros((dim, dim), dtype=complex),
        trace=RecoveryTrace(),
    )
    with pytest.raises(NoSpectralGap, match="extract_l2: empty matrix"):
        recover_next_level(model.spec.block_shapes, [zeroed], t1_plan.gen_a, t1_plan.gen_b)


def test_round_trip_t0(t0_plan):
    _, report = round_trip(t0_plan)
    assert report.passed()
    assert max(report.unit_residuals) <= 1e-6
    assert max(report.witness_residuals) <= 1e-8


def test_round_trip_t2():
    """The d = 364 preset: 52 level-2 units, recovered without dense level units."""
    _, report = round_trip(build_plan(build_tower(preset_spec("T2"))))
    assert report.passed()
    assert len(report.unit_residuals) == 2 and len(report.witness_residuals) == 2


def test_reconstruct_witness_level1(t0_plan):
    lv = t0_plan.levels[0]
    rebuilt = reconstruct_witness(lv.coupling, lv.coupling_scale, [t0_plan.model.blocks[0]], 1)
    assert op_norm(rebuilt - lv.witness.approximants[0]) <= 1e-8


def test_reconstruct_witness_level2(t1_plan):
    lv = t1_plan.levels[1]
    rebuilt = reconstruct_witness(
        lv.coupling,
        lv.coupling_scale,
        [t1_plan.model.blocks[0], t1_plan.model.blocks[1]],
        1,
    )
    assert op_norm(rebuilt - lv.witness.approximants[0]) <= 1e-8


def test_reconstruct_witness_zero_coupling(t1_plan):
    lv = t1_plan.levels[1]
    rebuilt = reconstruct_witness(
        np.zeros_like(lv.coupling),
        lv.coupling_scale,
        [t1_plan.model.blocks[0], t1_plan.model.blocks[1]],
        1,
    )
    assert op_norm(rebuilt) == 0.0


def test_reconstruct_witness_generator_index_range(t1_plan):
    """T1's level 2 (21 rows, 9 atoms) has room for generator 2's rows, which
    hold no witness, but not for generator 3's."""
    lv = t1_plan.levels[1]
    blocks = t1_plan.model.blocks
    assert op_norm(reconstruct_witness(lv.coupling, lv.coupling_scale, blocks, 2)) == 0.0
    for index in (0, 3):
        with pytest.raises(DimensionMismatch, match=f"generator index {index} out of range"):
            reconstruct_witness(lv.coupling, lv.coupling_scale, blocks, index)


def dense_witness(coupling, coupling_scale, units_by_level, j):
    """``reconstruct_witness`` from dense unit reads: every term
    e_{i,row} core e_{row+1,i} (rows 2, 2 at level 1), lifted per index atom
    through each lower level as e_{i,k_s} . e_{k_t,j}."""
    top = units_by_level[-1]
    core = coupling / coupling_scale
    level = len(units_by_level)

    def term(row):
        return sum(
            top.unit(s, i, row) @ core @ top.unit(s, row + (level > 1), i)
            for s, k_s in enumerate(top.shape, start=1)
            for i in range(1, k_s + 1)
        )

    if level == 1:
        return hermitian_part(term(2))
    out = np.zeros_like(coupling)
    atoms = index_atoms([u.shape for u in units_by_level], level)
    for idx, atom in enumerate(atoms):
        lifted = term(coupling_row(len(atoms), j, idx))
        for blk, (i, s, jj, t) in zip(units_by_level[:-1], atom):
            lifted = blk.unit(s, i, blk.shape[s - 1]) @ lifted @ blk.unit(t, blk.shape[t - 1], jj)
        out += lifted
    return hermitian_part(out)


@pytest.mark.parametrize("shapes", [((2, 3),), ((2,), (6, 7)), ((2,), (2,), (18,))])
def test_factored_witness_matches_dense_unit_products(shapes):
    """Exact levels and a top level in rotated factors, with a random coupling."""
    model = build_tower(TowerSpec(block_shapes=shapes, mode="relaxed", generator_seed=3))
    dim = model.ambient_dim
    rng = np.random.default_rng(1)
    coupling = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    coupling = coupling + coupling.conj().T
    top = model.blocks[-1].column_factors()
    q, _ = np.linalg.qr(rng.standard_normal((top[0].shape[2],) * 2) + 0j)
    rotated = MatrixUnitSystem(model.blocks[-1].shape, dim, factors=[f @ q for f in top])
    for blocks in (list(model.blocks), [*model.blocks[:-1], rotated]):
        rebuilt = reconstruct_witness(coupling, 2.0, blocks, 1)
        reference = dense_witness(coupling, 2.0, blocks, 1)
        assert op_norm(rebuilt - reference) <= 1e-13 * op_norm(reference)


def test_closure_identity_only():
    basis = subalgebra_closure([identity(3)])
    assert basis.size == 1
    assert basis.blocks == [(3, 1)]


def test_closure_full_m2():
    gens = list(dense_units(canonical_units([2])))
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
    oracle_gens = list(dense_units(model.blocks[0]))
    oracle_gens += [t0_plan.levels[0].coupling, identity(model.ambient_dim)]
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
        extract_corner_bases(np.zeros((0, 0), dtype=complex), [0.5], 1, RecoveryTrace())


def squaring_projection(a, scale):
    """The paper's extraction, for exact input: the limit of (scale a)^(2^t) by
    repeated squaring, the spectral projection of the eigenvalue-1 cluster
    when the rest of the spectrum lies inside (-1, 1).  A cluster off 1 by
    more than rounding decays or overflows (see
    ``test_extract_cluster_off_one_spans_e1``)."""
    x = hermitian_part(scale * a)
    for _ in range(64):
        nxt = x @ x
        if op_norm(nxt - x) <= 1e-10:
            return hermitian_part(nxt)
        x = nxt
    raise AssertionError("repeated squaring did not converge")


def prefix_basis(projection, label):
    """Orthonormal columns spanning the range of a computed projection, from one
    eigensolve; its spectrum must sit within CLUSTER_HALFWIDTH of 0 or 1."""
    eigs, vecs = np.linalg.eigh(hermitian_part(projection))
    stray = np.minimum(np.abs(eigs), np.abs(eigs - 1.0)) > recovery.CLUSTER_HALFWIDTH
    assert not np.any(stray), f"{label} eigenvalue {eigs[stray][0]:.6f} is neither 0 nor 1"
    return vecs[:, eigs > 0.5]


def corner_prefix(levels, dim):
    """p_1 ... p_n, each level's corner sum_s e_{k_s k_s} read through dense ``unit`` calls."""
    out = identity(dim)
    for lv in levels:
        out = out @ sum(lv.units.unit(s, k, k) for s, k in enumerate(lv.units.shape, start=1))
    return out


def dense_ladder(corners, b, shape, level, trace):
    """The paper's ladder on d x d matrices: rung i -> i+1 is the polar part v
    (an SVD with cutoff 1/2) of 4^level e_ii b (I - covered), and
    F_{i+1} = v^* F_i from F_1 an orthonormal basis of e_11's range."""
    eye = identity(len(b))
    factors = []
    for s, (e11, k_s) in enumerate(zip(corners, shape), start=1):
        chain = [e11 @ prefix_basis(e11, f"level {level} block {s}: e_11")]
        diag, covered = e11, e11.copy()
        for i in range(1, k_s):
            cand = 4.0**level * (diag @ b @ (eye - covered))
            u, sv, vh = np.linalg.svd(cand)
            v = u[:, sv > 0.5] @ vh[sv > 0.5]
            trace.add(f"ladder_l{level}_b{s}_r{i}", 1, op_norm(cand - v))
            chain.append(v.conj().T @ chain[-1])
            diag = v.conj().T @ v
            covered = covered + diag
        factors.append(np.stack(chain))
    return MatrixUnitSystem(shape=shape, ambient_dim=len(b), factors=factors)


def ambient_recover_next_level(shapes, recovered, a, b):
    """Level n recovered at ambient dimension by the paper's recipe: repeated
    squaring extracts each e_11 from a with the earlier blocks stripped,
    dense polar rungs build the ladder, the stabilizer runs on the ladder's
    factors compressed to the range of the corner prefix (where they are
    unital, as the stabilizer requires), the factors are lifted through the lower levels' dense units
    e_{i,k_s}, the corner and coupling are read from dense units and the
    corner basis comes from an eigensolve of the corner prefix.  The
    reference the corner-compressed, factor-lifted ``recover_next_level``
    must match on exact input."""
    n = len(recovered) + 1
    shape = shapes[n - 1]
    dim = a.shape[0]
    eye = identity(dim)
    prefix = corner_prefix(recovered, dim)
    a_eff = hermitian_part(prefix @ a @ prefix)
    b_eff = hermitian_part(prefix @ b @ prefix)
    trace = RecoveryTrace()
    corners = []
    stripped = a_eff
    for s in range(1, len(shape) + 1):
        e11 = squaring_projection(stripped, 1.0 / diag_coefficient(shapes, n, s))
        # step names only: ``assert_same_recovery`` does not compare the margins
        trace.add(f"extract_l{n}_b{s}", 1, 0.0)
        trace.add(f"complement_l{n}_b{s}", 1, 0.0)
        corners.append(e11)
        comp = eye - e11
        stripped = hermitian_part(comp @ stripped @ comp)
    candidate = dense_ladder(corners, b_eff, shape, n, trace)
    inside = prefix_basis(prefix, f"level {n}: corner prefix")
    compressed = [inside.conj().T @ f for f in candidate.factors]
    stabilized, moved = stabilize_units(
        MatrixUnitSystem(shape=shape, ambient_dim=inside.shape[1], factors=compressed)
    )
    trace.add(f"stabilize_l{n}", 1, moved)
    chains = [eye]
    for lv, lower in zip(recovered, shapes[: n - 1]):
        chains = [
            lv.units.unit(s, i, k_s) @ c
            for s, k_s in enumerate(lower, start=1)
            for i in range(1, k_s + 1)
            for c in chains
        ]
    factors = [
        np.concatenate([c @ inside @ f for c in chains], axis=2) for f in stabilized.factors
    ]
    ambient_units = MatrixUnitSystem(shape=shape, ambient_dim=dim, factors=factors)
    corner = sum(ambient_units.unit(s, k_s, k_s) for s, k_s in enumerate(shape, start=1))
    inner = (eye - corner) @ a_eff @ (eye - corner)
    diag_sum = np.zeros_like(inner)
    for s in range(1, len(shape) + 1):
        diag_sum += diag_coefficient(shapes, n, s) * (prefix @ ambient_units.unit(s, 1, 1))
    coupling = hermitian_part(inner - diag_sum)
    basis = prefix_basis(prefix @ corner, f"level {n}: corner prefix")
    return RecoveredLevel(
        level=n, units=ambient_units, corner_basis=basis, coupling=coupling, trace=trace
    )


def assert_same_recovery(result, oracle):
    assert len(result.levels) == len(oracle.levels)
    for lv, ref in zip(result.levels, oracle.levels):
        assert [e.name for e in lv.trace.steps] == [e.name for e in ref.trace.steps]
        keys = ref.units.keys()
        assert lv.units.keys() == keys
        mine, theirs = (np.stack([u.unit(*k) for k in keys])[None] for u in (lv.units, ref.units))
        assert max_distance(mine, theirs)[0] <= 1e-12
        assert op_norm(lv.coupling - ref.coupling) <= 1e-12
        v, w = lv.corner_basis, ref.corner_basis
        assert op_norm(v @ v.conj().T - w @ w.conj().T) <= 1e-12


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


def zero_coupling_plan(spec):
    """(a, b) of the construction on the spec's tower with every coupling element zero."""
    model = build_tower(spec)
    zero = np.zeros((model.ambient_dim,) * 2, dtype=np.complex128)
    return build_ab(model, [(None, zero, 1.0) for _ in range(model.depth)])


@pytest.mark.parametrize(
    "plan_of",
    [
        lambda: build_plan(build_tower(preset_spec("T1b"))),
        lambda: build_plan(build_tower(resolve_tower_spec(
            {"preset": "T1", "mode": "relaxed", "generators": 2}
        ))),
        lambda: zero_coupling_plan(TowerSpec(block_shapes=((2,), (3,), (2, 2)), mode="relaxed")),
    ],
    ids=["T1b", "T1-relaxed-g2", "relaxed-2-3-22"],
)
def test_corner_basis_spans_the_product_of_recovered_corners(plan_of):
    """V_{n+1} = V_n L_n has orthonormal columns and spans p_1 ... p_n."""
    plan = plan_of()
    result = recover_all(plan.model.spec.block_shapes, plan.gen_a, plan.gen_b)
    assert len(result.levels) == plan.model.depth
    for n, lv in enumerate(result.levels, start=1):
        v = lv.corner_basis
        assert op_norm(v.conj().T @ v - identity(v.shape[1])) <= 1e-12
        assert op_norm(v @ v.conj().T - corner_prefix(result.levels[:n], len(v))) <= 1e-12


@settings(max_examples=25, deadline=None, derandomize=True)
@given(spec=relaxed_towers())
def test_corner_recovery_matches_ambient_oracle_on_random_towers(spec):
    """(a, b) of the construction with zero coupling elements: towers this small
    cannot carry the row-encoded couplings, but extraction, ladders, stabilizer
    and the chained decompression see the same corner structure."""
    plan = zero_coupling_plan(spec)
    with ambient_oracle():
        oracle = recover_all(spec.block_shapes, plan.gen_a, plan.gen_b)
    assert_same_recovery(recover_all(spec.block_shapes, plan.gen_a, plan.gen_b), oracle)
