"""The construction on presets and on random towers, and against a dense oracle.

The oracle is the construction written with dense unit products: every
unit, corner and prefix is a d x d matrix read through ``unit`` and
multiplied.  Products with 0/1 partial permutations are exact, so the
construction, which gathers, scatters and masks instead, must give the
same bits.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import towergen.twogen as twogen
from towergen.cli import resolve_tower_spec
from towergen.errors import (
    DegenerateWitness,
    DimensionMismatch,
    InsufficientSubrank,
    NonFiniteValue,
)
from towergen.linalg import hermitian_part, identity, op_norm
from towergen.recovery import round_trip
from towergen.tower import (
    RECIPES,
    CommutantWitness,
    TowerSpec,
    _leading_part,
    build_tower,
    index_set_cardinality,
    leading_norm,
    witnesses_at_level,
)
from towergen.twogen import (
    build_ab,
    build_plan,
    build_z,
    conjugated_element,
    coordinate_mask,
    corner_mask,
    coupling_row,
    coupling_target,
    diag_coefficient,
    index_atoms,
    product_norm,
    verify_facts,
)

from conftest import relaxed_towers, same_bits, small_towers


def dense_corner(model, level):
    """p_n = sum_s e_{k_s k_s}, from dense units."""
    block = model.blocks[level - 1]
    return sum(block.unit(s, k, k) for s, k in enumerate(block.shape, start=1))


def dense_conjugated_element(model, atom, y):
    """e_{k_s,i} ... y ... e_{j,k_t}, one dense product per level the atom spans."""
    out = y
    for block, (i, s, j, t) in zip(model.blocks, atom):
        out = block.unit(s, block.shape[s - 1], i) @ out @ block.unit(t, j, block.shape[t - 1])
    return out


def product_atoms(shapes, level):
    """Index atoms below ``level`` as itertools.product enumerates them: each
    level's (i, s, j, t) choices sorted by (s, i, t, j), level 1 most significant."""
    per_level = []
    for shape in shapes[: level - 1]:
        pairs = [(i, s) for s, k in enumerate(shape, start=1) for i in range(1, k + 1)]
        choices = [[i, s, j, t] for i, s in pairs for j, t in pairs]
        per_level.append(sorted(choices, key=lambda e: (e[1], e[0], e[3], e[2])))
    return [list(combo) for combo in itertools.product(*per_level)]


def dense_build_z(model, witness, level):
    """(z_n, scale): e_22 y at level 1, else the sum of e_{row,row+1} conj plus
    its adjoint over generators, atoms and blocks, normalized."""
    shapes = model.spec.block_shapes
    target = 2.0 ** (-(sum(len(s) for s in shapes[:level]) + 1))
    block = model.blocks[level - 1]
    blocks = range(1, len(block.shape) + 1)
    total = np.zeros((model.ambient_dim,) * 2, dtype=np.complex128)
    if level == 1:
        for s in blocks:
            total += block.unit(s, 2, 2) @ witness.approximants[0]
    else:
        atoms = index_atoms(shapes, level)
        for j in range(1, min(level, len(model.generators)) + 1):
            for idx, atom in enumerate(atoms):
                conj = dense_conjugated_element(model, atom, witness.approximants[j - 1])
                row = coupling_row(len(atoms), j, idx)
                for s in blocks:
                    term = block.unit(s, row, row + 1) @ conj
                    total += term + term.conj().T
    scale = target / op_norm(total)
    return hermitian_part(scale * total), scale


def dense_build_ab(model, couplings):
    """(a, b, [(a_n, b_n)]) from dense first-column units, ladders and corner prefixes."""
    shapes = model.spec.block_shapes
    dim = model.ambient_dim
    prefix = identity(dim)
    gen_a = np.zeros((dim, dim), dtype=np.complex128)
    gen_b = np.zeros((dim, dim), dtype=np.complex128)
    terms = []
    for n, coupling in enumerate(couplings, start=1):
        block = model.blocks[n - 1]
        diag = np.zeros((dim, dim), dtype=np.complex128)
        ladder = np.zeros((dim, dim), dtype=np.complex128)
        for s, k_s in enumerate(shapes[n - 1], start=1):
            diag += diag_coefficient(shapes, n, s) * block.unit(s, 1, 1)
            for i in range(1, k_s):
                ladder += block.unit(s, i, i + 1) + block.unit(s, i + 1, i)
        a_n = hermitian_part(prefix @ diag + coupling)
        b_n = hermitian_part(2.0 ** (-2 * n) * (prefix @ ladder))
        terms.append((a_n, b_n))
        gen_a += a_n
        gen_b += b_n
        prefix = prefix @ dense_corner(model, n)
    return hermitian_part(gen_a), hermitian_part(gen_b), terms


def dense_projection_facts(plan):
    """The measured values of the ``verify_facts`` rows that project, from dense products."""
    model = plan.model
    eye = identity(model.ambient_dim)
    prefix = eye
    f1 = f2 = first = comp = 0.0
    for lv in plan.levels:
        z, p = lv.coupling, dense_corner(model, lv.level)
        f1 = max(f1, op_norm(p @ z), op_norm(z @ p))
        for blk in model.blocks[: lv.level]:
            for s in range(1, len(blk.shape) + 1):
                e11 = blk.unit(s, 1, 1)
                f2 = max(f2, op_norm(z @ e11), op_norm(e11 @ z))
        blk = model.blocks[lv.level - 1]
        for s in range(1, len(blk.shape) + 1):
            first = max(first, op_norm(p @ blk.unit(s, 1, 1)))
        sandwich = (eye - p) @ prefix
        comp = max(comp, op_norm(sandwich @ z @ sandwich.conj().T - z))
        prefix = prefix @ p
    e11 = model.blocks[0].unit(1, 1, 1)
    return {
        "corner_annihilates_coupling": f1,
        "coupling_kills_first_columns": f2,
        "corner_kills_first_column": first,
        "coupling_compression_identity": comp,
        "leading_complement_margin": op_norm((eye - e11) @ (2.0 * plan.gen_a) @ (eye - e11)),
    }


def assert_plan_matches_dense_oracle(plan):
    """Totals, level terms and the projecting fact rows equal the oracle's bits."""
    gen_a, gen_b, terms = dense_build_ab(plan.model, [lv.coupling for lv in plan.levels])
    assert same_bits(plan.gen_a, gen_a) and same_bits(plan.gen_b, gen_b)
    for lv, (a_n, b_n) in zip(plan.levels, terms):
        assert same_bits(lv.diag_term, a_n) and same_bits(lv.ladder_term, b_n)
    measured = {row.name: row.measured for row in verify_facts(plan).rows}
    for name, value in dense_projection_facts(plan).items():
        assert measured[name] == value, name


def random_hermitian(rng, dim):
    return hermitian_part(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


@st.composite
def coupled_towers(draw):
    """Relaxed towers that carry the coupling, each with a two- or three-block
    level: one level of 2-3 blocks of size 3-6, or a (3,) level under two
    blocks of g * 9 + 3 to g * 9 + 5 rows for g generators (d at most 138)."""
    generators = draw(st.integers(min_value=1, max_value=2))
    if draw(st.booleans()):
        shapes = (tuple(draw(st.lists(st.integers(3, 6), min_size=2, max_size=3))),)
    else:
        top = st.integers(generators * 9 + 3, generators * 9 + 5)
        shapes = ((3,), tuple(draw(st.lists(top, min_size=2, max_size=2))))
    return TowerSpec(
        block_shapes=shapes, num_generators=generators, mode="relaxed",
        generator_seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        generator_recipe=draw(st.sampled_from(sorted(RECIPES))),
    )


# A (3, 3) level under the coupled one: atoms that pair two different lower blocks.
TWO_BLOCK_LOWER = TowerSpec(block_shapes=((3, 3), (39,)), mode="relaxed")


@settings(max_examples=12, deadline=None, derandomize=True)
@given(spec=coupled_towers())
@example(spec=TWO_BLOCK_LOWER)
def test_construction_matches_dense_oracle(spec):
    model = build_tower(spec)
    plan = build_plan(model)
    for lv in plan.levels:
        coupling, scale = dense_build_z(model, witnesses_at_level(model, lv.level), lv.level)
        assert same_bits(lv.coupling, coupling) and lv.coupling_scale == scale
    assert_plan_matches_dense_oracle(plan)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(spec=relaxed_towers(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_assembly_matches_dense_oracle_on_random_towers(spec, seed):
    """Towers this small cannot carry the row-encoded couplings, so random
    Hermitian matrices stand in for them.  Every index atom's conjugated
    element of a random Hermitian y is checked too, by value: where the
    dense chain multiplies an entry by 0 it may leave -0.0, the gather +0.0."""
    model = build_tower(spec)
    rng = np.random.default_rng(seed)
    dim = model.ambient_dim
    couplings = [random_hermitian(rng, dim) for _ in range(model.depth)]
    assert_plan_matches_dense_oracle(build_ab(model, [(None, z, 1.0) for z in couplings]))
    y = random_hermitian(rng, dim)
    everything, some = np.arange(dim), rng.permutation(dim)[: dim // 2]
    for level in range(2, model.depth + 1):
        for atom in index_atoms(spec.block_shapes, level):
            dense = dense_conjugated_element(model, atom, y)
            assert np.array_equal(conjugated_element(model, atom, y, everything), dense)
            assert np.array_equal(conjugated_element(model, atom, y, some), dense[some])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spec=small_towers())
def test_index_atoms_match_product_enumeration(spec):
    shapes = spec.block_shapes
    for level in range(2, len(shapes) + 1):
        atoms = index_atoms(shapes, level)
        assert atoms.shape == (index_set_cardinality(shapes, level), level - 1, 4)
        assert atoms.tolist() == product_atoms(shapes, level)


def test_two_block_lower_level_round_trips():
    """Couplings built from atoms with s != t come back through recovery."""
    _, report = round_trip(build_plan(build_tower(TWO_BLOCK_LOWER)))
    assert report.passed() and len(report.witness_residuals) == 2


def test_size_one_block_puts_its_corner_on_its_first_column():
    """A 1 x 1 block's corner is its e_11, so p_1 e_11 has norm 1 and the row fails."""
    model = build_tower(TowerSpec(block_shapes=((1, 3),), mode="relaxed"))
    zero = np.zeros((model.ambient_dim,) * 2, dtype=np.complex128)
    plan = build_ab(model, [(None, zero, 1.0)])
    assert_plan_matches_dense_oracle(plan)
    row = {row.name: row for row in verify_facts(plan).rows}["corner_kills_first_column"]
    assert (row.measured, row.passed) == (1.0, False)


def test_corner_projection_single_block(t0_model):
    """p_1 as a mask is the diagonal of the last diagonal unit."""
    p = corner_mask(t0_model.blocks[0])
    assert same_bits(np.diag(p.astype(np.complex128)), t0_model.blocks[0].unit(1, 3, 3))


def test_corner_projection_two_blocks():
    spec = TowerSpec(block_shapes=((3, 4),), num_generators=1, mode="strict", generator_seed=2)
    model = build_tower(spec)
    p = corner_mask(model.blocks[0])
    assert same_bits(np.diag(p.astype(np.complex128)), dense_corner(model, 1))
    assert p.sum() == 2


def test_corner_kills_first_columns(t1_model):
    for level in (1, 2):
        block = t1_model.blocks[level - 1]
        firsts = coordinate_mask(t1_model.ambient_dim, [table[0] for table in block.rows])
        assert not np.any(corner_mask(block) & firsts)


def test_index_atoms_t1(t1_model):
    atoms = index_atoms(t1_model.spec.block_shapes, 2)
    assert atoms.shape == (9, 1, 4)
    assert [coupling_row(len(atoms), 1, idx) for idx in range(9)] == list(range(2, 11))
    # z_n also touches the row after the last atom row; the corner is row 21
    assert coupling_row(len(atoms), 1, 8) + 1 <= 21 - 2


def test_build_z_needs_subrank_at_level_two():
    spec = TowerSpec(block_shapes=((3,), (11,)), num_generators=1, mode="relaxed",
                     generator_seed=2)
    model = build_tower(spec)
    with pytest.raises(InsufficientSubrank, match="needs subrank >= 12 at level 2, got 11"):
        build_z(model, witnesses_at_level(model, 2), 2)


def test_conjugated_element_unit_algebra(t1_model):
    dim = t1_model.ambient_dim
    out = conjugated_element(t1_model, [(1, 1, 1, 1)], identity(dim), np.arange(dim))
    expected = t1_model.blocks[0].unit(1, 3, 3)
    assert op_norm(out - expected) <= 1e-14


def test_conjugated_element_needs_a_lower_level(t1_model):
    empty = np.zeros((0, 4), dtype=np.intp)
    with pytest.raises(DimensionMismatch):
        conjugated_element(t1_model, empty, identity(63), np.arange(63))


def test_conjugated_element_contraction(t1_model):
    rng = np.random.default_rng(8)
    atoms = index_atoms(t1_model.spec.block_shapes, 2)
    y_small = rng.standard_normal((21, 21)) + 1j * rng.standard_normal((21, 21))
    y = np.kron(identity(3), (y_small + y_small.conj().T) / 2)
    for atom in atoms:
        out = conjugated_element(t1_model, atom, y, np.arange(63))
        assert op_norm(out) <= op_norm(y) + 1e-12


def test_conjugated_element_adjoint_reflection(t1_model):
    rng = np.random.default_rng(9)
    y_small = rng.standard_normal((21, 21)) + 1j * rng.standard_normal((21, 21))
    y = np.kron(identity(3), (y_small + y_small.conj().T) / 2)
    lhs = conjugated_element(t1_model, [(2, 1, 3, 1)], y, np.arange(63)).conj().T
    rhs = conjugated_element(t1_model, [(3, 1, 2, 1)], y, np.arange(63))
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
    with pytest.raises(InsufficientSubrank, match="needs subrank >= 3 at level 1, got 2"):
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
    rows = {row.name: row for row in report.rows}
    assert rows["corner_annihilates_coupling"].measured <= 1e-12
    assert rows["level1.diag_norm_gap"].measured <= 1e-10
    assert rows["level2.diag_norm_gap"].measured <= 1e-10
    assert rows["leading_complement_margin"].measured <= 0.5 + 1e-10


def test_verify_facts_level_norms_t1(t1_plan):
    report = verify_facts(t1_plan)
    targets = [(lv.coupling_target, lv.diag_target, lv.ladder_cap) for lv in report.levels]
    assert targets == [(0.25, 0.5, 0.5), (0.125, 0.25, 0.125)]
    for lv, plan_level in zip(report.levels, t1_plan.levels):
        assert lv.ladder_norm == op_norm(plan_level.ladder_term)
        assert lv.coupling_scale == plan_level.coupling_scale
        assert all(row.passed for row in lv.rows())
    assert report.rows[:8] == [*report.levels[0].rows(), *report.levels[1].rows()]


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
    rows = {row.name: row for row in report.rows}
    assert rows["corner_annihilates_coupling"].measured > 0.01


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
    card = len(index_atoms(model.spec.block_shapes, 2))
    assert len(plan.levels[1].witness.approximants) == 2
    assert [coupling_row(card, 1, idx) for idx in range(9)] == list(range(2, 11))
    assert [coupling_row(card, 2, idx) for idx in range(9)] == list(range(11, 20))
    assert coupling_row(card, 2, 8) + 1 == 20  # z_n's last row, one below the corner
    report = verify_facts(plan)
    assert report.passed
    assert op_norm(plan.levels[1].coupling) == pytest.approx(0.125, abs=1e-10)


FACTOR_ONE_PLANS = {"T1": {"preset": "T1"}, "T1b": {"preset": "T1b"}, "T3": {"preset": "T3"}}


@pytest.mark.parametrize("config", list(FACTOR_ONE_PLANS.values()), ids=list(FACTOR_ONE_PLANS))
def test_level_one_terms_are_normed_on_factor_one(monkeypatch, config):
    """build_z's level-1 sum and verify_facts' level-1 coupling, diagonal and
    ladder terms are each bit for bit kron(t_1, I) for leading-factor
    generators, and normed as t_1: within 2e-15 relative of the dense norm.
    The dense 756 x 756 eigensolve of T3's ladder term is itself 1.6e-15
    relative off 0.5 cos(pi / 10), which the factor-1 norm meets to 1e-15."""
    calls = []
    norm = twogen.leading_norm

    def recorded(x, factor_dims):
        calls.append((x, norm(x, factor_dims)))
        return calls[-1][1]

    monkeypatch.setattr(twogen, "leading_norm", recorded)
    model = build_tower(resolve_tower_spec(config))
    plan = build_plan(model)
    level1 = verify_facts(plan).levels[0]
    lv = plan.levels[0]
    assert [x for x, _ in calls[1:]] == [lv.coupling, lv.diag_term, lv.ladder_term]
    assert [n for _, n in calls[1:]] == [level1.coupling_norm, level1.diag_norm, level1.ladder_norm]
    d1 = model.factor_dims[0]
    for x, measured in calls:
        x1 = _leading_part(x, model.factor_dims)
        assert x1 is not None and x1.shape == (d1, d1)
        assert measured == op_norm(x1)
        dense = op_norm(x)
        assert abs(measured - dense) <= 2e-15 * dense
    assert lv.coupling_scale == coupling_target(model.spec.block_shapes, 1) / calls[0][1]
    # b_1 = 2^-2 kron(L, I), L the d_1 x d_1 path adjacency of norm 2 cos(pi / (d_1 + 1))
    assert abs(level1.ladder_norm - 0.5 * np.cos(np.pi / (d1 + 1))) <= 1e-15


def test_uhf_level_one_coupling_takes_the_dense_norm(t1_model):
    """A uhf coupling is not kron(t_1, I), so it is normed whole, with its bits."""
    model = build_tower(replace(t1_model.spec, generator_recipe="uhf"))
    plan = build_plan(model)
    coupling = plan.levels[0].coupling
    assert _leading_part(coupling, model.factor_dims) is None
    assert leading_norm(coupling, model.factor_dims) == op_norm(coupling)
    assert verify_facts(plan).levels[0].coupling_norm == op_norm(coupling)


ORTHOGONALITY_PLANS = {
    "T1": {"preset": "T1"},
    "T1b": {"preset": "T1b"},
    "T1-relaxed-g2": {"preset": "T1", "mode": "relaxed", "generators": 2},
    "3-3-39": {"shapes": [[3, 3], [39]], "mode": "relaxed"},
    "T2": {"preset": "T2"},
}


def dense_orthogonality(levels, term):
    """Largest norm of the dense products of two levels' ``term``, in both orders."""
    out = 0.0
    for la, lb in itertools.combinations(levels, 2):
        left, right = getattr(la, term), getattr(lb, term)
        out = max(out, op_norm(left @ right), op_norm(right @ left))
    return out


@pytest.mark.parametrize(
    "config", list(ORTHOGONALITY_PLANS.values()), ids=list(ORTHOGONALITY_PLANS)
)
def test_orthogonality_rows_match_the_dense_products(config):
    """The presets' level terms have disjoint supports, so every product reads
    0.0 with no product formed, the norm of the dense product."""
    plan = build_plan(build_tower(resolve_tower_spec(config)))
    rows = {row.name: row.measured for row in verify_facts(plan).rows}
    for name, term in (
        ("couplings_mutually_orthogonal", "coupling"),
        ("diag_terms_mutually_orthogonal", "diag_term"),
    ):
        assert rows[name] == dense_orthogonality(plan.levels, term) == 0.0
        for la, lb in itertools.permutations(plan.levels, 2):
            left, right = getattr(la, term), getattr(lb, term)
            assert (left != 0).any(axis=0) @ (right != 0).any(axis=1) == 0
            assert product_norm(left, right) == op_norm(left @ right)


def test_overlapping_level_terms_take_the_dense_product(t1_plan):
    """Level terms whose supports meet are multiplied and normed as before."""
    la, lb = t1_plan.levels
    mixed = replace(
        lb, coupling=lb.coupling + 0.01 * la.coupling, diag_term=lb.diag_term + 0.01 * la.diag_term
    )
    plan = replace(t1_plan, levels=[la, mixed])
    rows = {row.name: row.measured for row in verify_facts(plan).rows}
    for name, term in (
        ("couplings_mutually_orthogonal", "coupling"),
        ("diag_terms_mutually_orthogonal", "diag_term"),
    ):
        assert rows[name] == dense_orthogonality(plan.levels, term) > 1e-4


def test_product_norm_reads_zero_only_for_disjoint_finite_supports():
    """e_01 e_12 = e_02: the left's column 1 meets the right's row 1, so the
    product is formed, though the left's rows and the right's columns are
    disjoint.  Disjoint supports with a non-finite factor keep the dense
    product too, whose 0 * inf raises, as before."""
    e01, e12 = np.zeros((3, 3), dtype=complex), np.zeros((3, 3), dtype=complex)
    e01[0, 1] = e12[1, 2] = 1.0
    assert product_norm(e01, e12) == op_norm(e01 @ e12) == 1.0
    assert product_norm(e12, e01) == op_norm(e12 @ e01) == 0.0
    left = np.diag([1.0, 0.0]).astype(complex)
    right = np.array([[0.0, 0.0], [np.inf, 0.0]], dtype=complex)
    with pytest.raises(NonFiniteValue), np.errstate(invalid="ignore"):
        product_norm(left, right)
    assert product_norm(left, np.nan_to_num(right, posinf=1.0)) == 0.0
