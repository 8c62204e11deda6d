import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import towergen.units as units_module
from towergen.errors import DimensionMismatch, NonFiniteValue
from towergen.linalg import _frobenius_norms, identity, op_norm
from towergen.microstates import haar_unitaries
from towergen.stabilize import perturb_units, stabilize_units
from towergen.units import (
    MatrixUnitSystem,
    UnitDefects,
    canonical_rows,
    canonical_units,
    rank,
    subrank,
    unit_defects,
)

from conftest import dense_units, densified, diagonal_sum


def test_rank_examples():
    assert rank([2, 3]) == 5
    assert rank([3]) == 3
    assert rank([2, 2, 2]) == 6


def test_subrank_examples():
    assert subrank([2, 3]) == 2
    assert subrank([21]) == 21
    assert subrank([5, 2, 9]) == 2


def test_rank_dominates_subrank():
    shapes = [[2], [7], [2, 3], [4, 4, 4], [1, 9]]
    for shape in shapes:
        assert rank(shape) >= subrank(shape)
        assert (rank(shape) == subrank(shape)) == (len(shape) == 1)


def test_invalid_shapes():
    with pytest.raises(DimensionMismatch):
        rank([])
    with pytest.raises(DimensionMismatch):
        subrank([0, 2])


def reference_defects(system: MatrixUnitSystem) -> UnitDefects:
    """Exhaustive defects: every adjoint pair and every scored ordered product."""
    adjoint = multiplication = 0.0
    keys = system.keys()
    for s, i, j in keys:
        a = system.unit(s, i, j)
        adjoint = max(adjoint, op_norm(a.conj().T - system.unit(s, j, i)))
        for s1, i1, j1 in keys:
            prod = a @ system.unit(s1, i1, j1)
            if s == s1 and j == i1:
                prod = prod - system.unit(s, i, j1)
            multiplication = max(multiplication, op_norm(prod))
    unitality = op_norm(diagonal_sum(system) - identity(system.ambient_dim))
    return UnitDefects(adjoint, unitality, multiplication)


def brute_force_product_table(system: MatrixUnitSystem) -> float:
    """Exhaustive defect of all pairwise product relations."""
    return reference_defects(system).max()


def kron_units(shape, mult):
    """The per-unit construction: E_ij (x) I_c placed on block s's window."""
    dim = sum(c * k for c, k in zip(mult, shape))
    units, offset = {}, 0
    for s, (k, c) in enumerate(zip(shape, mult), start=1):
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                e = np.zeros((k, k))
                e[i - 1, j - 1] = 1.0
                mat = np.zeros((dim, dim), dtype=np.complex128)
                mat[offset : offset + k * c, offset : offset + k * c] = np.kron(e, np.eye(c))
                units[(s, i, j)] = mat
        offset += k * c
    return units


def test_canonical_units_m2_elementary():
    sys2 = canonical_units([2])
    assert np.array_equal(sys2.unit(1, 1, 2), np.array([[0, 1], [0, 0]], dtype=complex))
    assert brute_force_product_table(sys2) <= 1e-15


def test_canonical_units_amplified():
    sys4 = canonical_units([2], (2,))
    for i in range(1, 3):
        for j in range(1, 3):
            assert np.linalg.matrix_rank(sys4.unit(1, i, j)) == 2
    assert np.array_equal(diagonal_sum(sys4), identity(4))
    assert brute_force_product_table(sys4) <= 1e-15


@pytest.mark.parametrize(
    "shape,mult",
    [
        ((2, 3), (1, 1)),
        ((3,), (1,)),
        ((5, 5), (1, 1)),
        ((2, 2, 2), (2, 1, 3)),
        ((4,), (8,)),
    ],
)
def test_canonical_units_product_table(shape, mult):
    target = sum(c * k for c, k in zip(mult, shape))
    assert target <= 32
    system = canonical_units(shape, mult)
    assert brute_force_product_table(system) <= 1e-15


@pytest.mark.parametrize(
    "shape,mult",
    [((1,), (1,)), ((2,), (3,)), ((2, 3), (1, 1)), ((2, 2, 2), (2, 1, 3)), ((3, 1, 4), (1, 5, 2))],
)
def test_canonical_units_match_kron_construction(shape, mult):
    system = canonical_units(shape, mult)
    reference = kron_units(shape, mult)
    assert system.keys() == list(reference)
    for key, mat in reference.items():
        assert system.unit(*key).dtype == mat.dtype
        assert np.array_equal(system.unit(*key), mat)


def test_embedding_validation():
    """One positive multiplicity per block, or DimensionMismatch: a tuple
    too short, too long, or with a zero or negative entry."""
    for mult in [(1,), (1, 1, 1), (1, 0), (-1, 2)]:
        with pytest.raises(DimensionMismatch):
            canonical_units([2, 3], mult)
        with pytest.raises(DimensionMismatch):
            canonical_rows([2, 3], mult)


def test_unit_defects_exact():
    system = canonical_units([2, 3])
    defects = unit_defects(system)
    assert defects.adjoint <= 1e-15
    assert defects.unitality <= 1e-15
    assert defects.multiplication <= 1e-15


def test_unit_defects_perturbed_scaling():
    system = canonical_units([3])
    worst_ratio = 0.0
    for seed in range(10):
        noisy = perturb_units(system, 1e-3, seed)
        defects = unit_defects(noisy)
        worst_ratio = max(worst_ratio, defects.max() / 1e-3)
    assert worst_ratio <= 10.0


def test_unit_defects_non_unital():
    """Every unit of M_2 placed in the corner of M_3: all relations hold but unitality."""
    corner = np.pad(dense_units(canonical_units([2])), ((0, 0), (0, 1), (0, 1)))
    defects = unit_defects(MatrixUnitSystem(shape=(2,), ambient_dim=3, units=corner))
    assert defects == UnitDefects(adjoint=0.0, unitality=1.0, multiplication=0.0)


_MIXED = [
    canonical_units((1, 3, 2), (3, 1, 2)),
    canonical_units((2, 2, 2), (2, 1, 3)),
    canonical_units((4,), (2,)),
]


@pytest.mark.parametrize("exact", _MIXED)
def test_densified_units_are_the_exact_units(exact):
    dense = densified(exact)
    assert dense.keys() == exact.keys()
    assert dense.units.shape == (len(exact.keys()), exact.ambient_dim, exact.ambient_dim)
    for key in exact.keys():
        assert np.array_equal(dense.unit(*key), exact.unit(*key))
    assert not dense.units.flags.writeable
    assert unit_defects(dense) == UnitDefects(0.0, 0.0, 0.0)


def test_dense_stack_of_the_wrong_shape_is_rejected():
    stack = dense_units(canonical_units((2, 3)))  # 13 units of 5 x 5
    for bad in (stack[:-1], stack[:, :4, :4], stack[0], stack[None]):
        with pytest.raises(DimensionMismatch):
            MatrixUnitSystem((2, 3), 5, units=bad)
    with pytest.raises(KeyError):
        MatrixUnitSystem((2, 3), 5, units=stack).unit(1, 3, 1)


@pytest.mark.parametrize(
    "system",
    [
        canonical_units((4, 4, 2), (1, 2, 1)),  # 36 units
        canonical_units((2, 3), (3, 2)),
        canonical_units((5, 5)),
        _MIXED[0],  # a 1 x 1 block among mixed multiplicities
    ],
)
@pytest.mark.parametrize("delta", [0.0, 1e-9, 1e-3, 0.2])
def test_unit_defects_match_all_pairs(system, delta):
    noisy = perturb_units(system, delta, seed=len(system.keys()))
    assert unit_defects(noisy) == reference_defects(noisy)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    blocks=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)), min_size=1, max_size=3),
    delta=st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 0.2]),
    scale=st.sampled_from([1e-60, 1.0, 1e60]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_dense_unit_defects_match_all_pairs_at_any_scale(blocks, delta, scale, seed):
    """Bit for bit against the all-pairs loop.  At delta 0 and 1e-12 the
    Gram-identity bound cannot rule the vanishing products out, so the second
    screen measures them; at every scale the bound covers the Frobenius norm
    of every computed product."""
    shape = tuple(k for k, _ in blocks)
    mult = tuple(c for _, c in blocks)
    noisy = perturb_units(canonical_units(shape, mult), delta, seed)
    system = MatrixUnitSystem(shape, noisy.ambient_dim, units=scale * noisy.units)
    assert unit_defects(system) == reference_defects(system)
    mats = system.units
    products = _frobenius_norms(mats[:, None] @ mats[None])
    assert np.all(units_module._product_bounds(mats) >= products)


def test_noisy_default_sweep_forms_no_vanishing_product(monkeypatch):
    """On the default stabilize-sweep's 60 noisy [5, 5] systems the bound rules
    out all 2250 pairs whose product should vanish: besides the screen of the
    50 adjoint residuals, the one screen per system sees only the 250 pairs
    e_ab e_bc, the only products formed.  On exact and near-rounding input a
    second screen takes all 2250."""
    grids = []
    screen = units_module.screened_max_norm

    def record(rows, cols, dim, residual):
        grids[-1].append(rows * cols)
        return screen(rows, cols, dim, residual)

    monkeypatch.setattr(units_module, "screened_max_norm", record)
    exact = canonical_units((5, 5))
    for delta in (1e-6, 1e-4, 1e-3):
        for s in range(20):
            grids.append([])
            unit_defects(perturb_units(exact, delta, 2024 + 1000 * s + int(1e9 * delta) % 997))
    assert grids == [[50, 250]] * 60
    for delta in (0.0, 1e-12):
        grids.append([])
        unit_defects(perturb_units(exact, delta, 7))
        assert grids[-1] == [50, 250, 2250]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("scale", [1.0, 1e60])
def test_dense_unit_defects_of_a_poisoned_unit_fail_closed(bad, scale):
    poisoned = scale * perturb_units(canonical_units((2, 3)), 1e-3, 4).units
    poisoned[6, 1, 2] = bad  # e_12 of block 2
    with pytest.raises(NonFiniteValue):
        unit_defects(MatrixUnitSystem((2, 3), 5, units=poisoned))


def test_unit_defects_non_finite_fails_closed():
    system = canonical_units([2, 2])
    poisoned = dense_units(system)
    poisoned[5, 0, 0] = np.nan  # e_12 of block 2, after block 1's four units
    with pytest.raises(NonFiniteValue):
        unit_defects(MatrixUnitSystem(shape=(2, 2), ambient_dim=4, units=poisoned))


@pytest.mark.parametrize("position", range(3))
def test_unit_defects_max_propagates_nan(position):
    values = [0.0, 0.0, 0.0]
    values[position] = float("nan")
    assert np.isnan(UnitDefects(*values).max())
    assert UnitDefects(1e-3, 2e-3, 0.0).max() == 2e-3


def padded(system: MatrixUnitSystem, extra: int) -> MatrixUnitSystem:
    """The factored system inside extra more ambient coordinates, which no factor covers."""
    factors = [np.pad(f, ((0, 0), (0, extra), (0, 0))) for f in system.column_factors()]
    return MatrixUnitSystem(system.shape, system.ambient_dim + extra, factors=factors)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    blocks=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)), min_size=1, max_size=3),
    extra=st.integers(0, 2),
    kind=st.sampled_from(["stabilized", "noisy", "rotated"]),
    log_delta=st.floats(min_value=-6.0, max_value=-2.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_factored_defects_match_the_dense_scoring(blocks, extra, kind, log_delta, seed):
    """Factors of three kinds, with N = d or, inside extra uncovered
    coordinates, N < d: near-isometric (stabilizer outputs), far from
    isometric (indicator columns plus unit-variance complex Gaussian noise),
    and exact blocks that overlap (the last block's indicator columns turned
    by a Haar unitary, so only cross-block products and unitality fail)."""
    shape = tuple(k for k, _ in blocks)
    mult = tuple(c for _, c in blocks)
    dim = sum(k * c for k, c in blocks)
    exact = canonical_units(shape, mult)
    factors = list(exact.column_factors())
    if kind == "stabilized":
        factors = stabilize_units(perturb_units(exact, 10.0**log_delta, seed))[0].factors
    elif kind == "noisy":
        rng = np.random.default_rng(seed)
        factors = [
            f + rng.standard_normal(f.shape) + 1j * rng.standard_normal(f.shape) for f in factors
        ]
    else:
        factors[-1] = haar_unitaries(dim, seed, 1)[0] @ factors[-1]
    system = padded(MatrixUnitSystem(shape, dim, factors=factors), extra)
    got, want = unit_defects(system), unit_defects(densified(system))
    assert got.adjoint == 0.0
    bound = 8 * system.ambient_dim * np.finfo(float).eps
    for name in ("adjoint", "unitality", "multiplication"):
        value = getattr(want, name)
        assert abs(getattr(got, name) - value) <= bound * max(1.0, value), name
    if extra:
        assert got.unitality >= 1.0


@pytest.mark.parametrize("stabilized", [False, True])
def test_factor_scoring_forms_no_dense_unit(monkeypatch, stabilized):
    exact = canonical_units((2, 3), (2, 1))
    system = stabilize_units(perturb_units(exact, 1e-3, 5))[0] if stabilized else exact

    def refuse(*args):
        raise AssertionError("a d x d unit was formed")

    monkeypatch.setattr(MatrixUnitSystem, "unit", refuse)
    defects = unit_defects(system)
    if not stabilized:
        assert defects == UnitDefects(0.0, 0.0, 0.0)
    assert defects.max() <= 1e-12


def test_factor_scoring_of_a_non_finite_factor_fails_closed():
    factors = [f.copy() for f in canonical_units((2, 2)).column_factors()]
    factors[1][0, 1, 0] = np.nan
    with pytest.raises(NonFiniteValue):
        unit_defects(MatrixUnitSystem((2, 2), 4, factors=factors))


def test_factor_scoring_split_over_rows_gives_the_same_defects(monkeypatch):
    exact = canonical_units((3, 2), (2, 3))
    system, _ = stabilize_units(perturb_units(exact, 1e-3, 9))
    whole = unit_defects(system)
    monkeypatch.setattr(units_module, "_WORKSPACE_BYTES", 1)  # one unit row i per op_norms call
    assert unit_defects(system) == whole


def test_a_sequence_of_systems_is_scored_as_each_alone(monkeypatch):
    """Dense, factored and exact systems of one shape in one call: each stack
    gives every member the defects it gets alone, also when a factored
    stack's residuals are split over (system, row) pairs."""
    exact = canonical_units((2, 3), (2, 1))
    noisy = perturb_units(exact, 1e-3, [1, 2, 3])
    fixed = [out for out, _ in stabilize_units(noisy)]
    mixed = [noisy[0], fixed[0], exact, noisy[1], fixed[1], noisy[2], fixed[2]]
    alone = [unit_defects(system) for system in mixed]
    assert unit_defects(mixed) == alone
    monkeypatch.setattr(units_module, "_WORKSPACE_BYTES", 1)
    assert unit_defects(mixed) == alone
    assert unit_defects([]) == []
    with pytest.raises(DimensionMismatch):
        unit_defects([exact, canonical_units((2, 2))])
