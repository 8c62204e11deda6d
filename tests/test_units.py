import numpy as np
import pytest

from towergen.errors import DimensionMismatch, NonFiniteValue
from towergen.linalg import identity, op_norm
from towergen.stabilize import perturb_units
from towergen.units import (
    MatrixUnitSystem,
    UnitalEmbedding,
    UnitDefects,
    canonical_units,
    rank,
    subrank,
    unit_defects,
)

from conftest import dense_units


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
                if (s, i, j1) not in keys:
                    continue
                prod = prod - system.unit(s, i, j1)
            multiplication = max(multiplication, op_norm(prod))
    unitality = op_norm(system.diagonal_sum() - identity(system.ambient_dim))
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
    emb = UnitalEmbedding((2,), (2,), 4)
    sys4 = canonical_units([2], emb)
    for i in range(1, 3):
        for j in range(1, 3):
            assert np.linalg.matrix_rank(sys4.unit(1, i, j)) == 2
    assert np.allclose(sys4.diagonal_sum(), identity(4))
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
    system = canonical_units(shape, UnitalEmbedding(shape, mult, target))
    assert brute_force_product_table(system) <= 1e-15


@pytest.mark.parametrize(
    "shape,mult",
    [((1,), (1,)), ((2,), (3,)), ((2, 3), (1, 1)), ((2, 2, 2), (2, 1, 3)), ((3, 1, 4), (1, 5, 2))],
)
def test_canonical_units_match_kron_construction(shape, mult):
    target = sum(c * k for c, k in zip(mult, shape))
    system = canonical_units(shape, UnitalEmbedding(shape, mult, target))
    reference = kron_units(shape, mult)
    assert system.keys() == list(reference)
    for key, mat in reference.items():
        assert system.unit(*key).dtype == mat.dtype
        assert np.array_equal(system.unit(*key), mat)


def test_embedding_validation():
    with pytest.raises(DimensionMismatch):
        UnitalEmbedding((2, 3), (1, 1), 6)
    with pytest.raises(DimensionMismatch):
        canonical_units([2, 3], UnitalEmbedding((2, 2), (1, 1), 4))


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
    system = canonical_units([2])
    partial = MatrixUnitSystem(
        shape=(2,),
        ambient_dim=2,
        units={
            (1, 1, 1): system.unit(1, 1, 1),
            (1, 1, 2): system.unit(1, 1, 2),
            (1, 2, 1): system.unit(1, 2, 1),
        },
        unital=False,
    )
    defects = unit_defects(partial)
    assert defects.unitality == pytest.approx(1.0, abs=1e-14)


def _partial_three_block():
    """Block 1 of M_3 without e_13, e_31, e_33: e_12 e_23 and others go unscored."""
    full = canonical_units([3, 2])
    keep = [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3), (1, 3, 2)]
    keep += [key for key in full.keys() if key[0] == 2]
    units = {key: full.unit(*key) for key in keep}
    return MatrixUnitSystem(shape=(3, 2), ambient_dim=5, units=units, unital=False)


@pytest.mark.parametrize(
    "system",
    [
        canonical_units((4, 4, 2), UnitalEmbedding((4, 4, 2), (1, 2, 1), 14)),  # 36 units
        canonical_units((2, 3), UnitalEmbedding((2, 3), (3, 2), 12)),
        canonical_units((5, 5)),
        _partial_three_block(),
    ],
)
@pytest.mark.parametrize("delta", [0.0, 1e-9, 1e-3, 0.2])
def test_unit_defects_match_all_pairs(system, delta):
    noisy = perturb_units(system, delta, seed=len(system.keys()))
    assert unit_defects(noisy) == reference_defects(noisy)


def test_unit_defects_non_finite_fails_closed():
    system = canonical_units([2, 2])
    poisoned = dense_units(system)
    poisoned[(2, 1, 2)] = poisoned[(2, 1, 2)].copy()
    poisoned[(2, 1, 2)][0, 0] = np.nan
    with pytest.raises(NonFiniteValue):
        unit_defects(MatrixUnitSystem(shape=(2, 2), ambient_dim=4, units=poisoned))


@pytest.mark.parametrize("position", range(3))
def test_unit_defects_max_propagates_nan(position):
    values = [0.0, 0.0, 0.0]
    values[position] = float("nan")
    assert np.isnan(UnitDefects(*values).max())
    assert UnitDefects(1e-3, 2e-3, 0.0).max() == 2e-3
