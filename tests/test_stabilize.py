import statistics

import numpy as np
import pytest

from towergen.errors import StabilizationFailed
from towergen.linalg import identity, op_norm
from towergen.stabilize import perturb_units, stabilize_units
from towergen.units import MatrixUnitSystem, UnitalEmbedding, canonical_units, unit_defects


def test_exact_units_fixed_point_bitwise():
    units = canonical_units([3])
    out, dist, _ = stabilize_units(units)
    assert dist == 0.0
    for key in units.keys():
        assert np.array_equal(out.units[key], units.units[key])


def test_idempotence_bitwise_after_repair():
    units = canonical_units([3, 2])
    noisy = perturb_units(units, 1e-3, seed=7)
    once, _, _ = stabilize_units(noisy)
    twice, dist, _ = stabilize_units(once)
    assert dist == 0.0
    for key in units.keys():
        assert np.array_equal(twice.units[key], once.units[key])


def test_m5_m5_perturbation_sweep():
    shape = (5, 5)
    units = canonical_units(shape, UnitalEmbedding(shape, (1, 1), 10))
    for seed in range(20):
        noisy = perturb_units(units, 1e-3, seed=seed)
        fixed, dist, _ = stabilize_units(noisy)
        defects = unit_defects(fixed)
        assert defects.max() <= 1e-12
        assert dist <= 1e-2


def test_half_identity_diagonal_fails():
    units = canonical_units([2])
    bad = dict(units.units)
    bad[(1, 1, 1)] = 0.5 * identity(2)
    candidate = MatrixUnitSystem(shape=(2,), ambient_dim=2, units=bad, unital=True)
    with pytest.raises(StabilizationFailed):
        stabilize_units(candidate)


def test_lost_rank_names_the_first_failing_row():
    units = canonical_units([12])  # 144 units: the admissibility gate does not score them
    bad = dict(units.units)
    for i in (7, 5):
        bad[(1, i, 1)] = np.zeros((12, 12), dtype=complex)
    candidate = MatrixUnitSystem(shape=(12,), ambient_dim=12, units=bad, unital=True)
    with pytest.raises(StabilizationFailed, match="block 1 row 5: corner compression lost rank"):
        stabilize_units(candidate)


def test_admissibility_gate():
    units = canonical_units([2])
    bad = {key: 5.0 * mat + 0.3 * identity(2) for key, mat in units.units.items()}
    candidate = MatrixUnitSystem(shape=(2,), ambient_dim=2, units=bad, unital=True)
    with pytest.raises(StabilizationFailed):
        stabilize_units(candidate)


def test_perturb_zero_is_identity_map():
    units = canonical_units([3])
    same = perturb_units(units, 0.0, seed=3)
    for key in units.keys():
        assert np.array_equal(same.units[key], units.units[key])


def test_perturb_defect_scaling():
    units = canonical_units([3])
    noisy = perturb_units(units, 1e-3, seed=1)
    defects = unit_defects(noisy)
    assert defects.multiplication <= 1e-2
    assert defects.adjoint <= 2e-3 + 1e-12


def test_perturb_then_stabilize_round_trip():
    units = canonical_units([3])
    noisy = perturb_units(units, 1e-3, seed=5)
    fixed, dist, _ = stabilize_units(noisy)
    for key in units.keys():
        assert op_norm(fixed.units[key] - units.units[key]) <= 1e-2
    assert dist <= 1e-2


def test_median_distance_monotone_in_delta():
    shape = (4,)
    units = canonical_units(shape)
    medians = []
    for delta in (1e-6, 1e-4, 1e-3, 1e-2):
        dists = []
        for seed in range(20):
            noisy = perturb_units(units, delta, seed=seed)
            _, dist, _ = stabilize_units(noisy)
            dists.append(dist)
        medians.append(statistics.median(dists))
    assert all(medians[i] <= medians[i + 1] for i in range(len(medians) - 1))


def test_non_unital_candidate_stays_non_unital():
    units = canonical_units([3])
    compress = units.unit(1, 1, 1) + units.unit(1, 2, 2)
    partial_units = {}
    for (s, i, j), mat in units.iter_units():
        if i <= 2 and j <= 2:
            partial_units[(s, i, j)] = compress @ mat @ compress
    candidate = MatrixUnitSystem(shape=(2,), ambient_dim=3, units=partial_units, unital=False)
    fixed, _, _ = stabilize_units(candidate)
    assert not fixed.unital
    assert op_norm(fixed.diagonal_sum() - compress) <= 1e-12
