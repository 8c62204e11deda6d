import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import towergen.stabilize as stabilize_module
from towergen.errors import DimensionMismatch, StabilizationFailed
from towergen.linalg import hermitian_part, identity, op_norm, op_norms
from towergen.stabilize import perturb_units, stabilize_units
from towergen.units import MatrixUnitSystem, canonical_units, unit_defects

from conftest import dense_units, same_bits


def test_exact_units_fixed_point_bitwise():
    units = canonical_units([3])
    out, dist = stabilize_units(units)
    assert dist == 0.0
    for key in units.keys():
        assert np.array_equal(out.unit(*key), units.unit(*key))


def test_idempotence_bitwise_after_repair():
    units = canonical_units([3, 2])
    noisy = perturb_units(units, 1e-3, seed=7)
    once, _ = stabilize_units(noisy)
    twice, dist = stabilize_units(once)
    assert dist == 0.0
    for key in units.keys():
        assert np.array_equal(twice.unit(*key), once.unit(*key))


def per_unit_perturbation(units, delta, seed):
    """Two draws and one Hermitian part per unit, in key order."""
    rng = np.random.default_rng(seed)
    dim = units.ambient_dim
    noise = []
    for (s, i, j) in units.keys():
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        noise.append(hermitian_part(g) if i == j else g)
    scales = np.maximum(op_norms(np.stack(noise)), 1e-300)
    return [units.unit(*key) + delta * (g / c) for key, g, c in zip(units.keys(), noise, scales)]


@pytest.mark.parametrize(
    "shape,mult,seed", [((3,), (1,), 0), ((2, 3), (2, 1), 5), ((1, 4, 2), (3, 1, 2), 11)]
)
def test_perturbation_matches_a_draw_per_unit(shape, mult, seed):
    units = canonical_units(shape, mult)
    noisy = perturb_units(units, 1e-3, seed)
    expected = per_unit_perturbation(units, 1e-3, seed)
    assert all(
        same_bits(noisy.unit(*key), e) for key, e in zip(units.keys(), expected, strict=True)
    )


def test_m5_m5_perturbation_sweep():
    shape = (5, 5)
    units = canonical_units(shape, (1, 1))
    for seed in range(20):
        noisy = perturb_units(units, 1e-3, seed=seed)
        fixed, dist = stabilize_units(noisy)
        defects = unit_defects(fixed)
        assert defects.max() <= 1e-12
        assert dist <= 1e-2


def test_half_identity_diagonal_fails():
    units = canonical_units([2])
    bad = dense_units(units)
    bad[0] = 0.5 * identity(2)  # e_11
    candidate = MatrixUnitSystem(shape=(2,), ambient_dim=2, units=bad)
    with pytest.raises(StabilizationFailed):
        stabilize_units(candidate)


def test_lost_rank_names_the_first_failing_row():
    units = canonical_units([12])
    bad = dense_units(units)
    for i in (7, 5):
        bad[(i - 1) * 12] = 0.0  # e_i1
    candidate = MatrixUnitSystem(shape=(12,), ambient_dim=12, units=bad)
    with pytest.raises(StabilizationFailed, match="block 1 row 5: corner compression lost rank"):
        stabilize_units(candidate)


def test_admissibility_gate():
    units = canonical_units([2])
    bad = 5.0 * dense_units(units) + 0.3 * identity(2)
    candidate = MatrixUnitSystem(shape=(2,), ambient_dim=2, units=bad)
    with pytest.raises(StabilizationFailed):
        stabilize_units(candidate)


def test_perturb_zero_is_identity_map():
    units = canonical_units([3])
    same = perturb_units(units, 0.0, seed=3)
    for key in units.keys():
        assert np.array_equal(same.unit(*key), units.unit(*key))


@pytest.mark.parametrize(
    "shape,mult", [((1,), (1,)), ((2, 3), (2, 1)), ((1, 4, 2), (3, 1, 2)), ((3, 1), (1, 4))]
)
def test_perturbation_of_zero_is_the_exact_stack(shape, mult):
    exact = canonical_units(shape, mult)
    assert same_bits(perturb_units(exact, 0.0, 3).units, dense_units(exact))


def test_perturbing_a_non_exact_system_is_rejected():
    noisy = perturb_units(canonical_units((2,)), 1e-3, 1)
    with pytest.raises(DimensionMismatch):
        perturb_units(noisy, 1e-3, 2)


@pytest.mark.parametrize("shape,mult", [((2, 3), (2, 1)), ((1, 4, 2), (3, 1, 2)), ((5, 5), (1, 1))])
def test_dense_distance_is_taken_to_every_unit_as_read(monkeypatch, shape, mult):
    """The stack a dense input is compared with holds the output's units as ``unit`` reads them."""
    seen, measure = [], stabilize_module.max_distance

    def record(xs, ys):
        seen.append(ys)
        return measure(xs, ys)

    monkeypatch.setattr(stabilize_module, "max_distance", record)
    out, dist = stabilize_units(perturb_units(canonical_units(shape, mult), 1e-3, 11))
    assert dist > 0.0 and len(seen) == 1
    assert same_bits(seen[0], dense_units(out)[None])


def test_perturb_defect_scaling():
    units = canonical_units([3])
    noisy = perturb_units(units, 1e-3, seed=1)
    defects = unit_defects(noisy)
    assert defects.multiplication <= 1e-2
    assert defects.adjoint <= 2e-3 + 1e-12


def test_perturb_then_stabilize_round_trip():
    units = canonical_units([3])
    noisy = perturb_units(units, 1e-3, seed=5)
    fixed, dist = stabilize_units(noisy)
    for key in units.keys():
        assert op_norm(fixed.unit(*key) - units.unit(*key)) <= 1e-2
    assert dist <= 1e-2


def test_median_distance_monotone_in_delta():
    shape = (4,)
    units = canonical_units(shape)
    medians = []
    for delta in (1e-6, 1e-4, 1e-3, 1e-2):
        dists = []
        for seed in range(20):
            noisy = perturb_units(units, delta, seed=seed)
            _, dist = stabilize_units(noisy)
            dists.append(dist)
        medians.append(statistics.median(dists))
    assert all(medians[i] <= medians[i + 1] for i in range(len(medians) - 1))


def test_non_unital_candidate_fails_closed():
    """The diagonal units of an M_2 inside M_3 sum to a rank-2 projection, not I."""
    units = canonical_units([3])
    compress = units.unit(1, 1, 1) + units.unit(1, 2, 2)
    corner = [compress @ units.unit(1, i, j) @ compress for i in (1, 2) for j in (1, 2)]
    candidate = MatrixUnitSystem(shape=(2,), ambient_dim=3, units=np.stack(corner))
    with pytest.raises(StabilizationFailed, match="diagonal ranks sum to 2, not the ambient"):
        stabilize_units(candidate)


def test_dense_input_with_one_unit_off_the_first_column_is_repaired():
    units = canonical_units([3])
    off = dense_units(units)
    off[5, 0, 0] += 1e-9  # e_23
    candidate = MatrixUnitSystem(shape=(3,), ambient_dim=3, units=off)
    fixed, dist = stabilize_units(candidate)
    assert fixed is not candidate
    assert dist == op_norm(off[5] - fixed.unit(1, 2, 3)) > 0.0
    for key in units.keys():
        assert op_norm(fixed.unit(*key) - units.unit(*key)) <= 1e-14


def perturbed_factors(exact, delta, seed):
    """The exact system's indicator columns, each F_i moved by delta in operator norm."""
    rng = np.random.default_rng(seed)
    factors = []
    for f in exact.column_factors():
        noise = rng.standard_normal(f.shape) + 1j * rng.standard_normal(f.shape)
        factors.append(f + delta * noise / op_norms(noise)[:, None, None])
    return MatrixUnitSystem(exact.shape, exact.ambient_dim, factors=factors)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    blocks=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)), min_size=1, max_size=3),
    log_delta=st.floats(min_value=-6.0, max_value=-2.0),
    factored=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_stabilizer_is_exact_idempotent_and_measures_its_move(blocks, log_delta, factored, seed):
    shape = tuple(k for k, _ in blocks)
    mult = tuple(c for _, c in blocks)
    dim = sum(k * c for k, c in blocks)
    exact = canonical_units(shape, mult)
    make = perturbed_factors if factored else perturb_units
    noisy = make(exact, 10.0**log_delta, seed)
    once, dist = stabilize_units(noisy)
    assert unit_defects(once).max() <= 1e-12
    twice, again = stabilize_units(once)
    assert twice is once and again == 0.0
    loop = max(op_norm(noisy.unit(*key) - once.unit(*key)) for key in exact.keys())
    if factored:
        assert abs(dist - loop) <= 8 * dim * np.finfo(float).eps
    else:
        assert dist == loop


def test_perturbing_several_seeds_draws_each_as_alone():
    exact = canonical_units((1, 4, 2), (3, 1, 2))
    seeds = [11, 0, 11, 7]
    for noisy, seed in zip(perturb_units(exact, 1e-3, seeds), seeds, strict=True):
        assert same_bits(noisy.units, perturb_units(exact, 1e-3, seed).units)


def test_a_sequence_of_candidates_is_stabilized_as_each_alone():
    exact = canonical_units((2, 3), (2, 1))
    noisy = perturb_units(exact, 1e-3, [4, 5])
    mixed = [noisy[0], exact, stabilize_units(noisy[1])[0], noisy[1]]
    for (out, dist), candidate in zip(stabilize_units(mixed), mixed, strict=True):
        want, want_dist = stabilize_units(candidate)
        assert dist == want_dist and (out is candidate) == (want is candidate)
        assert same_bits(dense_units(out), dense_units(want))
    with pytest.raises(DimensionMismatch):
        stabilize_units([exact, canonical_units((2, 2))])


def test_the_first_candidate_that_fails_raises_its_own_error():
    exact = canonical_units([2])
    good = perturb_units(exact, 1e-3, 1)
    inadmissible = 5.0 * dense_units(exact) + 0.3 * identity(2)
    half = dense_units(exact)
    half[0] = 0.5 * identity(2)  # e_11 has both eigenvalues at the threshold
    inadmissible, half = (MatrixUnitSystem((2,), 2, units=u) for u in (inadmissible, half))
    with pytest.raises(StabilizationFailed, match="Gram defect"):
        stabilize_units([good, inadmissible, half])
    with pytest.raises(StabilizationFailed, match="spectral gap lost"):
        stabilize_units([good, half, inadmissible])
