import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import towergen.stabilize as stabilize_module
from towergen.errors import DimensionMismatch, StabilizationFailed
from towergen.linalg import hermitian_part, identity, op_norm, op_norms
from towergen.stabilize import perturb_units, stabilize_units
from towergen.units import MatrixUnitSystem, canonical_units, dense_stack, unit_defects

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


def per_candidate_stabilize(candidate):
    """One candidate's (system, distance) pair by the per-candidate formula:
    G_i = e_i1 B from its own eigensolve, one Gram eigensolve and polar
    factor, and its own distance, with no stack shared with any other
    candidate.  Raises StabilizationFailed where the stabilizer must."""
    dim = candidate.ambient_dim
    stack = []
    for s, k in enumerate(candidate.shape, start=1):
        if candidate.units is not None:
            h = hermitian_part(candidate.unit(s, 1, 1))
            w, v = np.linalg.eigh(hermitian_part(h))
            if np.min(np.abs(w - 0.5)) < 1e-8:
                raise StabilizationFailed(
                    "spectral gap lost at e_11: eigenvalue within 1e-8 of threshold 0.5: "
                    f"spectrum {np.round(w, 12)}"
                )
            basis = v[:, w > 0.5]
            g = np.stack([candidate.unit(s, i, 1) @ basis for i in range(1, k + 1)])
        else:
            f = candidate.column_factors()[s - 1]
            w, v = np.linalg.eigh(f[0].conj().T @ f[0])
            if np.any(np.abs(w - 0.5) < 1e-8):
                raise StabilizationFailed(
                    "spectral gap lost at e_11: e_11 eigenvalue within 1e-8 of threshold 0.5"
                )
            g = f @ (v[:, w > 0.5] * np.sqrt(w[w > 0.5]))
        if not g.shape[2]:
            raise StabilizationFailed(f"block {s}: e_11 has no eigenvalue above the threshold")
        stack.append(g)
    cols = np.concatenate([g.transpose(1, 0, 2).reshape(dim, -1) for g in stack], axis=1)
    if cols.shape[1] != dim:
        raise StabilizationFailed(
            f"diagonal ranks sum to {cols.shape[1]}, not the ambient dimension {dim}"
        )
    w, v = np.linalg.eigh(cols.conj().T @ cols)
    defect = float(np.max(np.abs(w - 1.0)))
    if defect > stabilize_module.ADMISSIBILITY:
        stabilize_module._reject(stack, defect)
    polar = cols @ ((v / np.sqrt(w)) @ v.conj().T)
    factors, start = [], 0
    for g in stack:
        k, _, m = g.shape
        block = polar[:, start : start + k * m].reshape(dim, k, m)
        factors.append(np.ascontiguousarray(block.transpose(1, 0, 2)))
        start += k * m
    out = MatrixUnitSystem(candidate.shape, dim, factors=factors)
    if candidate.units is None:
        dist = stabilize_module.factored_distance(out, candidate)
    else:
        fixed = np.concatenate(
            [(f[:, None] @ f.conj().transpose(0, 2, 1)[None]).reshape(-1, dim, dim)
             for f in factors]
        )
        dist = float(stabilize_module.max_distance(dense_units(candidate)[None], fixed[None])[0])
    return (candidate, 0.0) if dist <= 8 * dim * np.finfo(float).eps else (out, dist)


def first_failure(candidates):
    """The message of the first candidate the per-candidate formula rejects, and its index."""
    for i, candidate in enumerate(candidates):
        try:
            per_candidate_stabilize(candidate)
        except StabilizationFailed as exc:
            return i, str(exc)
    return None, None


@pytest.mark.parametrize("delta", [0.0, 1e-12, 1e-3])
@pytest.mark.parametrize("form", ["exact", "factored", "dense"])
def test_stacked_stabilizer_equals_the_per_candidate_formula(monkeypatch, form, delta):
    """Five candidates of one storage form, stabilized as one stack, give each
    candidate's own (system, distance) pair bit for bit, as does each alone."""
    exact = canonical_units((2, 3), (2, 1))
    if form == "exact":
        candidates = [exact] * 5
    elif form == "factored":
        candidates = [perturbed_factors(exact, delta, seed) for seed in range(5)]
    else:
        candidates = perturb_units(exact, delta, list(range(5)))
    calls, polar = [], stabilize_module._polar_stack

    def record(stack):
        calls.append(len(stack))
        return polar(stack)

    monkeypatch.setattr(stabilize_module, "_polar_stack", record)
    stacked = stabilize_units(candidates)
    assert calls == [5]  # one stack, no redo
    for candidate, (out, dist) in zip(candidates, stacked, strict=True):
        want, want_dist = per_candidate_stabilize(candidate)
        alone, alone_dist = stabilize_units(candidate)
        assert same_bits(np.float64(dist), np.float64(want_dist)) and dist == alone_dist
        assert (out is candidate) == (want is candidate) == (alone is candidate)
        if out is not candidate:
            assert all(same_bits(a, b) for a, b in zip(out.factors, want.factors, strict=True))
            assert all(same_bits(a, b) for a, b in zip(out.factors, alone.factors, strict=True))
    if form == "dense" and delta == 0.0:
        assert all(out is candidate for candidate, (out, _) in zip(candidates, stacked))


def test_a_failing_candidate_mid_chunk_raises_the_first_failure():
    """The sweep's first 13-seed chunk of [5, 5] at delta 0.06 fails first at
    its 7th seed: the stacked chunk raises that seed's own error."""
    delta = 0.06
    seeds = [2024 + 1000 * s + int(1e9 * delta) % 997 for s in range(13)]
    noisy = perturb_units(canonical_units((5, 5)), delta, seeds)
    index, message = first_failure(noisy)
    assert index == 6
    with pytest.raises(StabilizationFailed) as info:
        stabilize_units(noisy)
    assert str(info.value) == message
    stabilize_units(noisy[:index])  # the seeds before it pass as one stack


@pytest.mark.parametrize("form", ["dense", "factored"])
def test_a_near_threshold_e11_in_a_stack_loses_the_spectral_gap(form):
    """One candidate whose e_11 has an eigenvalue 1e-9 above 1/2, third in a
    stack of good ones, raises the spectral-gap error it raises alone."""
    exact = canonical_units((2,))
    if form == "dense":
        good = perturb_units(exact, 1e-3, [1, 2, 3])
        units = dense_units(exact)
        units[0] = np.diag([0.5 + 1e-9, 0.0])  # e_11
        near = MatrixUnitSystem((2,), 2, units=units)
    else:
        good = [perturbed_factors(exact, 1e-3, seed) for seed in (1, 2, 3)]
        factors = np.array(exact.column_factors()[0])
        factors[0] *= np.sqrt(0.5 + 1e-9)  # F_1^* F_1 = 1/2 + 1e-9
        near = MatrixUnitSystem((2,), 2, factors=[factors])
    stack = [good[0], good[1], near, good[2]]
    with pytest.raises(StabilizationFailed, match="spectral gap lost at e_11") as info:
        stabilize_units(stack)
    assert (2, str(info.value)) == first_failure(stack)


def test_perturbed_systems_are_views_of_one_stack():
    """``dense_stack`` gives the noise stack itself back, with no copy; systems
    that are not its rows in order get a stacked copy."""
    noisy = perturb_units(canonical_units((2, 3), (2, 1)), 1e-3, [3, 1, 4])
    base = dense_stack(noisy)
    assert base.shape == (3, *noisy[0].units.shape) and not base.flags.writeable
    assert all(system.units.base is base for system in noisy)
    for subset in (noisy[::-1], noisy[:2], noisy[1:], [noisy[0], noisy[0], noisy[2]]):
        copy = dense_stack(subset)
        assert copy is not base and not np.shares_memory(copy, base)
        assert same_bits(copy, np.stack([system.units for system in subset]))


def test_a_read_only_stack_is_kept_and_any_other_copied():
    stack = dense_units(canonical_units((2,)))
    copied = MatrixUnitSystem((2,), 2, units=stack)
    assert not np.shares_memory(copied.units, stack) and not copied.units.flags.writeable
    stack.flags.writeable = False
    assert MatrixUnitSystem((2,), 2, units=stack).units is stack
    strided = np.stack([stack, stack], axis=1)[:, 0]  # read-only only once copied
    strided.flags.writeable = False
    kept = MatrixUnitSystem((2,), 2, units=strided)
    assert kept.units.flags.c_contiguous and not np.shares_memory(kept.units, strided)


@pytest.mark.parametrize("form", ["dense", "factored"])
def test_a_candidate_whose_e11_keeps_another_rank_raises_its_own_error(form):
    """Second in a stack, an e_11 of rank 2 on C^2 leaves the diagonal ranks
    summing to 4: the stack is redone one candidate at a time, not read with
    the first's rank, under which the factored one would pass as exact."""
    exact = canonical_units((2,))
    if form == "dense":
        good = perturb_units(exact, 1e-3, [1, 2])
        units = dense_units(exact)
        units[0] = identity(2)  # e_11
        wide = MatrixUnitSystem((2,), 2, units=units)
    else:
        good = [perturbed_factors(exact, 1e-3, seed) for seed in (1, 2)]
        # F_1^* F_1 = diag(0.6, 1): its top eigenvector alone gives G = [e_2, e_1]
        wide = np.array([np.diag([np.sqrt(0.6), 1.0]), [[0.0, 1.0], [0.0, 0.0]]], dtype=complex)
        wide = MatrixUnitSystem((2,), 2, factors=[wide])
        good = [MatrixUnitSystem((2,), 2, factors=[np.pad(g.factors[0], ((0, 0), (0, 0), (0, 1)))])
                for g in good]  # the same factor shape, a zero second column
    stack = [good[0], wide, good[1]]
    with pytest.raises(StabilizationFailed) as info:
        stabilize_units(stack)
    assert (1, str(info.value)) == first_failure(stack)
    assert "diagonal ranks sum to 4" in str(info.value)
