import json

import numpy as np
import pytest

from towergen import similarity
from towergen.errors import DimensionMismatch, SubrankTooSmall
from towergen.linalg import identity, op_norm
from towergen.units import MatrixUnitSystem, subrank

from conftest import dense_units
from towergen.similarity import (
    CommutingModel,
    _chunk_runs,
    build_commuting_model,
    check_norm_identity,
    random_coefficients,
    run_identity_sweep,
)


def per_run_oracle(model, coeffs):
    """lhs, rhs and cross_rhs of each run by the one-run formula: np.kron columns and op_norm."""
    n, d = model.block_size, model.coeff_dim
    big = model.ambient_dim // d
    lhs, rhs, cross_rhs = [], [], []
    for a in coeffs:
        lhs_mat = np.zeros((model.ambient_dim,) * 2, dtype=np.complex128)
        for table in model.units.rows:
            for i in range(n):
                for j in range(n):
                    lhs_mat[:, table[j]] += np.kron(a[i, j], identity(big))[:, table[i]]
        block = a.transpose(0, 2, 1, 3).reshape(n * d, n * d)
        cross = 0.0
        offset = 0
        for k_s in model.units.shape:
            central = np.zeros((big, big), dtype=np.complex128)
            central[offset : offset + k_s, offset : offset + k_s] = np.eye(k_s)
            offset += k_s
            cross = max(cross, op_norm(np.kron(block, central)))
        lhs.append(op_norm(lhs_mat))
        rhs.append(op_norm(block))
        cross_rhs.append(cross)
    return np.array(lhs), np.array(rhs), np.array(cross_rhs)


def seeded_stack(model, seeds):
    return np.stack([random_coefficients(model, seed) for seed in seeds])


def test_build_model_dimensions():
    model = build_commuting_model(2, [2], 2)
    assert model.ambient_dim == 4
    model = build_commuting_model(2, [2, 3], 3)
    assert model.ambient_dim == 15


def test_subrank_gate():
    with pytest.raises(SubrankTooSmall):
        build_commuting_model(2, [1, 3], 2)


def test_commutation_exact():
    model = build_commuting_model(2, [2, 3], 2)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x = np.kron(x, identity(model.ambient_dim // model.coeff_dim))
    for unit in dense_units(model.units):
        assert op_norm(x @ unit - unit @ x) <= 1e-13


def test_scalar_reduction():
    model = build_commuting_model(2, [3], 1)
    lam = np.array([[1.0, 2.0], [0.5, -1.0]])
    coeffs = lam.reshape(2, 2, 1, 1).astype(complex)
    rep = check_norm_identity(model, coeffs[None])
    assert rep.lhs[0] == pytest.approx(op_norm(lam), abs=1e-12)
    assert rep.passed[0]


def test_identity_array():
    model = build_commuting_model(2, [2], 2)
    coeffs = np.zeros((2, 2, 2, 2), dtype=complex)
    coeffs[0, 0] = identity(2)
    coeffs[1, 1] = identity(2)
    rep = check_norm_identity(model, coeffs[None])
    assert rep.lhs[0] == pytest.approx(1.0, abs=1e-12)
    assert rep.rhs[0] == pytest.approx(1.0, abs=1e-12)


def test_random_instances_agree():
    model = build_commuting_model(2, [2, 3], 2)
    rep = check_norm_identity(model, seeded_stack(model, range(25)))
    assert rep.gap.shape == (25,)
    assert (rep.gap <= 1e-10).all()
    assert (rep.cross_gap <= 1e-10).all()


def test_unitary_conjugation_invariance():
    model = build_commuting_model(2, [2, 3], 2)
    coeffs = random_coefficients(model, 77)
    rng = np.random.default_rng(13)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(g)
    conj = np.einsum("ab,ijbc,cd->ijad", q.conj().T, coeffs, q)
    base = check_norm_identity(model, coeffs[None])
    rotated = check_norm_identity(model, conj[None])
    assert abs(base.lhs[0] - rotated.lhs[0]) <= 1e-10
    assert abs(base.rhs[0] - rotated.rhs[0]) <= 1e-10


def test_coefficient_shape_gate():
    model = build_commuting_model(2, [2], 2)
    with pytest.raises(DimensionMismatch):
        check_norm_identity(model, np.zeros((1, 3, 3, 2, 2), dtype=complex))
    with pytest.raises(DimensionMismatch):
        check_norm_identity(model, np.zeros((2, 2, 2, 2), dtype=complex))  # one run, unstacked


def test_sweep_row_format():
    rows = run_identity_sweep([[2], [2, 3]], [2, 3], 3, 2, seed=21)
    assert all({"seed", "shape", "n", "lhs", "rhs", "gap", "pass"} <= set(r) for r in rows)
    # n = 3 is skipped for shapes with subrank 2
    assert not any(r["n"] == 3 for r in rows)
    assert all(r["pass"] for r in rows)


@pytest.mark.parametrize("n, shape, d", [(2, [2, 3], 2), (3, [3, 4], 3), (2, [2, 2, 5], 1)])
def test_lhs_equals_the_dense_unit_sum(n, shape, d):
    """lhs is ||sum_s,i,j kron(a_ij, I) e_ij^(s)|| over the dense units, bit for bit."""
    model = build_commuting_model(n, shape, d)
    coeffs = random_coefficients(model, 31)
    big = model.ambient_dim // d
    dense = np.zeros((model.ambient_dim,) * 2, dtype=np.complex128)
    for s in range(1, len(shape) + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                dense += np.kron(coeffs[i - 1, j - 1], identity(big)) @ model.units.unit(s, i, j)
    assert check_norm_identity(model, coeffs[None]).lhs[0] == op_norm(dense)


def test_norm_identity_needs_an_exact_system():
    exact = build_commuting_model(2, [2], 2)
    units = MatrixUnitSystem(exact.units.shape, exact.ambient_dim, dense_units(exact.units))
    model = CommutingModel(exact.ambient_dim, exact.coeff_dim, exact.block_size, units)
    with pytest.raises(DimensionMismatch):
        check_norm_identity(model, random_coefficients(model, 1)[None])


@pytest.mark.parametrize(
    "n, shape, d, runs",
    [(2, [2, 3], 2, 6), (3, [3, 4], 3, 4), (2, [2, 2, 5], 1, 5), (3, [3, 4], 2, 1), (2, [4], 3, 3)],
)
def test_stacked_check_is_the_per_run_formula(n, shape, d, runs):
    """Each run's lhs, rhs and cross_rhs are the one-run formula's, bit for bit."""
    model = build_commuting_model(n, shape, d)
    coeffs = seeded_stack(model, range(100, 100 + runs))
    rep = check_norm_identity(model, coeffs)
    lhs, rhs, cross_rhs = per_run_oracle(model, coeffs)
    assert rep.lhs.tobytes() == lhs.tobytes()
    assert rep.rhs.tobytes() == rhs.tobytes()
    assert rep.cross_rhs.tobytes() == cross_rhs.tobytes()
    assert rep.gap.tobytes() == np.abs(lhs - rhs).tobytes()
    assert rep.cross_gap.tobytes() == np.abs(cross_rhs - rhs).tobytes()


def _sweep_oracle_rows(shapes, block_sizes, runs, d, seed):
    """The sweep's rows with every run scored alone by the one-run formula."""
    rows = []
    root = np.random.SeedSequence(seed)
    for shape in shapes:
        for n in block_sizes:
            if subrank(shape) < n:
                continue
            model = build_commuting_model(n, shape, d)
            seeds = [int(child.generate_state(1)[0]) for child in root.spawn(runs)]
            lhs, rhs, cross_rhs = per_run_oracle(model, seeded_stack(model, seeds))
            for r in range(runs):
                gap, cross_gap = abs(lhs[r] - rhs[r]), abs(cross_rhs[r] - rhs[r])
                rows.append(
                    {
                        "seed": r,
                        "shape": list(shape),
                        "n": n,
                        "lhs": float(lhs[r]),
                        "rhs": float(rhs[r]),
                        "gap": float(gap),
                        "cross_gap": float(cross_gap),
                        "pass": bool(gap <= 1e-10 and cross_gap <= 1e-10),
                    }
                )
    return rows


def _workspace_for(model, runs_per_chunk):
    """A ``_WORKSPACE_BYTES`` at which ``model``'s sweep chunks hold ``runs_per_chunk`` runs."""
    return runs_per_chunk * 4 * 16 * (model.block_size * model.ambient_dim) ** 2


def test_sweep_rows_spanning_chunks_are_the_per_run_formula(monkeypatch):
    """With chunks of 3 runs, 7 runs of each pair span three chunks; every row matches."""
    model = build_commuting_model(2, [2, 3], 2)
    monkeypatch.setattr(similarity, "_WORKSPACE_BYTES", _workspace_for(model, 3))
    assert _chunk_runs(model) == 3
    args = ([[2, 3], [3]], [2, 3], 7, 2, 41)
    assert json.dumps(run_identity_sweep(*args)) == json.dumps(_sweep_oracle_rows(*args))


@pytest.mark.parametrize("runs_per_chunk", [1, 4, 10])
def test_chunk_size_leaves_the_rows_unchanged(monkeypatch, runs_per_chunk):
    """Chunked rows, down to one run per chunk, are the rows of one chunk per pair."""
    args = ([[2], [3], [2, 3]], [2, 3], 11, 2, 808)
    model = build_commuting_model(2, [2, 3], 2)
    monkeypatch.setattr(similarity, "_WORKSPACE_BYTES", 1 << 40)
    assert _chunk_runs(model) >= 11
    whole = run_identity_sweep(*args)
    monkeypatch.setattr(similarity, "_WORKSPACE_BYTES", _workspace_for(model, runs_per_chunk))
    assert _chunk_runs(model) == runs_per_chunk  # 10 + 1 puts the last run alone past a boundary
    chunked = run_identity_sweep(*args)
    assert json.dumps(chunked) == json.dumps(whole)
