import numpy as np
import pytest

from towergen.errors import DimensionMismatch, SubrankTooSmall
from towergen.linalg import identity, op_norm
from towergen.units import MatrixUnitSystem

from conftest import dense_units
from towergen.similarity import (
    CommutingModel,
    build_commuting_model,
    check_norm_identity,
    random_coefficients,
    run_identity_sweep,
)


def test_build_model_dimensions():
    model = build_commuting_model(2, [2], 2, seed=0)
    assert model.ambient_dim == 4
    model = build_commuting_model(2, [2, 3], 3, seed=0)
    assert model.ambient_dim == 15


def test_subrank_gate():
    with pytest.raises(SubrankTooSmall):
        build_commuting_model(2, [1, 3], 2, seed=0)


def test_commutation_exact():
    model = build_commuting_model(2, [2, 3], 2, seed=0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x = np.kron(x, identity(model.ambient_dim // model.coeff_dim))
    for unit in dense_units(model.units):
        assert op_norm(x @ unit - unit @ x) <= 1e-13


def test_scalar_reduction():
    model = build_commuting_model(2, [3], 1, seed=0)
    lam = np.array([[1.0, 2.0], [0.5, -1.0]])
    coeffs = lam.reshape(2, 2, 1, 1).astype(complex)
    rep = check_norm_identity(model, coeffs)
    assert rep.lhs == pytest.approx(op_norm(lam), abs=1e-12)
    assert rep.passed


def test_identity_array():
    model = build_commuting_model(2, [2], 2, seed=0)
    coeffs = np.zeros((2, 2, 2, 2), dtype=complex)
    coeffs[0, 0] = identity(2)
    coeffs[1, 1] = identity(2)
    rep = check_norm_identity(model, coeffs)
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert rep.rhs == pytest.approx(1.0, abs=1e-12)


def test_random_instances_agree():
    model = build_commuting_model(2, [2, 3], 2, seed=5)
    for seed in range(25):
        coeffs = random_coefficients(model, seed)
        rep = check_norm_identity(model, coeffs)
        assert rep.gap <= 1e-10
        assert rep.cross_gap <= 1e-10


def test_unitary_conjugation_invariance():
    model = build_commuting_model(2, [2, 3], 2, seed=5)
    coeffs = random_coefficients(model, 77)
    rng = np.random.default_rng(13)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(g)
    conj = np.einsum("ab,ijbc,cd->ijad", q.conj().T, coeffs, q)
    base = check_norm_identity(model, coeffs)
    rotated = check_norm_identity(model, conj)
    assert abs(base.lhs - rotated.lhs) <= 1e-10
    assert abs(base.rhs - rotated.rhs) <= 1e-10


def test_coefficient_shape_gate():
    model = build_commuting_model(2, [2], 2, seed=0)
    with pytest.raises(DimensionMismatch):
        check_norm_identity(model, np.zeros((3, 3, 2, 2), dtype=complex))


def test_sweep_row_format():
    rows = run_identity_sweep([[2], [2, 3]], [2, 3], 3, 2, seed=21)
    assert all({"seed", "shape", "n", "lhs", "rhs", "gap", "pass"} <= set(r) for r in rows)
    # n = 3 is skipped for shapes with subrank 2
    assert not any(r["n"] == 3 for r in rows)
    assert all(r["pass"] for r in rows)


@pytest.mark.parametrize("n, shape, d", [(2, [2, 3], 2), (3, [3, 4], 3), (2, [2, 2, 5], 1)])
def test_lhs_equals_the_dense_unit_sum(n, shape, d):
    """lhs is ||sum_s,i,j kron(a_ij, I) e_ij^(s)|| over the dense units, bit for bit."""
    model = build_commuting_model(n, shape, d, seed=0)
    coeffs = random_coefficients(model, 31)
    big = model.ambient_dim // d
    dense = np.zeros((model.ambient_dim,) * 2, dtype=np.complex128)
    for s in range(1, len(shape) + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                dense += np.kron(coeffs[i - 1, j - 1], identity(big)) @ model.units.unit(s, i, j)
    assert check_norm_identity(model, coeffs).lhs == op_norm(dense)


def test_norm_identity_needs_an_exact_system():
    exact = build_commuting_model(2, [2], 2, seed=0)
    units = MatrixUnitSystem(exact.units.shape, exact.ambient_dim, dense_units(exact.units))
    model = CommutingModel(exact.ambient_dim, exact.coeff_dim, exact.block_size, units, seed=0)
    with pytest.raises(DimensionMismatch):
        check_norm_identity(model, random_coefficients(model, 1))
