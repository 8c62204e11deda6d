import numpy as np
import pytest

import towergen.linalg as linalg
from towergen.errors import (
    DimensionMismatch,
    EigenvalueNearThreshold,
    NonConvergence,
    NonFiniteValue,
)
from towergen.linalg import (
    as_operator,
    identity,
    max_distance,
    op_norm,
    op_norms,
    require_hermitian,
    screened_max_norm,
    spectral_basis,
    tuple_norm,
)
from towergen.recovery import RecoveryTrace, ladder_units


def random_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def test_op_norm_identity():
    assert op_norm(identity(3)) == pytest.approx(1.0, abs=1e-14)


def test_op_norm_hermitian_diagonal():
    assert op_norm(np.diag([1.0, -2.0])) == pytest.approx(2.0, abs=1e-14)


def test_op_norm_rank_one():
    assert op_norm(np.array([[0.0, 3.0], [0.0, 0.0]])) == pytest.approx(3.0, abs=1e-14)


def test_op_norm_zero():
    assert op_norm(np.zeros((4, 4))) == 0.0


def test_op_norms_match_singular_values():
    rng = np.random.default_rng(4)
    for shape in [(7, 1, 1), (6, 2, 2), (5, 6, 6), (3, 4, 2)]:
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        norms = op_norms(stack)
        assert norms == pytest.approx(np.linalg.norm(stack, ord=2, axis=(1, 2)), rel=1e-12)
        assert [op_norm(m) for m in stack] == list(norms)
    scalars = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    assert list(op_norms(scalars[:, None, None])) == [float(abs(z)) for z in scalars]
    assert list(op_norms(np.zeros((2, 0, 0)))) == [0.0, 0.0]


@pytest.mark.parametrize(
    "entries",
    [[[np.nan, 0.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]], [[np.nan]], [[complex(0, np.inf)]]],
)
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf in A*A
def test_op_norm_non_finite_fails_closed(entries):
    with pytest.raises(NonFiniteValue):
        op_norm(np.array(entries))
    stack = np.stack([identity(len(entries)), np.array(entries, dtype=complex)])
    with pytest.raises(NonFiniteValue):
        op_norms(stack)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_zero_stack_needs_no_eigensolve(monkeypatch, sign):
    def fail(*args, **kwargs):
        raise AssertionError("an exactly zero stack reached the eigensolver")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    zeros = np.full((3, 4, 4), complex(sign * 0.0, sign * 0.0))
    norms = op_norms(zeros)
    assert list(norms) == [0.0, 0.0, 0.0] and not np.signbit(norms).any()
    assert not np.signbit(op_norm(zeros[0]))
    assert not np.signbit(op_norms(np.full((2, 3, 5), sign * 0.0))).any()


def test_stack_with_zero_members_matches_per_matrix_norms():
    rng = np.random.default_rng(12)
    stack = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
    stack[[1, 3]] = 0.0
    stack[4] = -0.0
    norms = op_norms(stack)
    assert [op_norm(m) for m in stack] == list(norms)
    assert list(norms[[1, 3, 4]]) == [0.0, 0.0, 0.0] and not np.signbit(norms).any()


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan), complex(0, np.inf)])
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf in A*A
def test_non_finite_entry_of_a_zero_stack_fails_closed(bad):
    stack = np.zeros((3, 4, 4), dtype=complex)
    stack[2, 1, 3] = bad
    with pytest.raises(NonFiniteValue):
        op_norms(stack)
    with pytest.raises(NonFiniteValue):
        op_norm(stack[2])


def _ladder(b):
    """One rung of ``recovery.ladder_units`` on a 2 x 2 b: the polar part of
    X = 4 F_1^* b (I - F_1 F_1^*) from the singular values of X."""
    basis = np.array([[1.0], [0.0]], dtype=complex)
    return ladder_units([basis], b, (2,), 1, trace=RecoveryTrace())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf in X
def test_eigh_and_svd_kernels_fail_closed_on_non_finite_input(bad):
    entries = np.diag([bad, 1.0, 1.0])
    with pytest.raises(NonFiniteValue):  # the Hermitian check, before the gap test
        spectral_basis(entries, 0.5)
    with pytest.raises(NonFiniteValue):  # the ladder's singular values of X
        _ladder(np.array([[1.0, bad], [bad, 0.0]], dtype=complex))


def test_lapack_failure_on_finite_input_is_non_convergence(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, fail)
    with pytest.raises(NonConvergence):
        spectral_basis(np.diag([1.0, 0.0]), 0.5)
    with pytest.raises(NonConvergence):
        _ladder(np.array([[0.0, 0.25], [0.25, 0.0]], dtype=complex))
    with pytest.raises(NonConvergence):
        op_norm(identity(2))


def _grid(rng, rows, cols, dim, scale):
    """Residuals r(l, r) = A_l B_r - B_r of random families, scaled per pair."""
    a = rng.standard_normal((rows, dim, dim)) + 1j * rng.standard_normal((rows, dim, dim))
    b = rng.standard_normal((cols, dim, dim)) + 1j * rng.standard_normal((cols, dim, dim))
    weight = scale(rng.uniform(size=(rows, cols)))

    def residual(li, ri):
        return weight[li, ri][..., None, None] * (a[li] @ b[ri] - b[ri])

    return residual


@pytest.mark.parametrize("dim", [1, 3, 9])
@pytest.mark.parametrize("scale", [lambda w: w, lambda w: 1.0 + 1e-12 * w, lambda w: 0 * w + 1.0])
def test_screened_max_norm_matches_all_pairs(dim, scale):
    rng = np.random.default_rng(dim)
    rows, cols = 11, 37
    residual = _grid(rng, rows, cols, dim, scale)
    brute = max(
        op_norm(residual(np.array([l]), np.array([r]))[0])
        for l in range(rows)
        for r in range(cols)
    )
    assert screened_max_norm(rows, cols, dim, residual) == brute


def test_screened_max_norm_vanishing_grid_measures_nothing(monkeypatch):
    measured = []
    monkeypatch.setattr(linalg, "op_norms", lambda stack: measured.append(stack) or 0)

    def zeros(li, ri):
        return np.zeros(np.broadcast(li, ri).shape + (4, 4), dtype=complex)

    assert screened_max_norm(5, 6, 4, zeros) == 0.0
    assert screened_max_norm(0, 6, 4, zeros) == 0.0
    assert measured == []


def test_screened_max_norm_non_finite_fails_closed():
    def residual(li, ri):
        out = np.ones(np.broadcast(li, ri).shape + (2, 2), dtype=complex)
        out[(li == 3) & (ri == 1)] = np.nan
        return out

    with pytest.raises(NonFiniteValue):
        screened_max_norm(4, 2, 2, residual)


@pytest.mark.parametrize("dim", [1, 4])
def test_max_distance_matches_per_pair_loop(dim):
    rng = np.random.default_rng(dim)
    xs = list(rng.standard_normal((40, dim, dim)) + 1j * rng.standard_normal((40, dim, dim)))
    ys = [x + 1e-3 * rng.uniform() * rng.standard_normal((dim, dim)) for x in xs]
    ys[7] = xs[7].copy()  # one exactly vanishing difference
    assert max_distance(xs, ys) == max(op_norm(x - y) for x, y in zip(xs, ys))
    assert max_distance(xs, xs) == 0.0
    assert max_distance([], []) == 0.0
    with pytest.raises(DimensionMismatch):
        max_distance(xs, ys[:-1])


def test_tuple_norm_examples():
    assert tuple_norm([identity(2), np.zeros((2, 2))]) == pytest.approx(1.0)
    assert tuple_norm([np.diag([1.0, -2.0]), np.diag([0.5, 0.0])]) == pytest.approx(2.0)
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    assert tuple_norm([a]) == pytest.approx(op_norm(a))


def test_tuple_norm_rejects_mixed_dims():
    with pytest.raises(DimensionMismatch):
        tuple_norm([identity(2), identity(3)])
    with pytest.raises(DimensionMismatch):
        tuple_norm([])


def spectral_projection(h, threshold):
    """B B^* for the orthonormal eigenbasis B above the threshold."""
    b = spectral_basis(h, threshold)
    return b @ b.conj().T


def test_spectral_projection_diagonal():
    p = spectral_projection(np.diag([1.0, 0.0]), 0.5)
    assert np.allclose(p, np.diag([1.0, 0.0]), atol=1e-14)
    p = spectral_projection(np.diag([0.9, 0.1, 0.95]), 0.5)
    assert np.allclose(p, np.diag([1.0, 0.0, 1.0]), atol=1e-14)
    assert spectral_basis(np.diag([0.9, 0.1, 0.95]), 0.5).shape == (3, 2)


def test_spectral_projection_gap_violation():
    with pytest.raises(EigenvalueNearThreshold):
        spectral_basis(np.diag([0.5 + 1e-9, 0.1]), 0.5)


def test_spectral_projection_is_projection():
    rng = np.random.default_rng(3)
    for _ in range(10):
        h = random_complex(rng, 5)
        h = (h + h.conj().T) / 2
        p = spectral_projection(h, 0.0) if np.min(np.abs(np.linalg.eigvalsh(h))) > 1e-8 else None
        if p is None:
            continue
        assert op_norm(p @ p - p) <= 1e-12
        assert op_norm(p - p.conj().T) <= 1e-12


def test_cstar_identity_and_submultiplicativity():
    rng = np.random.default_rng(19)
    for _ in range(10):
        a, b = random_complex(rng, 4), random_complex(rng, 4)
        assert abs(op_norm(a.conj().T @ a) - op_norm(a) ** 2) <= 1e-10
        assert op_norm(a @ b) <= op_norm(a) * op_norm(b) + 1e-12


def test_adjoint_involution():
    rng = np.random.default_rng(23)
    a = random_complex(rng, 4)
    assert np.array_equal(a.conj().T.conj().T, a)


def test_require_hermitian():
    require_hermitian(np.diag([1.0, 2.0]))
    with pytest.raises(DimensionMismatch):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
@pytest.mark.parametrize("position", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_require_hermitian_rejects_non_finite_entries(bad, position):
    """A NaN defect never exceeds the tolerance, so only a finiteness check catches it."""
    entries = np.eye(2, dtype=complex)
    entries[position] = bad
    entries[position[::-1]] = np.conj(bad)
    with pytest.raises(NonFiniteValue):
        require_hermitian(entries)


def test_as_operator_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        as_operator(np.zeros((2, 3)))
