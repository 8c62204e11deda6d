from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import towergen.linalg as linalg
import towergen.units as units_module
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
from towergen.stabilize import perturb_units
from towergen.units import canonical_units, unit_defects

from conftest import same_bits


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
def test_non_finite_entry_of_a_zero_stack_fails_closed(bad):
    stack = np.zeros((3, 4, 4), dtype=complex)
    stack[2, 1, 3] = bad
    with pytest.raises(NonFiniteValue):
        op_norms(stack)
    with pytest.raises(NonFiniteValue):
        op_norm(stack[2])


def _block_sparse_stack(rng, dim):
    """Random matrices with zero rows, zero columns or both, an all-zero member,
    a signed-zero member, a full-support member with zero entries, a member
    with one nonzero entry, and members sharing a support size but not a
    support."""
    stack = np.stack([random_complex(rng, dim) for _ in range(9)])
    stack[0, ::3] = 0.0
    stack[1, :, 1::2] = 0.0
    stack[2, : dim // 2] = 0.0
    stack[2, :, dim // 3 :] = 0.0
    stack[3] = 0.0
    stack[4] = -0.0
    stack[5][np.eye(dim, dtype=bool)] = 0.0
    stack[6] = 0.0
    stack[6, dim - 1, 0] = complex(0.0, -3.0)
    stack[7, 1::3] = 0.0
    stack[8, 2::3] = 0.0
    return stack


@pytest.mark.parametrize("dim", [8, linalg._SUPPORT_MIN_COLUMNS, 45])
def test_op_norms_on_supports_are_each_matrix_alone(dim):
    """Each matrix is solved on its own nonzero rows and columns, so a stack's
    norms are those of its matrices one at a time, bit for bit, whatever the
    other matrices' supports; and they are the largest singular values."""
    rng = np.random.default_rng(dim)
    stack = _block_sparse_stack(rng, dim)
    norms = op_norms(stack)
    assert same_bits(norms, np.array([op_norm(m) for m in stack]))
    for order in (slice(None, None, -1), [2, 7, 8, 0]):
        assert same_bits(op_norms(stack[order]), norms[order])
    assert list(norms[[3, 4]]) == [0.0, 0.0] and not np.signbit(norms).any()
    assert norms[6] == 3.0
    assert norms == pytest.approx(np.linalg.norm(stack, ord=2, axis=(1, 2)), rel=1e-13)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 5),
    rows=st.integers(1, 40),
    cols=st.integers(1, 40),
    density=st.sampled_from([0.05, 0.3, 0.9]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_op_norms_of_random_patterns_are_each_matrix_alone(n, rows, cols, density, seed):
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((n, rows, cols)) + 1j * rng.standard_normal((n, rows, cols))
    stack[:, rng.random(rows) > density] = 0.0
    stack[..., rng.random(cols) > density] = 0.0
    stack[rng.random((n, rows, cols)) > density] = 0.0
    norms = op_norms(stack)
    assert same_bits(norms, np.array([op_norm(m) for m in stack]))
    assert norms == pytest.approx(np.linalg.norm(stack, ord=2, axis=(1, 2)), rel=1e-13, abs=0.0)


def test_op_norms_solve_each_support_once(monkeypatch):
    """A*A is formed on the support alone: a 63 x 63 matrix living on 21 rows and
    columns is one 21 x 21 eigensolve, matrices of one support size share one,
    a stack with no zero entry is solved whole, and so is a stack of matrices
    with fewer than ``_SUPPORT_MIN_COLUMNS`` columns."""
    grams = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: grams.append(g.shape) or eigvalsh(g))
    rng = np.random.default_rng(4)
    sparse = np.zeros((3, 63, 63), dtype=complex)
    sparse[0, ::3, 1::3] = random_complex(rng, 21)
    sparse[1, 21:42, :21] = random_complex(rng, 21)
    sparse[2, :42, :42] = random_complex(rng, 42)
    op_norms(sparse)
    assert sorted(grams) == [(1, 42, 42), (2, 21, 21)]
    grams.clear()
    op_norms(np.stack([random_complex(rng, 63) for _ in range(2)]))
    small = np.zeros((1, 20, 20), dtype=complex)
    small[0, :10, :10] = random_complex(rng, 10)
    op_norms(small)
    assert grams == [(2, 63, 63), (1, 20, 20)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan), complex(0, -np.inf)])
@pytest.mark.parametrize("dim", [8, 40])
def test_non_finite_entry_in_a_zero_row_fails_closed(bad, dim):
    rng = np.random.default_rng(6)
    stack = np.stack([random_complex(rng, dim) for _ in range(3)])
    stack[1, 2] = 0.0
    stack[1, 2, 5] = bad
    with pytest.raises(NonFiniteValue):
        op_norms(stack)
    with pytest.raises(NonFiniteValue):
        op_norm(stack[1])


def _generalized_diagonal(rng, rows, cols, scale=1.0):
    """A rows x cols matrix with one complex entry of modulus about ``scale`` in
    each of min(rows, cols) rows and columns, paired by a random permutation."""
    out = np.zeros((rows, cols), dtype=complex)
    n = min(rows, cols)
    r, c = rng.permutation(rows)[:n], rng.permutation(cols)[:n]
    out[r, c] = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return out


def _mixed_stack(rng, dim):
    """Permuted complex generalized diagonals (one at 1e-300, one at 1e300, one
    real and diagonal, one with a signed zero and one zero entry), full
    matrices, an all-zero matrix and matrices that are not generalized
    diagonals although they have few nonzero entries."""
    gd = [_generalized_diagonal(rng, dim, dim, scale) for scale in (1.0, 1e-300, 1e300, 0.5)]
    gd.append(np.diag(rng.standard_normal(dim)).astype(complex))
    r, c = np.nonzero(gd[3])
    gd[3][r[0], c[0]] = 0.0
    gd[3][r[1], c[1]] = complex(-0.0, 2.0)
    two_in_a_row = np.zeros((dim, dim), dtype=complex)
    two_in_a_row[0, :2] = [3.0, 4.0j]
    two_in_a_col = two_in_a_row.T.copy()
    full = [random_complex(rng, dim) for _ in range(2)]
    zero = np.full((dim, dim), complex(-0.0, -0.0))
    return np.stack(gd + full + [zero, two_in_a_row, two_in_a_col]), len(gd)


def _gd_oracle(m: np.ndarray) -> float:
    """The largest modulus of a generalized diagonal's entries, by libm's hypot."""
    return float(np.hypot(m.real, m.imag).max())


@pytest.mark.parametrize("dim", [3, 8, linalg._SUPPORT_MIN_COLUMNS, 45])
def test_generalized_diagonals_are_normed_by_their_largest_entry(monkeypatch, dim):
    """Each generalized diagonal of a mixed stack is its largest hypot(re, im),
    with no eigensolve; every other matrix keeps its eigensolve; and each norm
    is ``op_norm`` of its matrix alone, bit for bit, in any order of the stack,
    and the largest singular value, at 1e-300 and 1e300 too."""
    rng = np.random.default_rng(dim)
    stack, diagonals = _mixed_stack(rng, dim)
    solved = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: solved.append(len(g)) or eigvalsh(g))
    norms = op_norms(stack)
    assert sum(solved) == len(stack) - diagonals - 1  # the zero matrix needs none either
    assert same_bits(norms, np.array([op_norm(m) for m in stack]))
    for order in (slice(None, None, -1), [5, 0, 7, 2, 8]):
        assert same_bits(op_norms(stack[order]), norms[order])
    assert list(norms[:diagonals]) == [_gd_oracle(m) for m in stack[:diagonals]]
    assert norms[diagonals + 2] == 0.0 and not np.signbit(norms).any()
    assert norms[-2] == norms[-1] == pytest.approx(5.0, rel=1e-15)
    for m, norm in zip(stack, norms):  # the dense oracle, at the matrix's own scale
        scale = np.abs(m).max() or 1.0
        assert norm / scale == pytest.approx(np.linalg.norm(m / scale, ord=2), rel=1e-13)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 5),
    rows=st.integers(1, 40),
    cols=st.integers(1, 40),
    kept=st.floats(0.0, 1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_generalized_diagonals_are_each_matrix_alone(n, rows, cols, kept, seed):
    """Stacks of rectangular generalized diagonals with some entries zeroed, and
    some of every other matrix made full: the invariant and the oracle hold."""
    rng = np.random.default_rng(seed)
    stack = np.stack([_generalized_diagonal(rng, rows, cols) for _ in range(n)])
    stack[rng.random(stack.shape) > kept] = 0.0
    full = random_complex(rng, max(rows, cols))[:rows, :cols]
    stack[::2] += (rng.random(n) < 0.5)[::2, None, None] * full
    norms = op_norms(stack)
    assert same_bits(norms, np.array([op_norm(m) for m in stack]))
    assert norms == pytest.approx(np.linalg.norm(stack, ord=2, axis=(1, 2)), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan), complex(0, -np.inf)])
def test_non_finite_generalized_diagonal_fails_closed(bad):
    stack = np.stack([np.diag([1.0, 2.0, 3.0]).astype(complex)] * 2)
    stack[1, 2, 2] = bad
    with pytest.raises(NonFiniteValue):
        op_norms(stack)
    with pytest.raises(NonFiniteValue):
        op_norm(stack[1])


def test_generalized_diagonal_norm_past_the_largest_double_fails_closed():
    huge = np.zeros((2, 3, 3), dtype=complex)
    huge[:, 0, 1] = complex(1.5e308, 1.5e308)
    with pytest.raises(NonFiniteValue):
        op_norms(huge)
    with pytest.raises(NonFiniteValue):
        op_norm(huge[0])


OP_NORM_SCALES = [1e-300, 1e-160, 1.0, 1e300]


@pytest.mark.parametrize("scale", OP_NORM_SCALES)
def test_op_norm_at_every_finite_scale(scale):
    """A*A is formed at unit scale, so s A neither under- nor overflows in it:
    each norm is s times the unit-scale norm, to the rounding of s A."""
    rng = np.random.default_rng(8)
    diag = np.diag([3.0, 4.0]).astype(complex)
    for a in (diag, random_complex(rng, 5), rng.standard_normal((3, 4)) + 0j):
        assert op_norm(scale * a) == pytest.approx(scale * op_norm(a), rel=1e-14)
    assert op_norm(scale * diag) / scale == pytest.approx(4.0, rel=1e-15)


@pytest.mark.parametrize("exponent", [-996, -531, 0, 996])
def test_op_norms_commute_with_power_of_two_scaling(exponent):
    """2^k A, at about 1e-300, 1e-160, 1 and 1e300, is scaled to the same unit-scale
    matrix as A, so its norms are A's scaled by 2^k, bit for bit."""
    rng = np.random.default_rng(9)
    stack = np.stack([random_complex(rng, 6) for _ in range(3)])
    scaled = np.ldexp(stack.view(np.float64), exponent).view(np.complex128)
    assert same_bits(op_norms(scaled), np.ldexp(op_norms(stack), exponent))


def test_mixed_scale_stack_scales_each_matrix_alone():
    rng = np.random.default_rng(10)
    base = np.stack([random_complex(rng, 4) for _ in range(5)])
    scales = np.array([1e-300, 1e-160, 1.0, 1e300, 0.0])
    stack = base * scales[:, None, None]
    norms = op_norms(stack)
    assert list(norms) == [op_norm(m) for m in stack]
    assert norms == pytest.approx(op_norms(base) * scales, rel=1e-14)


def test_op_norm_of_subnormal_input_is_exact():
    """5e-324 is 2^-1074, the least subnormal, so diag(3, 4) times it is exact.
    Its exponent is clamped at -1021, and scaling by 2^1021 gives diag(3, 4) 2^-53
    exactly; A*A = diag(9, 16) 2^-106 is exact at that scale, and so is the root
    2^-51 of its top eigenvalue.  Scaled back by 2^-1021 that is 4 x 2^-1074,
    a subnormal the format holds: the exact norm, 2e-323.  At the input's own
    scale A*A underflows to zero."""
    assert op_norm(5e-324 * np.diag([3.0, 4.0])) == 4 * 5e-324 == 2e-323


def test_op_norm_beyond_the_largest_double_fails_closed():
    """Finite input whose norm exceeds the largest double raises, with no warning."""
    assert op_norm(np.full((2, 2), 0.75e308)) == pytest.approx(1.5e308, rel=1e-15)
    with pytest.raises(NonFiniteValue):
        op_norm(np.full((2, 2), 1.5e308))
    with pytest.raises(NonFiniteValue):
        op_norms(np.full((2, 1, 1), complex(1.5e308, 1.5e308)))


ONE_MATRIX_KINDS = ["dense", "generalized diagonal", "zero rows", "zero columns", "zero"]


def _one_matrix(kind, rng, rows, cols):
    """A rows x cols matrix of ``kind``: zero rows or columns each with chance 1/2."""
    if kind == "generalized diagonal":
        return _generalized_diagonal(rng, rows, cols)
    a = random_complex(rng, max(rows, cols))[:rows, :cols]
    if kind == "zero rows":
        a[rng.random(rows) < 0.5] = 0.0
    elif kind == "zero columns":
        a[:, rng.random(cols) < 0.5] = 0.0
    elif kind == "zero":
        a[:] = complex(-0.0, 0.0)
    return a


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    rows=st.integers(1, 45),
    cols=st.integers(1, 45),
    kind=st.sampled_from(ONE_MATRIX_KINDS),
    exponent=st.integers(-1000, 1000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_one_matrix_norm_is_its_norm_in_a_stack(rows, cols, kind, exponent, seed):
    """``op_norm`` does its bookkeeping on Python scalars; the stack path does it
    on arrays.  At every size and finite scale both give each matrix the same
    bits, and the largest singular value."""
    rng = np.random.default_rng(seed)
    a, b = _one_matrix(kind, rng, rows, cols), random_complex(rng, max(rows, cols))[:rows, :cols]
    a, b = (np.ldexp(m.view(np.float64), exponent).view(np.complex128) for m in (a, b))
    norm = op_norm(a)
    assert same_bits(np.array([norm]), op_norms(np.stack([b, a]))[1:])
    assert same_bits(np.array([norm]), op_norms(a[None]))
    unit = np.ldexp(a.view(np.float64), -exponent).view(np.complex128)
    assert norm == pytest.approx(np.ldexp(np.linalg.norm(unit, ord=2), exponent), rel=1e-13)


@pytest.mark.parametrize("kind", ONE_MATRIX_KINDS)
@pytest.mark.parametrize("cols", [1, 3, 40])
def test_one_matrix_norm_fails_closed(kind, cols):
    """NaN and inf raise in ``op_norm`` as in a stack, and so does a norm past the
    largest double: an entry 1.5e308 (1 + i), of modulus 2.1e308, in place of a
    nonzero one keeps the matrix's kind."""
    rng = np.random.default_rng(cols)
    a = _one_matrix(kind, rng, 5, cols)
    broken = [a.copy() for _ in range(3)]
    for m, bad in zip(broken, (np.nan, np.inf, complex(0, -np.inf))):
        m[2, cols // 2] = bad
    if kind != "zero":
        broken.append(a.copy())
        broken[-1][tuple(np.argwhere(a)[0])] = complex(1.5e308, 1.5e308)
    for m in broken:
        with pytest.raises(NonFiniteValue):
            op_norm(m)
        for stack in (m[None], np.stack([a, m])):
            with pytest.raises(NonFiniteValue):
                op_norms(stack)


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
    with pytest.raises(NonConvergence):  # an m = 2 rung: a 2 x 2 eigensolve of X X^*
        basis = np.eye(4, 2, dtype=complex)
        ladder_units([basis], np.ones((4, 4), dtype=complex), (2,), 1, trace=RecoveryTrace())
    with pytest.raises(NonConvergence):  # no generalized diagonal: an eigensolve of A*A
        op_norm(np.ones((2, 2)))
    # a generalized diagonal's norm is its largest modulus: no LAPACK call to fail
    assert op_norm(identity(2)) == 1.0
    assert op_norm(np.kron(identity(3), np.diag([1.0, -2.0]))) == 2.0
    rectangular = _generalized_diagonal(np.random.default_rng(3), 5, 7)
    assert op_norm(rectangular) == _gd_oracle(rectangular)
    # an m = 1 rung's 1 x 1 eigensolve is the closed form: no LAPACK call to fail
    _ladder(np.array([[0.0, 0.25], [0.25, 0.0]], dtype=complex))


ONE_BY_ONE = [
    (0.5, 0.0), (0.5, -0.0), (0.0, 0.0), (-0.0, 0.0), (-0.0, -0.0),
    (5e-324, -0.0), (-5e-324, 0.0), (1e300, 0.0), (-1e300, -0.0), (2.0, 3.0),
]


@pytest.mark.parametrize("re, im", ONE_BY_ONE)
def test_eigh_of_one_by_one_is_lapacks_answer(re, im):
    """heevd at N = 1 returns Re a and [[1]]; the closed form gives the same bits."""
    a = np.array([[complex(re, im)]])
    w, v = linalg.eigh(a, "1 x 1")
    lw, lv = np.linalg.eigh(a)
    assert same_bits(w, lw) and same_bits(v, lv)


@pytest.mark.parametrize(
    "entry",
    [complex(np.nan, 0.0), complex(np.inf, 0.0), complex(1.0, np.nan), complex(0.0, -np.inf)],
)
def test_eigh_of_one_by_one_rejects_non_finite_input(entry, monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", pytest.fail)  # rejected before any eigensolve
    with pytest.raises(NonFiniteValue):
        linalg.eigh(np.array([[entry]]), "1 x 1")


def test_eigh_of_a_stack_of_one_by_ones_is_lapacks_answer(monkeypatch):
    a = np.array([[[complex(-0.0, 1.0)]], [[complex(5e-324, -0.0)]], [[complex(-1e300, 2.0)]]])
    w, v = linalg.eigh(a, "1 x 1 stack")
    lw, lv = np.linalg.eigh(a)
    assert same_bits(w, lw) and same_bits(v, lv)
    a[1, 0, 0] = complex(0.0, np.nan)
    monkeypatch.setattr(np.linalg, "eigh", pytest.fail)
    with pytest.raises(NonFiniteValue):
        linalg.eigh(a, "1 x 1 stack")


def test_spectral_basis_of_a_stack_is_each_matrix_alone():
    rng = np.random.default_rng(5)
    h = np.stack([random_complex(rng, 6) for _ in range(4)])
    h = (h + h.conj().transpose(0, 2, 1)) / 4 + 0.5 * np.eye(6)
    w = np.linalg.eigvalsh(h)
    threshold = 0.5 * (w[0, 2] + w[0, 3])  # keeps the top three eigenvalues of the first
    h[1:] += (threshold - 0.5 * (w[1:, 2] + w[1:, 3]))[:, None, None] * np.eye(6)  # and of each
    stacked = spectral_basis(h, threshold)
    assert stacked.shape == (4, 6, 3)
    for one, basis in zip(h, stacked, strict=True):
        assert same_bits(basis, spectral_basis(one, threshold))
    h[2] += 10.0 * np.eye(6)  # every eigenvalue of the third above the threshold
    with pytest.raises(DimensionMismatch):
        spectral_basis(h, threshold)
    h[1] -= (np.linalg.eigvalsh(h[1])[3] - threshold - 1e-9) * np.eye(6)
    with pytest.raises(EigenvalueNearThreshold, match="spectrum") as info:
        spectral_basis(h, threshold)
    with pytest.raises(EigenvalueNearThreshold) as alone:
        spectral_basis(h[1], threshold)
    assert str(info.value) == str(alone.value)


def _grid(rng, rows, cols, dim, scale):
    """Residuals r(l, r) = A_l B_r - B_r of random families, scaled per pair."""
    a = rng.standard_normal((rows, dim, dim)) + 1j * rng.standard_normal((rows, dim, dim))
    b = rng.standard_normal((cols, dim, dim)) + 1j * rng.standard_normal((cols, dim, dim))
    weight = scale(rng.uniform(size=(rows, cols)))

    def residual(li, ri):
        return weight[li, ri][..., None, None] * (a[li] @ b[ri] - b[ri])

    return residual


def _brute_rows(rows, cols, residual):
    """op_norms of every pair, row by row: the maximum of each row."""
    return np.array([op_norms(residual(np.full(cols, r), np.arange(cols))).max() for r in range(rows)])


@pytest.mark.parametrize("dim", [1, 3, 9])
@pytest.mark.parametrize("scale", [lambda w: w, lambda w: 1.0 + 1e-12 * w, lambda w: 0 * w + 1.0])
def test_screened_max_norm_matches_all_pairs(dim, scale):
    rng = np.random.default_rng(dim)
    rows, cols = 11, 37
    residual = _grid(rng, rows, cols, dim, scale)
    brute = _brute_rows(rows, cols, residual)
    assert np.array_equal(screened_max_norm(rows, cols, dim, residual), brute)
    assert brute.max() == max(
        op_norm(residual(np.array([l]), np.array([r]))[0])
        for l in range(rows)
        for r in range(cols)
    )


def test_screened_max_norm_vanishing_grid_measures_nothing(monkeypatch):
    measured = []
    monkeypatch.setattr(linalg, "op_norms", lambda stack: measured.append(stack) or 0)

    def zeros(li, ri):
        return np.zeros(np.broadcast(li, ri).shape + (4, 4), dtype=complex)

    assert np.array_equal(screened_max_norm(5, 6, 4, zeros), np.zeros(5))
    assert screened_max_norm(0, 6, 4, zeros).shape == (0,)
    assert np.array_equal(screened_max_norm(3, 0, 4, zeros), np.zeros(3))
    assert measured == []


def test_screened_max_norm_non_finite_fails_closed():
    def residual(li, ri):
        out = np.ones(np.broadcast(li, ri).shape + (2, 2), dtype=complex)
        out[(li == 3) & (ri == 1)] = np.nan
        return out

    with pytest.raises(NonFiniteValue):
        screened_max_norm(4, 2, 2, residual)
    # one non-finite entry among finite candidates, at the scales the bound faces
    rng = np.random.default_rng(3)
    for scale in (1e-90, 1.0, 1e100):
        grid = scale * (rng.standard_normal((12, 3, 3)) + 1j * rng.standard_normal((12, 3, 3)))
        for bad in (np.nan, np.inf):
            broken = grid.copy()
            broken[7, 1, 2] = bad
            with pytest.raises(NonFiniteValue):
                screened_max_norm(3, 4, 3, lambda li, ri: broken[li * 4 + ri])
            with pytest.raises(NonFiniteValue):
                max_distance(broken.reshape(3, 4, 3, 3), grid.reshape(3, 4, 3, 3))


@pytest.mark.parametrize("dim", [1, 4])
def test_max_distance_matches_per_pair_loop(dim):
    rng = np.random.default_rng(dim)
    xs = rng.standard_normal((40, dim, dim)) + 1j * rng.standard_normal((40, dim, dim))
    ys = np.stack([x + 1e-3 * rng.uniform() * rng.standard_normal((dim, dim)) for x in xs])
    ys[7] = xs[7]  # one exactly vanishing difference
    xs, ys = xs.reshape(4, 10, dim, dim), ys.reshape(4, 10, dim, dim)
    want = [max(op_norm(x - y) for x, y in zip(xr, yr)) for xr, yr in zip(xs, ys)]
    assert max_distance(xs, ys).tolist() == want
    assert max_distance(xs, xs).tolist() == [0.0] * 4
    assert max_distance(np.empty((2, 0, dim, dim)), np.empty((2, 0, dim, dim))).tolist() == [0.0] * 2
    assert max_distance(np.empty((0, 3, dim, dim)), np.empty((0, 3, dim, dim))).shape == (0,)
    for bad in (ys[:-1], ys[0], ys[:, None], list(ys[1:])):
        with pytest.raises(DimensionMismatch):
            max_distance(xs, bad)


@pytest.mark.parametrize("scale", OP_NORM_SCALES)
def test_max_distance_at_every_finite_scale(scale):
    """A difference whose Frobenius norm would under- or overflow at its own
    scale is bounded at unit scale, as ``op_norms`` measures it: no bound
    rules a pair out by underflowing, none overflows, and each row's maximum
    is the unit-scale oracle's, scaled."""
    pair = np.stack([np.diag([3.0, 4.0]), np.diag([5.0, 0.0])]).astype(complex)[None]
    got = max_distance(scale * pair, np.zeros_like(pair))
    assert got.tolist() == [op_norm(scale * pair[0, 1])]
    assert got[0] == pytest.approx(5.0 * scale, rel=1e-15)
    rng = np.random.default_rng(11)
    xs = rng.standard_normal((3, 7, 4, 4)) + 1j * rng.standard_normal((3, 7, 4, 4))
    ys = xs + 1e-3 * rng.standard_normal((3, 7, 4, 4))
    oracle = max_distance(xs, ys)
    got = max_distance(scale * xs, scale * ys)
    assert got.tolist() == [max(op_norm(d) for d in row) for row in scale * xs - scale * ys]
    assert got == pytest.approx(scale * oracle, rel=1e-12)


@pytest.mark.parametrize("exponent", [-996, -531, 0, 996])
def test_screened_max_norm_commutes_with_power_of_two_scaling(exponent):
    """2^k X, at about 1e-300, 1e-160, 1 and 1e300, gives each row 2^k times its
    unit-scale maximum, bit for bit."""
    rng = np.random.default_rng(13)
    residual = _grid(rng, 4, 9, 5, lambda w: w)

    def scaled(li, ri):
        return np.ldexp(residual(li, ri).view(np.float64), exponent).view(np.complex128)

    unit = screened_max_norm(4, 9, 5, residual)
    assert same_bits(screened_max_norm(4, 9, 5, scaled), np.ldexp(unit, exponent))
    assert same_bits(screened_max_norm(4, 9, 5, scaled), _brute_rows(4, 9, scaled))


def test_max_distance_of_subnormal_differences_is_exact():
    """diag(3, 4) and diag(5, 0) times 5e-324 = 2^-1074 are exact, and so are
    their norms: the row's maximum is 5 x 2^-1074, 2.5e-323."""
    pair = 5e-324 * np.stack([np.diag([3.0, 4.0]), np.diag([5.0, 0.0])]).astype(complex)[None]
    assert max_distance(pair, np.zeros_like(pair)).tolist() == [5 * 5e-324] == [2.5e-323]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    rows=st.integers(1, 5),
    cols=st.integers(1, 40),
    dim=st.integers(1, 6),
    rank_one=st.booleans(),
    scale=st.sampled_from([1e-150, 1e-90, 1.0, 1e100]),
    zero_share=st.sampled_from([0.0, 0.3, 1.0]),
    ties=st.integers(0, 3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_screened_maxima_equal_the_exhaustive_maxima(
    rows, cols, dim, rank_one, scale, zero_share, ties, seed
):
    """The bound against op_norm of every pair, bit for bit.  At 1e-90 the
    fourth power of an unnormalized residual underflows and at 1e100 it
    overflows, so the Gram-power bound must work at unit scale."""
    rng = np.random.default_rng(seed)
    n = rows * cols

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    grid = gaussian(n, dim, 1) * gaussian(n, 1, dim) if rank_one else gaussian(n, dim, dim)
    grid *= scale * rng.uniform(0.5, 1.0, size=n)[:, None, None]
    grid[rng.uniform(size=n) < zero_share] = 0.0
    top = int(np.argmax([op_norm(x) for x in grid]))
    grid[rng.integers(0, n, size=ties)] = grid[top]  # exact ties at the maximum

    def residual(li, ri):
        return grid[li * cols + ri]

    brute = [max(op_norm(x) for x in row) for row in grid.reshape(rows, cols, dim, dim)]
    assert screened_max_norm(rows, cols, dim, residual).tolist() == brute
    ys = scale * gaussian(rows, cols, dim, dim)
    xs = ys + grid.reshape(ys.shape)
    want = [max(op_norm(x - y) for x, y in zip(xr, yr)) for xr, yr in zip(xs, ys)]
    assert max_distance(xs, ys).tolist() == want


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 30),
    dim=st.sampled_from([1, 3, 12, 40]),
    scale_exponents=st.lists(st.sampled_from([-100, -50, 0, 50, 100]), min_size=6, max_size=6),
    zero_rows=st.lists(st.booleans(), min_size=6, max_size=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_screened_max_norm_is_exact_in_every_row(
    rows, cols, dim, scale_exponents, zero_rows, seed
):
    """Each row's maximum against brute op_norms of that row, bit for bit.

    Rows differ in scale by up to 1e200, so a row's maximum must never rule
    out another row's pairs; the pairs of an all-zero row are never measured
    and its maximum is 0.0.  A workspace block holds 113 pairs at dim 12 and
    10 at dim 40, so those grids span several blocks, some holding pairs of
    more than one row."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** np.array(scale_exponents[:rows], dtype=float)
    scales[np.array(zero_rows[:rows])] = 0.0
    grid = rng.standard_normal((rows, cols, dim, dim)) + 1j * rng.standard_normal(
        (rows, cols, dim, dim)
    )
    grid *= scales[:, None, None, None] * rng.uniform(0.5, 1.0, size=(rows, cols, 1, 1))

    def residual(li, ri):
        return grid[li, ri]

    brute = _brute_rows(rows, cols, residual)
    measure = linalg.op_norms

    def nonzero_only(stack):
        assert stack.any(axis=(1, 2)).all(), "measured a pair of an all-zero row"
        return measure(stack)

    with mock.patch.object(linalg, "op_norms", nonzero_only):
        got = screened_max_norm(rows, cols, dim, residual)
    assert np.array_equal(got, brute)
    assert np.array_equal(got == 0.0, scales == 0.0)
    # a NaN in one row fails closed, whichever row it is in
    broken = rng.integers(rows)
    grid[broken, rng.integers(cols), 0, 0] = np.nan
    with pytest.raises(NonFiniteValue):
        screened_max_norm(rows, cols, dim, residual)


def test_gram_power_screen_leaves_few_products_to_measure(monkeypatch):
    """The default stabilize-sweep's 60 noisy [5, 5] systems: each system's
    250 residuals e_ab e_bc - e_ac are bounded, and the Gram-power bound
    leaves at most 10 of them for an eigensolve; the other 2250 pairs never
    reach a screen.  The screen of the 50 adjoint residuals is not counted."""
    counted, measured = [False], []
    kernel, screen = linalg._op_norms, units_module.screened_max_norm

    def count(stack):
        if counted[0]:
            measured[-1] += len(stack)
        return kernel(stack)

    def multiplication_screen(rows, cols, dim, residual):
        if cols != 250:
            return screen(rows, cols, dim, residual)
        counted[0] = True
        measured.append(0)
        try:
            return screen(rows, cols, dim, residual)
        finally:
            counted[0] = False

    monkeypatch.setattr(linalg, "_op_norms", count)
    monkeypatch.setattr(units_module, "screened_max_norm", multiplication_screen)
    exact = canonical_units((5, 5), (1, 1))
    for delta in (1e-6, 1e-4, 1e-3):
        for s in range(20):
            unit_defects(perturb_units(exact, delta, 2024 + 1000 * s + int(1e9 * delta) % 997))
    assert len(measured) == 60
    assert 1 <= min(measured) and max(measured) <= 10


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
