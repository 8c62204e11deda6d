"""Dense complex matrix kernel.

Everything in the package works on square ``numpy`` arrays of complex128.
This module holds the norm and spectral primitives, batched over
stacks of matrices where callers need many norms, and ``_lapack``, the
wrapper that makes a LAPACK call fail closed on non-finite input.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EigenvalueNearThreshold,
    NonConvergence,
    NonFiniteValue,
)

DEFAULT_DIM_CAP = 4096

_HERMITIAN_TOL = 1e-12

# Relative rounding margin of the Frobenius screen in ``screened_max_norm``.
# Both norms of one computed d x d matrix carry relative rounding errors of
# order d^2 * eps, under 4e-9 up to DEFAULT_DIM_CAP, so a candidate whose
# Frobenius norm times (1 + SCREEN_MARGIN) is at most the running maximum
# cannot exceed it: ||X|| <= ||X||_F.
SCREEN_MARGIN = 1e-8

# Bytes of one candidate stack formed by ``screened_max_norm``.
_WORKSPACE_BYTES = 1 << 18


def as_operator(entries) -> np.ndarray:
    """Validate and coerce to a square complex128 matrix."""
    a = np.asarray(entries, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return np.ascontiguousarray(a)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a^*) / 2 of a matrix, or of each matrix of a stack."""
    return (a + a.conj().swapaxes(-1, -2)) / 2


def require_hermitian(a, tol: float = _HERMITIAN_TOL) -> np.ndarray:
    """Validate Hermitianity entrywise at construction time.

    Non-finite entries raise NonFiniteValue: a NaN defect never exceeds
    ``tol``, so the entrywise test alone would pass them.
    """
    a = as_operator(a)
    if not np.isfinite(a).all():
        raise NonFiniteValue("matrix has non-finite entries; Hermitianity is undefined")
    defect = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if defect > tol:
        raise DimensionMismatch(f"matrix is not Hermitian: entrywise defect {defect:.3e} > {tol:.1e}")
    return a


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


def op_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of an (n, p, q) stack.

    One Hermitian eigensolve of A*A per matrix; a 1 x 1 matrix gives its
    modulus.  An empty stack, or one whose entries are all exactly zero
    (signed zeros included), gives +0.0 for every matrix without any
    eigensolve, the value the eigensolve gives it.  Each result is
    bit-identical to ``op_norm`` of that matrix.
    Deterministic; for Hermitian input this equals the spectral radius.
    Raises NonFiniteValue on non-finite entries, also when A*A overflows.
    """
    return _op_norms(np.asarray(stack, dtype=np.complex128))


def op_norm(a: np.ndarray) -> float:
    """Largest singular value of one matrix; see ``op_norms``."""
    return float(_op_norms(np.asarray(a, dtype=np.complex128)[None])[0])


def _op_norms(stack: np.ndarray) -> np.ndarray:
    """The kernel of ``op_norms`` and ``op_norm``; both call it directly so that
    each stays a leaf whose time a profile attributes to it alone."""
    # an empty or exactly zero stack, as the construction's identities mostly
    # measure; NaN and inf are nonzero here, so they still reach the checks below
    if not stack.any():
        return np.zeros(stack.shape[0])
    if stack.shape[1:] == (1, 1):
        # libm's hypot, which np.abs of a complex array does not always match
        norms = np.hypot(stack.real[:, 0, 0], stack.imag[:, 0, 0])
        if not math.isfinite(norms.max()):
            raise NonFiniteValue("operator norm is NaN or infinite")
        return norms
    # A*A is finite once _lapack accepts it, so its eigenvalues are too; an
    # overflow of A*A itself is rejected as non-finite input
    gram = stack.conj().transpose(0, 2, 1) @ stack
    top = _lapack(np.linalg.eigvalsh, gram, "operator norm eigensolve of A*A")[:, -1]
    # rounding may leave the top eigenvalue at or below zero; adding 0.0
    # turns a -0.0 from maximum into 0.0
    return np.sqrt(np.maximum(top, 0.0) + 0.0)


def _lapack(routine: Callable, a: np.ndarray, what: str):
    """``routine(a)`` for a LAPACK-backed numpy routine, failing closed.

    Non-finite input raises NonFiniteValue before LAPACK sees it: LAPACK
    may reject it, return NaN beside finite values that pass a threshold
    test, or not return at all.  A LinAlgError on finite input raises
    NonConvergence.
    """
    if not np.isfinite(a).all():
        raise NonFiniteValue(f"{what}: input has non-finite entries")
    try:
        return routine(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"{what} failed: {exc}") from exc


def _frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (..., p, q) stack."""
    flat = np.ascontiguousarray(stack, dtype=np.complex128).view(np.float64)
    flat = flat.reshape(*stack.shape[:-2], -1)
    return np.sqrt(np.einsum("...k,...k->...", flat, flat))


def screened_max_norm(
    rows: int, cols: int, dim: int, residual: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> float:
    """Exact maximum operator norm of ``residual(l, r)`` over a rows x cols grid.

    ``residual(li, ri)`` takes broadcastable index arrays and returns the
    dim x dim residuals of those pairs, stacked in their broadcast shape;
    it must give each pair the same bits whatever else it is asked for,
    as batched matrix products do.  The Frobenius norms of all pairs are
    taken a bounded block at a time; pairs are then measured in decreasing
    Frobenius order until the next one, raised by SCREEN_MARGIN, is at most
    the running maximum.  Since ||X|| <= ||X||_F no unmeasured pair can
    exceed it, and an exactly vanishing grid needs no measurement.
    """
    per_block = max(1, _WORKSPACE_BYTES // max(1, 16 * dim * dim))
    width = max(1, min(cols, per_block))
    height = max(1, per_block // width)
    fro = np.zeros((rows, cols))
    for top in range(0, rows, height):
        li = np.arange(top, min(top + height, rows))[:, None]
        for left in range(0, cols, width):
            ri = np.arange(left, min(left + width, cols))[None, :]
            fro[li, ri] = _frobenius_norms(residual(li, ri))
    fro = fro.ravel()
    if not np.isfinite(fro).all():
        raise NonFiniteValue("Frobenius norm is NaN or infinite")
    order = np.argsort(-fro, kind="stable")
    bound = fro[order] * (1.0 + SCREEN_MARGIN)
    best, start, step = 0.0, 0, 1  # the largest alone first: its norm prunes the rest
    while start < len(order):
        idx = order[start : start + step][bound[start : start + step] > best]
        if not len(idx):
            break
        best = max(best, float(op_norms(residual(idx // cols, idx % cols)).max()))
        start += step
        step = max(1, per_block // 4)  # a measurement holds about four stacks at once
    return best


def max_distance(xs: Sequence[np.ndarray], ys: Sequence[np.ndarray]) -> float:
    """Exact maximum over k of ||xs[k] - ys[k]|| for two same-length families.

    ``screened_max_norm`` over a 1 x n grid: a difference is formed only for
    the indices the screen asks for, a bounded block at a time, and each
    measured one gets the bits ``op_norm`` gives it.  Empty families give 0.0.
    """
    if len(xs) != len(ys):
        raise DimensionMismatch(f"families differ in length: {len(xs)} vs {len(ys)}")
    if not len(xs):
        return 0.0
    dim = xs[0].shape[0]

    def residual(li: np.ndarray, ri: np.ndarray) -> np.ndarray:
        ks = np.broadcast_to(ri, np.broadcast_shapes(li.shape, ri.shape))
        out = np.empty(ks.shape + (dim, dim), dtype=np.complex128)
        for pos, k in np.ndenumerate(ks):
            np.subtract(xs[k], ys[k], out=out[pos])
        return out

    return screened_max_norm(1, len(xs), dim, residual)


def tuple_norm(elems: Sequence[np.ndarray]) -> float:
    """Max of the operator norms across a tuple of same-dimension matrices."""
    mats = list(elems)
    if not mats:
        raise DimensionMismatch("operator tuple must be nonempty")
    dims = {m.shape for m in mats}
    if len(dims) != 1:
        raise DimensionMismatch(f"tuple entries have mixed shapes: {sorted(dims)}")
    return max(op_norm(m) for m in mats)


def spectral_basis(h: np.ndarray, threshold: float) -> np.ndarray:
    """Orthonormal columns spanning the eigenspaces of ``h`` above ``threshold``.

    Requires a spectral gap: no eigenvalue may sit within 1e-8 of the
    threshold, otherwise the eigenspace is numerically ill-defined and
    EigenvalueNearThreshold is raised.
    """
    h = require_hermitian(h, tol=1e-10)
    w, v = _lapack(np.linalg.eigh, hermitian_part(h), "spectral basis")
    if np.min(np.abs(w - threshold)) < 1e-8:
        raise EigenvalueNearThreshold(
            f"eigenvalue within 1e-8 of threshold {threshold}: spectrum {np.round(w, 12)}"
        )
    return v[:, w > threshold]
