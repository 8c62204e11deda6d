"""Dense complex matrix kernel.

Everything in the package works on square ``numpy`` arrays of complex128.
This module holds the norm and spectral primitives, batched over
stacks of matrices where callers need many norms; ``_lapack``, the
wrapper that makes a LAPACK call fail closed on non-finite input; and
``eigh``, the package's one Hermitian eigensolve, which answers a 1 x 1
input in closed form with the bits LAPACK would return.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    EigenvalueNearThreshold,
    NonConvergence,
    NonFiniteValue,
)

DEFAULT_DIM_CAP = 4096

_HERMITIAN_TOL = 1e-12

# Relative rounding margin of the Gram-power bound in ``screened_max_norm``:
# t = f * ||(Y^*Y)^2||_F^(1/4) with Y = X / f and f the Frobenius norm, an upper
# bound since ||X||^4 = lambda_max(X^*X)^2 <= ||(X^*X)^2||_F.  Where f at X's
# own scale may have lost bits (``_SAFE_FROBENIUS``), t is formed for 2^-p X,
# p by ``scale_exponents``' rule, exact for normal entries, and scaled back by
# 2^p as ``op_norms`` scales its norm back: both roundings are monotone, so the
# bound stays at or above that norm even where it is subnormal.  t is homogeneous
# in f, so f's own rounding cancels and only that of Y's entries (eps each)
# remains.  With u = eps / 2 the unit roundoff and ||Y||_F = 1, the computed
# G = Y^*Y is off by at most about d u ||Y||_F^2 in Frobenius norm and ||G||_F >=
# ||Y||_F^2 / sqrt(d), a relative error of d^1.5 u; squaring adds d^1.5 u of its
# own and carries G's error at most 2 sqrt(d) times over, since ||G^2||_F >=
# ||G||_F^2 / sqrt(d).  That is about 3 d^2 u in ||G^2||_F, 5.5e-9 at
# DEFAULT_DIM_CAP, which the 1/4 power cuts to 1.4e-9; with the operator norm's
# own relative rounding of order d^2 * eps, under 4e-9 up to DEFAULT_DIM_CAP, the
# total, about 5.4e-9, stays under SCREEN_MARGIN (unrooted it would be 9.5e-9).
# Parts of 2^-p X are at most 1 and, unless X is subnormal, the largest is at
# least 1/2, so f lies between 1/2 and sqrt(2) d at any finite scale of X; at
# X's own scale f underflows for entries below about 1e-154 and overflows above
# about 1e154.  Entries of Y are at most 1 and ||G^2||_F >= d^-1.5, so neither
# stage under- or overflows; without the division by f, (X^*X)^2 loses its bits
# to underflow for entries below about 1e-77 and overflows above about 1e77.
SCREEN_MARGIN = 1e-8

# Frobenius norms that ``screened_max_norm`` takes at the input's own scale:
# within these, no square overflows, and squares lost to underflow, each below
# 2^-1022, change f^2 >= 2^-800 by less than its rounding.
_SAFE_FROBENIUS = (2.0**-400, 2.0**400)

# Columns from which ``op_norms`` solves each matrix on its support.  Finding
# the supports of a stack costs about 20-30 us, about what the eigensolve of
# a 32 x 32 A*A costs; below that, compressing saves less than it costs.
_SUPPORT_MIN_COLUMNS = 32

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
    """Validate Hermitianity entrywise at construction time, of a matrix or of
    every matrix of an (S, d, d) stack.

    Non-finite entries raise NonFiniteValue: a NaN defect never exceeds
    ``tol``, so the entrywise test alone would pass them.
    """
    a = as_operator(a) if np.ndim(a) != 3 else np.asarray(a, dtype=np.complex128)
    if a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a stack of square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteValue("matrix has non-finite entries; Hermitianity is undefined")
    defect = np.max(np.abs(a - a.conj().swapaxes(-1, -2))) if a.size else 0.0
    if defect > tol:
        raise DimensionMismatch(f"matrix is not Hermitian: entrywise defect {defect:.3e} > {tol:.1e}")
    return a


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


def op_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of an (n, p, q) stack.

    A generalized diagonal, a matrix whose nonzero entries share no row and
    no column (a 1 x 1 matrix, ``diag_term``, a partial permutation times a
    diagonal), gives the largest modulus of its entries, libm's
    ``hypot(re, im)``, with no eigensolve; a stack with no zero entry holds
    none but 1 x 1 matrices and is not searched for them.  Every other
    matrix takes one Hermitian eigensolve of A*A.  Such a matrix of at least
    ``_SUPPORT_MIN_COLUMNS`` columns with a zero row or column is solved on
    its support, the rows and columns holding a nonzero entry, in their
    order, which carry its norm; matrices whose supports are equally large
    share one batched eigensolve.  Each matrix is solved at unit scale:
    scaled by 2^-e, e its ``scale_exponents`` exponent, and its norm scaled
    back by 2^e, so A*A neither under- nor overflows at any finite scale;
    for normal entries both scalings are exact.  An empty stack, or a matrix
    whose entries are all exactly zero (signed zeros included), gives +0.0
    without any eigensolve, the value the eigensolve gives it.  Each result
    depends on its own matrix alone, so it is bit-identical to ``op_norm``
    of that matrix.  Deterministic; for Hermitian input this equals the
    spectral radius.  Raises NonFiniteValue on non-finite entries, and on a
    norm beyond the largest double.
    """
    return _op_norms(np.asarray(stack, dtype=np.complex128))


def op_norm(a: np.ndarray) -> float:
    """Largest singular value of one matrix; see ``op_norms``."""
    return float(_op_norms(np.asarray(a, dtype=np.complex128)[None])[0])


def _op_norms(stack: np.ndarray) -> np.ndarray:
    """The kernel of ``op_norms`` and ``op_norm``; both call it directly so that
    each stays a leaf whose time a profile attributes to it alone."""
    # the stack's largest part, with no temporary: NaN or inf where the stack
    # holds one, and 0.0 where it is exactly zero, as the construction's
    # identities mostly are; those need no eigensolve
    parts = np.ascontiguousarray(stack).view(np.float64)
    largest = max(float(parts.max(initial=0.0)), -float(parts.min(initial=0.0)))
    if not math.isfinite(largest):
        raise NonFiniteValue("operator norm: input has non-finite entries")
    if largest == 0.0:
        return np.zeros(stack.shape[0])
    if stack.shape[1] * stack.shape[2] == 1:
        return _whole_norms(stack)  # the hypot of a generalized diagonal
    nonzero = stack.astype(bool)
    total = np.count_nonzero(nonzero)
    if total == nonzero.size:  # no zero entry: no generalized diagonal above 1 x 1
        return _whole_norms(stack)
    # one nonzero entry at most per row and per column, so at most min(p, q)
    # in all: a cheap count keeps denser matrices off the row and column test;
    # for one matrix, as ``op_norm`` asks, the stack's count is the matrix's
    width = min(stack.shape[1:])
    if len(stack) == 1 and total > width:
        return _support_norms(stack, nonzero)
    count = nonzero.reshape(len(stack), -1).sum(axis=1)
    diagonal = count <= width
    if diagonal.any():
        maybe = nonzero[diagonal]
        rows, cols = maybe.any(axis=2).sum(axis=1), maybe.any(axis=1).sum(axis=1)
        diagonal[diagonal] = (rows == count[diagonal]) & (cols == count[diagonal])
        if diagonal.all():
            return _diagonal_norms(stack)
        if diagonal.any():
            norms = np.empty(len(stack))
            norms[diagonal] = _diagonal_norms(stack[diagonal])
            norms[~diagonal] = _support_norms(stack[~diagonal], nonzero[~diagonal])
            return norms
    return _support_norms(stack, nonzero)


def _diagonal_norms(stack: np.ndarray) -> np.ndarray:
    """``op_norms`` of a finite stack of generalized diagonals: the largest
    ``hypot(re, im)`` of each matrix's entries, whose zeros give +0.0."""
    return _unless_overflow(np.hypot, stack.real, stack.imag).max(axis=(1, 2))


def _support_norms(stack: np.ndarray, nonzero: np.ndarray) -> np.ndarray:
    """``op_norms`` of a finite stack whose nonzero entries ``nonzero`` marks,
    each matrix of at least ``_SUPPORT_MIN_COLUMNS`` columns solved on its
    support, so its norm does not depend on the other matrices of the stack."""
    if stack.shape[2] < _SUPPORT_MIN_COLUMNS:
        return _whole_norms(stack)
    rows, cols = nonzero.any(axis=2), nonzero.any(axis=1)
    if rows.all() and cols.all():
        return _whole_norms(stack)
    sizes = rows.sum(axis=1) * (stack.shape[2] + 1) + cols.sum(axis=1)
    norms = np.zeros(len(stack))
    for size in np.unique(sizes):
        r, c = divmod(int(size), stack.shape[2] + 1)
        members = np.flatnonzero(sizes == size)
        if r:
            ri = np.nonzero(rows[members])[1].reshape(-1, r, 1)
            ci = np.nonzero(cols[members])[1].reshape(-1, 1, c)
            norms[members] = _whole_norms(stack[members[:, None, None], ri, ci])
    return norms


def _whole_norms(stack: np.ndarray) -> np.ndarray:
    """``op_norms`` of a finite stack, each matrix solved whole."""
    if stack.shape[1:] == (1, 1):
        # libm's hypot, which np.abs of a complex array does not always match
        return _unless_overflow(np.hypot, stack.real[:, 0, 0], stack.imag[:, 0, 0])
    parts = np.ascontiguousarray(stack).view(np.float64)
    norms = np.empty(len(stack))
    exponents = np.empty(len(stack), dtype=np.intc)  # frexp's type, np.ldexp's fast loop
    step = max(1, _WORKSPACE_BYTES // parts[0].nbytes)  # bounded temporaries
    for lo in range(0, len(stack), step):
        chunk = parts[lo : lo + step]
        # each matrix at unit scale: its parts times 2^-p, exact for normal
        # entries; np.ldexp with frexp's int32 exponents is faster here than a
        # multiply by 2^-p, which gives the same bits
        p = exponents[lo : lo + step] = _exponents(chunk)
        unit = np.ldexp(chunk, -p[:, None, None]).view(np.complex128)
        # parts of at most 1 keep A*A finite, so it needs no finiteness check
        gram = unit.conj().transpose(0, 2, 1) @ unit
        try:
            norms[lo : lo + step] = np.linalg.eigvalsh(gram)[:, -1]
        except np.linalg.LinAlgError as exc:
            raise NonConvergence(f"operator norm eigensolve of A*A failed: {exc}") from exc
    # rounding may leave the top eigenvalue at or below zero; adding 0.0
    # turns a -0.0 from maximum into 0.0
    return _unless_overflow(np.ldexp, np.sqrt(np.maximum(norms, 0.0) + 0.0), exponents)


def _unless_overflow(ufunc, *args) -> np.ndarray:
    """``ufunc(*args)``, raising NonFiniteValue where a norm overflows."""
    try:
        with np.errstate(over="raise"):
            return ufunc(*args)
    except FloatingPointError as exc:
        raise NonFiniteValue("operator norm exceeds the largest double") from exc


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


def eigh(a: np.ndarray, what: str) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix, or of
    each matrix of a stack, failing closed as ``_lapack`` does.

    1 x 1 matrices need no LAPACK call: heevd returns W(1) = Re a and the
    eigenvector [[1]] for N = 1, so the closed form gives LAPACK's bits,
    signed zeros included, after the same finiteness check.
    """
    if a.shape[-2:] != (1, 1):
        return _lapack(np.linalg.eigh, a, what)
    finite = cmath.isfinite(complex(a.flat[0])) if a.size == 1 else np.isfinite(a).all()
    if not finite:
        raise NonFiniteValue(f"{what}: input has non-finite entries")
    return a.real[..., 0].copy(), np.ones(a.shape, dtype=a.dtype)


def _frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (..., p, q) stack."""
    flat = np.ascontiguousarray(stack, dtype=np.complex128).view(np.float64)
    flat = flat.reshape(*stack.shape[:-2], -1)
    return np.sqrt(np.einsum("...k,...k->...", flat, flat))


def scale_exponents(stack: np.ndarray) -> np.ndarray:
    """Exponent p of each matrix of an (n, r, c) stack: 2^p exceeds its largest
    real or imaginary part, so scaling by 2^-p, exact for normal entries, brings
    every part to at most 1.  p is at least -1021, which keeps 2^-p finite for
    a matrix of subnormal entries only."""
    return _exponents(stack.view(np.float64))


def _exponents(parts: np.ndarray) -> np.ndarray:
    """``scale_exponents`` of an (n, r, 2c) stack of real and imaginary parts."""
    _, p = np.frexp(np.abs(parts).max(axis=(1, 2)))
    return np.maximum(p, -1021)


def screened_max_norm(
    rows: int, cols: int, dim: int, residual: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> np.ndarray:
    """Exact maximum operator norm of ``residual(l, r)`` over each row of a rows x cols grid.

    ``residual(li, ri)`` takes two index arrays of one shape and returns the
    dim x dim residuals of those pairs, stacked in that shape; it must give
    each pair the same bits whatever else it is asked for, as batched
    matrix products do.  Rows are independent: each gets the exact maximum
    of its own pairs, and one row's maximum never rules out another row's
    pair.  Each pair is formed once for its bound, a bounded block at a
    time, and that block's Frobenius norms f give the Gram-power bound
    t = f * ||(Y^*Y)^2||_F^(1/4) with Y = X / f, the fourth root of the
    Frobenius norm of (X^*X)^2 computed at unit scale (||X||^4 <=
    ||(X^*X)^2||_F <= ||X||_F^4).  An X whose f may have lost bits at its
    own scale is bounded as 2^-p X, as ``op_norms`` measures it, so t holds
    at every finite scale.  Raised by SCREEN_MARGIN, t bounds the norm from
    above.

    Each row's pairs are then measured in decreasing t order, the largest
    alone first, until the next t is at most the row's running maximum, so
    no unmeasured pair can exceed it: only the pairs measured are formed a
    second time, and each gets the bits ``op_norm`` gives it.  A row that
    vanishes exactly needs no measurement and gives 0.0.
    """
    per_block = max(1, _WORKSPACE_BYTES // max(1, 16 * dim * dim))
    step = max(1, per_block // 4)  # a stage holds about four stacks at once
    power = np.empty(rows * cols)
    exponents = np.zeros(rows * cols, dtype=np.intc)  # frexp's type, np.ldexp's fast loop
    for start in range(0, rows * cols, per_block):
        idx = np.arange(start, min(start + per_block, rows * cols))
        flat = np.ascontiguousarray(residual(idx // cols, idx % cols)).view(np.float64)
        fro = _frobenius_norms(flat.view(np.complex128))
        # X at unit scale where its own f may have lost bits: 2^-p X, as
        # ``op_norms`` takes it; p = 0 keeps every other X and its f as they are
        p = exponents[start : start + len(idx)]
        lo, hi = _SAFE_FROBENIUS
        if not (lo < fro.min() and fro.max() < hi):  # also where f is NaN
            unsafe = ~((fro > lo) & (fro < hi))
            p[unsafe] = _exponents(flat[unsafe])
            if p.any():
                flat = flat * np.ldexp(1.0, -p)[:, None, None]
                fro = _frobenius_norms(flat.view(np.complex128))
        if not np.isfinite(fro).all():
            raise NonFiniteValue("Frobenius norm is NaN or infinite")
        # Y = X / f on the real and imaginary parts, the bits of a complex
        # division up to the sign of a zero; a zero X gives t = 0
        unit = np.where(fro > 0.0, fro, 1.0)[:, None, None]
        for part in range(0, len(idx), step):
            y = (flat[part : part + step] / unit[part : part + step]).view(np.complex128)
            gram = y.conj().transpose(0, 2, 1) @ y
            power[start + part : start + part + len(y)] = _frobenius_norms(gram @ gram)
        power[start : start + len(idx)] = fro * np.sqrt(np.sqrt(power[start : start + len(idx)]))
    # t at X's own scale: 2^p times the margin-raised unit-scale bound, rounded
    # as ``op_norms`` rounds its norm back, so the bound still covers that norm;
    # a bound past the largest double is inf, and the measured norm then raises
    with np.errstate(over="ignore"):
        bound = np.ldexp(power * (1.0 + SCREEN_MARGIN), exponents).reshape(rows, cols)
    order = np.argsort(-bound, axis=1, kind="stable")
    bound = np.take_along_axis(bound, order, axis=1)
    best = np.zeros(rows)
    start, size = 0, 1  # each row's largest t alone first: its norm prunes the rest
    while start < cols:
        li, lj = np.nonzero(bound[:, start : start + size] > best[:, None])
        if not len(li):
            break
        ri = order[li, start + lj]
        for part in range(0, len(li), step):
            norms = op_norms(residual(li[part : part + step], ri[part : part + step]))
            np.maximum.at(best, li[part : part + step], norms)
        start, size = start + size, step
    return best


def max_distance(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Exact maximum over k of ||xs[r, k] - ys[r, k]|| for each row r of two
    (rows, n, d, d) stacks, one maximum per row.

    ``screened_max_norm`` over a rows x n grid: a difference is formed only
    for the bounds and for the pairs the screen measures, a bounded block at
    a time, and each measured one gets the bits ``op_norm`` gives it.  A row
    of empty stacks gives 0.0.
    """
    xs, ys = np.asarray(xs, dtype=np.complex128), np.asarray(ys, dtype=np.complex128)
    if xs.ndim != 4 or xs.shape != ys.shape:
        raise DimensionMismatch(
            f"need two (rows, n, d, d) stacks alike, got {xs.shape} and {ys.shape}"
        )

    def residual(li: np.ndarray, ri: np.ndarray) -> np.ndarray:
        return xs[li, ri] - ys[li, ri]

    return screened_max_norm(xs.shape[0], xs.shape[1], xs.shape[2], residual)


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
    """Orthonormal columns spanning the eigenspaces of ``h`` above ``threshold``,
    of one matrix or of each matrix of an (S, d, d) stack.

    Requires a spectral gap: no eigenvalue may sit within 1e-8 of the
    threshold, otherwise the eigenspace is numerically ill-defined and
    EigenvalueNearThreshold is raised with the spectrum of the first matrix
    that has none.  The eigenvalues come in ascending order, so the
    matrices of a stack must keep equally many, else DimensionMismatch.
    """
    h = require_hermitian(h, tol=1e-10)
    w, v = eigh(hermitian_part(h), "spectral basis")
    near = np.min(np.abs(w - threshold), axis=-1) < 1e-8
    if np.any(near):
        spectrum = w.reshape(-1, w.shape[-1])[np.argmax(near)]
        raise EigenvalueNearThreshold(
            f"eigenvalue within 1e-8 of threshold {threshold}: spectrum {np.round(spectrum, 12)}"
        )
    keep = w > threshold
    first = keep.reshape(-1, keep.shape[-1])[0]
    if np.any(keep != first):
        raise DimensionMismatch("the matrices of the stack keep different numbers of eigenvalues")
    return v[..., first]
