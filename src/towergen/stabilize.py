"""Turn approximate matrix-unit systems into exact ones nearby.

An exact system is the same thing as column factors F_i, one d x m block per
unit row, whose side-by-side stack [F_1, ..., F_k] (over every block) has
orthonormal columns: then e_ij = F_i F_j^* satisfies every unit relation.
The stabilizer takes B, an orthonormal basis of the range of the spectral
projection of herm(e_11) above 1/2 for each block, forms G_i = e_i1 B,
checks that the stacked G is near an isometry, and returns its polar factor,
the nearest isometry in every unitarily invariant norm, as the exact
system's factors.  Every step has a checkable condition and fails loudly
when the input is too corrupted.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, EigenvalueNearThreshold, StabilizationFailed, TowergenError
from .linalg import _lapack, eigh, hermitian_part, max_distance, op_norms, spectral_basis
from .units import MatrixUnitSystem, dense_stack, factored_distance, stack_form, stacked_factors

PROJECTION_THRESHOLD = 0.5  # eigenvalue cut that turns e_11 into a projection
ISOMETRY_CUTOFF = 0.5  # a row whose G_i has a singular value at or below it lost rank
ADMISSIBILITY = 0.1  # largest Gram defect ||G^* G - I|| the polar step accepts


def _first_columns(candidates: List[MatrixUnitSystem]) -> List[np.ndarray]:
    """G_i = e_i1 B per block, one (S, k_s, d, m_s) array each, for S
    candidates of one ``stack_form``.

    For factored or exact inputs e_i1 B = F_i F_1^* B, and the eigenvectors
    of F_1^* F_1 = W diag(w) W^* give B = F_1 W_+ w_+^(-1/2) for the
    eigenvalues w_+ above the threshold, so G_i = F_i W_+ w_+^(1/2): only
    m x m work.  Dense inputs take B from one eigensolve of herm(e_11) each,
    in one ``spectral_basis`` call.  Eigenvalues come in ascending order, so
    the candidates must keep equally many, else DimensionMismatch.
    """
    first = candidates[0]
    dense = first.units is not None
    if dense:
        units = dense_stack(candidates)
    else:
        factors = [np.array(block) for block in zip(*(c.column_factors() for c in candidates))]
    stack, offset = [], 0
    for s, k in enumerate(first.shape, start=1):
        if dense:
            basis = spectral_basis(hermitian_part(units[:, offset]), PROJECTION_THRESHOLD)
            g = units[:, offset : offset + k * k : k] @ basis[:, None]  # rows e_i1, i = 1..k
        else:
            f = factors[s - 1]
            head = f[:, 0]
            w, v = eigh(head.conj().transpose(0, 2, 1) @ head, "stabilizer e_11 eigensolve")
            if (np.abs(w - PROJECTION_THRESHOLD) < 1e-8).any():
                raise EigenvalueNearThreshold(
                    f"e_11 eigenvalue within 1e-8 of threshold {PROJECTION_THRESHOLD}"
                )
            keep = w > PROJECTION_THRESHOLD
            if (keep != keep[0]).any():
                raise DimensionMismatch("the candidates keep different eigenvalues of e_11")
            g = f @ (v[:, :, keep[0]] * np.sqrt(w[:, None, keep[0]]))[:, None]
        if not g.shape[3]:
            raise StabilizationFailed(f"block {s}: e_11 has no eigenvalue above the threshold")
        stack.append(g)
        offset += k * k
    return stack


def _reject(stack: List[np.ndarray], defect: float):
    """Name the first row that lost rank, else report the Gram defect."""
    for s, g in enumerate(stack, start=1):
        low = _lapack(np.linalg.eigvalsh, g.conj().transpose(0, 2, 1) @ g, "row Gram")[:, 0]
        lost = low <= ISOMETRY_CUTOFF**2
        if np.any(lost):
            raise StabilizationFailed(
                f"block {s} row {int(np.argmax(lost)) + 1}: "
                "corner compression lost rank at the cutoff"
            )
    raise StabilizationFailed(
        f"Gram defect {defect:.3e} of the first-column factors exceeds {ADMISSIBILITY}"
    )


def stabilize_units(
    candidate: MatrixUnitSystem | Sequence[MatrixUnitSystem],
) -> Tuple[MatrixUnitSystem, float] | List[Tuple[MatrixUnitSystem, float]]:
    """Exact matrix units near an approximate system, as column factors, plus
    the exact maximum over the units of the distance moved.

    An input no farther than rounding (8 d eps) from its stabilized system
    is returned unchanged with distance 0.0, so exact systems are bit-stable
    fixed points; the distance covers every unit, so a dense input with one
    unit off is never kept.  Raises StabilizationFailed when
    the spectral gap at e_11 or the Gram gate fails, i.e. the input is
    beyond repair, and when the input's diagonal ranks do not sum to d.

    ``candidate`` may also be a sequence of systems of one shape and
    dimension, which gives the list of their (system, distance) pairs in
    order and raises the error of the first system that fails.  Systems
    of one ``stack_form`` take the polar step as one stack
    (``_polar_systems``), with the factors each would get alone.  The
    distances of its dense systems are one per-row ``max_distance`` call
    against their stabilized units, a system of its own a stack of one.
    """
    if isinstance(candidate, MatrixUnitSystem):
        return stabilize_units([candidate])[0]
    candidates = list(candidate)
    if len({(c.shape, c.ambient_dim) for c in candidates}) > 1:
        raise DimensionMismatch("stabilize_units takes a sequence of systems of one shape")
    outs = _polar_systems(candidates)
    dists = [None if c.units is not None else factored_distance(out, c)
             for c, out in zip(candidates, outs)]
    dense = [i for i, c in enumerate(candidates) if c.units is not None]
    if dense:
        units = dense_stack([candidates[i] for i in dense])
        fixed = np.empty_like(units)
        offset = 0
        for block in zip(*(outs[i].factors for i in dense)):
            f = np.stack(block)
            count, k, dim, _ = f.shape
            # e_ij = F_i F_j^* for every (i, j) of the block at once, in keys() order
            np.matmul(f[:, :, None], f.conj().transpose(0, 1, 3, 2)[:, None],
                      out=fixed[:, offset : offset + k * k].reshape(count, k, k, dim, dim))
            offset += k * k
        moved = max_distance(units, fixed)
        for i, dist in zip(dense, moved):
            dists[i] = float(dist)
    return [
        (c, 0.0) if dist <= 8 * c.ambient_dim * np.finfo(float).eps else (out, dist)
        for c, out, dist in zip(candidates, outs, dists)
    ]


def _polar_systems(candidates: List[MatrixUnitSystem]) -> List[MatrixUnitSystem]:
    """The stabilized systems of candidates of one shape: ``_polar_stack`` of
    all of them when they share a ``stack_form``.  When they do not, or when
    any of them fails a check (e_11 ranks that differ across the stack
    included), it runs one candidate at a time, so the first one to fail
    raises its own error."""
    if len(candidates) > 1 and len({stack_form(c) for c in candidates}) == 1:
        try:
            return _polar_stack(candidates)
        except TowergenError:
            pass
    return [out for c in candidates for out in _polar_stack([c])]


def _polar_stack(candidates: List[MatrixUnitSystem]) -> List[MatrixUnitSystem]:
    """The stabilized systems of S candidates of one ``stack_form``, as column
    factors: the polar factor of each one's stacked first-column factors,
    every step one stacked call, after the checks that can reject a
    candidate.  A stack of one raises its candidate's own error; a larger
    stack may raise that of any failing candidate."""
    first, count = candidates[0], len(candidates)
    dim = first.ambient_dim
    try:
        stack = _first_columns(candidates)
    except EigenvalueNearThreshold as exc:
        raise StabilizationFailed(f"spectral gap lost at e_11: {exc}") from exc
    cols = stacked_factors(stack)
    if cols.shape[2] != dim:
        raise StabilizationFailed(
            f"diagonal ranks sum to {cols.shape[2]}, not the ambient dimension {dim}"
        )
    w, v = eigh(cols.conj().transpose(0, 2, 1) @ cols, "stabilizer Gram eigensolve")
    defect = np.abs(w - 1.0).max(axis=1)
    inadmissible = defect > ADMISSIBILITY
    if inadmissible.any():
        worst = int(np.argmax(inadmissible))
        _reject([g[worst] for g in stack], float(defect[worst]))
    polar = cols @ ((v / np.sqrt(w)[:, None]) @ v.conj().transpose(0, 2, 1))
    blocks, start = [], 0
    for g in stack:
        _, k, _, m = g.shape
        block = polar[:, :, start : start + k * m].reshape(count, dim, k, m)
        blocks.append(np.ascontiguousarray(block.transpose(0, 2, 1, 3)))
        start += k * m
    return [
        MatrixUnitSystem(first.shape, dim, factors=[block[i] for block in blocks])
        for i in range(count)
    ]


def perturb_units(
    units: MatrixUnitSystem, delta: float, seed: int | Sequence[int]
) -> MatrixUnitSystem | List[MatrixUnitSystem]:
    """Seeded perturbation of operator norm <= delta on every unit of an exact system.

    Diagonal units get Hermitian noise; off-diagonal partners are perturbed
    independently, so the adjoint-pairing defect stays within 2*delta.  The
    exact units are one scatter per block of their row tables; a dense or
    factored system raises DimensionMismatch.  ``seed`` may also be a
    sequence of seeds, which gives the list of their perturbed systems in
    order: each seed draws from its own generator, as alone, and the noise
    of all of them is normed with one ``op_norms`` call.  The systems hold
    read-only views of that one (seeds, n, d, d) stack, which
    ``dense_stack`` gives back whole.
    """
    if np.ndim(seed) == 0:
        return perturb_units(units, delta, [seed])[0]
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if units.rows is None:
        raise DimensionMismatch("perturb_units takes an exact unit system")
    dim = units.ambient_dim
    keys = units.keys()
    exact = np.zeros((len(keys), dim, dim), dtype=np.complex128)
    offset = 0
    for table in units.rows:  # unit (i, j) of the block is 1 at (table[i, t], table[j, t])
        k = table.shape[0]
        at = offset + np.arange(k * k).reshape(k, k, 1)
        exact[at, table[:, None, :], table[None, :, :]] = 1.0
        offset += k * k
    noise = np.empty((len(seed), len(keys), dim, dim), dtype=np.complex128)
    for one, s in zip(noise, seed):
        # one draw per seed reads its stream as a draw per unit would: real, then
        # imaginary, key by key
        raw = np.random.default_rng(s).standard_normal((len(keys), 2, dim, dim))
        one[...] = raw[:, 0] + 1j * raw[:, 1]
    diagonal = np.array([i == j for _, i, j in keys])
    noise[:, diagonal] = hermitian_part(noise[:, diagonal])
    scales = np.maximum(op_norms(noise.reshape(-1, dim, dim)), 1e-300)
    noise /= scales.reshape(*noise.shape[:2], 1, 1)
    noise *= delta
    noise += exact
    noise.flags.writeable = False  # the systems are its rows, not copies of them
    return [MatrixUnitSystem(units.shape, dim, units=one) for one in noise]
