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

from typing import List, Tuple

import numpy as np

from .errors import EigenvalueNearThreshold, StabilizationFailed
from .linalg import _lapack, hermitian_part, max_distance, op_norms, spectral_basis
from .units import MatrixUnitSystem, factored_distance, stacked_factors

PROJECTION_THRESHOLD = 0.5  # eigenvalue cut that turns e_11 into a projection
ISOMETRY_CUTOFF = 0.5  # a row whose G_i has a singular value at or below it lost rank
ADMISSIBILITY = 0.1  # largest Gram defect ||G^* G - I|| the polar step accepts


def _first_column(candidate: MatrixUnitSystem) -> List[np.ndarray]:
    """G_i = e_i1 B per block, one (k_s, d, m_s) array each.

    For a factored or exact input e_i1 B = F_i F_1^* B, and the eigenvectors
    of F_1^* F_1 = W diag(w) W^* give B = F_1 W_+ w_+^(-1/2) for the
    eigenvalues w_+ above the threshold, so G_i = F_i W_+ w_+^(1/2): only
    m x m work.  A dense input takes B from one eigensolve of herm(e_11).
    """
    dense = candidate.units is not None
    factors = None if dense else candidate.column_factors()
    stack = []
    for s, k in enumerate(candidate.shape, start=1):
        if dense:
            basis = spectral_basis(
                hermitian_part(candidate.unit(s, 1, 1)), PROJECTION_THRESHOLD
            )
            g = np.stack([candidate.unit(s, i, 1) @ basis for i in range(1, k + 1)])
        else:
            f = factors[s - 1]
            w, v = _lapack(np.linalg.eigh, f[0].conj().T @ f[0], "stabilizer e_11 eigensolve")
            if np.any(np.abs(w - PROJECTION_THRESHOLD) < 1e-8):
                raise EigenvalueNearThreshold(
                    f"e_11 eigenvalue within 1e-8 of threshold {PROJECTION_THRESHOLD}"
                )
            keep = w > PROJECTION_THRESHOLD
            g = f @ (v[:, keep] * np.sqrt(w[keep]))
        if not g.shape[2]:
            raise StabilizationFailed(f"block {s}: e_11 has no eigenvalue above the threshold")
        stack.append(g)
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


def stabilize_units(candidate: MatrixUnitSystem) -> Tuple[MatrixUnitSystem, float]:
    """Exact matrix units near an approximate system, as column factors, plus
    the exact maximum over the units of the distance moved.

    An input no farther than rounding (8 d eps) from its stabilized system
    is returned unchanged with distance 0.0, so exact systems are bit-stable
    fixed points; the distance covers every unit, so a dense input with one
    unit off is never kept.  Raises StabilizationFailed when
    the spectral gap at e_11 or the Gram gate fails, i.e. the input is
    beyond repair, and when the input's diagonal ranks do not sum to d.
    """
    dim = candidate.ambient_dim
    tol = 8 * dim * np.finfo(float).eps
    try:
        stack = _first_column(candidate)
    except EigenvalueNearThreshold as exc:
        raise StabilizationFailed(f"spectral gap lost at e_11: {exc}") from exc
    cols = stacked_factors(stack)
    if cols.shape[1] != dim:
        raise StabilizationFailed(
            f"diagonal ranks sum to {cols.shape[1]}, not the ambient dimension {dim}"
        )
    w, v = _lapack(np.linalg.eigh, cols.conj().T @ cols, "stabilizer Gram eigensolve")
    defect = float(np.max(np.abs(w - 1.0)))
    if defect > ADMISSIBILITY:
        _reject(stack, defect)
    polar = cols @ ((v / np.sqrt(w)) @ v.conj().T)
    factors, start = [], 0
    for g in stack:
        k, _, m = g.shape
        block = polar[:, start : start + k * m].reshape(dim, k, m)
        factors.append(np.ascontiguousarray(block.transpose(1, 0, 2)))
        start += k * m
    out = MatrixUnitSystem(candidate.shape, dim, factors=factors)
    if candidate.units is not None:
        keys = candidate.keys()
        dist = max_distance([candidate.unit(*k) for k in keys], [out.unit(*k) for k in keys])
    else:
        dist = factored_distance(out, candidate)
    if dist <= tol:
        return candidate, 0.0
    return out, dist


def perturb_units(units: MatrixUnitSystem, delta: float, seed: int) -> MatrixUnitSystem:
    """Seeded perturbation of operator norm <= delta on every unit.

    Diagonal units get Hermitian noise; off-diagonal partners are perturbed
    independently, so the adjoint-pairing defect stays within 2*delta.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    rng = np.random.default_rng(seed)
    dim = units.ambient_dim
    keys = units.keys()
    # one draw reads the stream as a draw per unit would: real, then imaginary, key by key
    raw = rng.standard_normal((len(keys), 2, dim, dim))
    noise = raw[:, 0] + 1j * raw[:, 1]
    diagonal = np.array([i == j for _, i, j in keys])
    noise[diagonal] = hermitian_part(noise[diagonal])
    scales = np.maximum(op_norms(noise), 1e-300)
    out = {key: units.unit(*key) + delta * (g / c) for key, g, c in zip(keys, noise, scales)}
    return MatrixUnitSystem(shape=units.shape, ambient_dim=dim, units=out)
