"""Turn approximate matrix-unit systems into exact ones nearby.

The pipeline is spectral: diagonal candidates become spectral projections,
get orthogonalized sequentially, and the off-diagonal units are rebuilt
from polar partial isometries of corner compressions.  Every step has a
checkable gap condition and fails loudly when the input is too corrupted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import EigenvalueNearThreshold, StabilizationFailed
from .linalg import (
    hermitian_part,
    identity,
    max_distance,
    op_norm,
    op_norms,
    polar_partial_isometry,
    spectral_projection,
)
from .units import MatrixUnitSystem, UnitDefects, unit_defects

_EXACT_TOL = 1e-14  # inputs already satisfying a step's contract are kept bitwise


@dataclass(frozen=True)
class StabilizeParams:
    projection_threshold: float = 0.5
    isometry_cutoff: float = 0.5
    max_distance_report: bool = True

    def __post_init__(self):
        if not (0 < self.projection_threshold < 1 and 0 < self.isometry_cutoff < 1):
            raise StabilizationFailed("thresholds must lie in (0, 1)")


def _is_projection(q: np.ndarray) -> bool:
    return (
        op_norm(q - q.conj().T) <= _EXACT_TOL
        and op_norm(q @ q - q) <= _EXACT_TOL
    )


def _row_maxima(rows: Sequence[Tuple[np.ndarray, ...]]) -> np.ndarray:
    """Largest operator norm within each row of equal-length matrix tuples, from one
    ``op_norms`` call; each norm has the bits ``op_norm`` gives it."""
    norms = op_norms(np.stack([m for row in rows for m in row]))
    return norms.reshape(len(rows), -1).max(axis=1)


def stabilize_units(
    candidate: MatrixUnitSystem, params: StabilizeParams = StabilizeParams()
) -> Tuple[MatrixUnitSystem, float, Optional[UnitDefects]]:
    """Exact matrix units near an approximate system, plus the max distance
    and the candidate's defects.

    The defects are those the admissibility gate measured; they are None
    for systems of more than 128 units, which the gate does not score.
    Steps that an input unit already satisfies to rounding precision keep
    the input matrix unchanged, making exact systems bit-stable fixed
    points.  Raises StabilizationFailed when a spectral gap or isometry
    rank condition fails, i.e. the input is beyond repair.
    """
    dim = candidate.ambient_dim
    shape = candidate.shape
    n_units = len(candidate.units)
    defects = None
    if n_units <= 128:
        defects = unit_defects(candidate)
        scored = max(
            defects.adjoint,
            defects.multiplication,
            defects.unitality if candidate.unital else 0.0,
        )
        if scored > 0.1:
            raise StabilizationFailed(
                f"candidate defects {defects.to_json()} exceed coarse admissibility 0.1"
            )
    else:
        # quadratic defect scan is skipped for large systems; the per-step
        # gap checks below still reject anything unusable.  On T1's level-2
        # system (441 units at d = 63: 194k products, ~4e11 flops) one
        # unit_defects call took 17 s exact and 121 s at delta 1e-6, where
        # the Frobenius screen passes many pairs (one BLAS thread)
        for s, k in enumerate(shape, start=1):
            h = hermitian_part(candidate.unit(s, 1, 1))
            if op_norm(h @ h - h) > 0.1:
                raise StabilizationFailed("diagonal candidate too far from a projection")

    diag_keys = [(s, i) for s, k in enumerate(shape, start=1) for i in range(1, k + 1)]
    prev = np.zeros((dim, dim), dtype=np.complex128)
    diag: Dict[Tuple[int, int], np.ndarray] = {}
    try:
        for s, i in diag_keys:
            raw = candidate.unit(s, i, i)
            if _is_projection(raw) and op_norm(prev @ raw) <= _EXACT_TOL:
                q = raw
            else:
                h = hermitian_part(raw)
                q = spectral_projection(h, params.projection_threshold)
                comp = identity(dim) - prev
                q = spectral_projection(
                    hermitian_part(comp @ q @ comp), params.projection_threshold
                )
            diag[(s, i)] = q
            prev = prev + q
    except EigenvalueNearThreshold as exc:
        raise StabilizationFailed(f"spectral gap lost while orthogonalizing: {exc}") from exc

    if candidate.unital:
        deficiency = identity(dim) - prev
        if np.max(np.abs(deficiency)) > 0.0:
            s_last, i_last = diag_keys[-1]
            q_last = diag[(s_last, i_last)] + deficiency
            if op_norm(q_last @ q_last - q_last) > 1e-12:
                raise StabilizationFailed("unit deficiency cannot be absorbed as a projection")
            diag[(s_last, i_last)] = hermitian_part(q_last)

    isometries: Dict[Tuple[int, int], np.ndarray] = {}
    for s, k in enumerate(shape, start=1):
        q11 = diag[(s, 1)]
        isometries[(s, 1)] = q11
        rows = range(2, k + 1)
        if not rows:
            continue
        raws = {i: candidate.unit(s, i, 1) for i in rows}
        # a row keeps its input when all three of its residuals vanish
        keeps = _row_maxima([
            (raw.conj().T @ raw - q11, raw @ raw.conj().T - diag[(s, i)],
             diag[(s, i)] @ raw @ q11 - raw)
            for i, raw in raws.items()
        ]) <= _EXACT_TOL
        for i, kept in zip(rows, keeps):
            isometries[(s, i)] = raws[i] if kept else polar_partial_isometry(
                diag[(s, i)] @ raws[i] @ q11, params.isometry_cutoff
            )
        polished = {i: isometries[(s, i)] for i, kept in zip(rows, keeps) if not kept}
        if polished:
            lost = _row_maxima([
                (v.conj().T @ v - q11, v @ v.conj().T - diag[(s, i)])
                for i, v in polished.items()
            ]) > 1e-12
            if np.any(lost):
                raise StabilizationFailed(
                    f"block {s} row {list(polished)[int(np.argmax(lost))]}: "
                    "corner compression lost rank at the cutoff"
                )

    units: Dict[Tuple[int, int, int], np.ndarray] = {}
    for s, k in enumerate(shape, start=1):
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                if i == j:
                    e = diag[(s, i)]
                elif j == 1:
                    e = isometries[(s, i)]
                elif i == 1:
                    e = isometries[(s, j)].conj().T
                else:
                    e = isometries[(s, i)] @ isometries[(s, j)].conj().T
                units[(s, i, j)] = e
    distance = 0.0
    if params.max_distance_report:
        distance = max_distance([candidate.units[key] for key in units], list(units.values()))
    out = MatrixUnitSystem(
        shape=shape, ambient_dim=dim, units=units, unital=candidate.unital
    )
    return out, distance, defects


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
    noise = []
    for (s, i, j) in keys:
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        noise.append(hermitian_part(g) if i == j else g)
    scales = np.maximum(op_norms(np.stack(noise)), 1e-300)
    out: Dict[Tuple[int, int, int], np.ndarray] = {
        key: units.units[key] + delta * (g / c) for key, g, c in zip(keys, noise, scales)
    }
    return MatrixUnitSystem(
        shape=units.shape, ambient_dim=dim, units=out, unital=units.unital
    )
