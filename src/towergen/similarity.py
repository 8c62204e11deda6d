"""Numeric check of the commuting-factor norm identity.

With one tensor factor acting as coefficients and the other carrying an
exact block unit system whose blocks all have size at least n, the norm of
sum_{s,i,j} a_ij e_ij^(s) equals the norm of the n x n coefficient block
matrix [a_ij].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import DimensionMismatch, SubrankTooSmall
from .linalg import identity, op_norm
from .report import ReportRow
from .units import MatrixUnitSystem, amplify, canonical_units, normalize_shape, subrank

GAP_TOL = 1e-10  # both sides of the identity, and the cross-check, agree to rounding


@dataclass
class CommutingModel:
    ambient_dim: int
    coeff_dim: int  # d: the commuting-factor size
    block_size: int  # n: the coefficient matrix is n x n
    units: MatrixUnitSystem  # block units on the second factor
    seed: int


def build_commuting_model(n: int, shape: Sequence[int], d: int, seed: int) -> CommutingModel:
    """Tensor model M_d (x) blocks with commutation exact by construction."""
    shape = normalize_shape(shape)
    if n < 2:
        raise DimensionMismatch("the coefficient matrix must be at least 2 x 2")
    if subrank(shape) < n:
        raise SubrankTooSmall(f"subrank {subrank(shape)} below n={n}")
    if d < 1:
        raise DimensionMismatch("coefficient factor needs positive dimension")
    system = amplify(canonical_units(shape), d, 1)
    return CommutingModel(
        ambient_dim=system.ambient_dim, coeff_dim=d, block_size=n, units=system, seed=seed
    )


def random_coefficients(model: CommutingModel, seed: int) -> np.ndarray:
    """Seeded n x n array of d x d complex coefficient matrices."""
    rng = np.random.default_rng(seed)
    n, d = model.block_size, model.coeff_dim
    return rng.standard_normal((n, n, d, d)) + 1j * rng.standard_normal((n, n, d, d))


@dataclass
class NormIdentityReport:
    lhs: float
    rhs: float
    gap: float
    cross_rhs: float
    cross_gap: float

    @property
    def passed(self) -> bool:
        return self.gap <= GAP_TOL and self.cross_gap <= GAP_TOL


def check_norm_identity(model: CommutingModel, coeffs: np.ndarray) -> NormIdentityReport:
    """Both sides of the identity plus the central-projection cross-check.

    lhs lives in the ambient algebra; rhs is the n*d block matrix norm; the
    cross-check takes the max over blocks of the centrally compressed block
    matrices, which the block structure forces to agree with rhs.  With
    R_s a row table, kron(a_ij, I) e_ij^(s) is its columns R_s[i] at R_s[j].
    """
    n, d = model.block_size, model.coeff_dim
    if coeffs.shape != (n, n, d, d):
        raise DimensionMismatch(f"expected coefficient array of shape {(n, n, d, d)}")
    if model.units.rows is None:
        raise DimensionMismatch("check_norm_identity needs an exact unit system")
    big = model.units.ambient_dim // d
    lhs_mat = np.zeros((model.ambient_dim, model.ambient_dim), dtype=np.complex128)
    for table in model.units.rows:
        for i in range(n):
            for j in range(n):
                lhs_mat[:, table[j]] += np.kron(coeffs[i, j], identity(big))[:, table[i]]
    lhs = op_norm(lhs_mat)

    block = coeffs.transpose(0, 2, 1, 3).reshape(n * d, n * d)  # [a_ij] as one matrix
    rhs = op_norm(block)

    cross = 0.0
    offset = 0
    for k_s in model.units.shape:
        central = np.zeros((big, big), dtype=np.complex128)
        central[offset : offset + k_s, offset : offset + k_s] = np.eye(k_s)
        offset += k_s
        # [kron(a_ij, central)], each entry in an ambient_dim block
        cross = max(cross, op_norm(np.kron(block, central)))

    return NormIdentityReport(
        lhs=float(lhs),
        rhs=float(rhs),
        gap=float(abs(lhs - rhs)),
        cross_rhs=float(cross),
        cross_gap=float(abs(cross - rhs)),
    )


def run_identity_sweep(
    shapes: Sequence[Sequence[int]], block_sizes: Sequence[int], runs: int, d: int, seed: int
) -> List[dict]:
    """Seeded sweep over shapes and coefficient sizes; one row per run."""
    rows = []
    root = np.random.SeedSequence(seed)
    for shape in shapes:
        for n in block_sizes:
            if subrank(shape) < n:
                continue
            model = build_commuting_model(n, shape, d, seed)
            for r, child in enumerate(root.spawn(runs)):
                coeffs = random_coefficients(model, int(child.generate_state(1)[0]))
                rep = check_norm_identity(model, coeffs)
                rows.append(
                    {
                        "seed": r,
                        "shape": list(shape),
                        "n": n,
                        "lhs": rep.lhs,
                        "rhs": rep.rhs,
                        "gap": rep.gap,
                        "cross_gap": rep.cross_gap,
                        "pass": rep.passed,
                    }
                )
    if not rows:
        raise SubrankTooSmall(f"no shape has subrank >= any block size in {list(block_sizes)}")
    return rows


def sweep_rows(runs: Sequence[dict]) -> List[ReportRow]:
    """A sweep's run count and its worst gaps, each checked against GAP_TOL."""
    return [
        ReportRow("runs", len(runs), None, True),
        ReportRow.check("max_gap", max(r["gap"] for r in runs), GAP_TOL),
        ReportRow.check("max_cross_gap", max(r["cross_gap"] for r in runs), GAP_TOL),
    ]
