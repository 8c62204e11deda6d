"""Numeric check of the commuting-factor norm identity.

With one tensor factor acting as coefficients and the other carrying an
exact block unit system whose blocks all have size at least n, the norm of
sum_{s,i,j} a_ij e_ij^(s) equals the norm of the n x n coefficient block
matrix [a_ij].

A sweep scores its runs a bounded chunk at a time: each side of the
identity is one stack of matrices per chunk and one batched ``op_norms``
call, whose norms are bit-identical to ``op_norm`` of each matrix, so the
rows are those of scoring one run at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import DimensionMismatch, SubrankTooSmall
from .linalg import _WORKSPACE_BYTES, op_norms
from .report import ReportRow
from .units import MatrixUnitSystem, amplify, canonical_units, normalize_shape, subrank

GAP_TOL = 1e-10  # both sides of the identity, and the cross-check, agree to rounding


@dataclass
class CommutingModel:
    ambient_dim: int
    coeff_dim: int  # d: the commuting-factor size
    block_size: int  # n: the coefficient matrix is n x n
    units: MatrixUnitSystem  # block units on the second factor


def build_commuting_model(n: int, shape: Sequence[int], d: int) -> CommutingModel:
    """Tensor model M_d (x) blocks with commutation exact by construction."""
    shape = normalize_shape(shape)
    if n < 2:
        raise DimensionMismatch("the coefficient matrix must be at least 2 x 2")
    if subrank(shape) < n:
        raise SubrankTooSmall(f"subrank {subrank(shape)} below n={n}")
    if d < 1:
        raise DimensionMismatch("coefficient factor needs positive dimension")
    system = amplify(canonical_units(shape), d, 1)
    return CommutingModel(ambient_dim=system.ambient_dim, coeff_dim=d, block_size=n, units=system)


def random_coefficients(model: CommutingModel, seed: int) -> np.ndarray:
    """Seeded n x n array of d x d complex coefficient matrices."""
    rng = np.random.default_rng(seed)
    n, d = model.block_size, model.coeff_dim
    return rng.standard_normal((n, n, d, d)) + 1j * rng.standard_normal((n, n, d, d))


@dataclass
class NormIdentityReport:
    """Both sides of the identity and the cross-check, one entry per run."""

    lhs: np.ndarray
    rhs: np.ndarray
    gap: np.ndarray
    cross_rhs: np.ndarray
    cross_gap: np.ndarray

    @property
    def passed(self) -> np.ndarray:
        return (self.gap <= GAP_TOL) & (self.cross_gap <= GAP_TOL)


def _lhs_scatter(model: CommutingModel):
    """Flat (destination, source) indices that place a run's coefficients in its lhs.

    Column c of kron(A, I_big) is A[:, c // big] (x) e_(c % big), so adding
    column R_s[i, t] of kron(a_ij, I_big) into column R_s[j, t] puts
    a_ij[p, R_s[i, t] // big] at row p big + R_s[i, t] % big.  Destinations
    are the entries of an (ambient_dim, ambient_dim) matrix, sources those
    of an (n, n, d, d) coefficient array.
    """
    n, d, dim = model.block_size, model.coeff_dim, model.ambient_dim
    big = dim // d
    i = np.arange(n)[:, None, None, None]
    j = np.arange(n)[None, :, None, None]
    p = np.arange(d)[None, None, None, :]
    dest, src = [], []
    for table in model.units.rows:
        t_i = table[:n][:, None, :, None]
        t_j = table[:n][None, :, :, None]
        dest.append(((p * big + t_i % big) * dim + t_j).ravel())
        src.append((((i * n + j) * d + p) * d + t_i // big).ravel())
    return np.concatenate(dest), np.concatenate(src)


def _chunk_runs(model: CommutingModel) -> int:
    """Runs scored per ``check_norm_identity`` call in a sweep.

    A run's largest matrix is its cross-check matrix, of size n * ambient_dim,
    and ``op_norms`` holds about four stacks of them: the matrices, their
    adjoints, the Gram matrices and the eigensolver's copy.  Those four stay
    within ``_WORKSPACE_BYTES`` together.
    """
    return max(1, _WORKSPACE_BYTES // (4 * 16 * (model.block_size * model.ambient_dim) ** 2))


def check_norm_identity(model: CommutingModel, coeffs: np.ndarray) -> NormIdentityReport:
    """Both sides of the identity plus the central-projection cross-check, per run.

    ``coeffs`` is a (runs, n, n, d, d) stack; lhs and rhs are one stack of
    matrices and one ``op_norms`` call each, the cross-check one per block.
    lhs lives in the ambient algebra: with R_s a row table, kron(a_ij, I)
    e_ij^(s) is column R_s[i] of kron(a_ij, I) at column R_s[j], and one
    precomputed scatter writes every run's columns at once.  The sum over
    (s, i, j) adds to each lhs entry at most one coefficient entry and
    otherwise exact zeros, so 0 + x written once gives the sum's bits.  rhs
    is the n*d block matrix norm, a reshape of each run.  The cross-check
    takes the max over blocks of the centrally compressed block matrices
    kron([a_ij], central_s), one broadcast product per block, which the
    block structure forces to agree with rhs.  The caller bounds the stack:
    ``run_identity_sweep`` passes ``_chunk_runs(model)`` runs at a time.
    """
    n, d = model.block_size, model.coeff_dim
    if coeffs.ndim != 5 or coeffs.shape[1:] != (n, n, d, d):
        raise DimensionMismatch(f"expected a coefficient stack of shape (runs, {n}, {n}, {d}, {d})")
    if model.units.rows is None:
        raise DimensionMismatch("check_norm_identity needs an exact unit system")
    runs, dim = coeffs.shape[0], model.ambient_dim
    big = dim // d
    dest, src = _lhs_scatter(model)
    lhs_mats = np.zeros((runs, dim * dim), dtype=np.complex128)
    lhs_mats[:, dest] += coeffs.reshape(runs, -1)[:, src]
    lhs = op_norms(lhs_mats.reshape(runs, dim, dim))

    block = coeffs.transpose(0, 1, 3, 2, 4).reshape(runs, n * d, n * d)  # [a_ij] as one matrix
    rhs = op_norms(block)

    cross = np.zeros(runs)
    offset = 0
    for k_s in model.units.shape:
        central = np.zeros((big, big), dtype=np.complex128)
        central[offset : offset + k_s, offset : offset + k_s] = np.eye(k_s)
        offset += k_s
        # [kron(a_ij, central)], each entry in an ambient_dim block
        compressed = block[:, :, None, :, None] * central[None, None, :, None, :]
        cross = np.maximum(cross, op_norms(compressed.reshape(runs, n * dim, n * dim)))

    return NormIdentityReport(
        lhs=lhs, rhs=rhs, gap=np.abs(lhs - rhs), cross_rhs=cross, cross_gap=np.abs(cross - rhs)
    )


def run_identity_sweep(
    shapes: Sequence[Sequence[int]], block_sizes: Sequence[int], runs: int, d: int, seed: int
) -> List[dict]:
    """Seeded sweep over shapes and coefficient sizes; one row per run.

    Each run draws its coefficients from its own spawned seed; the runs of
    a (shape, n) pair are drawn and scored ``_chunk_runs`` at a time.
    """
    rows = []
    root = np.random.SeedSequence(seed)
    for shape in shapes:
        for n in block_sizes:
            if subrank(shape) < n:
                continue
            model = build_commuting_model(n, shape, d)
            children = root.spawn(runs)
            step = _chunk_runs(model)
            for start in range(0, runs, step):
                coeffs = np.stack(
                    [
                        random_coefficients(model, int(child.generate_state(1)[0]))
                        for child in children[start : start + step]
                    ]
                )
                rep = check_norm_identity(model, coeffs)
                passed = rep.passed
                for r in range(coeffs.shape[0]):
                    rows.append(
                        {
                            "seed": start + r,
                            "shape": list(shape),
                            "n": n,
                            "lhs": float(rep.lhs[r]),
                            "rhs": float(rep.rhs[r]),
                            "gap": float(rep.gap[r]),
                            "cross_gap": float(rep.cross_gap[r]),
                            "pass": bool(passed[r]),
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
