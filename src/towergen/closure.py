"""Block-structure certificate of the unital *-algebra generated by matrices.

A unital *-subalgebra of M_d is, up to a unitary, a direct sum of blocks
I_m (x) M_n.  A generic Hermitian element h of it reads I_m (x) H on each
block, with the n eigenvalues of H simple and distinct across blocks, and
every element of the algebra vanishes between eigenvectors of h from
different blocks.  ``subalgebra_closure`` reads the blocks off one seeded
element (Murota, Kanno, Kojima & Kojima, JJIAM 27, 2010):

- h = x + (xy + yx)/2 + i(xy - yx)/2, with x and y random mixtures of the
  generators (each scaled to unit Frobenius norm, after an exact power-of-two
  scaling that keeps the norm from underflowing or overflowing) and their
  adjoints;
- eigenvalues of h whose gap is at most ``GAP_TOL * ||h||`` form a cluster;
- two clusters are joined when some scaled generator has an entry above
  ``EDGE_TOL`` between them in h's eigenbasis;
- a component of n clusters of size m is a block I_m (x) M_n, and the
  algebra's dimension is the sum of the n^2.

Exact unit systems are generators read by row table; no d x d unit is
formed.  A block with table R of shape (k, c) has units
e_ij = sum_t |R[i, t]><R[j, t]| of Frobenius norm sqrt(c).  Their part of
the random mixtures is one scatter of the k^2 coefficients / sqrt(c) onto
the positions (R[i, t], R[j, t]), distinct within a block, and their
entries in h's eigenbasis are V[R_i]^* V[R_j] / sqrt(c), V[R_i] the c rows
of the eigenvector matrix on row i of R.  For c > 1 these are formed at most
``_CHUNK`` d x d products at a time, as for dense generators.  For c = 1 the
moduli factor, |V[R_i, p]| |V[R_j, q]|, so the block's entrywise maximum is
the outer product of the row maxima max_i |V[R_i, p]| and no product is
formed.  The units' coefficients are drawn first, system by system in
``keys()`` order, so the certificate is that of the dense units listed
before the dense generators, up to rounding.

Tolerances.  ``eigh`` is backward stable, so an eigenvector whose eigenvalue
lies a gap g from the rest of the spectrum is off by an angle of about
eps*||h||/g, and an entry that is zero between two clusters is computed at
about eps*||h||/g.  Clusters split only at relative gaps above GAP_TOL, so
such entries stay near eps/GAP_TOL ~ 2e-10, some 45 times under EDGE_TOL.
This error lies in the eigenvectors, so it is the same for both kinds of
generator; the product itself adds rounding of about d*eps for a dense
generator and sqrt(c)*eps for a unit read by table (c terms, over
sqrt(c)), and a rank-one block read by row maxima a few eps relative (two
moduli and one product), all far below it.  The power-of-two scaling of a
generator is exact for normal entries, so s/||s|| is bit for bit what it
was without it wherever ||s|| did not underflow or overflow; subnormal
entries are read exactly, with only the bits they kept.
Eigenvalues closer than GAP_TOL * ||h|| are not resolved.  The certificate
records its margins: the smallest relative gap between clusters, the weakest
edge that keeps a component connected, and the strongest edge it cut.

It fails closed with ``NoSpectralGap``: when a component's clusters differ
in size (h was not generic at this tolerance), and when a distance is asked
on a component with repeated clusters and more than one cluster.  A
generator with a NaN or infinite entry raises ``NonFiniteValue``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, NoSpectralGap, NonFiniteValue
from .linalg import as_operator, eigh, op_norm, scale_exponents
from .units import MatrixUnitSystem

GAP_TOL = 1e-6
EDGE_TOL = 1e-8
_SEED = 20260809
_CHUNK = 64  # generators per stacked product, so peak memory does not grow


@dataclass
class StructureCertificate:
    """Blocks of the algebra: eigenvector ``eigvecs[:, i]`` of the generic
    element lies in component ``labels[i]``, a block I_m (x) M_n with
    ``(m, n) = blocks[labels[i]]``."""

    dim: int
    eigvecs: np.ndarray
    labels: np.ndarray
    blocks: List[Tuple[int, int]]
    min_gap: float  # smallest relative eigenvalue gap between clusters
    weakest_edge: float  # weakest edge keeping a component connected
    strongest_cut: float  # strongest edge between components

    @property
    def size(self) -> int:
        return sum(n * n for _, n in self.blocks)

    def _projectable(self) -> None:
        if any(m > 1 and n > 1 for m, n in self.blocks):
            raise NoSpectralGap("a component repeats its clusters; its block basis is not aligned")

    def matrices(self) -> np.ndarray:
        """A Frobenius-orthonormal basis of the algebra, as a (size, d, d) stack."""
        self._projectable()
        v, mats = self.eigvecs, []
        for j, (m, _) in enumerate(self.blocks):
            idx = np.flatnonzero(self.labels == j)
            if m > 1:
                mats.append(v[:, idx] @ v[:, idx].conj().T / np.sqrt(m))
            else:
                mats.extend(np.outer(v[:, i], v[:, k].conj()) for i in idx for k in idx)
        return np.array(mats)


def distance_to_span(x: np.ndarray, basis: StructureCertificate) -> Tuple[float, float]:
    """Frobenius norm and operator norm of x minus its projection onto the algebra.

    The operator norm upper-bounds the operator-norm distance from x to the
    algebra.  Both are exactly 0.0 when the algebra is all of M_d.
    """
    x = as_operator(x)
    if x.shape[0] != basis.dim:
        raise DimensionMismatch("operand dimension does not match the algebra")
    if basis.size == basis.dim**2:
        return 0.0, 0.0
    basis._projectable()
    v, labels = basis.eigvecs, basis.labels
    y = v.conj().T @ x @ v
    resid = np.where(labels[:, None] == labels[None, :], 0.0, y)
    for j, (m, _) in enumerate(basis.blocks):
        if m > 1:
            idx = np.ix_(labels == j, labels == j)
            resid[idx] = y[idx] - np.trace(y[idx]) / m * np.eye(m)
    return float(np.linalg.norm(resid)), float(op_norm(resid))


def _unit_chunks(gens: List[np.ndarray]):
    """(offset, stack) per chunk of generators, each scaled to unit Frobenius norm.

    Each generator is first scaled by 2^-p, p the exponent of its largest
    real or imaginary part, so its norm neither underflows nor overflows;
    the scaling is exact for normal entries.
    """
    for lo in range(0, len(gens), _CHUNK):
        stack = np.stack(gens[lo : lo + _CHUNK])
        if not np.isfinite(stack).all():
            raise NonFiniteValue("closure: a generator has non-finite entries")
        stack *= np.ldexp(1.0, -scale_exponents(stack))[:, None, None]
        norms = np.linalg.norm(stack, axis=(1, 2))
        yield lo, stack / np.where(norms > 0, norms, 1.0)[:, None, None]


def _components(w: np.ndarray) -> Tuple[np.ndarray, float]:
    """Components of the graph of edges above EDGE_TOL, and their weakest tree edge.

    Prim's maximum spanning tree per component: its weakest edge is the
    largest threshold at which no component splits.  Prim runs on a working
    copy of the nonnegative weights with one extra row, ``reach``, each
    tree's strongest edge to every node; labeling a node sets its column to
    -1 in every row, ``reach`` included, so a step is one argmax, one column
    write and one in-place maximum, and no labeled node is picked again.
    """
    n = w.shape[0]
    work = np.empty((n + 1, n))
    work[:n] = w
    reach = work[n]
    labels = np.full(n, -1)
    weakest = np.inf
    comp = -1
    for start in range(n):
        if labels[start] < 0:
            labels[start] = comp = comp + 1
            work[:, start] = -1.0
            reach[:] = work[start]
            while True:
                nxt = reach.argmax()
                top = float(reach[nxt])
                if top <= EDGE_TOL:
                    break
                weakest = min(weakest, top)
                labels[nxt] = comp
                work[:, nxt] = -1.0
                np.maximum(reach, work[nxt], out=reach)
    return labels, weakest


def _unit_tables(systems: Sequence[MatrixUnitSystem], d: int) -> List[np.ndarray]:
    """Row tables of the exact systems' blocks, in ``keys()`` order."""
    tables = []
    for system in systems:
        if system.rows is None:
            raise DimensionMismatch("closure reads only exact unit systems by row table")
        if system.ambient_dim != d:
            raise DimensionMismatch(
                f"unit system has dimension {system.ambient_dim}, generators have {d}"
            )
        tables += system.rows
    return tables


def _block_entries(v: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Entrywise maximum of |v^* e_ij v| / sqrt(c) over the units of one block.

    With V[R_i] the c rows of v on the table's row i, v^* e_ij v is
    V[R_i]^* V[R_j], and sqrt(c) is the unit's Frobenius norm.  For c > 1
    at most ``_CHUNK`` of these d x d products exist at once.

    A table of one column (rank-one units) needs none of them: entry (p, q)
    is conj(v[R_i, p]) v[R_j, q], of modulus |v[R_i, p]| |v[R_j, q]|, so
    the maximum over (i, j) is top[p] top[q] with top[p] = max_i |v[R_i, p]|,
    in O(k d) work and within a few eps relative of the products' moduli.
    """
    k, c = table.shape
    if c == 1:
        top = np.abs(v[table[:, 0]]).max(axis=0)
        return np.outer(top, top)
    rows = v[table]  # (k, c, d)
    adj = rows.conj().transpose(0, 2, 1)
    i, j = np.divmod(np.arange(k * k), k)
    out = np.zeros(v.shape)
    for lo in range(0, k * k, _CHUNK):
        pick = slice(lo, lo + _CHUNK)
        out = np.maximum(out, np.abs(adj[i[pick]] @ rows[j[pick]]).max(axis=0))
    return out / np.sqrt(c)


def subalgebra_closure(
    generators: Sequence[np.ndarray], systems: Sequence[MatrixUnitSystem] = ()
) -> StructureCertificate:
    """Certified block structure of the unital *-algebra the generators generate.

    ``systems`` adds every unit of each exact unit system, read from its
    row tables, before the dense generators (see the module docstring).
    """
    gens = [as_operator(g) for g in generators]
    if not gens and not systems:
        raise DimensionMismatch("need at least one generator")
    d = gens[0].shape[0] if gens else systems[0].ambient_dim
    if any(g.shape[0] != d for g in gens):
        raise DimensionMismatch("generators must share their dimension")
    tables = _unit_tables(systems, d)

    rng = np.random.default_rng(_SEED)
    n = sum(t.shape[0] ** 2 for t in tables) + len(gens)
    coeffs = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    z = np.zeros((2, d, d), dtype=np.complex128)
    at = 0
    for table in tables:
        k, c = table.shape
        block = coeffs[:, at : at + k * k].reshape(2, k, k, 1) / np.sqrt(c)
        z[:, table[:, None, :], table[None, :, :]] += block
        at += k * k
    chunks = list(_unit_chunks(gens))
    for lo, s in chunks:
        z += np.tensordot(coeffs[:, at + lo : at + lo + _CHUNK], s, axes=1)
    x, y = z + z.conj().transpose(0, 2, 1)
    xy = x @ y
    h = x + (xy + xy.conj().T) / 2 + 1j * (xy - xy.conj().T) / 2
    evals, v = eigh(h, "generic element eigensolve")
    gaps = np.diff(evals) / max(float(np.abs(evals).max()), np.finfo(float).tiny)
    split = gaps > GAP_TOL
    starts = np.concatenate([[0], np.flatnonzero(split) + 1])
    sizes = np.diff(np.append(starts, d))

    entry = np.zeros((d, d))
    for table in tables:
        entry = np.maximum(entry, _block_entries(v, table))
    for _, s in chunks:
        entry = np.maximum(entry, np.abs(v.conj().T @ s @ v).max(axis=0))
    w = np.maximum.reduceat(np.maximum.reduceat(entry, starts, axis=0), starts, axis=1)
    w = np.maximum(w, w.T)
    np.fill_diagonal(w, 0.0)
    comp, weakest = _components(w)
    blocks = []
    for j in range(comp.max() + 1):
        members = sizes[comp == j]
        if np.any(members != members[0]):
            sizes_seen = sorted(set(members.tolist()))
            raise NoSpectralGap(f"component {j} mixes clusters of sizes {sizes_seen}")
        blocks.append((int(members[0]), len(members)))
    cut = w[comp[:, None] != comp[None, :]]
    return StructureCertificate(
        dim=d,
        eigvecs=v,
        labels=np.repeat(comp, sizes),
        blocks=blocks,
        min_gap=float(gaps[split].min(initial=np.inf)),
        weakest_edge=weakest,
        strongest_cut=float(cut.max(initial=0.0)),
    )
