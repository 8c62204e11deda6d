"""The structure certificate against a brute-force double commutant."""

import numpy as np
import pytest

from towergen import closure
from towergen.closure import EDGE_TOL, distance_to_span, subalgebra_closure
from towergen.errors import NonConvergence, NonFiniteValue, NoSpectralGap
from towergen.linalg import op_norm

# Blocks (m, n) of a sum of I_m (x) M_n, d <= 8; identity-only comes first.
STRUCTURES = [
    [(3, 1)], [(1, 2), (1, 1)], [(2, 2), (1, 1)], [(1, 3), (2, 1)], [(2, 2), (1, 2)],
    [(2, 1), (1, 1), (1, 1)], [(1, 4), (1, 2), (2, 1)], [(2, 3), (1, 2)], [(4, 2)], [(1, 8)],
]


def _gaussian(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _rotated_pair(blocks, seed):
    """Two random elements of a unitarily rotated sum of I_m (x) M_n."""
    rng = np.random.default_rng(seed)
    d = sum(m * n for m, n in blocks)
    u, _ = np.linalg.qr(_gaussian(rng, d))
    gens = []
    for _ in range(2):
        g, at = np.zeros((d, d), dtype=complex), 0
        for m, n in blocks:
            g[at : at + m * n, at : at + m * n] = np.kron(np.eye(m), _gaussian(rng, n))
            at += m * n
        gens.append(u @ g @ u.conj().T)
    return gens


def _commutant(mats, d):
    """Rows: column-major vecs of a basis of the matrices commuting with all of mats."""
    eye = np.eye(d)
    _, s, vh = np.linalg.svd(np.concatenate([np.kron(g.T, eye) - np.kron(eye, g) for g in mats]))
    return vh[int(np.sum(s > 1e-9 * max(np.linalg.norm(g) for g in mats))) :].conj()


@pytest.mark.parametrize("blocks", STRUCTURES, ids=str)
@pytest.mark.parametrize("seed", [1, 2])
def test_closure_matches_double_commutant(blocks, seed):
    gens = _rotated_pair(blocks, seed)
    d = gens[0].shape[0]
    comm = [c.reshape(d, d, order="F") for c in _commutant(gens + [g.conj().T for g in gens], d)]
    reference = _commutant(comm, d)
    cert = subalgebra_closure(gens)
    assert cert.size == reference.shape[0] == sum(n * n for _, n in blocks)
    assert sorted(cert.blocks) == sorted(blocks)
    assert cert.strongest_cut < EDGE_TOL < cert.weakest_edge

    x = _gaussian(np.random.default_rng(seed + 100), d)
    if any(m > 1 and n > 1 for m, n in blocks):
        with pytest.raises(NoSpectralGap):
            distance_to_span(x, cert)
        return
    q, _ = np.linalg.qr(reference.T)
    vec = x.reshape(-1, order="F")
    resid = (vec - q @ (q.conj().T @ vec)).reshape(d, d, order="F")
    fro, upper = distance_to_span(x, cert)
    assert fro == pytest.approx(np.linalg.norm(resid), abs=1e-9)
    assert upper == pytest.approx(op_norm(resid), abs=1e-9)
    mats = np.stack([m.reshape(-1, order="F") for m in cert.matrices()], axis=1)
    assert np.allclose(mats.conj().T @ mats, np.eye(cert.size), atol=1e-9)
    assert np.linalg.norm(mats - q @ (q.conj().T @ mats)) <= 1e-9


def test_closure_unequal_clusters_fail_closed(monkeypatch):
    """Merging part of a component's spectrum raises; it is never counted."""
    gens = _rotated_pair([(1, 3)], seed=4)
    raised = 0
    for tol in np.geomspace(1e-3, 1.0, 40):
        monkeypatch.setattr(closure, "GAP_TOL", tol)
        try:
            assert subalgebra_closure(gens).size in (9, 1)
        except NoSpectralGap:
            raised += 1
    assert raised


def test_closure_eigensolve_fails_closed(monkeypatch):
    with pytest.raises(NonFiniteValue):
        subalgebra_closure([np.diag([np.nan, 1.0, 1.0])])

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NonConvergence):
        subalgebra_closure([np.eye(3)])
