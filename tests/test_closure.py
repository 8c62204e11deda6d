"""The structure certificate against a brute-force double commutant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towergen import cli, closure
from towergen.cli import resolve_tower_spec, run
from towergen.closure import EDGE_TOL, distance_to_span, subalgebra_closure
from towergen.errors import DimensionMismatch, NonConvergence, NonFiniteValue, NoSpectralGap
from towergen.linalg import identity, op_norm
from towergen.tower import build_tower
from towergen.twogen import build_plan
from towergen.units import MatrixUnitSystem, canonical_units

from conftest import dense_units, densified, small_towers

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


def dense_oracle(model, extra):
    """The units as a dense generator list, before the other generators."""
    units = [m for blk in model.blocks for m in dense_units(blk)]
    return subalgebra_closure(units + extra)


def assert_same_certificate(cert, reference):
    """Same blocks and labels, and margins within 1e-10 relative.

    A cut edge is an entry that is zero in exact arithmetic, computed at
    about eps / min_gap (closure's error analysis), so the margins are also
    allowed that absolute difference."""
    assert cert.dim == reference.dim
    assert cert.size == reference.size
    assert cert.blocks == reference.blocks
    assert np.array_equal(cert.labels, reference.labels)
    for name in ("min_gap", "weakest_edge", "strongest_cut"):
        got, want = getattr(cert, name), getattr(reference, name)
        noise = np.finfo(float).eps / reference.min_gap
        assert got == pytest.approx(want, rel=1e-10, abs=noise), name


ORACLE_TOWERS = [
    {"preset": "T0"}, {"preset": "T1b"}, {"preset": "T1"}, {"preset": "T1", "recipe": "uhf"},
    {"shapes": [[4], [19]], "mode": "relaxed"}, {"shapes": [[20]]},
]


@pytest.mark.parametrize(
    "config", ORACLE_TOWERS, ids=["T0", "T1b", "T1", "T1-uhf", "4-19", "20"]
)
def test_units_by_table_match_the_dense_unit_list(config):
    """The oracle side of ``recover``: units, couplings and I.  Its
    ``cert.size == d^2`` on these towers, every level one block, is the
    reference for ``recover`` taking d^2 from structure on such towers."""
    model = build_tower(resolve_tower_spec(config))
    extra = [lv.coupling for lv in build_plan(model).levels] + [identity(model.ambient_dim)]
    cert = subalgebra_closure(extra, systems=model.blocks)
    assert_same_certificate(cert, dense_oracle(model, extra))
    assert cert.size == model.ambient_dim**2


@settings(max_examples=15, deadline=None, derandomize=True)
@given(spec=small_towers())
def test_units_by_table_match_the_dense_unit_list_on_random_towers(spec):
    """With and without the tower's generators: the units alone generate a
    proper subalgebra, with repeated clusters and cut edges to agree on."""
    model = build_tower(spec)
    eye = identity(model.ambient_dim)
    for extra in ([*model.generators, eye], [eye]):
        try:
            reference = dense_oracle(model, extra)
        except NoSpectralGap:
            with pytest.raises(NoSpectralGap):
                subalgebra_closure(extra, systems=model.blocks)
            continue
        assert_same_certificate(subalgebra_closure(extra, systems=model.blocks), reference)


def test_block_entries_are_the_dense_maximum():
    """81 units of rank 2 span two chunks; each unit at unit Frobenius norm."""
    units = canonical_units([9], (2,))
    q, _ = np.linalg.qr(_gaussian(np.random.default_rng(3), 18))
    mags = [abs(q.conj().T @ m @ q) / np.linalg.norm(m) for m in dense_units(units)]
    dense = np.max(mags, axis=0)
    assert len(units.keys()) > closure._CHUNK
    assert np.allclose(closure._block_entries(q, units.rows[0]), dense, rtol=0, atol=1e-14)


@pytest.mark.parametrize("k", [20, 13])
def test_rank_one_block_entries_are_the_dense_maximum(k):
    """Units |R_i><R_j| on k shuffled coordinates of 20, read by row maxima:
    the maximum of products of moduli, within a few ulps of the moduli of
    the dense products."""
    rng = np.random.default_rng(7)
    table = rng.permutation(20)[:k, None]
    q, _ = np.linalg.qr(_gaussian(rng, 20))
    eye = np.eye(20)
    dense = np.max(
        [abs(q.conj().T @ np.outer(eye[a], eye[b]) @ q) for a in table[:, 0] for b in table[:, 0]],
        axis=0,
    )
    got = closure._block_entries(q, table)
    assert np.allclose(got, dense, rtol=8 * np.finfo(float).eps, atol=0)


def _generic_pair():
    """Two Hermitian 4 x 4 matrices that generate M_4."""
    rng = np.random.default_rng(5)
    pair = [_gaussian(rng, 4) for _ in range(2)]
    return [g + g.conj().T for g in pair]


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1.0, 1e160, 1e300])
def test_closure_is_independent_of_the_generators_scale(scale):
    """Generator norms are taken at an exact power-of-two scale, so they
    neither underflow nor overflow."""
    pair = _generic_pair()
    reference = subalgebra_closure(pair)
    assert reference.blocks == [(1, 4)]
    assert_same_certificate(subalgebra_closure([g * scale for g in pair]), reference)


def test_closure_reads_subnormal_generators_exactly():
    """At 1e-320 the entries keep about 11 bits, as integer multiples of
    2^-1074.  Closure reads them exactly: the certificate is bit for bit that
    of the same integers, which still generate M_4, with margins moved by
    the input's rounding."""
    small = [g * 1e-320 for g in _generic_pair()]
    cert = subalgebra_closure(small)
    integers = subalgebra_closure([g * 2.0**1000 * 2.0**74 for g in small])
    assert cert.blocks == integers.blocks == [(1, 4)]
    assert np.array_equal(cert.eigvecs, integers.eigvecs)
    assert (cert.min_gap, cert.weakest_edge) == (integers.min_gap, integers.weakest_edge)
    assert cert.weakest_edge != subalgebra_closure(_generic_pair()).weakest_edge


def test_closure_handles_zero_and_rejects_non_finite_generators():
    pair = _generic_pair()
    assert subalgebra_closure([np.zeros((4, 4))]).blocks == [(4, 1)]
    assert subalgebra_closure([np.zeros((4, 4)), *pair]).blocks == [(1, 4)]
    for bad in (np.nan, np.inf, -np.inf, 1j * np.inf):
        with pytest.raises(NonFiniteValue):
            subalgebra_closure([pair[0], np.diag([bad, 1.0, 1.0, 1.0])])


def test_systems_alone_are_generators():
    units = canonical_units([2, 1])
    cert = subalgebra_closure([], systems=[units])
    assert_same_certificate(cert, subalgebra_closure(list(dense_units(units))))
    assert cert.blocks == [(1, 2), (1, 1)]


@pytest.mark.parametrize(
    "config, calls, oracle",
    [({"preset": "T1"}, 1, 63**2), ({"shapes": [[20]]}, 1, 20**2), ({"shapes": [[3, 4]]}, 2, 25)],
    ids=["T1", "d20", "3-4"],
)
def test_recover_with_closure_forms_no_exact_unit(monkeypatch, config, calls, oracle):
    """A tower of single-block levels takes its reference d^2 from structure,
    with one certificate; a multi-block level certifies its reference too."""
    dense_unit = MatrixUnitSystem.unit

    def unit(self, s, i, j):
        if self.rows is not None:
            raise AssertionError(f"exact unit {(s, i, j)} formed densely")
        return dense_unit(self, s, i, j)

    real, seen = cli.subalgebra_closure, []

    def counted(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(MatrixUnitSystem, "unit", unit)
    monkeypatch.setattr(cli, "subalgebra_closure", counted)
    report = run("recover", dict(config, closure=True))
    assert report.passed
    assert len(seen) == calls
    [match] = [row for row in report.rows if row.name == "closure.dimension_match"]
    assert (match.measured, match.threshold) == (oracle, oracle)


def test_bad_systems_fail_closed():
    units = canonical_units([2])
    factored = MatrixUnitSystem((2,), 2, factors=[np.eye(2, dtype=complex).reshape(2, 2, 1)])
    for system in (densified(units), factored):
        with pytest.raises(DimensionMismatch, match="exact"):
            subalgebra_closure([np.eye(2)], systems=[system])
    with pytest.raises(DimensionMismatch, match="dimension"):
        subalgebra_closure([np.eye(3)], systems=[units])
    with pytest.raises(DimensionMismatch, match="at least one"):
        subalgebra_closure([], systems=[])
    with pytest.raises(NonFiniteValue):
        subalgebra_closure([np.diag([np.nan, 1.0])], systems=[units])


def prim_with_per_step_masks(w):
    """Reference for ``_components``: Prim's loop that masks every labeled
    node in ``reach`` at each step."""
    labels = np.full(w.shape[0], -1)
    weakest = np.inf
    for start in range(w.shape[0]):
        if labels[start] < 0:
            labels[start] = comp = labels.max() + 1
            reach = w[start].copy()
            while True:
                reach[labels >= 0] = -1.0
                nxt = int(np.argmax(reach))
                if reach[nxt] <= EDGE_TOL:
                    break
                weakest = min(weakest, float(reach[nxt]))
                labels[nxt] = comp
                reach = np.maximum(reach, w[nxt])
    return labels, weakest


# ties, no edge, edges at and just around EDGE_TOL, and a few arbitrary weights
EDGE_WEIGHTS = st.one_of(
    st.sampled_from(
        [0.0, 0.0, 0.0, EDGE_TOL, np.nextafter(EDGE_TOL, 0.0), np.nextafter(EDGE_TOL, 1.0),
         2 * EDGE_TOL, 0.25, 0.5, 0.5, 1.0]
    ),
    st.floats(min_value=0.0, max_value=1.0),
)


@st.composite
def symmetric_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    upper = draw(st.lists(EDGE_WEIGHTS, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    w = np.zeros((n, n))
    w[np.triu_indices(n, 1)] = upper
    return w + w.T


@settings(max_examples=300, deadline=None, derandomize=True)
@given(w=symmetric_graphs())
def test_components_match_the_per_step_mask_loop(w):
    labels, weakest = closure._components(w)
    ref_labels, ref_weakest = prim_with_per_step_masks(w)
    assert np.array_equal(labels, ref_labels)
    assert np.float64(weakest).tobytes() == np.float64(ref_weakest).tobytes()
    assert (w[labels[:, None] != labels[None, :]] <= EDGE_TOL).all()  # no edge between components
