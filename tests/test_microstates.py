import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towergen import cli, microstates
from towergen.errors import DimensionMismatch, DimensionOverflow
from towergen.linalg import identity, op_norm
from towergen.microstates import (
    greedy_cover,
    haar_unitaries,
    multiplicity_counts,
    multiplicity_table,
    pinching_defect,
    unitary_bound_rows,
    unitary_bounds,
)
from towergen.units import MatrixUnitSystem, canonical_units

from conftest import dense_units


def test_haar_scalar_case():
    u = haar_unitaries(1, 4, 1)[0]
    assert abs(abs(u[0, 0]) - 1.0) <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_haar_stack_equals_per_sample_draws(k):
    """Each sample is the 2-D QR, with the phase fix, of its own Gaussian block."""
    z = np.random.default_rng(404).standard_normal((300, 2, k, k))
    stack = haar_unitaries(k, 404, 300)
    assert stack.shape == (300, k, k)
    for w, block in zip(stack, z):
        q, r = np.linalg.qr((block[0] + 1j * block[1]) / np.sqrt(2))
        d = np.diag(r)
        assert np.array_equal(w, q * (d / np.abs(d)))


@pytest.mark.parametrize("k", [1, 3])
def test_haar_cloud_is_prefix_stable(k):
    full = haar_unitaries(k, 17, 250)
    for m in (1, 2, 99, 250):
        assert np.array_equal(haar_unitaries(k, 17, m), full[:m])


def test_haar_unitarity():
    for seed in range(20):
        u = haar_unitaries(8, seed, 1)[0]
        assert op_norm(u.conj().T @ u - identity(8)) <= 1e-12


def test_haar_trace_moment():
    """E |tr U|^2 = 1 and E tr U = 0 on U(k); 4000 samples put both within 0.1."""
    for k in (1, 2, 3, 4):
        traces = np.trace(haar_unitaries(k, 2000 + k, 4000), axis1=1, axis2=2)
        assert np.mean(np.abs(traces) ** 2) == pytest.approx(1.0, abs=0.1), k
        assert abs(np.mean(traces)) <= 0.1, k


def test_packing_identical_points():
    cloud = np.stack([identity(2)] * 12)
    assert greedy_cover(cloud, 0.5) == 1


def test_packing_boundary_rule():
    """A point at distance exactly omega is outside the open ball: a new center."""
    cloud = np.array([[[0.0]], [[0.5]]])
    assert greedy_cover(cloud, 0.5) == 2


def test_packing_unitary_invariance():
    rng = np.random.default_rng(7)
    cloud = np.stack([np.diag([1.0, t]).astype(complex) for t in rng.uniform(-1, 1, 40)])
    u = haar_unitaries(2, 9, 1)[0]
    rotated = u.conj().T @ cloud @ u
    assert greedy_cover(cloud, 0.3) == greedy_cover(rotated, 0.3)


def test_cover_trivial_cases():
    assert greedy_cover(identity(2)[None], 0.1) == 1
    cloud = np.array([[[0.0]], [[0.01]], [[0.02]]])
    assert greedy_cover(cloud, 0.5) == 1
    circle = np.exp(2j * np.pi * np.arange(64) / 64)[:, None, None]
    assert greedy_cover(circle, 2.1) == 1


def distance(x, y):
    return op_norm(x - y)


def naive_packing(cloud, omega):
    kept = []
    for p in cloud:
        if all(distance(p, q) >= omega for q in kept):
            kept.append(p)
    return len(kept)


def naive_cover(cloud, omega):
    covered = [False] * len(cloud)
    balls = 0
    for i, p in enumerate(cloud):
        if covered[i]:
            continue
        balls += 1
        for j in range(i, len(cloud)):
            if not covered[j] and distance(p, cloud[j]) < omega:
                covered[j] = True
    return balls


def _unitary_cloud():
    """2 x 2 unitaries, with repeated points and a pair at distance exactly 2."""
    cloud = haar_unitaries(2, 11, 120)
    return np.concatenate([cloud, cloud[:5], -cloud[7:8]])


_CIRCLE = np.exp(2j * np.pi * np.arange(360) / 360)[:, None, None]


@pytest.mark.parametrize(
    "cloud,omegas,ties",
    [
        (_unitary_cloud(), [0.3, 1.0, 1.6, 2.5], [1, 3, 5]),
        (_CIRCLE, [0.1, 0.5, 1.0, 2.0], [9, 40, 120]),
        (np.array([0.0, 0.5, 1.0, 0.25, 1.5, 0.75])[:, None, None], [0.25, 0.5], [1, 3]),
    ],
)
def test_packing_and_cover_match_naive_scans(cloud, omegas, ties):
    """The greedy cover count is the naive cover's and the naive closed
    packing's: the fact the certified lower-bound row rests on."""
    # distances that occur in the cloud exercise the closed/open boundary rule
    omegas = omegas + [distance(cloud[0], cloud[k]) for k in ties]
    for omega in omegas:
        count = greedy_cover(cloud, omega)
        assert count == naive_packing(cloud, omega) == naive_cover(cloud, omega)


def test_cover_in_workspace_blocks_matches_naive_scans():
    """A ball's differences span several workspace blocks; the counts do not change."""
    cloud = haar_unitaries(16, 5, 200)
    assert cloud.nbytes > 3 * microstates._WORKSPACE_BYTES
    for omega in (1.99, 1.997, distance(cloud[0], cloud[3])):
        count = greedy_cover(cloud, omega)
        assert count == naive_packing(cloud, omega) == naive_cover(cloud, omega)


def test_packing_rejects_mixed_clouds():
    """A cloud is one (n, p, q) array: lists, single matrices and stacks of tuples are not."""
    pairs = np.stack([identity(2)] * 6).reshape(3, 2, 2, 2)
    for bad in ([identity(2), identity(3)], [identity(2)], identity(2), pairs):
        with pytest.raises(DimensionMismatch):
            greedy_cover(bad, 0.5)
    assert greedy_cover(np.empty((0, 2, 2)), 0.5) == 0


def test_unitary_bounds_k1():
    circle = np.exp(2j * np.pi * np.arange(4096) / 4096)[:, None, None]
    lower, upper = unitary_bounds(1, 0.5)
    assert (lower, upper) == (2.0, pytest.approx(9 * np.pi * np.e / 0.5, rel=1e-12))
    count = greedy_cover(circle, 1.0)
    rows = unitary_bound_rows(0.5, (lower, upper), count)
    assert [(row.name, row.measured, row.threshold, row.passed) for row in rows] == [
        ("omega0.5.haar_certified_lower", count, lower, True),
        ("omega0.5.upper_consistent", count, upper, True),
    ]
    count = greedy_cover(circle, 0.5)
    assert count >= 4
    rows = unitary_bound_rows(0.25, unitary_bounds(1, 0.25), count, oracle=count)
    assert [row.name for row in rows][-1] == "omega0.25.circle_oracle_lower"
    assert all(row.passed for row in rows)


def test_unitary_bounds_k2_trivial():
    cloud = haar_unitaries(2, 3, 50)
    lower, _ = unitary_bounds(2, 1.0)
    assert lower == 1.0
    assert greedy_cover(cloud, 2.0) >= 1


@pytest.mark.parametrize(
    "count, failing",
    [(10**9, "omega0.5.upper_consistent"), (15, "omega0.5.haar_certified_lower")],
)
def test_cover_count_outside_the_unitary_bounds_fails_its_row(monkeypatch, count, failing):
    """At k = 2, r = 0.5 the bounds are 2^4 = 16 and (18 pi e)^4 ~ 5.6e8: a
    stubbed cover count past either fails exactly that row."""
    monkeypatch.setattr(cli, "greedy_cover", lambda cloud, omega: count)
    report = cli.run("cover-estimate", {"k": 2, "omegas": [0.5], "samples": 3})
    assert [(row.name, row.passed) for row in report.rows] == [
        ("omega0.5.haar_certified_lower", failing != "omega0.5.haar_certified_lower"),
        ("omega0.5.upper_consistent", failing != "omega0.5.upper_consistent"),
    ]
    assert not report.passed


def numeric_pinched_dimension(shape, mult, k):
    """Independent oracle: real rank of the pinching map on a Hermitian basis."""
    units = canonical_units(shape, mult)
    diags = [
        units.unit(s, i, i)
        for s, size in enumerate(shape, start=1)
        for i in range(1, size + 1)
    ]
    basis = []
    for i in range(k):
        e = np.zeros((k, k), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
        for j in range(i + 1, k):
            e = np.zeros((k, k), dtype=complex)
            e[i, j] = e[j, i] = 1.0
            basis.append(e)
            f = np.zeros((k, k), dtype=complex)
            f[i, j] = -1j
            f[j, i] = 1j
            basis.append(f)
    cols = []
    for h in basis:
        pinched = sum(p @ h @ p for p in diags)
        cols.append(np.concatenate([pinched.real.reshape(-1), pinched.imag.reshape(-1)]))
    return int(np.linalg.matrix_rank(np.array(cols).T, tol=1e-9))


def rows_at(shape, k):
    """The multiplicity table's rows at k, as tuples in table order."""
    table, _, k_of = multiplicity_table([shape], k)
    return [tuple(row) for row in table[k_of == k].tolist()]


def table_dimension(shape, mult):
    """counting-check's compression dimension of one tuple: its row of
    ``table**2 @ shape`` in the multiplicity table."""
    k = int(np.dot(mult, shape))
    table, _, k_of = multiplicity_table([shape], k)
    i = np.flatnonzero(k_of == k)[rows_at(shape, k).index(tuple(mult))]
    return int((table**2 @ np.array(shape))[i])


def pinched_count(shape, mult, k):
    """The row-table oracle's count of one case, a stack of one."""
    return int(cli._pinched_basis_counts(np.array([shape]), np.array([mult]), np.array([k]))[0])


def scan(shape, max_dim):
    """counting-check's five totals for one shape, a stack of one."""
    return cli._scan_block_count(np.array([shape]), max_dim)


def test_compression_dimension_examples():
    """The table formula, the row-table count and the numeric rank agree."""
    assert table_dimension((2, 3), (1, 1)) == 5
    assert pinched_count((2, 3), (1, 1), 5) == 5
    assert numeric_pinched_dimension((2, 3), (1, 1), 5) == 5
    assert scan((2, 3), 5)[1:3] == [0, 0]  # no dimension mismatch, 5 <= 25/2


def test_compression_dimension_tight_case():
    """For a single block of size N at k = N the dimension N meets the cap k^2/N."""
    n = 4
    assert table_dimension((n,), (1,)) == n == n * n / n
    assert pinched_count((n,), (1,), n) == n
    assert scan((n,), n) == [1, 0, 0, 0, 0]


def test_compression_dimension_numeric_oracle_sweep():
    cases = [((2,), (2,), 4), ((3,), (1,), 3), ((2, 2), (1, 2), 6), ((2, 3), (2, 1), 7)]
    for shape, mult, k in cases:
        want = numeric_pinched_dimension(shape, mult, k)
        assert pinched_count(shape, mult, k) == want
        assert table_dimension(shape, mult) == want


def test_enumerate_multiplicities_examples():
    """The multiplicity table enumerates the tuples at each k."""
    assert rows_at((2, 3), 5) == [(1, 1)]
    assert rows_at((2, 3), 12) == [(3, 2)]
    assert (1, 1, 1) in rows_at((1, 2, 3), 6)
    assert all(np.dot(m, (1, 2, 3)) == 6 for m in rows_at((1, 2, 3), 6))
    # one tuple at k = 5 against the cardinality cap (5/2)^2 = 6.25
    assert scan((2, 3), 5)[3:] == [0, 0]


def test_enumerate_multiplicities_matches_product_scan():
    shape = (2, 3)
    k = 11
    brute = [
        (c1, c2)
        for c1 in range(1, k + 1)
        for c2 in range(1, k + 1)
        if 2 * c1 + 3 * c2 == k
    ]
    assert sorted(rows_at(shape, k)) == sorted(brute)
    assert scan(shape, k)[4] == 0  # every count within its cardinality cap


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    shapes=st.integers(1, 4).flatmap(
        lambda r: st.lists(
            st.lists(st.integers(1, 6), min_size=r, max_size=r).map(sorted), min_size=1, max_size=4
        )
    ),
    k=st.integers(1, 20),
)
def test_multiplicity_table_is_every_positive_solution(shapes, k):
    """At k, each shape's rows in a stack of shapes of one length and a
    product scan list the same tuples, and the generating-function count is
    their number; a shape's rows are those of its stack of one."""
    table, owner, k_of = multiplicity_table(shapes, 20)
    assert np.all(np.diff(owner * 21 + k_of) >= 0)  # by shape, then by k
    for s, shape in enumerate(shapes):
        brute = {
            c
            for c in itertools.product(*(range(1, k // k_s + 1) for k_s in shape))
            if np.dot(c, shape) == k
        }
        rows = [tuple(row) for row in table[(owner == s) & (k_of == k)].tolist()]
        assert rows == sorted(rows) and len(rows) == len(brute) and set(rows) == brute
        assert multiplicity_counts(shape, 20)[k] == len(brute)
        if k < sum(shape):
            assert not rows
        alone, _, k_alone = multiplicity_table([shape], 20)
        assert np.array_equal(table[owner == s], alone) and np.array_equal(k_of[owner == s], k_alone)


@pytest.mark.parametrize("shapes", [[[1, 0]], [[]], [[[2]]], [2, -1]])
def test_multiplicity_table_rejects_a_bad_stack(shapes):
    with pytest.raises(DimensionMismatch):
        multiplicity_table(shapes, 5)


def test_pinching_defect_bound():
    shape = (2, 3)
    units = canonical_units(shape)
    rng = np.random.default_rng(11)
    diags = [units.unit(s, i, i) for s, k in enumerate(shape, 1) for i in range(1, k + 1)]
    for omega in (0.1, 0.01):
        for _ in range(10):
            h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            h = (h + h.conj().T) / 2
            blockdiag = sum(p @ h @ p for p in diags)
            noise = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            noise = (noise + noise.conj().T) / 2
            noise = omega * noise / op_norm(noise)
            defect = pinching_defect([blockdiag + noise], units)[0]
            assert defect <= 2 * omega + 1e-10


@pytest.mark.parametrize("shape, mult", [((2, 3), (1, 1)), ((2, 3, 2), (2, 1, 3))])
def test_pinching_defect_equals_dense_pinching(shape, mult):
    """||x - sum_p p x p|| over the dense diagonal units, bit for bit."""
    k = sum(c * s for c, s in zip(mult, shape))
    units = canonical_units(shape, mult)
    diags = [units.unit(s, i, i) for s, size in enumerate(shape, 1) for i in range(1, size + 1)]
    rng = np.random.default_rng(4)
    elems = [rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)) for _ in range(5)]
    dense = np.array([op_norm(x - sum(p @ x @ p for p in diags)) for x in elems])
    assert pinching_defect(np.stack(elems), units).tobytes() == dense.tobytes()
    assert pinching_defect(elems, units).tobytes() == dense.tobytes()
    assert pinching_defect(elems[2:3], units).tobytes() == dense[2:3].tobytes()


def test_pinching_defect_needs_an_exact_system():
    dense = MatrixUnitSystem((2,), 2, dense_units(canonical_units([2])))
    with pytest.raises(DimensionMismatch):
        pinching_defect([identity(2)], dense)


def test_unitary_bound_overflow_is_named():
    """(9 pi e / 0.5)^400 exceeds the largest double."""
    with pytest.raises(DimensionOverflow, match="upper bound"):
        unitary_bounds(20, 0.5)
