"""Acceptance criteria, one test per criterion, as views of the `all` battery.

`towergen all` runs every experiment once with fixed seeds.  Criteria 1-8
read its rows: each asserts that every row of its segments passed, that
its rows keep thresholds no looser than the criterion's, and the few checks
no runner row makes, read from the rows.  Criterion 9 runs the battery once
more.  Each test prints a single PASS/FAIL line (run pytest with -s to see
them all).
"""

import math

import pytest

from towergen.cli import run


@pytest.fixture(scope="module")
def battery():
    return run("all", {})


def _errors(battery):
    """The battery's stage error rows, as "name: measured"."""
    return [
        f"{r.name}: {r.measured}"
        for r in battery.rows
        if r.name == "error" or r.name.endswith(".error")
    ]


def _segment(battery, prefix):
    """Rows under one segment of the battery, keyed by their name inside it."""
    rows = {r.name[len(prefix) + 1 :]: r for r in battery.rows if r.name.startswith(prefix + ".")}
    assert rows, f"the battery has no {prefix} rows: {_errors(battery)}"
    return rows


def _report(title, rows, checks, detail=""):
    """Print one PASS/FAIL line; assert every row and every (name, ok) check passed."""
    failed = [name for name, row in rows.items() if not row.passed]
    failed += [name for name, ok in checks if not ok]
    print(f"ACCEPTANCE {title}: {'FAIL' if failed else 'PASS'} ({len(rows)} rows) {detail}")
    assert not failed, f"{title} failed: {failed}"


def _within(rows, caps):
    """(name, ok) checks that each named row exists with a threshold at most its cap."""
    return [
        (f"{name} threshold <= {cap:g}", name in rows and rows[name].threshold <= cap)
        for name, cap in caps.items()
    ]


def test_criterion_1_construction_identities(battery):
    rows = _segment(battery, "construction")  # gen-verify on T1, depth 2
    caps = {
        "corner_annihilates_coupling": 1e-12,
        "coupling_kills_first_columns": 1e-12,
        "couplings_mutually_orthogonal": 1e-12,
        "diag_terms_mutually_orthogonal": 1e-12,
        "coupling_compression_identity": 1e-12,
    }
    for n in (1, 2):
        caps[f"level{n}.ladder_norm"] = 2.0 ** (-2 * n + 1) + 1e-12
        caps[f"level{n}.diag_norm_gap"] = 1e-10
    detail = " ".join(f"{name}={rows[name].measured:.2e}" for name in caps if name in rows)
    _report("1 construction identities (T1)", rows, _within(rows, caps), detail)


def test_criterion_2_recovery_round_trip(battery):
    rows = {}
    for prefix in ("recovery_t0", "recovery_t1"):
        seg = _segment(battery, prefix)
        rows.update({f"{prefix}.{name}": row for name, row in seg.items()})
    caps = {"recovery_t0.level1.unit_residual": 1e-6, "recovery_t0.witness1.residual": 1e-8}
    for n in (1, 2):
        caps[f"recovery_t1.level{n}.unit_residual"] = 1e-6
        caps[f"recovery_t1.level{n}.coupling_residual"] = 1e-6
        caps[f"recovery_t1.witness{n}.residual"] = 1e-8
    for prefix in ("recovery_t0", "recovery_t1"):
        caps[f"{prefix}.extraction.cluster_offset"] = 1e-3
        caps[f"{prefix}.extraction.complement_radius"] = 0.75
    detail = " ".join(f"{n}={r.measured:.2e}" for n, r in rows.items() if ".extraction." in n)
    _report("2 recovery round trip (T0, T1)", rows, _within(rows, caps), detail)


def test_criterion_3_generation_distance(battery):
    seg = _segment(battery, "recovery_t1")
    rows = {name: row for name, row in seg.items() if name.startswith("closure.")}
    distances = [name for name in rows if name.startswith("closure.distance_g")]
    checks = [("closure.dimension_match", "closure.dimension_match" in rows)]
    checks.append(("one distance per generator", len(distances) == 1))  # T1 has one generator
    checks += _within(rows, {name: 2.0 ** (-2) + 1e-6 for name in distances})
    match = rows.get("closure.dimension_match")
    detail = f"dims {match.measured}/{match.threshold}" if match else ""
    _report("3 generation distance (T1)", rows, checks, detail)


def test_criterion_4_stabilizer_sweep(battery):
    rows = _segment(battery, "stabilizer")
    deltas = ("1e-06", "0.0001", "0.001")
    medians = [rows[f"delta{d}.median_distance"].measured for d in deltas]
    checks = _within(rows, {f"delta{d}.defects_out": 1e-12 for d in deltas})
    checks += [
        ("median distance non-decreasing", all(a <= b for a, b in zip(medians, medians[1:]))),
        ("fixed_point_distance == 0.0", rows["fixed_point_distance"].measured == 0.0),
        ("fixed_point_bitstable", rows["fixed_point_bitstable"].measured is True),
    ]
    detail = f"medians={[f'{m:.2e}' for m in medians]}"
    _report("4 stabilizer (5+5 blocks)", rows, checks, detail)


def test_criterion_5_covering_bounds(battery):
    rows = _segment(battery, "covering")
    checks = []
    for radius, target in ((0.5, 2), (0.25, 4)):
        upper = 9 * math.pi * math.e / radius
        oracle = rows.get(f"omega{radius:g}.circle_oracle_lower")
        haar = rows.get(f"omega{radius:g}.haar_certified_lower")
        checks += [
            (f"r={radius} circle oracle >= {target}", oracle and oracle.threshold >= target),
            (f"r={radius} haar packing >= {target}", haar and haar.threshold >= target),
            (f"r={radius} circle oracle <= 9 pi e / r", oracle and oracle.measured <= upper),
        ]
        checks += _within(rows, {f"omega{radius:g}.upper_consistent": upper})
    detail = " ".join(
        f"{name}={row.measured}" for name, row in rows.items() if name.endswith("_lower")
    )
    _report("5 covering bounds (circle)", rows, checks, detail)


def test_criterion_6_counting_oracle(battery):
    rows = _segment(battery, "counting")  # counting-check, k <= 12
    _report("6 counting oracle (k <= 12)", rows, [], f"cases={rows['cases'].measured}")


def test_criterion_7_commuting_norm_identity(battery):
    rows = _segment(battery, "similarity")
    checks = [("runs >= 100", rows["runs"].measured >= 100)]
    checks += _within(rows, {"max_gap": 1e-10, "max_cross_gap": 1e-10})
    detail = f"runs={rows['runs'].measured} max_gap={rows['max_gap'].measured:.2e}"
    _report("7 commuting norm identity", rows, checks, detail)


def test_criterion_8_compression_defect(battery):
    seg = _segment(battery, "counting")
    rows = {name: row for name, row in seg.items() if name.startswith("pinching_defect_")}
    caps = {f"pinching_defect_omega{w:g}": 2 * w + 1e-10 for w in (0.1, 0.01)}
    detail = " ".join(f"{name}={row.measured:.3e}" for name, row in rows.items())
    _report("8 compression defect (2w bound)", rows, _within(rows, caps), detail)


def test_criterion_9_determinism(battery):
    second = run("all", {})
    identical = battery.body_bytes() == second.body_bytes()
    rows = {row.name: row for row in battery.rows}
    checks = [("bodies identical", identical), ("second run passed", second.passed)]
    checks.append(("no stage error", not _errors(battery)))
    detail = f"bytes={len(battery.body_bytes())} identical={identical}"
    _report("9 determinism (full battery twice)", rows, checks, detail)
