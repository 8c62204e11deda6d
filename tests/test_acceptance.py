"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
all) and asserts the stated numeric tolerances.  Heavy shared objects are
module fixtures so the whole file stays inside the suite's time target.
"""

import statistics
import time

import numpy as np
import pytest

from towergen.cli import run, run_all
from towergen.closure import distance_to_span, subalgebra_closure
from towergen.linalg import op_norm
from towergen.microstates import greedy_packing, haar_unitary, pinching_defect
from towergen.recovery import round_trip
from towergen.similarity import run_identity_sweep
from towergen.stabilize import StabilizeParams, perturb_units, stabilize_units
from towergen.twogen import diag_coefficient, verify_facts
from towergen.units import UnitalEmbedding, canonical_units, unit_defects


def _report(name: str, ok: bool, started: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    elapsed = time.time() - started
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.1f}s) {detail}")
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_construction_identities(t1_plan):
    started = time.time()
    assert t1_plan.model.ambient_dim == 63
    facts = verify_facts(t1_plan)
    corner_z = facts.row("corner_annihilates_coupling")
    z_e11 = facts.row("coupling_kills_first_columns")
    z_z = facts.row("couplings_mutually_orthogonal")
    a_a = facts.row("diag_terms_mutually_orthogonal")
    norm_gap = facts.row("diag_term_norm_gap")
    comp = facts.row("coupling_compression_identity")
    ok = (
        corner_z.measured <= 1e-12
        and z_e11.measured <= 1e-12
        and z_z.measured <= 1e-12
        and a_a.measured <= 1e-12
        and norm_gap.measured <= 1e-10
        and comp.measured <= 1e-12
    )
    for lv in t1_plan.levels:
        ok = ok and op_norm(lv.ladder_term) <= 2.0 ** (-2 * lv.level + 1) + 1e-12
        expected = diag_coefficient(t1_plan.model.spec.block_shapes, lv.level, 1)
        ok = ok and abs(op_norm(lv.diag_term) - expected) <= 1e-10
    _report(
        "1 construction identities (T1)",
        ok,
        started,
        f"corner*z={corner_z.measured:.2e} z*e11={z_e11.measured:.2e} "
        f"z*z={z_z.measured:.2e} a_n*a_m={a_a.measured:.2e} "
        f"norm_gap={norm_gap.measured:.2e} compression={comp.measured:.2e}",
    )


def test_criterion_2_recovery_round_trip(t0_plan, t1_plan):
    started = time.time()
    worst_unit = 0.0
    worst_witness = 0.0
    worst_squarings = 0
    for plan in (t0_plan, t1_plan):
        _, report = round_trip(plan)
        worst_unit = max(worst_unit, max(report.unit_residuals), max(report.coupling_residuals))
        worst_witness = max(worst_witness, max(report.witness_residuals))
        worst_squarings = max(worst_squarings, report.max_squarings)
    ok = worst_unit <= 1e-6 and worst_witness <= 1e-8 and worst_squarings <= 64
    _report(
        "2 recovery round trip (T0, T1)",
        ok,
        started,
        f"max_unit={worst_unit:.2e} max_witness={worst_witness:.2e} squarings={worst_squarings}",
    )


def test_criterion_3_generation_distance(t1_plan):
    started = time.time()
    model = t1_plan.model
    pair = subalgebra_closure([t1_plan.gen_a, t1_plan.gen_b])
    oracle_gens = [m for blk in model.blocks for _, m in blk.iter_units()]
    oracle_gens += [lv.coupling for lv in t1_plan.levels] + [model.identity]
    oracle = subalgebra_closure(oracle_gens)
    dims_match = pair.size == oracle.size
    bound = 2.0 ** (-2) + 1e-6
    distances = []
    for x in model.generators:
        _, upper = distance_to_span(x, pair)
        distances.append(upper)
    ok = dims_match and all(d <= bound for d in distances)
    _report(
        "3 generation distance (T1)",
        ok,
        started,
        f"dims {pair.size}/{oracle.size} distances={[f'{d:.2e}' for d in distances]}",
    )


def test_criterion_4_stabilizer_sweep():
    started = time.time()
    shape = (5, 5)
    units = canonical_units(shape, UnitalEmbedding(shape, (1, 1), 10))
    params = StabilizeParams()
    medians = []
    worst_defect = 0.0
    for delta in (1e-6, 1e-4, 1e-3):
        dists = []
        for seed in range(20):
            noisy = perturb_units(units, delta, seed=seed)
            fixed, dist = stabilize_units(noisy, params)
            worst_defect = max(worst_defect, unit_defects(fixed).max())
            dists.append(dist)
        medians.append(statistics.median(dists))
    monotone = all(medians[i] <= medians[i + 1] for i in range(len(medians) - 1))
    out1, d1 = stabilize_units(units, params)
    out2, d2 = stabilize_units(out1, params)
    bitstable = (
        d1 == 0.0
        and d2 == 0.0
        and all(np.array_equal(out1.units[k], units.units[k]) for k in units.keys())
        and all(np.array_equal(out2.units[k], out1.units[k]) for k in units.keys())
    )
    ok = worst_defect <= 1e-12 and monotone and bitstable
    _report(
        "4 stabilizer (5+5 blocks)",
        ok,
        started,
        f"defects_out={worst_defect:.2e} medians={[f'{m:.2e}' for m in medians]} "
        f"bitstable={bitstable}",
    )


def test_criterion_5_covering_bounds():
    started = time.time()
    samples = 10**4
    grid = [np.array([[np.exp(2j * np.pi * t / samples)]]) for t in range(samples)]
    seeds = np.random.SeedSequence(404).spawn(samples)
    haar = [haar_unitary(1, int(s.generate_state(1)[0])) for s in seeds]
    ok = True
    details = []
    for radius, target in ((0.5, 2), (0.25, 4)):
        oracle = greedy_packing(grid, 2 * radius)
        sampled = greedy_packing(haar, 2 * radius)
        upper = (9 * np.pi * np.e / radius) ** 1
        ok = ok and oracle.packing_count >= target
        ok = ok and sampled.packing_count >= target
        ok = ok and max(
            oracle.packing_count, sampled.packing_count, oracle.greedy_cover_count,
            sampled.greedy_cover_count,
        ) <= upper
        details.append(
            f"r={radius}: oracle={oracle.packing_count} haar={sampled.packing_count} "
            f"target={target} cap={upper:.0f}"
        )
    _report("5 covering bounds (circle)", ok, started, "; ".join(details))


def test_criterion_6_counting_oracle():
    started = time.time()
    report = run("counting-check", {"max_dim": 12})
    ok = report.passed
    cases = next(r.measured for r in report.rows if r.name == "cases")
    _report("6 counting oracle (k <= 12)", ok, started, f"cases={cases}")


def test_criterion_7_commuting_norm_identity():
    started = time.time()
    rows = run_identity_sweep([[2], [3], [2, 3]], [2, 3], 100, 2, seed=808)
    worst_gap = max(r["gap"] for r in rows)
    worst_cross = max(r["cross_gap"] for r in rows)
    ok = len(rows) >= 100 and worst_gap <= 1e-10 and worst_cross <= 1e-10
    _report(
        "7 commuting norm identity",
        ok,
        started,
        f"runs={len(rows)} max_gap={worst_gap:.2e} max_cross={worst_cross:.2e}",
    )


def test_criterion_8_compression_defect():
    started = time.time()
    shape = (2, 3)
    units = canonical_units(shape)
    diags = [units.unit(s, i, i) for s, k in enumerate(shape, 1) for i in range(1, k + 1)]
    root = np.random.SeedSequence(515)
    ok = True
    worst_ratio = 0.0
    for omega in (0.1, 0.01):
        for child in root.spawn(20):
            rng = np.random.default_rng(child)
            h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            h = (h + h.conj().T) / 2
            blockdiag = sum(p @ h @ p for p in diags)
            noise = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            noise = (noise + noise.conj().T) / 2
            noise = omega * noise / op_norm(noise)
            defect = pinching_defect([blockdiag + noise], units)[0]
            ok = ok and defect <= 2 * omega + 1e-10
            worst_ratio = max(worst_ratio, defect / omega)
    _report("8 compression defect (2w bound)", ok, started, f"worst defect/omega={worst_ratio:.3f}")


def test_criterion_9_determinism():
    started = time.time()
    first = run_all({})
    second = run_all({})
    identical = first.body_bytes() == second.body_bytes()
    ok = identical and first.passed and second.passed
    _report(
        "9 determinism (full battery twice)",
        ok,
        started,
        f"bytes={len(first.body_bytes())} identical={identical} pass={first.passed}",
    )
