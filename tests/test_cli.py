import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import towergen
import towergen.cli as cli
from towergen.cli import main, resolve_tower_spec, run, validate_config
from towergen.errors import ConfigInvalid
from towergen.recovery import CLUSTER_HALFWIDTH, COMPLEMENT_BOUND, round_trip
from towergen.similarity import run_identity_sweep, sweep_rows
from towergen.stabilize import perturb_units
from towergen.tower import build_tower, check_conditions
from towergen.twogen import build_plan, verify_facts
from towergen.units import UnitDefects, UnitalEmbedding, canonical_units, unit_defects
from towergen.presets import list_presets, preset_spec
from towergen.report import RunReport


def test_malformed_config_names_field():
    with pytest.raises(ConfigInvalid) as info:
        validate_config("tower-build", {"shapes": "nope"})
    assert "shapes" in str(info.value)
    with pytest.raises(ConfigInvalid) as info:
        validate_config("tower-build", {})
    assert info.value.path == "shapes"


def test_unknown_field_rejected():
    with pytest.raises(ConfigInvalid):
        validate_config("cover-estimate", {"k": 1, "bogus": 2})


def test_preset_catalog():
    catalog = list_presets()
    assert set(catalog) == {"T0", "T1", "T1b", "T2", "U2"}
    assert "21" in catalog["T1"]["claims"]
    assert catalog["U2"]["note"] is not None and "relaxed" in catalog["U2"]["note"]
    assert catalog["T1b"]["note"] is not None
    for name in catalog:
        spec = preset_spec(name)
        validate_config("tower-build", spec.to_json())


def test_gen_verify_t0_report():
    report = run("gen-verify", {"preset": "T0"})
    assert report.passed
    names = [r.name for r in report.rows]
    assert "corner_annihilates_coupling" in names
    assert "level1.coupling_norm_gap" in names


@pytest.mark.parametrize("alias,canonical", sorted(cli.ALIASES.items()))
def test_alias_reports_are_canonical_reports(alias, canonical):
    config = {"preset": "T0"}
    assert run(alias, config).body_bytes() == run(canonical, config).body_bytes()


def test_error_path_structured_report():
    report = run("gen-construct", {"preset": "U2"})
    assert not report.passed
    assert report.error is not None and "InsufficientSubrank" in report.error


@pytest.mark.parametrize(
    "command, config, bound",
    [
        ("cover-estimate", {"k": 20, "omegas": [0.5], "samples": 3}, "upper bound"),
        (
            "counting-check",
            {"max_dim": 2, "pinching_shape": [2, 2], "pinching_multiplicities": [5, 5],
             "omegas": [0.001], "seeds": 1},
            "compressed cover reference",
        ),
    ],
    ids=["cover-estimate", "counting-check"],
)
def test_bound_overflow_is_a_structured_report(tmp_path, command, config, bound):
    """A paper bound past the largest double fails closed and names the bound."""
    report = run(command, dict(config))
    assert report.error.startswith("DimensionOverflow") and bound in report.error
    assert [(row.name, row.passed) for row in report.rows] == [("error", False)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "report.json")]) == 1


def test_report_determinism_small():
    r1 = run("gen-verify", {"preset": "T0"})
    r2 = run("gen-verify", {"preset": "T0"})
    assert r1.body_bytes() == r2.body_bytes()


def test_seed_changes_measurements():
    r1 = run("gen-construct", {"preset": "T0"})
    r2 = run("gen-construct", {"preset": "T0", "seed": 12345})
    c1 = [row.measured for row in r1.rows if row.name.endswith("coupling_scale")]
    c2 = [row.measured for row in r2.rows if row.name.endswith("coupling_scale")]
    assert c1 != c2


def test_cli_main_round_trip(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "T0"}))
    out = tmp_path / "report.json"
    code = main(["gen-verify", "--config", str(cfg), "--out", str(out), "--summary"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert payload["command"] == "gen-verify"
    assert "timing" in payload
    assert payload["artifact"]["name"] == "towergen"


def test_cli_main_config_invalid(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"shapes": [[0]]}))
    code = main(["tower-build", "--config", str(cfg)])
    assert code == 2


def test_unknown_preset_is_config_invalid(tmp_path):
    with pytest.raises(ConfigInvalid) as info:
        run("tower-check", {"preset": "T9"})
    assert info.value.path == "preset"
    cfg = tmp_path / "t9.json"
    cfg.write_text(json.dumps({"preset": "T9"}))
    assert main(["tower-check", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "command,config,path",
    [
        ("stabilize-sweep", {"shape": [2, 2], "deltas": [float("nan")]}, "deltas.0"),
        ("stabilize-sweep", {"shape": [2, 2], "deltas": [1e-4, float("inf")]}, "deltas.1"),
        ("cover-estimate", {"k": 1, "omega": float("nan")}, "omega"),
        ("cover-estimate", {"k": 1, "omegas": [0.5, float("inf")]}, "omegas.1"),
    ],
)
def test_non_finite_config_is_config_invalid(tmp_path, command, config, path):
    with pytest.raises(ConfigInvalid) as info:
        run(command, config)
    assert info.value.path == path
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))  # writes the NaN / Infinity literals json.load accepts
    assert main([command, "--config", str(cfg)]) == 2


SEEDED_CONFIGS = {
    "tower-check": {"preset": "T0"},
    "stabilize-sweep": {"shape": [2]},
    "cover-estimate": {},
    "counting-check": {},
    "lemma52-check": {},
}


@pytest.mark.parametrize("command", sorted(SEEDED_CONFIGS))
def test_negative_seed_is_config_invalid(tmp_path, command):
    config = SEEDED_CONFIGS[command]
    with pytest.raises(ConfigInvalid) as info:
        run(command, dict(config, seed=-1))
    assert info.value.path == "seed"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg), "--seed", "-1"]) == 2


@pytest.mark.parametrize(
    "command,config,path",
    [
        ("lemma52-check", {"shapes": []}, "shapes"),
        ("lemma52-check", {"block_sizes": []}, "block_sizes"),
        ("cover-estimate", {"omegas": []}, "omegas"),
        ("counting-check", {"max_dim": 2, "omegas": []}, "omegas"),
    ],
)
def test_empty_sweep_list_is_config_invalid(tmp_path, command, config, path):
    with pytest.raises(ConfigInvalid) as info:
        run(command, config)
    assert info.value.path == path
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "command,config,path",
    [
        ("stabilize-sweep", {"shape": [2, 3], "multiplicities": [1]}, "multiplicities"),
        (
            "counting-check",
            {"max_dim": 2, "pinching_shape": [2, 3, 2], "pinching_multiplicities": [1, 1]},
            "pinching_multiplicities",
        ),
        # against the default pinching shape [2, 3]
        (
            "counting-check",
            {"max_dim": 2, "pinching_multiplicities": [1, 1, 1]},
            "pinching_multiplicities",
        ),
    ],
)
def test_mismatched_multiplicities_are_config_invalid(tmp_path, command, config, path):
    with pytest.raises(ConfigInvalid) as info:
        run(command, config)
    assert info.value.path == path
    cfg = tmp_path / "mismatch.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg)]) == 2


def test_lemma52_without_enough_subrank_is_a_failed_report(tmp_path):
    config = {"shapes": [[2]], "block_sizes": [3]}
    report = run("lemma52-check", config)
    assert not report.passed
    assert report.error.startswith("SubrankTooSmall")
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(config))
    assert main(["lemma52-check", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 1


def test_tower_check_at_d140_passes_with_vanishing_commutators():
    report = run("tower-check", {"shapes": [[5], [28]], "mode": "relaxed"})
    assert report.passed
    cross = [row.measured for row in report.rows if row.name.endswith("cross_commutator")]
    assert cross == [0.0, 0.0]


def dense_pinched_count(shape, mult, k: int) -> int:
    """Support sizes read off the dense diagonal units."""
    units = canonical_units(shape, UnitalEmbedding(shape, mult, k))
    projections = np.stack(
        [units.unit(s, i, i) for s, size in enumerate(shape, start=1) for i in range(1, size + 1)]
    )
    assert not np.any(projections * ~np.eye(k, dtype=bool))  # coordinate-aligned
    n = np.count_nonzero(np.einsum("nii->ni", projections).real > 0.5, axis=1)
    return int(np.sum(n + n * (n - 1)))


def test_pinched_basis_count_matches_dense_supports():
    cases = 0
    for k in range(1, 9):
        for shape in cli._sorted_shapes_upto(k):
            for mult in cli._positive_tuples(len(shape), k, shape):
                assert cli._pinched_basis_count(shape, mult, k) == dense_pinched_count(shape, mult, k)
                cases += 1
    assert cases == 474  # the cases row of counting-check at max_dim 8


def test_stabilize_sweep_fails_on_nan_defects(monkeypatch):
    monkeypatch.setattr(cli, "unit_defects", lambda system: UnitDefects(0.0, float("nan"), 0.0))
    report = run("stabilize-sweep", {"shape": [2], "deltas": [1e-6], "seeds": 2})
    row = next(r for r in report.rows if r.name.endswith("defects_out"))
    assert not row.passed
    assert not report.passed


def test_stabilize_sweep_defects_in_match_an_independent_scoring():
    config = {"shape": [2, 3], "multiplicities": [2, 1], "deltas": [1e-4, 1e-3], "seeds": 3}
    report = run("stabilize-sweep", config)
    units = canonical_units((2, 3), UnitalEmbedding((2, 3), (2, 1), 7))
    rows = report.extra["sweep"]
    assert len(rows) == 6
    for row in rows:
        noisy = perturb_units(units, row["delta"], row["seed"])
        assert row["defects_in"] == unit_defects(noisy).to_json()


def test_stabilize_sweep_judges_monotonicity_in_delta_order(tmp_path):
    config = {"shape": [5, 5], "deltas": [1e-3, 1e-6], "seeds": 2}
    report = run("stabilize-sweep", config)
    medians = {r.name: r.measured for r in report.rows if r.name.endswith("median_distance")}
    assert medians["delta1e-06.median_distance"] < medians["delta0.001.median_distance"]
    assert next(r for r in report.rows if r.name == "median_distance_monotone").passed
    assert report.passed
    cfg = tmp_path / "descending.json"
    cfg.write_text(json.dumps(config))
    assert main(["stabilize-sweep", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 0


def test_stabilize_sweep_rejects_repeated_deltas(tmp_path):
    config = {"shape": [2], "deltas": [1e-4, 1e-6, 1e-4]}
    with pytest.raises(ConfigInvalid) as info:
        run("stabilize-sweep", config)
    assert info.value.path == "deltas"
    cfg = tmp_path / "repeated.json"
    cfg.write_text(json.dumps(config))
    assert main(["stabilize-sweep", "--config", str(cfg)]) == 2


def test_stabilize_sweep_over_the_dense_cap_fails_before_allocating(tmp_path, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the sweep built a unit system")

    monkeypatch.setattr(cli, "canonical_units", unreachable)
    report = run("stabilize-sweep", {"shape": [200]})  # 200^2 units of 200 x 200: 23.8 GiB
    assert report.error.startswith("DimensionOverflow")
    assert not report.passed
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"shape": [200]}))
    assert main(["stabilize-sweep", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 1


def test_lapack_failure_is_a_structured_report(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)  # the stabilizer's eigensolves
    report = run("stabilize-sweep", {"shape": [2], "deltas": [1e-6], "seeds": 1})
    assert report.error.startswith("NonConvergence")
    assert not report.passed


def test_all_bodies_identical_across_blas_threads(tmp_path):
    src = str(Path(towergen.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        out = tmp_path / f"all-{threads}.json"
        cmd = [sys.executable, "-m", "towergen.cli", "all", "--out", str(out)]
        runs.append((subprocess.Popen(cmd, env=env), out))
    try:
        assert [proc.wait(timeout=600) for proc, _ in runs] == [0, 0]
    finally:
        for proc, _ in runs:
            proc.kill()
    bodies = []
    for _, out in runs:
        payload = json.loads(out.read_text())
        del payload["timing"]
        bodies.append(json.dumps(payload, sort_keys=True, indent=2))
    assert bodies[0] == bodies[1]


def test_cli_exit_code_on_failure(tmp_path):
    cfg = tmp_path / "u2.json"
    cfg.write_text(json.dumps({"preset": "U2"}))
    code = main(["gen-construct", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
    assert code == 1


def test_cover_estimate_small():
    report = run("cover-estimate", {"k": 1, "omega": 0.5, "samples": 500})
    assert report.passed
    assert any("circle_oracle_lower" in r.name for r in report.rows)


def test_report_rows_have_required_keys():
    report = run("lemma52-check", {"runs": 2})
    body = report.body()
    for row in body["rows"]:
        assert {"name", "measured", "threshold", "pass"} <= set(row)
    assert body["pass"] is True


def test_stabilize_sweep_row_format():
    report = run("stabilize-sweep", {"shape": [3], "deltas": [1e-4], "seeds": 2})
    assert report.passed
    rows = report.extra["sweep"]
    assert len(rows) == 2
    assert {"delta", "seed", "max_distance", "defects_in", "defects_out"} <= set(rows[0])


def test_summary_lines_format():
    report = RunReport("demo", {})
    report.add("alpha", 1.0, 2.0, True)
    report.close()
    lines = report.summary_lines()
    assert lines[0].startswith("PASS")
    assert lines[-1].endswith("(demo)")


def test_check_passes_at_or_below_threshold_only():
    report = RunReport("demo", {})
    report.check("below", 0.5, 1.0)
    report.check("equal", 0, 0)
    report.check("above", 1.5, 1.0)
    report.check("nan", float("nan"), 1.0)
    assert [r.passed for r in report.rows] == [True, True, False, False]
    assert (report.rows[0].measured, report.rows[0].threshold) == (0.5, 1.0)


LIBRARY_TOWERS = {
    "T0": {"preset": "T0"},
    "T1b": {"preset": "T1b"},
    "T1": {"preset": "T1"},
    "T1-uhf": {"preset": "T1", "recipe": "uhf"},
    "T1-relaxed-g2": {"preset": "T1", "mode": "relaxed", "generators": 2},
}


def library_check(command: str, config: dict):
    """Rows and verdict of the library check behind a tower command."""
    model = build_tower(resolve_tower_spec(config))
    if command == "tower-check":
        conditions = check_conditions(model)
        return conditions.rows, conditions.passed
    if command == "gen-verify":
        facts = verify_facts(build_plan(model))
        return facts.rows, facts.passed
    _, trip = round_trip(build_plan(model))
    return trip.rows, trip.passed()


def row_tuples(rows) -> list:
    return [(r.name, r.measured, r.threshold, r.passed) for r in rows]


@pytest.mark.parametrize("config", LIBRARY_TOWERS.values(), ids=list(LIBRARY_TOWERS))
@pytest.mark.parametrize("command", ["tower-check", "gen-verify", "recover"])
def test_cli_rows_are_the_library_rows(command, config):
    report = run(command, dict(config))
    rows, passed = library_check(command, config)
    assert rows and row_tuples(report.rows) == row_tuples(rows)
    assert report.passed == passed


def test_lemma52_rows_are_the_library_rows():
    report = run("lemma52-check", {})
    rows = sweep_rows(run_identity_sweep([(2,), (3,), (2, 3)], [2, 3], 100, 2, 808))
    assert row_tuples(report.rows) == row_tuples(rows)
    assert report.passed == all(row.passed for row in rows)


def test_round_trip_verdict_reads_the_extraction_margins(t0_plan):
    _, trip = round_trip(t0_plan)
    assert trip.passed()
    rows = {row.name: row for row in trip.rows}
    assert rows["extraction.cluster_offset"].threshold == CLUSTER_HALFWIDTH
    assert rows["extraction.complement_radius"].threshold == COMPLEMENT_BOUND
    assert not replace(trip, cluster_offset=2 * CLUSTER_HALFWIDTH).passed()
    assert not replace(trip, complement_radius=0.8).passed()
    assert not replace(trip, cluster_offset=float("nan")).passed()
