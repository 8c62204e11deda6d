import copy
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import towergen
import towergen.cli as cli
from towergen.cli import main, resolve_tower_spec, run, validate_config
from towergen.errors import ConfigInvalid
from towergen.microstates import multiplicity_counts, multiplicity_table
from towergen.recovery import CLUSTER_HALFWIDTH, COMPLEMENT_BOUND, round_trip
from towergen.report import sanitize
from towergen.similarity import run_identity_sweep, sweep_rows
from towergen.stabilize import perturb_units, stabilize_units
from towergen.tower import build_tower, check_conditions
from towergen.twogen import build_plan, verify_facts
from towergen.units import UnitDefects, canonical_rows, canonical_units, unit_defects
from towergen.presets import list_presets, preset_spec
from towergen.report import RunReport

from conftest import densified


def test_malformed_config_names_field():
    with pytest.raises(ConfigInvalid) as info:
        validate_config("tower-check", {"shapes": "nope"})
    assert "shapes" in str(info.value)
    with pytest.raises(ConfigInvalid) as info:
        validate_config("tower-check", {})
    assert info.value.path == "shapes"


def test_unknown_field_rejected():
    with pytest.raises(ConfigInvalid):
        validate_config("cover-estimate", {"k": 1, "bogus": 2})


def test_preset_catalog():
    catalog = list_presets()
    assert set(catalog) == {"T0", "T1", "T1b", "T2", "T3", "U2"}
    assert "21" in catalog["T1"]["claims"]
    assert catalog["U2"]["note"] is not None and "relaxed" in catalog["U2"]["note"]
    assert catalog["T1b"]["note"] is not None
    for name in catalog:
        spec = preset_spec(name)
        validate_config("tower-check", spec.to_json())


def test_gen_verify_t0_report():
    report = run("gen-verify", {"preset": "T0"})
    assert report.passed
    names = [r.name for r in report.rows]
    assert "corner_annihilates_coupling" in names
    assert "level1.coupling_norm_gap" in names


@pytest.mark.parametrize("name", ["gen-construct", "tower-build"])
def test_retired_command_name_exits_2(capsys, name):
    """The retired names of gen-verify and tower-check are no commands: argparse
    rejects them with its usage line, which lists the commands."""
    with pytest.raises(ConfigInvalid):
        run(name, {"preset": "T0"})
    with pytest.raises(SystemExit) as info:
        main([name])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "gen-verify" in err and "tower-check" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "config", [{"omega": 0.5}, {"omega": 0.5, "omegas": [0.25]}], ids=["alone", "with-omegas"]
)
def test_retired_omega_field_exits_2(tmp_path, capsys, config):
    """cover-estimate takes its radii as omegas only; omega is an unknown field."""
    with pytest.raises(ConfigInvalid) as info:
        run("cover-estimate", config)
    assert info.value.path == "<root>" and "'omega'" in str(info.value)
    cfg = tmp_path / "omega.json"
    cfg.write_text(json.dumps(config))
    assert main(["cover-estimate", "--config", str(cfg)]) == 2
    assert "'omega'" in capsys.readouterr().err


def error_of(report) -> str:
    """The measured value of a report's one failed row, which is a stage's error row."""
    (row,) = [r for r in report.rows if not r.passed]
    assert row.name == "error" or row.name.endswith(".error"), row.name
    assert row.threshold is None
    return row.measured


def test_error_path_structured_report():
    report = run("gen-verify", {"preset": "U2"})
    assert not report.passed
    assert error_of(report).startswith("InsufficientSubrank: ")


# The last item of each case is the number of rows measured before the bound
# fails: counting-check's scan rows, and the first omega's defect, come first.
@pytest.mark.parametrize(
    "command, config, bound, kept",
    [
        ("cover-estimate", {"k": 20, "omegas": [0.5], "samples": 3}, "upper bound", 0),
        ("cover-estimate", {"k": 4097}, "cloud entries", 0),
        ("cover-estimate", {"samples": 10**12}, "cloud entries", 0),
        # within the cloud cap, where a greedy scan would take hours
        ("cover-estimate", {"k": 12, "omegas": [0.5], "samples": 116508}, "upper bound", 0),
        (
            "counting-check",
            {"max_dim": 2, "pinching_shape": [2, 2], "pinching_multiplicities": [5, 5],
             "omegas": [0.001], "seeds": 1},
            "compressed cover reference",
            6,
        ),
        (
            "counting-check",
            {"max_dim": 2, "pinching_shape": [2, 2], "pinching_multiplicities": [1025, 1024]},
            "pinching dimension 4098",
            5,
        ),
        (
            "lemma52-check",
            {"shapes": [[2], [1, 1]], "block_sizes": [2], "runs": 1, "coeff_dim": 1025},
            "cross-check dimension 4100",
            0,
        ),
    ],
    ids=[
        "cover-estimate", "cover-estimate-k", "cover-estimate-samples", "cover-estimate-scan",
        "counting-check",
        "counting-check-pinching", "lemma52-check",
    ],
)
def test_bound_overflow_is_a_structured_report(
    tmp_path, monkeypatch, command, config, bound, kept
):
    """A paper bound past the largest double, or a cloud or matrix past the
    dimension cap, fails closed, names the bound and allocates no matrices on
    the way: no Haar cloud is drawn."""

    def no_cloud(*args):
        raise AssertionError("a config-only bound was checked after sampling")

    monkeypatch.setattr(cli, "haar_unitaries", no_cloud)
    tracemalloc.start()
    try:
        report = run(command, dict(config))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert error_of(report).startswith("DimensionOverflow: ") and bound in error_of(report)
    assert [row.name for row in report.rows[kept:]] == ["error"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "report.json")]) == 1


def test_report_determinism_small():
    r1 = run("gen-verify", {"preset": "T0"})
    r2 = run("gen-verify", {"preset": "T0"})
    assert r1.body_bytes() == r2.body_bytes()


def test_seed_changes_measurements():
    r1 = run("gen-verify", {"preset": "T0"})
    r2 = run("gen-verify", {"preset": "T0", "seed": 12345})
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
    code = main(["tower-check", "--config", str(cfg)])
    assert code == 2


def test_malformed_json_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"preset": "T0",')
    assert main(["tower-check", "--config", str(cfg)]) == 2
    assert str(cfg) in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "missing.json"
    assert main(["tower-check", "--config", str(cfg)]) == 2
    assert str(cfg) in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_unwritable_out_path_exits_2(tmp_path, capsys, where):
    out = tmp_path / "nowhere" / "r.json" if where == "missing-dir" else tmp_path
    assert main(["list-presets", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert str(out) in captured.err


def test_seed_over_a_non_object_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    assert main(["tower-check", "--config", str(cfg), "--seed", "3"]) == 2
    assert str(cfg) in capsys.readouterr().err


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
        ("cover-estimate", {"k": 1, "omegas": [float("nan")]}, "omegas.0"),
        ("cover-estimate", {"k": 1, "omegas": [0.5, float("inf")]}, "omegas.1"),
        # checked in path order, in the same pass as types and bounds
        ("stabilize-sweep", {"shape": [2, 2], "deltas": [float("nan"), 1.5]}, "deltas.0"),
        ("cover-estimate", {"k": 0, "omegas": [float("inf")]}, "k"),
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


# An empty shape after a valid one; every empty array field at its first
# position is a case of test_empty_array_field_is_config_invalid.
@pytest.mark.parametrize(
    "command,config,path",
    [
        pytest.param(
            "lemma52-check", {"shapes": [[2], []], "runs": 1}, "shapes.1",
            id="lemma52-check-config6-shapes.1",
        ),
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
        # two fields for one fact: the runner would read the first and ignore the second
        ("gen-verify", {"preset": "T0", "shapes": [[5], [40]]}, "shapes"),
    ],
)
def test_mismatched_multiplicities_are_config_invalid(tmp_path, command, config, path):
    with pytest.raises(ConfigInvalid) as info:
        run(command, config)
    assert info.value.path == path
    cfg = tmp_path / "mismatch.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg)]) == 2


@pytest.mark.parametrize("delta", [1.5, 1e300])
def test_stabilize_sweep_delta_above_one_is_config_invalid(tmp_path, delta):
    """Noise as large as a unit is far past the Gram gate; a delta of 1e300
    would also overflow the seed arithmetic."""
    config = {"shape": [2], "deltas": [delta]}
    with pytest.raises(ConfigInvalid) as info:
        run("stabilize-sweep", config)
    assert info.value.path == "deltas.0"
    cfg = tmp_path / "delta.json"
    cfg.write_text(json.dumps(config))
    assert main(["stabilize-sweep", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("max_dim", [0, 17, 40])
def test_counting_check_max_dim_out_of_range_is_config_invalid(tmp_path, max_dim):
    config = {"max_dim": max_dim}
    with pytest.raises(ConfigInvalid) as info:
        run("counting-check", config)
    assert info.value.path == "max_dim"
    cfg = tmp_path / "max_dim.json"
    cfg.write_text(json.dumps(config))
    assert main(["counting-check", "--config", str(cfg)]) == 2


def _integer_fields(schema, path=()):
    """(path, minimum) of every integer a schema names; a list's item stands at index 0."""
    if schema.get("type") == "integer":
        yield path, schema["minimum"]
    for name, field in schema.get("properties", {}).items():
        yield from _integer_fields(field, path + (name,))
    if "items" in schema:
        yield from _integer_fields(schema["items"], path + (0,))


INTEGER_FIELDS = [
    (command, path, minimum)
    for command, schema in sorted(cli.SCHEMAS.items())
    for path, minimum in _integer_fields(schema)
]


@pytest.mark.parametrize(
    "command,path,minimum",
    INTEGER_FIELDS,
    ids=[f"{command}:{'.'.join(map(str, path))}" for command, path, _ in INTEGER_FIELDS],
)
def test_integral_float_in_an_integer_field_is_config_invalid(tmp_path, command, path, minimum):
    """2.0 is a JSON number, not an integer literal: it fails at its own field with
    exit status 2, before a runner can raise on it."""
    value = float(minimum)
    for _ in path[1:]:
        value = [value]
    config = {"shape": [2]} if command == "stabilize-sweep" else {}
    config[path[0]] = value
    with pytest.raises(ConfigInvalid) as info:
        run(command, config)
    assert info.value.path == ".".join(map(str, path))
    cfg = tmp_path / "float.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg)]) == 2


def _array_fields(schema, path=()):
    """The path of every array a schema names; a list's item stands at index 0."""
    if schema.get("type") == "array":
        yield path
    for name, field in schema.get("properties", {}).items():
        yield from _array_fields(field, path + (name,))
    if "items" in schema:
        yield from _array_fields(schema["items"], path + (0,))


ARRAY_FIELDS = [
    (command, path) for command, schema in sorted(cli.SCHEMAS.items())
    for path in _array_fields(schema)
]


@pytest.mark.parametrize(
    "command,path",
    ARRAY_FIELDS,
    ids=[f"{command}:{'.'.join(map(str, path))}" for command, path in ARRAY_FIELDS],
)
def test_empty_array_field_is_config_invalid(tmp_path, command, path):
    """An empty list fails at its own field with exit status 2: every sweep needs
    a point, every shape a block, and multiplicities one entry per block."""
    value = []
    for _ in path[1:]:
        value = [value]
    config = {"shape": [2]} if command == "stabilize-sweep" else {}
    config[path[0]] = value
    with pytest.raises(ConfigInvalid) as info:
        run(command, config)
    assert info.value.path == ".".join(map(str, path))
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg)]) == 2


@pytest.mark.parametrize("depth", [5000, 100000])
def test_deeply_nested_config_exits_2(tmp_path, capsys, depth):
    """JSON nested past the interpreter's recursion limit is a bad config, whether
    the parser or the schema walk meets the limit first."""
    cfg = tmp_path / "deep.json"
    cfg.write_text('{"shape": [2], "deltas": ' + "[" * depth + "]" * depth + "}")
    assert main(["stabilize-sweep", "--config", str(cfg)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    deltas = []
    for _ in range(depth):
        deltas = [deltas]
    with pytest.raises(ConfigInvalid):
        run("stabilize-sweep", {"shape": [2], "deltas": deltas})


# Twelve deltas, bad at indices 2 and 10: the path "deltas.10" sorts before
# "deltas.2" as a string, but index 2 comes first.
DELTAS_BAD_AT_2_AND_10 = [0.5, 0.25, 2.0, *(k / 100 for k in range(7)), -1.0, 0.75]


@pytest.mark.parametrize(
    "command,config,path",
    [
        # type, for each JSON type the schemas name; true and false are no numbers
        ("tower-check", [], "<root>"),
        ("lemma52-check", {"shapes": [2]}, "shapes.0"),
        ("cover-estimate", {"k": "1"}, "k"),
        ("cover-estimate", {"k": True}, "k"),
        ("cover-estimate", {"omegas": [False]}, "omegas.0"),
        ("recover", {"preset": "T0", "closure": 1}, "closure"),
        # additionalProperties beside a bad field: the root comes first
        ("cover-estimate", {"k": 0, "bogus": 1}, "<root>"),
        # required, beside a bad field
        ("stabilize-sweep", {"deltas": [1.5]}, "<root>"),
        # enum, minimum and exclusiveMinimum; maximum and minItems have tests above
        ("recover", {"preset": "T0", "mode": "loose"}, "mode"),
        ("lemma52-check", {"block_sizes": [2, 1]}, "block_sizes.1"),
        ("cover-estimate", {"omegas": [0.5, 0]}, "omegas.1"),
        # uniqueItems: 1 equals 1.0, but true is not 1 (and is no number)
        ("stabilize-sweep", {"shape": [2], "deltas": [1, 1.0]}, "deltas"),
        ("stabilize-sweep", {"shape": [2], "deltas": [True, 1]}, "deltas.0"),
        # items, two levels down
        ("tower-check", {"shapes": [[2], [2, 0]]}, "shapes.1.1"),
        ("stabilize-sweep", {"shape": [2], "deltas": DELTAS_BAD_AT_2_AND_10}, "deltas.2"),
    ],
)
def test_each_schema_keyword_fails_at_the_first_bad_path(command, config, path):
    with pytest.raises(ConfigInvalid) as info:
        validate_config(command, config)
    assert info.value.path == path


@pytest.mark.parametrize(
    "command,config",
    [
        ("cover-estimate", {"k": 10**30, "omegas": [1e-300, 2.5]}),
        ("stabilize-sweep", {"shape": [2], "multiplicities": [3], "deltas": [0, 1], "seeds": 1}),
        ("recover", {"preset": "T0", "closure": False, "mode": "relaxed", "seed": 0}),
        ("lemma52-check", {"shapes": [[2, 3]], "block_sizes": [2]}),
    ],
)
def test_configs_on_the_schema_bounds_pass(command, config):
    validate_config(command, config)


@pytest.fixture(scope="module")
def schema_oracle():
    """jsonschema's Draft 2020-12 validator class, with integer meaning an integer
    literal as in the CLI's walk: Draft 2020-12 also counts 2.0 as an integer."""
    jsonschema = pytest.importorskip("jsonschema")
    base = jsonschema.Draft202012Validator
    checker = base.TYPE_CHECKER.redefine(
        "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool)
    )
    return jsonschema.validators.extend(base, type_checker=checker)


def valid_values(schema):
    """A strategy for the finite values a sub-schema of SCHEMAS accepts."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if kind == "boolean":
        return st.booleans()
    if kind == "integer":
        return st.integers(schema["minimum"], schema.get("maximum", schema["minimum"] + 20))
    if kind == "number":
        low = schema.get("minimum", schema.get("exclusiveMinimum"))
        return st.floats(low, schema.get("maximum", 4.0), exclude_min="exclusiveMinimum" in schema)
    if kind == "array":
        return st.lists(
            valid_values(schema["items"]),
            min_size=schema.get("minItems", 0),
            max_size=4,
            unique_by=cli._json_key if schema.get("uniqueItems") else None,
        )
    required = schema.get("required", [])
    fields = {name: valid_values(field) for name, field in schema["properties"].items()}
    return st.fixed_dictionaries(
        {name: fields[name] for name in required},
        optional={name: value for name, value in fields.items() if name not in required},
    )


# Wrong types, true and false, integral and fractional floats, out-of-range values.
BAD_VALUES = ["x", None, [], {}, {"a": 1}, [1.5], True, False, -1, 0, 17, 2.0, 1.5, -0.5, 1e300]


def _paths(value, path=()):
    yield path
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _paths(item, path + (key,))


@st.composite
def mutated_configs(draw):
    """A command and a valid config for it, after one to three mutations at drawn
    paths: a bad value, an emptied or repeated list, an unknown or dropped field."""
    command = draw(st.sampled_from(sorted(cli.SCHEMAS)))
    config = draw(valid_values(cli.SCHEMAS[command]))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(config))))
        parent, node = None, config
        for key in path:
            parent, node = node, node[key]
        mutation = draw(st.sampled_from(["bad", "empty", "repeat", "unknown", "drop"]))
        if mutation == "bad":
            bad = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
            if parent is None:
                config = bad
            else:
                parent[path[-1]] = bad
        elif mutation == "empty" and isinstance(node, list):
            node.clear()
        elif mutation == "repeat" and isinstance(node, list) and node:
            node.append(copy.deepcopy(draw(st.sampled_from(node))))
        elif mutation == "unknown" and isinstance(node, dict):
            node["bogus"] = 1
        elif mutation == "drop" and isinstance(node, dict) and node:
            del node[draw(st.sampled_from(sorted(node)))]
    return command, config


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=mutated_configs())
def test_schema_walk_agrees_with_jsonschema(schema_oracle, case):
    """Same verdict and same first error path as jsonschema's errors sorted by path."""
    command, config = case
    schema = cli.SCHEMAS[command]
    errors = sorted(schema_oracle(schema).iter_errors(config), key=lambda e: list(e.absolute_path))
    expected = (".".join(map(str, errors[0].absolute_path)) or "<root>") if errors else None
    try:
        cli._check_schema(schema, config, ())
        found = None
    except ConfigInvalid as exc:
        found = exc.path
    assert found == expected


def test_lemma52_without_enough_subrank_is_a_failed_report(tmp_path):
    config = {"shapes": [[2]], "block_sizes": [3]}
    report = run("lemma52-check", config)
    assert not report.passed
    assert error_of(report).startswith("SubrankTooSmall: ")
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
    units = canonical_units(shape, mult)
    projections = np.stack(
        [units.unit(s, i, i) for s, size in enumerate(shape, start=1) for i in range(1, size + 1)]
    )
    assert not np.any(projections * ~np.eye(k, dtype=bool))  # coordinate-aligned
    n = np.count_nonzero(np.einsum("nii->ni", projections).real > 0.5, axis=1)
    return int(np.sum(n + n * (n - 1)))


def test_pinched_basis_count_matches_dense_supports():
    cases = 0
    for shape in cli._sorted_shapes_upto(8):
        table, _, k_of = multiplicity_table([shape], 8)
        counts = cli._pinched_basis_counts(np.tile(shape, (len(table), 1)), table, k_of)
        for mult, k, count in zip(table.tolist(), k_of.tolist(), counts.tolist(), strict=True):
            assert count == dense_pinched_count(shape, mult, k)
            cases += 1
    assert cases == 474  # the cases row of counting-check at max_dim 8


def edited_table(monkeypatch, edit):
    """Make counting-check's multiplicity table of the two-block shapes go
    through ``edit(table, i)``, i the first of shape (1, 2)'s rows (1, 2),
    (3, 1) at k = 5; ``edit`` returns the new table and the number of rows
    it inserts at i (negative: deletes from i), each a row of (1, 2) at k = 5."""
    real = cli.multiplicity_table

    def patched(shapes, max_dim):
        table, owner, k = real(shapes, max_dim)
        shapes = np.asarray(shapes).tolist()
        if [1, 2] not in shapes:
            return table, owner, k
        i = int(np.flatnonzero((owner == shapes.index([1, 2])) & (k == 5))[0])
        assert table[i].tolist() == [1, 2] and table[i + 1].tolist() == [3, 1]
        table, shift = edit(table.copy(), i)
        rows = np.arange(len(k))  # the row of owner and k each edited row takes
        rows = np.delete(rows, range(i, i - shift)) if shift < 0 else np.insert(rows, i, [i] * shift)
        return table, owner[rows], k[rows]

    monkeypatch.setattr(cli, "multiplicity_table", patched)


def swap_row(offset, row):
    """An edit writing ``row`` (None: a copy of row i) over row i + offset."""

    def edit(table, i):
        table[i + offset] = table[i] if row is None else row
        return table, 0

    return edit


def counting_row(tmp_path, name):
    """Exit status and the named row of counting-check at max_dim 6."""
    cfg, out = tmp_path / "count.json", tmp_path / "report.json"
    cfg.write_text(json.dumps({"max_dim": 6, "seeds": 1}))
    status = main(["counting-check", "--config", str(cfg), "--out", str(out)])
    rows = {row["name"]: row for row in json.loads(out.read_text())["rows"]}
    return status, rows[name]


@pytest.mark.parametrize(
    "edit",
    [
        lambda table, i: (np.delete(table, i, axis=0), -1),
        lambda table, i: (np.insert(table, i, table[i], axis=0), 1),
        swap_row(1, None),  # the count holds; a row repeats
        swap_row(0, (2, 1)),  # the count holds; 2 + 2 != 5
        swap_row(0, (5, 0)),  # the count holds; a zero multiplicity
    ],
    ids=["dropped-row", "added-repeat", "swapped-for-repeat", "non-solution", "non-positive"],
)
def test_counting_check_catches_a_faulty_multiplicity_table(tmp_path, monkeypatch, edit):
    edited_table(monkeypatch, edit)
    status, row = counting_row(tmp_path, "multiplicity_mismatches")
    assert status == 1
    assert row["measured"] == 1 and not row["pass"]  # (1, 2) at k = 5


def test_counting_check_catches_a_wrong_compression_dimension(tmp_path, monkeypatch):
    real = cli._pinched_basis_counts

    def off_by_one(shapes, tables, ks):
        counts = real(shapes, tables, ks)
        if shapes.shape[1] == 2:
            counts[((shapes == (2, 3)) & (tables == (1, 1))).all(axis=1)] += 1
        return counts

    monkeypatch.setattr(cli, "_pinched_basis_counts", off_by_one)
    status, row = counting_row(tmp_path, "compression_dim_mismatches")
    assert status == 1
    assert row["measured"] == 1 and not row["pass"]


def test_counting_check_catches_a_row_above_the_compression_cap(tmp_path, monkeypatch):
    """Row (9, 9) at k = 5 has dimension 81 + 2 * 81, above 5^2/1."""
    edited_table(monkeypatch, swap_row(0, (9, 9)))
    status, row = counting_row(tmp_path, "compression_cap_violations")
    assert status == 1
    assert row["measured"] == 1 and not row["pass"]


@pytest.mark.parametrize("copies, violations", [(23, 0), (24, 1)])
def test_counting_check_catches_a_count_above_the_cardinality_cap(
    tmp_path, monkeypatch, copies, violations
):
    """Shape (1, 2) has 2 rows at k = 5 and the cap (5/1)^2 = 25: 25 rows
    sit on the cap, 26 exceed it."""
    edited_table(
        monkeypatch,
        lambda table, i: (np.insert(table, i, np.repeat(table[i : i + 1], copies, 0), 0), copies),
    )
    status, row = counting_row(tmp_path, "cardinality_cap_violations")
    assert status == 1  # every copy is also a multiplicity mismatch
    assert row["measured"] == violations and row["pass"] == (violations == 0)


def per_shape_scan(shape: tuple, max_dim: int) -> list:
    """The counting totals of one shape, scanned alone: the reference for
    ``cli._scan_block_count``, whose stacks must give the same totals and
    hand the row-table oracle the same cases."""
    vec, n = np.array(shape), min(shape)
    table, _, k_of = multiplicity_table([shape], max_dim)
    offsets = np.searchsorted(k_of, np.arange(max_dim + 2))
    sizes = np.diff(offsets)
    dims = table**2 @ vec
    bad = (table < 1).any(axis=1) | (table @ vec != k_of)
    order = np.lexsort((*table.T[::-1], k_of))
    repeat = (np.diff(table[order], axis=0) == 0).all(axis=1) & (np.diff(k_of[order]) == 0)
    bad[order[1:][repeat]] = True
    faulty = np.bincount(k_of[bad], minlength=max_dim + 1) > 0
    faulty |= sizes != multiplicity_counts(shape, max_dim)
    ks = np.arange(sum(shape), max_dim + 1)
    card_violations = np.count_nonzero(sizes[ks] > (ks / n) ** len(shape) + 1e-9)
    cap_violations = np.count_nonzero(dims > k_of * k_of / n + 1e-12)
    sample = list(range(offsets[min(cli.TABLE_ORACLE_DIM, max_dim) + 1]))
    sample += [
        offsets[k] + int(np.argmax(dims[offsets[k] : offsets[k + 1]]))
        for k in range(cli.TABLE_ORACLE_DIM + 1, max_dim + 1)
        if sizes[k]
    ]
    sample = [i for i in sample if not bad[i]]
    counts = cli._pinched_basis_counts(np.tile(shape, (len(sample), 1)), table[sample], k_of[sample])
    dim_mismatches = int(np.count_nonzero(dims[sample] != counts))
    cases = int(offsets[-1] - offsets[1])
    return [cases, dim_mismatches, cap_violations, int(np.count_nonzero(faulty)), card_violations]


def recorded_oracle_cases(monkeypatch):
    """A list that collects every (shape, mult, k) case the row-table oracle
    is given from now on, one entry per case."""
    calls, count = [], cli._pinched_basis_counts

    def record(shapes, tables, ks):
        calls.extend(zip(map(tuple, shapes.tolist()), map(tuple, tables.tolist()), ks.tolist()))
        return count(shapes, tables, ks)

    monkeypatch.setattr(cli, "_pinched_basis_counts", record)
    return calls


def test_stacked_scan_equals_the_per_shape_scan(monkeypatch):
    """Same five totals at every max_dim, and the same oracle cases: 474 at
    max_dim 8 (every case) and 1081 at 12."""
    calls = recorded_oracle_cases(monkeypatch)
    for max_dim in range(1, 13):
        stacked = cli._scan_shapes(max_dim)
        stacked_calls = sorted(calls)
        calls.clear()
        alone = np.sum([per_shape_scan(s, max_dim) for s in cli._sorted_shapes_upto(max_dim)], axis=0)
        assert stacked == alone.tolist()
        assert stacked_calls == sorted(calls) and len(set(stacked_calls)) == len(calls)
        assert len(calls) == {8: 474, 12: 1081}.get(max_dim, len(calls))
        calls.clear()
    assert stacked[0] == 8017


def test_table_rows_are_the_canonical_tables(monkeypatch):
    """The oracle's row labels are the tables ``canonical_rows`` builds, on
    every case of the max_dim 12 sample, with every case's coordinates
    filled and its rows numbered after the previous case's."""
    calls = recorded_oracle_cases(monkeypatch)
    cli._scan_shapes(12)
    assert len(calls) == 1081
    for blocks in {len(shape) for shape, _, _ in calls}:
        cases = [case for case in calls if len(case[0]) == blocks]
        shapes, tables = (np.array([case[i] for case in cases]) for i in (0, 1))
        labels = cli._table_rows(shapes, tables)
        start, first = 0, 0
        for shape, mult, k in cases:
            want = np.full(k, -1)
            rows = [row for table in canonical_rows(shape, mult) for row in table]
            for r, row in enumerate(rows):
                want[row] = first + r
            assert np.array_equal(labels[start : start + k], want)
            start, first = start + k, first + len(rows)
        assert start == len(labels)


@pytest.mark.parametrize("workspace, chunks", [(100, [1] * 20), (300, [3] * 6 + [2]), (None, [20])])
def test_pinching_chunks_leave_the_report_unchanged(monkeypatch, workspace, chunks):
    """One seed, three seeds or all 20 per chunk give the same report body."""
    config = {"max_dim": 2}
    reference = run("counting-check", config).body_bytes()
    seen, defect = [], cli.pinching_defect

    def record(elems, units):
        seen.append(len(elems))
        return defect(elems, units)

    if workspace is not None:
        monkeypatch.setattr(cli, "_WORKSPACE_BYTES", workspace)  # 25 entries of 16 bytes each
    monkeypatch.setattr(cli, "pinching_defect", record)
    assert run("counting-check", config).body_bytes() == reference
    assert seen == chunks * 2  # per omega


@pytest.mark.parametrize("k", [1, 5, 64, 255, 256, 257, 1024, 4096])
def test_pinching_chunk_stays_within_its_workspace(k):
    """A chunk's (seeds, k, k) stack holds at most 1 MiB, or one matrix."""
    stack = cli._seed_chunk(k * k) * 16 * k * k
    assert stack <= max(4 * cli._WORKSPACE_BYTES, 16 * k * k)
    assert cli._seed_chunk(k * k) == 1 or stack > 2 * cli._WORKSPACE_BYTES


def test_counting_check_at_max_dim_16_stays_small():
    """130278 cases in stacks of one block count stay under 8 MiB."""
    tracemalloc.start()
    try:
        report = run("counting-check", {"max_dim": 16})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.rows[0].measured == 130278
    assert peak < 8 << 20


def test_stabilize_sweep_fails_on_nan_defects(monkeypatch):
    def nan_defects(systems):
        return [UnitDefects(0.0, float("nan"), 0.0) for _ in systems]

    monkeypatch.setattr(cli, "unit_defects", nan_defects)
    report = run("stabilize-sweep", {"shape": [2], "deltas": [1e-6], "seeds": 2})
    row = next(r for r in report.rows if r.name.endswith("defects_out"))
    assert not row.passed
    assert not report.passed


def test_stabilize_sweep_defects_in_match_an_independent_scoring():
    config = {"shape": [2, 3], "multiplicities": [2, 1], "deltas": [1e-4, 1e-3], "seeds": 3}
    report = run("stabilize-sweep", config)
    units = canonical_units((2, 3), (2, 1))
    rows = report.extra["sweep"]
    assert len(rows) == 6
    for row in rows:
        noisy = perturb_units(units, row["delta"], row["seed"])
        assert row["defects_in"] == unit_defects(noisy).to_json()


def test_stabilize_sweep_defects_out_match_a_dense_scoring():
    """defects_out comes from the stabilized system's factors; the dense
    screened scoring of the same units agrees within 8 d eps."""
    config = {"shape": [2, 3], "multiplicities": [2, 1], "deltas": [1e-4, 1e-3], "seeds": 3}
    report = run("stabilize-sweep", config)
    units = canonical_units((2, 3), (2, 1))
    bound = 8 * units.ambient_dim * np.finfo(float).eps
    rows = report.extra["sweep"]
    assert len(rows) == 6
    for row in rows:
        fixed, _ = stabilize_units(perturb_units(units, row["delta"], row["seed"]))
        want = unit_defects(densified(fixed)).to_json()
        assert row["defects_out"]["adjoint"] == 0.0
        for name, value in want.items():
            assert abs(row["defects_out"][name] - value) <= bound * max(1.0, value), name


def sweep_seed_by_seed(config):
    """``extra["sweep"]`` of a stabilize-sweep, built seed by seed from one-system
    ``perturb_units``, ``stabilize_units`` and ``unit_defects`` calls."""
    shape = tuple(config["shape"])
    units = canonical_units(shape, tuple(config.get("multiplicities", [1] * len(shape))))
    rows = []
    for delta in config.get("deltas", [1e-6, 1e-4, 1e-3]):
        for s in range(config.get("seeds", 20)):
            seed = config.get("seed", 2024) + 1000 * s + int(1e9 * delta) % 997
            noisy = perturb_units(units, delta, seed)
            fixed, dist = stabilize_units(noisy)
            rows.append({
                "delta": delta, "seed": seed, "max_distance": dist,
                "defects_in": unit_defects(noisy).to_json(),
                "defects_out": unit_defects(fixed).to_json(),
            })
    return rows


@pytest.mark.parametrize(
    "config",
    [
        {"shape": [5, 5]},
        {"shape": [2, 3], "multiplicities": [2, 1], "deltas": [1e-4, 1e-3], "seeds": 4},
        # stabilize_units returns these dense candidates unchanged, so defects_out
        # takes the dense path
        {"shape": [2, 3], "multiplicities": [2, 1], "deltas": [0, 1e-12], "seeds": 3},
    ],
    ids=["default", "mixed-multiplicities", "near-rounding"],
)
def test_stacked_sweep_equals_the_seed_by_seed_loop(config):
    assert run("stabilize-sweep", config).extra["sweep"] == sweep_seed_by_seed(config)


def test_sweep_of_several_chunks_equals_the_seed_by_seed_loop(monkeypatch):
    """A workspace of 6000 bytes makes a chunk of two 7 x 7 systems of 13 units."""
    config = {"shape": [2, 3], "multiplicities": [2, 1], "deltas": [1e-4, 0], "seeds": 5}
    chunks, perturb = [], cli.perturb_units

    def record(units, delta, seeds):
        chunks.append(len(seeds))
        return perturb(units, delta, seeds)

    monkeypatch.setattr(cli, "_WORKSPACE_BYTES", 6000)
    monkeypatch.setattr(cli, "perturb_units", record)
    rows = run("stabilize-sweep", config).extra["sweep"]
    assert chunks == [2, 2, 1] * 2
    assert rows == sweep_seed_by_seed(config)


def test_stabilize_sweep_reports_the_first_failing_seed(tmp_path, capsys):
    """All three seeds at delta 0.5 fail the Gram gate, each at its own defect;
    the report names seed 0's in one error row after the rows of delta 1e-4,
    with exit status 1."""
    config = {"shape": [5, 5], "deltas": [1e-4, 0.5], "seeds": 3}
    message = "StabilizationFailed: Gram defect 6.119e-01 of the first-column factors exceeds 0.1"
    report = run("stabilize-sweep", config)
    assert error_of(report) == message
    assert [(r.name, r.passed) for r in report.rows] == [
        ("fixed_point_bitstable", True), ("fixed_point_distance", True),
        ("delta0.0001.defects_out", True), ("delta0.0001.median_distance", True),
        ("error", False),
    ]
    cfg = tmp_path / "fails.json"
    cfg.write_text(json.dumps(config))
    assert main(["stabilize-sweep", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 1
    rows = json.loads((tmp_path / "r.json").read_text())["rows"]
    assert rows[-1] == {"name": "error", "measured": message, "threshold": None, "pass": False}
    assert "Traceback" not in capsys.readouterr().err


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
    assert error_of(report).startswith("DimensionOverflow: ")
    assert not report.passed
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"shape": [200]}))
    assert main(["stabilize-sweep", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 1


def test_lapack_failure_is_a_structured_report(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)  # the stabilizer's eigensolves
    report = run("stabilize-sweep", {"shape": [2], "deltas": [1e-6], "seeds": 1})
    assert error_of(report).startswith("NonConvergence: ")
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
    code = main(["gen-verify", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
    assert code == 1


def test_cover_estimate_small():
    report = run("cover-estimate", {"k": 1, "omegas": [0.5], "samples": 500})
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


@pytest.mark.parametrize("value", [1.5, -0.0, float("nan"), 7, 2**80, "x", True, False, None])
def test_sanitize_returns_a_plain_value_itself(value):
    assert sanitize(value) is value


def test_sanitize_converts_numpy_values_and_containers():
    cases = [
        (np.float64(-0.0), -0.0, float), (np.float32(0.5), 0.5, float),
        (np.int64(-3), -3, int), (np.bool_(True), True, bool),
        ((1, np.int64(2)), [1, 2], list), (np.array([[1.0, 2.0]]), [[1.0, 2.0]], list),
        ({1: {"a": (np.float64(1.5),)}}, {"1": {"a": [1.5]}}, dict),
    ]
    for value, plain, kind in cases:
        out = sanitize(value)
        assert type(out) is kind and json.dumps(out) == json.dumps(plain)
    assert type(sanitize(np.array([np.int64(1)]))[0]) is int
