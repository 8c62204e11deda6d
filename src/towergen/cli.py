"""Configuration-driven experiment runner.

Every subcommand validates its JSON config against a fixed schema, runs the
named experiment deterministically, and emits a report whose body is
byte-stable across reruns with the same seeds.  Exit status 0 means every
row passed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from dataclasses import replace
from typing import Dict, List

import numpy as np

from .closure import distance_to_span, subalgebra_closure
from .errors import ConfigInvalid, DimensionMismatch, DimensionOverflow
from .linalg import _WORKSPACE_BYTES, DEFAULT_DIM_CAP, hermitian_part, identity, op_norms
from .microstates import (
    bound_power,
    greedy_cover,
    haar_unitaries,
    multiplicity_counts,
    multiplicity_table,
    pinching_defect,
    unitary_bound_rows,
    unitary_bounds,
)
from .presets import list_presets, preset_spec
from .recovery import round_trip
from .report import RunReport
from .similarity import run_identity_sweep, sweep_rows
from .stabilize import perturb_units, stabilize_units
from .tower import MODES, RECIPES, SPEC_KEYS, TowerSpec, build_tower, check_conditions
from .twogen import build_plan, verify_facts
from .units import canonical_units, subrank, unit_defects

# One fragment per kind of value; every field of SCHEMAS is built from these.
SEED = {"type": "integer", "minimum": 0}
COUNT = {"type": "integer", "minimum": 1}
SHAPE = {"type": "array", "minItems": 1, "items": COUNT}
SHAPES = {"type": "array", "minItems": 1, "items": SHAPE}
MULTIPLICITIES = {"type": "array", "items": COUNT}  # one per block: see MULTIPLICITY_FIELDS
RADII = {"type": "array", "minItems": 1, "items": {"type": "number", "exclusiveMinimum": 0}}


def _fields(required=(), **properties) -> dict:
    """The schema of a JSON object with these fields and no others."""
    schema = {"type": "object", "properties": properties, "additionalProperties": False}
    if required:
        schema["required"] = list(required)
    return schema


# One schema serves every tower-style command; a config names a preset or shapes.
TOWER_SCHEMA = _fields(
    preset={"enum": sorted(list_presets())},
    shapes=SHAPES,
    generators=COUNT,
    mode={"enum": MODES},
    seed=SEED,
    recipe={"enum": sorted(RECIPES)},
    closure={"type": "boolean"},
)

SCHEMAS: Dict[str, dict] = {
    "tower-check": TOWER_SCHEMA,
    "gen-verify": TOWER_SCHEMA,
    "recover": TOWER_SCHEMA,
    "stabilize-sweep": _fields(
        required=["shape"],
        shape=SHAPE,
        multiplicities=MULTIPLICITIES,
        deltas={
            "type": "array",
            "minItems": 1,
            "uniqueItems": True,
            "items": {"type": "number", "minimum": 0, "maximum": 1},
        },
        seeds=COUNT,
        seed=SEED,
    ),
    "cover-estimate": _fields(k=COUNT, omegas=RADII, samples=COUNT, seed=SEED),
    "counting-check": _fields(
        max_dim=dict(COUNT, maximum=16),
        pinching_shape=SHAPE,
        pinching_multiplicities=MULTIPLICITIES,
        omegas=RADII,
        seeds=COUNT,
        seed=SEED,
    ),
    "lemma52-check": _fields(
        shapes=SHAPES,
        block_sizes={"type": "array", "minItems": 1, "items": {"type": "integer", "minimum": 2}},
        runs=COUNT,
        coeff_dim=COUNT,
        seed=SEED,
    ),
    "list-presets": _fields(),
    "all": _fields(),
}

DEFAULT_PINCHING_SHAPE = [2, 3]  # counting-check's pinching sample

# Per command: a shape field, its default, and the field giving one multiplicity
# per block of that shape.  stabilize-sweep requires its shape.
MULTIPLICITY_FIELDS = {
    "stabilize-sweep": ("shape", None, "multiplicities"),
    "counting-check": ("pinching_shape", DEFAULT_PINCHING_SHAPE, "pinching_multiplicities"),
}


def validate_config(command: str, config: dict) -> None:
    if command not in SCHEMAS:
        raise ConfigInvalid(f"unknown command {command!r}; commands: {', '.join(SCHEMAS)}")
    schema = SCHEMAS[command]
    try:
        _check_schema(schema, config, ())
    except RecursionError:  # uniqueItems compares items of any depth
        raise ConfigInvalid("config is nested too deeply to check", path="<root>") from None
    if schema is TOWER_SCHEMA and ("preset" in config) == ("shapes" in config):
        raise ConfigInvalid(
            "config field shapes: give exactly one of 'preset' or 'shapes'", path="shapes"
        )
    if command in MULTIPLICITY_FIELDS:
        shape_field, default, mult_field = MULTIPLICITY_FIELDS[command]
        blocks, mult = len(config.get(shape_field, default)), config.get(mult_field)
        if mult is not None and len(mult) != blocks:
            raise ConfigInvalid(
                f"config field {mult_field}: {len(mult)} multiplicities for the "
                f"{blocks} blocks of {shape_field}",
                path=mult_field,
            )


# The JSON types SCHEMAS name.  true and false are booleans only, and an integer
# is an integer literal: 2.0 is a number, not an integer.
JSON_TYPES = {
    "object": dict, "array": list, "integer": int, "number": (int, float), "boolean": bool,
}


def _check_schema(schema: dict, value, path: tuple) -> None:
    """Raise ConfigInvalid for the first error of ``value`` against ``schema``.

    Covers the keywords SCHEMAS use, with their JSON Schema meaning.  A value's
    own keywords are checked before its fields, in sorted order, and its items,
    by index; so the first error found is the first in path order, and an
    error at the root comes before any error inside it.  A number must also be
    finite, which no bound keyword checks: NaN compares false to every bound.
    """
    kind = schema.get("type")
    is_bool = isinstance(value, bool)
    if kind and (not isinstance(value, JSON_TYPES[kind]) or is_bool != (kind == "boolean")):
        raise _invalid(path, f"{value!r} is not of type {kind}")
    if isinstance(value, float) and not math.isfinite(value):
        raise _invalid(path, f"{value!r} is not a finite number")
    if "enum" in schema and value not in schema["enum"]:
        raise _invalid(path, f"{value!r} is not one of {schema['enum']}")
    if "minimum" in schema and value < schema["minimum"]:
        raise _invalid(path, f"{value!r} is less than the minimum of {schema['minimum']}")
    if "maximum" in schema and value > schema["maximum"]:
        raise _invalid(path, f"{value!r} is greater than the maximum of {schema['maximum']}")
    if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
        raise _invalid(path, f"{value!r} is not greater than {schema['exclusiveMinimum']}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise _invalid(path, f"{value!r} has fewer than {schema['minItems']} items")
        if schema.get("uniqueItems") and len(set(map(_json_key, value))) < len(value):
            raise _invalid(path, f"{value!r} has repeated items")
        for index, item in enumerate(value):
            _check_schema(schema["items"], item, path + (index,))
    if isinstance(value, dict):
        fields = schema.get("properties", {})
        unknown = sorted(set(value) - set(fields), key=str)
        if unknown and schema.get("additionalProperties") is False:
            raise _invalid(path, f"unknown fields {', '.join(map(repr, unknown))}")
        missing = [name for name in schema.get("required", ()) if name not in value]
        if missing:
            raise _invalid(path, f"{missing[0]!r} is required")
        for name in sorted(set(value) & set(fields)):
            _check_schema(fields[name], value[name], path + (name,))


def _invalid(path: tuple, message: str) -> ConfigInvalid:
    where = ".".join(map(str, path)) or "<root>"
    return ConfigInvalid(f"config field {where}: {message}", path=where)


def _json_key(value):
    """A hashable stand-in for a JSON value under JSON equality: 1 equals 1.0,
    true does not equal 1, and lists and objects compare by content."""
    if isinstance(value, list):
        return ("array", tuple(map(_json_key, value)))
    if isinstance(value, dict):
        return ("object", frozenset((name, _json_key(item)) for name, item in value.items()))
    return (isinstance(value, bool), value)


def resolve_tower_spec(config: dict) -> TowerSpec:
    """The TowerSpec a tower config names: its preset's spec, or TowerSpec's
    defaults, with the fields the config gives."""
    given = {name: config[key] for key, name in SPEC_KEYS.items() if key in config}
    if "preset" in config:
        return replace(preset_spec(config["preset"]), **given)
    return TowerSpec(**given)


def run_tower_check(report: RunReport, config: dict) -> None:
    spec = resolve_tower_spec(config)
    model = build_tower(spec)
    cond = check_conditions(model)
    report.rows += cond.rows
    report.extra["interleaving"] = cond.interleaving_note
    report.extra["truncation_tail_bound"] = 2.0 ** (-model.depth)


def run_gen_verify(report: RunReport, config: dict) -> None:
    spec = resolve_tower_spec(config)
    model = build_tower(spec)
    report.rows += verify_facts(build_plan(model)).rows


def run_recover(report: RunReport, config: dict) -> None:
    spec = resolve_tower_spec(config)
    model = build_tower(spec)
    plan = build_plan(model)
    result, trip = round_trip(plan)
    report.rows += trip.rows
    report.extra["trace"] = result.trace_json()

    if not config.get("closure", False):
        return
    with report.stage("closure"):  # a closure that fails closed keeps the round-trip rows
        pair_basis = subalgebra_closure([plan.gen_a, plan.gen_b])
        # With one block per level, level n's units are I (x) e_ij (x) I for a
        # full system e_ij of M_{d_n}; their products over the levels give
        # every e_{i1 j1} (x) ... (x) e_{iN jN}, a basis of M_d, so the
        # reference algebra is M_d.  A multi-block level needs the certificate.
        if all(len(shape) == 1 for shape in spec.block_shapes):
            oracle_size = model.ambient_dim**2
        else:
            oracle_gens = [lv.coupling for lv in plan.levels] + [identity(model.ambient_dim)]
            oracle_size = subalgebra_closure(oracle_gens, systems=model.blocks).size
        report.add("dimension_match", pair_basis.size, oracle_size, pair_basis.size == oracle_size)
        bound = plan.tail_bound + 1e-6
        for j, x in enumerate(model.generators, start=1):
            _, upper = distance_to_span(x, pair_basis)
            report.check(f"distance_g{j}", upper, bound)


def _seed_chunk(entries: int) -> int:
    """Seeds scored together when each seed's stack holds ``entries`` complex
    entries: at most four workspace blocks (1 MiB) in the chunk's stack, and
    at least one seed.  A chunk's seeds share that stack, with no copy per
    seed, so its peak is a few such stacks (see ``run_stabilize_sweep``)."""
    return max(1, 4 * _WORKSPACE_BYTES // (16 * entries))


def run_stabilize_sweep(report: RunReport, config: dict) -> None:
    shape = tuple(config.get("shape", [5, 5]))
    mult = tuple(config.get("multiplicities", [1] * len(shape)))
    deltas = config.get("deltas", [1e-6, 1e-4, 1e-3])
    per_delta = config.get("seeds", 20)
    base_seed = config.get("seed", 2024)
    target = sum(c * k for c, k in zip(mult, shape))
    # every perturbed system is a dense family of sum k_s^2 units of d x d
    entries = sum(k * k for k in shape) * target * target
    if entries > DEFAULT_DIM_CAP**2:
        raise DimensionOverflow(
            f"shape {list(shape)} at dimension {target} needs {entries} dense unit entries, "
            f"above {DEFAULT_DIM_CAP}^2"
        )
    units = canonical_units(shape, mult)

    exact_out, exact_dist = stabilize_units(units)
    bitstable = all(
        np.array_equal(exact_out.unit(*key), units.unit(*key)) for key in units.keys()
    )
    report.add("fixed_point_bitstable", bool(bitstable), True, bitstable)
    report.check("fixed_point_distance", exact_dist, 1e-12)

    sweep_rows: List[dict] = []
    medians = {}
    # a delta's seeds are scored a chunk at a time, as one dense stack of at most
    # 1 MiB whatever the number of seeds; the noisy systems are read-only views
    # of it, which stabilize_units and unit_defects take whole.  A chunk holds
    # about three such stacks at its peak: the noise with A^* and A^*A of its
    # units while perturb_units norms it, or with the stabilized units and the
    # screen's blocks while stabilize_units measures the distances
    chunk = _seed_chunk(entries)
    for delta in deltas:
        seeds = [base_seed + 1000 * s + int(1e9 * delta) % 997 for s in range(per_delta)]
        dists = []
        worst_out = 0.0
        for top in range(0, per_delta, chunk):
            part = seeds[top : top + chunk]
            noisy = perturb_units(units, delta, part)
            stabilized = stabilize_units(noisy)
            defects_out = unit_defects([fixed for fixed, _ in stabilized])
            defects_in = unit_defects(noisy)
            for seed, (_, dist), d_in, d_out in zip(part, stabilized, defects_in, defects_out):
                worst_out = float(np.maximum(worst_out, d_out.max()))  # NaN propagates
                dists.append(dist)
                sweep_rows.append(
                    {
                        "delta": delta,
                        "seed": seed,
                        "max_distance": dist,
                        "defects_in": d_in.to_json(),
                        "defects_out": d_out.to_json(),
                    }
                )
            del noisy, stabilized  # before the next chunk is drawn
        medians[delta] = statistics.median(dists)
        report.check(f"delta{delta:g}.defects_out", worst_out, 1e-12)
        report.add(f"delta{delta:g}.median_distance", medians[delta], None, True)
    # the schema makes deltas unique, so sorting them orders the medians
    ordered = [medians[delta] for delta in sorted(medians)]
    monotone = all(ordered[i] <= ordered[i + 1] + 1e-15 for i in range(len(ordered) - 1))
    report.add("median_distance_monotone", monotone, True, monotone)
    report.extra["sweep"] = sweep_rows


def run_cover_estimate(report: RunReport, config: dict) -> None:
    k = config.get("k", 1)
    radii = config.get("omegas", [0.5])
    samples = config.get("samples", 10000)
    seed = config.get("seed", 404)
    if samples * k * k > DEFAULT_DIM_CAP**2:
        raise DimensionOverflow(f"cloud entries {samples} * {k}^2 exceed {DEFAULT_DIM_CAP}^2")
    bounds = [unitary_bounds(k, radius) for radius in radii]  # raises before the scan
    cloud = haar_unitaries(k, seed, samples)
    if k == 1:
        # the angle is divided as a real, as Python's complex 2j*pi*t / samples
        # divides it; numpy's complex division multiplies by 1/samples instead
        grid = np.exp(1j * (2 * np.pi * np.arange(samples) / samples))[:, None, None]
    report.extra["k"] = k
    report.extra["samples"] = samples
    for radius, bound in zip(radii, bounds):
        count = greedy_cover(cloud, 2.0 * radius)
        oracle = greedy_cover(grid, 2.0 * radius) if k == 1 else None
        report.rows += unitary_bound_rows(radius, bound, count, oracle)
        profile = float(
            np.log(max(count, 1)) / (-(k * k) * np.log(radius))
        ) if radius < 1 else None
        report.extra[f"covering_profile_omega{radius:g}"] = {
            "value": profile,
            "note": "finite-k profile of the certified lower bound; carries no "
            "asymptotic meaning",
        }


def _table_rows(shapes: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """The canonical table row of every coordinate of C cases, given as
    (C, r) shapes and (C, r) multiplicity rows: case by case, each case's
    sum c_s k_s coordinates in order, rows numbered across all cases.

    This is the layout ``canonical_rows`` documents: block s fills the
    next c_s k_s coordinates, and row i of its table holds window
    coordinates i c_s to i c_s + c_s - 1, so the rows, block by block,
    each take their next c_s coordinates.
    """
    sizes = np.repeat(tables.ravel(), shapes.ravel())  # c_s for each of block s's k_s rows
    return np.repeat(np.arange(len(sizes)), sizes)


def _pinched_basis_counts(shapes: np.ndarray, tables: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Exhaustive count of Hermitian basis elements surviving the pinching,
    for C cases given as (C, r) shapes, (C, r) multiplicity rows and their
    C dimensions k.

    The canonical diagonal units are coordinate-aligned 0/1 projections, so
    a basis element E_ii (or the Hermitian pair at (i, j)) survives exactly
    when its coordinates lie inside one projection's support, which is the
    unit's row of the row table: a row of n coordinates keeps n diagonal
    elements and a symmetric and an antisymmetric pair per i < j, n^2 in
    all.  Every coordinate is labeled with its row (``_table_rows``); one
    bincount gives each row's support size and one more sums their squares
    per case.
    """
    if np.any((tables * shapes).sum(axis=1) != ks):
        raise DimensionMismatch("multiplicity rows do not fill their dimensions k")
    rows = shapes.sum(axis=1)
    support = np.bincount(_table_rows(shapes, tables), minlength=rows.sum())
    case = np.repeat(np.arange(len(ks)), rows)  # the case of each row
    return np.bincount(case, weights=support * support, minlength=len(ks)).astype(np.int64)


def _sorted_shapes_upto(total: int) -> List[tuple]:
    """Every nondecreasing tuple of positive block sizes summing to at most ``total``."""
    out = []

    def walk(remaining: int, minimum: int, partial: tuple):
        if partial:
            out.append(partial)
        for part in range(minimum, remaining + 1):
            walk(remaining - part, part, partial + (part,))

    walk(total, 1, ())
    return out


TABLE_ORACLE_DIM = 8  # the row-table oracle checks every case with k up to here


def _scan_block_count(shapes: np.ndarray, max_dim: int) -> List[int]:
    """[cases, compression_dim_mismatches, compression_cap_violations,
    multiplicity_mismatches, cardinality_cap_violations] of an (S, r) stack
    of shapes with r blocks each over every k <= max_dim.

    The rows the multiplicity table lists for a (shape, k) must be
    positive, distinct and solve c . shape = k, and there must be
    ``multiplicity_counts`` of them: together that is the set of all
    solutions, so a (shape, k) that fails any of these is one multiplicity
    mismatch.  Compression dimensions sum c_s^2 k_s come from one pass over
    the table's columns; the row-table oracle ``_pinched_basis_counts``
    checks them on every case with k <= TABLE_ORACLE_DIM and on the first
    largest-dimension case of each (shape, k) with a larger k, the whole
    sample in one call.  Both caps
    are one comparison each for the whole stack: every row's dimension
    against k^2/N, and the row count of each (shape, k) against (k/N)^r, N
    the shape's subrank.
    """
    table, owner, k_of = multiplicity_table(shapes, max_dim)
    width = max_dim + 1
    group = owner * width + k_of  # the (shape, k) each row is listed at
    dims = np.zeros(len(table), dtype=np.int64)
    dot = np.zeros(len(table), dtype=np.int64)  # c . shape
    bad = np.zeros(len(table), dtype=bool)
    for c, k_s in zip(table.T, shapes.T):
        k_s = k_s[owner]
        dims += c * c * k_s
        dot += c * k_s
        bad |= c < 1
    bad |= dot != k_of
    order = np.lexsort((*table.T[::-1], group))  # by (shape, k), then by row
    repeat = np.diff(group[order]) == 0
    for c in table.T:
        repeat &= np.diff(c[order]) == 0
    bad[order[1:][repeat]] = True
    sizes = np.bincount(group, minlength=len(shapes) * width).reshape(-1, width)
    faulty = np.bincount(group[bad], minlength=sizes.size).reshape(sizes.shape) > 0
    faulty |= sizes != [multiplicity_counts(shape, max_dim) for shape in shapes.tolist()]
    n, ks = shapes.min(axis=1), np.arange(width)
    over = sizes > (ks / n[:, None]) ** shapes.shape[1] + 1e-9
    card_violations = np.count_nonzero(over & (ks >= shapes.sum(axis=1)[:, None]))
    cap_violations = np.count_nonzero(dims > k_of * k_of / n[owner] + 1e-12)
    # the first largest-dimension row of each (shape, k > TABLE_ORACLE_DIM)
    large = np.flatnonzero(k_of > TABLE_ORACLE_DIM)
    large = large[np.lexsort((-dims[large], group[large]))]  # stable: ties in table order
    first = np.diff(group[large], prepend=-1) != 0
    sample = np.concatenate([np.flatnonzero(k_of <= TABLE_ORACLE_DIM), large[first]])
    sample = sample[~bad[sample]]  # a bad row is already a mismatch, and no embedding
    counts = _pinched_basis_counts(shapes[owner[sample]], table[sample], k_of[sample])
    dim_mismatches = int(np.count_nonzero(counts != dims[sample]))
    cases = len(table)
    return [cases, dim_mismatches, cap_violations, int(np.count_nonzero(faulty)), card_violations]


def _scan_shapes(max_dim: int) -> List[int]:
    """The ``_scan_block_count`` totals over every sorted shape with sum at
    most max_dim, the shapes of each block count one stack."""
    by_blocks: Dict[int, List[tuple]] = {}
    for shape in _sorted_shapes_upto(max_dim):
        by_blocks.setdefault(len(shape), []).append(shape)
    totals = np.zeros(5, dtype=np.int64)
    for stack in by_blocks.values():
        totals += _scan_block_count(np.array(stack), max_dim)
    return totals.tolist()


def run_counting_check(report: RunReport, config: dict) -> None:
    """Counting's combinatorial facts on every sorted shape and multiplicity
    tuple with k = c . shape <= max_dim (see ``_scan_shapes``), then the
    pinching-defect sample on one shape.
    """
    max_dim = config.get("max_dim", 12)
    cases, dim_mismatches, cap_violations, mult_mismatches, card_violations = _scan_shapes(max_dim)
    report.add("cases", cases, None, True)
    report.check("compression_dim_mismatches", dim_mismatches, 0)
    report.check("compression_cap_violations", cap_violations, 0)
    report.check("multiplicity_mismatches", mult_mismatches, 0)
    report.check("cardinality_cap_violations", card_violations, 0)

    shape = tuple(config.get("pinching_shape", DEFAULT_PINCHING_SHAPE))
    mult = tuple(config.get("pinching_multiplicities", [1] * len(shape)))
    omegas = config.get("omegas", [0.1, 0.01])
    per_omega = config.get("seeds", 20)
    base_seed = config.get("seed", 515)
    k = sum(c * s for c, s in zip(mult, shape))
    if k > DEFAULT_DIM_CAP:
        raise DimensionOverflow(f"pinching dimension {k} exceeds {DEFAULT_DIM_CAP}")
    units = canonical_units(shape, mult)
    # the square of each diagonal unit's table row, in unit order
    squares = [np.ix_(row, row) for table in units.rows for row in table]
    # a chunk of seeds is drawn into one (seeds, k, k) stack of each kind and
    # scored with one op_norms call per quantity
    chunk = _seed_chunk(k * k)
    rng_root = np.random.SeedSequence(base_seed)
    radius_max = 1.0
    for omega in omegas:
        worst = 0.0
        children = rng_root.spawn(per_omega)
        for top in range(0, per_omega, chunk):
            part = children[top : top + chunk]
            block_diag = np.zeros((len(part), k, k), dtype=np.complex128)
            noise = np.empty_like(block_diag)
            for t, child in enumerate(part):  # each seed draws as alone, in order
                rng = np.random.default_rng(child)
                for square in squares:
                    re, im = rng.standard_normal((2, k, k))
                    block_diag[t][square] = re[square] + 1j * im[square]
                re, im = rng.standard_normal((2, k, k))
                noise[t] = re + 1j * im
            # the squares are disjoint and closed under transposition, so these
            # are the Hermitian parts of each seed's draws, entry for entry
            block_diag, noise = hermitian_part(block_diag), hermitian_part(noise)
            # omega * noise / ||noise|| + block_diag, in place, bit for bit
            norms = op_norms(noise)
            noise *= omega
            noise /= norms[:, None, None]
            noise += block_diag
            del block_diag
            radius_max = max(radius_max, float(op_norms(noise).max()))
            worst = max(worst, float(pinching_defect(noise, units).max()))
        report.check(f"pinching_defect_omega{omega:g}", worst, 2 * omega + 1e-10)
        # reference value only: compressed-ball cover cap (12R/omega)^(n k^2 / N)
        reference = bound_power(
            12.0 * radius_max / omega, k * k / subrank(shape),
            f"compressed cover reference (12R/{omega:g})^(k^2/N)",
        )
        report.add(f"compressed_cover_reference_omega{omega:g}", reference, None, True)


def run_lemma52_check(report: RunReport, config: dict) -> None:
    shapes = [tuple(s) for s in config.get("shapes", [[2], [3], [2, 3]])]
    block_sizes = config.get("block_sizes", [2, 3])
    runs = config.get("runs", 100)
    coeff_dim = config.get("coeff_dim", 2)
    seed = config.get("seed", 808)
    # the cross-check forms one (n coeff_dim sum(shape))^2 matrix per swept pair
    cross = max(
        (n * coeff_dim * sum(s) for s in shapes for n in block_sizes if subrank(s) >= n),
        default=0,
    )
    if cross > DEFAULT_DIM_CAP:
        raise DimensionOverflow(f"cross-check dimension {cross} exceeds {DEFAULT_DIM_CAP}")
    sweep = run_identity_sweep(shapes, block_sizes, runs, coeff_dim, seed)
    report.rows += sweep_rows(sweep)
    report.extra["rows"] = sweep


def run_list_presets(report: RunReport, config: dict) -> None:
    catalog = list_presets()
    for name, entry in catalog.items():
        report.add(f"preset.{name}", entry["spec"]["shapes"], None, True)
    report.extra["catalog"] = catalog


ALL_SEGMENTS = [
    ("tower", run_tower_check, {"preset": "T1"}),
    ("construction", run_gen_verify, {"preset": "T1"}),
    ("recovery_t0", run_recover, {"preset": "T0"}),
    ("recovery_t1", run_recover, {"preset": "T1", "closure": True}),
    ("stabilizer", run_stabilize_sweep,
     {"shape": [5, 5], "multiplicities": [1, 1], "deltas": [1e-6, 1e-4, 1e-3], "seeds": 20}),
    ("covering", run_cover_estimate, {"k": 1, "omegas": [0.5, 0.25], "samples": 10000}),
    ("counting", run_counting_check, {"max_dim": 12}),
    ("similarity", run_lemma52_check, {"runs": 100}),
]


def run_all(report: RunReport, config: dict) -> None:
    """Every segment as a sibling stage, so one that fails leaves the others' rows."""
    for prefix, func, seg_config in ALL_SEGMENTS:
        with report.stage(prefix):
            func(report, dict(seg_config))
    report.extra.clear()  # the battery keeps its segments' rows, not their extras


RUNNERS = {
    "tower-check": run_tower_check,
    "gen-verify": run_gen_verify,
    "recover": run_recover,
    "stabilize-sweep": run_stabilize_sweep,
    "cover-estimate": run_cover_estimate,
    "counting-check": run_counting_check,
    "lemma52-check": run_lemma52_check,
    "list-presets": run_list_presets,
    "all": run_all,
}


def run(command: str, config: dict) -> RunReport:
    """Validate, then run the command in the report's root stage: a failure
    comes back as a failed ``error`` row after the rows measured before it."""
    validate_config(command, config)
    report = RunReport(command, config)
    with report.stage():
        RUNNERS[command](report, config)
    return report


def _read_config(path: str):
    """The JSON value in a config file; an unreadable or malformed file is ConfigInvalid."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigInvalid(f"config file is unreadable or not JSON: {exc}", path=path) from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="towergen",
        description="Build commuting block towers, run the two-generator "
        "construction, and verify its identities numerically.",
    )
    parser.add_argument("command", choices=sorted(RUNNERS))
    parser.add_argument("--config", help="JSON config path")
    parser.add_argument("--out", help="write the report JSON here")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--summary", action="store_true", help="print flat text rows")
    args = parser.parse_args(argv)

    try:
        config = _read_config(args.config) if args.config else {}
        if args.seed is not None:
            if not isinstance(config, dict):
                raise ConfigInvalid("--seed needs a JSON object config", path=args.config)
            config["seed"] = args.seed
        report = run(args.command, config)
    except ConfigInvalid as exc:
        sys.stderr.write(f"ConfigInvalid: {exc} (path: {exc.path})\n")
        return 2

    payload = json.dumps(report.to_json(), sort_keys=True, indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            sys.stderr.write(f"cannot write --out: {exc}\n")
            return 2
    if args.summary:
        print("\n".join(report.summary_lines()))
    elif not args.out:
        print(payload)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
