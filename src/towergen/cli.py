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
from typing import Dict, List

import numpy as np
from jsonschema import Draft202012Validator

from .closure import distance_to_span, subalgebra_closure
from .errors import ConfigInvalid, DimensionMismatch, DimensionOverflow, TowergenError
from .linalg import DEFAULT_DIM_CAP, hermitian_part, identity, op_norm
from .microstates import (
    bound_power,
    check_unitary_bounds,
    compression_dimension,
    enumerate_multiplicities,
    greedy_packing,
    haar_unitaries,
    pinching_defect,
    spawned_seeds,
)
from .presets import list_presets, preset_spec
from .recovery import round_trip
from .report import RunReport
from .similarity import run_identity_sweep, sweep_rows
from .stabilize import perturb_units, stabilize_units
from .tower import TowerSpec, build_tower, check_conditions
from .twogen import build_plan, verify_facts
from .units import UnitalEmbedding, canonical_rows, canonical_units, subrank, unit_defects

# One schema serves every tower-style command; a config names a preset or shapes.
TOWER_SCHEMA = {
    "type": "object",
    "properties": {
        "preset": {"enum": sorted(list_presets())},
        "shapes": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "array", "minItems": 1, "items": {"type": "integer", "minimum": 1}},
        },
        "generators": {"type": "integer", "minimum": 1},
        "mode": {"enum": ["strict", "relaxed"]},
        "seed": {"type": "integer", "minimum": 0},
        "recipe": {"enum": ["leading-factor", "uhf"]},
        "closure": {"type": "boolean"},
    },
    "additionalProperties": False,
}

SCHEMAS: Dict[str, dict] = {
    "tower-check": TOWER_SCHEMA,
    "gen-verify": TOWER_SCHEMA,
    "recover": TOWER_SCHEMA,
    "stabilize-sweep": {
        "type": "object",
        "properties": {
            "shape": {"type": "array", "minItems": 1, "items": {"type": "integer", "minimum": 1}},
            "multiplicities": {"type": "array", "items": {"type": "integer", "minimum": 1}},
            "deltas": {
                "type": "array",
                "minItems": 1,
                "uniqueItems": True,
                "items": {"type": "number", "minimum": 0},
            },
            "seeds": {"type": "integer", "minimum": 1},
            "seed": {"type": "integer", "minimum": 0},
        },
        "required": ["shape"],
        "additionalProperties": False,
    },
    "cover-estimate": {
        "type": "object",
        "properties": {
            "k": {"type": "integer", "minimum": 1},
            "omega": {"type": "number", "exclusiveMinimum": 0},
            "omegas": {
                "type": "array",
                "minItems": 1,
                "items": {"type": "number", "exclusiveMinimum": 0},
            },
            "samples": {"type": "integer", "minimum": 1},
            "seed": {"type": "integer", "minimum": 0},
        },
        "additionalProperties": False,
    },
    "counting-check": {
        "type": "object",
        "properties": {
            "max_dim": {"type": "integer", "minimum": 1},
            "pinching_shape": {"type": "array", "items": {"type": "integer", "minimum": 1}},
            "pinching_multiplicities": {"type": "array", "items": {"type": "integer", "minimum": 1}},
            "omegas": {
                "type": "array",
                "minItems": 1,
                "items": {"type": "number", "exclusiveMinimum": 0},
            },
            "seeds": {"type": "integer", "minimum": 1},
            "seed": {"type": "integer", "minimum": 0},
        },
        "additionalProperties": False,
    },
    "lemma52-check": {
        "type": "object",
        "properties": {
            "shapes": {
                "type": "array",
                "minItems": 1,
                "items": {"type": "array", "items": {"type": "integer", "minimum": 1}},
            },
            "block_sizes": {
                "type": "array",
                "minItems": 1,
                "items": {"type": "integer", "minimum": 2},
            },
            "runs": {"type": "integer", "minimum": 1},
            "coeff_dim": {"type": "integer", "minimum": 1},
            "seed": {"type": "integer", "minimum": 0},
        },
        "additionalProperties": False,
    },
    "list-presets": {"type": "object", "properties": {}, "additionalProperties": False},
    "all": {"type": "object", "properties": {}, "additionalProperties": False},
}

# Older subcommand names; each runs, and reports exactly as, its canonical command.
ALIASES = {"tower-build": "tower-check", "gen-construct": "gen-verify"}

DEFAULT_PINCHING_SHAPE = [2, 3]  # counting-check's pinching sample

# Per command: a shape field, its default, and the field giving one multiplicity
# per block of that shape.  stabilize-sweep requires its shape.
MULTIPLICITY_FIELDS = {
    "stabilize-sweep": ("shape", None, "multiplicities"),
    "counting-check": ("pinching_shape", DEFAULT_PINCHING_SHAPE, "pinching_multiplicities"),
}


def validate_config(command: str, config: dict) -> None:
    command = ALIASES.get(command, command)
    schema = SCHEMAS[command]
    validator = Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(config), key=lambda e: list(e.absolute_path))
    if errors:
        first = errors[0]
        path = ".".join(str(p) for p in first.absolute_path) or "<root>"
        raise ConfigInvalid(f"config field {path}: {first.message}", path=path)
    bad = _non_finite_path(config)
    if bad is not None:
        path = ".".join(str(p) for p in bad)
        raise ConfigInvalid(f"config field {path}: not a finite number", path=path)
    if schema is TOWER_SCHEMA and "preset" not in config and "shapes" not in config:
        raise ConfigInvalid("config needs either 'preset' or 'shapes'", path="shapes")
    if command in MULTIPLICITY_FIELDS:
        shape_field, default, mult_field = MULTIPLICITY_FIELDS[command]
        blocks, mult = len(config.get(shape_field, default)), config.get(mult_field)
        if mult is not None and len(mult) != blocks:
            raise ConfigInvalid(
                f"config field {mult_field}: {len(mult)} multiplicities for the "
                f"{blocks} blocks of {shape_field}",
                path=mult_field,
            )


def _non_finite_path(value, path=()):
    """Path of the first NaN or infinite number in a config, else None.

    JSON schema bounds such as ``minimum`` let NaN and infinities through.
    """
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return None
    for key, item in items:
        found = _non_finite_path(item, path + (key,))
        if found is not None:
            return found
    return None


def resolve_tower_spec(config: dict) -> TowerSpec:
    if "preset" in config:
        base = preset_spec(config["preset"])
        seed = config.get("seed", base.generator_seed)
        return TowerSpec(
            block_shapes=base.block_shapes,
            num_generators=config.get("generators", base.num_generators),
            mode=config.get("mode", base.mode),
            generator_seed=seed,
            generator_recipe=config.get("recipe", base.generator_recipe),
        )
    return TowerSpec(
        block_shapes=tuple(tuple(s) for s in config["shapes"]),
        num_generators=config.get("generators", 1),
        mode=config.get("mode", "strict"),
        generator_seed=config.get("seed", 7),
        generator_recipe=config.get("recipe", "leading-factor"),
    )


def run_tower_check(config: dict) -> RunReport:
    report = RunReport("tower-check", config)
    spec = resolve_tower_spec(config)
    model = build_tower(spec)
    cond = check_conditions(model)
    report.rows += cond.rows
    report.extra["interleaving"] = cond.interleaving_note
    report.extra["truncation_tail_bound"] = 2.0 ** (-model.depth)
    return report.close()


def run_gen_verify(config: dict) -> RunReport:
    report = RunReport("gen-verify", config)
    spec = resolve_tower_spec(config)
    model = build_tower(spec)
    report.rows += verify_facts(build_plan(model)).rows
    return report.close()


def run_recover(config: dict) -> RunReport:
    report = RunReport("recover", config)
    spec = resolve_tower_spec(config)
    model = build_tower(spec)
    plan = build_plan(model)
    result, trip = round_trip(plan)
    report.rows += trip.rows
    report.extra["trace"] = result.trace_json()

    if config.get("closure", False):
        pair_basis = subalgebra_closure([plan.gen_a, plan.gen_b])
        oracle_gens = [m for blk in model.blocks for _, m in blk.iter_units()]
        oracle_gens += [lv.coupling for lv in plan.levels] + [identity(model.ambient_dim)]
        oracle_basis = subalgebra_closure(oracle_gens)
        report.add(
            "closure.dimension_match",
            pair_basis.size, oracle_basis.size, pair_basis.size == oracle_basis.size,
        )
        bound = plan.tail_bound + 1e-6
        for j, x in enumerate(model.generators, start=1):
            _, upper = distance_to_span(x, pair_basis)
            report.check(f"closure.distance_g{j}", upper, bound)
    return report.close()


def run_stabilize_sweep(config: dict) -> RunReport:
    report = RunReport("stabilize-sweep", config)
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
    units = canonical_units(shape, UnitalEmbedding(shape, mult, target))

    exact_out, exact_dist = stabilize_units(units)
    bitstable = all(
        np.array_equal(exact_out.unit(*key), units.unit(*key)) for key in units.keys()
    )
    report.add("fixed_point_bitstable", bool(bitstable), True, bitstable)
    report.check("fixed_point_distance", exact_dist, 1e-12)

    sweep_rows: List[dict] = []
    medians = {}
    for delta in deltas:
        dists = []
        worst_out = 0.0
        for s in range(per_delta):
            seed = base_seed + 1000 * s + int(1e9 * delta) % 997
            noisy = perturb_units(units, delta, seed)
            fixed, dist = stabilize_units(noisy)
            defects_out = unit_defects(fixed)
            worst_out = float(np.maximum(worst_out, defects_out.max()))  # NaN propagates
            dists.append(dist)
            sweep_rows.append(
                {
                    "delta": delta,
                    "seed": seed,
                    "max_distance": dist,
                    "defects_in": unit_defects(noisy).to_json(),
                    "defects_out": defects_out.to_json(),
                }
            )
        medians[delta] = statistics.median(dists)
        report.check(f"delta{delta:g}.defects_out", worst_out, 1e-12)
        report.add(f"delta{delta:g}.median_distance", medians[delta], None, True)
    # the schema makes deltas unique, so sorting them orders the medians
    ordered = [medians[delta] for delta in sorted(medians)]
    monotone = all(ordered[i] <= ordered[i + 1] + 1e-15 for i in range(len(ordered) - 1))
    report.add("median_distance_monotone", monotone, True, monotone)
    report.extra["sweep"] = sweep_rows
    return report.close()


def run_cover_estimate(config: dict) -> RunReport:
    report = RunReport("cover-estimate", config)
    k = config.get("k", 1)
    radii = config.get("omegas", [config.get("omega", 0.5)])
    samples = config.get("samples", 10000)
    seed = config.get("seed", 404)
    cloud = haar_unitaries(k, spawned_seeds(seed, samples))
    if k == 1:
        grid = [np.array([[np.exp(2j * np.pi * t / samples)]]) for t in range(samples)]
    for radius in radii:
        sep = 2.0 * radius
        est = greedy_packing(cloud, sep)
        bounds = check_unitary_bounds(k, radius, est)
        report.rows += bounds.rows
        if k == 1:
            report.rows.append(bounds.oracle_row(greedy_packing(grid, sep)))
        report.extra[f"estimate_omega{radius:g}"] = est.to_json()
        report.extra[f"bounds_omega{radius:g}"] = bounds.to_json()
        profile = float(
            np.log(max(bounds.certified_lower, 1)) / (-(k * k) * np.log(radius))
        ) if radius < 1 else None
        report.extra[f"covering_profile_omega{radius:g}"] = {
            "value": profile,
            "note": "finite-k profile of the certified lower bound; carries no "
            "asymptotic meaning",
        }
    return report.close()


def _pinched_basis_count(shape, mult, k: int) -> int:
    """Exhaustive count of Hermitian basis elements surviving the pinching.

    The canonical diagonal units are coordinate-aligned 0/1 projections, so
    a basis element E_ii (or the Hermitian pair at (i, j)) survives exactly
    when its coordinates lie inside one projection's support, which is the
    unit's row of the row table; counting the survivors enumerates a basis
    of the compressed Hermitian space.
    """
    rows = canonical_rows(shape, mult)
    if sum(table.size for table in rows) != k:
        raise DimensionMismatch(f"multiplicities {mult} of shape {shape} do not fill dimension {k}")
    n = np.array([row.size for table in rows for row in table])  # support sizes
    # diagonal elements E_ii, plus a symmetric and an antisymmetric pair per i < j
    return int(np.sum(n + n * (n - 1)))


def _sorted_shapes_upto(total: int) -> List[tuple]:
    out = []

    def walk(remaining: int, minimum: int, partial: tuple):
        if partial:
            out.append(partial)
        for part in range(minimum, remaining + 1):
            walk(remaining - part, part, partial + (part,))

    walk(total, 1, ())
    return out


def run_counting_check(config: dict) -> RunReport:
    report = RunReport("counting-check", config)
    max_dim = config.get("max_dim", 12)
    cases = 0
    dim_mismatches = 0
    cap_violations = 0
    mult_mismatches = 0
    card_violations = 0
    for k in range(1, max_dim + 1):
        for shape in _sorted_shapes_upto(k):
            if sum(shape) > k:
                continue
            mults, mrep = enumerate_multiplicities(k, shape)
            brute = [
                combo
                for combo in _positive_tuples(len(shape), k, shape)
            ]
            if sorted(mults) != sorted(brute):
                mult_mismatches += 1
            if not mrep["cap_respected"]:
                card_violations += 1
            for mult in mults:
                cases += 1
                emb = UnitalEmbedding(shape, mult, k)
                check = compression_dimension(shape, emb, big_n=subrank(shape))
                if check.dim != _pinched_basis_count(shape, mult, k):
                    dim_mismatches += 1
                if not check.bound_holds:
                    cap_violations += 1
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
    units = canonical_units(shape, UnitalEmbedding(shape, mult, k))
    # the square of each diagonal unit's table row, in unit order
    squares = [np.ix_(row, row) for table in units.rows for row in table]
    rng_root = np.random.SeedSequence(base_seed)
    radius_max = 1.0
    for omega in omegas:
        worst = 0.0
        for child in rng_root.spawn(per_omega):
            rng = np.random.default_rng(child)
            block_diag = np.zeros((k, k), dtype=np.complex128)
            for square in squares:
                h = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
                block_diag[square] = hermitian_part(h)[square]
            noise = hermitian_part(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
            sample = block_diag + omega * noise / op_norm(noise)
            radius_max = max(radius_max, op_norm(sample))
            worst = max(worst, pinching_defect([sample], units)[0])
        report.check(f"pinching_defect_omega{omega:g}", worst, 2 * omega + 1e-10)
        # reference value only: compressed-ball cover cap (12R/omega)^(n k^2 / N)
        reference = bound_power(
            12.0 * radius_max / omega, k * k / subrank(shape),
            f"compressed cover reference (12R/{omega:g})^(k^2/N)",
        )
        report.add(f"compressed_cover_reference_omega{omega:g}", reference, None, True)
    return report.close()


def _positive_tuples(r: int, total: int, shape) -> List[tuple]:
    out = []

    def walk(idx: int, remaining: int, partial: tuple):
        if idx == r:
            if remaining == 0:
                out.append(partial)
            return
        c = 1
        while c * shape[idx] <= remaining:
            walk(idx + 1, remaining - c * shape[idx], partial + (c,))
            c += 1

    walk(0, total, ())
    return out


def run_lemma52_check(config: dict) -> RunReport:
    report = RunReport("lemma52-check", config)
    shapes = [tuple(s) for s in config.get("shapes", [[2], [3], [2, 3]])]
    block_sizes = config.get("block_sizes", [2, 3])
    runs = config.get("runs", 100)
    coeff_dim = config.get("coeff_dim", 2)
    seed = config.get("seed", 808)
    sweep = run_identity_sweep(shapes, block_sizes, runs, coeff_dim, seed)
    report.rows += sweep_rows(sweep)
    report.extra["rows"] = sweep
    return report.close()


def run_list_presets(config: dict) -> RunReport:
    report = RunReport("list-presets", config)
    catalog = list_presets()
    for name, entry in catalog.items():
        report.add(f"preset.{name}", entry["spec"]["shapes"], None, True)
    report.extra["catalog"] = catalog
    return report.close()


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


def run_all(config: dict) -> RunReport:
    report = RunReport("all", config)
    for prefix, func, seg_config in ALL_SEGMENTS:
        sub = func(dict(seg_config))
        report.merge(prefix, sub)
    return report.close()


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
    """Validate and dispatch; errors come back as failed reports."""
    command = ALIASES.get(command, command)
    validate_config(command, config)
    try:
        return RUNNERS[command](config)
    except TowergenError as exc:
        report = RunReport(command, config)
        report.error = f"{type(exc).__name__}: {exc}"
        report.add("error", type(exc).__name__, None, False)
        return report.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="towergen",
        description="Build commuting block towers, run the two-generator "
        "construction, and verify its identities numerically.",
    )
    parser.add_argument("command", choices=sorted([*RUNNERS, *ALIASES]))
    parser.add_argument("--config", help="JSON config path")
    parser.add_argument("--out", help="write the report JSON here")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--summary", action="store_true", help="print flat text rows")
    args = parser.parse_args(argv)

    config: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    if args.seed is not None:
        config["seed"] = args.seed

    try:
        report = run(args.command, config)
    except ConfigInvalid as exc:
        sys.stderr.write(f"ConfigInvalid: {exc} (path: {exc.path})\n")
        return 2

    payload = json.dumps(report.to_json(), sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    if args.summary:
        print("\n".join(report.summary_lines()))
    elif not args.out:
        print(payload)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
