"""One workload process of the towergen benchmark.

``run.py`` starts this file in a fresh interpreter with BLAS pinned to one
thread.  It imports the package from ``src/`` of the checkout, draws every
op's inputs from ``--seed``, runs one warm-up op and then either stops
(``--role setup``, a set-up time sample) or runs whole op cycles for about
``--seconds`` (``--role run``).  With ``--trace 1`` it runs the cycles once
untraced and once more under the span tracer.  The last stdout line is one
JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / "out"

# The package modules, which are the benchmark's layers.
MODULES = [
    "linalg", "units", "tower", "twogen", "recovery", "closure",
    "stabilize", "microstates", "similarity", "presets", "report", "cli",
]

MAX_CYCLES = 128
# Probe time at the reference speed that scaled times refer to, per probe kind.
PROBE_REF_S = {"blas": 0.010, "mixed": 0.020}
SETUP_PROBES = 9

# Each workload: the cli command its ops run (None: the tower pipeline is
# called layer by layer), the fixed op mix of one cycle as
# (class, config, count), the warm-up op run during set-up and the kind of
# speed probe that follows its ops (see SpeedProbe).  The counts
# put the median and the 90th percentile of op times inside one class each,
# near its middle, not on the edge between two classes of different speed,
# where a quantile is the slowest op of one class and moves with each burst
# of host load.  The median of sweeps is the exception: it lies between
# cover-estimate and counting-check, which the host's slow phases move more
# and less than the speed probe, so their mean follows the probe best.
WORKLOADS = {
    "roundtrip": {
        "command": None,
        "mix": [
            ("T0", {"preset": "T0"}, 4),
            ("T1b", {"preset": "T1b"}, 3),
            ("T1", {"preset": "T1"}, 2),
            ("T1-uhf", {"preset": "T1", "recipe": "uhf"}, 1),
            ("T1-relaxed-g2", {"preset": "T1", "mode": "relaxed", "generators": 2}, 2),
        ],
        "warmup": ("T0", {"preset": "T0"}),
        "probe": "blas",
    },
    "generation": {
        "command": "recover",
        "mix": [
            ("L1-d16", {"shapes": [[16]], "closure": True}, 1),
            ("L1-d20", {"shapes": [[20]], "closure": True}, 3),
            ("L1-d24", {"shapes": [[24]], "closure": True}, 1),
        ],
        "warmup": ("T0", {"preset": "T0", "closure": True}),
        "probe": "blas",
    },
    "sweeps": {
        "command": "by-class",
        "mix": [
            ("stabilize-sweep", {"shape": [5, 5], "multiplicities": [1, 1],
                                 "deltas": [1e-6, 1e-4, 1e-3], "seeds": 20}, 1),
            ("cover-estimate", {"k": 1, "omegas": [0.5, 0.25], "samples": 10000}, 1),
            ("counting-check", {"max_dim": 12}, 1),
            ("lemma52-check", {"runs": 100}, 1),
        ],
        "warmup": ("lemma52-check", {"runs": 100}),
        "probe": "mixed",
    },
}

# Per-layer metrics of the traced run, per traced op unless the unit says otherwise.
CALLS_AND_SELF = [
    "linalg.op_norm", "linalg.frobenius", "linalg.spectral_projection",
    "linalg.polar_partial_isometry", "units.canonical_units", "units.unit_defects",
    "tower.commutant_projection", "recovery.extract_leading_projection",
    "stabilize.stabilize_units", "closure.subalgebra_closure",
    "similarity.check_norm_identity",
]
SELF_ONLY = [
    "tower.build_tower", "tower.check_conditions", "twogen.build_plan",
    "twogen.verify_facts", "recovery.round_trip", "recovery.ladder_units",
    "recovery.reconstruct_witness", "stabilize.perturb_units", "closure.distance_to_span",
    "microstates.greedy_packing", "microstates.greedy_cover", "microstates.haar_unitary",
    "microstates.pinching_defect", "microstates.enumerate_multiplicities",
    "cli.validate_config", "cli.run_recover", "cli.run_stabilize_sweep",
    "cli.run_cover_estimate", "cli.run_counting_check", "cli.run_lemma52_check",
]
CALLS_ONLY = ["microstates.point_distance"]
COUNTERS = {
    "linalg.op_norm.gflop": "GFLOP/op",  # computed from operand shapes
    "recovery.squarings": "count/op",
    "closure.basis_rows": "count/op",
}

# ROADMAP "Baseline" figures (2 cores, OpenBLAS 0.3.31, py3.11), in seconds.
ROADMAP_T1_LAYERS = {
    "tower.build_tower": 0.05, "tower.check_conditions": 0.69, "twogen.build_plan": 0.07,
    "twogen.verify_facts": 0.01, "recovery.round_trip": 0.91,
}
ROADMAP_SEGMENTS = {
    "stabilize-sweep": 6.8, "counting-check": 3.5, "cover-estimate": 2.2, "lemma52-check": 0.23,
}


def import_package():
    """Import towergen from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        mods = {name: importlib.import_module(f"towergen.{name}") for name in MODULES}
    except ImportError as exc:
        raise SystemExit(f"cannot import towergen from {SRC}: {exc}") from exc
    origin = Path(sys.modules["towergen"].__file__).resolve().parent
    if origin != (SRC / "towergen").resolve():
        raise SystemExit(f"towergen was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def plan_cycles(workload: str, seed: int):
    """The op list of every cycle: fixed class counts, seeded inputs and order."""
    rng = random.Random(seed)
    spec = WORKLOADS[workload]
    warm_cls, warm_cfg = spec["warmup"]
    warmup = (warm_cls, dict(warm_cfg, seed=rng.randrange(2**31)))
    cycles = []
    for _ in range(MAX_CYCLES):
        ops = [
            (cls, dict(cfg, seed=rng.randrange(2**31)))
            for cls, cfg, count in spec["mix"]
            for _ in range(count)
        ]
        rng.shuffle(ops)
        cycles.append(ops)
    return warmup, cycles


class SpeedProbe:
    """Fixed numpy and Python work, timed between ops to track host speed.

    On a shared host the whole machine runs up to about 1.8x slower for
    minutes at a time while other tenants load the same cores, which moves
    every op time of a run alike.  This probe's inputs and code are the
    benchmark's own, so no towergen change can alter its time; end-to-end
    times are scaled to the speed at which it takes ``PROBE_REF_S``.

    The host's slow phases slow BLAS kernels and interpreter-bound code by
    different factors, so the probe does the kind of work its workload
    does.  ``"blas"`` (a real matrix product at n = 576, a QR factorization
    and batched complex 24 x 24 products) follows the generation and
    roundtrip ops.  Small eigensolves and a Python loop alone move about
    twice as much as those ops; they moved more than the sweeps runners in
    one slow phase, and the BLAS work alone moved less than them in another.
    ``"mixed"`` does both and is the probe of sweeps.
    """

    def __init__(self, kind: str):
        rng = np.random.default_rng(20261017)
        self.work = {"blas": self._blas, "mixed": self._mixed}[kind]
        self.ref_s = PROBE_REF_S[kind]
        self.square = rng.standard_normal((576, 576))
        self.tall = rng.standard_normal((576, 200))
        self.stack = rng.standard_normal((64, 24, 24)) + 1j * rng.standard_normal((64, 24, 24))
        self.big = self._hermitian(rng, 48)
        self.small = [self._hermitian(rng, 3) for _ in range(16)]
        self.times = []

    @staticmethod
    def _hermitian(rng, d):
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return h + h.conj().T

    def _blas(self):
        self.square @ self.square
        np.linalg.qr(self.tall)
        for _ in range(4):
            self.stack @ self.stack

    def _mixed(self):
        self._blas()
        for _ in range(4):
            np.linalg.eigvalsh(self.big)
            self.big @ self.big
        for i in range(600):
            m = self.small[i % 16]
            np.linalg.eigvalsh(m.conj().T @ m)
        acc = 0
        for i in range(20000):
            acc += i & 7

    def __call__(self):
        start = time.perf_counter()
        self.work()
        self.times.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Reference speed over this process's speed: op time x scale."""
        return self.ref_s / statistics.median(self.times)


def _plain(value):
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")


class Runner:
    """Executes ops of one workload and checks every report they produce."""

    def __init__(self, tg, workload: str):
        self.tg = tg
        self.command = WORKLOADS[workload]["command"]
        self.tracer = None

    def _span(self, name):
        return contextlib.nullcontext() if self.tracer is None else self.tracer.span(name)

    def _tower_pipeline(self, cfg):
        tg = self.tg
        model = tg.tower.build_tower(tg.cli.resolve_tower_spec(cfg))
        cond = tg.tower.check_conditions(model)
        plan = tg.twogen.build_plan(model)
        facts = tg.twogen.verify_facts(plan)
        result, trip = tg.recovery.round_trip(plan)
        return cond, facts, result, trip

    def _cli(self, command, cfg):
        report = self.tg.cli.run(command, cfg)
        with self._span("report.serialize"):
            json.dumps(report.to_json(), sort_keys=True, indent=2)
        return report

    def execute(self, cls: str, cfg: dict) -> dict:
        """Run one op; only the program's work (and serialization) is timed."""
        command = cls if self.command == "by-class" else self.command
        start = time.perf_counter()
        try:
            with self._span(f"op.{cls}"):
                out = self._tower_pipeline(cfg) if command is None else self._cli(command, cfg)
        except Exception:
            wall = time.perf_counter() - start
            return {"class": cls, "seed": cfg["seed"], "wall_s": wall, "ok": False,
                    "digest": None, "body_bytes": 0, "error": traceback.format_exc(limit=3)}
        wall = time.perf_counter() - start
        if command is None:
            cond, facts, result, trip = out
            ok = bool(cond.passed and facts.passed and trip.passed())
            body = json.dumps(
                {"conditions": cond.to_json(), "facts": facts.to_json(),
                 "round_trip": trip.to_json(), "trace": result.trace_json()},
                sort_keys=True, default=_plain,
            ).encode()
            body_bytes = 0
        else:
            body = out.body_bytes()
            ok = bool(out.passed and out.rows)
            if command == "recover" and cfg.get("closure"):
                ok = ok and any(r.name == "closure.dimension_match" for r in out.rows)
            body_bytes = len(body)
        return {"class": cls, "seed": cfg["seed"], "wall_s": wall, "ok": ok,
                "digest": hashlib.sha256(body).hexdigest(), "body_bytes": body_bytes}

    def run_cycles(self, cycles, budget_s: float, probe):
        """Whole cycles, stopping at the cycle boundary nearest to ``budget_s``.

        The speed probe runs after every op, outside the op's timed window.
        """
        records = []
        start = time.perf_counter()
        done = 0
        for cycle in cycles:
            for cls, cfg in cycle:
                records.append(self.execute(cls, cfg))
                probe()
            done += 1
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / done >= budget_s:
                break
        return records, done


def cycle_digests(records, per_cycle: int):
    out = []
    for i in range(0, len(records), per_cycle):
        h = hashlib.sha256()
        for r in records[i:i + per_cycle]:
            h.update((r["digest"] or "raised").encode())
        out.append(h.hexdigest()[:16])
    return out


def _by_class(records):
    by_class = {}
    for r in records:
        by_class.setdefault(r["class"], []).append(r["wall_s"])
    return by_class


def mix_rate(records) -> float:
    """Ops per second of the fixed mix, each op timed at its class median.

    Class medians keep a burst of load from outside the process from moving
    the rate as much as it moves a plain mean.
    """
    by_class = _by_class(records)
    return len(records) / sum(len(v) * statistics.median(v) for v in by_class.values())


def timing_summary(records, scale: float):
    """Op time statistics of whole cycles, as wall times and scaled by ``scale``."""
    walls = sorted(r["wall_s"] for r in records)
    p90 = statistics.quantiles(walls, n=10, method="inclusive")[-1] if len(walls) > 1 else walls[0]
    wall = {
        "ops_per_s": mix_rate(records),
        "ops_per_s_mean": len(walls) / sum(walls),
        "op_p50_s": statistics.median(walls),
        "op_p90_s": p90,
    }
    return {
        "ops": len(walls),
        "speed_scale": scale,
        "ops_per_s": wall["ops_per_s"] / scale,
        "op_p50_s": wall["op_p50_s"] * scale,
        "op_p90_s": wall["op_p90_s"] * scale,
        "wall": wall,
        "op_classes": {
            cls: {"n": len(v), "median_s": statistics.median(v), "min_s": min(v), "max_s": max(v)}
            for cls, v in sorted(_by_class(records).items())
        },
    }


def _compare(item, roadmap, measured):
    ratio = None if measured is None else measured / roadmap
    return {"item": item, "roadmap_s": roadmap, "measured_s": measured,
            "reproduced": ratio is not None and 0.75 <= ratio <= 4 / 3}


def baseline_notes(workload: str, summary: dict, t1_layers=None):
    """Which ROADMAP Baseline figures this run reproduces (within -25%/+33%)."""
    classes = summary["op_classes"]
    if workload == "sweeps":
        return [
            _compare(f"{cls} segment", secs, classes.get(cls, {}).get("median_s"))
            for cls, secs in ROADMAP_SEGMENTS.items()
        ]
    if workload == "roundtrip":
        rows = [_compare("T1 op (sum of the five T1 layer times)",
                         sum(ROADMAP_T1_LAYERS.values()), classes.get("T1", {}).get("median_s"))]
        if t1_layers is not None:
            rows += [_compare(f"T1 {name} (inclusive, traced)", secs, t1_layers.get(name))
                     for name, secs in ROADMAP_T1_LAYERS.items()]
        return rows
    return [{
        "item": "recovery_t1 segment 44.8 s, pair/oracle closure 32.2 s / 8.7 s, peak RSS 838 MiB",
        "reproduced": False,
        "why": "T1 is not in the generation mix: one T1 closure op takes about 48 s and "
               "1.5 GiB, longer than a whole run",
    }]


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "towergen": sys.modules["towergen"].__version__,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def traced_metrics(tracer, ops: int, untraced, traced):
    stats = tracer.stats
    out = {}
    for name in CALLS_AND_SELF + CALLS_ONLY:
        out[f"{name}.calls"] = ((stats[name][0] if name in stats else 0) / ops, "calls/op")
    for name in CALLS_AND_SELF + SELF_ONLY:
        out[f"{name}.self_s"] = ((stats[name][2] if name in stats else 0.0) / ops, "s/op")
    for name, unit in COUNTERS.items():
        out[name] = (tracer.counters.get(name, 0) / ops, unit)
    serialize = stats["report.serialize"][1] if "report.serialize" in stats else 0.0
    out["report.serialize_s"] = (serialize / ops, "s/op")
    out["report.body_bytes"] = (sum(r["body_bytes"] for r in traced) / ops, "bytes/op")
    for mod in MODULES:
        out[f"{mod}.errors"] = (tracer.errors.get(mod, 0), "count")
    plain = mix_rate(untraced)
    with_trace = mix_rate(traced)
    out["trace.untraced_ops_per_s"] = (plain, "1/s")
    out["trace.ops_per_s"] = (with_trace, "1/s")
    out["trace.overhead_frac"] = (1.0 - with_trace / plain, "frac")
    return {name: {"value": v, "unit": u} for name, (v, u) in out.items()}


def span_summary(tracer, records):
    """Per-op self-time sums and inclusive T1 layer times, from the spans."""
    self_sum = {}
    inclusive = {}
    for span in tracer.spans:
        op = span["op"]
        self_sum[op] = self_sum.get(op, 0.0) + span["self_s"] + sum(
            h[2] for h in span["hot"].values()
        )
        if records[op]["class"] == "T1" and span["name"] in ROADMAP_T1_LAYERS:
            inclusive[span["name"]] = inclusive.get(span["name"], 0.0) + span["end"] - span["start"]
    t1_ops = sum(1 for r in records if r["class"] == "T1")
    per_op = [
        {"op": i, "class": r["class"], "wall_s": r["wall_s"], "self_sum_s": self_sum.get(i, 0.0)}
        for i, r in enumerate(records)
    ]
    t1_layers = {k: v / t1_ops for k, v in inclusive.items()} if t1_ops else None
    return per_op, t1_layers


def write_spans(tracer, workload: str, seed: int) -> str:
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", required=True, choices=["setup", "run"])
    parser.add_argument("--spawn-t", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    tg = import_package()
    warmup, cycles = plan_cycles(args.workload, args.seed)
    runner = Runner(tg, args.workload)
    probe = SpeedProbe(WORKLOADS[args.workload]["probe"])
    warm = runner.execute(*warmup)
    setup_s = time.monotonic() - args.spawn_t
    result = {"role": args.role, "setup_wall_s": setup_s, "warmup": warm}
    if args.role == "setup":
        for _ in range(SETUP_PROBES):
            probe()
        result.update(speed_scale=probe.scale(), setup_s=setup_s * probe.scale())
        print(json.dumps(result))
        return 0

    per_cycle = len(cycles[0])
    budget = args.seconds / 2 if args.trace else args.seconds
    records, done = runner.run_cycles(cycles, budget, probe)
    result.update(
        speed_scale=probe.scale(), setup_s=setup_s * probe.scale(),
        cycles=done, ops_per_cycle=per_cycle, env=environment(),
        digests=cycle_digests(records, per_cycle),
        summary=timing_summary(records, probe.scale()),
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install([getattr(tg, name) for name in MODULES])
        runner.tracer = tracer
        traced = []
        try:
            for cycle in cycles[:done]:
                for cls, cfg in cycle:
                    tracer.op_id = len(traced)
                    traced.append(runner.execute(cls, cfg))
        finally:
            tracer.uninstall()
        per_op, t1_layers = span_summary(tracer, traced)
        result.update(
            traced_digests=cycle_digests(traced, per_cycle),
            per_layer=traced_metrics(tracer, len(traced), records, traced),
            per_op=per_op,
            spans=len(tracer.spans),
            spans_file=write_spans(tracer, args.workload, args.seed),
            not_called=sorted(
                n for n in CALLS_AND_SELF + SELF_ONLY + CALLS_ONLY if n not in tracer.stats
            ),
        )
        records = records + traced
    else:
        t1_layers = None
    result["baseline_vs_roadmap"] = baseline_notes(args.workload, result["summary"], t1_layers)
    failures = [r for r in [warm] + records if not r["ok"]]
    result.update(
        attempted=len(records), failed=sum(1 for r in records if not r["ok"]),
        failures=[{k: r.get(k) for k in ("class", "seed", "error")} for r in failures],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
