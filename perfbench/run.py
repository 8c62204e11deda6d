"""Entry point of the towergen benchmark.

    python3 perfbench/run.py --workload {roundtrip,generation,sweeps} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload runs in fresh interpreters
(``workload.py``) with BLAS pinned to one thread, one at a time.  With
``--trace 0`` it first starts SETUP_SAMPLES - 1 processes that only set up
(imports, inputs, one warm-up op), then one that sets up and runs whole op
cycles for about S seconds; ``setup_s`` is the median of all set-up times.
With ``--trace 1`` one process runs the cycles untraced and then traced.
End-to-end times are scaled to the reference speed of ``workload.SpeedProbe``;
the wall times are in the detail line.

The second-to-last stdout line is ``{"detail": ...}``: sample counts,
failures, report digests, environment and load, and the comparison with the
ROADMAP baseline.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  Exit status is 0 only when
a result was printed.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
NO_WAITING = "one process, one thread and no queue: no layer has waiting time to measure"


class BenchError(Exception):
    pass


def loadavg_1m():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return float(fh.read().split()[0])
    except OSError:
        return None


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the package sources, which names the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "towergen").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def spawn(args, deadline):
    """Run one workload process to completion and return its JSON line."""
    env = dict(os.environ, **PINNED)
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("time limit reached before all workload processes ran")
    cmd = [sys.executable, str(HERE / "workload.py"), *args, "--spawn-t", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded the time limit: {cmd}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="towergen benchmark")
    parser.add_argument("--workload", required=True, choices=["roundtrip", "generation", "sweeps"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "towergen" / "__init__.py").is_file():
        sys.stderr.write(f"no towergen sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    (HERE / "out").mkdir(exist_ok=True)
    # Workloads run one at a time: a second benchmark in this checkout waits here.
    with open(HERE / "out" / "run.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        load_start = loadavg_1m()
        try:
            setups = [] if args.trace else [
                spawn(common + ["--role", "setup"], deadline) for _ in range(SETUP_SAMPLES - 1)
            ]
            run = spawn(common + ["--role", "run", "--seconds", str(args.seconds),
                                  "--trace", str(args.trace)], deadline)
        except BenchError as exc:
            sys.stderr.write(f"benchmark failed: {exc}\n")
            return 1
        load_end = loadavg_1m()

    warmups = [p["warmup"] for p in setups + [run]]
    same_warmup = len({w["digest"] for w in warmups}) == 1
    same_traced = run.get("traced_digests", run["digests"]) == run["digests"]
    correct = run["failed"] == 0 and all(w["ok"] for w in warmups) and same_warmup and same_traced
    summary = run["summary"]
    setup_samples = [p["setup_s"] for p in setups + [run]]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "closed_loop": "one caller, next op starts when the previous one ends",
        "wall": summary["wall"],
        "speed_scale": [p["speed_scale"] for p in setups + [run]],
        "samples": {"ops": summary["ops"], "cycles": run["cycles"],
                    "ops_per_cycle": run["ops_per_cycle"], "setup_s": len(setup_samples)},
        "fail_frac": run["failed"] / run["attempted"],
        "failures": run["failures"],
        "op_classes": summary["op_classes"],
        "report_digests": {
            "per_cycle": run["digests"],
            "warmup_same_in_all_processes": same_warmup,
            "traced_same_as_untraced": same_traced,
        },
        "baseline_vs_roadmap": run["baseline_vs_roadmap"],
        "waiting": NO_WAITING,
        "env": dict(
            run["env"],
            nproc=os.cpu_count(),
            affinity=len(os.sched_getaffinity(0)),
            git_commit=git_commit(),
            source_sha256=source_digest(),
            loadavg_1m={"start": load_start, "end": load_end},
        ),
    }
    if args.trace:
        metrics = run["per_layer"]
        detail.update(per_op=run["per_op"], spans=run["spans"], spans_file=run["spans_file"],
                      not_called=run["not_called"])
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup_samples), "s"),
            "ops_per_s": metric(summary["ops_per_s"], "1/s"),
            "op_p50_s": metric(summary["op_p50_s"], "s"),
            "op_p90_s": metric(summary["op_p90_s"], "s"),
            "peak_rss_mib": metric(run["peak_rss_mib"], "MiB"),
        }
        detail["setup_s_samples"] = setup_samples
        detail["setup_wall_s_samples"] = [p["setup_wall_s"] for p in setups + [run]]
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
