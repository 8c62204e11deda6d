"""Stages: a failure is one failed row that keeps the rows measured before it,
and each stage's wall time is timing, outside the report body."""

import json
import time

import pytest

import towergen.cli as cli
from towergen.cli import main, run
from towergen.errors import NoSpectralGap
from towergen.report import RunReport

SEGMENTS = [prefix for prefix, _, _ in cli.ALL_SEGMENTS]


def test_a_failure_ends_its_stage_and_the_run_goes_on():
    report = RunReport("demo", {})
    with report.stage():
        report.add("before", 1, None, True)
        with report.stage("outer"):
            report.check("kept", 0.5, 1.0)
            with report.stage("inner"):
                report.check("measured", 0.25, 1.0)
                raise NoSpectralGap("no gap")
            report.check("after_inner", 0.5, 1.0)  # independent of inner: it goes on
        with report.stage("sibling"):
            report.check("value", 2.0, 1.0)
    assert [(r.name, r.measured, r.threshold, r.passed) for r in report.rows] == [
        ("before", 1, None, True),
        ("outer.kept", 0.5, 1.0, True),
        ("outer.inner.measured", 0.25, 1.0, True),
        ("outer.inner.error", "NoSpectralGap: no gap", None, False),
        ("outer.after_inner", 0.5, 1.0, True),
        ("sibling.value", 2.0, 1.0, False),
    ]
    assert not report.passed
    timing = report.to_json()["timing"]
    assert list(timing["stages"]) == ["outer.inner", "outer", "sibling"]
    assert timing["seconds"] >= timing["stages"]["outer"] >= timing["stages"]["outer.inner"] >= 0


def test_the_root_stage_names_its_error_row_error():
    report = RunReport("demo", {})
    with report.stage():
        raise NoSpectralGap("at the root")
    assert [(r.name, r.measured, r.passed) for r in report.rows] == [
        ("error", "NoSpectralGap: at the root", False)
    ]
    assert report.summary_lines()[-1] == "FAIL  overall (demo)"


def test_other_exceptions_are_not_rows():
    report = RunReport("demo", {})
    with pytest.raises(KeyError):
        with report.stage("part"):
            report.check("kept", 0.5, 1.0)
            raise KeyError("a bug, not a measurement")
    assert [r.name for r in report.rows] == ["part.kept"]


def test_stage_times_are_timing_not_body(monkeypatch):
    """Durations come from perf_counter, so a wall clock that is set back by
    100 s at each reading moves neither them nor the start stamp."""
    report = RunReport("demo", {})
    started, setbacks = report.started, iter(range(100, 10**6, 100))
    monkeypatch.setattr(time, "time", lambda: started - next(setbacks))
    with report.stage():
        with report.stage("part"):
            report.check("value", 0.5, 1.0)
    timing = report.to_json()["timing"]
    assert timing["started"] == started
    assert 0 <= timing["stages"]["part"] <= timing["seconds"] < 60
    assert report.body_bytes() == json.dumps(
        {key: value for key, value in report.to_json().items() if key != "timing"},
        sort_keys=True, indent=2,
    ).encode()


@pytest.fixture(scope="module")
def battery():
    return run("all", {})


def test_the_battery_times_each_segment(battery):
    stages = battery.to_json()["timing"]["stages"]
    assert sorted(stages) == sorted(SEGMENTS + ["recovery_t1.closure"])
    assert b"timing" not in battery.body_bytes() and b"seconds" not in battery.body_bytes()


def fail_at_call(monkeypatch, name: str, call: int) -> str:
    """Make the ``call``-th call of ``cli.<name>`` raise NoSpectralGap, and
    return that error row's measured value; the other calls go through."""
    real, calls = getattr(cli, name), []

    def wrapper(*args, **kwargs):
        calls.append(name)
        if len(calls) == call:
            raise NoSpectralGap(f"injected into {name}")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, wrapper)
    return f"NoSpectralGap: injected into {name}"


def captured_main(monkeypatch, argv):
    """``main``'s exit status and the report it wrote."""
    reports, real = [], cli.run
    monkeypatch.setattr(cli, "run", lambda *args: reports.append(real(*args)) or reports[-1])
    return main(argv), reports[0]


# (the stage that fails, the callee that raises, at which of its calls, and the
# number of the failing stage's rows measured before it)
INJECTIONS = [
    ("tower", "check_conditions", 1, 0),
    ("construction", "verify_facts", 1, 0),
    ("recovery_t0", "round_trip", 1, 0),
    ("recovery_t1", "round_trip", 2, 0),
    ("recovery_t1.closure", "subalgebra_closure", 1, 0),  # the pair side, T1's only certificate
    ("stabilizer", "stabilize_units", 2, 2),  # after the exact fixed point's two rows
    ("covering", "greedy_cover", 3, 3),  # after the first radius's three rows
    ("counting", "pinching_defect", 1, 5),  # after the scan's five rows
    ("similarity", "run_identity_sweep", 1, 0),
]


@pytest.mark.parametrize(
    "stage, callee, call, kept", INJECTIONS, ids=[stage for stage, *_ in INJECTIONS]
)
def test_a_failing_segment_keeps_every_other_row(
    tmp_path, monkeypatch, battery, stage, callee, call, kept
):
    message = fail_at_call(monkeypatch, callee, call)
    out = tmp_path / "all.json"
    status, report = captured_main(monkeypatch, ["all", "--out", str(out)])
    assert status == 1
    failed = [row for row in report.rows if not row.passed]
    assert [(row.name, row.measured, row.threshold) for row in failed] == [
        (f"{stage}.error", message, None)
    ]
    rows = [row.to_json() for row in report.rows if row.passed]
    clean = [row.to_json() for row in battery.rows]

    def inside(rows):
        return [row for row in rows if row["name"].startswith(stage + ".")]

    assert [row for row in rows if row not in inside(rows)] == [
        row for row in clean if row not in inside(clean)
    ]
    assert inside(rows) == inside(clean)[:kept]
    timing = json.loads(out.read_text())["timing"]
    assert set(SEGMENTS) <= set(timing["stages"])
    assert stage in timing["stages"] and b"timing" not in report.body_bytes()


@pytest.mark.parametrize("config", [{"shapes": [[5], [28]], "mode": "relaxed"}, {"preset": "T1"}])
def test_a_failing_closure_keeps_the_round_trip_rows(tmp_path, monkeypatch, config):
    """On relaxed [[5], [28]] (d = 140) the closure fails closed on its own; on
    T1 it is made to fail.  Either way the round-trip rows are those of the
    run without closure, followed by one failed closure.error row."""
    trip = run("recover", config).rows
    assert trip and all(row.passed for row in trip)
    cfg = tmp_path / "closure.json"
    cfg.write_text(json.dumps(dict(config, closure=True)))
    if "preset" in config:
        message = fail_at_call(monkeypatch, "subalgebra_closure", 1)
    else:
        message = "NoSpectralGap: component 0 mixes clusters of sizes [1, 2]"
    argv = ["recover", "--config", str(cfg), "--out", str(tmp_path / "r.json")]
    status, report = captured_main(monkeypatch, argv)
    assert status == 1
    assert [row.to_json() for row in report.rows] == [row.to_json() for row in trip] + [
        {"name": "closure.error", "measured": message, "threshold": None, "pass": False}
    ]
    assert "closure" in report.to_json()["timing"]["stages"]
