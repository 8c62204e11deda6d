"""Unit tests of the span tracer: python3 -m pytest perfbench/tests/test_tracer.py -q"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer  # noqa: E402
from workload import MODULES  # noqa: E402


@pytest.fixture()
def tg():
    mods = [importlib.import_module(f"towergen.{name}") for name in MODULES]
    tracer = Tracer()
    originals = (mods[0].op_norm, mods[-1].RUNNERS["recover"], mods[1].op_norm)
    tracer.install(mods)
    try:
        yield tracer, {m.__name__.rsplit(".", 1)[-1]: m for m in mods}, originals
    finally:
        tracer.uninstall()
    assert (mods[0].op_norm, mods[-1].RUNNERS["recover"], mods[1].op_norm) == originals


def test_functions_are_wrapped_wherever_they_are_bound(tg):
    tracer, mods, (op_norm, run_recover, _) = tg
    assert mods["linalg"].op_norm is not op_norm
    assert mods["units"].op_norm is mods["linalg"].op_norm
    assert mods["cli"].RUNNERS["recover"] is mods["cli"].run_recover is not run_recover
    for _, func, _ in mods["cli"].ALL_SEGMENTS:
        assert hasattr(func, "__wrapped__") and func is getattr(mods["cli"], func.__name__)


def test_hot_kernels_are_counted_under_their_parent_span(tg):
    tracer, mods, _ = tg
    x = np.diag([1.0, 2.0, 3.0]).astype(complex)
    with tracer.span("op"):
        mods["linalg"].tuple_norm([x, 2 * x])
    (span,) = tracer.spans
    assert span["name"] == "op" and span["parent"] is None
    assert span["hot"]["linalg.tuple_norm"][0] == 1
    assert span["hot"]["linalg.op_norm"][0] == 2
    calls, total, self_s = span["hot"]["linalg.tuple_norm"]
    assert self_s <= total and span["self_s"] + self_s + span["hot"]["linalg.op_norm"][2] == \
        pytest.approx(span["end"] - span["start"], abs=1e-9)
    assert tracer.counters["linalg.op_norm.gflop"] == pytest.approx(2 * (8 + 16 / 3) * 27 / 1e9)


def test_escaping_exceptions_are_counted_per_module(tg):
    tracer, mods, _ = tg
    with pytest.raises(KeyError):
        mods["presets"].preset_spec("T9")
    assert tracer.errors["presets"] == 1
    (span,) = tracer.spans
    assert span["name"] == "presets.preset_spec" and span["self_s"] >= 0
