"""Machine-readable run reports.

A report is a config echo plus measured rows; the body (everything except
timing) serializes canonically so reruns with the same seeds are
byte-identical.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field, replace
from typing import List, Tuple

import numpy as np

from . import __version__
from .errors import TowergenError


_PLAIN = frozenset({float, int, str, bool, type(None)})


def sanitize(value):
    """Convert numpy scalars and containers to plain JSON-stable values."""
    if type(value) in _PLAIN:
        return value
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, dict):
        return {str(k): sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    if isinstance(value, np.ndarray):
        return [sanitize(v) for v in value.tolist()]
    return value


@dataclass
class ReportRow:
    name: str
    measured: object
    threshold: object
    passed: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "measured": sanitize(self.measured),
            "threshold": sanitize(self.threshold),
            "pass": bool(self.passed),
        }

    @classmethod
    def check(cls, name: str, measured, threshold) -> "ReportRow":
        """A row that passes when ``measured <= threshold``; NaN fails."""
        return cls(name, measured, threshold, bool(measured <= threshold))


@dataclass
class RunReport:
    command: str
    config: dict
    rows: List[ReportRow] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    started: float = field(default_factory=time.time)  # epoch stamp
    stages: List[Tuple[str, float]] = field(default_factory=list)  # (name, seconds); "" is the root

    def add(self, name: str, measured, threshold, passed: bool) -> None:
        self.rows.append(ReportRow(name, measured, threshold, bool(passed)))

    def check(self, name: str, measured, threshold) -> None:
        """Add a row that passes when ``measured <= threshold``; NaN fails."""
        self.rows.append(ReportRow.check(name, measured, threshold))

    @contextlib.contextmanager
    def stage(self, name: str = ""):
        """A timed part of the run, whose rows are named ``<name>.<row>``.

        A TowergenError inside it adds one failed row, ``<name>.error``
        (``error`` in the unnamed root stage), measuring ``"<Type>: <message>"``,
        after the rows measured before it; the code after the block goes on.
        Its seconds go into ``to_json()["timing"]``, never into the body.
        """
        first_row, first_stage, start = len(self.rows), len(self.stages), time.perf_counter()
        try:
            yield
        except TowergenError as exc:
            self.add("error", f"{type(exc).__name__}: {exc}", None, False)
        finally:
            seconds = time.perf_counter() - start
            if name:
                rows, stages = self.rows[first_row:], self.stages[first_stage:]
                self.rows[first_row:] = [replace(r, name=f"{name}.{r.name}") for r in rows]
                self.stages[first_stage:] = [(f"{name}.{inner}", t) for inner, t in stages]
            self.stages.append((name, seconds))

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def body(self) -> dict:
        out = {
            "artifact": {"name": "towergen", "version": __version__},
            "command": self.command,
            "config": sanitize(self.config),
            "rows": [r.to_json() for r in self.rows],
            "pass": self.passed,
        }
        if self.extra:
            out["extra"] = sanitize(self.extra)
        return out

    def body_bytes(self) -> bytes:
        return json.dumps(self.body(), sort_keys=True, indent=2).encode()

    def to_json(self) -> dict:
        out = self.body()
        seconds = dict(self.stages)
        out["timing"] = {
            "started": self.started,
            "seconds": seconds.pop("", None),
            "stages": seconds,
        }
        return out

    def summary_lines(self) -> List[str]:
        lines = []
        for r in self.rows:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{status}  {r.name}: measured={r.measured!r} threshold={r.threshold!r}")
        lines.append(("PASS" if self.passed else "FAIL") + f"  overall ({self.command})")
        return lines
