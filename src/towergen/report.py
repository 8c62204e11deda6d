"""Machine-readable run reports.

A report is a config echo plus measured rows; the body (everything except
timing) serializes canonically so reruns with the same seeds are
byte-identical.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import __version__


def sanitize(value):
    """Convert numpy scalars and containers to plain JSON-stable values."""
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
    error: Optional[str] = None
    started: float = field(default_factory=time.time)
    finished: Optional[float] = None

    def add(self, name: str, measured, threshold, passed: bool) -> None:
        self.rows.append(ReportRow(name, measured, threshold, bool(passed)))

    def check(self, name: str, measured, threshold) -> None:
        """Add a row that passes when ``measured <= threshold``; NaN fails."""
        self.rows.append(ReportRow.check(name, measured, threshold))

    def merge(self, prefix: str, other: "RunReport") -> None:
        for row in other.rows:
            self.rows.append(
                ReportRow(f"{prefix}.{row.name}", row.measured, row.threshold, row.passed)
            )
        if other.error:
            self.error = (self.error or "") + f"[{prefix}] {other.error}"

    @property
    def passed(self) -> bool:
        return self.error is None and all(r.passed for r in self.rows)

    def close(self) -> "RunReport":
        self.finished = time.time()
        return self

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
        if self.error is not None:
            out["error"] = self.error
        return out

    def body_bytes(self) -> bytes:
        return json.dumps(self.body(), sort_keys=True, indent=2).encode()

    def to_json(self) -> dict:
        out = self.body()
        out["timing"] = {
            "started": self.started,
            "seconds": None if self.finished is None else self.finished - self.started,
        }
        return out

    def summary_lines(self) -> List[str]:
        lines = []
        for r in self.rows:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{status}  {r.name}: measured={r.measured!r} threshold={r.threshold!r}")
        lines.append(("PASS" if self.passed else "FAIL") + f"  overall ({self.command})")
        if self.error:
            lines.append(f"ERROR {self.error}")
        return lines
