"""Structured verification reports and their serializations."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


def _nulled(value):
    """``value`` with every non-finite float inside it (through dicts, lists
    and tuples) replaced by None, and whether there was one."""
    if isinstance(value, float):
        return (value, False) if math.isfinite(value) else (None, True)
    if isinstance(value, dict):
        pairs = {key: _nulled(val) for key, val in value.items()}
        return {key: val for key, (val, _) in pairs.items()}, any(bad for _, bad in pairs.values())
    if isinstance(value, (list, tuple)):
        pairs = [_nulled(val) for val in value]
        return [val for val, _ in pairs], any(bad for _, bad in pairs)
    return value, False


@dataclass
class VerificationReport:
    """Outcome of one identity check.

    Serialized field order is fixed: suite, m, partition, selector_rows,
    selector_cols, seed, residual, pass, details.  A report whose residual
    or details hold a non-finite value fails: each such value serializes as
    null, and a trailing ``non_finite: true`` field marks the report.
    """

    suite: str
    m: int | None = None
    partition: tuple[int, ...] | None = None
    selector_rows: tuple[int, ...] | None = None
    selector_cols: tuple[int, ...] | None = None
    seed: int | None = None
    residual: float | None = None
    passed: bool = False
    details: dict = field(default_factory=dict)
    non_finite: bool = field(default=False, init=False)

    def __post_init__(self):
        self.non_finite = _nulled([self.residual, self.details])[1]
        if self.non_finite:
            self.passed = False

    def to_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "m": self.m,
            "partition": list(self.partition) if self.partition is not None else None,
            "selector_rows": list(self.selector_rows)
            if self.selector_rows is not None
            else None,
            "selector_cols": list(self.selector_cols)
            if self.selector_cols is not None
            else None,
            "seed": self.seed,
            "residual": self.residual,
            "pass": bool(self.passed),
            "details": self.details,
        }
        if not self.non_finite:
            return out
        out, _ = _nulled(out)
        out["non_finite"] = True
        return out

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"), allow_nan=False)

    def to_pretty(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        bits = [f"[{mark}] {self.suite}"]
        if self.m is not None:
            bits.append(f"m={self.m}")
        if self.partition is not None:
            bits.append("partition={" + ",".join(str(x) for x in self.partition) + "}")
        if self.selector_rows is not None:
            bits.append(f"rows={','.join(str(x) for x in self.selector_rows)}")
        if self.selector_cols is not None:
            bits.append(f"cols={','.join(str(x) for x in self.selector_cols)}")
        if self.seed is not None:
            bits.append(f"seed={self.seed}")
        if self.residual is not None:
            bits.append(f"residual={self.residual:.3e}")
        return "  ".join(bits)


CSV_FIELDS = [
    "suite",
    "m",
    "partition",
    "selector_rows",
    "selector_cols",
    "seed",
    "residual",
    "pass",
    "details",
]


def to_csv_row(report: VerificationReport) -> list[str]:
    d = report.to_dict()
    row = []
    for key in CSV_FIELDS:
        val = d[key]
        if val is None:
            row.append("")
        elif isinstance(val, (list, dict)):
            row.append(json.dumps(val, separators=(",", ":")))
        else:
            row.append(str(val))
    return row
