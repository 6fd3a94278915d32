"""Report writing: every CSV, JSON and SVG file the program writes goes through here.

JSON reports are indented by two, have sorted keys and end in a newline,
so equal reports are equal bytes.  A path that cannot be written is a
``ConfigError`` naming it.

``verify-cases`` and ``certify-circuits`` report a ``CheckReport``: its text
has one ``[PASS|FAIL|INFO|N/A]`` line per check with the worst margin, the
check's own bound and its instance count; its JSON has the run's parameters,
``ok`` and the checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .config import ConfigError


def json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_text(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def write_json(path: str, payload):
    write_text(path, json_text(payload))


@dataclass(frozen=True)
class CheckResult:
    """One check over the instances it was evaluated on.  With no instances
    it is not applicable (``worst`` and ``passed`` are None); with an
    infinite bound it is informational and always passes."""

    name: str
    instances: int
    worst: float | None
    bound: float
    kind: str  # 'max<=' or 'min>='
    passed: bool | None
    note: str = ""


def check(name: str, kind: str, margins, bound: float, note: str = "") -> CheckResult:
    """Hold the largest (``kind`` 'max<=') or smallest ('min>=') of ``margins``,
    a list of margin arrays, to ``bound``; every entry counts as one instance."""
    values = np.concatenate(margins) if margins else np.empty(0)
    if not values.size:
        return CheckResult(name, 0, None, bound, kind, None, note)
    worst = float(values.max() if kind == "max<=" else values.min())
    passed = worst <= bound if kind == "max<=" else worst >= bound
    return CheckResult(name, int(values.size), worst, bound, kind, bool(passed), note)


@dataclass(frozen=True)
class CheckReport:
    """A titled run of checks: it holds when no check fails."""

    title: str
    params: dict  # name -> value, in header order
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed is not False for c in self.checks)

    def render_text(self) -> str:
        lines = [f"{self.title}: " + " ".join(f"{key}={value}" for key, value in self.params.items())]
        for c in self.checks:
            note = f"  ({c.note})" if c.note else ""
            if c.passed is None:
                lines.append(f"  [N/A] {c.name}: no instances in these dims{note}")
                continue
            rel = "max" if c.kind == "max<=" else "min"
            info = math.isinf(c.bound)
            status = "INFO" if info else "PASS" if c.passed else "FAIL"
            bound_txt = "none" if info else f"{c.bound:.0e}"
            lines.append(
                f"  [{status}] {c.name}: {rel} margin {c.worst:+.3e} vs bound {bound_txt}"
                f" over {c.instances} instances{note}"
            )
        lines.append("result: " + ("all checks passed" if self.ok else "VIOLATIONS FOUND"))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        checks = [{**asdict(c), "bound": None if math.isinf(c.bound) else c.bound} for c in self.checks]
        return {**self.params, "ok": self.ok, "checks": checks}
