"""The one scorecard record type shared by the pipelines and the GARCH checks."""

import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["ResultRecord"]


def _json_num(v: Optional[float]):
    """JSON-safe number: None passes through, non-finite becomes its repr string."""
    if v is None:
        return None
    v = float(v)
    return v if math.isfinite(v) else repr(v)


@dataclass(frozen=True)
class ResultRecord:
    """One named scorecard entry.

    ``passed`` is None for purely informational values (nothing to gate).
    Bounds are the accepted interval when a gate exists.
    """

    name: str
    value: Optional[float] = None
    std_error: float = 0.0
    bound_low: Optional[float] = None
    bound_high: Optional[float] = None
    passed: Optional[bool] = None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": _json_num(self.value),
            "std_error": _json_num(self.std_error),
            "bound_low": _json_num(self.bound_low),
            "bound_high": _json_num(self.bound_high),
            "pass": self.passed,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ResultRecord":
        def num(x):
            return None if x is None else float(x)

        return cls(
            name=d["name"],
            value=num(d["value"]),
            std_error=float(d["std_error"]) if d["std_error"] is not None else 0.0,
            bound_low=num(d["bound_low"]),
            bound_high=num(d["bound_high"]),
            passed=d["pass"],
            note=d.get("note", ""),
        )
