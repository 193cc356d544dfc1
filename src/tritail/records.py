"""The one scorecard record type shared by the pipelines and the GARCH checks."""

import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["ResultRecord", "gate", "hill_gate", "dispersion_gate"]


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
    A gated record is made by :func:`gate` and passes exactly when its value
    lies in ``[bound_low, bound_high]``.  Five verdicts are not "value within
    its bounds" and keep their own expression: ``alpha1``/``alpha2`` gate the
    root's residual, ``stationarity_holds`` and ``cross_moment_finite`` are
    booleans with no bounds, ``series_weight`` also needs the weight to have
    converged (its bounds, when the weight has a bracket, are the bracket
    ± 3 standard errors), and ``lyapunov_gamma`` (< 0) and the
    ``*_dispersion`` records (< ``dispersion_max``, :func:`dispersion_gate`)
    are strict.
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


def gate(name: str, value: float, low: Optional[float] = None,
         high: Optional[float] = None, *, std_error: float = 0.0,
         note: str = "") -> ResultRecord:
    """The record that passes exactly when ``low <= value <= high``.

    A None bound is open; a NaN value or a NaN bound fails.
    """
    passed = (not math.isnan(value) and (low is None or low <= value)
              and (high is None or value <= high))
    return ResultRecord(name=name, value=value, std_error=std_error, bound_low=low,
                        bound_high=high, passed=bool(passed), note=note)


def hill_gate(name: str, est, target: float, se_mult: float) -> ResultRecord:
    """The gate of a Hill estimate: its index within ``se_mult`` standard errors of ``target``."""
    half = se_mult * est.std_error
    return gate(name, est.alpha_hat, target - half, target + half, std_error=est.std_error,
                note=f"k={est.k} target={target:.6g}")


def dispersion_gate(name: str, est, dispersion_max: float) -> ResultRecord:
    """The strict gate of a plateau estimate: its dispersion below ``dispersion_max``."""
    return ResultRecord(name=name, value=est.dispersion, bound_low=0.0, bound_high=dispersion_max,
                        passed=bool(est.dispersion < dispersion_max), note=f"alpha={est.alpha:.6g}")
