"""Experiment configuration: JSON schema, validation, and canonical hashing.

One JSON file describes one experiment: a name, a pipeline, a coefficient law
(five independent marginals, or GARCH parameters), simulation sizes, and the
optional knobs under ``params`` and ``tolerances`` that :data:`KNOBS` declares.
Every validation failure raises :class:`ConfigInvalid` carrying a JSON-pointer
to the offending field.

The experiment identity is the SHA-256 of the canonicalized (sorted-keys,
minimal-separator) normalized config with execution-only fields — workers,
output_dir — removed, so the same experiment run with different parallelism
or into a different directory hashes identically.  Only the knobs a config
sets are hashed, not their defaults.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Optional, Union

from .engine import SimConfig
from .errors import ConfigInvalid
from .garch import GarchLaw, GarchParams
from .laws import (
    ChiSqAffine,
    Constant,
    IndependentLaw,
    LogNormal,
    ParetoLomax,
    ScaledUniformPow,
)
from .spectral import MIN_EXCEEDANCES

__all__ = [
    "PIPELINES",
    "KNOBS",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "read_config_object",
    "apply_overrides",
    "canonical_json",
    "config_digest",
]

PIPELINES = (
    "solve_index",
    "stationarity",
    "simulate",
    "tails",
    "constants",
    "spectral",
    "garch_verify",
    "full_report",
)

_DIST_KINDS = {
    "lognormal": (LogNormal, ("mu", "sigma")),
    "scaled_uniform_pow": (ScaledUniformPow, ("scale", "power")),
    "pareto_lomax": (ParetoLomax, ("alpha", "scale")),
    "constant": (Constant, ("value",)),
    "chisq_affine": (ChiSqAffine, ("a", "b")),
}

_GARCH_REAL_FIELDS = ("alpha11", "alpha12", "alpha22", "beta11", "beta12", "beta22", "rho")

_SIM_DEFAULTS = {"burn_in": 500, "thinning": 1, "truncation_depth": 0}

# Count-valued fields keep integer JSON representation; everything else is real.
_SIM_FIELDS = ("burn_in", "n_draws", "thinning", "truncation_depth", "base_seed")

# Every pipeline knob: name -> (section, kind, minimum, default).  A "count" is
# an integer >= minimum, a "k" 0 (the default Hill rule) or a count, a "schedule"
# >= 3 strictly increasing counts, a "fraction" a real in (0, 1) and a "positive"
# a finite real > 0.  A dict default is keyed by the step that reads it.
KNOBS = {
    "csv_rows": ("params", "count", 0, 100_000),
    "lyapunov_steps": ("params", "count", 100, 20_000),
    "lyapunov_chains": ("params", "count", 1, 200),
    "hill_k": ("params", "k", 2, 0),
    "hill_k_x": ("params", "k", 2, 0),
    "constant_draws": ("params", "count", 2, 1_000_000),
    "s_schedule": ("params", "schedule", 1, (1, 2, 4, 8, 16, 32, 64)),
    "weight_draws": ("params", "count", 2, 200_000),
    "u_quantile": ("params", "fraction", None, 0.999),
    "limit_draws": ("params", "count", MIN_EXCEEDANCES, 200_000),
    "h": ("params", "count", 1, {"spectral_cross_feed": 3, "spectral_own_tail": 2,
                                 "garch_verify": 2}),
    "crossval_draws": ("params", "count", 1, 100_000),
    "crossval_thinning": ("params", "count", 1, 20),
    "alpha_residual": ("tolerances", "positive", None, 1e-8),
    "se_mult": ("tolerances", "positive", None, 4.0),
    "dispersion_max": ("tolerances", "positive", None, 0.15),
    "c1_rel_tol": ("tolerances", "positive", None, 0.25),
    "c2_rel_tol": ("tolerances", "positive", None, {"constants": 0.2, "garch_verify": 0.25}),
    "ks_bound": ("tolerances", "positive", None, 0.05),
    "ks_level": ("tolerances", "positive", None, 0.01),
}


def _require(node: dict, key: str, path: str) -> Any:
    if key not in node:
        raise ConfigInvalid(f"{path}/{key}", "missing required field")
    return node[key]


def _as_real(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalid(path, f"expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer too large for a float
        value = math.inf
    if not math.isfinite(value):
        raise ConfigInvalid(path, "must be finite")
    return value


def _as_count(value: Any, path: str, minimum: int = 0) -> int:
    if isinstance(value, bool):
        raise ConfigInvalid(path, f"expected an integer, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise ConfigInvalid(path, f"expected an integer, got {value!r}")
        value = int(value)
    if not isinstance(value, int):
        raise ConfigInvalid(path, f"expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigInvalid(path, f"must be >= {minimum}, got {value}")
    return value


def _check_object(node: Any, path: str, allowed: set, required: tuple = ()) -> None:
    if not isinstance(node, dict):
        raise ConfigInvalid(path or "/", f"expected an object, got {type(node).__name__}")
    unknown = set(node) - allowed
    if unknown:
        raise ConfigInvalid(
            f"{path}/{sorted(unknown)[0]}",
            f"unknown field (allowed: {', '.join(sorted(allowed))})",
        )
    for key in required:
        if key not in node:
            raise ConfigInvalid(f"{path}/{key}", "missing required field")


def _parse_dist(node: Any, path: str):
    if not isinstance(node, dict):
        raise ConfigInvalid(path, f"expected an object, got {type(node).__name__}")
    if "kind" not in node:
        raise ConfigInvalid(f"{path}/kind", "missing required field")
    kind = node["kind"]
    if kind not in _DIST_KINDS:
        raise ConfigInvalid(
            f"{path}/kind",
            f"unknown kind {kind!r} (expected one of {', '.join(sorted(_DIST_KINDS))})",
        )
    cls, fields = _DIST_KINDS[kind]
    unknown = set(node) - {"kind", *fields}
    if unknown:
        raise ConfigInvalid(f"{path}/{sorted(unknown)[0]}", "unknown field")
    kwargs = {f: _as_real(_require(node, f, path), f"{path}/{f}") for f in fields}
    try:
        dist = cls(**kwargs)
    except ValueError as e:
        raise ConfigInvalid(path, str(e)) from None
    return dist, {"kind": kind, **kwargs}


def _parse_law(node: Any, path: str):
    if not isinstance(node, dict):
        raise ConfigInvalid(path, f"expected an object, got {type(node).__name__}")
    mode = _require(node, "mode", path)
    if mode == "independent":
        names = ("a1", "a2", "a4", "b1", "b2")
        _check_object(node, path, allowed={"mode", *names}, required=names)
        dists, norm = {}, {"mode": "independent"}
        for name in names:
            dists[name], norm[name] = _parse_dist(node[name], f"{path}/{name}")
        return IndependentLaw(**dists), norm
    if mode == "garch":
        allowed = {"mode", "alpha0", *_GARCH_REAL_FIELDS}
        _check_object(node, path, allowed=allowed, required=("alpha0", *_GARCH_REAL_FIELDS))
        a0 = node["alpha0"]
        if not isinstance(a0, (list, tuple)) or len(a0) != 2:
            raise ConfigInvalid(f"{path}/alpha0", "expected a pair [a01, a02]")
        kwargs = {
            "alpha0": (
                _as_real(a0[0], f"{path}/alpha0/0"),
                _as_real(a0[1], f"{path}/alpha0/1"),
            )
        }
        for f in _GARCH_REAL_FIELDS:
            kwargs[f] = _as_real(node[f], f"{path}/{f}")
        try:
            params = GarchParams(**kwargs)
        except ValueError as e:
            raise ConfigInvalid(path, str(e)) from None
        return GarchLaw(params), {"mode": "garch", **params.to_dict()}
    raise ConfigInvalid(f"{path}/mode", f"unknown mode {mode!r} (expected independent or garch)")


def _parse_sim(node: Any, path: str):
    _check_object(node, path, allowed=set(_SIM_FIELDS), required=("n_draws", "base_seed"))
    merged = {**_SIM_DEFAULTS, **node}
    counts = {f: _as_count(merged[f], f"{path}/{f}") for f in _SIM_FIELDS}
    try:
        sim = SimConfig(**counts)
    except ValueError as e:
        raise ConfigInvalid(path, str(e)) from None
    return sim, counts


def _knob_value(name: str, value: Any, path: str):
    """``value`` checked against the KNOBS row of ``name``."""
    _, kind, minimum, _ = KNOBS[name]
    if kind in ("positive", "fraction"):
        real = _as_real(value, path)
        if not 0.0 < real < (1.0 if kind == "fraction" else math.inf):
            bound = "lie in (0, 1)" if kind == "fraction" else "be positive"
            raise ConfigInvalid(path, f"must {bound}, got {real}")
        return real
    if kind == "schedule":
        items = value if isinstance(value, list) else []
        counts = [_as_count(v, f"{path}/{i}", minimum) for i, v in enumerate(items)]
        if len(counts) < 3:
            raise ConfigInvalid(path, f"expected a list of >= 3 integers, got {value!r}")
        for i in range(1, len(counts)):
            if counts[i] <= counts[i - 1]:
                raise ConfigInvalid(f"{path}/{i}", f"must exceed the entry before, {counts[i - 1]}")
        return counts
    count = _as_count(value, path, 0 if kind == "k" else minimum)
    if kind == "k" and 0 < count < minimum:
        raise ConfigInvalid(path, f"must be 0 (the default rule) or >= {minimum}, got {count}")
    return count


def _parse_knobs(node: Any, section: str) -> dict:
    """The knobs one section sets, validated; an absent or null section sets none."""
    if node is None:
        return {}
    _check_object(node, f"/{section}", {n for n, row in KNOBS.items() if row[0] == section})
    return {name: _knob_value(name, v, f"/{section}/{name}") for name, v in node.items()}


@dataclass(eq=False)
class ExperimentConfig:
    """One validated experiment: what to run, on which law, at what size.

    ``normalized`` is the plain-dict form behind :attr:`digest`; ``params``
    and ``tolerances`` hold the validated knobs the config sets, and
    :meth:`knob` reads them or their :data:`KNOBS` defaults.
    """

    name: str
    pipeline: str
    law: Union[IndependentLaw, GarchLaw]
    sim: SimConfig
    tolerances: dict
    params: dict
    output_dir: str
    workers: int
    normalized: dict

    @property
    def digest(self) -> str:
        return config_digest(self.normalized)

    def knob(self, name: str):
        """The value the config sets for knob ``name``, else its KNOBS default."""
        section, _, _, default = KNOBS[name]
        return getattr(self, section).get(name, default)


_TOP_FIELDS = {
    "name", "pipeline", "law", "sim", "tolerances", "params", "output_dir", "workers",
}


def parse_config(obj: Any) -> ExperimentConfig:
    """Validate a decoded JSON object into an :class:`ExperimentConfig`."""
    _check_object(obj, "", allowed=_TOP_FIELDS, required=("name", "pipeline", "law", "sim"))
    name = obj["name"]
    if not isinstance(name, str) or not name:
        raise ConfigInvalid("/name", "expected a nonempty string")
    pipeline = obj["pipeline"]
    if pipeline not in PIPELINES:
        raise ConfigInvalid(
            "/pipeline", f"unknown pipeline {pipeline!r} (expected one of {', '.join(PIPELINES)})"
        )
    law, law_norm = _parse_law(obj["law"], "/law")
    if pipeline == "garch_verify" and not isinstance(law, GarchLaw):
        raise ConfigInvalid("/pipeline", "garch_verify requires a law with mode garch")
    sim, sim_norm = _parse_sim(obj["sim"], "/sim")
    tolerances = _parse_knobs(obj.get("tolerances"), "tolerances")
    params = _parse_knobs(obj.get("params"), "params")
    output_dir = obj.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigInvalid("/output_dir", "expected a nonempty string")
    workers = _as_count(obj.get("workers", 1), "/workers", minimum=1)

    normalized = {
        "name": name,
        "pipeline": pipeline,
        "law": law_norm,
        "sim": sim_norm,
        "tolerances": tolerances,
        "params": params,
    }
    return ExperimentConfig(
        name=name,
        pipeline=pipeline,
        law=law,
        sim=sim,
        tolerances=tolerances,
        params=params,
        output_dir=output_dir,
        workers=workers,
        normalized=normalized,
    )


def apply_overrides(
    obj: dict,
    seed: Optional[int] = None,
    workers: Optional[int] = None,
    out: Optional[str] = None,
) -> dict:
    """Fold CLI overrides into a decoded config object (before parsing).

    The seed lands in ``/sim/base_seed`` and therefore in the digest; workers
    and output directory are execution details and stay out of it.
    """
    if seed is not None:
        sim = obj.get("sim")
        if isinstance(sim, dict):
            sim["base_seed"] = seed
        else:
            obj["sim"] = {"base_seed": seed}
    if workers is not None:
        obj["workers"] = workers
    if out is not None:
        obj["output_dir"] = out
    return obj


def read_config_object(path) -> Any:
    """Read and decode a config file into its JSON value, not yet validated.

    A file that cannot be read, is not UTF-8 or is not JSON raises
    :class:`ConfigInvalid` at ``/``.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigInvalid("/", f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise ConfigInvalid("/", f"not valid UTF-8: {e}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigInvalid("/", f"not valid JSON: {e}") from None


def load_config(path) -> ExperimentConfig:
    """Read, decode, and validate a config file."""
    return parse_config(read_config_object(path))


def canonical_json(obj: Any) -> str:
    """Sorted-keys, minimal-separator, NaN-free JSON used for hashing."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_digest(normalized: dict) -> str:
    """SHA-256 of the canonicalized normalized config."""
    return hashlib.sha256(canonical_json(normalized).encode("utf-8")).hexdigest()
