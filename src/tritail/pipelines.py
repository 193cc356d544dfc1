"""Deterministic experiment pipelines and machine-readable run reports.

Every pipeline follows the same discipline:

* all randomness comes from :func:`tritail.streams.substream` keyed on the
  config's base seed, a fixed purpose tag, and (for bulk sampling) a chunk
  index — never from shared mutable generator state;
* bulk samples are assembled from fixed-size chunks whose content is a pure
  function of the chunk index; consecutive chunks run side by side as one
  group in a single wide sampler call;
* a run with ``workers`` >= 2 holds one pool of exactly ``workers`` threads.
  When the run starts it submits, in the order the steps read them, the
  Lyapunov estimate, the stationary sample's groups and the cross-validation
  backward sample (each step's side job in :data:`_STEPS`, resolved on the
  main thread, a pure function of its substream); each step then reads its
  job's result.  The main thread still runs the steps in order, waits for the groups,
  writes the tables and computes the series weights: their slabs, freed on a
  pool thread, would stay in that thread's malloc arena and raise the peak.
  With one worker there is no pool, and each job runs when its step reads it;
* before sampling, a run plans every reduction its steps read (tails, sums,
  first states, strided states and exceedance sets,
  :mod:`tritail.reduction`); each group's sampler hands every slab's kept
  states straight to the group's reducer, which writes them in place into
  the sample's one summary, and no
  reduction depends on the order the groups arrive in — so no step holds an
  array of n states, no group is ever copied out of the kernel's slabs, and
  every record is byte-identical for any worker count;
* every artifact is a table written as one structured ``.npy`` file,
  format 1.0 (:func:`_write_table`): one field per column, each value
  exact, so its bytes are fixed by the field names, types and values;
* failures degrade to ``passed=False`` records instead of aborting sibling
  steps, so a full sweep always yields a complete scorecard.

Reports serialize to JSON with sorted keys; the canonical byte form (identity
and hashing) excludes the one volatile field, ``wall_time``.
"""

import functools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import engine, garch, reduction, renewal, spectral, tailstats
from .config import ExperimentConfig, _as_real, _check_object, canonical_json
from .engine import PathSample, SimConfig
from .errors import ConfigInvalid, PipelineMismatch, TritailError
from .garch import (
    GarchLaw,
    GarchPath,
    return_spectral_check,
    stationary_garch_sample,
    verify_tail_relations,
)
from .laws import (
    REGIME_A1_DOMINANT,
    REGIME_A2_DOMINANT,
    check_stationarity,
    classify_regime,
)
from .records import ResultRecord, dispersion_gate, gate, hill_gate
from .reduction import Plan, Summary
from .streams import substream

__all__ = [
    "ResultRecord",
    "RunReport",
    "DiffEntry",
    "run",
    "compare_reports",
]

_CHUNK_DRAWS = reduction.SUM_SPAN  # one partial sum per chunk
_CHUNK_CHAIN_LEN = 1000
_BACKWARD_CHUNK = 1 << 15  # backward draws per chunk: its state arrays stay at cache size
_GROUP_ELEMENTS = 1 << 17  # per group slab array: 10 chunks of 200 chains x 64 rows, about 1 MB

_REPORT_FIELDS = ("name", "pipeline", "config_digest", "results", "artifacts")
_RECORD_FIELDS = ("name", "value", "std_error", "bound_low", "bound_high", "pass")
_NON_FINITE = ("inf", "-inf", "nan")  # how a record saves a non-finite number


# ============================================================================
# Report containers
# ============================================================================

@dataclass(eq=False)
class RunReport:
    """The outcome of one pipeline run: scorecard, artifacts, identity."""

    name: str
    pipeline: str
    config_digest: str
    results: tuple
    artifacts: tuple
    wall_time: float

    def to_dict(self, include_wall_time: bool = True) -> dict:
        d = {
            "name": self.name,
            "pipeline": self.pipeline,
            "config_digest": self.config_digest,
            "results": [r.to_dict() for r in self.results],
            "artifacts": list(self.artifacts),
        }
        if include_wall_time:
            d["wall_time"] = self.wall_time
        return d

    def canonical_bytes(self) -> bytes:
        """Identity bytes: everything except the volatile wall time."""
        return canonical_json(self.to_dict(include_wall_time=False)).encode("utf-8")

    @property
    def all_passed(self) -> bool:
        return all(r.passed is not False for r in self.results)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, sort_keys=True, indent=2)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "RunReport":
        """Read a saved report.

        A malformed report raises :class:`ConfigInvalid`, whose message starts
        with the JSON pointer of the offending field.  Record names must be
        unique: a diff matches records by name.
        """
        with open(path, "r", encoding="utf-8") as f:
            d = json.load(f)
        _check_object(d, "", {*_REPORT_FIELDS, "wall_time"}, _REPORT_FIELDS)
        for key in ("name", "pipeline", "config_digest"):
            _expect(d[key], f"/{key}", str, "a string")
        for key in ("results", "artifacts"):
            _expect(d[key], f"/{key}", list, "a list")
        for i, artifact in enumerate(d["artifacts"]):
            _expect(artifact, f"/artifacts/{i}", str, "a string")
        results, names = [], set()
        for i, r in enumerate(d["results"]):
            path = f"/results/{i}"
            _check_object(r, path, {*_RECORD_FIELDS, "note"}, _RECORD_FIELDS)
            _expect(r["name"], f"{path}/name", str, "a string")
            if r["name"] in names:
                raise ConfigInvalid(f"{path}/name", f"repeats the record name {r['name']!r}")
            names.add(r["name"])
            _expect(r.get("note", ""), f"{path}/note", str, "a string")
            _expect(r["pass"], f"{path}/pass", (bool, type(None)), "true, false or null")
            for key in ("value", "std_error", "bound_low", "bound_high"):
                if r[key] is not None and r[key] not in _NON_FINITE:
                    _as_real(r[key], f"{path}/{key}")
            results.append(ResultRecord.from_dict(r))
        return cls(
            name=d["name"],
            pipeline=d["pipeline"],
            config_digest=d["config_digest"],
            results=tuple(results),
            artifacts=tuple(d["artifacts"]),
            wall_time=_as_real(d.get("wall_time", 0.0), "/wall_time"),
        )


def _expect(value, path: str, types, what: str) -> None:
    if not isinstance(value, types):
        raise ConfigInvalid(path, f"expected {what}, got {type(value).__name__}")


# ============================================================================
# Deterministic chunked sampling
# ============================================================================

def _forward_chunked(law, sim: SimConfig, plan: Plan, pool: Optional[ThreadPoolExecutor],
                     purpose: str) -> Callable[[], Summary]:
    """The forward sample of ``law`` reduced under ``plan``: the function that waits for it.

    A GARCH law runs :func:`stationary_garch_sample` on its parameters and
    any other law :func:`engine.stationary_sample`; both are looked up when
    called, so a wrapper installed on either name sees every call.  Chunk i
    covers states ``[i*_CHUNK_DRAWS, ...)``, whole chains of
    _CHUNK_CHAIN_LEN, and draws from substream i.  Consecutive chunks run
    side by side as one group, a single sampler call whose generator blocks
    are the chunks, up to _GROUP_ELEMENTS per slab array; the sampler hands
    each slab's kept states to the group's :class:`reduction.Reducer`,
    which writes them into the sample's one :class:`Summary`.  A chunk's
    states equal a solo run's and no reduction depends on the order in
    which the groups write, so neither the grouping, the pool nor its size
    changes the result.  With a pool every group is submitted now; without
    one, the returned function samples the groups one by one.  Only the
    final chunk can be a non-multiple; its last chain is trimmed, so the
    sample keeps the chain-major invariant with that chain length.
    """
    if isinstance(law, GarchLaw):
        sampler, model = stationary_garch_sample, law.params
    else:
        sampler, model = engine.stationary_sample, law
    chunk_chains = _CHUNK_DRAWS // _CHUNK_CHAIN_LEN
    per_group = max(1, _GROUP_ELEMENTS // (engine.slab_rows(chunk_chains) * chunk_chains))
    span, n = per_group * _CHUNK_DRAWS, sim.n_draws
    summary = Summary(plan, n, _CHUNK_CHAIN_LEN)

    def one(start: int) -> None:
        stop = min(start + span, n)
        blocks = [(substream(sim.base_seed, purpose, c // _CHUNK_DRAWS),
                   -(-(min(c + _CHUNK_DRAWS, stop) - c) // _CHUNK_CHAIN_LEN))
                  for c in range(start, stop, _CHUNK_DRAWS)]
        n_chains = sum(chains for _, chains in blocks)
        cfg = replace(sim, n_draws=n_chains * _CHUNK_CHAIN_LEN)
        sampler(model, cfg, blocks, n_chains=n_chains,
                reducer=reduction.Reducer(summary, stop - start, start))

    starts = range(0, n, span)
    groups = map(one, starts) if pool is None else pool.map(one, starts)

    def wait() -> Summary:
        for _ in groups:
            pass
        return summary

    return wait


def _backward_chunked(law, sim: SimConfig) -> PathSample:
    """``sim.n_draws`` independent backward draws of ``law``, one chunk after another.

    Chunk i holds draws ``[i*_BACKWARD_CHUNK, ...)`` and draws from
    substream i; :func:`engine.backward_truncated` is looked up when called.
    """
    n = sim.n_draws
    sample = PathSample(w1=np.empty(n), w2=np.empty(n), chain_len=1)
    for start in range(0, n, _BACKWARD_CHUNK):
        cfg = replace(sim, n_draws=min(start + _BACKWARD_CHUNK, n) - start)
        chunk = engine.backward_truncated(
            law, cfg, substream(sim.base_seed, "backward", start // _BACKWARD_CHUNK))
        sample.w1[start : start + cfg.n_draws] = chunk.w1
        sample.w2[start : start + cfg.n_draws] = chunk.w2
    return sample


# ============================================================================
# Pipeline context and helpers
# ============================================================================

class _Job:
    """A run-level job, started when the run starts and read by its step.

    ``start(pool)`` resolves the job's inputs on the calling thread and
    returns the function that gives its result: with a pool the work is
    submitted now; without one it runs when first read.  The outcome, a
    value or an exception, is kept and given to every read; the run drops a
    side job after its step's one read and keeps only the sample.
    """

    def __init__(self, start: Callable, pool: Optional[ThreadPoolExecutor]):
        self._value = self._error = None
        self._read = None
        try:
            self._read = start(pool)
        except Exception as e:
            self._error = e

    def result(self):
        if self._read is not None:
            read, self._read = self._read, None
            try:
                self._value = read()
            except Exception as e:
                self._error = e
        if self._error is not None:
            raise self._error
        return self._value


def _submit(pool: Optional[ThreadPoolExecutor], fn: Callable, *args) -> Callable:
    """The function that reads ``fn(*args)``: submitted to ``pool`` now, or run at the read."""
    if pool is None:
        return functools.partial(fn, *args)
    return pool.submit(fn, *args).result


@dataclass(eq=False)
class _Ctx:
    cfg: ExperimentConfig
    outdir: Path
    steps: tuple
    records: list
    artifacts: list
    cache: dict
    jobs: dict = field(default_factory=dict)

    @property
    def seed(self) -> int:
        return self.cfg.sim.base_seed

    def knob(self, name: str):
        return self.cfg.knob(name)

    def add(self, **kwargs) -> None:
        self.records.append(ResultRecord(**kwargs))

    def is_garch(self) -> bool:
        return isinstance(self.cfg.law, GarchLaw)

    @property
    def pair(self) -> tuple:
        """The two series of the recursion: the GARCH volatilities, or w1 and w2."""
        return ("sigma1_sq", "sigma2_sq") if self.is_garch() else ("w1", "w2")

    def plan(self) -> Plan:
        """Every reduction the run's steps read of the stationary sample.

        A step whose plan needs a regime that does not resolve plans
        nothing; the step itself then reports the failure.
        """
        plan = Plan()
        for step in (_STEPS[name] for name in self.steps if _STEPS[name].plan):
            try:
                plan |= step.plan(self)
            except TritailError:
                pass
        return plan

    def start(self, pool: Optional[ThreadPoolExecutor]) -> None:
        """Start the run's jobs in the order the steps read them.

        That is each step's side job (:attr:`_Step.job` in :data:`_STEPS`),
        and the stationary sample just before the first step with a plan.
        """
        purpose = "garch" if self.is_garch() else "stationary"
        for name in self.steps:
            step = _STEPS[name]
            if step.plan and "sample" not in self.jobs:
                self.jobs["sample"] = _Job(lambda pool: _forward_chunked(
                    self.cfg.law, self.cfg.sim, self.plan(), pool, purpose), pool)
            if step.job:
                self.jobs[name] = _Job(functools.partial(step.job, self), pool)

    def read(self, name: str):
        """The result of step ``name``'s side job, dropped from the run once read."""
        return self.jobs.pop(name).result()

    def sample(self) -> Summary:
        """The stationary sample (the GARCH path), reduced to what the steps read."""
        return self.jobs["sample"].result()

    def depth(self, name: str) -> int:
        """Tail depth of a series of :attr:`pair` for Hill at ``hill_k``, the plateau and q999."""
        return garch.series_depth(name, self.cfg.sim.n_draws, self.knob("hill_k"))

    def tail(self, name: str) -> tailstats.UpperTail:
        """The run's one upper tail of a series of :attr:`pair`, deep enough for every reader."""
        return self.sample().tail(name)

    def plateau(self, name: str, alpha: float) -> tailstats.TailConstantEstimate:
        """The plateau estimate of ``name`` at ``alpha``, computed once per run.

        Its dispersion is gated where it is computed, as
        ``plateau_<name>_dispersion``; a run estimates each series at one
        alpha, so the name is unique.
        """
        key = ("plateau", name, alpha)
        if key not in self.cache:
            est = self.cache[key] = tailstats.tail_constant(self.tail(name), alpha)
            self.records.append(dispersion_gate(f"plateau_{name}_dispersion", est,
                                                self.knob("dispersion_max")))
        return self.cache[key]

    def head(self, m: int):
        """The first m states as an array-backed sample: a PathSample, or a GarchPath."""
        s = self.sample()
        if self.is_garch():
            return GarchPath(*(s.head(name, m) for name in garch.STORED), chain_len=s.chain_len)
        return PathSample(w1=s.head("w1", m), w2=s.head("w2", m), chain_len=s.chain_len)

    def regime(self):
        if "regime" not in self.cache:
            self.cache["regime"] = classify_regime(self.cfg.law)
        return self.cache["regime"]

    def write_table(self, filename: str, names, columns) -> None:
        _write_table(self.outdir / filename, names, columns)
        self.artifacts.append(filename)


def _write_table(path, names, columns) -> None:
    """Write equal-length 1-d columns as one structured ``.npy`` file, format 1.0.

    Field i is named ``names[i]`` and holds column i as ``<i8`` when the
    column is an integer array (``t``, ``s``, ``draw_id``) and as ``<f8``
    otherwise.  Every value is stored exactly (``nan``, ``inf`` and ``-0.0``
    included), and the file's bytes are fixed by the names, field types and
    values; ``np.load`` reads the table back.  Columns are arrays or
    sequences ``np.asarray`` makes one of; columns of unequal length or of
    more than one dimension raise :class:`ValueError` before anything is
    written.
    """
    columns = [np.asarray(c) for c in columns]
    if any(c.ndim != 1 for c in columns):
        raise ValueError("table columns must be 1-d")
    lengths = {len(c) for c in columns}
    if len(lengths) != 1:
        raise ValueError(f"table columns differ in length: {sorted(lengths)}")
    fields = list(zip(names, columns, strict=True))
    table = np.empty(lengths.pop(), dtype=[(name, "<i8" if c.dtype.kind in "iu" else "<f8")
                                           for name, c in fields])
    for name, c in fields:
        table[name] = c
    with open(path, "wb") as f:
        np.lib.format.write_array(f, table, version=(1, 0))


def _by_step(value, step: str):
    """A knob value, with a step-dependent KNOBS default resolved for ``step``."""
    return value[step] if isinstance(value, dict) else value


def _solution_record(ctx: _Ctx, name: str, sol) -> None:
    tol = ctx.knob("alpha_residual")
    ctx.add(
        name=name,
        value=sol.alpha,
        bound_low=-tol,
        bound_high=tol,
        passed=bool(abs(sol.residual) <= tol),
        note=f"method={sol.method} residual={sol.residual:.3g} "
             f"bracket=({sol.bracket[0]:.4g}, {sol.bracket[1]:.4g})",
    )


# ============================================================================
# Pipeline steps
# ============================================================================

def _step_solve_index(ctx: _Ctx) -> None:
    rep = ctx.regime()
    _solution_record(ctx, "alpha1", rep.alpha1)
    _solution_record(ctx, "alpha2", rep.alpha2)
    cross = rep.cross_moment
    ctx.add(
        name="cross_moment_finite",
        value=1.0 if rep.cross_moment_ok else 0.0,
        passed=rep.cross_moment_ok,
        note=f"E A2^min(alpha) = {cross.value:.6g}" if cross is not None else "divergent",
    )
    ctx.add(name="regime", value=None, passed=None, note=rep.regime)


def _step_stationarity(ctx: _Ctx) -> None:
    rep = check_stationarity(ctx.cfg.law)
    ctx.add(
        name="stationarity_holds",
        value=1.0 if rep.holds else 0.0,
        passed=rep.holds,
        note=f"witness_eps={rep.witness_eps} rho={rep.rho:.6g}",
    )
    est = ctx.read("stationarity")
    ctx.add(
        name="lyapunov_gamma",
        value=est.gamma_hat,
        std_error=est.std_error,
        bound_low=None,
        bound_high=0.0,
        passed=bool(est.gamma_hat < 0.0),
        note=f"n={est.n_steps} chains={est.n_chains}",
    )
    if math.isfinite(est.upper_bound):
        slack = est.upper_bound + 3.0 * est.std_error - est.gamma_hat
        ctx.records.append(gate("lyapunov_bound_slack", slack, 0.0, std_error=est.std_error,
                                note=f"bound={est.upper_bound:.6g}"))
    else:
        ctx.add(name="lyapunov_bound_slack", value=None, passed=None,
                note="no small-moment witness on the default grid")


def _summary_stats(ctx: _Ctx, name: str) -> None:
    ctx.add(name=f"{name}_mean", value=ctx.sample().mean(name), passed=None)
    ctx.add(name=f"{name}_q999", value=ctx.tail(name).quantile(0.999), passed=None)


def _step_simulate(ctx: _Ctx) -> None:
    n = len(ctx.sample())
    head = ctx.head(ctx.knob("csv_rows"))
    m = len(head)
    if ctx.is_garch():
        ctx.write_table(
            "garch_path.npy",
            ("t", "x1", "x2", "sigma1_sq", "sigma2_sq"),
            (np.arange(m), head.x1, head.x2, head.sigma1_sq, head.sigma2_sq),
        )
    else:
        ctx.write_table("path.npy", ("t", "w1", "w2"), (np.arange(m), head.w1, head.w2))
    ctx.add(name="n_draws", value=float(n), passed=None)
    for name in ctx.pair:
        _summary_stats(ctx, name)


def _plateau_record(ctx: _Ctx, name: str, est,
                    reference: Optional[float] = None, rel_tol: Optional[float] = None,
                    table: Optional[str] = None) -> None:
    if reference is None:
        ctx.add(name=name, value=est.c_hat, passed=None, note=f"alpha={est.alpha:.6g}")
    else:
        rel = abs(est.c_hat - reference) / abs(reference)
        ctx.records.append(gate(name, est.c_hat, reference * (1.0 - rel_tol),
                                reference * (1.0 + rel_tol),
                                note=f"reference={reference:.6g} rel={rel:.4g}"))
    if table:
        ctx.write_table(table, ("x", "plateau"), (est.x_grid, est.plateau_values))


def _step_tails(ctx: _Ctx) -> None:
    rep = ctx.regime()
    a2 = rep.alpha2.alpha
    a_min = min(rep.alpha1.alpha, a2)
    k, se_mult = ctx.knob("hill_k"), ctx.knob("se_mult")
    for name, target in zip(ctx.pair, (a_min, a2)):
        ctx.records.append(hill_gate(f"hill_{name}", tailstats.hill(ctx.tail(name), k=k), target,
                                     se_mult))
    for name, target in zip(ctx.pair, (a_min, a2)):
        _plateau_record(ctx, f"plateau_{name}", ctx.plateau(name, target),
                        table=f"plateau_{name}.npy")


def _step_constants(ctx: _Ctx) -> None:
    rep = ctx.regime()
    a1, a2 = rep.alpha1.alpha, rep.alpha2.alpha
    law = ctx.cfg.law
    draws = ctx.knob("constant_draws")
    rel_tol = _by_step(ctx.knob("c2_rel_tol"), "constants")

    c2 = renewal.univariate_constant(
        law.marginal("a4"), law.marginal("b2"), a2,
        ctx.sample().head("w2", draws), substream(ctx.seed, "c2"),
    )
    ctx.add(
        name="c2_renewal",
        value=c2.c_hat,
        std_error=c2.std_error,
        passed=None,
        note=f"m_alpha={c2.m_alpha:.6g} cramer_residual={c2.cramer_residual:.3g}",
    )
    _plateau_record(ctx, "c2_plateau", ctx.plateau("w2", a2),
                    reference=c2.c_hat, rel_tol=rel_tol)

    rel_tol1 = ctx.knob("c1_rel_tol")
    if rep.regime == REGIME_A2_DOMINANT:
        try:
            bounds = renewal.series_weight_bounds(law, a2)
            bounds_note = f"[{bounds.lower:.6g}, {bounds.upper:.6g}] tau={bounds.tau:.6g}"
        except TritailError as e:
            bounds, bounds_note = None, f"bounds unavailable: {e}"
        coupled = renewal.coupled_component_constant(
            law, a2, c2, ctx.knob("s_schedule"), ctx.knob("weight_draws"),
            substream(ctx.seed, "weight"),
        )
        # The one gate on the weight: converged, and inside its bracket where one exists.
        w, se = coupled.weight, coupled.weight_std_error
        low, high = (None, None) if bounds is None else (bounds.lower - 3 * se,
                                                         bounds.upper + 3 * se)
        weight = gate("series_weight", w, low, high, std_error=se,
                      note=f"converged={coupled.converged} {bounds_note}")
        ctx.records.append(replace(weight, passed=weight.passed and bool(coupled.converged)))
        trace = coupled.trace
        ctx.write_table(
            "weight_trace.npy",
            ("s", "value", "std_error"),
            ([t.s for t in trace], [t.value for t in trace], [t.std_error for t in trace]),
        )
        ctx.add(
            name="c1_inherited",
            value=coupled.constant.c_hat,
            std_error=coupled.constant.std_error,
            passed=None,
            note="c2 * series weight; series_weight gates the weight",
        )
        _plateau_record(ctx, "c1_plateau", ctx.plateau("w1", a2),
                        reference=coupled.constant.c_hat, rel_tol=rel_tol1)
    elif rep.regime == REGIME_A1_DOMINANT:
        goldie = renewal.first_component_constant(
            law, a1, a2, ctx.head(draws), substream(ctx.seed, "c1")
        )
        ctx.add(
            name="c1_renewal",
            value=goldie.c_hat,
            std_error=goldie.std_error,
            passed=None,
            note=f"m_alpha={goldie.m_alpha:.6g} cramer_residual={goldie.cramer_residual:.3g}",
        )
        ctx.add(
            name="c1_flat_prefactor",
            value=goldie.naive_value,
            passed=None,
            note="literal 2/alpha1 prefactor; informational — plateau adjudicates",
        )
        _plateau_record(ctx, "c1_plateau", ctx.plateau("w1", a1),
                        reference=goldie.c_hat, rel_tol=rel_tol1)
    else:
        ctx.add(name="c1_skipped", value=None, passed=None,
                note=f"regime {rep.regime}: no first-component constant defined")


def _write_angular(ctx: _Ctx, filename: str, ang: spectral.AngularSample) -> None:
    names = tuple(f"theta{j + 1}" for j in range(ang.dim)) + ("weight",)
    ctx.write_table(filename, names, (*ang.points.T, ang.weights))


def _step_spectral(ctx: _Ctx) -> None:
    rep = ctx.regime()
    a1, a2 = rep.alpha1.alpha, rep.alpha2.alpha
    law = ctx.cfg.law
    sample = ctx.sample()
    u_quantile = ctx.knob("u_quantile")
    ks_bound = ctx.knob("ks_bound")
    n_limit = ctx.knob("limit_draws")

    if rep.regime == REGIME_A2_DOMINANT:
        h = _by_step(ctx.knob("h"), "spectral_cross_feed")
        ang = spectral.angular_measure_threshold(sample, u_quantile, h)
        _write_angular(ctx, "angular.npy", ang)
        cond = spectral.conditional_exceedance_windows(sample, h, u_quantile)
        limit = spectral.spectral_process_draws(
            law, a2, h, n_limit, ang, substream(ctx.seed, "limit"), alpha1=a1
        )
        for fname, stat in spectral.forward_limit_ks(cond.windows, limit.path, limit.y0).items():
            ctx.records.append(gate(f"ks_{fname}", stat, 0.0, ks_bound,
                                    note=f"exceedances={cond.n_exceedances}"))
        m = min(len(limit), 10_000)
        paths = limit.y0[:m, None, None] * limit.path[:m]
        ctx.write_table(
            "spectral_draws.npy",
            ("draw_id", "t", "y1", "y2"),
            (np.repeat(np.arange(m), h), np.tile(np.arange(1, h + 1), m),
             paths[:, :, 0].ravel(), paths[:, :, 1].ravel()),
        )
    elif rep.regime == REGIME_A1_DOMINANT:
        h = _by_step(ctx.knob("h"), "spectral_own_tail")
        for component, alpha_i in ((1, a1), (2, a2)):
            weighted = spectral.componentwise_spectral(
                law, alpha_i, h, n_limit,
                substream(ctx.seed, f"xi_{component}"), component=component,
            )
            thresholded = spectral.window_angles(sample, component, h, u_quantile)
            stat = spectral.angular_ks(weighted, thresholded)
            ctx.records.append(gate(f"ks_angular_w{component}", stat, 0.0, ks_bound,
                                    note=f"h={h} exceedances={thresholded.n_exceedances}"))
            if component == 1:
                _write_angular(ctx, "angular.npy", weighted)
    else:
        ctx.add(name="spectral_skipped", value=None, passed=None,
                note=f"regime {rep.regime}: no spectral construction defined")


def _step_garch_verify(ctx: _Ctx) -> None:
    path = ctx.sample()
    params = ctx.cfg.law.params
    rep = ctx.regime()
    verify = verify_tail_relations(
        params,
        rep,
        substream(ctx.seed, "verify"),
        path,
        se_mult=ctx.knob("se_mult"),
        rel_tol=_by_step(ctx.knob("c2_rel_tol"), "garch_verify"),
        k=ctx.knob("hill_k"),
        k_x=ctx.knob("hill_k_x"),
        constant_draws=ctx.knob("constant_draws"),
        dispersion_max=ctx.knob("dispersion_max"),
    )
    # A run with no solve-index step (the standalone garch_verify pipeline)
    # reports the roots and regime here.  Every record is prefixed, so a full
    # report keeps unique names (diff matches records by name).
    if "solve_index" not in ctx.steps:
        ctx.add(name="verify_alpha1", value=rep.alpha1.alpha, note="quadrature root")
        ctx.add(name="verify_alpha2", value=rep.alpha2.alpha, note="quadrature root")
        ctx.add(name="verify_regime", note=rep.regime)
    ctx.records.extend(replace(r, name=f"verify_{r.name}") for r in verify)

    spect = return_spectral_check(
        params,
        rep,
        _by_step(ctx.knob("h"), "garch_verify"),
        substream(ctx.seed, "garch_spectral"),
        path,
        u_quantile=ctx.knob("u_quantile"),
        n_limit=ctx.knob("limit_draws"),
        ks_bound=ctx.knob("ks_bound"),
    )
    ctx.records.extend(replace(r, name=f"spectral_{r.name}") for r in spect)


def _crossval_stride(ctx: _Ctx) -> int:
    """Kept states from one forward state the cross-validation reads to the next.

    ceil(crossval_thinning / sim.thinning): at least ``crossval_thinning`` steps apart.
    """
    return -(-ctx.knob("crossval_thinning") // ctx.cfg.sim.thinning)


def _step_cross_validate(ctx: _Ctx) -> None:
    """Forward vs backward marginals (independent laws only).

    The forward side is the stationary sample the other steps read, heavily
    thinned: every :func:`_crossval_stride`-th kept state of each chain, so
    consecutive ones are nearly independent — the KS p-value assumes i.i.d.
    samples, and raw chain output would fail that assumption, not the
    distributional claim.  It takes the first ``crossval_draws`` of them, or
    all the sample holds when that is fewer: the note gives both sides' n.
    """
    n, stride = ctx.knob("crossval_draws"), _crossval_stride(ctx)
    sample = ctx.sample()
    back = ctx.read("cross_validate")
    level = ctx.knob("ks_level")
    for name in ("w1", "w2"):
        fwd = sample.strided(name, stride, n)
        stat, pvalue = tailstats.ks_2sample(fwd, back.series(name))
        ctx.records.append(gate(f"crossval_{name}_pvalue", pvalue, level,
                                note=f"ks_stat={stat:.4g} n_forward={fwd.size} n_backward={n} "
                                     f"stride={stride}"))
        # No later step reads this store: free it before the spectral step's peak.
        del sample.strides[(name, stride)]


def _plan_simulate(ctx: _Ctx) -> Plan:
    stored = garch.STORED if ctx.is_garch() else ctx.pair
    return Plan(tails={s: ctx.depth(s) for s in ctx.pair}, sums=frozenset(ctx.pair),
                strides={(s, 1): ctx.knob("csv_rows") for s in stored})


def _plan_tails(ctx: _Ctx) -> Plan:
    return Plan(tails={s: ctx.depth(s) for s in ctx.pair})


def _plan_constants(ctx: _Ctx) -> Plan:
    # c1 reads the first states of both coordinates only in the A1 regime.
    first = ("w1", "w2") if ctx.regime().regime == REGIME_A1_DOMINANT else ("w2",)
    return Plan(tails={s: ctx.depth(s) for s in ("w1", "w2")},
                strides={(s, 1): ctx.knob("constant_draws") for s in first})


def _plan_spectral(ctx: _Ctx) -> Plan:
    regime, u = ctx.regime().regime, ctx.knob("u_quantile")
    if regime == REGIME_A2_DOMINANT:
        specs = [spectral.norm_spec(u, _by_step(ctx.knob("h"), "spectral_cross_feed"))]
    elif regime == REGIME_A1_DOMINANT:
        h = _by_step(ctx.knob("h"), "spectral_own_tail")
        specs = [spectral.window_spec(component, h, u) for component in (1, 2)]
    else:
        specs = []
    return Plan(exceedances=frozenset(specs))


def _plan_cross_validate(ctx: _Ctx) -> Plan:
    stride = _crossval_stride(ctx)
    return Plan(strides={(name, stride): ctx.knob("crossval_draws") for name in ("w1", "w2")})


def _plan_garch_verify(ctx: _Ctx) -> Plan:
    verify = garch.verify_plan(ctx.cfg.sim.n_draws, ctx.knob("hill_k"), ctx.knob("hill_k_x"),
                               ctx.knob("constant_draws"))
    h = _by_step(ctx.knob("h"), "garch_verify")
    return verify | garch.spectral_plan(ctx.regime(), h, ctx.knob("u_quantile"))


def _job_stationarity(ctx: _Ctx, pool) -> Callable:
    return _submit(pool, engine.lyapunov_estimate, ctx.cfg.law, ctx.knob("lyapunov_steps"),
                   ctx.knob("lyapunov_chains"), substream(ctx.seed, "lyapunov"))


def _job_cross_validate(ctx: _Ctx, pool) -> Callable:
    n = ctx.knob("crossval_draws")
    return _submit(pool, _backward_chunked, ctx.cfg.law, replace(ctx.cfg.sim, n_draws=n))


@dataclass(frozen=True)
class _Step:
    """One step of a pipeline: ``run(ctx)`` adds its records and artifacts.

    ``plan(ctx)`` is what the step reads of the stationary sample; the run
    plans the union over its steps and starts the sample just before the
    first step that has a plan.  Only steps with a plan read the sample.
    ``job(ctx, pool)`` is what the step computes without the sample: it is
    started with the run, resolves its inputs on the calling thread and
    returns the function that reads its result (:func:`_submit`).  The work
    it submits reads no ``_Ctx`` state and never submits to the pool.
    """

    run: Callable
    plan: Optional[Callable] = None
    job: Optional[Callable] = None


# Every step.  A pipeline other than full_report runs the one step of its name.
_STEPS = {
    "solve_index": _Step(_step_solve_index),
    "stationarity": _Step(_step_stationarity, job=_job_stationarity),
    "simulate": _Step(_step_simulate, plan=_plan_simulate),
    "tails": _Step(_step_tails, plan=_plan_tails),
    "constants": _Step(_step_constants, plan=_plan_constants),
    "cross_validate": _Step(_step_cross_validate, plan=_plan_cross_validate,
                            job=_job_cross_validate),
    "spectral": _Step(_step_spectral, plan=_plan_spectral),
    "garch_verify": _Step(_step_garch_verify, plan=_plan_garch_verify),
}

# The steps of full_report on an independent law and on a GARCH law.
_FULL_REPORT = ("solve_index", "stationarity", "simulate", "tails", "constants",
                "cross_validate", "spectral")
_GARCH_REPORT = ("solve_index", "stationarity", "simulate", "garch_verify")


def run(config: ExperimentConfig) -> RunReport:
    """Execute one pipeline and write its artifacts and report.

    Every step's failure, whatever the exception type, is captured as a
    ``passed=False`` record named ``<step>_error``; sibling steps still run.
    The report is saved as ``report.json`` in the output directory and
    returned.  An output directory that cannot be created raises
    :class:`ConfigInvalid` at ``/output_dir`` before any step runs.
    """
    t0 = time.perf_counter()
    outdir = Path(config.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigInvalid("/output_dir", f"cannot create {outdir}: {e.strerror}") from None
    if config.pipeline != "full_report":
        steps = (config.pipeline,)
    else:
        steps = _GARCH_REPORT if isinstance(config.law, GarchLaw) else _FULL_REPORT
    ctx = _Ctx(cfg=config, outdir=outdir, steps=steps, records=[], artifacts=[], cache={})
    with ThreadPoolExecutor(config.workers) if config.workers > 1 else nullcontext() as pool:
        ctx.start(pool)
        for name in steps:
            try:
                _STEPS[name].run(ctx)
            except Exception as e:
                ctx.records.append(
                    ResultRecord(
                        name=f"{name}_error",
                        value=None,
                        passed=False,
                        note=f"{type(e).__name__}: {e}",
                    )
                )
    report = RunReport(
        name=config.name,
        pipeline=config.pipeline,
        config_digest=config.digest,
        results=tuple(ctx.records),
        artifacts=tuple(ctx.artifacts),
        wall_time=time.perf_counter() - t0,
    )
    report.save(outdir / "report.json")
    return report


# ============================================================================
# Report comparison
# ============================================================================

@dataclass(frozen=True)
class DiffEntry:
    """One differing field between two reports: a number, the pass flag or the note."""

    record: str
    field: str
    a: Optional[float | str]
    b: Optional[float | str]
    status: str  # "within_tol" or "differs"

    def __str__(self) -> str:
        return f"{self.record}.{self.field}: {self.a!r} vs {self.b!r} [{self.status}]"


def _num_close(a: Optional[float], b: Optional[float], rel_tol: float) -> str:
    if a is None or b is None:
        return "identical" if a is b else "differs"
    if a == b or (math.isnan(a) and math.isnan(b)):
        return "identical"
    scale = max(abs(a), abs(b))
    if abs(a - b) <= rel_tol * max(scale, 1.0):
        return "within_tol"
    return "differs"


def compare_reports(a: RunReport, b: RunReport, rel_tol: float = 1e-9) -> list:
    """Field-by-field diff of two same-pipeline reports.

    Returns only the entries that are not exactly identical; each number is
    tagged ``within_tol`` or ``differs`` against the relative tolerance.
    Missing records and flipped pass flags always differ, a note only on a
    record with no value (a regime, a branch, a skip or an error).
    """
    if a.pipeline != b.pipeline:
        raise PipelineMismatch(f"cannot diff {a.pipeline!r} against {b.pipeline!r}")
    diffs: list = []
    a_map = {r.name: r for r in a.results}
    b_map = {r.name: r for r in b.results}
    for name in sorted(set(a_map) | set(b_map)):
        ra, rb = a_map.get(name), b_map.get(name)
        if ra is None or rb is None:
            diffs.append(DiffEntry(record=name, field="(record)",
                                   a=None if ra is None else 1.0,
                                   b=None if rb is None else 1.0,
                                   status="differs"))
            continue
        for field in ("value", "std_error", "bound_low", "bound_high"):
            status = _num_close(getattr(ra, field), getattr(rb, field), rel_tol)
            if status != "identical":
                diffs.append(DiffEntry(record=name, field=field,
                                       a=getattr(ra, field), b=getattr(rb, field),
                                       status=status))
        if ra.passed is not rb.passed:
            diffs.append(DiffEntry(record=name, field="pass",
                                   a=None if ra.passed is None else float(ra.passed),
                                   b=None if rb.passed is None else float(rb.passed),
                                   status="differs"))
        if ra.note != rb.note:
            diffs.append(DiffEntry(record=name, field="note", a=ra.note, b=rb.note,
                                   status="differs" if ra.value is None else "within_tol"))
    return diffs
