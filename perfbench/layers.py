"""Per-layer metrics derived from one traced child's spans.

"busy" is the summed duration of a span group's outermost spans (a span whose
parent belongs to the same group is not counted again); spans on the two pool
threads both count, so busy can exceed wall time.  "self" is a span's
duration minus the union of its direct children's intervals.  A ratio or a
per-unit cost over zero work reads 0: the layer was not called.
"""

import numpy as np

from tracer import FIELDS

_CHUNK_SAMPLERS = (
    "engine.stationary_sample", "engine.backward_truncated", "garch.stationary_garch_sample",
)


def _union_ns(starts: np.ndarray, ends: np.ndarray) -> float:
    """Total length covered by the intervals [starts, ends)."""
    if starts.size == 0:
        return 0.0
    order = np.argsort(starts, kind="stable")
    s, e = starts[order], ends[order]
    covered_to = np.concatenate(([-np.inf], np.maximum.accumulate(e)[:-1]))
    return float(np.clip(e - np.maximum(s, covered_to), 0.0, None).sum())


class _Spans:
    def __init__(self, spans: np.ndarray, names: list):
        self.names = names
        col = {f: spans[:, i] for i, f in enumerate(FIELDS)}
        self.ids = col["id"].astype(np.int64)
        self.name = col["name"].astype(np.int64)
        self.start, self.end = col["start"], col["end"]
        self.parent = col["parent"].astype(np.int64)
        self.c0, self.c1 = col["c0"], col["c1"]
        self.row_of_id = np.full(self.ids.max() + 1 if self.ids.size else 0, -1)
        self.row_of_id[self.ids] = np.arange(self.ids.size)
        self.kids_order = np.argsort(self.parent, kind="stable")
        self.kids_parent = self.parent[self.kids_order]
        has_parent = self.parent >= 0
        self.parent_name = np.full(self.ids.size, -1)
        self.parent_name[has_parent] = self.name[self.row_of_id[self.parent[has_parent]]]

    def mask(self, *groups) -> np.ndarray:
        ids = [self.names.index(g) for g in groups if g in self.names]
        return np.isin(self.name, ids)

    def calls(self, group) -> int:
        return int(self.mask(group).sum())

    def busy_ns(self, *groups) -> float:
        m = self.mask(*groups)
        outer = m & ~np.isin(self.parent_name, self.name[m])
        return float((self.end - self.start)[outer].sum())

    def total(self, column, *groups) -> float:
        return float(column[self.mask(*groups)].sum())

    def self_ns(self, rows) -> float:
        total = 0.0
        for r in rows:
            lo = np.searchsorted(self.kids_parent, self.ids[r], side="left")
            hi = np.searchsorted(self.kids_parent, self.ids[r], side="right")
            kids = self.kids_order[lo:hi]
            total += (self.end[r] - self.start[r]) - _union_ns(self.start[kids], self.end[kids])
        return total


def _per(numer: float, denom: float) -> float:
    return numer / denom if denom else 0.0


def layer_metrics(spans: np.ndarray, names: list, import_s: float,
                  artifact_bytes: int) -> dict:
    """Every per-layer metric of one traced child, by name."""
    sp = _Spans(spans, names)
    s = 1e-9

    tuples = sp.total(sp.c0, "laws.sample")
    lognormal_draws = sp.total(sp.c0, "laws.lognormal")
    constant_draws = sp.total(sp.c0, "laws.constant")

    fwd_rows = np.nonzero(sp.mask("engine.stationary_sample"))[0]
    fwd_steps = sp.total(sp.c0, "engine.stationary_sample")
    fwd_self = sp.self_ns(fwd_rows)
    garch_rows = np.nonzero(sp.mask("garch.stationary_garch_sample"))[0]
    garch_steps = sp.total(sp.c0, "garch.stationary_garch_sample")
    strip_steps = sp.total(sp.c0, "renewal.series_weight")

    run_rows = np.nonzero(sp.mask("pipelines.run"))[0]
    chunk = sp.mask(*_CHUNK_SAMPLERS) & np.isin(sp.parent, sp.ids[run_rows])
    chunk_busy = float((sp.end - sp.start)[chunk].sum())

    return {
        "laws.sample.calls": sp.calls("laws.sample"),
        "laws.sample.busy_s": sp.busy_ns("laws.sample") * s,
        "laws.coeff_tuples": tuples,
        "laws.ns_per_coeff_tuple": _per(sp.busy_ns("laws.sample"), tuples),
        "laws.lognormal.ns_per_draw": _per(sp.busy_ns("laws.lognormal"), lognormal_draws),
        "laws.constant.calls": sp.calls("laws.constant"),
        "laws.constant.ns_per_draw": _per(sp.busy_ns("laws.constant"), constant_draws),
        "laws.solve_tail_index.calls": sp.calls("laws.solve_tail_index"),
        "laws.solve_tail_index.busy_s": sp.busy_ns("laws.solve_tail_index") * s,
        "engine.stationary_sample.busy_s": sp.busy_ns("engine.stationary_sample") * s,
        "engine.stationary_sample.self_s": fwd_self * s,
        "engine.chain_steps": fwd_steps,
        "engine.kept_ratio": _per(sp.total(sp.c1, "engine.stationary_sample"), fwd_steps),
        "engine.ns_per_chain_step": _per(fwd_self, fwd_steps),
        "engine.backward_truncated.busy_s": sp.busy_ns("engine.backward_truncated") * s,
        "engine.lyapunov_estimate.busy_s": sp.busy_ns("engine.lyapunov_estimate") * s,
        "tailstats.hill.busy_s": sp.busy_ns("tailstats.hill") * s,
        "tailstats.tail_constant.busy_s": sp.busy_ns("tailstats.tail_constant") * s,
        "tailstats.ks.busy_s": sp.busy_ns("tailstats.ks") * s,
        "tailstats.points": sp.total(sp.c0, "tailstats.hill", "tailstats.tail_constant"),
        "renewal.series_weight.busy_s": sp.busy_ns("renewal.series_weight") * s,
        "renewal.strip_steps": strip_steps,
        "renewal.ns_per_strip_step": _per(sp.busy_ns("renewal.series_weight"), strip_steps),
        "renewal.constants.busy_s": sp.busy_ns("renewal.constants") * s,
        "spectral.angular.busy_s": sp.busy_ns("spectral.angular") * s,
        "spectral.windows.busy_s": sp.busy_ns("spectral.windows") * s,
        "spectral.limit_draws.busy_s": sp.busy_ns("spectral.limit_draws") * s,
        "spectral.exceedances": sp.total(sp.c0, "spectral.angular", "spectral.windows"),
        "garch.stationary_garch_sample.busy_s":
            sp.busy_ns("garch.stationary_garch_sample") * s,
        "garch.chain_steps": garch_steps,
        "garch.kept_ratio": _per(sp.total(sp.c1, "garch.stationary_garch_sample"), garch_steps),
        "garch.ns_per_chain_step": _per(sp.self_ns(garch_rows), garch_steps),
        "garch.verify_tail_relations.busy_s": sp.busy_ns("garch.verify_tail_relations") * s,
        "garch.return_spectral_check.busy_s": sp.busy_ns("garch.return_spectral_check") * s,
        "pipelines.run.busy_s": sp.busy_ns("pipelines.run") * s,
        "pipelines.self_s": sp.self_ns(run_rows) * s,
        "pipelines.artifact_bytes": artifact_bytes,
        "pipelines.chunks": int(chunk.sum()),
        "pipelines.chunk_overlap":
            _per(chunk_busy, _union_ns(sp.start[chunk], sp.end[chunk])),
        "streams.substreams": sp.calls("streams.substream"),
        "cli.import_s": import_s,
        "config.parse_config.busy_s": sp.busy_ns("config.parse_config") * s,
    }
