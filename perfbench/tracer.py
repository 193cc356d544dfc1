"""Span recorder installed around tritail's public functions from outside.

The benchmark's traced child calls :meth:`Tracer.install` before
``tritail.cli.main``.  Each entry of :data:`SPANS` names a function or method
and the span it records.  A function is wrapped under every ``tritail.*``
module attribute that holds it, which is the name its callers resolve at call
time (``tritail.pipelines.stationary_garch_sample``, ``tritail.garch.hill``,
``tritail.engine.stationary_sample`` as reached through ``pipelines.engine``);
a method is wrapped on its class.

A span is (id, name, start, end, parent, thread, c0, c1): perf_counter_ns
times since the tracer was created, the id of the enclosing span on the same
thread, and two counts taken from the call's arguments or return value.
Parents come from a thread-local stack.  A span opened on a pool thread with
an empty stack takes the main thread's innermost open span as parent, because
that span is blocked waiting for the pool.  Spans stay in memory, one flat
buffer per thread, and :meth:`Tracer.dump` writes them once, as ``.npz``,
when the run ends.
"""

import functools
import importlib
import itertools
import math
import sys
import threading
import time
from array import array

import numpy as np

FIELDS = ("id", "name", "start", "end", "parent", "c0", "c1")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _size(size) -> int:
    if size is None:
        return 1
    if isinstance(size, tuple):
        return math.prod(size)
    return int(size)


def _method_draws(args, kwargs, result):
    """Draws of ``obj.sample(rng, size)``."""
    return _size(_arg(args, kwargs, 2, "size")), 0


def _chain_plan(args, kwargs, result):
    """(chain steps, kept states) of ``sampler(params_or_law, config, rng, n_chains)``.

    Chains and per-chain length follow the samplers' documented plan: about
    one chain per thousand draws when ``n_chains`` is 0, each keeping
    ceil(n / chains) states after ``burn_in`` steps, one per ``thinning``.
    """
    config = _arg(args, kwargs, 1, "config")
    n = config.n_draws
    chains = _arg(args, kwargs, 3, "n_chains", 0)
    if chains == 0:
        chains = min(-(-n // 1000), 65536)
    chains = min(chains, n)
    per_chain = -(-n // chains)
    return chains * (config.burn_in + per_chain * config.thinning), chains * per_chain


def _points(args, kwargs, result):
    return np.asarray(_arg(args, kwargs, 0, "sample")).size, 0


def _strip_steps(args, kwargs, result):
    return _arg(args, kwargs, 3, "n") * _arg(args, kwargs, 2, "s"), 0


def _exceedances(args, kwargs, result):
    return result.n_exceedances, 0


# (span name, module, attribute path, count function or None)
SPANS = (
    ("laws.sample", "tritail.laws", "IndependentLaw.sample", _method_draws),
    ("laws.sample", "tritail.garch", "GarchLaw.sample", _method_draws),
    ("laws.lognormal", "tritail.laws", "LogNormal.sample", _method_draws),
    ("laws.constant", "tritail.laws", "Constant.sample", _method_draws),
    ("laws.solve_tail_index", "tritail.laws", "solve_tail_index", None),
    ("engine.stationary_sample", "tritail.engine", "stationary_sample", _chain_plan),
    ("engine.backward_truncated", "tritail.engine", "backward_truncated", None),
    ("engine.lyapunov_estimate", "tritail.engine", "lyapunov_estimate", None),
    ("tailstats.hill", "tritail.tailstats", "hill", _points),
    ("tailstats.tail_constant", "tritail.tailstats", "tail_constant", _points),
    ("tailstats.ks", "tritail.tailstats", "ks_2sample", None),
    ("tailstats.ks", "tritail.tailstats", "ks_distance", None),
    ("renewal.series_weight", "tritail.renewal", "series_weight", _strip_steps),
    ("renewal.constants", "tritail.renewal", "univariate_constant", None),
    ("renewal.constants", "tritail.renewal", "first_component_constant", None),
    ("renewal.constants", "tritail.renewal", "coupled_component_constant", None),
    ("renewal.constants", "tritail.renewal", "series_weight_bounds", None),
    ("spectral.angular", "tritail.spectral", "angular_measure_threshold", _exceedances),
    ("spectral.angular", "tritail.spectral", "componentwise_spectral", None),
    ("spectral.angular", "tritail.spectral", "angular_ks", None),
    ("spectral.windows", "tritail.spectral", "conditional_exceedance_windows", _exceedances),
    ("spectral.windows", "tritail.spectral", "window_angles", _exceedances),
    ("spectral.limit_draws", "tritail.spectral", "spectral_process_draws", None),
    ("garch.stationary_garch_sample", "tritail.garch", "stationary_garch_sample", _chain_plan),
    ("garch.verify_tail_relations", "tritail.garch", "verify_tail_relations", None),
    ("garch.return_spectral_check", "tritail.garch", "return_spectral_check", None),
    ("pipelines.run", "tritail.pipelines", "run", None),
    ("streams.substream", "tritail.streams", "substream", None),
    ("config.parse_config", "tritail.config", "parse_config", None),
)

SPAN_NAMES = tuple(dict.fromkeys(s[0] for s in SPANS))


class Tracer:
    def __init__(self):
        self._ids = itertools.count()
        self._thread_ids = itertools.count()
        self._buffers = []  # one (thread index, flat array) per thread
        self._t0 = time.perf_counter_ns()
        self._local = threading.local()
        self._main_stack = self._thread_state()[0]

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            buf = array("d")
            state = self._local.state = ([], buf)
            self._buffers.append((next(self._thread_ids), buf))
        return state

    def wrap(self, fn, name: str, count=None):
        name_id = float(SPAN_NAMES.index(name))
        clock = time.perf_counter_ns
        t0 = self._t0
        main_stack = self._main_stack
        thread_state = self._thread_state
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, buf = thread_state()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else -1
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                c0, c1 = count(args, kwargs, result) if count and result is not None else (0, 0)
                buf.extend((span_id, name_id, start - t0, end - t0, parent, c0, c1))

        return traced

    def install(self) -> None:
        """Wrap every entry of SPANS at each name its callers resolve."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "tritail" or k.startswith("tritail."))]
        for name, module, attr, count in SPANS:
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(getattr(cls, meth), name, count))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(original, name, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def dump(self, path) -> None:
        """Write all spans as one (n, 8) array: FIELDS plus the thread index."""
        rows = [np.column_stack((np.frombuffer(buf, dtype=float).reshape(-1, len(FIELDS)),
                                 np.full(len(buf) // len(FIELDS), float(t))))
                for t, buf in self._buffers if buf]
        spans = np.concatenate(rows) if rows else np.empty((0, len(FIELDS) + 1))
        np.savez(path, spans=spans, names=np.array(SPAN_NAMES))
