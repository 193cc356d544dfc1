"""Reductions of a chain-major sample, one group of whole chains at a time.

Every estimator that reads a stationary sample reads one of four reductions
of it:

* the upper tail of a series (:func:`tritail.tailstats.upper_tail`);
* the sum of a series, kept as one partial sum per ``SUM_SPAN`` states;
* the first states of a series (CSV rows, the constants' draws);
* the exceedances of a threshold series: its top points, enough for a high
  quantile of it, each with its position and a payload.

A :class:`Plan` lists the reductions a run reads before it samples.
:func:`reduce_group` reduces a group of consecutive whole chains, given as
an array-backed sample (:class:`tritail.engine.PathSample` or
:class:`tritail.garch.GarchPath`) and its offset in the whole sample, and
:func:`merge` combines the groups' results in group order into a
:class:`Summary`.  Each merge is exact: the top m of a union is the top m of
the union of its parts' top m, the partial sums are fixed by the spans and
not by the groups, and the first states are copied out in order.  So the
summary does not depend on how the sample is split into groups, nor on the
order in which the groups finish.

The estimators take either form: :func:`summarize` reduces an array-backed
sample as one group through the same code, as ``upper_tail`` streams an
array.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tailstats import UpperTail, block_bounds, merge_tails, tail_depth, upper_tail

__all__ = [
    "SUM_SPAN",
    "PointSpec",
    "WindowSpec",
    "Plan",
    "Exceedances",
    "Summary",
    "valid_window_starts",
    "reduce_group",
    "merge",
    "summarize",
    "exceedances",
]

SUM_SPAN = 200_000  # states per partial sum, aligned at multiples from the sample's start


@dataclass(frozen=True)
class PointSpec:
    """Points t whose norm |(a1_t, a2_t)| is above the u-quantile of that norm.

    ``anchors`` names the series pair (a1, a2).  Each point carries itself
    and the next ``h`` states of the ``after`` pair, t+1..t+h, with a flag
    that says whether they stay in its chain.
    """

    anchors: tuple
    after: tuple
    h: int
    u: float


@dataclass(frozen=True)
class WindowSpec:
    """In-chain windows (s_t, ..., s_{t+h-1}) whose norm is above its u-quantile."""

    series: str
    h: int
    u: float


@dataclass(frozen=True)
class Plan:
    """The reductions a run reads: depth of each tail, length of each prefix."""

    tails: dict = field(default_factory=dict)
    heads: dict = field(default_factory=dict)
    sums: frozenset = frozenset()
    exceedances: frozenset = frozenset()

    def __or__(self, other: "Plan") -> "Plan":
        def deepest(a, b):
            return {k: max(a.get(k, 0), b.get(k, 0)) for k in a.keys() | b.keys()}

        return Plan(
            tails=deepest(self.tails, other.tails),
            heads=deepest(self.heads, other.heads),
            sums=self.sums | other.sums,
            exceedances=self.exceedances | other.exceedances,
        )


@dataclass(eq=False)
class Exceedances:
    """The top points of a threshold series, in position order.

    ``key`` holds the threshold series at each kept ``index`` (a position in
    the whole sample); ``n`` counts every point of the series and
    ``minimum`` is its least value (NaN when it holds a NaN, +inf when it
    has no point).  ``rows`` is
    the payload: the anchor pair, (m, 2), of a :class:`PointSpec`, or the
    window, (m, h), of a :class:`WindowSpec`.  A point set also holds the
    next h states of its ``after`` pair, (m, h, 2), and ``valid``, true
    where they stay in the chain.
    """

    index: np.ndarray
    key: np.ndarray
    rows: np.ndarray
    n: int
    minimum: float
    after: Optional[np.ndarray] = None
    valid: Optional[np.ndarray] = None

    def above(self, u: float) -> tuple[float, np.ndarray]:
        """The u-quantile x of the series, as ``np.quantile``, and the rows whose key exceeds x."""
        tail = UpperTail(top=np.sort(self.key), n=self.n, minimum=self.minimum)
        x = tail.quantile(u)
        return x, np.nonzero(self.key > x)[0]

    def _take(self, sel) -> "Exceedances":
        return Exceedances(
            index=self.index[sel], key=self.key[sel], rows=self.rows[sel], n=self.n,
            minimum=self.minimum,
            after=None if self.after is None else self.after[sel],
            valid=None if self.valid is None else self.valid[sel],
        )


@dataclass(eq=False)
class Summary:
    """A sample of n states reduced to what its plan lists.

    ``sums`` keeps the partial sums of each series in span order, and
    ``heads`` the first states of each series.  Lookups of a reduction that
    was not planned raise :class:`ValueError`.
    """

    n: int
    chain_len: int
    tails: dict
    sums: dict
    heads: dict
    exceedances: dict

    def __len__(self) -> int:
        return self.n

    def _get(self, table: dict, key, what: str):
        if key not in table:
            raise ValueError(f"the reduced sample holds no {what} {key!r}")
        return table[key]

    def tail(self, name: str, depth: int) -> UpperTail:
        """The upper tail of ``name``, at least ``depth`` deep (a deeper one reads the same)."""
        tail = self._get(self.tails, name, "tail of")
        if tail.top.size < min(depth, tail.n):
            raise ValueError(f"the tail of {name!r} holds {tail.top.size} points, not {depth}")
        return tail

    def mean(self, name: str) -> float:
        return float(np.sum(self._get(self.sums, name, "sum of"))) / self.n

    def head(self, name: str, m: int) -> np.ndarray:
        """The first min(m, n) states of ``name``."""
        head = self._get(self.heads, name, "first states of")
        if head.size < min(m, self.n):
            raise ValueError(f"the reduced sample holds {head.size} first states of {name!r}, not {m}")
        return head[:m]

    def exceedance_set(self, spec) -> Exceedances:
        """The exceedances of ``spec``; a point set with h = 0 is read from any planned h."""
        if spec not in self.exceedances and isinstance(spec, PointSpec) and spec.h == 0:
            spec = next((s for s in self.exceedances if isinstance(s, PointSpec)
                         and (s.anchors, s.after, s.u) == (spec.anchors, spec.after, spec.u)), spec)
        return self._get(self.exceedances, spec, "exceedances for")


def valid_window_starts(n: int, chain_len: int, h: int, offset: int = 0) -> np.ndarray:
    """Mask of starts g whose positions g+offset .. g+offset+h-1 stay in g's chain.

    Chain-major layout: position p belongs to chain p // chain_len.  The mask
    also cuts windows that would run past the end of the (possibly short) last
    chain.  It is one chain's pattern tiled to length n, so it allocates no
    n-sized integer temporaries.
    """
    mask = np.resize(np.arange(chain_len) + offset + h <= chain_len, n)
    mask[max(0, n - offset - h + 1):] = False
    return mask


def _top_points(blocks, m: int):
    """Positions and keys of the m largest keys, from one pass over key blocks.

    ``blocks`` yields ``(lo, keys, starts)``: the keys at positions
    ``starts``, or at lo, lo+1, ... when ``starts`` is None.  As in
    :func:`tritail.tailstats.upper_tail`, once m keys are held only keys
    above the current m-th largest are merged in.  Returns the positions,
    keys, key count and least key (+inf for no keys, so that merging an
    empty part changes nothing).
    """
    count, minima = 0, []
    pos, key = np.empty(0, dtype=np.intp), np.empty(0)
    cut = None
    for lo, k, starts in blocks:
        count += k.size
        if not k.size:
            continue
        minima.append(k.min())
        keep = np.arange(k.size) if cut is None else np.nonzero(k > cut)[0]
        if keep.size:
            pos = np.concatenate((pos, lo + keep if starts is None else starts[keep]))
            key = np.concatenate((key, k[keep]))
            if key.size > m:
                top = np.argpartition(key, key.size - m)[key.size - m:]
                pos, key = pos[top], key[top]
                cut = key.min()
    return pos, key, count, float(np.min(minima)) if minima else math.inf


def _point_exceedances(spec: PointSpec, sample, m: int) -> Exceedances:
    size = len(sample)
    a1, a2 = spec.anchors
    blocks = ((lo, np.hypot(sample.series(a1, slice(lo, hi)), sample.series(a2, slice(lo, hi))),
               None) for lo, hi in block_bounds(size))
    pos, key, count, minimum = _top_points(blocks, m)
    # Past-the-end steps of windows that leave the chain are clipped; those
    # rows are flagged invalid and never read.
    steps = np.minimum(pos[:, None] + np.arange(1, spec.h + 1), size - 1)
    b1, b2 = spec.after
    return Exceedances(
        index=pos, key=key, n=count, minimum=minimum,
        rows=np.column_stack((sample.series(a1, pos), sample.series(a2, pos))),
        after=np.stack((sample.series(b1, steps), sample.series(b2, steps)), axis=2),
        valid=valid_window_starts(size, sample.chain_len, spec.h, offset=1)[pos],
    )


def _window_exceedances(spec: WindowSpec, sample, m: int) -> Exceedances:
    size, h = len(sample), spec.h
    valid = valid_window_starts(size, sample.chain_len, h)

    def blocks():
        for lo, hi in block_bounds(size):
            starts = lo + np.nonzero(valid[lo:hi])[0]
            if starts.size:
                seg = sample.series(spec.series, slice(lo, starts[-1] + h))
                yield lo, np.linalg.norm(sliding_window_view(seg, h)[starts - lo], axis=1), starts

    pos, key, count, minimum = _top_points(blocks(), m)
    return Exceedances(index=pos, key=key, n=count, minimum=minimum,
                       rows=sample.series(spec.series, pos[:, None] + np.arange(h)))


def reduce_group(plan: Plan, sample, start: int, n: int) -> Summary:
    """Reduce states [start, start + len(sample)) of an n-state sample under ``plan``.

    ``sample`` is array-backed and offers ``series(name, key)``,
    ``chain_len`` and ``len``; ``start`` is a multiple of its chain length,
    so no window crosses into another group.  Partial sums break at the
    multiples of ``SUM_SPAN``.  The first states are copied, so the group's
    arrays may be reused once this returns.
    """
    size = len(sample)
    stop = start + size
    bounds = list(block_bounds(size))
    tails = {name: upper_tail((sample.series(name, slice(lo, hi)) for lo, hi in bounds), depth)
             for name, depth in plan.tails.items()}
    cuts = sorted({start, stop, *range(-(-start // SUM_SPAN) * SUM_SPAN, stop, SUM_SPAN)})
    sums = {name: [float(np.sum(sample.series(name, slice(a - start, b - start))))
                   for a, b in zip(cuts, cuts[1:])]
            for name in plan.sums}
    heads = {name: np.array(sample.series(name, slice(0, max(0, min(size, length - start)))))
             for name, length in plan.heads.items()}
    exceed = {}
    for spec in plan.exceedances:
        reduce = _point_exceedances if isinstance(spec, PointSpec) else _window_exceedances
        ex = reduce(spec, sample, tail_depth(n, spec.u))
        ex.index = ex.index + start
        exceed[spec] = ex._take(np.argsort(ex.index, kind="stable"))
    return Summary(n=size, chain_len=sample.chain_len, tails=tails, sums=sums, heads=heads,
                   exceedances=exceed)


def _merge_exceedances(a: Exceedances, b: Exceedances, m: int) -> Exceedances:
    def cat(x, y):
        return None if x is None else np.concatenate((x, y))

    both = Exceedances(index=cat(a.index, b.index), key=cat(a.key, b.key),
                       rows=cat(a.rows, b.rows), n=a.n + b.n,
                       minimum=float(np.minimum(a.minimum, b.minimum)),
                       after=cat(a.after, b.after), valid=cat(a.valid, b.valid))
    if both.key.size <= m:
        return both
    # a precedes b and each is in position order; keep the top m in that order.
    return both._take(np.sort(np.argpartition(both.key, both.key.size - m)[both.key.size - m:]))


def merge(plan: Plan, parts, n: int) -> Summary:
    """Fold the summaries of consecutive groups of an n-state sample, given in group order.

    ``parts`` may be any iterable, so a caller can fold each group in as it
    arrives and hold no more than the running summary and one group.
    """
    acc = None
    for part in parts:
        if acc is None:
            acc = part
            continue
        acc = Summary(
            n=acc.n + part.n,
            chain_len=acc.chain_len,
            tails={name: merge_tails((acc.tails[name], part.tails[name]), depth)
                   for name, depth in plan.tails.items()},
            sums={name: acc.sums[name] + part.sums[name] for name in plan.sums},
            heads={name: np.concatenate((acc.heads[name], part.heads[name]))
                   for name in plan.heads},
            exceedances={spec: _merge_exceedances(acc.exceedances[spec], part.exceedances[spec],
                                                  tail_depth(n, spec.u))
                         for spec in plan.exceedances},
        )
    return acc


def summarize(sample, plan: Plan) -> Summary:
    """``sample`` reduced under ``plan``; a :class:`Summary` is returned as it is."""
    if isinstance(sample, Summary):
        return sample
    return reduce_group(plan, sample, 0, len(sample))


def exceedances(sample, spec) -> Exceedances:
    """The exceedance set ``spec`` of an array-backed sample or a summary."""
    return summarize(sample, Plan(exceedances=frozenset({spec}))).exceedance_set(spec)
