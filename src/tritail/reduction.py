"""Reductions of a chain-major sample, fed to them one block of steps at a time.

Every estimator that reads a stationary sample reads one of four reductions
of it:

* the upper tail of a series: its top values;
* the sum of a series, kept as one running total per chain and read as one
  partial sum per span of ``SUM_SPAN`` states (whole chains, cut from the
  sample's start);
* every stride-th kept state of each chain of a series, the first m of
  them in chain-major order: at stride 1 the first m states of the series
  (the rows of the path table, the renewal constants' draws), at a larger
  stride the forward side of the cross-validation;
* the exceedances of a threshold series: its top points, enough for a high
  quantile of it, each with its position and a payload.

Tails and exceedance sets are kept by one accumulator,
:class:`tritail.tailstats.RunningTail`: the top keys of a series, which
carry the points' payload in an exceedance set and none in a tail.

A :class:`Plan` lists the reductions a run reads before it samples, and a
:class:`Summary` holds them for the whole sample.  Every group of
consecutive whole chains writes into it through its own :class:`Reducer`
as the forward samplers produce the group: each slab's kept states arrive
as a (rows, chains) block straight from the kernel, so no chain-major copy
of the group is ever made.  A window or a point's payload reads the states
after its start, so the reducer carries each chain's last h rows into the
next block.  :func:`reduce_group` feeds an array-backed sample
(:class:`tritail.engine.PathSample` or :class:`tritail.garch.GarchPath`)
through the same reducer as the step-major view of its chains.

Nothing is merged.  Each chain's running total and strided states have
fixed places, and the accumulator is locked and keeps a top m that does not
depend on the order of its blocks (a tie at an exceedance set's cut may keep
either point, but every reader goes through :meth:`Exceedances.above`, whose
keys lie strictly above the cut).  So the summary depends neither on how the
sample is split into groups nor on the order in which the groups write.

The estimators take either form: :func:`summarize` reduces an array-backed
sample as one group through the same code, as ``upper_tail`` streams an
array.  A sampler called without a reducer gets a :class:`WholeSample`, whose
stride-1 states are the whole sample.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tailstats import RunningTail, UpperTail, block_rows, tail_depth

__all__ = [
    "SUM_SPAN",
    "PointSpec",
    "WindowSpec",
    "Plan",
    "Exceedances",
    "Summary",
    "valid_window_starts",
    "Reducer",
    "WholeSample",
    "reduce_group",
    "summarize",
    "exceedances",
]

SUM_SPAN = 200_000  # states per partial sum: whole chains, aligned from the sample's start
_PAIRWISE_TERMS = 8  # from this many terms on, numpy sums a contiguous row pairwise
_PREFILTER = 0.7  # < 1/sqrt(2): a pair whose larger |coordinate| is under 0.7 cut has norm < cut


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
    """The reductions a run reads, and the one place that states their sizes.

    ``tails`` maps a series to the depth of its tail; ``strides`` maps
    ``(series, stride)`` to the number of strided states kept
    (:meth:`Summary.strided`), so ``(series, 1)`` keeps its first states.
    """

    tails: dict = field(default_factory=dict)
    sums: frozenset = frozenset()
    exceedances: frozenset = frozenset()
    strides: dict = field(default_factory=dict)

    def __or__(self, other: "Plan") -> "Plan":
        def deepest(a, b):
            return {k: max(a.get(k, 0), b.get(k, 0)) for k in a.keys() | b.keys()}

        return Plan(
            tails=deepest(self.tails, other.tails),
            sums=self.sums | other.sums,
            exceedances=self.exceedances | other.exceedances,
            strides=deepest(self.strides, other.strides),
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


class Summary:
    """The reductions ``plan`` lists of a chain-major sample of n states.

    Every group of the sample writes into it in place through a
    :class:`Reducer`, in any order and from any thread: one
    :class:`~tritail.tailstats.RunningTail` per planned tail and one, whose
    keys carry the points' payload, per exceedance set, one running total
    per chain and series and the strided states at their chain-major
    positions.  It is read once every group is in.  Lookups of a reduction
    that was not planned raise :class:`ValueError`.
    """

    def __init__(self, plan: Plan, n: int, chain_len: int):
        self.n, self.chain_len = n, chain_len
        self.tails = {name: RunningTail(depth) for name, depth in plan.tails.items()}
        self.totals = {name: np.zeros(-(-n // chain_len)) for name in plan.sums}
        self.tops = {spec: RunningTail(tail_depth(n, spec.u), _payload(spec))
                     for spec in plan.exceedances}
        self.strides = {key: np.empty(min(m, _strided_count(n, chain_len, key[1])))
                        for key, m in plan.strides.items()}
        self._sets = {}

    def __len__(self) -> int:
        return self.n

    def _get(self, table: dict, key, what: str):
        if key not in table:
            raise ValueError(f"the reduced sample holds no {what} {key!r}")
        return table[key]

    def tail(self, name: str) -> UpperTail:
        """The upper tail of ``name``, as deep as the plan asked."""
        return self._get(self.tails, name, "tail of").tail()

    @property
    def sums(self) -> dict:
        """The partial sums of each series, one per span of whole chains from the sample's start."""
        spans = max(1, SUM_SPAN // self.chain_len)
        return {name: [float(np.sum(total[a : a + spans])) for a in range(0, total.size, spans)]
                for name, total in self.totals.items()}

    def mean(self, name: str) -> float:
        return float(np.sum(self._get(self.sums, name, "sum of"))) / self.n

    def head(self, name: str, m: int) -> np.ndarray:
        """The first min(m, n) states of ``name``: its strided states at stride 1."""
        return self.strided(name, 1, m)

    def strided(self, name: str, stride: int, m: int) -> np.ndarray:
        """Every stride-th kept state of each chain of ``name``: the first m, chain-major.

        These are kept states stride, 2 stride, ... (counted from 1) of each
        chain.  A chain of L states holds floor(L / stride) of them, so the
        sample holds ``_strided_count`` in all; when that is under m, all of
        them.
        """
        states = self._get(self.strides, (name, stride), "strided states of")
        if states.size < min(m, _strided_count(self.n, self.chain_len, stride)):
            raise ValueError(f"the reduced sample holds {states.size} strided states of "
                             f"{name!r}, not {m}")
        return states[:m]

    def exceedance_set(self, spec) -> Exceedances:
        """The exceedances of ``spec``, which the plan must name."""
        if spec not in self._sets:
            top = self._get(self.tops, spec, "exceedances for")
            order = np.argsort(top.fields["index"], kind="stable")
            self._sets[spec] = Exceedances(key=top.key[order], n=top.n, minimum=top.minimum,
                                           **{f: v[order] for f, v in top.fields.items()})
        return self._sets[spec]


def _payload(spec) -> dict:
    """The empty payload of ``spec``'s points, named as the fields of :class:`Exceedances`."""
    point = isinstance(spec, PointSpec)
    fields = {"index": np.empty(0, dtype=np.intp), "rows": np.empty((0, 2 if point else spec.h))}
    if point:
        fields.update(after=np.empty((0, spec.h, 2)), valid=np.empty(0, dtype=bool))
    return fields


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


def _strided_count(n: int, chain_len: int, stride: int) -> int:
    """Kept states stride, 2 stride, ... of every chain of an n-state chain-major sample."""
    full, rem = divmod(n, chain_len)
    return full * (chain_len // stride) + rem // stride


def _arrays(sample, fn):
    """``sample`` with ``fn`` applied to each of its stored arrays."""
    return replace(sample, **{name: fn(getattr(sample, name)) for name in sample.STORED})


def _rows(block) -> int:
    """The rows of a (rows, chains) block."""
    return getattr(block, block.STORED[0]).shape[0]


def _join(a, b):
    """The rows of block ``a`` followed by those of block ``b``, as one block."""
    return replace(a, **{name: np.concatenate((getattr(a, name), getattr(b, name)))
                         for name in a.STORED})


def _store(dst: np.ndarray, chain_len: int, c0: int, j: int, block: np.ndarray) -> None:
    """Write kept states ``j..`` of chains ``c0..`` into the chain-major states ``dst``.

    ``block`` rows are kept steps and its columns chains; only positions
    below ``dst.size`` are written.
    """
    full, rem = divmod(dst.size, chain_len)
    m, k = block.shape
    hi = min(c0 + k, full)
    if hi > c0:
        dst[c0 * chain_len : hi * chain_len].reshape(hi - c0, chain_len)[:, j : j + m] = \
            block[:, : hi - c0].T
    if c0 <= full < c0 + k and j < rem:
        lo = full * chain_len
        dst[lo + j : lo + min(j + m, rem)] = block[: rem - j, full - c0]


def _window_norms(x: np.ndarray, h: int) -> np.ndarray:
    """|(x_t, ..., x_{t+h-1})| for every start t of a (rows, chains) block whose window fits.

    Sums the squares in ``np.linalg.norm``'s order: one term after the
    other below eight terms, over shifted rows; from eight terms on numpy
    sums pairwise, so each window is then reduced as a contiguous row.
    """
    sq = np.square(x)
    if h >= _PAIRWISE_TERMS:
        return np.sqrt(np.add.reduce(np.ascontiguousarray(sliding_window_view(sq, h, axis=0)),
                                     axis=-1))
    starts = x.shape[0] - h + 1
    acc = sq[:starts] if h == 1 else sq[:starts] + sq[1 : starts + 1]
    for i in range(2, h):
        acc += sq[i : i + starts]
    return np.sqrt(acc, out=acc)


def _all(shape) -> tuple:
    """Row and column indices of every element of a 2-d array, in C order."""
    return tuple(np.indices(shape).reshape(2, -1))


class Reducer:
    """Feeds ``size`` consecutive states of a chain-major sample into its ``summary``.

    The states are whole chains of the summary's chain length from
    position ``start`` of the sample (a multiple of the chain length); only
    the last chain may be shorter.  They arrive step-major through
    :meth:`feed`, and the reducer writes their reductions into the
    :class:`Summary` in place.  It holds only its lanes, its first chain's
    place in the sample and the last h rows of each chain for the
    exceedance sets: no array sized by the group's states.
    """

    def __init__(self, summary: Summary, size: int, start: int = 0):
        self._summary, self.size = summary, size
        self._chain0 = start // summary.chain_len
        full, rem = divmod(size, summary.chain_len)
        # Lanes: (first chain, chains, kept states per chain) of chains that end together.
        self._lanes = [lane for lane in ((0, full, summary.chain_len), (full, 1, rem))
                       if lane[1] and lane[2]]
        self._carry = {}

    def feed(self, j: int, block, chain0: int = 0) -> None:
        """Reduce kept states j, j+1, ... of chains chain0, chain0+1, ...

        ``block`` is array-backed like a sample (``series(name, key)``) but
        holds (rows, chains) arrays: row i is kept state j+i of each chain,
        and rows of a chain past its end are ignored.  Each call covers
        whole lanes (the full chains, or the short last one), and each
        lane's rows arrive in order.
        """
        rows, width = getattr(block, block.STORED[0]).shape
        for c0, chains, length in self._lanes:
            r = min(rows, length - j)
            if not chain0 <= c0 < chain0 + width or r <= 0:
                continue
            lo = c0 - chain0
            part = _arrays(block, lambda a: a[:r, lo : lo + chains])
            self._feed_lane(self._chain0 + c0, chains, length, j, part)

    def _feed_lane(self, c0: int, chains: int, length: int, j: int, part) -> None:
        """Reduce kept states j, j+1, ... of chains c0, c0+1, ... of the sample."""
        r, s = _rows(part), self._summary
        for name, acc in s.tails.items():
            acc.add(part.series(name))
        for name, total in s.totals.items():
            col = total[c0 : c0 + chains]
            for row in part.series(name):
                np.add(col, row, out=col)
        for (name, stride), states in s.strides.items():
            # Kept state i*stride + stride - 1 of a chain is its strided state i.
            first = (stride - 1 - j) % stride
            if states.size and first < r:
                _store(states, s.chain_len // stride, c0, (j + first) // stride,
                       part.series(name)[first::stride])
        base = c0 * s.chain_len
        for spec, top in s.tops.items():
            point = isinstance(spec, PointSpec)
            w = spec.h if point else spec.h - 1  # rows after a start that its span reads
            carry = self._carry.pop((c0, spec), None)
            c = 0 if carry is None else _rows(carry)
            # Starts whose span is at hand: those in the carry, then those in the part.
            if c and c + r > w:
                seg = _join(carry, _arrays(part, lambda a: a[:w]))
                self._exceed(spec, top, seg, min(c, c + r - w), base + j - c, True)
            if r > w:
                self._exceed(spec, top, part, r - w, base + j, True)
            if not w:
                continue
            pending = part if carry is None or r >= w else _join(carry, part)
            carry = _arrays(pending, lambda a: a[max(0, a.shape[0] - w):].copy())
            if j + r < length:
                self._carry[(c0, spec)] = carry
            elif point:
                # The chain's last rows: their next h states leave the chain.
                c = _rows(carry)
                pad = _arrays(carry, lambda a: np.concatenate((a, np.full((w, a.shape[1]),
                                                                            np.nan))))
                self._exceed(spec, top, pad, c, base + length - c, False)

    def _exceed(self, spec, top: RunningTail, seg, starts: int, pos0: int, valid: bool) -> None:
        """Offer the spans that start in the first ``starts`` rows of ``seg``.

        Row 0 of ``seg`` is at position ``pos0`` of the sample.
        """
        L = self._summary.chain_len
        cut, least = top.cut, top.minimum  # read unlocked: the cut only rises, the least only falls
        if isinstance(spec, PointSpec):
            a1, a2 = (seg.series(name, slice(0, starts)) for name in spec.anchors)
            count, low = a1.size, math.inf
            if cut is None:
                key = np.hypot(a1, a2)
                low = key.min()
                ri, ci = _all(key.shape)
                key = key.reshape(-1)
            else:
                # hypot(a, b) <= sqrt(2) max(|a|, |b|): a point whose larger
                # coordinate is at most 0.7 cut is below the cut, and one not
                # below the least key cannot lower it.
                mx = np.abs(a1)
                np.maximum(mx, np.abs(a2), out=mx)
                if not mx.min() >= least:  # a NaN fails this too
                    lo = np.nonzero(~(mx >= least))
                    low = np.hypot(a1[lo], a2[lo]).min()
                ri, ci = np.nonzero(mx > _PREFILTER * cut)
                key = np.hypot(a1[ri, ci], a2[ri, ci])
                keep = key > cut
                ri, ci, key = ri[keep], ci[keep], key[keep]

            def gather(sel):
                r, c = ri[sel], ci[sel]
                steps = r[:, None] + np.arange(1, spec.h + 1)
                return {
                    "index": pos0 + c * L + r,
                    "rows": np.column_stack((a1[r, c], a2[r, c])),
                    "after": np.stack([seg.series(b, (steps, c[:, None])) for b in spec.after],
                                      axis=2),
                    "valid": np.full(r.size, valid),
                }
        else:
            x = seg.series(spec.series, slice(0, starts + spec.h - 1))
            key = _window_norms(x, spec.h)
            count, low = key.size, key.min()
            ri, ci = _all(key.shape) if cut is None else np.nonzero(key > cut)
            key = key[ri, ci]

            def gather(sel):
                r, c = ri[sel], ci[sel]
                return {"index": pos0 + c * L + r,
                        "rows": x[r[:, None] + np.arange(spec.h), c[:, None]]}

        top.offer(count, low, key, gather)

    def summary(self) -> Summary:
        """The summary the reducer writes into, whole once every group of the sample is in."""
        return self._summary


class WholeSample(Reducer):
    """Gathers a whole n-state sample of ``cls`` from its step-major blocks.

    The sample's ``cls.STORED`` arrays are all n stride-1 states of each
    series; :meth:`summary` returns them as a ``cls`` whose one other field
    is ``chain_len``.
    """

    def __init__(self, cls, n: int, chain_len: int):
        plan = Plan(strides={(name, 1): n for name in cls.STORED})
        super().__init__(Summary(plan, n, chain_len), n)
        self._cls = cls

    def summary(self):
        s = self._summary
        return self._cls(**{name: s.strides[(name, 1)] for name in self._cls.STORED},
                         chain_len=s.chain_len)


def reduce_group(summary: Summary, sample, start: int) -> None:
    """Feed states [start, start + len(sample)) of a sample into its ``summary``.

    ``sample`` is array-backed: a dataclass whose ``STORED`` fields are its
    stored series (flat and chain-major), offering ``series(name, key)``,
    ``chain_len`` and ``len``; ``start`` is a multiple of its chain length.
    Its full chains are fed to a :class:`Reducer` as the step-major view
    ``flat.reshape(chains, chain_len).T``, in blocks of rows, and the
    trimmed last chain after them.
    """
    size, L = len(sample), sample.chain_len
    reducer = Reducer(summary, size, start)
    full, rem = divmod(size, L)
    if full:
        steps = _arrays(sample, lambda a: a[: full * L].reshape(full, L).T)
        rows = block_rows(full)
        for j in range(0, L, rows):
            reducer.feed(j, _arrays(steps, lambda a: a[j : j + rows]))
    if rem:
        last = _arrays(sample, lambda a: a[full * L : size].reshape(1, rem).T)
        reducer.feed(0, last, chain0=full)


def summarize(sample, plan: Plan) -> Summary:
    """``sample`` reduced under ``plan``; a :class:`Summary` is returned as it is."""
    if isinstance(sample, Summary):
        return sample
    summary = Summary(plan, len(sample), sample.chain_len)
    reduce_group(summary, sample, 0)
    return summary


def exceedances(sample, spec) -> Exceedances:
    """The exceedance set ``spec`` of an array-backed sample or a summary."""
    return summarize(sample, Plan(exceedances=frozenset({spec}))).exceedance_set(spec)
