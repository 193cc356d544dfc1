"""Tail-index and tail-constant estimation from samples, plus KS helpers.

The estimators are deliberately standard: Hill for the index, the
x^alpha * CCDF plateau for the constant, and a weighted two-sample Kolmogorov
distance used by the spectral comparisons.

Hill and the plateau read only the top order statistics, so both take an
:class:`UpperTail`: the sorted top m values of a series and its length, from
one streaming pass (a :class:`RunningTail` fed block by block, or
:func:`upper_tail` over fixed blocks of an array).  A run builds one tail per
series, deep enough for every estimator and quantile that reads it, from the
sampler's slabs as they are drawn, so no series of a run is materialised;
passing a plain array builds one through the same pass.  :class:`RunningTail`
is the one top-m accumulator of the package: a run's exceedance sets
(:mod:`tritail.reduction`) are the same accumulator with a payload per key.
"""

import math
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import special

from .errors import DegenerateTail, EmptyTail

__all__ = [
    "UpperTail",
    "TailEstimate",
    "TailConstantEstimate",
    "block_rows",
    "RunningTail",
    "upper_tail",
    "tail_depth",
    "estimator_depth",
    "hill",
    "default_hill_k",
    "tail_constant",
    "ks_distance",
    "ks_2sample",
]

_BLOCK = 1 << 18  # elements per block of the streaming pass, about 2 MB
_PLATEAU_RANGE = (0.999, 0.9999)


@dataclass(frozen=True)
class TailEstimate:
    alpha_hat: float
    std_error: float
    k: int
    n: int
    estimator: str
    threshold: float


@dataclass(eq=False)
class TailConstantEstimate:
    """Plateau estimate of c in P(X > x) ~ c x^-alpha.

    ``plateau_values[i] = x_grid[i]**alpha * ccdf(x_grid[i])``; ``c_hat`` is
    their median and ``dispersion`` the IQR over the median (large dispersion
    means there is no plateau, i.e. alpha is off or the tail is not there yet).
    """

    c_hat: float
    x_grid: np.ndarray
    plateau_values: np.ndarray
    dispersion: float
    alpha: float
    n: int


@dataclass(frozen=True, eq=False)
class UpperTail:
    """The top order statistics of an n-point series.

    ``top`` holds the largest ``top.size`` values in ascending order, so
    ``top[-1]`` is the maximum and ``top[i]`` the order statistic of rank
    ``n - top.size + i``.  ``minimum`` is the sample minimum (NaN when the
    series holds a NaN), which is all the sign and NaN checks need.
    """

    top: np.ndarray
    n: int
    minimum: float

    def quantile(self, q: float) -> float:
        """``np.quantile(series, q)``, linear method, bit for bit.

        The same arithmetic as numpy: virtual index v = (n-1)q, its floor and
        fractional part gamma, and the two-sided lerp.  Raises
        :class:`ValueError` when the tail is too shallow for q
        (see :func:`tail_depth`).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        if self.n == 0:
            raise ValueError("quantile of an empty series")
        if math.isnan(self.minimum):
            return math.nan
        v = (self.n - 1) * q
        if v >= self.n - 1:
            # numpy reads the top point at index -1 and takes gamma against -1.
            lo = hi = self.n - 1
            gamma = v + 1
        else:
            lo = math.floor(v)
            hi, gamma = lo + 1, v - lo
        first = self.n - self.top.size
        if lo < first:
            raise ValueError(f"a tail of {self.top.size} points cannot give the {q} quantile")
        a, b = float(self.top[lo - first]), float(self.top[hi - first])
        diff = b - a
        if gamma >= 0.5:
            return b - diff * (1 - gamma)
        return a + diff * gamma


def block_rows(width: int) -> int:
    """Rows per block of a (rows, width) array walked in blocks of about ``_BLOCK`` elements."""
    return max(1, _BLOCK // width)


class RunningTail:
    """The running top m keys of a series fed one block at a time, in any order.

    ``n`` counts every point of the series and ``minimum`` is its least key
    (NaN when one is NaN, +inf for no point).  Once m keys are held, ``cut``
    is the m-th largest and only keys above it can enter.  Ties at the cut
    leave the top m keys unchanged, so the top m of a series does not depend
    on the order of its blocks.  Each key may carry a payload: ``fields``
    maps a name to an empty array whose rows are its points' values (their
    position in the sample, say), gathered only for keys that enter the top
    m; a tail has none.  :meth:`add` and :meth:`offer` hold a lock, so the
    groups of a sample may feed one accumulator from several threads.
    """

    def __init__(self, m: int, fields: Optional[dict] = None):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.m = m
        self.n = 0
        self.minimum = math.inf
        self.cut = None
        self.key = np.empty(0)
        self.fields = fields or {}
        self._lock = threading.Lock()

    def add(self, block: np.ndarray) -> None:
        """Merge in the values of a float block of any shape, as keys with no payload.

        A block that arrives before there is a cut is taken m values at a
        time, so at most 2m keys are held at once; after that only its
        values above the cut are offered.
        """
        if not block.size:
            return
        low = block.min()
        with self._lock:
            self._count(block.size, low)
            if self.cut is not None:
                self._offer(block[block > self.cut])
                return
            for lo in range(0, block.size, self.m):
                piece = block.flat[lo : lo + self.m]
                self._offer(piece if self.cut is None else piece[piece > self.cut])

    def offer(self, count: int, low: float, key: np.ndarray, gather) -> None:
        """Count ``count`` more points, whose least key is ``low``, and offer candidate keys.

        The candidates passed the cut the feeder read, which is never above
        the current one.  ``gather(sel)`` returns the fields of candidates
        ``sel`` as a dict of arrays.
        """
        with self._lock:
            self._count(count, low)
            self._offer(key, gather)

    def _count(self, count: int, low: float) -> None:
        self.n += count
        self.minimum = float(np.minimum(self.minimum, low))

    def _offer(self, key: np.ndarray, gather=lambda sel: {}) -> None:
        """Merge the 1-d candidate ``key`` into the top m.

        Once m points are held, an entering point takes the slot of one it
        evicts.
        """
        if not key.size:
            return
        held = self.key.size
        both = np.concatenate((self.key, key))
        if both.size <= self.m:
            old, new = np.arange(held), np.arange(key.size)
        else:
            top = np.argpartition(both, both.size - self.m)[both.size - self.m:]
            self.cut = both[top[0]]
            if held == self.m:
                kept = np.zeros(both.size, dtype=bool)
                kept[top] = True
                new = np.nonzero(kept[held:])[0]
                if new.size:
                    slots = np.nonzero(~kept[:held])[0]
                    fresh = gather(new)
                    self.key[slots] = key[new]
                    for f, v in self.fields.items():
                        v[slots] = fresh[f]
                return
            old, new = top[top < held], top[top >= held] - held
        fresh = gather(new)
        self.key = np.concatenate((self.key[old], key[new]))
        self.fields = {f: np.concatenate((v[old], fresh[f])) for f, v in self.fields.items()}

    def tail(self) -> UpperTail:
        """The series' :class:`UpperTail`: its top min(m, n) values, n and minimum."""
        return UpperTail(top=np.sort(self.key), n=self.n,
                         minimum=self.minimum if self.n else math.nan)


def upper_tail(series, m: int) -> UpperTail:
    """The top m values of the array ``series`` from one streaming pass.

    The array is walked in fixed blocks of ``_BLOCK`` elements through a
    :class:`RunningTail`.  Fewer than m points give the whole sorted series.
    """
    acc = RunningTail(m)
    x = np.asarray(series, dtype=float).reshape(-1)
    for lo in range(0, x.size, _BLOCK):
        acc.add(x[lo:lo + _BLOCK])
    return acc.tail()


def tail_depth(n: int, q: float) -> int:
    """How many top order statistics the q-quantile of an n-point series reads."""
    return n - min(math.floor((n - 1) * q), n - 1)


def estimator_depth(n: int, k: int) -> int:
    """Tail depth for Hill at k, the default plateau and the 0.999 quantile."""
    return max(k + 1, tail_depth(n, _PLATEAU_RANGE[0]))


def _positive_tail(sample, depth) -> UpperTail:
    """``sample`` as a tail; an array is streamed at ``depth(n)`` points."""
    if isinstance(sample, UpperTail):
        tail = sample
    else:
        x = np.asarray(sample, dtype=float).reshape(-1)
        tail = upper_tail(x, max(1, depth(x.size)))
    if tail.n < 3:
        raise ValueError("sample too small")
    if not tail.minimum > 0:
        raise ValueError("sample must be strictly positive")
    return tail


def default_hill_k(n: int) -> int:
    """Bias/variance compromise: floor(n^0.6) capped at n/10."""
    return max(2, min(int(n**0.6), n // 10))


def hill(sample, k: int = 0) -> TailEstimate:
    """Hill estimator from the top k order statistics.

    alpha_hat = k / sum_{i=1..k} log(X_(n-i+1) / X_(n-k)), std error
    alpha_hat / sqrt(k).  ``k=0`` selects :func:`default_hill_k`.  Scale
    invariant by construction.  ``sample`` is an :class:`UpperTail` at least
    k+1 deep, or an array, which is streamed to that depth.
    """
    tail = _positive_tail(sample, lambda n: (k or default_hill_k(n)) + 1)
    n = tail.n
    if k == 0:
        k = default_hill_k(n)
    if not (2 <= k < n):
        raise ValueError(f"k must satisfy 2 <= k < n, got k={k}, n={n}")
    if tail.top.size <= k:
        raise ValueError(f"a tail of {tail.top.size} points cannot give Hill at k={k}")
    threshold = tail.top[-k - 1]
    denom = float(np.log(tail.top[-k:]).sum() - k * math.log(threshold))
    if denom <= 0.0:
        raise DegenerateTail("top order statistics are tied; no tail information")
    alpha_hat = k / denom
    return TailEstimate(
        alpha_hat=alpha_hat,
        std_error=alpha_hat / math.sqrt(k),
        k=k,
        n=n,
        estimator="hill",
        threshold=float(threshold),
    )


def tail_constant(
    sample,
    alpha: float,
    quantile_range: tuple[float, float] = _PLATEAU_RANGE,
    grid_points: int = 25,
) -> TailConstantEstimate:
    """Estimate the tail constant via the x^alpha * CCDF plateau.

    Evaluates x^alpha * P_hat(X > x) on a log-spaced grid between the two
    empirical quantiles.  The median (not the mean) defines ``c_hat`` so the
    noisiest extreme-threshold grid points cannot drag the estimate.
    ``sample`` is an :class:`UpperTail` deep enough for the lower quantile,
    or an array, which is streamed to that depth.
    """
    lo, hi = quantile_range
    if not (0.5 <= lo < hi < 1.0):
        raise ValueError("quantile_range must satisfy 0.5 <= lo < hi < 1")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")
    sample = _positive_tail(sample, lambda n: tail_depth(n, lo))
    n = sample.n
    x_lo, x_hi = sample.quantile(lo), sample.quantile(hi)
    # Every grid point is >= x_lo, so the points above x_lo give the same
    # exceedance counts as the whole sample.
    tail = sample.top[sample.top > x_lo]
    if tail.size < 50:
        raise EmptyTail(f"only {tail.size} sample points above the {lo} quantile")
    if not x_hi > x_lo:
        raise DegenerateTail("tail quantiles are tied")
    grid = np.geomspace(x_lo, x_hi, grid_points)
    plateau = grid**alpha * ((tail.size - np.searchsorted(tail, grid, side="right")) / n)
    q25, med, q75 = np.percentile(plateau, [25.0, 50.0, 75.0])
    return TailConstantEstimate(
        c_hat=float(med),
        x_grid=grid,
        plateau_values=plateau,
        dispersion=float((q75 - q25) / med),
        alpha=alpha,
        n=n,
    )


def ks_distance(a, b, weights_a=None, weights_b=None) -> float:
    """Two-sample Kolmogorov distance sup_x |F_a(x) - F_b(x)|, optionally weighted.

    Weights are normalized internally; uniform when omitted.  Unweighted, the
    distance equals the statistic of ``scipy.stats.ks_2samp(a, b,
    method="asymp")`` bit for bit.  NaN when either sample holds a NaN.  This
    is the raw distance (for fixed-threshold gates); use :func:`ks_2sample`
    when a significance level is wanted.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.size == 0 or b.size == 0:
        raise ValueError("samples must be nonempty")

    def _sorted(sample, weights):
        """The sample in ascending order and its normalized cumulative weights, or None."""
        if weights is None:
            return np.sort(sample), None
        order = np.argsort(sample, kind="stable")
        w = np.asarray(weights, dtype=float).reshape(-1)[order]
        if (w < 0).any() or w.sum() <= 0:
            raise ValueError("weights must be nonnegative and not all zero")
        return sample[order], np.cumsum(w) / w.sum()

    (sa, cum_a), (sb, cum_b) = _sorted(a, weights_a), _sorted(b, weights_b)
    # A sort puts NaN last, so the largest value is NaN exactly when a sample holds one.
    if math.isnan(sa[-1]) or math.isnan(sb[-1]):
        return math.nan
    # Two sorted runs: searchsorted walks them far faster than shuffled points.
    pool = np.concatenate([sa, sb])

    def _cdf(s, cum):
        idx = np.searchsorted(s, pool, side="right")
        return idx / s.size if cum is None else np.where(idx > 0, cum[idx - 1], 0.0)

    return float(np.abs(_cdf(sa, cum_a) - _cdf(sb, cum_b)).max())


def ks_2sample(a, b) -> tuple[float, float]:
    """Unweighted two-sample KS statistic and its asymptotic p-value.

    The statistic is :func:`ks_distance`.  The p-value is Kolmogorov's
    limiting law at sqrt(n1 n2 / (n1 + n2)) D (Smirnov 1948), not the
    finite-n law of ``scipy.stats.kstwo``, and it runs high against that law.
    At an effective size n1 n2 / (n1 + n2) of 50 a true 0.05 reads about
    0.057 and a true 0.001 about 0.0013; at 5x10^4 they read 0.0502 and
    0.001006.  Both are NaN when either sample holds a NaN.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    d = ks_distance(a, b)
    return d, float(special.kolmogorov(math.sqrt(a.size * b.size / (a.size + b.size)) * d))
