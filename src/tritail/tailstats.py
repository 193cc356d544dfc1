"""Tail-index and tail-constant estimation from samples, plus KS helpers.

Everything here is a pure function of its sample argument.  The estimators are
deliberately standard: Hill for the index, the x^alpha * CCDF plateau for the
constant, and a weighted two-sample Kolmogorov distance used by the spectral
comparisons.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import DegenerateTail, EmptyTail

__all__ = [
    "TailEstimate",
    "TailConstantEstimate",
    "hill",
    "default_hill_k",
    "tail_constant",
    "ks_distance",
    "ks_2sample",
]


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


def _positive_sample(sample) -> np.ndarray:
    x = np.asarray(sample, dtype=float).reshape(-1)
    if x.size < 3:
        raise ValueError("sample too small")
    if not (x > 0).all():
        raise ValueError("sample must be strictly positive")
    return x


def default_hill_k(n: int) -> int:
    """Bias/variance compromise: floor(n^0.6) capped at n/10."""
    return max(2, min(int(n**0.6), n // 10))


def hill(sample, k: int = 0) -> TailEstimate:
    """Hill estimator from the top k order statistics.

    alpha_hat = k / sum_{i=1..k} log(X_(n-i+1) / X_(n-k)), std error
    alpha_hat / sqrt(k).  ``k=0`` selects :func:`default_hill_k`.  Scale
    invariant by construction.
    """
    x = _positive_sample(sample)
    n = x.size
    if k == 0:
        k = default_hill_k(n)
    if not (2 <= k < n):
        raise ValueError(f"k must satisfy 2 <= k < n, got k={k}, n={n}")
    part = np.partition(x, n - k - 1)
    threshold = part[n - k - 1]
    top = part[n - k:]
    denom = float(np.log(top).sum() - k * math.log(threshold))
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
    quantile_range: tuple[float, float] = (0.999, 0.9999),
    grid_points: int = 25,
) -> TailConstantEstimate:
    """Estimate the tail constant via the x^alpha * CCDF plateau.

    Evaluates x^alpha * P_hat(X > x) on a log-spaced grid between the two
    empirical quantiles.  The median (not the mean) defines ``c_hat`` so the
    noisiest extreme-threshold grid points cannot drag the estimate.
    """
    lo, hi = quantile_range
    if not (0.5 <= lo < hi < 1.0):
        raise ValueError("quantile_range must satisfy 0.5 <= lo < hi < 1")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")
    x = _positive_sample(sample)
    n = x.size
    x_lo, x_hi = np.quantile(x, [lo, hi]).tolist()
    # Every grid point is >= x_lo, so the points above x_lo give the same
    # exceedance counts as the whole sample; only they are sorted.
    tail = np.sort(x[x > x_lo])
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

    Weights are normalized internally; uniform when omitted.  This is the raw
    distance (for fixed-threshold gates); use :func:`ks_2sample` when a
    significance level is wanted.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.size == 0 or b.size == 0:
        raise ValueError("samples must be nonempty")

    def _cdf_on(points, sample, weights):
        order = np.argsort(sample, kind="stable")
        s = sample[order]
        if weights is None:
            cum = np.arange(1, s.size + 1, dtype=float) / s.size
        else:
            w = np.asarray(weights, dtype=float).reshape(-1)[order]
            if (w < 0).any() or w.sum() <= 0:
                raise ValueError("weights must be nonnegative and not all zero")
            cum = np.cumsum(w) / w.sum()
        idx = np.searchsorted(s, points, side="right")
        return np.where(idx > 0, cum[idx - 1], 0.0)

    pool = np.sort(np.concatenate([a, b]))
    fa = _cdf_on(pool, a, weights_a)
    fb = _cdf_on(pool, b, weights_b)
    return float(np.abs(fa - fb).max())


def ks_2sample(a, b) -> tuple[float, float]:
    """Unweighted two-sample KS statistic and p-value (asymptotic)."""
    res = stats.ks_2samp(np.asarray(a).reshape(-1), np.asarray(b).reshape(-1),
                         method="asymp")
    return float(res.statistic), float(res.pvalue)
