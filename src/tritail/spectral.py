"""Angular measures and forward spectral processes of the stationary solution.

Two estimators of the same angular object are kept deliberately separate so
they can cross-validate each other:

* the threshold estimator — normalized exceedances ``W/|W|`` above a high
  norm quantile of a simulated stationary sample, and
* the weighted product-chain estimator — in the regime where each coordinate's
  own multiplier dominates (alpha1 < alpha2), the angular law of the window
  ``(W_{i,1..h})`` equals the law of the normalized running scalar products
  ``Xi_h = (Pi_1, ..., Pi_h)`` reweighted by ``|Xi_h|^alpha_i``.

In the opposite regime (alpha1 > alpha2) the module builds draws from the
forward limit of scaled post-exceedance windows: an exact unit-Pareto norm
factor, an angle resampled from an angular sample, and an independent
coefficient product chain pushed through the angle.

Every threshold estimate, here and in :mod:`tritail.garch`, selects its
points with :func:`select_exceedances`, and both cross-feed checks compare
windows with their limit through one KS battery, :func:`forward_limit_ks`.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special

from .engine import PathSample, product_path
from .errors import RegimeMismatch, TooFewExceedances
from .laws import CoefficientLaw
from .reduction import Exceedances, PointSpec, WindowSpec, exceedances, valid_window_starts
from .tailstats import block_rows, ks_distance

__all__ = [
    "AngularSample",
    "SpectralProcessSample",
    "ConditionalWindows",
    "MIN_EXCEEDANCES",
    "select_exceedances",
    "exceedance_angles",
    "angular_measure_threshold",
    "valid_window_starts",
    "norm_spec",
    "window_spec",
    "sliding_windows",
    "window_angles",
    "conditional_exceedance_windows",
    "componentwise_spectral",
    "spectral_process_draws",
    "unit_pareto",
    "pareto_gof",
    "forward_limit_ks",
    "angular_ks",
]

MIN_EXCEEDANCES = 200
_UNIT_NORM_TOL = 1e-12
_PAIR = ("w1", "w2")


@dataclass(eq=False)
class AngularSample:
    """A weighted empirical angular law on the nonnegative part of a sphere.

    ``points`` has one unit vector per row (any dimension: pairs for the
    stationary vector itself, h-vectors for window angles).  ``threshold_u``
    is the norm threshold for threshold-based estimates and None for weighted
    product-chain estimates, which have no threshold.
    """

    points: np.ndarray
    weights: np.ndarray
    threshold_u: Optional[float]
    n_exceedances: int

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if self.points.shape[0] != self.weights.size:
            raise ValueError("one weight per angular point required")
        if self.points.shape[0] == 0:
            raise ValueError("empty angular sample")
        if (self.weights < 0).any():
            raise ValueError("weights must be nonnegative")
        total = self.weights.sum()
        if not (total > 0 and np.isfinite(total)):
            raise ValueError("weights must have positive finite mass")
        self.weights = self.weights / total
        norms = np.linalg.norm(self.points, axis=1)
        if np.abs(norms - 1.0).max() > _UNIT_NORM_TOL:
            raise ValueError("angular points must have unit norm within 1e-12")
        if self.points.min() < -_UNIT_NORM_TOL:
            raise ValueError("angular points must be componentwise nonnegative")

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def norm_spec(u_quantile: float, h: int = 0) -> PointSpec:
    """The exceedances of |W| read by the threshold estimators, with h-step windows."""
    return PointSpec(anchors=_PAIR, after=_PAIR, h=h, u=u_quantile)


def window_spec(component: int, h: int, u_quantile: float) -> WindowSpec:
    """The window-norm exceedances read by :func:`window_angles`."""
    return WindowSpec(series=_PAIR[component - 1], h=h, u=u_quantile)


def select_exceedances(ex: Exceedances, u_quantile: float, what: str,
                       in_chain: bool = False) -> tuple[float, np.ndarray]:
    """The u-quantile x of a set's series and its points above x; ``in_chain`` keeps in-chain ones.

    Raises :class:`TooFewExceedances`, naming the points ``what``, below
    ``MIN_EXCEEDANCES``: laws from fewer points are too noisy to compare.
    """
    x, sel = ex.above(u_quantile) if ex.n else (math.nan, np.empty(0, dtype=np.intp))
    if in_chain:
        sel = sel[ex.valid[sel]]
    if sel.size < MIN_EXCEEDANCES:
        raise TooFewExceedances(
            f"{sel.size} {what} above the {u_quantile:.4%} quantile; "
            f"need at least {MIN_EXCEEDANCES}"
        )
    return x, sel


def exceedance_angles(ex: Exceedances, sel: np.ndarray) -> np.ndarray:
    """The payload rows of points ``sel`` divided by their keys: unit vectors."""
    return ex.rows[sel] / ex.key[sel][:, None]


def _threshold_angular(ex: Exceedances, u_quantile: float, what: str) -> AngularSample:
    """The angles of the points above the u-quantile, uniformly weighted."""
    x, sel = select_exceedances(ex, u_quantile, what)
    m = sel.size
    return AngularSample(points=exceedance_angles(ex, sel), weights=np.full(m, 1.0 / m),
                         threshold_u=x, n_exceedances=m)


def angular_measure_threshold(
    draws: PathSample, u_quantile: float = 0.999, h: int = 0
) -> AngularSample:
    """Threshold estimate of the angular law of the stationary pair.

    Keeps every draw whose Euclidean norm exceeds the empirical ``u_quantile``
    norm quantile and returns the normalized exceedances with uniform weights.
    ``draws`` is a sample or its :class:`~tritail.reduction.Summary` planned
    with :func:`norm_spec` at this ``h``; the angles do not depend on ``h``,
    which only names the planned point set to read.
    """
    if not 0.0 < u_quantile < 1.0:
        raise ValueError("u_quantile must lie in (0, 1)")
    return _threshold_angular(exceedances(draws, norm_spec(u_quantile, h)), u_quantile,
                              "norm exceedances")


# ============================================================================
# Window extraction (chain-boundary aware)
# ============================================================================

def sliding_windows(series: np.ndarray, chain_len: int, h: int) -> np.ndarray:
    """All length-h windows of a chain-major series that stay inside one chain.

    Returns a (m, h) copy; the caller owns it.  The last (possibly short)
    chain contributes only windows that fit before the series ends.
    """
    series = np.asarray(series, dtype=float).reshape(-1)
    if h < 1:
        raise ValueError("h must be >= 1")
    if series.size < h:
        return np.empty((0, h))
    wins = sliding_window_view(series, h)
    mask = valid_window_starts(series.size, chain_len, h)[: wins.shape[0]]
    return wins[mask]


def window_angles(
    draws: PathSample, component: int, h: int, u_quantile: float = 0.999
) -> AngularSample:
    """Threshold estimate of the angular law of one coordinate's length-h window.

    Slides windows ``(W_{i,t}, ..., W_{i,t+h-1})`` within chains, keeps those
    whose norm exceeds the empirical ``u_quantile`` window-norm quantile, and
    returns them normalized with uniform weights.  This is the brute-force
    counterpart of :func:`componentwise_spectral`.  ``draws`` is a sample or
    its summary planned with :func:`window_spec`.
    """
    if component not in (1, 2):
        raise ValueError("component must be 1 or 2")
    if not 0.0 < u_quantile < 1.0:
        raise ValueError("u_quantile must lie in (0, 1)")
    if h < 1:
        raise ValueError("h must be >= 1")
    return _threshold_angular(exceedances(draws, window_spec(component, h, u_quantile)),
                              u_quantile, "window-norm exceedances")


@dataclass(eq=False)
class ConditionalWindows:
    """Post-exceedance windows W_{t+1..t+h}/x given |W_t| > x.

    ``windows`` has shape (m, h, 2); every window is scaled by the fixed
    threshold ``threshold`` (not by the exceedance norm itself).
    """

    windows: np.ndarray
    threshold: float
    n_exceedances: int


def conditional_exceedance_windows(
    draws: PathSample, h: int, u_quantile: float = 0.999
) -> ConditionalWindows:
    """Brute-force conditional law of the h steps after a norm exceedance.

    The conditioning event is |W_t| > x with x the empirical ``u_quantile``
    quantile of |W| over the whole sample; the window is the next h states of
    the same chain, scaled by 1/x.  ``draws`` is a sample or its summary
    planned with :func:`norm_spec` at this h.
    """
    if h < 1:
        raise ValueError("h must be >= 1")
    if not 0.0 < u_quantile < 1.0:
        raise ValueError("u_quantile must lie in (0, 1)")
    ex = exceedances(draws, norm_spec(u_quantile, h))
    x, sel = select_exceedances(ex, u_quantile, "in-chain exceedances", in_chain=True)
    return ConditionalWindows(windows=ex.after[sel] / x, threshold=x, n_exceedances=sel.size)


# ============================================================================
# Weighted product-chain estimator (dominant own multiplier)
# ============================================================================

def componentwise_spectral(
    law: CoefficientLaw,
    alpha_i: float,
    h: int,
    n: int,
    rng: np.random.Generator,
    component: int = 1,
) -> AngularSample:
    """Weighted product-chain estimate of one coordinate's window angular law.

    Draws n runs of the scalar diagonal products Pi_1..Pi_h of the chosen
    component's multiplier, normalizes each vector of running products, and
    weights it by its norm to the power ``alpha_i`` (self-normalized).  Valid
    as the window angular law when the component's own multiplier dominates
    its tail (for the first coordinate: alpha1 < alpha2).
    """
    if component not in (1, 2):
        raise ValueError("component must be 1 or 2")
    if h < 1:
        raise ValueError("h must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if alpha_i <= 0:
        raise ValueError("alpha_i must be positive")
    a = law.marginal("a1" if component == 1 else "a4").sample(rng, (n, h))
    xi = np.cumprod(a, axis=1)
    norms = np.linalg.norm(xi, axis=1)
    weights = norms**alpha_i
    return AngularSample(
        points=xi / norms[:, None],
        weights=weights / weights.sum(),
        threshold_u=None,
        n_exceedances=n,
    )


# ============================================================================
# Forward spectral process (dominant cross-feed)
# ============================================================================

def unit_pareto(alpha: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Exact draws with P(Y > y) = y^-alpha for y > 1 (inverse transform)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    # 1 - U lies in (0, 1]: y = 1 is attainable, y = inf is not.
    return (1.0 - rng.random(n)) ** (-1.0 / alpha)


@dataclass(eq=False)
class SpectralProcessSample:
    """n draws of the forward limit of scaled post-exceedance windows.

    ``path[k, t-1] = Pi_t theta0[k]`` for the k-th drawn coefficient chain,
    computed as the recursion ``w_t = A_t w_{t-1}`` from ``w_0 = theta0[k]``
    (:func:`tritail.engine.product_path`); the limiting window itself is
    ``y0`` times the path (formed by :func:`forward_limit_ks`), matching
    windows scaled by the conditioning threshold.
    """

    y0: np.ndarray
    theta0: np.ndarray
    path: np.ndarray  # (n, h, 2)

    def __len__(self) -> int:
        return self.y0.size


def spectral_process_draws(
    law: CoefficientLaw,
    alpha2: float,
    h: int,
    n: int,
    angular: AngularSample,
    rng: np.random.Generator,
    alpha1: Optional[float] = None,
) -> SpectralProcessSample:
    """Draw from the forward limit law: Y0 Pareto(alpha2), Theta0 ~ angular, Pi fresh.

    Requires the cross-feed-dominant regime alpha1 > alpha2 (pass ``alpha1``
    to have the precondition checked; the construction itself only needs
    ``alpha2``).  The three ingredients are mutually independent; ``path``
    stores the bare products ``Pi_t theta0`` and ``y0`` the Pareto factor.
    """
    if h < 0:
        raise ValueError("h must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    if alpha2 <= 0:
        raise ValueError("alpha2 must be positive")
    if angular.dim != 2:
        raise ValueError("angular sample must hold 2-vectors")
    if alpha1 is not None and not alpha1 > alpha2:
        raise RegimeMismatch(
            f"forward spectral limit needs alpha1 > alpha2, got {alpha1:.4g} <= {alpha2:.4g}"
        )
    y0 = unit_pareto(alpha2, n, rng)
    pick = rng.choice(len(angular), size=n, p=angular.weights)
    theta0 = angular.points[pick]
    path = product_path(lambda rows: law.sample(rng, (rows, n)), theta0[:, 0], theta0[:, 1], h)
    return SpectralProcessSample(y0=y0, theta0=theta0, path=path)


def pareto_gof(sample, alpha: float) -> tuple[float, float]:
    """One-sample KS statistic and asymptotic p-value against P(Y > y) = y^-alpha, y > 1.

    The statistic D equals ``scipy.stats.kstest(sample, "pareto",
    args=(alpha,))``'s bit for bit.  The p-value is Kolmogorov's limiting law
    at sqrt(N) D, which runs high against the finite-N law: a true 0.05 reads
    about 0.055 at N = 100 and 0.0501 at 10^5.  Both are NaN when the sample
    holds a NaN.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    y = np.sort(np.asarray(sample, dtype=float).reshape(-1))
    n = y.size
    if n == 0:
        raise ValueError("sample must be nonempty")
    # The CDF 1 - y^-alpha, which is 0 at and below 1; NaN stays NaN.
    cdf = 1.0 - np.maximum(y, 1.0) ** -alpha
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    d = float(np.maximum(d_plus, d_minus))
    return d, float(special.kolmogorov(math.sqrt(n) * d))


def _window_norms(windows: np.ndarray, y0: Optional[np.ndarray] = None) -> np.ndarray:
    """|y0 * window| per (h, 2) window, in row blocks, as ``np.linalg.norm(..., axis=1)``."""
    flat = windows.reshape(windows.shape[0], -1)
    norms = np.empty(flat.shape[0])
    step = block_rows(flat.shape[1])
    for lo in range(0, flat.shape[0], step):
        rows = flat[lo : lo + step]
        if y0 is not None:
            rows = y0[lo : lo + step, None] * rows
        norms[lo : lo + step] = np.linalg.norm(rows, axis=1)
    return norms


def forward_limit_ks(windows: np.ndarray, path: np.ndarray, y0: Optional[np.ndarray] = None,
                     coord: str = "w", norm: str = "norm") -> dict[str, float]:
    """Two-sample KS distance per scalar functional between (m, h, 2) windows and their limit.

    The limit windows are ``y0[k] * path[k]`` for an (n, h, 2) ``path``
    (``path`` itself without ``y0``), formed one column or row block at a
    time.  Functionals: each coordinate at each step (keys
    ``{coord}{i}_t{t}``, step-major) and the whole-window norm (key ``norm``).
    """
    h = windows.shape[1]
    if path.shape[1] != h:
        raise ValueError(f"window length mismatch: {h} vs {path.shape[1]}")
    out: dict[str, float] = {}
    for t in range(h):
        for i in range(2):
            limit = path[:, t, i] if y0 is None else y0 * path[:, t, i]
            out[f"{coord}{i + 1}_t{t + 1}"] = ks_distance(windows[:, t, i], limit)
    out[norm] = ks_distance(_window_norms(windows), _window_norms(path, y0))
    return out


def angular_ks(a: AngularSample, b: AngularSample) -> float:
    """Largest per-coordinate weighted KS distance between two angular laws."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return max(
        ks_distance(a.points[:, j], b.points[:, j], a.weights, b.weights)
        for j in range(a.dim)
    )
