"""Coefficient laws: positive scalar distributions, moments, and tail-index roots.

The bivariate recursion ``W_t = A_t W_{t-1} + B_t`` is driven by five strictly
positive scalar coefficients per step: the diagonal multipliers A1 and A4, the
coupling entry A2, and the additive terms B1 and B2.  This module holds

* the parametric families those coefficients may follow (:class:`LogNormal`,
  :class:`ScaledUniformPow`, :class:`ParetoLomax`, :class:`Constant`,
  :class:`ChiSqAffine`),
* the moment functional ``m(h) = E X^h`` with closed forms where they exist
  and adaptive quadrature for the chi-square-affine kind,
* the tail-index solver for the root of ``m(alpha) = 1`` (Cramer condition),
  always on a deterministic path,
* stationarity and regime checks for a full coefficient law.

Conventions: ``LogNormal(mu, sigma)`` takes the log-scale standard deviation
(not the variance); ``ScaledUniformPow(scale, power)`` is ``scale * U**power``
with U uniform on (0,1); ``ParetoLomax(alpha, scale)`` has survival function
``(1 + x/scale)**-alpha``; ``ChiSqAffine(a, b)`` is ``a*Z**2 + b`` with Z
standard normal.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Protocol, Union, runtime_checkable

import numpy as np
from scipy import integrate, optimize, special

from .errors import (
    DivergentBeforeRoot,
    DivergentMoment,
    NoPositiveRoot,
    NotContracting,
)

__all__ = [
    "LogNormal",
    "ScaledUniformPow",
    "ParetoLomax",
    "Constant",
    "ChiSqAffine",
    "PositiveDistribution",
    "CoeffDraw",
    "IndependentLaw",
    "CoefficientLaw",
    "MomentValue",
    "TailIndexSolution",
    "StationarityReport",
    "RegimeReport",
    "moment",
    "log_moment",
    "log_weighted_moment",
    "solve_tail_index",
    "check_stationarity",
    "classify_regime",
    "DEFAULT_EPS_GRID",
    "REGIME_A1_DOMINANT",
    "REGIME_A2_DOMINANT",
    "REGIME_UNRESOLVED",
]

_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-11, limit=200)


# ============================================================================
# Distribution kinds
# ============================================================================

@dataclass(frozen=True)
class LogNormal:
    """exp(N(mu, sigma^2)); sigma is the log-scale standard deviation."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma) and math.isfinite(self.mu)):
            raise ValueError("LogNormal requires finite mu and sigma > 0")

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        # exp of a normal buffer, in place: cheaper than rng.lognormal and
        # within 1 ulp of it (numpy's exp, not libm's).
        x = np.asarray(rng.standard_normal(size))
        x *= self.sigma
        x += self.mu
        return np.exp(x, out=x)


@dataclass(frozen=True)
class ScaledUniformPow:
    """scale * U**power with U uniform on (0,1); support (0, scale)."""

    scale: float
    power: float

    def __post_init__(self):
        if not (self.scale > 0 and self.power > 0):
            raise ValueError("ScaledUniformPow requires scale > 0 and power > 0")

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        # 1 - random() lies in (0, 1]: keeps every draw strictly positive.
        u = 1.0 - rng.random(size)
        return self.scale * u**self.power


@dataclass(frozen=True)
class ParetoLomax:
    """Lomax law: P(X > x) = (1 + x/scale)^-alpha for x >= 0."""

    alpha: float
    scale: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.scale > 0):
            raise ValueError("ParetoLomax requires alpha > 0 and scale > 0")

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        u = 1.0 - rng.random(size)
        return self.scale * (u ** (-1.0 / self.alpha) - 1.0)


@dataclass(frozen=True)
class Constant:
    """Degenerate law at a single positive value (arithmetic)."""

    value: float

    def __post_init__(self):
        if not (self.value > 0 and math.isfinite(self.value)):
            raise ValueError("Constant requires a finite value > 0")

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        # A read-only view of one float: no buffer, no random numbers.
        return np.broadcast_to(np.float64(self.value), () if size is None else size)


@dataclass(frozen=True)
class ChiSqAffine:
    """a*Z^2 + b with Z standard normal; a, b >= 0, not both zero.

    This is the coefficient kind induced by GARCH(1,1) recursions.
    """

    a: float
    b: float

    def __post_init__(self):
        if self.a < 0 or self.b < 0 or (self.a == 0 and self.b == 0):
            raise ValueError("ChiSqAffine requires a >= 0, b >= 0, not both zero")

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        z = rng.standard_normal(size)
        return self.a * z * z + self.b


PositiveDistribution = Union[LogNormal, ScaledUniformPow, ParetoLomax, Constant, ChiSqAffine]


# ============================================================================
# Coefficient laws
# ============================================================================

class CoeffDraw(NamedTuple):
    """One batch of coefficient draws; all arrays share a shape."""

    a1: np.ndarray
    a2: np.ndarray
    a4: np.ndarray
    b1: np.ndarray
    b2: np.ndarray


_MARGINAL_NAMES = ("a1", "a2", "a4", "b1", "b2")


@dataclass(frozen=True)
class IndependentLaw:
    """Five mutually independent positive coefficients, one law each."""

    a1: PositiveDistribution
    a2: PositiveDistribution
    a4: PositiveDistribution
    b1: PositiveDistribution
    b2: PositiveDistribution

    def sample(self, rng: np.random.Generator, size=None) -> CoeffDraw:
        return CoeffDraw(
            a1=np.asarray(self.a1.sample(rng, size), dtype=float),
            a2=np.asarray(self.a2.sample(rng, size), dtype=float),
            a4=np.asarray(self.a4.sample(rng, size), dtype=float),
            b1=np.asarray(self.b1.sample(rng, size), dtype=float),
            b2=np.asarray(self.b2.sample(rng, size), dtype=float),
        )

    def marginal(self, name: str) -> PositiveDistribution:
        if name not in _MARGINAL_NAMES:
            raise ValueError(f"unknown coefficient name {name!r}")
        return getattr(self, name)


@runtime_checkable
class CoefficientLaw(Protocol):
    """Anything that can draw joint coefficient tuples and name its marginals."""

    def sample(self, rng: np.random.Generator, size=None) -> CoeffDraw: ...

    def marginal(self, name: str) -> PositiveDistribution: ...


# ============================================================================
# Moments
# ============================================================================

@dataclass(frozen=True)
class MomentValue:
    """A computed E X^h with provenance: ``method`` is "closed_form" or "quadrature"."""

    value: float
    method: str


def _closed_moment(dist: PositiveDistribution, h: float) -> Optional[float]:
    """Closed-form E X^h, +inf when divergent or past the float range, None when none exists."""
    try:
        match dist:
            case LogNormal(mu=mu, sigma=sigma):
                return math.exp(h * mu + 0.5 * (h * sigma) ** 2)
            case Constant(value=v):
                return v**h
            case ScaledUniformPow(scale=c, power=p):
                if p * h <= -1.0:
                    return math.inf
                return c**h / (p * h + 1.0)
            case ParetoLomax(alpha=a, scale=s):
                if h >= a or h <= -1.0:
                    return math.inf
                # E X^h = s^h * Gamma(1+h) Gamma(a-h) / Gamma(a)
                return math.exp(
                    h * math.log(s)
                    + special.gammaln(1.0 + h)
                    + special.gammaln(a - h)
                    - special.gammaln(a)
                )
            case ChiSqAffine(a=a, b=b):
                if h == 0.0:
                    return 1.0
                if h == 1.0:
                    return a + b
                if h == 2.0:
                    return 3.0 * a * a + 2.0 * a * b + b * b
                if a == 0.0:
                    return b**h
                return None
        return None
    except OverflowError:
        return math.inf


def _chisq_affine_quad(dist: ChiSqAffine, h: float, weight=None) -> float:
    """2 * integral_0^inf g(a z^2 + b) phi(z) dz with g(y) = y^h [* log y]."""
    a, b = dist.a, dist.b
    if b == 0.0 and h <= -0.5:
        raise DivergentMoment(f"E X^{h} diverges for ChiSqAffine with b=0")

    def f(z):
        y = a * z * z + b
        out = y**h
        if weight == "log":
            out = out * np.log(y)
        return out * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    total = 0.0
    # Split at 1 so that integrable singularities at z=0 (b=0, h<0 or the log
    # weight) stay inside a finite panel where quad handles them well.
    for lo, hi in ((0.0, 1.0), (1.0, np.inf)):
        val, _ = integrate.quad(f, lo, hi, **_QUAD_OPTS)
        total += val
    return 2.0 * total


def moment(dist: PositiveDistribution, h: float) -> MomentValue:
    """Compute m(h) = E X^h for one coefficient law.

    Uses the closed form when the kind has one and adaptive quadrature for
    :class:`ChiSqAffine` at the other orders; it never samples.

    Raises
    ------
    DivergentMoment
        When the exact value is +infinity.
    """
    if not math.isfinite(h):
        raise ValueError("moment order h must be finite")
    closed = _closed_moment(dist, h)
    if closed is not None:
        if math.isinf(closed):
            raise DivergentMoment(f"E X^{h} = +inf for {dist!r}")
        return MomentValue(value=closed, method="closed_form")
    if isinstance(dist, ChiSqAffine):
        return MomentValue(value=_chisq_affine_quad(dist, h), method="quadrature")
    raise ValueError(f"no deterministic moment path for {type(dist).__name__} at h={h}")


def log_moment(dist: PositiveDistribution) -> float:
    """E log X, exact where possible, quadrature otherwise."""
    match dist:
        case LogNormal(mu=mu):
            return mu
        case Constant(value=v):
            return math.log(v)
        case ScaledUniformPow(scale=c, power=p):
            return math.log(c) - p  # E log U = -1
        case ParetoLomax(alpha=a, scale=s):
            # Integrate against the uniform via the inverse transform.
            def f(u):
                return np.log(s * (u ** (-1.0 / a) - 1.0))

            val, _ = integrate.quad(f, 0.0, 1.0, **_QUAD_OPTS)
            return val
        case ChiSqAffine() as d:
            return _chisq_affine_quad(d, 0.0, weight="log")
    raise TypeError(f"unsupported distribution {type(dist).__name__}")


def log_weighted_moment(dist: PositiveDistribution, h: float) -> float:
    """E X^h log X — the m'(h) functional normalizing the tail constants.

    Raises DivergentMoment when E X^h itself diverges.
    """
    match dist:
        case LogNormal(mu=mu, sigma=sigma):
            return _closed_moment(dist, h) * (mu + h * sigma * sigma)
        case Constant(value=v):
            return v**h * math.log(v)
        case ScaledUniformPow(scale=c, power=p):
            m = _closed_moment(dist, h)
            if math.isinf(m):
                raise DivergentMoment(f"E X^{h} = +inf for {dist!r}")
            return m * (math.log(c) - p / (p * h + 1.0))
        case ParetoLomax(alpha=a, scale=s):
            m = _closed_moment(dist, h)
            if math.isinf(m):
                raise DivergentMoment(f"E X^{h} = +inf for {dist!r}")
            return m * (math.log(s) + special.psi(1.0 + h) - special.psi(a - h))
        case ChiSqAffine() as d:
            return _chisq_affine_quad(d, h, weight="log")
    raise TypeError(f"unsupported distribution {type(dist).__name__}")


# ============================================================================
# Tail-index root
# ============================================================================

@dataclass(frozen=True)
class TailIndexSolution:
    """Root alpha of m(alpha) = 1 with the certificate residual m(alpha) - 1."""

    alpha: float
    residual: float
    method: str
    bracket: tuple[float, float]


_MAX_POWER = 64.0


def solve_tail_index(dist: PositiveDistribution, *, tol: float = 1e-10) -> TailIndexSolution:
    """Solve E X^alpha = 1 for the unique positive root.

    The map ``h -> E X^h`` is convex with slope ``E log X < 0`` at zero, so on a
    contracting law it dips below 1 and (if it ever recovers) crosses 1 exactly
    once from below.  The solver brackets that crossing by doubling h up to 64,
    halves down when m(1) >= 1 already, and finishes with Brent's method, so
    a root is certified only by a sign change of m(h) - 1 across its bracket.

    Moments come from the closed form, or from adaptive quadrature for
    :class:`ChiSqAffine`, whose closed forms exist only at special orders.
    Every other kind has a closed form at all orders, so the root carries no
    sampling error.

    Raises
    ------
    NotContracting
        E log X >= 0 (also the Constant(v >= 1) case).
    NoPositiveRoot
        m(h) < 1 for every h tried up to the cap (includes Constant(v < 1),
        which is arithmetic and carries no Cramer root).
    DivergentBeforeRoot
        m(h) hits +infinity while still below 1.
    """
    if isinstance(dist, Constant):
        if dist.value >= 1.0:
            raise NotContracting(f"E log X = log({dist.value}) >= 0")
        raise NoPositiveRoot(
            "Constant law is arithmetic and m(h) = value^h < 1 for all h > 0"
        )

    elog = log_moment(dist)
    if not elog < 0.0:
        raise NotContracting(f"E log X = {elog:.6g} >= 0")

    method = "quadrature" if isinstance(dist, ChiSqAffine) else "closed_form"

    def m(h: float) -> float:
        if method == "quadrature":
            return _chisq_affine_quad(dist, h)
        val = _closed_moment(dist, h)
        if math.isinf(val):
            raise DivergentMoment(f"E X^{h} = +inf")
        return val

    def solution(lo: float, hi: float, root: float) -> TailIndexSolution:
        return TailIndexSolution(alpha=root, residual=m(root) - 1.0, method=method,
                                 bracket=(lo, hi))

    # --- bracket the crossing -------------------------------------------------
    lo, hi = None, None
    h_prev, m_prev = 0.0, 1.0  # m(0) = 1 from above is not a crossing; slope < 0
    h = 1.0
    while h <= _MAX_POWER:
        try:
            mh = m(h)
        except DivergentMoment:
            # Finite just below the boundary: hunt for a finite value > 1.
            lo_d, hi_d = h_prev, h
            for _ in range(200):
                mid = 0.5 * (lo_d + hi_d)
                try:
                    mmid = m(mid)
                except DivergentMoment:
                    hi_d = mid
                    continue
                if mmid > 1.0:
                    lo, hi = h_prev, mid
                    break
                lo_d, m_prev, h_prev = mid, mmid, mid
            if lo is None:
                raise DivergentBeforeRoot(
                    f"m(h) diverges near h={hi_d:.6g} while still below 1"
                ) from None
            break
        if mh > 1.0:
            lo, hi = h_prev, h
            break
        h_prev, m_prev = h, mh
        h *= 2.0
    else:
        raise NoPositiveRoot(
            f"m(h) stays below 1 up to h={_MAX_POWER:g} (last m={m_prev:.6g})"
        )

    # If m(1) >= 1 the crossing sits in (0, 1): halve down to a finite left edge.
    if lo == 0.0:
        lo = 0.5 * hi
        for _ in range(80):
            mlo = m(lo)
            if mlo < 1.0:
                break
            hi = lo
            lo *= 0.5
        else:
            raise NoPositiveRoot("m(h) >= 1 arbitrarily close to h = 0")

    root = float(optimize.brentq(lambda t: m(t) - 1.0, lo, hi, xtol=min(tol, 1e-12), rtol=8.9e-16))
    return solution(lo, hi, root)


# ============================================================================
# Stationarity and regime checks
# ============================================================================

DEFAULT_EPS_GRID = (
    1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05, 0.02, 0.01,
)


@dataclass(frozen=True)
class StationarityReport:
    """Outcome of the small-moment contraction test.

    ``holds`` is True when some grid epsilon gives E A1^eps < 1, E A4^eps < 1
    and E A2^eps < infinity; ``rho`` is the larger of the two contraction
    moments at the witness (inf when no witness qualifies).
    """

    holds: bool
    witness_eps: Optional[float]
    rho: float


def _finite_moment(dist: PositiveDistribution, h: float) -> Optional[float]:
    """E X^h on the deterministic path, or None when it diverges."""
    try:
        return moment(dist, h).value
    except DivergentMoment:
        return None


def check_stationarity(law: CoefficientLaw, eps_grid=None) -> StationarityReport:
    """Find a witness epsilon for the contraction condition of the model.

    Scans ``eps_grid`` (descending by default, so witnesses deliver the
    tightest geometric truncation rate) for the first epsilon in (0, 1] with
    E A1^eps < 1, E A4^eps < 1 and E A2^eps finite.  A False result is an
    answer, not an error.
    """
    grid = DEFAULT_EPS_GRID if eps_grid is None else tuple(eps_grid)
    if len(grid) == 0:
        raise ValueError("eps_grid must be nonempty")
    if any(not (0.0 < e <= 1.0) for e in grid):
        raise ValueError("eps_grid values must lie in (0, 1]")

    for eps in grid:
        m1 = _finite_moment(law.marginal("a1"), eps)
        m4 = _finite_moment(law.marginal("a4"), eps)
        m2 = _finite_moment(law.marginal("a2"), eps)
        if m1 is None or m4 is None or m2 is None:
            continue
        if m1 < 1.0 and m4 < 1.0:
            return StationarityReport(holds=True, witness_eps=eps, rho=max(m1, m4))
    return StationarityReport(holds=False, witness_eps=None, rho=math.inf)


REGIME_A1_DOMINANT = "a1_dominant"   # alpha1 < alpha2: W1's own multiplier rules its tail
REGIME_A2_DOMINANT = "a2_dominant"   # alpha1 > alpha2: the coupling channel rules W1's tail
REGIME_UNRESOLVED = "unresolved"     # alpha1 == alpha2: neither channel dominates


@dataclass(frozen=True)
class RegimeReport:
    """Both tail-index roots, the dominance regime, and the cross-moment check."""

    alpha1: TailIndexSolution
    alpha2: TailIndexSolution
    regime: str
    cross_moment_ok: bool
    cross_moment: Optional[MomentValue]


def classify_regime(law: CoefficientLaw, *, tol: float = 1e-10) -> RegimeReport:
    """Solve both diagonal tail indices and compare them.

    The roots are deterministic, so any strict inequality decides the regime;
    equal roots give "unresolved", which callers must treat as out of scope.
    ``cross_moment_ok`` records whether E A2^min(alpha1,alpha2) is finite —
    the hypothesis that lets the lighter channel be neglected.
    """
    sol1 = solve_tail_index(law.marginal("a1"), tol=tol)
    sol2 = solve_tail_index(law.marginal("a4"), tol=tol)
    if sol1.alpha < sol2.alpha:
        regime = REGIME_A1_DOMINANT
    elif sol1.alpha > sol2.alpha:
        regime = REGIME_A2_DOMINANT
    else:
        regime = REGIME_UNRESOLVED

    alpha_min = min(sol1.alpha, sol2.alpha)
    try:
        cross = moment(law.marginal("a2"), alpha_min)
        cross_ok = True
    except DivergentMoment:
        cross, cross_ok = None, False
    return RegimeReport(
        alpha1=sol1, alpha2=sol2, regime=regime,
        cross_moment_ok=cross_ok, cross_moment=cross,
    )
