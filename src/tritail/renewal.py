"""Monte Carlo tail constants via the implicit renewal method.

For a contracting scalar recursion X = A X' + B with Cramer root alpha
(E A^alpha = 1) the tail satisfies P(X > x) ~ c x^-alpha with

    c = E[(A X + B)^alpha - (A X)^alpha] / (alpha * E A^alpha log A),

an expectation over an independent pairing of a stationary X with a fresh
coefficient draw.  This module computes that constant for the autonomous second
coordinate, for the first coordinate when its own multiplier dominates
(alpha1 < alpha2, with the additive term assembled as B1 + A2 W2), and — in the
opposite regime alpha1 > alpha2 — the inherited constant c2 * w, where w is the
limit of the truncated coupling-series moments

    w_s = E( sum_{i=1..s} [A1 at strip slots 1..i-1] * A2_i * [A4 at slots i+1..s] )^alpha2

together with the analytic bracket for w derived from tau = E A1^alpha2 < 1.
The s slots of a strip are i.i.d., so relabelling slot i as s+1-i leaves the
strip sum's law unchanged and turns it into the corner entry U_s of the
product A_s ... A_1: the first coordinate of the recursion with B = 0 started
at (0, 1), after s steps.  One run of max(s) steps therefore gives w_s at
every s of a schedule, and those estimates share their strips.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .engine import PathSample, SimConfig, forward_slabs
from .errors import NonPositiveM, RegimeMismatch, TauNotContracting
from .laws import (
    CoeffDraw,
    CoefficientLaw,
    PositiveDistribution,
    log_weighted_moment,
    moment,
)

__all__ = [
    "RenewalConstant",
    "SeriesWeightEstimate",
    "SeriesWeightBounds",
    "CoupledConstantResult",
    "univariate_constant",
    "first_component_constant",
    "series_weight",
    "series_weights",
    "series_weight_bounds",
    "coupled_component_constant",
]


@dataclass(frozen=True)
class RenewalConstant:
    """A Monte Carlo renewal-form tail constant.

    ``m_alpha`` is the normalizer E A^alpha log A (must be positive at the
    Cramer root); ``cramer_residual`` is the sample estimate of E A^alpha - 1
    under the fed draws (should be ~0 when alpha is right); ``naive_value``,
    when set, is the alternative constant that replaces 1/m_alpha with the flat
    prefactor 2/alpha (kept for side-by-side comparison against the simulated
    plateau — the two differ unless 2/alpha happens to equal 1/(alpha*m_alpha)).
    """

    c_hat: float
    std_error: float
    m_alpha: float
    alpha: float
    n_samples: int
    cramer_residual: float = 0.0
    naive_value: Optional[float] = None


@dataclass(frozen=True)
class SeriesWeightEstimate:
    """MC estimate of one truncated coupling-series moment w_s."""

    s: int
    value: float
    std_error: float
    n_samples: int


@dataclass(frozen=True)
class SeriesWeightBounds:
    """Analytic bracket for the limiting series weight w = lim_s w_s.

    With tau = E A1^alpha2 < 1 and ea2 = E A2^alpha2:
    alpha2 > 1 branch:  ea2 <= w <= (1 - tau^(1/alpha2))^-alpha2 * ea2;
    alpha2 <= 1 branch: (1 - tau^(1/alpha2))^-alpha2 * ea2 <= w <= (1-tau)^-1 * ea2.
    The two branches coincide at alpha2 = 1.
    """

    lower: float
    upper: float
    tau: float
    alpha2: float
    branch: str
    ea2: float


_STRIP_CHUNK = 50_000
_STRIP_ELEMENTS = 1 << 16  # renewal terms per block, 512 KiB of float64
_WEIGHT_REL_TOL = 0.05  # relative change of the last two series weights read as converged


def _fill(out: np.ndarray, write: Callable[[np.ndarray, slice], None]) -> np.ndarray:
    """Call ``write(out[b], b)`` for each block b of ``_STRIP_ELEMENTS`` entries of ``out``.

    ``write`` computes its entries in place in the block it is given, in the
    operations (and so the bytes) of the whole-array expression, holding at
    most one block of its own.
    """
    for lo in range(0, out.size, _STRIP_ELEMENTS):
        b = slice(lo, lo + _STRIP_ELEMENTS)
        write(out[b], b)
    return out


def _renewal_constant(
    numerator: np.ndarray,
    a: np.ndarray,
    alpha: float,
    a_dist: PositiveDistribution,
    naive: bool = False,
) -> RenewalConstant:
    """Shared core: c = mean(numerator) / (alpha * m_alpha) with its SE.

    The normalizer m_alpha = E A^alpha log A is exact
    (:func:`~tritail.laws.log_weighted_moment` of ``a_dist``), so the SE comes
    from the numerator alone.  ``numerator`` is the one n-array the constant
    works in: its mean and variance are taken in place, in the steps and
    bytes of ``mean()`` and ``var(ddof=1)``, and it then holds ``a**alpha``,
    block by block, for the Cramer residual.  With ``naive`` the flat
    prefactor 2/alpha times the numerator's mean is set as ``naive_value``.
    """
    n = numerator.size
    num_mean = float(numerator.mean())
    np.subtract(numerator, num_mean, out=numerator)
    np.square(numerator, out=numerator)
    num_var = float(numerator.sum() / (n - 1))

    m_alpha = log_weighted_moment(a_dist, alpha)
    if m_alpha <= 0.0:
        raise NonPositiveM(f"E A^alpha log A = {m_alpha:.6g} <= 0: alpha is wrong")

    def power(out: np.ndarray, s: slice) -> None:
        out[...] = a[s]
        out **= alpha

    residual = _fill(numerator, power).mean() - 1.0
    return RenewalConstant(
        c_hat=num_mean / (alpha * m_alpha),
        std_error=math.sqrt(num_var / n) / (alpha * m_alpha),
        m_alpha=m_alpha,
        alpha=alpha,
        n_samples=n,
        cramer_residual=float(residual),
        naive_value=(2.0 / alpha) * num_mean if naive else None,
    )


def univariate_constant(
    a_dist: PositiveDistribution,
    b_dist: PositiveDistribution,
    alpha: float,
    stationary_w,
    rng: np.random.Generator,
) -> RenewalConstant:
    """Renewal constant for the scalar recursion X = A X' + B at the root alpha.

    ``stationary_w`` must be (approximately) stationary draws independent of
    the fresh (A, B) pairs sampled here, one pair per draw.  The numerator
    E[(A X + B)^alpha - (A X)^alpha] is the sample mean over those pairs; the
    normalizer E A^alpha log A is computed exactly from ``a_dist``.  A and B
    are drawn whole; the numerator is computed a block of terms at a time
    into one n-array (:func:`_renewal_constant`).

    Raises :class:`NonPositiveM` when the normalizer E A^alpha log A is not
    positive (the unmistakable sign that alpha does not solve E A^alpha = 1).
    """
    w = np.asarray(stationary_w, dtype=float).reshape(-1)
    if w.size < 2:
        raise ValueError("need at least 2 stationary draws")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    a = a_dist.sample(rng, w.size)
    b = b_dist.sample(rng, w.size)

    def numerator(out: np.ndarray, s: slice) -> None:  # (a w + b)**alpha - (a w)**alpha
        aw = a[s] * w[s]
        np.add(aw, b[s], out=out)
        out **= alpha
        aw **= alpha
        out -= aw

    return _renewal_constant(_fill(np.empty(w.size), numerator), a, alpha, a_dist)


def first_component_constant(
    law: CoefficientLaw,
    alpha1: float,
    alpha2: float,
    draws: PathSample,
    rng: np.random.Generator,
) -> RenewalConstant:
    """Tail constant of the first coordinate when its own multiplier dominates.

    Valid in the regime alpha1 < alpha2 only.  The first coordinate follows
    W1 = A1 W1' + D with D = B1 + A2 W2', so the renewal constant uses fresh
    joint tuples (A1, A2, B1) paired with stationary (W1', W2') pairs; the
    tuple is drawn jointly so coupled laws keep their dependence.  A4 and B2
    are drawn with it only to keep the stream and dropped at once; the
    numerator is computed a block of terms at a time into one n-array.

    The returned constant carries the renewal-form value in ``c_hat`` and the
    flat-prefactor alternative (2/alpha1 times the same expectation) in
    ``naive_value``; the simulated tail plateau adjudicates between them.
    """
    if not alpha1 < alpha2:
        raise RegimeMismatch(
            f"first-component constant needs alpha1 < alpha2, got {alpha1:.4g} >= {alpha2:.4g}"
        )
    w1 = np.asarray(draws.w1, dtype=float).reshape(-1)
    w2 = np.asarray(draws.w2, dtype=float).reshape(-1)
    d = law.sample(rng, w1.size)
    a1, a2, b1 = d.a1, d.a2, d.b1
    del d

    def numerator(out: np.ndarray, s: slice) -> None:  # (a1 w1 + (b1 + a2 w2))**alpha1 - ...
        aw = a1[s] * w1[s]
        np.multiply(a2[s], w2[s], out=out)
        np.add(b1[s], out, out=out)
        out += aw
        out **= alpha1
        aw **= alpha1
        out -= aw

    return _renewal_constant(_fill(np.empty(w1.size), numerator), a1, alpha1,
                             law.marginal("a1"), naive=True)


def series_weights(
    law: CoefficientLaw,
    alpha2: float,
    schedule: Sequence[int],
    n: int,
    rng: np.random.Generator,
) -> tuple[SeriesWeightEstimate, ...]:
    """MC estimates of the coupling-series moments w_s at each s of ``schedule``.

    Each of the n strips is one path of the recursion with B = 0 started at
    (0, 1): its W1 after s steps is the corner entry U_s of A_s ... A_1, which
    has the law of the strip sum (see the module docstring).  The strips run
    through :func:`~tritail.engine.forward_slabs` ``_STRIP_CHUNK`` at a time,
    for max(schedule) steps, each step one joint draw
    ``law.sample(rng, (1, m))`` (so a GARCH law keeps A2 and A4 coupled);
    U_s^alpha2 is summed at every s in the schedule.  The estimates thus
    share strips, each s reading a prefix of the same paths.  A strip that
    overflows raises :class:`~tritail.errors.NonFiniteState`.
    """
    schedule = tuple(schedule)
    if not schedule or schedule[0] < 1 or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule needs strictly increasing entries >= 1")
    if n < 2:
        raise ValueError("n must be >= 2")
    if alpha2 <= 0:
        raise ValueError("alpha2 must be positive")
    sums = {s: [0.0, 0.0] for s in schedule}  # s -> [sum of U_s^alpha2, sum of its squares]
    for lo in range(0, n, _STRIP_CHUNK):
        m = min(_STRIP_CHUNK, n - lo)
        u = np.zeros((2, m))
        p4 = np.zeros((2, m))
        p4[0] = 1.0
        zero = np.zeros((1, m))

        def draw(rows: int) -> CoeffDraw:
            return law.sample(rng, (rows, m))._replace(b1=zero, b2=zero)

        for j, _ in forward_slabs(draw, u, p4, SimConfig(burn_in=0, n_draws=1), schedule[-1]):
            acc = sums.get(j + 1)
            if acc is not None:
                vals = u[1] ** alpha2
                acc[0] += float(vals.sum())
                acc[1] += float((vals * vals).sum())
    estimates = []
    for s, (t, t_sq) in sums.items():
        mean = t / n
        var = max(t_sq / n - mean * mean, 0.0) * n / (n - 1)
        estimates.append(SeriesWeightEstimate(
            s=s, value=mean, std_error=math.sqrt(var / n), n_samples=n
        ))
    return tuple(estimates)


def series_weight(
    law: CoefficientLaw,
    alpha2: float,
    s: int,
    n: int,
    rng: np.random.Generator,
) -> SeriesWeightEstimate:
    """MC estimate of the s-term coupling-series moment w_s on n fresh strips.

    The one-point case of :func:`series_weights`.
    """
    return series_weights(law, alpha2, (s,), n, rng)[0]


def series_weight_bounds(law: CoefficientLaw, alpha2: float) -> SeriesWeightBounds:
    """Analytic bracket for the limiting series weight (see class docstring).

    Requires tau = E A1^alpha2 < 1 (raises :class:`TauNotContracting`) and a
    finite E A2^alpha2 (a divergent cross moment propagates).
    """
    if alpha2 <= 0:
        raise ValueError("alpha2 must be positive")
    tau = moment(law.marginal("a1"), alpha2).value
    if not tau < 1.0:
        raise TauNotContracting(f"E A1^alpha2 = {tau:.6g} >= 1")
    ea2 = moment(law.marginal("a2"), alpha2).value
    pinch = (1.0 - tau ** (1.0 / alpha2)) ** (-alpha2)
    if alpha2 > 1.0:
        lower, upper, branch = ea2, pinch * ea2, "alpha2_gt_1"
    else:
        lower, upper, branch = pinch * ea2, ea2 / (1.0 - tau), "alpha2_le_1"
    return SeriesWeightBounds(
        lower=lower, upper=upper, tau=tau, alpha2=alpha2, branch=branch, ea2=ea2
    )


@dataclass(frozen=True)
class CoupledConstantResult:
    """Inherited first-coordinate constant c2 * w with its convergence trace.

    The weight w and its standard error are ``trace[-1]``.
    """

    constant: RenewalConstant
    trace: tuple[SeriesWeightEstimate, ...]
    converged: bool


def coupled_component_constant(
    law: CoefficientLaw,
    alpha2: float,
    c2: RenewalConstant,
    s_schedule: Sequence[int],
    n: int,
    rng: np.random.Generator,
    alpha1: Optional[float] = None,
) -> CoupledConstantResult:
    """Tail constant of the first coordinate in the regime alpha1 > alpha2.

    Evaluates the series weights along ``s_schedule`` (at least 3 increasing
    entries, typically doubling) and declares convergence when the last two
    stabilize within ``_WEIGHT_REL_TOL`` (5%) relative plus a 3-SE Monte Carlo
    allowance, 3 * (SE_a + SE_b).  The two estimates share strips
    (:func:`series_weights`), so they are correlated; the allowance still
    holds, since by Cauchy-Schwarz sd(a - b) <= sd(a) + sd(b) under any
    correlation.  The constant is c2.c_hat times the last weight; never a
    hard error on a non-converged schedule — the flag is the answer.
    """
    schedule = [int(s) for s in s_schedule]
    if len(schedule) < 3 or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("s_schedule needs >= 3 strictly increasing entries")
    if alpha1 is not None and not alpha1 > alpha2:
        raise RegimeMismatch(
            f"inherited constant needs alpha1 > alpha2, got {alpha1:.4g} <= {alpha2:.4g}"
        )
    trace = series_weights(law, alpha2, schedule, n, rng)
    last, prev = trace[-1], trace[-2]
    allowance = 3.0 * (last.std_error + prev.std_error)
    converged = abs(last.value - prev.value) < _WEIGHT_REL_TOL * abs(last.value) + allowance
    c_hat = c2.c_hat * last.value
    se = math.sqrt(
        (last.value * c2.std_error) ** 2 + (c2.c_hat * last.std_error) ** 2
    )
    constant = RenewalConstant(
        c_hat=c_hat,
        std_error=se,
        m_alpha=c2.m_alpha,
        alpha=alpha2,
        n_samples=n,
        cramer_residual=c2.cramer_residual,
    )
    return CoupledConstantResult(constant=constant, trace=trace, converged=converged)
