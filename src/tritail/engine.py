"""Simulators for the bivariate triangular recursion W_t = A_t W_{t-1} + B_t.

Componentwise the recursion reads

    W1_t = A1_t * W1_{t-1} + A2_t * W2_{t-1} + B1_t
    W2_t = A4_t * W2_{t-1} + B2_t

so the second coordinate runs autonomously and feeds the first through the
coupling entry A2.  One slab kernel, :func:`forward_slabs`, applies that
update everywhere but in the backward series: forward iteration past a
burn-in, the coefficient products Pi_t theta of the spectral limit laws (the recursion
with B = 0 started at theta), the series-weight strips of
:mod:`tritail.renewal` (the recursion with B = 0 started at (0, 1), whose
first coordinate is the product's corner entry), and the
top-Lyapunov-exponent estimator (the recursion with B = 0 started at e2
carries the 2x2 product's second column, and its top-left entry, the
product of the A1 draws, is multiplied as they are drawn).  The backward
series, :func:`backward_truncated`, multiplies its coefficient product on
the right, A_1 ... A_k, which no forward recursion carries: it is one short
loop of its own that retires each draw at a certified remainder.

The forward sampler runs a group of chain blocks side by side: each block
draws its coefficients from its own generator, exactly as a solo run of its
width would, into its columns of one wide slab, and every numpy call of the
update then spans the whole group.  The update is elementwise across chains,
so a block's states are bit-identical to the solo run's; the wide rows cut
the per-call overhead and let numpy release the interpreter lock, so groups
on a thread pool run in parallel.  Each slab's kept states go straight to a
:class:`tritail.reduction.Reducer` at the group's full width: no sampler
copies them into a chain-major array unless a caller asks for one.
"""

import math
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .errors import NonFiniteState, NotContracting
from .laws import CoeffDraw, CoefficientLaw, check_stationarity, log_moment
from .reduction import Reducer, WholeSample

__all__ = [
    "SimConfig",
    "PathSample",
    "LyapunovEstimate",
    "stationary_sample",
    "backward_truncated",
    "product_path",
    "lyapunov_estimate",
    "triangular_opnorm",
]

_FINITE_CHECK_EVERY = 64
_SLAB_ELEMENTS = 1 << 15  # coefficient draws per slab array (256 KiB of float64)
_SLAB_ROWS = 64  # steps per slab, and the longest renormalization interval of lyapunov_estimate
# Log-drift of one renormalization interval: half of the quarter of the float range's log that
# triangular_opnorm's 4th powers leave, the other half left to the spread around the drift.
_MAX_LOG_DRIFT = math.log(np.finfo(float).max) / 8
_CERTIFIED_REMAINDER = 1e-8  # a backward draw retires once ||A_1 ... A_tau||_1 is below this


@dataclass(frozen=True)
class SimConfig:
    """Simulation plan: sizes, thinning, truncation, and the base seed.

    ``truncation_depth`` caps the terms of each draw of
    :func:`backward_truncated`, which otherwise stops a draw at the first
    level whose coefficient product has 1-norm at most 1e-8; 0, the default,
    sets no cap.  ``burn_in`` is always literal here (pipeline configs may
    resolve their own defaults before building one of these).
    """

    burn_in: int
    n_draws: int
    thinning: int = 1
    truncation_depth: int = 0
    base_seed: int = 0

    def __post_init__(self):
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.n_draws < 1:
            raise ValueError("n_draws must be >= 1")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        if self.truncation_depth < 0:
            raise ValueError("truncation_depth must be >= 0")


@dataclass(eq=False)
class PathSample:
    """Simulated states of (W1, W2): the two arrays and ``chain_len``, nothing else.

    ``chain_len`` is the nominal per-chain length of a batch sample (the last
    chain may be shorter when the requested size does not fill it); consumers
    that slide windows over the sample must not cross chain boundaries.  A
    single forward path has ``chain_len == len(sample)``; backward draws are
    independent, ``chain_len == 1``.
    """

    STORED: ClassVar[tuple] = ("w1", "w2")  # the stored arrays, each (rows, chains) in a block

    w1: np.ndarray
    w2: np.ndarray
    chain_len: int

    def __post_init__(self):
        if self.w1.shape != self.w2.shape:
            raise ValueError("w1 and w2 must have identical shapes")
        if self.chain_len < 1:
            raise ValueError("chain_len must be >= 1")

    def __len__(self) -> int:
        return self.w1.size

    def series(self, name: str, key=slice(None)) -> np.ndarray:
        """``w1`` or ``w2`` at ``key``, a slice or an index array."""
        return getattr(self, name)[key]


def _check_state_finite(w1: np.ndarray, w2: np.ndarray, t: int) -> None:
    if not (np.isfinite(w1).all() and np.isfinite(w2).all()):
        raise NonFiniteState(
            f"state overflowed by step {t}; configuration is not stationary"
        )


# ============================================================================
# Forward simulation
# ============================================================================

def slab_rows(n_chains: int) -> int:
    """Steps per coefficient slab for a block of ``n_chains`` parallel chains.

    Sized by an element budget: 64 rows at pipeline widths, one row from
    32768 chains up, so a slab never holds more than a few MB.  A group of
    blocks run side by side uses its blocks' height, never the group width's,
    so that each block draws its coefficients as a solo run would.
    """
    return max(1, min(_SLAB_ROWS, _SLAB_ELEMENTS // n_chains))


def chain_blocks(rng, n_chains: int) -> tuple[list, int]:
    """The generator blocks that drive ``n_chains`` side-by-side chains.

    ``rng`` is one generator for all chains, or a sequence of ``(generator,
    chains)`` pairs for consecutive column blocks.  Returns the blocks as
    ``(generator, columns)`` with ``columns`` a slice, and their common slab
    height; blocks whose widths give different heights are rejected, since
    one of them would then draw in another order than it does alone.
    """
    pairs = [(rng, n_chains)] if isinstance(rng, np.random.Generator) else rng
    blocks, start = [], 0
    for gen, chains in pairs:
        blocks.append((gen, slice(start, start + chains)))
        start += chains
    heights = {slab_rows(chains) for _, chains in pairs}
    if start != n_chains or len(heights) != 1:
        raise ValueError("blocks must cover n_chains chains and share one slab height")
    return blocks, heights.pop()


def forward_slabs(draw, w1: np.ndarray, w2: np.ndarray, config: SimConfig, per_chain: int):
    """Run chains of the recursion through burn-in and kept steps, one slab at a time.

    ``w1`` and ``w2`` are (L+1, chains) state buffers whose row 0 holds the
    start state; ``draw(rows)`` returns the coefficients of the next ``rows``
    (at most L) steps as a :class:`CoeffDraw` of (rows, chains) arrays.  Each
    row is the plain update ``W1 = A1 W1 + A2 W2 + B1``, ``W2 = A4 W2 + B2``,
    so the states equal a per-step recursion over the same draws bit for bit.

    After each slab the buffers hold its states in rows 1..rows (row i is the
    state after step t+i) and the generator yields ``(j, sel)``: rows ``sel``
    are kept states ``j, j+1, ...`` of every chain.  Slabs with no kept state
    are not yielded.
    """
    burn_in, thinning = config.burn_in, config.thinning
    total = burn_in + per_chain * thinning
    rows_max = w1.shape[0] - 1
    tmp = np.empty(w1.shape[1])
    last = 0
    for t in range(0, total, rows_max):
        rows = min(rows_max, total - t)
        w1[0] = w1[last]
        w2[0] = w2[last]
        d = draw(rows)
        rows_in = zip(d.a1, d.a2, d.a4, d.b1, d.b2, w1, w2, w1[1:], w2[1:])
        for a1, a2, a4, b1, b2, prev1, prev2, next1, next2 in rows_in:
            np.multiply(a1, prev1, out=next1)
            np.multiply(a2, prev2, out=tmp)
            np.add(next1, tmp, out=next1)
            np.add(next1, b1, out=next1)
            np.multiply(a4, prev2, out=next2)
            np.add(next2, b2, out=next2)
        last = rows
        end = t + rows
        if end // _FINITE_CHECK_EVERY > t // _FINITE_CHECK_EVERY or end == total:
            _check_state_finite(w1[rows], w2[rows], end)
        # First kept step after t: burn_in + k*thinning for the least k >= 1.
        k = max(1, -(-(t + 1 - burn_in) // thinning))
        first = burn_in + k * thinning - t
        if first <= rows:
            yield k - 1, slice(first, rows + 1, thinning)


def chain_plan(n: int, n_chains: int) -> tuple[int, int]:
    """(chains, kept states per chain) for a chain-major sample of n states.

    ``n_chains=0`` picks about one chain per thousand draws.
    """
    if n_chains < 0:
        raise ValueError("n_chains must be >= 0")
    if n_chains == 0:
        n_chains = min(-(-n // 1000), 65536)
    n_chains = min(n_chains, n)
    return n_chains, -(-n // n_chains)


def stationary_sample(
    law: CoefficientLaw,
    config: SimConfig,
    rng: np.random.Generator,
    n_chains: int = 0,
    reducer: Optional[Reducer] = None,
):
    """Draw a large batch of approximately stationary states via parallel chains.

    Runs ``n_chains`` independent chains (auto: about one chain per thousand
    draws), each burnt in for ``config.burn_in`` steps, then keeps one state
    every ``config.thinning`` steps per chain until ``config.n_draws`` states
    exist in total.  The sample is chain-major: draws ``[c*chain_len, (c+1)*chain_len)``
    are consecutive states of chain ``c``, so windowed estimators can respect
    boundaries via ``PathSample.chain_len``.

    ``rng`` is one generator, or ``(generator, chains)`` blocks as in
    :func:`chain_blocks`: each block's chains then equal a solo run of that
    block on its generator bit for bit.  Each slab's kept (rows, chains)
    states go straight to ``reducer`` (:class:`tritail.reduction.Reducer`)
    as a step-major :class:`PathSample`, and its summary is returned; the
    default, a :class:`~tritail.reduction.WholeSample`, returns the whole
    sample.
    """
    n_chains, per_chain = chain_plan(config.n_draws, n_chains)
    if reducer is None:
        reducer = WholeSample(PathSample, config.n_draws, per_chain)
    blocks, rows = chain_blocks(rng, n_chains)
    w1 = np.zeros((rows + 1, n_chains))
    w2 = np.zeros((rows + 1, n_chains))
    coeffs = np.empty((len(CoeffDraw._fields), rows, n_chains))

    def draw(rows: int) -> CoeffDraw:
        for gen, cols in blocks:
            for wide, block in zip(coeffs, law.sample(gen, (rows, cols.stop - cols.start))):
                wide[:rows, cols] = block
        return CoeffDraw(*coeffs[:, :rows])

    for j, sel in forward_slabs(draw, w1, w2, config, per_chain):
        reducer.feed(j, PathSample(w1=w1[sel], w2=w2[sel], chain_len=per_chain))
    return reducer.summary()


# ============================================================================
# Backward (truncated series) simulation
# ============================================================================

def backward_truncated(
    law: CoefficientLaw,
    config: SimConfig,
    rng: np.random.Generator,
) -> PathSample:
    """Draw independent stationary states from the backward series, each stopped at a certificate.

    The stationary vector is the series  W = B_1 + A_1 B_2 + A_1 A_2 B_3 + ...
    = sum_k Pi_k B_{k+1}  with Pi_k = A_1 ... A_k.  It is summed front-first:
    each draw carries Pi_k as its three entries (p1, u, p4), which the next
    coefficients update to (p1 a1, p1 a2 + u a4, p4 a4), and retires at the
    first level tau with ||Pi_tau||_1 = |p1| + |u| + |p4| <= 1e-8.  tau
    depends only on the draw's own coefficients so far, so the part left out
    is Pi_tau W' with W' a stationary copy independent of Pi_tau: every draw
    carries its own bound on the remainder.  Front-first sums lose only terms
    below machine epsilon times W, far under that bound.
    ``config.truncation_depth`` caps tau (0: stop only at the certificate;
    a law with no stationarity witness then raises :class:`NotContracting`
    before anything is drawn, so the loop ends).

    Each level draws the coefficients of all live draws as one (1, live)
    slab, in the order of their positions, and then drops the draws that
    retired.  All ``config.n_draws`` draws are mutually independent
    (``chain_len == 1``).
    """
    cap = config.truncation_depth
    if not cap and not check_stationarity(law).holds:
        raise NotContracting(
            "no stationarity witness on the default grid; the backward series has no certified stop"
        )
    n = config.n_draws
    out1, out2 = np.empty(n), np.empty(n)
    lane = np.arange(n)
    w1, w2 = np.zeros(n), np.zeros(n)
    p1, u, p4 = np.ones(n), np.zeros(n), np.ones(n)
    level = 0
    while lane.size:
        a1, a2, a4, b1, b2 = (x[0] for x in law.sample(rng, (1, lane.size)))
        w1 += p1 * b1 + u * b2
        w2 += p4 * b2
        u = p1 * a2 + u * a4
        p1 *= a1
        p4 *= a4
        level += 1
        if level % _FINITE_CHECK_EVERY == 0:
            _check_state_finite(w1, w2, level)
        done = np.abs(p1) + np.abs(u) + np.abs(p4) <= _CERTIFIED_REMAINDER
        if level == cap:
            done[:] = True
        if done.any():
            out1[lane[done]] = w1[done]
            out2[lane[done]] = w2[done]
            keep = ~done
            lane, w1, w2, p1, u, p4 = (x[keep] for x in (lane, w1, w2, p1, u, p4))
    _check_state_finite(out1, out2, level)
    return PathSample(w1=out1, w2=out2, chain_len=1)


# ============================================================================
# Coefficient products
# ============================================================================

def product_path(draw, theta1: np.ndarray, theta2: np.ndarray, h: int) -> np.ndarray:
    """The products Pi_t theta = A_t ... A_1 theta for t = 1..h, per chain.

    This is the recursion with B = 0 started at theta, run one step per slab:
    ``draw(1)`` returns the next step's coefficients as a :class:`CoeffDraw`
    of (1, n) arrays, and its B entries are ignored.  Returns one (n, h, 2)
    array, ``[:, t-1]`` holding Pi_t theta; h may be 0.
    """
    if h < 0:
        raise ValueError("h must be >= 0")
    if theta1.ndim != 1 or theta1.shape != theta2.shape:
        raise ValueError("theta1 and theta2 must be 1-d arrays of one shape")
    n = theta1.size
    w1 = np.empty((2, n))
    w2 = np.empty((2, n))
    w1[0] = theta1
    w2[0] = theta2
    zero = np.zeros((1, n))
    out = np.empty((n, h, 2))

    def draw_a(rows: int) -> CoeffDraw:
        return draw(rows)._replace(b1=zero, b2=zero)

    for j, _ in forward_slabs(draw_a, w1, w2, SimConfig(burn_in=0, n_draws=1), h):
        out[:, j, 0] = w1[1]
        out[:, j, 1] = w2[1]
    return out


def triangular_opnorm(p: np.ndarray, u: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Operator 2-norm of [[p, u], [0, q]], elementwise over arrays.

    Uses the stable factorization of the discriminant,
    (p^2+u^2+q^2)^2 - 4 p^2 q^2 = ((p-q)^2 + u^2) ((p+q)^2 + u^2),
    which avoids cancellation when u is small and p is close to q.
    """
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    q = np.asarray(q, dtype=float)
    s = p * p + u * u + q * q
    disc = ((p - q) ** 2 + u * u) * ((p + q) ** 2 + u * u)
    return np.sqrt(0.5 * (s + np.sqrt(disc)))


# ============================================================================
# Lyapunov exponent
# ============================================================================

@dataclass(frozen=True)
class LyapunovEstimate:
    """Chain-averaged n^-1 log ||Pi_n|| plus the small-moment upper bound."""

    gamma_hat: float
    std_error: float
    upper_bound: float
    n_steps: int
    n_chains: int


def lyapunov_estimate(
    law: CoefficientLaw,
    n: int,
    n_chains: int,
    rng: np.random.Generator,
) -> LyapunovEstimate:
    """Estimate the top Lyapunov exponent of the coefficient products.

    Pi_n = [[P1, U], [0, P4]] is upper triangular: its second column (U, P4)
    is the recursion with B = 0 started at e2, run by :func:`forward_slabs`,
    and P1 is the running product of the A1 draws.  Each chain accumulates
    ``log ||Pi_n||`` with the product renormalized at the end of every
    coefficient slab, cut below 64 steps only where the norm's drift of
    max(E log A1, E log A4) a step would pass ``_MAX_LOG_DRIFT`` (the
    running log-scale is carried separately, so no entry under- or
    overflows).  ``upper_bound`` is ``log(rho)/eps`` from the stationarity
    witness on :data:`~tritail.laws.DEFAULT_EPS_GRID`, or +inf when no grid
    point qualifies; for any witness eps in (0, 1] the bound dominates the
    true exponent.
    """
    if n < 100:
        raise ValueError("n must be >= 100")
    if n_chains < 1:
        raise ValueError("n_chains must be >= 1")

    rows = slab_rows(n_chains)
    drift = abs(max(log_moment(law.marginal("a1")), log_moment(law.marginal("a4"))))
    if rows * drift > _MAX_LOG_DRIFT:
        rows = max(1, int(_MAX_LOG_DRIFT / drift))
    p1 = np.ones(n_chains)
    u = np.zeros((rows + 1, n_chains))
    p4 = np.zeros((rows + 1, n_chains))
    p4[0] = 1.0
    zero = np.zeros((rows, n_chains))
    log_scale = np.zeros(n_chains)

    def draw(rows: int) -> CoeffDraw:
        d = law.sample(rng, (rows, n_chains))
        for a1 in d.a1:
            np.multiply(p1, a1, out=p1)
        return d._replace(b1=zero[:rows], b2=zero[:rows])

    for j, sel in forward_slabs(draw, u, p4, SimConfig(burn_in=0, n_draws=1), n):
        last = sel.stop - 1
        scale = triangular_opnorm(p1, u[last], p4[last])
        if not np.isfinite(scale).all() or (scale <= 0.0).any():
            raise NonFiniteState(f"matrix product degenerated by step {j + last}")
        log_scale += np.log(scale)
        p1 /= scale
        u[last] /= scale
        p4[last] /= scale
    # After the final renormalization the matrix has unit norm: log||Pi_n|| is
    # exactly the accumulated log-scale.
    per_chain = log_scale / n
    gamma_hat = float(per_chain.mean())
    se = float(per_chain.std(ddof=1) / math.sqrt(n_chains)) if n_chains > 1 else 0.0

    report = check_stationarity(law)
    if report.holds:
        bound = math.log(report.rho) / report.witness_eps
    else:
        bound = math.inf
    return LyapunovEstimate(
        gamma_hat=gamma_hat,
        std_error=se,
        upper_bound=bound,
        n_steps=n,
        n_chains=n_chains,
    )
