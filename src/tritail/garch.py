"""Bivariate constant-conditional-correlation GARCH(1,1) on the triangular recursion.

The squared-volatility pair (sigma1^2, sigma2^2) of the CCC model with a
one-way volatility spillover (the second asset feeds the first, never the
reverse) follows exactly the triangular recursion of :mod:`tritail.engine`:

    A1 = alpha11 Z1^2 + beta11,   A2 = alpha12 Z2^2 + beta12,
    A4 = alpha22 Z2^2 + beta22,   B  = (alpha01, alpha02),

with the A entries built from the PREVIOUS step's noise and the return pair
assembled from the fresh one (X_t = sigma_t Z_t).  Getting that off-by-one
wrong silently shifts every tail constant.  Three places here apply it: the
sampler's coefficient source (:func:`_noise_slabs`) and the limit products
of :func:`_noise_products`, which both feed
:func:`tritail.engine.forward_slabs`, and the weighted window limit of
:func:`_prop_heavier_own`.

Besides the simulators this module verifies the model's tail chain — solver
roots, Hill estimates of sigma^2 and |X|, the plateaus of sigma^2, the
second component's renewal constant — and the two regime-specific limit laws
of threshold-conditioned return windows, whose exceedances and KS battery
are those of :mod:`tritail.spectral`.  Both checks return a tuple of
:class:`~tritail.records.ResultRecord`, the scorecard entries the pipelines
report under a ``verify_`` or ``spectral_`` prefix.
"""

import math
from dataclasses import dataclass, replace
from typing import ClassVar, Optional

import numpy as np

from .engine import (
    SimConfig,
    chain_blocks,
    chain_plan,
    forward_slabs,
    product_path,
)
from .errors import RegimeMismatch
from .laws import ChiSqAffine, CoeffDraw, Constant, RegimeReport
from .records import ResultRecord, dispersion_gate, gate, hill_gate
from .reduction import Plan, PointSpec, Reducer, WholeSample, WindowSpec, summarize
from .renewal import univariate_constant
from .spectral import (
    MIN_EXCEEDANCES,
    exceedance_angles,
    forward_limit_ks,
    select_exceedances,
    unit_pareto,
)
from .tailstats import (
    block_rows,
    default_hill_k,
    estimator_depth,
    hill,
    ks_distance,
    tail_constant,
)

__all__ = [
    "GarchParams",
    "GarchLaw",
    "GarchPath",
    "to_sre_coefficients",
    "return_hill_k",
    "series_depth",
    "stationary_garch_sample",
    "verify_plan",
    "verify_tail_relations",
    "spectral_plan",
    "return_spectral_check",
]

STORED = ("sigma1_sq", "sigma2_sq", "z1", "z2")  # a path's arrays, in GarchPath's field order


@dataclass(frozen=True)
class GarchParams:
    """CCC-GARCH(1,1) parameters with the one-way spillover structure.

    All ARCH/GARCH coefficients must be strictly positive (the lower-left
    channel does not exist and is not stored); ``rho`` is the constant
    conditional correlation of the Gaussian noise pair.
    """

    alpha0: tuple[float, float]
    alpha11: float
    alpha12: float
    alpha22: float
    beta11: float
    beta12: float
    beta22: float
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "alpha0", (float(self.alpha0[0]), float(self.alpha0[1])))
        positives = {
            "alpha0[0]": self.alpha0[0],
            "alpha0[1]": self.alpha0[1],
            "alpha11": self.alpha11,
            "alpha12": self.alpha12,
            "alpha22": self.alpha22,
            "beta11": self.beta11,
            "beta12": self.beta12,
            "beta22": self.beta22,
        }
        for name, v in positives.items():
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be a finite positive real, got {v!r}")
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (-1, 1), got {self.rho!r}")

    def to_dict(self) -> dict:
        return {
            "alpha0": list(self.alpha0),
            "alpha11": self.alpha11,
            "alpha12": self.alpha12,
            "alpha22": self.alpha22,
            "beta11": self.beta11,
            "beta12": self.beta12,
            "beta22": self.beta22,
            "rho": self.rho,
        }


def to_sre_coefficients(params: GarchParams, z, out=None):
    """Coefficient tuple (A1, A2, A4, B1, B2) from one noise pair (vectorized).

    A2 and A4 share z2, so their comonotone dependence is preserved exactly.
    ``out`` is an optional triple of arrays that receives (A1, A2, A4).
    """
    z1, z2 = z
    a1, a2, a4 = (None, None, None) if out is None else out
    a1 = np.square(z1, out=a1)
    a1 *= params.alpha11
    a1 += params.beta11
    a2 = np.square(z2, out=a2)
    a4 = np.multiply(a2, params.alpha22, out=a4)
    a4 += params.beta22
    a2 *= params.alpha12
    a2 += params.beta12
    return a1, a2, a4, params.alpha0[0], params.alpha0[1]


def _correlated_normals(rho: float, size, rng: np.random.Generator):
    n1 = rng.standard_normal(size)
    n2 = rng.standard_normal(size)
    return n1, rho * n1 + math.sqrt(1.0 - rho * rho) * n2


@dataclass(frozen=True)
class GarchLaw:
    """The coefficient law induced by GARCH parameters under Gaussian noise.

    Satisfies the same protocol as :class:`tritail.laws.IndependentLaw`, so
    every engine / renewal / spectral routine runs on it unchanged — with the
    difference that one joint draw couples (A2, A4) through the shared z2.
    """

    params: GarchParams

    def sample(self, rng: np.random.Generator, size) -> CoeffDraw:
        z = _correlated_normals(self.params.rho, size, rng)
        a1, a2, a4, b1, b2 = to_sre_coefficients(self.params, z)
        return CoeffDraw(a1=a1, a2=a2, a4=a4, b1=np.broadcast_to(b1, size),
                         b2=np.broadcast_to(b2, size))

    def marginal(self, name: str):
        p = self.params
        marginals = {
            "a1": lambda: ChiSqAffine(p.alpha11, p.beta11),
            "a2": lambda: ChiSqAffine(p.alpha12, p.beta12),
            "a4": lambda: ChiSqAffine(p.alpha22, p.beta22),
            "b1": lambda: Constant(p.alpha0[0]),
            "b2": lambda: Constant(p.alpha0[1]),
        }
        if name not in marginals:
            raise ValueError(f"unknown coefficient name {name!r}")
        return marginals[name]()


@dataclass(eq=False)
class GarchPath:
    """Simulated squared volatilities and the driving noise.

    The four stored arrays and ``chain_len`` are all a path carries; the
    arrays are chain-major like :class:`tritail.engine.PathSample`, and a
    sampler hands a reducer the same class over (rows, chains) blocks of kept
    states.  The returns are not stored:
    :meth:`series` derives ``x1``/``x2`` and ``abs_x1``/``abs_x2`` from
    (sigma_i^2, Z_i) for the states it is asked for, and the ``x1``/``x2``
    properties for the whole path.  The estimators read a path through
    :func:`tritail.reduction.summarize`, one streaming pass per series.
    """

    STORED: ClassVar[tuple] = STORED

    sigma1_sq: np.ndarray
    sigma2_sq: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    chain_len: int

    def __len__(self) -> int:
        return self.sigma1_sq.size

    def series(self, name: str, key=slice(None)) -> np.ndarray:
        """A stored or derived series at ``key``, a slice or an index array.

        ``x1``/``x2`` are the returns sqrt(sigma_i^2) Z_i, ``abs_x1``/``abs_x2``
        their absolute values, and ``w1``/``w2`` the squared volatilities
        sigma1^2/sigma2^2.
        """
        name = {"w1": "sigma1_sq", "w2": "sigma2_sq"}.get(name, name)
        if name.startswith(("x", "abs_x")):
            i = name[-1]
            x = np.sqrt(getattr(self, f"sigma{i}_sq")[key]) * getattr(self, f"z{i}")[key]
            return np.abs(x) if name.startswith("abs") else x
        return getattr(self, name)[key]

    @property
    def x1(self) -> np.ndarray:
        return self.series("x1")

    @property
    def x2(self) -> np.ndarray:
        return self.series("x2")


def _noise_slabs(params: GarchParams, blocks, z1: np.ndarray, z2: np.ndarray):
    """Coefficient-slab source for the GARCH forward kernel.

    ``z1``/``z2`` are (L+1, chains) noise buffers aligned with the kernel's
    state rows: row 0 holds the previous slab's last noise (the initial pair
    before the first slab) and rows 1..rows the fresh noise of each step.
    The coefficients of a step come from the PREVIOUS row's noise, and a
    kept state stores its own row's noise, whose return is sqrt(sigma^2)
    times that noise — the single place the timing convention lives.
    ``blocks`` are the ``(generator, columns)`` pairs of
    :func:`tritail.engine.chain_blocks`; each block draws its own columns.
    """
    c = math.sqrt(1.0 - params.rho * params.rho)
    shape = (z1.shape[0] - 1, z1.shape[1])
    b1 = np.broadcast_to(params.alpha0[0], shape)
    b2 = np.broadcast_to(params.alpha0[1], shape)
    coeffs = np.empty((3,) + shape)
    last = 0

    def draw(rows: int) -> CoeffDraw:
        nonlocal last
        z1[0] = z1[last]
        z2[0] = z2[last]
        n1, n2 = z1[1 : rows + 1], z2[1 : rows + 1]
        for gen, cols in blocks:
            # A solo run's order: the block's z1 slab, then its z2 slab.
            n1[:, cols] = gen.standard_normal((rows, cols.stop - cols.start))
            n2[:, cols] = gen.standard_normal((rows, cols.stop - cols.start))
        a = coeffs[:, :rows]
        # rho*n1 + c*n2, in place: the same sum as _correlated_normals.  A1's
        # buffer holds rho*n1 until A1 itself is computed.
        np.multiply(n1, params.rho, out=a[0])
        n2 *= c
        n2 += a[0]
        last = rows
        a1, a2, a4, _, _ = to_sre_coefficients(params, (z1[:rows], z2[:rows]), out=a)
        return CoeffDraw(a1=a1, a2=a2, a4=a4, b1=b1, b2=b2)

    return draw


def stationary_garch_sample(
    params: GarchParams,
    config: SimConfig,
    rng: np.random.Generator,
    n_chains: int = 0,
    reducer: Optional[Reducer] = None,
):
    """Draw a chain-major batch of approximately stationary GARCH states.

    Same chain layout, trimming rules, generator blocks and ``reducer``
    convention as :func:`tritail.engine.stationary_sample` (auto: about one
    chain per thousand draws): each slab's kept states go to the reducer as
    a step-major :class:`GarchPath` of its :data:`STORED` arrays, which
    derives the returns from them; by default the path is returned whole.
    Volatilities start at their floor alpha0 and burn in.
    """
    n_chains, per_chain = chain_plan(config.n_draws, n_chains)
    if reducer is None:
        reducer = WholeSample(GarchPath, config.n_draws, per_chain)
    blocks, rows = chain_blocks(rng, n_chains)
    s1 = np.empty((rows + 1, n_chains))
    s2 = np.empty((rows + 1, n_chains))
    s1[0] = params.alpha0[0]
    s2[0] = params.alpha0[1]
    z1 = np.empty((rows + 1, n_chains))
    z2 = np.empty((rows + 1, n_chains))
    for gen, cols in blocks:
        z1[0, cols], z2[0, cols] = _correlated_normals(params.rho, cols.stop - cols.start, gen)
    draw = _noise_slabs(params, blocks, z1, z2)
    for j, sel in forward_slabs(draw, s1, s2, config, per_chain):
        reducer.feed(j, GarchPath(s1[sel], s2[sel], z1[sel], z2[sel], chain_len=per_chain))
    return reducer.summary()


# ============================================================================
# Tail-chain verification
# ============================================================================

def return_hill_k(n: int) -> int:
    """Default Hill k for return series: floor(n^0.5).

    Returns mix the Z^4 moments into the slowly varying part, so their Hill
    transition zone sits lower than the volatilities' n^0.6.
    """
    return max(2, int(n**0.5))


def series_depth(name: str, n: int, k: int = 0) -> int:
    """Tail depth of a series for Hill at k, the default plateau and the 0.999 quantile.

    ``k=0`` takes the series' default rule: :func:`return_hill_k` for
    ``abs_x1``/``abs_x2`` and :func:`default_hill_k` for any other.
    """
    return estimator_depth(n, k or (return_hill_k(n) if name.startswith("abs_x") else default_hill_k(n)))


def verify_plan(n: int, k: int = 0, k_x: int = 0, constant_draws: int = 1_000_000) -> Plan:
    """The reductions :func:`verify_tail_relations` reads of an n-state path."""
    return Plan(
        tails={name: series_depth(name, n, k_x if name.startswith("abs_x") else k)
               for name in ("sigma1_sq", "sigma2_sq", "abs_x1", "abs_x2")},
        strides={("sigma2_sq", 1): min(constant_draws, n)},
    )


def verify_tail_relations(
    params: GarchParams,
    regime: RegimeReport,
    rng: np.random.Generator,
    path: GarchPath,
    *,
    se_mult: float = 4.0,
    rel_tol: float = 0.25,
    k: int = 0,
    k_x: int = 0,
    constant_draws: int = 1_000_000,
    dispersion_max: float = 0.15,
) -> tuple[ResultRecord, ...]:
    """Verify the model's tail chain end to end on a simulated sample.

    Takes the two diagonal tail indices from ``regime``, the
    :func:`~tritail.laws.classify_regime` report on ``GarchLaw(params)``, and
    gates each estimate once on the stationary ``path``:

    * Hill estimates of sigma1^2 and sigma2^2 at ``k`` against the solver
      targets (the first coordinate's index is min(alpha1, alpha2) in either
      regime; the second's is alpha2), and of |X1| and |X2| at ``k_x``
      against twice those targets (X^2 = sigma^2 Z^2 has sigma^2's index,
      so |X| has twice it), each within ``se_mult`` standard errors;
    * the plateau of each volatility at its target, its dispersion below
      ``dispersion_max``; sigma1^2's constant is reported, and sigma2^2's
      is checked against the second coordinate's renewal constant
      (relative tolerance ``rel_tol``).

    ``path`` is a :class:`GarchPath` or its summary planned with
    :func:`verify_plan` at the same arguments.  Returns the eight records in
    that order; ``passed is False`` marks a FAIL.
    """
    a1, a2 = regime.alpha1.alpha, regime.alpha2.alpha
    a_min = min(a1, a2)

    n = len(path)
    reduced = summarize(path, verify_plan(n, k, k_x, constant_draws))
    k_x = k_x or return_hill_k(n)
    records = [
        hill_gate(f"hill_{name}", hill(reduced.tail(name), k=k_used), target, se_mult)
        for name, k_used, target in (("sigma1_sq", k, a_min), ("sigma2_sq", k, a2),
                                     ("abs_x1", k_x, 2.0 * a_min), ("abs_x2", k_x, 2.0 * a2))
    ]
    plateaus = {name: tail_constant(reduced.tail(name), alpha)
                for name, alpha in (("sigma1_sq", a_min), ("sigma2_sq", a2))}
    records += [dispersion_gate(f"plateau_{name}_dispersion", est, dispersion_max)
                for name, est in plateaus.items()]
    records.append(ResultRecord(name="plateau_sigma1_sq", value=plateaus["sigma1_sq"].c_hat,
                                note=f"alpha={a_min:.6g}"))

    # Renewal constant of the autonomous coordinate vs its simulated plateau.
    c2 = univariate_constant(
        ChiSqAffine(params.alpha22, params.beta22),
        Constant(params.alpha0[1]),
        a2,
        reduced.head("sigma2_sq", constant_draws),
        rng,
    )
    records.append(
        gate("sigma2_sq_constant_vs_plateau", plateaus["sigma2_sq"].c_hat, c2.c_hat * (1 - rel_tol),
             c2.c_hat * (1 + rel_tol), std_error=c2.std_error,
             note=f"renewal constant {c2.c_hat:.6g}")
    )
    return tuple(records)


# ============================================================================
# Regime-specific limit laws of return windows
# ============================================================================

def _sign_symmetry_records(coords: np.ndarray, ks_bound: float) -> list[ResultRecord]:
    """Antipodal-symmetry checks on signed window coordinates (m, d).

    Two statistics per report: the largest per-coordinate KS distance between
    the sample and its negation, and the largest z-score of the positive-sign
    fraction against 1/2.  Both are trivial consequences of sign-symmetric
    noise, so they gate at the given KS bound and at 4 sigma respectively.
    """
    m = coords.shape[0]
    ks_sym = max(
        ks_distance(coords[:, j], -coords[:, j]) for j in range(coords.shape[1])
    )
    # The mirror comparison has KS fluctuations of order sqrt(2/m) even under
    # perfect symmetry; keep the bound meaningful for small exceedance counts
    # by not gating below the two-sample 1% critical value.
    ks_gate = max(ks_bound, 1.628 * math.sqrt(2.0 / max(m, 1)))
    frac = coords > 0
    z_max = float(np.abs(frac.mean(axis=0) - 0.5).max() * 2.0 * math.sqrt(m))
    return [
        gate("sign_symmetry_ks", float(ks_sym), 0.0, ks_gate),
        gate("sign_symmetry_z", z_max, 0.0, 4.0, std_error=1.0),
    ]


_VOLS = ("sigma1_sq", "sigma2_sq")
_RETURNS = ("x1", "x2")


def _spectral_specs(a1: float, a2: float, h: int, u_quantile: float) -> tuple:
    """The exceedance sets the regime's branch of :func:`return_spectral_check` reads."""
    if a1 > a2:
        return (PointSpec(anchors=_VOLS, after=_RETURNS, h=h, u=u_quantile),)
    if a1 < a2:
        return tuple(WindowSpec(series=x, h=h, u=u_quantile) for x in _RETURNS)
    return ()


def spectral_plan(regime: RegimeReport, h: int, u_quantile: float) -> Plan:
    """The reductions :func:`return_spectral_check` reads of a path."""
    specs = _spectral_specs(regime.alpha1.alpha, regime.alpha2.alpha, h, u_quantile)
    return Plan(exceedances=frozenset(specs))


def _noise_products(params, theta0, z1, z2, h):
    """The volatility products Pi_t Theta0, t = 1..h, of one (rows, h + 1) noise pair.

    Returned as one (rows, h, 2) array, as :func:`tritail.engine.product_path`.
    Step t's matrix A_t comes from noise column t-1 and the window value at
    t from column t: the last column is left for the window values, which
    couple to the NEXT matrix — the same shared index that links X_t to
    A_{t+1} in the recursion.
    """
    cols = iter(range(h))

    def draw(rows: int) -> CoeffDraw:
        s = next(cols)
        return CoeffDraw(*to_sre_coefficients(params, (z1[None, :, s], z2[None, :, s])))

    return product_path(draw, theta0[:, 0], theta0[:, 1], h)


def _cross_feed_limit(params, theta, h, n_limit, a2, rng):
    """n_limit limit windows V sqrt((Pi_t Theta0)_i) z_{i,t}, as an (n_limit, h, 2) array.

    Theta0 is resampled from the angles ``theta``.  The noise pair is that of
    ``_correlated_normals(rho, (n_limit, h + 1), rng)``, but z2 and the
    windows are built one row block at a time: the generator fills in C
    order, so the blocks of n2 hold the whole draw's numbers.
    """
    pick = rng.choice(len(theta), size=n_limit)
    v = unit_pareto(2.0 * a2, n_limit, rng)
    z1 = rng.standard_normal((n_limit, h + 1))
    c = math.sqrt(1.0 - params.rho * params.rho)
    limit = np.empty((n_limit, h, 2))
    step = block_rows(8 * (h + 1))  # about eight (rows, h + 1) arrays live in a block
    for lo in range(0, n_limit, step):
        rows = slice(lo, lo + step)
        z1_rows = z1[rows]
        # rho*n1 + c*n2, in place: the same sum as _correlated_normals.
        z2_rows = rng.standard_normal(z1_rows.shape)
        z2_rows *= c
        z2_rows += params.rho * z1_rows
        vol = _noise_products(params, theta[pick[rows]], z1_rows, z2_rows, h)
        limit[rows, :, 0] = v[rows, None] * np.sqrt(vol[..., 0]) * z1_rows[:, 1:]
        limit[rows, :, 1] = v[rows, None] * np.sqrt(vol[..., 1]) * z2_rows[:, 1:]
    return limit


def _prop_heavier_cross(params, ex, h, u_quantile, n_limit, ks_bound, a2, rng):
    """Branch alpha1 > alpha2: windows after a volatility-norm exceedance.

    Compares x^{-1/2}(X_{t+1..t+h}) given |(sigma1^2, sigma2^2)_t| > x against
    the limit draws V * sqrt((Pi_t Theta0)_i) * z_{i,t}, with V an exact
    Pareto(2 alpha2) factor, Theta0 resampled from the volatility angles, and
    the noise z shared between each window value and the next matrix.
    """
    x, sel = select_exceedances(ex, u_quantile, "in-chain volatility exceedances", in_chain=True)
    sim_win = ex.after[sel] * (1.0 / math.sqrt(x))
    limit = _cross_feed_limit(params, exceedance_angles(ex, sel), h, n_limit, a2, rng)
    records = [gate(f"ks_{name}", stat, 0.0, ks_bound)
               for name, stat in forward_limit_ks(sim_win, limit, coord="x",
                                                  norm="window_norm").items()]
    records.extend(_sign_symmetry_records(sim_win.reshape(sel.size, -1), ks_bound))
    return records


def _prop_heavier_own(params, sets, h, u_quantile, n_limit, ks_bound, alphas, rng):
    """Branch alpha1 < alpha2: per-component window angles vs weighted limit.

    For each return series X_i the angular law of its length-h window above a
    window-norm threshold is compared against the normalized vectors
    (|z_{i,t}| sqrt(Pi_t^{(i)}))_t reweighted by norm^(2 alpha_i), carrying
    independent Bernoulli signs.
    """
    records = []
    for i, (ex, alpha_i) in enumerate(zip(sets, alphas), start=1):
        _, keep = select_exceedances(ex, u_quantile, f"window-norm exceedances on X{i}")
        angles = exceedance_angles(ex, keep)

        z1, z2 = _correlated_normals(params.rho, (n_limit, h + 1), rng)
        # A_t from noise column t-1, the window value at t from column t.
        a1, _, a4, _, _ = to_sre_coefficients(params, (z1[:, :h], z2[:, :h]))
        a_i, z_i = (a1, z1) if i == 1 else (a4, z2)
        y = np.abs(z_i[:, 1:]) * np.sqrt(np.cumprod(a_i, axis=1))
        y_norm = np.linalg.norm(y, axis=1)
        weights = y_norm ** (2.0 * alpha_i)
        weights /= weights.sum()
        signs = rng.integers(0, 2, size=(n_limit, h)) * 2.0 - 1.0
        limit_angles = (y / y_norm[:, None]) * signs

        for t in range(h):
            stat = ks_distance(angles[:, t], limit_angles[:, t], None, weights)
            records.append(gate(f"ks_x{i}_angle_t{t + 1}", float(stat), 0.0, ks_bound))
        records.extend(
            replace(r, name=f"{r.name}_x{i}")
            for r in _sign_symmetry_records(angles, ks_bound)
        )
    return records


def return_spectral_check(
    params: GarchParams,
    regime: RegimeReport,
    h: int,
    rng: np.random.Generator,
    path: GarchPath,
    *,
    u_quantile: float = 0.999,
    n_limit: int = 200_000,
    ks_bound: float = 0.05,
) -> tuple[ResultRecord, ...]:
    """Check the regime-appropriate limit law of threshold-conditioned returns.

    Takes the two tail indices from ``regime`` (as in
    :func:`verify_tail_relations`) and, on the stationary ``path``, dispatches
    on their order: alpha1 > alpha2 conditions on volatility-norm exceedances
    and rebuilds the forward limit with an exact Pareto(2 alpha2) factor;
    alpha1 < alpha2 compares per-component window angles against the
    sign-symmetrized weighted product law.  Sign-symmetry statistics of the
    conditioned windows are reported in both branches.  ``path`` is a
    :class:`GarchPath` or its summary planned with :func:`spectral_plan`.

    Returns an informational ``branch`` record, whose note names the branch
    (``heavier_cross_feed`` or ``heavier_own_tail``), then the branch's
    records; ``passed is False`` marks a FAIL.
    """
    if h < 1:
        raise ValueError("h must be >= 1")
    if not 0.0 < u_quantile < 1.0:
        raise ValueError("u_quantile must lie in (0, 1)")
    if n_limit < MIN_EXCEEDANCES:
        raise ValueError(f"n_limit must be >= {MIN_EXCEEDANCES}")
    a1, a2 = regime.alpha1.alpha, regime.alpha2.alpha
    if a1 == a2:
        raise RegimeMismatch("tail indices coincide; no regime branch applies")

    specs = _spectral_specs(a1, a2, h, u_quantile)
    reduced = summarize(path, Plan(exceedances=frozenset(specs)))
    sets = [reduced.exceedance_set(spec) for spec in specs]
    if a1 > a2:
        branch = "heavier_cross_feed"
        records = _prop_heavier_cross(params, sets[0], h, u_quantile, n_limit, ks_bound, a2, rng)
    else:
        branch = "heavier_own_tail"
        records = _prop_heavier_own(params, sets, h, u_quantile, n_limit, ks_bound, (a1, a2), rng)
    return (ResultRecord(name="branch", note=branch), *records)
