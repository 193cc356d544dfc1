"""Print the SHA-256 of a fixed-seed output of each sampler.

Run from the root of a source checkout:

    PYTHONPATH=src python3 tools/stream_digest.py

Each sampler runs at a fixed seed on a fixed law.  The forward samplers keep
the first 10^5 states in the pipeline's chain shape (100 chains of 1000 kept
states); the pipelines' chunked forward samplers (demo law and GARCH law)
draw 2,200,517 states, eleven full chunks and a trimmed one, which the
pipeline runs as two groups, every state kept; the backward sampler draws
10^5 states of the demo law in one call, each stopped at its certified
remainder (no depth cap), and the pipelines' chunked backward sampler the
same 10^5 in chunks of 2^15; the forward spectral limit 10^5 draws of 16
steps on the demo law from a fixed angular sample (eight angles,
uniform weights), the series weights at s = 1, 4, 16, 64 from one run
of 10^5 strips on the C8 law, and the Lyapunov estimate 100 chains of
1000 steps on the demo law (its ``gamma_hat`` and ``std_error``).  The
digest covers the raw float64 bytes of every array the sampler returns, in
order, so two checkouts print the same line for a sampler exactly when its
random stream and arithmetic agree bit for bit.

The ``summary`` line covers the pipeline's reduction instead: a
601,017-state chunked sample (three full chunks and a trimmed one) of the
demo, C8 and GARCH laws is reduced under one plan each, and the digest
covers its tails (top values, n, minimum), first states and exceedance sets
(index, key, rows, n, minimum, and a point set's flags and the next states
of its valid points; the states past a chain's end are not defined).  The
plans read point sets with h = 2 or 3 and window sets with h = 2 and, on the
demo law, h = 9, where numpy sums pairwise.  The ``sums`` line covers the
same runs' partial sums of every tail series, one per span of whole chains
from the sample's start: their rounding is fixed by the chains and spans,
not by how the sample is grouped.
"""

import hashlib

import numpy as np

from tritail.engine import SimConfig, backward_truncated, lyapunov_estimate, stationary_sample
from tritail.garch import STORED, GarchLaw, GarchParams, stationary_garch_sample
from tritail.laws import Constant, IndependentLaw, LogNormal
from tritail.pipelines import _backward_chunked, _forward_chunked
from tritail.reduction import Plan, PointSpec, WindowSpec
from tritail.renewal import series_weights
from tritail.spectral import AngularSample, spectral_process_draws
from tritail.streams import substream

N_STATES = 100_000
N_CHUNKED = 2_200_517
N_SUMMARY = 601_017
N_CHAINS = 100
SEED = 7

ROOT_HALF = 0.5 ** 0.5
# The README demo law (regime A1) and the README GARCH law.
DEMO_LAW = IndependentLaw(
    a1=LogNormal(-0.375, ROOT_HALF),
    a2=LogNormal(-0.5, 0.5),
    a4=LogNormal(-0.75, ROOT_HALF),
    b1=Constant(1.0),
    b2=Constant(1.0),
)
DEMO_ALPHA2 = 3.0  # -2 mu4 / sigma4^2
# Eight angles spread over the quarter circle, equally weighted.
ANGLES = np.linspace(0.0, 0.5 * np.pi, 8)
ANGULAR = AngularSample(
    points=np.column_stack((np.cos(ANGLES), np.sin(ANGLES))),
    weights=np.ones(8),
    threshold_u=None,
    n_exceedances=8,
)
# The suite's C8 law (regime A2, alpha2 = -2 mu4 / sigma4^2 = 1.5): the law
# whose W1 tail is inherited through the series weights.
C8_LAW = IndependentLaw(
    a1=LogNormal(-0.75, ROOT_HALF),
    a2=LogNormal(-0.5, 0.5),
    a4=LogNormal(-0.375, ROOT_HALF),
    b1=Constant(1.0),
    b2=Constant(1.0),
)
C8_ALPHA2 = 1.5
GARCH_PARAMS = GarchParams(
    alpha0=(0.05, 0.05), alpha11=0.10, alpha12=0.05, alpha22=0.35,
    beta11=0.85, beta12=0.05, beta22=0.60, rho=0.5,
)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def summary_digest() -> tuple[str, str]:
    """The digests of the reduced demo, C8 and GARCH samples and of their partial sums."""
    h, sums = hashlib.sha256(), hashlib.sha256()

    def update(*arrays):
        h.update(digest(*arrays).encode())

    pair, vols, returns = ("w1", "w2"), ("sigma1_sq", "sigma2_sq"), ("x1", "x2")
    # (law, burn-in, purpose, tail series, first-state series, anchors, after, extra sets)
    runs = (
        (DEMO_LAW, 2000, "stationary", pair, pair, pair, pair, (WindowSpec("w1", 9, 0.999),)),
        (C8_LAW, 2000, "stationary", pair, pair, pair, pair, ()),
        (GarchLaw(GARCH_PARAMS), 1000, "garch", vols + ("abs_x1", "abs_x2"), STORED, vols,
         returns, ()),
    )
    for law, burn_in, purpose, tails, heads, anchors, after, extra in runs:
        specs = (PointSpec(anchors, after, 3, 0.999), PointSpec(anchors, after, 2, 0.99),
                 *(WindowSpec(name, 2, 0.999) for name in after), *extra)
        plan = Plan(tails=dict.fromkeys(tails, 2000), strides={(s, 1): 250_000 for s in heads},
                    sums=frozenset(tails), exceedances=frozenset(specs))
        sim = SimConfig(burn_in=burn_in, n_draws=N_SUMMARY, base_seed=SEED)
        s = _forward_chunked(law, sim, plan, None, purpose)()
        for name in tails:
            tail = s.tail(name)
            update(tail.top, (tail.n, tail.minimum))
        for name in heads:
            update(s.head(name, 250_000))
        for spec in specs:
            ex = s.exceedance_set(spec)
            update(ex.index, ex.key, ex.rows, (ex.n, ex.minimum))
            if ex.valid is not None:
                update(ex.valid, ex.after[ex.valid])
        for name in tails:
            sums.update(digest(s.sums[name]).encode())
    return h.hexdigest(), sums.hexdigest()


def main() -> None:
    forward = stationary_sample(
        DEMO_LAW,
        SimConfig(burn_in=2000, n_draws=N_STATES, base_seed=SEED),
        substream(SEED, "stream_digest"),
        n_chains=N_CHAINS,
    )
    print(f"stationary_sample        {digest(forward.w1, forward.w2)}")
    garch = stationary_garch_sample(
        GARCH_PARAMS,
        SimConfig(burn_in=1000, n_draws=N_STATES, base_seed=SEED),
        substream(SEED, "stream_digest"),
        n_chains=N_CHAINS,
    )
    arrays = (garch.x1, garch.x2, garch.sigma1_sq, garch.sigma2_sq, garch.z1, garch.z2)
    print(f"stationary_garch_sample  {digest(*arrays)}")
    chunked = _forward_chunked(
        DEMO_LAW, SimConfig(burn_in=2000, n_draws=N_CHUNKED, base_seed=SEED),
        Plan(strides={(s, 1): N_CHUNKED for s in ("w1", "w2")}), None, "stationary",
    )()
    print(f"stationary_chunked       {digest(*(chunked.head(s, N_CHUNKED) for s in ('w1', 'w2')))}")
    garch = _forward_chunked(
        GarchLaw(GARCH_PARAMS), SimConfig(burn_in=1000, n_draws=N_CHUNKED, base_seed=SEED),
        Plan(strides={(s, 1): N_CHUNKED for s in STORED}), None, "garch",
    )()
    print(f"garch_chunked            {digest(*(garch.head(s, N_CHUNKED) for s in STORED))}")
    backward = backward_truncated(
        DEMO_LAW,
        SimConfig(burn_in=0, n_draws=N_STATES, base_seed=SEED),
        substream(SEED, "stream_digest"),
    )
    print(f"backward_truncated       {digest(backward.w1, backward.w2)}")
    chunked = _backward_chunked(DEMO_LAW, SimConfig(burn_in=0, n_draws=N_STATES, base_seed=SEED))
    print(f"backward_chunked         {digest(chunked.w1, chunked.w2)}")
    limit = spectral_process_draws(
        DEMO_LAW, DEMO_ALPHA2, 16, N_STATES, ANGULAR, substream(SEED, "stream_digest")
    )
    print(f"spectral_process_draws   {digest(limit.y0, limit.theta0, limit.path)}")
    weights = series_weights(
        C8_LAW, C8_ALPHA2, (1, 4, 16, 64), N_STATES, substream(SEED, "stream_digest")
    )
    values = [(w.value, w.std_error) for w in weights]
    print(f"series_weight            {digest(values)}")
    lyap = lyapunov_estimate(
        DEMO_LAW, N_STATES // N_CHAINS, N_CHAINS, substream(SEED, "stream_digest")
    )
    print(f"lyapunov_estimate        {digest((lyap.gamma_hat, lyap.std_error))}")
    summary, sums = summary_digest()
    print(f"summary                  {summary}")
    print(f"sums                     {sums}")


if __name__ == "__main__":
    main()
