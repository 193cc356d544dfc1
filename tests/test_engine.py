"""Forward/backward simulators, coefficient products, Lyapunov estimation."""

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritail.engine import (
    LyapunovEstimate,
    PathSample,
    SimConfig,
    backward_truncated,
    chain_blocks,
    forward_slabs,
    lyapunov_estimate,
    product_path,
    slab_rows,
    stationary_sample,
    triangular_opnorm,
)
from tritail.errors import NonFiniteState, NotContracting
from tritail.laws import Constant, IndependentLaw, LogNormal
from tritail import pipelines
from tritail.reduction import Plan, Reducer, Summary
from tritail.pipelines import (
    _CHUNK_CHAIN_LEN,
    _CHUNK_DRAWS,
    _GROUP_ELEMENTS,
    _forward_chunked,
)
from tritail.spectral import AngularSample, spectral_process_draws
from tritail.streams import substream
from tritail.tailstats import ks_2sample

from conftest import LAW_C8, make_law

CONST_LAW = make_law(Constant(0.5), Constant(0.25), Constant(0.5))
CHUNK_CHAINS = _CHUNK_DRAWS // _CHUNK_CHAIN_LEN


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# configuration and sample containers
# ---------------------------------------------------------------------------

def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(burn_in=-1, n_draws=10)
    with pytest.raises(ValueError):
        SimConfig(burn_in=0, n_draws=0)
    with pytest.raises(ValueError):
        SimConfig(burn_in=0, n_draws=10, thinning=0)
    with pytest.raises(ValueError):
        SimConfig(burn_in=0, n_draws=10, truncation_depth=-1)


def test_path_sample_validation():
    with pytest.raises(ValueError):
        PathSample(w1=np.zeros(3), w2=np.zeros(4), chain_len=1)
    with pytest.raises(ValueError):
        PathSample(w1=np.zeros(4), w2=np.zeros(4), chain_len=0)
    ps = PathSample(w1=np.zeros(10), w2=np.zeros(10), chain_len=4)
    assert len(ps) == 10


# ---------------------------------------------------------------------------
# forward iteration
# ---------------------------------------------------------------------------

def one_chain(law, cfg):
    """A single forward chain from the zero state."""
    return stationary_sample(law, cfg, rng(), n_chains=1)


def test_iterate_forward_exact_trajectory():
    # Constant coefficients make the path a hand-checkable linear recursion.
    path = one_chain(CONST_LAW, SimConfig(burn_in=0, n_draws=4))
    np.testing.assert_array_equal(path.w2, [1.0, 1.5, 1.75, 1.875])
    np.testing.assert_array_equal(path.w1, [1.0, 1.75, 2.25, 2.5625])
    assert path.chain_len == 4


def test_iterate_forward_burnin_and_thinning_offsets():
    full = one_chain(CONST_LAW, SimConfig(burn_in=0, n_draws=4))
    burnt = one_chain(CONST_LAW, SimConfig(burn_in=2, n_draws=2))
    np.testing.assert_array_equal(burnt.w1, full.w1[2:])
    thinned = one_chain(CONST_LAW, SimConfig(burn_in=0, n_draws=2, thinning=2))
    # Thinning keeps steps 2 and 4, not 1 and 3.
    np.testing.assert_array_equal(thinned.w1, full.w1[1::2])


def test_iterate_forward_reaches_fixed_point():
    path = one_chain(CONST_LAW, SimConfig(burn_in=200, n_draws=3))
    # W2* = 1/(1-0.5) = 2;  W1* = (0.25*2 + 1)/(1-0.5) = 3.
    np.testing.assert_allclose(path.w2, 2.0, rtol=1e-12)
    np.testing.assert_allclose(path.w1, 3.0, rtol=1e-12)


def test_iterate_forward_overflow_raises():
    law = make_law(Constant(2.0), Constant(0.1), Constant(0.5))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteState, match="overflowed"):
        one_chain(law, SimConfig(burn_in=0, n_draws=3000))


def test_stationary_sample_layout():
    cfg = SimConfig(burn_in=50, n_draws=1001)
    path = stationary_sample(LAW_C8, cfg, rng(1), n_chains=3)
    assert len(path) == 1001
    assert path.chain_len == 334  # ceil(1001/3); the last chain is trimmed
    assert np.isfinite(path.w1).all() and (path.w1 > 0).all()
    assert np.isfinite(path.w2).all() and (path.w2 > 0).all()


def test_stationary_sample_overflow_raises():
    law = make_law(Constant(0.5), Constant(0.25), Constant(1.5))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteState):
        stationary_sample(law, SimConfig(burn_in=0, n_draws=4000), rng(), n_chains=2)


class RecordingLaw:
    """A coefficient law that keeps every slab it draws."""

    def __init__(self, law):
        self.law = law
        self.slabs = []

    def sample(self, rng, size=None):
        d = self.law.sample(rng, size)
        self.slabs.append(d)
        return d

    def marginal(self, name):
        return self.law.marginal(name)


def step_rows(slabs):
    """The recorded slabs as one coefficient tuple per step."""
    return [tuple(x[r] for x in d) for d in slabs for r in range(d.a1.shape[0])]


def reference_forward(slabs, cfg, n_chains):
    """Plain per-step recursion over recorded draws, kept chain-major."""
    per_chain = -(-cfg.n_draws // n_chains)
    out1 = np.empty((n_chains, per_chain))
    out2 = np.empty((n_chains, per_chain))
    w1 = np.zeros(n_chains)
    w2 = np.zeros(n_chains)
    kept = 0
    for t, (a1, a2, a4, b1, b2) in enumerate(step_rows(slabs), start=1):
        w1 = a1 * w1 + a2 * w2 + b1
        w2 = a4 * w2 + b2
        if t > cfg.burn_in and (t - cfg.burn_in) % cfg.thinning == 0:
            out1[:, kept] = w1
            out2[:, kept] = w2
            kept += 1
    assert kept == per_chain
    return out1.reshape(-1)[: cfg.n_draws], out2.reshape(-1)[: cfg.n_draws]


@pytest.mark.parametrize(
    "burn_in, n_draws, thinning, n_chains",
    [
        (0, 700, 1, 7),          # no burn-in, whole chains
        (150, 1001, 3, 3),       # thinning, burn-in not a multiple of 64, trimmed chain
        (70, 999, 2, 10),        # ten chains of 100 with the last trimmed to 99
        (3, 40_000, 1, 40_000),  # wide enough to force one-row slabs
    ],
)
def test_stationary_sample_equals_per_step_recursion(burn_in, n_draws, thinning, n_chains):
    law = RecordingLaw(LAW_C8)
    cfg = SimConfig(burn_in=burn_in, n_draws=n_draws, thinning=thinning)
    path = stationary_sample(law, cfg, rng(3), n_chains=n_chains)
    rows = slab_rows(n_chains)
    assert all(d.a1.shape == (rows, n_chains) for d in law.slabs[:-1])
    ref1, ref2 = reference_forward(law.slabs, cfg, n_chains)
    np.testing.assert_array_equal(path.w1, ref1)
    np.testing.assert_array_equal(path.w2, ref2)


def test_forward_states_equal_with_constant_b_as_views_or_arrays():
    law = RecordingLaw(make_law(LAW_C8.a1, LAW_C8.a2, LAW_C8.a4, b1=0.3, b2=1.7))
    cfg = SimConfig(burn_in=150, n_draws=1001, thinning=3)
    n_chains = 3
    stationary_sample(law, cfg, rng(3), n_chains=n_chains)
    per_chain = -(-cfg.n_draws // n_chains)
    runs = []
    for full in (False, True):
        slabs = iter(
            d._replace(b1=np.full(d.b1.shape, 0.3), b2=np.full(d.b2.shape, 1.7)) if full else d
            for d in law.slabs
        )
        w1 = np.zeros((slab_rows(n_chains) + 1, n_chains))
        w2 = np.zeros_like(w1)
        runs.append([
            (j, w1[sel].copy(), w2[sel].copy())
            for j, sel in forward_slabs(lambda rows: next(slabs), w1, w2, cfg, per_chain)
        ])
    assert all(d.b1.strides == (0, 0) for d in law.slabs)
    assert len(runs[0]) == len(runs[1]) > 1
    for (j, v1, v2), (k, f1, f2) in zip(*runs):
        assert j == k
        np.testing.assert_array_equal(v1, f1)
        np.testing.assert_array_equal(v2, f2)


def test_slab_rows_element_budget():
    assert slab_rows(1) == 64 and slab_rows(400) == 64
    assert slab_rows(10_000) == 3
    assert slab_rows(100_000) == 1


def test_stationary_sample_feeds_a_reducer():
    # The slabs' kept states go straight to the reducer, which writes the
    # planned first states and tail of the sample the sampler returns whole
    # by default into its summary.
    cfg = SimConfig(burn_in=20, n_draws=500)
    full = stationary_sample(LAW_C8, cfg, rng(4), n_chains=4)
    plan = Plan(tails={"w2": 7}, strides={("w1", 1): 333, ("w2", 1): 333})
    summary = Summary(plan, cfg.n_draws, full.chain_len)
    part = stationary_sample(LAW_C8, cfg, rng(4), n_chains=4,
                             reducer=Reducer(summary, cfg.n_draws))
    assert part is summary and len(part) == 500 and part.chain_len == 125
    np.testing.assert_array_equal(part.head("w1", 333), full.w1[:333])
    np.testing.assert_array_equal(part.head("w2", 333), full.w2[:333])
    np.testing.assert_array_equal(part.tail("w2").top, np.sort(full.w2)[-7:])


def test_chunked_sample_independent_of_workers():
    # Two groups (a full one, then two chunks) with a trimmed last chunk;
    # thinning 2 and a burn-in that is not a multiple of the slab height.
    per_group = _GROUP_ELEMENTS // (slab_rows(CHUNK_CHAINS) * CHUNK_CHAINS)
    n = (per_group + 1) * _CHUNK_DRAWS + _CHUNK_CHAIN_LEN + 17
    sim = SimConfig(burn_in=30, n_draws=n, thinning=2, base_seed=5)

    plan = Plan(strides={(s, 1): n for s in ("w1", "w2")})

    def path(s):
        return PathSample(w1=s.head("w1", n), w2=s.head("w2", n), chain_len=s.chain_len)

    one = path(_forward_chunked(LAW_C8, sim, plan, None, "stationary")())
    for workers in (2, 3):  # 3 threads on fewer cores
        with ThreadPoolExecutor(max_workers=workers) as pool:
            many = path(_forward_chunked(LAW_C8, sim, plan, pool, "stationary")())
        np.testing.assert_array_equal(one.w1, many.w1)
        np.testing.assert_array_equal(one.w2, many.w2)
    assert one.chain_len == _CHUNK_CHAIN_LEN and len(one) == n
    # Each chunk is a pure function of its index: whole chains, then trimmed.
    for i, start in enumerate(range(0, n, _CHUNK_DRAWS)):
        size = min(_CHUNK_DRAWS, n - start)
        chains = -(-size // _CHUNK_CHAIN_LEN)
        alone = stationary_sample(
            LAW_C8, replace(sim, n_draws=chains * _CHUNK_CHAIN_LEN),
            substream(5, "stationary", i), n_chains=chains,
        )
        np.testing.assert_array_equal(one.w1[start:start + size], alone.w1[:size])
        np.testing.assert_array_equal(one.w2[start:start + size], alone.w2[:size])


def test_blocks_equal_solo_runs():
    cfg = SimConfig(burn_in=100, n_draws=1200, thinning=3)
    got = stationary_sample(LAW_C8, cfg, [(rng(1), 2), (rng(2), 1), (rng(3), 3)], n_chains=6)
    for seed, cols in ((1, slice(0, 2)), (2, slice(2, 3)), (3, slice(3, 6))):
        chains = cols.stop - cols.start
        alone = stationary_sample(LAW_C8, replace(cfg, n_draws=200 * chains), rng(seed),
                                  n_chains=chains)
        np.testing.assert_array_equal(got.w1[200 * cols.start:200 * cols.stop], alone.w1)
        np.testing.assert_array_equal(got.w2[200 * cols.start:200 * cols.stop], alone.w2)


def test_chain_blocks_validation():
    blocks, rows = chain_blocks(rng(), 7)
    assert len(blocks) == 1 and blocks[0][1] == slice(0, 7) and rows == slab_rows(7)
    with pytest.raises(ValueError, match="cover"):
        chain_blocks([(rng(), 3), (rng(), 3)], 7)
    # 200 and 600 chains give different slab heights: neither could draw as alone.
    assert slab_rows(200) != slab_rows(600)
    with pytest.raises(ValueError, match="slab height"):
        chain_blocks([(rng(), 200), (rng(), 600)], 800)


def test_pool_threads_never_exceed_groups(monkeypatch):
    # The sample submits one task per group to the run's pool, so it never
    # runs on more of the pool's threads than it has groups, however many
    # threads the pool holds; without a pool the groups are sampled in turn
    # on the reading thread, when the result is read.
    calls, threads = [], set()

    def sampler(model, config, blocks, n_chains, reducer):
        calls.append(([chains for _, chains in blocks], n_chains, config.n_draws, reducer.size))
        threads.add(threading.get_ident())
        return reducer.summary()

    per_group = _GROUP_ELEMENTS // (slab_rows(CHUNK_CHAINS) * CHUNK_CHAINS)
    n = (per_group + 2) * _CHUNK_DRAWS + 1
    sim = SimConfig(burn_in=0, n_draws=n)
    monkeypatch.setattr(pipelines.engine, "stationary_sample", sampler)
    groups = [
        ([CHUNK_CHAINS] * per_group, per_group * CHUNK_CHAINS, per_group * _CHUNK_DRAWS,
         per_group * _CHUNK_DRAWS),
        ([CHUNK_CHAINS, CHUNK_CHAINS, 1], 2 * CHUNK_CHAINS + 1,
         (2 * CHUNK_CHAINS + 1) * _CHUNK_CHAIN_LEN, 2 * _CHUNK_DRAWS + 1),
    ]
    with ThreadPoolExecutor(max_workers=4) as pool:
        _forward_chunked(LAW_C8, sim, Plan(), pool, "stationary")()
    assert sorted(calls) == sorted(groups)
    assert 1 <= len(threads) <= len(groups) and threading.get_ident() not in threads
    calls.clear()
    threads.clear()
    read = _forward_chunked(LAW_C8, sim, Plan(), None, "stationary")
    assert calls == []
    read()
    assert calls == groups and threads == {threading.get_ident()}


# ---------------------------------------------------------------------------
# backward series
# ---------------------------------------------------------------------------

def test_backward_truncated_exact_partial_sums():
    one = backward_truncated(
        CONST_LAW, SimConfig(burn_in=0, n_draws=5, truncation_depth=1), rng()
    )
    np.testing.assert_array_equal(one.w1, 1.0)
    np.testing.assert_array_equal(one.w2, 1.0)
    assert one.chain_len == 1

    two = backward_truncated(
        CONST_LAW, SimConfig(burn_in=0, n_draws=5, truncation_depth=2), rng()
    )
    np.testing.assert_allclose(two.w1, 1.75, rtol=0)
    np.testing.assert_allclose(two.w2, 1.5, rtol=0)


def test_backward_truncated_without_witness_raises_before_drawing():
    law = RecordingLaw(make_law(Constant(1.5), Constant(0.25), Constant(0.5)))
    with pytest.raises(NotContracting):
        backward_truncated(law, SimConfig(burn_in=0, n_draws=10, truncation_depth=0), rng())
    assert law.slabs == []


def test_forward_and_backward_routes_agree():
    n = 20_000
    fwd = stationary_sample(
        LAW_C8, SimConfig(burn_in=1000, n_draws=n, base_seed=0), rng(17), n_chains=n
    )
    bwd = backward_truncated(LAW_C8, SimConfig(burn_in=0, n_draws=n), rng(18))
    for fc, bc, name in ((fwd.w1, bwd.w1, "w1"), (fwd.w2, bwd.w2, "w2")):
        stat, pvalue = ks_2sample(fc, bc)
        assert pvalue > 0.01, f"{name}: KS={stat:.4f} p={pvalue:.4g}"


CERTIFIED = 1e-8  # the backward series' bound on ||A_1 ... A_tau||_1


def reference_backward(law, n, cap, g):
    """Plain per-lane front-first sums over one (1, live) draw per level.

    At each level the i-th lane still running takes column i of the draw.

    Returns W1, W2, the level tau each lane stopped at and ||Pi_tau||_1,
    the sum of |p1|, |u| and |p4|.
    """
    state = [[0.0, 0.0, 1.0, 0.0, 1.0] for _ in range(n)]  # w1, w2, p1, u, p4
    tau, norm = [0] * n, [0.0] * n
    live, level = list(range(n)), 0
    while live:
        d = law.sample(g, (1, len(live)))
        level += 1
        still = []
        for col, lane in enumerate(live):
            a1, a2, a4, b1, b2 = (float(x[0, col]) for x in d)
            w1, w2, p1, u, p4 = state[lane]
            w1 = w1 + (p1 * b1 + u * b2)
            w2 = w2 + p4 * b2
            u = p1 * a2 + u * a4
            p1 = p1 * a1
            p4 = p4 * a4
            state[lane] = [w1, w2, p1, u, p4]
            norm[lane] = abs(p1) + abs(u) + abs(p4)
            if norm[lane] <= CERTIFIED or level == cap:
                tau[lane] = level
            else:
                still.append(lane)
        live = still
    w1, w2 = (np.array([s[i] for s in state]) for i in (0, 1))
    return w1, w2, np.array(tau), np.array(norm)


@pytest.mark.parametrize("cap", [0, 60])
def test_backward_truncated_matches_per_lane_loop(cap):
    # C8's draws stop at 56 levels on average and at up to about 160, so
    # the uncapped run crosses the 64-level finite check and a cap of 60
    # stops some draws at the certificate and the rest at the cap.
    n = 300
    law = RecordingLaw(LAW_C8)
    got = backward_truncated(law, SimConfig(burn_in=0, n_draws=n, truncation_depth=cap), rng(5))
    w1, w2, tau, norm = reference_backward(LAW_C8, n, cap, rng(5))
    np.testing.assert_array_equal(got.w1, w1)
    np.testing.assert_array_equal(got.w2, w2)
    # One (1, live) slab per level, for the lanes that have not stopped.
    widths = [d.a1.shape for d in law.slabs]
    assert widths == [(1, int((tau >= k).sum())) for k in range(1, tau.max() + 1)]
    certified = norm <= CERTIFIED
    assert (certified | (tau == cap)).all()
    if cap:
        assert tau.max() == cap and certified.any() and not certified.all()
    else:
        assert tau.max() > 64 and certified.all()


def test_backward_truncated_stops_each_draw_at_the_first_certified_level():
    # A constant law: Pi_k = [[0.5^k, k 0.25 0.5^(k-1)], [0, 0.5^k]], whose
    # 1-norm first falls to 1e-8 at k = 31 (8.1e-9; 1.6e-8 at k = 30).  Every
    # draw stops there and holds the sum of the terms Pi_k B, k < 31.
    k = np.arange(64)
    norm = 2 * 0.5**k + k * 0.5 ** (k + 1)
    stop = int(np.argmax(norm <= CERTIFIED))
    assert stop == 31 and norm[stop - 1] > CERTIFIED
    terms1, terms2 = 0.5**k + k * 0.5 ** (k + 1), 0.5**k
    for cap, levels in ((0, stop), (stop + 5, stop), (10, 10)):
        got = backward_truncated(
            CONST_LAW, SimConfig(burn_in=0, n_draws=4, truncation_depth=cap), rng())
        np.testing.assert_allclose(got.w1, terms1[:levels].sum(), rtol=1e-15)
        np.testing.assert_allclose(got.w2, terms2[:levels].sum(), rtol=1e-15)


def test_backward_truncated_explosive_law_raises():
    explosive = make_law(Constant(1e3), Constant(1e3), Constant(1e3))
    cfg = SimConfig(burn_in=0, n_draws=10, truncation_depth=200)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteState, match="overflowed"):
        backward_truncated(explosive, cfg, rng())


# ---------------------------------------------------------------------------
# coefficient products
# ---------------------------------------------------------------------------

def test_limit_path_matches_product_loop():
    n, h = 400, 5
    law = RecordingLaw(LAW_C8)
    angles = np.linspace(0.0, 0.5 * np.pi, 5)
    angular = AngularSample(points=np.column_stack((np.cos(angles), np.sin(angles))),
                            weights=np.ones(5), threshold_u=None, n_exceedances=5)
    sample = spectral_process_draws(law, 1.5, h, n, angular, rng(6))
    assert [d.a1.shape for d in law.slabs] == [(1, n)] * h
    assert sample.path.shape == (n, h, 2)
    w1, w2 = sample.theta0[:, 0], sample.theta0[:, 1]
    for t, (a1, a2, a4, _, _) in enumerate(step_rows(law.slabs)):
        w1, w2 = a1 * w1 + a2 * w2, a4 * w2
        np.testing.assert_array_equal(sample.path[:, t, 0], w1)
        np.testing.assert_array_equal(sample.path[:, t, 1], w2)


def test_product_chain_validation():
    def draw(rows):
        return CONST_LAW.sample(rng(), (rows, 3))

    theta = np.ones(3)
    with pytest.raises(ValueError):
        product_path(draw, theta, theta, -1)
    with pytest.raises(ValueError):
        product_path(draw, theta, np.ones(2), 2)
    assert product_path(draw, theta, theta, 0).shape == (3, 0, 2)


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(-10, 10),
    u=st.floats(-10, 10),
    q=st.floats(-10, 10),
)
def test_triangular_opnorm_matches_svd(p, u, q):
    norm = float(triangular_opnorm(p, u, q))
    svd = np.linalg.svd(np.array([[p, u], [0.0, q]]), compute_uv=False)[0]
    assert norm == pytest.approx(svd, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# Lyapunov exponent
# ---------------------------------------------------------------------------

def test_lyapunov_deterministic_exact():
    # The coupling is positive but far below double precision, so every
    # renormalization is exactly 0.5 and the estimate is exact.
    law = make_law(Constant(0.5), Constant(1e-300), Constant(0.5))
    est = lyapunov_estimate(law, n=6400, n_chains=2, rng=rng())
    assert est.gamma_hat == pytest.approx(math.log(0.5), abs=1e-9)
    assert est.std_error == pytest.approx(0.0, abs=1e-12)
    assert est.upper_bound == pytest.approx(math.log(0.5), rel=1e-12)


def test_lyapunov_negative_and_bounded():
    est = lyapunov_estimate(LAW_C8, n=2000, n_chains=64, rng=rng(29))
    assert est.gamma_hat < 0.0
    assert est.gamma_hat <= est.upper_bound + 3.0 * est.std_error
    assert est.n_steps == 2000 and est.n_chains == 64
    assert isinstance(est, LyapunovEstimate)


def test_lyapunov_unbounded_witness():
    law = make_law(Constant(1.5), Constant(0.25), Constant(0.5))
    est = lyapunov_estimate(law, n=2000, n_chains=2, rng=rng())
    assert math.isinf(est.upper_bound)
    # The coupling column only contributes an O(log n / n) correction.
    assert est.gamma_hat == pytest.approx(math.log(1.5), abs=1e-3)


def test_lyapunov_on_a_strongly_contracting_law():
    # The product shrinks by e^-12.5 a step, so a 64-step slab would
    # underflow it: the law cuts its renormalization interval to 7 steps.
    law = RecordingLaw(make_law(LogNormal(-13.0, 1.0), LogNormal(-0.5, 0.5),
                                LogNormal(-12.5, 1.0)))
    est = lyapunov_estimate(law, n=2000, n_chains=20, rng=rng(3))
    assert {d.a1.shape[0] for d in law.slabs} == {7, 2000 % 7}
    assert est.gamma_hat == pytest.approx(-12.5, abs=0.05)


def test_lyapunov_validation():
    with pytest.raises(ValueError):
        lyapunov_estimate(LAW_C8, n=99, n_chains=2, rng=rng())
    with pytest.raises(ValueError):
        lyapunov_estimate(LAW_C8, n=100, n_chains=0, rng=rng())


@pytest.mark.parametrize("n, n_chains", [(200, 5), (130, 40_000)])
def test_lyapunov_equals_per_step_products(n, n_chains):
    # Renormalization happens at slab ends; the reference does the same over
    # the recorded slabs with plain per-step products.
    law = RecordingLaw(LAW_C8)
    est = lyapunov_estimate(law, n=n, n_chains=n_chains, rng=rng(31))
    p1, u, p4 = np.ones(n_chains), np.zeros(n_chains), np.ones(n_chains)
    log_scale = np.zeros(n_chains)
    steps = 0
    for d in law.slabs:
        for a1, a2, a4, _, _ in step_rows([d]):
            u = a1 * u + a2 * p4
            p1 = a1 * p1
            p4 = a4 * p4
            steps += 1
        scale = triangular_opnorm(p1, u, p4)
        log_scale += np.log(scale)
        p1, u, p4 = p1 / scale, u / scale, p4 / scale
    assert steps == n
    per_chain = log_scale / n
    np.testing.assert_array_equal(est.gamma_hat, per_chain.mean())
    np.testing.assert_array_equal(
        est.std_error, per_chain.std(ddof=1) / math.sqrt(n_chains)
    )
