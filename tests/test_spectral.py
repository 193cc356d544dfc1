"""Angular laws, window extraction, and the forward spectral limit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tritail.engine import PathSample, SimConfig, stationary_sample
from tritail.errors import RegimeMismatch, TooFewExceedances
from tritail.laws import Constant
from tritail.records import gate
from tritail.spectral import (
    AngularSample,
    angular_ks,
    angular_measure_threshold,
    componentwise_spectral,
    conditional_exceedance_windows,
    forward_limit_ks,
    pareto_gof,
    sliding_windows,
    spectral_process_draws,
    unit_pareto,
    valid_window_starts,
    window_angles,
)

from conftest import LAW_C4, LAW_C8, make_law


def rng(seed=0):
    return np.random.default_rng(seed)


def path_of(w1, w2, chain_len):
    return PathSample(w1=np.asarray(w1, dtype=float), w2=np.asarray(w2, dtype=float),
                      chain_len=chain_len)


# ---------------------------------------------------------------------------
# angular samples
# ---------------------------------------------------------------------------

def test_angular_sample_normalizes_weights():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    s = AngularSample(points=pts, weights=np.array([2.0, 1.0, 1.0]),
                      threshold_u=None, n_exceedances=3)
    assert s.weights.sum() == pytest.approx(1.0)
    assert s.weights[0] == pytest.approx(0.5)
    assert len(s) == 3 and s.dim == 2
    np.testing.assert_allclose(
        s.weights @ s.points, [0.5 + 0.25 * 0.6, 0.25 + 0.25 * 0.8]
    )


def test_angular_sample_validation():
    unit = np.array([[1.0, 0.0]])
    with pytest.raises(ValueError):
        AngularSample(points=unit, weights=np.array([1.0, 2.0]),
                      threshold_u=None, n_exceedances=1)
    with pytest.raises(ValueError):
        AngularSample(points=np.empty((0, 2)), weights=np.empty(0),
                      threshold_u=None, n_exceedances=0)
    with pytest.raises(ValueError):
        AngularSample(points=unit, weights=np.array([-1.0]),
                      threshold_u=None, n_exceedances=1)
    with pytest.raises(ValueError):
        AngularSample(points=unit, weights=np.array([0.0]),
                      threshold_u=None, n_exceedances=1)
    with pytest.raises(ValueError):
        AngularSample(points=np.array([[0.5, 0.5]]), weights=np.array([1.0]),
                      threshold_u=None, n_exceedances=1)
    with pytest.raises(ValueError):
        AngularSample(points=np.array([[-0.6, 0.8]]), weights=np.array([1.0]),
                      threshold_u=None, n_exceedances=1)


def test_angular_measure_threshold():
    draws = stationary_sample(LAW_C8, SimConfig(burn_in=500, n_draws=50_000),
                              rng(1), n_chains=50)
    ang = angular_measure_threshold(draws, u_quantile=0.99)
    np.testing.assert_allclose(np.linalg.norm(ang.points, axis=1), 1.0,
                               atol=1e-12)
    assert ang.n_exceedances == pytest.approx(500, abs=5)
    assert ang.threshold_u > 0
    with pytest.raises(TooFewExceedances):
        angular_measure_threshold(draws, u_quantile=0.999)  # only ~50 points
    with pytest.raises(ValueError):
        angular_measure_threshold(draws, u_quantile=1.0)


# ---------------------------------------------------------------------------
# window extraction within chains
# ---------------------------------------------------------------------------

def test_valid_window_starts_exact():
    got = valid_window_starts(10, chain_len=5, h=2, offset=1)
    expected = [True, True, True, False, False, True, True, True, False, False]
    np.testing.assert_array_equal(got, expected)
    got0 = valid_window_starts(10, chain_len=5, h=2, offset=0)
    expected0 = [True, True, True, True, False, True, True, True, True, False]
    np.testing.assert_array_equal(got0, expected0)


def test_valid_window_starts_short_last_chain():
    # n = 7 with chain_len = 5: the second chain has only 2 positions.
    got = valid_window_starts(7, chain_len=5, h=3, offset=0)
    expected = [True, True, True, False, False, False, False]
    np.testing.assert_array_equal(got, expected)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 60),
    chain_len=st.integers(1, 25),
    h=st.integers(1, 8),
    offset=st.integers(0, 3),
)
def test_valid_window_starts_matches_arithmetic_formula(n, chain_len, h, offset):
    g = np.arange(n)
    expected = (g % chain_len + offset + h <= chain_len) & (g + offset + h <= n)
    got = valid_window_starts(n, chain_len, h, offset)
    assert got.dtype == bool and got.shape == (n,)
    np.testing.assert_array_equal(got, expected)


def test_sliding_windows_exact():
    wins = sliding_windows(np.arange(10.0), chain_len=5, h=3)
    starts = [0, 1, 2, 5, 6, 7]
    np.testing.assert_array_equal(
        wins, [[s, s + 1, s + 2] for s in starts]
    )
    # The result is the caller's own array, not a view of the series.
    series = np.arange(10.0)
    sliding_windows(series, chain_len=5, h=3)[:] = -1.0
    np.testing.assert_array_equal(series, np.arange(10.0))
    assert sliding_windows(np.arange(2.0), chain_len=2, h=3).shape == (0, 3)
    with pytest.raises(ValueError):
        sliding_windows(np.arange(10.0), chain_len=5, h=0)


def test_conditional_windows_respect_chain_boundaries():
    # Chains alternate a spike at the first or the last local position; only
    # first-position spikes admit an in-chain window of length 2.
    w1 = np.tile([9.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 9.0], 400)
    w2 = np.full(w1.size, 0.1)
    draws = path_of(w1, w2, chain_len=4)
    cond = conditional_exceedance_windows(draws, h=2, u_quantile=0.7)
    x = float(np.quantile(np.hypot(w1, w2), 0.7))
    assert cond.threshold == pytest.approx(x)
    assert cond.n_exceedances == 400  # the 400 end-of-chain spikes are masked
    assert cond.windows.shape == (400, 2, 2)
    np.testing.assert_allclose(cond.windows[:, 0, 0], 1.0 / x)
    np.testing.assert_allclose(cond.windows[:, 1, 0], 2.0 / x)
    np.testing.assert_allclose(cond.windows[:, :, 1], 0.1 / x)
    np.testing.assert_allclose(
        np.linalg.norm(cond.windows.reshape(400, -1), axis=1), np.sqrt(1 + 4 + 2 * 0.01) / x,
        rtol=1e-12,
    )


def test_conditional_windows_validation():
    draws = path_of(np.ones(100), np.ones(100), chain_len=10)
    with pytest.raises(ValueError):
        conditional_exceedance_windows(draws, h=0)
    with pytest.raises(ValueError):
        conditional_exceedance_windows(draws, h=2, u_quantile=0.0)
    with pytest.raises(TooFewExceedances):
        conditional_exceedance_windows(draws, h=2, u_quantile=0.9)


# ---------------------------------------------------------------------------
# weighted product-chain estimator
# ---------------------------------------------------------------------------

def test_componentwise_spectral_h1_is_degenerate():
    ang = componentwise_spectral(LAW_C4, 1.5, h=1, n=500, rng=rng(2))
    assert ang.dim == 1
    np.testing.assert_array_equal(ang.points, 1.0)
    assert ang.weights.sum() == pytest.approx(1.0)


def test_componentwise_spectral_matches_window_angles():
    # The two estimators of the same angular law must agree on the mean
    # direction. Uses the first coordinate of the own-multiplier-dominant law.
    draws = stationary_sample(
        LAW_C4, SimConfig(burn_in=2000, n_draws=600_000, thinning=2),
        rng(3), n_chains=600,
    )
    brute = window_angles(draws, component=1, h=2, u_quantile=0.99)
    weighted = componentwise_spectral(LAW_C4, 1.5, h=2, n=200_000, rng=rng(4))
    diff = np.abs(brute.weights @ brute.points - weighted.weights @ weighted.points).max()
    # At this shallow threshold the finite-level angular law sits a stable
    # ~0.03 off the limit in mean direction and ~0.12 in KS (seed-to-seed
    # spread under 0.01); both bounds are gross-error catches only, and the
    # deep-threshold agreement is pinned by the acceptance suite at
    # KS <= 0.05 on 1e7 draws.
    assert diff < 0.05, f"mean-direction gap {diff:.4f}"
    assert angular_ks(brute, weighted) < 0.20


def test_componentwise_spectral_validation():
    with pytest.raises(ValueError):
        componentwise_spectral(LAW_C4, 1.5, h=1, n=10, rng=rng(), component=3)
    with pytest.raises(ValueError):
        componentwise_spectral(LAW_C4, 1.5, h=0, n=10, rng=rng())
    with pytest.raises(ValueError):
        componentwise_spectral(LAW_C4, 1.5, h=1, n=0, rng=rng())
    with pytest.raises(ValueError):
        componentwise_spectral(LAW_C4, 0.0, h=1, n=10, rng=rng())


def test_window_angles_validation():
    draws = stationary_sample(LAW_C8, SimConfig(burn_in=100, n_draws=1000),
                              rng(5), n_chains=10)
    with pytest.raises(ValueError, match="component"):
        window_angles(draws, component=0, h=2)
    with pytest.raises(ValueError, match="u_quantile"):
        window_angles(draws, component=1, h=2, u_quantile=1.0)
    with pytest.raises(ValueError, match="h must be"):
        window_angles(draws, component=1, h=0)
    with pytest.raises(TooFewExceedances):
        window_angles(draws, component=1, h=2, u_quantile=0.99)
    # No window of length 2 fits in a chain of one state.
    with pytest.raises(TooFewExceedances):
        window_angles(path_of(np.ones(1000), np.ones(1000), chain_len=1), component=1, h=2)


# ---------------------------------------------------------------------------
# forward spectral limit
# ---------------------------------------------------------------------------

def test_unit_pareto_exact_margin():
    y = unit_pareto(1.5, 100_000, rng(6))
    assert y.min() >= 1.0
    stat, p = pareto_gof(y, 1.5)
    assert p > 0.01
    with pytest.raises(ValueError):
        unit_pareto(0.0, 10, rng())


def test_pareto_gof_detects_wrong_index():
    y = unit_pareto(3.0, 50_000, rng(7))
    _, p = pareto_gof(y, 1.5)
    assert p < 1e-10
    with pytest.raises(ValueError):
        pareto_gof(y, -1.0)


def test_pareto_gof_statistic_is_scipys():
    g = rng(11)
    for alpha, n in ((0.5, 10), (1.0, 1000), (1.5, 20_000), (2.0, 500), (2.7, 3000)):
        # Off-index draws, with points at and below the support's edge.
        y = np.r_[unit_pareto(alpha * 1.1, n, g), 1.0, 0.5]
        stat, p = pareto_gof(y, alpha)
        ref = stats.kstest(y, "pareto", args=(alpha,))
        assert stat == ref.statistic
        assert 0.0 <= p <= 1.0


def test_pareto_gof_is_nan_when_the_sample_holds_a_nan():
    y = np.r_[unit_pareto(1.5, 1000, rng(12)), math.nan]
    stat, p = pareto_gof(y, 1.5)
    assert math.isnan(stat) and math.isnan(p)
    assert gate("pareto_norm_pvalue", p, 0.01).passed is False
    with pytest.raises(ValueError):
        pareto_gof(np.array([]), 1.5)


def atom_angular(x=0.6, y=0.8):
    return AngularSample(points=np.array([[x, y]]), weights=np.array([1.0]),
                         threshold_u=None, n_exceedances=1)


def test_spectral_process_draws_deterministic_chain():
    law = make_law(Constant(0.5), Constant(0.25), Constant(0.5))
    n, h = 1000, 3
    sample = spectral_process_draws(law, 1.5, h, n, atom_angular(), rng(8))
    assert len(sample) == n
    assert sample.y0.shape == (n,) and sample.path.shape == (n, h, 2)
    np.testing.assert_array_equal(sample.theta0, [[0.6, 0.8]] * n)
    # Pi entries are exact powers: pi1 = pi4 = 0.5^t, u = t 0.25 0.5^(t-1).
    for t in range(1, h + 1):
        u_t = t * 0.25 * 0.5 ** (t - 1)
        np.testing.assert_allclose(
            sample.path[:, t - 1, 0], 0.5**t * 0.6 + u_t * 0.8, rtol=1e-12
        )
        np.testing.assert_allclose(sample.path[:, t - 1, 1], 0.5**t * 0.8,
                                   rtol=1e-12)
    stat, p = pareto_gof(sample.y0, 1.5)
    assert p > 0.001


def test_spectral_process_draws_constant_law_closed_form():
    # The unit angles pick out the columns of Pi_t: Pi_t e1 = (pi1, 0) and
    # Pi_t e2 = (u, pi4), with pi1 = pi4 = 0.5^t and u_t = t 0.25 0.5^(t-1).
    law = make_law(Constant(0.5), Constant(0.25), Constant(0.5))
    h = 8
    t = np.arange(1, h + 1)
    e1 = spectral_process_draws(law, 1.5, h, 5, atom_angular(1.0, 0.0), rng()).path
    e2 = spectral_process_draws(law, 1.5, h, 5, atom_angular(0.0, 1.0), rng()).path
    np.testing.assert_allclose(e1[:, :, 0], np.broadcast_to(0.5**t, (5, h)), rtol=1e-15)
    np.testing.assert_array_equal(e1[:, :, 1], 0.0)
    np.testing.assert_allclose(e2[:, :, 0], np.broadcast_to(t * 0.25 * 0.5 ** (t - 1), (5, h)),
                               rtol=1e-14)
    np.testing.assert_allclose(e2[:, :, 1], np.broadcast_to(0.5**t, (5, h)), rtol=1e-15)


def test_spectral_process_draws_mean_growth():
    # E (Pi_t theta)_2 = theta2 (E A4)^t for independent steps; E A4 = exp(-0.125) on C8.
    h, n = 4, 200_000
    second = spectral_process_draws(LAW_C8, 1.5, h, n, atom_angular(), rng(23)).path[:, h - 1, 1]
    target = 0.8 * math.exp(-0.125 * h)
    se = second.std(ddof=1) / math.sqrt(n)
    assert abs(second.mean() - target) <= 4 * se


def test_spectral_process_draws_h0_and_validation():
    empty = spectral_process_draws(LAW_C8, 1.5, 0, 10, atom_angular(), rng(9))
    assert empty.path.shape == (10, 0, 2)
    assert len(empty) == 10
    with pytest.raises(ValueError):
        spectral_process_draws(LAW_C8, 1.5, -1, 10, atom_angular(), rng())
    with pytest.raises(ValueError):
        spectral_process_draws(LAW_C8, 1.5, 1, 0, atom_angular(), rng())
    with pytest.raises(ValueError):
        spectral_process_draws(LAW_C8, 0.0, 1, 10, atom_angular(), rng())
    with pytest.raises(RegimeMismatch):
        spectral_process_draws(LAW_C8, 1.5, 1, 10, atom_angular(), rng(),
                               alpha1=1.4)
    bad = AngularSample(points=np.array([[1.0, 0.0, 0.0]]),
                        weights=np.array([1.0]), threshold_u=None,
                        n_exceedances=1)
    with pytest.raises(ValueError):
        spectral_process_draws(LAW_C8, 1.5, 1, 10, bad, rng())


def test_forward_limit_ks_keys_and_self_distance():
    law = make_law(Constant(0.5), Constant(0.25), Constant(0.5))
    sample = spectral_process_draws(law, 1.5, 3, 500, atom_angular(), rng(10))
    windows = sample.y0[:, None, None] * sample.path
    ks = forward_limit_ks(windows, sample.path, sample.y0)
    assert list(ks) == ["w1_t1", "w2_t1", "w1_t2", "w2_t2", "w1_t3", "w2_t3", "norm"]
    assert all(v == 0.0 for v in ks.values())
    # Without a factor the path is the limit; the keys take the given names.
    ks = forward_limit_ks(windows, windows, coord="x", norm="window_norm")
    assert list(ks)[:2] == ["x1_t1", "x2_t1"] and list(ks)[-1] == "window_norm"
    assert all(v == 0.0 for v in ks.values())
    with pytest.raises(ValueError):
        forward_limit_ks(windows[:, :2, :], sample.path, sample.y0)


@pytest.mark.parametrize("h", [1, 3, 12])
def test_forward_limit_ks_equals_the_whole_array_battery(monkeypatch, h):
    # Columns y0 * path[:, t, i] and norms formed in row blocks (7 rows here,
    # the last one short) give the statistics of the whole (n, h, 2) limit array.
    from tritail import tailstats

    g = rng(12)
    n, m = 1000, 300
    path, y0 = g.lognormal(size=(n, h, 2)), g.pareto(1.5, n) + 1.0
    windows = 3.0 * g.lognormal(size=(m, h, 2))
    whole = y0[:, None, None] * path
    expected = [tailstats.ks_distance(windows[:, t, i], whole[:, t, i])
                for t in range(h) for i in range(2)]
    expected.append(tailstats.ks_distance(np.linalg.norm(windows.reshape(m, -1), axis=1),
                                          np.linalg.norm(whole.reshape(n, -1), axis=1)))
    monkeypatch.setattr(tailstats, "_BLOCK", 7 * 2 * h)
    assert list(forward_limit_ks(windows, path, y0).values()) == expected


def test_forward_limit_ks_memory_does_not_grow_with_the_window():
    # The battery holds a few sample-sized columns, never the (n, h, 2) limit
    # windows or their squares: its traced peak at h = 6 is that at h = 2.
    import tracemalloc

    n = 200_000

    def peak(h):
        g = rng(13)
        path, y0 = g.lognormal(size=(n, h, 2)), g.pareto(1.5, n) + 1.0
        windows = g.lognormal(size=(4000, h, 2))
        tracemalloc.start()
        try:
            forward_limit_ks(windows, path, y0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    low, high = peak(2), peak(6)
    assert high <= 1.1 * low, (low, high)


def test_angular_ks():
    a = atom_angular(0.6, 0.8)
    assert angular_ks(a, a) == 0.0
    b = atom_angular(0.8, 0.6)
    assert angular_ks(a, b) == 1.0  # disjoint atoms: total CDF separation
    with pytest.raises(ValueError):
        angular_ks(a, AngularSample(points=np.array([[1.0, 0.0, 0.0]]),
                                    weights=np.array([1.0]), threshold_u=None,
                                    n_exceedances=1))
