"""Hill, plateau-constant, and KS estimators on known tails."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tritail.errors import DegenerateTail, EmptyTail
from tritail.records import gate
from tritail.tailstats import (
    _BLOCK,
    RunningTail,
    default_hill_k,
    estimator_depth,
    hill,
    ks_2sample,
    ks_distance,
    tail_constant,
    tail_depth,
    upper_tail,
)

from conftest import assert_within_se


def pareto(alpha, n, seed, scale=1.0):
    """Exact Pareto draws: P(X > x) = (scale/x)^alpha for x >= scale."""
    u = 1.0 - np.random.default_rng(seed).random(n)
    return scale * u ** (-1.0 / alpha)


# ---------------------------------------------------------------------------
# Streaming upper tail
# ---------------------------------------------------------------------------

SIZES = (3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)
ORDERS = ("random", "ascending", "descending", "tied")


def ordered_sample(n, order, seed):
    x = pareto(1.5, n, seed)
    if order == "ascending":
        return np.sort(x)
    if order == "descending":
        return np.sort(x)[::-1].copy()
    if order == "tied":
        return np.full(n, 2.5)
    return x


def partition_hill(x, k):
    """The Hill estimate by a full partition of the sample."""
    part = np.partition(x, x.size - k - 1)
    threshold = part[x.size - k - 1]
    return threshold, k / float(np.log(part[x.size - k:]).sum() - k * math.log(threshold))


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from(SIZES), order=st.sampled_from(ORDERS),
       q=st.one_of(st.sampled_from((0.999, 0.9999, 0.99)), st.floats(0.0, 1.0)),
       seed=st.integers(0, 2**16))
def test_upper_tail_quantile_is_numpy_quantile_bit_for_bit(n, order, q, seed):
    x = ordered_sample(n, order, seed)
    tail = upper_tail(x, tail_depth(n, q))
    assert tail.n == n and tail.minimum == x.min()
    assert tail.quantile(q) == float(np.quantile(x, q))
    # The tail is the sorted top of the sample, whatever the block layout.
    np.testing.assert_array_equal(tail.top, np.sort(x)[n - tail.top.size:])


def test_upper_tail_from_blocks_equals_the_array_pass():
    # The array is walked in three blocks, the last of one value.
    x = pareto(2.0, 2 * _BLOCK + 1, seed=11)
    tail = upper_tail(x, 500)
    np.testing.assert_array_equal(tail.top, np.sort(x)[-500:])
    assert (tail.n, tail.minimum) == (x.size, x.min())
    # A series shorter than the depth gives the whole sorted series.
    np.testing.assert_array_equal(upper_tail(x[:10], 50).top, np.sort(x[:10]))


def test_running_tail_fed_from_threads_equals_the_array_pass():
    # One tail fed 2-d blocks from more threads than cores, switching often:
    # a lost or doubled block would change n, the minimum or the top m.
    import sys
    import threading

    x = pareto(1.5, 400_000, seed=5)
    blocks = np.array_split(x, 200)
    acc = RunningTail(3000)

    def feed(part):
        for block in part:
            acc.add(block.reshape(-1, 4) if block.size % 4 == 0 else block)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=feed, args=(blocks[i::6],)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    want = upper_tail(x, 3000)
    got = acc.tail()
    np.testing.assert_array_equal(got.top, want.top)
    assert (got.n, got.minimum) == (want.n, want.minimum)


def test_running_tail_holds_at_most_2m_after_a_wide_first_block():
    # A block that arrives before there is a cut is taken m values at a
    # time, each piece above the cut once there is one, so no offer joins
    # more than 2m keys.
    x = pareto(1.5, 64 * 2000, seed=8)
    acc = RunningTail(1000)
    joined = []
    real_offer = acc._offer

    def offer(key, *args):
        joined.append(acc.key.size + key.size)
        real_offer(key, *args)

    acc._offer = offer
    acc.add(x.reshape(64, 2000))
    assert joined and max(joined) <= 2 * 1000
    want, got = upper_tail(x, 1000), acc.tail()
    np.testing.assert_array_equal(got.top, want.top)
    assert (got.n, got.minimum) == (want.n, want.minimum)


def test_upper_tail_too_shallow_for_the_quantile():
    x = pareto(2.0, 10_000, seed=12)
    tail = upper_tail(x, tail_depth(x.size, 0.999))
    assert tail.quantile(0.999) == float(np.quantile(x, 0.999))
    with pytest.raises(ValueError, match="cannot give"):
        tail.quantile(0.99)
    with pytest.raises(ValueError, match="cannot give"):
        hill(tail, k=tail.top.size)
    with pytest.raises(ValueError):
        upper_tail(x, 0)
    with pytest.raises(ValueError, match="q must lie in"):
        tail.quantile(1.5)


def test_running_tail_of_empty_blocks_is_empty():
    acc = RunningTail(5)
    acc.add(np.empty((0, 3)))
    tail = acc.tail()
    assert (tail.top.size, tail.n) == (0, 0) and np.isnan(tail.minimum)
    with pytest.raises(ValueError, match="quantile of an empty series"):
        tail.quantile(0.5)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from(SIZES[1:]), order=st.sampled_from(ORDERS[:3]),
       k=st.integers(2, 5000), seed=st.integers(0, 2**16))
def test_hill_matches_the_partition_reference(n, order, k, seed):
    x = ordered_sample(n, order, seed)
    threshold, alpha = partition_hill(x, k)
    for sample in (x, upper_tail(x, estimator_depth(n, k))):
        est = hill(sample, k=k)
        assert (est.k, est.n, est.threshold) == (k, n, threshold)
        assert est.alpha_hat == pytest.approx(alpha, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("where", [0, _BLOCK + 5], ids=["first_block", "later_block"])
def test_non_positive_and_nan_samples_raise(bad, where):
    x = pareto(2.0, 2 * _BLOCK, seed=13)
    x[where] = bad
    for sample in (x, upper_tail(x, 1000)):
        with pytest.raises(ValueError, match="strictly positive"):
            hill(sample, k=100)
        with pytest.raises(ValueError, match="strictly positive"):
            tail_constant(sample, alpha=2.0)


# ---------------------------------------------------------------------------
# Hill estimator
# ---------------------------------------------------------------------------

def test_hill_recovers_exact_pareto_index():
    for alpha in (0.8, 1.5, 3.0):
        x = pareto(alpha, 200_000, seed=int(10 * alpha))
        est = hill(x)
        assert_within_se(est.alpha_hat, alpha, est.std_error, 4, f"hill a={alpha}")
        assert est.estimator == "hill"
        assert est.std_error == pytest.approx(est.alpha_hat / math.sqrt(est.k))


def test_hill_threshold_is_kth_order_statistic():
    x = np.arange(1.0, 101.0)
    est = hill(x, k=10)
    assert est.threshold == 90.0
    assert est.k == 10 and est.n == 100


def test_default_hill_k():
    assert default_hill_k(10**6) == int(10**3.6)
    assert default_hill_k(30) == 3          # capped at n // 10
    assert default_hill_k(10) == 2          # floor of 2


@settings(max_examples=50, deadline=None)
@given(scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**16))
def test_hill_scale_invariance(scale, seed):
    x = pareto(2.0, 500, seed)
    a = hill(x, k=50).alpha_hat
    b = hill(scale * x, k=50).alpha_hat
    assert b == pytest.approx(a, rel=1e-9)


def test_hill_validation_and_degeneracy():
    x = pareto(2.0, 100, seed=1)
    with pytest.raises(ValueError):
        hill(x, k=1)
    with pytest.raises(ValueError):
        hill(x, k=100)
    with pytest.raises(ValueError):
        hill(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        hill(np.array([1.0, -2.0, 3.0, 4.0]))
    with pytest.raises(DegenerateTail):
        hill(np.ones(100), k=10)


# ---------------------------------------------------------------------------
# tail constant
# ---------------------------------------------------------------------------

def test_tail_constant_exact_pareto():
    # P(X > x) = x^-2 exactly, so the plateau sits at c = 1.
    x = pareto(2.0, 1_000_000, seed=3)
    est = tail_constant(x, alpha=2.0, quantile_range=(0.99, 0.999))
    assert est.c_hat == pytest.approx(1.0, rel=0.05)
    assert est.dispersion < 0.15
    assert est.x_grid.shape == est.plateau_values.shape == (25,)


def test_tail_constant_scaling_law():
    # Scaling the sample by s multiplies the constant by s^alpha.
    alpha, s = 1.5, 3.0
    x = pareto(alpha, 1_000_000, seed=4)
    base = tail_constant(x, alpha=alpha, quantile_range=(0.99, 0.999)).c_hat
    scaled = tail_constant(s * x, alpha=alpha, quantile_range=(0.99, 0.999)).c_hat
    assert scaled / base == pytest.approx(s**alpha, rel=0.05)


def test_tail_constant_flags_wrong_index():
    # With a badly wrong alpha the plateau tilts and the dispersion blows up.
    x = pareto(2.0, 1_000_000, seed=5)
    est = tail_constant(x, alpha=4.0, quantile_range=(0.99, 0.9999))
    assert est.dispersion > 0.5


@pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
def test_tail_constant_matches_the_full_sort(tied):
    # The plateau from the top order statistics equals the sort-based formula
    # exactly, whether the sample comes as an array or as an upper tail; the
    # tied sample rounds to a 0.01 grid, so grid points and quantiles fall on
    # runs of equal values.
    x = pareto(1.5, 400_000, seed=8)
    if tied:
        x = np.ceil(x * 100.0) / 100.0
    xs = np.sort(x)
    grid = np.geomspace(float(np.quantile(xs, 0.99)), float(np.quantile(xs, 0.999)), 25)
    plateau = grid**1.5 * ((xs.size - np.searchsorted(xs, grid, side="right")) / xs.size)
    for sample in (x, upper_tail(x, tail_depth(x.size, 0.99))):
        est = tail_constant(sample, alpha=1.5, quantile_range=(0.99, 0.999))
        np.testing.assert_array_equal(est.x_grid, grid)
        np.testing.assert_array_equal(est.plateau_values, plateau)
        assert est.c_hat == float(np.median(plateau))
        assert est.n == x.size


def test_tail_constant_validation():
    x = pareto(2.0, 10_000, seed=6)
    with pytest.raises(ValueError):
        tail_constant(x, alpha=0.0)
    with pytest.raises(ValueError):
        tail_constant(x, alpha=2.0, quantile_range=(0.4, 0.9))
    with pytest.raises(ValueError):
        tail_constant(x, alpha=2.0, quantile_range=(0.99, 0.98))
    with pytest.raises(EmptyTail):
        tail_constant(pareto(2.0, 2000, seed=7), alpha=2.0,
                      quantile_range=(0.999, 0.9999))
    with pytest.raises(DegenerateTail):
        # Both quantiles land inside the tied block of 2s while 60 points
        # still sit above it, so the tie check fires rather than EmptyTail.
        tied = np.r_[np.ones(50), np.full(50, 2.0), np.full(60, 5.0)]
        tail_constant(tied, alpha=1.0, quantile_range=(0.5, 0.55))


# ---------------------------------------------------------------------------
# Kolmogorov distances
# ---------------------------------------------------------------------------

def test_ks_distance_matches_scipy_when_unweighted():
    rng = np.random.default_rng(12)
    for _ in range(5):
        a = rng.lognormal(0.0, 1.0, 300)
        b = rng.lognormal(0.1, 1.1, 200)
        # The exact method rounds its statistic to the lattice of n1 n2
        # steps; the asymptotic one keeps the raw distance.
        assert ks_distance(a, b) == stats.ks_2samp(a, b, method="asymp").statistic


def test_ks_2sample_statistic_is_scipys_with_ties_and_unequal_sizes():
    rng = np.random.default_rng(15)
    for n1, n2 in ((1, 7), (300, 200), (1000, 4321)):
        # Rounded draws tie within and across the samples.
        a = np.round(rng.normal(0.0, 1.0, n1), 1)
        b = np.round(rng.normal(0.1, 1.2, n2), 1)
        stat, _ = ks_2sample(a, b)
        assert stat == stats.ks_2samp(a, b, method="asymp").statistic
        assert ks_2sample(b, a)[0] == stat


def test_ks_2sample_pvalue_is_within_one_percent_of_scipys():
    # Kolmogorov's limiting law against scipy's finite-n one at n1 = n2 = 1e5.
    rng = np.random.default_rng(16)
    for shift in (0.0, 0.005, 0.01):
        a, b = rng.random(100_000), rng.random(100_000) + shift
        _, p = ks_2sample(a, b)
        ref = stats.ks_2samp(a, b, method="asymp").pvalue
        assert p == pytest.approx(ref, rel=0.01)


def test_ks_statistics_are_nan_when_a_sample_holds_a_nan():
    a, b = np.array([1.0, math.nan, 3.0, 4.0]), np.array([1.5, 2.5, 3.5])
    assert np.isnan(stats.ks_2samp(a, b).statistic)
    for x, y in ((a, b), (b, a)):
        assert math.isnan(ks_distance(x, y))
        assert math.isnan(ks_distance(x, y, np.ones(x.size), np.ones(y.size)))
        assert all(math.isnan(v) for v in ks_2sample(x, y))
    # A NaN distance fails the gate it is checked against.
    assert gate("ks", ks_distance(a, b), 0.0, 0.05).passed is False


def test_ks_distance_weighted_equals_replicated_sample():
    # Integer weights must match physically replicating the points.
    a = np.array([1.0, 2.0, 3.0])
    wa = np.array([2.0, 1.0, 3.0])
    a_rep = np.repeat(a, [2, 1, 3])
    b = np.array([1.5, 2.5, 3.5, 0.5])
    assert ks_distance(a, b, weights_a=wa) == pytest.approx(
        ks_distance(a_rep, b), abs=1e-12
    )


def test_ks_distance_identical_samples_is_zero():
    a = np.random.default_rng(13).random(100)
    assert ks_distance(a, a) == 0.0


def test_ks_distance_validation():
    with pytest.raises(ValueError):
        ks_distance(np.array([]), np.array([1.0]))
    with pytest.raises(ValueError):
        ks_distance(np.array([1.0]), np.array([1.0]),
                    weights_a=np.array([-1.0]))


def test_ks_2sample_null_and_alternative():
    rng = np.random.default_rng(14)
    a, b = rng.random(5000), rng.random(5000)
    stat, p = ks_2sample(a, b)
    assert p > 0.001
    _, p_alt = ks_2sample(a, b + 0.2)
    assert p_alt < 1e-10
