"""Coefficient-law moments, tail-index roots, stationarity, and regimes."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritail.errors import DivergentBeforeRoot, DivergentMoment, NoPositiveRoot, NotContracting
from tritail.laws import (
    DEFAULT_EPS_GRID,
    REGIME_A1_DOMINANT,
    REGIME_A2_DOMINANT,
    REGIME_UNRESOLVED,
    ChiSqAffine,
    Constant,
    LogNormal,
    ParetoLomax,
    ScaledUniformPow,
    check_stationarity,
    classify_regime,
    log_moment,
    _chisq_affine_quad,
    log_weighted_moment,
    moment,
    solve_tail_index,
)

from conftest import LAW_C3, LAW_C4, LAW_C8, assert_within_se


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def sampled_moment(dist, h, seed, n=400_000):
    """The sample mean of X^h over n fresh draws, with its standard error."""
    vals = dist.sample(np.random.default_rng(seed), n) ** h
    return vals.mean(), vals.std(ddof=1) / math.sqrt(n)


def test_lognormal_moment_closed_form():
    mv = moment(LogNormal(0.0, 1.0), 1.0)
    assert mv.method == "closed_form"
    assert mv.value == pytest.approx(math.exp(0.5), rel=1e-14)


def test_lognormal_moment_monte_carlo_agrees_with_closed_form():
    dist = LogNormal(-0.3, 0.6)
    closed = moment(dist, 1.7).value
    mean, se = sampled_moment(dist, 1.7, seed=7, n=200_000)
    assert se > 0
    assert_within_se(mean, closed, se, 4, "LN m(1.7)")


def test_chisq_affine_special_orders_match_quadrature():
    dist = ChiSqAffine(0.4, 0.7)
    for h, exact in ((0.0, 1.0), (1.0, 0.4 + 0.7), (2.0, 3 * 0.4**2 + 2 * 0.4 * 0.7 + 0.7**2)):
        closed = moment(dist, h)
        assert closed.method == "closed_form"
        assert closed.value == pytest.approx(exact, rel=1e-14)
        assert _chisq_affine_quad(dist, h) == pytest.approx(exact, rel=1e-9)
    # a = 0 leaves the constant b at every order.
    assert moment(ChiSqAffine(0.0, 0.5), 1.7) == moment(Constant(0.5), 1.7)


def test_chisq_affine_general_order_uses_quadrature():
    mv = moment(ChiSqAffine(0.4, 0.7), 1.6)
    assert mv.method == "quadrature"
    mean, se = sampled_moment(ChiSqAffine(0.4, 0.7), 1.6, seed=11)
    assert_within_se(mean, mv.value, se, 4, "chisq m(1.6)")


def test_pareto_lomax_moment_matches_monte_carlo():
    dist = ParetoLomax(4.0, 1.5)
    closed = moment(dist, 2.5)
    assert closed.method == "closed_form"
    mean, se = sampled_moment(dist, 2.5, seed=3)
    assert_within_se(mean, closed.value, se, 4, "lomax m(2.5)")


def test_scaled_uniform_pow_moment():
    # E (c U^p)^h = c^h / (p h + 1)
    assert moment(ScaledUniformPow(2.0, 1.0), 1.0).value == pytest.approx(1.0)
    assert moment(ScaledUniformPow(3.0, 2.0), 2.0).value == pytest.approx(9.0 / 5.0)


def test_divergent_moments_raise():
    with pytest.raises(DivergentMoment):
        moment(ParetoLomax(2.0, 1.0), 2.0)
    with pytest.raises(DivergentMoment):
        moment(ScaledUniformPow(1.0, 2.0), -0.5)
    with pytest.raises(DivergentMoment):
        moment(ChiSqAffine(1.0, 0.0), -0.6)


def test_moment_argument_validation():
    with pytest.raises(ValueError):
        moment(LogNormal(0.0, 1.0), math.inf)
    with pytest.raises(ValueError, match="no deterministic moment path"):
        moment(object(), 1.7)


def test_log_moment_values():
    assert log_moment(LogNormal(-0.3, 2.0)) == pytest.approx(-0.3)
    assert log_moment(Constant(2.0)) == pytest.approx(math.log(2.0))
    assert log_moment(ScaledUniformPow(2.0, 1.5)) == pytest.approx(math.log(2.0) - 1.5)


def test_log_moment_sampled_cross_check():
    rng = np.random.default_rng(5)
    for dist in (ParetoLomax(3.0, 2.0), ChiSqAffine(0.3, 0.5)):
        logs = np.log(dist.sample(rng, 400_000))
        se = logs.std(ddof=1) / math.sqrt(logs.size)
        assert_within_se(log_moment(dist), logs.mean(), se, 4, repr(dist))


def test_log_weighted_moment_closed_forms():
    mu, sigma, h = -0.4, 0.8, 1.3
    expected = math.exp(h * mu + 0.5 * (h * sigma) ** 2) * (mu + h * sigma**2)
    assert log_weighted_moment(LogNormal(mu, sigma), h) == pytest.approx(expected, rel=1e-13)
    assert log_weighted_moment(Constant(3.0), 2.0) == pytest.approx(9.0 * math.log(3.0))
    # E X^h log X = d/dh E X^h: each closed form against a central difference of moment().
    eps = 1e-5
    for dist, orders in ((ScaledUniformPow(1.2, 0.7), (0.5, 2.0)),
                         (ParetoLomax(4.0, 0.5), (0.5, 2.5))):
        for h in orders:
            slope = (moment(dist, h + eps).value - moment(dist, h - eps).value) / (2 * eps)
            assert log_weighted_moment(dist, h) == pytest.approx(slope, rel=1e-7), (dist, h)
    for dist, h in ((ParetoLomax(4.0, 0.5), 4.0), (ParetoLomax(4.0, 0.5), 5.0),
                    (ScaledUniformPow(1.2, 0.7), -1.5)):
        with pytest.raises(DivergentMoment):
            log_weighted_moment(dist, h)


def test_log_weighted_moment_sampled_cross_check():
    rng = np.random.default_rng(9)
    dist = ChiSqAffine(0.35, 0.6)
    x = dist.sample(rng, 400_000)
    vals = x**1.4 * np.log(x)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert_within_se(log_weighted_moment(dist, 1.4), vals.mean(), se, 4, "chisq weighted")


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(0.05, 2.0),
    b=st.floats(0.05, 2.0),
    h1=st.floats(0.1, 5.0),
    h2=st.floats(0.1, 5.0),
    theta=st.floats(0.0, 1.0),
)
def test_moment_log_convexity(a, b, h1, h2, theta):
    """log m(h) is convex in h for any positive law (Holder)."""
    dist = ChiSqAffine(a, b)
    h_mid = theta * h1 + (1.0 - theta) * h2
    lhs = math.log(moment(dist, h_mid).value)
    rhs = theta * math.log(moment(dist, h1).value) + (1.0 - theta) * math.log(
        moment(dist, h2).value
    )
    assert lhs <= rhs + 1e-9


# ---------------------------------------------------------------------------
# tail-index roots
# ---------------------------------------------------------------------------

def test_root_lognormal_exact():
    sol = solve_tail_index(LogNormal(-0.5, math.sqrt(0.5)))
    assert sol.method == "closed_form"
    assert sol.alpha == pytest.approx(2.0, abs=1e-10)
    assert abs(sol.residual) <= 1e-10
    assert sol.bracket[0] <= sol.alpha <= sol.bracket[1]


def test_root_scaled_uniform():
    # m(h) = 2^h / (h + 1) equals 1 at h = 1.
    sol = solve_tail_index(ScaledUniformPow(2.0, 1.0))
    assert sol.alpha == pytest.approx(1.0, abs=1e-10)


def test_root_chisq_affine_quadrature():
    sol = solve_tail_index(ChiSqAffine(0.5, 0.5))
    assert sol.method == "quadrature"
    assert sol.alpha == pytest.approx(1.0, abs=1e-6)


def test_root_crossing_below_one():
    # E log X < 0 but m(1) > 1: the crossing sits inside (0, 1).
    sol = solve_tail_index(LogNormal(-0.08, 0.5))
    assert sol.alpha == pytest.approx(0.64, abs=1e-9)


def test_root_beyond_divergence_hunt():
    # Lomax moments blow up at h = alpha; the root must be found below it.
    dist = ParetoLomax(4.0, 1.5)
    sol = solve_tail_index(dist)
    assert 2.0 < sol.alpha < 4.0
    assert abs(sol.residual) <= 1e-10
    mean, se = sampled_moment(dist, sol.alpha, seed=13)
    assert_within_se(mean, 1.0, se, 4, "lomax root certificate")


def test_root_below_a_divergent_probe():
    # m(1) = 0.2 and m(2) = +inf: the bisection between the probes steps
    # down from divergent midpoints (h >= 1.5) and up from finite ones below 1.
    dist = ParetoLomax(alpha=1.5, scale=0.1)
    assert moment(dist, 1.0).value == pytest.approx(0.2, rel=1e-12)
    with pytest.raises(DivergentMoment):
        moment(dist, 2.0)
    sol = solve_tail_index(dist)
    assert sol.method == "closed_form"
    assert sol.bracket == (1.4375, 1.46875)
    assert sol.alpha == pytest.approx(1.449944, abs=1e-6)
    assert abs(sol.residual) < 1e-15
    # Lomax: E X^h = scale^h * Gamma(h + 1) * Gamma(alpha - h) / Gamma(alpha).
    a = sol.alpha
    assert 0.1**a * math.gamma(a + 1) * math.gamma(1.5 - a) / math.gamma(1.5) == pytest.approx(
        1.0, rel=1e-12)


@pytest.mark.parametrize("dist, alpha, bracket", [
    # m(1) = 1 at a doubling probe.
    (ChiSqAffine(0.35, 0.65), 1.0, (1.0, 2.0)),
    # m(2.5) = 1 at a midpoint of the bisection below the divergence at h = 3.
    (ParetoLomax(3.0, 0.6491596842809317), 2.5, (2.5, 2.75)),
    # m(0.5) = 1 at a step of the halving toward 0.
    (LogNormal(-0.25, 1.0), 0.5, (0.25, 0.5)),
])
def test_root_at_a_probe_point_is_bracketed_by_a_sign_change(dist, alpha, bracket):
    sol = solve_tail_index(dist)
    assert sol.alpha == pytest.approx(alpha, abs=1e-12)
    assert sol.bracket == bracket
    assert moment(dist, bracket[0]).value <= 1.0 <= moment(dist, bracket[1]).value


@settings(max_examples=30, deadline=None)
@given(mu=st.floats(-2.0, -0.05), sigma=st.floats(0.3, 1.5))
def test_root_lognormal_formula(mu, sigma):
    sol = solve_tail_index(LogNormal(mu, sigma))
    assert sol.alpha == pytest.approx(-2.0 * mu / sigma**2, abs=1e-8)


def test_root_errors():
    with pytest.raises(NotContracting):
        solve_tail_index(LogNormal(0.1, 0.5))
    with pytest.raises(NotContracting):
        solve_tail_index(Constant(1.0))
    with pytest.raises(NoPositiveRoot):
        solve_tail_index(Constant(0.5))
    with pytest.raises(NoPositiveRoot):
        # m(h) = 0.9^h / (h + 1) is strictly decreasing: no crossing ever.
        solve_tail_index(ScaledUniformPow(0.9, 1.0))
    with pytest.raises(NoPositiveRoot):
        # The root -2 mu / sigma^2 = 2e-30 lies below every halving step:
        # there m(h) - 1 is under 1e-10 but never changes sign.
        solve_tail_index(LogNormal(-1e-30, 1.0))
    with pytest.raises(DivergentBeforeRoot):
        # m(h) stays near 0 below the moment boundary h = 2.
        solve_tail_index(ParetoLomax(2.0, 1e-10))


def test_root_of_a_wide_lognormal_whose_moments_overflow():
    # m(1) = e^799 is past the float range: the closed form reads +inf, so
    # the solver hunts below h = 1 for the exact root -2 mu / sigma^2.
    dist = LogNormal(-1.0, 40.0)
    with pytest.raises(DivergentMoment):
        moment(dist, 1.0)
    sol = solve_tail_index(dist)
    assert sol.alpha == pytest.approx(0.00125, rel=1e-12)
    assert abs(sol.residual) <= 1e-15
    assert sol.bracket == (0.0009765625, 0.001953125)
    # No grid epsilon reaches below the root: a report, not an error.
    rep = check_stationarity(dataclasses.replace(LAW_C8, a1=dist))
    assert not rep.holds and math.isinf(rep.rho)


# ---------------------------------------------------------------------------
# distribution validation
# ---------------------------------------------------------------------------

def test_distribution_validation():
    with pytest.raises(ValueError):
        LogNormal(0.0, 0.0)
    with pytest.raises(ValueError):
        ScaledUniformPow(-1.0, 1.0)
    with pytest.raises(ValueError):
        ParetoLomax(0.0, 1.0)
    with pytest.raises(ValueError):
        Constant(0.0)
    with pytest.raises(ValueError):
        ChiSqAffine(0.0, 0.0)
    with pytest.raises(ValueError):
        LAW_C8.marginal("a3")


def test_samples_are_strictly_positive():
    rng = np.random.default_rng(2)
    for dist in (LogNormal(0.0, 1.0), ScaledUniformPow(1.0, 2.0),
                 ParetoLomax(1.5, 1.0), ChiSqAffine(0.5, 0.0)):
        x = dist.sample(rng, 10_000)
        assert np.all(x > 0.0)


def test_constant_sample_is_a_read_only_view_drawing_nothing():
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    x = Constant(1.5).sample(rng, (300, 200))
    assert rng.bit_generator.state == state
    assert x.shape == (300, 200) and x.dtype == np.float64
    # Zero strides: every entry reads the same 8 bytes, so no (300, 200)
    # buffer exists, and no consumer can write into it.
    assert x.strides == (0, 0) and not x.flags.writeable
    np.testing.assert_array_equal(x, 1.5)
    assert Constant(2).sample(rng, ()).shape == ()


@pytest.mark.parametrize("dist", [LogNormal(-0.5, 0.5), ScaledUniformPow(1.2, 0.7),
                                  ParetoLomax(4.0, 0.5), ChiSqAffine(0.1, 0.8), Constant(0.7)],
                         ids=lambda d: type(d).__name__)
@pytest.mark.parametrize("rows", [1, 7, 64])
def test_a_slab_equals_its_row_blocks_drawn_in_order(dist, rows):
    # The one-slab series weight draws its (m, s) slabs in blocks of rows.
    m, s = 150, 13
    whole = dist.sample(np.random.default_rng(5), (m, s))
    rng = np.random.default_rng(5)
    blocks = [dist.sample(rng, (min(rows, m - lo), s)) for lo in range(0, m, rows)]
    np.testing.assert_array_equal(np.concatenate(blocks), whole)
    after = np.random.default_rng(5)
    dist.sample(after, (m, s))
    assert rng.bit_generator.state == after.bit_generator.state


# ---------------------------------------------------------------------------
# stationarity
# ---------------------------------------------------------------------------

def test_stationarity_witness_on_contracting_law():
    rep = check_stationarity(LAW_C8)
    assert rep.holds
    # Both diagonal means are already below one, so the first grid value wins.
    assert rep.witness_eps == 1.0
    assert rep.rho == pytest.approx(math.exp(-0.375 + 0.25), rel=1e-12)


def test_stationarity_skips_epsilons_with_divergent_coupling():
    law = dataclasses.replace(LAW_C8, a2=ParetoLomax(0.5, 1.0))
    rep = check_stationarity(law)
    assert rep.holds
    assert rep.witness_eps == 0.4  # first grid point below the coupling's 0.5


def test_stationarity_fails_on_expanding_diagonal():
    law = dataclasses.replace(LAW_C8, a1=Constant(1.5))
    rep = check_stationarity(law)
    assert not rep.holds
    assert rep.witness_eps is None
    assert math.isinf(rep.rho)


def test_stationarity_grid_validation():
    assert DEFAULT_EPS_GRID[0] == 1.0 and DEFAULT_EPS_GRID[-1] == 0.01


# ---------------------------------------------------------------------------
# regime classification
# ---------------------------------------------------------------------------

def test_regime_cross_fed():
    rep = classify_regime(LAW_C3)
    assert rep.regime == REGIME_A2_DOMINANT
    assert rep.alpha1.alpha == pytest.approx(3.0, abs=1e-9)
    assert rep.alpha2.alpha == pytest.approx(1.5, abs=1e-9)
    assert rep.cross_moment_ok


def test_regime_own_multiplier():
    rep = classify_regime(LAW_C4)
    assert rep.regime == REGIME_A1_DOMINANT
    assert rep.alpha1.alpha == pytest.approx(1.5, abs=1e-9)
    assert rep.alpha2.alpha == pytest.approx(3.0, abs=1e-9)


def test_regime_unresolved_on_identical_diagonals():
    law = dataclasses.replace(LAW_C8, a4=LAW_C8.a1)
    rep = classify_regime(law)
    assert rep.regime == REGIME_UNRESOLVED


def test_regime_flags_divergent_coupling_moment():
    law = dataclasses.replace(LAW_C8, a2=ParetoLomax(1.0, 1.0))
    rep = classify_regime(law)
    assert not rep.cross_moment_ok
    assert rep.cross_moment is None
