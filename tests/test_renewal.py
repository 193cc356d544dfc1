"""Renewal-form tail constants, coupling-series weights, and their brackets."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from tritail.engine import SimConfig, backward_truncated
from tritail.errors import NonFiniteState, NonPositiveM, RegimeMismatch, TauNotContracting
from tritail.garch import GarchLaw
from tritail.laws import (
    ChiSqAffine,
    Constant,
    IndependentLaw,
    LogNormal,
    ParetoLomax,
    ScaledUniformPow,
    log_weighted_moment,
)
from tritail.renewal import (
    _STRIP_CHUNK,
    _STRIP_ELEMENTS,
    RenewalConstant,
    coupled_component_constant,
    first_component_constant,
    series_weight,
    series_weight_bounds,
    series_weights,
    univariate_constant,
)

from conftest import GARCH_P10, LAW_C2, LAW_C3, LAW_C4, assert_within_se, make_law

ROOT_HALF = 0.5 ** 0.5


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# univariate renewal constant
# ---------------------------------------------------------------------------

def test_univariate_constant_linear_case_is_exact():
    # At alpha = 1 the telescoped numerator is exactly B, so c = E B / m(1).
    a = LogNormal(-0.25, ROOT_HALF)  # root exactly 1
    b = Constant(1.0)
    g = rng(1)
    w = np.zeros(5000)
    for _ in range(300):
        w = a.sample(g, w.size) * w + 1.0
    est = univariate_constant(a, b, 1.0, w, g)
    # m(1) = E A log A = mu + sigma^2 = 0.25, hence c = 4 with zero variance.
    assert est.m_alpha == pytest.approx(0.25, rel=1e-12)
    assert est.c_hat == pytest.approx(4.0, rel=1e-12)
    assert est.std_error == pytest.approx(0.0, abs=1e-12)
    assert abs(est.cramer_residual) < 0.05
    assert est.naive_value is None


def test_univariate_constant_quadratic_oracle():
    # alpha = 2 telescopes to 2 E[A] E[W] + 1 over 2 m(2), all in closed form.
    a, b = LAW_C2.a4, LAW_C2.b2
    ea = math.exp(-0.25)
    oracle = (2.0 * ea / (1.0 - ea) + 1.0) / (2.0 * 0.5)
    n = 200_000
    w = backward_truncated(LAW_C2, SimConfig(burn_in=0, n_draws=n), rng(2)).w2
    est = univariate_constant(a, b, 2.0, w, rng(3))
    assert est.m_alpha == pytest.approx(0.5, rel=1e-12)
    assert abs(est.c_hat - oracle) <= max(6.0 * est.std_error, 0.08 * oracle)
    assert abs(est.cramer_residual) < 0.05
    assert est.n_samples == n


def test_univariate_constant_rejects_wrong_alpha():
    w = np.ones(1000)
    a = LAW_C2.a4  # root is 2; the normalizer at 0.5 is negative
    with pytest.raises(NonPositiveM):
        univariate_constant(a, Constant(1.0), 0.5, w, rng(6))


def test_univariate_constant_validation():
    with pytest.raises(ValueError):
        univariate_constant(LAW_C2.a4, LAW_C2.b2, 2.0, np.ones(1), rng())
    with pytest.raises(ValueError):
        univariate_constant(LAW_C2.a4, LAW_C2.b2, -1.0, np.ones(100), rng())


# ---------------------------------------------------------------------------
# first-component constant (own-multiplier regime)
# ---------------------------------------------------------------------------

def test_first_component_requires_lighter_own_tail():
    draws = backward_truncated(LAW_C3, SimConfig(burn_in=0, n_draws=100), rng(7))
    with pytest.raises(RegimeMismatch):
        first_component_constant(LAW_C3, 3.0, 1.5, draws, rng(8))


def test_first_component_prefactor_ratio_identity():
    # naive/renewal = 2 m(alpha1) pathwise: both share the same numerator.
    draws = backward_truncated(LAW_C4, SimConfig(burn_in=0, n_draws=50_000), rng(9))
    est = first_component_constant(LAW_C4, 1.5, 3.0, draws, rng(10))
    assert est.naive_value is not None
    assert est.naive_value / est.c_hat == pytest.approx(2.0 * est.m_alpha, rel=1e-12)
    # For this law m(1.5) = 0.375, so the two candidates differ by 4/3.
    assert est.m_alpha == pytest.approx(0.375, rel=1e-12)
    assert est.alpha == 1.5
    assert est.c_hat > 0 and abs(est.cramer_residual) < 0.05


# ---------------------------------------------------------------------------
# the numerator in blocks
# ---------------------------------------------------------------------------

def whole_array_constant(numerator, a, alpha, a_dist):
    """(c_hat, std_error, cramer_residual, flat value) as the whole-array code computed them."""
    m = log_weighted_moment(a_dist, alpha)
    mean = float(numerator.mean())
    se = math.sqrt(float(numerator.var(ddof=1)) / numerator.size) / (alpha * m)
    return mean / (alpha * m), se, float((a**alpha).mean() - 1.0), (2.0 / alpha) * mean


def as_tuple(est):
    return est.c_hat, est.std_error, est.cramer_residual, est.naive_value


@pytest.mark.parametrize("n", [2, 3 * _STRIP_ELEMENTS + 77])
@pytest.mark.parametrize("a_dist, b_dist, alpha", [
    (LogNormal(-0.25, ROOT_HALF), Constant(1.0), 2.0),  # numpy squares at 2
    (LogNormal(-0.1, 1.0), ParetoLomax(4.0, 0.5), 0.5),  # and takes roots at 0.5
    (LogNormal(-0.75, ROOT_HALF), LogNormal(-0.5, 0.5), 3.0),
    (ChiSqAffine(0.35, 0.6), Constant(0.05), 4.0),
])
def test_univariate_constant_equals_the_whole_array_form_bit_for_bit(n, a_dist, b_dist, alpha):
    w = rng(n).lognormal(0.0, 1.0, n)
    g = rng(31)
    a = np.asarray(a_dist.sample(g, n), dtype=float)
    aw = a * w
    numerator = (aw + np.asarray(b_dist.sample(g, n), dtype=float)) ** alpha - aw**alpha
    c_hat, se, residual, _ = whole_array_constant(numerator, a, alpha, a_dist)
    got = univariate_constant(a_dist, b_dist, alpha, w, rng(31))
    assert as_tuple(got) == (c_hat, se, residual, None)


@pytest.mark.parametrize("n", [2, 3 * _STRIP_ELEMENTS + 77])
@pytest.mark.parametrize("law", [
    LAW_C4,
    IndependentLaw(LogNormal(-0.375, ROOT_HALF), ParetoLomax(4.0, 0.5), Constant(0.7),
                   LogNormal(0.0, 0.5), ChiSqAffine(0.1, 0.8)),
])
def test_first_component_constant_equals_the_whole_array_form_bit_for_bit(n, law):
    g = rng(n)
    draws = SimpleNamespace(w1=g.lognormal(0.0, 1.0, n), w2=g.lognormal(0.0, 1.0, n))
    d = law.sample(rng(32), n)
    aw = d.a1 * draws.w1
    numerator = (aw + (d.b1 + d.a2 * draws.w2)) ** 1.5 - aw**1.5
    expected = whole_array_constant(numerator, d.a1, 1.5, law.marginal("a1"))
    assert as_tuple(first_component_constant(law, 1.5, 3.0, draws, rng(32))) == expected


@pytest.mark.parametrize("component, arrays", [(2, 2), (1, 3)])
def test_renewal_constant_holds_its_draw_one_numerator_and_one_block(component, arrays):
    # C4 at n = 2e5, four blocks.  c2 holds A4 (its B is constant) and the
    # numerator; c1 holds A1, A2 and A4 while the joint tuple is drawn, then
    # A1, A2 and the numerator.  The whole-array form held about five and
    # seven n-arrays.
    import tracemalloc

    n = 200_000
    g = rng(40)
    draws = SimpleNamespace(w1=g.lognormal(0.0, 1.0, n), w2=g.lognormal(0.0, 1.0, n))
    tracemalloc.start()
    try:
        if component == 2:
            univariate_constant(LAW_C4.a4, LAW_C4.b2, 3.0, draws.w2, rng(41))
        else:
            first_component_constant(LAW_C4, 1.5, 3.0, draws, rng(42))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays * 8 * n + 8 * _STRIP_ELEMENTS + 65_536, peak / (8 * n)


# ---------------------------------------------------------------------------
# coupling-series weights
# ---------------------------------------------------------------------------

def test_series_weight_single_term_is_coupling_moment():
    est = series_weight(LAW_C3, 1.5, s=1, n=100_000, rng=rng(11))
    target = math.exp(-0.75 + 0.5 * (1.5 * 0.5) ** 2)  # E A2^1.5
    assert_within_se(est.value, target, est.std_error, 3, "w_1")
    assert est.s == 1 and est.n_samples == 100_000


def test_series_weight_two_terms_brute_force():
    alpha2, n = 1.5, 200_000
    est = series_weight(LAW_C3, alpha2, s=2, n=n, rng=rng(12))
    # Independent re-derivation: term 1 = A2_1 * A4_2, term 2 = A1_1 * A2_2.
    g = rng(13)
    d1 = LAW_C3.sample(g, n)
    d2 = LAW_C3.sample(g, n)
    vals = (d1.a2 * d2.a4 + d1.a1 * d2.a2) ** alpha2
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(est.value - vals.mean()) <= 3.0 * (est.std_error + se)


def test_series_weight_deterministic_closed_form():
    a1, a2, a4, alpha2 = 0.6, 0.3, 0.5, 1.7
    law = make_law(Constant(a1), Constant(a2), Constant(a4))
    for s in (1, 3, 5):
        est = series_weight(law, alpha2, s=s, n=16, rng=rng(14))
        inner = sum(a1 ** (i - 1) * a2 * a4 ** (s - i) for i in range(1, s + 1))
        assert est.value == pytest.approx(inner**alpha2, rel=1e-12)
        assert est.std_error == pytest.approx(0.0, abs=1e-12)


def test_series_weight_validation():
    with pytest.raises(ValueError):
        series_weight(LAW_C3, 1.5, s=0, n=100, rng=rng())
    with pytest.raises(ValueError):
        series_weight(LAW_C3, 1.5, s=1, n=1, rng=rng())
    with pytest.raises(ValueError):
        series_weight(LAW_C3, -1.5, s=1, n=100, rng=rng())


def three_slab_series_weight(law, alpha2, s, n, rng):
    """(value, std_error) of w_s from fresh (m, s) strip slabs, prefix and suffix products by cumprod."""
    total = total_sq = 0.0
    done = 0
    while done < n:
        m = min(_STRIP_CHUNK, n - done)
        d = law.sample(rng, (m, s))
        rows = max(1, _STRIP_ELEMENTS // s)
        vals = np.empty(m)
        for lo in range(0, m, rows):
            a1, a2, a4 = (x[lo:lo + rows] for x in (d.a1, d.a2, d.a4))
            prefix1 = np.ones(a2.shape)
            suffix4 = np.ones(a2.shape)
            if s > 1:
                np.cumprod(a1[:, :-1], axis=1, out=prefix1[:, 1:])
                suffix4[:, :-1] = np.cumprod(a4[:, :0:-1], axis=1)[:, ::-1]
            vals[lo:lo + rows] = (prefix1 * a2 * suffix4).sum(axis=1) ** alpha2
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += m
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0) * n / (n - 1)
    return mean, math.sqrt(var / n)


KINDS = (LogNormal(-0.5, 0.5), ScaledUniformPow(1.2, 0.7), ParetoLomax(4.0, 0.5),
         ChiSqAffine(0.1, 0.8), Constant(0.7))


def kind_laws(seed):
    """Each kind in each slot, a constant A1 among them, B terms that draw or not."""
    laws = [IndependentLaw(*(KINDS[(k + j) % 5] for j in range(5))) for k in range(5)]
    laws.append(IndependentLaw(*(KINDS[i] for i in rng(seed).integers(0, 5, size=5))))
    return laws


def three_slab_corner_weight(law, alpha2, s, n, rng):
    """(value, std_error) of w_s from (m, s) slabs of A1, A2, A4 drawn level by level.

    Each strip's slabs are folded row by row into the corner entry of A_s ... A_1.
    """
    total = total_sq = 0.0
    for lo in range(0, n, _STRIP_CHUNK):
        m = min(_STRIP_CHUNK, n - lo)
        levels = [law.sample(rng, (1, m)) for _ in range(s)]
        a1, a2, a4 = (np.concatenate([getattr(d, k) for d in levels]).T for k in ("a1", "a2", "a4"))
        u, p4 = np.zeros(m), np.ones(m)
        for t in range(s):
            u, p4 = a1[:, t] * u + a2[:, t] * p4, a4[:, t] * p4
        vals = u**alpha2
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0) * n / (n - 1)
    return mean, math.sqrt(var / n)


@pytest.mark.parametrize("s", [1, 2, 64, 130])
def test_series_weight_equals_the_three_slab_form_bit_for_bit(s):
    # n spans a partial chunk at small s.  At one slot the corner entry is
    # the A2 draw, so the fresh-slab form draws and sums the same numbers.
    n = _STRIP_CHUNK + 1234 if s <= 2 else 3001
    for seed, law in enumerate(kind_laws(s)):
        got = series_weight(law, 1.3, s, n, rng(seed))
        assert (got.value, got.std_error) == three_slab_corner_weight(law, 1.3, s, n, rng(seed)), law
        if s == 1:
            assert (got.value, got.std_error) == three_slab_series_weight(law, 1.3, s, n, rng(seed)), law


def brute_force_series_weights(law, alpha2, schedule, n, rng):
    """(value, std_error) at each s: the 2x2 product A_t ... A_1 multiplied level by level."""
    total = dict.fromkeys(schedule, 0.0)
    total_sq = dict.fromkeys(schedule, 0.0)
    for lo in range(0, n, _STRIP_CHUNK):
        m = min(_STRIP_CHUNK, n - lo)
        p1, u, p4 = np.ones(m), np.zeros(m), np.ones(m)
        for t in range(1, schedule[-1] + 1):
            d = law.sample(rng, (1, m))
            # [[a1, a2], [0, a4]] @ [[p1, u], [0, p4]]
            p1, u, p4 = d.a1[0] * p1, d.a1[0] * u + d.a2[0] * p4, d.a4[0] * p4
            if t in total:
                vals = u**alpha2
                total[t] += float(vals.sum())
                total_sq[t] += float((vals * vals).sum())
    out = []
    for s in schedule:
        mean = total[s] / n
        var = max(total_sq[s] / n - mean * mean, 0.0) * n / (n - 1)
        out.append((mean, math.sqrt(var / n)))
    return out


def test_series_weights_equal_the_brute_force_product_bit_for_bit():
    # n spans a partial chunk; the GARCH law draws its coupled A2 and A4 jointly.
    schedule, n = (1, 2, 64, 130), _STRIP_CHUNK + 77
    for seed, law in enumerate([*kind_laws(2), GarchLaw(GARCH_P10)]):
        got = [(w.value, w.std_error) for w in series_weights(law, 1.3, schedule, n, rng(seed))]
        assert got == brute_force_series_weights(law, 1.3, schedule, n, rng(seed)), law


@pytest.mark.parametrize("law", [LAW_C3, GarchLaw(GARCH_P10)], ids=["c3", "garch"])
def test_series_weights_are_nested_prefixes_of_one_path(law):
    # Within one chunk every w_s reads the first s levels of the same strips.
    schedule, n = (1, 2, 5, 64), 3001
    trace = series_weights(law, 1.5, schedule, n, rng(5))
    assert [t.s for t in trace] == list(schedule)
    for t in trace:
        assert t == series_weight(law, 1.5, t.s, n, rng(5))


def test_series_weights_agree_with_fresh_three_slab_strips():
    # The corner entry has the strip sum's law: nested and fresh strips agree.
    n = 20_000
    for got in series_weights(LAW_C3, 1.5, (2, 16, 64), n, rng(21)):
        value, se = three_slab_series_weight(LAW_C3, 1.5, got.s, n, rng(22))
        assert abs(got.value - value) <= 4.0 * (got.std_error + se), (got, value, se)


def test_series_weight_holds_no_strip_slab():
    # Two (2, m) state buffers, the kernel's row, a zero row, one level's
    # draws and the powers with their squares: a fixed number of m-arrays
    # whatever s is.  An (m, s) slab alone is s of them.
    import tracemalloc

    n = _STRIP_CHUNK
    for s in (2, 130):
        tracemalloc.start()
        try:
            series_weight(LAW_C3, 1.5, s, n, rng(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14 * 8 * n, (s, peak / (8 * n))


def test_series_weight_overflow_raises():
    # The strip sums overflow by the fourth level; the kernel's finite check
    # catches it at the last (eighth).
    law = make_law(Constant(1e120), Constant(1.0), Constant(1e120))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteState, match="overflowed"):
        series_weight(law, 1.5, 8, 16, rng(17))


@pytest.mark.parametrize("s", [1, 3])
def test_series_weight_draws_a_coupled_law_jointly(s):
    # A GARCH law couples A2 and A4 through one noise draw: each level is one
    # joint draw, the numbers the fresh-slab form drew at one slot.
    law = GarchLaw(GARCH_P10)
    n = _STRIP_CHUNK + 77
    got = series_weight(law, 1.5, s, n, rng(s))
    assert (got.value, got.std_error) == three_slab_corner_weight(law, 1.5, s, n, rng(s))
    if s == 1:
        assert (got.value, got.std_error) == three_slab_series_weight(law, 1.5, s, n, rng(s))


# ---------------------------------------------------------------------------
# analytic weight bounds
# ---------------------------------------------------------------------------

def test_series_weight_bounds_heavy_branch():
    b = series_weight_bounds(LAW_C3, 1.5)
    ea2 = math.exp(-0.75 + 0.5 * (1.5 * 0.5) ** 2)
    tau = math.exp(1.5 * -0.375 + 0.5 * (1.5 * 0.5) ** 2)
    assert b.branch == "alpha2_gt_1"
    assert b.tau == pytest.approx(tau, rel=1e-12)
    assert b.ea2 == pytest.approx(ea2, rel=1e-12)
    assert b.lower == pytest.approx(ea2, rel=1e-12)
    assert b.upper == pytest.approx(
        (1.0 - tau ** (1.0 / 1.5)) ** -1.5 * ea2, rel=1e-12
    )


def test_series_weight_bounds_light_branch():
    law = make_law(LogNormal(-0.5, 0.3), LogNormal(-0.5, 0.5), LogNormal(-0.6, 0.3))
    alpha2 = 0.8
    b = series_weight_bounds(law, alpha2)
    tau = math.exp(0.8 * -0.5 + 0.5 * (0.8 * 0.3) ** 2)
    ea2 = math.exp(0.8 * -0.5 + 0.5 * (0.8 * 0.5) ** 2)
    pinch = (1.0 - tau ** (1.0 / alpha2)) ** -alpha2
    assert b.branch == "alpha2_le_1"
    assert b.lower == pytest.approx(pinch * ea2, rel=1e-12)
    assert b.upper == pytest.approx(ea2 / (1.0 - tau), rel=1e-12)
    assert b.lower <= b.upper


def test_series_weight_bounds_tau_not_contracting():
    law = make_law(LogNormal(0.0, 0.5), LogNormal(-0.5, 0.5), LogNormal(-0.6, 0.3))
    with pytest.raises(TauNotContracting):
        series_weight_bounds(law, 1.5)
    with pytest.raises(ValueError, match="alpha2 must be positive"):
        series_weight_bounds(LAW_C3, 0.0)


# ---------------------------------------------------------------------------
# inherited (coupled) constant
# ---------------------------------------------------------------------------

def fake_c2(c=2.0):
    return RenewalConstant(c_hat=c, std_error=0.1, m_alpha=0.5, alpha=1.7,
                           n_samples=10)


def test_coupled_constant_deterministic():
    # With A4 = 1 the inner sums are plain geometric series in A1, so the
    # weights converge to (a2/(1-a1))^alpha2 — exactly the analytic upper bound.
    law = make_law(Constant(0.3), Constant(0.4), Constant(1.0))
    res = coupled_component_constant(
        law, 1.7, fake_c2(), s_schedule=(4, 8, 16), n=8, rng=rng(15)
    )
    assert res.converged
    assert [t.s for t in res.trace] == [4, 8, 16]
    assert res.weight == res.trace[-1].value
    assert res.constant.c_hat == pytest.approx(2.0 * res.weight, rel=1e-12)
    bounds = series_weight_bounds(law, 1.7)
    assert bounds.lower <= res.weight <= bounds.upper
    assert res.weight == pytest.approx((0.4 / 0.7) ** 1.7, rel=1e-3)


def test_coupled_constant_nonconvergence_is_a_flag():
    law = make_law(Constant(0.9), Constant(0.4), Constant(0.9))
    res = coupled_component_constant(
        law, 1.7, fake_c2(), s_schedule=(1, 2, 3), n=8, rng=rng(16),
        rel_tol=1e-6,
    )
    assert not res.converged  # the trace is still growing at s = 3
    assert res.constant.c_hat == pytest.approx(2.0 * res.weight, rel=1e-12)


def test_coupled_constant_validation():
    with pytest.raises(ValueError):
        coupled_component_constant(LAW_C3, 1.5, fake_c2(), (4, 8), 8, rng())
    with pytest.raises(ValueError):
        coupled_component_constant(LAW_C3, 1.5, fake_c2(), (4, 4, 8), 8, rng())
    with pytest.raises(RegimeMismatch):
        coupled_component_constant(LAW_C3, 1.5, fake_c2(), (2, 4, 8), 8, rng(),
                                   alpha1=1.0)
