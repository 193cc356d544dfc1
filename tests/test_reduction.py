"""Group reductions: groups written into one summary equal the whole-array computations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritail import reduction, tailstats
from tritail.engine import PathSample
from tritail.reduction import (
    Plan,
    PointSpec,
    Summary,
    WindowSpec,
    reduce_group,
    summarize,
    valid_window_starts,
)
from tritail.spectral import sliding_windows

PAIR = ("w1", "w2")


def sample_of(w1, w2, chain_len):
    return PathSample(w1=w1, w2=w2, chain_len=chain_len)


def reduce_in_groups(plan, w1, w2, chain_len, bounds):
    """Feed [bounds[i], bounds[i+1]) into one summary, one group at a time."""
    summary = Summary(plan, w1.size, chain_len)
    for a, b in zip(bounds, bounds[1:]):
        reduce_group(summary, sample_of(w1[a:b], w2[a:b], chain_len), a)
    return summary


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_merged_groups_equal_the_whole_array_code(data):
    chain_len = data.draw(st.integers(1, 12), label="chain_len")
    n_chains = data.draw(st.integers(1, 30), label="n_chains")
    n = chain_len * n_chains - data.draw(st.integers(0, chain_len - 1), label="trim")
    h = data.draw(st.integers(1, 10), label="h")
    u = data.draw(st.floats(0.3, 0.995), label="u")
    block = data.draw(st.integers(1, 40), label="block")
    g = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    if data.draw(st.booleans(), label="tied"):
        w1, w2 = g.integers(1, 4, n).astype(float), g.integers(1, 3, n).astype(float)
    else:
        w1, w2 = g.pareto(1.5, n) + 1.0, g.pareto(3.0, n) + 1.0
    cuts = data.draw(st.sets(st.integers(1, max(1, n_chains - 1)), max_size=5), label="cuts")
    bounds = [0, *sorted(c * chain_len for c in cuts if c < n_chains), n]
    depth = data.draw(st.integers(1, n + 2), label="depth")
    first = data.draw(st.integers(0, n + 2), label="first")
    stride = data.draw(st.integers(1, 5), label="stride")
    strided = data.draw(st.integers(0, n + 2), label="strided")

    point = PointSpec(PAIR, PAIR, h, u)
    windows = {name: WindowSpec(name, h, u) for name in PAIR}
    plan = Plan(tails={"w1": depth}, exceedances=frozenset({point, *windows.values()}),
                strides={("w1", stride): strided, ("w2", 1): first})
    with pytest.MonkeyPatch.context() as mp:
        # Small blocks take the running-cut path inside each group too.
        mp.setattr(tailstats, "_BLOCK", block)
        merged = reduce_in_groups(plan, w1, w2, chain_len, bounds)

    tail = merged.tail("w1")
    np.testing.assert_array_equal(tail.top, np.sort(w1)[n - min(depth, n):])
    assert (tail.n, tail.minimum) == (n, w1.min())
    np.testing.assert_array_equal(merged.head("w2", first), w2[:first])
    # Kept states stride, 2 stride, ... of each chain, chain-major, as many as there are.
    every = (np.arange(n) % chain_len + 1) % stride == 0
    np.testing.assert_array_equal(merged.strided("w1", stride, strided), w1[every][:strided])

    # Norm exceedances: np.quantile, np.nonzero(r > x) and the next h states.
    r = np.hypot(w1, w2)
    ex = merged.exceedance_set(point)
    x, sel = ex.above(u)
    assert x == float(np.quantile(r, u))
    idx = np.nonzero(r > x)[0]
    np.testing.assert_array_equal(ex.index[sel], idx)
    np.testing.assert_array_equal(ex.key[sel], r[idx])
    np.testing.assert_array_equal(ex.rows[sel], np.column_stack((w1[idx], w2[idx])))
    valid = valid_window_starts(n, chain_len, h, offset=1)[idx]
    np.testing.assert_array_equal(ex.valid[sel], valid)
    steps = idx[valid][:, None] + np.arange(1, h + 1)
    np.testing.assert_array_equal(ex.after[sel][valid], np.stack((w1[steps], w2[steps]), axis=2))

    # Window-norm exceedances: the windows of sliding_windows above the quantile.
    for name, w in zip(PAIR, (w1, w2)):
        wins = sliding_windows(w, chain_len, h)
        ex = merged.exceedance_set(windows[name])
        assert ex.n == wins.shape[0]
        if not wins.shape[0]:
            continue
        norms = np.linalg.norm(wins, axis=1)
        x, sel = ex.above(u)
        assert x == float(np.quantile(norms, u))
        keep = norms > x
        starts = np.nonzero(valid_window_starts(n, chain_len, h))[0]
        np.testing.assert_array_equal(ex.index[sel], starts[keep])
        np.testing.assert_array_equal(ex.key[sel], norms[keep])
        np.testing.assert_array_equal(ex.rows[sel], wins[keep])


def test_partial_sums_follow_the_spans_not_the_groups(monkeypatch):
    monkeypatch.setattr(reduction, "SUM_SPAN", 14)
    g = np.random.default_rng(3)
    w1, w2 = g.standard_normal(70) * 1e8, g.standard_normal(70)
    plan = Plan(sums=frozenset(PAIR))
    one = summarize(sample_of(w1, w2, 7), plan)
    split = reduce_in_groups(plan, w1, w2, 7, [0, 14, 42, 70])
    # Each chain is summed one state after another, then a span's two chains.
    chains = [sum(w1[c:c + 7].tolist()) for c in range(0, 70, 7)]
    assert one.sums["w1"] == split.sums["w1"] == [float(np.sum(chains[a:a + 2]))
                                                  for a in range(0, 10, 2)]
    assert one.mean("w2") == split.mean("w2") == pytest.approx(w2.mean(), rel=1e-12)


def test_empty_and_nan_parts_merge_like_the_whole_array():
    # Chains of 1 state hold no window of 2; a part with no key points
    # carries no minimum that could poison the quantile.
    w = np.arange(1.0, 9.0)
    spec = WindowSpec("w1", 2, 0.5)
    merged = reduce_in_groups(Plan(exceedances=frozenset({spec})), w, w, 1, [0, 4, 8])
    ex = merged.exceedance_set(spec)
    assert ex.n == 0 and ex.key.size == 0
    with pytest.raises(ValueError, match="empty"):
        ex.above(0.5)
    # A NaN in a later group makes the quantile NaN and leaves no exceedance,
    # as np.quantile and np.nonzero(r > x) do.
    w = np.arange(1.0, 21.0)
    w[15] = np.nan
    spec = PointSpec(PAIR, PAIR, 1, 0.5)
    x, sel = reduce_in_groups(Plan(exceedances=frozenset({spec})), w, w, 5,
                              [0, 10, 20]).exceedance_set(spec).above(0.5)
    assert np.isnan(x) and np.isnan(np.quantile(np.hypot(w, w), 0.5)) and sel.size == 0


def test_unplanned_reductions_raise():
    w = np.arange(1.0, 101.0)
    summary = summarize(sample_of(w, w, 10), Plan(tails={"w1": 5}, strides={("w2", 1): 3}))
    assert summary.tail("w1").top.size == 5
    for lookup in (lambda: summary.tail("w2"),
                   lambda: summary.head("w2", 4), lambda: summary.mean("w1"),
                   lambda: summary.strided("w1", 2, 3),
                   lambda: summary.exceedance_set(WindowSpec("w1", 2, 0.9))):
        with pytest.raises(ValueError, match="holds"):
            lookup()
    # A tail planned too shallow is refused by the estimators that read it.
    with pytest.raises(ValueError, match="cannot give Hill at k=5"):
        tailstats.hill(summary.tail("w1"), k=5)
    with pytest.raises(ValueError, match="cannot give the 0.9 quantile"):
        summary.tail("w1").quantile(0.9)
    # A point set is read only at its planned h: h = 0 names another set.
    spec = PointSpec(PAIR, PAIR, 3, 0.9)
    summary = summarize(sample_of(w, w, 10), Plan(exceedances=frozenset({spec})))
    assert summary.exceedance_set(spec).index.size > 0
    with pytest.raises(ValueError, match="holds"):
        summary.exceedance_set(PointSpec(PAIR, PAIR, 0, 0.9))


def test_plans_union_at_the_deepest_reach():
    a = Plan(tails={"w1": 5}, sums=frozenset({"w1"}), strides={("w1", 20): 4, ("w1", 1): 10})
    b = Plan(tails={"w1": 3, "w2": 7}, exceedances=frozenset({WindowSpec("w1", 2, 0.9)}),
             strides={("w1", 20): 9, ("w1", 2): 1})
    both = a | b
    assert both.tails == {"w1": 5, "w2": 7}
    assert both.strides == {("w1", 20): 9, ("w1", 2): 1, ("w1", 1): 10}
    assert both.sums == {"w1"} and both.exceedances == b.exceedances


@pytest.mark.parametrize("tied", [False, True], ids=["heavy", "tied"])
def test_summary_fed_from_threads_equals_the_serial_reduction(tied, monkeypatch):
    # Six threads, switching often, write the groups of one sample into one
    # summary in shuffled order: no reduction may depend on the order in
    # which the groups arrive, nor lose or double a block.
    import sys
    from concurrent.futures import ThreadPoolExecutor

    monkeypatch.setattr(tailstats, "_BLOCK", 64)  # many blocks per group
    monkeypatch.setattr(reduction, "SUM_SPAN", 800)  # spans of four chains
    chain_len, per_group = 200, 3
    n = chain_len * 150 - 17
    g = np.random.default_rng(21 + tied)
    if tied:
        w1, w2 = g.integers(1, 4, n).astype(float), g.integers(1, 3, n).astype(float)
    else:
        w1, w2 = g.pareto(1.5, n) + 1.0, g.pareto(3.0, n) + 1.0
    u = 0.7  # the tied keys' maximum holds less than 1 - u of them
    specs = (PointSpec(PAIR, PAIR, 2, u), *(WindowSpec(name, 3, u) for name in PAIR))
    plan = Plan(tails=dict.fromkeys(PAIR, 500), sums=frozenset(PAIR), exceedances=frozenset(specs),
                strides={("w1", 1): n, ("w2", 1): 1234, ("w2", 7): 3000})
    serial = summarize(sample_of(w1, w2, chain_len), plan)

    bounds = [*range(0, n, per_group * chain_len), n]
    groups = list(zip(bounds, bounds[1:]))
    g.shuffle(groups)
    threaded = Summary(plan, n, chain_len)

    def feed(group):
        a, b = group
        reduce_group(threaded, sample_of(w1[a:b], w2[a:b], chain_len), a)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(feed, groups))
    finally:
        sys.setswitchinterval(interval)

    for name in PAIR:
        want, got = serial.tail(name), threaded.tail(name)
        np.testing.assert_array_equal(got.top, want.top)
        assert (got.n, got.minimum) == (want.n, want.minimum)
    assert threaded.sums == serial.sums
    for (name, stride), m in plan.strides.items():
        np.testing.assert_array_equal(threaded.strided(name, stride, m),
                                      serial.strided(name, stride, m))
    for spec in specs:
        want, got = serial.exceedance_set(spec), threaded.exceedance_set(spec)
        assert (got.n, got.minimum) == (want.n, want.minimum)
        (x, sel), (y, mine) = want.above(u), got.above(u)
        assert x == y and sel.size > 0
        np.testing.assert_array_equal(got.index[mine], want.index[sel])
        np.testing.assert_array_equal(got.key[mine], want.key[sel])
        np.testing.assert_array_equal(got.rows[mine], want.rows[sel])
