"""CCC-GARCH mapping onto the triangular recursion and its tail verification."""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from tritail import garch
from tritail.engine import SimConfig, slab_rows
from tritail.errors import NonFiniteState, RegimeMismatch
from tritail.garch import (
    STORED,
    GarchLaw,
    GarchParams,
    GarchPath,
    _correlated_normals,
    return_hill_k,
    return_spectral_check,
    stationary_garch_sample,
    to_sre_coefficients,
    verify_tail_relations,
)
from tritail.laws import (
    ChiSqAffine,
    Constant,
    _chisq_affine_quad,
    classify_regime,
    solve_tail_index,
)
from tritail.pipelines import (
    _CHUNK_CHAIN_LEN,
    _CHUNK_DRAWS,
    _GROUP_ELEMENTS,
    _forward_chunked,
)
from tritail.reduction import Plan, PointSpec, exceedances
from tritail.spectral import valid_window_starts
from tritail.streams import substream

from conftest import GARCH_P10


def rng(seed=0):
    return np.random.default_rng(seed)


# Flipped dominance: the first asset's own channel is heavier than the spillover.
OWN_TAIL_PARAMS = GarchParams(
    alpha0=(0.05, 0.05),
    alpha11=0.35,
    alpha12=0.05,
    alpha22=0.25,
    beta11=0.60,
    beta12=0.05,
    beta22=0.72,
    rho=0.5,
)


# ---------------------------------------------------------------------------
# parameters and the coefficient map
# ---------------------------------------------------------------------------

def test_params_validation():
    good = GARCH_P10.to_dict()
    for field in ("alpha11", "alpha12", "alpha22", "beta11", "beta12", "beta22"):
        bad = dict(good, **{field: 0.0})
        with pytest.raises(ValueError, match=field):
            GarchParams(**bad)
    with pytest.raises(ValueError, match="alpha0"):
        GarchParams(**dict(good, alpha0=[0.05, -0.05]))
    with pytest.raises(ValueError, match="rho"):
        GarchParams(**dict(good, rho=1.0))
    assert GarchParams(**good) == GARCH_P10


def test_to_sre_coefficients_anchor_points():
    p = GARCH_P10
    a1, a2, a4, b1, b2 = to_sre_coefficients(p, (0.0, 0.0))
    assert (a1, a2, a4) == (p.beta11, p.beta12, p.beta22)
    assert (b1, b2) == p.alpha0
    a1, a2, a4, _, _ = to_sre_coefficients(p, (1.0, 1.0))
    assert a1 == pytest.approx(p.alpha11 + p.beta11)
    assert a2 == pytest.approx(p.alpha12 + p.beta12)
    assert a4 == pytest.approx(p.alpha22 + p.beta22)


def test_to_sre_coefficients_out_is_the_same_formula():
    p = GARCH_P10
    z1, z2 = _correlated_normals(p.rho, (4, 50), rng(2))
    out = np.empty((3, 4, 50))
    got = to_sre_coefficients(p, (z1, z2), out=out)
    assert all(np.shares_memory(a, b) for a, b in zip(got[:3], out))
    for a, b in zip(got[:3], to_sre_coefficients(p, (z1, z2))):
        np.testing.assert_array_equal(a, b)
    # alpha * z^2 + beta, bit for bit.
    np.testing.assert_array_equal(got[0], p.alpha11 * np.square(z1) + p.beta11)
    np.testing.assert_array_equal(got[1], p.alpha12 * np.square(z2) + p.beta12)
    np.testing.assert_array_equal(got[2], p.alpha22 * np.square(z2) + p.beta22)


def test_garch_law_comonotone_coupling():
    # A2 and A4 are deterministic affine images of the same z2^2.
    d = GarchLaw(GARCH_P10).sample(rng(1), 10_000)
    p = GARCH_P10
    # atol absorbs cancellation noise in the affine inversion near z^2 = 0.
    np.testing.assert_allclose(
        (d.a2 - p.beta12) / p.alpha12, (d.a4 - p.beta22) / p.alpha22,
        rtol=1e-9, atol=1e-12,
    )
    assert np.all(d.b1 == p.alpha0[0]) and np.all(d.b2 == p.alpha0[1])


def test_garch_law_b_entries_are_read_only_views():
    d = GarchLaw(GARCH_P10).sample(rng(1), (300, 200))
    for b, value in zip((d.b1, d.b2), GARCH_P10.alpha0):
        assert b.shape == (300, 200) and b.dtype == np.float64
        assert b.strides == (0, 0) and not b.flags.writeable
        np.testing.assert_array_equal(b, value)
    # B draws no random numbers: the stream advanced by the two normal slabs
    # of (z1, z2) alone.
    after, ref = rng(1), rng(1)
    GarchLaw(GARCH_P10).sample(after, (300, 200))
    ref.standard_normal((2, 300, 200))
    assert after.bit_generator.state == ref.bit_generator.state


def test_garch_law_marginals():
    law = GarchLaw(GARCH_P10)
    assert law.marginal("a1") == ChiSqAffine(0.10, 0.85)
    assert law.marginal("a4") == ChiSqAffine(0.35, 0.60)
    assert law.marginal("b2") == Constant(0.05)
    with pytest.raises(ValueError):
        law.marginal("a3")
    d = law.sample(rng(2), 200_000)
    se = d.a1.std(ddof=1) / math.sqrt(d.a1.size)
    assert abs(d.a1.mean() - 0.95) <= 4 * se


def test_noise_correlation():
    path = stationary_garch_sample(
        GARCH_P10, SimConfig(burn_in=10, n_draws=100_000), rng(3)
    )
    r = np.corrcoef(path.z1, path.z2)[0, 1]
    assert r == pytest.approx(0.5, abs=0.01)
    assert abs(path.z1.mean()) < 0.01 and abs(path.z1.std() - 1.0) < 0.01


# ---------------------------------------------------------------------------
# simulation timing
# ---------------------------------------------------------------------------

def test_recursion_timing_from_stored_noise():
    # Coefficients must come from the PREVIOUS step's noise; returns from the
    # fresh one. Both identities are exact on consecutive unthinned states.
    p = GARCH_P10
    path = stationary_garch_sample(p, SimConfig(burn_in=5, n_draws=200), rng(4), n_chains=1)
    s1, s2, z1, z2 = path.sigma1_sq, path.sigma2_sq, path.z1, path.z2
    a1 = p.alpha11 * z1[:-1] ** 2 + p.beta11
    a2 = p.alpha12 * z2[:-1] ** 2 + p.beta12
    a4 = p.alpha22 * z2[:-1] ** 2 + p.beta22
    np.testing.assert_allclose(s1[1:], a1 * s1[:-1] + a2 * s2[:-1] + p.alpha0[0],
                               rtol=1e-12)
    np.testing.assert_allclose(s2[1:], a4 * s2[:-1] + p.alpha0[1], rtol=1e-12)
    np.testing.assert_allclose(path.x1, np.sqrt(s1) * z1, rtol=1e-12)
    np.testing.assert_allclose(path.x2, np.sqrt(s2) * z2, rtol=1e-12)


def reference_garch(params, cfg, seed, n_chains):
    """Per-step GARCH recursion replaying the sampler's noise stream.

    The sampler draws the initial noise pair, then the fresh noise of each
    slab of ``slab_rows(n_chains)`` steps as two (rows, chains) normal arrays.
    """
    g = rng(seed)
    per_chain = -(-cfg.n_draws // n_chains)
    total = cfg.burn_in + per_chain * cfg.thinning
    z = _correlated_normals(params.rho, n_chains, g)
    L = slab_rows(n_chains)
    noise = []
    for t in range(0, total, L):
        z1, z2 = _correlated_normals(params.rho, (min(L, total - t), n_chains), g)
        noise.extend(zip(z1, z2))
    s1 = np.full(n_chains, params.alpha0[0])
    s2 = np.full(n_chains, params.alpha0[1])
    out = {k: np.empty((n_chains, per_chain)) for k in ("x1", "x2", "s1", "s2", "z1", "z2")}
    kept = 0
    for t, fresh in enumerate(noise, start=1):
        a1, a2, a4, b1, b2 = to_sre_coefficients(params, z)
        s1 = a1 * s1 + a2 * s2 + b1
        s2 = a4 * s2 + b2
        z = fresh
        if t > cfg.burn_in and (t - cfg.burn_in) % cfg.thinning == 0:
            for key, v in (("x1", np.sqrt(s1) * z[0]), ("x2", np.sqrt(s2) * z[1]),
                           ("s1", s1), ("s2", s2), ("z1", z[0]), ("z2", z[1])):
                out[key][:, kept] = v
            kept += 1
    return {k: v.reshape(-1)[: cfg.n_draws] for k, v in out.items()}


@pytest.mark.parametrize(
    "burn_in, n_draws, thinning, n_chains",
    [
        (37, 1001, 2, 3),        # thinning, burn-in not a multiple of 64, trimmed chain
        (100, 640, 1, 1),        # single chain
        (2, 40_000, 1, 40_000),  # wide enough to force one-row slabs
    ],
)
def test_stationary_garch_sample_equals_per_step_recursion(burn_in, n_draws, thinning, n_chains):
    cfg = SimConfig(burn_in=burn_in, n_draws=n_draws, thinning=thinning)
    path = stationary_garch_sample(GARCH_P10, cfg, rng(12), n_chains=n_chains)
    ref = reference_garch(GARCH_P10, cfg, 12, n_chains)
    for key, got in (("x1", path.x1), ("x2", path.x2), ("s1", path.sigma1_sq),
                     ("s2", path.sigma2_sq), ("z1", path.z1), ("z2", path.z2)):
        np.testing.assert_array_equal(got, ref[key], err_msg=key)


def chunked_path(sim, workers):
    """The pipeline's chunked GARCH path, every state kept, on a pool of ``workers`` threads."""
    plan = Plan(strides={(s, 1): sim.n_draws for s in STORED})
    law = GarchLaw(GARCH_P10)
    if workers == 1:
        s = _forward_chunked(law, sim, plan, None, "garch")()
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            s = _forward_chunked(law, sim, plan, pool, "garch")()
    return GarchPath(*(s.head(name, len(s)) for name in STORED), chain_len=s.chain_len)


def test_garch_chunked_independent_of_workers():
    # Two groups with a trimmed last chunk; thinning 2 and a burn-in that is
    # not a multiple of the slab height.
    chunk_chains = _CHUNK_DRAWS // _CHUNK_CHAIN_LEN
    per_group = _GROUP_ELEMENTS // (slab_rows(chunk_chains) * chunk_chains)
    n = (per_group + 1) * _CHUNK_DRAWS + _CHUNK_CHAIN_LEN // 2 + 3
    sim = SimConfig(burn_in=20, n_draws=n, thinning=2, base_seed=9)
    one = chunked_path(sim, workers=1)
    names = STORED
    for workers in (2, 3):
        many = chunked_path(sim, workers=workers)
        for name in names + ("x1", "x2"):
            np.testing.assert_array_equal(getattr(one, name), getattr(many, name))
    assert len(one) == n and one.chain_len == _CHUNK_CHAIN_LEN
    # Each chunk equals a solo run on its own substream.
    for i, start in enumerate(range(0, n, _CHUNK_DRAWS)):
        size = min(_CHUNK_DRAWS, n - start)
        chains = -(-size // _CHUNK_CHAIN_LEN)
        alone = stationary_garch_sample(
            GARCH_P10, replace(sim, n_draws=chains * _CHUNK_CHAIN_LEN),
            substream(9, "garch", i), n_chains=chains,
        )
        for name in names:
            np.testing.assert_array_equal(getattr(one, name)[start:start + size],
                                          getattr(alone, name)[:size], err_msg=name)


def test_return_hill_k_is_square_root_rule():
    assert return_hill_k(10_000_000) == 3162
    assert return_hill_k(3) == 2


def test_volatility_floor_and_chain_layout():
    path = stationary_garch_sample(
        GARCH_P10, SimConfig(burn_in=100, n_draws=1001), rng(5), n_chains=3
    )
    assert len(path) == 1001 and path.chain_len == 334
    assert path.sigma1_sq.min() >= GARCH_P10.alpha0[0]
    assert path.sigma2_sq.min() >= GARCH_P10.alpha0[1]
    assert np.shares_memory(path.series("w1"), path.sigma1_sq)
    assert np.shares_memory(path.series("w2"), path.sigma2_sq)


def test_single_chain_mode():
    path = stationary_garch_sample(GARCH_P10, SimConfig(burn_in=10, n_draws=500), rng(6),
                                   n_chains=1)
    assert path.chain_len == 500 and len(path) == 500


def test_explosive_parameters_overflow():
    # Growth of roughly e^3 per step: the second volatility overflows a float
    # within a few hundred steps, well inside the simulated horizon.
    bad = GarchParams(alpha0=(0.05, 0.05), alpha11=0.10, alpha12=0.05,
                      alpha22=30.0, beta11=0.85, beta12=0.05, beta22=10.0,
                      rho=0.0)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteState):
        stationary_garch_sample(bad, SimConfig(burn_in=0, n_draws=16_000),
                                rng(7), n_chains=2)


def test_stationary_garch_sample_validation():
    with pytest.raises(ValueError):
        stationary_garch_sample(GARCH_P10, SimConfig(burn_in=0, n_draws=10),
                                rng(), n_chains=-1)


# ---------------------------------------------------------------------------
# tail-chain verification
# ---------------------------------------------------------------------------

def test_marginal_roots_certified():
    sol1 = solve_tail_index(ChiSqAffine(GARCH_P10.alpha11, GARCH_P10.beta11))
    sol2 = solve_tail_index(ChiSqAffine(GARCH_P10.alpha22, GARCH_P10.beta22))
    assert sol1.alpha > sol2.alpha  # cross-feed-dominant configuration
    for sol, a, b in ((sol1, 0.10, 0.85), (sol2, 0.35, 0.60)):
        cert = _chisq_affine_quad(ChiSqAffine(a, b), sol.alpha)
        assert cert == pytest.approx(1.0, abs=1e-8)


def test_igarch_boundary_root():
    # alpha + beta = 1 puts the unit root exactly at h = 1.
    sol = solve_tail_index(ChiSqAffine(0.35, 0.65))
    assert sol.alpha == pytest.approx(1.0, abs=1e-6)


def garch_path(params, n, g):
    """The stationary path the GARCH checks run on, drawn from ``g``."""
    return stationary_garch_sample(params, SimConfig(burn_in=1000, n_draws=n), g)


def test_verify_tail_relations_structure():
    g = rng(8)
    regime = classify_regime(GarchLaw(GARCH_P10))
    records = verify_tail_relations(GARCH_P10, regime, g, garch_path(GARCH_P10, 400_000, g),
                                    k=5000, k_x=3000)
    assert isinstance(records, tuple)
    assert regime.alpha1.alpha > regime.alpha2.alpha
    names = [r.name for r in records]
    assert names == [
        "hill_sigma1_sq",
        "hill_sigma2_sq",
        "hill_abs_x1",
        "hill_abs_x2",
        "plateau_sigma1_sq_dispersion",
        "plateau_sigma2_sq_dispersion",
        "plateau_sigma1_sq",
        "sigma2_sq_constant_vs_plateau",
    ]
    by_name = {r.name: r for r in records}
    assert by_name["hill_sigma1_sq"].note.startswith("k=5000 ")
    assert by_name["hill_abs_x1"].note.startswith("k=3000 ")
    assert by_name["plateau_sigma1_sq"].passed is None


# ---------------------------------------------------------------------------
# regime-specific window limits
# ---------------------------------------------------------------------------

def test_return_spectral_check_cross_feed_branch():
    # Reduced scale: ~2000 clustered exceedances put the KS noise floor near
    # 0.04 on probed streams, so the per-record bound is opened to 0.08 here.
    # The release gate (0.05 at 1e7 draws) lives in the acceptance suite.
    g = rng(9)
    path = garch_path(GARCH_P10, 2_000_000, g)
    branch, *records = return_spectral_check(
        GARCH_P10, classify_regime(GarchLaw(GARCH_P10)), 2, g,
        path, u_quantile=0.999, n_limit=100_000, ks_bound=0.08,
    )
    assert (branch.name, branch.note, branch.passed) == ("branch", "heavier_cross_feed", None)
    # The blockwise threshold and exceedances the branch reads equal the whole-array ones.
    spec = PointSpec(anchors=("sigma1_sq", "sigma2_sq"), after=("x1", "x2"), h=2, u=0.999)
    ex = exceedances(path, spec)
    threshold, sel = ex.above(0.999)
    n_exceedances = np.count_nonzero(ex.valid[sel])
    r = np.hypot(path.sigma1_sq, path.sigma2_sq)
    x = float(np.quantile(r, 0.999))
    valid = valid_window_starts(len(path), path.chain_len, 2, offset=1)
    assert threshold == x
    assert n_exceedances == np.count_nonzero(valid & (r > x))
    names = {r.name for r in records}
    assert names == {
        "ks_x1_t1", "ks_x2_t1", "ks_x1_t2", "ks_x2_t2", "ks_window_norm",
        "sign_symmetry_ks", "sign_symmetry_z",
    }
    assert n_exceedances >= 1000 and threshold > 0
    assert max(r.value for r in records if r.name.startswith("ks_")) <= 0.08
    assert all(r.passed is not False for r in records)


def test_cross_feed_limit_windows_do_not_depend_on_the_row_block(monkeypatch):
    # The limit windows are built in row blocks of the normal pair; blocks of
    # 7 rows (the last one short) draw the same numbers as one whole block.
    path = garch_path(GARCH_P10, 200_000, rng(10))
    regime = classify_regime(GarchLaw(GARCH_P10))

    def records():
        records = return_spectral_check(GARCH_P10, regime, 2, rng(11), path,
                                        u_quantile=0.99, n_limit=1000)
        return [(r.name, r.value) for r in records]

    whole = records()
    monkeypatch.setattr(garch, "block_rows", lambda width: 7)
    assert records() == whole


def test_return_spectral_check_own_tail_branch():
    # Same reduced-scale bound as the cross-feed test; anchors on the lighter
    # return series cluster heavily, so the mirror-KS spread across streams
    # reaches ~0.09 at ~2000 exceedances (measured over four seeds).
    g = rng(30)
    regime = classify_regime(GarchLaw(OWN_TAIL_PARAMS))
    branch, *records = return_spectral_check(
        OWN_TAIL_PARAMS, regime, 2, g,
        garch_path(OWN_TAIL_PARAMS, 2_000_000, g), u_quantile=0.999,
        n_limit=200_000, ks_bound=0.10,
    )
    assert (branch.name, branch.note) == ("branch", "heavier_own_tail")
    assert regime.alpha1.alpha < regime.alpha2.alpha
    names = {r.name for r in records}
    assert names == {
        "ks_x1_angle_t1", "ks_x1_angle_t2", "ks_x2_angle_t1", "ks_x2_angle_t2",
        "sign_symmetry_ks_x1", "sign_symmetry_z_x1",
        "sign_symmetry_ks_x2", "sign_symmetry_z_x2",
    }
    assert all(r.passed is not False for r in records), [
        (r.name, r.value, r.bound_high) for r in records if r.passed is False
    ]


def test_return_spectral_check_validation():
    path = garch_path(GARCH_P10, 1000, rng())
    regime = classify_regime(GarchLaw(GARCH_P10))
    with pytest.raises(ValueError):
        return_spectral_check(GARCH_P10, regime, 0, rng(), path)
    with pytest.raises(ValueError):
        return_spectral_check(GARCH_P10, regime, 2, rng(), path, u_quantile=1.5)
    with pytest.raises(ValueError):
        return_spectral_check(GARCH_P10, regime, 2, rng(), path, n_limit=10)
    symmetric = GarchParams(alpha0=(0.05, 0.05), alpha11=0.35, alpha12=0.05,
                            alpha22=0.35, beta11=0.60, beta12=0.05,
                            beta22=0.60, rho=0.5)
    with pytest.raises(RegimeMismatch):
        return_spectral_check(symmetric, classify_regime(GarchLaw(symmetric)), 2, rng(), path)
