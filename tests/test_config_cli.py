"""Config schema, run reports, and the command-line front end."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritail import cli, garch, pipelines, reduction, renewal, tailstats
from tritail.cli import main
from tritail.config import (
    KNOBS,
    PIPELINES,
    ExperimentConfig,
    apply_overrides,
    canonical_json,
    load_config,
    parse_config,
)
from tritail.engine import SimConfig, slab_rows
from tritail.errors import ConfigInvalid, PipelineMismatch
from tritail.garch import GarchLaw, GarchPath
from tritail.laws import IndependentLaw
from tritail.pipelines import ResultRecord, RunReport, compare_reports, run
from tritail.records import gate
from tritail.reduction import Plan


def lognormal(mu, sigma):
    return {"kind": "lognormal", "mu": mu, "sigma": sigma}


def base_config(**overrides):
    """A small, valid independent-law experiment (closed-form indices 3.0 / 1.5)."""
    cfg = {
        "name": "unit",
        "pipeline": "solve_index",
        "law": {
            "mode": "independent",
            "a1": lognormal(-0.75, 0.5**0.5),
            "a2": lognormal(-0.5, 0.5),
            "a4": lognormal(-0.375, 0.5**0.5),
            "b1": {"kind": "constant", "value": 1.0},
            "b2": {"kind": "constant", "value": 1.0},
        },
        "sim": {"n_draws": 1000, "base_seed": 7},
    }
    cfg.update(overrides)
    return cfg


def garch_config(**overrides):
    cfg = base_config(
        pipeline="garch_verify",
        law={
            "mode": "garch",
            "alpha0": [0.05, 0.05],
            "alpha11": 0.10,
            "alpha12": 0.05,
            "alpha22": 0.35,
            "beta11": 0.85,
            "beta12": 0.05,
            "beta22": 0.60,
            "rho": 0.5,
        },
    )
    cfg.update(overrides)
    return cfg


# ----------------------------------------------------------------------------
# Parsing and defaults
# ----------------------------------------------------------------------------

def test_minimal_config_fills_defaults():
    cfg = parse_config(base_config())
    assert cfg.name == "unit"
    assert cfg.pipeline == "solve_index"
    assert isinstance(cfg.law, IndependentLaw)
    assert cfg.sim.n_draws == 1000
    assert cfg.sim.base_seed == 7
    assert cfg.sim.burn_in == 500
    assert cfg.sim.thinning == 1
    assert cfg.sim.truncation_depth == 0
    assert cfg.tolerances == {}
    assert cfg.params == {}
    assert cfg.output_dir == "out"
    assert cfg.workers == 1
    # The normalized form carries only identity-relevant fields, sim fully defaulted.
    assert set(cfg.normalized) == {"name", "pipeline", "law", "sim", "tolerances", "params"}
    assert cfg.normalized["sim"]["burn_in"] == 500


def test_parse_garch_law():
    cfg = parse_config(garch_config())
    assert isinstance(cfg.law, GarchLaw)
    assert cfg.normalized["law"]["mode"] == "garch"
    assert cfg.normalized["law"]["alpha11"] == 0.10
    assert cfg.normalized["law"]["alpha0"] == (0.05, 0.05) or list(
        cfg.normalized["law"]["alpha0"]
    ) == [0.05, 0.05]


def test_params_accept_scalars_and_numeric_lists():
    cfg = parse_config(
        base_config(
            params={
                "hill_k": 100,
                "u_quantile": 0.99,
                "s_schedule": [1, 2, 4],
            }
        )
    )
    assert cfg.params["hill_k"] == 100
    assert cfg.params["u_quantile"] == 0.99
    assert cfg.params["s_schedule"] == [1, 2, 4]


def test_knob_returns_the_set_value_or_the_table_default():
    cfg = parse_config(base_config(params={"hill_k": 100.0}, tolerances={"se_mult": 3}))
    assert cfg.knob("hill_k") == 100 and isinstance(cfg.knob("hill_k"), int)
    assert cfg.knob("se_mult") == 3.0 and isinstance(cfg.knob("se_mult"), float)
    assert cfg.knob("lyapunov_steps") == KNOBS["lyapunov_steps"][3]
    # Defaults are not hashed: only the set knobs, as validated values.
    assert cfg.normalized["params"] == {"hill_k": 100}
    assert cfg.normalized["tolerances"] == {"se_mult": 3.0}
    assert cfg.digest == parse_config(
        base_config(params={"hill_k": 100}, tolerances={"se_mult": 3.0})
    ).digest
    # The two step-dependent defaults are keyed by the step that reads them.
    assert cfg.knob("h") == {"spectral_cross_feed": 3, "spectral_own_tail": 2,
                             "garch_verify": 2}
    assert cfg.knob("c2_rel_tol") == {"constants": 0.2, "garch_verify": 0.25}


def test_knob_table_rows():
    assert sorted(n for n, row in KNOBS.items() if row[0] == "params") == sorted(
        "csv_rows lyapunov_steps lyapunov_chains hill_k hill_k_x constant_draws s_schedule "
        "weight_draws u_quantile limit_draws h crossval_draws crossval_thinning".split()
    )
    assert sorted(n for n, row in KNOBS.items() if row[0] == "tolerances") == sorted(
        "alpha_residual se_mult dispersion_max c1_rel_tol c2_rel_tol ks_bound "
        "ks_level".split()
    )
    for name, (_, kind, _, default) in KNOBS.items():
        defaults = default.values() if isinstance(default, dict) else [default]
        for d in defaults:
            _assert_in_row(name, list(d) if kind == "schedule" else d)


def _assert_in_row(name, value):
    """``value`` has the type and range of knob ``name``'s KNOBS row."""
    _, kind, minimum, _ = KNOBS[name]
    if kind == "positive":
        assert type(value) is float and math.isfinite(value) and value > 0
    elif kind == "fraction":
        assert type(value) is float and 0.0 < value < 1.0
    elif kind == "schedule":
        assert type(value) is list and len(value) >= 3
        assert all(type(v) is int and v >= minimum for v in value)
        assert all(b > a for a, b in zip(value, value[1:]))
    else:
        assert type(value) is int
        assert value >= minimum or (kind == "k" and value == 0)


_KNOB_VALUES = st.one_of(
    st.integers(-3, 300),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.one_of(st.integers(-2, 80), st.floats(-2, 80), st.booleans()), max_size=5),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_KNOB_KEYS = st.one_of(st.sampled_from(sorted(KNOBS)), st.text(max_size=6))


@settings(max_examples=300, deadline=None)
@given(
    params=st.dictionaries(_KNOB_KEYS, _KNOB_VALUES, max_size=4),
    tolerances=st.dictionaries(_KNOB_KEYS, _KNOB_VALUES, max_size=4),
)
def test_knob_sections_parse_into_their_rows_or_point_at_the_field(params, tolerances):
    try:
        cfg = parse_config(base_config(params=params, tolerances=tolerances))
    except ConfigInvalid as e:
        assert e.path.startswith(("/params/", "/tolerances/")), e
        return
    for name, row in KNOBS.items():
        value = cfg.knob(name)
        if isinstance(row[3], dict) and value is row[3]:
            continue  # an unset step-dependent knob; its defaults are checked above
        _assert_in_row(name, list(value) if row[1] == "schedule" else value)


def test_digest_ignores_execution_fields_only():
    d0 = parse_config(base_config()).digest
    assert len(d0) == 64
    int(d0, 16)  # hex
    # workers / output_dir do not change the experiment identity ...
    assert parse_config(base_config(workers=8, output_dir="elsewhere")).digest == d0
    # ... but the seed and the law do.
    seeded = base_config()
    seeded["sim"]["base_seed"] = 8
    assert parse_config(seeded).digest != d0
    shifted = base_config()
    shifted["law"]["a1"] = lognormal(-0.7, 0.5**0.5)
    assert parse_config(shifted).digest != d0


def test_canonical_json_is_sorted_minimal_and_nan_free():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_apply_overrides():
    obj = {}
    assert apply_overrides(obj, seed=5) is obj
    assert obj == {"sim": {"base_seed": 5}}

    obj = base_config()
    apply_overrides(obj, seed=99, workers=4, out="there")
    assert obj["sim"]["base_seed"] == 99
    assert obj["sim"]["n_draws"] == 1000
    assert obj["workers"] == 4
    assert obj["output_dir"] == "there"

    before = base_config()
    after = apply_overrides(base_config())
    assert after == before  # all-None overrides touch nothing


# ----------------------------------------------------------------------------
# Validation failures carry a JSON pointer
# ----------------------------------------------------------------------------

def _no_name(c):
    del c["name"]


def _empty_name(c):
    c["name"] = ""


def _bad_pipeline(c):
    c["pipeline"] = "nope"


def _extra_top(c):
    c["extra"] = 1


def _law_not_object(c):
    c["law"] = [1, 2]


def _law_no_mode(c):
    del c["law"]["mode"]


def _law_bad_mode(c):
    c["law"]["mode"] = "mixed"


def _law_missing_marginal(c):
    del c["law"]["a4"]


def _dist_bad_kind(c):
    c["law"]["a1"] = {"kind": "cauchy", "scale": 1.0}


def _dist_missing_field(c):
    c["law"]["a1"] = {"kind": "lognormal", "mu": 0.0}


def _dist_extra_field(c):
    c["law"]["a1"] = {"kind": "lognormal", "mu": 0.0, "sigma": 1.0, "junk": 1}


def _dist_bool_param(c):
    c["law"]["a1"] = {"kind": "lognormal", "mu": True, "sigma": 1.0}


def _dist_rejected(c):
    c["law"]["a1"] = {"kind": "lognormal", "mu": 0.0, "sigma": -1.0}


def _dist_not_object(c):
    c["law"]["a1"] = [0.5]


def _dist_no_kind(c):
    c["law"]["a1"] = {"mu": 0.0, "sigma": 1.0}


def _garch_rejected(c):
    c["law"] = {**garch_config()["law"], "rho": 1.0}


def _sim_missing_seed(c):
    del c["sim"]["base_seed"]


def _sim_unknown_field(c):
    c["sim"]["junk"] = 1


def _sim_fractional(c):
    c["sim"]["burn_in"] = 2.5


def _sim_bool(c):
    c["sim"]["n_draws"] = True


def _sim_negative(c):
    c["sim"]["thinning"] = -1


def _sim_no_draws(c):
    c["sim"]["n_draws"] = 0


def _tol_not_object(c):
    c["tolerances"] = [1]


def _tol_nonpositive(c):
    c["tolerances"] = {"ks_bound": 0.0}


def _param_nested(c):
    c["params"] = {"grid": {"a": 1}}


def _param_mixed_list(c):
    c["params"] = {"s_schedule": [1, True]}


def _knob(section, key, value):
    def mutate(c):
        c[section] = {key: value}

    return mutate


def _workers_zero(c):
    c["workers"] = 0


def _workers_bool(c):
    c["workers"] = True


def _outdir_empty(c):
    c["output_dir"] = ""


INVALID_CASES = [
    ("missing-name", _no_name, "/name", "missing required field"),
    ("empty-name", _empty_name, "/name", "nonempty"),
    ("bad-pipeline", _bad_pipeline, "/pipeline", "unknown pipeline 'nope'"),
    ("extra-top-field", _extra_top, "/extra", "unknown field"),
    ("law-not-object", _law_not_object, "/law", "expected an object"),
    ("law-no-mode", _law_no_mode, "/law/mode", "missing required field"),
    ("law-bad-mode", _law_bad_mode, "/law/mode", "unknown mode"),
    ("law-missing-marginal", _law_missing_marginal, "/law/a4", "missing required field"),
    ("dist-bad-kind", _dist_bad_kind, "/law/a1/kind", "unknown kind"),
    ("dist-missing-field", _dist_missing_field, "/law/a1/sigma", "missing required field"),
    ("dist-extra-field", _dist_extra_field, "/law/a1/junk", "unknown field"),
    ("dist-bool-param", _dist_bool_param, "/law/a1/mu", "expected a number"),
    ("dist-rejected", _dist_rejected, "/law/a1", "sigma"),
    ("dist-not-object", _dist_not_object, "/law/a1", "expected an object, got list"),
    ("dist-no-kind", _dist_no_kind, "/law/a1/kind", "missing required field"),
    ("garch-rejected", _garch_rejected, "/law", "rho"),
    ("sim-missing-seed", _sim_missing_seed, "/sim/base_seed", "missing required field"),
    ("sim-unknown-field", _sim_unknown_field, "/sim/junk", "unknown field"),
    ("sim-fractional", _sim_fractional, "/sim/burn_in", "expected an integer"),
    ("sim-bool", _sim_bool, "/sim/n_draws", "expected an integer"),
    ("sim-negative", _sim_negative, "/sim/thinning", ">= 0"),
    ("sim-no-draws", _sim_no_draws, "/sim", "n_draws must be >= 1"),
    ("tol-not-object", _tol_not_object, "/tolerances", "expected an object"),
    ("tol-nonpositive", _tol_nonpositive, "/tolerances/ks_bound", "positive"),
    ("param-nested", _param_nested, "/params/grid", "unknown field (allowed: "),
    ("param-mixed-list", _param_mixed_list, "/params/s_schedule/1", "expected an integer"),
    ("param-unknown", _knob("params", "weight_drws", 1000), "/params/weight_drws",
     "unknown field (allowed: constant_draws, "),
    ("tol-unknown", _knob("tolerances", "c1_rel_tl", 0.1), "/tolerances/c1_rel_tl",
     "unknown field (allowed: alpha_residual, "),
    ("hill-k-fractional", _knob("params", "hill_k", 2.7), "/params/hill_k",
     "expected an integer"),
    ("hill-k-bool", _knob("params", "hill_k", True), "/params/hill_k", "expected an integer"),
    ("hill-k-one", _knob("params", "hill_k", 1), "/params/hill_k",
     "must be 0 (the default rule) or >= 2"),
    ("u-quantile-above-one", _knob("params", "u_quantile", 1.5), "/params/u_quantile",
     "must lie in (0, 1)"),
    ("schedule-scalar", _knob("params", "s_schedule", 4), "/params/s_schedule",
     "expected a list of >= 3 integers"),
    ("schedule-unsorted", _knob("params", "s_schedule", [1, 4, 2]), "/params/s_schedule/2",
     "must exceed the entry before, 4"),
    ("workers-zero", _workers_zero, "/workers", ">= 1"),
    ("workers-bool", _workers_bool, "/workers", "expected an integer"),
    ("outdir-empty", _outdir_empty, "/output_dir", "nonempty"),
]


@pytest.mark.parametrize(
    "mutate,path,fragment",
    [c[1:] for c in INVALID_CASES],
    ids=[c[0] for c in INVALID_CASES],
)
def test_invalid_configs_point_at_the_offending_field(mutate, path, fragment):
    cfg = base_config()
    mutate(cfg)
    with pytest.raises(ConfigInvalid) as ei:
        parse_config(cfg)
    assert ei.value.path == path
    assert fragment in ei.value.message


def test_pipeline_error_lists_all_pipelines():
    cfg = base_config(pipeline="nope")
    with pytest.raises(ConfigInvalid) as ei:
        parse_config(cfg)
    assert ei.value.message == (
        "unknown pipeline 'nope' (expected one of solve_index, stationarity, "
        "simulate, tails, constants, spectral, garch_verify, full_report)"
    )


def test_garch_verify_needs_a_garch_law():
    cfg = base_config(pipeline="garch_verify")
    with pytest.raises(ConfigInvalid) as ei:
        parse_config(cfg)
    assert ei.value.path == "/pipeline"
    assert ei.value.message == "garch_verify requires a law with mode garch"


def test_garch_alpha0_must_be_a_pair():
    cfg = garch_config()
    cfg["law"]["alpha0"] = 0.05
    with pytest.raises(ConfigInvalid) as ei:
        parse_config(cfg)
    assert ei.value.path == "/law/alpha0"
    assert "pair" in ei.value.message

    cfg = garch_config()
    del cfg["law"]["rho"]
    with pytest.raises(ConfigInvalid) as ei:
        parse_config(cfg)
    assert ei.value.path == "/law/rho"


def test_top_level_must_be_an_object():
    with pytest.raises(ConfigInvalid) as ei:
        parse_config([1, 2, 3])
    assert ei.value.path == "/"
    assert "expected an object" in ei.value.message


def test_load_config(tmp_path):
    p = tmp_path / "exp.json"
    p.write_text(json.dumps(base_config()), encoding="utf-8")
    assert load_config(p).name == "unit"

    with pytest.raises(ConfigInvalid) as ei:
        load_config(tmp_path / "missing.json")
    assert ei.value.path == "/"
    assert "cannot read" in ei.value.message

    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    with pytest.raises(ConfigInvalid) as ei:
        load_config(bad)
    assert ei.value.path == "/"
    assert "not valid JSON" in ei.value.message


def _latin1_config(tmp_path):
    """A valid config written in Latin-1, whose one non-ASCII byte is not UTF-8."""
    p = tmp_path / "latin1.json"
    p.write_text(json.dumps(base_config(name="caf\u00e9"), ensure_ascii=False),
                 encoding="latin-1")
    return p


def test_load_config_rejects_a_file_that_is_not_utf8(tmp_path):
    p = _latin1_config(tmp_path)
    with pytest.raises(ConfigInvalid) as ei:
        load_config(p)
    assert ei.value.path == "/"
    assert ei.value.message.startswith("not valid UTF-8: ")


# ----------------------------------------------------------------------------
# Pipeline runner
# ----------------------------------------------------------------------------

def test_run_captures_step_errors_and_still_saves(tmp_path):
    cfg = base_config(output_dir=str(tmp_path / "run"))
    # E log A1 = log 1.5 > 0: the heavy diagonal has no Cramer root.
    cfg["law"]["a1"] = {"kind": "constant", "value": 1.5}
    report = run(parse_config(cfg))

    err = next(r for r in report.results if r.name == "solve_index_error")
    assert err.passed is False
    assert err.note.startswith("NotContracting: ")
    assert not report.all_passed

    loaded = RunReport.load(tmp_path / "run" / "report.json")
    assert loaded.canonical_bytes() == report.canonical_bytes()


def test_run_worker_count_does_not_change_results(tmp_path):
    def cfg(outdir, workers):
        return parse_config(
            base_config(
                pipeline="simulate",
                sim={"n_draws": 410_000, "base_seed": 11, "burn_in": 200},
                params={"csv_rows": 2000},
                output_dir=str(outdir),
                workers=workers,
            )
        )

    r1 = run(cfg(tmp_path / "w1", 1))
    r3 = run(cfg(tmp_path / "w3", 3))
    assert r1.config_digest == r3.config_digest
    assert r1.canonical_bytes() == r3.canonical_bytes()
    assert "path.npy" in r1.artifacts

    b1 = (tmp_path / "w1" / "path.npy").read_bytes()
    assert b1 == (tmp_path / "w3" / "path.npy").read_bytes()

    # The artifact is one structured table: csv_rows rows of (t, w1, w2).
    table = np.load(tmp_path / "w1" / "path.npy")
    assert table.dtype.names == ("t", "w1", "w2")
    assert table.shape == (2000,)
    assert np.array_equal(table["t"], np.arange(2000))
    assert (table["w1"] > 0).all() and (table["w2"] > 0).all()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1),
                          st.integers(-2**63, 2**63 - 1)), max_size=40))
def test_write_table_round_trips_every_value_bit_for_bit(tmp_path_factory, rows):
    # Raw bit patterns reach NaN payloads, +-inf, +-0 and subnormals.
    bits = np.array([r[:2] for r in rows], dtype=np.uint64).reshape(-1, 2)
    floats = bits.view(np.float64)
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                         1e16, 9999999999999998.0, 1e-5, 0.0001, 1.0, -1.5])
    x = np.concatenate([floats[:, 0], specials])
    y = np.concatenate([floats[:, 1], specials[::-1]])
    ints = np.array([r[2] for r in rows] + list(range(len(specials))), dtype=np.int64)
    columns = (range(len(x)), x, ints, y)
    names = ("t", "x", "k", "y")
    path = tmp_path_factory.mktemp("npy") / "table.npy"
    pipelines._write_table(path, names, columns)
    assert path.read_bytes()[:8] == b"\x93NUMPY\x01\x00"  # format 1.0
    table = np.load(path)
    assert table.dtype.names == names
    assert [table.dtype[name].str for name in names] == ["<i8", "<f8", "<i8", "<f8"]
    for name, column in zip(names, columns):
        assert np.array_equal(table[name].view("u8"), np.asarray(column).view("u8")), name


def test_write_table_edge_shapes(tmp_path):
    # Zero rows write an empty table that still names its fields.
    pipelines._write_table(tmp_path / "empty.npy", ("a", "b"), (np.empty(0), np.arange(0)))
    table = np.load(tmp_path / "empty.npy")
    assert table.shape == (0,)
    assert table.dtype.names == ("a", "b")
    assert [table.dtype[name].str for name in ("a", "b")] == ["<f8", "<i8"]

    # Unequal or 2-d columns are refused before a file is opened.
    with pytest.raises(ValueError, match="differ in length"):
        pipelines._write_table(tmp_path / "bad.npy", ("a", "b"), (np.zeros(3), range(2)))
    with pytest.raises(ValueError, match="1-d"):
        pipelines._write_table(tmp_path / "bad.npy", ("a",), (np.zeros((3, 2)),))
    assert not (tmp_path / "bad.npy").exists()


def test_garch_verify_reads_constant_draws(tmp_path):
    # The plateaus use the whole sample; the renewal constants only its first
    # constant_draws states: c2 of a GARCH path in garch_verify, and c1 of an
    # A1 law in the constants step.
    a1_law = base_config()["law"]
    a1_law.update(a1=lognormal(-0.375, 0.5**0.5), a4=lognormal(-0.75, 0.5**0.5))
    cases = (
        (garch_config(), 50_000, "verify_sigma2_sq_constant_vs_plateau",
         "verify_sigma2_sq_constant_vs_plateau"),
        (base_config(pipeline="constants", law=a1_law), 100_000, "c1_renewal", "c1_plateau"),
    )
    for i, (cfg, n, renewal, plateau) in enumerate(cases):
        def records(params):
            cfg["params"] = {"limit_draws": 200, **params}
            cfg["output_dir"] = str(tmp_path / f"c{i}p{len(params)}")
            cfg["sim"].update(n_draws=n, burn_in=200)
            return {r.name: r for r in run(parse_config(cfg)).results}

        full, capped = records({}), records({"constant_draws": 1000})
        assert capped[plateau].value == full[plateau].value
        assert capped[renewal].std_error != full[renewal].std_error


def small_garch_report(tmp_path, **overrides):
    cfg = garch_config(pipeline="full_report",
                       params={"limit_draws": 200, "u_quantile": 0.99},
                       output_dir=str(tmp_path), **overrides)
    cfg["sim"].update(n_draws=50_000, burn_in=200)
    report = run(parse_config(cfg))
    assert not [r.name for r in report.results if r.name.endswith("_error")]
    records = {r.name: r for r in report.results}
    assert len(records) == len(report.results)  # every name once
    return records


def test_garch_full_report_record_names_and_order(tmp_path):
    # The solve-index, stationarity and simulate records, then the GARCH
    # checks' records under their verify_/spectral_ prefixes in the order the
    # checks return them.  The roots and regime come once, from the
    # solve-index step.
    records = small_garch_report(tmp_path)
    assert list(records) == [
        "alpha1", "alpha2", "cross_moment_finite", "regime",
        "stationarity_holds", "lyapunov_gamma", "lyapunov_bound_slack",
        "n_draws", "sigma1_sq_mean", "sigma1_sq_q999", "sigma2_sq_mean", "sigma2_sq_q999",
        "verify_hill_sigma1_sq", "verify_hill_sigma2_sq", "verify_hill_abs_x1",
        "verify_hill_abs_x2", "verify_plateau_sigma1_sq_dispersion",
        "verify_plateau_sigma2_sq_dispersion", "verify_plateau_sigma1_sq",
        "verify_sigma2_sq_constant_vs_plateau",
        "spectral_branch", "spectral_ks_x1_t1", "spectral_ks_x2_t1", "spectral_ks_x1_t2",
        "spectral_ks_x2_t2", "spectral_ks_window_norm", "spectral_sign_symmetry_ks",
        "spectral_sign_symmetry_z",
    ]
    assert records["regime"].note == "a2_dominant"
    branch = records["spectral_branch"]
    assert (branch.value, branch.passed, branch.note) == (None, None, "heavier_cross_feed")


def test_garch_verify_at_equal_roots_reports_the_unresolved_regime(tmp_path):
    # Equal own and cross-fed channels give equal roots: the standalone
    # pipeline's verify_regime is the classifier's, and the window check has
    # no branch, so the step fails and with it the run.
    cfg = garch_config(output_dir=str(tmp_path), params={"limit_draws": 200, "u_quantile": 0.99})
    cfg["law"].update(alpha11=0.35, beta11=0.60)
    cfg["sim"].update(n_draws=50_000, burn_in=200)
    report = run(parse_config(cfg))
    records = {r.name: r for r in report.results}
    assert records["verify_alpha1"].value == records["verify_alpha2"].value
    assert records["verify_regime"].note == "unresolved"
    assert records["garch_verify_error"].passed is False
    assert records["garch_verify_error"].note.startswith("RegimeMismatch: ")
    assert not report.all_passed


def test_garch_verify_reads_dispersion_max(tmp_path):
    records = small_garch_report(tmp_path, tolerances={"dispersion_max": 0.01})
    for name in ("verify_plateau_sigma1_sq_dispersion", "verify_plateau_sigma2_sq_dispersion"):
        r = records[name]
        assert r.bound_high == 0.01
        assert r.passed == (r.value < 0.01)


def _record_passes(monkeypatch) -> list:
    """Patch the streaming passes to record the series each one reads.

    A tail pass and an exceedance pass (the top points of a threshold
    series) are both a ``RunningTail``; an exceedance pass is the one whose
    keys carry ``fields``.  Each pass is recorded as a test of whether it
    read a given series: a tail pass was fed exactly the series' values,
    and an exceedance pass counted every point of it and holds its top keys.
    """
    passes = []
    real_init, real_add = tailstats.RunningTail.__init__, tailstats.RunningTail.add

    def init(acc, m, fields=None):
        real_init(acc, m, fields)
        if fields:
            passes.append(lambda s: acc.n == s.size and np.array_equal(
                np.sort(acc.key), np.sort(s)[s.size - acc.key.size:]))
            return
        acc.blocks = []
        passes.append(lambda s: np.array_equal(
            np.sort(np.concatenate([b.reshape(-1) for b in acc.blocks])), np.sort(s)))

    def add(acc, block):
        acc.blocks.append(np.array(block))
        real_add(acc, block)

    monkeypatch.setattr(tailstats.RunningTail, "__init__", init)
    monkeypatch.setattr(tailstats.RunningTail, "add", add)
    return passes


def _capture_returns(monkeypatch, module, name) -> list:
    results = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, wrapper)
    return results


def _capture_args(monkeypatch, module, name) -> list:
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_garch_constants_pipeline_reports_the_inherited_constant(tmp_path):
    # The GARCH law is A2-dominant: the constants step weights its series
    # from joint draws, which couple A2 and A4.
    cfg = garch_config(pipeline="constants", output_dir=str(tmp_path),
                       params={"weight_draws": 500, "s_schedule": [1, 2, 4],
                               "constant_draws": 20_000})
    cfg["sim"].update(n_draws=50_000, burn_in=200)
    records = {r.name: r for r in run(parse_config(cfg)).results}
    assert not [name for name in records if name.endswith("_error")]
    for name in ("series_weight", "c1_inherited"):
        assert math.isfinite(records[name].value) and records[name].value > 0, name
    assert (tmp_path / "weight_trace.npy").exists()


def _constants_records(tmp_path, law) -> dict:
    cfg = base_config(pipeline="constants", law=law, output_dir=str(tmp_path),
                      params={"weight_draws": 2000})
    cfg["sim"].update(n_draws=200_000, base_seed=3)
    records = {r.name: r for r in run(parse_config(cfg)).results}
    assert not [name for name in records if name.endswith("_error")]
    return records


def test_series_weight_without_a_bracket_gates_convergence(tmp_path):
    # A2 = Lomax(1.2) has no moment of order alpha2 = 1.5, so the weight has
    # no bracket: its one gate is convergence, and c1_inherited is reported.
    law = base_config()["law"]
    law["a2"] = {"kind": "pareto_lomax", "alpha": 1.2, "scale": 0.3}
    records = _constants_records(tmp_path, law)
    weight = records["series_weight"]
    assert weight.note.startswith("converged=True bounds unavailable: E X^")
    assert (weight.bound_low, weight.bound_high) == (None, None)
    assert weight.passed is True
    assert records["c1_inherited"].passed is None


def test_series_weight_fails_when_the_weight_does_not_converge(tmp_path, monkeypatch):
    # The suite's C3 law, whose strips stay healthy: the same weight, in its
    # bracket, fails once its strips are not converged.
    law = base_config()["law"]
    law.update(a1=lognormal(-0.375, 0.5), a4=lognormal(-0.016875, 0.15))
    converged = _constants_records(tmp_path / "converged", law)["series_weight"]
    real = renewal.coupled_component_constant
    monkeypatch.setattr(renewal, "coupled_component_constant",
                        lambda *args, **kwargs: replace(real(*args, **kwargs), converged=False))
    weight = _constants_records(tmp_path / "not", law)["series_weight"]
    assert converged.bound_low <= converged.value <= converged.bound_high
    assert converged.passed is True and converged.note.startswith("converged=True [")
    assert (weight.value, weight.bound_low, weight.bound_high) == (
        converged.value, converged.bound_low, converged.bound_high)
    assert weight.passed is False and weight.note.startswith("converged=False [")


def test_stationarity_step_on_a_strongly_contracting_law(tmp_path, capsys):
    # alpha1 = 26 and alpha2 = 25: the coefficient products shrink by about
    # e^-12.5 a step, and the Lyapunov estimate still reads that exponent.
    law = base_config()["law"]
    law.update(a1=lognormal(-13.0, 1.0), a2=lognormal(-0.5, 0.5), a4=lognormal(-12.5, 1.0))
    cfg_path = _write_config(tmp_path, "exp.json", base_config(law=law))
    assert main(["stationarity", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "stationarity_error" not in out
    gamma = re.search(r"^\[PASS\] lyapunov_gamma = (\S+) \(se \S+\) in \[-inf, 0\]", out, re.M)
    assert float(gamma.group(1)) == pytest.approx(-12.5, abs=0.05)


def test_lyapunov_bound_slack_is_reported_without_a_witness(tmp_path):
    # E log A1 = 0.1 > 0: no grid epsilon contracts, so the Lyapunov bound
    # is infinite and its slack is an informational record.
    law = base_config()["law"]
    law["a1"] = lognormal(0.1, 0.5)
    cfg = base_config(pipeline="stationarity", law=law, output_dir=str(tmp_path),
                      params={"lyapunov_steps": 100})
    records = {r.name: r for r in run(parse_config(cfg)).results}
    assert records["stationarity_holds"].passed is False
    assert records["lyapunov_gamma"].passed is False
    slack = records["lyapunov_bound_slack"]
    assert (slack.value, slack.passed) == (None, None)
    assert slack.note == "no small-moment witness on the default grid"


def test_garch_full_report_computes_each_estimate_once(tmp_path, monkeypatch):
    # One streaming selection pass per series: sigma1^2 and sigma2^2 (summary
    # quantile, Hill and plateau), |x1| and |x2| (Hill of |X|), and the
    # volatility norm of the cross-feed spectral check.
    passes = _record_passes(monkeypatch)
    calls = _capture_args(monkeypatch, pipelines, "_forward_chunked")
    small_garch_report(tmp_path)
    ((law, sim, _, _, purpose),) = calls
    whole = reduction.Plan(strides={(s, 1): sim.n_draws for s in garch.STORED})
    s = pipelines._forward_chunked(law, sim, whole, None, purpose)()
    path = GarchPath(*(s.head(name, len(s)) for name in garch.STORED), chain_len=s.chain_len)
    series = {
        "sigma1_sq": path.sigma1_sq,
        "sigma2_sq": path.sigma2_sq,
        "abs_x1": np.abs(path.x1),
        "abs_x2": np.abs(path.x2),
        "vol_norm": np.hypot(path.sigma1_sq, path.sigma2_sq),
    }
    names = [[name for name, s in series.items() if p(s)] for p in passes]
    assert sorted(names) == sorted([name] for name in series)


@pytest.mark.parametrize("a1_mu, a4_mu", [(-0.375, -0.75), (-0.75, -0.375)],
                         ids=["A1", "A2"])
def test_independent_full_report_streams_each_series_once(tmp_path, monkeypatch,
                                                          a1_mu, a4_mu):
    # The summary quantile, Hill and every plateau of w1 and w2 read one pass
    # per series, and each plateau is computed once although both the tails
    # and the constants step report it.  In the A2 regime the angular and the
    # conditional-window estimates read one pass over the norm |W|.
    passes = _record_passes(monkeypatch)
    plateaus = _capture_returns(monkeypatch, tailstats, "tail_constant")
    calls = _capture_args(monkeypatch, pipelines, "_forward_chunked")
    law = base_config()["law"]
    law.update(a1=lognormal(a1_mu, 0.5**0.5), a4=lognormal(a4_mu, 0.5**0.5))
    cfg = base_config(pipeline="full_report", law=law, output_dir=str(tmp_path),
                      params={"limit_draws": 200, "u_quantile": 0.99, "weight_draws": 500,
                              "s_schedule": [1, 2, 4], "crossval_draws": 2000,
                              "lyapunov_steps": 100, "csv_rows": 10})
    cfg["sim"].update(n_draws=100_000, burn_in=200)
    report = run(parse_config(cfg))
    assert not [r.name for r in report.results if r.name.endswith("_error")]
    [(law, sim, _, _, purpose)] = calls  # one forward sample: cross-validation reads it too
    whole = reduction.Plan(strides={(s, 1): sim.n_draws for s in ("w1", "w2")})
    s = pipelines._forward_chunked(law, sim, whole, None, purpose)()
    w1, w2 = s.head("w1", len(s)), s.head("w2", len(s))
    for w in (w1, w2):
        assert sum(p(w) for p in passes) == 1
    assert sum(p(np.hypot(w1, w2)) for p in passes) == (a1_mu == -0.75)
    assert len(plateaus) == 2


SMALL_REPORT_PARAMS = {"limit_draws": 200, "u_quantile": 0.99, "weight_draws": 500,
                       "s_schedule": [1, 2, 4], "crossval_draws": 2000, "lyapunov_steps": 100,
                       "csv_rows": 10}


def _small_full_report(law, outdir, n, workers, **params):
    cfg = base_config(pipeline="full_report", law=law, output_dir=str(outdir), workers=workers,
                      params={**SMALL_REPORT_PARAMS, **params})
    cfg["sim"].update(n_draws=n, burn_in=200)
    report = run(parse_config(cfg))
    return report, {a: (outdir / a).read_bytes() for a in report.artifacts}


def _report_laws() -> dict:
    """An A1-regime, an A2-regime and a GARCH law, by name."""
    a1 = base_config()["law"]
    a1.update(a1=lognormal(-0.375, 0.5**0.5), a4=lognormal(-0.75, 0.5**0.5))
    return {"A1": a1, "A2": base_config()["law"], "garch": garch_config()["law"]}


@pytest.mark.parametrize("case", ["equal_indices", "no_root"])
def test_full_report_on_a_law_with_no_regime(tmp_path, case):
    law = base_config()["law"]
    if case == "equal_indices":
        # A1 = A4: alpha1 = alpha2, so neither regime's construction applies.
        law["a4"] = law["a1"]
    else:
        # A bounded A4 whose moments never reach 1: no alpha2 (NoPositiveRoot).
        law["a4"] = {"kind": "scaled_uniform_pow", "scale": 0.9, "power": 1.0}
    report, _ = _small_full_report(law, tmp_path, pipelines._CHUNK_DRAWS, 1)
    records = {r.name: r for r in report.results}
    errors = [name for name in records if name.endswith("_error")]
    assert (tmp_path / "report.json").exists()
    if case == "equal_indices":
        assert errors == []
        assert records["regime"].note == "unresolved"
        for name in ("c1_skipped", "spectral_skipped"):
            assert records[name].passed is None and "regime unresolved" in records[name].note
    else:
        # The steps that need the roots fail alone; the others still run.
        assert errors == ["solve_index_error", "tails_error", "constants_error", "spectral_error"]
        assert all(records[name].note.startswith("NoPositiveRoot") for name in errors)
        for name in ("stationarity_holds", "lyapunov_gamma", "n_draws", "w1_mean",
                     "crossval_w1_pvalue", "crossval_w2_pvalue"):
            assert name in records, name


def test_reports_do_not_depend_on_the_grouping(tmp_path, monkeypatch):
    # Three full chunks and a trimmed one; the first states the constants
    # read span two chunks.  One chunk per group splits the sample into four
    # groups, which must reduce to the bytes of the default single group.
    n = 3 * pipelines._CHUNK_DRAWS + 1017
    for name, law in _report_laws().items():
        base, base_artifacts = _small_full_report(law, tmp_path / f"{name}-default", n, 1,
                                                  constant_draws=250_000)
        assert not [r.name for r in base.results if r.name.endswith("_error")]
        with monkeypatch.context() as mp:
            mp.setattr(pipelines, "_GROUP_ELEMENTS", 1)
            # Three threads feed the sample's shared tails; frequent switches
            # would expose a block lost or taken twice.
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for workers in (1, 3):
                    report, artifacts = _small_full_report(
                        law, tmp_path / f"{name}-w{workers}", n, workers, constant_draws=250_000)
                    assert report.canonical_bytes() == base.canonical_bytes(), name
                    assert artifacts == base_artifacts, name
            finally:
                sys.setswitchinterval(interval)


def test_gate_passes_exactly_when_the_value_lies_in_its_bounds():
    r = gate("x", 0.5, 0.0, 1.0, std_error=0.1, note="n")
    assert (r.value, r.bound_low, r.bound_high, r.std_error, r.note) == (0.5, 0.0, 1.0, 0.1, "n")
    assert r.passed is True
    # A None bound is open; equality at either bound passes.
    assert gate("x", -1e300).passed and gate("x", 5.0, 1.0).passed and gate("x", -5.0, None, 1.0).passed
    assert gate("x", 0.0, 0.0, 1.0).passed and gate("x", 1.0, 0.0, 1.0).passed
    assert gate("x", 1.0, 1.0, 1.0).passed
    assert not gate("x", 1.5, 0.0, 1.0).passed and not gate("x", -0.5, 0.0).passed
    # A NaN value or a NaN bound fails.
    for low, high in ((None, None), (0.0, None), (None, 1.0), (0.0, 1.0)):
        assert gate("x", math.nan, low, high).passed is False
    assert gate("x", 0.5, math.nan, 1.0).passed is False
    assert gate("x", 0.5, 0.0, math.nan).passed is False


# The gated records whose verdict is not "value within its bounds": the
# roots gate their residual, two booleans have no bounds, series_weight also
# gates the weight's convergence, and lyapunov_gamma and the dispersions are
# strict.
_OWN_VERDICTS = {
    "alpha1", "alpha2", "stationarity_holds", "cross_moment_finite", "series_weight",
    "lyapunov_gamma", "plateau_w1_dispersion", "plateau_w2_dispersion",
    "verify_plateau_sigma1_sq_dispersion", "verify_plateau_sigma2_sq_dispersion",
}


def test_every_other_gated_record_passes_exactly_inside_its_bounds(tmp_path):
    own, checked = set(), 0
    for name, law in _report_laws().items():
        report, _ = _small_full_report(law, tmp_path / name, pipelines._CHUNK_DRAWS, 1)
        assert not [r.name for r in report.results if r.name.endswith("_error")], name
        for r in report.results:
            if r.passed is None:
                continue
            if r.name in _OWN_VERDICTS:
                own.add(r.name)
                continue
            inside = (not math.isnan(r.value)
                      and (r.bound_low is None or r.bound_low <= r.value)
                      and (r.bound_high is None or r.value <= r.bound_high))
            assert r.passed == inside, (name, r)
            checked += 1
    # Every exception is made by some law here, so none is listed by mistake.
    assert own == _OWN_VERDICTS
    assert checked > 30


def _same_up_to_scale(r, s) -> bool:
    """Whether (value, bound_low, bound_high) of ``s`` is a fixed multiple of ``r``'s."""
    a, b = (r.value, r.bound_low, r.bound_high), (s.value, s.bound_low, s.bound_high)
    if [x is None for x in a] != [x is None for x in b]:
        return False
    pairs = [(x, y) for x, y in zip(a, b) if x is not None]
    scale = next((y / x for x, y in pairs if x != 0), None)
    if scale is None:
        return all(x == y for x, y in pairs)
    return all(math.isclose(y, scale * x, rel_tol=1e-9, abs_tol=0.0) for x, y in pairs)


def test_full_reports_gate_each_estimate_once(tmp_path):
    # No two gated records of a full report estimate the same quantity: none
    # shares its value and bounds with another or is a fixed multiple of it.
    for name, law in _report_laws().items():
        report, _ = _small_full_report(law, tmp_path / name, 100_000, 1)
        assert not [r.name for r in report.results if r.name.endswith("_error")], name
        gated = [r for r in report.results
                 if r.passed is not None and (r.bound_low, r.bound_high) != (None, None)]
        twins = [(r.name, s.name) for i, r in enumerate(gated) for s in gated[i + 1:]
                 if _same_up_to_scale(r, s)]
        assert not twins, name


@pytest.mark.parametrize("law_name, pipeline", [
    ("A1", "tails"), ("A1", "constants"), ("A2", "tails"), ("A2", "constants"),
    ("garch", "tails"), ("garch", "constants"), ("garch", "garch_verify"),
])
def test_single_pipelines_gate_every_plateau_they_estimate(tmp_path, monkeypatch,
                                                           law_name, pipeline):
    captured = [_capture_returns(monkeypatch, module, "tail_constant")
                for module in (tailstats, garch)]
    cfg = base_config(pipeline=pipeline, law=_report_laws()[law_name], output_dir=str(tmp_path),
                      params=SMALL_REPORT_PARAMS)
    cfg["sim"].update(n_draws=100_000, burn_in=200)
    report = run(parse_config(cfg))
    assert not [r.name for r in report.results if r.name.endswith("_error")]
    estimates = [est for calls in captured for est in calls]
    dispersions = [r for r in report.results if r.name.endswith("_dispersion")]
    assert estimates and len(dispersions) == len(estimates)
    assert sorted(r.value for r in dispersions) == sorted(est.dispersion for est in estimates)
    for r in dispersions:
        assert r.bound_high == KNOBS["dispersion_max"][3]
        assert r.passed == (r.value < r.bound_high)


def test_run_holds_one_pool_of_exactly_workers_threads(tmp_path, monkeypatch):
    pools = []

    class CountingPool(pipelines.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(pipelines, "ThreadPoolExecutor", CountingPool)
    law = base_config()["law"]
    n = 2 * pipelines._CHUNK_DRAWS + 1017
    reports = {}
    for workers in (1, 2, 3):
        pools.clear()
        reports[workers], _ = _small_full_report(law, tmp_path / f"w{workers}", n, workers)
        assert pools == ([workers] if workers > 1 else []), workers
    assert not [r.name for r in reports[1].results if r.name.endswith("_error")]
    assert reports[2].canonical_bytes() == reports[1].canonical_bytes()
    assert reports[3].canonical_bytes() == reports[1].canonical_bytes()


def _assert_one_step_error(tmp_path, step: str, note: str) -> None:
    """At workers 1 and 2 the full report has one error record, ``step``'s, with ``note``."""
    law = base_config()["law"]
    reports = [_small_full_report(law, tmp_path / f"w{workers}", 100_000, workers)[0]
               for workers in (1, 2)]
    assert reports[0].canonical_bytes() == reports[1].canonical_bytes()
    records = {r.name: r for r in reports[0].results}
    assert [r for r in records if r.endswith("_error")] == [f"{step}_error"]
    assert records[f"{step}_error"].passed is False
    assert records[f"{step}_error"].note == note
    # The sibling steps still ran.
    for sibling in ("alpha1", "stationarity_holds", "n_draws", "hill_w1", "series_weight",
                    "ks_norm"):
        assert sibling in records, sibling
    assert ("lyapunov_gamma" in records) == (step != "stationarity")
    assert ("crossval_w1_pvalue" in records) == (step != "cross_validate")


@pytest.mark.parametrize("module, name, step", [
    (pipelines.engine, "lyapunov_estimate", "stationarity"),
    (pipelines, "_backward_chunked", "cross_validate"),
])
def test_failing_side_job_gives_the_same_step_error_at_any_worker_count(
        tmp_path, monkeypatch, module, name, step):
    def fail(*args, **kwargs):
        raise FloatingPointError("side job failed")

    monkeypatch.setattr(module, name, fail)
    _assert_one_step_error(tmp_path, step, "FloatingPointError: side job failed")


@pytest.mark.parametrize("step", ["stationarity", "cross_validate"])
def test_side_job_that_fails_to_start_gives_the_same_step_error(tmp_path, monkeypatch, step):
    # The job raises while the run starts it, before anything is submitted.
    def fail(ctx, pool):
        raise FloatingPointError("side job did not start")

    monkeypatch.setitem(pipelines._STEPS, step, replace(pipelines._STEPS[step], job=fail))
    _assert_one_step_error(tmp_path, step, "FloatingPointError: side job did not start")


def test_full_reports_read_every_knob(tmp_path, monkeypatch):
    # Across an A1, an A2 and a GARCH full report, some step reads each knob:
    # no key a config may set is silently ignored.
    read = set()
    real = ExperimentConfig.knob

    def knob(cfg, name):
        read.add(name)
        return real(cfg, name)

    monkeypatch.setattr(ExperimentConfig, "knob", knob)
    for name, law in _report_laws().items():
        report, _ = _small_full_report(law, tmp_path / name, 100_000, 1)
        assert not [r.name for r in report.results if r.name.endswith("_error")], name
    assert read == set(KNOBS)


def test_garch_peak_memory_does_not_grow_with_the_sample(tmp_path, monkeypatch):
    # Simulate and tails on a GARCH path of four and of sixteen groups: the
    # traced peak holds one group's slabs and the accumulators, not the path.
    # One Hill k for both sizes plans the same tails: at the default k the
    # tail depth grows as n^0.6.
    import tracemalloc

    monkeypatch.setattr(pipelines, "_GROUP_ELEMENTS", 1)
    monkeypatch.setattr(pipelines, "_GARCH_REPORT", ("simulate", "tails"))

    def peak(n):
        cfg = garch_config(pipeline="full_report",
                           params={"csv_rows": 10, "hill_k": 4000, "hill_k_x": 4000},
                           output_dir=str(tmp_path / f"n{n}"))
        cfg["sim"].update(n_draws=n, burn_in=200)
        config = parse_config(cfg)
        tracemalloc.start()
        try:
            report = run(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            assert not [r.name for r in report.results if r.name.endswith("_error")]

    n = 4 * pipelines._CHUNK_DRAWS
    small, large = peak(n), peak(4 * n)
    assert large < 1.1 * small, (small, large)


def test_garch_reduction_memory_does_not_grow_with_the_group_width(monkeypatch):
    # The GARCH simulate plan over ten chunks, sampled one chunk per group and
    # then ten.  The kernel's own slab arrays widen tenfold with the group
    # (the peak of the sampler alone on one group, feeding a sink that keeps
    # nothing), but what the run holds beyond them must not grow: no group is
    # copied out of the slabs.
    import tracemalloc

    n = 10 * pipelines._CHUNK_DRAWS
    sim = SimConfig(burn_in=200, n_draws=n, base_seed=3)
    law = parse_config(garch_config()).law
    pair = ("sigma1_sq", "sigma2_sq")
    simulate = Plan(tails={s: garch.series_depth(s, n) for s in pair}, sums=frozenset(pair),
                    strides={(s, 1): KNOBS["csv_rows"][3] for s in garch.STORED})
    chunk_chains = pipelines._CHUNK_DRAWS // pipelines._CHUNK_CHAIN_LEN

    class NoOpSink:
        def feed(self, j, block):
            pass

        def summary(self):
            return None

    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def extra(chunks):
        monkeypatch.setattr(pipelines, "_GROUP_ELEMENTS", chunks * slab_rows(chunk_chains)
                            * chunk_chains)
        run_peak = traced_peak(pipelines._forward_chunked(law, sim, simulate, None, "garch"))
        chains = chunks * chunk_chains
        cfg = SimConfig(burn_in=sim.burn_in, n_draws=chains * pipelines._CHUNK_CHAIN_LEN)
        blocks = [(np.random.default_rng(i), chunk_chains) for i in range(chunks)]
        kernel_peak = traced_peak(lambda: garch.stationary_garch_sample(
            law.params, cfg, blocks, n_chains=chains, reducer=NoOpSink()))
        return run_peak - kernel_peak

    one, ten = extra(1), extra(10)
    assert ten < 1.2 * one, (one, ten)


def test_report_roundtrip_including_nonfinite_values(tmp_path):
    rec = ResultRecord(name="diverged", value=float("inf"), passed=False, note="overflow")
    rep = RunReport(
        name="x",
        pipeline="tails",
        config_digest="0" * 64,
        results=(rec, ResultRecord(name="ok", value=1.5, std_error=0.25, passed=True)),
        artifacts=("path.npy",),
        wall_time=1.25,
    )
    p = tmp_path / "r.json"
    rep.save(p)
    assert p.read_text(encoding="utf-8").endswith("\n")

    loaded = RunReport.load(p)
    assert loaded.results[0].value == float("inf")
    assert loaded.results[1].std_error == 0.25
    assert loaded.wall_time == 1.25
    assert loaded.canonical_bytes() == rep.canonical_bytes()

    # Wall time is volatile and excluded from the identity bytes.
    other = RunReport(
        name="x",
        pipeline="tails",
        config_digest="0" * 64,
        results=rep.results,
        artifacts=rep.artifacts,
        wall_time=99.0,
    )
    assert other.canonical_bytes() == rep.canonical_bytes()

    # A report missing wall_time entirely still loads (defaults to 0.0).
    d = json.loads(p.read_text(encoding="utf-8"))
    del d["wall_time"]
    p.write_text(json.dumps(d), encoding="utf-8")
    assert RunReport.load(p).wall_time == 0.0


def _report_of(values, pipeline="tails", passed=True):
    recs = tuple(ResultRecord(name=k, value=v, passed=passed) for k, v in values.items())
    return RunReport(
        name="cmp",
        pipeline=pipeline,
        config_digest="d",
        results=recs,
        artifacts=(),
        wall_time=0.0,
    )


def test_all_passed_treats_informational_as_pass():
    def report(*passed):
        return RunReport(name="r", pipeline="tails", config_digest="d", artifacts=(),
                         wall_time=0.0,
                         results=tuple(ResultRecord(name=f"r{i}", value=0.0, passed=p)
                                       for i, p in enumerate(passed)))

    assert report(True, None).all_passed
    assert not report(True, False).all_passed


def test_compare_reports_lists_differing_notes(tmp_path, capsys):
    # On a record with no value (a regime, an error) the note is the
    # outcome, so a differing one counts; on a valued record it is listed
    # within tolerance, since the value carries the outcome.
    def report(regime, error, note):
        return RunReport(name="cmp", pipeline="tails", config_digest="d", artifacts=(),
                         wall_time=0.0,
                         results=(ResultRecord(name="regime", note=regime),
                                  ResultRecord(name="tails_error", passed=False, note=error),
                                  ResultRecord(name="alpha", value=1.5, note=note)))

    a = report("a1_dominant", "EmptyTail: no points", "k=10")
    assert compare_reports(a, report("a1_dominant", "EmptyTail: no points", "k=10"), 0.0) == []
    b = report("unresolved", "DegenerateTail: tied", "k=11")
    assert [(d.record, d.field, d.a, d.b, d.status) for d in compare_reports(a, b, 0.0)] == [
        ("alpha", "note", "k=10", "k=11", "within_tol"),
        ("regime", "note", "a1_dominant", "unresolved", "differs"),
        ("tails_error", "note", "EmptyTail: no points", "DegenerateTail: tied", "differs"),
    ]
    a.save(tmp_path / "a.json")
    b.save(tmp_path / "b.json")
    assert main(["diff", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                 "--rel-tol", "0"]) == 1
    out = capsys.readouterr().out
    assert "regime.note: 'a1_dominant' vs 'unresolved' [differs]" in out
    assert out.endswith("3 differing fields (2 beyond tolerance)\n")


def test_compare_reports():
    a = _report_of({"alpha": 1.5, "beta": 2.0})
    assert compare_reports(a, _report_of({"alpha": 1.5, "beta": 2.0})) == []

    # A tiny perturbation is reported, tagged within tolerance.
    near = compare_reports(a, _report_of({"alpha": 1.5 + 1e-12, "beta": 2.0}))
    assert len(near) == 1
    assert (near[0].record, near[0].field, near[0].status) == ("alpha", "value", "within_tol")

    # The same perturbation is a hard difference under a tighter tolerance.
    far = compare_reports(a, _report_of({"alpha": 1.5 + 1e-12, "beta": 2.0}), rel_tol=1e-15)
    assert far[0].status == "differs"

    # Records missing on one side always differ.
    missing = compare_reports(a, _report_of({"alpha": 1.5}))
    assert [(d.record, d.field, d.status) for d in missing] == [("beta", "(record)", "differs")]

    # A flipped gate shows up as a "pass" entry.
    flipped = compare_reports(a, _report_of({"alpha": 1.5, "beta": 2.0}, passed=False))
    assert {(d.record, d.field) for d in flipped} == {("alpha", "pass"), ("beta", "pass")}
    assert all(d.status == "differs" for d in flipped)

    # Two NaNs are identical even at zero tolerance; a NaN against a number differs.
    nan = _report_of({"alpha": math.nan, "beta": 2.0})
    assert compare_reports(nan, _report_of({"alpha": math.nan, "beta": 2.0}), rel_tol=0) == []
    assert [(d.record, d.status) for d in compare_reports(nan, a, rel_tol=0)] == [
        ("alpha", "differs")]

    with pytest.raises(PipelineMismatch):
        compare_reports(a, _report_of({"alpha": 1.5}, pipeline="spectral"))


# ----------------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------------

def _write_config(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return p


def test_cli_solve_index_run(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, "exp.json", base_config())
    out = tmp_path / "runout"
    rc = main(["solve-index", "--config", str(cfg_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert (out / "report.json").exists()
    assert "[PASS] alpha1" in captured.out
    assert "gated checks passed" in captured.out

    # --seed lands in the digest even for a pipeline that never draws.
    out2 = tmp_path / "runout2"
    assert main(["solve-index", "--config", str(cfg_path), "--seed", "123", "--out", str(out2)]) == 0
    a = RunReport.load(out / "report.json")
    b = RunReport.load(out2 / "report.json")
    assert a.config_digest != b.config_digest


_REPORTS_WITHOUT_SCIPY_STATS = """
import sys
import tritail.cli
for path in sys.argv[1:]:
    tritail.cli.main(["report", "--config", path])
print("scipy.stats" in sys.modules)
"""


def test_reports_run_without_importing_scipy_stats(tmp_path):
    # A fresh interpreter runs a full report of an A2 independent law and of
    # the README GARCH law, which read every KS statistic and p-value.
    a2 = base_config(pipeline="full_report", output_dir=str(tmp_path / "a2"),
                     params=SMALL_REPORT_PARAMS)
    a2["sim"].update(n_draws=100_000, burn_in=200)
    gar = garch_config(pipeline="full_report", output_dir=str(tmp_path / "garch"),
                       params={"limit_draws": 200, "u_quantile": 0.99})
    gar["sim"].update(n_draws=50_000, burn_in=200)
    paths = [str(_write_config(tmp_path, f"{name}.json", cfg))
             for name, cfg in (("a2", a2), ("garch", gar))]
    src = str(Path(cli.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    done = subprocess.run([sys.executable, "-c", _REPORTS_WITHOUT_SCIPY_STATS, *paths],
                          capture_output=True, text=True, env=env, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
    names = {r.name for d in ("a2", "garch")
             for r in RunReport.load(tmp_path / d / "report.json").results}
    assert not [n for n in names if n.endswith("_error")]
    assert {"crossval_w1_pvalue", "ks_norm",
            "spectral_ks_window_norm", "spectral_sign_symmetry_ks"} <= names


def test_cli_gated_failure_exits_one(tmp_path, capsys):
    cfg = base_config()
    cfg["law"]["a1"] = {"kind": "constant", "value": 1.5}
    cfg_path = _write_config(tmp_path, "bad_law.json", cfg)
    rc = main(["solve-index", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "[FAIL] solve_index_error" in captured.out


def test_cli_step_error_of_any_type_is_captured(tmp_path, capsys, monkeypatch):
    # A step raising a non-tritail exception becomes a constants_error record
    # and report.json is still written.
    def step(ctx):
        raise TypeError("unsupported operand")

    monkeypatch.setitem(pipelines._STEPS, "constants", pipelines._Step(step))
    cfg_path = _write_config(tmp_path, "exp.json", base_config())
    out = tmp_path / "o"
    rc = main(["constants", "--config", str(cfg_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "[FAIL] constants_error" in captured.out
    report = RunReport.load(out / "report.json")
    err = next(r for r in report.results if r.name == "constants_error")
    assert err.note.startswith("TypeError: ")


def test_cli_unusable_inputs_exit_two(tmp_path, capsys):
    rc = main(["solve-index", "--config", str(tmp_path / "missing.json")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    assert main(["solve-index", "--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    invalid = _write_config(tmp_path, "invalid.json", base_config())
    obj = json.loads(invalid.read_text(encoding="utf-8"))
    obj["law"]["a1"] = {"kind": "cauchy"}
    invalid.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["solve-index", "--config", str(invalid)]) == 2
    assert "/law/a1/kind" in capsys.readouterr().err

    listy = tmp_path / "list.json"
    listy.write_text("[]", encoding="utf-8")
    assert main(["solve-index", "--config", str(listy)]) == 2
    assert capsys.readouterr().err == "error: /: expected an object, got list\n"


def test_cli_config_that_is_not_utf8_exits_two(tmp_path, capsys):
    p = _latin1_config(tmp_path)
    assert main(["report", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: /: not valid UTF-8: ")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("where", ["parent_is_file", "path_is_file"])
def test_cli_unusable_output_dir_exits_two(tmp_path, capsys, where):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory", encoding="utf-8")
    out = blocker / "sub" if where == "parent_is_file" else blocker
    cfg_path = _write_config(tmp_path, "exp.json", base_config(pipeline="simulate"))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: /output_dir: cannot create "), captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "section, key, value, pointer",
    [
        ("tolerances", "se_mlt", 0.001, "/tolerances/se_mlt"),
        ("params", "hill_k", 2.7, "/params/hill_k"),
        ("params", "hill_k", "abc", "/params/hill_k"),
        ("params", "hill_k", True, "/params/hill_k"),
        ("params", "hill_k", -5, "/params/hill_k"),
        ("params", "hill_k", 1, "/params/hill_k"),
        ("params", "u_quantile", 1.5, "/params/u_quantile"),
        ("params", "weight_drws", 1000, "/params/weight_drws"),
        ("tolerances", "c1_rel_tl", 0.1, "/tolerances/c1_rel_tl"),
        ("params", "s_schedule", 4, "/params/s_schedule"),
        ("params", "s_schedule", [1, 4, 2], "/params/s_schedule/2"),
        pytest.param("tolerances", "ks_bound", 10**400, "/tolerances/ks_bound",
                     id="integer_too_large_for_a_float"),
        pytest.param("tolerances", "pareto_level", 0.01, "/tolerances/pareto_level",
                     id="retired_knob"),
    ],
)
def test_cli_bad_knob_exits_two_before_running(tmp_path, capsys, section, key, value, pointer):
    cfg_path = _write_config(tmp_path, "exp.json", base_config(**{section: {key: value}}))
    out = tmp_path / "o"
    assert main(["tails", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {pointer}: ")
    assert not out.exists()


def test_pipeline_names_agree():
    # Every pipeline but full_report runs the one step of its name;
    # cross_validate runs only inside full_report.
    assert len(set(PIPELINES)) == len(PIPELINES)
    assert set(PIPELINES) == set(pipelines._STEPS) - {"cross_validate"} | {"full_report"}
    assert set(PIPELINES) == set(cli._SUBCOMMAND_PIPELINES.values())
    for steps in (pipelines._FULL_REPORT, pipelines._GARCH_REPORT):
        assert set(steps) <= set(pipelines._STEPS), steps


def test_readme_knob_table_names_every_knob():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Knobs", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert sorted(rows) == sorted(KNOBS)


def test_cli_diff(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, "exp.json", base_config())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["solve-index", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["solve-index", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    capsys.readouterr()

    rc = main(["diff", str(out_a / "report.json"), str(out_b / "report.json")])
    assert rc == 0
    assert "reports identical" in capsys.readouterr().out

    # Same pipeline, different law: the index records genuinely differ.
    shifted = base_config()
    shifted["law"]["a1"] = lognormal(-0.7, 0.5**0.5)
    cfg_c = _write_config(tmp_path, "shifted.json", shifted)
    out_c = tmp_path / "c"
    assert main(["solve-index", "--config", str(cfg_c), "--out", str(out_c)]) == 0
    capsys.readouterr()

    rc = main(["diff", str(out_a / "report.json"), str(out_c / "report.json")])
    assert rc == 1
    assert "beyond tolerance" in capsys.readouterr().out

    # A generous tolerance downgrades those gaps to within_tol, exit 0.
    rc = main(["diff", str(out_a / "report.json"), str(out_c / "report.json"),
               "--rel-tol", "1.0"])
    assert rc == 0

    # Cross-pipeline diffs and unreadable inputs are usage errors.
    foreign = tmp_path / "foreign.json"
    _report_of({"x": 1.0}, pipeline="stationarity").save(foreign)
    assert main(["diff", str(out_a / "report.json"), str(foreign)]) == 2
    assert main(["diff", str(tmp_path / "nope.json"), str(foreign)]) == 2


@pytest.mark.parametrize("rel_tol", ["-1", "nan", "-0.5"])
def test_cli_diff_rejects_negative_or_nan_rel_tol(tmp_path, capsys, rel_tol):
    # Identical reports, so a tolerance that slipped through would exit 0.
    good = tmp_path / "good.json"
    _report_of({"x": 1.0}).save(good)
    assert main(["diff", str(good), str(good), "--rel-tol", rel_tol]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --rel-tol: "), captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def _record_json(**fields) -> dict:
    return {"name": "x", "value": 1.0, "std_error": 0.0, "bound_low": None, "bound_high": None,
            "pass": None, **fields}


def _report_json(**fields) -> dict:
    return {"name": "r", "pipeline": "tails", "config_digest": "d",
            "results": [_record_json()], "artifacts": [], **fields}


@pytest.mark.parametrize(
    "content, pointer",
    [
        ([], "/"),
        ({"name": "r", "pipeline": "tails", "config_digest": "d", "results": [1],
          "artifacts": []}, "/results/0"),
        ({"name": "r", "pipeline": "tails", "config_digest": "d", "artifacts": [],
          "results": [{"name": "x", "std_error": 0.0, "bound_low": None,
                       "bound_high": None, "pass": None}]}, "/results/0/value"),
        (_report_json(results=[_record_json(**{"pass": "yes"})]), "/results/0/pass"),
        (_report_json(results=[_record_json(**{"pass": 1})]), "/results/0/pass"),
        (_report_json(results=[_record_json(name="r"), _record_json(name=5)]),
         "/results/1/name"),
        (_report_json(results=[_record_json(name="x"), _record_json(name="x", value=2.0)]),
         "/results/1/name"),
        (_report_json(results=[_record_json(note=3)]), "/results/0/note"),
        (_report_json(results=[_record_json(value=10**400)]), "/results/0/value"),
        (_report_json(results=[_record_json(std_error=True)]), "/results/0/std_error"),
        (_report_json(results=[_record_json(bound_low="1.5")]), "/results/0/bound_low"),
        (_report_json(name=5), "/name"),
        (_report_json(pipeline=None), "/pipeline"),
        (_report_json(config_digest=1.0), "/config_digest"),
        (_report_json(artifacts=["a.npy", 2]), "/artifacts/1"),
        (_report_json(wall_time="soon"), "/wall_time"),
        (_report_json(wall_time=True), "/wall_time"),
    ],
    ids=["top_level_list", "result_not_object", "result_missing_value", "pass_string",
         "pass_integer", "record_name_integer", "record_name_repeated", "note_integer",
         "value_overflows",
         "std_error_bool", "bound_string", "name_integer", "pipeline_null", "digest_number",
         "artifact_integer", "wall_time_string", "wall_time_bool"],
)
def test_cli_diff_malformed_report_is_usage_error(tmp_path, capsys, content, pointer):
    good = tmp_path / "good.json"
    _report_of({"x": 1.0}).save(good)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content), encoding="utf-8")
    assert main(["diff", str(good), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot load reports: {pointer}: "), err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


@st.composite
def _any_report(draw):
    """Any JSON value, or a well-formed report with a few fields replaced or dropped."""
    if draw(st.booleans()):
        return draw(_JSON)
    records = [_record_json(), _record_json(name="y")]  # "x" is also in the good report
    report = _report_json(results=list(records), wall_time=0.5)
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from([report, *records]))
        key = draw(st.sampled_from(sorted(node)))
        if draw(st.booleans()):
            node[key] = draw(_JSON)
        else:
            del node[key]
    return report


@settings(max_examples=300, deadline=None)
@given(bad=_any_report())
def test_cli_diff_of_any_json_exits_zero_one_or_two(tmp_path_factory, bad):
    d = tmp_path_factory.mktemp("diff")
    good = d / "good.json"
    _report_of({"x": 1.0}).save(good)
    (d / "bad.json").write_text(json.dumps(bad), encoding="utf-8")
    assert main(["diff", str(good), str(d / "bad.json")]) in (0, 1, 2)
