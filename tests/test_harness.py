import functools
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dais import (
    ConfigError,
    ExperimentConfig,
    InfoBuffer,
    ResultRow,
    TransitionConfig,
    additive_noise_cov,
    blr_target,
    dais_bound_mc,
    exact_log_ml,
    fit_loglog_slope,
    gen_blr_data,
    generator,
    make_linear_schedule,
    make_stepsize_scheme,
    noisy_gradient,
    reversible_forward,
    run_sweep,
    sample_chains,
    tune_stepsize_base,
)
from dais.harness import (
    CSV_HEADER,
    TUNE_GRID,
    TUNE_STABILITY_FRACTION,
    _cell_seed_sequence,
    rows_to_csv,
    stability_limit,
)
from dais.sampler import NumericalFailure
from dais.cli import main as cli_main

from conftest import SCRIPTS, dense_gap, load_script


# ------------------------------------------------------------------- data

def test_gen_data_matches_declared_law():
    model = gen_blr_data(10000, 10, 123)
    assert model.X.shape == (10000, 10)
    assert abs(model.X.var() - 0.01) < 0.001  # within 10%
    assert abs(model.y.var() - 1.0) < 0.1
    assert model.sigma2 == 1.0
    assert np.allclose(model.mu_p, 0.0)
    assert np.allclose(model.Lambda_p, np.eye(10))


def test_gen_data_deterministic():
    m1 = gen_blr_data(50, 3, 9)
    m2 = gen_blr_data(50, 3, 9)
    assert np.array_equal(m1.X, m2.X)
    assert np.array_equal(m1.y, m2.y)
    m3 = gen_blr_data(50, 3, 10)
    assert not np.array_equal(m1.X, m3.X)


def test_gen_data_degenerate_sizes():
    model = gen_blr_data(1, 1, 0)
    from dais import exact_log_ml

    assert np.isfinite(exact_log_ml(model))


# ------------------------------------------------------------------ config

def test_parse_flat_config_values():
    text = """
# comment line
n = 500
sigma2 = 2.5
mode = "mc"
K_grid = [16, 64]
c_list = [0.25]
batch_size = 10  # trailing comment
"""
    cfg = ExperimentConfig.from_text(text)
    assert cfg.n == 500
    assert cfg.sigma2 == 2.5
    assert cfg.mode == "mc"
    assert cfg.K_grid == (16, 64)
    assert cfg.batch_size == 10


def test_parse_reports_line_and_field():
    with pytest.raises(ConfigError, match="line 2"):
        ExperimentConfig.from_text("n = 5\nbogus_key = 1\n")
    with pytest.raises(ConfigError, match="line 1.*'n'"):
        ExperimentConfig.from_text('n = "many"\n')
    with pytest.raises(ConfigError, match="^line 1: field 'n': "):
        ExperimentConfig.from_text('n = "100"\n')
    with pytest.raises(ConfigError, match="line 2"):
        ExperimentConfig.from_text("n = 5\nd = = 2\n")
    with pytest.raises(ConfigError):  # an open multi-line list: "Invalid value (at end of document)"
        ExperimentConfig.from_text("n = 5\nd = 2\nK_grid = [1,\n")


def test_parse_rejects_duplicates_and_garbage():
    with pytest.raises(ConfigError, match="line 2"):
        ExperimentConfig.from_text("n = 1\nn = 2")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("just some words\n")


@pytest.mark.parametrize("text, message", [
    ('"n" = 0\n', "^n must be >= 1, got 0$"),  # quoted key
    ("n.x = 1\n", "^n must be an integer, got {'x': 1}$"),  # dotted key
    ("[n]\nx = 1\n", "^n must be an integer"),
    ("[table]\nn = 0\n", "^unknown config key 'table'$"),
    ('"n" = "x"\n[mode]\nn = 5\n', "^n must be an integer, got 'x'$"),  # line 3 sets a key of the table
    ('mode = """\nn = 0\n"""\n"n" = 0\n', "^n must be >= 1"),  # line 2 lies inside a string
])
def test_config_error_without_a_line_for_keys_placed_by_toml_syntax(text, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_text(text)


def test_config_reads_toml_literals():
    text = "n = 1_000\nK_grid = [\n  8,\n  16,\n]\nc_list = [0.25,]\nmode = 'mc'\n"
    assert ExperimentConfig.from_text(text) == ExperimentConfig(n=1000, K_grid=(8, 16), c_list=(0.25,), mode="mc")
    for literal in (".5", "010", "Infinity"):  # Python float() or int() literals that TOML does not have
        with pytest.raises(ConfigError, match=r"\(at line 1, column \d+\)$"):
            ExperimentConfig.from_text(f"gamma = {literal}\n")


@pytest.mark.parametrize("text", ["n = 1" + "0" * 5000, "K_grid = " + "[" * 5000 + "]" * 5000],
                         ids=["int beyond the digit limit", "lists nested too deep"])
def test_config_literals_tomllib_cannot_convert(text):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text(text)


def test_config_validation_rules():
    with pytest.raises(ConfigError):
        ExperimentConfig(K_grid=())
    with pytest.raises(ConfigError):
        ExperimentConfig(K_grid=(64, 16))
    with pytest.raises(ConfigError, match="strictly ascending"):
        ExperimentConfig(K_grid=(8, 8))
    with pytest.raises(ConfigError):
        ExperimentConfig(mode="bogus")
    with pytest.raises(ConfigError):
        ExperimentConfig(mode="mc", mc_chains=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(batch_size=2000, n=1000)
    with pytest.raises(ConfigError):
        ExperimentConfig(gamma=1.5)
    for bad in (dict(a=float("nan")), dict(sigma2=float("nan"))):
        with pytest.raises(ConfigError, match=f"^{next(iter(bad))} must"):
            ExperimentConfig(**bad)


SCALAR_NUMERIC_FIELDS = ("a", "batch_size", "d", "gamma", "mc_chains", "n", "seed", "sigma2")
DELETED_NUMERIC_KEYS = ("sigma_eps", "workers")


@pytest.mark.parametrize(
    "key, value",
    [(key, lit) for key in SCALAR_NUMERIC_FIELDS + DELETED_NUMERIC_KEYS for lit in ("true", "false")]
    + [("K_grid", "[8, true]"), ("c_list", "[false]")],
)
def test_config_rejects_booleans_in_numeric_fields(key, value):
    # a deleted key is refused by name, whatever its value
    message = f"line 1: unknown config key '{key}'" if key in DELETED_NUMERIC_KEYS else f"line 1: field '{key}'"
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_text(f"{key} = {value}\n")
    if key in DELETED_NUMERIC_KEYS:  # no longer fields of the dataclass
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            ExperimentConfig(**{key: json.loads(value)})
    else:
        with pytest.raises(ConfigError, match=f"^{key} must|^each {key} entry must"):
            ExperimentConfig(**{key: json.loads(value)})


@pytest.mark.parametrize("key", ["workers", "sigma_eps"])
def test_config_rejects_unknown_keys_with_line_number(key):
    with pytest.raises(ConfigError, match=f"^line 2: unknown config key '{key}'$"):
        ExperimentConfig.from_text(f"n = 50\n{key} = 1\n")


@pytest.mark.parametrize("kwargs", [
    dict(K_grid=(8.9, 16)), dict(K_grid=(float("nan"),)), dict(n="5"), dict(gamma="0.5"),
    dict(n=True), dict(c_list=0.25), dict(mode=1),
], ids=lambda kwargs: ",".join(f"{key}={value!r}" for key, value in kwargs.items()))
def test_config_rejects_mistyped_values_in_direct_construction(kwargs):
    with pytest.raises(ConfigError):
        ExperimentConfig(**kwargs)


def test_config_types_integral_and_numpy_values():
    cfg = ExperimentConfig(n=np.int64(50), seed=3.0, K_grid=(16.0, np.int64(64)), c_list=(0, np.float64(0.5)),
                           gamma=1, batch_size=np.int32(5))
    assert cfg == ExperimentConfig(n=50, seed=3, K_grid=(16, 64), c_list=(0.0, 0.5), gamma=1.0, batch_size=5)
    assert [type(x) for x in (cfg.n, cfg.seed, *cfg.K_grid, cfg.batch_size)] == [int] * 5
    assert [type(x) for x in (*cfg.c_list, cfg.gamma)] == [float] * 3


_SCALAR_LITERALS = st.one_of(
    st.integers(0, 200).map(str),
    st.floats(0.0, 1.0).map(repr),
    st.integers(-(10**30), 10**30).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),  # repr gives inf, -inf, nan
    st.sampled_from(["1e400", "-1e400", "1" + "0" * 400, "true", "false", "1_000", "0x10"]),
    st.sampled_from(["exact", "mc", "theory"]).map('"{}"'.format),
    st.text("abc019.-", max_size=5).map('"{}"'.format),
    st.sampled_from(["exact", "mc", "5"]).map("'{}'".format),  # literal strings
    st.sampled_from(["1979-05-27", "1979-05-27T07:32:00Z", "07:32:00"]),  # datetimes
    st.sampled_from(["{}", "{a = 1}", "{n = 5, K_grid = [8]}"]),  # inline tables
)
_VALUES = st.one_of(
    _SCALAR_LITERALS,
    st.lists(_SCALAR_LITERALS, max_size=4).map(lambda xs: "[" + ", ".join(xs) + "]"),
    st.lists(_SCALAR_LITERALS, max_size=4).map(lambda xs: "[\n" + "".join(f"  {x},\n" for x in xs) + "]"),
)
_KEYS = st.sampled_from(sorted(ExperimentConfig.__dataclass_fields__) + ["nonsense"])
_CONFIG_TEXTS = st.builds(
    lambda lines, header, header_at: "".join(
        (header + "\n" if i == header_at else "") + f"{key} = {value}\n" for i, (key, value) in enumerate(lines)),
    # bare, quoted and dotted keys
    st.lists(st.tuples(_KEYS | _KEYS.map('"{}"'.format) | st.tuples(_KEYS, _KEYS).map(".".join), _VALUES),
             max_size=6),
    st.sampled_from(["[table]", "[n]"]),
    st.none() | st.integers(0, 5),  # the line before which the table header goes, if any
)


def _is_int(x):
    return type(x) is int


def _is_float(x):
    return type(x) is float


def assert_within_documented_ranges(cfg):
    # the README's config table and ranges
    assert _is_int(cfg.n) and _is_int(cfg.d) and cfg.n >= 1 and cfg.d >= 1
    assert _is_float(cfg.sigma2) and 0.0 < cfg.sigma2 < np.inf
    assert _is_int(cfg.seed) and cfg.seed >= 0
    assert type(cfg.K_grid) is tuple and cfg.K_grid and all(_is_int(k) and k >= 1 for k in cfg.K_grid)
    assert all(k0 < k1 for k0, k1 in zip(cfg.K_grid, cfg.K_grid[1:]))
    assert type(cfg.c_list) is tuple and cfg.c_list
    assert all(_is_float(c) and 0.0 <= c * 2**20 < np.inf for c in cfg.c_list)
    assert cfg.a is None or (_is_float(cfg.a) and 0.0 < cfg.a < np.inf)
    assert _is_float(cfg.gamma) and 0.0 <= cfg.gamma <= 1.0
    assert cfg.mode in ("exact", "mc", "theory")
    assert _is_int(cfg.mc_chains) and (cfg.mode != "mc" or cfg.mc_chains >= 2)
    assert cfg.batch_size is None or (_is_int(cfg.batch_size) and 1 <= cfg.batch_size <= cfg.n)


@settings(max_examples=300, deadline=None)
@given(_CONFIG_TEXTS)
def test_config_text_parses_within_documented_ranges_or_raises_config_error(text):
    # parse only: a generated config may ask for sizes no sweep could allocate
    try:
        cfg = ExperimentConfig.from_text(text)
    except ConfigError:
        return
    assert_within_documented_ranges(cfg)


_PYTHON_VALUES = st.one_of(
    st.integers(-3, 200),
    st.integers(-(10**30), 10**30),
    st.floats(0.0, 1.0),
    st.integers(-3, 200).map(float),  # integral floats
    st.floats(allow_nan=True, allow_infinity=True),  # includes +-inf and nan
    st.booleans(),
    st.sampled_from(["exact", "mc", "theory", "5", "0.5", ""]),
    st.none(),
    st.integers(0, 200).map(np.int64),
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(
    st.sampled_from(sorted(ExperimentConfig.__dataclass_fields__)),
    _PYTHON_VALUES | st.lists(_PYTHON_VALUES, max_size=4).map(tuple),
    max_size=6,
))
def test_config_constructs_within_documented_ranges_or_raises_config_error(kwargs):
    try:
        cfg = ExperimentConfig(**kwargs)
    except ConfigError:
        return
    assert_within_documented_ranges(cfg)


def test_readme_config_table_lists_every_accepted_key():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme[readme.index("| key | default | meaning |"):].split("\n\n")[0]
    documented = [key for line in table.splitlines()[2:] for key in re.findall(r"`(\w+)`", line.split("|")[1])]
    assert len(documented) == len(set(documented))
    assert set(documented) == set(ExperimentConfig.__dataclass_fields__)


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.toml")), ids=lambda p: p.name)
def test_committed_configs_parse(path):
    cfg = ExperimentConfig.from_file(path)
    assert cfg.seed == 7 and cfg.mode == "exact"


def test_config_rejects_c_values_sharing_a_cell_seed():
    # round(c * 2^20) maps both to 262144, so both cells would draw one stream
    with pytest.raises(ConfigError, match="share a cell seed"):
        ExperimentConfig(c_list=(0.25, 0.25 + 2.0**-22))
    with pytest.raises(ConfigError, match="share a cell seed"):
        ExperimentConfig(c_list=(0.25, 0.5, 0.25))
    cfg = ExperimentConfig(c_list=(0.25, 0.25 + 2.0**-20))
    assert _cell_seed_sequence(cfg, 64, cfg.c_list[0]) == (0, 64, 262144, 0)
    assert _cell_seed_sequence(cfg, 64, cfg.c_list[1]) == (0, 64, 262145, 0)


# ------------------------------------------------------------------- sweep

@pytest.fixture(scope="module")
def small_exact_rows():
    cfg = ExperimentConfig(n=200, d=4, seed=3, K_grid=(8, 16, 32, 64), c_list=(0.25,), a=0.4)
    return cfg, run_sweep(cfg)


def test_sweep_row_schema(small_exact_rows):
    cfg, rows = small_exact_rows
    assert len(rows) == 4
    for row in rows:
        assert row.mode == "exact"
        assert row.stderr == 0.0
        assert np.isfinite(row.gap)
        assert row.seed == 3


def test_sweep_deterministic_csv(small_exact_rows):
    cfg, rows = small_exact_rows
    rows2 = run_sweep(cfg)
    strip = lambda text: [
        ",".join(col for i, col in enumerate(line.split(",")) if CSV_HEADER[i] != "elapsed_ms")
        if line else line
        for line in text.splitlines()
    ]
    assert strip(rows_to_csv(rows)) == strip(rows_to_csv(rows2))


def test_sweep_mc_mode_has_stderr():
    cfg = ExperimentConfig(
        n=100, d=2, seed=5, K_grid=(8, 16), c_list=(0.25,), a=0.3, mode="mc", mc_chains=50
    )
    rows = run_sweep(cfg)
    assert all(row.stderr > 0 for row in rows)
    assert all(np.isfinite(row.gap) for row in rows)


def test_sweep_theory_mode_slope_arithmetic():
    # two K values with K2 = 4 K1 at c = 1/4: gap ratio 4**(-1/2) = 0.5
    cfg = ExperimentConfig(
        n=100, d=2, seed=5, K_grid=(16, 64), c_list=(0.25,), a=0.3, mode="theory"
    )
    t0 = time.perf_counter()
    rows = run_sweep(cfg)
    assert time.perf_counter() - t0 < 1.0  # no sampling happens
    assert rows[1].gap / rows[0].gap == pytest.approx(0.5, abs=1e-12)
    assert all(row.stderr == 0.0 for row in rows)


@pytest.mark.parametrize("extra", [dict(a=0.3), dict(batch_size=10, gamma=0.5)])
def test_theory_rows_are_smallest_K_exact_gaps_extrapolated(extra):
    # the theory rows at K_min are the exact sweep's gaps there; every other
    # row scales that base by (K / K_min) ** (2c - 1)
    cfg = ExperimentConfig(n=100, d=3, seed=5, K_grid=(8, 16, 64), c_list=(0.25, 1 / 3), **extra)
    theory = run_sweep(replace(cfg, mode="theory"))
    base = run_sweep(replace(cfg, mode="exact", K_grid=cfg.K_grid[:1]))
    assert [(row.c, row.K) for row in theory] == [(c, K) for c in cfg.c_list for K in cfg.K_grid]
    bases = {row.c: row.gap for row in base}
    for row in theory:
        assert np.isfinite(row.gap)
        assert row.gap == bases[row.c] * (row.K / cfg.K_grid[0]) ** (2 * row.c - 1)


def test_sweep_exact_vs_mc_consistency():
    base = dict(n=200, d=4, seed=11, K_grid=(32,), c_list=(0.25,), a=0.4)
    exact_rows = run_sweep(ExperimentConfig(**base))
    mc_rows = run_sweep(ExperimentConfig(**base, mode="mc", mc_chains=400))
    assert abs(exact_rows[0].gap - mc_rows[0].gap) <= 3 * mc_rows[0].stderr


def test_sweep_survives_divergent_cells():
    # absurd fixed step size: the covariance recursion overflows, but the
    # sweep records the cell as failed and completes
    cfg = ExperimentConfig(n=100, d=2, seed=5, K_grid=(128,), c_list=(0.0,), a=90.0)
    rows = run_sweep(cfg)
    assert len(rows) == 1
    assert rows[0].failed


def test_failed_mc_cell_keeps_its_time():
    cfg = ExperimentConfig(n=100, d=2, seed=5, K_grid=(128,), c_list=(0.0,), a=90.0, mode="mc")
    (row,) = run_sweep(cfg)
    assert row.failed and row.stderr == 0.0
    assert row.elapsed_ms > 0


@pytest.mark.parametrize("noise, d, mc_chains, K_grid", [
    (dict(), 3, 20, (8, 16, 32)),
    (dict(batch_size=10, gamma=0.5), 3, 20, (8, 16, 32)),
    (dict(), 10, 21, (64, 256)),
], ids=["clean", "batch_noise", "clean_d10"])
def test_mc_sweep_matches_direct_cells(noise, d, mc_chains, K_grid):
    # oracle: each sampled row is one dais_bound_mc call on the cell's own
    # substream; a noisy cell draws its gradient noise from that substream + (1,).
    # At d = 10 and a chain count that is not a multiple of 4, the kinetic
    # term's last bits depend on where a row sits in the batch, and by K = 256
    # that reaches the gaps: only this case sees a sweep that stacks its cells.
    cfg = ExperimentConfig(n=150, d=d, seed=13, K_grid=K_grid, c_list=(0.25, 0.5), a=0.3,
                           mode="mc", mc_chains=mc_chains, **noise)
    rows = run_sweep(cfg)
    assert [(row.c, row.K) for row in rows] == [(c, K) for c in cfg.c_list for K in cfg.K_grid]
    model = gen_blr_data(cfg.n, cfg.d, cfg.seed)
    log_z = exact_log_ml(model)
    sigma_eps = additive_noise_cov(model, cfg.batch_size) if noise else None
    for row in rows:
        seq = _cell_seed_sequence(cfg, row.K, row.c)
        target = blr_target(model)
        if sigma_eps is not None:
            target = noisy_gradient(target, sigma_eps, generator(seq + (1,)))
        mean, stderr = dais_bound_mc(
            target, make_linear_schedule(row.K), make_stepsize_scheme(cfg.a, row.c, row.K),
            TransitionConfig(gamma=cfg.gamma), cfg.mc_chains, generator(seq),
        )
        assert (row.gap, row.stderr) == (log_z - mean, stderr)


@functools.lru_cache(maxsize=None)
def dense_tuned_base(seed, gamma, K_min, c_list):
    """Oracle: the step-size grid search as an explicit dense loop."""
    model = gen_blr_data(1000, 10, seed)
    eta_max = TUNE_STABILITY_FRACTION * stability_limit(model)
    best_a, best_val = None, np.inf
    for a in TUNE_GRID:
        if max(a * K_min ** (-c) for c in c_list) > eta_max:
            continue
        total = 0.0
        try:
            for c in c_list:
                total += dense_gap(model, gamma, make_stepsize_scheme(a, c, K_min))
        except NumericalFailure:
            continue
        if np.isfinite(total) and total < best_val:
            best_a, best_val = float(a), total
    return best_a


PANEL_C_LIST = (0.25, 1 / 3, 0.5)


@pytest.mark.parametrize("seed", [3, 7])
@pytest.mark.parametrize("gamma,batch_size", [(0.0, None), (0.9, None), (0.0, 100)])
def test_tuned_base_matches_dense_loop(seed, gamma, batch_size):
    # the paper panels' settings; tuning ignores the gradient noise, so the
    # batch panel also checks that its sweep runs at the dense-tuned base
    cfg = ExperimentConfig(n=1000, d=10, seed=seed, K_grid=(64, 128), c_list=PANEL_C_LIST,
                           gamma=gamma, batch_size=batch_size)
    model = gen_blr_data(cfg.n, cfg.d, cfg.seed)
    a = dense_tuned_base(seed, gamma, 64, PANEL_C_LIST)
    assert a is not None
    assert tune_stepsize_base(model, gamma, 64, PANEL_C_LIST) == a
    noise = None if batch_size is None else additive_noise_cov(model, batch_size)
    for row in run_sweep(cfg):
        dense = dense_gap(model, gamma, make_stepsize_scheme(a, row.c, row.K), noise)
        assert row.gap == pytest.approx(dense, rel=1e-9, abs=0.0)


def test_tuning_needs_an_exponent():
    with pytest.raises(ValueError, match="c_list must be non-empty"):
        tune_stepsize_base(gen_blr_data(50, 2, 0), 0.0, 64, [])


def test_sweep_sigma2_sets_observation_variance():
    base = dict(n=200, d=4, seed=3, K_grid=(8, 32), c_list=(0.25,), a=0.4)
    rows4 = run_sweep(ExperimentConfig(**base, sigma2=4.0))
    rows1 = run_sweep(ExperimentConfig(**base))
    model4 = gen_blr_data(200, 4, 3, sigma2=4.0)
    model1 = gen_blr_data(200, 4, 3)
    assert model4.sigma2 == 4.0 and model1.sigma2 == 1.0
    np.testing.assert_array_equal(model4.X, model1.X)
    np.testing.assert_array_equal(model4.y, model1.y)
    for row4, row1 in zip(rows4, rows1):
        steps = make_stepsize_scheme(0.4, 0.25, row4.K)
        assert row4.gap == pytest.approx(dense_gap(model4, 0.0, steps), rel=1e-9, abs=0.0)
        assert row1.gap == pytest.approx(dense_gap(model1, 0.0, steps), rel=1e-9, abs=0.0)
        assert abs(row4.gap - row1.gap) > 1e-3 * abs(row1.gap)


# -------------------------------------------------------------------- fits

def test_fit_recovers_exact_power_law():
    rows = [
        ResultRow(K=K, c=0.25, gamma=0.0, mode="exact", batch_size=None,
                  gap=K ** (-0.5), stderr=0.0, elapsed_ms=0.0, seed=0)
        for K in (2, 4, 8, 16, 32)
    ]
    slope, intercept, r2 = fit_loglog_slope(rows)
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-12)
    assert r2 == pytest.approx(1.0)


def test_fit_noisy_half_exponent_slope_flat():
    # with gradient noise and eta ~ K^(-1/2) the gap neither grows nor
    # shrinks: fitted slope within 0.1 of zero
    cfg = ExperimentConfig(
        n=400, d=4, seed=19, K_grid=(64, 128, 256, 512, 1024), c_list=(0.5,),
        a=0.6, batch_size=50,
    )
    rows = run_sweep(cfg)
    slope, _, _ = fit_loglog_slope(rows)
    assert abs(slope) <= 0.1


def test_fit_filters_and_errors():
    rows = [
        ResultRow(K=K, c=0.25, gamma=0.0, mode="exact", batch_size=None,
                  gap=g, stderr=0.0, elapsed_ms=0.0, seed=0)
        for K, g in [(2, 1.0), (4, -1.0), (8, float("nan")), (16, 0.5)]
    ]
    with pytest.raises(ValueError, match=r"need >= 3 usable rows, have 2"):
        fit_loglog_slope(rows)
    with pytest.raises(ValueError, match=r"need >= 3 usable rows, have 0"):
        fit_loglog_slope([])
    # three usable rows at one K determine no slope
    with pytest.raises(ValueError, match="distinct K"):
        fit_loglog_slope([replace(rows[0], K=64, gap=g) for g in (1.0, 2.0, 3.0)])


# --------------------------------------------------------------------- csv

def test_csv_header_and_precision(tmp_path, small_exact_rows):
    from dais import write_csv

    cfg, rows = small_exact_rows
    path = tmp_path / "out.csv"
    write_csv(rows, path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == len(rows) + 1
    assert "\r" not in text
    # gaps round-trip through repr at full precision
    for line, row in zip(lines[1:], rows):
        assert float(line.split(",")[5]) == row.gap


def test_csv_bytes_pinned_on_edge_rows():
    # None is empty, floats are written by repr (nan, +-inf, -0.0, 1/3, 1.23e-05)
    # and elapsed_ms is rounded to 3 decimals
    rows = [
        ResultRow(K=64, c=1 / 3, gamma=0.9, mode="mc", batch_size=None, gap=float("nan"),
                  stderr=float("inf"), elapsed_ms=1.23456789, seed=7),
        ResultRow(K=128, c=-0.0, gamma=0.0, mode="exact", batch_size=100, gap=1.23e-05, stderr=0.0,
                  elapsed_ms=0.0004999, seed=0),
        ResultRow(K=1, c=0.25, gamma=1.0, mode="theory", batch_size=None, gap=-0.0, stderr=float("-inf"),
                  elapsed_ms=2.0005, seed=3),
    ]
    text = rows_to_csv(rows)
    assert text.splitlines()[1] == "64,0.3333333333333333,0.9,mc,,nan,inf,1.235,7"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0de0a3c355ca6fefbeb2f32026381abba67ce2b725eaa816523c2d10787562a0")


def test_csv_empty_batch_column(small_exact_rows):
    _, rows = small_exact_rows
    line = rows_to_csv(rows).splitlines()[1]
    assert line.split(",")[4] == ""


# --------------------------------------------------------------------- cli

def test_cli_sweep_and_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.toml"
    cfg_path.write_text(
        'n = 100\nd = 2\nseed = 1\nK_grid = [8, 16]\nc_list = [0.25]\na = 0.3\nmode = "exact"\n'
    )
    out_path = tmp_path / "out.csv"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    assert out_path.read_text().splitlines()[0] == ",".join(CSV_HEADER)


def test_cli_sweep_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    for text, message in [
        ("nonsense = 5", "unknown config key"),
        ("sigma_eps = 1.0", "line 3: unknown config key 'sigma_eps'"),
        ("workers = 1", "line 3: unknown config key 'workers'"),
        ("K_grid = [1e400]", "field 'K_grid': each K_grid entry must be an integer, got inf"),
        ("K_grid = [nan]", "field 'K_grid': each K_grid entry must be an integer, got nan"),
        ("K_grid = [8.9, 16]", "field 'K_grid': each K_grid entry must be an integer, got 8.9"),
        ("K_grid = [8, 8]", "field 'K_grid': K_grid must be strictly ascending"),
        ('seed = "1"', "line 3: field 'seed': seed must be an integer, got '1'"),
        ("seed = -1", "seed must be >= 0"),
        ("a = inf", "a must be positive and finite"),
        ("sigma2 = inf", "sigma2 must be positive and finite"),
        ("c_list = [1e308]", "c * 2^20 finite"),
        ("sigma2 = 1" + "0" * 400, "field 'sigma2': sigma2 must be a finite number, got an int too large"),
    ]:
        bad.write_text(f"n = 100\nd = 2\n{text}\n")
        assert cli_main(["sweep", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2, text
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert message in captured.err, (text, captured.err)
    assert not (tmp_path / "x.csv").exists()


def test_cli_sweep_negative_sigma_eps_exit_code(tmp_path, capsys):
    # sigma_eps is no longer a key, so the config is refused whatever its value
    bad = tmp_path / "neg.toml"
    bad.write_text("n = 100\nd = 2\nK_grid = [8]\nc_list = [0.25]\na = 0.3\nsigma_eps = -1.0\n")
    out_path = tmp_path / "x.csv"
    assert cli_main(["sweep", "--config", str(bad), "--out", str(out_path)]) == 2
    assert "line 6: unknown config key 'sigma_eps'" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("problem", ["config not UTF-8", "out in a missing directory"])
def test_cli_sweep_unreadable_config_or_unwritable_out(tmp_path, capsys, problem):
    cfg_path = tmp_path / "cfg.toml"
    text = b"n = 100\nd = 2\nK_grid = [8]\nc_list = [0.25]\na = 0.3\n"
    out_path = tmp_path / "x.csv"
    if problem == "config not UTF-8":
        text += b"# caf\xe9\n"
    else:
        out_path = tmp_path / "missing" / "x.csv"
    cfg_path.write_bytes(text)
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert not out_path.exists()


@pytest.mark.parametrize("problem", ["missing directory", "out is a directory"])
def test_cli_sweep_checks_out_before_running(tmp_path, capsys, monkeypatch, problem):
    def must_not_run(config):
        raise AssertionError("run_sweep called before --out was checked")

    monkeypatch.setattr("dais.cli.run_sweep", must_not_run)
    cfg_path = tmp_path / "cfg.toml"
    cfg_path.write_text("n = 100\nd = 2\nK_grid = [8]\nc_list = [0.25]\na = 0.3\n")
    out_path = tmp_path / "missing" / "x.csv" if problem == "missing directory" else tmp_path
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert str(out_path) in err


def test_cli_sweep_out_in_working_directory(tmp_path, monkeypatch):
    # a bare file name has no directory part; it is written to the working directory
    (tmp_path / "cfg.toml").write_text("n = 100\nd = 2\nK_grid = [8]\nc_list = [0.25]\na = 0.3\n")
    monkeypatch.chdir(tmp_path)
    assert cli_main(["sweep", "--config", "cfg.toml", "--out", "x.csv"]) == 0
    assert (tmp_path / "x.csv").read_text().startswith("K,")


@pytest.mark.parametrize("problem", ["out-dir is a file", "out-dir below a file", "out-dir not writable"])
def test_gap_sweeps_script_checks_out_dir_before_running(tmp_path, capsys, monkeypatch, problem):
    script = load_script("run_gap_sweeps")

    def must_not_run(config):
        raise AssertionError("run_sweep called before --out-dir was checked")

    monkeypatch.setattr(script, "run_sweep", must_not_run)
    monkeypatch.setattr(script, "tune_stepsize_base", must_not_run)
    (tmp_path / "file").write_text("")
    out_dir = tmp_path / "file"
    if problem == "out-dir below a file":
        out_dir = out_dir / "csv"
    elif problem == "out-dir not writable":  # file modes do not bind root, so fake the access check
        out_dir = tmp_path
        monkeypatch.setattr(script.os, "access", lambda path, mode: False)
    assert script.main(["--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert str(out_dir) in err


# sha256 over the three panel CSVs (elapsed_ms blanked) and the printed
# slopes; any change to a gap, a tuned base or a fit moves it
SCRIPT_PINNED_DIGEST = "915cb04b8998b8131049d7abb4744ce3986152708dcddaea14b24995a3bbf248"


def test_gap_sweeps_script_output_pinned(tmp_path, capsys):
    script = load_script("run_gap_sweeps")
    assert script.main(["--out-dir", str(tmp_path)]) == 0
    h = hashlib.sha256()
    elapsed = CSV_HEADER.index("elapsed_ms")
    for panel in script.PANELS:
        for line in (tmp_path / f"{panel}.csv").read_text().splitlines():
            fields = line.split(",")
            fields[elapsed] = ""
            h.update(",".join(fields).encode() + b"\n")
    h.update(capsys.readouterr().out.replace(str(tmp_path), "<out>").encode())
    assert h.hexdigest() == SCRIPT_PINNED_DIGEST


# the paper path at d = 10: sampled chains, a noisy bound, the three panels'
# tuned bases and gaps, a large model's X^T X / sigma2 and a reversible buffer
THREAD_DIGEST_SCRIPT = """
import hashlib
from dais import (StepSizeScheme, TransitionConfig, additive_noise_cov, blr_target, dais_bound_mc, gen_blr_data,
                  generator, make_linear_schedule, make_stepsize_scheme, noisy_gradient, reversible_forward,
                  sample_chains, sweep_gaps, tune_stepsize_base)
from dais.rng import keyed_generator
h = hashlib.sha256()
model = gen_blr_data(1000, 10, 7)
target, noise = blr_target(model), additive_noise_cov(model, 100)
noisy = noisy_gradient(target, noise, generator(2))
for K, chains, gamma, chain_target in ((64, 1000, 0.9, target), (256, 200, 0.0, noisy)):
    args = make_linear_schedule(K), make_stepsize_scheme(0.3, 0.25, K), TransitionConfig(gamma=gamma)
    for array in sample_chains(chain_target, *args, chains, generator(1)):
        h.update(array.tobytes())
    h.update(repr(dais_bound_mc(chain_target, *args, chains, generator(3))).encode())
c_list = (0.25, 1 / 3, 0.5)
for gamma, cov in ((0.0, None), (0.9, None), (0.0, noise)):
    a = tune_stepsize_base(model, gamma, 64, c_list)
    cells = [make_stepsize_scheme(a, c, 2**k) for c in c_list for k in range(6, 13)]
    h.update(repr((a, sweep_gaps(model, gamma, cells, noise=cov).tolist())).encode())
h.update(gen_blr_data(10000, 10, 7).Lambda_lld.tobytes())
K = 300
g = keyed_generator(12345)
fwd = reversible_forward(target, make_linear_schedule(K), StepSizeScheme(K, 0.1), TransitionConfig(gamma=0.9), 12345,
                         target.sample_p0(g), g.standard_normal(10))
h.update(fwd.buffer.to_bytes())
print(h.hexdigest())
"""


def test_paper_path_independent_of_blas_thread_count():
    # the bench may pin one BLAS thread only if that moves no bit; at d = 100
    # X^T X differs in its last bits between one and two threads (README)
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(SCRIPTS.parent / "src"), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", THREAD_DIGEST_SCRIPT], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


@pytest.mark.parametrize("text", [
    "n = 1_000_000_000_000_000",
    "K_grid = [8, 1_000_000_000_000_000]",
    # beyond what numpy can address at all
    "K_grid = [8, 2_000_000_000_000_000_000]",
    'mode = "mc"\nmc_chains = 2_000_000_000_000_000_000',
    # a K past the float range, in every mode
    *(pytest.param(f'mode = "{mode}"\nK_grid = [8, 1{"0" * 400}]', id=f"{mode} K=10^400")
      for mode in ("exact", "theory", "mc")),
])
def test_cli_sweep_size_too_large_to_allocate(tmp_path, capsys, text):
    # numpy refuses these sizes before it allocates anything
    cfg_path = tmp_path / "huge.toml"
    cfg_path.write_text(f"d = 2\nc_list = [0.25]\na = 0.3\n{text}\n")
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err.startswith("out of memory: ") and len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "x.csv").exists()


def test_cli_sweep_sigma2_whose_statistics_overflow(tmp_path, capsys):
    # positive and finite, so the config accepts it, but X^T X / sigma2 overflows
    cfg_path = tmp_path / "tiny.toml"
    cfg_path.write_text("n = 100\nd = 2\nK_grid = [8, 16]\nc_list = [0.25]\nsigma2 = 1e-320\n")
    out_path = tmp_path / "x.csv"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out_path)]) == 3  # warnings are errors
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err.startswith("numerical failure: ") and len(captured.err.strip().splitlines()) == 1
    assert not out_path.exists()


@pytest.mark.parametrize("sigma2", ["1e-160", "1e-307"])
@pytest.mark.parametrize("mode", ["exact", "theory", "mc"])
def test_cli_sweep_noise_covariance_that_overflows(tmp_path, capsys, mode, sigma2):
    # X^T X / sigma2 stays finite, so the model is built, but the mini-batch
    # noise covariance scales as (n / sigma2)^2 and overflows: in its final
    # product at 1e-160, already in n / sigma2 at 1e-307
    cfg_path = tmp_path / "tiny.toml"
    cfg_path.write_text(f'n = 100\nd = 2\nK_grid = [8, 16]\nc_list = [0.25]\nsigma2 = {sigma2}\n'
                        f'batch_size = 10\nmode = "{mode}"\n')
    out_path = tmp_path / "x.csv"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out_path)]) == 3  # warnings are errors
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err.startswith("numerical failure: ") and len(captured.err.strip().splitlines()) == 1
    assert not out_path.exists()


def test_cli_sweep_missing_config(tmp_path):
    assert cli_main(["sweep", "--config", str(tmp_path / "nope.toml"),
                     "--out", str(tmp_path / "x.csv")]) == 2


def test_cli_sweep_all_cells_failed_exit_code(tmp_path):
    cfg_path = tmp_path / "diverge.toml"
    cfg_path.write_text(
        "n = 100\nd = 2\nseed = 5\nK_grid = [128]\nc_list = [0.0]\na = 90.0\n"
    )
    out_path = tmp_path / "bad.csv"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out_path)]) == 3
    assert "nan" in out_path.read_text()


@pytest.mark.parametrize("mode", ["exact", "theory", "mc"])
def test_cli_sweep_all_cells_failed_says_so_on_stderr(tmp_path, capsys, mode):
    # the model builds, but sigma2 = 1e-150 scales its likelihood precision
    # to about 1e150, and every cell's gap comes out nan
    cfg_path = tmp_path / "tiny.toml"
    cfg_path.write_text(f'n = 100\nd = 2\nK_grid = [8, 16]\nc_list = [0.25]\nsigma2 = 1e-150\n'
                        f'batch_size = 10\na = 1e-60\nmode = "{mode}"\n')
    out_path = tmp_path / "x.csv"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == f"wrote 2 rows to {out_path} (2 failed cells)\n"
    assert captured.err == "numerical failure: all 2 sweep cells failed\n"
    assert out_path.read_text().count("nan") >= 2


def test_cli_sweep_tuning_failure_exit_code(tmp_path, capsys):
    # n = 100000 makes the likelihood so stiff that no base on the tuning
    # grid passes the stability filter
    cfg_path = tmp_path / "stiff.toml"
    cfg_path.write_text("n = 100000\nd = 2\nK_grid = [1, 2, 4]\nc_list = [0.25]\n")
    out_path = tmp_path / "x.csv"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.strip() == "numerical failure: no stable step-size base found on the tuning grid"
    assert "Traceback" not in captured.err + captured.out
    assert not out_path.exists()


def test_cli_chain_runs(capsys):
    # byte for byte, as printed when the exact values came from the dense engine
    assert cli_main(["chain", "--K", "16", "--n", "100", "--d", "2", "--seed", "4"]) == 0
    assert capsys.readouterr().out == (
        "K=16 eta=0.15 gamma=0.0\n"
        "L (single chain)      = -146.906691\n"
        "exact log ML          = -147.173607\n"
        "E[L] (closed form)    = -147.622142\n"
        "expected gap          = 0.448535\n"
        "|theta_K|             = 0.0744\n")


def test_cli_chain_default_stdout_pinned(capsys):
    # the default run (K = 64, c = 0.25, a = 0.3, n = 1000, d = 10, seed 0), byte for byte
    assert cli_main(["chain"]) == 0
    assert capsys.readouterr().out == (
        "K=64 eta=0.106066 gamma=0.0\n"
        "L (single chain)      = -1421.808875\n"
        "exact log ML          = -1407.018494\n"
        "E[L] (closed form)    = -1423.347198\n"
        "expected gap          = 16.328704\n"
        "|theta_K|             = 1.5709\n")


def test_cli_chain_reports_chain_0_of_a_one_chain_batch(capsys):
    # the sampled lines are row 0 of sample_chains on the generator keyed by (seed, K)
    assert cli_main(["chain", "--K", "16", "--n", "100", "--d", "2", "--seed", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    model = gen_blr_data(100, 2, 4)
    theta_K, _, L = sample_chains(blr_target(model), make_linear_schedule(16), make_stepsize_scheme(0.3, 0.25, 16),
                                  TransitionConfig(), 1, generator((4, 16)))
    assert lines[1] == f"L (single chain)      = {L[0]:.6f}"
    assert lines[5] == f"|theta_K|             = {np.linalg.norm(theta_K[0]):.4f}"


def test_cli_chain_peak_memory(capsys):
    # the exact values need O(d) state per step, not K + 1 dense 2d x 2d covariances
    # (33 MB traced for this run on the dense engine)
    tracemalloc.start()
    try:
        assert cli_main(["chain", "--d", "20", "--K", "2000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_cli_chain_exact_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr("dais.cli.sweep_gaps", lambda model, gamma, steps: np.array([np.nan]))
    assert cli_main(["chain", "--K", "16", "--n", "100", "--d", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("numerical failure: exact moment propagation")


def test_cli_check_reversible(capsys, monkeypatch):
    blobs = []

    def forward_and_keep_blob(*args, **kwargs):
        fwd = reversible_forward(*args, **kwargs)
        blobs.append(fwd.buffer.to_bytes())  # the backward pass drains the buffer
        return fwd

    monkeypatch.setattr("dais.cli.reversible_forward", forward_and_keep_blob)
    code = cli_main(["check-reversible", "--d", "3", "--K", "50", "--gamma", "0.9"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == "bit-exact: true"
    assert [line.split(" = ")[0] for line in lines[1:]] == [
        "buffer bits", "serialized buffer bytes", "effective gamma"]
    (blob,) = blobs
    assert lines[2] == f"serialized buffer bytes = {len(blob)}"
    assert lines[1].startswith(f"buffer bits = {InfoBuffer.from_bytes(blob).bit_size()} ")


def test_cli_check_reversible_default_stdout_pinned(capsys):
    # the default run (d = 10, K = 1000, gamma = 0.9, seed 0), byte for byte
    assert cli_main(["check-reversible"]) == 0
    assert capsys.readouterr().out == (
        "bit-exact: true\n"
        "buffer bits = 1610 (0.1610 per parameter-step, log2(1/gamma) = 0.1520)\n"
        "serialized buffer bytes = 270\n"
        "effective gamma = 0.89999390\n")


def test_cli_check_reversible_zero_step_runs(capsys):
    # eta = 0 is a valid step size: the damping alone moves the state, and the round trip is still exact
    assert cli_main(["check-reversible", "--eta", "0", "--K", "50"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "bit-exact: true"


@pytest.mark.parametrize("argv, code", [
    (["check-reversible", "--gamma", "0"], 2),
    (["check-reversible", "--gamma", "1.5"], 2),
    (["check-reversible", "--gamma", "1e-5"], 2),  # below 2^-16: not quantizable
    (["check-reversible", "--gamma", "nan"], 2),
    (["check-reversible", "--K", "0"], 2),
    (["check-reversible", "--d", "0"], 2),
    (["check-reversible", "--eta", "-0.1"], 2),
    (["check-reversible", "--seed", "-1"], 2),
    (["check-reversible", "--eta", "50", "--K", "200"], 3),  # fixed-point overflow
    (["chain", "--K", "0"], 2),
    (["chain", "--gamma", "2"], 2),
    (["chain", "--d", "0"], 2),
    (["chain", "--n", "0"], 2),
    (["chain", "--a", "nan"], 2),
    (["chain", "--c", "-1"], 2),
    (["chain", "--a", "1e6", "--K", "16"], 3),  # divergent chain
    (["oracles", "--chains", "0"], 2),
    (["oracles", "--chains", "1"], 2),  # no standard error from one chain
    (["sweep", "--config", "x.toml", "--out", "x.csv", "--workers", "0"], 2),  # removed flag
    (["no-such-command"], 2),
    (["sweep", "--config", ".", "--out", "x.csv"], 2),  # config names a directory
    # sizes numpy refuses before it allocates anything
    (["chain", "--K", str(10**15)], 2),
    (["check-reversible", "--K", str(10**15)], 2),
    (["check-reversible", "--d", str(10**13)], 2),
    # sizes beyond what numpy can address at all
    (["chain", "--K", str(2 * 10**18)], 2),
    (["check-reversible", "--K", str(10**19)], 2),
    (["oracles", "--chains", str(2 * 10**18)], 2),
    (["check-reversible", "--eta", "1e300", "--K", "5"], 3),  # eta * 2^48 overflows a double
    (["chain", "--c", "inf"], 2),  # K ** -inf is 0.0: an infinite c would run eta = 0 chains
    (["chain", "--a", "inf"], 2),
    (["chain", "--K", "abc"], 2),
    (["check-reversible", "--gamma", "x"], 2),
    (["oracles", "--seed", "-1"], 2),
])
def test_cli_malformed_arguments_exit_codes(argv, code, capsys):
    assert cli_main(argv) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, refusal", [
    (["check-reversible", "--gamma", "1e-6", "--d", "20000"],
     "gamma must lie in [2^-16, 1] for rational damping, got 1e-06"),
    (["check-reversible", "--gamma", "1.5"], "gamma must lie in [0, 1], got 1.5"),
    (["check-reversible", "--eta", "-0.1"], "step size must be finite and non-negative, got -0.1"),
    (["check-reversible", "--K", "0"], "K must be >= 1, got 0"),
    (["chain", "--gamma", "nan"], "gamma must lie in [0, 1], got nan"),
    (["chain", "--a", "-1"], "base step size a must be finite and positive, got -1.0"),
    (["chain", "--c", "inf"], "exponent c must be finite and non-negative, got inf"),
    (["chain", "--K", "0"], "K must be >= 1, got 0"),
    (["oracles", "--chains", "1"], "chains must be >= 2, got 1"),
], ids=["rev-gamma-tiny-d-20000", "rev-gamma-1.5", "rev-eta-neg", "rev-K-0", "chain-gamma-nan", "chain-a-neg",
        "chain-c-inf", "chain-K-0", "oracles-chains-1"])
def test_cli_refuses_an_argument_before_it_builds_the_model(argv, refusal, capsys, monkeypatch):
    # check-reversible at d = 20000 would build an 80000 x 20000 design matrix
    def no_model(*args, **kwargs):
        raise AssertionError("the model was built before the arguments were checked")

    monkeypatch.setattr("dais.cli.gen_blr_data", no_model)
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == f"dais {argv[0]}: error: {refusal}\n"


@pytest.mark.parametrize("argv, refusal", [
    (["chain", "--seed", "-1", "--n", "100"], "seed must be >= 0, got -1"),
    (["oracles", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["chain", "--d", "0"], "d must be >= 1, got 0"),
], ids=["chain-seed-neg", "oracles-seed-neg", "chain-d-0"])
def test_cli_refusal_from_the_data_generator_names_the_argument(argv, refusal, capsys):
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == f"dais {argv[0]}: error: {refusal}\n"


_STEEP_SWEEP = "n = 100\nd = 2\nK_grid = [64, 128]\nc_list = [0.0]\na = 5.0\nmc_chains = 20\n"


@pytest.mark.parametrize("argv, code", [
    (["sweep", "exact"], 0),
    (["sweep", "theory"], 0),
    (["sweep", "mc"], 0),  # K = 64's chains stay finite but their spread overflows
    (["chain", "--K", "3", "--a", "1e308", "--c", "0"], 3),
    (["chain", "--K", "10", "--a", "5", "--c", "0", "--gamma", "0.99"], 3),
    (["check-reversible", "--K", "3", "--eta", "1e5"], 3),
], ids=["sweep-exact", "sweep-theory", "sweep-mc", "chain-huge-a", "chain-gamma-0.99", "check-reversible-huge-eta"])
def test_cli_degenerate_step_sizes_print_no_warning(argv, code, tmp_path, capsys):
    # at most the one stderr line of an error, and no warning text besides
    if argv[0] == "sweep":
        cfg_path = tmp_path / "steep.toml"
        cfg_path.write_text(_STEEP_SWEEP + f'mode = "{argv[1]}"\n')
        argv = ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "steep.csv")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli_main(argv) == code
    assert [str(w.message) for w in caught] == []
    assert len(capsys.readouterr().err.splitlines()) <= 1


def test_cli_theory_row_past_the_float_range_is_a_failed_row(tmp_path, capsys):
    # (4096 / 64) ** (2 * 600 - 1) overflows a float: that row is nan, the K_min row keeps its exact gap
    cfg_path, out = tmp_path / "steep.toml", tmp_path / "steep.csv"
    cfg_path.write_text('n = 100\nd = 2\nK_grid = [64, 4096]\nc_list = [600.0]\na = 0.3\nmode = "theory"\n')
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert "wrote 2 rows" in captured.out and "(1 failed cells)" in captured.out
    rows = out.read_text(encoding="utf-8").splitlines()
    gap = CSV_HEADER.index("gap")
    assert [row.split(",")[gap] for row in rows[2:]] == ["nan"]
    exact = run_sweep(ExperimentConfig(n=100, d=2, K_grid=(64,), c_list=(600.0,), a=0.3))
    assert rows[1].split(",")[gap] == repr(exact[0].gap)


def test_cli_oracles_smoke(capsys):
    # byte for byte, as printed when the exact gaps came from the dense engine
    assert cli_main(["oracles", "--chains", "4000"]) == 0
    assert capsys.readouterr().out == (
        "[PASS] unbiasedness E[exp(L - log Z)] = 1: mean=0.99944 se=0.00907\n"
        "[PASS] lower bound mean L <= log Z: mean L=-1.87137 log Z=-1.51551\n"
        "[PASS] exact vs sampled gap at K=16: exact=24.3358 mc=25.4570 se=0.7916\n"
        "[PASS] exact vs sampled gap at K=64: exact=16.3287 mc=15.3988 se=0.5616\n")


def test_cli_oracles_default_stdout_pinned(capsys):
    # the default run (20000 chains for the unbiasedness check, seed 0), byte for byte
    assert cli_main(["oracles"]) == 0
    assert capsys.readouterr().out == (
        "[PASS] unbiasedness E[exp(L - log Z)] = 1: mean=0.99937 se=0.00409\n"
        "[PASS] lower bound mean L <= log Z: mean L=-1.87041 log Z=-1.51551\n"
        "[PASS] exact vs sampled gap at K=16: exact=24.3358 mc=25.4570 se=0.7916\n"
        "[PASS] exact vs sampled gap at K=64: exact=16.3287 mc=15.3988 se=0.5616\n")
