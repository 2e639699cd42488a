import functools
import time

import numpy as np
import pytest

from dais import (
    ConfigError,
    ExperimentConfig,
    InsufficientData,
    ResultRow,
    fit_loglog_slope,
    gen_blr_data,
    make_stepsize_scheme,
    run_sweep,
    tune_stepsize_base,
)
from dais.harness import (
    _FLOAT_FIELDS,
    _INT_FIELDS,
    CSV_HEADER,
    TUNE_GRID,
    TUNE_STABILITY_FRACTION,
    _cell_seed_sequence,
    parse_flat_config,
    resolve_noise,
    rows_to_csv,
    stability_limit,
)
from dais.sampler import NumericalFailure
from dais.cli import main as cli_main

from conftest import dense_gap


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
    with pytest.raises(ConfigError, match="line 3"):
        ExperimentConfig.from_text("n = 5\nd = 2\nK_grid = [1,\n")


def test_parse_rejects_duplicates_and_garbage():
    with pytest.raises(ConfigError):
        parse_flat_config("n = 1\nn = 2\n")
    with pytest.raises(ConfigError):
        parse_flat_config("just some words\n")


def test_config_validation_rules():
    with pytest.raises(ConfigError):
        ExperimentConfig(K_grid=())
    with pytest.raises(ConfigError):
        ExperimentConfig(K_grid=(64, 16))
    with pytest.raises(ConfigError):
        ExperimentConfig(mode="bogus")
    with pytest.raises(ConfigError):
        ExperimentConfig(mode="mc", mc_chains=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(batch_size=2000, n=1000)
    with pytest.raises(ConfigError):
        ExperimentConfig(gamma=1.5)
    for bad in (dict(sigma_eps=-1.0), dict(sigma_eps=float("nan")), dict(a=float("nan")),
                dict(sigma2=float("nan"))):
        with pytest.raises(ConfigError, match=f"^{next(iter(bad))} must"):
            ExperimentConfig(**bad)


@pytest.mark.parametrize(
    "key, value",
    [(key, lit) for key in sorted(_INT_FIELDS | _FLOAT_FIELDS) for lit in ("true", "false")]
    + [("K_grid", "[8, true]"), ("c_list", "[false]")],
)
def test_config_rejects_booleans_in_numeric_fields(key, value):
    with pytest.raises(ConfigError, match=f"line 1: field '{key}'"):
        ExperimentConfig.from_text(f"{key} = {value}\n")


def test_config_rejects_c_values_sharing_a_cell_seed():
    # round(c * 2^20) maps both to 262144, so both cells would draw one stream
    with pytest.raises(ConfigError, match="share a cell seed"):
        ExperimentConfig(c_list=(0.25, 0.25 + 2.0**-22))
    with pytest.raises(ConfigError, match="share a cell seed"):
        ExperimentConfig(c_list=(0.25, 0.5, 0.25))
    cfg = ExperimentConfig(c_list=(0.25, 0.25 + 2.0**-20))
    assert _cell_seed_sequence(cfg, 64, cfg.c_list[0]) == (0, 64, 262144, 0)
    assert _cell_seed_sequence(cfg, 64, cfg.c_list[1]) == (0, 64, 262145, 0)


def test_resolve_noise_precedence():
    model = gen_blr_data(100, 3, 1)
    explicit = resolve_noise(ExperimentConfig(n=100, d=3, sigma_eps=2.0), model)
    assert np.allclose(explicit, 2.0 * np.eye(3))
    derived = resolve_noise(ExperimentConfig(n=100, d=3, batch_size=10), model)
    assert derived.shape == (3, 3)
    assert np.trace(derived) > 0
    assert resolve_noise(ExperimentConfig(n=100, d=3), model) is None


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


def test_sweep_parallel_matches_serial():
    # only sampled cells go through the worker pool
    base = dict(n=150, d=3, seed=13, K_grid=(8, 16, 32), c_list=(0.25, 0.5), a=0.3, mode="mc", mc_chains=20)
    serial = run_sweep(ExperimentConfig(**base, workers=1))
    parallel = run_sweep(ExperimentConfig(**base, workers=4))
    assert [(r.K, r.c, r.gap, r.stderr) for r in serial] == [(r.K, r.c, r.gap, r.stderr) for r in parallel]


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
    noise = resolve_noise(cfg, model)
    for row in run_sweep(cfg):
        dense = dense_gap(model, gamma, make_stepsize_scheme(a, row.c, row.K), noise)
        assert row.gap == pytest.approx(dense, rel=1e-9, abs=0.0)


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
    with pytest.raises(InsufficientData):
        fit_loglog_slope(rows)
    with pytest.raises(InsufficientData):
        fit_loglog_slope([], K_min=1)


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
    bad.write_text("nonsense = 5\n")
    assert cli_main(["sweep", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_cli_sweep_negative_sigma_eps_exit_code(tmp_path, capsys):
    bad = tmp_path / "neg.toml"
    bad.write_text("n = 100\nd = 2\nK_grid = [8]\nc_list = [0.25]\na = 0.3\nsigma_eps = -1.0\n")
    out_path = tmp_path / "x.csv"
    assert cli_main(["sweep", "--config", str(bad), "--out", str(out_path)]) == 2
    assert "sigma_eps must be non-negative" in capsys.readouterr().err
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
    assert cli_main(["chain", "--K", "16", "--n", "100", "--d", "2", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "exact log ML" in out


def test_cli_check_reversible(capsys):
    code = cli_main(["check-reversible", "--d", "3", "--K", "50", "--gamma", "0.9"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == "bit-exact: true"
    assert [line.split(" = ")[0] for line in lines[1:]] == [
        "buffer bits", "serialized buffer bytes", "effective gamma"]


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
    (["sweep", "--config", "x.toml", "--out", "x.csv", "--workers", "0"], 2),
    (["no-such-command"], 2),
])
def test_cli_malformed_arguments_exit_codes(argv, code, capsys):
    assert cli_main(argv) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_cli_oracles_smoke(capsys):
    code = cli_main(["oracles", "--chains", "4000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out
