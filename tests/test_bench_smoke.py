"""Each benchmark workload runs one small pass and passes its own checks.

`test_exports.py` catches a name the benchmark imports that no longer
exists; this catches a removed keyword or a changed behaviour it relies on.
The workloads are only imported and run: nothing under ``bench/`` is written.
"""

import sys
from pathlib import Path

import pytest

from dais import ExperimentConfig

from conftest import SCRIPTS, load_gap_sweeps_script

BENCH = Path(__file__).parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return tracing, workloads


def test_panel_configs_match_benchmark_panels(bench):
    # the benchmark defines its inputs itself; they must stay the committed panels
    _, workloads = bench
    script = load_gap_sweeps_script()
    assert [name for name, _, _ in workloads.PANELS] == list(script.PANELS)
    for name, gamma, batch_size in workloads.PANELS:
        assert ExperimentConfig.from_file(SCRIPTS / script.PANELS[name]) == ExperimentConfig(
            n=1000, d=10, seed=workloads.DEFAULT_SEED, K_grid=workloads.K_GRID, c_list=workloads.C_LIST,
            gamma=gamma, batch_size=batch_size)


def test_large_preset_config_is_the_panel_at_n_10000():
    assert ExperimentConfig.from_file(SCRIPTS / "sweep_large.toml") == ExperimentConfig(
        n=10000, d=10, seed=7, K_grid=(64, 128, 256, 512, 1024, 2048, 4096), c_list=(0.25, 1 / 3, 0.5),
        gamma=0.0, mode="exact")


@pytest.mark.parametrize("name", ["exact-sweep", "mc-chains", "reversible"])
def test_small_workload_passes_its_checks(bench, name):
    tracing, workloads = bench
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, small=True)
    out = workload.run(tracing.NullTracer())
    checks = workloads.Checks()
    workload.check(out, None, checks)
    assert checks.attempted > 0
    assert [(check, detail) for check, ok, detail in checks.results if not ok] == []
