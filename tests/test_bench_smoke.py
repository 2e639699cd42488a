"""Each benchmark workload runs one small pass and passes its own checks.

`test_exports.py` catches a name the benchmark imports that no longer
exists; this catches a removed keyword or a changed behaviour it relies on.
The workloads are only imported and run: nothing under ``bench/`` is written.
``scripts/bench_summary.py`` reads stub records here; the benchmark is not run.
"""

import inspect
import json
import re
import sys
from pathlib import Path

import pytest

import dais
from dais import ExperimentConfig

from conftest import SCRIPTS, load_script

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
    script = load_script("run_gap_sweeps")
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


def _stub_record(workload, sha="0123abc", lines=2000):
    """The fields of a ``bench/run.py`` record that the summary reads, with made-up figures."""
    metric = {"value": 1.5, "unit": "s", "n": 3, "note": "median pass time"}
    return {"workload": workload, "seed": 7, "seconds": 15.0, "trace": 0,
            "machine": {"nproc": 2, "openblas_threads": 2, "python": "3.11.7", "numpy": "2.4.6",
                        "git_sha": sha, "src_dais_lines": lines},
            "end_to_end": {m: metric for m in ("setup_s", "wall_s", "work_per_s", "peak_rss_mb")},
            "failed_frac": 0.0, "pass_seconds": [1.4, 1.5, 1.6], "per_layer": {},
            "checks": [{"name": "pass 2 reproduces pass 1", "ok": True, "detail": ""}], "report": []}


def test_bench_summary_of_stub_records(tmp_path, monkeypatch, capsys):
    summary = load_script("bench_summary")
    results = tmp_path / "results"
    results.mkdir()
    monkeypatch.setattr(summary, "RESULTS", results)
    monkeypatch.setattr(summary, "ROOT", tmp_path)
    ran = []  # the suite and the sweeps are not run: the stub stands in for each subprocess

    def stub_run(argv):
        ran.append(argv[1:3])
        return {"wall_s": 2.5, "exit_code": 0, "last_line": "9 passed in 2.50s"}

    monkeypatch.setattr(summary, "timed_run", stub_run)
    monkeypatch.setattr(summary, "checkout", lambda: ("0123abc", 2000))
    for name in summary.WORKLOADS:
        (results / f"{name}-seed7-trace0.json").write_text(json.dumps(_stub_record(name)), encoding="utf-8")
    assert summary.main(["27"]) == 0
    written = json.loads((tmp_path / "BENCH_27.json").read_text(encoding="utf-8"))
    assert set(written) == {"pr", "git_sha", "src_dais_lines", "exports", "machine", "workloads", "runs"}
    assert ran == [["-m", "pytest"], ["scripts/run_gap_sweeps.py", "--with-mc"]]
    assert written["runs"] == {"tier1": {"wall_s": 2.5, "exit_code": 0, "last_line": "9 passed in 2.50s"},
                               "gap_sweeps_with_mc": {"wall_s": 2.5, "exit_code": 0}}
    assert (written["pr"], written["git_sha"], written["src_dais_lines"]) == (27, "0123abc", 2000)
    exported = [name for name, value in vars(dais).items() if not name.startswith("_") and not inspect.ismodule(value)]
    assert written["exports"] == len(exported)
    assert list(written["workloads"]) == ["exact-sweep", "mc-chains", "reversible"]
    for entry in written["workloads"].values():
        assert set(entry) == {"setup_s", "wall_s", "work_per_s", "peak_rss_mb", "seconds", "pass_seconds",
                              "correct", "failed_frac"}
        assert entry["wall_s"] == {"value": 1.5, "unit": "s", "n": 3}
        assert entry["correct"] is True and entry["failed_frac"] == 0.0
    capsys.readouterr()

    # records made at code other than the checkout's are stale: another HEAD, or uncommitted edits
    for head in (("4567def", 2000), ("0123abc", 1999)):
        monkeypatch.setattr(summary, "checkout", lambda: head)
        assert summary.main(["27"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "run bench/run.py again" in err
    monkeypatch.setattr(summary, "checkout", lambda: ("0123abc", 2000))
    # records made at another commit cannot share one file
    (results / "mc-chains-seed7-trace0.json").write_text(json.dumps(_stub_record("mc-chains", sha="4567def")))
    assert summary.main(["27"]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    # a missing record is named on one line
    (results / "reversible-seed7-trace0.json").unlink()
    assert summary.main(["27"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "reversible-seed7-trace0.json" in err
    assert len(ran) == 2  # refused before anything was run


def test_bench_summary_checkout_is_the_tree_as_the_benchmark_records_it():
    # the line count as bench/run.py records it; HEAD in a git checkout, None in an exported tree
    head, lines = load_script("bench_summary").checkout()
    src = Path(__file__).parent.parent / "src" / "dais"
    assert lines == sum(len(path.read_text(encoding="utf-8").splitlines()) for path in src.glob("*.py"))
    assert head is None or re.fullmatch("[0-9a-f]{40}", head)


def test_bench_summary_times_a_subprocess():
    run = load_script("bench_summary").timed_run([sys.executable, "-c", "print('first'); print('last'); raise SystemExit(3)"])
    assert (run["exit_code"], run["last_line"]) == (3, "last")
    assert run["wall_s"] > 0
