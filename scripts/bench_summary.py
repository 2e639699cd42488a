"""Summarise the benchmark's seed-7 untraced records into one committed file, BENCH_<pr>.json.

First run, at the commit to record,

    python3 bench/run.py --workload all --seed 7 --seconds 15 --trace 0

which leaves one record per workload in bench/results/; then

    python3 scripts/bench_summary.py <pr>

writes BENCH_<pr>.json at the repository root.  Per workload it holds the
end-to-end metrics with their sample counts, the pass times, whether every
check passed and the failed share; beside them the commit and the src/dais
line count the records were made at, and the number of names dais exports.
Under "runs" it records two end-to-end runs that have no workload, each made
once here as a subprocess: the tier-1 suite (its wall time, exit code and
last line, the pytest summary) and scripts/run_gap_sweeps.py --with-mc (its
wall time and exit code; its CSVs go to a temporary directory).
The workloads and metrics are those that BENCHMARK.json declares, in its
order.  A missing record, records made at different code, or records made at
code other than the checkout's (its HEAD and src/dais line count) exits 2 with
one line before anything is run.
"""

import argparse
import ast
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"  # where bench/run.py leaves its records
PACKAGE_INIT = ROOT / "src" / "dais" / "__init__.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))  # the benchmark's own declaration
WORKLOADS = tuple(workload["name"] for workload in BENCHMARK["workloads"])
METRICS = tuple(metric["name"] for metric in BENCHMARK["end_to_end"])


def export_count() -> int:
    """Names that the package's ``__init__.py`` imports, that is its top-level exports."""
    tree = ast.parse(PACKAGE_INIT.read_text(encoding="utf-8"))
    return sum(len(node.names) for node in tree.body if isinstance(node, ast.ImportFrom))


def checkout() -> tuple:
    """The checkout's HEAD and src/dais line count, from bench/run.py's own ``_machine_info``, which the records hold."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)  # defines functions only: bench/run.py calls main only when run as a script
    machine = run._machine_info()
    return machine["git_sha"], machine["src_dais_lines"]


def summarise(record: dict) -> dict:
    metrics = {m: {k: record["end_to_end"][m][k] for k in ("value", "unit", "n")} for m in METRICS}
    return {**metrics, "seconds": record["seconds"], "pass_seconds": record["pass_seconds"],
            "correct": all(check["ok"] for check in record["checks"]), "failed_frac": record["failed_frac"]}


def timed_run(argv: list) -> dict:
    """Run ``argv`` from the repository root with src/ on the path; its wall time, exit code and last stdout line."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    return {"wall_s": wall_s, "exit_code": done.returncode, "last_line": lines[-1] if lines else ""}


def end_to_end_runs() -> dict:
    """The tier-1 suite and the sampled gap sweeps, one timed run each."""
    tier1 = timed_run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"])
    with tempfile.TemporaryDirectory() as out_dir:
        sweeps = timed_run([sys.executable, "scripts/run_gap_sweeps.py", "--with-mc", "--out-dir", out_dir])
    del sweeps["last_line"]  # a slope fit; the suite's last line is its pytest summary
    return {"tier1": tier1, "gap_sweeps_with_mc": sweeps}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pr", type=int, help="number that names the output file")
    args = parser.parse_args(argv)
    records = {}
    for name in WORKLOADS:
        path = RESULTS / f"{name}-seed7-trace0.json"
        if not path.is_file():
            print(f"error: no benchmark record {path}; run bench/run.py --workload {name} --seed 7 --trace 0",
                  file=sys.stderr)
            return 2
        records[name] = json.loads(path.read_text(encoding="utf-8"))
    made_at = {(r["machine"]["git_sha"], r["machine"]["src_dais_lines"]) for r in records.values()}
    if len(made_at) != 1:
        print(f"error: the records were made at different code: {sorted(made_at, key=str)}", file=sys.stderr)
        return 2
    ((sha, lines),) = made_at
    head, head_lines = checkout()
    if (sha, lines) != (head, head_lines):
        print(f"error: the records were made at {sha} with {lines} src/dais lines, but the checkout is {head} "
              f"with {head_lines}; run bench/run.py again", file=sys.stderr)
        return 2
    machine = records["exact-sweep"]["machine"]
    summary = {
        "pr": args.pr, "git_sha": sha, "src_dais_lines": lines,
        "exports": export_count(),
        "machine": {k: machine[k] for k in ("nproc", "openblas_threads", "python", "numpy")},
        "workloads": {name: summarise(record) for name, record in records.items()},
        "runs": end_to_end_runs(),
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
