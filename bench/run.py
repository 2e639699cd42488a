#!/usr/bin/env python3
"""Benchmark of the dais package: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload exact-sweep --seed 7 --seconds 15 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

A run times set-up in fresh interpreters, then repeats whole passes of the
workload until ``--seconds`` have been measured, then checks the outputs.
With ``--trace 1`` it also makes one traced pass and prints per-layer
metrics instead of end-to-end ones.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  A fuller
record goes to bench/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORKLOAD_NAMES = ("exact-sweep", "mc-chains", "reversible")
SETUP_SAMPLES = 7

# per-layer metrics a workload reports from its outputs rather than from spans
EXTRA_UNITS = {
    "harness.pool_wait_s": "s",
    "reversible.buffer_bytes": "bytes",
    "reversible.buffer_bits_per_param_step": "bits",
}
def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7, the panel configs' seed)")
    parser.add_argument("--seconds", type=float, default=15.0, help="measure whole passes for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: add a traced pass, print per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "dais" / "__init__.py").is_file():
        print(f"error: {SRC / 'dais'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    return _run_one(args)


def _run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}")
            code = 1
            continue
        results[name] = json.loads(lines[-1])
        print()
    print(f"{'workload':12s} {'correct':8s} {'failed':>10s}  metrics")
    for name, res in results.items():
        metrics = ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items())
        print(f"{name:12s} {str(res['correct']):8s} {res['failed']:4d}/{res['attempted']:<5d}  {metrics}")
    print(json.dumps(results))
    return code


def _median_setup(name: str, seed: int) -> tuple[float, int]:
    """Median set-up time over fresh interpreters: imports, inputs, warm-up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "setup_child.py"), name, str(seed)],
                              capture_output=True, text=True, timeout=170, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples), len(samples)


def _run_one(args) -> int:
    # imported here: the package is found only once src/ is on the path
    import dais
    from tracing import NullTracer
    from workloads import WORKLOADS, Checks

    if Path(dais.__file__).resolve().parent != SRC / "dais":
        print(f"error: imported dais from {dais.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    workload = cls(args.seed)
    setup_s, setup_n = _median_setup(args.workload, args.seed)

    null = NullTracer()
    walls, values = [], []
    first = None
    while not walls or sum(walls) < args.seconds:
        start = time.perf_counter()
        out = workload.run(null)
        walls.append(time.perf_counter() - start)
        values.append(workload.values(out))
        if first is None:
            # after one pass: later passes only add allocator fragmentation,
            # and how many fit in --seconds depends on the machine's speed
            first = out
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(walls)
    work = workload.work(first)

    checks = Checks()
    for i, vals in enumerate(values[1:], start=2):
        checks.add(f"pass {i} reproduces pass 1", vals == values[0])

    report, per_layer, spans, replayed = [], {}, [], None
    if args.trace:
        per_layer, report, spans, replayed = _traced(args, workload, WORKLOADS, wall_s, values[0], checks)

    try:
        report = workload.check(first, replayed, checks) + report
    except Exception as exc:  # a check that crashes is a failed check, not a lost run
        traceback.print_exc()
        checks.add(f"checks raised {type(exc).__name__}", False, str(exc))

    end_to_end = {
        "setup_s": (setup_s, "s", setup_n, "median of set-ups in fresh interpreters"),
        "wall_s": (wall_s, "s", len(walls), "median pass time"),
        "work_per_s": (work / wall_s, "1/s", len(walls), f"{workload.work_unit}, {work} per pass"),
        "peak_rss_mb": (peak_rss_mb, "MB", 1, "process peak after the first pass"),
    }
    failed_frac = checks.failed / checks.attempted
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, (value, unit, n, note) in end_to_end.items():
        print(f"  {name:22s} {value:14.6g} {unit:6s} n={n:<3d} {note}")
    print(f"  {'failed_frac':22s} {failed_frac:14.6g} {'':6s} n={checks.attempted:<3d} "
          f"{checks.failed} of {checks.attempted} checks failed")
    for name, ok, detail in checks.results:
        if not ok:
            print(f"  FAILED: {name}  {detail}")
    for line in report:
        print(f"  {line}")
    if args.trace:
        print("per-layer metrics (source: this workload's pass, the tour of the other workloads, or a probe):")
        for name, (value, unit, n, source) in per_layer.items():
            print(f"  {name:38s} {value:14.6g} {unit:6s} n={n:<6d} {source}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": _machine_info(),
        "end_to_end": {k: {"value": v, "unit": u, "n": n, "note": note} for k, (v, u, n, note) in end_to_end.items()},
        "failed_frac": failed_frac,
        "pass_seconds": walls,
        "per_layer": {k: {"value": v, "unit": u, "n": n, "source": s} for k, (v, u, n, s) in per_layer.items()},
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks.results],
        "report": report,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"wrote {stem.relative_to(ROOT)}.json")
    if spans:
        # one span per line: [name, start, end, parent index, work]
        stem.with_suffix(".spans.jsonl").write_text("".join(json.dumps(s) + "\n" for s in spans), encoding="utf-8")
        print(f"wrote {stem.relative_to(ROOT)}.spans.jsonl")

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _, _) in per_layer.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _, _) in end_to_end.items()}
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


def _traced(args, workload, workloads, wall_s, untraced_values, checks):
    """One traced pass of the workload (plus exact-sweep's replay), the tour, the probes.

    The tour runs the other workloads at their small size, so that layers
    this workload never calls still get a figure.  Returns (per-layer
    metrics as {name: (value, unit, samples, source)}, report lines, spans,
    replay result).
    """
    import probes
    from tracing import SPAN_METRICS, Tracer, duration, find, self_by_layer, self_times, span_figures, subtree

    tour = [other(args.seed, small=True) for other in workloads.values() if other is not type(workload)]
    tracer = Tracer()
    with tracer.span("bench.traced"):
        with tracer.span("bench.workload"):
            with tracer.span("bench.pass") as pass_rec:
                traced_out = workload.run(tracer)
            replayed = workload.replay(tracer)
        with tracer.span("bench.tour"):
            tour_outs = [(t, t.run(tracer), t.replay(tracer)) for t in tour]
        with tracer.span("bench.probes"):
            probe_figures = probes.run_probes(tracer, args.seed)
    spans = tracer.spans
    checks.add("traced pass reproduces the untraced pass", workload.values(traced_out) == untraced_values)

    selfs = self_times(spans)
    workload_idx = subtree(spans, find(spans, "bench.workload"))
    tour_idx = subtree(spans, find(spans, "bench.tour"))
    mine = span_figures(spans, selfs, workload_idx)
    mine.update(workload.extras(traced_out, replayed))
    theirs = span_figures(spans, selfs, tour_idx)
    for t, t_out, t_replayed in tour_outs:
        theirs.update(t.extras(t_out, t_replayed))
    units = {metric: unit for metric, (unit, _, _) in SPAN_METRICS.items()} | EXTRA_UNITS
    per_layer = {}
    for metric, unit in units.items():
        # the workload's own figure, or the tour's where the workload never calls the layer
        value, n = mine.get(metric, (0.0, 0))
        if n:
            per_layer[metric] = (value, unit, n, "pass")
        else:
            per_layer[metric] = (*theirs[metric][:1], unit, theirs[metric][1], "tour")
    for metric, (value, n) in probe_figures.items():
        per_layer[metric] = (value, probes.BASELINES[metric][0], n, "probe")
    overhead = duration(pass_rec) - wall_s
    per_layer["trace.overhead_s"] = (overhead, "s", 1, "traced pass minus median untraced pass")

    report = []
    for label, idxs in (("workload (pass + replay)", workload_idx), ("whole traced run", range(len(spans)))):
        wall = duration(spans[idxs[0]])
        by_layer = self_by_layer(spans, selfs, idxs)
        covered = sum(by_layer.values())
        checks.add(f"layer self times account for the {label} wall time",
                   abs(covered - wall) <= 1e-6 * max(1.0, wall), f"{covered!r} vs {wall!r}")
        parts = ", ".join(f"{layer} {t:.4f} s ({100 * t / wall:.1f}%)"
                          for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1]) if layer != "bench")
        report.append(f"{label}: wall {wall:.4f} s = self time of {parts}")
        report.append(f"  + benchmark code outside any package call: {by_layer.get('bench', 0.0):.4f} s")
    per_layer["trace.bench_self_s"] = (self_by_layer(spans, selfs, workload_idx).get("bench", 0.0), "s", 1,
                                       "benchmark code outside package calls, workload part")
    report.append(f"tracing overhead on the pass: {overhead:+.4f} s")
    # tour figures come from reduced sizes, so they are not comparable with ROADMAP rows
    report.append("ROADMAP baselines:")
    report += ["  " + line for line in
               probes.baseline_lines({k: v[0] for k, v in per_layer.items() if v[3] != "tour"})]
    return per_layer, report, spans, replayed


def _machine_info() -> dict:
    import ctypes

    import numpy as np
    from numpy._core import _multiarray_umath

    blas_threads = None
    try:
        get = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_num_threads64_
        get.restype = ctypes.c_int
        blas_threads = get()
    except (OSError, AttributeError):
        pass
    sha = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except OSError:
        pass
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "dais").glob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "src_dais_lines": lines,
    }


if __name__ == "__main__":
    sys.exit(main())
