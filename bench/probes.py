"""Layer probes: timed calls to public functions at fixed sizes.

They cover the ROADMAP baseline rows a workload's trace cannot see inside
(one moment-propagation step, step-size tuning, stream spawning, buffer
push/pop) and run in every traced run, each call inside a span of its layer.
"""

from __future__ import annotations

import time

from dais import (
    InfoBuffer,
    gen_blr_data,
    generator,
    make_linear_schedule,
    make_stepsize_scheme,
    propagate_moments,
    quantize_gamma,
    substreams,
    tune_stepsize_base,
    update_matrices,
)

from tracing import duration
from workloads import C_LIST, Reversible

UPDATE_CALLS = 2000
BUFFER_OPS = 1000

# metric -> (unit, ROADMAP baseline in that unit or None, the baseline row)
BASELINES = {
    "blr.update_matrices_us": ("us", None, "no ROADMAP figure"),
    "moments.propagate_d10_K256_s": ("s", 0.055, "propagate_moments, d=10, K=256: 55 ms"),
    "moments.propagate_d10_K4096_s": ("s", 0.9, "propagate_moments, d=10, K=4096: 0.9 s"),
    "moments.propagate_d50_K1024_s": ("s", 2.4, "propagate_moments, d=50, K=1024: 2.4 s"),
    "harness.tune_K64_s": ("s", 0.82, "tune_stepsize_base (K_min=64, 3 values of c): 0.82 s"),
    "rng.substreams_10k_s": ("s", 0.2, "spawning 10k substreams: about 0.2 s"),
    "rng.spawn_us_per_stream": ("us", 20.0, "0.2 s / 10k substreams = 20 us"),
    "reversible.push_us.d10": ("us", None, "no ROADMAP figure"),
    "reversible.pop_us.d10": ("us", None, "no ROADMAP figure"),
    "reversible.push_us.d100": ("us", None, "no ROADMAP figure"),
    "reversible.pop_us.d100": ("us", None, "no ROADMAP figure"),
    # rows read from the traced workloads rather than from a probe
    "reversible.fwd_step_us.d10": ("us", 166.0, "fixed-point forward step, d=10: 166 us"),
    "reversible.bwd_step_us.d10": ("us", 139.0, "fixed-point backward step, d=10: 139 us"),
    "reversible.fwd_step_us.d100": ("us", 603.0, "fixed-point forward step, d=100: 603 us"),
    "reversible.bwd_step_us.d100": ("us", 214.0, "fixed-point backward step, d=100: 214 us"),
    "cli.oracles_s": ("s", 2.3, "dais oracles: 2.3 s"),
    "cli.check_reversible_s": ("s", 0.7, "dais check-reversible: 0.7 s"),
}


def run_probes(tracer, seed: int) -> dict:
    """Run every probe; returns {metric: (value, samples)}."""
    out = {}
    model = gen_blr_data(1000, 10, seed)
    with tracer.span("blr.update_matrices", UPDATE_CALLS) as rec:
        for i in range(UPDATE_CALLS):
            update_matrices(model, i / UPDATE_CALLS, 0.1)
    out["blr.update_matrices_us"] = (duration(rec) / UPDATE_CALLS * 1e6, UPDATE_CALLS)

    for d, K in ((10, 256), (10, 4096), (50, 1024)):
        m = model if d == 10 else gen_blr_data(1000, d, seed)
        schedule, steps = make_linear_schedule(K), make_stepsize_scheme(0.3, 0.25, K)
        with tracer.span("moments.propagate_moments", K) as rec:
            propagate_moments(m, schedule, steps, 0.0)
        out[f"moments.propagate_d{d}_K{K}_s"] = (duration(rec), 1)

    with tracer.span("harness.tune_stepsize_base") as rec:
        tune_stepsize_base(model, 0.0, 64, C_LIST)
    out["harness.tune_K64_s"] = (duration(rec), 1)

    # stream counts the mc-chains workload spawns: a long cell, the wide
    # batch, and the oracle suite's unbiasedness check
    total_s, total_n = 0.0, 0
    for n in (200, 1000, 20000):
        with tracer.span("rng.substreams", n) as rec:
            substreams(generator((seed, n)), n)
        total_s, total_n = total_s + duration(rec), total_n + n
    out["rng.spawn_us_per_stream"] = (total_s / total_n * 1e6, 3)
    with tracer.span("rng.substreams", 10000) as rec:
        substreams(generator((seed, 10000)), 10000)
    out["rng.substreams_10k_s"] = (duration(rec), 1)

    for case in Reversible.CASES:
        push_us, pop_us = _buffer_probe(tracer, seed, case.d, case.K, case.gamma)
        out[f"reversible.push_us.d{case.d}"] = (push_us, BUFFER_OPS)
        out[f"reversible.pop_us.d{case.d}"] = (pop_us, BUFFER_OPS)
    return out


def _buffer_probe(tracer, seed: int, d: int, depth: int, gamma: float):
    """Push/pop cost at the depth a K=depth fixed-point chain leaves behind.

    The buffer is first filled by ``depth`` damping operations (push a
    remainder modulo the denominator, pop modulo the numerator, as the
    chain's rational multiply does); then ``BUFFER_OPS`` more such pairs are
    timed call by call.
    """
    num, den, _ = quantize_gamma(gamma)
    draws = generator((seed, d, depth)).integers(0, den, size=(depth + BUFFER_OPS, d)).astype(object)
    buffer = InfoBuffer(d)
    for row in draws[:depth]:
        buffer.push(row, den)
        buffer.pop(num)
    push_s = pop_s = 0.0
    with tracer.span(f"reversible.InfoBuffer.d{d}", BUFFER_OPS):
        for row in draws[depth:]:
            t0 = time.perf_counter()
            buffer.push(row, den)
            t1 = time.perf_counter()
            buffer.pop(num)
            push_s += t1 - t0
            pop_s += time.perf_counter() - t1
    return push_s / BUFFER_OPS * 1e6, pop_s / BUFFER_OPS * 1e6


def baseline_lines(figures: dict) -> list[str]:
    """One line per ROADMAP row: measured figure, baseline, ratio, and a flag past 2x."""
    lines = []
    for metric, (unit, base, row) in BASELINES.items():
        if metric not in figures:
            continue
        value = figures[metric]
        if base is None:
            lines.append(f"{metric:32s} {value:12.6g} {unit:3s}  ({row})")
            continue
        ratio = value / base
        flag = "  <-- differs from the ROADMAP figure by more than 2x" if not 0.5 <= ratio <= 2.0 else ""
        lines.append(f"{metric:32s} {value:12.6g} {unit:3s}  ROADMAP {base:g} {unit} ({row}); ratio {ratio:.2f}{flag}")
    return lines
