"""Spans recorded by the benchmark around its calls into the dais package.

A span holds a name, a start and an end time, the index of the span that was
open when it started, and a work count (chain steps, gradient rows, calls,
...).  The first dotted part of the name is the layer: one of the package's
modules (``harness``, ``moments``, ``blr``, ``targets``, ``rng``,
``sampler``, ``reversible``, ``cli``) or ``bench`` for the benchmark's own
code.  Spans stay in memory until the run writes them out at the end.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

from dais import AnnealedTarget

NAME, START, END, PARENT, WORK = range(5)


class Tracer:
    """Records nested spans; ``span`` yields the record, whose END is set on exit."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str, work: int = 0):
        record = [name, 0.0, 0.0, self._open[-1] if self._open else -1, work]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._open.pop()

    def wrap(self, target: AnnealedTarget, name: str) -> AnnealedTarget:
        return TimedTarget(target, self, name)


class NullTracer:
    """Tracing off: no spans, targets pass through unwrapped."""

    spans = ()
    _null = nullcontext()

    def span(self, name: str, work: int = 0):
        return self._null

    def wrap(self, target: AnnealedTarget, name: str) -> AnnealedTarget:
        return target


class TimedTarget(AnnealedTarget):
    """Delegating target that records one span per gradient evaluation.

    The span's work is the number of chain states in the call, so span time
    divided by work is the gradient cost per chain step.
    """

    def __init__(self, inner: AnnealedTarget, tracer: Tracer, name: str):
        self.inner = inner
        self._tracer = tracer
        self._name = name

    @property
    def dim(self) -> int:
        return self.inner.dim

    def log_f(self, beta, theta):
        return self.inner.log_f(beta, theta)

    def grad_log_f(self, beta, theta):
        # states are (dim,) or (chains, dim) throughout the package
        rows = theta.shape[0] if theta.ndim > 1 else 1
        with self._tracer.span(self._name, rows):
            return self.inner.grad_log_f(beta, theta)

    def sample_p0(self, rng, size=None):
        return self.inner.sample_p0(rng, size)

    def log_p0(self, theta):
        return self.inner.log_p0(theta)


def duration(record) -> float:
    return record[END] - record[START]


def subtree(spans, root: int) -> list[int]:
    """Indices of ``root`` and every span below it (parents precede children)."""
    inside = [False] * len(spans)
    out = []
    for i in range(root, len(spans)):
        if i == root or (spans[i][PARENT] >= 0 and inside[spans[i][PARENT]]):
            inside[i] = True
            out.append(i)
    return out


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for record in spans:
        if record[PARENT] >= 0:
            covered[record[PARENT]] += duration(record)
    return [duration(record) - c for record, c in zip(spans, covered)]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def find(spans, name: str) -> int:
    return next(i for i, record in enumerate(spans) if record[NAME] == name)


# per-layer metrics read from spans: metric -> (unit, kind, span name or prefix)
#   total_s: summed duration; calls: span count; us_per_work: duration / work;
#   self_s: summed self time of the spans whose name starts with the prefix
SPAN_METRICS = {
    "moments.step_us": ("us", "us_per_work", "moments.propagate_moments"),
    "moments.propagate_s": ("s", "total_s", "moments.propagate_moments"),
    "moments.propagate_calls": ("count", "calls", "moments.propagate_moments"),
    "moments.gap_breakdown_s": ("s", "total_s", "moments.gap_breakdown"),
    "harness.tune_s": ("s", "total_s", "harness.tune_stepsize_base"),
    "harness.tune_calls": ("count", "calls", "harness.tune_stepsize_base"),
    "harness.run_sweep_s": ("s", "total_s", "harness.run_sweep"),
    "blr.grad_us_per_chain_step": ("us", "us_per_work", "blr.grad_log_f"),
    "blr.grad_calls": ("count", "calls", "blr.grad_log_f"),
    "sampler.chain_step_us": ("us", "us_per_work", "sampler.dais_bound_mc"),
    "sampler.self_s": ("s", "self_s", "sampler."),
    "targets.noise_s": ("s", "self_s", "targets.noisy_grad_log_f"),
    "reversible.fwd_step_us.d10": ("us", "us_per_work", "reversible.forward.d10"),
    "reversible.bwd_step_us.d10": ("us", "us_per_work", "reversible.backward.d10"),
    "reversible.fwd_step_us.d100": ("us", "us_per_work", "reversible.forward.d100"),
    "reversible.bwd_step_us.d100": ("us", "us_per_work", "reversible.backward.d100"),
    "reversible.self_s": ("s", "self_s", "reversible."),
    "reversible.serialize_s": ("s", "total_s", "reversible.to_bytes"),
    "reversible.deserialize_s": ("s", "total_s", "reversible.from_bytes"),
    "cli.oracles_s": ("s", "total_s", "cli.oracles"),
    "cli.check_reversible_s": ("s", "total_s", "cli.check_reversible"),
}


def span_figures(spans, selfs, idxs) -> dict:
    """{metric: (value, samples)} over the spans ``idxs``; 0 samples = layer never called."""
    out = {}
    for metric, (_, kind, key) in SPAN_METRICS.items():
        if kind == "self_s":
            chosen = [i for i in idxs if spans[i][NAME].startswith(key)]
            out[metric] = (sum(selfs[i] for i in chosen), len(chosen))
            continue
        chosen = [spans[i] for i in idxs if spans[i][NAME] == key]
        total = sum(duration(record) for record in chosen)
        work = sum(record[WORK] for record in chosen)
        value = {"total_s": total, "calls": float(len(chosen)),
                 "us_per_work": total / work * 1e6 if work else 0.0}[kind]
        out[metric] = (value, len(chosen))
    return out


def self_by_layer(spans, selfs, idxs) -> dict:
    """Self time per layer over ``idxs``; the values sum to the first span's duration."""
    out = {}
    for i in idxs:
        layer = layer_of(spans[i][NAME])
        out[layer] = out.get(layer, 0.0) + selfs[i]
    return out
