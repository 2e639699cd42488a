"""The three benchmark workloads.

Each class builds its inputs from the seed in ``__init__`` (the set-up the
benchmark times, warm-up included), runs one timed pass in ``run``, and
checks a pass's outputs in ``check``; checks never run inside a timed pass.
``small=True`` builds the reduced size that the layer tour of a traced run
uses for layers its own workload does not call.  Every input is defined
here, none is read from the repository's sweep configs.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from dais import (
    ExperimentConfig,
    InfoBuffer,
    NumericalFailure,
    TransitionConfig,
    additive_noise_cov,
    blr_target,
    dais_bound_mc,
    exact_log_ml,
    fit_loglog_slope,
    float_to_fixed,
    gap_breakdown,
    gen_blr_data,
    generator,
    make_linear_schedule,
    make_stepsize_scheme,
    noisy_gradient,
    propagate_moments,
    reversible_backward,
    reversible_forward,
    run_sweep,
    tune_stepsize_base,
)
from dais import cli

from tracing import NullTracer


class Checks:
    """Correctness checks of one run; every one counts toward failed_frac."""

    def __init__(self):
        self.results = []

    def add(self, name: str, ok, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.results)


def _rel_diff(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _run_cli(argv) -> tuple[int, str]:
    """Call ``dais`` in-process, capturing what it prints."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _check_cli_lines(checks: Checks, label: str, code: int, text: str, marker: str) -> None:
    checks.add(f"{label}: exit code 0", code == 0, f"exit code {code}")
    checks.add(f"{label}: reports {marker!r}", marker in text)
    for line in text.splitlines():
        if line.startswith("[FAIL]"):
            checks.add(f"{label}: {line}", False)


# ---------------------------------------------------------------- exact-sweep

# The three panels of scripts/run_gap_sweeps.py: (name, gamma, batch size).
PANELS = (
    ("full_refresh", 0.0, None),
    ("partial_refresh", 0.9, None),
    ("minibatch", 0.0, 100),
)
K_GRID = (64, 128, 256, 512, 1024, 2048, 4096)
C_LIST = (0.25, 1 / 3, 0.5)
# data seed of the committed panel configs; reference values are pinned here
DEFAULT_SEED = 7
# gaps against the dense recomputation and the reference: the dense engine is
# the oracle, and a faster engine must agree with it to this relative error
GAP_RTOL = 1e-9
SLOPE_ATOL = 1e-7
REFERENCE_FILE = Path(__file__).with_name("reference_exact_sweep.json")


@dataclass
class Replay:
    gaps: dict  # (panel, c, K) -> gap
    tuned: dict  # panel -> a
    cell_s: float  # time inside the replayed cells, tuning excluded


class ExactSweep:
    """The paper's three gap-vs-K panels through ``run_sweep``, exact then theory mode."""

    name = "exact-sweep"
    work_unit = "gap cells/s"

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.small = small
        panels = PANELS[:1] if small else PANELS
        K_grid = K_GRID[:3] if small else K_GRID
        self.modes = ("exact",) if small else ("exact", "theory")
        self.configs = {
            name: ExperimentConfig(n=1000, d=10, seed=seed, K_grid=K_grid, c_list=C_LIST,
                                   gamma=gamma, batch_size=batch)
            for name, gamma, batch in panels
        }
        # warm-up: data, noise model and one exact cell, as a sweep starts
        model = gen_blr_data(1000, 10, seed)
        noise = additive_noise_cov(model, 100)
        schedule = make_linear_schedule(K_GRID[0])
        steps = make_stepsize_scheme(1.0, C_LIST[0], K_GRID[0])
        gap_breakdown(model, propagate_moments(model, schedule, steps, 0.0, noise=noise), schedule)

    def run(self, tracer) -> dict:
        rows = {}
        for panel, config in self.configs.items():
            for mode in self.modes:
                cells = len(config.K_grid) * len(config.c_list)
                with tracer.span("harness.run_sweep", cells):
                    rows[panel, mode] = run_sweep(replace(config, mode=mode))
        return rows

    def replay(self, tracer) -> Replay:
        """run_sweep's exact-mode calls, made one public function at a time.

        The same inputs in the same order, so the gaps equal run_sweep's bit
        for bit while run_sweep uses this engine; this is also the dense
        recomputation the correctness check compares against.
        """
        gaps, tuned, cell_s = {}, {}, 0.0
        for panel, config in self.configs.items():
            with tracer.span("harness.gen_blr_data"):
                model = gen_blr_data(config.n, config.d, config.seed)
            noise = None
            if config.batch_size is not None:
                with tracer.span("blr.additive_noise_cov"):
                    noise = additive_noise_cov(model, config.batch_size)
            with tracer.span("harness.tune_stepsize_base"):
                a = tune_stepsize_base(model, config.gamma, config.K_grid[0], config.c_list)
            tuned[panel] = a
            for c in config.c_list:
                for K in config.K_grid:
                    start = time.perf_counter()
                    schedule = make_linear_schedule(K)
                    steps = make_stepsize_scheme(a, c, K)
                    try:
                        with tracer.span("moments.propagate_moments", K):
                            moments = propagate_moments(model, schedule, steps, config.gamma, noise=noise)
                        with tracer.span("moments.gap_breakdown"):
                            gap = gap_breakdown(model, moments, schedule).total
                    except (NumericalFailure, np.linalg.LinAlgError):
                        gap = float("nan")
                    cell_s += time.perf_counter() - start
                    gaps[panel, c, K] = gap
        return Replay(gaps, tuned, cell_s)

    def work(self, rows) -> int:
        return sum(len(r) for r in rows.values())

    def values(self, rows) -> list:
        return [repr(row.gap) for r in rows.values() for row in r]

    def slopes(self, rows) -> dict:
        out = {}
        for panel, config in self.configs.items():
            for c in config.c_list:
                curve = [row for row in rows[panel, "exact"] if row.c == c]
                out[panel, c] = fit_loglog_slope(curve)[0]
        return out

    def check(self, rows, replayed, checks: Checks) -> list[str]:
        if replayed is None:
            replayed = self.replay(NullTracer())
        bit_exact = True
        for (panel, mode), panel_rows in rows.items():
            for row in panel_rows:
                checks.add(f"{panel} {mode} K={row.K} c={row.c:.4f}: finite positive gap",
                           np.isfinite(row.gap) and row.gap > 0, f"gap={row.gap!r}")
                if mode != "exact":
                    continue
                dense = replayed.gaps[panel, row.c, row.K]
                bit_exact &= row.gap == dense
                checks.add(f"{panel} K={row.K} c={row.c:.4f}: gap matches the dense recomputation",
                           _rel_diff(row.gap, dense) <= GAP_RTOL, f"run_sweep {row.gap!r} dense {dense!r}")
        slopes = self.slopes(rows)
        lines = [f"replay of run_sweep's exact cells: {'bit-exact' if bit_exact else 'NOT bit-exact'}"]
        for (panel, c), slope in slopes.items():
            lines.append(f"{panel} c={c:.4f}: fitted slope {slope:+.4f} (2c - 1 = {2 * c - 1:+.4f}), "
                         f"tuned a = {replayed.tuned[panel]}")
        if self.seed == DEFAULT_SEED and not self.small:
            self._check_reference(rows, replayed, slopes, checks)
            lines.append(f"seed {DEFAULT_SEED}: compared with the committed reference values")
        return lines

    def _check_reference(self, rows, replayed, slopes, checks: Checks) -> None:
        ref = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
        for panel, a in ref["tuned_a"].items():
            checks.add(f"reference: {panel} tuned a", replayed.tuned[panel] == a,
                       f"{replayed.tuned[panel]} vs {a}")
        for panel, by_mode in ref["gaps"].items():
            for mode, cells in by_mode.items():
                got = {(row.K, row.c): row.gap for row in rows[panel, mode]}
                for K, c, gap in cells:
                    checks.add(f"reference: {panel} {mode} K={K} c={c:.4f} gap",
                               _rel_diff(got[K, c], gap) <= GAP_RTOL, f"{got[K, c]!r} vs {gap!r}")
        for panel, c, slope in ref["slopes"]:
            checks.add(f"reference: {panel} c={c:.4f} slope", abs(slopes[panel, c] - slope) <= SLOPE_ATOL,
                       f"{slopes[panel, c]!r} vs {slope!r}")

    def extras(self, rows, replayed) -> dict:
        if replayed is None:
            return {}
        elapsed = sum(row.elapsed_ms for (_, mode), r in rows.items() if mode == "exact" for row in r)
        cells = sum(len(r) for (_, mode), r in rows.items() if mode == "exact")
        return {"harness.pool_wait_s": (elapsed / 1000.0 - replayed.cell_s, cells)}


# ---------------------------------------------------------------- mc-chains

STEP_BASE = 1.0  # fixed step-size base a, so no tuning runs
SE_LIMIT = 4.0  # a sampled gap must lie within this many standard errors of the exact gap


@dataclass(frozen=True)
class McCell:
    label: str
    K: int
    c: float
    gamma: float
    noise: np.ndarray | None
    chains: int


class McChains:
    """Sampled bounds through ``dais_bound_mc`` on one thread, plus ``dais oracles``."""

    name = "mc-chains"
    work_unit = "chain-steps/s"

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.model = gen_blr_data(1000, 10, seed)
        self.log_z = exact_log_ml(self.model)
        noise = additive_noise_cov(self.model, 100)
        Ks, cs, chains = ((64,), (0.25,), 50) if small else ((64, 256, 1024), (0.25, 1 / 3), 200)
        self.cells = [McCell("clean gamma=0.9", K, c, 0.9, None, chains) for c in cs for K in Ks]
        self.cells += [McCell("noisy gamma=0", K, c, 0.0, noise, chains) for c in cs for K in Ks]
        self.cells.append(McCell("wide gamma=0.9", 64 if small else 256, 0.25, 0.9, None, 200 if small else 1000))
        self.oracle_argv = ["oracles", "--seed", str(seed)] + (["--chains", "2000"] if small else [])
        # warm-up: a few short chains, clean and noisy
        schedule, steps = make_linear_schedule(8), make_stepsize_scheme(STEP_BASE, 0.25, 8)
        target = blr_target(self.model)
        for t in (target, noisy_gradient(target, noise, generator((seed, 1)))):
            dais_bound_mc(t, schedule, steps, TransitionConfig(gamma=0.9), 16, generator(seed))

    def _target(self, tracer, i: int, cell: McCell):
        target = tracer.wrap(blr_target(self.model), "blr.grad_log_f")
        if cell.noise is None:
            return target
        noisy = noisy_gradient(target, cell.noise, generator((self.seed, i, 1)))
        return tracer.wrap(noisy, "targets.noisy_grad_log_f")

    def run(self, tracer):
        bounds = []
        for i, cell in enumerate(self.cells):
            schedule, steps = make_linear_schedule(cell.K), make_stepsize_scheme(STEP_BASE, cell.c, cell.K)
            target = self._target(tracer, i, cell)
            with tracer.span("sampler.dais_bound_mc", cell.chains * cell.K):
                bounds.append(dais_bound_mc(target, schedule, steps, TransitionConfig(gamma=cell.gamma),
                                            cell.chains, generator((self.seed, i))))
        with tracer.span("cli.oracles"):
            oracles = _run_cli(self.oracle_argv)
        return bounds, oracles

    def work(self, out) -> int:
        return sum(cell.chains * cell.K for cell in self.cells)

    def values(self, out) -> list:
        bounds, oracles = out
        return [repr(x) for pair in bounds for x in pair] + list(map(repr, oracles))

    def replay(self, tracer):
        return None

    def check(self, out, replayed, checks: Checks) -> list[str]:
        bounds, (code, text) = out
        lines = []
        for cell, (mean, se) in zip(self.cells, bounds):
            schedule, steps = make_linear_schedule(cell.K), make_stepsize_scheme(STEP_BASE, cell.c, cell.K)
            moments = propagate_moments(self.model, schedule, steps, cell.gamma, noise=cell.noise)
            exact = gap_breakdown(self.model, moments, schedule).total
            gap = self.log_z - mean
            z = (gap - exact) / se if se > 0 else float("inf")
            name = f"{cell.label} K={cell.K} c={cell.c:.4f} chains={cell.chains}"
            checks.add(f"{name}: sampled gap within {SE_LIMIT:g} SE of exact", np.isfinite(gap) and abs(z) <= SE_LIMIT,
                       f"sampled {gap:.6g} exact {exact:.6g} se {se:.3g}")
            lines.append(f"{name}: sampled gap {gap:.6g} +/- {se:.3g}, exact {exact:.6g} (z = {z:+.2f})")
        _check_cli_lines(checks, "dais oracles", code, text, "[PASS]")
        return lines

    def extras(self, out, replayed) -> dict:
        return {}


# ---------------------------------------------------------------- reversible

ETA = 0.1  # constant leapfrog step, as `dais check-reversible` uses


@dataclass(frozen=True)
class RoundTripCase:
    d: int
    K: int
    gamma: float


class Reversible:
    """Fixed-point round trips through a serialized buffer, plus ``dais check-reversible``."""

    name = "reversible"
    work_unit = "parameter-steps/s"
    CASES = (RoundTripCase(10, 16384, 0.9), RoundTripCase(100, 2048, 0.5))
    SMALL_CASES = (RoundTripCase(10, 1024, 0.9), RoundTripCase(100, 128, 0.5))

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.cases = self.SMALL_CASES if small else self.CASES
        self.check_argv = ["check-reversible", "--seed", str(seed)] + (["--K", "200"] if small else [])
        self.inputs = []
        for case in self.cases:
            model = gen_blr_data(max(4 * case.d, 64), case.d, seed)
            g = generator((seed, case.d))
            target = blr_target(model)
            theta0, v0 = target.sample_p0(g), g.standard_normal(case.d)
            s0 = int(g.integers(0, 2**63))
            self.inputs.append((target, theta0, v0, s0))
            # warm-up: a short round trip on the same target
            schedule, steps, config = self._chain(RoundTripCase(case.d, 8, case.gamma))
            fwd = reversible_forward(target, schedule, steps, config, s0, theta0=theta0, v0=v0)
            reversible_backward(target, schedule, steps, config, fwd.fixed, None, fwd.seed, fwd.buffer)

    @staticmethod
    def _chain(case: RoundTripCase):
        return (make_linear_schedule(case.K), make_stepsize_scheme(ETA, 0.0, case.K),
                TransitionConfig(gamma=case.gamma))

    def run(self, tracer):
        trips = []
        for case, (target, theta0, v0, s0) in zip(self.cases, self.inputs):
            schedule, steps, config = self._chain(case)
            target = tracer.wrap(target, "blr.grad_log_f")
            with tracer.span(f"reversible.forward.d{case.d}", case.K):
                fwd = reversible_forward(target, schedule, steps, config, s0, theta0=theta0, v0=v0)
            with tracer.span("reversible.to_bytes"):
                blob = fwd.buffer.to_bytes()
            with tracer.span("reversible.from_bytes"):
                buffer = InfoBuffer.from_bytes(blob)
            with tracer.span(f"reversible.backward.d{case.d}", case.K):
                theta, v, seed = reversible_backward(target, schedule, steps, config, fwd.fixed, None,
                                                     fwd.seed, buffer)
            trips.append((blob, fwd.gamma_eff, fwd.bound, theta, v, seed, buffer))
        with tracer.span("cli.check_reversible"):
            cli_out = _run_cli(self.check_argv)
        return trips, cli_out

    def work(self, out) -> int:
        return sum(2 * case.d * case.K for case in self.cases)

    def values(self, out) -> list:
        trips, cli_out = out
        vals = []
        for blob, gamma_eff, bound, theta, v, seed, _ in trips:
            vals += [blob, repr(bound), [int(x) for x in theta], [int(x) for x in v], seed]
        return vals + list(cli_out)

    def replay(self, tracer):
        return None

    def bits_per_param_step(self, out) -> list[float]:
        trips, _ = out
        return [InfoBuffer.from_bytes(blob).bit_size() / (case.d * case.K)
                for case, (blob, *_rest) in zip(self.cases, trips)]

    def check(self, out, replayed, checks: Checks) -> list[str]:
        trips, (code, text) = out
        lines = []
        per_step = self.bits_per_param_step(out)
        for case, inputs, trip, bits in zip(self.cases, self.inputs, trips, per_step):
            _, theta0, v0, s0 = inputs
            blob, gamma_eff, _, theta, v, seed, buffer = trip
            name = f"d={case.d} K={case.K} gamma={case.gamma}"
            checks.add(f"{name}: theta_0 recovered bit-exactly",
                       [int(x) for x in theta] == [int(x) for x in float_to_fixed(theta0)])
            checks.add(f"{name}: v_0 recovered bit-exactly",
                       [int(x) for x in v] == [int(x) for x in float_to_fixed(v0)])
            checks.add(f"{name}: seed recovered", seed == s0, f"{seed} vs {s0}")
            checks.add(f"{name}: buffer empty after the backward pass", buffer.is_empty())
            low = float(np.log2(1.0 / gamma_eff))
            checks.add(f"{name}: buffer bits per parameter-step in [log2(1/gamma), +1]",
                       low <= bits <= low + 1.0, f"{bits:.4f} vs log2(1/gamma_eff) = {low:.4f}")
            lines.append(f"{name}: {bits:.4f} buffer bits per parameter-step (log2(1/gamma_eff) = {low:.4f}), "
                         f"{len(blob)} serialized bytes")
        _check_cli_lines(checks, "dais check-reversible", code, text, "bit-exact: true")
        overall, _ = self.extras(out, None)["reversible.buffer_bits_per_param_step"]
        lines.append(f"{'buffer_bits_per_param_step':22s} {overall:14.6g} {'bits':6s} n={len(trips):<3d} "
                     "all round-trip cases together")
        return lines

    def extras(self, out, replayed) -> dict:
        trips, _ = out
        param_steps = sum(case.d * case.K for case in self.cases)
        bits = sum(b * case.d * case.K for b, case in zip(self.bits_per_param_step(out), self.cases))
        return {
            "reversible.buffer_bytes": (sum(len(trip[0]) for trip in trips), len(trips)),
            "reversible.buffer_bits_per_param_step": (bits / param_steps, len(trips)),
        }


WORKLOADS = {cls.name: cls for cls in (ExactSweep, McChains, Reversible)}
