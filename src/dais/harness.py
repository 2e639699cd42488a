"""Experiment harness: synthetic data, (K, c) sweeps, CSV output.

A sweep evaluates the bound gap over a grid of chain lengths K and step-size
exponents c in one of three modes: ``exact`` (closed-form moment
propagation), ``mc`` (sampled chains, with a standard error), or ``theory``
(the exact gap at the smallest K extrapolated along the predicted power
law).  Exact and theory gaps come from one batched ``sweep_gaps`` call per
sweep.  Sampled cells run one after another, each on its own substream
derived from (seed, K, c, mode).  Rows are deterministic given the config.
"""

from __future__ import annotations

import csv
import io
import numbers
import re
import time
import tomllib
from dataclasses import dataclass

import numpy as np

from .blr import BlrModel, additive_noise_cov, blr_target, exact_log_ml
from .moments import sweep_gaps, theory_slope
from .rng import generator
from .sampler import NumericalFailure, TransitionConfig, dais_bound_mc
from .schedules import check_addressable, make_linear_schedule, make_stepsize_scheme
from .targets import noisy_gradient

MODES = ("exact", "mc", "theory")
CSV_HEADER = ("K", "c", "gamma", "mode", "batch_size", "gap", "stderr", "elapsed_ms", "seed")
DEFAULT_K_GRID = (64, 128, 256, 512, 1024, 2048, 4096)
DEFAULT_C_LIST = (0.25, 1 / 3)


class ConfigError(ValueError):
    """Malformed experiment configuration; ``field`` names the offending key, if one."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class InsufficientData(ValueError):
    """Not enough usable rows for a fit."""


def _as_int(key, value, name=None) -> int:
    """``value`` as an int: ints, numpy integers and integral floats pass, bools do not."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name or key} must be an integer, got {value!r}", key)


def _as_float(key, value, name=None) -> float:
    """``value`` as a float: ints and floats pass, bools do not."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigError(f"{name or key} must be a number, got {value!r}", key)
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        raise ConfigError(f"{name or key} must be a finite number, got an int too large for a float", key) from None


def _as_list(key, value, convert) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list of numbers, got {value!r}", key)
    return tuple(convert(key, v, f"each {key} entry") for v in value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep definition; every field has a default, so configs stay short.

    Construction types and range-checks every field, whether the values
    come from a config file or from a caller, and raises ``ConfigError``.
    """

    n: int = 1000
    d: int = 10
    sigma2: float = 1.0
    seed: int = 0
    K_grid: tuple = DEFAULT_K_GRID
    c_list: tuple = DEFAULT_C_LIST
    a: float | None = None
    gamma: float = 0.0
    mode: str = "exact"
    mc_chains: int = 100
    batch_size: int | None = None

    def __post_init__(self):
        def convert(key, to, *args):
            object.__setattr__(self, key, to(key, getattr(self, key), *args))

        for key in ("n", "d", "seed", "mc_chains"):
            convert(key, _as_int)
        for key in ("sigma2", "gamma"):
            convert(key, _as_float)
        if self.a is not None:
            convert("a", _as_float)
        if self.batch_size is not None:
            convert("batch_size", _as_int)
        convert("K_grid", _as_list, _as_int)
        convert("c_list", _as_list, _as_float)

        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}", "n")
        if self.d < 1:
            raise ConfigError(f"d must be >= 1, got {self.d}", "d")
        if not 0 < self.sigma2 < np.inf:
            raise ConfigError(f"sigma2 must be positive and finite, got {self.sigma2}", "sigma2")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}", "seed")
        K = self.K_grid
        if not K or K[0] < 1 or any(k0 >= k1 for k0, k1 in zip(K, K[1:])):
            raise ConfigError(f"K_grid must be strictly ascending integers >= 1, got {list(K)}", "K_grid")
        # c * 2^20 must be finite for the cell seed key round(c * 2^20)
        if not self.c_list or not all(0.0 <= c * (1 << 20) < np.inf for c in self.c_list):
            raise ConfigError("c_list must be non-empty with c >= 0 and c * 2^20 finite", "c_list")
        seen = {}
        for c in self.c_list:
            key = _c_seed_key(c)
            if key in seen:
                raise ConfigError(
                    f"c values {seen[key]!r} and {c!r} share a cell seed (same round(c * 2^20))", "c_list")
            seen[key] = c
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}", "mode")
        if self.mode == "mc" and self.mc_chains < 2:
            raise ConfigError("mc mode needs mc_chains >= 2", "mc_chains")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must lie in [0, 1], got {self.gamma}", "gamma")
        if self.batch_size is not None and not 1 <= self.batch_size <= self.n:
            raise ConfigError(f"batch_size must lie in [1, n={self.n}]", "batch_size")
        if self.a is not None and not 0 < self.a < np.inf:
            raise ConfigError(f"a must be positive and finite, got {self.a}", "a")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"not UTF-8 text ({exc.reason})") from exc
        return cls.from_text(text)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        """Parse TOML ``text``; an error names the line and field it comes from where it can."""
        try:  # with a final newline, tomllib places an error in the last statement at its line
            raw = tomllib.loads(text + "\n")
        except (ValueError, RecursionError) as exc:  # TOMLDecodeError, an int too long or lists nested too deep
            raise ConfigError(str(exc)) from None
        lines = _key_lines(text)
        for key in raw:
            if key not in cls.__dataclass_fields__:
                where = f"line {lines[key]}: " if key in lines else ""
                raise ConfigError(f"{where}unknown config key {key!r}")
        try:
            return cls(**raw)
        except ConfigError as exc:
            if exc.field not in lines:
                raise
            raise ConfigError(f"line {lines[exc.field]}: field {exc.field!r}: {exc}", exc.field) from exc


_BARE_KEY = re.compile(r"[ \t]*([A-Za-z0-9_-]+)[ \t]*=")


def _key_lines(text: str) -> dict:
    """{key: line} of each bare key assigned before the first table header or multi-line string."""
    lines = {}
    for line_no, line in enumerate(text.split("\n"), start=1):
        if match := _BARE_KEY.match(line):
            lines[match[1]] = line_no
        if re.match(r"""[ \t]*\[|.*("{3}|'{3})""", line):  # past here a key may sit in a table or a string
            break
    return lines


@dataclass(frozen=True)
class ResultRow:
    K: int
    c: float
    gamma: float
    mode: str
    batch_size: int | None
    gap: float
    stderr: float
    elapsed_ms: float
    seed: int

    @property
    def failed(self) -> bool:
        return not np.isfinite(self.gap)


def gen_blr_data(n: int, d: int, seed: int, sigma2: float = 1.0) -> BlrModel:
    """Synthetic regression data: X entries N(0, 0.01), y entries N(0, 1).

    Observation variance ``sigma2``, zero prior mean, identity prior
    precision; X and y are deterministic in (seed, n, d).
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    check_addressable(n, d)
    g = generator((seed, n, d))
    X = 0.1 * g.standard_normal((n, d))
    y = g.standard_normal(n)
    return BlrModel(X=X, y=y, sigma2=sigma2, mu_p=np.zeros(d), Lambda_p=np.eye(d))


def stability_limit(model: BlrModel) -> float:
    """Largest leapfrog step size with non-expanding updates, 2/sqrt(lambda_max)."""
    lam_max = float(np.linalg.eigvalsh(model.Lambda_p + model.Lambda_lld).max())
    return 2.0 / np.sqrt(lam_max)


# tuning grid: coarse 0.05 spacing; the upper end must comfortably exceed
# the gap-minimizing base or the fitted decay rates come out too shallow
TUNE_GRID = tuple(np.round(np.arange(0.05, 1.501, 0.05), 3))

# fraction of the leapfrog stability limit the tuned step size may use at
# the smallest K; minimizing the gap alone runs into the accuracy loss near
# the limit and flattens the fitted decay rates
TUNE_STABILITY_FRACTION = 0.7


def tune_stepsize_base(model: BlrModel, gamma: float, K_min: int, c_list, grid=TUNE_GRID) -> float:
    """Pick the constant a minimizing the summed exact gap at the smallest K.

    Tuned once per (model, gamma) on the noise-free gap (tuning against the
    noisy gap would push a toward zero) and held fixed across the sweep.
    Candidates whose step size at K_min exceeds
    ``TUNE_STABILITY_FRACTION`` of the stability limit are skipped, and so
    are candidates with a failed cell.  All candidate cells go through one
    ``sweep_gaps`` call.
    """
    eta_max = TUNE_STABILITY_FRACTION * stability_limit(model)
    candidates = [a for a in grid if not max(make_stepsize_scheme(a, c, K_min).eta for c in c_list) > eta_max]
    steps = [make_stepsize_scheme(a, c, K_min) for a in candidates for c in c_list]
    gaps = sweep_gaps(model, gamma, steps).reshape(len(candidates), len(c_list))
    best_a, best_val = None, np.inf
    for a, cell_gaps in zip(candidates, gaps):
        total = 0.0
        for gap in cell_gaps:
            total += gap  # a failed cell is nan, which skips the candidate
        if np.isfinite(total) and total < best_val:
            best_a, best_val = float(a), total
    if best_a is None:
        raise NumericalFailure("no stable step-size base found on the tuning grid")
    return best_a


def _c_seed_key(c):
    return int(round(c * (1 << 20)))


def _cell_seed_sequence(config, K, c):
    return (config.seed, K, _c_seed_key(c), MODES.index(config.mode))


def _row(config, K, c, gap, stderr, elapsed_ms):
    return ResultRow(
        K=K, c=c, gamma=config.gamma, mode=config.mode, batch_size=config.batch_size,
        gap=float(gap), stderr=float(stderr), elapsed_ms=elapsed_ms, seed=config.seed,
    )


def _run_mc_cell(config, target, log_z, noise, a, K, c):
    start = time.perf_counter()
    schedule = make_linear_schedule(K)
    steps = make_stepsize_scheme(a, c, K)
    try:
        cell_rng = generator(_cell_seed_sequence(config, K, c))
        if noise is not None:
            target = noisy_gradient(target, noise, generator(_cell_seed_sequence(config, K, c) + (1,)))
        mean, stderr = dais_bound_mc(
            target, schedule, steps, TransitionConfig(gamma=config.gamma), config.mc_chains, cell_rng
        )
        gap = log_z - mean
    except (NumericalFailure, np.linalg.LinAlgError, FloatingPointError, OverflowError):
        gap, stderr = float("nan"), 0.0
    return _row(config, K, c, gap, stderr, 1000.0 * (time.perf_counter() - start))


def run_sweep(config: ExperimentConfig) -> list[ResultRow]:
    """Evaluate the gap over the (c, K) grid; failed cells become NaN rows.

    Exact and theory cells are computed together by one ``sweep_gaps`` call,
    and each row's ``elapsed_ms`` is that call's time divided by the cell
    count.  Sampled cells run in ``(c, K)`` order on one shared target; a
    noisy cell wraps it with its own noise stream.
    """
    model = gen_blr_data(config.n, config.d, config.seed, sigma2=config.sigma2)
    noise = None if config.batch_size is None else additive_noise_cov(model, config.batch_size)
    a = config.a if config.a is not None else tune_stepsize_base(
        model, config.gamma, config.K_grid[0], config.c_list
    )
    cells = [(c, K) for c in config.c_list for K in config.K_grid]

    if config.mode == "mc":
        log_z, target = exact_log_ml(model), blr_target(model)
        return [_run_mc_cell(config, target, log_z, noise, a, K, c) for c, K in cells]

    start = time.perf_counter()
    if config.mode == "exact":
        steps = [make_stepsize_scheme(a, c, K) for c, K in cells]
        gaps = sweep_gaps(model, config.gamma, steps, noise=noise)
    else:
        K_min = config.K_grid[0]
        steps = [make_stepsize_scheme(a, c, K_min) for c in config.c_list]
        bases = dict(zip(config.c_list, sweep_gaps(model, config.gamma, steps, noise=noise)))
        gaps = [bases[c] * (K / K_min) ** theory_slope(c) for c, K in cells]
    elapsed_ms = 1000.0 * (time.perf_counter() - start) / len(cells)
    return [_row(config, K, c, gap, 0.0, elapsed_ms) for (c, K), gap in zip(cells, gaps)]


def fit_loglog_slope(rows, K_min: int | None = None):
    """Least-squares slope of log(gap) against log(K).

    Pass the rows of one curve (one c).  Rows below ``K_min`` or with
    non-positive / non-finite gaps are dropped; fewer than three remaining
    rows raises InsufficientData.  Returns (slope, intercept, r2).
    """
    pts = [
        (row.K, row.gap)
        for row in rows
        if (K_min is None or row.K >= K_min) and np.isfinite(row.gap) and row.gap > 0
    ]
    if len(pts) < 3:
        raise InsufficientData(f"need >= 3 usable rows, have {len(pts)}")
    logK = np.log([p[0] for p in pts])
    logG = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(logK, logG, 1)
    fitted = slope * logK + intercept
    ss_res = float(np.sum((logG - fitted) ** 2))
    ss_tot = float(np.sum((logG - logG.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows) -> str:
    """CSV text: fixed header, LF line endings, full-precision floats."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([
            row.K, _format_cell(row.c), _format_cell(row.gamma), row.mode,
            _format_cell(row.batch_size), _format_cell(row.gap),
            _format_cell(row.stderr), _format_cell(round(row.elapsed_ms, 3)), row.seed,
        ])
    return buf.getvalue()


def write_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv(rows))
