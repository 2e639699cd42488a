"""Annealing schedules and step-size schemes."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class AnnealingSchedule:
    """Inverse-temperature grid 0 = beta_0 <= ... <= beta_K = 1."""

    betas: np.ndarray

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=float)
        object.__setattr__(self, "betas", betas)
        if betas.ndim != 1 or betas.size < 2:
            raise ValueError("schedule needs at least two inverse temperatures")
        if betas[0] != 0.0 or betas[-1] != 1.0:
            raise ValueError("schedule must start at 0 and end at 1")
        if np.any(np.diff(betas) < 0):
            raise ValueError("schedule must be non-decreasing")

    @property
    def K(self) -> int:
        return self.betas.size - 1


def make_linear_schedule(K: int) -> AnnealingSchedule:
    """Equally spaced schedule beta_k = k/K."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    return AnnealingSchedule(np.arange(K + 1) / K)


@dataclass(frozen=True)
class StepSizeScheme:
    """Leapfrog step sizes eta_k = base * K**(-exponent) for k = 1..K.

    ``per_step`` holds them expanded and is derived, never passed; base = 0
    gives the degenerate (eta = 0) chains that tests use.
    """

    base: float
    exponent: float
    K: int
    per_step: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.K < 0:
            raise ValueError("step count must be non-negative")
        per_step = np.full(self.K, self.base * self.K ** (-self.exponent) if self.K else 0.0, dtype=float)
        object.__setattr__(self, "per_step", per_step)
        if np.any(per_step < 0) or not np.all(np.isfinite(per_step)):
            raise ValueError("step sizes must be finite and non-negative")


def make_stepsize_scheme(a: float, c: float, K: int) -> StepSizeScheme:
    """Constant scheme eta_k = a * K**(-c)."""
    if a <= 0:
        raise ValueError(f"base step size must be positive, got {a}")
    if c < 0:
        raise ValueError(f"exponent must be non-negative, got {c}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    return StepSizeScheme(base=a, exponent=c, K=K)


def constant_steps(eta: float, K: int) -> StepSizeScheme:
    """Constant eta for all steps; eta = 0 is allowed (degenerate chain)."""
    if eta < 0:
        raise ValueError("eta must be non-negative")
    return StepSizeScheme(base=eta, exponent=0.0, K=K)
