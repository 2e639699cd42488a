"""A K-step chain's linear schedule beta_k = k / K and its one step size eta = a K^(-c)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def check_addressable(*shape) -> None:
    """Raise MemoryError for a float64 ``shape`` numpy cannot address (numpy raises a ValueError)."""
    shape = tuple(int(n) for n in shape)
    if math.prod(shape) > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"Unable to allocate an array with shape {shape} and data type float64")


@dataclass(frozen=True)
class AnnealingSchedule:
    """Linear inverse-temperature grid beta_k = k / K, k = 0..K; ``betas`` is derived."""

    K: int
    betas: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        check_addressable(self.K + 1)
        object.__setattr__(self, "betas", np.arange(self.K + 1) / self.K)


def make_linear_schedule(K: int) -> AnnealingSchedule:
    """Equally spaced schedule beta_k = k/K."""
    return AnnealingSchedule(K)


@dataclass(frozen=True)
class StepSizeScheme:
    """One leapfrog step size eta = base * K**(-exponent) for all K steps.

    ``eta`` is derived, never passed; base = 0 gives the degenerate
    (eta = 0) chains that tests use.
    """

    base: float
    exponent: float
    K: int
    eta: np.float64 = field(init=False)

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        eta = np.float64(self.base * self.K ** -self.exponent)
        if not 0.0 <= eta < np.inf:
            raise ValueError(f"step size must be finite and non-negative, got {eta}")
        object.__setattr__(self, "eta", eta)


def check_same_K(schedule: AnnealingSchedule, steps: StepSizeScheme) -> None:
    """Raise ValueError unless ``schedule`` and ``steps`` are for chains of one length."""
    if steps.K != schedule.K:
        raise ValueError(f"step scheme has K={steps.K}, schedule has K={schedule.K}")


def make_stepsize_scheme(a: float, c: float, K: int) -> StepSizeScheme:
    """Constant scheme eta = a * K**(-c)."""
    if a <= 0:
        raise ValueError(f"base step size must be positive, got {a}")
    if c < 0:
        raise ValueError(f"exponent must be non-negative, got {c}")
    return StepSizeScheme(base=a, exponent=c, K=K)


def constant_steps(eta: float, K: int) -> StepSizeScheme:
    """Step size eta for every step; eta = 0 is allowed (degenerate chain)."""
    return StepSizeScheme(base=eta, exponent=0.0, K=K)
