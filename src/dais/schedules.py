"""A K-step chain's linear schedule beta_k = k / K and its one step size eta = a K^(-c)."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np


def check_addressable(*shape) -> None:
    """Raise MemoryError for a float64 ``shape`` numpy cannot address (numpy raises a ValueError)."""
    shape = tuple(int(n) for n in shape)
    if math.prod(shape) > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"Unable to allocate an array with shape {shape} and data type float64")


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return (type(value) is int or isinstance(value, np.integer)  # the common cases before the abstract check
            or (isinstance(value, numbers.Integral) and not isinstance(value, bool)))


def count(name: str, value, low: int = 1) -> int:
    """``value`` as a Python int; ValueError naming ``name`` unless it is an integer (not a bool) >= ``low``."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


@dataclass(frozen=True)
class AnnealingSchedule:
    """Linear inverse-temperature grid beta_k = k / K, k = 0..K; ``betas`` is derived."""

    K: int
    betas: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "K", count("K", self.K))
        check_addressable(self.K + 1)
        object.__setattr__(self, "betas", np.arange(self.K + 1) / self.K)


def make_linear_schedule(K: int) -> AnnealingSchedule:
    """Equally spaced schedule beta_k = k/K."""
    return AnnealingSchedule(K)


@dataclass(frozen=True)
class StepSizeScheme:
    """One leapfrog step size ``eta`` for all K steps; eta = 0 gives the
    degenerate chains that tests use."""

    K: int
    eta: np.float64

    def __post_init__(self):
        object.__setattr__(self, "K", count("K", self.K))
        eta = np.float64(self.eta)
        if not 0.0 <= eta < np.inf:
            raise ValueError(f"step size must be finite and non-negative, got {eta}")
        object.__setattr__(self, "eta", eta)


def check_same_K(schedule: AnnealingSchedule, steps: StepSizeScheme) -> None:
    """Raise ValueError unless ``schedule`` and ``steps`` are for chains of one length."""
    if steps.K != schedule.K:
        raise ValueError(f"step scheme has K={steps.K}, schedule has K={schedule.K}")


def make_stepsize_scheme(a: float, c: float, K: int) -> StepSizeScheme:
    """Constant scheme eta = a * K**(-c)."""
    if not 0.0 < a < np.inf:  # NaN fails too
        raise ValueError(f"base step size a must be finite and positive, got {a}")
    if not 0.0 <= c < np.inf:  # an infinite c would give eta = 0
        raise ValueError(f"exponent c must be finite and non-negative, got {c}")
    K = count("K", K)  # a Python int: numpy refuses np.int64 K ** -1
    return StepSizeScheme(K, np.float64(a * K ** -c))
