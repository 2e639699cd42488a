"""Annealed target densities.

An annealed target exposes the unnormalized log density ``log_f(beta, theta)``
of an interpolating family, its gradient in ``theta``, and exact sampling
from / evaluation of the base distribution at beta = 0.  All densities are
batched: ``theta`` may have shape ``(..., dim)``, log densities return shape
``(...)`` and gradients ``(..., dim)``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class AnnealedTarget(ABC):
    """Family f_beta bridging a tractable base p_0 (beta=0) to a target (beta=1)."""

    @property
    @abstractmethod
    def dim(self) -> int:
        ...

    @abstractmethod
    def log_f(self, beta: float, theta: np.ndarray) -> np.ndarray:
        """Unnormalized log density at inverse temperature ``beta``."""

    @abstractmethod
    def grad_log_f(self, beta: float, theta: np.ndarray) -> np.ndarray:
        """Gradient of ``log_f`` with respect to ``theta``."""

    @abstractmethod
    def sample_p0(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """Exact sample from the base distribution: ``(dim,)`` or ``(size, dim)``."""

    @abstractmethod
    def log_p0(self, theta: np.ndarray) -> np.ndarray:
        """Normalized log density of the base distribution."""


def check_noise_cov(sigma_eps, dim: int | None = None) -> np.ndarray:
    """``sigma_eps`` as a float array, once it is a symmetric positive
    semi-definite gradient-noise covariance (``dim`` x ``dim`` when given)."""
    se = np.asarray(sigma_eps, dtype=float)
    if not np.isfinite(se).all():
        raise ValueError("noise covariance must be finite")
    if se.ndim != 2 or se.shape[0] != se.shape[1] or not np.allclose(se, se.T, atol=1e-10):
        raise ValueError("noise covariance must be square symmetric")
    if np.linalg.eigvalsh(se).min() < -1e-10 * max(1.0, np.abs(se).max()):
        raise ValueError("noise covariance must be positive semi-definite")
    if dim is not None and se.shape != (dim, dim):
        raise ValueError(f"noise matrix has shape {se.shape}, expected ({dim}, {dim})")
    return se


class NoisyGradientTarget(AnnealedTarget):
    """Wrapper adding fresh N(0, Sigma_eps) noise to every gradient call."""

    def __init__(self, target: AnnealedTarget, sigma_eps, rng: np.random.Generator):
        self.inner = target
        self._rng = rng
        # F with F F^T = Sigma_eps; eigen-based so singular covariances work
        w, v = np.linalg.eigh(check_noise_cov(sigma_eps, target.dim))
        self._factor = v * np.sqrt(np.clip(w, 0.0, None))

    @property
    def dim(self):
        return self.inner.dim

    def log_f(self, beta, theta):
        return self.inner.log_f(beta, theta)

    def grad_log_f(self, beta, theta):
        g = self.inner.grad_log_f(beta, theta)
        z = self._rng.standard_normal(np.shape(g))
        return g + z @ self._factor.T

    def sample_p0(self, rng, size=None):
        return self.inner.sample_p0(rng, size)

    def log_p0(self, theta):
        return self.inner.log_p0(theta)


def noisy_gradient(target: AnnealedTarget, sigma_eps, rng: np.random.Generator) -> NoisyGradientTarget:
    """Stochastic-gradient view of ``target``: fresh N(0, ``sigma_eps``) noise,
    a d x d covariance, is added to every gradient evaluation."""
    return NoisyGradientTarget(target, sigma_eps, rng)
