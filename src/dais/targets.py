"""Annealed target densities.

An annealed target exposes the unnormalized log density ``log_f(beta, theta)``
of an interpolating family, its gradient in ``theta``, and exact sampling
from / evaluation of the base distribution at beta = 0.  All densities are
batched: ``theta`` may have shape ``(..., dim)``, log densities return shape
``(...)`` and gradients ``(..., dim)``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

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


def _check_beta(beta) -> float:
    beta = float(beta)
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    return beta


class Gaussian:
    """Multivariate normal with exact sampling, log density, and score.

    Parameterized by mean and either precision or covariance; all linear
    algebra goes through a Cholesky factor, no explicit inverses.
    """

    def __init__(self, mean, precision=None, cov=None):
        self.mean = np.atleast_1d(np.asarray(mean, dtype=float))
        d = self.mean.size
        if (precision is None) == (cov is None):
            raise ValueError("provide exactly one of precision or cov")
        if precision is not None:
            self.precision = _as_spd(precision, d, "precision")
            self._chol_prec = np.linalg.cholesky(self.precision)
            # cov factor F with F F^T = Sigma: inverse transpose of the precision factor
            self._cov_factor = np.linalg.solve(self._chol_prec.T, np.eye(d))
        else:
            cov = _as_spd(cov, d, "cov")
            self._cov_factor = np.linalg.cholesky(cov)
            self.precision = np.linalg.solve(
                self._cov_factor.T, np.linalg.solve(self._cov_factor, np.eye(d))
            )
            self._chol_prec = np.linalg.cholesky(self.precision)
        self._log_det_cov = -2.0 * np.sum(np.log(np.diag(self._chol_prec)))
        self._neg_precision = -self.precision  # delta @ -P: the bits of -delta @ P, one op fewer

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def log_det_cov(self) -> float:
        return self._log_det_cov

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        shape = (self.dim,) if size is None else (size, self.dim)
        z = rng.standard_normal(shape)
        return self.mean + z @ self._cov_factor.T

    def log_density(self, theta: np.ndarray) -> np.ndarray:
        delta = np.asarray(theta, dtype=float) - self.mean
        quad = np.sum((delta @ self.precision) * delta, axis=-1)
        return -0.5 * (self.dim * np.log(2 * np.pi) + self._log_det_cov + quad)

    def grad_log_density(self, theta: np.ndarray) -> np.ndarray:
        delta = np.asarray(theta, dtype=float) - self.mean
        return delta @ self._neg_precision


def _as_spd(mat, d: int, name: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (d, d):
        raise ValueError(f"{name} must be {d}x{d}, got {mat.shape}")
    if not np.allclose(mat, mat.T, atol=1e-10):
        raise ValueError(f"{name} must be symmetric")
    return 0.5 * (mat + mat.T)


class GeometricTarget(AnnealedTarget):
    """log f_beta(theta) = log p_0(theta) + beta * log_likelihood(theta)."""

    def __init__(self, prior: Gaussian, log_likelihood, grad_log_likelihood):
        self.prior = prior
        self._log_lik = log_likelihood
        self._grad_log_lik = grad_log_likelihood

    @property
    def dim(self) -> int:
        return self.prior.dim

    def log_f(self, beta, theta):
        beta = _check_beta(beta)
        out = self.prior.log_density(theta)
        if beta != 0.0:
            out = out + beta * self._log_lik(theta)
        return out

    def grad_log_f(self, beta, theta):
        beta = _check_beta(beta)
        out = self.prior.grad_log_density(theta)
        if beta != 0.0:
            out = out + beta * self._grad_log_lik(theta)
        return out

    def sample_p0(self, rng, size=None):
        return self.prior.sample(rng, size)

    def log_p0(self, theta):
        return self.prior.log_density(theta)


def geometric_target(prior: Gaussian, log_likelihood, grad_log_likelihood) -> GeometricTarget:
    """Geometric bridge between ``prior`` and ``prior * exp(log_likelihood)``.

    ``log_likelihood(theta)`` and ``grad_log_likelihood(theta)`` must accept
    batched ``theta``.  Passing ``log_likelihood=None`` gives the trivial
    family f_beta = p_0 for every beta.
    """
    if log_likelihood is None:
        log_likelihood = lambda theta: np.zeros(np.shape(theta)[:-1])
        grad_log_likelihood = lambda theta: np.zeros_like(theta)
    return GeometricTarget(prior, log_likelihood, grad_log_likelihood)


@dataclass(frozen=True)
class GradientNoiseSpec:
    """Covariance of additive gradient noise.

    ``sigma_eps`` may be a scalar (isotropic), a vector of per-coordinate
    variances (diagonal), or a full PSD matrix.  Fresh noise is drawn
    independently at every gradient evaluation.
    """

    sigma_eps: np.ndarray

    def __post_init__(self):
        se = np.asarray(self.sigma_eps, dtype=float)
        object.__setattr__(self, "sigma_eps", se)
        if se.ndim == 0:
            if se < 0:
                raise ValueError("scalar noise variance must be non-negative")
        elif se.ndim == 1:
            if np.any(se < 0):
                raise ValueError("diagonal noise variances must be non-negative")
        elif se.ndim == 2:
            if se.shape[0] != se.shape[1] or not np.allclose(se, se.T, atol=1e-10):
                raise ValueError("noise covariance must be square symmetric")
            if np.linalg.eigvalsh(se).min() < -1e-10 * max(1.0, np.abs(se).max()):
                raise ValueError("noise covariance must be positive semi-definite")
        else:
            raise ValueError("sigma_eps must be scalar, vector, or matrix")

    def matrix(self, dim: int) -> np.ndarray:
        se = self.sigma_eps
        if se.ndim == 0:
            return float(se) * np.eye(dim)
        if se.ndim == 1:
            if se.size != dim:
                raise ValueError(f"noise vector has size {se.size}, expected {dim}")
            return np.diag(se)
        if se.shape != (dim, dim):
            raise ValueError(f"noise matrix has shape {se.shape}, expected ({dim}, {dim})")
        return se

    def factor(self, dim: int) -> np.ndarray:
        """F with F F^T = Sigma_eps; eigen-based so singular covariances work."""
        mat = self.matrix(dim)
        w, v = np.linalg.eigh(mat)
        return v * np.sqrt(np.clip(w, 0.0, None))

    def trace(self, dim: int) -> float:
        return float(np.trace(self.matrix(dim)))


def as_noise_spec(noise) -> GradientNoiseSpec | None:
    if noise is None or isinstance(noise, GradientNoiseSpec):
        return noise
    return GradientNoiseSpec(noise)


class NoisyGradientTarget(AnnealedTarget):
    """Wrapper adding fresh N(0, Sigma_eps) noise to every gradient call."""

    def __init__(self, target: AnnealedTarget, spec: GradientNoiseSpec, rng: np.random.Generator):
        self.inner = target
        self.spec = spec
        self._rng = rng
        self._factor = spec.factor(target.dim)

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


def noisy_gradient(target: AnnealedTarget, spec, rng: np.random.Generator) -> NoisyGradientTarget:
    """Stochastic-gradient view of ``target`` under an additive noise model."""
    return NoisyGradientTarget(target, as_noise_spec(spec), rng)
