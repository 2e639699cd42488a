"""Closed-form Bayesian linear regression.

Gaussian prior N(mu_p, Lambda_p^{-1}) on the weights, Gaussian observation
noise with variance sigma2.  Every annealed density along the geometric
bridge is Gaussian with precision Lambda_p + beta * X^T X / sigma2, so the
log marginal likelihood, annealed posteriors, the affine form of a leapfrog
step, and the additive mini-batch gradient noise all have closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sampler import NumericalFailure
from .schedules import count
from .targets import AnnealedTarget


def _check_beta(beta) -> float:
    beta = float(beta)
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    return beta


@dataclass(frozen=True)
class BlrModel:
    """Design matrix X (n x d), targets y (n,), observation variance, prior.

    Derived: ``Lambda_lld`` = X^T X / sigma2 and ``Xty_over_s2`` = X^T y / sigma2,
    which equals Lambda_lld mu_* and stays well defined when X^T X is singular.
    """

    X: np.ndarray
    y: np.ndarray
    sigma2: float
    mu_p: np.ndarray
    Lambda_p: np.ndarray
    Lambda_lld: np.ndarray = field(init=False, repr=False, compare=False)
    Xty_over_s2: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).reshape(-1)
        mu_p = np.atleast_1d(np.asarray(self.mu_p, dtype=float))
        Lambda_p = np.atleast_2d(np.asarray(self.Lambda_p, dtype=float))
        d = X.shape[1]
        if X.shape[0] != y.size:
            raise ValueError(f"X has {X.shape[0]} rows but y has {y.size} entries")
        if mu_p.shape != (d,):
            raise ValueError("prior dimensions do not match the design matrix")
        for name, value in (("X", X), ("y", y), ("mu_p", mu_p), ("Lambda_p", Lambda_p)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        if not 0 < self.sigma2 < np.inf:  # NaN fails too
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if Lambda_p.shape != (d, d):
            raise ValueError(f"Lambda_p must be {d}x{d}, got {Lambda_p.shape}")
        if not np.allclose(Lambda_p, Lambda_p.T, atol=1e-10):
            raise ValueError("Lambda_p must be symmetric")
        Lambda_p = 0.5 * (Lambda_p + Lambda_p.T)
        np.linalg.cholesky(Lambda_p)  # raises if not positive definite
        sigma2 = float(self.sigma2)
        with np.errstate(over="ignore"):
            Lambda_lld, Xty_over_s2 = X.T @ X / sigma2, X.T @ y / sigma2
        if not (np.isfinite(Lambda_lld).all() and np.isfinite(Xty_over_s2).all()):
            raise NumericalFailure(f"X^T X / sigma2 or X^T y / sigma2 overflows at sigma2 = {sigma2!r}")
        for name, value in (("X", X), ("y", y), ("mu_p", mu_p), ("Lambda_p", Lambda_p), ("sigma2", sigma2),
                            ("Lambda_lld", Lambda_lld), ("Xty_over_s2", Xty_over_s2)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.mu_p.size


@dataclass(frozen=True)
class AnnealedGaussian:
    """Gaussian N(mu, Lambda^{-1}) along the bridge at one inverse temperature."""

    mu: np.ndarray
    Lambda: np.ndarray


def _annealed_precision(model: BlrModel, beta: float):
    """Lambda_p + beta Lambda_lld, and that precision times the mean, Lambda_p mu_p + beta X^T y / sigma2."""
    beta = _check_beta(beta)
    return model.Lambda_p + beta * model.Lambda_lld, model.Lambda_p @ model.mu_p + beta * model.Xty_over_s2


def annealed_posterior(model: BlrModel, beta: float) -> AnnealedGaussian:
    """Exact annealed posterior: Lambda = Lambda_p + beta * Lambda_lld.

    The mean solves Lambda mu = Lambda_p mu_p + beta X^T y / sigma2; the
    least-squares point is never materialized, so singular X^T X is fine.
    """
    Lambda, lam_mu = _annealed_precision(model, beta)
    return AnnealedGaussian(mu=np.linalg.solve(Lambda, lam_mu), Lambda=Lambda)


def _chol_logdet(mat: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(mat)))))


def posterior_volume(model: BlrModel) -> tuple[AnnealedGaussian, float]:
    """The posterior (beta = 1) and log|Lambda_p| - log|Lambda_post| = log(|Sigma_post| / |Sigma_p|)."""
    post = annealed_posterior(model, 1.0)
    return post, _chol_logdet(model.Lambda_p) - _chol_logdet(post.Lambda)


def exact_log_ml(model: BlrModel) -> float:
    """Closed-form log marginal likelihood.

    log Z = -(n/2) log(2 pi sigma2) + (1/2) log(|Sigma_pos| / |Sigma_p|)
            + (1/2) mu_pos^T Lambda_pos mu_pos - y^T y / (2 sigma2)
            - (1/2) mu_p^T Lambda_p mu_p
    with log-determinants taken through Cholesky factors.
    """
    post, logdet_ratio = posterior_volume(model)
    return float(
        -0.5 * model.n * np.log(2 * np.pi * model.sigma2)
        + 0.5 * logdet_ratio
        + 0.5 * post.mu @ post.Lambda @ post.mu
        - 0.5 * model.y @ model.y / model.sigma2
        - 0.5 * model.mu_p @ model.Lambda_p @ model.mu_p
    )


def blr_grad(model: BlrModel, beta: float, theta: np.ndarray) -> np.ndarray:
    """Annealed log-density gradient -Lambda_p (theta - mu_p) + (beta/sigma2) X^T (y - X theta)."""
    beta = _check_beta(beta)
    theta = np.asarray(theta, dtype=float)
    grad = -(theta - model.mu_p) @ model.Lambda_p
    if beta != 0.0:
        grad = grad + (beta / model.sigma2) * (model.y - theta @ model.X.T) @ model.X
    return grad


def leapfrog_affine(eta, prec, prec_mean, one):
    """Affine form (A, B, C, c_vec, e_vec) of one leapfrog step on a Gaussian annealed density.

    theta_k = A theta_{k-1} + B v_{k-1} + c_vec
    v_hat_k = C theta_{k-1} + A v_{k-1} + e_vec

    at precision ``prec``; ``prec_mean`` is prec times the mean.  The momentum
    block equals the position block A for identity mass.  ``one`` is the
    identity: ``np.eye(d)`` for matrices, ``1.0`` for per-mode arrays of an eigenbasis.
    """
    A = one - 0.5 * eta**2 * prec
    B = eta * one - 0.25 * eta**3 * prec
    C = -eta * prec
    return A, B, C, 0.5 * eta**2 * prec_mean, eta * prec_mean


def update_matrices(model: BlrModel, beta: float, eta: float):
    """(A, B, C, c_vec, e_vec) of `leapfrog_affine` as d x d matrices and d-vectors at (beta, eta)."""
    return leapfrog_affine(eta, *_annealed_precision(model, beta), np.eye(model.d))


class _BlrTarget(AnnealedTarget):
    """log f_beta(theta) = log N(theta; mu_p, Lambda_p^{-1}) + beta * log p(y | X, theta)."""

    def __init__(self, model: BlrModel):
        self.model = model
        chol = np.linalg.cholesky(model.Lambda_p)
        # cov factor F with F F^T = Lambda_p^{-1}: inverse transpose of the precision factor
        self._cov_factor = np.linalg.solve(chol.T, np.eye(model.d))
        self._log_det_cov = -2.0 * np.sum(np.log(np.diag(chol)))
        self._log_lik_const = -0.5 * model.n * np.log(2 * np.pi * model.sigma2)

    @property
    def dim(self) -> int:
        return self.model.d

    def log_f(self, beta, theta):
        beta = _check_beta(beta)
        out = self.log_p0(theta)
        if beta != 0.0:
            m = self.model
            # the squared residuals y - X theta, formed in the product's one (chains x n) buffer
            sq = np.asarray(theta, float) @ m.X.T
            np.subtract(m.y, sq, out=sq)
            np.multiply(sq, sq, out=sq)
            out = out + beta * (self._log_lik_const - 0.5 * np.sum(sq, axis=-1) / m.sigma2)
        return out

    def grad_log_f(self, beta, theta):
        beta = _check_beta(beta)
        theta = np.asarray(theta, dtype=float)
        out = (self.model.mu_p - theta) @ self.model.Lambda_p
        if beta != 0.0:
            out = out + beta * (self.model.Xty_over_s2 - theta @ self.model.Lambda_lld)
        return out

    def sample_p0(self, rng, size=None):
        shape = (self.dim,) if size is None else (size, self.dim)
        return self.model.mu_p + rng.standard_normal(shape) @ self._cov_factor.T

    def log_p0(self, theta):
        delta = np.asarray(theta, dtype=float) - self.model.mu_p
        quad = np.sum((delta @ self.model.Lambda_p) * delta, axis=-1)
        return -0.5 * (self.dim * np.log(2 * np.pi) + self._log_det_cov + quad)


def blr_target(model: BlrModel) -> AnnealedTarget:
    """Annealed-target view of the model for the generic samplers.

    The likelihood keeps its normalization constant so that the weight at
    beta = 1 estimates the marginal likelihood itself.

    The gradient X^T (y - X theta) / sigma2 comes from the cached sufficient
    statistics X^T y / sigma2 and X^T X / sigma2 (O(d^2) per state, no n-row
    residual).  The log-likelihood keeps the residual form: the expanded
    quadratic y^T y - 2 theta^T X^T y + theta^T X^T X theta cancels badly
    near the least-squares point.
    """
    return _BlrTarget(model)


def additive_noise_cov(model: BlrModel, batch_size: int) -> np.ndarray:
    """Additive part of the mini-batch gradient noise, as a covariance.

    Single-row likelihood-gradient estimators g_i = (n/sigma2) x_i r_i are
    evaluated at the least-squares point (residuals r = y - X mu_*), where
    the state-dependent part of the noise vanishes; the returned covariance
    is their population covariance divided by the batch size, i.e. the noise
    of a size-b batch drawn with replacement at the end of the bridge.
    """
    batch_size = count("batch_size", batch_size)
    if model.n == 0:
        raise ValueError("additive noise is undefined for empty data")
    mu_star = np.linalg.lstsq(model.X, model.y, rcond=None)[0]
    resid = model.y - model.X @ mu_star
    with np.errstate(over="ignore", invalid="ignore"):
        contrib = (model.n / model.sigma2) * model.X * resid[:, None]
        centered = contrib - contrib.mean(axis=0)
        cov = (centered.T @ centered) / (model.n * batch_size)
    if not np.isfinite(cov).all():
        raise NumericalFailure(f"the mini-batch noise covariance overflows at sigma2 = {model.sigma2!r}")
    return cov
