"""Closed-form Bayesian linear regression.

Gaussian prior N(mu_p, Lambda_p^{-1}) on the weights, Gaussian observation
noise with variance sigma2.  Every annealed density along the geometric
bridge is Gaussian with precision Lambda_p + beta * X^T X / sigma2, so the
log marginal likelihood, annealed posteriors, the affine form of a leapfrog
step, and mini-batch gradients all have closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sampler import NumericalFailure
from .targets import Gaussian, GeometricTarget, _as_spd, _check_beta, geometric_target


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
        d = X.shape[1] if X.size else mu_p.size
        if X.shape[0] != y.size:
            raise ValueError(f"X has {X.shape[0]} rows but y has {y.size} entries")
        if mu_p.shape != (d,):
            raise ValueError("prior dimensions do not match the design matrix")
        for name, value in (("X", X), ("y", y), ("mu_p", mu_p), ("Lambda_p", Lambda_p)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        if not 0 < self.sigma2 < np.inf:  # NaN fails too
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")
        Lambda_p = _as_spd(Lambda_p, d, "Lambda_p")
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
    """Gaussian N(mu, Lambda^{-1}) along the bridge at inverse temperature beta."""

    beta: float
    mu: np.ndarray
    Lambda: np.ndarray


def annealed_posterior(model: BlrModel, beta: float) -> AnnealedGaussian:
    """Exact annealed posterior: Lambda = Lambda_p + beta * Lambda_lld.

    The mean solves Lambda mu = Lambda_p mu_p + beta X^T y / sigma2; the
    least-squares point is never materialized, so singular X^T X is fine.
    """
    beta = _check_beta(beta)
    Lambda = model.Lambda_p + beta * model.Lambda_lld
    mu = np.linalg.solve(Lambda, model.Lambda_p @ model.mu_p + beta * model.Xty_over_s2)
    return AnnealedGaussian(beta=beta, mu=mu, Lambda=Lambda)


def _chol_logdet(mat: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(mat)))))


def exact_log_ml(model: BlrModel) -> float:
    """Closed-form log marginal likelihood.

    log Z = -(n/2) log(2 pi sigma2) + (1/2) log(|Sigma_pos| / |Sigma_p|)
            + (1/2) mu_pos^T Lambda_pos mu_pos - y^T y / (2 sigma2)
            - (1/2) mu_p^T Lambda_p mu_p
    with log-determinants taken through Cholesky factors.
    """
    post = annealed_posterior(model, 1.0)
    logdet_ratio = _chol_logdet(model.Lambda_p) - _chol_logdet(post.Lambda)
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
    if beta != 0.0 and model.n:
        grad = grad + (beta / model.sigma2) * (model.y - theta @ model.X.T) @ model.X
    return grad


def blr_minibatch_grad(model, beta, theta, batch_indices=None, batch_size=None, rng=None):
    """Unbiased mini-batch estimate of `blr_grad`.

    The likelihood part averages single-row estimators, each scaled by n:
    (beta n / (sigma2 b)) * sum_{i in batch} x_i (y_i - x_i^T theta).  Either
    pass explicit ``batch_indices`` or a ``batch_size`` plus ``rng`` to draw
    a batch uniformly with replacement.
    """
    beta = _check_beta(beta)
    if batch_indices is None:
        if batch_size is None or rng is None:
            raise ValueError("need batch_indices, or batch_size and rng")
        batch_indices = rng.integers(0, model.n, size=batch_size)
    idx = np.asarray(batch_indices)
    if idx.size == 0:
        raise ValueError("batch must be non-empty")
    if idx.min() < 0 or idx.max() >= model.n:
        raise ValueError(f"batch index out of range [0, {model.n})")
    theta = np.asarray(theta, dtype=float)
    grad = -(theta - model.mu_p) @ model.Lambda_p
    if beta != 0.0:
        Xb = model.X[idx]
        resid = model.y[idx] - theta @ Xb.T
        grad = grad + (beta * model.n / (model.sigma2 * idx.size)) * resid @ Xb
    return grad


@dataclass(frozen=True)
class UpdateMatrices:
    """Affine form of one leapfrog step on a Gaussian annealed density.

    theta_k = A theta_{k-1} + B v_{k-1} + c_vec
    v_hat_k = C theta_{k-1} + D v_{k-1} + e_vec
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    c_vec: np.ndarray
    e_vec: np.ndarray


def update_matrices(model: BlrModel, beta: float, eta: float) -> UpdateMatrices:
    """Matrices of the affine leapfrog map at (beta, eta), identity mass."""
    beta = _check_beta(beta)
    Lambda = model.Lambda_p + beta * model.Lambda_lld
    lam_mu = model.Lambda_p @ model.mu_p + beta * model.Xty_over_s2  # Lambda times the mean, with no solve
    eye = np.eye(model.d)
    A = eye - 0.5 * eta**2 * Lambda
    B = eta * eye - 0.25 * eta**3 * Lambda
    C = -eta * Lambda
    return UpdateMatrices(A=A, B=B, C=C, D=A.copy(), c_vec=0.5 * eta**2 * lam_mu, e_vec=eta * lam_mu)


def blr_target(model: BlrModel) -> GeometricTarget:
    """Annealed-target view of the model for the generic samplers.

    The likelihood keeps its normalization constant so that the weight at
    beta = 1 estimates the marginal likelihood itself.

    The gradient X^T (y - X theta) / sigma2 comes from the cached sufficient
    statistics X^T y / sigma2 and X^T X / sigma2 (O(d^2) per state, no n-row
    residual).  The log-likelihood keeps the residual form: the expanded
    quadratic y^T y - 2 theta^T X^T y + theta^T X^T X theta cancels badly
    near the least-squares point.
    """
    prior = Gaussian(model.mu_p, precision=model.Lambda_p)
    if model.n == 0:
        return geometric_target(prior, None, None)
    const = -0.5 * model.n * np.log(2 * np.pi * model.sigma2)
    Xty_over_s2 = model.Xty_over_s2
    Lambda_lld = model.Lambda_lld

    def log_lik(theta):
        resid = model.y - np.asarray(theta, float) @ model.X.T
        return const - 0.5 * np.sum(resid * resid, axis=-1) / model.sigma2

    def grad_log_lik(theta):
        return Xty_over_s2 - np.asarray(theta, float) @ Lambda_lld

    return geometric_target(prior, log_lik, grad_log_lik)


def additive_noise_cov(model: BlrModel, batch_size: int) -> np.ndarray:
    """Additive part of the mini-batch gradient noise, as a covariance.

    Single-row likelihood-gradient estimators g_i = (n/sigma2) x_i r_i are
    evaluated at the least-squares point (residuals r = y - X mu_*), where
    the state-dependent part of the noise vanishes; the returned covariance
    is their population covariance divided by the batch size, i.e. the noise
    of a size-b batch drawn with replacement at the end of the bridge.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if model.n == 0:
        raise ValueError("additive noise is undefined for empty data")
    mu_star = np.linalg.lstsq(model.X, model.y, rcond=None)[0]
    resid = model.y - model.X @ mu_star
    contrib = (model.n / model.sigma2) * model.X * resid[:, None]
    centered = contrib - contrib.mean(axis=0)
    return (centered.T @ centered) / (model.n * batch_size)
